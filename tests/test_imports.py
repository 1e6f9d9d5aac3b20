"""Every module of the package uses every name it imports, and importing
the package loads no process pool.

The package's __init__ is exempt: it imports names to re-export them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrforms

MODULES = sorted(
    path for path in Path(corrforms.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "annotations":
                    yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_import_does_not_load_multiprocessing():
    # only a parallel sweep needs the process pool; it imports it on first use
    code = "import sys, corrforms, corrforms.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(corrforms.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
