"""Every module of the package uses every name it imports, every private
module-level helper has a caller, no module-level function or class is
defined in two modules, no module imports process, thread or subprocess
machinery, importing the package loads no process pool and neither
dataclasses nor inspect, every name the benchmark's tracer hooks still
exists, and the retired second entry points stay retired.

The package's __init__ is exempt from the import check: it imports names
to re-export them.
"""

import ast
import importlib.util
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


PACKAGE_TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(corrforms.__file__).parent.glob("*.py"))
}


def definitions(tree):
    """Module-level functions and classes."""
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def references(tree, skip=None):
    """Names read or attributes taken anywhere in tree, outside the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_no_dead_private_helpers():
    dead = []
    for name, tree in PACKAGE_TREES.items():
        for node in definitions(tree):
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # a recursive call inside the helper itself does not count
            if not any(node.name in references(other, node) for other in PACKAGE_TREES.values()):
                dead.append(f"{name}:{node.name}")
    assert not dead, f"private helpers without a caller: {dead}"


def test_no_definition_in_two_modules():
    # a helper moved to another module must not stay behind in the old one
    homes = {}
    for name, tree in PACKAGE_TREES.items():
        for node in definitions(tree):
            homes.setdefault(node.name, []).append(name)
    twice = {helper: names for helper, names in homes.items() if len(names) > 1}
    assert not twice, f"defined in more than one module: {twice}"


ONE_PROCESS_FORBIDS = {"concurrent", "multiprocessing", "threading", "subprocess"}


@pytest.mark.parametrize("name", sorted(PACKAGE_TREES))
def test_package_stays_in_one_process(name):
    # every sweep runs in one process; a function-local import counts too
    roots = set()
    for node in ast.walk(PACKAGE_TREES[name]):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert not roots & ONE_PROCESS_FORBIDS, f"{name} imports {sorted(roots & ONE_PROCESS_FORBIDS)}"


def test_import_does_not_load_multiprocessing():
    # every sweep runs in one process, so nothing in the package needs a process pool
    code = "import sys, corrforms, corrforms.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(corrforms.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_does_not_load_dataclasses_or_inspect():
    # result records are NamedTuples; dataclasses would pull in inspect, ast, dis and tokenize
    code = "import sys, corrforms, corrforms.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(corrforms.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_benchmark_tracer_finds_every_hooked_name():
    # perfbench/tracer.py reports a renamed or deleted function as a metric that reads 0
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


# one routine per job: Horner composition is poly._compose_over, a derivative
# is Polynomial.derivative (the quotient rule on num and den), and a divisor's
# multiplicities are read off Divisor.affine
RETIRED = [
    ("poly", "compose_with_quotient"),
    ("ratfunc", "RationalFunction.derivative"),
    ("geometry", "Divisor.multiplicity_at"),
    ("poly", "_compose_raw"),
]


@pytest.mark.parametrize("module, name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_second_entry_points_are_gone(module, name):
    obj = importlib.import_module(f"corrforms.{module}")
    *owners, last = name.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, last), f"corrforms.{module}.{name} is back"
