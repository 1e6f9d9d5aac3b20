"""Each demo prints exactly its checked-in output.

The expected text lives in tests/demo_output/<demo>.txt.  The prime-sweep
demo prints SweepReport.counts(), so its key order is pinned too.  After an
intended change to a demo's output, regenerate its file with
`PYTHONPATH=src python demos/<demo>.py > tests/demo_output/<demo>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrforms

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    expected = sorted(path.stem for path in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert expected == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output(demo):
    src = str(Path(corrforms.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, encoding="utf-8", timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text(encoding="utf-8")
