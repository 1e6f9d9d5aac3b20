"""The README's library quick tour is a doctest: each result it shows is the repr the library returns."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_prints_what_it_says():
    failed, attempted = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert attempted >= 10 and failed == 0
