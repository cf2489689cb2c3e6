"""Every row of tests/mutants.py still applies to the code: its old text
occurs exactly once in its module, its swap changes that text, and
each test it names is defined in the file it names.  Running the
mutants is tests/mutants.py's job."""

import pathlib

import pytest

import splitlab
from mutants import MUTANTS

PACKAGE = pathlib.Path(splitlab.__file__).parent
TESTS = pathlib.Path(__file__).parent


@pytest.mark.parametrize("module, old, new, tests", MUTANTS,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(MUTANTS)])
def test_each_mutant_swaps_one_text_for_named_tests(module, old, new, tests):
    assert (PACKAGE / f"{module}.py").read_text(encoding="utf-8").count(old) == 1
    assert new != old
    assert tests
    for test in tests:
        path, name = test.removeprefix("tests/").split("::")
        assert f"\ndef {name.split('[')[0]}(" in (TESTS / path).read_text(encoding="utf-8"), test
