"""The mutant battery in tests/mutants.py cannot go stale unseen: every
snippet it plants a fault in still occurs exactly once, and every test it
names still exists. The battery itself runs as its own command."""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT, source

ALL = MUTANTS + [mutant for mutant, _ in EQUIVALENT]


@pytest.mark.parametrize("mutant", ALL, ids=lambda m: f"{m.file}:{m.replacement.strip()[:40]}")
def test_each_snippet_occurs_exactly_once(mutant):
    assert source(mutant).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement


def test_each_named_test_exists():
    for mutant in MUTANTS:
        assert mutant.tests
        for test in mutant.tests:
            path, name = test.split("::")
            name = name.split("[")[0]  # a parametrized test: its function
            assert f"\ndef {name}(" in Path(ROOT, path).read_text(encoding="utf-8"), test


def test_each_equivalent_mutant_states_its_reason():
    assert all(reason and not mutant.tests for mutant, reason in EQUIVALENT)
