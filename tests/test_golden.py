"""Pinned numerics: fixed-seed runs against the corpus in ``tests/golden/``.

Flags, round counts and counters must match exactly, float columns within
per-column tolerances (``golden/regenerate.py``).  A change that moves the
numbers beyond them regenerates the corpus with that script and states the
printed drift.
"""

import pytest

from golden.regenerate import CASES, cli_case, compare, load


@pytest.mark.parametrize("name", sorted(set(CASES) - {"cli_run"}))
def test_library_run_matches_corpus(name):
    assert compare(CASES[name](), load(name)) == []


def test_cli_run_matches_corpus(tmp_path):
    assert compare(cli_case(tmp_path), load("cli_run")) == []
