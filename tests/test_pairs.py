"""The gain rule of tools/pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# parent runs 1.00 ... 1.09 s: median 1.045, quartiles 1.0225 and 1.0675, IQR 0.045
PARENT = [1.0 + i / 100 for i in range(10)]


def _change(wins, ties, gap):
    """Pair i's change run: ``gap`` below the parent's for the first ``wins`` pairs, equal for
    the next ``ties``, 0.001 above for the rest."""
    return [p - gap if i < wins else p if i < wins + ties else p + 0.001
            for i, p in enumerate(PARENT)]


def test_nine_wins_of_ten_beyond_the_iqr_meet_the_rule():
    rule = pairs.gain_rule(PARENT, _change(9, 0, 0.2), "lower")
    assert (rule["wins"], rule["losses"], rule["ties"]) == (9, 1, 0)
    assert rule["parent_iqr"] == pytest.approx(0.045)
    assert rule["met"]


def test_eight_wins_of_ten_do_not():
    rule = pairs.gain_rule(PARENT, _change(8, 0, 0.2), "lower")
    assert rule["wins"] == 8 and not rule["met"]


def test_a_gap_within_the_iqr_does_not():
    # every pair won, by 0.04 s, less than the parent's IQR of 0.045 s
    rule = pairs.gain_rule(PARENT, _change(10, 0, 0.04), "lower")
    assert rule["wins"] == 10 and not rule["met"]


def test_fewer_than_ten_pairs_do_not():
    rule = pairs.gain_rule(PARENT[:9], _change(9, 0, 0.2)[:9], "lower")
    assert rule["wins"] == 9 and not rule["met"]


def test_ties_count_for_neither_side():
    rule = pairs.gain_rule(PARENT, _change(9, 1, 0.2), "lower")
    assert (rule["wins"], rule["losses"], rule["ties"]) == (9, 0, 1)
    assert rule["met"]
    rule = pairs.gain_rule(PARENT, _change(8, 2, 0.2), "lower")
    assert (rule["wins"], rule["losses"], rule["ties"]) == (8, 0, 2)
    assert not rule["met"]


def test_higher_is_better_mirrors_the_rule():
    mirrored = [-v for v in PARENT]
    assert pairs.gain_rule(mirrored, [-v for v in _change(9, 0, 0.2)], "higher")["met"]
    assert not pairs.gain_rule(mirrored, [-v for v in _change(9, 0, 0.2)], "lower")["met"]
