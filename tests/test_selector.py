"""Blended objective, greedy selection, and the brute-force optimality oracle."""

import math

import numpy as np
import pytest

from conftest import positive_table, representation_reference
from coresel.errors import DomainError, ResourceError
from coresel.selector import (
    brute_force_coreset,
    coreset_objective,
    greedy_select,
    representation_score,
    select_coreset,
)
from coresel.store import EmbeddingTable


# ---------------------------------------------------------------------------
# representation_score
# ---------------------------------------------------------------------------

def test_full_core_covers_pool(rng):
    emb = positive_table(rng, 8, 5)
    pool = range(8)
    assert representation_score(pool, pool, emb) == pytest.approx(8.0, abs=1e-9)


def test_empty_core_scores_zero(rng):
    emb = positive_table(rng, 5, 3)
    assert representation_score([], range(5), emb) == 0.0


def test_representation_matches_reference_loop(rng):
    emb = EmbeddingTable(rng.normal(size=(6, 4)))
    core = [1, 4]
    pool = list(range(6))
    got = representation_score(core, pool, emb)
    assert got == pytest.approx(representation_reference(core, pool, emb), abs=1e-9)


def test_representation_zero_norm_names_sample(rng):
    rows = rng.normal(size=(5, 3))
    rows[3] = 0.0
    emb = EmbeddingTable(rows)
    with pytest.raises(DomainError, match="sample 3"):
        representation_score([0], range(5), emb)


# ---------------------------------------------------------------------------
# coreset_objective
# ---------------------------------------------------------------------------

def test_objective_lambda_one_is_representation(rng):
    emb = positive_table(rng, 7, 4)
    warped = rng.uniform(size=7)
    core = [0, 3]
    pool = range(7)
    assert coreset_objective(core, pool, emb, warped, 1.0) == pytest.approx(
        representation_score(core, pool, emb), abs=1e-12
    )


def test_objective_lambda_zero_is_importance_sum(rng):
    emb = positive_table(rng, 7, 4)
    warped = rng.uniform(size=7)
    core = [2, 5, 6]
    assert coreset_objective(core, range(7), emb, warped, 0.0) == pytest.approx(
        float(warped[[2, 5, 6]].sum()), abs=1e-12
    )


def test_objective_blend_combines_sub_oracles(rng):
    emb = positive_table(rng, 6, 5)
    warped = rng.uniform(size=6)
    core = [1, 4]
    pool = list(range(6))
    expected = 0.6 * representation_reference(core, pool, emb) + 0.4 * float(warped[[1, 4]].sum())
    assert coreset_objective(core, pool, emb, warped, 0.6) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# select_coreset
# ---------------------------------------------------------------------------

def test_budget_equals_pool_selects_everything(rng):
    emb = positive_table(rng, 6, 4)
    warped = rng.uniform(size=6)
    sel = select_coreset(range(6), 6, emb, warped, 0.5)
    assert sorted(sel.members) == list(range(6))
    assert sel.objective_value == pytest.approx(
        coreset_objective(range(6), range(6), emb, warped, 0.5), abs=1e-9
    )


def test_identical_embeddings_warped_breaks_tie():
    emb = EmbeddingTable([[1.0, 1.0], [1.0, 1.0]])
    warped = np.array([0.1, 0.9])
    sel = select_coreset([0, 1], 1, emb, warped, 0.5)
    assert sel.members == [1]


def test_select_rejects_empty_and_overbudget(rng):
    emb = positive_table(rng, 4, 3)
    warped = np.ones(4)
    with pytest.raises(DomainError):
        select_coreset([], 1, emb, warped, 0.5)
    with pytest.raises(DomainError):
        select_coreset(range(4), 5, emb, warped, 0.5)


def test_select_deterministic(rng):
    emb = positive_table(rng, 30, 6)
    warped = rng.uniform(size=30)
    a = select_coreset(range(30), 10, emb, warped, 0.4)
    b = select_coreset(range(30), 10, emb, warped, 0.4)
    assert a.members == b.members
    assert a.gains == b.gains


def test_gains_non_increasing_on_nonnegative_instances(rng):
    for trial in range(10):
        emb = positive_table(rng, 16, 5)
        warped = rng.uniform(size=16)
        sel = select_coreset(range(16), 8, emb, warped, 0.5)
        for g1, g2 in zip(sel.gains, sel.gains[1:]):
            assert g2 <= g1 + 1e-9


def test_greedy_objective_equals_gain_sum(rng):
    emb = positive_table(rng, 12, 4)
    warped = rng.uniform(size=12)
    sel = select_coreset(range(12), 5, emb, warped, 0.7)
    assert sel.objective_value == pytest.approx(sum(sel.gains), abs=1e-9)


def test_select_subset_of_candidates_only(rng):
    emb = positive_table(rng, 20, 4)
    warped = rng.uniform(size=20)
    candidates = [2, 3, 5, 7, 11, 13, 17, 19]
    sel = select_coreset(candidates, 4, emb, warped, 0.5)
    assert set(sel.members) <= set(candidates)
    assert len(set(sel.members)) == 4


def test_greedy_first_pick_maximizes_column_sum(rng):
    n = 15
    x = rng.normal(size=(n, 4))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    cos = unit @ unit.T
    warped = np.zeros(n)
    members, gains = greedy_select(cos, warped, 1.0, 1)
    sums = cos.sum(axis=0)
    assert members[0] == int(np.argmax(sums))
    assert gains[0] == pytest.approx(sums.max())


def test_greedy_tie_breaks_to_smaller_index():
    # Two coincident directions with equal warped scores: index 0 must win.
    cos = np.ones((3, 3))
    warped = np.array([0.5, 0.5, 0.5])
    members, _ = greedy_select(cos, warped, 0.5, 2)
    assert members[0] == 0
    assert members[1] == 1


def test_greedy_matches_per_round_temporary_reference(rng):
    # greedy_select reuses one scratch buffer; members and gains must equal,
    # bit for bit, the loop that allocates a fresh (n, n) temporary each round.
    n, budget, lam = 300, 40, 0.7
    x = rng.normal(size=(n, 12))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    cos = unit @ unit.T
    cos = (cos + cos.T) / 2.0
    warped = rng.uniform(size=n)

    ref_members, ref_gains = [], []
    selected = np.zeros(n, dtype=bool)
    cov = np.zeros(n)
    for r in range(budget):
        if r == 0:
            rep_gain = cos.sum(axis=0)
        else:
            rep_gain = np.maximum(cos - cov[:, None], 0.0).sum(axis=0)
        total = lam * rep_gain + (1.0 - lam) * warped
        total[selected] = -np.inf
        best = int(np.argmax(total))
        ref_members.append(best)
        ref_gains.append(total[best])
        selected[best] = True
        cov = cos[:, best].copy() if r == 0 else np.maximum(cov, cos[:, best])

    members, gains = greedy_select(cos, warped, lam, budget)
    assert members.tolist() == ref_members
    assert np.array_equal(gains, np.array(ref_gains))


# ---------------------------------------------------------------------------
# brute_force_coreset
# ---------------------------------------------------------------------------

def test_brute_budget_one_reduces_to_argmax(rng):
    emb = positive_table(rng, 7, 4)
    warped = rng.uniform(size=7)
    lam = 0.5
    sel = brute_force_coreset(range(7), 1, emb, warped, lam)
    scores = [coreset_objective([i], range(7), emb, warped, lam) for i in range(7)]
    assert sel.members == [int(np.argmax(scores))]


def test_brute_lambda_zero_picks_largest_warped(rng):
    emb = positive_table(rng, 8, 3)
    warped = rng.uniform(size=8)
    sel = brute_force_coreset(range(8), 2, emb, warped, 0.0)
    assert sorted(sel.members) == sorted(np.argsort(warped)[-2:].tolist())


def test_brute_dominates_greedy(rng):
    for trial in range(10):
        emb = positive_table(rng, 12, 5)
        warped = rng.uniform(size=12)
        greedy = select_coreset(range(12), 4, emb, warped, 0.5)
        brute = brute_force_coreset(range(12), 4, emb, warped, 0.5)
        assert brute.objective_value >= greedy.objective_value - 1e-9


def test_brute_resource_guard(rng):
    emb = positive_table(rng, 40, 3)
    with pytest.raises(ResourceError, match="subsets"):
        brute_force_coreset(range(40), 20, emb, np.ones(40), 0.5)


def test_greedy_hits_approximation_ratio(rng):
    ratio = 1.0 - 1.0 / math.e
    for trial in range(20):
        n = int(rng.integers(6, 13))
        b = int(rng.integers(1, 5))
        emb = positive_table(rng, n, 4)
        warped = rng.uniform(size=n)
        lam = float(rng.choice([0.0, 0.3, 0.6, 1.0]))
        greedy = select_coreset(range(n), b, emb, warped, lam)
        brute = brute_force_coreset(range(n), b, emb, warped, lam)
        assert greedy.objective_value >= ratio * brute.objective_value - 1e-9


# ---------------------------------------------------------------------------
# monotonicity and submodularity
# ---------------------------------------------------------------------------

def test_nested_set_properties(rng):
    for trial in range(100):
        n = int(rng.integers(4, 11))
        emb = positive_table(rng, n, 4)
        warped = rng.uniform(size=n)
        lam = float(rng.uniform())
        pool = list(range(n))
        size_t = int(rng.integers(1, n))
        t_set = sorted(rng.choice(n, size=size_t, replace=False).tolist())
        size_s = int(rng.integers(0, size_t + 1))
        s_set = sorted(rng.choice(t_set, size=size_s, replace=False).tolist())
        outside = [x for x in pool if x not in t_set]
        rs_s = coreset_objective(s_set, pool, emb, warped, lam)
        rs_t = coreset_objective(t_set, pool, emb, warped, lam)
        assert rs_t >= rs_s - 1e-9  # monotone
        if outside:
            x = int(rng.choice(outside))
            gain_s = coreset_objective(s_set + [x], pool, emb, warped, lam) - rs_s
            gain_t = coreset_objective(t_set + [x], pool, emb, warped, lam) - rs_t
            assert gain_s >= gain_t - 1e-9  # diminishing returns
