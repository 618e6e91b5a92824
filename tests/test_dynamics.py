"""Adaptive checking, recalculation targeting, and graph propagation."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import anchor_dict, audit_graph, by_id, discrepancy_reference
from coresel.dynamics import (
    affinity,
    check_and_update,
    discrepancy_check,
    embedding_shift,
    propagate_embeddings,
    propagate_scores,
    qualifying_anchor_sets,
    select_recal_set,
    uniqueness,
    update_priority,
)
from coresel.errors import DataError, DomainError
from coresel import knn_graph
from coresel.knn_graph import MutualKnnGraph, build_graph, build_lsh_index, dump_graph, load_graph
from coresel.simulator import SimState
from coresel.store import EmbeddingTable, ScoreLedger, SelectionConfig


def graph_from_edges(n, edges):
    """Hand-built graph: edges as {(i, j): weight}, k the largest degree."""
    degree = np.bincount(np.asarray(list(edges), dtype=np.int64).ravel(), minlength=n)
    return MutualKnnGraph.from_edges(n, max(int(degree.max()), 1), edges)


def ledger_with(scores, step=0):
    return ScoreLedger.from_scores(np.asarray(scores, dtype=float), step=step)


# ---------------------------------------------------------------------------
# discrepancy_check
# ---------------------------------------------------------------------------

def test_discrepancy_zero_when_history_constant():
    ledger = ScoreLedger(3, window=5)
    for i in range(3):
        for step in range(1, 6):
            ledger.record(i, step, 2.0)
    assert discrepancy_check(ledger, range(3), [1, 2, 3, 4], 0.99, 5) == 0.0


def test_discrepancy_single_term_weight_cancels():
    ledger = ScoreLedger(1, window=2)
    ledger.record(0, 1, 2.0)
    ledger.record(0, 5, 1.0)
    assert discrepancy_check(ledger, [0], [1], 0.99, 5) == pytest.approx(1.0, abs=1e-12)


def test_discrepancy_matches_double_loop_reference(rng):
    n, steps = 20, 5
    current = 10
    window = list(range(current - steps, current))
    ledger = ScoreLedger(n, window=steps + 1)
    values = rng.uniform(0.5, 3.0, size=(n, steps + 1))
    for i in range(n):
        for pos, step in enumerate(window + [current]):
            ledger.record(i, step, float(values[i, pos]))
    lam = 0.99
    got = discrepancy_check(ledger, range(n), window, lam, current)

    expected = 0.0
    for i in range(n):
        now = values[i, -1]
        num = sum(lam ** (t - current) * abs(values[i, pos] - now) for pos, t in enumerate(window))
        den = sum(lam ** (t - current) * now for t in window)
        expected += num / den
    expected /= n
    assert got == pytest.approx(expected, abs=1e-12)


def _outcome(fn, *args):
    """A float's bits, or the DomainError message it raised."""
    try:
        return ("value", np.float64(fn(*args)).view(np.int64))
    except DomainError as exc:
        return ("raised", str(exc))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), slots=st.integers(1, 6),
       gappy_share=st.sampled_from([0.0, 0.15, 0.4]), zero_share=st.sampled_from([0.0, 0.15, 0.4]),
       lam=st.sampled_from([0.5, 0.9, 0.99]))
def test_discrepancy_equals_scalar_loop_bitwise(seed, n, slots, gappy_share, zero_share, lam):
    # Same value to the bit, and the same DomainError (sample, step) or +inf,
    # whichever the scalar loop meets first. Gappy samples skip half their
    # steps and zero samples have a zero current score; probes repeat ids and
    # reach past 8 samples, where a pairwise sum of the ratios would differ.
    gen = np.random.default_rng(seed)
    current = int(gen.integers(0, 8))
    ledger = ScoreLedger(n, window=slots)
    u = gen.uniform(size=n)
    gappy = u < gappy_share
    zero = (u >= gappy_share) & (u < gappy_share + zero_share)
    for step in range(current + 1):
        ids = np.flatnonzero(~gappy | (gen.uniform(size=n) < 0.5))
        vals = gen.uniform(0.1, 3.0, size=ids.size)
        if step == current:
            vals[zero[ids]] = 0.0
        ledger.record(ids, step, vals)
    probe = gen.integers(n, size=int(gen.integers(1, 2 * n + 1))).tolist()
    window = gen.integers(max(current - slots + 1, 0), current + 1,
                          size=int(gen.integers(0, 5))).tolist()
    if gen.uniform() < 0.2:  # a step that may be evicted, unrecorded or negative
        window.append(int(gen.integers(-1, current + 1)))
    got = _outcome(discrepancy_check, ledger, probe, window, lam, current)
    assert got == _outcome(discrepancy_reference, ledger, probe, window, lam, current)


def test_discrepancy_degenerate_denominator_is_inf():
    ledger = ScoreLedger(1, window=2)
    ledger.record(0, 1, 1.0)
    ledger.record(0, 5, 0.0)
    assert discrepancy_check(ledger, [0], [1], 0.99, 5) == math.inf


def test_discrepancy_empty_window_is_zero():
    ledger = ScoreLedger(1)
    ledger.record(0, 5, 1.0)
    assert discrepancy_check(ledger, [0], [], 0.99, 5) == 0.0


def test_discrepancy_validates_inputs():
    ledger = ScoreLedger(1)
    ledger.record(0, 5, 1.0)
    with pytest.raises(DomainError):
        discrepancy_check(ledger, [], [1], 0.99, 5)
    with pytest.raises(DomainError):
        discrepancy_check(ledger, [0], [1], 1.0, 5)


@pytest.mark.parametrize("bad", [-1, 3])
def test_discrepancy_rejects_ids_outside_range(bad):
    # -1 used to read sample n - 1, and n raised a bare IndexError
    ledger = ScoreLedger(3, window=2)
    for i in range(3):
        ledger.record(i, 1, 1.0)
        ledger.record(i, 5, 2.0)
    with pytest.raises(DomainError, match=f"sample id {bad} out of range"):
        discrepancy_check(ledger, [0, bad], [1], 0.99, 5)


# ---------------------------------------------------------------------------
# uniqueness / update_priority / select_recal_set
# ---------------------------------------------------------------------------

def test_uniqueness_zero_when_neighbors_match():
    g = graph_from_edges(3, {(0, 1): 0.5, (0, 2): 0.25})
    ledger = ledger_with([1.0, 1.0, 1.0])
    assert uniqueness(g, ledger)[0] == 0.0


def test_uniqueness_isolated_node_is_zero():
    g = graph_from_edges(3, {(0, 1): 0.5})
    ledger = ledger_with([1.0, 0.0, 7.0])
    assert uniqueness(g, ledger)[2] == 0.0


def test_uniqueness_weighted_mean_arithmetic():
    g = graph_from_edges(3, {(0, 1): 0.5, (0, 2): 0.25})
    ledger = ledger_with([1.0, 0.0, 0.0])
    assert uniqueness(g, ledger)[0] == pytest.approx(1.0, abs=1e-12)


def test_priority_fresh_node_is_zero():
    g = graph_from_edges(2, {(0, 1): 0.5})
    ledger = ledger_with([1.0, 0.0], step=10)
    assert update_priority(g, ledger, 10)[0] == 0.0


def test_priority_product():
    g = graph_from_edges(2, {(0, 1): 1.0})
    ledger = ledger_with([1.0, 0.5], step=0)
    assert update_priority(g, ledger, 10)[0] == pytest.approx(5.0, abs=1e-12)


def test_priority_argmax_matches_full_scan(rng):
    emb = EmbeddingTable(rng.normal(size=(30, 4)))
    g = build_graph(emb, k=4)
    ledger = ScoreLedger.from_scores(rng.uniform(0.1, 2.0, size=30), step=0)
    for i in range(30):
        ledger.t_history[i] = int(rng.integers(0, 8))
    priorities = update_priority(g, ledger, 10)
    best = max(range(30), key=lambda i: (priorities[i], -i))
    recal = select_recal_set(g, ledger, 10, k_recal=1)
    assert recal == (best,)


def test_vectorized_dynamics_match_per_node_reference(rng):
    emb = EmbeddingTable(rng.normal(size=(60, 4)))
    g = build_graph(emb, k=5)
    ledger = ScoreLedger.from_scores(rng.uniform(0.1, 2.0, size=60), step=0)
    cur = ledger.current
    got = uniqueness(g, ledger)
    anchors = sorted(rng.choice(60, size=10, replace=False).tolist())
    expected_sets = {}
    for i in range(60):
        nbrs = g.neighbors(i)
        w = [g.weight(i, j) for j in nbrs]
        mean = sum(wj * cur[j] for wj, j in zip(w, nbrs)) / sum(w) if nbrs else cur[i]
        assert got[i] == pytest.approx(abs(cur[i] - mean), abs=1e-12)
        qualified = tuple(j for j, wj in zip(nbrs, w) if i not in anchors and j in anchors
                          and wj * math.exp(-0.1 * abs(cur[i] - cur[j])) > 0.9)
        if qualified:
            expected_sets[i] = qualified
    assert anchor_dict(qualifying_anchor_sets(g, ledger, anchors, beta_aff=0.9)) == expected_sets


def test_recal_complete_graph_selects_one():
    edges = {(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)}
    g = graph_from_edges(4, edges)
    ledger = ledger_with([5.0, 1.0, 1.0, 1.0], step=0)
    recal = select_recal_set(g, ledger, 10, k_recal=3)
    assert len(recal) == 1
    assert recal == (0,)


def test_recal_edgeless_graph_takes_top_k():
    g = graph_from_edges(5, {})
    # no edges -> uniqueness 0 everywhere -> nothing qualifies
    ledger = ledger_with([3.0, 1.0, 2.0, 5.0, 4.0], step=0)
    assert select_recal_set(g, ledger, 10, k_recal=3) == ()


def test_recal_disconnected_pairs_take_top_priorities(rng):
    # five isolated edges; both endpoints of pair i have priority 10 * (i + 1),
    # so the greedy walks pairs from the last to the first, blocking partners
    edges = {(2 * i, 2 * i + 1): 1.0 for i in range(5)}
    g = graph_from_edges(10, edges)
    scores = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0]
    ledger = ledger_with(scores, step=0)
    assert select_recal_set(g, ledger, 10, k_recal=3) == (4, 6, 8)


def test_recal_set_is_independent(rng):
    emb = EmbeddingTable(rng.normal(size=(50, 5)))
    g = build_graph(emb, k=5)
    ledger = ScoreLedger.from_scores(rng.uniform(0.1, 2.0, size=50), step=0)
    recal = select_recal_set(g, ledger, 10, k_recal=8)
    assert len(recal) >= 1
    for a in recal:
        for b in recal:
            if a != b:
                assert not g.has_edge(a, b)
    # greedy replay: walking the priority order reproduces the same set
    priorities = update_priority(g, ledger, 10)
    order = sorted(range(50), key=lambda i: (-priorities[i], i))
    replay, blocked = [], set()
    for i in order:
        if priorities[i] <= 0 or i in blocked:
            continue
        replay.append(i)
        blocked.update(g.neighbors(i))
        if len(replay) == 8:
            break
    assert tuple(sorted(replay)) == recal


# ---------------------------------------------------------------------------
# affinity
# ---------------------------------------------------------------------------

def test_affinity_equal_scores_is_weight():
    ledger = ledger_with([2.0, 2.0])
    assert affinity(0.37, ledger, 0, 1) == pytest.approx(0.37, abs=1e-12)


def test_affinity_unit_weight_gap_ten():
    ledger = ledger_with([10.0, 0.0])
    assert affinity(1.0, ledger, 0, 1) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_affinity_strictly_below_weight_with_gap():
    ledger = ledger_with([1.0, 0.5])
    assert affinity(0.8, ledger, 0, 1) < 0.8


# ---------------------------------------------------------------------------
# propagate_scores
# ---------------------------------------------------------------------------

def _propagate_scores(g, ledger, recal_new, beta_aff):
    """propagate_scores of {anchor: score} over the sets that qualify at ``beta_aff``, by id."""
    sets = qualifying_anchor_sets(g, ledger, recal_new, beta_aff)
    return by_id(sets, propagate_scores(ledger, [recal_new[a] for a in sets.anchors], sets))


def test_propagation_skips_unqualified_nodes():
    g = graph_from_edges(3, {(0, 1): 0.5, (1, 2): 0.5})
    ledger = ledger_with([0.4, 0.2, 0.9])
    out = _propagate_scores(g, ledger, {0: 0.8}, 0.9)  # threshold above any affinity
    assert out == {0: 0.8}


def test_propagation_single_anchor_half_blend():
    g = graph_from_edges(2, {(0, 1): 1.0})
    ledger = ledger_with([0.8, 0.4])
    out = _propagate_scores(g, ledger, {0: 0.8}, 0.1)
    assert out[1] == pytest.approx(0.6, abs=1e-12)  # 1/2 * 0.4 + 1/2 * 0.8


def test_propagation_two_anchor_weighted_average():
    g = graph_from_edges(3, {(0, 2): 0.6, (1, 2): 0.2})
    ledger = ledger_with([1.0, 1.0, 0.4])
    out = _propagate_scores(g, ledger, {0: 1.0, 1: 0.5}, 0.0)
    expected = 0.5 * 0.4 + 0.5 * (0.75 * 1.0 + 0.25 * 0.5)
    assert out[2] == pytest.approx(expected, abs=1e-12)


def test_propagation_anchor_values_verbatim(rng):
    emb = EmbeddingTable(rng.normal(size=(25, 4)))
    g = build_graph(emb, k=4)
    ledger = ScoreLedger.from_scores(rng.uniform(0.1, 1.0, size=25), step=0)
    anchors = {3: 0.123456, 9: 1.75, 17: 0.0}
    out = _propagate_scores(g, ledger, anchors, 0.01)
    for a, v in anchors.items():
        assert out[a] == v


def test_propagation_closed_form_minimizes_quadratic(rng):
    for trial in range(40):
        deg = int(rng.integers(1, 6))
        weights = rng.uniform(0.05, 1.0, size=deg)
        old = float(rng.uniform(0.0, 2.0))
        news = rng.uniform(0.0, 2.0, size=deg)
        edges = {(0, j + 1): float(weights[j]) for j in range(deg)}
        g = graph_from_edges(deg + 1, edges)
        ledger = ledger_with([old] + news.tolist())
        out = _propagate_scores(g, ledger, {j + 1: float(news[j]) for j in range(deg)}, 0.0)
        alphas = weights / weights.sum()

        def objective(x):
            return 0.5 * (x - old) ** 2 + 0.5 * float(np.sum(alphas * (x - news) ** 2))

        def derivative(x, h=1e-6):
            return (objective(x + h) - objective(x - h)) / (2.0 * h)

        x_star = brentq(derivative, -5.0, 5.0, xtol=1e-13)
        assert out[0] == pytest.approx(x_star, abs=1e-9)


def test_propagation_change_stability_bound(rng):
    for trial in range(30):
        emb = EmbeddingTable(rng.normal(size=(20, 3)))
        g = build_graph(emb, k=4)
        old_scores = rng.uniform(0.0, 2.0, size=20)
        ledger = ScoreLedger.from_scores(old_scores, step=0)
        anchors = {int(i): float(rng.uniform(0.0, 2.0))
                   for i in rng.choice(20, size=5, replace=False)}
        out = _propagate_scores(g, ledger, anchors, 0.0)
        for i, new in out.items():
            if i in anchors:
                continue
            qualified = [j for j in g.neighbors(i) if j in anchors]
            bound = 0.5 * max(0.0, max(abs(anchors[j] - old_scores[i]) for j in qualified))
            assert abs(new - old_scores[i]) <= bound + 1e-12


def test_propagation_rejects_bad_anchor():
    g = graph_from_edges(2, {(0, 1): 1.0})
    ledger = ledger_with([1.0, 1.0])
    with pytest.raises(DomainError):
        qualifying_anchor_sets(g, ledger, [5], 0.0)
    with pytest.raises(DomainError):
        _propagate_scores(g, ledger, {0: -1.0}, 0.0)


def test_propagation_rejects_misshaped_or_nonfinite_anchor_scores():
    g = graph_from_edges(2, {(0, 1): 1.0})
    ledger = ledger_with([1.0, 1.0])
    sets = qualifying_anchor_sets(g, ledger, [1], 0.0)
    for scores in ([1.0, 0.5], [[1.0]], [math.nan], [math.inf], [-1.0]):
        with pytest.raises(DomainError, match=r"must be finite and >= 0 with shape \(1,\)"):
            propagate_scores(ledger, scores, sets)


@pytest.mark.parametrize("rows", [
    [[math.nan, 1.0]],             # used to blend into node 0: its row became [nan, 0.5]
    [[1.0, -math.inf]],
    [[1.0]],                       # the wrong widths used to raise numpy's ValueError
    [[1.0, 0.0, 0.0]],
    [[1.0, 0.0], [0.0, 1.0]],      # one row per anchor, and there is one anchor
    [1.0, 0.0],
])
def test_embedding_propagation_rejects_bad_anchor_rows(rows):
    g = graph_from_edges(2, {(0, 1): 1.0})
    ledger = ledger_with([1.0, 1.0])
    sets = qualifying_anchor_sets(g, ledger, [1], 0.0)
    assert len(sets) == 1  # node 0 qualifies, so a bad row would reach it
    with pytest.raises(DomainError, match=r"anchor rows must be finite with shape \(1, 2\)"):
        propagate_embeddings(EmbeddingTable(np.eye(2)), rows, sets)


# ---------------------------------------------------------------------------
# embedding_shift / propagate_embeddings
# ---------------------------------------------------------------------------

def test_shift_identical_rows_zero():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert embedding_shift(rows, rows.copy()) == 0.0


def test_shift_single_displacement():
    old = np.zeros((1, 3))
    new = np.array([[3.0, 0.0, 0.0]])
    assert embedding_shift(old, new) == pytest.approx(3.0, abs=1e-12)


def test_shift_matches_reference_loop(rng):
    old = rng.normal(size=(10, 6))
    new = rng.normal(size=(10, 6))
    expected = np.mean([np.linalg.norm(old[i] - new[i]) for i in range(10)])
    assert embedding_shift(old, new) == pytest.approx(expected, abs=1e-12)


def test_shift_key_mismatch():
    # rows are matched by position, so the sample sets differ when the row counts do
    with pytest.raises(DomainError):
        embedding_shift(np.zeros((1, 2)), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        embedding_shift(np.zeros((0, 2)), np.zeros((0, 2)))


def _propagate_embeddings(g, ledger, emb, new_rows, beta_aff):
    """propagate_embeddings of {anchor: row} over the sets that qualify at ``beta_aff``, by id."""
    sets = qualifying_anchor_sets(g, ledger, new_rows, beta_aff)
    return by_id(sets, propagate_embeddings(emb, [new_rows[a] for a in sets.anchors], sets))


def test_embedding_propagation_absent_without_qualifiers():
    g = graph_from_edges(3, {(0, 1): 0.5, (1, 2): 0.5})
    ledger = ledger_with([1.0, 1.0, 1.0])
    emb = EmbeddingTable(np.eye(3))
    new_rows = {0: np.array([5.0, 0.0, 0.0])}
    out = _propagate_embeddings(g, ledger, emb, new_rows, 0.9)
    assert set(out) == {0}


def test_embedding_propagation_midpoint():
    g = graph_from_edges(2, {(0, 1): 1.0})
    ledger = ledger_with([1.0, 1.0])
    emb = EmbeddingTable([[0.0, 0.0], [4.0, 4.0]])
    new_rows = {0: np.array([2.0, 0.0])}
    out = _propagate_embeddings(g, ledger, emb, new_rows, 0.1)
    assert np.allclose(out[1], 0.5 * np.array([4.0, 4.0]) + 0.5 * np.array([2.0, 0.0]))


def test_embedding_propagation_weighted_mean(rng):
    weights = {1: 0.7, 2: 0.2, 3: 0.1}
    edges = {(0, j): w for j, w in weights.items()}
    g = graph_from_edges(4, edges)
    ledger = ledger_with([1.0, 1.0, 1.0, 1.0])
    emb = EmbeddingTable(rng.normal(size=(4, 5)))
    new_rows = {j: rng.normal(size=5) for j in (1, 2, 3)}
    out = _propagate_embeddings(g, ledger, emb, new_rows, 0.0)
    total_w = sum(weights.values())
    expected = 0.5 * emb.rows[0] + 0.5 * sum(
        w * new_rows[j] for j, w in weights.items()
    ) / total_w
    assert np.allclose(out[0], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# check_and_update
# ---------------------------------------------------------------------------

def _cfg(**overrides):
    base = dict(budget_b=16, n_s=64, budget_eta=0.1, t_c=10, k=5, k_recal=8,
                n_s_check=8, delta=0.05, delta_h=0.02, seed=3)
    base.update(overrides)
    return SelectionConfig(**base)


def _prepare(sim, cfg, warm=15, window=None):
    rng = np.random.default_rng(cfg.seed)
    for _ in range(warm):
        sim.train_step(rng.choice(sim.n, size=16, replace=False))
    rows, scores = sim.extract_features(range(sim.n))
    emb = EmbeddingTable(rows)
    ledger = ScoreLedger.from_scores(scores, step=sim.step, window=window or cfg.t_c + 1)
    graph = build_graph(emb, cfg.k)
    return rng, emb, ledger, graph


def _train_interval(sim, ledger, members, steps):
    for _ in range(steps):
        sim.train_step(members)
        _, scores = sim.extract_features(members)
        for i, s in zip(members, scores):
            ledger.record(i, sim.step, float(s))


def test_check_frozen_provider_never_triggers():
    cfg = _cfg(delta=0.0)
    sim = SimState.create(n=100, dim=6, classes=3, learning_rate=0.2, seed=3, freeze_at=15)
    rng, emb, ledger, graph = _prepare(sim, cfg)
    members = list(range(0, 32))
    for _ in range(3):
        _train_interval(sim, ledger, members, cfg.t_c)
        plan, graph = check_and_update(graph, emb, ledger, members, sim, cfg, rng)
        assert plan.delta_I == 0.0
        assert not plan.triggered


def test_check_rejects_core_ids_outside_range():
    # -1 used to probe sample n - 1, which trained last and so needed no extract
    cfg = _cfg(delta=0.0, delta_h=0.0)
    sim = SimState.create(n=100, dim=6, classes=3, learning_rate=0.3, seed=3, drift=0.05)
    rng, emb, ledger, graph = _prepare(sim, cfg)
    _train_interval(sim, ledger, list(range(68, 100)), cfg.t_c)
    before = (emb.rows.copy(), ledger.steps.copy(), ledger.scores.copy())
    with pytest.raises(DomainError, match="core id -1 out of range"):
        check_and_update(graph, emb, ledger, [-1], sim, cfg, rng)
    for saved, now in zip(before, (emb.rows, ledger.steps, ledger.scores)):
        assert np.array_equal(saved, now)


def test_check_without_probe_score_at_current_step_raises_before_any_call():
    # The check compares the scores the interval recorded; it re-scores nothing.
    cfg = _cfg(delta=0.0, delta_h=0.0, n_s_check=24)  # the probe is the whole core
    sim = SimState.create(n=80, dim=6, classes=3, learning_rate=0.3, seed=7, drift=0.05)
    gen, emb, ledger, graph = _prepare(sim, cfg)
    members = list(range(0, 24))
    _train_interval(sim, ledger, members, cfg.t_c - 1)
    sim.train_step(members)
    _, scores = sim.extract_features(members)
    ledger.record(np.delete(members, 5), sim.step, np.delete(scores, 5))  # not sample 5
    before = [a.copy() for a in (ledger.steps, ledger.scores, ledger.t_history, emb.rows)]
    provider = _PatchedProvider(sim, lambda call, rows, scores: (rows, scores))
    with pytest.raises(DomainError, match=f"sample 5 has no recorded score at step {sim.step}$"):
        check_and_update(graph, emb, ledger, members, provider, cfg, gen)
    assert provider.calls == 0
    for saved, now in zip(before, (ledger.steps, ledger.scores, ledger.t_history, emb.rows)):
        assert np.array_equal(saved, now)


def test_check_triggered_scores_only_when_shift_small():
    cfg = _cfg(delta=0.0, delta_h=math.inf)
    sim = SimState.create(n=100, dim=6, classes=3, learning_rate=0.3, seed=3, drift=0.05)
    rng, emb, ledger, graph = _prepare(sim, cfg)
    members = list(range(0, 32))
    _train_interval(sim, ledger, members, cfg.t_c)
    rows_before = emb.rows.copy()
    edges_before = graph.edge_set()
    current_before = ledger.current.copy()
    plan, graph2 = check_and_update(graph, emb, ledger, members, sim, cfg, rng)
    assert plan.triggered
    assert plan.delta_H is not None and plan.delta_H >= 0.0
    assert not plan.graph_repaired
    assert plan.propagated_embeddings == ()
    assert np.array_equal(emb.rows, rows_before)          # embeddings untouched
    assert graph2.edge_set() == edges_before              # graph untouched
    assert not np.array_equal(ledger.current, current_before)  # scores moved
    for a, score in zip(plan.recal_set, plan.recal_scores):
        assert ledger.current[a] == score
        assert ledger.t_history[a] == sim.step


def test_check_triggered_with_graph_repair():
    cfg = _cfg(delta=0.0, delta_h=0.0)
    sim = SimState.create(n=100, dim=6, classes=3, learning_rate=0.3, seed=3, drift=0.05)
    rng, emb, ledger, graph = _prepare(sim, cfg)
    members = list(range(0, 32))
    _train_interval(sim, ledger, members, cfg.t_c)
    rows_before = emb.rows.copy()
    plan, graph2 = check_and_update(graph, emb, ledger, members, sim, cfg, rng)
    assert plan.triggered and plan.graph_repaired
    moved = np.flatnonzero((emb.rows != rows_before).any(axis=1))
    assert list(plan.propagated_embeddings) == sorted(set(moved.tolist()) - set(plan.recal_set))
    for a in plan.recal_set:
        rows, _ = sim.extract_features([a])
        assert np.allclose(emb.rows[a], rows[0])
    audit_graph(graph2, emb)


def test_check_recal_set_independent_and_bounded(rng):
    cfg = _cfg(delta=0.0, delta_h=0.0, k_recal=6)
    sim = SimState.create(n=120, dim=6, classes=4, learning_rate=0.3, seed=5, drift=0.04)
    gen, emb, ledger, graph = _prepare(sim, cfg)
    members = list(range(40))
    for _ in range(4):
        _train_interval(sim, ledger, members, cfg.t_c)
        plan, graph = check_and_update(graph, emb, ledger, members, sim, cfg, gen)
        if not plan.triggered:
            continue
        assert 0 < len(plan.recal_set) <= cfg.k_recal
        for a in plan.recal_set:
            for b in plan.recal_set:
                if a != b:
                    assert not graph.has_edge(a, b) or plan.graph_repaired
        assert plan.triggered == (plan.delta_I > cfg.delta)


class _PatchedProvider:
    """Simulator whose ``extract_features`` output passes through ``patch(call, rows, scores)``."""

    def __init__(self, sim, patch):
        self.sim = sim
        self.patch = patch
        self.calls = 0

    @property
    def step(self):
        return self.sim.step

    @property
    def n(self):
        return self.sim.n

    def extract_features(self, ids):
        self.calls += 1
        rows, scores = self.sim.extract_features(ids)
        return self.patch(self.calls, rows, scores)


def _assert_failed_check_leaves_state(patch, error, match, window=None, reload_graph=False,
                                      with_lsh=False, fault=None, builder=None, fill=False):
    """Run a triggering check through a patched provider; it must raise and change nothing.

    ``window`` sizes the ledger (default t_c + 1), and ``fill`` first trains
    and records one step on every sample, so that with a window of 2 every
    row is full; ``reload_graph`` swaps the graph for its dump's reload,
    which has no directed lists to repair from.
    ``with_lsh`` gives the check an LSH index, so a failing repair runs on
    LSH candidates; ``fault()`` runs just before the check, to plant a failure.
    ``builder`` takes the graph's place, as the deferred build the check calls.
    """
    cfg = _cfg(delta=0.0, delta_h=0.0)
    sim = SimState.create(n=80, dim=6, classes=3, learning_rate=0.3, seed=7, drift=0.05)
    gen, emb, ledger, graph = _prepare(sim, cfg, window=window)
    if reload_graph:
        buf = io.StringIO()
        dump_graph(graph, buf)
        graph = load_graph(io.StringIO(buf.getvalue()))
    lsh = build_lsh_index(emb, seed=cfg.seed) if with_lsh else None
    members = list(range(0, 24))
    if fill:
        _train_interval(sim, ledger, list(range(sim.n)), 1)
    _train_interval(sim, ledger, members, cfg.t_c)

    current_before = ledger.current.copy()
    histories_before = [ledger.history(i) for i in range(ledger.n)]
    steps_before, scores_before = ledger.steps.copy(), ledger.scores.copy()
    t_history_before = ledger.t_history.copy()
    rows_before = emb.rows.copy()
    provider = _PatchedProvider(sim, patch)
    if fault is not None:
        fault()
    with pytest.raises(error, match=match):
        check_and_update(builder or graph, emb, ledger, members, provider, cfg, gen, lsh=lsh)
    assert np.array_equal(ledger.current, current_before)
    assert [ledger.history(i) for i in range(ledger.n)] == histories_before
    assert np.array_equal(ledger.steps, steps_before)
    assert np.array_equal(ledger.scores, scores_before)
    assert np.array_equal(ledger.t_history, t_history_before)
    assert np.array_equal(emb.rows, rows_before)


def _offline_at_recal(call, rows, scores):  # the recal extract is a check's one provider call
    raise RuntimeError("provider offline")


def test_check_provider_failure_leaves_state():
    _assert_failed_check_leaves_state(_offline_at_recal, RuntimeError, "offline")


def _screened_rows_out_of_memory(screen, block, out):
    raise MemoryError("injected in _screened_rows")


def test_check_repair_failure_restores_full_window(monkeypatch):
    # Every row holds two entries in a window of 2, so the score write pushes
    # each written row's oldest entry out before the repair fails; the
    # snapshot must bring it back.
    _assert_failed_check_leaves_state(
        lambda call, rows, scores: (rows, scores), MemoryError, "injected", window=2, fill=True,
        fault=lambda: monkeypatch.setattr(knn_graph, "_screened_rows",
                                          _screened_rows_out_of_memory))


def test_check_repair_failure_restores_embeddings_ledger_and_lsh(monkeypatch):
    # The repair runs after the check has written scores, t_history and
    # embedding rows; a failure inside it must undo all of them. The LSH index
    # holds only hyperplanes, so there is nothing of it to undo.
    _assert_failed_check_leaves_state(
        lambda call, rows, scores: (rows, scores), MemoryError, "injected", with_lsh=True,
        fault=lambda: monkeypatch.setattr(knn_graph, "_screened_rows",
                                          _screened_rows_out_of_memory))


def test_check_failed_deferred_build_leaves_state():
    # The build runs before the check's first write, so its failure leaves nothing to undo.
    def out_of_memory():
        raise MemoryError("injected in the deferred build")

    _assert_failed_check_leaves_state(lambda call, rows, scores: (rows, scores), MemoryError,
                                      "deferred build", builder=out_of_memory)


def test_check_calls_the_deferred_build_once_at_the_first_trigger():
    cfg = _cfg(delta=0.05, delta_h=0.0)
    sim = SimState.create(n=100, dim=6, classes=3, learning_rate=0.3, seed=3, drift=0.05)
    rng, emb, ledger, graph = _prepare(sim, cfg)
    built = []

    def build():  # before any embedding moves, so it is the set-up graph, bit for bit
        built.append(build_graph(emb, cfg.k))
        for name in ("knn_ids", "knn_d2", "mutual", "weights"):
            assert np.array_equal(getattr(built[-1], name), getattr(graph, name))
        return built[-1]

    members, plans, builds, current = list(range(0, 32)), [], [], build
    for delta in (math.inf, 0.0, 0.0):
        _train_interval(sim, ledger, members, cfg.t_c)
        plan, current = check_and_update(current, emb, ledger, members, sim,
                                         replace(cfg, delta=delta), rng)
        plans.append(plan)
        builds.append(len(built))
        assert (current is build) == (not built)
    assert [p.triggered for p in plans] == [False, True, True]
    assert builds == [0, 1, 1]
    assert plans[1].graph_repaired
    audit_graph(current, emb)


def test_check_unrepairable_graph_raises_before_any_change():
    # A reloaded dump has no directed lists, so the repair that a large
    # embedding shift calls for is impossible; the check puts back every row written before it.
    _assert_failed_check_leaves_state(lambda call, rows, scores: (rows, scores),
                                      DomainError, "directed", reload_graph=True)


def test_check_nan_recal_score_leaves_state():
    def nan_fifth_recal_score(call, rows, scores):
        if call == 1:
            scores = scores.copy()
            scores[4] = np.nan
        return rows, scores

    _assert_failed_check_leaves_state(nan_fifth_recal_score, DataError, "scores")


def test_check_nan_recal_row_leaves_state():
    def nan_first_recal_row(call, rows, scores):
        if call == 1:
            rows = rows.copy()
            rows[0] = np.nan
        return rows, scores

    _assert_failed_check_leaves_state(nan_first_recal_row, DataError, "rows")


def test_check_requires_nonempty_core(rng):
    cfg = _cfg()
    sim = SimState.create(n=50, dim=6, classes=3, seed=1)
    gen, emb, ledger, graph = _prepare(sim, cfg)
    with pytest.raises(DomainError):
        check_and_update(graph, emb, ledger, [], sim, cfg, gen)


def test_t_history_monotone_over_checks():
    cfg = _cfg(delta=0.0, delta_h=0.0)
    sim = SimState.create(n=100, dim=6, classes=3, learning_rate=0.3, seed=9, drift=0.05)
    gen, emb, ledger, graph = _prepare(sim, cfg)
    members = list(range(0, 32))
    previous = ledger.t_history.copy()
    for _ in range(4):
        _train_interval(sim, ledger, members, cfg.t_c)
        plan, graph = check_and_update(graph, emb, ledger, members, sim, cfg, gen)
        assert np.all(ledger.t_history >= previous)
        moved = np.nonzero(ledger.t_history > previous)[0]
        assert set(moved.tolist()) <= set(plan.recal_set)
        previous = ledger.t_history.copy()
