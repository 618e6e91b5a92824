"""Adaptive update checking, selective recomputation, and graph propagation.

After each training interval the scores it recorded for a small probe of the
last coreset are compared against their cached history. If the discrepancy
crosses the threshold, a budgeted, graph-independent set of long-unrecomputed
boundary samples is recomputed exactly; every other node blends its own score
with the affinity-qualified recomputed neighbors through the closed-form
minimizer of the local quadratic objective. Embeddings follow the same route
behind a second threshold, after which the k-NN graph is locally repaired.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError
from .knn_graph import MutualKnnGraph, LshIndex, repair_graph
from .store import EmbeddingTable, ScoreLedger, id_set

AFFINITY_SCORE_SCALE = 0.1  # exp(-0.1 * |score gap|) factor of the affinity


@dataclass(frozen=True)
class AnchorSets:
    """The affinity-qualified (node, anchor) pairs of one check, as arrays.

    ``anchors`` and ``nodes`` are sorted ids, no node an anchor. Pair p, in
    (node, anchor) order, joins ``nodes[node_idx[p]]`` to
    ``anchors[anchor_idx[p]]`` with edge weight ``w[p]``; ``w_sum`` is each
    node's total weight. ``len()`` is the number of nodes.
    """

    anchors: np.ndarray
    nodes: np.ndarray
    node_idx: np.ndarray
    anchor_idx: np.ndarray
    w: np.ndarray
    w_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class UpdatePlan:
    """Everything one check decided and changed, for auditing and event logs.

    ``recal_scores`` follows ``recal_set``; ``propagated_scores`` and
    ``old_scores`` (before propagation) follow ``anchor_sets.nodes``.
    """

    step: int
    triggered: bool
    delta_I: float
    recal_set: tuple[int, ...] = ()
    recal_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    delta_H: float | None = None
    propagated_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    propagated_embeddings: tuple[int, ...] = ()  # ids whose rows blended toward anchors
    graph_repaired: bool = False
    old_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    anchor_sets: AnchorSets | None = None

    def event(self) -> dict:
        return {
            "step": self.step,
            "delta_I": self.delta_I if math.isfinite(self.delta_I) else None,  # +inf: undefined
            "triggered": self.triggered,
            "recal": list(self.recal_set),
            "delta_H": self.delta_H,
            "graph_repaired": self.graph_repaired,
        }


def discrepancy_check(ledger: ScoreLedger, sample_set, t_c_window, lambda_c: float,
                      current_step: int) -> float:
    """Mean decay-weighted relative score discrepancy over the probe samples.

    Returns +inf as the distinct undefined signal when any probe sample's
    current score is zero (a collapsed denominator); an empty window yields 0.
    As a loop over samples in id order would, the first sample without a
    score at the current step or a window step raises DomainError, unless an
    earlier sample's zero denominator already returned +inf.
    """
    if not 0.0 < lambda_c < 1.0:
        raise DomainError(f"lambda_c must be in (0, 1), got {lambda_c}")
    ids = np.sort(np.asarray(sample_set, dtype=np.int64))
    if not ids.size:
        raise DomainError("sample_set must be nonempty")
    id_set(ids, ledger.n, "sample id")  # the range check; repeats count as often as given
    window = sorted(int(t) for t in t_c_window)
    if not window:
        return 0.0
    steps = np.array([current_step, *window])
    hit = ledger.steps[ids][:, None, :] == steps[:, None]  # (probe, 1 + window, slots)
    found = hit.any(axis=2) & (steps >= 0)
    vals = np.take_along_axis(ledger.scores[ids], hit.argmax(axis=2), axis=1)  # junk if not found
    now, num, den = vals[:, 0], np.zeros(len(ids)), np.zeros(len(ids))
    for c, t_k in enumerate(window, 1):
        w = lambda_c ** (t_k - current_step)
        num += w * np.abs(vals[:, c] - now)
        den += w * now
    stop = ~found.all(axis=1) | (den == 0.0)
    if stop.any():
        first = int(np.argmax(stop))
        if not found[first].all():
            ledger.score_at(int(ids[first]), int(steps[np.argmin(found[first])]))  # raises
        return math.inf
    total = 0.0
    for ratio in (num / den).tolist():  # builtin sum compensates floats from Python 3.12
        total += ratio
    return total / len(ids)


def uniqueness(g: MutualKnnGraph, ledger: ScoreLedger) -> np.ndarray:
    """Per node: deviation of its score from its weighted neighborhood mean; 0 if isolated."""
    cur = ledger.current
    w_sum = g.weights.sum(axis=1)
    isolated = w_sum == 0.0
    mean = (g.weights * cur[g.knn_ids]).sum(axis=1) / np.where(isolated, 1.0, w_sum)
    return np.where(isolated, 0.0, np.abs(cur - mean))


def update_priority(g: MutualKnnGraph, ledger: ScoreLedger, current_step: int) -> np.ndarray:
    """Per node: uniqueness times steps since its last accurate score."""
    staleness = current_step - ledger.t_history
    ahead = np.flatnonzero(staleness < 0)
    if ahead.size:
        raise DomainError(f"sample {ahead[0]} has t_history beyond step {current_step}")
    return uniqueness(g, ledger) * staleness


def select_recal_set(g: MutualKnnGraph, ledger: ScoreLedger, current_step: int,
                     k_recal: int) -> tuple[int, ...]:
    """Greedy highest-priority picks, skipping neighbors of already-picked nodes.

    Zero-priority candidates are never selected, so the result may be smaller
    than the budget.
    """
    if k_recal < 1:
        raise DomainError(f"k_recal must be >= 1, got {k_recal}")
    priorities = update_priority(g, ledger, current_step)
    order = np.argsort(-priorities, kind="stable")  # ties: smaller id first
    chosen: list[int] = []
    blocked = np.zeros(g.n, dtype=bool)
    for i in order[priorities[order] > 0.0].tolist():
        if blocked[i]:
            continue
        chosen.append(i)
        blocked[g.knn_ids[i][g.mutual[i]]] = True
        if len(chosen) == k_recal:
            break
    return tuple(sorted(chosen))


def affinity(w, ledger: ScoreLedger, i, j):
    """Edge weight ``w`` of (i, j) discounted by score disagreement: w * exp(-0.1|I_i - I_j|).

    ``w``, ``i`` and ``j`` may be equal-shape arrays.
    """
    gap = np.abs(ledger.current[i] - ledger.current[j])
    return w * np.exp(-AFFINITY_SCORE_SCALE * gap)


def qualifying_anchor_sets(g: MutualKnnGraph, ledger: ScoreLedger, anchors,
                           beta_aff: float) -> AnchorSets:
    """For each non-anchor: its anchor neighbors with affinity above the threshold."""
    anchor_ids = id_set(anchors, g.n, "anchor id")
    is_anchor = np.zeros(g.n, dtype=bool)
    is_anchor[anchor_ids] = True
    slots = g.mutual[anchor_ids]  # mutual slots hold no -1 padding: nodes index is_anchor
    nodes, owners = g.knn_ids[anchor_ids][slots], np.repeat(anchor_ids, slots.sum(axis=1))
    w = g.weights[anchor_ids][slots]  # a mutual edge has one weight at both ends, bit for bit
    keep = ~is_anchor[nodes] & (affinity(w, ledger, nodes, owners) > beta_aff)
    order = np.lexsort((owners[keep], nodes[keep]))  # no pair twice: mutual slots are distinct
    nodes, owners, w = nodes[keep][order], owners[keep][order], w[keep][order]
    first = np.diff(nodes, prepend=-1) != 0
    node_idx = np.cumsum(first) - 1
    return AnchorSets(anchor_ids, nodes[first], node_idx, np.searchsorted(anchor_ids, owners), w,
                      np.bincount(node_idx, weights=w))


def propagate_scores(ledger: ScoreLedger, recal_new, anchor_sets: AnchorSets) -> np.ndarray:
    """Closed-form propagation of recomputed scores to qualified neighbors.

    ``recal_new`` holds the anchors' recomputed scores in ``anchor_sets.anchors``
    order. Returns one score per id of ``anchors`` followed by ``nodes``:
    anchors keep their recomputed values verbatim, and each node moves to
    1/2 * old + 1/2 * sum of normalized-weight averages of its anchors' new
    scores, the minimizer of 1/2 (x - old)^2 + 1/2 * sum_j alpha_j (x - new_j)^2.
    """
    s = anchor_sets
    new = np.asarray(recal_new, dtype=np.float64)
    if new.shape != s.anchors.shape or not (np.isfinite(new) & (new >= 0.0)).all():
        raise DomainError(f"anchor scores must be finite and >= 0 with shape ({len(s.anchors)},), "
                          f"got {new!r}")
    blended = np.bincount(s.node_idx, weights=s.w / s.w_sum[s.node_idx] * new[s.anchor_idx])
    return np.concatenate((new, 0.5 * ledger.current[s.nodes] + 0.5 * blended))


def embedding_shift(old_rows, new_rows) -> float:
    """Mean Euclidean displacement between two (m, d) arrays of rows, m >= 1."""
    old, new = np.asarray(old_rows, dtype=np.float64), np.asarray(new_rows, dtype=np.float64)
    if old.ndim != 2 or old.shape != new.shape or not len(old):
        raise DomainError(f"embedding shift needs two (m, d) arrays of one shape, m >= 1, "
                          f"got {old.shape} and {new.shape}")
    total = 0.0
    for a, b in zip(old, new):
        total += float(np.linalg.norm(a - b))
    return total / len(old)


def propagate_embeddings(emb: EmbeddingTable, recal_new_rows,
                         anchor_sets: AnchorSets) -> np.ndarray:
    """Blend qualified neighbors halfway toward the weighted anchor average.

    ``recal_new_rows``, the anchors' recomputed rows in ``anchor_sets.anchors``
    order, must be a finite (len(anchors), emb.d) array. Returns one row per
    id of ``anchors`` (verbatim) followed by ``nodes``.
    """
    s = anchor_sets
    new = np.asarray(recal_new_rows, dtype=np.float64)
    if new.shape != (len(s.anchors), emb.d) or not np.isfinite(new).all():
        raise DomainError(f"anchor rows must be finite with shape ({len(s.anchors)}, {emb.d}), "
                          f"got shape {new.shape}")
    acc = np.zeros((len(s), emb.d), dtype=np.float64)
    np.add.at(acc, s.node_idx, s.w[:, None] * new[s.anchor_idx])
    return np.concatenate((new, 0.5 * emb.rows[s.nodes] + 0.5 * (acc / s.w_sum[:, None])))


def check_and_update(g: MutualKnnGraph | Callable[[], MutualKnnGraph], emb: EmbeddingTable,
                     ledger: ScoreLedger, last_core, provider, cfg, rng: np.random.Generator,
                     lsh: LshIndex | None = None) -> tuple[UpdatePlan, MutualKnnGraph | Callable]:
    """One full adaptive check; mutates emb/ledger in place on trigger.

    Probes a sample of the last coreset, whose scores at ``provider.step`` the
    ledger must hold (``run`` records them), and triggers on discrepancy > delta.
    A triggered check recomputes the recal set exactly (its one provider call),
    propagates scores, and, only when the mean embedding shift also crosses
    delta_h, replaces and propagates embeddings and locally repairs the graph.
    It writes only after every read and computation; a failure before then
    (say a provider error or bad provider output, DataError) has changed
    nothing, and one in the writes or the repair puts back a snapshot of the
    rows they touch. ``lsh`` holds only hyperplanes, so no check changes it.

    ``g`` is the graph, or a zero-argument builder of it: only a triggered
    check reads the graph, so the builder is called then, once, before
    anything else reads it or any embedding moves. Returns the plan and the
    graph as it now stands (still the builder if this check did not trigger).
    """
    core = id_set(last_core, ledger.n, "core id")
    if not core.size:
        raise DomainError("last_core must be nonempty")
    current_step = int(provider.step)
    n_probe = min(cfg.n_s_check, core.size)
    probe = np.sort(rng.choice(core, size=n_probe, replace=False))

    window = _common_window(ledger, probe, cfg.t_c, current_step)
    delta_i = discrepancy_check(ledger, probe, window, cfg.lambda_c, current_step)
    plan = UpdatePlan(step=current_step, triggered=bool(delta_i > cfg.delta), delta_I=delta_i)
    if not plan.triggered:
        return plan, g
    if not isinstance(g, MutualKnnGraph):
        g = g()

    recal = select_recal_set(g, ledger, current_step, cfg.k_recal)
    plan.recal_set = recal
    if not recal:
        return plan, g

    new_rows, new_scores = extract_checked(provider, list(recal), emb.d)
    sets = qualifying_anchor_sets(g, ledger, recal, cfg.beta_aff)
    scores = propagate_scores(ledger, new_scores, sets)
    ids = np.concatenate((sets.anchors, sets.nodes))  # the order of scores and rows
    plan.anchor_sets, plan.recal_scores = sets, new_scores
    plan.propagated_scores, plan.old_scores = scores[len(recal):], ledger.current[sets.nodes]
    plan.delta_H = embedding_shift(emb.rows[sets.anchors], new_rows)

    rows = None
    if plan.delta_H > cfg.delta_h:
        rows = propagate_embeddings(emb, new_rows, sets)
        plan.propagated_embeddings = tuple(sets.nodes.tolist())

    # Apply: scores first (anchors advance t_history, propagated nodes do not).
    snapshot = [(a, at, a[at]) for a, at in ((ledger.steps, ids), (ledger.scores, ids),
                                             (ledger.t_history, sets.anchors), (emb.rows, ids))]
    try:
        ledger.record(ids, current_step, scores, replace=True)
        ledger.mark_accurate(sets.anchors, current_step)
        new_graph = g
        if rows is not None:
            emb.rows[ids] = rows
            new_graph = repair_graph(g, lsh, emb, ids)
            plan.graph_repaired = True
    except Exception:
        for a, at, saved in snapshot:  # atomicity: every row the apply wrote goes back
            a[at] = saved
        raise
    return plan, new_graph


def extract_checked(provider, ids, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``provider.extract_features(ids)``, checked before any of it is used.

    Raises DataError unless the rows are a finite (len(ids), d) array and the
    scores a finite, non-negative (len(ids),) array, naming the first bad
    (row, col) or score index. With ``d`` None (the first extract, before any
    width is known) d is the rows' own width.
    """
    rows, scores = provider.extract_features(ids)
    rows = np.asarray(rows, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    m = len(ids)
    if d is None and rows.ndim == 2:
        d = rows.shape[1]
    if rows.shape != (m, d):
        raise DataError(f"provider rows must be finite with shape ({m}, {'d' if d is None else d}), "
                        f"got shape {rows.shape}")
    if not np.isfinite(rows).all():
        r, c = np.argwhere(~np.isfinite(rows))[0].tolist()
        raise DataError(f"provider rows must be finite, got {rows[r, c]} at row {r}, col {c}")
    if scores.shape != (m,):
        raise DataError(f"provider scores must be finite and >= 0 with shape ({m},), "
                        f"got shape {scores.shape}")
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0.0)))
    if bad.size:
        raise DataError(f"provider scores must be finite and >= 0, got {scores[bad[0]]} "
                        f"at index {bad[0]}")
    return rows, scores


def _common_window(ledger: ScoreLedger, probe, t_c: int, current_step: int) -> list[int]:
    """Steps within the last t_c interval recorded for every probe sample."""
    rows = ledger.steps[probe]
    first = rows[0][(rows[0] >= max(current_step - t_c, 0)) & (rows[0] < current_step)]
    in_all = (rows[:, :, None] == first).any(axis=1).all(axis=0)
    return first[in_all].tolist()
