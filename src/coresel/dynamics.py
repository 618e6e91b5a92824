"""Adaptive update checking, selective recomputation, and graph propagation.

After each training interval a small probe of the last coreset is re-scored.
If the discrepancy against the cached score history crosses the threshold, a
budgeted, graph-independent set of stale/boundary samples is recomputed
exactly; every other node blends its own score with the affinity-qualified
recomputed neighbors through the closed-form minimizer of the local quadratic
objective. Embeddings follow the same route behind a second threshold, after
which the k-NN graph is locally repaired.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError
from .knn_graph import MutualKnnGraph, LshIndex, repair_graph, require_directed_lists
from .store import EmbeddingTable, ScoreLedger, id_set

AFFINITY_SCORE_SCALE = 0.1  # exp(-0.1 * |score gap|) factor of the affinity


@dataclass
class UpdatePlan:
    """Everything one check decided and changed, for auditing and event logs."""

    step: int
    triggered: bool
    delta_I: float
    recal_set: tuple[int, ...] = ()
    recal_scores: dict[int, float] = field(default_factory=dict)
    delta_H: float | None = None
    propagated_scores: dict[int, float] = field(default_factory=dict)
    propagated_embeddings: tuple[int, ...] = ()  # ids whose rows blended toward anchors
    graph_repaired: bool = False
    old_scores: dict[int, float] = field(default_factory=dict)
    anchor_sets: dict[int, tuple[int, ...]] = field(default_factory=dict)

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


def affinity(g: MutualKnnGraph, ledger: ScoreLedger, i, j):
    """Edge weight discounted by score disagreement: w_ij * exp(-0.1|I_i - I_j|).

    ``i`` and ``j`` may be equal-shape id arrays; DomainError on a non-edge.
    """
    gap = np.abs(ledger.current[i] - ledger.current[j])
    return g.weight(i, j) * np.exp(-AFFINITY_SCORE_SCALE * gap)


def qualifying_anchor_sets(g: MutualKnnGraph, ledger: ScoreLedger, anchors,
                           beta_aff: float) -> dict[int, tuple[int, ...]]:
    """For each non-anchor: its anchor neighbors with affinity above the threshold."""
    anchor_ids = id_set(anchors, g.n, "anchor id")
    is_anchor = np.zeros(g.n, dtype=bool)
    is_anchor[anchor_ids] = True
    slots = g.mutual[anchor_ids]  # mutual slots hold no -1 padding: nodes index is_anchor
    nodes, owners = g.knn_ids[anchor_ids][slots], np.repeat(anchor_ids, slots.sum(axis=1))
    keep = ~is_anchor[nodes] & (affinity(g, ledger, nodes, owners) > beta_aff)
    out: dict[int, tuple[int, ...]] = {}
    for i, j in sorted(zip(nodes[keep].tolist(), owners[keep].tolist())):
        out[i] = out.get(i, ()) + (j,)
    return out


def _qualified_pairs(g: MutualKnnGraph, anchor_sets: dict, new_values: dict):
    """The (node, anchor) pairs of ``anchor_sets`` as arrays, in its order.

    Returns the qualifying nodes; per pair, the node's index into them, the
    anchor and the edge weight; and each node's total weight. Raises
    DomainError when a set names an anchor without an entry in ``new_values``,
    or belongs to an anchor, whose new value must stay verbatim.
    """
    nodes = np.fromiter(anchor_sets, dtype=np.int64, count=len(anchor_sets))
    pos = np.repeat(np.arange(len(nodes)), [len(q) for q in anchor_sets.values()])
    owners = np.array([j for q in anchor_sets.values() for j in q], dtype=np.int64)
    unknown = [j for j in owners.tolist() if j not in new_values]
    if unknown:
        raise DomainError(f"anchor set names {unknown[0]}, which has no new value")
    if any(i in new_values for i in anchor_sets):
        raise DomainError("anchor sets must belong to non-anchors only")
    w = g.weight(nodes[pos], owners)
    return nodes, pos, owners, w, np.bincount(pos, weights=w, minlength=len(nodes))


def propagate_scores(g: MutualKnnGraph, ledger: ScoreLedger, recal_new: dict,
                     anchor_sets: dict) -> dict[int, float]:
    """Closed-form propagation of recomputed scores to qualified neighbors.

    Anchors keep their recomputed values verbatim. Every non-anchor with a
    nonempty qualified set N* in ``anchor_sets`` (as ``qualifying_anchor_sets``
    returns them) moves to 1/2 * old + 1/2 * sum of normalized-weight averages
    of the anchors' new scores, the minimizer of
    1/2 (x - old)^2 + 1/2 * sum_j alpha_j (x - new_j)^2. Nothing else changes.
    """
    for a, v in recal_new.items():
        if not 0 <= int(a) < g.n:
            raise DomainError(f"anchor id {a} out of range [0, {g.n})")
        if not math.isfinite(v) or v < 0.0:
            raise DomainError(f"anchor score for {a} must be finite and >= 0, got {v!r}")
    out = {int(a): float(v) for a, v in recal_new.items()}
    nodes, pos, owners, w, w_sum = _qualified_pairs(g, anchor_sets, out)
    new = np.array([out[j] for j in owners.tolist()], dtype=np.float64)
    blended = np.bincount(pos, weights=w / w_sum[pos] * new, minlength=len(nodes))
    out.update(zip(nodes.tolist(), (0.5 * ledger.current[nodes] + 0.5 * blended).tolist()))
    return out


def embedding_shift(old_rows: dict, new_rows: dict) -> float:
    """Mean Euclidean displacement over the recomputed samples."""
    if set(old_rows) != set(new_rows):
        raise DomainError("old and new embedding maps must share the same sample ids")
    if not old_rows:
        raise DomainError("embedding shift needs at least one sample")
    total = 0.0
    for i, old in old_rows.items():
        old = np.asarray(old, dtype=np.float64)
        new = np.asarray(new_rows[i], dtype=np.float64)
        if old.shape != new.shape:
            raise DomainError(f"sample {i} changed embedding dimension {old.shape} -> {new.shape}")
        total += float(np.linalg.norm(old - new))
    return total / len(old_rows)


def propagate_embeddings(g: MutualKnnGraph, emb: EmbeddingTable, recal_new_rows: dict,
                         anchor_sets: dict) -> dict[int, np.ndarray]:
    """Blend qualified neighbors halfway toward the weighted anchor average.

    Returns only the rows that change: anchors verbatim plus each non-anchor
    with a nonempty qualified set in ``anchor_sets``. Edge weights are read
    from the current graph.
    """
    out = {int(a): np.asarray(r, dtype=np.float64).copy() for a, r in recal_new_rows.items()}
    nodes, pos, owners, w, w_sum = _qualified_pairs(g, anchor_sets, out)
    acc = np.zeros((len(nodes), emb.d), dtype=np.float64)
    np.add.at(acc, pos, w[:, None] * np.array([out[j] for j in owners.tolist()]).reshape(-1, emb.d))
    out.update(zip(nodes.tolist(), 0.5 * emb.rows[nodes] + 0.5 * (acc / w_sum[:, None])))
    return out


def check_and_update(g: MutualKnnGraph | Callable[[], MutualKnnGraph], emb: EmbeddingTable,
                     ledger: ScoreLedger, last_core, provider, cfg, rng: np.random.Generator,
                     lsh: LshIndex | None = None) -> tuple[UpdatePlan, MutualKnnGraph | Callable]:
    """One full adaptive check; mutates emb/ledger in place on trigger.

    Probes a sample of the last coreset, recomputes the probe's current
    scores when the ledger lacks them, and triggers on discrepancy > delta.
    A triggered check recomputes the recal set exactly, propagates scores,
    and, only when the mean embedding shift also crosses delta_h, replaces
    and propagates embeddings and locally repairs the graph. Any failure,
    from a provider error or mis-shaped or non-finite provider output
    (DataError) to an error inside the repair, leaves emb and ledger as they
    were. ``lsh`` holds only hyperplanes, so no check changes it.

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

    stale = probe[ledger.steps[probe, -1] < current_step]
    undo: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (array, rows, saved rows)

    def save(array, rows):
        undo.append((array, rows, array[rows]))  # fancy indexing copies

    try:
        if stale.size:
            _, probe_scores = extract_checked(provider, stale.tolist(), emb.d)
            save(ledger.steps, stale)
            save(ledger.scores, stale)
            ledger.record(stale, current_step, probe_scores)

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
        recal_score_map = {i: float(s) for i, s in zip(recal, new_scores)}
        recal_row_map = {i: new_rows[pos] for pos, i in enumerate(recal)}

        plan.anchor_sets = qualifying_anchor_sets(g, ledger, recal, cfg.beta_aff)
        score_map = propagate_scores(g, ledger, recal_score_map, plan.anchor_sets)
        plan.recal_scores = recal_score_map
        plan.propagated_scores = {i: v for i, v in score_map.items() if i not in recal_score_map}
        plan.old_scores = {i: float(ledger.current[i]) for i in score_map}

        old_rows = {i: emb.rows[i].copy() for i in recal}
        plan.delta_H = embedding_shift(old_rows, recal_row_map)

        emb_map: dict[int, np.ndarray] = {}
        if plan.delta_H > cfg.delta_h:
            require_directed_lists(g)
            emb_map = propagate_embeddings(g, emb, recal_row_map, plan.anchor_sets)
            plan.propagated_embeddings = tuple(sorted(set(emb_map) - set(recal)))

        # Apply: scores first (anchors advance t_history, propagated nodes do not).
        scored = np.fromiter(score_map, dtype=np.int64, count=len(score_map))
        save(ledger.steps, scored)
        save(ledger.scores, scored)
        save(ledger.t_history, np.asarray(recal, dtype=np.int64))
        ledger.record(list(score_map), current_step, list(score_map.values()), replace=True)
        for i in recal:
            ledger.mark_accurate(i, current_step)

        new_graph = g
        if emb_map:
            changed = sorted(emb_map)
            save(emb.rows, np.asarray(changed, dtype=np.int64))
            for i, row in emb_map.items():
                emb.rows[i] = row
            new_graph = repair_graph(g, lsh, emb, changed)
            plan.graph_repaired = True
    except Exception:
        # Atomicity: put back every row this check overwrote, newest first, and re-raise.
        for array, rows, saved in reversed(undo):
            array[rows] = saved
        raise
    return plan, new_graph


def extract_checked(provider, ids, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``provider.extract_features(ids)``, checked before any of it is used.

    Raises DataError unless the rows are a finite (len(ids), d) array and the
    scores a finite, non-negative (len(ids),) array. With ``d`` None (the
    first extract, before any width is known) d is the rows' own width.
    """
    rows, scores = provider.extract_features(ids)
    rows = np.asarray(rows, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    m = len(ids)
    if d is None and rows.ndim == 2:
        d = rows.shape[1]
    if rows.shape != (m, d) or not np.isfinite(rows).all():
        raise DataError(f"provider rows must be finite with shape ({m}, {'d' if d is None else d}), "
                        f"got shape {rows.shape}")
    if scores.shape != (m,) or not (np.isfinite(scores) & (scores >= 0.0)).all():
        raise DataError(f"provider scores must be finite and >= 0 with shape ({m},), "
                        f"got shape {scores.shape}")
    return rows, scores


def _common_window(ledger: ScoreLedger, probe, t_c: int, current_step: int) -> list[int]:
    """Steps within the last t_c interval recorded for every probe sample."""
    rows = ledger.steps[probe]
    first = rows[0][(rows[0] >= max(current_step - t_c, 0)) & (rows[0] < current_step)]
    in_all = (rows[:, :, None] == first).any(axis=1).all(axis=0)
    return first[in_all].tolist()
