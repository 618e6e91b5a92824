"""Shared fixtures and reference oracles used across the suite."""

import io
import itertools
import json
import math

import numpy as np
import pytest

from coresel.errors import FormatError, ResourceError
from coresel.selector import CoresetSelection
from coresel.store import EmbeddingTable

BRUTE_FORCE_LIMIT = 10 ** 6


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def positive_table(rng: np.random.Generator, n: int, d: int) -> EmbeddingTable:
    """Instance with strictly positive coordinates, so all cosines are >= 0."""
    return EmbeddingTable(rng.uniform(0.05, 1.0, size=(n, d)))


def warp_reference(x: float, params) -> float:
    """Scalar (Beta(alpha, beta) pdf at an interior x) ** gamma_temp, through log-gamma."""
    a, b = params.alpha, params.beta
    log_pdf = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
               + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
    return math.exp(params.gamma_temp * log_pdf)


def mutual_knn_oracle(rows: np.ndarray, k: int):
    """O(n^2) reference: per-node (distance, id)-ordered lists and mutual edges."""
    n = rows.shape[0]
    lists = []
    for i in range(n):
        d2 = np.sum((rows - rows[i]) ** 2, axis=1)
        d2[i] = np.inf
        order = np.argsort(d2, kind="stable")[:k]
        lists.append([int(j) for j in order])
    sets = [set(l) for l in lists]
    edges = {(i, j) for i in range(n) for j in sets[i] if j > i and i in sets[j]}
    return edges, lists


def lsh_buckets(idx, rows: np.ndarray) -> list[dict[int, set[int]]]:
    """Per table, signature -> ids: bucket tables filled one vector at a time."""
    tables = [{} for _ in range(idx.hyperplanes.shape[0])]
    for i, row in enumerate(rows):
        for table, sig in zip(tables, idx.signatures(row)[0].tolist()):
            table.setdefault(sig, set()).add(i)
    return tables


def lsh_candidates(tables, idx, vector) -> set[int]:
    """Union over tables of the bucket the vector's own signature falls in."""
    sigs = idx.signatures(vector)[0].tolist()
    return set().union(*(table.get(sig, set()) for table, sig in zip(tables, sigs)))


def signatures_reference(hyperplanes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """LSH signatures as int64 sums of powers of two over the sign bits of one
    (rows, tables, planes) einsum of the contiguous rows, viewed as uint64."""
    bits = np.einsum("tpd,nd->ntp", hyperplanes, np.ascontiguousarray(rows)) >= 0.0
    return (bits @ (1 << np.arange(hyperplanes.shape[1], dtype=np.int64))).view(np.uint64)


def repair_reference(g, idx, emb: EmbeddingTable, changed):
    """Local repair over full exact distance rows, as (knn_ids, knn_d2).

    Each changed node's whole row comes from ``rows_sq_dists``. With an LSH
    index, columns outside its candidates (its buckets over the current rows,
    its former list, its mutual neighbors and theirs) are set to inf before
    its top-k is taken and before the test of which lists it enters. Every
    other node whose list held a changed node or now admits one gets its
    whole row again. Top-k is a stable sort of the row, so ties fall to the
    smaller id.
    """
    from coresel.knn_graph import rows_sq_dists

    def dist_row(u):
        d2 = rows_sq_dists(emb.rows, [u])[0]
        d2[u] = np.inf
        return d2

    def topk(d2):
        ids = np.argsort(d2, kind="stable")[:g.k]
        return ids, d2[ids]

    changed = np.unique(np.asarray(list(changed), dtype=np.int64))
    knn_ids, knn_d2 = g.knn_ids.copy(), g.knn_d2.copy()
    touched = np.isin(g.knn_ids, changed).any(axis=1)
    kth_d2, kth_id = g.knn_d2[:, -1], g.knn_ids[:, -1]
    tables = lsh_buckets(idx, emb.rows) if idx is not None else None
    for u in changed.tolist():
        d2 = dist_row(u)
        if idx is not None:
            nbrs = g.knn_ids[u][g.mutual[u]]
            cand = np.zeros(g.n, dtype=bool)
            cand[list(lsh_candidates(tables, idx, emb.rows[u]))] = True
            cand[g.knn_ids[u]] = cand[nbrs] = cand[g.knn_ids[nbrs][g.mutual[nbrs]]] = True
            d2[~cand] = np.inf
        touched |= (d2 < kth_d2) | ((d2 == kth_d2) & (u < kth_id))
        knn_ids[u], knn_d2[u] = topk(d2)
    touched[changed] = False
    for v in np.flatnonzero(touched).tolist():
        knn_ids[v], knn_d2[v] = topk(dist_row(v))
    return knn_ids, knn_d2


def nearest_reference(screen, block, s, k: int, cand=None):
    """``knn_graph._nearest`` with the row's screened k-th value, from
    ``np.partition`` over the whole row, as the threshold."""
    kth = np.partition(s, k - 1, axis=1)[:, k - 1]
    far = s > (kth + 2.0 * screen.eps[block])[:, None]
    rows, cols = np.divmod(np.flatnonzero(~far), s.shape[1])
    ids, vals = screen.exact(block, rows, cols, cand)
    order = np.lexsort((ids, vals, rows))
    first = np.searchsorted(rows, np.arange(len(block)))
    take = order[first[:, None] + np.arange(k)]
    return ids[take], vals[take]


def dump_graph_reference(g) -> str:
    """The graph dump as one ``json.dumps`` per node record."""
    out = []
    for i in range(g.n):
        nbrs, w = g.knn_ids[i][g.mutual[i]], g.weights[i][g.mutual[i]]
        order = np.argsort(nbrs)
        line = {"id": i, "k": g.k, "nbrs": nbrs[order].tolist(), "w": w[order].tolist()}
        out.append(json.dumps(line) + "\n")
    return "".join(out)


def score_stream_reference(ledger) -> str:
    """The score stream as one ``json.dumps`` per ledger entry."""
    out = []
    for i, (steps, scores) in enumerate(zip(ledger.steps.tolist(), ledger.scores.tolist())):
        for step, score in zip(steps, scores):
            if step >= 0:
                out.append(json.dumps({"id": i, "step": step, "score": score}) + "\n")
    return "".join(out)


def score_lines_reference(text: str) -> list[tuple[int, int, float]]:
    """(id, step, score) per non-blank line, one ``json.loads`` per line; FormatError
    names the first malformed line, one whose id and step are not JSON integers
    or whose score is not a JSON number (true and false are neither)."""
    entries = []
    for lineno, line in enumerate(io.StringIO(text).readlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            i, t, v = obj["id"], obj["step"], obj["score"]
            if type(i) is not int or type(t) is not int or type(v) not in (int, float):
                raise TypeError(f"id and step must be integers and score a number, "
                                f"got {i!r}, {t!r}, {v!r}")
            entries.append((i, t, float(v)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"score stream line {lineno} is malformed: {exc}") from exc
    return entries


def anchor_dict(sets) -> dict[int, tuple[int, ...]]:
    """An ``AnchorSets`` as {node: its qualifying anchors}, what a per-node loop builds."""
    out: dict[int, tuple[int, ...]] = {}
    for p, a in zip(sets.node_idx.tolist(), sets.anchor_idx.tolist()):
        node = int(sets.nodes[p])
        out[node] = out.get(node, ()) + (int(sets.anchors[a]),)
    return out


def by_id(sets, values) -> dict:
    """A propagation result as {id: score or row}; its order is anchors, then nodes."""
    return dict(zip(np.concatenate((sets.anchors, sets.nodes)).tolist(), values))


def audit_graph(g, emb: EmbeddingTable) -> None:
    """Assert symmetry, degree cap, no self-loops, weight consistency, and that
    the mutual mask marks exactly the slots whose neighbor lists the node back."""
    for i in range(g.n):
        nbrs = g.neighbors(i)
        assert i not in nbrs, f"self-loop at {i}"
        assert len(nbrs) <= g.k, f"degree of {i} exceeds k"
        for j in nbrs:
            w = g.weight(i, j)
            assert i in g.neighbors(j) and g.weight(j, i) == w, f"asymmetric edge ({i}, {j})"
            d2 = float(np.sum((emb.rows[i] - emb.rows[j]) ** 2))
            assert abs(w - math.exp(-d2 / 100.0)) <= 1e-9
            assert 0.0 < w <= 1.0
        for c, j in enumerate(g.knn_ids[i].tolist()):
            assert g.mutual[i, c] == (i in g.knn_ids[j]), f"mutual mask wrong at ({i}, {c})"


def discrepancy_reference(ledger, sample_set, t_c_window, lambda_c: float,
                          current_step: int) -> float:
    """``discrepancy_check`` as a scalar loop over probe samples x window steps."""
    ids = sorted(int(i) for i in sample_set)
    window = sorted(int(t) for t in t_c_window)
    if not window:
        return 0.0
    total = 0.0
    for i in ids:
        now = ledger.score_at(i, current_step)
        num = 0.0
        den = 0.0
        for t_k in window:
            w = lambda_c ** (t_k - current_step)
            num += w * abs(ledger.score_at(i, t_k) - now)
            den += w * now
        if den == 0.0:
            return math.inf
        total += num / den
    return total / len(ids)


def representation_reference(core, pool, emb: EmbeddingTable) -> float:
    """Direct double loop over pool x core with per-pair cosines."""
    if not core:
        return 0.0
    total = 0.0
    for i in pool:
        best = -np.inf
        vi = emb.rows[i]
        ni = np.linalg.norm(vi)
        for j in core:
            vj = emb.rows[j]
            best = max(best, float(vi @ vj) / (ni * np.linalg.norm(vj)))
        total += best
    return total


def brute_force_coreset(candidates, budget_b: int, emb: EmbeddingTable, warped,
                        lambda_blend: float) -> CoresetSelection:
    """Exact maximizer of the blended objective by exhaustive enumeration: the
    optimality oracle for the greedy's (1 - 1/e) guarantee. The first subset in
    lexicographic order wins ties; ResourceError beyond BRUTE_FORCE_LIMIT subsets."""
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    n_subsets = math.comb(cand.size, budget_b)
    if n_subsets > BRUTE_FORCE_LIMIT:
        raise ResourceError(f"brute force over C({cand.size}, {budget_b}) = {n_subsets} subsets "
                            f"exceeds the {BRUTE_FORCE_LIMIT} limit")
    rows = emb.rows[cand]
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    cos_sim = unit @ unit.T
    warped_local = np.asarray(warped, dtype=np.float64)[cand]
    best_subset, best_value = None, -np.inf
    for subset in itertools.combinations(range(cand.size), budget_b):
        cols = np.asarray(subset)
        value = (lambda_blend * float(cos_sim[:, cols].max(axis=1).sum())
                 + (1.0 - lambda_blend) * float(warped_local[cols].sum()))
        if value > best_value:
            best_subset, best_value = cols, value
    return CoresetSelection(members=[int(cand[m]) for m in best_subset],
                            objective_value=float(best_value), gains=[])


def greedy_reference(cos_sim, warped, lam: float, budget: int):
    """Full-pass greedy: every round re-sums every column of a fresh (n, n) temporary.

    Returns (members, gains) as lists, in insertion order; ties break toward
    the smaller index, and round 0's coverage term is the plain column sum.
    From round 1 on, column j's gain is the pairwise sum of row j of the
    terms, which needs an exactly symmetric ``cos_sim``.
    """
    n = cos_sim.shape[0]
    members, gains = [], []
    selected = np.zeros(n, dtype=bool)
    cov = np.zeros(n)
    for r in range(budget):
        if r == 0:
            rep_gain = cos_sim.sum(axis=0)
        else:
            rep_gain = np.maximum(cos_sim - cov, 0.0).sum(axis=1)
        total = lam * rep_gain + (1.0 - lam) * warped
        total[selected] = -np.inf
        best = int(np.argmax(total))
        members.append(best)
        gains.append(total[best])
        selected[best] = True
        cov = cos_sim[:, best].copy() if r == 0 else np.maximum(cov, cos_sim[:, best])
    return members, gains
