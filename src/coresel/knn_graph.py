"""Mutual k-NN graph construction, LSH candidate retrieval, and local repair.

An edge (i, j) exists only when each node is among the other's k nearest
neighbors (Euclidean); its weight is exp(-||h_i - h_j||^2 / 100). The graph is
stored as fixed-width (n, k) arrays: each node's directed top-k list plus a
mask of its mutual slots, so repairs after embedding updates can re-enforce
mutuality without a full rebuild.

Build and repair find neighbors by exact brute force, a few rows at a time:
each block of distance rows comes from ``rows_sq_dists``, and ``_topk`` takes
its k nearest by partition instead of sorting whole rows, so neither forms an
(n, n) matrix. ``pairwise_sq_dists`` is the all-pairs form of the same kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError
from .store import EmbeddingTable

WEIGHT_SCALE = 100.0

# Default random-hyperplane LSH geometry (sign hashing).
DEFAULT_LSH_TABLES = 8
DEFAULT_LSH_PLANES = 12

# Block size (in elements) of the distance kernels' difference tensors, and so
# the number of rows build and repair take per block. A 2 MB tensor keeps every
# temporary of the top-k pass small. Larger blocks (a 33 MB tensor) raised the
# process peak, because glibc keeps the freed blocks on its heap under the
# selector's later (n_s, n_s) temporaries.
_BLOCK_ELEMS = 1 << 18


def _weight(d2):
    return np.exp(-d2 / WEIGHT_SCALE)


def edge_weight(h_i, h_j) -> float:
    """exp(-squared distance / 100); 1.0 exactly for coincident embeddings."""
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    if h_i.shape != h_j.shape or h_i.ndim != 1:
        raise DomainError(f"edge_weight needs two equal-length vectors, got {h_i.shape} and {h_j.shape}")
    diff = h_i - h_j
    return float(_weight(diff @ diff))


@dataclass(eq=False)
class MutualKnnGraph:
    """Mutual k-NN graph as fixed-width (n, k) neighbor slots.

    Row i of ``knn_ids`` is node i's directed top-k list ordered by (squared
    distance, id), with the distances in ``knn_d2``. ``mutual[i, c]`` holds
    exactly when node ``knn_ids[i, c]`` lists i back; those slots are the
    edges, and ``weights`` holds their weights (0 in every other slot). A graph
    made from an edge list, such as a loaded dump, has no directed lists: its
    rows hold only the edges, padded with id -1, and ``knn_d2`` is None.
    """

    n: int
    k: int
    knn_ids: np.ndarray
    mutual: np.ndarray
    weights: np.ndarray
    knn_d2: np.ndarray | None = None

    @classmethod
    def from_lists(cls, knn_ids: np.ndarray, knn_d2: np.ndarray) -> "MutualKnnGraph":
        """Graph whose edges are the mutual slots of the given directed lists."""
        n, k = knn_ids.shape
        mutual = (knn_ids[knn_ids] == np.arange(n)[:, None, None]).any(axis=2)
        weights = np.where(mutual, _weight(knn_d2), 0.0)
        return cls(n=n, k=k, knn_ids=knn_ids, mutual=mutual, weights=weights, knn_d2=knn_d2)

    @classmethod
    def from_edges(cls, n: int, k: int, edges: dict) -> "MutualKnnGraph":
        """Graph with the undirected edges ``{(i, j): weight}`` and no directed lists."""
        knn_ids = np.full((n, k), -1, dtype=np.int64)
        weights = np.zeros((n, k), dtype=np.float64)
        degree = np.zeros(n, dtype=np.int64)
        for (i, j), w in sorted(edges.items()):
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise DomainError(f"edge ({i}, {j}) does not join two distinct nodes of [0, {n})")
            for a, b in ((i, j), (j, i)):
                if b in knn_ids[a, :degree[a]]:
                    raise DomainError(f"edge ({i}, {j}) is given twice")
                if degree[a] == k:
                    raise DomainError(f"node {a} has more than k={k} neighbors")
                knn_ids[a, degree[a]] = b
                weights[a, degree[a]] = w
                degree[a] += 1
        return cls(n=n, k=k, knn_ids=knn_ids, mutual=knn_ids >= 0, weights=weights)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(self.knn_ids[i][self.mutual[i]].tolist()))

    def weight(self, i, j):
        """w_ij; ``i`` and ``j`` may be equal-shape id arrays. DomainError on a non-edge."""
        i, j = np.asarray(i), np.asarray(j)
        hit = self.mutual[i] & (self.knn_ids[i] == j[..., None])
        if not hit.any(axis=-1).all():
            raise DomainError(f"no edge between {i} and {j}")
        w = self.weights[i, hit.argmax(axis=-1)]
        return float(w) if w.ndim == 0 else w

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.mutual[i] & (self.knn_ids[i] == j)).any())

    def degree(self, i: int) -> int:
        return int(self.mutual[i].sum())

    def edge_count(self) -> int:
        return int(self.mutual.sum()) // 2

    def edge_set(self) -> set[tuple[int, int]]:
        rows, slots = np.nonzero(self.mutual)
        cols = self.knn_ids[rows, slots]
        keep = rows < cols
        return set(zip(rows[keep].tolist(), cols[keep].tolist()))


def _block_rows(n: int, d: int) -> int:
    """Rows per block, so that a block's (rows, n, d) difference tensor holds about _BLOCK_ELEMS."""
    return max(1, _BLOCK_ELEMS // max(n * d, 1))


def _sq_dists_from(x, rows) -> np.ndarray:
    """Squared distances from the rows ``x[rows]`` to every row of ``x``, in row blocks.

    Each entry is the sum of squared coordinate differences, so d2(i, j) and
    d2(j, i) are bitwise equal and d2(i, i) is exactly 0.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    n, d = x.shape
    m = rows.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    rows_per_block = _block_rows(n, d)
    for start in range(0, m, rows_per_block):
        stop = min(m, start + rows_per_block)
        diff = x[rows[start:stop], None, :] - x[None, :, :]
        out[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def pairwise_sq_dists(x) -> np.ndarray:
    """All-pairs squared Euclidean distances, (n, n), symmetric with an exact zero diagonal."""
    return _sq_dists_from(x, np.arange(np.shape(x)[0]))


def rows_sq_dists(x, rows) -> np.ndarray:
    """Squared distances from the given row indices to every point, (len(rows), n)."""
    return _sq_dists_from(x, rows)


def _row_blocks(x: np.ndarray, ids: np.ndarray):
    """Yield (block ids, their squared-distance rows) a few rows at a time, self entries at inf."""
    step = _block_rows(*x.shape)
    for start in range(0, len(ids), step):
        block = ids[start:start + step]
        d2 = rows_sq_dists(x, block)
        d2[np.arange(len(block)), block] = np.inf
        yield block, d2


def _topk(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k smallest entries as (column ids, values), ordered by (value, column).

    Every entry at or below the row's k-th smallest value is kept, so ties at
    the k-th value are settled by column id exactly as a stable full sort would.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d2 <= kth)
    vals = d2[rows, cols]
    order = np.lexsort((cols, vals, rows))
    first = np.searchsorted(rows, np.arange(d2.shape[0]))  # each row's run in ``order``
    take = order[first[:, None] + np.arange(k)]
    return cols[take], vals[take]


def build_graph(emb: EmbeddingTable, k: int) -> MutualKnnGraph:
    """Mutual k-NN graph over the table's rows with exponential edge weights."""
    n = emb.n
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k >= n:
        raise DomainError(f"k must be < n (got k={k}, n={n})")
    knn_ids = np.empty((n, k), dtype=np.int64)
    knn_d2 = np.empty((n, k), dtype=np.float64)
    for block, d2 in _row_blocks(emb.rows, np.arange(n)):
        knn_ids[block], knn_d2[block] = _topk(d2, k)
    return MutualKnnGraph.from_lists(knn_ids, knn_d2)


@dataclass
class LshIndex:
    """Random-hyperplane sign-hash index; one bucket per sample per table."""

    num_tables: int
    planes_per_table: int
    seed: int
    hyperplanes: np.ndarray                  # (tables, planes, d)
    tables: list[dict[int, list[int]]] = field(default_factory=list)
    assignments: np.ndarray | None = None    # (n, tables) signatures

    def signatures(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.atleast_2d(vectors)
        bits = np.einsum("tpd,nd->ntp", self.hyperplanes, vectors) >= 0.0
        weights = 1 << np.arange(self.planes_per_table, dtype=np.int64)
        return bits @ weights

    def query(self, vector: np.ndarray) -> set[int]:
        sigs = self.signatures(vector)[0]
        out: set[int] = set()
        for t in range(self.num_tables):
            out.update(self.tables[t].get(int(sigs[t]), ()))
        return out

    def reinsert(self, ids, emb: EmbeddingTable) -> None:
        """Move the given samples to the buckets of their current embeddings."""
        ids = sorted(set(int(i) for i in ids))
        if not ids:
            return
        sigs = self.signatures(emb.rows[ids])
        for pos, i in enumerate(ids):
            for t in range(self.num_tables):
                old_sig = int(self.assignments[i, t])
                bucket = self.tables[t][old_sig]
                bucket.remove(i)
                if not bucket:
                    del self.tables[t][old_sig]
                new_sig = int(sigs[pos, t])
                self.tables[t].setdefault(new_sig, []).append(i)
                self.assignments[i, t] = new_sig


def build_lsh_index(emb: EmbeddingTable, num_tables: int = DEFAULT_LSH_TABLES,
                    planes: int = DEFAULT_LSH_PLANES, seed: int = 0) -> LshIndex:
    """Deterministic sign-hash index over the table's rows."""
    if num_tables < 1 or planes < 1:
        raise DomainError(f"need num_tables >= 1 and planes >= 1, got {num_tables}, {planes}")
    if emb.d < 1:
        raise DomainError("cannot hash 0-dimensional embeddings")
    rng = np.random.default_rng(seed)
    hyperplanes = rng.standard_normal((num_tables, planes, emb.d))
    index = LshIndex(
        num_tables=num_tables,
        planes_per_table=planes,
        seed=seed,
        hyperplanes=hyperplanes,
    )
    sigs = index.signatures(emb.rows)
    index.tables = [dict() for _ in range(num_tables)]
    for i in range(emb.n):
        for t in range(num_tables):
            index.tables[t].setdefault(int(sigs[i, t]), []).append(i)
    index.assignments = sigs.astype(np.int64)
    return index


def require_directed_lists(g: MutualKnnGraph) -> None:
    """DomainError unless ``g`` has the directed lists that ``repair_graph`` needs."""
    if g.knn_d2 is None:
        raise DomainError("graph is missing directed k-NN lists; rebuild it from embeddings")


def repair_graph(g: MutualKnnGraph, idx: LshIndex | None, emb: EmbeddingTable,
                 changed) -> MutualKnnGraph:
    """Recompute neighborhoods around moved nodes and re-enforce mutuality.

    Candidate lists for each changed node come from its LSH buckets plus its
    former directed list, its mutual neighbors and theirs; without an index
    (``idx`` None) the candidate set is every node, which makes the repair
    exactly equal to a full rebuild. Unchanged nodes whose membership
    cannot have moved keep their lists; edges between them are left as they were.
    """
    changed_ids = np.unique(np.fromiter((int(c) for c in changed), dtype=np.int64))
    if not changed_ids.size:
        return g
    n, k = g.n, g.k
    bad = changed_ids[(changed_ids < 0) | (changed_ids >= n)]
    if bad.size:
        raise DomainError(f"changed id {bad[0]} out of range [0, {n})")
    require_directed_lists(g)

    rows = emb.rows
    knn_ids = g.knn_ids.copy()
    knn_d2 = g.knn_d2.copy()
    # A node v is touched when a changed node sat in its list or could now enter it.
    touched = np.isin(g.knn_ids, changed_ids).any(axis=1)
    kth_d2, kth_id = g.knn_d2[:, -1], g.knn_ids[:, -1]
    for block, d2 in _row_blocks(rows, changed_ids):
        if idx is not None:
            cand = np.zeros(d2.shape, dtype=bool)
            for r, u in enumerate(block.tolist()):
                nbrs = g.knn_ids[u][g.mutual[u]]
                cand[r, np.concatenate([
                    np.fromiter(idx.query(rows[u]), dtype=np.int64),
                    g.knn_ids[u], nbrs, g.knn_ids[nbrs][g.mutual[nbrs]],
                ])] = True
            d2[~cand] = np.inf
        enters = (d2 < kth_d2) | ((d2 == kth_d2) & (block[:, None] < kth_id))
        touched |= enters.any(axis=0)
        knn_ids[block], knn_d2[block] = _topk(d2, k)
    touched[changed_ids] = False

    for block, d2 in _row_blocks(rows, np.flatnonzero(touched)):
        knn_ids[block], knn_d2[block] = _topk(d2, k)
    return MutualKnnGraph.from_lists(knn_ids, knn_d2)


def dump_graph(g: MutualKnnGraph, target) -> None:
    """One JSON line per node: {"id": i, "k": k, "nbrs": [...], "w": [...]}, ids ascending."""
    def emit(fh):
        for i in range(g.n):
            nbrs, w = g.knn_ids[i][g.mutual[i]], g.weights[i][g.mutual[i]]
            order = np.argsort(nbrs)
            line = {"id": i, "k": g.k, "nbrs": nbrs[order].tolist(), "w": w[order].tolist()}
            fh.write(json.dumps(line) + "\n")

    if hasattr(target, "write"):
        emit(target)
        return
    with open(target, "w", encoding="utf-8") as fh:
        emit(fh)


def load_graph(source) -> MutualKnnGraph:
    """Rebuild a graph from its JSONL dump; the directed lists are not stored.

    Raises FormatError unless the records run 0..n-1 in order, share one
    ``k``, and list every edge from both ends with the same weight.
    """
    if hasattr(source, "read"):
        lines = source.readlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    try:
        records = [json.loads(line) for line in lines if line.strip()]
    except json.JSONDecodeError as exc:
        raise FormatError(f"graph dump is not valid JSON lines: {exc}") from None
    n = len(records)
    ks = set()
    directed: dict[tuple[int, int], float] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or rec.get("id") != i:
            raise FormatError(f"graph dump record {i} does not have id {i}; ids must run 0..n-1")
        k, nbrs, w = rec.get("k"), rec.get("nbrs"), rec.get("w")
        if (type(k) is not int or k < 1 or not isinstance(nbrs, list) or not isinstance(w, list)
                or len(nbrs) != len(w)):
            raise FormatError(f"graph dump record {i} needs an integer k >= 1 and "
                              f"equal-length nbrs and w lists")
        ks.add(k)
        for j, w_ij in zip(nbrs, w):
            if type(j) is not int or (i, j) in directed or type(w_ij) not in (int, float):
                raise FormatError(f"graph dump record {i} has a repeated or malformed neighbor {j!r}")
            directed[(i, j)] = float(w_ij)
    if len(ks) != 1:
        raise FormatError(f"graph dump lines disagree on k: {sorted(ks)}" if ks else "graph dump is empty")
    for (i, j), w_ij in directed.items():
        if directed.get((j, i)) != w_ij:
            raise FormatError(f"graph dump edge ({i}, {j}) is not listed from both ends with one weight")
    try:
        return MutualKnnGraph.from_edges(n, ks.pop(), {e: w for e, w in directed.items() if e[0] <= e[1]})
    except DomainError as exc:
        raise FormatError(f"graph dump: {exc}") from None
