"""Mutual k-NN graph construction, LSH candidate retrieval, and local repair.

An edge (i, j) exists only when each node is among the other's k nearest
neighbors (Euclidean); its weight is exp(-||h_i - h_j||^2 / 100). The graph is
stored as fixed-width (n, k) arrays: each node's directed top-k list plus a
mask of its mutual slots, so repairs after embedding updates can re-enforce
mutuality without a full rebuild.

Build and repair find neighbors by exact brute force, a few rows at a time,
without an (n, n) matrix. Each block of distance rows is first screened with
one GEMM on mean-centred rows (||x||^2 + ||y||^2 - 2 x.y). A rounding-error
bound on the screen keeps every column that could be among a row's exact k
nearest; only those pairs get the exact sum of squared differences, and they
are ordered by (d^2, id). The exact sums are bitwise the entries of
``rows_sq_dists``, so the lists equal a stable sort of exact distance rows.
``rows_sq_dists`` and ``pairwise_sq_dists`` remain the difference kernel in
full-row and all-pairs form.

The LSH index holds only its hyperplanes: repair hashes the current rows once
per call, so no index state follows the embeddings or needs undoing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .store import EmbeddingTable, opened

WEIGHT_SCALE = 100.0

# Default random-hyperplane LSH geometry (sign hashing).
DEFAULT_LSH_TABLES = 8
DEFAULT_LSH_PLANES = 12

# Block size in float64 elements: build and repair screen _BLOCK_ELEMS // n
# rows at a time (a 2 MB (rows, n) block), the exact re-rank gathers its pair
# differences in chunks of the same size, and the difference kernels size
# their (rows, n, d) tensors by it. Larger blocks raised the process peak
# (4 MB screened blocks by 1.9 MB on offline-cli), because glibc keeps freed
# blocks on its heap under the selector's later (n_s, n_s) temporaries.
_BLOCK_ELEMS = 1 << 18

# Bound on |screened - exact| for a pair (i, j), per unit u = 2^-53 and
# N = ||x~_i||^2 + ||x~_j||^2, where x~ = fl(x - mean) are the centred rows.
# To first order in u (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3: a computed d-term dot product errs by at most
# gamma_d = d u / (1 - d u) times the sum of the absolute products, in any
# summation order, BLAS included):
#   centring  fl(x - mean) moves each coordinate of x_i - x_j by at most
#             u (|x~_i| + |x~_j|), so the squared distance by 4 u N;
#   screen    both squared norms gamma_d N, the doubled dot product gamma_d N,
#             and two additions over magnitudes up to 2 N: 2 (d + 2) u N;
#   exact sum one rounding in each difference and square plus gamma_(d-1) in
#             the sum, gamma_(d+2) relative, on a distance of at most 2 N:
#             2 (d + 2) u N.
# Together (4 (d + 2) + 4) u N <= 6 (d + 2) u N for d >= 1; c = 8 leaves
# 2 (d + 2) u N for the second-order terms and for rounding in the bound
# itself. Each screened row uses its largest bound, N_i + max_j N_j, and adds
# (d + 2) c smallest subnormals for products that underflow.
_SCREEN_C = 8.0
_U = 2.0 ** -53
_ETA = 2.0 ** -1074


def _weight(d2):
    return np.exp(-d2 / WEIGHT_SCALE)


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

    def edge_count(self) -> int:
        return int(self.mutual.sum()) // 2

    def edge_set(self) -> set[tuple[int, int]]:
        rows, slots = np.nonzero(self.mutual)
        cols = self.knn_ids[rows, slots]
        keep = rows < cols
        return set(zip(rows[keep].tolist(), cols[keep].tolist()))


def _block_rows(n: int, d: int = 1) -> int:
    """Rows per block, so that a block's (rows, n, d) values hold about _BLOCK_ELEMS."""
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


def _pair_sq_dists(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Sum of squared coordinate differences of each pair (x[i[p]], x[j[p]]).

    Bitwise equal to ``rows_sq_dists(x, i)[p, j[p]]``: the same einsum
    reduction runs over the same d differences. Pairs go in chunks of about
    _BLOCK_ELEMS differences.
    """
    out = np.empty(len(i), dtype=np.float64)
    step = _block_rows(1, x.shape[1])
    for start in range(0, len(i), step):
        diff = x[i[start:start + step]] - x[j[start:start + step]]
        out[start:start + step] = np.einsum("pk,pk->p", diff, diff)
    return out


@dataclass(frozen=True)
class _Screen:
    """The rows of one build or repair, centred once, with each row's screen error bound."""

    x: np.ndarray
    centred: np.ndarray
    sq: np.ndarray       # squared norms of the centred rows
    eps: np.ndarray      # bound on |screened - exact d2| over each row's columns

    @classmethod
    def of(cls, x: np.ndarray) -> "_Screen":
        centred = x - x.mean(axis=0)
        sq = np.einsum("ij,ij->i", centred, centred)
        eps = _SCREEN_C * (x.shape[1] + 2) * (_U * (sq + sq.max()) + _ETA)
        return cls(x=x, centred=centred, sq=sq, eps=eps)

    def blocks(self, ids: np.ndarray):
        """Yield (block ids, screened d2 rows) a few rows at a time; each block reuses one buffer."""
        n = self.x.shape[0]
        step = _block_rows(n)
        out = np.empty((min(step, len(ids)), n), dtype=np.float64)
        for start in range(0, len(ids), step):
            block = ids[start:start + step]
            yield block, _screened_rows(self, block, out[:len(block)])

    def exact(self, block, rows, cols, cand=None) -> np.ndarray:
        """Exact d2 of the pairs (block[rows], cols), inf wherever the screen was masked.

        The self column is masked, and so is every column outside ``cand``
        when a (len(block), n) candidate mask is given.
        """
        vals = _pair_sq_dists(self.x, block[rows], cols)
        masked = cols == block[rows]
        if cand is not None:
            masked |= ~cand[rows, cols]
        vals[masked] = np.inf
        return vals


def _screened_rows(screen: _Screen, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """||c_i||^2 + ||c_j||^2 - 2 c_i.c_j over the centred rows c, into ``out``; self entries inf."""
    np.matmul(screen.centred[block], screen.centred.T, out=out)
    out *= -2.0
    out += screen.sq[block, None]
    out += screen.sq
    out[np.arange(len(block)), block] = np.inf
    return out


def _nearest(screen: _Screen, block, s, k: int, cand=None) -> tuple[np.ndarray, np.ndarray]:
    """Each block row's k nearest as (ids, exact d2), ordered by (d2, id).

    A column whose exact d2 is at or below the row's exact k-th value screens
    within 2 eps of the screened k-th value, so keeping those columns keeps
    every one a stable sort of the exact row would take, ties at the k-th
    value included. A NaN screen (overflow) is kept too.
    """
    kth = np.partition(s, k - 1, axis=1)[:, k - 1]
    far = s > (kth + 2.0 * screen.eps[block])[:, None]
    # one flat scan of the mask is several times faster than a 2-d np.nonzero
    rows, cols = np.divmod(np.flatnonzero(~far), s.shape[1])
    vals = screen.exact(block, rows, cols, cand)
    order = np.lexsort((cols, vals, rows))
    first = np.searchsorted(rows, np.arange(len(block)))  # each row's run in ``order``
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
    screen = _Screen.of(emb.rows)
    for block, s in screen.blocks(np.arange(n)):
        knn_ids[block], knn_d2[block] = _nearest(screen, block, s, k)
    return MutualKnnGraph.from_lists(knn_ids, knn_d2)


@dataclass(frozen=True, eq=False)
class LshIndex:
    """Random-hyperplane sign hashes (Charikar, STOC 2002): only the hyperplanes.

    A row's signature in table t packs the signs of its dot products with that
    table's planes. The index keeps no buckets; a query compares signatures of
    the current rows, so an embedding that moves needs no update.
    """

    hyperplanes: np.ndarray  # (tables, planes, d)

    def signatures(self, vectors) -> np.ndarray:
        """(rows, tables) signatures. The rows are made contiguous first: the einsum's
        summation order, and so a row's bits, would otherwise follow the input's layout."""
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=np.float64)
        bits = np.einsum("tpd,nd->ntp", self.hyperplanes, vectors) >= 0.0
        return bits @ (1 << np.arange(self.hyperplanes.shape[1], dtype=np.int64))

    def query(self, sigs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Flat indices into a (len(rows), n) mask of the pairs (r, j) whose
        signatures in ``sigs`` agree in some table: rows[r]'s bucket mates."""
        hit = np.zeros((len(rows), len(sigs)), dtype=bool)
        # one table at a time: a (rows, n, tables) broadcast compare was 4x slower
        for table in np.ascontiguousarray(sigs.T):
            hit |= table[rows, None] == table
        return np.flatnonzero(hit)


def build_lsh_index(emb: EmbeddingTable, num_tables: int = DEFAULT_LSH_TABLES,
                    planes: int = DEFAULT_LSH_PLANES, seed: int = 0) -> LshIndex:
    """Deterministic sign-hash index for the table's dimension."""
    if num_tables < 1 or planes < 1:
        raise DomainError(f"need num_tables >= 1 and planes >= 1, got {num_tables}, {planes}")
    if emb.d < 1:
        raise DomainError("cannot hash 0-dimensional embeddings")
    return LshIndex(np.random.default_rng(seed).standard_normal((num_tables, planes, emb.d)))


def require_directed_lists(g: MutualKnnGraph) -> None:
    """DomainError unless ``g`` has the directed lists that ``repair_graph`` needs."""
    if g.knn_d2 is None:
        raise DomainError("graph is missing directed k-NN lists; rebuild it from embeddings")


def repair_graph(g: MutualKnnGraph, idx: LshIndex | None, emb: EmbeddingTable,
                 changed) -> MutualKnnGraph:
    """Recompute neighborhoods around moved nodes and re-enforce mutuality.

    A changed node's candidates are the nodes that share one of its LSH
    buckets, where signatures come from the current rows, plus its former
    directed list and its mutual neighbors' mutual neighbors. Without an index
    (``idx`` None) the candidate set is every node, which makes the repair
    exactly equal to a full rebuild. Unchanged nodes whose membership cannot
    have moved keep their lists; edges between them are left as they were.
    """
    changed_ids = np.sort(np.fromiter((int(c) for c in changed), dtype=np.int64))
    if not changed_ids.size:
        return g
    n, k = g.n, g.k
    bad = changed_ids[(changed_ids < 0) | (changed_ids >= n)]
    if bad.size:
        raise DomainError(f"changed id {bad[0]} out of range [0, {n})")
    require_directed_lists(g)
    moved = np.zeros(n, dtype=bool)  # np.unique and np.isin import numpy.ma (1.7 MB)
    moved[changed_ids] = True
    changed_ids = np.flatnonzero(moved)

    screen = _Screen.of(emb.rows)
    sigs = None if idx is None else idx.signatures(emb.rows)
    knn_ids = g.knn_ids.copy()
    knn_d2 = g.knn_d2.copy()
    # A node v is touched when a changed node sat in its list or could now enter it.
    touched = moved[g.knn_ids].any(axis=1)  # directed lists hold no -1 padding
    kth_d2, kth_id = g.knn_d2[:, -1], g.knn_ids[:, -1]
    for block, s in screen.blocks(changed_ids):
        cand = None
        if sigs is not None:
            cand = np.zeros(s.shape, dtype=bool)
            cand.flat[idx.query(sigs, block)] = True
            lists = g.knn_ids[block]  # (m, k), the mutual neighbors among them
            cand[np.arange(len(block))[:, None], lists] = True
            second = g.mutual[block][:, :, None] & g.mutual[lists]  # (m, k, k)
            cand[np.nonzero(second)[0], g.knn_ids[lists][second]] = True
            s[~cand] = np.inf
        # A changed node can enter v's list only if it screens within eps of
        # v's k-th d2; those pairs alone get exact d2 and the (d2, id) test.
        r, c = np.divmod(np.flatnonzero(~(s - screen.eps[block, None] > kth_d2)), n)
        d2 = screen.exact(block, r, c, cand)
        enters = (d2 < kth_d2[c]) | ((d2 == kth_d2[c]) & (block[r] < kth_id[c]))
        touched[c[enters]] = True
        knn_ids[block], knn_d2[block] = _nearest(screen, block, s, k, cand)
    touched &= ~moved

    for block, s in screen.blocks(np.flatnonzero(touched)):
        knn_ids[block], knn_d2[block] = _nearest(screen, block, s, k)
    return MutualKnnGraph.from_lists(knn_ids, knn_d2)


def dump_graph(g: MutualKnnGraph, target) -> None:
    """One JSON line per node: {"id": i, "k": k, "nbrs": [...], "w": [...]}, ids ascending."""
    with opened(target, "w") as fh:
        for i in range(g.n):
            nbrs, w = g.knn_ids[i][g.mutual[i]], g.weights[i][g.mutual[i]]
            order = np.argsort(nbrs)
            line = {"id": i, "k": g.k, "nbrs": nbrs[order].tolist(), "w": w[order].tolist()}
            fh.write(json.dumps(line) + "\n")


def load_graph(source) -> MutualKnnGraph:
    """Rebuild a graph from its JSONL dump; the directed lists are not stored.

    Raises FormatError unless the records run 0..n-1 in order, share one
    ``k``, list every edge from both ends with the same weight, and give
    weights that ``dump_graph`` can write: finite numbers in [0, 1].
    """
    with opened(source, "r") as fh:
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
            if not 0.0 <= w_ij <= 1.0:  # NaN fails too
                raise FormatError(f"graph dump record {i} gives neighbor {j} the weight {w_ij!r}; "
                                  f"weights are finite numbers in [0, 1]")
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
