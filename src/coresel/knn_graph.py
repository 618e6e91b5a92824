"""Mutual k-NN graph construction, LSH candidate retrieval, and local repair.

An edge (i, j) exists only when each node is among the other's k nearest
neighbors (Euclidean); its weight is exp(-||h_i - h_j||^2 / 100). The graph is
stored as fixed-width (n, k) arrays: each node's directed top-k list plus a
mask of its mutual slots, so repairs after embedding updates can re-enforce
mutuality without a full rebuild.

Build and repair find neighbors by exact brute force, a few rows at a time,
without an (n, n) matrix. Each block of distance rows is first screened with
one GEMM on augmented mean-centred rows, [x, ||x||^2, 1] . [-2 y, 1, ||y||^2]
= ||x||^2 + ||y||^2 - 2 x.y. A rounding-error bound on the screen, taken
around an upper bound on each row's screened k-th value (the k-th smallest
of per-chunk minima, with the columns in a fixed pseudo-random order), keeps
every column that could be among the row's exact k nearest; only those pairs
get the exact sum of squared differences, and they are ordered by (d^2, id).
The exact sums are bitwise the entries of ``rows_sq_dists``, so the lists
equal a stable sort of exact distance rows.
``rows_sq_dists`` and ``pairwise_sq_dists`` remain the difference kernel in
full-row and all-pairs form.

The LSH index holds only its hyperplanes: repair hashes the current rows once
per call, so no index state follows the embeddings or needs undoing. A
signature packs one table's sign bits into the narrowest unsigned integer
that holds them (uint16 at the default 12 planes, at most 64 planes). Repair
permutes the signatures into the screen's column order once, so a block's
candidate mask comes out in the order of its screened rows, and it
recomputes mutual flags and weights only in the rows that can change: the
recomputed rows and the rows whose lists name one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .store import EmbeddingTable, id_set, opened

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
# The screen is one (d + 2)-term product of [x~_i, N_i, 1] and
# [-2 x~_j, 1, N_j]. To first order in u (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3: a computed m-term dot product errs by at most
# gamma_m = m u / (1 - m u) times the sum of the absolute products, in any
# summation order, BLAS and FMA included):
#   centring  fl(x - mean) moves each coordinate of x_i - x_j by at most
#             u (|x~_i| + |x~_j|), so the squared distance by 4 u N;
#   norms     the two computed squared norms err by gamma_d N together: d u N;
#   screen    gamma_(d+2) times the absolute products, 2 |x~_i . x~_j| plus
#             the two norms, at most 2 N: 2 (d + 2) u N;
#   exact sum one rounding in each difference and square plus gamma_(d-1) in
#             the sum, gamma_(d+2) relative, on a distance of at most 2 N:
#             2 (d + 2) u N.
# Together (5 d + 12) u N <= 6 (d + 2) u N; c = 8 leaves 2 (d + 2) u N for
# the second-order terms and for rounding in the bound itself. Each screened
# row uses its largest bound, N_i + max_j N_j, and adds (d + 2) c smallest
# subnormals for the at most 4 d products that underflow, each off by half of one.
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

    def weight(self, i: int, j: int) -> float:
        """w_ij; DomainError on a non-edge."""
        hit = self.mutual[i] & (self.knn_ids[i] == j)
        if not hit.any():
            raise DomainError(f"no edge between {i} and {j}")
        return float(self.weights[i, hit.argmax()])

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


def rows_sq_dists(x, rows) -> np.ndarray:
    """Squared distances from the given row indices to every point, (len(rows), n), in row blocks.

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
    return rows_sq_dists(x, np.arange(np.shape(x)[0]))


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
    """The rows of one build or repair, centred once into augmented GEMM operands,
    with each row's screen error bound.

    For the centred rows c, ``left`` holds [c, ||c||^2, 1] and ``right``
    [-2c, 1, ||c||^2] in the column order ``order``, so one product
    left[i] . right[p] is the screened ||c_i||^2 + ||c_j||^2 - 2 c_i.c_j of
    node j = order[p]. The order is a fixed pseudo-random permutation, so a
    row's nearest columns spread over the chunks of ``_nearest`` however the
    ids are arranged (sorted by class, say).
    """

    x: np.ndarray
    left: np.ndarray     # (n, d + 2)
    right: np.ndarray    # (n, d + 2), row p for node order[p]
    eps: np.ndarray      # bound on |screened - exact d2| over each row's columns
    order: np.ndarray    # node of each screened column
    pos: np.ndarray      # screened column of each node

    @classmethod
    def of(cls, x: np.ndarray) -> "_Screen":
        centred = x - x.mean(axis=0)
        sq = np.einsum("ij,ij->i", centred, centred)
        ones = np.ones_like(sq)
        order = np.random.default_rng(0).permutation(len(x))
        left = np.column_stack((centred, sq, ones))
        shuffled = centred[order]
        shuffled *= -2.0  # in place: one more (n, d) temporary grew the heap 0.35 MB at n=3000
        right = np.column_stack((shuffled, ones, sq[order]))
        eps = _SCREEN_C * (x.shape[1] + 2) * (_U * (sq + sq.max()) + _ETA)
        return cls(x=x, left=left, right=right, eps=eps, order=order, pos=np.argsort(order))

    def blocks(self, ids: np.ndarray):
        """Yield (block ids, screened d2 rows) a few rows at a time; each block reuses one buffer."""
        n = self.x.shape[0]
        step = _block_rows(n)
        out = np.empty((min(step, len(ids)), n), dtype=np.float64)
        for start in range(0, len(ids), step):
            block = ids[start:start + step]
            yield block, _screened_rows(self, block, out[:len(block)])

    def exact(self, block, rows, cols, cand=None) -> tuple[np.ndarray, np.ndarray]:
        """Node ids and exact d2 of the screened entries (rows, cols) of a block;
        d2 is inf wherever the screen was masked.

        The self column is masked, and so is every column outside ``cand``
        when a (len(block), n) candidate mask over screened columns is given.
        """
        ids = self.order[cols]
        vals = _pair_sq_dists(self.x, block[rows], ids)
        masked = ids == block[rows]
        if cand is not None:
            masked |= ~cand[rows, cols]
        vals[masked] = np.inf
        return ids, vals


def _screened_rows(screen: _Screen, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """||c_i||^2 + ||c_j||^2 - 2 c_i.c_j over the centred rows c as one GEMM, into
    ``out``, in the screen's column order; self entries inf."""
    np.matmul(screen.left[block], screen.right.T, out=out)
    out[np.arange(len(block)), screen.pos[block]] = np.inf
    return out


def _nearest(screen: _Screen, block, s, k: int, cand=None) -> tuple[np.ndarray, np.ndarray]:
    """Each block row's k nearest as (ids, exact d2), ordered by (d2, id).

    A column whose exact d2 is at or below the row's exact k-th value screens
    within 2 eps of the screened k-th value, so keeping every column that
    screens within 2 eps of an upper bound on that value keeps every one a
    stable sort of the exact row would take, ties at the k-th value included.
    The bound is the k-th smallest of the minima over at least 4k column
    chunks: k chunks reach it, so k columns do. It is tight when the row's
    nearest columns fall in different chunks, which the screen's shuffled
    column order makes the usual case. A row whose chunk bound is not
    finite takes its screened k-th value instead. A NaN screen (overflow) is
    kept too.
    """
    n = s.shape[1]
    mins = np.minimum.reduceat(s, np.arange(0, n, max(1, n // (4 * k))), axis=1)
    kth = np.partition(mins, k - 1, axis=1)[:, k - 1]
    loose = np.flatnonzero(~np.isfinite(kth))
    if loose.size:
        kth[loose] = np.partition(s[loose], k - 1, axis=1)[:, k - 1]
    far = s > (kth + 2.0 * screen.eps[block])[:, None]
    # one flat scan of the mask is several times faster than a 2-d np.nonzero
    rows, cols = np.divmod(np.flatnonzero(~far), n)
    ids, vals = screen.exact(block, rows, cols, cand)
    order = np.lexsort((ids, vals, rows))
    first = np.searchsorted(rows, np.arange(len(block)))  # each row's run in ``order``
    take = order[first[:, None] + np.arange(k)]
    return ids[take], vals[take]


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
    table's planes, plane p in bit p, into the narrowest unsigned integer that
    holds them (uint16 at the default 12 planes), so one signature holds at
    most 64 planes. The index keeps no buckets; a query compares signatures of
    the current rows, so an embedding that moves needs no update.
    """

    hyperplanes: np.ndarray  # (tables, planes, d)

    def __post_init__(self):
        tables, planes, d = np.shape(self.hyperplanes)
        if tables < 1 or not 1 <= planes <= 64:
            raise DomainError(f"need num_tables >= 1 and 1 <= planes <= 64 (one packed "
                              f"signature), got {tables}, {planes}")
        if d < 1:
            raise DomainError("cannot hash 0-dimensional embeddings")

    def signatures(self, vectors) -> np.ndarray:
        """(rows, tables) signatures. The rows are made contiguous first: the einsum's
        summation order, and so a row's bits, would otherwise follow the input's layout."""
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=np.float64)
        planes = self.hyperplanes.shape[1]
        dtype = np.min_scalar_type((1 << planes) - 1)
        # (tables, planes, rows): each plane's bits are contiguous for the shift-or
        bits = (np.einsum("tpd,nd->tpn", self.hyperplanes, vectors) >= 0.0).astype(dtype)
        bits <<= np.arange(planes, dtype=dtype)[:, None]
        return np.bitwise_or.reduce(bits, axis=1).T

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
    return LshIndex(np.random.default_rng(seed).standard_normal((num_tables, planes, emb.d)))


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
    changed_ids = id_set(changed, g.n, "changed id")
    if not changed_ids.size:
        return g
    if g.knn_d2 is None:
        raise DomainError("graph is missing directed k-NN lists; rebuild it from embeddings")
    n, k = g.n, g.k
    moved = np.zeros(n, dtype=bool)
    moved[changed_ids] = True

    screen = _Screen.of(emb.rows)
    # signatures by screened column, so the candidate mask comes out in s's column order
    sigs = None if idx is None else idx.signatures(emb.rows)[screen.order]
    knn_ids = g.knn_ids.copy()
    knn_d2 = g.knn_d2.copy()
    # A node v is touched when a changed node sat in its list or could now enter it.
    touched = moved[g.knn_ids].any(axis=1)  # directed lists hold no -1 padding
    kth_d2, kth_id = g.knn_d2[:, -1], g.knn_ids[:, -1]
    kth_by_col = kth_d2[screen.order]
    for block, s in screen.blocks(changed_ids):
        cand = None
        if sigs is not None:
            cand = np.zeros(s.shape, dtype=bool)
            cand.flat[idx.query(sigs, screen.pos[block])] = True
            lists = g.knn_ids[block]  # (m, k), the mutual neighbors among them
            cand[np.arange(len(block))[:, None], screen.pos[lists]] = True
            second = g.mutual[block][:, :, None] & g.mutual[lists]  # (m, k, k)
            cand[np.nonzero(second)[0], screen.pos[g.knn_ids[lists][second]]] = True
            np.putmask(s, ~cand, np.inf)  # 3x faster than s[~cand] = inf, which lists the indices
        knn_ids[block], knn_d2[block] = _nearest(screen, block, s, k, cand)
        # A changed node can enter v's list only if it screens within eps of
        # v's k-th d2; those pairs alone get exact d2 and the (d2, id) test.
        s -= screen.eps[block, None]  # in place: _nearest is done with s
        r, col = np.divmod(np.flatnonzero(~(s > kth_by_col)), n)
        c, d2 = screen.exact(block, r, col, cand)
        enters = (d2 < kth_d2[c]) | ((d2 == kth_d2[c]) & (block[r] < kth_id[c]))
        touched[c[enters]] = True
    touched &= ~moved

    for block, s in screen.blocks(np.flatnonzero(touched)):
        knn_ids[block], knn_d2[block] = _nearest(screen, block, s, k)

    # A slot's mutual flag and weight can move only in a recomputed row or in
    # a row whose list names one; every other row keeps g's.
    recomputed = moved | touched
    redo = np.flatnonzero(recomputed | recomputed[knn_ids].any(axis=1))
    listed_back = (knn_ids[knn_ids[redo]] == redo[:, None, None]).any(axis=2)
    mutual, weights = g.mutual.copy(), g.weights.copy()
    mutual[redo] = listed_back
    weights[redo] = np.where(listed_back, _weight(knn_d2[redo]), 0.0)
    return MutualKnnGraph(n=n, k=k, knn_ids=knn_ids, mutual=mutual, weights=weights, knn_d2=knn_d2)


def _edge_slots(g: MutualKnnGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, neighbour and weight of every mutual slot, ordered by row, then neighbour.

    Its (n, k) temporaries are freed on return, so the dump's own arrays can
    reuse their heap space instead of growing the heap (0.4 MB at n = 3000).
    """
    key = np.where(g.mutual, g.knn_ids, g.n)  # padding and one-way slots sort last
    order = np.argsort(key, axis=1, kind="stable")
    nbrs = np.take_along_axis(key, order, axis=1)
    edge = nbrs < g.n
    return np.nonzero(edge)[0], nbrs[edge], np.take_along_axis(g.weights, order, axis=1)[edge]


def dump_graph(g: MutualKnnGraph, target) -> None:
    """One JSON line per node: {"id": i, "k": k, "nbrs": [...], "w": [...]}, ids ascending.

    The text equals ``json.dumps`` of each record. Each edge's weight is
    formatted once, at its low end, and copied to its high end; DomainError
    unless every edge is listed once from both ends with one weight, bit for
    bit, as the graph's constructors make it.
    """
    n = g.n
    rows, nbrs, w = _edge_slots(g)
    # slots run by (row, neighbour): format at the low end, find the high end by search
    slot = rows * n + nbrs
    low = np.flatnonzero(rows < nbrs)
    mate = nbrs[low] * n + rows[low]
    high = np.minimum(np.searchsorted(slot, mate), len(slot) - 1)
    # distinct slots, as many high ends as low ones, and each low end's mate among them
    if (np.any(np.diff(slot) <= 0) or 2 * len(low) != len(slot) or not np.array_equal(slot[high], mate)
            or not np.array_equal(w[high].view(np.int64), w[low].view(np.int64))):
        raise DomainError("graph edges must be listed once from both ends with one weight")
    text = np.empty(len(w), dtype=object)
    text[low] = text[high] = list(map(float.__repr__, w[low].tolist()))
    text = text.tolist()
    names = list(map(str, range(n)))
    nbrs = list(map(names.__getitem__, nbrs.tolist()))
    stops = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    with opened(target, "w") as fh:
        fh.write("".join(
            f'{{"id": {i}, "k": {g.k}, "nbrs": [{", ".join(nbrs[a:b])}], "w": [{", ".join(text[a:b])}]}}\n'
            for i, a, b in zip(range(n), [0] + stops, stops)))


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
