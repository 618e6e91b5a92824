"""Mutual k-NN construction against an O(n^2) oracle, LSH recall, and repair."""

import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (audit_graph, dump_graph_reference, lsh_buckets, lsh_candidates,
                      mutual_knn_oracle, nearest_reference, repair_reference,
                      signatures_reference)
from coresel import knn_graph
from coresel.errors import DomainError, FormatError
from coresel.knn_graph import (
    LshIndex,
    MutualKnnGraph,
    build_graph,
    build_lsh_index,
    dump_graph,
    load_graph,
    pairwise_sq_dists,
    repair_graph,
    rows_sq_dists,
)
from coresel.store import EmbeddingTable


def clustered_table(rng, n, d, c=5, spread=0.1, separation=5.0):
    means = rng.normal(size=(c, d)) * separation
    labels = np.arange(n) % c
    return EmbeddingTable(means[labels] + spread * rng.normal(size=(n, d)))


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------

def edge_weight(h_i, h_j) -> float:
    """Weight of the one edge of the two-node graph over h_i and h_j (k = 1)."""
    return build_graph(EmbeddingTable([h_i, h_j]), k=1).weight(0, 1)


def test_edge_weight_identical_vectors():
    v = np.array([1.5, -2.0, 3.0])
    assert edge_weight(v, v) == 1.0


def test_edge_weight_at_distance_100():
    a = np.zeros(4)
    b = np.array([10.0, 0.0, 0.0, 0.0])
    assert edge_weight(a, b) == pytest.approx(math.exp(-1.0), abs=1e-12)  # 0.367879


def test_edge_weight_inverted_from_target():
    # ||a - b||^2 = 230.2585 = 100 * ln(10) gives a weight of about 0.1
    a = np.zeros(2)
    b = np.array([math.sqrt(230.2585), 0.0])
    assert edge_weight(a, b) == pytest.approx(0.1, abs=1e-6)


def test_weight_non_edge_is_error():
    g = MutualKnnGraph.from_edges(3, 1, {(0, 1): 0.8})
    with pytest.raises(DomainError):
        g.weight(0, 2)


# ---------------------------------------------------------------------------
# pairwise_sq_dists / rows_sq_dists
# ---------------------------------------------------------------------------

def naive_pairwise(x):
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum((x[i] - x[j]) ** 2)
    return out


def test_pairwise_matches_naive(rng):
    x = rng.normal(size=(40, 7))
    assert np.allclose(pairwise_sq_dists(x), naive_pairwise(x), atol=1e-9)


def test_pairwise_diagonal_exactly_zero(rng):
    x = rng.normal(size=(30, 5)) * 100.0
    assert np.all(np.diag(pairwise_sq_dists(x)) == 0.0)


def test_rows_sq_dists_matches_naive(rng):
    x = rng.normal(size=(25, 6))
    rows = np.array([3, 11, 24])
    full = naive_pairwise(x)
    assert np.allclose(rows_sq_dists(x, rows), full[rows], atol=1e-9)


def test_pairwise_symmetric_and_equal_to_rows_bitwise(rng):
    # Build and repair compare distances computed by the two kernels, so a
    # repair equals a rebuild only if they agree bit for bit. n * d spans
    # several row blocks, so rows straddle block boundaries differently.
    x = rng.normal(size=(300, 200)) * 10.0
    full = pairwise_sq_dists(x)
    assert np.array_equal(full, full.T)
    rows = np.array([299, 0, 68, 69, 5, 5, 150])
    assert np.array_equal(rows_sq_dists(x, rows), full[rows])


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------

def test_collinear_points_single_edge():
    emb = EmbeddingTable([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    g = build_graph(emb, k=1)
    assert g.edge_set() == {(0, 1)}
    assert g.neighbors(2) == ()
    assert g.weight(0, 1) == pytest.approx(math.exp(-1.0 / 100.0), abs=1e-12)


def test_two_nodes_forced_mutual():
    emb = EmbeddingTable([[0.0, 0.0], [3.0, 4.0]])
    g = build_graph(emb, k=1)
    assert g.edge_set() == {(0, 1)}


def test_build_matches_brute_force_oracle(rng):
    emb = EmbeddingTable(rng.normal(size=(200, 6)))
    g = build_graph(emb, k=5)
    edges, lists = mutual_knn_oracle(emb.rows, 5)
    assert g.edge_set() == edges
    assert [row.tolist() for row in g.knn_ids] == lists
    audit_graph(g, emb)


def test_build_rejects_bad_k(rng):
    emb = EmbeddingTable(rng.normal(size=(10, 3)))
    with pytest.raises(DomainError, match="k must be < n"):
        build_graph(emb, k=10)
    with pytest.raises(DomainError):
        build_graph(emb, k=0)


def test_build_permutation_equivariant(rng):
    rows = rng.normal(size=(60, 4))
    g = build_graph(EmbeddingTable(rows), k=4)
    perm = rng.permutation(60)
    g_perm = build_graph(EmbeddingTable(rows[perm]), k=4)
    # position p in the permuted table holds original sample perm[p]
    relabeled = {tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in g_perm.edge_set()}
    assert relabeled == g.edge_set()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(230, 300), d=st.sampled_from([16, 32, 64]),
       k=st.sampled_from([1, 2, 5, 10, 23]), duplicates=st.integers(0, 40),
       offset=st.sampled_from([0.0, 1e6]), perturb=st.booleans(),
       scale=st.sampled_from([1.0, 2.0**-530]))
def test_build_exact_under_ties_across_blocks(seed, n, d, k, duplicates, offset, perturb, scale):
    # 0/1 coordinates make many equal distances, and duplicated rows add ties at
    # 0; smaller blocks make the rows run over several blocks, the last one
    # partial. Perturbing every coordinate by up to two units in the last
    # place leaves near-ties whose gaps (about 1e-15, or 1e-10 under the
    # 1e6 offset) lie below the screen's rounding: uncentred under the offset,
    # centred without it. Scaled by 2^-530, squared distances are subnormal and
    # only the bound's underflow term covers the screen's rounding.
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, 2, size=(n, d)).astype(np.float64)
    for _ in range(duplicates):
        rows[gen.integers(n)] = rows[gen.integers(n)]
    if perturb:
        ulp = np.spacing(offset + 1.0)
        rows += ulp * gen.integers(-2, 3, size=(n, d))
    rows += offset  # exact: every value stays a multiple of ulp
    rows *= scale
    with mock.patch.object(knn_graph, "_BLOCK_ELEMS", 1 << 14):
        per_block = knn_graph._block_rows(n)
        assert -(-n // per_block) >= 3
        assume(n % per_block != 0)
        g = build_graph(EmbeddingTable(rows), k=k)
    # the bit-level reference: a stable sort of the exact distance rows
    full = rows_sq_dists(rows, np.arange(n))
    np.fill_diagonal(full, np.inf)
    ref_ids = np.argsort(full, axis=1, kind="stable")[:, :k]
    assert np.array_equal(g.knn_ids, ref_ids)
    assert np.array_equal(g.knn_d2, np.take_along_axis(full, ref_ids, axis=1))
    if not perturb:  # integer coordinates: every distance is exact
        edges, lists = mutual_knn_oracle(rows, k)
        assert [row.tolist() for row in g.knn_ids] == lists
        assert g.edge_set() == edges
        # rows whose k-th distance also belongs to an unlisted node, so the ids decide
        assert ((full <= g.knn_d2[:, -1:]).sum(axis=1) > k).any()


def test_build_never_forms_dense_matrix():
    # one dense (3000, 3000) float64 array is 68.7 MB; blocked build stays far below
    emb = EmbeddingTable(np.random.default_rng(0).normal(size=(3000, 16)))
    tracemalloc.start()
    try:
        build_graph(emb, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_build_exact_when_screen_overflows(rng):
    # Squared norms near 1e320 overflow the screen to inf and nan; the
    # distances within each tight group stay finite and must still be exact.
    rows = np.concatenate([c + rng.normal(size=(30, 3)) * 1e150
                           for c in rng.normal(size=(4, 3)) * 1e160])
    with np.errstate(over="ignore", invalid="ignore"):
        g = build_graph(EmbeddingTable(rows), k=5)
        full = rows_sq_dists(rows, np.arange(len(rows)))
    np.fill_diagonal(full, np.inf)
    ref_ids = np.argsort(full, axis=1, kind="stable")[:, :5]
    assert np.array_equal(g.knn_ids, ref_ids)
    assert np.array_equal(g.knn_d2, np.take_along_axis(full, ref_ids, axis=1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 70),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), offset=st.sampled_from([0.0, 1e6]),
       layout=st.sampled_from(["C", "F", "strided"]), small_chunks=st.booleans())
def test_pair_sq_dists_bitwise_equal_rows_sq_dists(seed, n, d, scale, offset, layout, small_chunks):
    # The re-rank's exact sums become knn_d2; einsum's reduction can change
    # with d and with strides, so pin them to the full-row kernel bit for bit.
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(n, 2 * d)) * scale + offset
    x = {"C": np.ascontiguousarray(base[:, :d]), "F": np.asfortranarray(base[:, :d]),
         "strided": base[:, ::2]}[layout]
    i, j = gen.integers(0, n, size=(2, 400))[:, ::2]  # non-contiguous id arrays
    with mock.patch.object(knn_graph, "_BLOCK_ELEMS", 64 if small_chunks else knn_graph._BLOCK_ELEMS):
        got = knn_graph._pair_sq_dists(x, i, j)
    want = rows_sq_dists(x, i)[np.arange(len(i)), j]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 128),
       offset=st.sampled_from([0.0, 1e6, 1e8]), scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
       duplicates=st.integers(0, 4), zeros=st.integers(0, 2), subnormal=st.integers(0, 40),
       tiny=st.sampled_from([2.0**-1074, 2.0**-540]))
def test_screen_error_within_bound(seed, n, d, offset, scale, duplicates, zeros, subnormal, tiny):
    # eps[i] bounds |screened - exact| over row i's columns, exact being the
    # rounded difference sum that becomes knn_d2. Subnormal rows hold small
    # multiples of 2^-1074, or of 2^-540, whose squares are subnormal; when
    # they are all the rows, products underflow and only the bound's
    # subnormal term covers them.
    gen = np.random.default_rng(seed)
    rows = gen.normal(size=(n, d)) * scale + offset
    for _ in range(duplicates):
        rows[gen.integers(n)] = rows[gen.integers(n)]
    rows[gen.integers(n, size=zeros)] = 0.0
    rows[gen.permutation(n)[:subnormal]] = gen.integers(-8, 9, size=(min(subnormal, n), d)) * tiny
    screen = knn_graph._Screen.of(rows)
    s = knn_graph._screened_rows(screen, np.arange(n), np.empty((n, n)))
    err = np.abs(s[:, screen.pos] - rows_sq_dists(rows, np.arange(n)))
    np.fill_diagonal(err, 0.0)  # the screen marks self entries inf
    assert (err <= screen.eps[:, None]).all()


def _screened_block(rows, block):
    screen = knn_graph._Screen.of(rows)
    return screen, knn_graph._screened_rows(screen, block, np.empty((len(block), len(rows))))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 130), d=st.integers(1, 4),
       k_frac=st.floats(0.0, 1.0), data=st.sampled_from(["normal", "grid"]),
       planes=st.sampled_from([0, 1, 4, 16]), nans=st.integers(0, 6))
def test_nearest_equals_partition_reference(seed, n, d, k_frac, data, planes, nans):
    # Grid rows tie at the k-th value; a large k leaves n < 4k, so the chunks
    # are single columns; n is rarely a multiple of the chunk width. With
    # planes > 0 the rows are masked to their one-table LSH buckets, and many
    # planes leave rows with fewer than k finite entries. NaN entries stand
    # for screens that overflowed.
    gen = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 2)) if n > 2 else 1
    if data == "normal":
        rows = gen.normal(size=(n, d))
    else:
        rows = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    block = np.sort(gen.permutation(n)[:int(gen.integers(1, n + 1))])
    screen, s = _screened_block(rows, block)
    cand = None
    if planes:
        idx = build_lsh_index(EmbeddingTable(rows), num_tables=1, planes=planes, seed=seed % 1000)
        cand = np.zeros(s.shape, dtype=bool)
        cand.flat[idx.query(idx.signatures(rows), block)] = True
        cand = cand[:, screen.order]
        s[~cand] = np.inf
    s.flat[gen.integers(s.size, size=nans)] = np.nan
    want_ids, want_d2 = nearest_reference(screen, block, s.copy(), k, cand)
    got_ids, got_d2 = knn_graph._nearest(screen, block, s, k, cand)
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_d2, want_d2)


def test_nearest_confined_candidates_skip_whole_row_sums():
    # Each row's finite entries are one run of 2k = 10 screened columns, so
    # they lie in at most two of the 20-column chunks, fewer than k = 5, and
    # the chunk bound is inf. The row's own k-th value must replace it: exact
    # sums over whole rows would cost n pairs per row where the run holds 2k.
    gen = np.random.default_rng(5)
    n, k = 400, 5
    rows = gen.normal(size=(n, 3))
    block = np.arange(0, n, 7)
    screen, s = _screened_block(rows, block)
    cand = np.zeros(s.shape, dtype=bool)
    for r, start in enumerate(gen.integers(0, n - 2 * k, size=len(block))):
        cand[r, start:start + 2 * k] = True
    s[~cand] = np.inf
    want_ids, want_d2 = nearest_reference(screen, block, s.copy(), k, cand)
    with mock.patch.object(knn_graph, "_pair_sq_dists", wraps=knn_graph._pair_sq_dists) as pairs:
        got_ids, got_d2 = knn_graph._nearest(screen, block, s, k, cand)
    assert sum(len(c.args[1]) for c in pairs.call_args_list) <= np.isfinite(s).sum()
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_d2, want_d2)


@pytest.mark.parametrize("arrange", ["round-robin", "by-class"])
def test_nearest_exact_pairs_do_not_depend_on_id_order(arrange):
    # Rows of one class sit next to each other in id order when sorted by
    # class, so contiguous id chunks would hold a row's k nearest in fewer
    # than k chunks and the chunk bound would keep most of the row for exact
    # sums. The screen's shuffled column order spreads them; a whole-row
    # partition keeps k per row, and the chunk bound stays within 2k.
    n, k, classes = 1500, 10, 5
    gen = np.random.default_rng(3)
    labels = np.arange(n) % classes
    if arrange == "by-class":
        labels = np.sort(labels)
    rows = gen.normal(size=(classes, 5))[labels] * 3.0 + gen.normal(size=(n, 5))
    with mock.patch.object(knn_graph, "_pair_sq_dists", wraps=knn_graph._pair_sq_dists) as pairs:
        g = build_graph(EmbeddingTable(rows), k=k)
    assert sum(len(c.args[1]) for c in pairs.call_args_list) <= 2 * k * n
    assert np.array_equal(g.knn_ids, np.argsort(np.where(np.eye(n, dtype=bool), np.inf,
                                                         rows_sq_dists(rows, np.arange(n))),
                                                axis=1, kind="stable")[:, :k])


def test_weight_one_iff_coincident(rng):
    rows = rng.normal(size=(12, 3))
    rows[7] = rows[2]
    g = build_graph(EmbeddingTable(rows), k=3)
    assert g.weight(2, 7) == 1.0
    for i, j in g.edge_set():
        if (i, j) != (2, 7):
            assert g.weight(i, j) < 1.0


# ---------------------------------------------------------------------------
# LSH index
# ---------------------------------------------------------------------------

def test_lsh_zero_dimension_rejected():
    with pytest.raises(DomainError):
        EmbeddingTable(np.zeros((3, 0)))


def test_lsh_deterministic(rng):
    emb = EmbeddingTable(rng.normal(size=(80, 8)))
    a = build_lsh_index(emb, 4, 6, seed=3)
    b = build_lsh_index(emb, 4, 6, seed=3)
    assert a.hyperplanes.shape == (4, 6, 8)
    assert np.array_equal(a.hyperplanes, b.hyperplanes)
    assert np.array_equal(a.signatures(emb.rows), b.signatures(emb.rows))


def _candidate_mask(idx, rows: np.ndarray) -> np.ndarray:
    """(n, n) mask of the pairs that share a bucket, from one block query over all rows."""
    n = rows.shape[0]
    cand = np.zeros((n, n), dtype=bool)
    cand.flat[idx.query(idx.signatures(rows), np.arange(n))] = True
    return cand


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 70),
       tables=st.integers(1, 8), planes=st.integers(1, 16), zeros=st.integers(0, 3),
       duplicates=st.integers(0, 6), data=st.sampled_from(["normal", "grid"]))
def test_lsh_block_query_equals_bucket_union(seed, n, d, tables, planes, zeros, duplicates, data):
    # Per-vector bucket tables are the reference. Zero rows sign-hash to all
    # ones; duplicate and grid rows share every bucket.
    gen = np.random.default_rng(seed)
    rows = gen.normal(size=(n, d)) if data == "normal" else gen.integers(-1, 2, size=(n, d)) * 1.0
    rows[gen.integers(n, size=zeros)] = 0.0
    for _ in range(duplicates):
        rows[gen.integers(n)] = rows[gen.integers(n)]
    emb = EmbeddingTable(rows)
    idx = build_lsh_index(emb, tables, planes, seed=seed % 1000)
    block = np.sort(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False))
    expected = []
    buckets = lsh_buckets(idx, rows)
    for r, u in enumerate(block.tolist()):
        expected.extend(r * n + j for j in sorted(lsh_candidates(buckets, idx, rows[u])))
    found = idx.query(idx.signatures(rows), block)
    assert found.tolist() == expected


@pytest.mark.parametrize("d", [1, 5, 16, 64])
def test_lsh_signatures_independent_of_batch(d):
    # The einsum's summation order follows the input's layout; rows nearly
    # orthogonal to a plane make its rounding decide the sign bit.
    gen = np.random.default_rng(d)
    idx = LshIndex(gen.standard_normal((8, 12, d)))
    rows = gen.normal(size=(300, d))
    for i in range(0, 300, 2):
        p = idx.hyperplanes[gen.integers(8), gen.integers(12)]
        rows[i] -= (rows[i] @ p) / (p @ p) * p
    full = idx.signatures(rows)
    wide = np.zeros((300, 3 * d))
    wide[:, 1::3] = rows
    assert np.array_equal(idx.signatures(wide[:, 1::3]), full)          # strided columns
    assert np.array_equal(idx.signatures(np.asfortranarray(rows)), full)
    assert np.array_equal(idx.signatures(rows[::-1]), full[::-1])       # negative row stride
    assert np.array_equal(idx.signatures(rows[7::5]), full[7::5])
    singles = np.concatenate([idx.signatures(rows[i]) for i in range(300)])
    assert np.array_equal(singles, full)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(1, 70),
       tables=st.integers(1, 8),
       planes=st.one_of(st.sampled_from([8, 9, 16, 17, 32, 33, 64]), st.integers(1, 64)),
       layout=st.sampled_from(["C", "F", "strided", "reversed"]),
       special=st.sampled_from(["none", "zero", "orthogonal", "subnormal"]))
def test_lsh_signatures_equal_int64_reference(seed, n, d, tables, planes, layout, special):
    # Plane counts at each side of a dtype's width come up often. Zero rows
    # dot every plane to exactly 0, whose sign bit is 1; rows projected off a
    # plane leave its dot to rounding; subnormal rows make products that
    # underflow to +-0 or stay subnormal.
    gen = np.random.default_rng(seed)
    idx = LshIndex(gen.standard_normal((tables, planes, d)))
    rows = gen.normal(size=(n, d))
    pick = gen.random(n) < 0.5
    if special == "zero":
        rows[pick] = 0.0
    elif special == "orthogonal":
        p = idx.hyperplanes[gen.integers(tables), gen.integers(planes)]
        rows[pick] -= np.outer(rows[pick] @ p / (p @ p), p)
    elif special == "subnormal":
        rows[pick] *= 2.0 ** -1060
    view = rows
    if layout == "F":
        view = np.asfortranarray(rows)
    elif layout == "reversed":
        view = rows[::-1].copy()[::-1]  # negative row stride
    elif layout == "strided":
        wide = np.zeros((n, 3 * d))
        wide[:, 1::3] = rows
        view = wide[:, 1::3]
    got = idx.signatures(view)
    assert got.shape == (n, tables)
    assert got.dtype == np.dtype(f"uint{next(b for b in (8, 16, 32, 64) if b >= planes)}")
    assert np.array_equal(got.astype(np.uint64), signatures_reference(idx.hyperplanes, rows))


def test_lsh_rejects_more_planes_than_one_signature_holds(rng):
    # bit 64 and up would wrap away, so rows differing only there would collide
    emb = EmbeddingTable(rng.normal(size=(10, 3)))
    with pytest.raises(DomainError, match="planes <= 64"):
        build_lsh_index(emb, 2, 70)
    with pytest.raises(DomainError, match="planes <= 64"):
        LshIndex(rng.standard_normal((1, 65, 3)))
    assert build_lsh_index(emb, 2, 64).signatures(emb.rows).dtype == np.uint64


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 6),
       tables=st.integers(1, 4), planes=st.integers(1, 10))
def test_lsh_query_in_screened_column_order_permutes_pairs(seed, n, d, tables, planes):
    # repair queries signatures permuted into the screen's column order, with
    # each block row at its column; the pairs are the id-order query's, each
    # column j moved to pos[j]
    gen = np.random.default_rng(seed)
    rows = gen.integers(-1, 2, size=(n, d)).astype(np.float64)
    idx = build_lsh_index(EmbeddingTable(rows), tables, planes, seed=seed % 1000)
    screen = knn_graph._Screen.of(rows)
    sigs = idx.signatures(rows)
    block = gen.permutation(n)[:int(gen.integers(1, n + 1))]
    r, j = np.divmod(idx.query(sigs, block), n)
    got = idx.query(sigs[screen.order], screen.pos[block])
    assert np.array_equal(got, np.sort(r * n + screen.pos[j]))


def test_lsh_candidate_recall_on_clusters(rng):
    emb = clustered_table(rng, 500, 16)
    idx = build_lsh_index(emb, 8, 12, seed=0)
    _, lists = mutual_knn_oracle(emb.rows, 10)
    cand = _candidate_mask(idx, emb.rows)
    recalls = [cand[i, lists[i]].sum() / 10.0 for i in range(emb.n)]
    assert float(np.mean(recalls)) >= 0.9


# ---------------------------------------------------------------------------
# repair_graph
# ---------------------------------------------------------------------------

def test_repair_empty_changed_is_identity(rng):
    emb = EmbeddingTable(rng.normal(size=(40, 5)))
    g = build_graph(emb, k=4)
    assert repair_graph(g, None, emb, set()) is g


def test_repair_changed_out_of_range(rng):
    emb = EmbeddingTable(rng.normal(size=(10, 3)))
    g = build_graph(emb, k=2)
    with pytest.raises(DomainError, match="out of range"):
        repair_graph(g, None, emb, {10})


def test_repair_node_moved_onto_copy(rng):
    emb = EmbeddingTable(rng.normal(size=(20, 4)))
    g = build_graph(emb, k=3)
    emb.rows[11] = emb.rows[3].copy()
    repaired = repair_graph(g, None, emb, {11})
    assert repaired.has_edge(3, 11)
    assert repaired.weight(3, 11) == 1.0
    audit_graph(repaired, emb)


def test_repair_brute_equals_full_rebuild(rng):
    emb = EmbeddingTable(rng.normal(size=(120, 6)))
    g = build_graph(emb, k=5)
    changed = sorted(rng.choice(120, size=9, replace=False).tolist())
    emb.rows[changed] += rng.normal(size=(9, 6)) * 2.0
    repaired = repair_graph(g, None, emb, changed)
    rebuilt = build_graph(emb, k=5)
    assert repaired.edge_set() == rebuilt.edge_set()
    for i, j in rebuilt.edge_set():
        assert repaired.weight(i, j) == pytest.approx(rebuilt.weight(i, j), abs=1e-12)
    assert np.array_equal(repaired.knn_ids, rebuilt.knn_ids)
    audit_graph(repaired, emb)


def test_repair_small_perturbation_jaccard(rng):
    emb = clustered_table(rng, 300, 8, spread=0.5)
    g = build_graph(emb, k=6)
    idx = build_lsh_index(emb, 8, 12, seed=2)
    changed = sorted(rng.choice(300, size=15, replace=False).tolist())  # 5% of nodes
    emb.rows[changed] += 0.05 * rng.normal(size=(15, 8))
    repaired = repair_graph(g, idx, emb, changed)
    rebuilt = build_graph(emb, k=6)
    inter = repaired.edge_set() & rebuilt.edge_set()
    union = repaired.edge_set() | rebuilt.edge_set()
    assert len(inter) / len(union) >= 0.95
    audit_graph(repaired, emb)


def test_repair_brute_equals_rebuild_randomized(rng):
    # randomized equality across sizes, k, move magnitudes, and coincidences
    for trial in range(15):
        n = int(rng.integers(20, 90))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(8, n - 1) + 1))
        emb = EmbeddingTable(rng.normal(size=(n, d)))
        g = build_graph(emb, k=k)
        n_changed = int(rng.integers(1, max(2, n // 4)))
        changed = sorted(rng.choice(n, size=n_changed, replace=False).tolist())
        scale = float(rng.choice([0.01, 0.5, 3.0]))
        emb.rows[changed] += scale * rng.normal(size=(n_changed, d))
        if n_changed >= 2 and trial % 3 == 0:
            emb.rows[changed[0]] = emb.rows[changed[1]].copy()  # forced coincidence
        repaired = repair_graph(g, None, emb, changed)
        rebuilt = build_graph(emb, k=k)
        assert repaired.edge_set() == rebuilt.edge_set(), (n, d, k, trial)
        assert np.array_equal(repaired.knn_ids, rebuilt.knn_ids)
        for i, j in rebuilt.edge_set():
            assert repaired.weight(i, j) == rebuilt.weight(i, j)


def test_repair_sequential_repairs_stay_consistent(rng):
    # two repairs in a row must match one rebuild of the final embeddings
    emb = EmbeddingTable(rng.normal(size=(60, 5)))
    g = build_graph(emb, k=4)
    first = sorted(rng.choice(60, size=6, replace=False).tolist())
    emb.rows[first] += rng.normal(size=(6, 5))
    g = repair_graph(g, None, emb, first)
    second = sorted(rng.choice(60, size=6, replace=False).tolist())
    emb.rows[second] += rng.normal(size=(6, 5))
    g = repair_graph(g, None, emb, second)
    rebuilt = build_graph(emb, k=4)
    assert g.edge_set() == rebuilt.edge_set()
    audit_graph(g, emb)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), d=st.integers(1, 4),
       k_frac=st.floats(0.0, 1.0), duplicates=st.integers(0, 6), repairs=st.integers(1, 3))
def test_repair_sequences_equal_rebuild_exactly(seed, n, d, k_frac, duplicates, repairs):
    # duplicated rows and small integer coordinates force (d^2, id) ties
    gen = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 2))
    rows = gen.integers(-3, 4, size=(n, d)).astype(np.float64)
    for _ in range(duplicates):
        rows[gen.integers(n)] = rows[gen.integers(n)]
    emb = EmbeddingTable(rows)
    g = build_graph(emb, k=k)
    for _ in range(repairs):
        changed = gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
        for c in changed:
            if gen.random() < 0.5:
                emb.rows[c] = emb.rows[gen.integers(n)]
            else:
                emb.rows[c] += gen.normal(size=d) * gen.choice([0.01, 1.0])
        g = repair_graph(g, None, emb, changed.tolist())
    rebuilt = build_graph(emb, k=k)
    assert np.array_equal(g.knn_ids, rebuilt.knn_ids)
    assert np.array_equal(g.knn_d2, rebuilt.knn_d2)
    assert np.array_equal(g.mutual, rebuilt.mutual)
    assert np.array_equal(g.weights, rebuilt.weights)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), d=st.integers(1, 3),
       k_frac=st.floats(0.0, 1.0), duplicates=st.integers(0, 6))
def test_no_padding_in_directed_lists_or_mutual_slots(seed, n, d, k_frac, duplicates):
    # repair and qualifying_anchor_sets index (n,) masks with these ids, so the
    # -1 padding of an edge-list graph must stay out of both; k runs up to n - 1,
    # and the changed ids come with repeats, in any order
    gen = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 2))
    rows = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    for _ in range(duplicates):
        rows[gen.integers(n)] = rows[gen.integers(n)]
    emb = EmbeddingTable(rows)
    g = build_graph(emb, k=k)
    assert (g.knn_ids >= 0).all()
    changed = gen.integers(n, size=int(gen.integers(1, 2 * n + 1)))
    emb.rows[changed] += gen.normal(size=(changed.size, d))
    repaired = repair_graph(g, None, emb, changed.tolist())
    assert (repaired.knn_ids >= 0).all()
    assert np.array_equal(repaired.knn_ids, repair_graph(g, None, emb, sorted(set(changed.tolist()))).knn_ids)
    buf = io.StringIO()
    dump_graph(repaired, buf)
    loaded = load_graph(io.StringIO(buf.getvalue()))
    assert (loaded.knn_ids[loaded.mutual] >= 0).all()
    assert (loaded.knn_ids[~loaded.mutual] == -1).all()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 80), d=st.integers(1, 8),
       k_frac=st.floats(0.0, 1.0), data=st.sampled_from(["normal", "grid", "offset"]),
       lsh=st.booleans(), padded=st.integers(0, 3))
def test_repair_equals_full_row_reference(seed, n, d, k_frac, data, lsh, padded):
    # Grid rows tie; offset rows (1e6 plus a few units in the last place) make
    # near-ties below the screen's rounding. Single-table 16-plane buckets hold
    # few nodes, and a list padded with the node itself at inf (what a repair
    # with fewer than k candidates leaves) adds no candidates, so padded
    # changed nodes have fewer than k finite candidates.
    gen = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 2)) if n > 2 else 1
    assume(k < n)
    if data == "normal":
        rows = gen.normal(size=(n, d))
    elif data == "grid":
        rows = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        rows = 1e6 + gen.integers(0, 2, size=(n, d)) + gen.integers(-2, 3, size=(n, d)) * 2.0**-33
    emb = EmbeddingTable(rows)
    g = build_graph(emb, k=k)
    idx = build_lsh_index(emb, num_tables=1, planes=16, seed=seed % 1000) if lsh else None
    changed = gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
    lists, d2 = g.knn_ids.copy(), g.knn_d2.copy()
    for u in changed[:padded]:
        lists[u], d2[u] = u, np.inf
    g = MutualKnnGraph.from_lists(lists, d2)
    moved = gen.random(len(changed)) < 0.5
    emb.rows[changed[moved]] += gen.normal(size=(int(moved.sum()), d)) * gen.choice([1e-9, 0.1, 2.0])
    emb.rows[changed[~moved]] = emb.rows[gen.integers(n, size=int((~moved).sum()))]
    repaired = repair_graph(g, idx, emb, changed.tolist())
    ref_ids, ref_d2 = repair_reference(g, idx, emb, changed)
    assert np.array_equal(repaired.knn_ids, ref_ids)
    assert np.array_equal(repaired.knn_d2, ref_d2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), d=st.integers(1, 4),
       k_frac=st.floats(0.0, 1.0), lsh=st.booleans(), repairs=st.integers(1, 3),
       target=st.sampled_from(["some", "isolated", "all"]))
def test_repair_mutual_and_weights_equal_from_lists(seed, n, d, k_frac, lsh, repairs, target):
    # The repair refreshes mutual flags and weights only in the recomputed
    # rows and the rows that list one; the rest must still equal a refresh of
    # every row. Far outliers are isolated nodes (no mutual slot); "isolated"
    # moves those, "all" every node.
    gen = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 2)) if n > 2 else 1
    rows = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    rows[gen.random(n) < 0.2] *= 50.0
    emb = EmbeddingTable(rows)
    g = build_graph(emb, k=k)
    idx = build_lsh_index(emb, num_tables=2, planes=4, seed=seed % 1000) if lsh else None
    for _ in range(repairs):
        isolated = np.flatnonzero(~g.mutual.any(axis=1))
        if target == "all":
            changed = np.arange(n)
        elif target == "isolated" and isolated.size:
            changed = isolated
        else:
            changed = gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
        emb.rows[changed] += gen.normal(size=(len(changed), d)) * gen.choice([0.01, 1.0, 50.0])
        g = repair_graph(g, idx, emb, changed.tolist())
        want = MutualKnnGraph.from_lists(g.knn_ids, g.knn_d2)
        assert np.array_equal(g.mutual, want.mutual)
        assert np.array_equal(g.weights.view(np.int64), want.weights.view(np.int64))


def test_repair_never_forms_dense_matrix():
    # the screened repair of every node, with LSH candidate masks, stays far
    # below one dense (3000, 3000) float64 array (68.7 MB)
    gen = np.random.default_rng(0)
    emb = EmbeddingTable(gen.normal(size=(3000, 16)))
    g = build_graph(emb, k=10)
    idx = build_lsh_index(emb)
    emb.rows += 0.05 * gen.normal(size=emb.rows.shape)
    tracemalloc.start()
    try:
        repair_graph(g, idx, emb, range(emb.n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_repair_untouched_edges_unmodified(rng):
    emb = EmbeddingTable(rng.normal(size=(80, 5)))
    g = build_graph(emb, k=4)
    changed = [0]
    emb.rows[0] += 10.0
    repaired = repair_graph(g, None, emb, changed)
    moved_hood = {0} | set(g.neighbors(0)) | set(repaired.neighbors(0))
    for i, j in g.edge_set():
        if i not in moved_hood and j not in moved_hood:
            assert repaired.weight(i, j) == g.weight(i, j)


def test_repair_all_changed_recall_tracks_lsh(rng):
    emb = clustered_table(rng, 250, 10, spread=0.3)
    g = build_graph(emb, k=5)
    idx = build_lsh_index(emb, 8, 12, seed=4)
    emb.rows += 0.02 * rng.normal(size=emb.rows.shape)
    repaired = repair_graph(g, idx, emb, range(emb.n))
    rebuilt = build_graph(emb, k=5)
    _, lists = mutual_knn_oracle(emb.rows, 5)
    cand = _candidate_mask(idx, emb.rows)
    lsh_recall = float(np.mean([cand[i, lists[i]].sum() / 5.0 for i in range(emb.n)]))
    true_edges = rebuilt.edge_set()
    edge_recall = len(repaired.edge_set() & true_edges) / len(true_edges)
    assert edge_recall >= lsh_recall
    audit_graph(repaired, emb)


# ---------------------------------------------------------------------------
# dump / load
# ---------------------------------------------------------------------------

def test_graph_dump_load_round_trip(rng):
    emb = EmbeddingTable(rng.normal(size=(50, 4)))
    g = build_graph(emb, k=4)
    buf = io.StringIO()
    dump_graph(g, buf)
    loaded = load_graph(io.StringIO(buf.getvalue()))
    assert loaded.n == g.n
    assert loaded.edge_set() == g.edge_set()
    for i, j in g.edge_set():
        assert loaded.weight(i, j) == g.weight(i, j)


def test_graph_dump_format(rng):
    emb = EmbeddingTable(rng.normal(size=(6, 3)))
    g = build_graph(emb, k=2)
    buf = io.StringIO()
    dump_graph(g, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert set(first) == {"id", "k", "nbrs", "w"}
    assert first["id"] == 0
    assert first["k"] == 2


def test_graph_dump_load_keeps_k_below_max_degree():
    g = MutualKnnGraph.from_edges(5, 3, {(0, 1): 0.5, (2, 3): 0.25})
    buf = io.StringIO()
    dump_graph(g, buf)
    loaded = load_graph(io.StringIO(buf.getvalue()))
    assert loaded.k == 3
    assert loaded.edge_set() == g.edge_set()
    assert loaded.weight(3, 2) == 0.25


def assert_edge_weights_bitwise_symmetric(g):
    """Each edge's weight is the same float at both ends, which lets the dump format it once."""
    rows, slots = np.nonzero(g.mutual)
    cols = g.knn_ids[rows, slots]
    back = g.mutual[cols] & (g.knn_ids[cols] == rows[:, None])
    assert back.any(axis=1).all()
    there, here = g.weights[rows, slots], g.weights[cols, back.argmax(axis=1)]
    assert np.array_equal(there.view(np.int64), here.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(1, 5),
       k_frac=st.floats(0.0, 1.0), data=st.sampled_from(["normal", "grid", "far"]),
       kind=st.sampled_from(["built", "repaired", "loaded"]))
def test_dump_equals_json_dumps_reference(seed, n, d, k_frac, data, kind):
    # "far" rows sit so far apart that weights underflow to 0 or are subnormal
    gen = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 2)) if n > 2 else 1
    if data == "grid":
        rows = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        rows = gen.normal(size=(n, d)) * (1.0 if data == "normal" else 150.0)
    emb = EmbeddingTable(rows)
    g = build_graph(emb, k=k)
    if kind == "repaired":
        changed = gen.permutation(n)[:int(gen.integers(1, n + 1))]
        emb.rows[changed] += gen.normal(size=(len(changed), d))
        g = repair_graph(g, build_lsh_index(emb, seed=seed % 1000), emb, changed.tolist())
    elif kind == "loaded":
        g = load_graph(io.StringIO(dump_graph_reference(g)))
    assert_edge_weights_bitwise_symmetric(g)
    buf = io.StringIO()
    dump_graph(g, buf)
    assert buf.getvalue() == dump_graph_reference(g)


@pytest.mark.parametrize("n, k, edges", [
    (5, 3, {(0, 1): 0.5, (2, 3): 0.25}),  # -1 padding and an isolated node
    (4, 1, {(0, 3): 1.0, (1, 2): 0.0}),
    (3, 2, {(0, 1): 5e-324, (0, 2): 0.1, (1, 2): 1 / 3}),
    (3, 1, {}),
])
def test_dump_from_edges_equals_json_dumps_reference(n, k, edges):
    g = MutualKnnGraph.from_edges(n, k, edges)
    assert_edge_weights_bitwise_symmetric(g)
    buf = io.StringIO()
    dump_graph(g, buf)
    assert buf.getvalue() == dump_graph_reference(g)


def _set_slot(g, i, c, j, w):
    g.knn_ids[i, c], g.mutual[i, c], g.weights[i, c] = j, True, w


@pytest.mark.parametrize("defect", [
    lambda g: g.weights.__setitem__((1, 0), np.nextafter(0.5, 1.0)),  # ends differ by one ulp
    lambda g: _set_slot(g, 3, 0, 0, 0.5),  # node 0 does not list 3 back
    lambda g: (_set_slot(g, 2, 1, 3, 0.1), _set_slot(g, 3, 0, 0, 0.5)),  # as many high ends as low
    lambda g: (_set_slot(g, 0, 1, 1, 0.5), _set_slot(g, 1, 1, 0, 0.5),
               g.mutual.__setitem__((2, 0), False)),  # 0 and 1 list each other twice
    lambda g: _set_slot(g, 3, 0, 3, 1.0),  # self loop
])
def test_dump_rejects_edges_not_listed_once_from_both_ends(defect):
    # the dump copies each edge's text from its low end to its high end, so a
    # graph whose ends disagree must be refused, not written as consistent
    g = MutualKnnGraph.from_edges(4, 2, {(0, 1): 0.5, (1, 2): 0.25})
    defect(g)
    with pytest.raises(DomainError, match="both ends"):
        dump_graph(g, io.StringIO())


def _dump_lines(records):
    return io.StringIO("".join(json.dumps(r) + "\n" for r in records))


_GOOD = [{"id": 0, "k": 2, "nbrs": [1], "w": [0.5]},
         {"id": 1, "k": 2, "nbrs": [0, 2], "w": [0.5, 0.25]},
         {"id": 2, "k": 2, "nbrs": [1], "w": [0.25]}]


def test_load_graph_accepts_good_dump():
    g = load_graph(_dump_lines(_GOOD))
    assert (g.n, g.k) == (3, 2)
    assert g.edge_set() == {(0, 1), (1, 2)}
    assert g.weight(2, 1) == 0.25


@pytest.mark.parametrize("defect, edit", [
    ("ids out of order", lambda r: r[2].update(id=5)),
    ("nbrs and w lengths differ", lambda r: r[1].update(w=[0.5])),
    ("neighbor out of range", lambda r: r[0].update(nbrs=[3])),
    ("negative neighbor", lambda r: r[0].update(nbrs=[-1])),
    ("self neighbor", lambda r: r[0].update(nbrs=[0])),
    ("edge in one direction only", lambda r: r[2].update(nbrs=[], w=[])),
    ("unequal edge weights", lambda r: r[0].update(w=[0.4])),
    ("degree above k", lambda r: [rec.update(k=1) for rec in r]),
    ("missing k", lambda r: r[1].pop("k")),
    ("k differs between lines", lambda r: r[2].update(k=3)),
])
def test_load_graph_rejects_malformed_dump(defect, edit):
    records = json.loads(json.dumps(_GOOD))
    edit(records)
    with pytest.raises(FormatError):
        load_graph(_dump_lines(records))


@pytest.mark.parametrize("bad", [math.inf, -0.5, 7.0, math.nan])
def test_load_graph_rejects_weight_outside_unit_interval(bad):
    records = json.loads(json.dumps(_GOOD))
    records[0]["w"] = [bad]
    records[1]["w"][0] = bad  # listed from both ends with one weight
    with pytest.raises(FormatError, match="record 0 gives neighbor 1 the weight"):
        load_graph(_dump_lines(records))


def test_load_graph_not_utf8_is_format_error(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_bytes(_dump_lines(_GOOD).getvalue().encode() + b"\xff\xfe\n")
    with pytest.raises(FormatError, match="graph.jsonl is not UTF-8"):
        load_graph(path)


def test_load_graph_accepts_unit_interval_end_weights():
    records = json.loads(json.dumps(_GOOD))
    records[0]["w"], records[1]["w"] = [0.0], [0.0, 1.0]
    records[2]["w"] = [1.0]
    g = load_graph(_dump_lines(records))
    assert (g.weight(0, 1), g.weight(1, 2)) == (0.0, 1.0)


def test_repair_loaded_graph_needs_directed_lists(rng):
    emb = EmbeddingTable(rng.normal(size=(20, 3)))
    buf = io.StringIO()
    dump_graph(build_graph(emb, k=3), buf)
    loaded = load_graph(io.StringIO(buf.getvalue()))
    with pytest.raises(DomainError, match="directed"):
        repair_graph(loaded, None, emb, [0])
