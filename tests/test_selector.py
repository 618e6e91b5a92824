"""Blended objective, greedy selection, and the brute-force optimality oracle."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coresel
from coresel import selector
from conftest import (
    brute_force_coreset,
    greedy_reference,
    positive_table,
    representation_reference,
)
from coresel.errors import DomainError, ResourceError
from coresel.selector import (
    CosineRows,
    _coverage_gains,
    _unit_rows,
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


def test_zero_row_has_cosine_zero_with_every_row(rng):
    # an untrained or frozen model embeds a sample as zeros: it covers nothing,
    # itself included, and nothing covers it (positive rows: no cosine below 0)
    emb = positive_table(rng, 5, 3)
    emb.rows[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not _unit_rows(emb, np.arange(5))[3].any()
        assert representation_score([3], range(5), emb) == 0.0
        assert representation_score(range(5), [3], emb) == 0.0
        assert representation_score([0, 3], range(5), emb) == representation_score(
            [0], [0, 1, 2, 4], emb)


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


def test_select_rejects_non_finite_warped_scores(rng):
    emb = positive_table(rng, 6, 3)
    warped = np.ones(6)
    warped[4] = np.inf
    with pytest.raises(DomainError, match="sample 4"):
        select_coreset(range(6), 2, emb, warped, 0.5)
    warped[4] = np.nan
    with pytest.raises(DomainError, match="sample 4"):
        select_coreset([1, 4, 5], 2, emb, warped, 0.5)
    # only the candidates' scores count
    assert select_coreset([0, 1, 2], 2, emb, warped, 0.5).members


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
    # members and gains must equal, bit for bit, the loop that re-sums every
    # column of a fresh (n, n) temporary each round
    n, budget, lam = 300, 40, 0.7
    x = rng.normal(size=(n, 12))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    cos = unit @ unit.T
    cos = (cos + cos.T) / 2.0
    warped = rng.uniform(size=n)

    ref_members, ref_gains = greedy_reference(cos, warped, lam, budget)
    members, gains = greedy_select(cos, warped, lam, budget)
    assert members.tolist() == ref_members
    assert np.array_equal(gains, np.array(ref_gains))


def _tied_matrix(gen, n):
    """Symmetric entries on a coarse grid of both signs, so many column sums tie exactly."""
    m = gen.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n))
    m = np.triu(m) + np.triu(m, 1).T
    np.fill_diagonal(m, 1.0)
    return m


@settings(max_examples=160, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 140),
       kind=st.sampled_from(["cosine", "tied"]), form=st.sampled_from(["dense", "tiled"]),
       duplicates=st.integers(0, 12), lam=st.sampled_from([0.0, 0.5, 1.0]),
       budget=st.sampled_from(["1", "2", "n"]), tied_warped=st.booleans())
def test_lazy_greedy_equals_full_pass_reference(seed, n, kind, form, duplicates, lam, budget,
                                                tied_warped):
    # Negative cosines make round 0's column sum no bound on later gains;
    # duplicated samples tie whole columns and keep the matrix symmetric.
    # n up to 140 spans three row blocks of the full pass. The tiled form runs
    # the greedy on CosineRows and the reference on its stacked matrix; its
    # tied instances are coarse directions, whose cosines take a few values.
    gen = np.random.default_rng(seed)
    rows = None
    if kind == "cosine" or form == "tiled":
        if kind == "cosine":
            x = gen.normal(size=(n, int(gen.integers(2, 6))))
        else:
            x = gen.choice([-1.0, 0.0, 1.0], size=(n, 3))
            x[~x.any(axis=1), 0] = 1.0
        for _ in range(duplicates):
            x[gen.integers(n)] = x[gen.integers(n)]
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        if form == "tiled":
            rows = CosineRows(unit)
            cos = rows[np.arange(n)]
        else:
            cos = unit @ unit.T
    else:
        cos = _tied_matrix(gen, n)
        for _ in range(duplicates):
            src, dst = gen.integers(n), gen.integers(n)
            cos[dst] = cos[src]
            cos[:, dst] = cos[:, src]
    if tied_warped:
        warped = gen.choice([0.0, 0.25, 0.5], size=n)
    else:
        warped = gen.uniform(size=n)
    b = {"1": 1, "2": min(2, n), "n": n}[budget]

    ref_members, ref_gains = greedy_reference(cos, warped, lam, b)
    members, gains = greedy_select(cos if rows is None else rows, warped, lam, b)
    assert members.tolist() == ref_members
    assert np.array_equal(gains.view(np.int64), np.array(ref_gains).view(np.int64))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       order=st.sampled_from(["subset", "reversed", "duplicated"]),
       form=st.sampled_from(["dense", "tiled"]))
def test_coverage_gain_bits_do_not_depend_on_the_columns_evaluated(seed, n, order, form):
    # The lazy bounds hold to the bit only if a column's gain has one summation
    # order, whatever other columns share the call or its chunks; n up to 400
    # spans numpy's 8-wide and 128-element pairwise blocks and several chunks.
    # The tiled form sums rows of tile products in place, padded columns
    # sliced off, and must give the gains of the stacked matrix's rows.
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, int(gen.integers(2, 8))))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    rows = CosineRows(unit)
    cos = unit @ unit.T if form == "dense" else rows[np.arange(n)]
    cov = cos[gen.integers(n, size=int(gen.integers(1, 4)))].max(axis=0)
    full = _coverage_gains(cos, cov, np.arange(n))
    if form == "tiled":
        cos = rows
    if order == "subset":
        cols = np.sort(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False))
    elif order == "reversed":
        cols = np.arange(n)[::-1]
    else:
        cols = gen.integers(n, size=int(gen.integers(1, 2 * n + 1)))
    got = _coverage_gains(cos, cov, cols)
    assert np.array_equal(got.view(np.int64), full[cols].view(np.int64))


def _bits(a):
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("n, form", [(3000, "tiled"), (1448, "dense")])
def test_lazy_greedy_with_doubled_batches_equals_full_pass_reference(monkeypatch, n, form):
    # unclustered Gaussian rows keep many bounds close, so a round re-evaluates
    # 16, then 32, 64, ... stale columns; every batch must keep the reference's bits
    x = np.random.default_rng(n).normal(size=(n, 16))
    rows = CosineRows(x / np.linalg.norm(x, axis=1, keepdims=True))
    cos = rows[np.arange(n)]
    warped = np.random.default_rng(n + 1).uniform(size=n)
    sizes = []

    def counted(cos_sim, cov, cols):
        sizes.append(len(cols))
        return _coverage_gains(cos_sim, cov, cols)

    monkeypatch.setattr(selector, "_coverage_gains", counted)
    members, gains = greedy_select(rows if form == "tiled" else cos, warped, 0.5, 16)
    ref_members, ref_gains = greedy_reference(cos, warped, 0.5, 16)
    assert members.tolist() == ref_members
    assert np.array_equal(_bits(gains), _bits(ref_gains))
    assert {16, 32, 64} <= set(sizes)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), d=st.integers(1, 64),
       picks=st.sampled_from(["single", "repeats", "reversed"]))
def test_cosine_tiles_agree_with_the_stacked_matrix(seed, n, d, picks):
    # a row's bits must not depend on the ids that share its tile, a short tile's
    # padding included, or the lazy greedy's bounds fail on a large pool
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, d))
    rows = CosineRows(x / np.linalg.norm(x, axis=1, keepdims=True))
    cos = rows[np.arange(n)]
    assert cos.shape == rows.shape == (n, n)
    assert np.array_equal(_bits(cos), _bits(cos.T))
    assert np.array_equal(_bits(rows.sum(axis=0)), _bits(cos.sum(axis=0)))
    i = int(gen.integers(n))
    assert np.array_equal(_bits(rows[i]), _bits(cos[i]))
    if picks == "single":
        ids = np.array([i])
    elif picks == "repeats":
        ids = gen.integers(n, size=int(gen.integers(1, 2 * n + 2)))
    else:
        ids = np.arange(n)[::-1]
    assert np.array_equal(_bits(rows[ids]), _bits(cos[ids]))


@pytest.mark.parametrize("n, d", [(256, 5), (768, 5), (3000, 5), (300, 64), (17, 32), (64, 128)])
def test_cosine_matrix_is_exactly_symmetric(n, d):
    # greedy_select reads column j as row j, which holds only for an exactly
    # symmetric matrix; checked here at the benchmark's pool sizes and at two
    # small pools that take OpenBLAS's small-matrix path
    emb = EmbeddingTable(np.random.default_rng(n + d).normal(size=(n, d)))
    cos = CosineRows(_unit_rows(emb, np.arange(n)))[np.arange(n)]
    assert np.array_equal(cos, cos.T)


@pytest.mark.parametrize("n, d, budget, lam", [(1, 3, 1, 0.5), (17, 2, 17, 0.0), (100, 5, 12, 0.6),
                                               (300, 8, 40, 1.0), (2000, 16, 16, 0.6)])
def test_tiled_selection_equals_dense_selection(monkeypatch, n, d, budget, lam):
    gen = np.random.default_rng(n * d)
    x = gen.normal(size=(n, d))
    x[gen.integers(n, size=n // 10)] = x[0]           # tied columns
    emb = EmbeddingTable(x)
    warped = gen.choice([0.0, 0.5, 1.0], size=n)
    monkeypatch.setattr(selector, "_DENSE_MAX_ELEMS", n * n)
    dense = select_coreset(range(n), budget, emb, warped, lam)
    monkeypatch.setattr(selector, "_DENSE_MAX_ELEMS", 0)
    tiled = select_coreset(range(n), budget, emb, warped, lam)
    assert tiled.members == dense.members
    assert _bits(tiled.objective_value) == _bits(dense.objective_value)
    assert np.array_equal(_bits(tiled.gains), _bits(dense.gains))


@pytest.mark.parametrize("form", ["dense", "tiled"])
@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_selection_over_zero_rows_equals_full_pass_with_zeroed_cosines(monkeypatch, form, lam):
    # zero rows get cosine 0 with every row, their own included: the greedy must
    # run as the full pass does on the dense matrix with their rows and columns zeroed
    n, d = 40, 4
    gen = np.random.default_rng(31)
    x = gen.normal(size=(n, d))
    zero = [0, 7, 8, 33]
    cos = CosineRows(x / np.linalg.norm(x, axis=1, keepdims=True))[np.arange(n)]
    cos[zero] = 0.0
    cos[:, zero] = 0.0
    x[zero] = 0.0
    warped = gen.uniform(size=n)
    warped[zero[1:]] = 0.0
    monkeypatch.setattr(selector, "_DENSE_MAX_ELEMS", n * n if form == "dense" else 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sel = select_coreset(range(n), n, EmbeddingTable(x), warped, lam)
    ref_members, ref_gains = greedy_reference(cos, warped, lam, n)
    assert sel.members == ref_members
    assert sel.gains == ref_gains


def test_large_pool_selection_forms_no_dense_matrix():
    # the (3000, 3000) cosine matrix alone is 68.7 MB; the tiled rows need
    # (64, n) gain chunks and (16, n) tiles
    gen = np.random.default_rng(3)
    emb = EmbeddingTable(gen.normal(size=(3000, 5)))
    warped = gen.uniform(size=3000)
    tracemalloc.start()
    try:
        select_coreset(range(3000), 16, emb, warped, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_cosine_bits_do_not_depend_on_the_blas_thread_count():
    # numpy's syrk (unit @ unit.T) gives other bits under 1 and 2 OpenBLAS
    # threads at n = 1500; the fixed-shape tiles must not. Pools of at most 64
    # with d >= 32 take OpenBLAS's small-matrix path, whose bits differ from the
    # large path's; they too must not depend on the thread count.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from coresel.selector import CosineRows\n"
        "for n, d in [(1500, 64)] + [(n, d) for n in (17, 64) for d in (32, 64, 128)]:\n"
        "    x = np.random.default_rng(5).normal(size=(n, d))\n"
        "    rows = CosineRows(x / np.linalg.norm(x, axis=1, keepdims=True))\n"
        "    h = hashlib.sha256(rows[np.arange(n)].tobytes())\n"
        "    h.update(rows.sum(axis=0).tobytes())\n"
        "    print(n, d, h.hexdigest())\n"
    )
    src = str(Path(coresel.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]


def test_greedy_never_forms_second_dense_matrix():
    # one dense (3000, 3000) float64 array is 68.7 MB; only the input may be one
    x = np.random.default_rng(0).normal(size=(3000, 16))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    cos = unit @ unit.T
    warped = np.random.default_rng(1).uniform(size=3000)
    tracemalloc.start()
    try:
        greedy_select(cos, warped, 0.5, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the gain kernel turns each gathered (64, n) chunk into terms in place; a
    # second temporary per chunk would peak at about 4.6 MB
    assert peak < 4 * 2**20


def test_selection_does_not_import_numpy_ma():
    # np.unique and np.isin import numpy.ma (about 1.7 MB) on first use; neither
    # selection nor an adaptive run whose checks trigger and repair calls them
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from coresel.orchestrator import run\n"
        "from coresel.selector import select_coreset\n"
        "from coresel.simulator import SimState\n"
        "from coresel.store import EmbeddingTable, SelectionConfig\n"
        "gen = np.random.default_rng(0)\n"
        "emb = EmbeddingTable(gen.normal(size=(40, 4)))\n"
        "select_coreset(range(40), 5, emb, gen.uniform(size=40), 0.5)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by selection'\n"
        "cfg = SelectionConfig(budget_b=24, n_s=96, budget_eta=0.1, t_c=15, k=6, k_recal=12,\n"
        "                      n_s_check=12, delta=0.0, delta_h=0.0, seed=5)\n"
        "sim = SimState.create(seed=5, n=300, dim=6, classes=4, cluster_spread=1.0,\n"
        "                      learning_rate=0.2, drift=0.02)\n"
        "report = run('adaptive', cfg, sim, 75, 15)\n"
        "assert any(p.graph_repaired and p.anchor_sets for p in report.plans), 'no repair'\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by the adaptive loop'\n"
    )
    src = str(Path(coresel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
