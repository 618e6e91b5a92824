"""EL2N scores, warp-parameter derivation, and the Beta warp itself."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel.errors import ConfigError, DomainError
from conftest import warp_reference
from coresel.scoring import (
    WarpParams,
    derive_warp_params,
    el2n_from_probs,
    selection_scores,
    warp_mode,
    warped_scores,
)
from coresel.store import ScoreLedger, SelectionConfig


def _cfg(**overrides):
    base = dict(budget_b=4, n_s=8, budget_eta=0.1)
    base.update(overrides)
    return SelectionConfig(**base)


# ---------------------------------------------------------------------------
# el2n_from_probs
# ---------------------------------------------------------------------------

def _frobenius_el2n(probs, labels) -> float:
    """EL2N over several rows: the Frobenius norm, from the per-row norms."""
    return float(np.linalg.norm(el2n_from_probs(np.asarray(probs, dtype=float), labels)))


def test_el2n_perfect_prediction_is_zero():
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert _frobenius_el2n(onehot, np.array([0, 1])) == 0.0


def test_el2n_single_row_hand_value():
    got = _frobenius_el2n([[0.5, 0.5]], np.array([0]))
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)  # 0.70711


@pytest.mark.parametrize("t,v", [(1, 3), (4, 5), (7, 2)])
def test_el2n_uniform_closed_form(t, v):
    probs = np.full((t, v), 1.0 / v)
    expected = math.sqrt(t * (1.0 - 1.0 / v) ** 2 + t * (v - 1) / v**2)
    assert _frobenius_el2n(probs, np.zeros(t, dtype=int)) == pytest.approx(expected, abs=1e-12)


def test_el2n_row_permutation_invariant(rng):
    t, v = 6, 4
    logits = rng.normal(size=(t, v))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = rng.integers(0, v, size=t)
    base = _frobenius_el2n(probs, labels)
    perm = rng.permutation(t)
    assert _frobenius_el2n(probs[perm], labels[perm]) == pytest.approx(base, abs=1e-12)


def test_el2n_from_probs_matches_public_op(rng):
    v = 5
    logits = rng.normal(size=(8, v))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = rng.integers(0, v, size=8)
    batch = el2n_from_probs(probs, labels)
    for row in range(8):
        onehot = np.zeros(v)
        onehot[labels[row]] = 1.0
        assert batch[row] == pytest.approx(math.sqrt(np.sum((probs[row] - onehot) ** 2)),
                                           abs=1e-12)


# ---------------------------------------------------------------------------
# derive_warp_params
# ---------------------------------------------------------------------------

def test_derive_zero_mean():
    params = derive_warp_params(np.zeros(5), eta=0.3, cfg=_cfg())
    assert params.alpha == 1.0
    assert params.beta == 9.0


def test_derive_overflow_is_config_error():
    with pytest.raises(ConfigError, match="beta_const_c"):
        derive_warp_params(np.ones(5), eta=1.0, cfg=_cfg(q_exp=1.0, r_exp=1.0))


@pytest.mark.parametrize("overrides", [dict(q_exp=-1e308), dict(r_exp=-1e308)])
def test_derive_power_overflow_is_config_error(overrides):
    with pytest.raises(ConfigError, match="beta_const_c, q_exp and r_exp"):
        derive_warp_params(np.full(5, 0.5), eta=0.1, cfg=_cfg(**overrides))


@pytest.mark.parametrize("normalize", [True, False])
def test_warp_lgamma_overflow_is_config_error(normalize):
    params = derive_warp_params(np.full(5, 0.5), eta=0.1, cfg=_cfg(beta_const_c=1e308))
    with pytest.raises(ConfigError, match="beta_const_c, q_exp and r_exp"):
        warped_scores([0.1, 0.4, 0.9], params, normalize=normalize)


def test_derive_hand_value():
    params = derive_warp_params(np.full(4, 0.5), eta=0.1, cfg=_cfg(q_exp=1.0, r_exp=0.5))
    assert params.alpha == pytest.approx(2.5811388300841898, abs=1e-12)
    assert params.beta == pytest.approx(7.41886116991581, abs=1e-12)


def test_derive_rejects_empty():
    with pytest.raises(DomainError):
        derive_warp_params(np.array([]), eta=0.5, cfg=_cfg())


def test_alpha_strictly_increases_with_eta():
    mean_scores = np.full(3, 0.4)
    cfg = _cfg(q_exp=1.0, r_exp=0.5)
    alphas = [derive_warp_params(mean_scores, eta, cfg).alpha for eta in (0.05, 0.2, 0.6, 1.0)]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    # rising alpha at fixed alpha+beta pushes the mode toward harder samples
    modes = [warp_mode(WarpParams(a, 10.0 - a, 1.0)) for a in alphas]
    assert all(m1 < m2 for m1, m2 in zip(modes, modes[1:]))


# ---------------------------------------------------------------------------
# warped_scores without modal normalization
# ---------------------------------------------------------------------------

def test_warp_gamma_zero_is_one():
    params = WarpParams(alpha=3.0, beta=4.0, gamma_temp=0.0)
    assert warped_scores([0.1, 0.5, 0.9], params, normalize=False).tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("gamma", [1e4, math.inf])
def test_raw_warp_overflow_is_config_error(gamma):
    # the raw Beta(3, 4) pdf peaks above 2, so a large gamma_temp overflows exp;
    # the error names the key, and numpy's overflow warning stays silent
    params = WarpParams(alpha=3.0, beta=4.0, gamma_temp=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="gamma_temp"):
            warped_scores([0.1, 0.4, 0.9], params, normalize=False)


def test_normalized_warp_does_not_overflow_at_large_gamma():
    params = WarpParams(alpha=3.0, beta=4.0, gamma_temp=1e4)
    warped = warped_scores([0.1, 0.4, 0.9], params, normalize=True)
    assert np.isfinite(warped).all() and warped.max() <= 1.0


def test_warp_symmetric_beta_hand_value():
    params = WarpParams(alpha=2.0, beta=2.0, gamma_temp=1.0)
    assert warped_scores([0.5], params, normalize=False)[0] == pytest.approx(1.5, abs=1e-12)


def test_warp_grid_argmax_matches_analytic_mode():
    params = WarpParams(alpha=2.5811388300841898, beta=7.41886116991581, gamma_temp=1.0)
    grid = np.arange(1e-4, 1.0, 1e-4)
    values = warped_scores(grid, params, normalize=False)
    got = float(grid[int(np.argmax(values))])
    expected = (params.alpha - 1.0) / (params.alpha + params.beta - 2.0)
    assert expected == pytest.approx(0.19764, abs=1e-4)
    assert abs(got - expected) <= 1e-4


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=1.1, max_value=8.0),
    gamma=st.floats(min_value=0.1, max_value=3.0),
)
def test_warp_gamma_rescales_log_scores(alpha, gamma):
    base = WarpParams(alpha=alpha, beta=10.0 - alpha, gamma_temp=1.0)
    hot = WarpParams(alpha=alpha, beta=10.0 - alpha, gamma_temp=gamma)
    xs = [0.05, 0.3, 0.7, 0.95]
    f1s = warped_scores(xs, base, normalize=False)
    for f1, fg in zip(f1s, warped_scores(xs, hot, normalize=False)):
        assert math.log(fg) == pytest.approx(gamma * math.log(f1), rel=1e-9, abs=1e-9)


def test_warp_ranking_gamma_invariant(rng):
    scores = rng.uniform(0.01, 0.99, size=40)
    orders = []
    for gamma in (0.5, 1.0, 2.0):
        params = WarpParams(alpha=2.4, beta=7.6, gamma_temp=gamma)
        warped = warped_scores(scores, params, normalize=False)
        orders.append(np.argsort(warped, kind="stable").tolist())
    assert orders[0] == orders[1] == orders[2]


def test_warp_unimodal_on_interior(rng):
    params = WarpParams(alpha=3.3, beta=4.9, gamma_temp=1.0)
    grid = np.linspace(0.001, 0.999, 2001)
    vals = warped_scores(grid, params, normalize=False)
    peak = int(np.argmax(vals))
    assert np.all(np.diff(vals[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(vals[peak:]) <= 1e-12)


# ---------------------------------------------------------------------------
# warped_scores / selection pipeline
# ---------------------------------------------------------------------------

def test_warped_scores_normalized_range(rng):
    params = WarpParams(alpha=2.2, beta=7.8, gamma_temp=1.0)
    scores = rng.uniform(0.0, 1.0, size=200)
    warped = warped_scores(scores, params, normalize=True)
    assert warped.max() <= 1.0 + 1e-12
    assert warped.min() >= 0.0
    # the sample closest to the mode scores highest
    mode = warp_mode(params)
    assert abs(scores[int(np.argmax(warped))] - mode) == pytest.approx(
        np.abs(scores - mode).min(), abs=1e-12
    )


def test_warped_scores_match_scalar_op(rng):
    params = WarpParams(alpha=2.7, beta=5.3, gamma_temp=1.4)
    scores = rng.uniform(0.0, 1.0, size=25)
    got = warped_scores(scores, params, normalize=False)
    clamped = np.clip(scores, 1e-6, 1.0 - 1e-6)
    for i in range(25):
        assert got[i] == pytest.approx(warp_reference(float(clamped[i]), params), rel=1e-12)


def test_warp_mode_boundary_cases():
    eps = 1e-6
    assert warp_mode(WarpParams(1.0, 5.0, 1.0)) == eps           # decreasing pdf
    assert warp_mode(WarpParams(5.0, 1.0, 1.0)) == 1.0 - eps     # increasing pdf
    assert warp_mode(WarpParams(0.5, 0.8, 1.0)) == eps           # bathtub, left heavier
    assert warp_mode(WarpParams(3.0, 3.0, 1.0)) == 0.5


def test_selection_scores_pipeline(rng):
    ledger = ScoreLedger.from_scores(rng.uniform(0.2, 2.0, size=30), step=0)
    warped = selection_scores(ledger, _cfg())
    assert warped.shape == (30,)
    assert np.all(warped >= 0.0) and np.all(warped <= 1.0 + 1e-12)


def test_selection_scores_degenerate_ledger():
    ledger = ScoreLedger.from_scores(np.full(6, 3.0), step=0)
    warped = selection_scores(ledger, _cfg())
    assert np.allclose(warped, warped[0])
