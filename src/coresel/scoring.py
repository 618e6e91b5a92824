"""Raw EL2N importance and the Beta-warped selection score.

The raw score of a sample is the Frobenius norm of (predicted probabilities -
one-hot targets). For selection, normalized scores pass through a Beta pdf
whose shape follows the running mean score and the selection budget, so the
curve favors moderately difficult samples and shifts with the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .store import CLAMP_EPS, ScoreLedger, clamp_unit, min_max_normalize


_OVERFLOW = ("the Beta warp overflows: config keys beta_const_c, q_exp and r_exp "
             "must be smaller in magnitude")


@dataclass(frozen=True)
class WarpParams:
    alpha: float
    beta: float
    gamma_temp: float


def el2n_from_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vectorized per-row EL2N for already-validated probability rows."""
    diff = probs.copy()
    diff[np.arange(probs.shape[0]), labels] -= 1.0
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def derive_warp_params(normalized_scores, eta: float, cfg) -> WarpParams:
    """Shape parameters alpha = 1 + C * mean^q * eta^r and beta = C - alpha."""
    scores = np.asarray(normalized_scores, dtype=np.float64)
    if scores.size == 0:
        raise DomainError("normalized_scores must be nonempty")
    mean = float(scores.mean())
    c = cfg.beta_const_c
    try:
        alpha = 1.0 + c * mean ** cfg.q_exp * eta ** cfg.r_exp
    except OverflowError:
        raise ConfigError(_OVERFLOW) from None
    beta = c - alpha
    if beta <= 0.0 or alpha <= 0.0:
        raise ConfigError(
            f"beta_const_c={c} is too small for mean score {mean:.4f} at eta={eta}: "
            f"derived alpha={alpha:.4f}, beta={beta:.4f}"
        )
    return WarpParams(alpha=alpha, beta=beta, gamma_temp=cfg.gamma_temp)


def _log_beta_pdf(x: float, a: float, b: float) -> float:
    """Log Beta(a, b) pdf at an interior x; every caller clamps x into (0, 1)."""
    const = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return const + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)


def warp_mode(params: WarpParams) -> float:
    """Argmax of the warped score over the clamped interval [CLAMP_EPS, 1 - CLAMP_EPS]."""
    a, b, eps = params.alpha, params.beta, CLAMP_EPS
    if a > 1.0 and b > 1.0:
        return min(max((a - 1.0) / (a + b - 2.0), eps), 1.0 - eps)
    if a <= 1.0 and b <= 1.0:
        lo = _log_beta_pdf(eps, a, b)
        hi = _log_beta_pdf(1.0 - eps, a, b)
        return eps if lo >= hi else 1.0 - eps
    return eps if a <= 1.0 else 1.0 - eps


def warped_scores(normalized, params: WarpParams, normalize: bool = True) -> np.ndarray:
    """Warp a vector of normalized scores, clamping inputs away from {0, 1}.

    With ``normalize`` the result is divided by the warped value at the mode,
    so it lies in [0, 1] on the same scale as cosine coverage. Without it, a
    large ``gamma_temp`` can overflow: a non-finite result raises ConfigError.
    """
    x = clamp_unit(normalized)
    a, b, g = params.alpha, params.beta, params.gamma_temp
    if g == 0.0:
        return np.ones_like(x)
    try:
        const = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        peak = _log_beta_pdf(warp_mode(params), a, b) if normalize else 0.0
    except OverflowError:
        raise ConfigError(_OVERFLOW) from None
    log_pdf = const + (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - peak
    with np.errstate(over="ignore", invalid="ignore"):
        warped = np.exp(g * log_pdf)
    if not np.isfinite(warped).all():
        raise ConfigError(f"gamma_temp={g} makes a warped score non-finite; "
                          f"use a smaller gamma_temp or normalized warping")
    return warped


def selection_scores(ledger: ScoreLedger, cfg) -> np.ndarray:
    """Full pipeline from the ledger's raw scores to per-sample warped scores."""
    normalized = clamp_unit(min_max_normalize(ledger))
    params = derive_warp_params(normalized, cfg.budget_eta, cfg)
    return warped_scores(normalized, params, normalize=cfg.normalize_warp)
