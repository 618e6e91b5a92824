"""Desk-scale feature provider: a softmax classifier on clustered data.

The trainer is a plain multinomial logistic model on synthetic Gaussian
clusters, optionally under a covariate-drift schedule. Its logit vectors
serve as the evolving sample embeddings and its prediction-error norms as the
raw importance scores, so the full selection/check/update loop runs against
genuine training dynamics rather than mocks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .scoring import el2n_from_probs
from .store import id_set

MEAN_SEPARATION = 3.0


@contextmanager
def _finite_arithmetic(step: int):
    """numpy overflow or an invalid value inside the block raises DomainError, not a warning.

    Huge but finite parameters overflow here rather than as infinities found
    downstream. A matmul may yield inf without setting the flags, so callers
    that need finite output still check it.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(f"simulator arithmetic failed at step {step} ({exc}); lower "
                          "cluster_spread, learning_rate or the drift rate") from exc


def make_dataset(n: int, d: int, c: int, cluster_spread: float, seed: int):
    """Gaussian clusters with seeded random class means; labels round-robin."""
    if c < 2:
        raise DomainError(f"need at least 2 classes, got {c}")
    if n < c:
        raise DomainError(f"need n >= c, got n={n}, c={c}")
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if not (np.isfinite(cluster_spread) and cluster_spread >= 0.0):
        raise DomainError(f"cluster_spread must be finite and >= 0, got {cluster_spread}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(c, d)) * MEAN_SEPARATION
    labels = np.arange(n, dtype=np.int64) % c
    with _finite_arithmetic(0):
        data = means[labels] + cluster_spread * rng.normal(size=(n, d))
    return data, labels


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class SimState:
    """Trainer state; also the feature provider for selection and checking."""

    data: np.ndarray                 # (n, d) current inputs (drift mutates them)
    labels: np.ndarray               # (n,)
    weights: np.ndarray              # (c, d), zeros before any training
    learning_rate: float
    step: int = 0
    drift: float | np.ndarray | None = None   # per-step covariate shift magnitude
    freeze_at: int | None = None              # stop weight updates from this step on
    drift_dirs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.drift is not None and self.drift_dirs is None:
            raise DomainError("a drifting SimState needs drift_dirs (SimState.create makes them)")

    @classmethod
    def create(cls, n: int, dim: int, classes: int, cluster_spread: float = 1.0,
               learning_rate: float = 0.1, seed: int = 0,
               drift: float | np.ndarray | None = None,
               freeze_at: int | None = None) -> "SimState":
        if not (np.isfinite(learning_rate) and learning_rate >= 0.0):
            raise DomainError(f"learning_rate must be finite and >= 0, got {learning_rate}")
        if drift is not None and not np.isfinite(drift).all():
            raise DomainError(f"drift must be finite, got {drift!r}")
        data, labels = make_dataset(n, dim, classes, cluster_spread, seed)
        dirs = np.random.default_rng(seed + 1).normal(size=(classes, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return cls(
            data=data,
            labels=labels,
            weights=np.zeros((classes, dim)),
            learning_rate=learning_rate,
            drift=drift,
            freeze_at=freeze_at,
            drift_dirs=dirs,
        )

    @cached_property
    def drift_field(self) -> np.ndarray:
        """Each sample's shift per unit of drift; ``labels`` and ``drift_dirs`` never change."""
        return self.drift_dirs[self.labels]

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def classes(self) -> int:
        return self.weights.shape[0]

    def _drift_magnitude(self) -> float:
        if self.drift is None:
            return 0.0
        if np.ndim(self.drift) == 0:
            return float(self.drift)
        sched = np.asarray(self.drift)
        return float(sched[self.step]) if self.step < sched.shape[0] else 0.0

    def train_step(self, batch) -> float:
        """One mini-batch cross-entropy gradient step; returns the batch loss.

        An active drift schedule shifts every sample along its class direction
        before the gradient is computed.
        """
        ids = id_set(batch, self.n, "sample id")
        if ids.size == 0:
            raise DomainError("batch must be nonempty")
        m = self._drift_magnitude()
        with _finite_arithmetic(self.step):
            if m != 0.0:
                self.data += m * self.drift_field
            x = self.data[ids]
            y = self.labels[ids]
            probs = softmax(x @ self.weights.T)
            loss = float(-np.mean(np.log(np.maximum(probs[np.arange(ids.size), y], 1e-300))))
            if self.freeze_at is None or self.step < self.freeze_at:
                grad_logits = probs
                grad_logits[np.arange(ids.size), y] -= 1.0
                grad = grad_logits.T @ x / ids.size
                self.weights -= self.learning_rate * grad
        self.step += 1
        return loss

    def extract_features(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Logit-vector embeddings and EL2N scores for the given samples."""
        ids = np.asarray(ids, dtype=np.int64)
        id_set(ids, self.n, "sample id")  # the range check; rows keep the given order
        with _finite_arithmetic(self.step):
            logits = self.data[ids] @ self.weights.T
            probs = softmax(logits)
            scores = el2n_from_probs(probs, self.labels[ids])
        return logits, scores

    def full_loss(self) -> float:
        with _finite_arithmetic(self.step):
            probs = softmax(self.data @ self.weights.T)
        picked = probs[np.arange(self.n), self.labels]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))))

    def accuracy(self) -> float:
        with _finite_arithmetic(self.step):
            pred = (self.data @ self.weights.T).argmax(axis=1)
        return float(np.mean(pred == self.labels))

