"""Sample embeddings, the importance-score ledger, and their on-disk formats.

Embedding file (binary): magic ``GRCE``, format version u32=1, n as u64, d as
u32, then n*d little-endian float32 values in row-major order. Score stream
(text): one JSON object per line with keys ``id``, ``step``, ``score``.
"""

from __future__ import annotations

import io
import json
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, DomainError, FormatError, OrderingError

EMBEDDING_MAGIC = b"GRCE"
EMBEDDING_VERSION = 1

# Normalized scores are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before Beta
# warping; the pdf is singular at the endpoints when alpha < 1 or beta < 1.
CLAMP_EPS = 1e-6

_HEADER = struct.Struct("<4sIQI")


class EmbeddingTable:
    """Per-sample embedding vectors, one row per sample, all finite."""

    def __init__(self, rows):
        rows = np.array(rows, dtype=np.float64, copy=True)
        if rows.ndim != 2:
            raise DomainError(f"embedding table must be 2-d, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DomainError(f"embedding table needs n >= 1 and d >= 1, got shape {rows.shape}")
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            r, c = (int(v) for v in bad[0])
            raise DataError(f"non-finite embedding value at row {r}, col {c}")
        self.rows = rows

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.rows)

    def __eq__(self, other):
        return isinstance(other, EmbeddingTable) and np.array_equal(self.rows, other.rows)


def ingest_embeddings(source) -> EmbeddingTable:
    """Read an embedding file (path or binary file object) into a table."""
    if hasattr(source, "read"):
        return _read_embeddings(source)
    with open(source, "rb") as fh:
        return _read_embeddings(fh)


def _read_embeddings(fh) -> EmbeddingTable:
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise FormatError("embedding file truncated before header end")
    magic, version, n, d = _HEADER.unpack(header)
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"bad magic bytes {magic!r}, expected {EMBEDDING_MAGIC!r}")
    if version != EMBEDDING_VERSION:
        raise FormatError(f"unsupported embedding format version {version}")
    if n < 1 or d < 1:
        raise FormatError(f"embedding header declares n={n}, d={d}; both must be >= 1")
    payload = fh.read(4 * n * d)
    if len(payload) != 4 * n * d:
        raise FormatError(f"embedding payload truncated: expected {4 * n * d} bytes, got {len(payload)}")
    return EmbeddingTable(np.frombuffer(payload, dtype="<f4").reshape(n, d))


def write_embeddings(table: EmbeddingTable, target) -> None:
    """Serialize a table in the binary embedding format (float32 payload)."""
    payload = np.ascontiguousarray(table.rows, dtype="<f4").tobytes()
    header = _HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_VERSION, table.n, table.d)
    if hasattr(target, "write"):
        target.write(header)
        target.write(payload)
        return
    with open(target, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def embeddings_bytes(table: EmbeddingTable) -> bytes:
    buf = io.BytesIO()
    write_embeddings(table, buf)
    return buf.getvalue()


class ScoreLedger:
    """Raw importance scores with per-sample history and staleness markers.

    ``current[i]`` always equals the score at the largest recorded step of
    sample i; ``t_history[i]`` is the step of the last accurate (provider)
    recomputation and only moves through the dynamics module.
    """

    def __init__(self, n: int, history_cap: int | None = None):
        if n < 1:
            raise DomainError("ledger needs n >= 1")
        self.current = np.zeros(n, dtype=np.float64)
        self.t_history = np.zeros(n, dtype=np.int64)
        self._steps: list[list[int]] = [[] for _ in range(n)]
        self._scores: list[list[float]] = [[] for _ in range(n)]
        self.history_cap = history_cap

    @classmethod
    def from_scores(cls, scores, step: int, history_cap: int | None = None) -> "ScoreLedger":
        scores = np.asarray(scores, dtype=np.float64)
        ledger = cls(scores.shape[0], history_cap=history_cap)
        for i, s in enumerate(scores):
            ledger.record(i, step, float(s))
        ledger.t_history[:] = step
        return ledger

    @property
    def n(self) -> int:
        return self.current.shape[0]

    def record(self, sample_id: int, step: int, score: float, replace: bool = False) -> None:
        if not 0 <= sample_id < self.n:
            raise DomainError(f"sample id {sample_id} out of range [0, {self.n})")
        if not math.isfinite(score):
            raise DomainError(f"score for sample {sample_id} must be finite, got {score!r}")
        if score < 0.0:
            raise DomainError(f"score for sample {sample_id} must be >= 0, got {score}")
        steps = self._steps[sample_id]
        if steps:
            last = steps[-1]
            if step == last and replace:
                self._scores[sample_id][-1] = float(score)
                self.current[sample_id] = score
                return
            if step <= last:
                raise OrderingError(
                    f"step {step} for sample {sample_id} is not after last recorded step {last}"
                )
        steps.append(int(step))
        self._scores[sample_id].append(float(score))
        if self.history_cap is not None and len(steps) > self.history_cap:
            del steps[0]
            del self._scores[sample_id][0]
        self.current[sample_id] = score

    def score_at(self, sample_id: int, step: int) -> float:
        steps = self._steps[sample_id]
        pos = bisect_left(steps, step)
        if pos == len(steps) or steps[pos] != step:
            raise DomainError(f"sample {sample_id} has no recorded score at step {step}")
        return self._scores[sample_id][pos]

    def steps_for(self, sample_id: int) -> tuple[int, ...]:
        return tuple(self._steps[sample_id])

    def last_step(self, sample_id: int) -> int | None:
        steps = self._steps[sample_id]
        return steps[-1] if steps else None

    def history(self, sample_id: int) -> list[tuple[int, float]]:
        return list(zip(self._steps[sample_id], self._scores[sample_id]))

    def mark_accurate(self, sample_id: int, step: int) -> None:
        if step < self.t_history[sample_id]:
            raise DomainError(
                f"t_history for sample {sample_id} may only increase "
                f"({self.t_history[sample_id]} -> {step})"
            )
        self.t_history[sample_id] = step

    def pop_last(self, sample_id: int) -> None:
        """Drop the most recent history entry (rollback support)."""
        self._steps[sample_id].pop()
        self._scores[sample_id].pop()
        scores = self._scores[sample_id]
        self.current[sample_id] = scores[-1] if scores else 0.0


def record_score(ledger: ScoreLedger, sample_id: int, step: int, score: float) -> ScoreLedger:
    """Append one (step, score) observation for a sample and return the ledger."""
    ledger.record(sample_id, step, score)
    return ledger


def min_max_normalize(ledger: ScoreLedger) -> np.ndarray:
    """Rescale current raw scores into [0, 1]; a degenerate range maps to 0.5."""
    scores = ledger.current
    lo = float(scores.min())
    hi = float(scores.max())
    if hi == lo:
        return np.full(scores.shape[0], 0.5)
    return (scores - lo) / (hi - lo)


def clamp_unit(values, eps: float = CLAMP_EPS) -> np.ndarray:
    """Clamp normalized scores away from the Beta pdf singularities at 0 and 1."""
    return np.clip(np.asarray(values, dtype=np.float64), eps, 1.0 - eps)


def load_score_stream(source, n: int, history_cap: int | None = None) -> ScoreLedger:
    """Replay a score-stream JSONL file into a fresh ledger of n samples."""
    ledger = ScoreLedger(n, history_cap=history_cap)
    if hasattr(source, "read"):
        _replay_stream(source, ledger)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            _replay_stream(fh, ledger)
    return ledger


def _replay_stream(fh, ledger: ScoreLedger) -> None:
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            sample_id = int(obj["id"])
            step = int(obj["step"])
            score = float(obj["score"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"score stream line {lineno} is malformed: {exc}") from exc
        ledger.record(sample_id, step, score)


def write_score_stream(ledger: ScoreLedger, target) -> None:
    """Dump every ledger history entry as one JSON object per line."""
    def emit(fh):
        for i in range(ledger.n):
            for step, score in zip(ledger._steps[i], ledger._scores[i]):
                fh.write(json.dumps({"id": i, "step": step, "score": score}) + "\n")

    if hasattr(target, "write"):
        emit(target)
        return
    with open(target, "w", encoding="utf-8") as fh:
        emit(fh)


@dataclass(frozen=True)
class SelectionConfig:
    """Every hyperparameter of the selection and update machinery."""

    budget_b: int
    n_s: int
    budget_eta: float
    lambda_blend: float = 0.6
    delta: float = 0.15
    delta_h: float = 0.05
    t_c: int = 25
    k: int = 10
    k_recal: int = 32
    beta_const_c: float = 10.0
    q_exp: float = 1.0
    r_exp: float = 0.5
    gamma_temp: float = 1.0
    beta_aff: float = 0.05
    lambda_c: float = 0.99
    n_s_check: int = 32
    seed: int = 0
    normalize_warp: bool = True
    history_cap: int | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def bad(name, why):
            raise ConfigError(f"config key '{name}' {why}")

        if self.budget_b < 1:
            bad("budget_b", f"must be a positive integer, got {self.budget_b}")
        if self.n_s < self.budget_b:
            bad("n_s", f"must be >= budget_b ({self.budget_b}), got {self.n_s}")
        if not 0.0 < self.budget_eta <= 1.0:
            bad("budget_eta", f"must be in (0, 1], got {self.budget_eta}")
        if not 0.0 <= self.lambda_blend <= 1.0:
            bad("lambda_blend", f"must be in [0, 1], got {self.lambda_blend}")
        if not self.delta >= 0.0:
            bad("delta", f"must be >= 0, got {self.delta}")
        if not self.delta_h >= 0.0:
            bad("delta_h", f"must be >= 0, got {self.delta_h}")
        if self.t_c < 1:
            bad("t_c", f"must be a positive integer, got {self.t_c}")
        if self.k < 1:
            bad("k", f"must be a positive integer, got {self.k}")
        if self.k_recal < 1:
            bad("k_recal", f"must be a positive integer, got {self.k_recal}")
        if not self.beta_const_c > 2.0:
            bad("beta_const_c", f"must be > 2, got {self.beta_const_c}")
        if not self.gamma_temp >= 0.0:
            bad("gamma_temp", f"must be >= 0, got {self.gamma_temp}")
        if not self.beta_aff >= 0.0:
            bad("beta_aff", f"must be >= 0, got {self.beta_aff}")
        if not 0.0 < self.lambda_c < 1.0:
            bad("lambda_c", f"must be in (0, 1), got {self.lambda_c}")
        if self.n_s_check < 1:
            bad("n_s_check", f"must be a positive integer, got {self.n_s_check}")
        if self.history_cap is not None and self.history_cap < 1:
            bad("history_cap", f"must be a positive integer or null, got {self.history_cap}")

    def validate_for_dataset(self, n: int) -> None:
        if self.n_s > n:
            raise ConfigError(f"config key 'n_s' ({self.n_s}) exceeds dataset size {n}")
        if self.k >= n:
            raise ConfigError(f"config key 'k' ({self.k}) must be < dataset size {n}")
        if self.k_recal > n:
            raise ConfigError(f"config key 'k_recal' ({self.k_recal}) exceeds dataset size {n}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SelectionConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config key '{unknown[0]}' in selection block")
        missing = [name for name in ("budget_b", "n_s", "budget_eta") if name not in raw]
        if missing:
            raise ConfigError(f"config key '{missing[0]}' is required in selection block")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
