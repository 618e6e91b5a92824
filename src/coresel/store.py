"""Sample embeddings, the importance-score ledger, and their on-disk formats.

The ledger keeps a fixed window of recent entries per sample: t_c + 1 in an
adaptive run, every entry a drift check reads, and 1 by default, so ``coresel
select`` keeps each sample's latest score. No config key sets the window.

Sample ids are integers in [0, n). ``id_set`` checks each collection of them
that a layer takes: the ledger, the simulator, the selector, the drift check,
anchor qualification and graph repair raise DomainError naming the first id
outside that range, so -1 never stands for the last sample.

Embedding file (binary): magic ``GRCE``, format version u32=1, n as u64, d as
u32, then n*d little-endian float32 values in row-major order. Score stream
(text): one JSON object per line with keys ``id``, ``step``, ``score``.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, DataError, DomainError, FormatError, OrderingError

EMBEDDING_MAGIC = b"GRCE"
EMBEDDING_VERSION = 1

# Normalized scores are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before Beta
# warping; the pdf is singular at the endpoints when alpha < 1 or beta < 1.
CLAMP_EPS = 1e-6

_HEADER = struct.Struct("<4sIQI")

# The payload is read this many bytes at a time, so a header that declares
# more than the file holds costs one chunk, not the declared size.
_READ_CHUNK = 1 << 16


def id_set(values, n: int, what: str) -> np.ndarray:
    """The distinct ids in ``values``, sorted, as int64; DomainError names the first
    one, in the given order, outside [0, n).

    An ndarray is taken whole, with no Python loop. Repeats collapse through an
    (n,) mask: np.unique and np.isin import numpy.ma (about 1.7 MB) on first use.
    """
    ids = (values.astype(np.int64, copy=False) if isinstance(values, np.ndarray)
           else np.fromiter(values, dtype=np.int64))
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise DomainError(f"{what} {ids[bad][0]} out of range [0, {n})")
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


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

    def __eq__(self, other):
        return isinstance(other, EmbeddingTable) and np.array_equal(self.rows, other.rows)


@contextmanager
def opened(file, mode: str):
    """Yield ``file`` itself if it is a file object, which stays open; else open the
    path in ``mode``, as UTF-8 in a text mode, and close it on exit. A path read in a
    text mode that is not UTF-8 raises FormatError naming it."""
    if hasattr(file, "read" if "r" in mode else "write"):
        yield file
        return
    with open(file, mode, encoding=None if "b" in mode else "utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            if "b" in mode:
                raise
            raise FormatError(f"file {file} is not UTF-8 text ({exc.reason})") from None


def ingest_embeddings(source) -> EmbeddingTable:
    """Read an embedding file (path or binary file object), exactly as long as its header says."""
    with opened(source, "rb") as fh:
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
        size = 4 * n * d
        payload = bytearray()
        while len(payload) < size and (chunk := fh.read(min(size - len(payload), _READ_CHUNK))):
            payload += chunk
        extra = fh.read(1)
    if len(payload) != size:
        raise FormatError(f"embedding payload truncated: header declares n={n}, d={d} "
                          f"({size} bytes), the file holds {len(payload)}")
    if extra:
        raise FormatError(f"embedding file runs past its payload: header declares n={n}, "
                          f"d={d} ({size} bytes), and more bytes follow")
    return EmbeddingTable(np.frombuffer(payload, dtype="<f4").reshape(n, d))


def write_embeddings(table: EmbeddingTable, target) -> None:
    """Serialize a table in the binary embedding format (float32 payload).

    DataError names the first value beyond float32's range, which the cast would
    turn into an infinity that ``ingest_embeddings`` rejects; nothing is written.
    """
    header = _HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_VERSION, table.n, table.d)
    with np.errstate(over="ignore"):
        rows = np.ascontiguousarray(table.rows, dtype="<f4")
    bad = np.argwhere(np.isinf(rows))
    if bad.size:
        r, c = (int(v) for v in bad[0])
        raise DataError(f"embedding value {table.rows[r, c]:.6g} at row {r}, col {c} "
                        f"is beyond float32's range")
    payload = rows.tobytes()
    with opened(target, "wb") as fh:
        fh.write(header)
        fh.write(payload)


class ScoreLedger:
    """Raw importance scores: each sample's last ``window`` entries, plus staleness markers.

    ``steps`` and ``scores`` are (n, window) arrays; row i holds sample i's
    most recent entries in ascending step order, right-aligned, with step -1
    marking an empty slot. ``current`` is the last column, the score at the
    largest recorded step (0.0 before any). ``t_history[i]`` is the step of
    the last accurate (provider) recomputation and only moves through the
    dynamics module.
    """

    def __init__(self, n: int, window: int = 1):
        if n < 1:
            raise DomainError("ledger needs n >= 1")
        if window < 1:
            raise DomainError(f"ledger needs window >= 1, got {window}")
        self.steps = np.full((n, window), -1, dtype=np.int64)
        self.scores = np.zeros((n, window), dtype=np.float64)
        self.t_history = np.zeros(n, dtype=np.int64)

    @classmethod
    def from_scores(cls, scores, step: int, window: int = 1) -> "ScoreLedger":
        scores = np.asarray(scores, dtype=np.float64)
        ledger = cls(scores.shape[0], window)
        ledger.record(np.arange(ledger.n), step, scores)
        ledger.t_history[:] = step
        return ledger

    @property
    def n(self) -> int:
        return self.steps.shape[0]

    @property
    def current(self) -> np.ndarray:
        return self.scores[:, -1]

    def record(self, sample_ids, step, scores, replace: bool = False) -> None:
        """Append entries for distinct ids, all or none.

        ``scores`` holds one score per id at ``step`` (scalar or one per id),
        or is a (t, len(ids)) block whose row r holds every id's score at
        ``step[r]``, t strictly increasing steps. With ``replace``, an entry at
        a sample's last recorded step overwrites it (not in a block); otherwise
        steps must strictly increase.
        """
        ids = np.atleast_1d(np.asarray(sample_ids))
        vals = np.atleast_1d(np.asarray(scores, dtype=np.float64))
        block = vals.ndim == 2
        if ids.ndim != 1 or vals.shape[block:] != ids.shape:
            raise DomainError(f"record needs one score per id, got {vals.shape} for {ids.shape}")
        if block:
            if replace:
                raise DomainError("a block of scores takes no replace")
            if np.shape(step) != vals.shape[:1]:
                raise DomainError(f"a block of {len(vals)} rows needs {len(vals)} steps, "
                                  f"got shape {np.shape(step)}")
            at = np.asarray(step)
            if (np.diff(at) <= 0).any():
                raise OrderingError(f"block steps must strictly increase, got {at.tolist()}")
            at = np.broadcast_to(at[:, None], vals.shape)
        else:
            vals, at = vals.reshape(1, -1), np.broadcast_to(np.asarray(step), (1, ids.size))
        if not ids.size:
            return
        if id_set(ids, self.n, "sample id").size != ids.size:
            raise DomainError("sample ids of one record call must be distinct")
        ok = (at >= 0) & np.isfinite(vals) & (vals >= 0.0)
        if not ok.all():
            i, t, v = np.broadcast_to(ids, vals.shape)[~ok][0], at[~ok][0], float(vals[~ok][0])
            if t < 0:
                raise DomainError(f"step for sample {i} must be >= 0, got {t}")
            if not np.isfinite(v):
                raise DomainError(f"score for sample {i} must be finite, got {v!r}")
            raise DomainError(f"score for sample {i} must be >= 0, got {v}")
        last, first = self.steps[ids, -1], at[0]
        same = (first == last) & replace
        late = (first <= last) & ~same
        if late.any():
            raise OrderingError(f"step {first[late][0]} for sample {ids[late][0]} is not after "
                                f"last recorded step {last[late][0]}")
        rows, new, w = ids[~same], len(vals), self.steps.shape[1]  # new entries per row
        self.steps[rows] = np.column_stack((self.steps[rows, new:], at[-w:, ~same].T))
        self.scores[rows] = np.column_stack((self.scores[rows, new:], vals[-w:, ~same].T))
        self.scores[ids[same], -1] = vals[0, same]

    def score_at(self, sample_id: int, step: int) -> float:
        score = dict(self.history(sample_id)).get(step)
        if score is None:
            raise DomainError(f"sample {sample_id} has no recorded score at step {step}")
        return score

    def steps_for(self, sample_id: int) -> tuple[int, ...]:
        return tuple(step for step, _ in self.history(sample_id))

    def history(self, sample_id: int) -> list[tuple[int, float]]:
        """(step, score) of each entry, oldest first; DomainError outside [0, n), -1 included."""
        i = int(id_set((sample_id,), self.n, "sample id")[0])
        filled = self.steps[i] >= 0
        return list(zip(self.steps[i][filled].tolist(), self.scores[i][filled].tolist()))

    def mark_accurate(self, sample_ids, step: int) -> None:
        """Set t_history of each id (one or many, repeats collapse) to ``step``, all or none."""
        ids = id_set(np.atleast_1d(np.asarray(sample_ids)), self.n, "sample id")
        behind = self.t_history[ids] > step
        if behind.any():
            i = ids[behind][0]
            raise DomainError(f"t_history for sample {i} may only increase "
                              f"({self.t_history[i]} -> {step})")
        self.t_history[ids] = step


def min_max_normalize(ledger: ScoreLedger) -> np.ndarray:
    """Rescale current raw scores into [0, 1]; a degenerate range maps to 0.5."""
    scores = ledger.current
    lo = float(scores.min())
    hi = float(scores.max())
    if hi == lo:
        return np.full(scores.shape[0], 0.5)
    return (scores - lo) / (hi - lo)


def clamp_unit(values) -> np.ndarray:
    """Clamp normalized scores away from the Beta pdf singularities at 0 and 1."""
    return np.clip(np.asarray(values, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)


_INT64_END = 1 << 63  # int64 holds [-_INT64_END, _INT64_END)


def load_score_stream(source, n: int, window: int = 1) -> ScoreLedger:
    """Replay a score-stream JSONL file into a fresh ledger of n samples.

    The whole stream is parsed and checked first; then one ``record`` call
    enters the k-th entry of every sample. FormatError names the first
    non-blank line that is not one JSON object with an integer ``id`` and
    ``step`` and a numeric ``score`` (none of them true or false, none
    truncated), or whose id or step lies outside int64; then, with the
    ledger's message, the first line at which a line-by-line replay would
    stop: an id outside [0, n), a negative step, a score not finite and >= 0,
    or a step not after the sample's previous line.
    """
    with opened(source, "r") as fh:
        lines = fh.readlines()
    keys, vals = [], []  # per entry: (id, step, line number) and score
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            i, t, v = obj["id"], obj["step"], obj["score"]
            if type(i) is not int or type(t) is not int or type(v) not in (int, float):
                raise TypeError(f"id and step must be integers and score a number, "
                                f"got {i!r}, {t!r}, {v!r}")
            v = float(v)
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"score stream line {lineno} is malformed: {exc}") from exc
        if not (-_INT64_END <= i < _INT64_END and -_INT64_END <= t < _INT64_END):
            raise FormatError(f"score stream line {lineno} has id {i} or step {t} "
                              f"outside the int64 range")
        keys.append((i, t, lineno))
        vals.append(v)
    ids, steps, linenos = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    scores = np.array(vals, dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    back = np.zeros(ids.size, dtype=bool)  # per line: step not after the sample's previous line
    back[order[1:]] = (ids[order[1:]] == ids[order[:-1]]) & (steps[order[1:]] <= steps[order[:-1]])
    bad = (ids < 0) | (ids >= n) | (steps < 0) | ~(np.isfinite(scores) & (scores >= 0.0)) | back
    rank = np.arange(ids.size) - np.searchsorted(ids[order], ids[order])  # k of order[j]
    ledger = ScoreLedger(n, window)
    if bad.any():  # the first bad line's own record call, after its sample's previous line
        j = int(np.argmax(bad))
        prev = np.flatnonzero(ids[:j] == ids[j])[-1:]
        try:
            ledger.record(ids[prev], steps[prev], scores[prev])
            ledger.record(ids[j], steps[j], scores[j])
        except (DomainError, OrderingError) as exc:
            raise FormatError(f"score stream line {linenos[j]}: {exc}") from None
    for k in range(int(rank.max(initial=-1)) + 1):
        entry = order[rank == k]
        ledger.record(ids[entry], steps[entry], scores[entry])
    return ledger


def write_score_stream(ledger: ScoreLedger, target) -> None:
    """Dump every ledger history entry as one JSON object per line, as ``json.dumps`` writes it."""
    ids, slots = np.nonzero(ledger.steps >= 0)
    with opened(target, "w") as fh:
        fh.write("".join(f'{{"id": {i}, "step": {t}, "score": {s!r}}}\n' for i, t, s in zip(
            ids.tolist(), ledger.steps[ids, slots].tolist(), ledger.scores[ids, slots].tolist())))


# Python type of a config key -> the values it takes, and their name. A JSON
# value is exactly one of the Python types; a library caller may also pass
# numpy scalars. No number takes true or false (bool is an int subclass).
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          bool: ((bool, np.bool_), "true or false"), str: (str, "a string"),
          dict: (dict, "a JSON object")}


def _check_type(key: str, value, typ: type) -> None:
    kinds, name = _KINDS[typ]
    if not isinstance(value, kinds) or (typ is not bool and isinstance(value, bool)):
        raise ConfigError(f"config key '{key}' must be {name}, got {value!r}")


def check_keys(block: dict, known: dict, required, where: str) -> None:
    """ConfigError unless ``block`` has only the keys of ``known``, every ``required``
    one among them, and each value of the type ``known`` gives its key.

    An int key takes a JSON integer and a float key any JSON number; neither
    takes true or false. ``where`` ends the unknown and missing-key messages.
    """
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}' {where}")
    missing = [key for key in required if key not in block]
    if missing:
        raise ConfigError(f"config key '{missing[0]}' is required {where}")
    for key, value in block.items():
        _check_type(key, value, known[key])


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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """ConfigError unless every field has its annotated type (see ``check_keys``) and range."""
        def bad(name, why):
            raise ConfigError(f"config key '{name}' {why}")

        for name, typ in get_type_hints(type(self)).items():
            _check_type(name, getattr(self, name), typ)
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
        for name in ("beta_const_c", "q_exp", "r_exp"):
            value = getattr(self, name)
            if not abs(value) < math.inf:  # not math.isfinite: it overflows on a huge int
                bad(name, f"must be finite, got {value}")
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
        if self.seed < 0:
            bad("seed", f"must be >= 0, got {self.seed}")

    def validate_for_dataset(self, n: int) -> None:
        if self.n_s > n:
            raise ConfigError(f"config key 'n_s' ({self.n_s}) exceeds dataset size {n}")
        if self.k >= n:
            raise ConfigError(f"config key 'k' ({self.k}) must be < dataset size {n}")
        if self.k_recal > n:
            raise ConfigError(f"config key 'k_recal' ({self.k_recal}) exceeds dataset size {n}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SelectionConfig":
        check_keys(raw, get_type_hints(cls), ("budget_b", "n_s", "budget_eta"), "in selection block")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
