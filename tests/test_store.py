"""Embedding I/O, the score ledger, normalization, and config validation."""

import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import score_lines_reference, score_stream_reference
from coresel.errors import ConfigError, DataError, DomainError, FormatError, OrderingError
from coresel.store import (
    EMBEDDING_MAGIC,
    EmbeddingTable,
    ScoreLedger,
    SelectionConfig,
    ingest_embeddings,
    load_score_stream,
    min_max_normalize,
    write_embeddings,
    write_score_stream,
)


# ---------------------------------------------------------------------------
# embedding file format
# ---------------------------------------------------------------------------

def embeddings_bytes(table: EmbeddingTable) -> bytes:
    buf = io.BytesIO()
    write_embeddings(table, buf)
    return buf.getvalue()


# Headers whose payload is larger than the file: 4 n d overflows a C size,
# and 4 n d = 256 MiB against the 64 bytes that follow.
OVERSIZED_HEADERS = [
    struct.pack("<4sIQI", EMBEDDING_MAGIC, 1, 2**64 - 1, 2**32 - 1),
    struct.pack("<4sIQI", EMBEDDING_MAGIC, 1, 2**22, 16),
]


def test_ingest_round_trip_small(tmp_path):
    table = EmbeddingTable([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    path = tmp_path / "emb.bin"
    write_embeddings(table, path)
    loaded = ingest_embeddings(path)
    assert loaded.n == 3 and loaded.d == 2
    assert np.array_equal(loaded.rows, table.rows)


def test_ingest_rejects_nan_naming_row():
    table_bytes = bytearray(embeddings_bytes(EmbeddingTable([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))
    # overwrite row 1, col 0 with a NaN
    offset = struct.calcsize("<4sIQI") + 4 * 2
    table_bytes[offset:offset + 4] = struct.pack("<f", float("nan"))
    with pytest.raises(DataError, match="row 1"):
        ingest_embeddings(io.BytesIO(bytes(table_bytes)))


def test_large_round_trip_byte_identical(rng):
    table = EmbeddingTable(rng.normal(size=(10_000, 64)).astype(np.float32))
    first = embeddings_bytes(table)
    again = embeddings_bytes(ingest_embeddings(io.BytesIO(first)))
    assert first == again


def test_ingest_bad_magic():
    payload = b"XXXX" + b"\x00" * 32
    with pytest.raises(FormatError, match="magic"):
        ingest_embeddings(io.BytesIO(payload))


def test_ingest_truncated_header():
    with pytest.raises(FormatError, match="truncated"):
        ingest_embeddings(io.BytesIO(EMBEDDING_MAGIC + b"\x01"))


def test_ingest_truncated_payload():
    good = embeddings_bytes(EmbeddingTable([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(FormatError, match="truncated"):
        ingest_embeddings(io.BytesIO(good[:-4]))


@pytest.mark.parametrize("header", OVERSIZED_HEADERS, ids=["overflow", "256MiB"])
def test_ingest_rejects_payload_larger_than_file(header):
    with pytest.raises(FormatError, match="truncated"):
        ingest_embeddings(io.BytesIO(header + b"\x00" * 64))


def test_ingest_oversized_header_reads_only_what_the_file_holds(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(OVERSIZED_HEADERS[1] + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="268435456 bytes"):
            ingest_embeddings(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ingest_bad_version():
    header = struct.pack("<4sIQI", EMBEDDING_MAGIC, 7, 1, 1) + struct.pack("<f", 1.0)
    with pytest.raises(FormatError, match="version"):
        ingest_embeddings(io.BytesIO(header))


def test_table_rejects_empty_and_nonfinite():
    with pytest.raises(DomainError):
        EmbeddingTable(np.zeros((0, 3)))
    with pytest.raises(DataError, match=r"row 0, col 1"):
        EmbeddingTable([[0.0, np.inf]])


def test_write_rejects_value_beyond_float32_range(tmp_path):
    # the float32 cast would write an infinity that ingest_embeddings rejects;
    # float32's largest value itself still round-trips
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "emb.bin"
    with pytest.raises(DataError, match=r"row 1, col 0 is beyond float32's range"):
        write_embeddings(EmbeddingTable([[1.0, -top], [-1e39, 1e39]]), path)
    assert not path.exists()
    write_embeddings(EmbeddingTable([[1.0, -top], [top, 0.0]]), path)
    assert ingest_embeddings(path).rows[0, 1] == -top


# ---------------------------------------------------------------------------
# score ledger
# ---------------------------------------------------------------------------

def test_record_score_basic():
    ledger = ScoreLedger(2)
    ledger.record(0, 1, 0.5)
    assert ledger.current[0] == 0.5
    assert ledger.history(0) == [(1, 0.5)]


def test_record_score_same_step_is_ordering_error():
    ledger = ScoreLedger(1)
    ledger.record(0, 1, 0.5)
    with pytest.raises(OrderingError):
        ledger.record(0, 1, 0.7)


def test_record_score_rejects_negative_and_nonfinite():
    ledger = ScoreLedger(1)
    with pytest.raises(DomainError):
        ledger.record(0, 1, -0.1)
    with pytest.raises(DomainError):
        ledger.record(0, 1, float("nan"))


def test_hundred_appends_replay(rng):
    ledger = ScoreLedger(1, window=100)
    values = rng.uniform(0.0, 5.0, size=100)
    for step, v in enumerate(values, start=1):
        ledger.record(0, step, float(v))
    assert len(ledger.history(0)) == 100
    assert ledger.current[0] == values[-1]
    # replaying the history into a fresh ledger reconstructs `current`
    replay = ScoreLedger(1, window=100)
    for step, v in ledger.history(0):
        replay.record(0, step, v)
    assert replay.current[0] == ledger.current[0]


def test_t_history_untouched_by_record():
    ledger = ScoreLedger.from_scores([1.0, 2.0], step=5)
    ledger.record(0, 9, 3.0)
    assert ledger.t_history[0] == 5


def test_window_keeps_recent():
    ledger = ScoreLedger(1, window=3)
    for step in range(1, 8):
        ledger.record(0, step, float(step))
    assert ledger.history(0) == [(5, 5.0), (6, 6.0), (7, 7.0)]
    assert ledger.current[0] == 7.0


def test_batched_record_is_all_or_none():
    ledger = ScoreLedger(4, window=2)
    ledger.record([0, 2], 3, [1.0, 2.0])
    with pytest.raises(OrderingError):
        ledger.record([1, 2], 3, [0.5, 0.5])   # sample 2 already has step 3
    with pytest.raises(DomainError, match="distinct"):
        ledger.record([1, 1], 4, [0.5, 0.5])
    assert ledger.history(1) == [] and ledger.history(2) == [(3, 2.0)]
    ledger.record([2, 1], 3, [4.0, 0.5], replace=True)  # replace 2's entry, append 1's
    assert ledger.history(2) == [(3, 4.0)] and ledger.history(1) == [(3, 0.5)]


@pytest.mark.parametrize("window, t", [(4, 3), (4, 4), (3, 5)])
def test_block_record_equals_one_record_per_step(rng, window, t):
    # an interval's (t, b) block of member scores in one write, longer than the window or not
    ids = np.array([4, 0, 3])
    steps = np.arange(7, 7 + t)
    block = rng.uniform(0.0, 2.0, size=(t, ids.size))
    one, per_step = ScoreLedger(6, window), ScoreLedger(6, window)
    for ledger in (one, per_step):
        ledger.record(ids, 2, [1.0, 2.0, 3.0])
    one.record(ids, steps, block)
    for step, row in zip(steps, block):
        per_step.record(ids, int(step), row)
    assert np.array_equal(one.steps, per_step.steps)
    assert np.array_equal(one.scores, per_step.scores)


@pytest.mark.parametrize("steps, block, error", [
    ([5, 5], [[1.0, 2.0], [1.0, 2.0]], OrderingError),          # step not increasing
    ([5, 4], [[1.0, 2.0], [1.0, 2.0]], OrderingError),
    ([5, 6], [[1.0, 2.0], [1.0, float("nan")]], DomainError),   # NaN score
    ([5, 6], [[1.0, 2.0], [-1.0, 2.0]], DomainError),
    ([3, 6], [[1.0, 2.0], [1.0, 2.0]], OrderingError),          # not after the last entry
    ([5, 6, 7], [[1.0, 2.0], [1.0, 2.0]], DomainError),         # one step per row
])
def test_bad_block_record_changes_nothing(steps, block, error):
    ledger = ScoreLedger(3, window=3)
    ledger.record([0, 2], 4, [0.5, 0.25])
    before = ledger.steps.copy(), ledger.scores.copy()
    with pytest.raises(error):
        ledger.record([2, 0], steps, block)
    with pytest.raises(DomainError, match="replace"):
        ledger.record([2, 0], [5, 6], [[1.0, 2.0], [1.0, 2.0]], replace=True)
    assert np.array_equal(ledger.steps, before[0]) and np.array_equal(ledger.scores, before[1])


def test_score_at():
    ledger = ScoreLedger(1, window=2)
    ledger.record(0, 1, 1.0)
    ledger.record(0, 4, 2.0)
    assert ledger.score_at(0, 4) == 2.0
    with pytest.raises(DomainError):
        ledger.score_at(0, 3)


@pytest.mark.parametrize("sample_id", [-1, 3])
@pytest.mark.parametrize("method, args", [
    pytest.param("mark_accurate", (5,), id="mark_accurate"),
    pytest.param("score_at", (0,), id="score_at"),
    pytest.param("history", (), id="history"),
    pytest.param("steps_for", (), id="steps_for"),
])
def test_ledger_per_sample_methods_reject_ids_outside_range(method, args, sample_id):
    # -1 used to stand for the last sample (mark_accurate set its t_history); n raised IndexError
    ledger = ScoreLedger.from_scores([1.0, 2.0, 3.0], step=0)
    with pytest.raises(DomainError, match=f"sample id {sample_id} out of range"):
        getattr(ledger, method)(sample_id, *args)
    assert ledger.t_history.tolist() == [0, 0, 0]


def test_mark_accurate_takes_many_ids_all_or_none():
    ledger = ScoreLedger.from_scores([1.0, 2.0, 3.0], step=0)
    ledger.mark_accurate(np.array([2, 0]), 4)
    assert ledger.t_history.tolist() == [4, 0, 4]
    with pytest.raises(DomainError, match="t_history for sample 0 may only increase"):
        ledger.mark_accurate([0, 1], 3)
    assert ledger.t_history.tolist() == [4, 0, 4]


# ---------------------------------------------------------------------------
# min-max normalization
# ---------------------------------------------------------------------------

def test_min_max_endpoints():
    ledger = ScoreLedger.from_scores([1.0, 3.0, 5.0], step=0)
    assert min_max_normalize(ledger).tolist() == [0.0, 0.5, 1.0]


def test_min_max_degenerate_is_half():
    ledger = ScoreLedger.from_scores([2.0, 2.0, 2.0], step=0)
    assert min_max_normalize(ledger).tolist() == [0.5, 0.5, 0.5]


def test_min_max_matches_formula_and_preserves_argmax(rng):
    scores = rng.uniform(0.0, 10.0, size=50)
    ledger = ScoreLedger.from_scores(scores, step=0)
    got = min_max_normalize(ledger)
    expected = (scores - scores.min()) / (scores.max() - scores.min())
    assert np.array_equal(got, expected)
    assert got.min() >= 0.0 and got.max() <= 1.0
    assert int(np.argmax(got)) == int(np.argmax(scores))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=30))
def test_min_max_preserves_order(raw):
    ledger = ScoreLedger.from_scores(np.asarray(raw), step=0)
    normalized = min_max_normalize(ledger)
    for i in range(len(raw)):
        for j in range(len(raw)):
            if raw[i] < raw[j]:
                assert normalized[i] <= normalized[j]


def test_normalization_deterministic():
    scores = np.random.default_rng(7).uniform(size=20)
    a = min_max_normalize(ScoreLedger.from_scores(scores, step=0))
    b = min_max_normalize(ScoreLedger.from_scores(scores, step=0))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# score stream
# ---------------------------------------------------------------------------

def test_score_stream_round_trip():
    ledger = ScoreLedger(3, window=2)
    ledger.record(0, 1, 0.25)
    ledger.record(2, 1, 0.75)
    ledger.record(0, 2, 0.5)
    buf = io.StringIO()
    write_score_stream(ledger, buf)
    loaded = load_score_stream(io.StringIO(buf.getvalue()), 3, window=2)
    assert loaded.history(0) == [(1, 0.25), (2, 0.5)]
    assert loaded.history(2) == [(1, 0.75)]
    assert loaded.current.tolist() == ledger.current.tolist()


_N = 3
_IDS = st.sampled_from([0, 1, 2, 0, 1, 2, -1, _N])  # mostly in range
_SCORES = st.sampled_from([0.0, 0.25, 0.5, 1.25, 2.0, 3.0, -1.0, math.nan, math.inf])


@st.composite
def _record_calls(draw):
    """[(ids, step, scores, replace, scalar)] on a clock that mostly moves forward.

    Ids may repeat or leave [0, _N); steps may go back or be negative; a
    batch may carry one step per id.
    """
    calls, clock = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        clock = max(clock + draw(st.integers(min_value=-2, max_value=3)), -1)
        size = draw(st.integers(min_value=1, max_value=3))
        ids = draw(st.lists(_IDS, min_size=size, max_size=size))
        per_id = draw(st.booleans())
        lags = st.integers(min_value=0, max_value=2)
        step = [max(clock - draw(lags), -1) for _ in ids] if per_id else clock
        scores = draw(st.lists(_SCORES, min_size=size, max_size=size))
        scalar = size == 1 and not per_id and draw(st.booleans())
        calls.append((ids, step, scores, draw(st.booleans()), scalar))
    return calls


def _reference_record(ref, window, ids, step, scores, replace):
    """Apply one call to per-sample (steps, scores) lists; returns the error it must raise."""
    steps = step if isinstance(step, list) else [step] * len(ids)
    if (len(set(ids)) < len(ids) or not all(0 <= i < _N for i in ids) or min(steps) < 0
            or not all(math.isfinite(v) and v >= 0.0 for v in scores)):
        return DomainError
    for i, t in zip(ids, steps):
        if ref[i][0] and (t < ref[i][0][-1] or (t == ref[i][0][-1] and not replace)):
            return OrderingError
    for i, t, v in zip(ids, steps, scores):
        row_steps, row_scores = ref[i]
        if row_steps and t == row_steps[-1]:
            row_scores[-1] = v
            continue
        row_steps.append(t)
        row_scores.append(v)
        del row_steps[:-window], row_scores[:-window]
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4), _record_calls())
def test_ledger_matches_list_reference(window, calls):
    ledger = ScoreLedger(_N, window=window)
    ref = [([], []) for _ in range(_N)]
    for ids, step, scores, replace, scalar in calls:
        expected = _reference_record(ref, window, ids, step, scores, replace)
        args = (ids[0], step, scores[0]) if scalar else (ids, step, scores)
        if expected is None:
            ledger.record(*args, replace=replace)
        else:
            with pytest.raises(expected) as caught:
                ledger.record(*args, replace=replace)
            assert type(caught.value) is expected
        for i, (row_steps, row_scores) in enumerate(ref):
            assert ledger.history(i) == list(zip(row_steps, row_scores))
            assert ledger.current[i] == (row_scores[-1] if row_scores else 0.0)
            assert ledger.steps[i, -1] == (row_steps[-1] if row_steps else -1)
            for t in range(-1, max(row_steps, default=0) + 2):
                if t in row_steps:
                    assert ledger.score_at(i, t) == row_scores[row_steps.index(t)]
                else:
                    with pytest.raises(DomainError):
                        ledger.score_at(i, t)
    buf = io.StringIO()
    write_score_stream(ledger, buf)
    loaded = load_score_stream(io.StringIO(buf.getvalue()), _N, window=window)
    assert [loaded.history(i) for i in range(_N)] == [ledger.history(i) for i in range(_N)]


def test_score_stream_malformed_line():
    with pytest.raises(FormatError, match="line 2"):
        load_score_stream(io.StringIO('{"id": 0, "step": 1, "score": 1.0}\n{"id": 0}\n'), 1)


def test_score_stream_not_utf8_is_format_error(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(b'{"id": 0, "step": 1, "score": 1.0}\n\xff\n')
    with pytest.raises(FormatError, match="scores.jsonl is not UTF-8"):
        load_score_stream(path, 1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), window=st.integers(1, 5), data=st.data())
def test_score_stream_equals_json_dumps_reference(n, window, data):
    # rows hold 0..window+2 entries, so some keep empty slots and some are full
    ledger = ScoreLedger(n, window=window)
    for i in range(n):
        steps = sorted(data.draw(st.sets(st.integers(0, 2**40), max_size=window + 2)))
        for step in steps:
            score = data.draw(st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([5e-324, 0.1]))
            ledger.record(i, step, score)
    buf = io.StringIO()
    write_score_stream(ledger, buf)
    assert buf.getvalue() == score_stream_reference(ledger)
    loaded = load_score_stream(io.StringIO(buf.getvalue()), n, window=window)
    assert np.array_equal(loaded.steps, ledger.steps)
    assert np.array_equal(loaded.scores, ledger.scores)


_LINES = [json.dumps({"id": i, "step": 1, "score": 0.5 * i}) for i in range(4)]


@pytest.mark.parametrize("text", [
    "\n".join(_LINES[:2] + ['{"id": 2, "step": 1, "score": }'] + _LINES[3:]),  # bad JSON, line 3
    "\n".join(_LINES[:1] + ['{"id": 1, "score": 0.5}'] + _LINES[2:]),  # missing key
    "\n".join(_LINES[:2] + ['{"id": "two", "step": 1, "score": 1.0}']),  # non-numeric id
    "\n\n  \n" + "\n\n".join(_LINES[:2] + ["{oops}"]) + "\n\n",  # blank lines
    "\n".join(_LINES[:1] + ["[1, 2, 3]"] + _LINES[1:]),  # non-object lines
    "\n".join(_LINES[:1] + ["7"]),
    "\n".join(_LINES[:1] + ['"id"']),
    "\n".join(_LINES[:1] + ["null"]),
])
def test_score_stream_errors_equal_per_line_reference(text):
    with pytest.raises(FormatError) as want:
        score_lines_reference(text)
    with pytest.raises(FormatError) as got:
        load_score_stream(io.StringIO(text), 4)
    assert str(got.value) == str(want.value)


def test_score_stream_accepts_extra_keys_and_blank_lines():
    text = "\n  \n" + _LINES[0] + '\n{"id": 1, "step": 2, "score": 3, "note": [1, {"a": null}]}\n\n'
    ledger = load_score_stream(io.StringIO(text), 2)
    assert [ledger.history(i) for i in range(2)] == [[(1, 0.0)], [(2, 3.0)]]
    assert score_lines_reference(text) == [(0, 1, 0.0), (1, 2, 3.0)]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), window=st.integers(1, 3),
       entries=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 6),
                                  st.sampled_from([0.0, 0.5, 2.0, -1.0, math.inf, math.nan])),
                        max_size=12))
def test_score_stream_content_errors_equal_line_by_line_replay(n, window, entries):
    # the ledger a record call per line builds, or a FormatError naming the line
    # at which that replay stops, with the ledger's message
    text = "".join(json.dumps({"id": i, "step": t, "score": v}) + "\n" for i, t, v in entries)
    ref = ScoreLedger(n, window=window)
    for lineno, (i, t, v) in enumerate(entries, start=1):
        try:
            ref.record(i, t, v)
        except (DomainError, OrderingError) as exc:
            with pytest.raises(FormatError) as got:
                load_score_stream(io.StringIO(text), n, window=window)
            assert str(got.value) == f"score stream line {lineno}: {exc}"
            return
    loaded = load_score_stream(io.StringIO(text), n, window=window)
    assert np.array_equal(loaded.steps, ref.steps)
    assert np.array_equal(loaded.scores, ref.scores)


@pytest.mark.parametrize("line", [
    '{"id": 99999999999999999999, "step": 1, "score": 1.0}',
    '{"id": -9223372036854775809, "step": 1, "score": 1.0}',
    '{"id": 1, "step": 9223372036854775808, "score": 1.0}',
    '{"id": 1, "step": 1, "score": ' + "9" * 400 + "}",
    '{"id": Infinity, "step": 1, "score": 1.0}',
], ids=["id-big", "id-small", "step-big", "score-big", "id-inf"])
def test_score_stream_rejects_values_outside_int64_or_float(line):
    with pytest.raises(FormatError, match="line 3"):
        load_score_stream(io.StringIO(_LINES[0] + "\n\n" + line + "\n" + _LINES[2]), 4)


@pytest.mark.parametrize("line", [
    '{"id": 1.5, "step": 1, "score": 1.0}',
    '{"id": 1.0, "step": 1, "score": 1.0}',
    '{"id": true, "step": 1, "score": 1.0}',
    '{"id": "1", "step": 1, "score": 1.0}',
    '{"id": 1, "step": 2.9, "score": 1.0}',
    '{"id": 1, "step": false, "score": 1.0}',
    '{"id": 1, "step": 1, "score": true}',
    '{"id": 1, "step": 1, "score": "0.5"}',
    '{"id": 1, "step": 1, "score": null}',
], ids=["id-fraction", "id-float", "id-true", "id-string", "step-fraction", "step-false",
        "score-true", "score-string", "score-null"])
def test_score_stream_rejects_values_it_would_truncate(line):
    # ids and steps are JSON integers and scores JSON numbers, none of them true or false
    text = _LINES[0] + "\n\n" + line + "\n" + _LINES[2]
    with pytest.raises(FormatError, match="line 3 is malformed: id and step must be integers"):
        load_score_stream(io.StringIO(text), 4)
    with pytest.raises(FormatError) as want:
        score_lines_reference(text)
    assert "line 3" in str(want.value)


# ---------------------------------------------------------------------------
# SelectionConfig
# ---------------------------------------------------------------------------

def _cfg(**overrides):
    base = dict(budget_b=4, n_s=8, budget_eta=0.1)
    base.update(overrides)
    return SelectionConfig(**base)


def test_config_accepts_defaults():
    cfg = _cfg()
    assert cfg.lambda_c == 0.99
    assert cfg.beta_const_c == 10.0


@pytest.mark.parametrize(
    "overrides,key",
    [
        (dict(lambda_blend=1.5), "lambda_blend"),
        (dict(budget_eta=0.0), "budget_eta"),
        (dict(budget_b=0), "budget_b"),
        (dict(n_s=2), "n_s"),
        (dict(delta=-1.0), "delta"),
        (dict(delta_h=-0.5), "delta_h"),
        (dict(t_c=0), "t_c"),
        (dict(k=0), "k"),
        (dict(k_recal=0), "k_recal"),
        (dict(beta_const_c=2.0), "beta_const_c"),
        (dict(gamma_temp=-0.1), "gamma_temp"),
        (dict(beta_aff=-0.1), "beta_aff"),
        (dict(lambda_c=1.0), "lambda_c"),
        (dict(n_s_check=0), "n_s_check"),
        (dict(seed=-1), "seed"),
        (dict(beta_const_c=math.inf), "beta_const_c"),
        (dict(q_exp=math.nan), "q_exp"),
        (dict(q_exp=-math.inf), "q_exp"),
        (dict(r_exp=math.inf), "r_exp"),
    ],
)
def test_config_bounds_name_offending_key(overrides, key):
    with pytest.raises(ConfigError, match=key):
        _cfg(**overrides)


@pytest.mark.parametrize("overrides,message", [
    (dict(budget_b=4.5), "'budget_b' must be an integer, got 4.5"),
    (dict(budget_b=True), "'budget_b' must be an integer, got True"),
    (dict(n_s=np.float64(8.0)), "'n_s' must be an integer"),
    (dict(budget_eta="0.1"), "'budget_eta' must be a number, got '0.1'"),
    (dict(delta=False), "'delta' must be a number, got False"),
    (dict(seed=None), "'seed' must be an integer, got None"),
    (dict(normalize_warp=1), "'normalize_warp' must be true or false, got 1"),
])
def test_config_rejects_field_of_wrong_type(overrides, message):
    # the same typed check as the JSON config path
    with pytest.raises(ConfigError, match=f"config key {message}"):
        _cfg(**overrides)


def test_config_accepts_numpy_integers_and_any_real_number():
    cfg = _cfg(budget_b=np.int64(4), n_s=np.int32(8), budget_eta=np.float32(0.5), delta=1,
               lambda_c=np.float64(0.5), normalize_warp=np.bool_(False))
    assert cfg.budget_b == 4 and cfg.delta == 1


def test_config_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="warp_factor"):
        SelectionConfig.from_dict(dict(budget_b=4, n_s=8, budget_eta=0.1, warp_factor=2))


def test_config_from_dict_requires_core_keys():
    with pytest.raises(ConfigError, match="budget_b"):
        SelectionConfig.from_dict(dict(n_s=8, budget_eta=0.1))


def test_config_dataset_checks():
    cfg = _cfg(k=10)
    with pytest.raises(ConfigError, match="'k'"):
        cfg.validate_for_dataset(10)
    with pytest.raises(ConfigError, match="n_s"):
        _cfg(n_s=200).validate_for_dataset(100)
