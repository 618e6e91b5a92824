"""Command-line behavior: formats, exit codes, determinism, atomicity."""

import json
import math
import os
import stat
import struct
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from coresel import cli, orchestrator, selector
from coresel.cli import main
from coresel.simulator import SimState
from coresel.orchestrator import default_warmup
from coresel.store import EMBEDDING_MAGIC, EmbeddingTable, write_embeddings


@pytest.fixture
def emb_file(tmp_path, rng):
    path = tmp_path / "emb.bin"
    write_embeddings(EmbeddingTable(rng.normal(size=(100, 8))), path)
    return str(path)


@pytest.fixture
def scores_file(tmp_path, rng):
    path = tmp_path / "scores.jsonl"
    with open(path, "w") as fh:
        for i in range(100):
            fh.write(json.dumps({"id": i, "step": 1, "score": float(rng.uniform(0.1, 2.0))}) + "\n")
    return str(path)


def run_config(tmp_path, **overrides):
    doc = {
        "selection": {
            "budget_b": 16, "n_s": 64, "budget_eta": 0.1, "t_c": 10, "k": 5,
            "k_recal": 8, "n_s_check": 8, "delta": 0.05, "delta_h": 0.02, "seed": 3,
        },
        "run": {"strategy": "adaptive", "total_steps": 40, "warmup_steps": 10},
        "simulator": {"n": 120, "dim": 6, "classes": 3, "cluster_spread": 1.0,
                      "learning_rate": 0.2, "drift_rate": 0.02},
    }
    for section, block in overrides.items():
        doc.setdefault(section, {}).update(block)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# build-graph
# ---------------------------------------------------------------------------

def test_build_graph_writes_jsonl(tmp_path, emb_file, capsys):
    out = str(tmp_path / "graph.jsonl")
    code = main(["build-graph", "--embeddings", emb_file, "--k", "5", "--out", out])
    assert code == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 100
    summary = capsys.readouterr().err
    assert "n=100" in summary and "k=5" in summary and "edges=" in summary


def test_build_graph_k_too_large(tmp_path, emb_file, capsys):
    out = str(tmp_path / "graph.jsonl")
    code = main(["build-graph", "--embeddings", emb_file, "--k", "100", "--out", out])
    assert code == 2
    assert "k must be < n" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_build_graph_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    code = main(["build-graph", "--embeddings", missing, "--k", "5",
                 "--out", str(tmp_path / "g.jsonl")])
    assert code == 3
    assert "nope.bin" in capsys.readouterr().err


def test_build_graph_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not an embedding file")
    code = main(["build-graph", "--embeddings", str(bad), "--k", "5",
                 "--out", str(tmp_path / "g.jsonl")])
    assert code == 3


@pytest.mark.parametrize("n, d", [(2**64 - 1, 2**32 - 1), (2**22, 16)])
def test_build_graph_payload_larger_than_file(tmp_path, capsys, n, d):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(struct.pack("<4sIQI", EMBEDDING_MAGIC, 1, n, d) + b"\x00" * 64)
    code = main(["build-graph", "--embeddings", str(bad), "--k", "5",
                 "--out", str(tmp_path / "g.jsonl")])
    assert code == 3
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-graph", "select"])
def test_embedding_file_longer_than_its_header_is_format_error(tmp_path, emb_file, scores_file,
                                                                capsys, command):
    # 100 rows under a header that declares 50: the other 50 must not be dropped silently
    longer = tmp_path / "longer.bin"
    data = bytearray(Path(emb_file).read_bytes())
    data[:struct.calcsize("<4sIQI")] = struct.pack("<4sIQI", EMBEDDING_MAGIC, 1, 50, 8)
    longer.write_bytes(data)
    out = tmp_path / "out.json"
    argv = {"build-graph": ["build-graph", "--embeddings", str(longer), "--k", "5"],
            "select": ["select", "--embeddings", str(longer), "--scores", scores_file,
                       "--budget", "4", "--eta", "0.1"]}[command]
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n=50, d=8 (1600 bytes), and more bytes follow" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_emits_event(tmp_path, emb_file, scores_file):
    out = str(tmp_path / "coreset.json")
    code = main(["select", "--embeddings", emb_file, "--scores", scores_file,
                 "--budget", "10", "--eta", "0.1", "--out", out])
    assert code == 0
    event = json.loads(open(out).read())
    assert set(event) == {"step", "members", "objective", "gains"}
    assert len(event["members"]) == 10
    assert event["step"] == 1


def test_select_to_stdout(emb_file, scores_file, capsys):
    code = main(["select", "--embeddings", emb_file, "--scores", scores_file,
                 "--budget", "5", "--eta", "0.2"])
    assert code == 0
    event = json.loads(capsys.readouterr().out)
    assert len(event["members"]) == 5


def test_select_rejects_negative_step(tmp_path, emb_file, capsys):
    # step -1 marks an empty ledger slot, so a stream may not use it
    path = tmp_path / "neg.jsonl"
    path.write_text(json.dumps({"id": 0, "step": -1, "score": 1.0}) + "\n")
    code = main(["select", "--embeddings", emb_file, "--scores", str(path),
                 "--budget", "5", "--eta", "0.2"])
    assert code == 3
    assert "line 1: step" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '{"id": 40, "step": 1, "score": 1.0}',
    '{"id": 3, "step": 9, "score": -1.0}',
    '{"id": 3, "step": 2, "score": 1.0}',  # step 5 is already recorded
    '{"id": 3, "step": -1, "score": 1.0}',
    '{"id": 3, "step": 9, "score": 1e999}',
], ids=["id-out-of-range", "score-negative", "step-back", "step-negative", "score-infinite"])
def test_select_stream_content_error_is_format_error_naming_the_line(tmp_path, capsys, line):
    emb, scores, out = (str(tmp_path / name) for name in ("emb.bin", "scores.jsonl", "c.json"))
    assert main(["simulate", "--n", "40", "--dim", "4", "--classes", "3", "--steps", "5",
                 "--out-embeddings", emb, "--out-scores", scores]) == 0
    with open(scores, "a") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert main(["select", "--embeddings", emb, "--scores", scores, "--budget", "5",
                 "--eta", "0.1", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: score stream line 41: ") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("entry", [{"id": 10**20, "step": 1, "score": 1.0},
                                   {"id": 0, "step": 2**63, "score": 1.0}])
def test_select_rejects_id_or_step_outside_int64(tmp_path, emb_file, entry, capsys):
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps({"id": 1, "step": 1, "score": 1.0}) + "\n" + json.dumps(entry) + "\n")
    code = main(["select", "--embeddings", emb_file, "--scores", str(path),
                 "--budget", "5", "--eta", "0.2"])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ['{"id": 1.5, "step": 1, "score": 1.0}',
                                   '{"id": true, "step": 2.9, "score": 1.0}',
                                   '{"id": 0, "step": 1, "score": true}'])
def test_select_rejects_truncated_or_boolean_stream_values(tmp_path, emb_file, entry, capsys):
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps({"id": 1, "step": 1, "score": 1.0}) + "\n" + entry + "\n")
    code = main(["select", "--embeddings", emb_file, "--scores", str(path),
                 "--budget", "5", "--eta", "0.2"])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_select_blend_and_temperature_default_to_selection_config(emb_file, scores_file, capsys):
    argv = ["select", "--embeddings", emb_file, "--scores", scores_file,
            "--budget", "5", "--eta", "0.1"]
    assert main(argv) == 0
    bare = capsys.readouterr().out
    assert main(argv + ["--lambda-blend", "0.6", "--gamma", "1.0"]) == 0
    assert capsys.readouterr().out == bare
    assert main(argv + ["--lambda-blend", "0.3"]) == 0
    assert capsys.readouterr().out != bare


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_fixture_files(tmp_path):
    emb_out = str(tmp_path / "sim_emb.bin")
    score_out = str(tmp_path / "sim_scores.jsonl")
    code = main(["simulate", "--n", "80", "--dim", "6", "--classes", "4",
                 "--steps", "30", "--seed", "7",
                 "--out-embeddings", emb_out, "--out-scores", score_out])
    assert code == 0
    from coresel.store import ingest_embeddings, load_score_stream

    table = ingest_embeddings(emb_out)
    assert table.n == 80 and table.d == 4
    ledger = load_score_stream(score_out, 80)
    assert (ledger.steps[:, -1] == 30).all()


def test_simulate_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        emb_out = tmp_path / f"emb_{tag}.bin"
        score_out = tmp_path / f"scores_{tag}.jsonl"
        assert main(["simulate", "--n", "50", "--dim", "5", "--classes", "3",
                     "--steps", "20", "--seed", "9",
                     "--out-embeddings", str(emb_out),
                     "--out-scores", str(score_out)]) == 0
        outs.append((emb_out.read_bytes(), score_out.read_text()))
    assert outs[0] == outs[1]


def _simulate(out_dir, *flags, steps="15"):
    out_dir.mkdir()
    return main(["simulate", "--n", "60", "--dim", "5", "--classes", "3", "--steps", steps,
                 "--seed", "4", *flags, "--out-embeddings", str(out_dir / "emb.bin"),
                 "--out-scores", str(out_dir / "scores.jsonl")])


def test_simulate_optional_flags_default_to_simstate_create(tmp_path):
    defaults = {"--cluster-spread": "1.0", "--learning-rate": "0.1", "--drift-rate": "0.0"}
    assert _simulate(tmp_path / "bare") == 0
    bare = _contents(tmp_path / "bare")
    explicit = [arg for flag in defaults.items() for arg in flag]
    assert _simulate(tmp_path / "explicit", *explicit) == 0
    assert _contents(tmp_path / "explicit") == bare
    for flag in defaults:  # each flag reaches the simulator
        assert _simulate(tmp_path / flag, flag, "0.05") == 0
        assert _contents(tmp_path / flag) != bare


def test_simulate_value_beyond_float32_is_data_error(tmp_path, capsys):
    # logits beyond float32's range would be written as infinities that build-graph rejects
    out_dir = tmp_path / "out"
    assert _simulate(out_dir, "--cluster-spread", "1e30", steps="2") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "row 0, col 0 is beyond float32's range" in err
    assert list(out_dir.iterdir()) == []


def test_simulate_rejects_negative_steps(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert _simulate(out_dir, steps="-3") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--steps" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("via", ["simulate", "run"])
@pytest.mark.parametrize("key, value", [
    ("learning_rate", math.inf), ("learning_rate", math.nan), ("cluster_spread", math.nan),
    ("cluster_spread", math.inf), ("cluster_spread", -1.0), ("drift_rate", math.nan),
    ("drift_rate", -math.inf),
])
def test_bad_simulator_parameter_is_usage_error(tmp_path, capsys, via, key, value):
    # rejected before any data is drawn: no numpy warning, no file, one line naming it
    err = _simulator_usage_error(tmp_path, capsys, via, key, value, steps=2)
    name = "drift" if key == "drift_rate" else key  # SimState.create's name for it
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize("via", ["simulate", "run"])
@pytest.mark.parametrize("key", ["drift_rate", "learning_rate", "cluster_spread"])
def test_huge_simulator_parameter_is_usage_error(tmp_path, capsys, via, key):
    # finite, but the training arithmetic overflows: numpy raises instead of warning, and
    # the one line names the step and the parameters to lower
    err = _simulator_usage_error(tmp_path, capsys, via, key, 1e308, steps=5)
    assert "error: simulator arithmetic failed at step " in err
    assert "lower cluster_spread, learning_rate or the drift rate" in err


def _simulator_usage_error(tmp_path, capsys, via, key, value, steps):
    """Exit 2 from ``simulate`` or ``run`` with one simulator parameter set, with no
    warning and no file; returns the one line of stderr."""
    out_dir = tmp_path / "out"
    if via == "simulate":
        argv = ["simulate", "--n", "40", "--dim", "4", "--classes", "3", "--steps", str(steps),
                f"--{key.replace('_', '-')}={value}", "--out-embeddings", str(out_dir / "emb.bin"),
                "--out-scores", str(out_dir / "scores.jsonl")]
        out_dir.mkdir()
    else:
        argv = ["run", "--config", run_config(tmp_path, simulator={key: value}),
                "--out-dir", str(out_dir)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert not out_dir.exists() or list(out_dir.iterdir()) == []
    return err


@pytest.mark.parametrize("command", ["simulate", "run", "check"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # numpy takes no negative seed: one error line naming the key, no traceback, no file
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {
        "simulate": ["simulate", "--n", "40", "--dim", "4", "--classes", "3", "--steps", "2",
                     "--seed", "-1", "--out-embeddings", str(out_dir / "a.bin"),
                     "--out-scores", str(out_dir / "a.jsonl")],
        "run": ["run", "--config", run_config(tmp_path, selection={"seed": -1}),
                "--out-dir", str(out_dir)],
        "check": ["check", "--config", run_config(tmp_path, selection={"seed": -1}),
                  "--out", str(out_dir / "events.jsonl")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed" in err and "must be >= 0, got -1" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("key,value,names", [
    ("beta_const_c", 1e308, "beta_const_c, q_exp and r_exp"),  # lgamma overflows
    ("r_exp", -1e308, "beta_const_c, q_exp and r_exp"),  # a power overflows
    ("q_exp", -1e308, "beta_const_c, q_exp and r_exp"),
    ("q_exp", math.nan, "'q_exp' must be finite"),
    ("beta_const_c", math.inf, "'beta_const_c' must be finite"),
    ("r_exp", math.inf, "'r_exp' must be finite"),
], ids=["beta_const_c-huge", "r_exp-huge", "q_exp-huge", "q_exp-nan", "beta_const_c-inf",
        "r_exp-inf"])
def test_bad_warp_parameter_is_usage_error(tmp_path, capsys, command, key, value, names):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {"run": ["run", "--out-dir", str(out_dir)],
            "check": ["check", "--out", str(out_dir / "events.jsonl")]}[command]
    assert main([*argv, "--config", run_config(tmp_path, selection={key: value})]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and names in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("scores", ["x", "./x", "sub/../x"])
def test_output_paths_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, scores):
    # the scores would overwrite the embeddings: refused before any temp file exists, and a
    # file already there is left as it was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "x").write_bytes(b"earlier")
    assert main(["simulate", "--n", "40", "--dim", "4", "--classes", "3", "--steps", "2",
                 "--out-embeddings", "x", "--out-scores", scores]) == 2
    assert capsys.readouterr().err == f"error: output paths x and {scores} name the same file\n"
    assert (tmp_path / "x").read_bytes() == b"earlier"
    assert list(tmp_path.rglob(".tmp-*")) == []


def test_write_into_missing_directory_names_the_given_path(tmp_path, capsys):
    emb = tmp_path / "emb.bin"
    scores = str(tmp_path / "missing" / "s.jsonl")
    assert main(["simulate", "--n", "20", "--dim", "2", "--classes", "2", "--steps", "2",
                 "--out-embeddings", str(emb), "--out-scores", scores]) == 3
    assert capsys.readouterr().err == f"error: file not found: {scores}\n"
    assert not emb.exists()


# ---------------------------------------------------------------------------
# run / check / report
# ---------------------------------------------------------------------------

def test_run_minimal_config(tmp_path):
    cfg = run_config(tmp_path)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out-dir", out_dir]) == 0
    report = json.loads(open(os.path.join(out_dir, "report.json")).read())
    assert report["strategy"] == "adaptive"
    assert report["total_steps"] == 40
    assert "stage_seconds" not in report
    events = open(os.path.join(out_dir, "events.jsonl")).read().strip().split("\n")
    assert len(events) == 3  # three full intervals
    selections = open(os.path.join(out_dir, "selections.jsonl")).read().strip().split("\n")
    assert len(selections) == 3


def test_run_simulator_block_defaults_come_from_simstate_create(tmp_path):
    explicit = run_config(tmp_path, simulator={"cluster_spread": 1.0, "learning_rate": 0.1,
                                               "drift_rate": 0.0})
    doc = json.loads(open(explicit).read())
    for key in ("cluster_spread", "learning_rate", "drift_rate"):
        del doc["simulator"][key]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    outs = []
    for tag, cfg in (("explicit-out", explicit), ("bare-out", str(bare))):
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / tag)]) == 0
        outs.append(_contents(tmp_path / tag))
    assert sorted(outs[0]) == ["events.jsonl", "report.json", "selections.jsonl"]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("case", ["warm-up 0", "learning rate 0", "simulate --steps 0"])
def test_untrained_or_frozen_embeddings_are_selected_from(tmp_path, case):
    # an untrained or frozen simulator embeds every sample as zeros; the selector
    # takes a zero row as covering nothing instead of refusing it
    out = tmp_path / "out"
    if case == "simulate --steps 0":
        assert _simulate(out, steps="0") == 0
        argv = ["select", "--embeddings", str(out / "emb.bin"), "--scores",
                str(out / "scores.jsonl"), "--budget", "8", "--eta", "0.1",
                "--out", str(out / "coreset.json")]
        files = ["coreset.json", "emb.bin", "scores.jsonl"]
    else:
        frozen = case == "learning rate 0"
        cfg = run_config(tmp_path, run={"warmup_steps": 5 if frozen else 0},
                         simulator={"n": 200, **({"learning_rate": 0.0} if frozen else {})})
        argv = ["run", "--config", cfg, "--out-dir", str(out)]
        files = ["events.jsonl", "report.json", "selections.jsonl"]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == files
    if case == "simulate --steps 0":
        assert len(json.loads((out / "coreset.json").read_text())["members"]) == 8
    else:
        assert len((out / "selections.jsonl").read_text().splitlines()) == 4


def test_run_rejects_bad_lambda(tmp_path, capsys):
    cfg = run_config(tmp_path, selection={"lambda_blend": 1.5})
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "lambda_blend" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = run_config(tmp_path, selection={"lambda_typo": 0.3})
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "lambda_typo" in capsys.readouterr().err


def test_run_rejects_history_cap_key(tmp_path, capsys):
    # the ledger window is t_c + 1, not a config key
    cfg = run_config(tmp_path, selection={"history_cap": 5})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "history_cap" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, kind", [
    ("budget_b", "4", "an integer"), ("budget_b", 4.5, "an integer"),
    ("budget_b", True, "an integer"), ("n_s", None, "an integer"),
    ("seed", 1.5, "an integer"), ("budget_eta", "0.1", "a number"),
    ("delta", False, "a number"), ("normalize_warp", 1, "true or false"),
])
def test_run_rejects_selection_value_of_wrong_type(tmp_path, capsys, key, value, kind):
    cfg = run_config(tmp_path, selection={key: value})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key '{key}' must be {kind}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, kind", [
    ("total_steps", "abc", "an integer"), ("total_steps", None, "an integer"),
    ("total_steps", 40.0, "an integer"), ("total_steps", True, "an integer"),
    ("warmup_steps", "10", "an integer"), ("warmup_steps", None, "an integer"),
    ("strategy", 3, "a string"),
])
def test_run_rejects_run_value_of_wrong_type(tmp_path, capsys, key, value, kind):
    cfg = run_config(tmp_path, run={key: value})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key '{key}' must be {kind}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, kind", [
    ("n", "sixty", "an integer"), ("n", 120.0, "an integer"), ("dim", True, "an integer"),
    ("classes", None, "an integer"), ("cluster_spread", "1.0", "a number"),
    ("learning_rate", True, "a number"), ("drift_rate", None, "a number"),
])
def test_run_rejects_simulator_value_of_wrong_type(tmp_path, capsys, key, value, kind):
    cfg = run_config(tmp_path, simulator={key: value})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key '{key}' must be {kind}" in capsys.readouterr().err


def test_run_rejects_unknown_strategy(tmp_path, capsys):
    cfg = run_config(tmp_path, run={"strategy": "sorted-by-vibes"})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2


def test_run_byte_identical_outputs(tmp_path):
    cfg = run_config(tmp_path)
    contents = []
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
        contents.append({
            name: (out_dir / name).read_bytes()
            for name in ("report.json", "events.jsonl", "selections.jsonl")
        })
    assert contents[0] == contents[1]


def test_run_baseline_strategy(tmp_path):
    cfg = run_config(tmp_path, run={"strategy": "random-static"})
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out-dir", out_dir]) == 0
    report = json.loads(open(os.path.join(out_dir, "report.json")).read())
    assert report["strategy"] == "random-static"
    assert open(os.path.join(out_dir, "events.jsonl")).read() == ""


def test_check_emits_single_event(tmp_path, capsys):
    cfg = run_config(tmp_path)
    assert main(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 1
    event = json.loads(out[0])
    assert set(event) == {"step", "delta_I", "triggered", "recal", "delta_H",
                          "graph_repaired"}
    assert event["step"] == 20  # warmup 10 + one interval of t_c=10


def test_check_default_warmup_comes_from_orchestrator(tmp_path, capsys):
    doc = json.loads(open(run_config(tmp_path)).read())
    del doc["run"]["warmup_steps"]
    cfg = tmp_path / "no_warmup.json"
    cfg.write_text(json.dumps(doc))
    assert main(["check", "--config", str(cfg)]) == 0
    event = json.loads(capsys.readouterr().out)
    assert event["step"] == default_warmup(40) + 10


def test_report_renders_csv(tmp_path):
    cfg = run_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    csv_out = tmp_path / "losses.csv"
    assert main(["report", "--report", str(out_dir / "report.json"),
                 "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "step,loss"
    assert len(lines) == 41  # header + one row per training step
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == list(range(1, 41))


@pytest.mark.parametrize("doc, what", [
    ([1, 2], "JSON object"),
    ({"intervals": [{"x": 1}]}, "warmup_losses"),
    ({"warmup_losses": 5}, "warmup_losses"),
    ({"warmup_losses": [0.5], "intervals": [{"x": 1}]}, "start_step"),
    ({"warmup_losses": [], "intervals": [{"start_step": True, "losses": [0.5]}]}, "start_step"),
    ({"warmup_losses": [], "intervals": [{"start_step": 0, "losses": ["0.5"]}]}, "losses"),
    ({"warmup_losses": [], "intervals": {"start_step": 0}}, "intervals"),
])
def test_report_rejects_malformed_document(tmp_path, capsys, doc, what):
    # a report that is valid JSON but not a report document is a format error
    # (exit 3, one stderr line, no output), not a traceback
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "losses.csv"
    assert main(["report", "--report", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and what in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check", "report", "select"])
def test_non_utf8_input_is_format_error(tmp_path, emb_file, capsys, command):
    # a config, report or score stream that is not UTF-8: exit 3 with one line, no output
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\n" if command == "select" else b"\xff\xfe{}")
    out = tmp_path / "out"
    assert main({
        "run": ["run", "--config", str(bad), "--out-dir", str(out)],
        "check": ["check", "--config", str(bad), "--out", str(out)],
        "report": ["report", "--report", str(bad), "--out", str(out)],
        "select": ["select", "--embeddings", emb_file, "--scores", str(bad),
                   "--budget", "5", "--eta", "0.1", "--out", str(out)],
    }[command]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "bad.json is not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize("strategy, stages", [
    ("adaptive", "warmup extract graph select train check"),
    ("random-static", "warmup select train"),
    ("random-fixed-interval", "warmup select train"),
    ("full-data", "warmup select train"),
])
def test_run_prints_stage_seconds_in_order(tmp_path, capsys, strategy, stages):
    cfg = run_config(tmp_path, run={"strategy": strategy})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    head, loss, *timings = capsys.readouterr().err.split()
    assert head == f"strategy={strategy}" and loss.startswith("final_loss=")
    assert [t.partition("=")[0] for t in timings] == stages.split()
    assert all(t.endswith("s") and float(t.partition("=")[2][:-1]) >= 0.0 for t in timings)


def test_graph_seconds_are_not_counted_as_check(tmp_path, capsys, monkeypatch):
    # the first triggered check builds the graph; the build's seconds go to graph only
    pause = 0.3
    build = orchestrator.build_graph

    def slow(*args, **kwargs):
        time.sleep(pause)
        return build(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "build_graph", slow)
    cfg = run_config(tmp_path, selection={"delta": 0.0})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    _, _, *timings = capsys.readouterr().err.split()
    seconds = {key: float(value[:-1]) for key, _, value in (t.partition("=") for t in timings)}
    assert list(seconds) == ["warmup", "extract", "graph", "select", "train", "check"]
    assert seconds["graph"] >= pause > seconds["check"]


def test_run_accepts_infinite_delta(tmp_path):
    # JSON Infinity literal: the check threshold that can never fire
    cfg = run_config(tmp_path, selection={"delta": float("inf")})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    events = [json.loads(l) for l in (out_dir / "events.jsonl").read_text().splitlines()]
    assert events and all(not e["triggered"] for e in events)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_run_writes_undefined_delta_as_null(tmp_path):
    # a zero current score makes delta_I undefined (+inf), which used to be
    # written as the bare token Infinity in every event and in report.json
    doc = {
        "selection": {"budget_b": 64, "n_s": 256, "budget_eta": 0.1, "delta": 0.05,
                      "t_c": 25, "k": 10, "k_recal": 32, "seed": 5},
        "run": {"strategy": "adaptive", "total_steps": 150, "warmup_steps": 50},
        "simulator": {"n": 500, "dim": 16, "classes": 5, "cluster_spread": 100,
                      "learning_rate": 50, "drift_rate": 0.02},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    events = [json.loads(line, parse_constant=_reject_constant)
              for line in (out_dir / "events.jsonl").read_text().splitlines()]
    report = json.loads((out_dir / "report.json").read_text(), parse_constant=_reject_constant)
    assert len(events) == 4 and all(e["delta_I"] is None and e["triggered"] for e in events)
    assert [rec["check"] for rec in report["intervals"]] == events
    for line in (out_dir / "selections.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=_reject_constant)


def test_select_out_of_memory_is_resource_error(emb_file, scores_file, monkeypatch, capsys):
    # the cosine matrix of a pool too large for memory: exit 4 with one line, no traceback
    class NoRoom(np.ndarray):
        def __matmul__(self, other):
            raise MemoryError("Unable to allocate 6.71 GiB for an array")

    unit_rows = selector._unit_rows
    monkeypatch.setattr(selector, "_unit_rows", lambda emb, ids: unit_rows(emb, ids).view(NoRoom))
    assert main(["select", "--embeddings", emb_file, "--scores", scores_file,
                 "--budget", "5", "--eta", "0.1"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "100 candidates" in err and f"{8 * 100 ** 2} bytes" in err


def test_other_out_of_memory_exits_4(tmp_path, emb_file, monkeypatch, capsys):
    def no_room(emb, k):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(cli, "build_graph", no_room)
    out = tmp_path / "graph.jsonl"
    assert main(["build-graph", "--embeddings", emb_file, "--k", "5", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 GiB for an array\n"
    assert not out.exists()


def test_select_raw_warp_flag(emb_file, scores_file, capsys):
    assert main(["select", "--embeddings", emb_file, "--scores", scores_file,
                 "--budget", "5", "--eta", "0.1", "--raw-warp"]) == 0
    raw_event = json.loads(capsys.readouterr().out)
    assert main(["select", "--embeddings", emb_file, "--scores", scores_file,
                 "--budget", "5", "--eta", "0.1"]) == 0
    norm_event = json.loads(capsys.readouterr().out)
    # warp normalization rescales the importance term, changing the objective
    assert raw_event["objective"] != norm_event["objective"]


def test_select_raw_warp_overflow_is_config_error(tmp_path, emb_file, scores_file, capsys):
    # exp overflows in the raw warp at a large gamma: exit 2 with one line, no output
    out = tmp_path / "coreset.json"
    assert main(["select", "--embeddings", emb_file, "--scores", scores_file, "--budget", "5",
                 "--eta", "0.1", "--raw-warp", "--gamma", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "gamma_temp" in err
    assert not out.exists()


def test_run_raw_warp_overflow_is_config_error(tmp_path, capsys):
    cfg = run_config(tmp_path, selection={"normalize_warp": False, "gamma_temp": 1000})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "gamma_temp" in err
    for name in ("report.json", "events.jsonl", "selections.jsonl"):
        assert not (out_dir / name).exists()


def test_run_overwrites_stale_outputs(tmp_path):
    cfg = run_config(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "report.json").write_text("stale")
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "report.json").read_text())["total_steps"] == 40


def test_no_partial_files_on_failure(tmp_path, emb_file):
    # unwritable output directory: the command fails but leaves nothing behind
    out = str(tmp_path / "missing-dir" / "graph.jsonl")
    code = main(["build-graph", "--embeddings", emb_file, "--k", "5", "--out", out])
    assert code == 3
    assert not os.path.exists(out)


@pytest.mark.parametrize("out", ["outdir", "."])
def test_directory_as_output_file_is_named(tmp_path, emb_file, capsys, monkeypatch, out):
    # the error names the path given, not a temp file, and no temp file is left behind
    cwd = tmp_path / "cwd"
    (cwd / "outdir").mkdir(parents=True)
    monkeypatch.chdir(cwd)
    code = main(["build-graph", "--embeddings", emb_file, "--k", "5", "--out", out])
    assert code == 3
    assert capsys.readouterr().err == f"error: expected a file: {out}\n"
    assert list(tmp_path.rglob(".tmp-*")) == []


def test_run_failing_provider_leaves_no_output_files(tmp_path, monkeypatch, capsys):
    # a provider that returns NaN rows fails the run as a data error before any write
    extract = SimState.extract_features

    def nan_rows(self, ids):
        rows, scores = extract(self, ids)
        return np.full_like(rows, np.nan), scores

    monkeypatch.setattr(SimState, "extract_features", nan_rows)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", run_config(tmp_path), "--out-dir", str(out_dir)]) == 3
    assert "error:" in capsys.readouterr().err
    for name in ("report.json", "events.jsonl", "selections.jsonl"):
        assert not (out_dir / name).exists()


@pytest.mark.parametrize("umask", [0o022, 0o077])
@pytest.mark.parametrize("command", ["simulate", "build-graph", "run"])
def test_output_files_get_the_mode_open_would_give(tmp_path, emb_file, monkeypatch, command,
                                                   umask):
    # a new file gets 0o666 less the umask, and a replaced file keeps its own mode; the
    # umask is process-wide, so the CLI leaves it to the kernel and never reads or sets it
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {
        "simulate": ["simulate", "--n", "40", "--dim", "4", "--classes", "3", "--steps", "2",
                     "--out-embeddings", str(out_dir / "emb.bin"),
                     "--out-scores", str(out_dir / "scores.jsonl")],
        "build-graph": ["build-graph", "--embeddings", emb_file, "--k", "5",
                        "--out", str(out_dir / "graph.jsonl")],
        "run": ["run", "--config", run_config(tmp_path, run={"total_steps": 20}),
                "--out-dir", str(out_dir)],
    }[command]

    def modes():
        return {p.name: stat.S_IMODE(p.stat().st_mode) for p in out_dir.iterdir()}

    def untouchable(mask):
        raise AssertionError("the CLI called os.umask")

    real_umask = os.umask
    saved = real_umask(umask)
    monkeypatch.setattr(os, "umask", untouchable)
    try:
        assert main(argv) == 0
        assert modes() and set(modes().values()) == {0o666 & ~umask}
        for p in out_dir.iterdir():
            p.chmod(0o640)
        assert main(argv) == 0
    finally:
        real_umask(saved)
    assert set(modes().values()) == {0o640}


def _contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize("earlier_run", [True, False])
def test_failed_rename_leaves_only_the_earlier_runs_files(tmp_path, monkeypatch, capsys,
                                                          command, earlier_run):
    # a command that writes several files must fail with all of them from the
    # earlier run, or none: never one new file next to the earlier run's others
    def argv(seed):
        if command == "run":
            cfg = run_config(tmp_path, selection={"seed": seed}, run={"total_steps": 20})
            return ["run", "--config", cfg, "--out-dir", str(out_dir)]
        return ["simulate", "--n", "40", "--dim", "4", "--classes", "3", "--steps", "2",
                "--seed", str(seed), "--out-embeddings", str(out_dir / "emb.bin"),
                "--out-scores", str(out_dir / "scores.jsonl")]

    replace = os.replace
    calls = []

    def counted(src, dst):
        calls.append(src)
        if len(calls) == fail_at:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", counted)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    fail_at = None
    if earlier_run:
        assert main(argv(1)) == 0
    before = _contents(out_dir)
    calls.clear()
    assert main(argv(2)) == 0
    renames = len(calls)
    assert renames >= (2 if command == "simulate" else 3)
    for name in _contents(out_dir):
        (out_dir / name).unlink()
    for name, data in before.items():
        (out_dir / name).write_bytes(data)
    for fail_at in range(1, renames + 1):
        calls.clear()
        assert main(argv(2)) == 3, fail_at
        assert "No space left on device" in capsys.readouterr().err
        assert _contents(out_dir) == before, fail_at


def test_unknown_flag_rejected(emb_file):
    with pytest.raises(SystemExit) as exc:
        main(["build-graph", "--embeddings", emb_file, "--k", "5",
              "--out", "x", "--frobnicate"])
    assert exc.value.code == 2
