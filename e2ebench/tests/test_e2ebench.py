"""Tests of the benchmark itself: smoke runs, gates on corrupted outputs, tracing."""

import json
import os
import shutil

import pytest

import gates
import run
import workloads
from spans import PER_LAYER, OVERHEAD_METRIC, Target, TARGETS, Tracer, layer_metrics

BENCHMARK_JSON = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")


def _produce(workload, work_dir, seed=5, tracer=None):
    """One tiny run in this process; returns its measurement record."""
    os.makedirs(work_dir)
    p = workloads.params(workload, seed)
    if tracer is None:
        return workloads.run_once(workload, p, work_dir)
    with tracer:
        return workloads.run_once(workload, p, work_dir)


def _rewrite_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_every_workload(tiny, tmp_path, monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_declared_metrics_match_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == (
        [name for name, *_ in PER_LAYER] + [OVERHEAD_METRIC[0]])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def offline_run(tiny, tmp_path):
    work_dir = str(tmp_path / "offline")
    _produce("offline-cli", work_dir)
    p = workloads.params("offline-cli", 5)
    assert gates.graph_gates(work_dir, p["k"]) == []
    assert gates.selection_gates(work_dir, p["budget"], p["eta"]) == []
    return work_dir, p


@pytest.fixture
def adaptive_run(tiny, tmp_path):
    work_dir = str(tmp_path / "drift")
    _produce("drift-repair", work_dir)
    p = workloads.params("drift-repair", 5)
    assert gates.adaptive_gates(work_dir, p) == []
    return work_dir, p


def _first_edge(records):
    return next((r["id"], r["nbrs"][0]) for r in records if r["nbrs"])


def test_graph_gate_catches_a_dropped_edge(offline_run):
    work_dir, p = offline_run

    def drop(records):
        i, j = _first_edge(records)
        for a, b in ((i, j), (j, i)):
            pos = records[a]["nbrs"].index(b)
            del records[a]["nbrs"][pos], records[a]["w"][pos]

    _rewrite_lines(os.path.join(work_dir, "graph.jsonl"), drop)
    assert any("differs from the oracle" in f for f in gates.graph_gates(work_dir, p["k"]))


def test_graph_gate_catches_a_one_sided_edge(offline_run):
    work_dir, p = offline_run

    def drop_one_side(records):
        i, _ = _first_edge(records)
        del records[i]["nbrs"][0], records[i]["w"][0]

    _rewrite_lines(os.path.join(work_dir, "graph.jsonl"), drop_one_side)
    assert any("not symmetric" in f for f in gates.graph_gates(work_dir, p["k"]))


def test_graph_gate_catches_a_wrong_weight(offline_run):
    work_dir, p = offline_run

    def nudge(records):
        i, _ = _first_edge(records)
        records[i]["w"][0] *= 1.0 + 1e-9

    _rewrite_lines(os.path.join(work_dir, "graph.jsonl"), nudge)
    assert any("weight" in f for f in gates.graph_gates(work_dir, p["k"]))


def test_selection_gate_catches_a_duplicated_member(offline_run):
    work_dir, p = offline_run

    def duplicate(records):
        records[0]["members"][1] = records[0]["members"][0]

    _rewrite_lines(os.path.join(work_dir, "coreset.json"), duplicate)
    assert any("distinct" in f for f in gates.selection_gates(work_dir, p["budget"], p["eta"]))


def test_selection_gate_catches_a_wrong_objective(offline_run):
    work_dir, p = offline_run

    def shift(records):
        records[0]["objective"] += 1e-6

    _rewrite_lines(os.path.join(work_dir, "coreset.json"), shift)
    assert any("objective" in f for f in gates.selection_gates(work_dir, p["budget"], p["eta"]))


def test_adaptive_gate_catches_bare_nan_in_events(adaptive_run):
    work_dir, p = adaptive_run
    path = os.path.join(work_dir, "events.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    event = json.loads(lines[0])
    event["delta_H"] = float("nan")
    lines[0] = json.dumps(event) + "\n"          # json.dumps writes a bare NaN
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert any("NaN" in f for f in gates.adaptive_gates(work_dir, p))


def test_adaptive_gate_catches_a_missing_step(adaptive_run):
    work_dir, p = adaptive_run
    path = os.path.join(work_dir, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["intervals"][-1]["losses"].pop()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert any("steps" in f for f in gates.adaptive_gates(work_dir, p))


def test_adaptive_gate_catches_a_duplicated_member(adaptive_run):
    work_dir, p = adaptive_run

    def duplicate(records):
        records[-1]["members"][1] = records[-1]["members"][0]

    _rewrite_lines(os.path.join(work_dir, "selections.jsonl"), duplicate)
    assert any("distinct" in f for f in gates.adaptive_gates(work_dir, p))


def test_adaptive_gate_catches_an_out_of_range_member(adaptive_run):
    work_dir, p = adaptive_run

    def overflow(records):
        records[0]["members"][0] = p["simulator"]["n"]

    _rewrite_lines(os.path.join(work_dir, "selections.jsonl"), overflow)
    assert any("outside" in f for f in gates.adaptive_gates(work_dir, p))


def _fake_run(work_dir, seed, trace=False):
    return {"work_dir": work_dir, "seed": seed, "trace": trace, "crashed": False}


def test_repeat_gate_catches_differing_outputs(adaptive_run, tmp_path):
    work_dir, _ = adaptive_run
    copy = str(tmp_path / "copy")
    shutil.copytree(work_dir, copy)
    runs = [_fake_run(work_dir, 5), _fake_run(copy, 5)]
    assert run.repeat_failures("drift-repair", runs) == {}
    with open(os.path.join(copy, "events.jsonl"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert list(run.repeat_failures("drift-repair", runs)) == [1]


def test_loss_gate_catches_a_traced_final_loss_change(adaptive_run, tmp_path):
    work_dir, _ = adaptive_run
    traced = str(tmp_path / "traced")
    shutil.copytree(work_dir, traced)
    runs = [_fake_run(work_dir, 5), _fake_run(traced, 5, trace=True)]
    assert run.loss_failures(runs) == {}
    path = os.path.join(traced, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["final_loss"] += 1e-12
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert list(run.loss_failures(runs)) == [1]


def test_failed_command_counts_as_failed():
    record = {"crashed": False, "rc": {"simulate": 0, "build-graph": 3}}
    assert list(run.check_run("offline-cli", record)) == ["build-graph"]
    crashed = {"crashed": True, "exit_code": 1}
    assert list(run.check_run("offline-cli", crashed)) == list(workloads.OFFLINE_COMMANDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_leave_outputs_byte_identical(tiny, tmp_path, workload):
    plain, traced = str(tmp_path / "plain"), str(tmp_path / "traced")
    _produce(workload, plain)
    tracer = Tracer("t")
    _produce(workload, traced, tracer=tracer)
    names = workloads.output_files(workload)
    assert gates.digests(plain, names) == gates.digests(traced, names)
    assert len(gates.digests(plain, names)) == len(names)
    values, left_out = layer_metrics(tracer)
    assert tracer.missing == [] and left_out == []
    if workload == "drift-repair":
        assert values["knn_graph.repair.calls"] > 0
        assert 0.0 < values["knn_graph.repair.recall"] <= 1.0
    # The wrappers are gone again.
    from coresel import dynamics
    assert not hasattr(dynamics.repair_graph, "__wrapped__")


def test_missing_target_is_reported_not_zeroed(tiny, tmp_path):
    gone = "coresel.dynamics:qualifying_anchor_sets_removed"
    targets = tuple(t for t in TARGETS if t.span != "dynamics.anchor_sets") + (
        Target("dynamics.anchor_sets", gone),)
    tracer = Tracer("t", targets=targets)
    _produce("drift-repair", str(tmp_path / "run"), tracer=tracer)
    values, left_out = layer_metrics(tracer)
    assert tracer.missing == [gone]
    expected = {"dynamics.anchor_sets.calls", "dynamics.anchor_sets.s",
                "dynamics.anchor_qualified"}
    assert set(left_out) == expected
    assert not expected & set(values)
    assert values["dynamics.check.calls"] > 0


def test_failing_observer_leaves_its_metrics_out(tiny, tmp_path):
    def broken(*_):
        raise KeyError("renamed argument")

    targets = tuple(t for t in TARGETS if t.span != "knn_graph.lsh") + (
        Target("knn_graph.lsh", "coresel.knn_graph:LshIndex.query", broken),)
    tracer = Tracer("t", targets=targets)
    _produce("drift-repair", str(tmp_path / "run"), tracer=tracer)
    values, left_out = layer_metrics(tracer)
    assert set(left_out) == {"knn_graph.lsh.queries", "knn_graph.lsh.candidates"}
    assert "knn_graph.lsh.queries" not in values
