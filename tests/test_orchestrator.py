"""Full-loop behavior: budgets, determinism, check wiring, baselines."""

import ast
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel import dynamics, orchestrator
from coresel.errors import ConfigError, DataError
from coresel.knn_graph import build_graph
from coresel.orchestrator import loss_rows, run
from coresel.simulator import SimState
from coresel.store import SelectionConfig


def _cfg(**overrides):
    base = dict(budget_b=24, n_s=96, budget_eta=0.1, t_c=15, k=6, k_recal=12,
                n_s_check=12, delta=0.05, delta_h=0.02, seed=2)
    base.update(overrides)
    return SelectionConfig(**base)


def _sim(seed=2, sim_cls=SimState, **overrides):
    base = dict(n=300, dim=6, classes=4, cluster_spread=1.0, learning_rate=0.2,
                drift=0.02)
    base.update(overrides)
    return sim_cls.create(seed=seed, **base)


def test_single_interval_run():
    # pre-warmed provider, then exactly one interval's worth of budget
    cfg = _cfg()
    sim = _sim()
    rng = np.random.default_rng(0)
    for _ in range(10):
        sim.train_step(rng.choice(sim.n, size=24, replace=False))
    report = run("adaptive", cfg, sim, total_steps=10 + cfg.t_c, warmup_steps=0)
    assert len(report.intervals) == 1
    assert len(report.plans) == 1
    assert report.intervals[0].check is not None
    assert report.warmup_losses == []


def test_budget_accounting_exact():
    for strategy in ("adaptive", "random-static", "random-fixed-interval", "full-data"):
        sim = _sim()
        run(strategy, _cfg(), sim, total_steps=77, warmup_steps=10)
        assert sim.step == 77


def test_interval_chunking_with_truncation():
    cfg = _cfg(t_c=15)
    report = run("adaptive", cfg, _sim(), total_steps=50, warmup_steps=10)
    lengths = [rec.end_step - rec.start_step for rec in report.intervals]
    assert lengths == [15, 15, 10]
    # the truncated final interval fires no check
    assert [rec.check is not None for rec in report.intervals] == [True, True, False]


def test_delta_inf_never_triggers_delta_zero_always():
    total, warm = 100, 10
    quiet = run("adaptive", _cfg(delta=math.inf), _sim(), total, warm)
    assert len(quiet.plans) >= 2
    assert all(not p.triggered for p in quiet.plans)
    eager = run("adaptive", _cfg(delta=0.0), _sim(), total, warm)
    assert all(p.triggered for p in eager.plans)
    assert all(p.delta_I > 0.0 for p in eager.plans)


def test_replay_is_byte_identical():
    def once():
        report = run("adaptive", _cfg(), _sim(), total_steps=200, warmup_steps=20)
        return json.dumps(report.to_dict(), sort_keys=True)

    assert once() == once()


def test_candidate_sampling_without_replacement():
    report = run("adaptive", _cfg(), _sim(), total_steps=60, warmup_steps=15)
    for rec in report.intervals:
        assert len(rec.members) == len(set(rec.members))
        assert len(rec.members) == 24


def test_static_with_full_budget_equals_full_data():
    cfg = _cfg(budget_b=300, n_s=300)
    a = run("random-static", cfg, _sim(), total_steps=45, warmup_steps=0)
    b = run("full-data", cfg, _sim(), total_steps=45, warmup_steps=0)
    assert a.final_loss == b.final_loss
    assert [r.losses for r in a.intervals] == [r.losses for r in b.intervals]


@pytest.mark.parametrize("strategy", ["random-static", "random-fixed-interval"])
def test_baseline_members_replay_the_rng_draws(strategy):
    # one generator seeded with cfg.seed: the warm-up batches first, then one
    # draw for random-static or one per interval for random-fixed-interval
    cfg, sim = _cfg(), _sim()
    report = run(strategy, cfg, sim, total_steps=70, warmup_steps=10)
    assert len(report.intervals) == 4
    rng = np.random.default_rng(cfg.seed)
    for _ in range(10):
        rng.choice(sim.n, size=cfg.budget_b, replace=False)
    draws = 1 if strategy == "random-static" else len(report.intervals)
    replayed = [sorted(int(i) for i in rng.choice(sim.n, size=cfg.budget_b, replace=False))
                for _ in range(draws)]
    if strategy == "random-static":
        replayed *= len(report.intervals)
    assert [rec.members for rec in report.intervals] == replayed


def test_two_seeds_same_schema_different_members():
    a = run("random-fixed-interval", _cfg(seed=1), _sim(seed=1), 60, 15)
    b = run("random-fixed-interval", _cfg(seed=2), _sim(seed=2), 60, 15)
    assert a.to_dict().keys() == b.to_dict().keys()
    assert any(ra.members != rb.members for ra, rb in zip(a.intervals, b.intervals))


def test_comparison_triple_shares_structure():
    cfg = _cfg()
    reports = [
        run("adaptive", cfg, _sim(), 60, 15),
        run("random-static", cfg, _sim(), 60, 15),
        run("random-fixed-interval", cfg, _sim(), 60, 15),
    ]
    step_counts = {r.total_steps for r in reports}
    assert step_counts == {60}
    configs = [r.config for r in reports]
    assert configs[0] == configs[1] == configs[2]
    for r in reports:
        assert {rec.end_step - rec.start_step for rec in r.intervals} == {15}
        assert set(r.to_dict()) == set(reports[0].to_dict())


def test_warmup_defaults_to_ten_percent():
    report = run("adaptive", _cfg(), _sim(), total_steps=100)
    assert report.warmup_steps == 10
    assert len(report.warmup_losses) == 10


def test_config_errors_fire_before_any_work():
    sim = _sim()
    with pytest.raises(ConfigError):
        run("adaptive", _cfg(n_s=400), sim, total_steps=60, warmup_steps=10)  # n_s > n
    with pytest.raises(ConfigError):
        run("adaptive", _cfg(), sim, total_steps=10, warmup_steps=0)  # < t_c
    with pytest.raises(ConfigError):
        run("adaptive", _cfg(), sim, total_steps=60, warmup_steps=60)
    with pytest.raises(ConfigError):
        run("nonsense", _cfg(), sim, 60, 10)
    assert sim.step == 0


def test_update_events_schema():
    report = run("adaptive", _cfg(delta=0.0, delta_h=0.0), _sim(), 60, 15)
    events = report.update_events()
    assert len(events) == len(report.plans)
    for event in events:
        assert set(event) == {"step", "delta_I", "triggered", "recal", "delta_H",
                              "graph_repaired"}
        if event["triggered"]:
            assert isinstance(event["recal"], list)


def test_selection_events_schema():
    report = run("adaptive", _cfg(), _sim(), 45, 15)
    for event in report.selection_events():
        assert set(event) == {"step", "members", "objective", "gains"}
        assert len(event["members"]) == 24


def test_loss_rows_cover_every_step():
    report = run("adaptive", _cfg(), _sim(), 70, 10)
    rows = loss_rows(report.to_dict())
    assert [s for s, _ in rows] == list(range(1, 71))


def test_one_qualifying_pass_per_check(monkeypatch):
    calls = []
    qualify = dynamics.qualifying_anchor_sets

    def counted(*args, **kwargs):
        calls.append(args[2])
        return qualify(*args, **kwargs)

    monkeypatch.setattr(dynamics, "qualifying_anchor_sets", counted)
    report = run("adaptive", _cfg(delta=0.0, delta_h=0.0, seed=5), _sim(seed=5), 75, 15)
    with_recal = [p for p in report.plans if p.recal_set]
    assert with_recal and any(p.graph_repaired for p in with_recal)
    assert [tuple(c) for c in calls] == [p.recal_set for p in with_recal]


def test_adaptive_selection_uses_fresh_scores():
    # with delta=0 + drift, propagated/recomputed scores shift selection inputs;
    # the run must stay internally consistent and reproducible
    report = run("adaptive", _cfg(delta=0.0, delta_h=0.0, seed=5), _sim(seed=5), 75, 15)
    triggered = [p for p in report.plans if p.triggered]
    assert triggered
    assert any(p.graph_repaired for p in report.plans)


# ---------------------------------------------------------------------------
# provider boundary: every extract in the loop is checked before use
# ---------------------------------------------------------------------------

class _FaultyProvider:
    """Simulator whose ``call``-th ``extract_features`` result goes through ``patch``."""

    def __init__(self, sim, call, patch):
        self.sim = sim
        self.call = call
        self.patch = patch
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.sim, name)

    def extract_features(self, ids):
        self.calls += 1
        rows, scores = self.sim.extract_features(ids)
        if self.calls == self.call:
            rows, scores = self.patch(np.array(rows), np.array(scores))
        return rows, scores


def _run_with_fault(call, patch):
    # Call 1 is the initial full extract; call 2 the first train step's members.
    provider = _FaultyProvider(_sim(), call, patch)
    with pytest.raises(DataError) as info:
        run("adaptive", _cfg(), provider, total_steps=40, warmup_steps=10)
    assert provider.calls == call
    return str(info.value)


def _nan_first_score(rows, scores):
    scores[0] = np.nan
    return rows, scores


def test_initial_extract_nan_score_is_data_error():
    assert "scores" in _run_with_fault(1, _nan_first_score)


def test_step_extract_nan_score_is_data_error():
    assert "scores" in _run_with_fault(2, _nan_first_score)


def test_step_extract_short_scores_is_data_error():
    assert "scores" in _run_with_fault(2, lambda rows, scores: (rows, scores[:-1]))


@pytest.mark.parametrize("call", [1, 2])
def test_extract_names_the_first_bad_value(call):
    def bad_row(rows, scores):
        rows[3, 1] = rows[5, 0] = np.nan
        return rows, scores

    def bad_score(rows, scores):
        scores[4], scores[6] = np.inf, -1.0
        return rows, scores

    def short_rows(rows, scores):
        return rows[:-1], scores

    m = 300 if call == 1 else 24  # the full extract, or one train step's members
    assert _run_with_fault(call, bad_row) == "provider rows must be finite, got nan at row 3, col 1"
    assert _run_with_fault(call, bad_score) == ("provider scores must be finite and >= 0, "
                                                "got inf at index 4")
    assert _run_with_fault(call, short_rows) == (f"provider rows must be finite with shape "
                                                 f"({m}, 4), got shape ({m - 1}, 4)")


def test_step_extract_nan_rows_of_wrong_width_are_data_error():
    # The step keeps only the scores, but its rows are checked all the same.
    def nan_wide_rows(rows, scores):
        return np.full((rows.shape[0], rows.shape[1] + 1), np.nan), scores

    assert "rows" in _run_with_fault(2, nan_wide_rows)


# ---------------------------------------------------------------------------
# names the end-to-end benchmark (e2ebench/) reaches into
# ---------------------------------------------------------------------------

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"


def test_select_probe_fires_once_per_interval(monkeypatch):
    # e2ebench times the loop by wrapping orchestrator.select_coreset; a loop
    # that called a selector bound elsewhere would leave its probe silent.
    calls = []
    select = orchestrator.select_coreset

    def probe(*args, **kwargs):
        calls.append(1)
        return select(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "select_coreset", probe)
    report = run("adaptive", _cfg(), _sim(), total_steps=70, warmup_steps=10)
    assert len(report.intervals) == 4
    assert len(calls) == len(report.intervals)


def _e2ebench_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2ebench_spans", E2EBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    return spans


def test_every_e2ebench_span_target_resolves(monkeypatch):
    spans = _e2ebench_spans(monkeypatch)
    assert spans.TARGETS
    missing = [t.where for t in spans.TARGETS if spans._resolve(t.where) is None]
    assert missing == []


def test_e2ebench_dynamics_counts_equal_the_runs_own_plans(monkeypatch):
    spans = _e2ebench_spans(monkeypatch)
    with spans.Tracer("counts") as tracer:
        report = run("adaptive", _cfg(delta=0.0, delta_h=0.0, seed=5), _sim(seed=5), 75, 15)
    values, left_out = spans.layer_metrics(tracer)
    assert left_out == []
    plans = report.plans
    repaired = [p for p in plans if p.graph_repaired]
    expected = {
        "dynamics.recal.size": sum(len(p.recal_set) for p in plans),
        "dynamics.anchor_qualified": sum(len(p.anchor_sets) for p in plans if p.anchor_sets),
        "dynamics.propagated_scores": sum(len(p.propagated_scores) for p in plans),
        "dynamics.propagated_embeddings": sum(len(p.propagated_embeddings) for p in plans),
        "knn_graph.repair.changed": sum(len(p.recal_set) + len(p.propagated_embeddings)
                                        for p in repaired),
    }
    assert repaired and min(expected.values()) > 0
    assert {name: values[name] for name in expected} == expected


def test_every_name_e2ebench_gates_import_from_coresel_exists():
    tree = ast.parse((E2EBENCH / "gates.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coresel"
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


# ---------------------------------------------------------------------------
# the graph is built by the first check that triggers
# ---------------------------------------------------------------------------

def _wide_pool(seed):
    """e2ebench's wide-pool workload at program seed ``seed``: no drift, delta 0.3."""
    cfg = SelectionConfig(budget_b=128, n_s=768, budget_eta=0.1, delta=0.3, t_c=25, k=10,
                          k_recal=32, seed=seed)
    sim = SimState.create(n=2000, dim=16, classes=5, cluster_spread=2.5, learning_rate=0.1,
                          seed=seed, drift=0.0)
    return cfg, sim


@pytest.mark.parametrize("seed, builds", [(12, 0), (11, 1)])
def test_graph_is_built_at_the_first_triggered_check(monkeypatch, seed, builds):
    calls = []
    build = orchestrator.build_graph

    def spy(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "build_graph", spy)
    report = run("adaptive", *_wide_pool(seed), total_steps=300, warmup_steps=50)
    assert any(p.triggered for p in report.plans) == bool(builds)
    assert len(calls) == builds



# ---------------------------------------------------------------------------
# run-level oracle: without an LSH index, repair is a full rebuild
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(40, 300), k=st.integers(2, 8))
def test_run_repairing_without_index_equals_run_rebuilding(seed, n, k):
    # Covers what a one-call repair check does not: the graph carried from check to
    # check, the build deferred to the first trigger, and the undo log around repair.
    _assert_repairing_equals_rebuilding(SimState, seed, n, k)


class _GridSim(SimState):
    """Simulator whose extracted rows lie on the half-integer grid: distances are exact,
    often tie, and often equal a node's k-th distance; no row is zero."""

    def extract_features(self, ids):
        rows, scores = super().extract_features(ids)
        return np.floor(rows) + 0.5, scores


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(40, 300), k=st.integers(2, 8))
def test_run_repairing_without_index_equals_run_rebuilding_on_tied_rows(seed, n, k):
    # Ties and near-boundary pairs reach the repair's (d2, id) order and its eps screen,
    # which plain simulator rows rarely do.
    _assert_repairing_equals_rebuilding(_GridSim, seed, n, k)


def _assert_repairing_equals_rebuilding(sim_cls, seed, n, k):
    cfg = _cfg(budget_b=8, n_s=32, t_c=5, k=k, k_recal=6, n_s_check=6, delta=0.0, delta_h=0.0,
               seed=seed)

    def outputs():
        report = run("adaptive", cfg, _sim(seed, sim_cls, n=n), total_steps=40, warmup_steps=10)
        texts = [json.dumps(doc) for doc in (report.to_dict(), report.update_events(),
                                             report.selection_events())]
        return texts, sum(p.graph_repaired for p in report.plans)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orchestrator, "build_lsh_index", lambda emb, seed: None)
        repaired, repairs = outputs()
        mp.setattr(dynamics, "repair_graph", lambda g, idx, emb, changed: build_graph(emb, g.k))
        rebuilt, _ = outputs()
    assert repairs >= 1
    assert repaired == rebuilt
