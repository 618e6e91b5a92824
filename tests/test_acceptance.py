"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
measurement lines). Every tolerance is pinned here.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import anchor_dict, brute_force_coreset, by_id, mutual_knn_oracle, positive_table
from coresel.cli import main as cli_main
from coresel.dynamics import propagate_scores, qualifying_anchor_sets
from coresel.knn_graph import build_graph, build_lsh_index, repair_graph
from coresel.orchestrator import run
from coresel.scoring import WarpParams, warped_scores
from coresel.selector import coreset_objective, select_coreset
from coresel.simulator import SimState
from coresel.store import EmbeddingTable, ScoreLedger, SelectionConfig

GREEDY_RATIO = 1.0 - 1.0 / math.e


def numeric_minimize(f, lo: float, hi: float, h: float = 1e-6) -> float:
    """Independent 1-D minimizer: root of the central-difference derivative.

    Comparison-based minimizers stall near sqrt(machine eps) in x; the
    finite-difference derivative root reaches ~1e-10 on smooth objectives.
    """
    return brentq(lambda x: (f(x + h) - f(x - h)) / (2.0 * h), lo, hi, xtol=1e-13)


def _e2e_config(seed: int) -> SelectionConfig:
    return SelectionConfig(budget_b=64, n_s=256, budget_eta=0.1, t_c=25, k=10,
                           k_recal=32, n_s_check=32, delta=0.1, delta_h=0.05,
                           seed=seed)


def _e2e_sim(seed: int) -> SimState:
    schedule = np.zeros(500)
    schedule[:250] = 0.02
    return SimState.create(n=2000, dim=16, classes=5, cluster_spread=2.5,
                           learning_rate=0.1, seed=seed, drift=schedule)


def test_criterion_01_greedy_approximation_ratio():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    lambdas = [0.0, 0.3, 0.6, 1.0]
    violations = 0
    high_ratio = 0
    total = 200
    for trial in range(total):
        n = int(rng.integers(6, 13))
        b = int(rng.integers(1, 5))
        lam = lambdas[trial % len(lambdas)]
        emb = positive_table(rng, n, 4)
        warped = rng.uniform(0.0, 1.0, size=n)
        greedy = select_coreset(range(n), b, emb, warped, lam)
        brute = brute_force_coreset(range(n), b, emb, warped, lam)
        if greedy.objective_value < GREEDY_RATIO * brute.objective_value - 1e-9:
            violations += 1
        if brute.objective_value > 0 and (
                greedy.objective_value / brute.objective_value >= 0.95):
            high_ratio += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert high_ratio >= 0.9 * total
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: 0/{total} ratio violations, "
          f"{high_ratio}/{total} instances >= 0.95 of optimum, {elapsed:.1f}s")


def test_criterion_02_submodularity_and_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    draws = 1000
    counterexamples = 0
    for _ in range(draws):
        n = int(rng.integers(4, 11))
        emb = positive_table(rng, n, 4)
        warped = rng.uniform(0.0, 1.0, size=n)
        lam = float(rng.uniform())
        pool = list(range(n))
        size_t = int(rng.integers(1, n))
        t_set = sorted(rng.choice(n, size=size_t, replace=False).tolist())
        size_s = int(rng.integers(0, size_t + 1))
        s_set = sorted(rng.choice(t_set, size=size_s, replace=False).tolist())
        rs_s = coreset_objective(s_set, pool, emb, warped, lam)
        rs_t = coreset_objective(t_set, pool, emb, warped, lam)
        if rs_t < rs_s - 1e-9:
            counterexamples += 1
        outside = [x for x in pool if x not in t_set]
        if outside:
            x = int(rng.choice(outside))
            gain_s = coreset_objective(s_set + [x], pool, emb, warped, lam) - rs_s
            gain_t = coreset_objective(t_set + [x], pool, emb, warped, lam) - rs_t
            if gain_s < gain_t - 1e-9:
                counterexamples += 1
    elapsed = time.perf_counter() - started
    assert counterexamples == 0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: 0 counterexamples in {draws} nested-set draws, "
          f"{elapsed:.1f}s")


def test_criterion_03_propagation_closed_form():
    rng = np.random.default_rng(303)
    worst = 0.0
    trials = 500
    for _ in range(trials):
        deg = int(rng.integers(1, 8))
        weights = rng.uniform(0.01, 1.0, size=deg)
        old = float(rng.uniform(0.0, 3.0))
        news = rng.uniform(0.0, 3.0, size=deg)
        from coresel.knn_graph import MutualKnnGraph

        g = MutualKnnGraph.from_edges(deg + 1, deg,
                                      {(0, j + 1): float(weights[j]) for j in range(deg)})
        ledger = ScoreLedger.from_scores(np.concatenate([[old], news]), step=0)
        sets = qualifying_anchor_sets(g, ledger, range(1, deg + 1), beta_aff=0.0)
        out = by_id(sets, propagate_scores(ledger, news, sets))
        alphas = weights / weights.sum()
        x_star = numeric_minimize(
            lambda x: 0.5 * (x - old) ** 2 + 0.5 * float(np.sum(alphas * (x - news) ** 2)),
            -10.0, 10.0,
        )
        worst = max(worst, abs(out[0] - x_star))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 3 PASS: closed form within {worst:.2e} of numeric minimum "
          f"on {trials} neighborhoods")


def test_criterion_04_change_stability_over_simulated_run():
    report = run("adaptive", _e2e_config(0), _e2e_sim(0), total_steps=500, warmup_steps=50)
    rounds = 0
    nodes = 0
    violations = 0
    for plan in report.plans:
        if not len(plan.propagated_scores):
            continue
        rounds += 1
        sets = plan.anchor_sets
        for p, (new, old) in enumerate(zip(plan.propagated_scores, plan.old_scores)):
            nodes += 1
            anchors = sets.anchor_idx[sets.node_idx == p]  # positions in recal_set
            bound = 0.5 * max(0.0, max(abs(plan.recal_scores[j] - old) for j in anchors))
            if abs(new - old) > bound + 1e-12:
                violations += 1
    assert rounds >= 1
    assert violations == 0
    print(f"\nACCEPTANCE 4 PASS: change-stability bound held for {nodes} propagated "
          f"nodes across {rounds} rounds of a 500-step run")


def test_criterion_05_error_contraction_on_lipschitz_instances():
    rng = np.random.default_rng(505)
    checked = 0
    for trial in range(20):
        n, d = 80, 6
        emb = EmbeddingTable(rng.normal(size=(n, d)))
        g = build_graph(emb, k=5)
        direction = rng.normal(size=d)
        lipschitz = float(np.linalg.norm(direction))
        offset = float(np.abs(emb.rows @ direction).max()) + 1.0
        true_scores = emb.rows @ direction + offset       # exact scores, >= 0
        noise = rng.uniform(-0.5, 0.5, size=n)
        ledger = ScoreLedger.from_scores(np.maximum(true_scores + noise, 0.0), step=0)
        e_old = ledger.current - true_scores
        anchors = sorted(int(i) for i in rng.choice(n, size=12, replace=False))
        sets = qualifying_anchor_sets(g, ledger, anchors, beta_aff=0.0)
        qualified = anchor_dict(sets)
        out = by_id(sets, propagate_scores(ledger, true_scores[sets.anchors], sets))
        for i, new in out.items():
            if i in anchors:
                continue
            r_i = max(float(np.linalg.norm(emb.rows[i] - emb.rows[j]))
                      for j in qualified[i])
            e_new = new - true_scores[i]
            bound = 0.5 * abs(e_old[i]) + 0.5 * lipschitz * r_i
            assert abs(e_new) <= bound + 1e-9
            checked += 1
    assert checked > 0
    print(f"\nACCEPTANCE 5 PASS: contraction bound held for {checked} propagated "
          f"nodes on constructed Lipschitz instances (epsilon = 0)")


def test_criterion_06_graph_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    emb = EmbeddingTable(rng.normal(size=(500, 8)))
    g = build_graph(emb, k=10)
    oracle_edges, oracle_lists = mutual_knn_oracle(emb.rows, 10)
    assert g.edge_set() == oracle_edges
    assert [row.tolist() for row in g.knn_ids] == oracle_lists

    # perturb 5% of the nodes, repair with LSH candidates, compare to a rebuild
    means = rng.normal(size=(5, 8)) * 5.0
    labels = np.arange(400) % 5
    emb2 = EmbeddingTable(means[labels] + 0.5 * rng.normal(size=(400, 8)))
    g2 = build_graph(emb2, k=8)
    idx = build_lsh_index(emb2, 8, 12, seed=1)
    changed = sorted(rng.choice(400, size=20, replace=False).tolist())
    emb2.rows[changed] += 0.05 * rng.normal(size=(20, 8))
    repaired = repair_graph(g2, idx, emb2, changed)
    rebuilt = build_graph(emb2, k=8)
    union = repaired.edge_set() | rebuilt.edge_set()
    jaccard = len(repaired.edge_set() & rebuilt.edge_set()) / len(union)
    assert jaccard >= 0.95

    exact = repair_graph(g2, None, emb2, changed)
    assert exact.edge_set() == rebuilt.edge_set()
    for i, j in rebuilt.edge_set():
        assert exact.weight(i, j) == pytest.approx(rebuilt.weight(i, j), abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: exact oracle match at n=500, repair jaccard="
          f"{jaccard:.4f} >= 0.95, brute-candidate repair exact, {elapsed:.1f}s")


def test_criterion_07_adaptive_check_logic():
    frozen_cfg = SelectionConfig(budget_b=48, n_s=192, budget_eta=0.1, t_c=20, k=8,
                                 k_recal=24, n_s_check=24, delta=0.0, delta_h=0.05,
                                 seed=7)
    frozen_sim = SimState.create(n=600, dim=10, classes=4, cluster_spread=1.5,
                                 learning_rate=0.2, seed=7, freeze_at=20)
    frozen = run("adaptive", frozen_cfg, frozen_sim, total_steps=200, warmup_steps=20)
    assert len(frozen.plans) >= 3
    assert all(p.delta_I == 0.0 for p in frozen.plans)
    assert all(not p.triggered for p in frozen.plans)

    drift_sim = SimState.create(n=600, dim=10, classes=4, cluster_spread=1.5,
                                learning_rate=0.2, seed=7, drift=0.02)
    eager = run("adaptive", frozen_cfg, drift_sim, total_steps=200, warmup_steps=20)
    assert len(eager.plans) >= 3
    assert all(p.triggered for p in eager.plans)
    print(f"\nACCEPTANCE 7 PASS: frozen provider 0/{len(frozen.plans)} triggers with "
          f"delta_I == 0; drifting provider {len(eager.plans)}/{len(eager.plans)} "
          f"triggers at delta = 0")


def test_criterion_08_beta_warp_behavior():
    rng = np.random.default_rng(808)
    grid = np.arange(1e-4, 1.0, 1e-4)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(1.05, 6.0))
        beta = float(rng.uniform(1.05, 8.0))
        params = WarpParams(alpha=alpha, beta=beta, gamma_temp=1.0)
        values = warped_scores(grid, params, normalize=False)
        got = float(grid[int(np.argmax(values))])
        mode = (alpha - 1.0) / (alpha + beta - 2.0)
        worst = max(worst, abs(got - mode))
    assert worst <= 1e-3

    scores = rng.uniform(0.0, 1.0, size=100)
    rankings = []
    for gamma in (0.5, 1.0, 2.0):
        params = WarpParams(alpha=2.3, beta=7.7, gamma_temp=gamma)
        rankings.append(np.argsort(warped_scores(scores, params), kind="stable").tolist())
    assert rankings[0] == rankings[1] == rankings[2]
    print(f"\nACCEPTANCE 8 PASS: grid argmax within {worst:.2e} of analytic mode over "
          f"20 shape pairs; ranking gamma-invariant for gamma in (0.5, 1, 2)")


def test_criterion_09_end_to_end_directional():
    started = time.perf_counter()
    wins = 0
    seeds = range(5)
    summary = []
    for seed in seeds:
        adaptive = run("adaptive", _e2e_config(seed), _e2e_sim(seed),
                       total_steps=500, warmup_steps=50)
        static = run("random-static", _e2e_config(seed), _e2e_sim(seed),
                     total_steps=500, warmup_steps=50)
        triggered = sum(p.triggered for p in adaptive.plans)
        skipped = sum(not p.triggered for p in adaptive.plans)
        assert triggered >= 1
        assert skipped >= 1
        wins += adaptive.final_loss <= static.final_loss
        summary.append((seed, round(adaptive.final_loss, 4), round(static.final_loss, 4)))
    elapsed = time.perf_counter() - started
    assert wins >= 4
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9 PASS: adaptive <= static on {wins}/5 seeds "
          f"{summary}, every log has triggered and skipped checks, {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "selection": {"budget_b": 24, "n_s": 96, "budget_eta": 0.1, "t_c": 15, "k": 6,
                      "k_recal": 12, "n_s_check": 12, "delta": 0.05, "delta_h": 0.02,
                      "seed": 10},
        "run": {"strategy": "adaptive", "total_steps": 60, "warmup_steps": 15},
        "simulator": {"n": 200, "dim": 6, "classes": 4, "cluster_spread": 1.5,
                      "learning_rate": 0.2, "drift_rate": 0.02},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outputs = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        root.mkdir()
        emb = root / "emb.bin"
        scores = root / "scores.jsonl"
        graph = root / "graph.jsonl"
        coreset = root / "coreset.json"
        events = root / "check_events.jsonl"
        csv_out = root / "losses.csv"
        run_dir = root / "run"
        assert cli_main(["simulate", "--n", "150", "--dim", "6", "--classes", "3",
                         "--steps", "25", "--seed", "10",
                         "--out-embeddings", str(emb), "--out-scores", str(scores)]) == 0
        assert cli_main(["build-graph", "--embeddings", str(emb), "--k", "6",
                         "--out", str(graph)]) == 0
        assert cli_main(["select", "--embeddings", str(emb), "--scores", str(scores),
                         "--budget", "12", "--eta", "0.1", "--out", str(coreset)]) == 0
        assert cli_main(["check", "--config", str(cfg_path), "--out", str(events)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 0
        assert cli_main(["report", "--report", str(run_dir / "report.json"),
                         "--out", str(csv_out)]) == 0
        outputs.append({
            "emb": emb.read_bytes(),
            "scores": scores.read_text(),
            "graph": graph.read_text(),
            "coreset": coreset.read_text(),
            "events": events.read_text(),
            "report": (run_dir / "report.json").read_text(),
            "run_events": (run_dir / "events.jsonl").read_text(),
            "selections": (run_dir / "selections.jsonl").read_text(),
            "csv": csv_out.read_text(),
        })
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 10 PASS: all six subcommands byte-identical across "
          "repeated seeded runs")
