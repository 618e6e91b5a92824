"""The benchmark's workloads, built from a seed, and how one run of each executes.

Each run drives ``coresel.cli.main`` in-process, so the program receives only
a generated config file (adaptive workloads) or command-line arguments and
files (offline-cli). One run executes in its own process; see ``child.py``.

Sizes keep each workload's dominant layer while letting several runs fit in
one benchmark measurement, so medians over runs are steady:

- drift-repair: drift makes nearly every check trigger and repair, so
  ``dynamics``, ``knn_graph`` build and repair and ``kernels.rows`` dominate.
- wide-pool: a wide candidate pool and no drift, so ``selector`` and
  ``kernels.greedy`` dominate and repair stays idle.
- offline-cli: a one-shot build with a JSONL dump, file ingest and
  score-stream replay, and greedy over the whole dataset.
"""

from __future__ import annotations

import copy
import json
import os
import time

ADAPTIVE = {
    "drift-repair": {
        "selection": {"budget_b": 64, "n_s": 256, "budget_eta": 0.1, "delta": 0.05,
                      "t_c": 25, "k": 10, "k_recal": 32},
        "run": {"strategy": "adaptive", "total_steps": 300, "warmup_steps": 50},
        "simulator": {"n": 2500, "dim": 16, "classes": 5, "cluster_spread": 2.5,
                      "learning_rate": 0.1, "drift_rate": 0.02},
    },
    "wide-pool": {
        "selection": {"budget_b": 128, "n_s": 768, "budget_eta": 0.1, "delta": 0.3,
                      "t_c": 25, "k": 10, "k_recal": 32},
        "run": {"strategy": "adaptive", "total_steps": 300, "warmup_steps": 50},
        "simulator": {"n": 2000, "dim": 16, "classes": 5, "cluster_spread": 2.5,
                      "learning_rate": 0.1, "drift_rate": 0.0},
    },
}

OFFLINE = {"n": 3000, "dim": 16, "classes": 5, "steps": 100, "k": 10, "budget": 16,
           "eta": 0.1}

WORKLOADS = ("drift-repair", "wide-pool", "offline-cli")

# One offline-cli run is these commands, in order; each is one operation.
OFFLINE_COMMANDS = ("simulate", "build-graph", "select")


def sub_seed(seed: int, index: int) -> int:
    """The program seed of the index-th distinct input set drawn from ``seed``."""
    return seed * 1000 + index


def params(workload: str, seed: int) -> dict:
    """Everything one run of the workload needs; the program sees nothing else."""
    if workload == "offline-cli":
        return {**OFFLINE, "seed": seed}
    cfg = copy.deepcopy(ADAPTIVE[workload])
    cfg["selection"]["seed"] = seed
    return cfg


def offline_argv(p: dict, work_dir: str) -> dict[str, list[str]]:
    emb = os.path.join(work_dir, "emb.bin")
    scores = os.path.join(work_dir, "scores.jsonl")
    return {
        "simulate": ["simulate", "--n", str(p["n"]), "--dim", str(p["dim"]),
                     "--classes", str(p["classes"]), "--steps", str(p["steps"]),
                     "--seed", str(p["seed"]), "--out-embeddings", emb, "--out-scores", scores],
        "build-graph": ["build-graph", "--embeddings", emb, "--k", str(p["k"]),
                        "--out", os.path.join(work_dir, "graph.jsonl")],
        "select": ["select", "--embeddings", emb, "--scores", scores,
                   "--budget", str(p["budget"]), "--eta", str(p["eta"]),
                   "--out", os.path.join(work_dir, "coreset.json")],
    }


def output_files(workload: str) -> dict[str, str]:
    """Files one run writes into its work dir, each with the operation that writes it.

    Repeats on the same inputs must match byte for byte.
    """
    if workload == "offline-cli":
        return {"emb.bin": "simulate", "scores.jsonl": "simulate",
                "graph.jsonl": "build-graph", "coreset.json": "select"}
    return {"report.json": "run", "events.jsonl": "run", "selections.jsonl": "run"}


def run_adaptive(config: dict, work_dir: str) -> dict:
    """One adaptive run through ``coresel run``, timed from outside.

    The only probe reads the clock on each entry of the selection call the
    orchestrator makes: the first entry ends set-up, and the gaps between
    entries are the select+train+check intervals. The last gap closes when the
    command returns.
    """
    from coresel import cli, orchestrator

    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)

    entries: list[float] = []
    select = orchestrator.select_coreset

    def probe(*args, **kwargs):
        entries.append(time.perf_counter())
        return select(*args, **kwargs)

    orchestrator.select_coreset = probe
    try:
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", config_path, "--out-dir", work_dir])
        t1 = time.perf_counter()
    finally:
        orchestrator.select_coreset = select
    marks = entries + [t1]
    return {
        "rc": {"run": rc},
        "run_s": t1 - t0,
        "setup_s": (entries[0] - t0) if entries else t1 - t0,
        "intervals_s": [b - a for a, b in zip(marks, marks[1:])] if entries else [],
    }


def run_offline(p: dict, work_dir: str) -> dict:
    """The three offline commands, each timed as one operation."""
    from coresel import cli

    rc: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for name, argv in offline_argv(p, work_dir).items():
        t0 = time.perf_counter()
        rc[name] = cli.main(argv)
        seconds[name] = time.perf_counter() - t0
        if rc[name] != 0:
            break
    return {
        "rc": rc,
        "run_s": sum(seconds.values()),
        "setup_s": seconds["simulate"],
        "build_graph_s": seconds.get("build-graph", 0.0),
        "select_s": seconds.get("select", 0.0),
    }


def run_once(workload: str, p: dict, work_dir: str) -> dict:
    if workload == "offline-cli":
        return run_offline(p, work_dir)
    return run_adaptive(p, work_dir)
