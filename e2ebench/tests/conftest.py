"""Tiny workload sizes, and import paths for the benchmark and coresel sources."""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import workloads  # noqa: E402

TINY_ADAPTIVE = {
    "drift-repair": {
        "selection": {"budget_b": 16, "n_s": 64, "budget_eta": 0.1, "delta": 0.05,
                      "t_c": 10, "k": 5, "k_recal": 8},
        "run": {"strategy": "adaptive", "total_steps": 60, "warmup_steps": 20},
        "simulator": {"n": 200, "dim": 8, "classes": 3, "cluster_spread": 2.5,
                      "learning_rate": 0.1, "drift_rate": 0.02},
    },
    "wide-pool": {
        "selection": {"budget_b": 16, "n_s": 96, "budget_eta": 0.1, "delta": 0.3,
                      "t_c": 10, "k": 5, "k_recal": 8},
        "run": {"strategy": "adaptive", "total_steps": 60, "warmup_steps": 20},
        "simulator": {"n": 200, "dim": 8, "classes": 3, "cluster_spread": 2.5,
                      "learning_rate": 0.1, "drift_rate": 0.0},
    },
}
TINY_OFFLINE = {"n": 200, "dim": 8, "classes": 3, "steps": 10, "k": 5, "budget": 4,
                "eta": 0.1}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload; children get their sizes from the parent's params."""
    monkeypatch.setattr(workloads, "ADAPTIVE", TINY_ADAPTIVE)
    monkeypatch.setattr(workloads, "OFFLINE", TINY_OFFLINE)
