"""End-to-end benchmark of coresel's adaptive loop and offline CLI.

    python3 e2ebench/run.py --workload drift-repair --seed 1 --seconds 40 --trace 0

Runs the workload again and again, each run in its own process, until
``--seconds`` have passed, and reports medians over the runs. The runs draw
their inputs from ``--seed``: the first two share one input set, so their
outputs must match byte for byte, and each later run takes a new one.

With ``--trace 0`` nothing but one clock probe is installed and the last line
of output carries the end-to-end metrics. With ``--trace 1`` untraced and
traced runs of a single input set alternate; the last line carries the
per-layer metrics computed from the traced runs' spans, plus the traced over
untraced run time. Every run's outputs pass the correctness gates in
``gates.py``; a failed gate counts its operation as failed and makes the
command exit 1. Human-readable lines come first; the last line is one JSON
object. Everything the benchmark writes goes under ``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gates
import workloads
from spans import OVERHEAD_METRIC, PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# A run that takes longer than this is stopped and counted as failed, so even
# the two runs every measurement makes stay inside three minutes.
CHILD_TIMEOUT_S = 75.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"]["name"])
    except (KeyError, TypeError):
        return "unknown"


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(nproc())
    env.update({
        "PYTHONPATH": os.pathsep.join([SRC, BENCH_DIR]),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "CORESEL_DISABLE_NUMBA": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def environment(seed: int, env: dict[str, str]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_child(workload: str, seed: int, trace: bool, work_dir: str, env: dict) -> dict:
    """One workload run in a fresh process; returns its result record."""
    os.makedirs(work_dir)
    params = workloads.params(workload, seed)
    spec = os.path.join(work_dir, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "params": params, "trace": trace,
                   "work_dir": work_dir, "run_id": os.path.basename(work_dir)}, fh)
    with open(os.path.join(work_dir, "log.txt"), "w", encoding="utf-8") as log:
        try:
            done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec],
                                  env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
            exit_code = done.returncode
        except subprocess.TimeoutExpired:
            exit_code = None
    result_path = os.path.join(work_dir, "result.json")
    record = {"seed": seed, "params": params, "trace": trace, "work_dir": work_dir,
              "exit_code": exit_code}
    if exit_code != 0 or not os.path.isfile(result_path):
        return {**record, "crashed": True}
    with open(result_path, encoding="utf-8") as fh:
        return {**json.load(fh), **record, "crashed": False}


def check_run(workload: str, run: dict) -> dict[str, list[str]]:
    """Gate failures of one run, keyed by the operation they fail."""
    if run["crashed"]:
        ops = workloads.OFFLINE_COMMANDS if workload == "offline-cli" else ("run",)
        return {op: [f"run process exited with {run['exit_code']}"] for op in ops}
    failures = {op: [f"exit code {rc}"] for op, rc in run["rc"].items() if rc != 0}
    if run.get("numba_enabled"):
        failures.setdefault(next(iter(run["rc"])), []).append("numba path enabled")
    if failures:
        return failures
    wd, p = run["work_dir"], run["params"]
    if workload == "offline-cli":
        found = {"build-graph": gates.graph_gates(wd, p["k"]),
                 "select": gates.selection_gates(wd, p["budget"], p["eta"])}
    else:
        found = {"run": gates.adaptive_gates(wd, p)}
    return {op: msgs for op, msgs in found.items() if msgs}


def repeat_failures(workload: str, runs: list[dict]) -> dict[int, dict[str, list[str]]]:
    """Runs whose outputs differ from the first run on the same inputs."""
    files = workloads.output_files(workload)
    first: dict[int, dict] = {}
    out: dict[int, dict[str, list[str]]] = {}
    for pos, run in enumerate(runs):
        if run["crashed"]:
            continue
        got = gates.digests(run["work_dir"], files)
        ref = first.setdefault(run["seed"], got)
        label = "traced" if run["trace"] else "untraced"
        for name, op in files.items():
            if got.get(name) != ref.get(name):
                out.setdefault(pos, {}).setdefault(op, []).append(
                    f"{label} repeat differs from the first run on the same inputs in {name}")
    return out


def loss_failures(runs: list[dict]) -> dict[int, str]:
    """Traced runs whose final_loss differs from an untraced run on the same inputs."""
    plain = {r["seed"]: final_loss(r) for r in runs if not r["trace"] and not r["crashed"]}
    out = {}
    for pos, run in enumerate(runs):
        if run["trace"] and not run["crashed"] and run["seed"] in plain:
            got, want = final_loss(run), plain[run["seed"]]
            if got != want:
                out[pos] = f"traced final_loss {got!r} differs from untraced {want!r}"
    return out


def final_loss(run: dict) -> float | None:
    path = os.path.join(run["work_dir"], "report.json")
    if run["crashed"] or not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["final_loss"]


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> list[dict]:
    """Run until ``seconds`` have passed; at least two runs, so repeats are checked.

    A new run starts only if the median run so far still fits in the time left.
    """
    env = child_env()
    runs: list[dict] = []
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        if trace:
            run_seed, traced = workloads.sub_seed(seed, 0), index % 2 == 1
        else:
            run_seed, traced = workloads.sub_seed(seed, max(0, index - 1)), False
        t0 = time.perf_counter()
        runs.append(run_child(workload, run_seed, traced,
                              os.path.join(out_dir, f"run{index:03d}"), env))
        walls.append(time.perf_counter() - t0)
        index += 1
        if index >= 2 and time.perf_counter() + statistics.median(walls) > deadline:
            return runs


def end_to_end(workload: str, good: list[dict]) -> tuple[dict, list[str]]:
    """Metrics for the final line, and human-readable lines for every metric."""
    med = {name: statistics.median(r[name] for r in good) for name in END_TO_END_UNITS}
    lines = [f"{name} {med[name]:.6g} {unit} (median of {len(good)} runs)"
             for name, unit in END_TO_END_UNITS.items()]
    if workload == "offline-cli":
        for name in ("build_graph_s", "select_s"):
            lines.append(f"{name} {statistics.median(r[name] for r in good):.6g} s "
                         f"(median of {len(good)} runs)")
    else:
        rates = [(r["params"]["run"]["total_steps"] - r["params"]["run"]["warmup_steps"])
                 / (r["run_s"] - r["setup_s"]) for r in good]
        gaps = [g * 1000.0 for r in good for g in r["intervals_s"]]
        beyond = sum(1 for g in gaps if g > quantile(gaps, 0.9))
        lines += [
            f"steps_per_s {statistics.median(rates):.6g} steps/s (median of {len(good)} runs)",
            f"interval_p50_ms {quantile(gaps, 0.5):.6g} ms ({len(gaps)} intervals)",
            f"interval_p90_ms {quantile(gaps, 0.9):.6g} ms ({len(gaps)} intervals, "
            f"{beyond} beyond)",
            f"final_loss {final_loss(good[0])!r} nats (program seed {good[0]['seed']})",
        ]
    metrics = {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def per_layer(good: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in good if r["trace"]]
    plain = [r for r in good if not r["trace"]]
    left_out = sorted({name for r in traced for name in r["left_out"]})
    missing = sorted({where for r in traced for where in r["missing_targets"]})
    metrics, lines = {}, []
    for name, unit, _reads, _value in PER_LAYER:
        if name in left_out or not traced:
            lines.append(f"{name} missing")
            continue
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} {value:.6g} {unit}")
    if traced and plain:
        name, unit = OVERHEAD_METRIC
        ratio = (statistics.median(r["run_s"] for r in traced)
                 / statistics.median(r["run_s"] for r in plain))
        metrics[name] = {"value": ratio, "unit": unit}
        lines.append(f"{name} {ratio:.6g} {unit} ({len(traced)} traced, "
                     f"{len(plain)} untraced runs)")
    lines += [f"missing target {where}" for where in missing]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "coresel", "__init__.py")):
        print(f"e2ebench: no coresel sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)   # the selection gate recomputes with coresel itself
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env_record = environment(args.seed, child_env())
    trace = bool(args.trace)
    runs = measure(args.workload, args.seed, args.seconds, trace, out_dir)
    env_record["numba_enabled"] = next((r["numba_enabled"] for r in runs if not r["crashed"]),
                                       None)

    failed_ops = [check_run(args.workload, run) for run in runs]
    for pos, extra in repeat_failures(args.workload, runs).items():
        for op, msgs in extra.items():
            failed_ops[pos].setdefault(op, []).extend(msgs)
    if args.workload != "offline-cli":
        for pos, msg in loss_failures(runs).items():
            failed_ops[pos].setdefault("run", []).append(msg)

    ops_per_run = len(workloads.OFFLINE_COMMANDS) if args.workload == "offline-cli" else 1
    attempted = ops_per_run * len(runs)
    failed = sum(len(f) for f in failed_ops)
    good = [r for r, f in zip(runs, failed_ops) if not f]

    print(f"e2ebench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)}")
    print("env " + json.dumps(env_record))
    for pos, f in enumerate(failed_ops):
        for op, msgs in f.items():
            for msg in msgs:
                print(f"FAIL run{pos:03d} {op}: {msg}")
    metrics: dict = {}
    if good:
        metrics, lines = per_layer(good) if trace else end_to_end(args.workload, good)
        for line in lines:
            print(line)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**summary, "env": env_record, "runs": runs}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
