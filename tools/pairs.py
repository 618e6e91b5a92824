"""Paired e2ebench runs of two commits, and the gain rule applied to them.

    python3 tools/pairs.py --parent HEAD~1 --change HEAD --workload drift-repair \\
        --seeds 1-10 --seconds 4 --label my-change

Extracts each commit with ``git archive`` into a temporary directory (``.git``
is not touched) and runs that tree's own benchmark,
``python3 <tree>/e2ebench/run.py --workload W --seed S --seconds T --trace 0``,
reading each run's last output line, one JSON object. Each tree first makes
one discarded warm-up run, so the first BLAS calls after the machine was idle
are paid outside the pairs. Then the pairs run back to back: pair i runs seed
i on both sides, and which side goes first alternates.

Writes ``BENCH_<label>.json`` at the repository root: both commits, the
environment, every run's end-to-end metrics, ``correct``, ``failed`` and
``attempted``, and per metric both medians, the parent's quartiles and IQR,
the pairs the change won, the bound and direction from the change tree's
``BENCHMARK.json``, and whether the gain rule is met. The rule: at least
``MIN_PAIRS`` pairs; the change better in at least nine tenths of them, a tie
counting for neither side; and the change's median better than the parent's
by more than the parent's IQR.

Exits 1 if any run (warm-ups included) exits non-zero or reads
``"correct": false``; that run's output tail is kept in the file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Lines of a failed run's output kept in the file.
TAIL_LINES = 40


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile, as numpy's default method gives it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def gain_rule(parent: list[float], change: list[float], better: str) -> dict:
    """Pair counts, medians and parent quartiles of one metric, and whether the gain rule is met.

    ``parent[i]`` and ``change[i]`` are pair i's two runs; ``better`` is "lower" or "higher".
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quantile(parent, 0.25), quantile(parent, 0.75)
    met = (len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent)
           and sign * (p_med - c_med) > q3 - q1)
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "parent_median": p_med,
            "change_median": c_med, "parent_q1": q1, "parent_q3": q3,
            "parent_iqr": q3 - q1, "met": met}


def git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True, **kw)


def extract(commit: str, dest: str) -> None:
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", commit).stdout, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation of ``tree``; its record, with the output tail if it failed."""
    done = subprocess.run([sys.executable, os.path.join(tree, "e2ebench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {}
    record = {"exit_code": done.returncode, "correct": summary.get("correct"),
              "failed": summary.get("failed"), "attempted": summary.get("attempted"),
              "metrics": {name: m["value"] for name, m in summary.get("metrics", {}).items()}}
    if done.returncode != 0 or record["correct"] is not True:
        record["output_tail"] = (lines + done.stderr.splitlines())[-TAIL_LINES:]
    return record


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, got {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--change", required=True, help="commit of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="A-B: pair i runs seed i on both sides")
    parser.add_argument("--seconds", required=True, type=float, help="length of each run")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    commits = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        try:
            commits[side] = git("rev-parse", "--verify", f"{rev}^{{commit}}",
                                text=True).stdout.strip()
        except subprocess.CalledProcessError:
            parser.error(f"--{side} {rev!r} names no commit")
    doc = {
        "label": args.label, "workload": args.workload, "seconds": args.seconds,
        "commits": commits,
        "env": {"python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
                "nproc": len(os.sched_getaffinity(0)),
                "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "warmups": {}, "pairs": [], "metrics": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in commits}
        for side, commit in commits.items():
            extract(commit, trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["end_to_end"]

        def run(side: str, seed: int) -> dict:
            record = run_once(trees[side], args.workload, seed, args.seconds)
            print(f"{side} seed {seed}: exit {record['exit_code']} correct {record['correct']} "
                  f"{record['metrics']}", file=sys.stderr)
            return record

        for side in commits:
            doc["warmups"][side] = run(side, args.seeds[0])
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(side, seed)
            doc["pairs"].append(pair)

    runs = [*doc["warmups"].values(), *(p[s] for p in doc["pairs"] for s in commits)]
    failed = sum(r["exit_code"] != 0 or r["correct"] is not True for r in runs)
    measured = [p for p in doc["pairs"] if p["parent"]["metrics"] and p["change"]["metrics"]]
    for metric in declared:
        name = metric["name"]
        if not measured:
            break
        rule = gain_rule([p["parent"]["metrics"][name] for p in measured],
                         [p["change"]["metrics"][name] for p in measured], metric["better"])
        # the fraction by which the change's median is worse than the parent's; < 0 is better
        worse_by = ((rule["change_median"] - rule["parent_median"]) / rule["parent_median"]
                    * (1.0 if metric["better"] == "lower" else -1.0))
        doc["metrics"][name] = {"better": metric["better"], "bound": metric["bound"],
                                "worse_by": worse_by, **rule}
        print(f"{name}: parent {rule['parent_median']:.6g} change {rule['change_median']:.6g} "
              f"(parent IQR {rule['parent_iqr']:.6g}, worse by {worse_by:+.3f}, bound "
              f"{metric['bound']}), change better in {rule['wins']} of "
              f"{rule['pairs']} pairs, gain rule {'met' if rule['met'] else 'not met'}")
    doc["failed_runs"] = failed
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}; {failed} of {len(runs)} runs failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
