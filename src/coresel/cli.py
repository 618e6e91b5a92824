"""Command-line surface: build-graph, select, simulate, check, run, report.

Exit codes: 0 success, 2 usage/config error, 3 data/format error, 4 resource
error. Logs go to stderr; data goes to files or stdout. A command's files are
written all or none (temp files, then renames undone on failure), so a failed
command leaves no partial output and never mixes its files with an earlier
run's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from .errors import ConfigError, CoreselError, DataError
from .knn_graph import build_graph, dump_graph
from .orchestrator import STRATEGIES, default_warmup, loss_rows, run
from .scoring import selection_scores
from .selector import select_coreset
from .simulator import SimState
from .store import (
    EmbeddingTable,
    ScoreLedger,
    SelectionConfig,
    check_keys,
    ingest_embeddings,
    load_score_stream,
    write_embeddings,
    write_score_stream,
)


def _write_all(files: dict[str, str | bytes]) -> None:
    """Write every file or none: after a failure each path holds what it held before.

    Each payload goes to a temp file beside its path. Then, path by path, an
    existing file is renamed aside and the temp file renamed into place. A
    failure anywhere undoes the renames done so far, latest first, and removes
    the temp files before re-raising.
    """
    temps: list[str] = []
    undo: list[tuple[str, str | None]] = []    # (src, dst): rename back, or remove src
    try:
        for path, payload in files.items():
            if isinstance(payload, str):
                payload = payload.encode("utf-8")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", suffix=".part")
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
        for path, tmp in zip(files, temps):
            if os.path.isfile(path) or os.path.islink(path):
                os.replace(path, tmp + ".old")
                undo.append((tmp + ".old", path))
            os.replace(tmp, path)
            undo.append((path, None))
    except BaseException:
        for src, dst in reversed(undo):
            with contextlib.suppress(OSError):
                if dst is None:
                    os.unlink(src)
                else:
                    os.replace(src, dst)
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    for src, dst in undo:
        if dst is not None:
            with contextlib.suppress(OSError):
                os.unlink(src)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_all({out_path: text})


def _jsonl(records) -> str:
    """One strict JSON object per line: a NaN or infinity raises instead of being written."""
    return "".join(json.dumps(r, allow_nan=False) + "\n" for r in records)


def load_run_config(path: str):
    """Parse and validate the nested run-config document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    blocks = ("selection", "run", "simulator")
    check_keys(raw, dict.fromkeys(blocks, dict), blocks, "at the top level")
    cfg = SelectionConfig.from_dict(raw["selection"])

    run_block = raw["run"]
    check_keys(run_block, {"strategy": str, "total_steps": int, "warmup_steps": int},
               ("total_steps",), "in run block")
    strategy = run_block.get("strategy", "adaptive")
    if strategy not in STRATEGIES:
        raise ConfigError(f"config key 'strategy' must be one of {list(STRATEGIES)}, "
                          f"got '{strategy}'")

    sim_block = raw["simulator"]
    check_keys(sim_block, {"n": int, "dim": int, "classes": int, "cluster_spread": float,
                           "learning_rate": float, "drift_rate": float},
               ("n", "dim", "classes"), "in simulator block")
    return cfg, strategy, run_block["total_steps"], run_block.get("warmup_steps"), sim_block


def _build_sim(cfg: SelectionConfig, sim_block: dict) -> SimState:
    return SimState.create(
        n=sim_block["n"],
        dim=sim_block["dim"],
        classes=sim_block["classes"],
        cluster_spread=sim_block.get("cluster_spread", 1.0),
        learning_rate=sim_block.get("learning_rate", 0.1),
        seed=cfg.seed,
        drift=sim_block.get("drift_rate", 0.0),
    )


def cmd_build_graph(args) -> int:
    emb = ingest_embeddings(args.embeddings)
    graph = build_graph(emb, args.k)
    buf = io.StringIO()
    dump_graph(graph, buf)
    _write_all({args.out: buf.getvalue()})
    print(f"n={graph.n} k={graph.k} edges={graph.edge_count()}", file=sys.stderr)
    return 0


def cmd_select(args) -> int:
    emb = ingest_embeddings(args.embeddings)
    ledger = load_score_stream(args.scores, emb.n)
    cfg = SelectionConfig(
        budget_b=args.budget,
        n_s=emb.n,
        budget_eta=args.eta,
        lambda_blend=args.lambda_blend,
        gamma_temp=args.gamma,
        normalize_warp=not args.raw_warp,
    )
    warped = selection_scores(ledger, cfg)
    selection = select_coreset(range(emb.n), args.budget, emb, warped, args.lambda_blend)
    step = max(int(ledger.steps[:, -1].max()), 0)
    _emit(_jsonl([selection.to_event(step)]), args.out)
    print(f"selected {len(selection.members)} of {emb.n} "
          f"objective={selection.objective_value:.6f}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    sim = SimState.create(
        n=args.n,
        dim=args.dim,
        classes=args.classes,
        cluster_spread=args.cluster_spread,
        learning_rate=args.learning_rate,
        seed=args.seed,
        drift=args.drift_rate,
    )
    rng = np.random.default_rng(args.seed)
    batch = min(64, sim.n)
    for _ in range(args.steps):
        sim.train_step(rng.choice(sim.n, size=batch, replace=False))
    rows, scores = sim.extract_features(range(sim.n))
    buf = io.BytesIO()
    write_embeddings(EmbeddingTable(rows), buf)
    ledger = ScoreLedger.from_scores(scores, step=sim.step)
    sbuf = io.StringIO()
    write_score_stream(ledger, sbuf)
    _write_all({args.out_embeddings: buf.getvalue(), args.out_scores: sbuf.getvalue()})
    print(f"simulated n={sim.n} d={sim.classes} steps={sim.step} "
          f"train_acc={sim.accuracy():.3f}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    cfg, _, total_steps, warmup_steps, sim_block = load_run_config(args.config)
    if warmup_steps is None:
        warmup_steps = default_warmup(total_steps)
    sim = _build_sim(cfg, sim_block)
    report = run("adaptive", cfg, sim, warmup_steps + cfg.t_c, warmup_steps)
    events = report.update_events()
    _emit(_jsonl(events), args.out)
    print(f"check at step {events[0]['step']}: triggered={events[0]['triggered']}",
          file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    cfg, strategy, total_steps, warmup_steps, sim_block = load_run_config(args.config)
    sim = _build_sim(cfg, sim_block)
    report = run(strategy, cfg, sim, total_steps, warmup_steps)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_all({
        # not strict: the report echoes the config as given, and "delta": Infinity is legal
        os.path.join(args.out_dir, "report.json"): json.dumps(report.to_dict(), indent=2) + "\n",
        os.path.join(args.out_dir, "events.jsonl"): _jsonl(report.update_events()),
        os.path.join(args.out_dir, "selections.jsonl"): _jsonl(report.selection_events()),
    })
    timings = " ".join(f"{k}={v:.2f}s" for k, v in report.stage_seconds.items())
    print(f"strategy={strategy} final_loss={report.final_loss:.6f} {timings}",
          file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"report file {args.report} is not valid JSON: {exc}") from exc
    text = "step,loss\n" + "".join(f"{step},{loss}\n" for step, loss in loss_rows(doc))
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coresel",
        description="Graph-guided adaptive coreset selection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build the mutual k-NN graph from an embedding file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("select", help="select a coreset from embeddings and a score stream")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--lambda-blend", dest="lambda_blend", type=float, default=0.6)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--raw-warp", action="store_true",
                   help="skip modal normalization of warped scores")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="train the toy model and emit fixture files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--cluster-spread", dest="cluster_spread", type=float, default=1.0)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.1)
    p.add_argument("--drift-rate", dest="drift_rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-embeddings", dest="out_embeddings", required=True)
    p.add_argument("--out-scores", dest="out_scores", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run one adaptive check against the simulator")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="full run (adaptive or baseline) from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render a report's loss curve as CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 3
    except IsADirectoryError as exc:
        print(f"error: expected a file: {exc.filename}", file=sys.stderr)
        return 3
    except CoreselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
