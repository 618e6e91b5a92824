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
import errno
import io
import json
import os
import stat
import sys

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
    opened,
    write_embeddings,
    write_score_stream,
)


def _write_all(files: list[tuple[str, str | bytes]]) -> None:
    """Write every (path, payload) or none: after a failure each path holds what it held before.

    Each payload goes to a temp file beside its path, with the mode a plain
    ``open`` would leave: a new path's is 0o666 under the umask, and a
    replaced file's is its old mode, set on a temp made 0o600, so the temp is
    never wider than its final mode. Then, path by path, an existing
    file is renamed aside and the temp file renamed into place. A failure
    anywhere undoes the renames done so far, latest first, and removes the
    temp files before re-raising. A path that is a directory raises
    IsADirectoryError, and two paths that resolve to one file ConfigError,
    before anything is written; every OSError names the path asked for, not a
    temp file.
    """
    seen: dict[str, str] = {}
    for path, _ in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"output paths {seen[real]} and {path} name the same file")
        seen[real] = path
    temps: list[str] = []
    undo: list[tuple[str, str | None]] = []    # (src, dst): rename back, or remove src
    try:
        for path, payload in files:
            if isinstance(payload, str):
                payload = payload.encode("utf-8")
            try:
                mode = stat.S_IMODE(os.stat(path).st_mode)
            except FileNotFoundError:
                mode = None
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               f".tmp-{os.urandom(8).hex()}.part")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                         0o666 if mode is None else 0o600)
            temps.append(tmp)  # only now: a name clash must not unlink another's file
            with os.fdopen(fd, "wb") as fh:
                if mode is not None:
                    os.fchmod(fd, mode)
                fh.write(payload)
        for (path, _), tmp in zip(files, temps):
            if os.path.isfile(path) or os.path.islink(path):
                os.replace(path, tmp + ".old")
                undo.append((tmp + ".old", path))
            os.replace(tmp, path)
            undo.append((path, None))
    except BaseException as exc:
        for src, dst in reversed(undo):
            with contextlib.suppress(OSError):
                if dst is None:
                    os.unlink(src)
                else:
                    os.replace(src, dst)
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc  # the errno's subclass
        raise
    for src, dst in undo:
        if dst is not None:
            with contextlib.suppress(OSError):
                os.unlink(src)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_all([(out_path, text)])


def _jsonl(records) -> str:
    """One strict JSON object per line: a NaN or infinity raises instead of being written."""
    return "".join(json.dumps(r, allow_nan=False) + "\n" for r in records)


# The simulator block of a run config, and the flags of ``simulate``: name -> type.
# ``SimState.create`` states the defaults of the keys not required.
SIM_KEYS = {"n": int, "dim": int, "classes": int, "cluster_spread": float,
            "learning_rate": float, "drift_rate": float}
SIM_REQUIRED = ("n", "dim", "classes")


def _read_json(path: str, what: str):
    try:
        with opened(path, "r") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_run_config(path: str):
    """Parse and validate the nested run-config document."""
    raw = _read_json(path, "config")
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
    check_keys(sim_block, SIM_KEYS, SIM_REQUIRED, "in simulator block")
    return cfg, strategy, run_block["total_steps"], run_block.get("warmup_steps"), sim_block


def _build_sim(seed: int, params: dict) -> SimState:
    """The simulator of ``params``' SIM_KEYS; an absent or None key takes its default."""
    kwargs = {key: params[key] for key in SIM_KEYS if params.get(key) is not None}
    if "drift_rate" in kwargs:
        kwargs["drift"] = kwargs.pop("drift_rate")
    return SimState.create(seed=seed, **kwargs)


def cmd_build_graph(args) -> int:
    emb = ingest_embeddings(args.embeddings)
    graph = build_graph(emb, args.k)
    buf = io.StringIO()
    dump_graph(graph, buf)
    _write_all([(args.out, buf.getvalue())])
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
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    sim = _build_sim(args.seed, vars(args))
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
    _write_all([(args.out_embeddings, buf.getvalue()), (args.out_scores, sbuf.getvalue())])
    print(f"simulated n={sim.n} d={sim.classes} steps={sim.step} "
          f"train_acc={sim.accuracy():.3f}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    cfg, _, total_steps, warmup_steps, sim_block = load_run_config(args.config)
    if warmup_steps is None:
        warmup_steps = default_warmup(total_steps)
    sim = _build_sim(cfg.seed, sim_block)
    report = run("adaptive", cfg, sim, warmup_steps + cfg.t_c, warmup_steps)
    events = report.update_events()
    _emit(_jsonl(events), args.out)
    print(f"check at step {events[0]['step']}: triggered={events[0]['triggered']}",
          file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    cfg, strategy, total_steps, warmup_steps, sim_block = load_run_config(args.config)
    sim = _build_sim(cfg.seed, sim_block)
    report = run(strategy, cfg, sim, total_steps, warmup_steps)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_all([
        # not strict: the report echoes the config as given, and "delta": Infinity is legal
        (os.path.join(args.out_dir, "report.json"), json.dumps(report.to_dict(), indent=2) + "\n"),
        (os.path.join(args.out_dir, "events.jsonl"), _jsonl(report.update_events())),
        (os.path.join(args.out_dir, "selections.jsonl"), _jsonl(report.selection_events())),
    ])
    timings = " ".join(f"{k}={v:.2f}s" for k, v in report.stage_seconds.items())
    print(f"strategy={strategy} final_loss={report.final_loss:.6f} {timings}",
          file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    doc = _read_json(args.report, "report")
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
    p.add_argument("--lambda-blend", dest="lambda_blend", type=float,
                   default=SelectionConfig.lambda_blend)
    p.add_argument("--gamma", type=float, default=SelectionConfig.gamma_temp)
    p.add_argument("--raw-warp", action="store_true",
                   help="skip modal normalization of warped scores")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="train the toy model and emit fixture files")
    for key, kind in SIM_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, required=key in SIM_REQUIRED)
    p.add_argument("--steps", type=int, required=True)
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
