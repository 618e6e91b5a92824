"""Span tracing of coresel's layer boundaries, applied from outside the package.

Every wrap target lives in ``TARGETS``: a span name plus the dotted name
under which other modules reach the function (``coresel.dynamics.repair_graph``
is what ``check_and_update`` calls, so that is where the wrapper goes). A
target that no longer resolves is reported as missing and every metric that
reads it is omitted, so the benchmark keeps running after refactors.

A span records (name, start, end, parent span, run id). Observers read counts
from a call's arguments and return value after the span closes; their time is
excluded from every open span, so a count never inflates a measured time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, str) and os.path.isfile(path) else 0


# -- observers: (tracer, fn, args, kwargs, result) -> attrs for the span -------

def _obs_pairwise(tr, fn, args, kwargs, result):
    n = int(np.shape(_bound(fn, args, kwargs)["x"])[0])
    return {"pairs": n * n, "bytes_computed": int(result.nbytes)}


def _obs_rows(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m = len(a["rows"])
    return {"rows": m, "pairs": m * int(np.shape(a["x"])[0])}


def _obs_graph(tr, fn, args, kwargs, result):
    tr.state["graph"] = result
    return {}


def _exact_topk(rows: np.ndarray, ids: list[int], k: int, block: int = 64) -> list[set]:
    out = []
    for start in range(0, len(ids), block):
        chunk = ids[start:start + block]
        diff = rows[chunk, None, :] - rows[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[np.arange(len(chunk)), chunk] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out.extend(set(row.tolist()) for row in order)
    return out


def _obs_repair(tr, fn, args, kwargs, result):
    tr.state["graph"] = result
    a = _bound(fn, args, kwargs)
    changed = sorted(set(int(c) for c in a["changed"]))
    k = int(result.k)
    hits = 0
    if changed:
        exact = _exact_topk(np.asarray(a["emb"].rows, dtype=np.float64), changed, k)
        for u, truth in zip(changed, exact):
            hits += len(truth & set(int(j) for j in result.knn_ids[u]))
    return {"changed": len(changed), "recall_hits": hits, "recall_base": k * len(changed)}


def _obs_lsh_query(tr, fn, args, kwargs, result):
    return {"candidates": len(result)}


def _obs_check(tr, fn, args, kwargs, result):
    plan = result[0]
    return {"triggered": int(bool(plan.triggered)), "repaired": int(bool(plan.graph_repaired))}


def _obs_len_result(tr, fn, args, kwargs, result):
    return {"size": len(result)}


def _obs_propagated(arg_name):
    def observe(tr, fn, args, kwargs, result):
        return {"propagated": len(result) - len(_bound(fn, args, kwargs)[arg_name])}
    return observe


def _obs_selection_scores(tr, fn, args, kwargs, result):
    tr.state["ledger"] = _bound(fn, args, kwargs)["ledger"]
    return {}


def _obs_extract(tr, fn, args, kwargs, result):
    return {"rows": len(result[1])}


def _obs_ingest(tr, fn, args, kwargs, result):
    return {"bytes": _file_size(_bound(fn, args, kwargs)["source"])}


def _obs_replay(tr, fn, args, kwargs, result):
    source = _bound(fn, args, kwargs)["source"]
    with open(source, "rb") as fh:
        return {"lines": sum(1 for line in fh if line.strip())}


def _obs_write(tr, fn, args, kwargs, result):
    target = _bound(fn, args, kwargs)["target"]
    return {"bytes": target.tell() if hasattr(target, "tell") else _file_size(target)}


def _obs_run(tr, fn, args, kwargs, result):
    return {"intervals": len(result.intervals)}


def _obs_cli_command(tr, fn, args, kwargs, result):
    ns = vars(_bound(fn, args, kwargs)["args"])
    paths = [ns.get(key) for key in ("out", "out_embeddings", "out_scores")]
    out_dir = ns.get("out_dir")
    if isinstance(out_dir, str) and os.path.isdir(out_dir):
        paths += [os.path.join(out_dir, name) for name in sorted(os.listdir(out_dir))]
    return {"bytes_written": sum(_file_size(p) for p in paths)}


@dataclass(frozen=True)
class Target:
    span: str
    where: str                       # "module:attribute" or "module:Class.method"
    observe: Callable | None = None


TARGETS = (
    Target("kernels.pairwise", "coresel.knn_graph:pairwise_sq_dists", _obs_pairwise),
    Target("kernels.rows", "coresel.knn_graph:rows_sq_dists", _obs_rows),
    Target("kernels.greedy", "coresel.selector:greedy_select"),
    Target("knn_graph.build", "coresel.orchestrator:build_graph", _obs_graph),
    Target("knn_graph.build", "coresel.cli:build_graph", _obs_graph),
    Target("knn_graph.lsh_build", "coresel.orchestrator:build_lsh_index"),
    Target("knn_graph.repair", "coresel.dynamics:repair_graph", _obs_repair),
    Target("knn_graph.lsh", "coresel.knn_graph:LshIndex.query", _obs_lsh_query),
    Target("dynamics.check", "coresel.orchestrator:check_and_update", _obs_check),
    Target("dynamics.discrepancy", "coresel.dynamics:discrepancy_check"),
    Target("dynamics.recal", "coresel.dynamics:select_recal_set", _obs_len_result),
    Target("dynamics.anchor_sets", "coresel.dynamics:qualifying_anchor_sets", _obs_len_result),
    Target("dynamics.propagate_scores", "coresel.dynamics:propagate_scores",
           _obs_propagated("recal_new")),
    Target("dynamics.propagate_embeddings", "coresel.dynamics:propagate_embeddings",
           _obs_propagated("recal_new_rows")),
    Target("selector.select", "coresel.orchestrator:select_coreset"),
    Target("selector.select", "coresel.cli:select_coreset"),
    Target("scoring.selection_scores", "coresel.orchestrator:selection_scores",
           _obs_selection_scores),
    Target("scoring.selection_scores", "coresel.cli:selection_scores", _obs_selection_scores),
    Target("store.record", "coresel.store:ScoreLedger.record"),
    Target("store.ingest", "coresel.cli:ingest_embeddings", _obs_ingest),
    Target("store.replay", "coresel.cli:load_score_stream", _obs_replay),
    Target("store.write", "coresel.cli:write_embeddings", _obs_write),
    Target("store.write", "coresel.cli:write_score_stream", _obs_write),
    Target("simulator.train_step", "coresel.simulator:SimState.train_step"),
    Target("simulator.extract", "coresel.simulator:SimState.extract_features", _obs_extract),
    Target("orchestrator", "coresel.cli:run", _obs_run),
    Target("cli.simulate", "coresel.cli:cmd_simulate", _obs_cli_command),
    Target("cli.build_graph", "coresel.cli:cmd_build_graph", _obs_cli_command),
    Target("cli.select", "coresel.cli:cmd_select", _obs_cli_command),
    Target("cli.run", "coresel.cli:cmd_run", _obs_cli_command),
    Target("cli.dump_graph", "coresel.cli:dump_graph"),
)


def _resolve(where: str):
    """(owner, attribute name, original) for a target, or None if it is gone."""
    module_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = inspect.getattr_static(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "excluded", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.excluded = 0.0       # observer time spent while this span was open
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded


class Tracer:
    """Installs the wrappers, keeps spans in memory, and removes itself on exit."""

    def __init__(self, run_id: str, targets=TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []          # target locations that did not resolve
        self.broken: set[str] = set()         # span names whose observer raised
        self.state: dict = {}
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            found = _resolve(target.where)
            if found is None:
                self.missing.append(target.where)
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(target, original))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def missing_spans(self) -> set[str]:
        gone = {t.span for t in self.targets if t.where in self.missing}
        return gone | self.broken

    def _wrap(self, target: Target, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), target.span, stack[-1].id if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.observe is not None:
                self._observe(target, span, fn, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, target, span, fn, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        try:
            span.attrs = target.observe(self, fn, args, kwargs, result)
        except Exception:  # a renamed argument or field must not stop the run
            self.broken.add(target.span)
        spent = time.perf_counter() - t0
        for open_span in self._stack:
            open_span.excluded += spent

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": s.id, "name": s.name,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     "excluded": s.excluded, **s.attrs}) + "\n")


# -- per-layer metrics ----------------------------------------------------------

class _Totals:
    def __init__(self, spans: list[Span]):
        by_id = {s.id: s for s in spans}
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.child_seconds: dict[str, float] = {}
        self.attrs: dict[str, dict[str, float]] = {}
        self.by_id = by_id
        self.spans = spans
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.seconds[s.name] = self.seconds.get(s.name, 0.0) + s.duration
            bucket = self.attrs.setdefault(s.name, {})
            for key, value in s.attrs.items():
                bucket[key] = bucket.get(key, 0) + value
            if s.parent is not None:
                parent = by_id[s.parent].name
                self.child_seconds[parent] = self.child_seconds.get(parent, 0.0) + s.duration

    def s(self, name):
        return self.seconds.get(name, 0.0)

    def self_s(self, name):
        return self.s(name) - self.child_seconds.get(name, 0.0)

    def n(self, name):
        return self.calls.get(name, 0)

    def attr(self, name, key):
        return self.attrs.get(name, {}).get(key, 0)

    def nested_attr(self, name, key, ancestor):
        """Sum of an attribute over spans of ``name`` that run inside ``ancestor``."""
        total = 0
        for s in self.spans:
            if s.name != name:
                continue
            parent = s.parent
            while parent is not None:
                up = self.by_id[parent]
                if up.name == ancestor:
                    total += s.attrs.get(key, 0)
                    break
                parent = up.parent
        return total


def _ratio(num, den):
    return num / den if den else 0.0


def _graph_edges(tr, t):
    return tr.state["graph"].edge_count()


def _mutual_ratio(tr, t):
    g = tr.state["graph"]
    return _ratio(2 * g.edge_count(), g.n * g.k)


def _ledger_entries(tr, t):
    ledger = tr.state["ledger"]
    return sum(len(ledger.steps_for(i)) for i in range(ledger.n))


def _span_metrics(span, *fields):
    """Standard metrics of one span name: calls, s, self_s, or an attribute."""
    out = []
    for f in fields:
        if f == "calls":
            out.append((f"{span}.calls", "count", (span,), lambda tr, t, sp=span: t.n(sp)))
        elif f == "s":
            out.append((f"{span}.s", "s", (span,), lambda tr, t, sp=span: t.s(sp)))
        elif f == "self_s":
            out.append((f"{span}.self_s", "s", (span,), lambda tr, t, sp=span: t.self_s(sp)))
        else:
            unit = "bytes" if "bytes" in f else "count"
            out.append((f"{span}.{f}", unit, (span,),
                        lambda tr, t, sp=span, key=f: t.attr(sp, key)))
    return out


# (metric name, unit, span names it reads, value function(tracer, totals))
PER_LAYER = (
    _span_metrics("kernels.pairwise", "calls", "s", "pairs", "bytes_computed")
    + _span_metrics("kernels.rows", "calls", "s", "rows", "pairs")
    + _span_metrics("kernels.greedy", "calls", "s")
    + _span_metrics("knn_graph.build", "s", "self_s")
    + _span_metrics("knn_graph.lsh_build", "s")
    + _span_metrics("knn_graph.repair", "calls", "s", "self_s", "changed")
    + [
        ("knn_graph.repair.dist_rows", "count", ("knn_graph.repair", "kernels.rows"),
         lambda tr, t: t.nested_attr("kernels.rows", "rows", "knn_graph.repair")),
        ("knn_graph.repair.recall", "ratio", ("knn_graph.repair",),
         lambda tr, t: _ratio(t.attr("knn_graph.repair", "recall_hits"),
                              t.attr("knn_graph.repair", "recall_base"))),
        ("knn_graph.lsh.queries", "count", ("knn_graph.lsh",),
         lambda tr, t: t.n("knn_graph.lsh")),
        ("knn_graph.lsh.candidates", "count", ("knn_graph.lsh",),
         lambda tr, t: t.attr("knn_graph.lsh", "candidates")),
        ("knn_graph.edges", "count", ("knn_graph.build", "knn_graph.repair"), _graph_edges),
        ("knn_graph.mutual_ratio", "ratio", ("knn_graph.build", "knn_graph.repair"),
         _mutual_ratio),
    ]
    + _span_metrics("dynamics.check", "calls", "s", "self_s", "triggered", "repaired")
    + [
        ("dynamics.check.trigger_ratio", "ratio", ("dynamics.check",),
         lambda tr, t: _ratio(t.attr("dynamics.check", "triggered"), t.n("dynamics.check"))),
    ]
    + _span_metrics("dynamics.discrepancy", "s")
    + _span_metrics("dynamics.recal", "s", "size")
    + _span_metrics("dynamics.anchor_sets", "calls", "s")
    + [
        ("dynamics.anchor_qualified", "count", ("dynamics.anchor_sets",),
         lambda tr, t: t.attr("dynamics.anchor_sets", "size")),
    ]
    + _span_metrics("dynamics.propagate_scores", "s")
    + [
        ("dynamics.propagated_scores", "count", ("dynamics.propagate_scores",),
         lambda tr, t: t.attr("dynamics.propagate_scores", "propagated")),
    ]
    + _span_metrics("dynamics.propagate_embeddings", "s")
    + [
        ("dynamics.propagated_embeddings", "count", ("dynamics.propagate_embeddings",),
         lambda tr, t: t.attr("dynamics.propagate_embeddings", "propagated")),
    ]
    + _span_metrics("selector.select", "calls", "s", "self_s")
    + _span_metrics("scoring.selection_scores", "calls", "s")
    + _span_metrics("store.record", "calls", "s")
    + [
        ("store.ledger_entries", "count", ("scoring.selection_scores",), _ledger_entries),
    ]
    + _span_metrics("store.ingest", "s", "bytes")
    + _span_metrics("store.replay", "s", "lines")
    + _span_metrics("store.write", "bytes")
    + _span_metrics("simulator.train_step", "calls", "s")
    + _span_metrics("simulator.extract", "calls", "rows", "s")
    + [
        ("orchestrator.self_s", "s", ("orchestrator",), lambda tr, t: t.self_s("orchestrator")),
        ("orchestrator.intervals", "count", ("orchestrator",),
         lambda tr, t: t.attr("orchestrator", "intervals")),
    ]
    + _span_metrics("cli.simulate", "s")
    + _span_metrics("cli.build_graph", "s")
    + _span_metrics("cli.select", "s")
    + _span_metrics("cli.dump_graph", "s")
    + [
        ("cli.bytes_written", "bytes",
         ("cli.simulate", "cli.build_graph", "cli.select", "cli.run"),
         lambda tr, t: sum(t.attr(name, "bytes_written") for name in
                           ("cli.simulate", "cli.build_graph", "cli.select", "cli.run"))),
    ]
)

OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the tracer's spans, and the metric names left out.

    A metric is left out when a span it reads has a missing target or a failed
    observer, or when the state it reads never appeared (no graph was built in
    this workload, for example). It is never reported as zero in that case.
    """
    totals = _Totals(tracer.spans)
    gone = tracer.missing_spans()
    values: dict[str, float] = {}
    left_out: list[str] = []
    for name, _unit, reads, value in PER_LAYER:
        if gone.intersection(reads):
            left_out.append(name)
            continue
        try:
            values[name] = value(tracer, totals)
        except Exception:  # e.g. no graph or ledger seen, or a renamed field
            left_out.append(name)
    return values, left_out
