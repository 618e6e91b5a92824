"""End-to-end training loop: warm-up, then a select/train/check cycle.

``run`` is the one loop for every strategy. Each trains the provider for
exactly ``total_steps`` gradient steps (warm-up included), so runs compare at
matched budget, and passes each interval's members to the provider as one
int64 array, in insertion order. Strategies differ only in those members:
``adaptive`` selects a blended-objective coreset from a fresh candidate draw,
``random-static`` draws ``budget_b`` ids once, ``random-fixed-interval``
draws them every interval and ``full-data`` takes every id. Only ``adaptive``
extracts member scores at every step, records an interval's scores in one
ledger write at its end, and runs the adaptive check after each full interval.
Its k-NN graph is built by the first check that triggers, the first reader of
it; embeddings change only after that, so it is the graph of the set-up
embeddings. Each provider extract goes through ``extract_checked``, so
malformed or non-finite provider output raises DataError before any use.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import UpdatePlan, check_and_update, extract_checked
from .errors import ConfigError, FormatError
from .knn_graph import build_graph, build_lsh_index
from .scoring import selection_scores
from .selector import CoresetSelection, select_coreset
from .store import EmbeddingTable, ScoreLedger, SelectionConfig

STRATEGIES = ("adaptive", "random-static", "random-fixed-interval", "full-data")
# ``stage_seconds`` keys of an adaptive run, in order; a baseline times warmup, select, train
STAGES = ("warmup", "extract", "graph", "select", "train", "check")


@dataclass
class IntervalRecord:
    start_step: int
    end_step: int
    members: list[int]
    objective: float | None
    gains: list[float]
    losses: list[float]
    check: dict | None


@dataclass
class RunReport:
    strategy: str
    seed: int
    config: dict
    total_steps: int
    warmup_steps: int
    warmup_losses: list[float]
    intervals: list[IntervalRecord]
    final_loss: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    plans: list[UpdatePlan] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """The report document: every field in order, but not the timings or the plans."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("stage_seconds", "plans")}
        doc["intervals"] = [{f.name: getattr(rec, f.name) for f in fields(rec)}
                            for rec in self.intervals]
        return doc

    def update_events(self) -> list[dict]:
        return [plan.event() for plan in self.plans]

    def selection_events(self) -> list[dict]:
        return [CoresetSelection(rec.members, rec.objective, rec.gains).to_event(rec.start_step)
                for rec in self.intervals]


def _numbers(value, what: str) -> list:
    """``value`` if it is a list of JSON numbers (not true or false), else FormatError."""
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        return value
    raise FormatError(f"{what} must be a list of numbers")


def loss_rows(report) -> list[tuple[int, float]]:
    """(step, loss) for every train step of a report document, warm-up first.

    FormatError unless the document is an object whose ``warmup_losses`` is a
    list of numbers and whose ``intervals`` is a list of objects, each with an
    integer ``start_step`` and a list of numeric ``losses``.
    """
    if not isinstance(report, dict):
        raise FormatError("report document must be a JSON object")
    warmup = _numbers(report.get("warmup_losses"), "report key 'warmup_losses'")
    rows = [(s + 1, loss) for s, loss in enumerate(warmup)]
    intervals = report.get("intervals")
    if not isinstance(intervals, list):
        raise FormatError("report key 'intervals' must be a list")
    for i, rec in enumerate(intervals):
        start = rec.get("start_step") if isinstance(rec, dict) else None
        if type(start) is not int:
            raise FormatError(f"report interval {i} must be an object with an integer "
                              f"'start_step'")
        losses = _numbers(rec.get("losses"), f"report interval {i} key 'losses'")
        rows.extend((start + j + 1, loss) for j, loss in enumerate(losses))
    return rows


def default_warmup(total_steps: int) -> int:
    """Warm-up steps of a run that sets none: 10% of ``total_steps``, rounded."""
    return int(round(0.1 * total_steps))


def _resolve_steps(cfg: SelectionConfig, provider, total_steps: int,
                   warmup_steps: int | None) -> int:
    cfg.validate_for_dataset(provider.n)
    if total_steps < cfg.t_c:
        raise ConfigError(f"total_steps ({total_steps}) must be >= t_c ({cfg.t_c})")
    if warmup_steps is None:
        warmup_steps = default_warmup(total_steps)
    if warmup_steps < 0:
        raise ConfigError(f"warmup_steps must be >= 0, got {warmup_steps}")
    if warmup_steps >= total_steps:
        raise ConfigError(f"warmup_steps ({warmup_steps}) must leave room for training "
                          f"(total_steps={total_steps})")
    return warmup_steps


class _Clock:
    """Exclusive wall seconds per stage: a stage timed inside another counts only for itself."""

    def __init__(self, stages):
        self.seconds = dict.fromkeys(stages, 0.0)
        self._nested: list[float] = []  # per open stage, the seconds of stages inside it

    @contextmanager
    def __call__(self, stage: str):
        t0 = time.perf_counter()
        self._nested.append(0.0)
        yield
        spent = time.perf_counter() - t0
        self.seconds[stage] += spent - self._nested.pop()
        if self._nested:
            self._nested[-1] += spent


def run(strategy: str, cfg: SelectionConfig, provider, total_steps: int,
        warmup_steps: int | None = None) -> RunReport:
    """One run of ``strategy``; see the module docstring for the loop structure."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{strategy}', expected one of {list(STRATEGIES)}")
    warmup_steps = _resolve_steps(cfg, provider, total_steps, warmup_steps)
    adaptive = strategy == "adaptive"
    rng = np.random.default_rng(cfg.seed)
    timed = _Clock(STAGES if adaptive else ("warmup", "select", "train"))

    with timed("warmup"):
        size = min(cfg.budget_b, provider.n)
        warmup_losses = [provider.train_step(rng.choice(provider.n, size=size, replace=False))
                         for _ in range(warmup_steps)]
    if adaptive:
        with timed("extract"):
            rows, scores = extract_checked(provider, list(range(provider.n)))
            emb = EmbeddingTable(rows)
            ledger = ScoreLedger.from_scores(scores, step=provider.step, window=cfg.t_c + 1)
        with timed("graph"):
            lsh = build_lsh_index(emb, seed=cfg.seed)

        def graph():  # check_and_update calls it once, at the first check that triggers
            with timed("graph"):
                return build_graph(emb, cfg.k)

    intervals: list[IntervalRecord] = []
    plans: list[UpdatePlan] = []
    while provider.step < total_steps:
        start = provider.step
        interval_len = min(cfg.t_c, total_steps - start)

        objective, gains = None, []
        with timed("select"):
            if adaptive:
                candidates = np.sort(rng.choice(provider.n, size=cfg.n_s, replace=False))
                warped = selection_scores(ledger, cfg)
                selection = select_coreset(candidates, cfg.budget_b, emb, warped,
                                           cfg.lambda_blend)
                members = selection.members
                objective, gains = selection.objective_value, selection.gains
            elif strategy == "full-data":
                members = list(range(provider.n))
            elif strategy == "random-fixed-interval" or not intervals:
                members = sorted(int(i) for i in rng.choice(provider.n, size=cfg.budget_b,
                                                            replace=False))
            else:  # random-static keeps its first draw
                members = list(intervals[0].members)

        losses, steps, block = [], [], []
        with timed("train"):
            batch = np.asarray(members, dtype=np.int64)  # insertion order
            for _ in range(interval_len):
                losses.append(provider.train_step(batch))
                if adaptive:
                    steps.append(provider.step)
                    block.append(extract_checked(provider, batch, emb.d)[1])
            if adaptive:  # nothing reads the ledger inside an interval
                ledger.record(batch, steps, np.array(block))

        check = None
        if adaptive and interval_len == cfg.t_c:
            with timed("check"):
                plan, graph = check_and_update(graph, emb, ledger, batch, provider, cfg, rng,
                                               lsh)
            plans.append(plan)
            check = plan.event()
        intervals.append(IntervalRecord(start_step=start, end_step=provider.step,
                                        members=members, objective=objective, gains=gains,
                                        losses=losses, check=check))

    return RunReport(strategy=strategy, seed=cfg.seed, config=cfg.to_dict(),
                     total_steps=total_steps, warmup_steps=warmup_steps,
                     warmup_losses=warmup_losses, intervals=intervals,
                     final_loss=provider.full_loss(), stage_seconds=timed.seconds,
                     plans=plans)
