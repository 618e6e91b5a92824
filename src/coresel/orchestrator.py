"""End-to-end training loop: warm-up, graph build, select/train/check cycle.

Each strategy trains the provider for exactly ``total_steps`` gradient steps
(warm-up included), so runs are comparable at matched budget. The adaptive
strategy re-selects a blended-objective coreset from a fresh candidate draw
every interval and runs the adaptive check after each full interval; the
baselines substitute their selection rule into the identical loop. Every
provider extract of the adaptive loop goes through ``extract_checked``, so
malformed or non-finite provider output raises DataError before any use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import UpdatePlan, check_and_update, extract_checked
from .errors import ConfigError
from .knn_graph import build_graph, build_lsh_index
from .scoring import selection_scores
from .selector import select_coreset
from .store import EmbeddingTable, ScoreLedger, SelectionConfig

STRATEGIES = ("adaptive", "random-static", "random-fixed-interval", "full-data")


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
        return [
            {
                "step": rec.start_step,
                "members": rec.members,
                "objective": rec.objective,
                "gains": rec.gains,
            }
            for rec in self.intervals
        ]


def loss_rows(report: dict) -> list[tuple[int, float]]:
    """(step, loss) for every train step of a report document, warm-up first."""
    rows = [(s + 1, loss) for s, loss in enumerate(report.get("warmup_losses", []))]
    for rec in report.get("intervals", []):
        start = rec["start_step"]
        rows.extend((start + i + 1, loss) for i, loss in enumerate(rec["losses"]))
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


def _warmup(cfg: SelectionConfig, provider, warmup_steps: int,
            rng: np.random.Generator) -> list[float]:
    losses = []
    batch_size = min(cfg.budget_b, provider.n)
    for _ in range(warmup_steps):
        batch = rng.choice(provider.n, size=batch_size, replace=False)
        losses.append(provider.train_step(batch))
    return losses


def run_adaptive(cfg: SelectionConfig, provider, total_steps: int,
                 warmup_steps: int | None = None) -> RunReport:
    """Full adaptive run; see the module docstring for the loop structure."""
    warmup_steps = _resolve_steps(cfg, provider, total_steps, warmup_steps)
    rng = np.random.default_rng(cfg.seed)
    stage_seconds = {"warmup": 0.0, "extract": 0.0, "graph": 0.0,
                     "select": 0.0, "train": 0.0, "check": 0.0}

    t0 = time.perf_counter()
    warmup_losses = _warmup(cfg, provider, warmup_steps, rng)
    stage_seconds["warmup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows, scores = extract_checked(provider, list(range(provider.n)))
    emb = EmbeddingTable(rows)
    ledger = ScoreLedger.from_scores(scores, step=provider.step, window=cfg.t_c + 1)
    stage_seconds["extract"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = build_graph(emb, cfg.k)
    lsh = build_lsh_index(emb, seed=cfg.seed)
    stage_seconds["graph"] = time.perf_counter() - t0

    intervals: list[IntervalRecord] = []
    plans: list[UpdatePlan] = []
    while provider.step < total_steps:
        start = provider.step
        interval_len = min(cfg.t_c, total_steps - start)

        t0 = time.perf_counter()
        candidates = np.sort(rng.choice(provider.n, size=cfg.n_s, replace=False))
        warped = selection_scores(ledger, cfg)
        selection = select_coreset(candidates, cfg.budget_b, emb, warped, cfg.lambda_blend)
        stage_seconds["select"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        members = np.asarray(selection.members, dtype=np.int64)  # insertion order
        losses = []
        for _ in range(interval_len):
            losses.append(provider.train_step(members))
            _, member_scores = extract_checked(provider, members, emb.d)
            ledger.record(members, provider.step, member_scores)
        stage_seconds["train"] += time.perf_counter() - t0

        check = None
        if interval_len == cfg.t_c:
            t0 = time.perf_counter()
            plan, graph = check_and_update(graph, emb, ledger, members, provider, cfg, rng, lsh)
            stage_seconds["check"] += time.perf_counter() - t0
            plans.append(plan)
            check = plan.event()

        intervals.append(IntervalRecord(
            start_step=start,
            end_step=provider.step,
            members=selection.members,
            objective=selection.objective_value,
            gains=selection.gains,
            losses=losses,
            check=check,
        ))

    return RunReport(
        strategy="adaptive",
        seed=cfg.seed,
        config=cfg.to_dict(),
        total_steps=total_steps,
        warmup_steps=warmup_steps,
        warmup_losses=warmup_losses,
        intervals=intervals,
        final_loss=provider.full_loss(),
        stage_seconds=stage_seconds,
        plans=plans,
    )


def run_baseline(strategy: str, cfg: SelectionConfig, provider, total_steps: int,
                 warmup_steps: int | None = None) -> RunReport:
    """Identical loop skeleton with the selection rule substituted."""
    if strategy not in ("random-static", "random-fixed-interval", "full-data"):
        raise ConfigError(f"unknown baseline strategy '{strategy}'")
    warmup_steps = _resolve_steps(cfg, provider, total_steps, warmup_steps)
    rng = np.random.default_rng(cfg.seed)
    stage_seconds = {"warmup": 0.0, "select": 0.0, "train": 0.0}

    t0 = time.perf_counter()
    warmup_losses = _warmup(cfg, provider, warmup_steps, rng)
    stage_seconds["warmup"] = time.perf_counter() - t0

    static_members: list[int] | None = None
    if strategy == "random-static":
        static_members = sorted(int(i) for i in rng.choice(provider.n, size=cfg.budget_b,
                                                           replace=False))
    intervals: list[IntervalRecord] = []
    while provider.step < total_steps:
        start = provider.step
        interval_len = min(cfg.t_c, total_steps - start)

        t0 = time.perf_counter()
        if strategy == "random-static":
            members = list(static_members)
        elif strategy == "random-fixed-interval":
            members = sorted(int(i) for i in rng.choice(provider.n, size=cfg.budget_b,
                                                        replace=False))
        else:
            members = list(range(provider.n))
        stage_seconds["select"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        losses = [provider.train_step(members) for _ in range(interval_len)]
        stage_seconds["train"] += time.perf_counter() - t0

        intervals.append(IntervalRecord(
            start_step=start,
            end_step=provider.step,
            members=members,
            objective=None,
            gains=[],
            losses=losses,
            check=None,
        ))

    return RunReport(
        strategy=strategy,
        seed=cfg.seed,
        config=cfg.to_dict(),
        total_steps=total_steps,
        warmup_steps=warmup_steps,
        warmup_losses=warmup_losses,
        intervals=intervals,
        final_loss=provider.full_loss(),
        stage_seconds=stage_seconds,
    )


def run(strategy: str, cfg: SelectionConfig, provider, total_steps: int,
        warmup_steps: int | None = None) -> RunReport:
    if strategy == "adaptive":
        return run_adaptive(cfg, provider, total_steps, warmup_steps)
    return run_baseline(strategy, cfg, provider, total_steps, warmup_steps)
