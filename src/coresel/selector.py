"""Blended coverage/importance objective and its greedy maximizer.

The objective of a coreset is lambda * (sum over the candidate pool of each
sample's best cosine similarity to a coreset member) + (1 - lambda) * (sum of
the members' warped importance scores). Greedy selection picks the maximum
marginal gain each round; a brute-force enumerator serves as the optimality
oracle for the (1 - 1/e) guarantee.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .store import EmbeddingTable

BRUTE_FORCE_LIMIT = 10 ** 6


@dataclass
class CoresetSelection:
    members: list[int]          # greedy insertion order
    objective_value: float
    gains: list[float]          # marginal gain at each insertion

    def to_event(self, step: int) -> dict:
        return {
            "step": step,
            "members": list(self.members),
            "objective": self.objective_value,
            "gains": list(self.gains),
        }


def _unit_rows(emb: EmbeddingTable, ids: np.ndarray) -> np.ndarray:
    if ids.size and int(ids[-1]) >= emb.n:
        raise DomainError(f"sample {int(ids[-1])} out of range [0, {emb.n})")
    rows = emb.rows[ids]
    norms = np.linalg.norm(rows, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DomainError(f"sample {int(ids[zero[0]])} has a zero-norm embedding")
    return rows / norms[:, None]


def _as_sorted_ids(values, what: str) -> np.ndarray:
    ids = np.asarray(sorted(int(v) for v in values), dtype=np.int64)
    if ids.size and (ids[0] < 0 or np.unique(ids).size != ids.size):
        raise DomainError(f"{what} must be distinct non-negative sample ids")
    return ids


def representation_score(core, pool, emb: EmbeddingTable) -> float:
    """Sum over the pool of each sample's best cosine similarity to the core."""
    core_ids = _as_sorted_ids(core, "core")
    pool_ids = _as_sorted_ids(pool, "pool")
    if core_ids.size == 0:
        return 0.0
    pool_unit = _unit_rows(emb, pool_ids)
    core_unit = _unit_rows(emb, core_ids)
    return float((pool_unit @ core_unit.T).max(axis=1).sum())


def coreset_objective(core, pool, emb: EmbeddingTable, warped, lambda_blend: float) -> float:
    if not 0.0 <= lambda_blend <= 1.0:
        raise DomainError(f"lambda_blend must be in [0, 1], got {lambda_blend}")
    warped = np.asarray(warped, dtype=np.float64)
    core_ids = _as_sorted_ids(core, "core")
    importance = float(warped[core_ids].sum()) if core_ids.size else 0.0
    return lambda_blend * representation_score(core_ids, pool, emb) + (1.0 - lambda_blend) * importance


def greedy_select(cos_sim, warped, lam, budget) -> tuple[np.ndarray, np.ndarray]:
    """Greedy argmax of blended marginal gains over a cosine-similarity matrix.

    Returns (members, gains) as local indices into the candidate pool, in
    insertion order. Ties break toward the smaller index. The coverage term of
    the first pick is the plain column sum (the empty coreset covers nothing).
    """
    n = cos_sim.shape[0]
    members = np.empty(budget, dtype=np.int64)
    gains = np.empty(budget, dtype=np.float64)
    selected = np.zeros(n, dtype=bool)
    cov = np.zeros(n, dtype=np.float64)
    # One (n, n) buffer for every round: fresh temporaries this large go through
    # mmap and munmap each round, which doubled run time on a 768-sample pool.
    scratch = np.empty_like(cos_sim, dtype=np.float64)
    for r in range(budget):
        if r == 0:
            rep_gain = cos_sim.sum(axis=0)
        else:
            np.subtract(cos_sim, cov[:, None], out=scratch)
            rep_gain = np.maximum(scratch, 0.0, out=scratch).sum(axis=0)
        total = lam * rep_gain + (1.0 - lam) * warped
        total[selected] = -np.inf
        best = int(np.argmax(total))  # first max -> smallest index on ties
        members[r] = best
        gains[r] = total[best]
        selected[best] = True
        if r == 0:
            cov[:] = cos_sim[:, best]
        else:
            np.maximum(cov, cos_sim[:, best], out=cov)
    return members, gains


def select_coreset(candidates, budget_b: int, emb: EmbeddingTable, warped,
                   lambda_blend: float) -> CoresetSelection:
    """Greedy maximization of the blended objective over the candidate pool.

    Ties break toward the smaller sample id; the returned gains sequence is
    the per-round marginal gain in insertion order.
    """
    cand = _as_sorted_ids(candidates, "candidates")
    if cand.size == 0:
        raise DomainError("candidates must be nonempty")
    if not 1 <= budget_b <= cand.size:
        raise DomainError(f"budget_b must be in [1, {cand.size}], got {budget_b}")
    if not 0.0 <= lambda_blend <= 1.0:
        raise DomainError(f"lambda_blend must be in [0, 1], got {lambda_blend}")
    warped = np.asarray(warped, dtype=np.float64)

    unit = _unit_rows(emb, cand)
    cos_sim = unit @ unit.T
    local_members, gains = greedy_select(cos_sim, warped[cand], lambda_blend, budget_b)
    members = [int(cand[m]) for m in local_members]
    objective = coreset_objective(members, cand, emb, warped, lambda_blend)
    return CoresetSelection(members=members, objective_value=objective, gains=[float(x) for x in gains])


def brute_force_coreset(candidates, budget_b: int, emb: EmbeddingTable, warped,
                        lambda_blend: float) -> CoresetSelection:
    """Exact maximizer by exhaustive enumeration (oracle for small instances)."""
    cand = _as_sorted_ids(candidates, "candidates")
    if cand.size == 0:
        raise DomainError("candidates must be nonempty")
    if not 1 <= budget_b <= cand.size:
        raise DomainError(f"budget_b must be in [1, {cand.size}], got {budget_b}")
    n_subsets = math.comb(int(cand.size), int(budget_b))
    if n_subsets > BRUTE_FORCE_LIMIT:
        raise ResourceError(
            f"brute force over C({cand.size}, {budget_b}) = {n_subsets} subsets "
            f"exceeds the {BRUTE_FORCE_LIMIT} limit"
        )
    warped = np.asarray(warped, dtype=np.float64)
    unit = _unit_rows(emb, cand)
    cos_sim = unit @ unit.T
    warped_local = warped[cand]

    best_subset = None
    best_value = -np.inf
    for subset in itertools.combinations(range(cand.size), budget_b):
        cols = np.asarray(subset)
        value = (lambda_blend * float(cos_sim[:, cols].max(axis=1).sum())
                 + (1.0 - lambda_blend) * float(warped_local[cols].sum()))
        if value > best_value:  # strict: first (lexicographic) subset wins ties
            best_value = value
            best_subset = cols
    members = [int(cand[m]) for m in best_subset]
    return CoresetSelection(members=members, objective_value=float(best_value), gains=[])
