"""Blended coverage/importance objective and its greedy maximizer.

The objective of a coreset is lambda * (sum over the candidate pool of each
sample's best cosine similarity to a coreset member) + (1 - lambda) * (sum of
the members' warped importance scores). Greedy selection picks the maximum
marginal gain each round.

The greedy is Minoux's lazy greedy and returns what the full-pass loop would,
bit for bit. Rounds 0 and 1 evaluate every column; later rounds keep stale
gains as upper bounds and re-evaluate the stale entries at the top, 16, then
32, 64, ... at a time within one round, until the best bound is fresh. The
batch size decides only which columns are evaluated, never a gain's bits: from
round 1 on, every coverage gain is numpy's pairwise sum of one row of terms,
an order fixed per column, which is what makes the bounds hold to the bit.

One kernel computes cosines: rows of the pool's matrix in fixed (16, d) by
(d, n16) GEMM tiles, whose right operand is the transposed unit rows, padded
with zero columns to a multiple of 16 and stored row-major. A row has the
same bits whatever ids share its tile, and the same under 1 and 2 BLAS
threads. OpenBLAS takes a small-matrix path when n16 <= 64 and d >= 32; its
bits differ from the large path's, and its stacked matrices are exactly
symmetric too. A pool of at most ``_DENSE_MAX_ELEMS`` entries gets the stacked
(n, n) matrix; a larger one gets rows recomputed on demand, so its memory is
O(n d), not O(n^2), and the gains are computed straight from each tile
product, with no copy. Beyond that matrix, if any, nothing of size (n, n) is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .store import EmbeddingTable, id_set

# Columns per chunk of the gain kernel: (64, n) temporaries, not (n, n).
_BLOCK_ROWS = 64
# Stale entries the greedy first re-evaluates at once from the top of its
# bounds; each further batch in the same round is twice the one before.
_BATCH = 16
# Rows per cosine product. Every product has exactly this many rows and a
# multiple of it as columns: one- and two-row products differ from the others
# in bits. The stacked tiles are exactly symmetric, equal numpy's syrk
# ``unit @ unit.T`` at n = 256, 768 and 3000, and keep their bits under 1 and
# 2 BLAS threads; syrk's bits change with the thread count at n = 1500.
_TILE = 16
# Largest pool, in cosine entries (n <= 1448), that gets the dense matrix.
# Medians of 11 fresh-process selections, budget 16 unless noted, recomputed
# rows against the matrix (2-core VM, 2 OpenBLAS threads). Simulator
# embeddings, d = 5: 11 against 14 ms at n = 768 (24 against 25 ms at budget
# 128), 39 against 38 ms at n = 1448, 89 against 194 ms at n = 3000. At
# n = 3000, d = 64 they tie at 230 against 228 ms; on unclustered Gaussian
# rows (n = 3000, d = 16) recomputing wins, 157 against 234 ms. Warm and in
# process, as an adaptive run selects, the matrix wins under the limit:
# replaying a run's 10 selections (medians of 15 interleaved replays, 1 and 2
# threads), 3.4-4.3 against 4.9-6.6 ms per selection at n = 256, budget 64,
# and 15-18 against 18-23 ms at n = 768, budget 128.
_DENSE_MAX_ELEMS = 2 ** 21


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
    # a zero row stays zero: cosine 0 with every row, so it covers nothing and nothing covers it
    rows = emb.rows[ids]
    norms = np.linalg.norm(rows, axis=1)[:, None]
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


class CosineRows:
    """Rows of the cosine matrix of ``unit``'s rows, computed in fixed-shape tiles.

    Stands in for the (n, n) matrix in ``greedy_select``: ``shape``, ``rows[i]``
    and ``rows[ids]`` (fresh arrays), ``blocks(ids)`` and ``sum(axis=0)``, all
    bit for bit what the stacked matrix ``rows[np.arange(n)]`` gives.
    """

    def __init__(self, unit: np.ndarray):
        n, d = unit.shape
        right = np.zeros((d, -(-n // _TILE) * _TILE))
        right[:, :n] = unit.T
        self._unit = unit
        self._right = right
        self.shape = (n, n)

    def blocks(self, ids: np.ndarray):
        """(offset, rows) for each run of ``_TILE`` ids; a short run repeats its last id.

        Each block is a fresh tile product, sliced to the run's rows and the pool's columns.
        """
        n = self.shape[0]
        short = -ids.size % _TILE
        padded = np.concatenate((ids, np.full(short, ids[-1]))) if short else ids
        for r in range(0, ids.size, _TILE):
            yield r, (self._unit[padded[r:r + _TILE]] @ self._right)[:min(_TILE, ids.size - r), :n]

    def __getitem__(self, ids):
        if np.ndim(ids) == 0:
            return self[np.array([ids])][0]
        ids = np.asarray(ids)
        out = np.empty((ids.size, self.shape[0]))
        for r, tile in self.blocks(ids):
            out[r:r + len(tile)] = tile
        return out

    def sum(self, axis):
        """Column sums added down the rows in order, as ``ndarray.sum(axis=0)`` adds them."""
        if axis != 0:
            raise ValueError("only axis=0 is supported")
        total = None
        for _, tile in self.blocks(np.arange(self.shape[0])):
            if total is not None:
                tile[0] += total
            total = tile.sum(axis=0)
        return total


def _distinct_ids(values, n: int, what: str) -> np.ndarray:
    ids = id_set(values, n, what)
    if ids.size != len(values):
        raise DomainError(f"{what}s must be distinct")
    return ids


def representation_score(core, pool, emb: EmbeddingTable) -> float:
    """Sum over the pool of each sample's best cosine similarity to the core."""
    core_ids = _distinct_ids(core, emb.n, "core id")
    pool_ids = _distinct_ids(pool, emb.n, "pool id")
    if core_ids.size == 0:
        return 0.0
    pool_unit = _unit_rows(emb, pool_ids)
    core_unit = _unit_rows(emb, core_ids)
    return float((pool_unit @ core_unit.T).max(axis=1).sum())


def coreset_objective(core, pool, emb: EmbeddingTable, warped, lambda_blend: float) -> float:
    if not 0.0 <= lambda_blend <= 1.0:
        raise DomainError(f"lambda_blend must be in [0, 1], got {lambda_blend}")
    warped = np.asarray(warped, dtype=np.float64)
    core_ids = _distinct_ids(core, emb.n, "core id")
    importance = float(warped[core_ids].sum()) if core_ids.size else 0.0
    return lambda_blend * representation_score(core_ids, pool, emb) + (1.0 - lambda_blend) * importance


def _coverage_gains(cos_sim, cov, cols) -> np.ndarray:
    """Coverage gain of the columns ``cols``, read as rows of the symmetric ``cos_sim``.

    Each gain is the pairwise sum of its row of terms max(c - cov, 0), the same
    bits whichever columns share the call. Each fresh block of rows, a tile
    product of a ``CosineRows`` or a (64, n) gather of a matrix, is turned into
    terms in place, so no block is copied.
    """
    if isinstance(cos_sim, CosineRows):
        blocks = cos_sim.blocks(cols)
    else:
        blocks = ((c0, cos_sim[cols[c0:c0 + _BLOCK_ROWS]]) for c0 in range(0, len(cols), _BLOCK_ROWS))
    out = np.empty(len(cols), dtype=np.float64)
    for c0, terms in blocks:
        terms -= cov
        np.maximum(terms, 0.0, out=terms)
        terms.sum(axis=1, out=out[c0:c0 + len(terms)])
    return out


def greedy_select(cos_sim, warped, lam, budget) -> tuple[np.ndarray, np.ndarray]:
    """Greedy argmax of blended marginal gains over a symmetric cosine-similarity matrix.

    Returns (members, gains) as local indices into the candidate pool, in
    insertion order. Ties break toward the smaller index. The coverage term of
    the first pick is the plain column sum (the empty coreset covers nothing).
    ``cos_sim`` is an (n, n) array or a ``CosineRows``, and must be exactly
    symmetric, as both of ``select_coreset``'s forms are: column j is read as
    row j.

    Lazy (Minoux) evaluation, exact to the bit. Rounds 0 and 1 evaluate every
    unselected column. From round 1 on, coverage only grows, so each term max(c - cov, 0)
    only shrinks; rounded arithmetic is monotone, so with the same summation
    order per column (numpy's pairwise sum of the row of terms, fixed by n) a
    gain from an earlier round bounds today's from above. Round 0's plain
    column sum is no such bound when cosines are negative. Each later round
    re-evaluates the top stale entries, 16, then 32, 64, ... at a time, until
    the argmax of the bounds (the smallest index among equals) is fresh; that
    entry is the round's exact argmax. No (n, n) temporary is formed.
    """
    n = cos_sim.shape[0]
    members = np.empty(budget, dtype=np.int64)
    gains = np.empty(budget, dtype=np.float64)
    # blended gain as of round fresh[j]; round 0's is the plain column sum
    importance = (1.0 - lam) * warped
    bound = lam * cos_sim.sum(axis=0) + importance
    fresh = np.zeros(n, dtype=np.int64)     # selected entries: budget, never stale
    cov = np.zeros(n, dtype=np.float64)
    for r in range(budget):
        best = int(np.argmax(bound))  # first max -> smallest index on ties
        batch = _BATCH
        while fresh[best] < r:
            stale = np.flatnonzero(fresh < r)
            if r > 1 and stale.size > batch:  # round 0 bounds nothing: round 1 takes all
                stale = stale[np.argpartition(bound[stale], -batch)[-batch:]]
            batch *= 2
            bound[stale] = lam * _coverage_gains(cos_sim, cov, stale) + importance[stale]
            fresh[stale] = r
            best = int(np.argmax(bound))
        members[r] = best
        gains[r] = bound[best]
        bound[best] = -np.inf
        fresh[best] = budget
        if r == 0:
            cov[:] = cos_sim[best]
        else:
            np.maximum(cov, cos_sim[best], out=cov)
    return members, gains


def select_coreset(candidates, budget_b: int, emb: EmbeddingTable, warped,
                   lambda_blend: float) -> CoresetSelection:
    """Greedy maximization of the blended objective over the candidate pool.

    Ties break toward the smaller sample id; the returned gains sequence is
    the per-round marginal gain in insertion order.
    """
    cand = _distinct_ids(candidates, emb.n, "candidate id")
    if cand.size == 0:
        raise DomainError("candidates must be nonempty")
    if not 1 <= budget_b <= cand.size:
        raise DomainError(f"budget_b must be in [1, {cand.size}], got {budget_b}")
    if not 0.0 <= lambda_blend <= 1.0:
        raise DomainError(f"lambda_blend must be in [0, 1], got {lambda_blend}")
    warped = np.asarray(warped, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(warped[cand]))
    if bad.size:
        raise DomainError(f"sample {int(cand[bad[0]])} has a non-finite warped score")

    cos_sim = CosineRows(_unit_rows(emb, cand))
    if cand.size ** 2 <= _DENSE_MAX_ELEMS:
        try:
            cos_sim = cos_sim[np.arange(cand.size)]
        except MemoryError as exc:
            raise ResourceError(f"the cosine matrix of {cand.size} candidates needs "
                                f"{8 * cand.size ** 2} bytes, which could not be allocated") from exc
    local_members, gains = greedy_select(cos_sim, warped[cand], lambda_blend, budget_b)
    members = [int(cand[m]) for m in local_members]
    objective = coreset_objective(members, cand, emb, warped, lambda_blend)
    return CoresetSelection(members=members, objective_value=objective, gains=[float(x) for x in gains])

