"""Correctness gates on the files one run wrote. Each returns failure messages.

The graph gates use an oracle independent of coresel: their own reader for
the embedding file and ``scipy.spatial.cKDTree`` for the neighbour lists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np
from scipy.spatial import cKDTree

_HEADER = struct.Struct("<4sIQI")   # magic, version, n, d
_WEIGHT_SCALE = 100.0
_WEIGHT_TOL = 1e-12
_OBJECTIVE_RTOL = 1e-9


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json_lines(path: str) -> tuple[list[dict], list[str]]:
    """Parse a JSONL file, rejecting NaN and Infinity, which JSON does not allow."""
    records, failures = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                records.append(json.loads(line, parse_constant=_reject_constant))
            except ValueError as exc:
                failures.append(f"{os.path.basename(path)} line {lineno}: {exc}")
    return records, failures


def digests(work_dir: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = os.path.join(work_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _members_ok(members, budget: int, n: int, where: str) -> list[str]:
    ids = [int(m) for m in members]
    if len(ids) != budget or len(set(ids)) != budget:
        return [f"{where}: {len(set(ids))} distinct of {len(ids)} members, budget {budget}"]
    if min(ids) < 0 or max(ids) >= n:
        return [f"{where}: member id outside [0, {n})"]
    return []


def adaptive_gates(work_dir: str, config: dict) -> list[str]:
    """report.json, events.jsonl and selections.jsonl of one adaptive run."""
    total = config["run"]["total_steps"]
    budget = config["selection"]["budget_b"]
    n = config["simulator"]["n"]
    with open(os.path.join(work_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    failures: list[str] = []

    steps = len(report["warmup_losses"]) + sum(len(r["losses"]) for r in report["intervals"])
    last = report["intervals"][-1]["end_step"] if report["intervals"] else 0
    if steps != total or last != total:
        failures.append(f"run consumed {steps} steps (last interval ends at {last}), "
                        f"expected {total}")
    for pos, rec in enumerate(report["intervals"]):
        failures += _members_ok(rec["members"], budget, n, f"interval {pos}")

    events, bad = strict_json_lines(os.path.join(work_dir, "events.jsonl"))
    failures += bad
    checks = sum(1 for r in report["intervals"] if r["check"] is not None)
    if not bad and len(events) != checks:
        failures.append(f"events.jsonl has {len(events)} lines for {checks} checks")

    selections, bad = strict_json_lines(os.path.join(work_dir, "selections.jsonl"))
    failures += bad
    if not bad and len(selections) != len(report["intervals"]):
        failures.append(f"selections.jsonl has {len(selections)} lines for "
                        f"{len(report['intervals'])} intervals")
    for pos, sel in enumerate(selections):
        failures += _members_ok(sel["members"], budget, n, f"selection {pos}")
    return failures


def read_embeddings(path: str) -> np.ndarray:
    """The binary embedding file as float64 rows, read without coresel."""
    with open(path, "rb") as fh:
        magic, _version, n, d = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != b"GRCE":
            raise ValueError(f"{path}: bad magic {magic!r}")
        values = np.frombuffer(fh.read(4 * n * d), dtype="<f4")
    return values.reshape(n, d).astype(np.float64)


def mutual_knn_oracle(rows: np.ndarray, k: int) -> set[tuple[int, int]]:
    """Exact mutual k-NN edges, neighbours ordered by (squared distance, id).

    cKDTree proposes a few extra candidates per node; exact squared distances
    re-rank them, so near-ties resolve the way the documented order says.
    """
    n = rows.shape[0]
    _, idx = cKDTree(rows).query(rows, k=min(n, k + 4))
    lists = []
    for i in range(n):
        cand = np.array([j for j in idx[i] if j != i][:k + 3], dtype=np.int64)
        diff = rows[cand] - rows[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((cand, d2))[:k]
        lists.append(set(cand[order].tolist()))
    return {(i, j) for i in range(n) for j in lists[i] if j > i and i in lists[j]}


def graph_gates(work_dir: str, k: int) -> list[str]:
    """graph.jsonl against the oracle edge set and exp(-d^2/100) weights."""
    rows = read_embeddings(os.path.join(work_dir, "emb.bin"))
    records, failures = strict_json_lines(os.path.join(work_dir, "graph.jsonl"))
    if failures:
        return failures
    if [r["id"] for r in records] != list(range(rows.shape[0])):
        return [f"graph.jsonl ids are not 0..{rows.shape[0] - 1} in order"]
    edges = set()
    for rec in records:
        i = rec["id"]
        for j, w in zip(rec["nbrs"], rec["w"]):
            edges.add((min(i, j), max(i, j)))
            diff = rows[i] - rows[j]
            expected = math.exp(-float(diff @ diff) / _WEIGHT_SCALE)
            if abs(w - expected) > _WEIGHT_TOL * expected:
                failures.append(f"graph.jsonl edge ({i}, {j}): weight {w!r}, "
                                f"expected {expected!r}")
                break
    degree = sum(len(r["nbrs"]) for r in records)
    if degree != 2 * len(edges):
        failures.append("graph.jsonl adjacency is not symmetric")
    oracle = mutual_knn_oracle(rows, k)
    if edges != oracle:
        failures.append(f"graph.jsonl edge set differs from the oracle: "
                        f"{len(edges - oracle)} extra, {len(oracle - edges)} missing")
    return failures


def selection_gates(work_dir: str, budget: int, eta: float) -> list[str]:
    """coreset.json: budget distinct ids and the objective recomputed from its inputs.

    The inputs are rebuilt the way ``coresel select`` builds them, with its
    default blend, temperature and warp normalization.
    """
    from coresel import (SelectionConfig, coreset_objective, ingest_embeddings,
                         load_score_stream, selection_scores)

    records, failures = strict_json_lines(os.path.join(work_dir, "coreset.json"))
    if failures:
        return failures
    if len(records) != 1:
        return [f"coreset.json holds {len(records)} selections, expected 1"]
    sel = records[0]
    emb = ingest_embeddings(os.path.join(work_dir, "emb.bin"))
    failures += _members_ok(sel["members"], budget, emb.n, "coreset.json")
    if failures:
        return failures
    ledger = load_score_stream(os.path.join(work_dir, "scores.jsonl"), emb.n)
    cfg = SelectionConfig(budget_b=budget, n_s=emb.n, budget_eta=eta)
    warped = selection_scores(ledger, cfg)
    expected = coreset_objective(sel["members"], range(emb.n), emb, warped, cfg.lambda_blend)
    if not math.isclose(sel["objective"], expected, rel_tol=_OBJECTIVE_RTOL):
        failures.append(f"coreset.json objective {sel['objective']!r}, "
                        f"recomputed {expected!r}")
    return failures
