"""Toy trainer: dataset generation, training dynamics, and feature extraction."""

import math

import numpy as np
import pytest

from coresel.dynamics import discrepancy_check
from coresel.errors import DomainError
from coresel.simulator import SimState, make_dataset
from coresel.store import ScoreLedger


# ---------------------------------------------------------------------------
# make_dataset
# ---------------------------------------------------------------------------

def test_zero_spread_puts_points_on_means():
    data, labels = make_dataset(4, 5, 4, cluster_spread=0.0, seed=0)
    assert labels.tolist() == [0, 1, 2, 3]
    means = {}
    for x, y in zip(data, labels):
        means[int(y)] = x
    again, labels2 = make_dataset(8, 5, 4, cluster_spread=0.0, seed=0)
    for x, y in zip(again, labels2):
        assert np.array_equal(x, means[int(y)])


def test_dataset_deterministic():
    a, la = make_dataset(50, 6, 3, cluster_spread=1.0, seed=9)
    b, lb = make_dataset(50, 6, 3, cluster_spread=1.0, seed=9)
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)


def test_dataset_validation():
    with pytest.raises(DomainError):
        make_dataset(1, 4, 2, 1.0, 0)  # n < c
    with pytest.raises(DomainError):
        make_dataset(10, 4, 1, 1.0, 0)  # c < 2
    with pytest.raises(DomainError):
        make_dataset(10, 1, 2, 1.0, 0)  # d < 2
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        make_dataset(10, 4, 2, 1.0, -1)  # numpy's seeds are non-negative


@pytest.mark.parametrize("kwargs, name", [
    ({"learning_rate": math.inf}, "learning_rate"), ({"learning_rate": math.nan}, "learning_rate"),
    ({"cluster_spread": -0.5}, "cluster_spread"), ({"cluster_spread": math.nan}, "cluster_spread"),
    ({"drift": math.inf}, "drift"), ({"drift": np.array([0.01, math.nan])}, "drift"),
])
def test_create_rejects_nonfinite_or_negative_parameter(kwargs, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        SimState.create(n=10, dim=4, classes=2, **kwargs)


def test_dataset_is_linearly_separable_enough():
    sim = SimState.create(n=500, dim=8, classes=5, cluster_spread=1.0,
                          learning_rate=0.1, seed=0)
    for _ in range(200):
        sim.train_step(range(500))
    assert sim.accuracy() >= 0.90


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def test_zero_learning_rate_keeps_weights():
    sim = SimState.create(n=20, dim=4, classes=2, learning_rate=0.0, seed=1)
    before = sim.weights.copy()
    sim.train_step(range(20))
    assert np.array_equal(sim.weights, before)
    assert sim.step == 1


def test_single_point_loss_strictly_decreases():
    sim = SimState.create(n=10, dim=4, classes=2, cluster_spread=0.5,
                          learning_rate=0.5, seed=1)
    losses = [sim.train_step([3]) for _ in range(10)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_full_batch_loss_non_increasing_after_warm_start():
    sim = SimState.create(n=500, dim=8, classes=5, cluster_spread=1.0,
                          learning_rate=0.1, seed=0)
    losses = [sim.train_step(range(500)) for _ in range(200)]
    for i in range(5, len(losses) - 1):
        assert losses[i + 1] <= losses[i] + 1e-12


def test_empty_batch_rejected():
    sim = SimState.create(n=10, dim=4, classes=2, seed=0)
    with pytest.raises(DomainError):
        sim.train_step([])


def test_freeze_at_stops_updates():
    sim = SimState.create(n=20, dim=4, classes=2, learning_rate=0.3, seed=2, freeze_at=3)
    for _ in range(3):
        sim.train_step(range(20))
    frozen = sim.weights.copy()
    for _ in range(5):
        sim.train_step(range(20))
    assert np.array_equal(sim.weights, frozen)
    assert sim.step == 8


# ---------------------------------------------------------------------------
# extract_features
# ---------------------------------------------------------------------------

def test_untrained_scores_match_uniform_closed_form():
    c = 5
    sim = SimState.create(n=30, dim=6, classes=c, seed=4)
    _, scores = sim.extract_features(range(30))
    expected = math.sqrt((1.0 - 1.0 / c) ** 2 + (c - 1) / c**2)
    assert np.allclose(scores, expected, atol=1e-12)


def test_extract_deterministic():
    sim = SimState.create(n=40, dim=5, classes=3, learning_rate=0.2, seed=6)
    for _ in range(10):
        sim.train_step(range(40))
    r1, s1 = sim.extract_features(range(40))
    r2, s2 = sim.extract_features(range(40))
    assert np.array_equal(r1, r2)
    assert np.array_equal(s1, s2)


def test_converged_scores_below_untrained_mean():
    sim = SimState.create(n=500, dim=8, classes=5, cluster_spread=1.0,
                          learning_rate=0.1, seed=0)
    _, untrained = sim.extract_features(range(500))
    for _ in range(300):
        sim.train_step(range(500))
    _, trained = sim.extract_features(range(500))
    assert trained.mean() < untrained.mean()


@pytest.mark.parametrize("bad", [-1, 10])
def test_train_step_rejects_ids_outside_range(bad):
    # -1 used to train on sample n - 1, and n raised a bare IndexError
    sim = SimState.create(n=10, dim=4, classes=2, seed=0)
    with pytest.raises(DomainError, match=f"sample id {bad} out of range"):
        sim.train_step([3, bad])
    assert sim.step == 0 and not sim.weights.any()


def test_extract_rejects_bad_ids():
    sim = SimState.create(n=10, dim=4, classes=2, seed=0)
    with pytest.raises(DomainError):
        sim.extract_features([10])


def test_embeddings_are_logit_vectors():
    sim = SimState.create(n=15, dim=4, classes=3, learning_rate=0.2, seed=3)
    for _ in range(5):
        sim.train_step(range(15))
    rows, _ = sim.extract_features([2, 7])
    assert rows.shape == (2, 3)
    assert np.allclose(rows[0], sim.data[2] @ sim.weights.T)


# ---------------------------------------------------------------------------
# determinism and drift realism
# ---------------------------------------------------------------------------

def test_bit_for_bit_regeneration():
    def run():
        sim = SimState.create(n=60, dim=5, classes=3, learning_rate=0.15, seed=11,
                              drift=0.02)
        rng = np.random.default_rng(11)
        for _ in range(40):
            sim.train_step(rng.choice(60, size=16, replace=False))
        return sim

    a, b = run(), run()
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.data, b.data)
    assert a.step == b.step


def _discrepancy_over_run(drift, learning_rate):
    sim = SimState.create(n=50, dim=5, classes=3, learning_rate=learning_rate,
                          seed=13, drift=drift)
    ids = list(range(50))
    _, scores = sim.extract_features(ids)
    ledger = ScoreLedger.from_scores(scores, step=0, window=11)
    for _ in range(10):
        sim.train_step(ids)
        _, scores = sim.extract_features(ids)
        for i, s in zip(ids, scores):
            ledger.record(i, sim.step, float(s))
    return discrepancy_check(ledger, ids, list(range(0, 10)), 0.99, 10)


def test_drift_gives_positive_discrepancy_frozen_gives_zero():
    assert _discrepancy_over_run(drift=0.05, learning_rate=0.2) > 0.0
    assert _discrepancy_over_run(drift=None, learning_rate=0.0) == 0.0


def test_drift_schedule_array():
    schedule = np.array([0.5, 0.0, 0.0])
    sim = SimState.create(n=10, dim=4, classes=2, learning_rate=0.0, seed=1,
                          drift=schedule)
    base = sim.data.copy()
    sim.train_step(range(10))
    moved = sim.data.copy()
    assert not np.array_equal(base, moved)
    sim.train_step(range(10))
    assert np.array_equal(sim.data, moved)  # schedule exhausted to zero


def test_state_built_directly_drifts_as_create_builds_it():
    # SimState is a plain dataclass: one built field by field must drift the same
    made = SimState.create(n=60, dim=5, classes=3, learning_rate=0.2, seed=4, drift=0.03)
    direct = SimState(data=made.data.copy(), labels=made.labels.copy(),
                      weights=made.weights.copy(), learning_rate=0.2, drift=0.03,
                      drift_dirs=made.drift_dirs.copy())
    for _ in range(5):
        for sim in (made, direct):
            sim.train_step(range(0, 60, 2))
    assert np.array_equal(made.data, direct.data)
    assert np.array_equal(made.weights, direct.weights)
    assert not np.array_equal(made.data, SimState.create(n=60, dim=5, classes=3, seed=4).data)


def test_state_built_directly_with_drift_needs_drift_dirs():
    # without directions the first drifting step would fail on None; construction says why
    made = SimState.create(n=20, dim=4, classes=2, seed=1)
    with pytest.raises(DomainError, match="drift_dirs"):
        SimState(data=made.data, labels=made.labels, weights=made.weights, learning_rate=0.1,
                 drift=0.03)
    SimState(data=made.data, labels=made.labels, weights=made.weights, learning_rate=0.1)
