"""Property tests: random sequences of grow, divide, prune and train keep the
structural invariants, and budget pruning matches the lexsort oracle."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from growprune import archops
from growprune.archops import (
    GrowthPolicy,
    NeuronGrowthPolicy,
    PrunePolicy,
    grow_connections,
    grow_neuron,
    prune_connections,
)
from growprune.network import (
    UnreachableOutputError,
    connection_count,
    depth,
    forward,
    from_mlp,
    prune_isolated_neurons,
)
from growprune.numerics import make_rng
from growprune.schemes import OptimizerConfig, TrainingDiverged, train_weights
from conftest import random_dag
from oracles import (
    fixed_point_isolated,
    lexsort_budget_keep,
    longest_path_dp,
    scan_connection_count,
    topk_by_magnitude,
)

OPS = ("grow_full", "grow_random", "grow_gradient", "divide", "prune_budget", "prune_threshold", "train")


def assert_structure(net):
    """Strictly upper-triangular bool mask, nothing outside the legal
    rectangle, weights zero off the mask, and depth and connection count equal
    to their brute-force oracles."""
    net.validate()
    assert net.mask.dtype == bool
    outside = np.ones((net.n, net.n), dtype=bool)
    outside[net.rect] = False
    assert not np.any(np.tril(net.mask)) and not np.any(net.mask[outside])
    assert not np.any(net.weights[~net.mask])
    try:
        got = depth(net)
    except UnreachableOutputError:
        got = -1
    assert got == longest_path_dp(net.n_in, net.n_out, net.mask)
    assert connection_count(net) == scan_connection_count(net.n_in, net.n_out, net.mask)


def assert_no_isolated_hidden(net):
    hidden = slice(net.n_in, net.hidden_end)
    assert np.all(net.mask[:, hidden].any(axis=0)), "hidden neuron without an in-edge"
    assert np.all(net.mask[hidden].any(axis=1)), "hidden neuron without an out-edge"


def edges(mask):
    return {(int(i), int(j)) for i, j in np.argwhere(mask)}


def check_budget_prune(net, budget):
    """Prune `net` to `budget` and check it against the oracles: exactly
    `budget` edges survive the ranking, and the isolated-neuron fixed point
    removes what it should."""
    want = lexsort_budget_keep(net.mask, net.weights, budget)
    ii, jj = np.nonzero(net.mask)
    assert want == topk_by_magnitude([(i, j, net.weights[i, j]) for i, j in zip(ii, jj)], budget)
    probe = net.clone()
    with mock.patch.object(archops, "prune_isolated_neurons", lambda n: n):
        prune_connections(probe, PrunePolicy(budget=budget))
    kept = edges(probe.mask)
    assert kept == want and len(kept) == budget

    n = net.n
    sel = np.zeros((n, n), dtype=bool)
    for i, j in want:
        sel[i, j] = True
    alive = fixed_point_isolated(net.n_in, net.n_out, sel)
    keep = [v for v in range(n) if alive[v]]
    prune_connections(net, PrunePolicy(budget=budget))
    got = {(keep[i], keep[j]) for i, j in edges(net.mask)}
    assert got == {(i, j) for i, j in want if alive[i] and alive[j]}


@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=8),
    layered=st.booleans(),
)
@settings(max_examples=60)
def test_random_op_sequences_keep_the_invariants(seed, ops, layered):
    rng = make_rng(seed)
    if layered:
        net = from_mlp([3, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 3], rng)
    else:
        net = random_dag(rng, n_in=3, n_hidden=int(rng.integers(1, 10)), n_out=3, density=0.5)
        prune_isolated_neurons(net)
    x = rng.normal(size=(12, net.n_in))
    y = rng.integers(0, net.n_out, size=12)
    data = SimpleNamespace(train_xy=lambda: (x, y))
    assert_structure(net)
    for op in ops:
        if op.startswith("grow"):
            kind = op.split("_")[1]
            policy = GrowthPolicy(
                kind,
                amount=None if kind == "full" else float(rng.uniform(0.1, 1.0)),
                data_batch=(x, y) if kind == "gradient" else None,
                adjacent_only=layered and bool(rng.integers(2)),
            )
            logits = forward(net, x).logits(net.n_out).copy()
            grow_connections(net, policy, rng)
            after = forward(net, x).logits(net.n_out)
            assert np.array_equal(after.view(np.int64), logits.view(np.int64))
        elif op == "divide":
            kind = ("division_activation", "division_random")[int(rng.integers(2))]
            try:
                grow_neuron(net, NeuronGrowthPolicy(kind, data_batch=(x, y)), rng)
            except ValueError:
                assert net.n_hidden == 0  # nothing left to divide
        elif op == "prune_budget":
            active = int(np.count_nonzero(net.mask))
            if active:
                check_budget_prune(net, int(rng.integers(0, active)))
                assert_no_isolated_hidden(net)
        elif op == "prune_threshold":
            mags = np.abs(net.weights[net.mask])
            t = float(np.quantile(mags, rng.uniform())) if mags.size else 0.5
            prune_connections(net, PrunePolicy(threshold=t))
            assert np.all(np.abs(net.weights[net.mask]) >= t)
            assert_no_isolated_hidden(net)
        else:
            kind = ("sgd_momentum", "adam")[int(rng.integers(2))]
            opt = OptimizerConfig(
                kind=kind, learning_rate=0.05, weight_decay=1e-3, batch_size=5, epochs_per_iteration=1
            )
            try:
                train_weights(net, data, opt, rng)
            except TrainingDiverged:
                pass
        assert_structure(net)


@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 3))
@settings(max_examples=40)
def test_budget_prune_with_many_ties_matches_lexsort_oracle(seed, levels):
    rng = make_rng(seed)
    net = random_dag(rng, n_in=4, n_hidden=int(rng.integers(3, 12)), n_out=3, density=0.6)
    # a few magnitudes of either sign: most edges tie with the threshold
    shape = net.weights.shape
    values = rng.choice([0.25, 0.5, 1.0][:levels], size=shape) * rng.choice([-1.0, 1.0], size=shape)
    net.weights = np.where(net.mask, values, 0.0)
    active = int(np.count_nonzero(net.mask))
    check_budget_prune(net, int(rng.integers(0, active)))
    assert_structure(net)


def test_budget_zero_prunes_everything():
    net = random_dag(make_rng(3), n_in=3, n_hidden=6, n_out=2, density=0.5)
    check_budget_prune(net, 0)
    assert not np.any(net.mask) and net.n_hidden == 0
    assert_structure(net)

