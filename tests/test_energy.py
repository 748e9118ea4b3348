import math

import numpy as np
import pytest

from growprune.archops import PrunePolicy, prune_connections
from growprune.energy import (
    EnergyCostModel,
    OpCounts,
    count_ops,
    count_reducer_ops,
    estimate_energy,
)
from growprune.network import Network, from_mlp
from growprune.numerics import make_rng
from conftest import random_dag
from oracles import closed_form_mlp_energy


def test_dense_mlp_counts_match_mnk_rule(rng):
    d, h, c = 7, 5, 3
    net = from_mlp([d, h, c], rng)
    counts = count_ops(net)
    assert counts.macs == d * h + h * c
    assert counts.sram_accesses == 2 * (d * h + h * c)
    assert counts.comparisons == h


def test_empty_network_costs_nothing():
    net = Network(4, 3, 2)
    counts = count_ops(net)
    assert (counts.macs, counts.sram_accesses, counts.comparisons) == (0, 0, 0)
    assert estimate_energy(counts) == 0.0


def test_dag_macs_equal_mask_popcount(rng):
    for _ in range(10):
        net = random_dag(rng)
        # edge-enumeration oracle
        edges = sum(
            1 for i in range(net.n) for j in range(net.n) if net.mask[i, j] != 0
        )
        counts = count_ops(net)
        assert counts.macs == edges
        assert counts.sram_accesses == 2 * edges


def test_hand_priced_example():
    e = estimate_energy(OpCounts(macs=24, sram_accesses=48, comparisons=0))
    assert math.isclose(e, 1.944e-9, rel_tol=1e-12)


def test_energy_closed_form_for_layered_nets(rng):
    for d, h, c in ((7, 5, 3), (30, 12, 4), (178, 50, 2)):
        net = from_mlp([d, h, c], rng)
        assert math.isclose(
            estimate_energy(count_ops(net)), closed_form_mlp_energy(d, h, c), rel_tol=1e-12
        )


def test_seizure_scale_mlp_prices_near_reported_value(rng):
    # 178-feature, 2-class MLP with ~380.9K connections
    h = 380900 // (178 + 2)
    net = from_mlp([178, h, 2], rng)
    e = estimate_energy(count_ops(net))
    assert abs(e - 3.1e-5) / 3.1e-5 < 0.20


def test_energy_monotone_in_counts():
    base = OpCounts(10, 20, 5)
    assert estimate_energy(OpCounts(11, 20, 5)) > estimate_energy(base)
    assert estimate_energy(OpCounts(10, 21, 5)) > estimate_energy(base)
    assert estimate_energy(OpCounts(10, 20, 6)) > estimate_energy(base)


def test_pruning_strictly_decreases_energy(rng):
    net = from_mlp([6, 8, 3], rng)
    before = estimate_energy(count_ops(net))
    prune_connections(net, PrunePolicy(budget=int(net.mask.sum()) - 5))
    assert estimate_energy(count_ops(net)) < before


def test_reducer_projection_cost():
    counts = count_reducer_ops(100, 25)
    assert counts.macs == 2500
    assert counts.sram_accesses == 5000
    assert counts.comparisons == 0


def test_cost_model_overridable():
    model = EnergyCostModel(e_mac=1.0, e_sram=0.0, e_cmp=0.0)
    assert estimate_energy(OpCounts(7, 99, 99), model) == 7.0
    with pytest.raises(ValueError):
        EnergyCostModel(e_mac=-1.0)
    with pytest.raises(ValueError):
        OpCounts(macs=-1)


def test_unused_hidden_neuron_costs_no_comparison():
    net = Network(2, 2, 1)
    net.mask[0, 2] = 1.0  # hidden 2 gets an input but feeds nothing
    net.mask[1, 4] = 0.0
    net.mask[0, 4] = 1.0  # direct input->output
    net.weights = net.mask * 0.5
    counts = count_ops(net)
    assert counts.macs == 2
    assert counts.comparisons == 0
