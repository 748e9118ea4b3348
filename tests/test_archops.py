import numpy as np
import pytest

from growprune.archops import (
    GrowthPolicy,
    NeuronGrowthPolicy,
    PrunePolicy,
    candidate_pair_mask,
    grow_connections,
    grow_neuron,
    legal_pair_mask,
    possible_pair_count,
    prune_connections,
    _gradient_scores,
)
from growprune.network import Network, forward, from_mlp, loss_and_gradients
from growprune.numerics import make_rng
from conftest import random_dag
from oracles import naive_backward, naive_forward, topk_by_magnitude


def assert_invariants(net):
    net.validate()


def test_full_growth_activates_every_legal_pair(rng):
    net = Network(2, 2, 1)
    grow_connections(net, GrowthPolicy("full"), rng)
    legal = legal_pair_mask(net)
    assert np.array_equal(net.mask != 0, legal)
    assert_invariants(net)


def test_random_growth_exact_count(rng):
    # network with exactly 100 inactive candidates
    net = Network(9, 5, 5)  # legal pairs: 9*10 + 5*5 + C(5,2) = 125
    assert possible_pair_count(net) == 125
    # pre-activate 25 of them deterministically
    pairs = np.argwhere(candidate_pair_mask(net))
    net.mask[pairs[:25, 0], pairs[:25, 1]] = 1.0
    assert int(candidate_pair_mask(net).sum()) == 100
    grow_connections(net, GrowthPolicy("random", amount=0.3), rng)
    assert int(net.mask.sum()) == 25 + 30
    assert_invariants(net)


def test_growth_is_noop_on_logits_bitwise(rng):
    for kind in ("full", "random", "gradient"):
        for _ in range(5):
            net = random_dag(rng, density=0.3)
            x = rng.normal(size=(6, net.n_in))
            y = rng.integers(0, net.n_out, size=6)
            before = forward(net, x).logits(net.n_out).copy()
            policy = GrowthPolicy(
                kind,
                amount=None if kind == "full" else 0.5,
                data_batch=(x, y) if kind == "gradient" else None,
            )
            grow_connections(net, policy, rng)
            after = forward(net, x).logits(net.n_out)
            assert np.array_equal(before, after)
            assert_invariants(net)


def test_gradient_growth_matches_exhaustive_ranking(rng):
    for _ in range(5):
        net = random_dag(rng, n_in=3, n_hidden=8, n_out=3, density=0.3)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        cand = np.argwhere(candidate_pair_mask(net))
        if cand.shape[0] < 4:
            continue
        # oracle: per-candidate mean |x_i * du_j| computed pairwise from the
        # gradient trace, ranked by (-score, i, j)
        _, _, _, du = loss_and_gradients(net, x, y)
        acts = forward(net, x).x
        scored = []
        for i, j in cand:
            g = float(np.mean(np.abs(acts[:, i] * du[:, j])))
            scored.append((i, j, g))
        scored.sort(key=lambda t: (-t[2], t[0], t[1]))
        k = max(1, int(np.ceil(0.25 * cand.shape[0])))
        want = {(i, j) for i, j, _ in scored[:k]}
        before = net.mask.copy()
        grow_connections(net, GrowthPolicy("gradient", amount=0.25, data_batch=(x, y)), rng)
        added = {(int(i), int(j)) for i, j in np.argwhere((net.mask != 0) & (before == 0))}
        assert added == want


@pytest.mark.parametrize("n_hidden", [8, 140])
def test_gradient_scores_match_the_oracle_gradients(rng, n_hidden):
    # the score of (i, j) is the batch mean of |x_i| |dLoss/du_j|, taken here
    # sample by sample from the per-neuron oracles
    net = random_dag(rng, n_in=6, n_hidden=n_hidden, n_out=3, density=0.3)
    x = rng.normal(size=(9, 6))
    y = rng.integers(0, 3, size=9)
    args = (net.n_in, net.n_out, net.mask, net.weights, net.bias)
    du, _, _ = naive_backward(*args, x, y)
    want = np.zeros((net.n, net.n))
    for sample, du_b in zip(x, du):
        want += np.outer(np.abs(naive_forward(*args, sample)), np.abs(du_b))
    want /= len(x)
    assert np.count_nonzero(want) > net.n
    assert np.allclose(_gradient_scores(net, (x, y)), want, rtol=1e-9, atol=0)


def test_gradient_growth_requires_batch(rng):
    net = random_dag(rng)
    with pytest.raises(ValueError, match="data_batch"):
        grow_connections(net, GrowthPolicy("gradient", amount=0.5), rng)


def test_growth_noop_when_saturated(rng, caplog):
    net = Network(2, 1, 1)
    grow_connections(net, GrowthPolicy("full"), rng)
    before = net.mask.copy()
    with caplog.at_level("INFO"):
        grow_connections(net, GrowthPolicy("random", amount=0.5), rng)
    assert np.array_equal(net.mask, before)
    assert any("nothing to do" in r.message for r in caplog.records)


def test_growth_respects_max_new(rng):
    net = Network(4, 4, 2)
    grow_connections(net, GrowthPolicy("random", amount=1.0), rng, max_new=3)
    assert int(net.mask.sum()) == 3


def test_adjacent_only_growth_stays_layered(rng):
    net = from_mlp([3, 4, 4, 2], rng)
    # drop some connections, then grow back restricted to adjacent layers
    net.mask[0, 3:7] = 0
    net.weights[0, 3:7] = 0
    grow_connections(net, GrowthPolicy("full", adjacent_only=True), rng)
    for i, j in np.argwhere(net.mask != 0):
        assert net.layers[j] == net.layers[i] + 1
    assert_invariants(net)


def test_adjacent_only_requires_layer_ids(rng):
    net = random_dag(rng)
    net.layers = None
    with pytest.raises(ValueError, match="layer ids"):
        grow_connections(net, GrowthPolicy("full", adjacent_only=True), rng)


def test_division_copies_degrees(rng):
    net = random_dag(rng, n_in=4, n_hidden=6, n_out=2, density=0.5)
    active = np.flatnonzero(
        (net.mask != 0).any(axis=0)[net.n_in : net.hidden_end]
        | (net.mask != 0).any(axis=1)[net.n_in : net.hidden_end]
    ) + net.n_in
    parent = int(active[0])
    in_deg = int((net.mask[:, parent] != 0).sum())
    out_deg = int((net.mask[parent, :] != 0).sum())
    n_before = net.n
    # random division with a single active candidate is deterministic enough:
    # force parent choice by pruning others is overkill; use activation kind
    x = rng.normal(size=(4, 4))
    net2 = net.clone()
    grow_neuron(
        net2,
        NeuronGrowthPolicy("division_random", noise_std=0.01),
        make_rng(0),
    )
    assert net2.n == n_before + 1
    assert_invariants(net2)
    # now check exact degree copy on a hand-picked parent via division_activation
    # with a crafted batch that maximizes that parent's preactivity
    del x


def test_division_zero_noise_duplicates_parent_weights(rng):
    net = random_dag(rng, n_in=3, n_hidden=5, n_out=2, density=0.6)
    # pick the parent the random kind will choose with this seed
    r = make_rng(7)
    net2 = net.clone()
    grow_neuron(net2, NeuronGrowthPolicy("division_random", noise_std=0.0), r)
    # locate the inserted neuron: n grew by one; find child index by comparing
    assert net2.n == net.n + 1
    # child is adjacent to its parent: find index whose column/row duplicates
    found = False
    for child in range(net2.n_in, net2.hidden_end):
        parent = child - 1
        if parent < net2.n_in:
            continue
        if (
            np.array_equal(net2.mask[:, child], net2.mask[:, parent])
            and np.array_equal(net2.mask[child, child + 1 :], net2.mask[parent, child + 1 :])
            and np.array_equal(net2.weights[:, child], net2.weights[:, parent])
        ):
            found = True
            break
    assert found
    assert_invariants(net2)


def test_division_activation_selects_argmax_neuron(rng):
    # craft a net where hidden neuron `special` gets a huge preactivity
    net = Network(2, 4, 2)
    for h in range(2, 6):
        net.mask[0, h] = 1.0
        net.mask[h, 6] = 1.0
    net.weights = net.mask * 0.1
    special = 4
    net.weights[0, special] = 50.0
    x = np.ones((3, 2))
    # oracle: forward pass says `special` has the largest mean preactivity
    u = forward(net, x).u
    assert int(np.argmax(u[:, 2:6].mean(axis=0))) + 2 == special
    grow_neuron(
        net,
        NeuronGrowthPolicy("division_activation", noise_std=0.0, data_batch=(x, None)),
        rng,
    )
    child = special + 1
    assert np.array_equal(net.mask[:, child], net.mask[:, special])
    assert net.weights[0, child] == 50.0
    assert_invariants(net)


def test_division_without_active_neurons_rejected(rng):
    net = Network(2, 2, 2)  # no connections at all
    with pytest.raises(ValueError, match="no active hidden neuron"):
        grow_neuron(net, NeuronGrowthPolicy("division_random"), rng)


def test_random_fresh_wires_both_sides(rng):
    net = from_mlp([3, 4, 2], rng)
    n_before = net.n
    grow_neuron(net, NeuronGrowthPolicy("random_fresh", fresh_connection_fraction=0.5), rng)
    assert net.n == n_before + 1
    assert_invariants(net)
    # the new neuron (wherever it landed) has in and out edges
    degs_in = (net.mask != 0).sum(axis=0)
    degs_out = (net.mask != 0).sum(axis=1)
    assert all(
        degs_in[v] > 0 and degs_out[v] > 0 for v in range(net.n_in, net.hidden_end)
    )


def test_prune_threshold_hand_case():
    # all four potential connections active with hand weights, t = 0.1
    net = Network(2, 1, 1)
    net.mask[0, 2] = net.mask[1, 2] = net.mask[0, 3] = net.mask[2, 3] = 1.0
    net.weights[0, 2] = 0.5
    net.weights[1, 2] = -0.05
    net.weights[0, 3] = 0.2
    net.weights[2, 3] = 0.4
    prune_connections(net, PrunePolicy(threshold=0.1))
    assert net.mask[1, 2] == 0 and net.weights[1, 2] == 0
    assert net.mask[0, 2] == 1 and net.mask[0, 3] == 1 and net.mask[2, 3] == 1
    assert_invariants(net)


def test_prune_threshold_zero_prunes_nothing(rng):
    net = random_dag(rng)
    before = net.mask.copy()
    prune_connections(net, PrunePolicy(threshold=0.0))
    assert np.array_equal(net.mask, before)


def test_prune_budget_matches_sort_oracle(rng):
    for _ in range(25):
        net = random_dag(rng, density=0.5)
        ii, jj = np.nonzero(net.mask)
        if ii.size < 3:
            continue
        entries = [(int(i), int(j), float(net.weights[i, j])) for i, j in zip(ii, jj)]
        k = int(rng.integers(1, ii.size))
        want = topk_by_magnitude(entries, k)
        net2 = net.clone()
        # survivors before isolated-neuron compaction: inspect via threshold-free path
        iiw, jjw = np.nonzero(net2.mask)
        mags = np.abs(net2.weights[iiw, jjw])
        order = np.lexsort((jjw, iiw, -mags))
        keep = {(int(iiw[t]), int(jjw[t])) for t in order[:k]}
        assert keep == want


def test_prune_budget_exact_survivor_count(rng):
    net = random_dag(rng, n_in=3, n_hidden=10, n_out=2, density=0.6)
    n_active = int(net.mask.sum())
    k = n_active // 2
    prune_connections(net, PrunePolicy(budget=k))
    # isolated-neuron removal may drop further connections but never adds
    assert int(net.mask.sum()) <= k
    assert_invariants(net)


def test_prune_budget_with_ties_is_lexicographic():
    net = Network(3, 2, 1)
    for i, j in [(0, 3), (1, 3), (2, 3), (0, 4), (3, 5), (4, 5)]:
        net.mask[i, j] = 1.0
        net.weights[i, j] = 0.5  # all tied
    want = topk_by_magnitude(
        [(i, j, 0.5) for i, j in [(0, 3), (1, 3), (2, 3), (0, 4), (3, 5), (4, 5)]], 4
    )
    # ties break lexicographically, so both output in-edges fall; every hidden
    # neuron then loses its out-edges and the cascade empties the mask
    assert want == {(0, 3), (0, 4), (1, 3), (2, 3)}
    prune_connections(net, PrunePolicy(budget=4))
    assert int(net.mask.sum()) == 0
    assert net.n_hidden == 0
    assert_invariants(net)


def test_prune_budget_larger_than_active_is_noop(rng, caplog):
    net = random_dag(rng)
    before = net.mask.copy()
    with caplog.at_level("INFO"):
        prune_connections(net, PrunePolicy(budget=int(before.sum()) + 50))
    assert np.array_equal(net.mask, before)
    assert any("nothing to do" in r.message for r in caplog.records)


def test_prune_grow_prune_idempotent_on_mask(rng):
    for _ in range(5):
        net = random_dag(rng, density=0.5)
        t = 0.3
        prune_connections(net, PrunePolicy(threshold=t))
        after_first = net.mask.copy()
        n_after_first = net.n
        grow_connections(net, GrowthPolicy("full"), rng)
        prune_connections(net, PrunePolicy(threshold=t))
        assert net.n == n_after_first
        assert np.array_equal(net.mask, after_first)


def test_policy_validation():
    with pytest.raises(ValueError):
        GrowthPolicy("random", amount=0.0)
    with pytest.raises(ValueError):
        GrowthPolicy("nope")
    with pytest.raises(ValueError):
        PrunePolicy()
    with pytest.raises(ValueError):
        PrunePolicy(threshold=0.1, budget=5)
    with pytest.raises(ValueError):
        NeuronGrowthPolicy("division_random", noise_std=-1.0)


def test_division_duplicates_parent_contribution():
    # in -> h -> out with w1=1, w2=0.5; dividing h with zero noise doubles the
    # hidden contribution on positive inputs
    net = Network(1, 1, 1)
    net.mask[0, 1] = net.mask[1, 2] = 1.0
    net.weights[0, 1] = 1.0
    net.weights[1, 2] = 0.5
    x = np.array([[2.0]])
    assert forward(net, x).logits(1)[0, 0] == 1.0
    grow_neuron(net, NeuronGrowthPolicy("division_random", noise_std=0.0), make_rng(1))
    assert forward(net, x).logits(1)[0, 0] == 2.0
