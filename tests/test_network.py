import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growprune.network import (
    WALK_BLOCK,
    Network,
    UnreachableOutputError,
    accuracy,
    connection_count,
    depth,
    forward,
    from_mlp,
    checkpoint_dict,
    load_checkpoint,
    loss_and_gradients,
    network_from_dict,
    predict,
    prune_isolated_neurons,
    save_checkpoint,
    _StepPlan,
    _backprop,
)
from growprune.numerics import make_rng
from growprune.schemes import OptimizerConfig, train_weights
from conftest import random_dag
from oracles import (
    blocked_pull,
    blocked_walk,
    fd_gradient,
    fixed_point_isolated,
    longest_path_dp,
    naive_backward,
    naive_forward,
    scan_connection_count,
)


def chain_net(weight_in=1.0, weight_out=1.0):
    # one input, one hidden relu neuron, one output
    net = Network(1, 1, 1)
    net.mask[0, 1] = 1.0
    net.mask[1, 2] = 1.0
    net.weights[0, 1] = weight_in
    net.weights[1, 2] = weight_out
    return net


def test_forward_zero_network_outputs_zero():
    net = Network(3, 4, 2)
    trace = forward(net, np.ones((5, 3)))
    assert np.array_equal(trace.logits(2), np.zeros((5, 2)))


def test_forward_relu_chain():
    net = chain_net()
    assert forward(net, [[-2.0]]).logits(1)[0, 0] == 0.0
    assert forward(net, [[3.0]]).logits(1)[0, 0] == 3.0


def test_forward_width_mismatch():
    with pytest.raises(ValueError, match="expected 3 inputs"):
        forward(Network(3, 1, 1), np.ones((2, 4)))


@pytest.mark.parametrize("rows", [1, 511, 512, 513])
@pytest.mark.parametrize("kind", ["mlp", "walking_dag"])
def test_predict_is_the_argmax_of_forward(rows, kind):
    rng = make_rng(rows)
    net = from_mlp([6, 9, 4], rng) if kind == "mlp" else random_dag(rng, n_in=6, n_hidden=10, n_out=4)
    assert any(len(walk) for _, _, walk, _ in _StepPlan(net, []).segments()) == (kind == "walking_dag")
    x = rng.normal(size=(rows, 6))
    assert np.array_equal(predict(net, x), np.argmax(forward(net, x).logits(net.n_out), axis=1))


def test_forward_matches_per_neuron_oracle(rng):
    for _ in range(10):
        net = random_dag(rng, n_hidden=int(rng.integers(4, 8)))
        sample = rng.normal(size=net.n_in)
        got = forward(net, sample[None, :]).x[0]
        want = naive_forward(net.n_in, net.n_out, net.mask, net.weights, net.bias, sample)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def layered_dag(rng, widths, n_in=3, n_out=2, density=0.3):
    """random_dag whose hidden neurons carry consecutive runs of layer ids, one
    run per entry of `widths`; edges inside a run are kept."""
    net = random_dag(rng, n_in=n_in, n_hidden=sum(widths), n_out=n_out, density=density)
    ids = np.repeat(np.arange(1, len(widths) + 1), widths)
    net.layers = np.concatenate([np.zeros(n_in, np.int64), ids, np.full(n_out, len(widths) + 1)])
    return net


def bounds(net):
    return [(s, e) for s, e, *_ in _StepPlan(net, []).segments()]


def assert_close_to_oracle(got, want):
    # float64 rounding error grows with the magnitude of the sums
    assert np.allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()), rtol=0)


def test_segments_follow_layers_and_keep_outputs_apart(rng):
    net = from_mlp([5, 130, 20, 3], rng)
    # no weight between two neurons of a run: one segment per run, however wide
    assert bounds(net) == [(5, 135), (135, 155), (155, 158)]
    assert all(walk.size == 0 for _, _, walk, _ in _StepPlan(net, []).segments())
    # an active zero-weight edge inside the run changes nothing
    net.mask[5, 6] = True
    assert bounds(net) == [(5, 135), (135, 155), (155, 158)]
    # one nonzero in-run weight makes that run walk, still as one segment
    net.weights[5, 6] = 0.5
    assert bounds(net) == [(5, 135), (135, 155), (155, 158)]
    assert [walk.tolist() for _, _, walk, _ in _StepPlan(net, []).segments()] == [[1], [], []]
    # without layer ids all hidden neurons form one run, and the layer-1 to
    # layer-2 weights lie inside it
    net.weights[5, 6] = 0.0
    net.layers = None
    assert bounds(net) == [(5, 155), (155, 158)]
    assert bounds(Network(4, 0, 2)) == [(4, 6)]
    # a hidden layer id that comes back after another one starts a new segment
    net = layered_dag(rng, [2, 3])
    net.layers[net.n_in + 4] = 1
    assert bounds(net) == [(3, 5), (5, 7), (7, 8), (8, 10)]


def test_forward_multi_segment_network_matches_oracle(rng):
    # three layer ids, one layer 137 wide, edges inside every segment
    while True:
        net = layered_dag(rng, [137, 5, 12])
        segs = bounds(net)
        if all(np.any(net.weights[s:e, s:e]) for s, e in segs[:-1]):
            break
    assert [(s - net.n_in, e - net.n_in) for s, e in segs[:-1]] == [(0, 137), (137, 142), (142, 154)]
    x = rng.normal(size=(3, net.n_in))
    got = forward(net, x).x
    for row, sample in zip(got, x):
        assert_close_to_oracle(row, naive_forward(net.n_in, net.n_out, net.mask, net.weights, net.bias, sample))


def test_growing_in_run_edges_into_a_merged_run_keeps_logits_bitwise(rng):
    net = from_mlp([6, 300, 3], rng)
    x = rng.normal(size=(7, 6))
    assert bounds(net) == [(6, 306), (306, 309)]
    base = forward(net, x).logits(3).copy()
    pairs = rng.integers(6, 306, size=(200, 2))
    net.mask[pairs.min(axis=1), pairs.max(axis=1)] = True
    np.fill_diagonal(net.mask, False)
    net.validate()
    assert bounds(net) == [(6, 306), (306, 309)]
    assert np.array_equal(forward(net, x).logits(3).view(np.int64), base.view(np.int64))


def test_gradients_match_fd_on_merged_run_with_a_zero_weight_edge(rng):
    # one hidden layer 148 wide, one walk-free segment because no weight
    # joins two of its neurons; then one such edge is grown at zero
    while True:
        net = from_mlp([3, 148, 2], rng)
        x = rng.normal(size=(3, 3))
        trace = forward(net, x)
        if np.abs(trace.u[:, 3 : net.hidden_end]).min() > 1e-3:
            break
    y = rng.integers(0, 2, size=3)
    _, _, _, du = loss_and_gradients(net, x, y)
    hidden = np.arange(3, net.hidden_end)
    live = hidden[np.any(trace.x[:, hidden] != 0, axis=0) & np.any(du[:, hidden] != 0, axis=0)]
    i, j = int(live[0]), int(live[-1])
    net.mask[i, j] = True
    assert bounds(net) == [(3, net.hidden_end), (net.hidden_end, net.n)]
    _, dw, _, du = loss_and_gradients(net, x, y)
    # du already carries the 1/batch of the mean loss
    assert dw[i, j] != 0.0
    assert np.isclose(dw[i, j], np.sum(trace.x[:, i] * du[:, j]), rtol=1e-12, atol=0)
    ii, jj = np.nonzero(net.mask)
    pick = rng.choice(ii.size, size=40, replace=False)
    assert_gradients_match_fd(net, x, y, edges=[(i, j), *zip(ii[pick], jj[pick])])


def free_intra_segment_pairs(net):
    """Inactive (i, j) pairs with i and j hidden and in the same segment."""
    return [
        (int(i) + s, int(j) + s)
        for s, e, *_ in _StepPlan(net, []).segments()[:-1]
        for i, j in np.argwhere(np.triu(net.mask[s:e, s:e] == 0, 1))
    ]


def test_gradients_match_fd_on_multi_segment_network(rng):
    net, x, y = well_conditioned_dag(rng, n_in=3, n_hidden=10, n_out=2, density=0.5)
    net.layers = np.array([0] * 3 + [1] * 4 + [2] * 3 + [3] * 3 + [4] * 2)
    trace = forward(net, x)
    _, _, _, du = loss_and_gradients(net, x, y)
    # an active zero-weight edge inside a segment, between two neurons that
    # carry signal: its gradient must not vanish with its weight
    i, j = next(
        (i, j) for i, j in free_intra_segment_pairs(net) if np.any(trace.x[:, i] * du[:, j])
    )
    net.mask[i, j] = 1.0
    _, dw, _, du = loss_and_gradients(net, x, y)
    # du already carries the 1/batch of the mean loss
    assert dw[i, j] != 0.0
    assert np.isclose(dw[i, j], np.sum(trace.x[:, i] * du[:, j]), rtol=1e-12, atol=0)
    assert_gradients_match_fd(net, x, y)
    assert_gradients_match_fd(net, x, y, weight_decay=1e-3)


def test_gradients_match_fd_on_wide_segment(rng):
    while True:
        net = layered_dag(rng, [137, 6], density=0.05)
        x = rng.normal(size=(3, net.n_in))
        uh = forward(net, x).u[:, net.n_in : net.hidden_end]
        if np.abs(uh).min() > 1e-3:
            break
    y = rng.integers(0, net.n_out, size=3)
    s, e, walk, _ = _StepPlan(net, []).segments()[0]
    assert e - s == 137 and walk.size
    zero = free_intra_segment_pairs(net)[0]
    assert s <= zero[0] < zero[1] < e
    net.mask[zero] = 1.0
    ii, jj = np.nonzero(net.mask)
    pick = rng.choice(ii.size, size=40, replace=False)
    assert_gradients_match_fd(net, x, y, edges=[zero, *zip(ii[pick], jj[pick])])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_hidden=st.integers(0, 276),
    n_layers=st.integers(0, 5),
    sort_layers=st.booleans(),
    density=st.floats(0.0, 0.3),
)
@settings(max_examples=50)
def test_forward_matches_oracle_on_random_layer_ids(seed, n_hidden, n_layers, sort_layers, density):
    rng = make_rng(seed)
    net = random_dag(rng, n_hidden=n_hidden, density=density)
    if n_layers:
        ids = rng.integers(0, n_layers, size=net.n)
        net.layers = np.sort(ids) if sort_layers else ids
    sample = rng.normal(size=net.n_in)
    got = forward(net, sample[None, :]).x[0]
    assert_close_to_oracle(got, naive_forward(net.n_in, net.n_out, net.mask, net.weights, net.bias, sample))


@given(
    seed=st.integers(0, 2**32 - 1),
    widths=st.lists(st.integers(1, 12), max_size=3),
    wide=st.integers(0, 20),
    density=st.floats(0.01, 0.3),
    weight_decay=st.sampled_from([0.0, 1e-3]),
)
@settings(max_examples=25)
def test_gradients_match_backprop_oracle_on_dag_runs(seed, widths, wide, density, weight_decay):
    # `wide` adds a run wider than 128 neurons; in every segment with an edge
    # between two of its neurons, the first such neuron only sends and the
    # last only receives
    rng = make_rng(seed)
    widths = widths + [128 + wide] if wide else widths
    net = layered_dag(rng, widths, density=density)
    net.weights *= 1.0 / np.sqrt(max(1.0, density * net.n))
    x = rng.normal(size=(3, net.n_in))
    y = rng.integers(0, net.n_out, size=3)
    _, dw, dbias, du = loss_and_gradients(net, x, y, weight_decay=weight_decay)
    want = naive_backward(net.n_in, net.n_out, net.mask, net.weights, net.bias, x, y, weight_decay)
    for got, oracle in zip((du, dw, dbias), want):
        assert_close_to_oracle(got, oracle)


def one_run_dag(rng, width, in_run, n_in=4, n_out=3):
    """A DAG whose `width` hidden neurons form one layer run: every pair from
    an input, and from the run to an output, active; inside the run the
    pairs of the bool (width, width) upper-triangular `in_run`. Weights are
    scaled by fan-in so that activations stay of order one."""
    net = Network(n_in, width, n_out)
    he = net.hidden_end
    net.mask[:n_in, n_in:] = True
    net.mask[n_in:he, he:] = True
    net.mask[n_in:he, n_in:he] = in_run
    fan_in = np.maximum(net.mask.sum(axis=0), 1)
    net.weights = net.mask * rng.normal(size=(net.n, net.n)) / np.sqrt(fan_in)
    net.bias = rng.normal(0.0, 0.1, size=width + n_out)
    net.layers = np.repeat([0, 1, 2], [n_in, width, n_out])
    return net


def straddling_pattern(rng, width):
    """A sparse in-run pattern with walk columns on both sides of every
    sub-block edge, edges across them, and an edge from the first neuron of
    the run to the last."""
    in_run = np.triu(rng.random((width, width)) < 0.03, 1)
    for edge in range(WALK_BLOCK, width, WALK_BLOCK):
        in_run[edge - 2, edge - 1] = in_run[edge - 1, edge] = in_run[edge, edge + 1] = True
        in_run[edge - 3, edge + 2] = True
    in_run[0, width - 1] = True
    return in_run


IN_RUN_PATTERNS = {
    "straddling": straddling_pattern,
    # scheme A's random growth: a sparse scatter of in-run edges
    "sparse": lambda rng, width: np.triu(rng.random((width, width)) < 0.05, 1),
    # scheme B's full growth: every in-run pair
    "full_triangle": lambda rng, width: np.triu(np.ones((width, width), dtype=bool), 1),
}


@pytest.mark.parametrize("pattern", sorted(IN_RUN_PATTERNS))
def test_blocked_walk_matches_the_backprop_oracle(pattern):
    rng = make_rng(21)
    width = 165
    net = one_run_dag(rng, width, IN_RUN_PATTERNS[pattern](rng, width))
    segs = _StepPlan(net, []).segments()
    # the whole run is one segment
    assert [(s - net.n_in, e - net.n_in) for s, e, *_ in segs[:-1]] == [(0, width)]
    blocks = segs[0][3][1]
    # the walking run is cut into sub-blocks, with GEMMs between them and
    # gemvs inside them
    assert len(blocks) == -(-width // WALK_BLOCK)
    assert sum(walk.size for _, _, walk, _ in segs[:-1]) > 2 * width // WALK_BLOCK
    assert any(fed for _, _, fed, *_ in blocks) and any(feeds for *_, feeds, _ in blocks)
    assert any(len(receivers) > 1 for _, _, _, receivers, *_ in blocks)
    x = rng.normal(size=(4, net.n_in))
    y = rng.integers(0, net.n_out, size=4)
    loss, dw, dbias, du = loss_and_gradients(net, x, y, weight_decay=1e-3)
    args = (net.n_in, net.n_out, net.mask, net.weights, net.bias)
    logits = np.array([naive_forward(*args, sample)[net.hidden_end :] for sample in x])
    z = logits - logits.max(axis=1, keepdims=True)
    want = np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(4), y])
    want += 0.5e-3 * np.sum(net.weights**2)
    assert math.isclose(loss, want, rel_tol=1e-12)
    for got, oracle in zip((du, dw, dbias), naive_backward(*args, x, y, 1e-3)):
        assert_close_to_oracle(got, oracle)


def test_a_zero_weight_input_to_output_edge_keeps_a_trained_mlp_bitwise(rng):
    # scheme B grows input-to-output skip edges at weight zero; the output
    # GEMMs read from the first row with a nonzero weight, which they leave
    net = from_mlp([784, 200, 10], rng)
    x = rng.normal(size=(64, 784))
    y = rng.integers(0, 10, size=64)
    opt = OptimizerConfig(batch_size=32, epochs_per_iteration=2)
    train_weights(net, SimpleNamespace(train_xy=lambda: (x, y)), opt, rng)
    before = [forward(net, x).logits(10).copy(), *(np.copy(v) for v in loss_and_gradients(net, x, y))]
    net.mask[[3, 400], net.hidden_end + 2] = True
    net.validate()
    after = [forward(net, x).logits(10), *loss_and_gradients(net, x, y)]
    # logits, loss, dbias and du; the output dW GEMM spans the mask's rows
    for i in (0, 1, 3, 4):
        assert np.array_equal(np.asarray(after[i]).view(np.int64), np.asarray(before[i]).view(np.int64))


def test_zero_weight_in_run_edges_keep_a_walking_dag_bitwise():
    rng = make_rng(8)
    width = 144
    net = one_run_dag(rng, width, straddling_pattern(rng, width))
    x = rng.normal(size=(6, net.n_in))
    y = rng.integers(0, net.n_out, size=6)
    walks = [walk.tolist() for _, _, walk, _ in _StepPlan(net, []).segments()]
    before = [forward(net, x).logits(net.n_out).copy(), *(np.copy(v) for v in loss_and_gradients(net, x, y))]
    # inactive in-run pairs inside one sub-block, across one sub-block edge
    # and across most of the run
    a = net.n_in
    for i, j in [(1, 3), (2, WALK_BLOCK + 4), (WALK_BLOCK - 1, 3 * WALK_BLOCK), (5, 130)]:
        assert not net.mask[a + i, a + j]
        net.mask[a + i, a + j] = True
    net.validate()
    assert [walk.tolist() for _, _, walk, _ in _StepPlan(net, []).segments()] == walks
    after = [forward(net, x).logits(net.n_out), *loss_and_gradients(net, x, y)]
    for i in (0, 1, 3, 4):
        assert np.array_equal(np.asarray(after[i]).view(np.int64), np.asarray(before[i]).view(np.int64))


def bitwise(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def walk_reference(net, x, du_out):
    """The run's preactivations, activations and dU (from du_out, the dU of
    the outputs) of a one-run DAG, by the blocked-walk reference over the
    sub-blocks the plan cuts from its nonzero weights, between the GEMMs of
    the engine's segments."""
    s, he, w = net.n_in, net.hidden_end, net.weights
    (_, _, _, (_, blocks)), (_, _, _, (r, _)) = _StepPlan(net, []).segments()
    acts = np.empty((len(x), net.n))
    acts[:, :s] = x
    ub = acts[:, :s] @ w[:s, s:he]
    ub += net.bias[: he - s]
    u = blocked_walk(w[s:he, s:he], blocks, ub)
    acts[:, s:he] = np.maximum(u, 0.0)
    r = max(r, s)
    dx = np.zeros((len(x), he - s))
    dx[:, r - s :] += du_out @ np.ascontiguousarray(w[r:he, he:].T)
    return u, acts[:, s:he], blocked_pull(w[s:he, s:he], blocks, acts[:, s:he], dx)


@pytest.mark.parametrize("width", [15, 16, 17, 33, 48])
def test_bound_walk_and_pull_equal_the_blocked_walk_reference_bitwise(width):
    rng = make_rng(width)
    in_run = np.triu(rng.random((width, width)) < 0.15, 1)
    # edges into the sub-block edge, from the last sub-block to the end of
    # the run, and from the first neuron across it, so that sub-blocks are
    # fed and feed
    for edge in range(WALK_BLOCK, width, WALK_BLOCK):
        in_run[edge - 1, edge] = in_run[edge - 3, width - 1] = in_run[0, min(edge + 1, width - 1)] = True
    in_run[0, width - 1] = True
    net = one_run_dag(rng, width, in_run)
    # an active in-run pair at weight zero, turned nonzero mid-call below
    i, j = (int(v) for v in np.argwhere(np.triu(~in_run, 1))[0])
    s, he = net.n_in, net.hidden_end
    net.mask[s + i, s + j] = True
    plan = _StepPlan(net, [])
    blocks = plan.segments()[0][3][1]
    assert len(blocks) == -(-width // WALK_BLOCK)
    if width > WALK_BLOCK:
        assert any(fed for _, _, fed, *_ in blocks) and any(feeds for *_, feeds, _ in blocks)
    x = rng.normal(size=(64, net.n_in))
    y = rng.integers(0, net.n_out, size=64)

    def check(b):
        _, _, du, acts = _backprop(plan, x[:b], y[:b])
        u, xs, du_run = walk_reference(net, x[:b], du[:, he:])
        assert bitwise(acts[:, s:he], xs) and bitwise(du[:, s:he], du_run)
        assert bitwise(forward(net, x[:b]).u[:, s:he], u)

    # the full and the ragged last minibatch of a call, and a single row,
    # each through a program of its own; a batch larger than any before
    # gets new step buffers, and the programs are built anew over them
    for b in (43, 64, 1):
        check(b)
    assert sorted(plan.programs) == [1, 64]
    seg = plan.segments()[0]
    net.weights[s + i, s + j] = 0.5
    assert plan.segments()[0] is not seg
    for b in (64, 43, 1):
        check(b)
    assert sorted(plan.programs) == [1, 43, 64]


REPLACE_ARRAYS = {
    "weights": lambda net: setattr(net, "weights", net.weights.copy()),
    "bias": lambda net: setattr(net, "bias", net.bias.copy()),
    # compaction replaces the mask, weights and bias
    "prune_isolated_neurons": lambda net: prune_isolated_neurons(net),
}


@pytest.mark.parametrize("replace", REPLACE_ARRAYS.values(), ids=REPLACE_ARRAYS.keys())
def test_a_step_through_a_plan_whose_arrays_were_replaced_raises(replace):
    net = from_mlp([4, 6, 3], make_rng(1))
    # hidden neuron 9 loses its out-edges, so compaction drops it
    net.mask[9, 10:] = False
    net.weights[9, 10:] = 0.0
    x = make_rng(2).normal(size=(5, 4))
    y = np.array([0, 1, 2, 0, 1])
    plan = _StepPlan(net, [])
    _backprop(plan, x, y)
    replace(net)
    with pytest.raises(RuntimeError, match="replaced"):
        _backprop(plan, x, y)


def test_a_call_through_a_plan_refuses_weight_decay():
    # training folds the decay into its update, so a plan's dW carries none
    net = from_mlp([4, 6, 3], make_rng(1))
    x, y = make_rng(2).normal(size=(5, 4)), np.array([0, 1, 2, 0, 1])
    with pytest.raises(ValueError, match="weight_decay"):
        loss_and_gradients(net, x, y, weight_decay=1e-3, _plan=_StepPlan(net, []))


def test_forward_order_invariant_under_hidden_permutation(rng):
    for _ in range(5):
        net = random_dag(rng, n_in=3, n_hidden=8, n_out=2, density=0.35)
        x = rng.normal(size=(4, 3))
        base = forward(net, x).logits(2)
        # find another valid topological order of hidden neurons
        perm = np.arange(net.n)
        h = np.arange(net.n_in, net.hidden_end)
        for _try in range(50):
            cand = rng.permutation(h)
            p = perm.copy()
            p[net.n_in : net.hidden_end] = cand
            m2 = net.mask[np.ix_(p, p)]
            if np.all(np.tril(m2) == 0):
                net2 = Network(
                    net.n_in,
                    net.n_hidden,
                    net.n_out,
                    m2,
                    net.weights[np.ix_(p, p)],
                    np.concatenate([net.bias[cand - net.n_in], net.bias[net.n_hidden :]]),
                )
                assert np.allclose(forward(net2, x).logits(2), base, atol=1e-12, rtol=0)
                break


def test_loss_uniform_logits_is_log_nclasses():
    net = Network(4, 3, 10)
    loss, _, _, _ = loss_and_gradients(net, np.ones((6, 4)), np.arange(6) % 10)
    assert math.isclose(loss, math.log(10), rel_tol=1e-12)


def test_loss_label_out_of_range():
    net = Network(2, 2, 3)
    with pytest.raises(ValueError, match="label out of range"):
        loss_and_gradients(net, np.ones((2, 2)), np.array([0, 3]))


def well_conditioned_dag(rng, **kw):
    # resample until hidden preactivities sit away from the relu kink so
    # finite differences are well posed
    while True:
        net = random_dag(rng, **kw)
        x = rng.normal(size=(3, net.n_in))
        y = rng.integers(0, net.n_out, size=3)
        trace = forward(net, x)
        uh = trace.u[:, net.n_in : net.hidden_end]
        if uh.size == 0 or np.abs(uh).min() > 1e-3:
            return net, x, y


def assert_gradients_match_fd(net, x, y, weight_decay=0.0, rel=1e-6, asb=1e-8, edges=None):
    _, dw, dbias, _ = loss_and_gradients(net, x, y, weight_decay=weight_decay)

    def loss_fn():
        return loss_and_gradients(net, x, y, weight_decay=weight_decay)[0]

    if edges is None:
        edges = zip(*np.nonzero(net.mask))
    for i, j in edges:
        fd = fd_gradient(
            loss_fn,
            lambda: net.weights[i, j],
            lambda v: net.weights.__setitem__((i, j), v),
        )
        tol = rel * max(abs(fd), abs(dw[i, j])) + asb
        assert abs(fd - dw[i, j]) <= tol, (i, j, fd, dw[i, j])
    for b in range(net.bias.size):
        fd = fd_gradient(
            loss_fn, lambda: net.bias[b], lambda v: net.bias.__setitem__(b, v)
        )
        tol = rel * max(abs(fd), abs(dbias[b])) + asb
        assert abs(fd - dbias[b]) <= tol, ("bias", b, fd, dbias[b])


def test_gradients_match_finite_differences_12_neurons(rng):
    net, x, y = well_conditioned_dag(rng, n_in=3, n_hidden=7, n_out=2, density=0.5)
    assert net.n <= 12
    assert_gradients_match_fd(net, x, y)
    assert_gradients_match_fd(net, x, y, weight_decay=1e-3)


def test_gradients_zero_where_mask_zero(rng):
    net = random_dag(rng, n_hidden=8)
    x = rng.normal(size=(4, net.n_in))
    y = rng.integers(0, net.n_out, size=4)
    _, dw, _, _ = loss_and_gradients(net, x, y)
    assert np.array_equal(dw[net.mask == 0], np.zeros(int((net.mask == 0).sum())))


def test_masking_soundness_output_invariant_to_masked_weight(rng):
    net = random_dag(rng, n_in=3, n_hidden=6, n_out=2, density=0.4)
    x = rng.normal(size=(4, 3))
    base = forward(net, x).logits(2).copy()
    inactive = np.argwhere((net.mask == 0) & (np.triu(np.ones((net.n, net.n)), 1) == 1))
    i, j = inactive[len(inactive) // 2]
    # a masked weight must not influence the output; restore afterwards
    net.weights[i, j] = 123.0
    net.mask[i, j] = 1.0  # keep invariant while probing
    net.weights[i, j] = 0.0
    net.mask[i, j] = 0.0
    assert np.array_equal(forward(net, x).logits(2), base)


def fig1_parallel_net(k=4):
    # k hidden neurons wired input -> each -> output, all in parallel
    net = Network(1, k, 1)
    for h in range(1, k + 1):
        net.mask[0, h] = 1.0
        net.mask[h, k + 1] = 1.0
    net.weights = net.mask * 0.5
    return net


def fig1_chain_net(k=3):
    # hidden neurons in a single chain: depth k + 1
    net = Network(1, k, 1)
    net.mask[0, 1] = 1.0
    for h in range(1, k):
        net.mask[h, h + 1] = 1.0
    net.mask[k, k + 1] = 1.0
    net.weights = net.mask * 0.5
    return net


def test_depth_parallel_and_chain_wirings():
    assert depth(fig1_parallel_net(4)) == 2
    assert depth(fig1_chain_net(3)) == 4


def test_depth_matches_dp_oracle(rng):
    checked = 0
    for _ in range(20):
        net = random_dag(rng, density=0.3)
        want = longest_path_dp(net.n_in, net.n_out, net.mask)
        if want < 0:
            with pytest.raises(UnreachableOutputError):
                depth(net)
        else:
            assert depth(net) == want
            checked += 1
    assert checked > 5


def test_depth_unreachable_output_errors():
    with pytest.raises(UnreachableOutputError):
        depth(Network(2, 3, 2))


def test_depth_of_mlp_constructions(rng):
    assert depth(from_mlp([5, 3, 2], rng)) == 2
    for sizes in ([2, 3, 4, 2], [1, 1, 1, 1], [4, 8, 2, 3]):
        assert depth(from_mlp(sizes, rng)) == 3


def test_connection_count_small_mlp(rng):
    net = from_mlp([2, 2, 2], rng)
    assert connection_count(net) == 12
    net.mask[:] = 0
    net.weights[:] = 0
    assert connection_count(net) == 0


def test_connection_count_matches_scan_oracle(rng):
    for _ in range(10):
        net = random_dag(rng)
        assert connection_count(net) == scan_connection_count(net.n_in, net.n_out, net.mask)


def test_from_mlp_mnist_scale_head():
    net = from_mlp([784, 500, 10], make_rng(0))
    assert int(net.mask.sum()) == 397000
    assert connection_count(net) == 397000 + 510


def test_from_mlp_minimal_and_errors(rng):
    assert int(from_mlp([2, 1], rng).mask.sum()) == 2
    with pytest.raises(ValueError, match="empty layer"):
        from_mlp([3, 0, 2], rng)
    with pytest.raises(ValueError):
        from_mlp([3], rng)


def test_from_mlp_weight_scale(rng):
    net = from_mlp([100, 50, 10], rng)
    w1 = net.weights[:100, 100:150]
    assert abs(w1.std() - np.sqrt(2.0 / 100)) < 0.02


def test_prune_isolated_removes_dead_ends(rng):
    net = from_mlp([2, 3, 2], rng)
    # cut all out-edges of hidden neuron 3 (second hidden)
    net.mask[3, :] = 0
    net.weights[3, :] = 0
    prune_isolated_neurons(net)
    assert net.n_hidden == 2
    net.validate()


def test_prune_isolated_mlp_unchanged(rng):
    net = from_mlp([3, 4, 2], rng)
    before = net.mask.copy()
    prune_isolated_neurons(net)
    assert np.array_equal(net.mask, before)


def test_prune_isolated_keeps_the_arrays_when_every_neuron_stays(rng):
    net = from_mlp([3, 4, 2], rng)
    arrays = net.mask, net.weights, net.bias, net.layers
    prune_isolated_neurons(net)
    assert all(a is b for a, b in zip((net.mask, net.weights, net.bias, net.layers), arrays))


def test_prune_isolated_chain_cascades():
    # input 0 -> a(1) -> b(2) -> output 3, then cut b's out-edge
    net = Network(1, 2, 1)
    net.mask[0, 1] = net.mask[1, 2] = net.mask[2, 3] = 1.0
    net.weights = net.mask * 0.3
    net.mask[2, 3] = 0.0
    net.weights[2, 3] = 0.0
    alive = fixed_point_isolated(1, 1, net.mask)
    prune_isolated_neurons(net)
    assert net.n_hidden == sum(alive[1:3]) == 0
    net.validate()


def test_prune_isolated_matches_fixed_point_oracle(rng):
    for _ in range(10):
        net = random_dag(rng, density=0.15)
        net.layers = np.arange(net.n)  # tags every neuron with its original id
        before = net.clone()
        keep = np.flatnonzero(fixed_point_isolated(net.n_in, net.n_out, net.mask))
        kept_hidden = keep[(keep >= net.n_in) & (keep < net.hidden_end)]
        prune_isolated_neurons(net)
        assert np.array_equal(net.layers, keep)
        assert net.n_hidden == kept_hidden.size
        assert np.array_equal(net.mask, before.mask[np.ix_(keep, keep)])
        assert np.array_equal(net.weights, before.weights[np.ix_(keep, keep)])
        want_bias = np.concatenate([before.bias[kept_hidden - net.n_in], before.bias[before.n_hidden :]])
        assert np.array_equal(net.bias, want_bias)
        net.validate()


def test_graph_passes_by_layer_run_match_the_oracles():
    # layer runs with and without in-run edges, sparse enough that some
    # neurons are unreachable or dead ends
    rng = make_rng(31)
    for _ in range(30):
        widths = rng.integers(1, 9, size=int(rng.integers(1, 5))).tolist()
        net = layered_dag(rng, widths, density=float(rng.uniform(0.05, 0.4)))
        cuts = np.cumsum([net.n_in] + widths)
        for a, e in zip(cuts, cuts[1:]):
            if rng.random() < 0.5:
                net.mask[a:e, a:e] = False
                net.weights[a:e, a:e] = 0.0
        want = longest_path_dp(net.n_in, net.n_out, net.mask)
        if want < 0:
            with pytest.raises(UnreachableOutputError):
                depth(net)
        else:
            assert depth(net) == want
        assert connection_count(net) == scan_connection_count(net.n_in, net.n_out, net.mask)
        keep = np.flatnonzero(fixed_point_isolated(net.n_in, net.n_out, net.mask))
        before = net.clone()
        prune_isolated_neurons(net)
        assert net.n == keep.size
        assert np.array_equal(net.mask, before.mask[np.ix_(keep, keep)])


def test_validate_rejects_a_float_mask(rng):
    net = from_mlp([3, 4, 2], rng)
    net.mask = net.mask.astype(np.float64)
    with pytest.raises(ValueError, match="mask must be bool"):
        net.validate()


# from_mlp([3, 4, 2]): neurons 0-2 inputs, 3-6 hidden, 7-8 outputs
ILLEGAL_PAIRS = {"backward": (4, 3), "self_loop": (5, 5), "into_input": (0, 1), "out_of_output": (7, 8)}


@pytest.mark.parametrize("pair", ILLEGAL_PAIRS.values(), ids=ILLEGAL_PAIRS.keys())
def test_validate_rejects_an_active_illegal_pair(rng, pair):
    net = from_mlp([3, 4, 2], rng)
    net.validate()
    net.mask[pair] = True
    with pytest.raises(ValueError, match="illegal connection"):
        net.validate()


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    net = random_dag(rng, n_hidden=9)
    path = tmp_path / "ck.json"
    save_checkpoint(net, path, seed=424242)
    loaded, meta = load_checkpoint(path)
    assert meta["seed"] == 424242
    assert np.array_equal(loaded.mask, net.mask)
    assert np.array_equal(loaded.weights, net.weights)
    assert np.array_equal(loaded.bias, net.bias)
    assert meta["activation"] == "relu"
    # a second save produces identical bytes
    path2 = tmp_path / "ck2.json"
    save_checkpoint(loaded, path2, seed=424242)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rle_is_compact(tmp_path, rng):
    net = from_mlp([20, 10, 5], rng)
    save_checkpoint(net, tmp_path / "c.json")
    d = json.loads((tmp_path / "c.json").read_text())
    # fully connected rows compress to a single run each
    assert all(len(runs) <= 1 for runs in d["mask_rle"])


def test_checkpoint_rejects_other_files(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"hello": 1}')
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(p)


# from_mlp([3, 4, 2]): neurons 0-2 inputs, 3-6 hidden, 7-8 outputs; the
# input -> output pair (0, 7) is legal but inactive.
TAMPERED_CHECKPOINTS = {
    "negative_weight_index": lambda d: d["weights"].append([-1, -1, 5.0]),
    "weight_index_past_end": lambda d: d["weights"].append([0, 9, 5.0]),
    "fractional_weight_index": lambda d: d["weights"].append([0.5, 4, 5.0]),
    "weight_off_mask": lambda d: d["weights"].append([0, 7, 5.0]),
    "nan_weight": lambda d: d["weights"][0].__setitem__(2, float("nan")),
    "inf_bias": lambda d: d["bias"].__setitem__(0, float("inf")),
    "short_bias": lambda d: d["bias"].pop(),
    "run_past_end": lambda d: d["mask_rle"][0].append([8, 5]),
    "negative_run_start": lambda d: d["mask_rle"].__setitem__(0, [[-2, 2]]),
    "missing_mask_row": lambda d: d["mask_rle"].pop(),
    "edge_into_input": lambda d: d["mask_rle"][5].append([0, 1]),
    "short_layers": lambda d: d["layers"].pop(),
    "fractional_layer_ids": lambda d: d.__setitem__("layers", [v + 0.7 for v in d["layers"]]),
    "bool_layer_id": lambda d: d["layers"].__setitem__(0, False),
    "string_layer_id": lambda d: d["layers"].__setitem__(0, "0"),
    "string_bias": lambda d: d["bias"].__setitem__(0, "1.5"),
    "bool_bias": lambda d: d["bias"].__setitem__(0, True),
    "float_neuron_count": lambda d: d.__setitem__("n_hidden", 4.0),
    "version_2": lambda d: d.__setitem__("version", 2),
    "tanh_activation": lambda d: d.__setitem__("activation", "tanh"),
}


@pytest.mark.parametrize("tamper", TAMPERED_CHECKPOINTS.values(), ids=TAMPERED_CHECKPOINTS.keys())
def test_tampered_checkpoint_is_rejected(tamper):
    d = json.loads(json.dumps(checkpoint_dict(from_mlp([3, 4, 2], make_rng(0)))))
    network_from_dict(d).validate()
    tamper(d)
    with pytest.raises(ValueError):
        network_from_dict(d)


def test_accuracy_counts_argmax(rng):
    net = from_mlp([2, 4, 2], rng)
    x = rng.normal(size=(10, 2))
    y = (x[:, 0] > 0).astype(int)
    acc = accuracy(net, x, y)
    assert 0.0 <= acc <= 1.0
