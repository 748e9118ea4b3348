import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growprune.network import (
    SEGMENT,
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
)
from growprune.numerics import make_rng
from conftest import random_dag
from oracles import (
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
    # one nonzero in-run weight cuts that run every SEGMENT neurons
    net.weights[5, 6] = 0.5
    assert bounds(net) == [(5, 133), (133, 135), (135, 155), (155, 158)]
    assert [walk.tolist() for _, _, walk, _ in _StepPlan(net, []).segments()] == [[1], [], [], []]
    # without layer ids all hidden neurons form one run, and the layer-1 to
    # layer-2 weights lie inside it
    net.weights[5, 6] = 0.0
    net.layers = None
    assert bounds(net) == [(5, 133), (133, 155), (155, 158)]
    assert bounds(Network(4, 0, 2)) == [(4, 6)]
    # a hidden layer id that comes back after another one starts a new segment
    net = layered_dag(rng, [2, 3])
    net.layers[net.n_in + 4] = 1
    assert bounds(net) == [(3, 5), (5, 7), (7, 8), (8, 10)]


def test_forward_multi_segment_network_matches_oracle(rng):
    # three layer ids, one layer wider than SEGMENT, edges inside every segment
    while True:
        net = layered_dag(rng, [SEGMENT + 9, 5, 12])
        segs = bounds(net)
        if all(np.any(net.weights[s:e, s:e]) for s, e in segs[:-1]):
            break
    assert len(segs) == 5
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
    # one hidden layer wider than SEGMENT, merged into one segment because no
    # weight joins two of its neurons; then one such edge is grown at zero
    while True:
        net = from_mlp([3, SEGMENT + 20, 2], rng)
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
        net = layered_dag(rng, [SEGMENT + 9, 6], density=0.05)
        x = rng.normal(size=(3, net.n_in))
        uh = forward(net, x).u[:, net.n_in : net.hidden_end]
        if np.abs(uh).min() > 1e-3:
            break
    y = rng.integers(0, net.n_out, size=3)
    s, e, *_ = _StepPlan(net, []).segments()[0]
    assert e - s == SEGMENT
    zero = free_intra_segment_pairs(net)[0]
    assert s <= zero[0] < zero[1] < e
    net.mask[zero] = 1.0
    ii, jj = np.nonzero(net.mask)
    pick = rng.choice(ii.size, size=40, replace=False)
    assert_gradients_match_fd(net, x, y, edges=[zero, *zip(ii[pick], jj[pick])])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_hidden=st.integers(0, 2 * SEGMENT + 20),
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
    # `wide` adds a run wider than SEGMENT; in every segment with an edge
    # between two of its neurons, the first such neuron only sends and the
    # last only receives
    rng = make_rng(seed)
    widths = widths + [SEGMENT + wide] if wide else widths
    net = layered_dag(rng, widths, density=density)
    net.weights *= 1.0 / np.sqrt(max(1.0, density * net.n))
    x = rng.normal(size=(3, net.n_in))
    y = rng.integers(0, net.n_out, size=3)
    _, dw, dbias, du = loss_and_gradients(net, x, y, weight_decay=weight_decay)
    want = naive_backward(net.n_in, net.n_out, net.mask, net.weights, net.bias, x, y, weight_decay)
    for got, oracle in zip((du, dw, dbias), want):
        assert_close_to_oracle(got, oracle)


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
