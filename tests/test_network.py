import json
import math

import numpy as np
import pytest

from growprune.network import (
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
    loss_value,
    network_from_dict,
    prune_isolated_neurons,
    save_checkpoint,
)
from growprune.numerics import make_rng
from conftest import random_dag
from oracles import (
    fd_gradient,
    fixed_point_isolated,
    longest_path_dp,
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


def test_forward_matches_per_neuron_oracle(rng):
    for _ in range(10):
        net = random_dag(rng, n_hidden=int(rng.integers(4, 8)))
        sample = rng.normal(size=net.n_in)
        got = forward(net, sample[None, :]).x[0]
        want = naive_forward(net.n_in, net.n_out, net.mask, net.weights, net.bias, sample)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_forward_blocked_evaluation_matches_oracle(rng):
    # force several blocks to exercise the intra-block walk
    net = random_dag(rng, n_in=3, n_hidden=20, n_out=2, density=0.5)
    sample = rng.normal(size=3)
    want = naive_forward(3, 2, net.mask, net.weights, net.bias, sample)
    for block in (4, 7, 64):
        got = forward(net, sample[None, :], block=block).x[0]
        assert np.allclose(got, want, atol=1e-12, rtol=0)


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


def assert_gradients_match_fd(net, x, y, weight_decay=0.0, rel=1e-6, asb=1e-8):
    _, dw, dbias, _ = loss_and_gradients(net, x, y, weight_decay=weight_decay)

    def loss_fn():
        return loss_value(net, x, y, weight_decay=weight_decay)

    ii, jj = np.nonzero(net.mask)
    for i, j in zip(ii, jj):
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
        alive = fixed_point_isolated(net.n_in, net.n_out, net.mask)
        expect_hidden = sum(alive[net.n_in : net.hidden_end])
        prune_isolated_neurons(net)
        assert net.n_hidden == expect_hidden
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
