import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from growprune import schemes
from growprune.archops import GrowthPolicy, grow_connections
from growprune.data import make_blobs, make_moons, split
from growprune.network import (
    SEGMENT,
    _segments,
    accuracy,
    connection_count,
    from_mlp,
    live_blocks,
    loss_and_gradients,
)
from growprune.numerics import make_rng
from growprune.schemes import (
    SPARSE_FILL,
    HistoryWriter,
    OptimizerConfig,
    SchemeConfig,
    TrainingDiverged,
    _LiveUnit,
    run_scheme,
    train_weights,
)

from conftest import random_dag
from oracles import dense_training


def blob_dataset(seed=0, n=150, std=0.6):
    rng = make_rng(seed)
    centers = np.array([[0.0, 0.0, 2.0], [3.0, 3.0, 0.0], [0.0, -3.0, -2.0]])
    return split(make_blobs(n, centers, std, rng), (0.7, 0.15), rng)


def separable_dataset(seed=3):
    rng = make_rng(seed)
    centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
    return split(make_blobs(120, centers, 0.4, rng), (0.7, 0.15), rng)


def test_train_reaches_high_accuracy_on_separable_blobs():
    ds = separable_dataset()
    rng = make_rng(1)
    net = from_mlp([2, 8, 2], rng)
    train_weights(net, ds, OptimizerConfig(epochs_per_iteration=50), rng)
    x, y = ds.train_xy()
    assert accuracy(net, x, y) >= 0.99


def test_zero_learning_rate_keeps_weights():
    ds = separable_dataset()
    rng = make_rng(1)
    net = from_mlp([2, 8, 2], rng)
    w0, b0 = net.weights.copy(), net.bias.copy()
    train_weights(net, ds, OptimizerConfig(learning_rate=0.0, epochs_per_iteration=3), rng)
    assert np.array_equal(net.weights, w0)
    assert np.array_equal(net.bias, b0)


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_masked_weights_stay_zero_through_training(kind):
    ds = separable_dataset()
    rng = make_rng(2)
    net = from_mlp([2, 8, 2], rng)
    net.mask[0, 2:6] = 0.0
    net.weights[0, 2:6] = 0.0
    train_weights(
        net, ds, OptimizerConfig(kind=kind, learning_rate=0.01, epochs_per_iteration=5), rng
    )
    assert np.array_equal(net.weights[0, 2:6], np.zeros(4))
    net.validate()


def layered_random_dag():
    rng = make_rng(5)
    net = random_dag(rng, n_in=4, n_hidden=14, n_out=3, density=0.5)
    net.layers = np.array([0] * 4 + [1] * 5 + [2] * 4 + [3] * 5 + [4] * 3)
    assert len(_segments(net)) == 4 and np.any(net.weights[4:9, 4:9])
    return net


def wide_mlp_with_a_zero_weight_edge():
    # the hidden run is one segment until training gives the grown in-run
    # edge a nonzero weight, then it is cut at SEGMENT: the dW blocks change
    # between steps while the optimizer's live blocks stay
    net = from_mlp([4, SEGMENT + 20, 3], make_rng(5))
    net.mask[4, 10] = net.mask[20, SEGMENT + 10] = True
    assert len(_segments(net)) == 2
    return net


def assert_training_matches_dense_oracle(net, kind):
    rng = make_rng(6)
    x = rng.normal(size=(24, net.n_in))
    y = rng.integers(0, net.n_out, size=24)
    data = SimpleNamespace(train_xy=lambda: (x, y))
    opt = OptimizerConfig(
        kind=kind, learning_rate=0.05, weight_decay=1e-2, batch_size=5, epochs_per_iteration=3
    )
    ref = net.clone()
    w0 = net.weights.copy()
    train_weights(net, data, opt, make_rng(9))
    dense_training(ref, x, y, opt, make_rng(9), loss_and_gradients)
    assert np.array_equal(net.weights.view(np.int64), ref.weights.view(np.int64))
    assert np.array_equal(net.bias.view(np.int64), ref.bias.view(np.int64))
    outside = np.ones((net.n, net.n), dtype=bool)
    for blk in live_blocks(net):
        outside[blk] = False
    assert np.all(net.weights[outside] == 0.0)
    assert np.array_equal(net.weights[outside].view(np.int64), w0[outside].view(np.int64))
    net.validate()


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_rectangle_update_matches_dense_oracle(kind):
    assert_training_matches_dense_oracle(layered_random_dag(), kind)


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_update_matches_dense_oracle_while_the_partition_changes(kind):
    assert_training_matches_dense_oracle(wide_mlp_with_a_zero_weight_edge(), kind)


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_update_matches_dense_oracle_while_the_walk_changes(kind):
    # every legal pair grown at weight zero: the hidden runs, narrower than
    # SEGMENT, keep their partition, while the grown in-run edges join the
    # walk after the first update
    net = layered_random_dag()
    grow_connections(net, GrowthPolicy("full"), make_rng(7))
    before = _segments(net)
    assert_training_matches_dense_oracle(net, kind)
    after = _segments(net)
    assert [seg[:2] for seg in after] == [seg[:2] for seg in before]
    assert [seg[2].tolist() for seg in after] != [seg[2].tolist() for seg in before]


@pytest.mark.parametrize("bad", ["label", "width"])
def test_bad_training_data_fails_before_any_update(bad):
    net = from_mlp([3, 6, 3], make_rng(2))
    rng = make_rng(3)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    if bad == "label":
        y[14] = 3  # drawn into the last minibatch of the first epoch
    else:
        x = x[:, :2]
    data = SimpleNamespace(train_xy=lambda: (x, y))
    w0, b0 = net.weights.copy(), net.bias.copy()
    with pytest.raises(ValueError, match="label out of range" if bad == "label" else "batch width"):
        train_weights(net, data, OptimizerConfig(batch_size=8, epochs_per_iteration=2), make_rng(4))
    assert np.array_equal(net.weights.view(np.int64), w0.view(np.int64))
    assert np.array_equal(net.bias.view(np.int64), b0.view(np.int64))


def mlp_with_a_sparse_and_a_dense_block():
    # the input-to-hidden block keeps a quarter of its entries and trains as
    # a vector of them; the hidden-to-output block stays dense and trains in
    # place
    net = from_mlp([6, 10, 3], make_rng(7))
    drop = make_rng(8).random((6, 10)) >= 0.25
    drop[0, 0] = drop[5, 9] = False  # keep the block's corners live
    net.mask[:6, 6:16][drop] = False
    net.weights[:6, 6:16][drop] = 0.0
    fills = [net.mask[blk].mean() for blk in live_blocks(net)]
    assert fills[0] < SPARSE_FILL <= fills[1] == 1.0
    assert [_LiveUnit(net, blk).take is None for blk in live_blocks(net)] == [False, True]
    return net


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_sparse_and_dense_blocks_match_dense_oracle(kind):
    assert_training_matches_dense_oracle(mlp_with_a_sparse_and_a_dense_block(), kind)


def test_divergence_mid_epoch_restores_an_indexed_block():
    net = mlp_with_a_sparse_and_a_dense_block()
    rng = make_rng(3)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    data = SimpleNamespace(train_xy=lambda: (x, y))
    w0, b0 = net.weights.copy(), net.bias.copy()
    opt = OptimizerConfig(learning_rate=1e12, batch_size=4, epochs_per_iteration=5)
    with pytest.raises(TrainingDiverged, match="loss became"):
        train_weights(net, data, opt, make_rng(4))
    assert np.array_equal(net.weights.view(np.int64), w0.view(np.int64))
    assert np.array_equal(net.bias.view(np.int64), b0.view(np.int64))


def test_adam_leaves_inactive_entries_of_a_sparse_block_exactly_zero():
    net = mlp_with_a_sparse_and_a_dense_block()
    rng = make_rng(5)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    data = SimpleNamespace(train_xy=lambda: (x, y))
    w0 = net.weights.copy()
    opt = OptimizerConfig(kind="adam", learning_rate=0.05, batch_size=8, epochs_per_iteration=4)
    train_weights(net, data, opt, make_rng(6))
    sparse = live_blocks(net)[0]
    inactive = net.weights[sparse][~net.mask[sparse]]
    assert inactive.size and np.all(inactive.view(np.int64) == 0)
    assert np.all(net.weights[sparse][net.mask[sparse]] != w0[sparse][net.mask[sparse]])
    net.validate()


def test_live_blocks_cover_the_mask_tightly(rng):
    net = from_mlp([3, 4, 5, 2], rng)
    assert live_blocks(net) == [
        (slice(0, 3), slice(3, 7)),
        (slice(3, 7), slice(7, 12)),
        (slice(7, 12), slice(12, 14)),
    ]
    # a skip edge widens the receiving block's rows; a run with no active
    # in-edge has no block
    net.mask[1, 12] = True
    net.mask[:, 7:12] = False
    net.weights[:, 7:12] = 0.0
    assert live_blocks(net) == [(slice(0, 3), slice(3, 7)), (slice(1, 12), slice(12, 14))]
    net.layers = None
    assert live_blocks(net) == [(slice(0, 3), slice(3, 12)), (slice(1, 12), slice(12, 14))]


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_training_leaves_everything_outside_the_live_blocks_zero(kind):
    ds = blob_dataset()
    rng = make_rng(4)
    net = from_mlp([3, 6, 5, 3], rng)
    grown = [(0, 12), (3, 5), (10, 12)]  # a skip edge and two in-layer edges
    for pair in grown:
        net.mask[pair] = True
    blocks = live_blocks(net)
    outside = np.ones((net.n, net.n), dtype=bool)
    for blk in blocks:
        outside[blk] = False
    assert not np.any(net.mask[outside])
    w0 = net.weights.copy()
    train_weights(net, ds, OptimizerConfig(kind=kind, epochs_per_iteration=3), rng)
    assert np.array_equal(net.weights[outside], np.zeros(int(outside.sum())))
    assert all(net.weights[pair] != 0.0 for pair in grown)
    assert not np.array_equal(net.weights, w0)
    net.validate()


def test_divergence_restores_entry_weights():
    ds = separable_dataset()
    rng = make_rng(2)
    net = from_mlp([2, 8, 2], rng)
    w0 = net.weights.copy()
    with pytest.raises(TrainingDiverged):
        train_weights(
            net, ds, OptimizerConfig(learning_rate=1e12, epochs_per_iteration=30), rng
        )
    assert np.array_equal(net.weights, w0)


def test_scheme_driver_divergence_recovery():
    ds = separable_dataset()
    cfg = SchemeConfig(
        scheme="A",
        seed=4,
        max_iterations=2,
        optimizer=OptimizerConfig(learning_rate=1e12, epochs_per_iteration=30),
    )
    res = run_scheme(cfg, ds)
    assert res.diverged_iterations >= 1
    assert any("halved" in n for n in res.notes)
    assert np.all(np.isfinite(res.best_net.weights))


def test_scheme_a_single_iteration_noop_policies_returns_trained_seed():
    ds = separable_dataset()
    cfg = SchemeConfig(
        scheme="A",
        seed=5,
        max_iterations=1,
        steps=[{"op": "train", "checkpoint": True}],
        optimizer=OptimizerConfig(epochs_per_iteration=40),
    )
    res = run_scheme(cfg, ds)
    # seed architecture: one hidden layer of max(4, n_out) = 4, fully wired
    assert res.best_net.n_hidden == 4
    assert int(res.best_net.mask.sum()) == 2 * 4 + 4 * 2
    assert res.best_val_acc >= 0.95


def test_scheme_a_beats_fixed_mlp_of_equal_size_on_moons():
    rng = make_rng(11)
    ds = split(make_moons(500, 0.12, rng), (0.7, 0.15), rng)
    cfg = SchemeConfig(
        scheme="A",
        seed=11,
        max_iterations=4,
        max_neurons=12,
        optimizer=OptimizerConfig(learning_rate=0.05, epochs_per_iteration=40),
    )
    res = run_scheme(cfg, ds)
    target = int(res.best_net.mask.sum())
    # paired baseline: plain MLP sized to the same connection count
    h = max(1, round(target / (ds.n_features + ds.n_classes)))
    base = from_mlp([ds.n_features, h, ds.n_classes], make_rng(11))
    train_weights(base, ds, OptimizerConfig(learning_rate=0.05, epochs_per_iteration=160), make_rng(11))
    x, y = ds.val_xy()
    assert res.best_val_acc >= accuracy(base, x, y)


def test_scheme_b_small_dataset_compresses_5x_within_1pct():
    ds = blob_dataset(seed=21, n=200, std=0.8)
    dense = from_mlp([3, 32, 3], make_rng(21))
    r = make_rng(21)
    train_weights(dense, ds, OptimizerConfig(epochs_per_iteration=60), r)
    xv, yv = ds.val_xy()
    dense_acc = accuracy(dense, xv, yv)
    dense_conns = connection_count(dense)

    cfg = SchemeConfig(
        scheme="B",
        seed=21,
        max_iterations=4,
        layer_sizes=[3, 32, 3],
        final_connections=int(dense.mask.sum()) // 8,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=25),
    )
    res = run_scheme(cfg, ds)
    assert connection_count(res.best_net) * 5 <= dense_conns
    assert res.best_val_acc >= dense_acc - 0.01


def test_scheme_b_reported_model_within_budget():
    ds = blob_dataset(seed=8)
    cfg = SchemeConfig(
        scheme="B",
        seed=8,
        max_iterations=3,
        layer_sizes=[3, 16, 3],
        final_connections=30,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=10),
    )
    res = run_scheme(cfg, ds)
    n_bias = res.best_net.n_hidden + res.best_net.n_out
    assert connection_count(res.best_net) <= 30 + n_bias
    assert int(res.best_net.mask.sum()) <= 30


def test_scheme_b_prune_budget_equal_to_size_degenerates_to_training():
    ds = blob_dataset(seed=9)
    dense_edges = 3 * 16 + 16 * 3
    cfg = SchemeConfig(
        scheme="B",
        seed=9,
        max_iterations=2,
        layer_sizes=[3, 16, 3],
        final_connections=dense_edges,
        max_connections=dense_edges,
        init_skip_growth=False,
        optimizer=OptimizerConfig(epochs_per_iteration=5),
    )
    res = run_scheme(cfg, ds)
    # nothing is ever pruned or grown: mask stays fully dense
    assert int(res.best_net.mask.sum()) == dense_edges
    assert all(r.connections == dense_edges + 16 + 3 for r in res.history)


def test_scheme_c_depth_constant_and_adjacent_only():
    ds = blob_dataset(seed=10)
    cfg = SchemeConfig(
        scheme="C",
        seed=10,
        max_iterations=4,
        layer_sizes=[3, 10, 8, 3],
        final_connections=40,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=10),
    )
    res = run_scheme(cfg, ds)
    depths = [r.depth for r in res.history]
    assert all(d == 3 for d in depths)
    net = res.best_net
    for i, j in np.argwhere(net.mask != 0):
        assert net.layers[j] == net.layers[i] + 1


def test_scheme_c_matches_reference_prune_retrain_restore_loop():
    # single hidden layer, fixed threshold: the driver's mask sequence must
    # equal an independently coded prune/retrain/restore loop
    ds = blob_dataset(seed=13)
    t = 0.08
    steps = [
        {"op": "prune_connections", "threshold": t},
        {"op": "train", "checkpoint": True},
        {"op": "grow_connections", "kind": "full"},
        {"op": "train"},
    ]
    opt = OptimizerConfig(epochs_per_iteration=4)
    cfg = SchemeConfig(
        scheme="C",
        seed=13,
        max_iterations=3,
        layer_sizes=[3, 12, 3],
        final_connections=1,
        max_connections=10000,
        steps=steps,
        optimizer=opt,
    )
    masks = []
    import growprune.archops as archops
    from growprune.archops import PrunePolicy, GrowthPolicy

    # reference loop with its own rng stream, mirroring the driver's order
    rng = make_rng(13)
    ref = from_mlp([3, 12, 3], rng)
    train_weights(ref, ds, opt, rng)  # warmup
    ref_masks = []
    for _ in range(3):
        archops.prune_connections(ref, PrunePolicy(threshold=t))
        ref_masks.append((ref.n, ref.mask.copy()))
        train_weights(ref, ds, opt, rng)
        archops.grow_connections(ref, GrowthPolicy("full", adjacent_only=True), rng)
        train_weights(ref, ds, opt, rng)

    res = run_scheme(cfg, ds)
    # driver follows the identical sequence with the identical stream, so the
    # final best network must match one of the reference post-prune states
    n_final = res.best_net.n
    assert any(n == n_final and np.array_equal(m, res.best_net.mask) for n, m in ref_masks)


def test_monotone_best_checkpoint_in_max_iterations():
    ds = blob_dataset(seed=14)
    accs = []
    for imax in (1, 2, 3):
        cfg = SchemeConfig(
            scheme="C",
            seed=14,
            max_iterations=imax,
            layer_sizes=[3, 12, 3],
            final_connections=20,
            max_connections=10000,
            optimizer=OptimizerConfig(epochs_per_iteration=6),
        )
        accs.append(run_scheme(cfg, ds).best_val_acc)
    assert accs[0] <= accs[1] <= accs[2]


def test_full_run_determinism():
    ds = blob_dataset(seed=15)
    cfg = SchemeConfig(
        scheme="B",
        seed=15,
        max_iterations=3,
        layer_sizes=[3, 12, 3],
        final_connections=25,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=6),
    )
    r1 = run_scheme(cfg, ds)
    r2 = run_scheme(cfg, ds)
    assert r1.best_val_acc == r2.best_val_acc
    assert r1.test_acc == r2.test_acc
    assert np.array_equal(r1.best_net.weights, r2.best_net.weights)
    assert [(h.iteration, h.val_acc, h.connections) for h in r1.history] == [
        (h.iteration, h.val_acc, h.connections) for h in r2.history
    ]


def record_ops(monkeypatch, diverge_on_train=None):
    """Log each step op run_scheme runs, in order; the steps still run.
    With `diverge_on_train=k`, the k-th train call raises TrainingDiverged
    instead, and `snaps` holds the network's connection count after each
    train that ran."""
    ops, snaps = [], []

    def logged(name, real):
        def run(*args, **kwargs):
            ops.append(name)
            if name == "train" and ops.count("train") == diverge_on_train:
                raise TrainingDiverged("forced")
            out = real(*args, **kwargs)
            if name == "train":
                snaps.append(connection_count(args[0]))
            return out

        return run

    monkeypatch.setattr(schemes, "train_weights", logged("train", schemes.train_weights))
    monkeypatch.setattr(schemes, "_apply_growth_step", logged("grow", schemes._apply_growth_step))
    monkeypatch.setattr(schemes, "_apply_neuron_step", logged("neurons", schemes._apply_neuron_step))
    monkeypatch.setattr(schemes.archops, "prune_connections", logged("prune", schemes.archops.prune_connections))
    return ops, snaps


def small_scheme(scheme, max_iterations=2, **kw):
    return SchemeConfig(
        scheme=scheme,
        seed=18,
        max_iterations=max_iterations,
        layer_sizes=[3, 10, 3],
        final_connections=20,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=2),
        **kw,
    )


@pytest.mark.parametrize("scheme", ["B", "C"])
def test_final_iteration_stops_at_its_checkpoint(monkeypatch, scheme):
    ops, _ = record_ops(monkeypatch)
    res = run_scheme(small_scheme(scheme), blob_dataset(seed=18))
    # warm-up; iteration 1 in full; iteration 2 up to its checkpoint train
    assert ops == ["train", "prune", "train", "grow", "train", "prune", "train"]
    assert [r.iteration for r in res.history] == [1, 2]
    assert res.diverged_iterations == 0


def test_scheme_a_runs_every_step_of_the_final_iteration(monkeypatch):
    ops, _ = record_ops(monkeypatch)
    run_scheme(small_scheme("A"), blob_dataset(seed=18))
    # scheme A checkpoints its last step, so nothing is skipped
    assert ops == ["neurons", "grow", "train", "prune", "train"] * 2


def test_final_iteration_stops_at_the_last_train_without_a_checkpoint_flag(monkeypatch):
    ops, _ = record_ops(monkeypatch)
    steps = [{"op": "train"}, {"op": "prune_connections", "prune_fraction": 0.1}]
    res = run_scheme(small_scheme("C", max_iterations=3, steps=steps), blob_dataset(seed=18))
    assert ops == ["train"] + ["train", "prune"] * 2 + ["train"]
    assert len(res.history) == 3


def test_a_step_list_without_train_runs_in_full(monkeypatch):
    ops, _ = record_ops(monkeypatch)
    steps = [{"op": "grow_connections", "kind": "full"}, {"op": "prune_connections", "prune_fraction": 0.1}]
    cfg = small_scheme("C", steps=steps, initial_train=False)
    res = run_scheme(cfg, blob_dataset(seed=18))
    assert ops == ["grow", "prune"] * 2
    assert len(res.history) == 2


def test_divergence_at_the_final_checkpoint_restores_the_snapshot(monkeypatch):
    # the 4th train is iteration 2's checkpoint train: warm-up, checkpoint,
    # regrowth, checkpoint
    ops, snaps = record_ops(monkeypatch, diverge_on_train=4)
    res = run_scheme(small_scheme("B"), blob_dataset(seed=18))
    assert ops == ["train", "prune", "train", "grow", "train", "prune", "train"]
    assert res.diverged_iterations == 1
    assert any(n.startswith("iteration 2 diverged") for n in res.notes)
    # iteration 2's row describes the network at its start, after the
    # regrowth train of iteration 1
    assert res.history[-1].connections == snaps[-1]
    assert res.best_iteration == 1


def test_best_checkpoint_is_max_over_history():
    ds = blob_dataset(seed=16)
    cfg = SchemeConfig(
        scheme="C",
        seed=16,
        max_iterations=4,
        layer_sizes=[3, 12, 3],
        final_connections=24,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=5),
    )
    res = run_scheme(cfg, ds)
    assert res.best_val_acc == max(r.val_acc for r in res.history)


def test_history_writer_appends_rows(tmp_path):
    ds = blob_dataset(seed=17)
    cfg = SchemeConfig(
        scheme="A",
        seed=17,
        max_iterations=2,
        optimizer=OptimizerConfig(epochs_per_iteration=4),
    )
    path = tmp_path / "history.csv"
    writer = HistoryWriter(path)
    run_scheme(cfg, ds, history_writer=writer)
    writer.close()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,val_acc,connections,neurons,depth"
    assert len(lines) == 3


def test_manifest_roundtrip_bit_exact():
    cfg = SchemeConfig(
        scheme="B",
        seed=77,
        max_iterations=9,
        layer_sizes=[16, 20, 10],
        final_connections=111,
        max_connections=520,
        optimizer=OptimizerConfig(kind="adam", learning_rate=0.01, weight_decay=1e-3),
        noise_std=0.034,
    )
    blob = json.dumps(asdict(cfg), sort_keys=True)
    back = SchemeConfig(**json.loads(blob))
    assert back == cfg
    assert json.dumps(asdict(back), sort_keys=True) == blob


def test_reference_recipes_encode_the_standard_settings():
    from growprune.schemes import (
        mnist_scheme_a_config,
        mnist_scheme_b_config,
        mnist_scheme_c_config,
    )

    a = mnist_scheme_a_config()
    assert a.seed_hidden == 400 and a.init_prune_fraction == 0.95
    assert any(
        s.get("fraction_of_possible") == 0.30 for s in a.resolved_steps() if s["op"] == "grow_connections"
    )
    assert any(
        s.get("prune_fraction") == 0.25 for s in a.resolved_steps() if s["op"] == "prune_connections"
    )
    b = mnist_scheme_b_config()
    assert b.final_connections == 16_000
    assert any(
        s.get("target_fraction_of_possible") == 0.9 for s in b.resolved_steps()
    )
    c = mnist_scheme_c_config()
    assert c.layer_sizes == [784, 500, 10]
    assert c.final_connections == 6_000
    assert any(s.get("kind") == "full" for s in c.resolved_steps() if s["op"] == "grow_connections")
    for cfg in (a, b, c):
        assert cfg.optimizer.kind == "sgd_momentum"
        assert cfg.optimizer.learning_rate == 0.03
        assert cfg.optimizer.momentum == 0.9
        assert cfg.optimizer.weight_decay == 1e-4


def test_reference_recipe_mechanics_scaled_down():
    # same recipe shape as the constructive preset, at toy scale
    ds = blob_dataset(seed=30)
    from growprune.schemes import mnist_scheme_a_config

    cfg = mnist_scheme_a_config(seed=30)
    cfg.seed_hidden = 20
    cfg.max_neurons = 20
    cfg.max_connections = 1000
    cfg.max_iterations = 3
    cfg.optimizer = OptimizerConfig(epochs_per_iteration=5)
    res = run_scheme(cfg, ds)
    # seeded with 20 hidden fully wired = 3*20 + 20*3 = 120 edges, 95% cut
    assert res.history[0].connections > 0
    assert res.best_val_acc > 0.5


def test_config_validation():
    with pytest.raises(ValueError, match="needs layer_sizes"):
        SchemeConfig(scheme="C", final_connections=10)
    with pytest.raises(ValueError, match="final_connections"):
        SchemeConfig(scheme="B", layer_sizes=[2, 2], final_connections=99, max_connections=10)
    with pytest.raises(ValueError):
        OptimizerConfig(momentum=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(kind="sgd")


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("weight_decay", -1.0),
        ("weight_decay", float("nan")),
        ("batch_size", 64.5),
        ("batch_size", True),
        ("epochs_per_iteration", 2.5),
    ],
)
def test_optimizer_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iterations", 2.5),
        ("final_connections", -5),
        ("max_neurons", -1),
        ("init_prune_fraction", 1.5),
        ("init_prune_fraction", float("nan")),
        ("noise_std", -1),
        ("noise_std", float("nan")),
    ],
)
def test_scheme_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SchemeConfig(**{"scheme": "C", "layer_sizes": [2, 3, 2], "final_connections": 4, field: value})


@pytest.mark.parametrize(
    "step, match",
    [
        ({"op": "grow_neurons", "noise_std": -1}, "noise_std"),
        ({"op": "grow_neurons", "noise_std": float("nan")}, "noise_std"),
        ({"op": "grow_neurons", "fresh_connection_fraction": 0}, "fresh_connection_fraction"),
        ({"op": "grow_neurons", "selection_stat": "median"}, "selection_stat"),
        ({"op": "grow_neurons", "count": 2.7}, "count"),
        ({"op": "prune_connections", "budget": -3}, "budget"),
        ({"op": "prune_connections", "budget": 2.5}, "budget"),
        ({"op": "prune_connections", "threshold": -0.1}, "threshold"),
        ({"op": "prune_connections", "threshold": float("nan")}, "threshold"),
        ({"op": "prune_connections", "keep_fraction": 1.5}, "keep_fraction"),
        ({"op": "prune_connections", "prune_fraction": -0.25}, "prune_fraction"),
        ({"op": "prune_connections", "threshold": 0.1, "budget": 5}, "only one"),
        ({"op": "grow_connections", "fraction_of_possible": -0.5}, "amount"),
        ({"op": "grow_connections", "target_fraction_of_possible": 1.5}, "amount"),
        ({"op": "grow_connections", "fraction_of_possible": 0.5, "fraction_of_inactive": 0.5}, "only one"),
    ],
)
def test_scheme_config_rejects_bad_step_values(step, match):
    with pytest.raises(ValueError, match=match):
        SchemeConfig(scheme="C", layer_sizes=[2, 3, 2], final_connections=4, steps=[step, {"op": "train"}])


def test_scheme_config_accepts_numpy_integers():
    cfg = SchemeConfig(scheme="C", layer_sizes=[2, 3, 2], final_connections=np.int64(4), max_iterations=np.int64(2))
    assert cfg.final_connections == 4
