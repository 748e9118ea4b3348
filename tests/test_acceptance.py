"""Acceptance suite: one test per acceptance criterion, each reporting a
PASS/FAIL line in the terminal summary.

Criterion 7 reproduces the desk-scale compression study. It runs on real
IDX/CSV files when GROWPRUNE_MNIST_DIR / GROWPRUNE_PENDIGITS_CSV point at
them, and otherwise on deterministic synthetic analogs with the same feature
counts, class counts, and split sizes (this sandbox has no dataset access;
the comparisons are relative to a dense baseline trained on the same data
either way).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import random_dag
from growprune.archops import (
    GrowthPolicy,
    PrunePolicy,
    grow_connections,
    prune_connections,
)
from growprune.cli import main
from growprune.data import load_csv, load_idx, make_blobs, make_embedded_clusters, split, CsvSchema
from growprune.dimreduce import fit_reducer, transform
from growprune.energy import EnergyCostModel, OpCounts, count_ops, estimate_energy
from growprune.network import (
    Network,
    accuracy,
    connection_count,
    depth,
    forward,
    from_mlp,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
)
from growprune.numerics import make_rng
from growprune.pipeline import PipelineConfig, run_pipeline, select_candidates
from growprune.schemes import OptimizerConfig, SchemeConfig, run_scheme, train_weights
from oracles import (
    closed_form_mlp_energy,
    fd_gradient,
    fixed_point_isolated,
    longest_path_dp,
    pairwise_sq_dists,
    rescan_candidates,
    topk_by_magnitude,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_gradient_correctness():
    rng = make_rng(1001)
    start = time.perf_counter()
    nets = 0
    checked = 0
    while nets < 100:
        net = random_dag(
            rng,
            n_in=int(rng.integers(2, 5)),
            n_hidden=int(rng.integers(3, 30)),
            n_out=int(rng.integers(2, 5)),
            density=float(rng.uniform(0.15, 0.5)),
        )
        if net.n > 50:
            continue
        x = rng.normal(size=(3, net.n_in))
        y = rng.integers(0, net.n_out, size=3)
        uh = forward(net, x).u[:, net.n_in : net.hidden_end]
        if uh.size and np.abs(uh).min() <= 1e-3:
            continue  # keep finite differences away from the relu kink
        wd = 1e-3 if nets % 3 == 0 else 0.0
        _, dw, dbias, _ = loss_and_gradients(net, x, y, weight_decay=wd)

        def loss_fn():
            return loss_and_gradients(net, x, y, weight_decay=wd)[0]

        ii, jj = np.nonzero(net.mask)
        ok = True
        for i, j in zip(ii, jj):
            fd = fd_gradient(
                loss_fn,
                lambda: net.weights[i, j],
                lambda v: net.weights.__setitem__((i, j), v),
            )
            if abs(fd - dw[i, j]) > 1e-6 * max(abs(fd), abs(dw[i, j])) + 1e-8:
                ok = False
                break
            checked += 1
        for b in range(net.bias.size):
            fd = fd_gradient(loss_fn, lambda: net.bias[b], lambda v: net.bias.__setitem__(b, v))
            if abs(fd - dbias[b]) > 1e-6 * max(abs(fd), abs(dbias[b])) + 1e-8:
                ok = False
                break
            checked += 1
        if not ok:
            _report(1, "gradients match central finite differences", False)
        nets += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "gradients match central finite differences",
        elapsed < 60.0,
        f"{nets} networks, {checked} parameters, {elapsed:.1f}s",
    )


def test_criterion_02_growth_is_noop_on_logits():
    rng = make_rng(1002)
    compared = 0
    for kind in ("full", "random", "gradient"):
        for _ in range(12):
            net = random_dag(rng, density=float(rng.uniform(0.1, 0.5)))
            x = rng.normal(size=(8, net.n_in))
            y = rng.integers(0, net.n_out, size=8)
            before = forward(net, x).logits(net.n_out).copy()
            grow_connections(
                net,
                GrowthPolicy(
                    kind,
                    amount=None if kind == "full" else float(rng.uniform(0.1, 1.0)),
                    data_batch=(x, y) if kind == "gradient" else None,
                ),
                rng,
            )
            after = forward(net, x).logits(net.n_out)
            if not np.array_equal(before, after):
                _report(2, "connection growth leaves logits bitwise unchanged", False, kind)
            compared += 1
    _report(2, "connection growth leaves logits bitwise unchanged", True, f"{compared} growths")


def test_criterion_03_budget_pruning_matches_sort_oracle():
    rng = make_rng(1003)
    for trial in range(1000):
        net = random_dag(
            rng,
            n_in=int(rng.integers(2, 4)),
            n_hidden=int(rng.integers(3, 10)),
            n_out=int(rng.integers(2, 4)),
            density=float(rng.uniform(0.2, 0.7)),
        )
        if trial % 4 == 0:
            # quantize to force magnitude ties
            net.weights = np.round(net.weights, 1) * net.mask
        ii, jj = np.nonzero(net.mask)
        if ii.size < 2:
            continue
        entries = [(int(i), int(j), float(net.weights[i, j])) for i, j in zip(ii, jj)]
        k = int(rng.integers(1, ii.size))
        selected = topk_by_magnitude(entries, k)
        # oracle: survivors after the documented isolated-neuron fixed point
        n = net.n
        sel_mask = np.zeros((n, n))
        for i, j in selected:
            sel_mask[i, j] = 1.0
        alive = fixed_point_isolated(net.n_in, net.n_out, sel_mask)
        expect = {
            (i, j)
            for (i, j) in selected
            if alive[i] and alive[j]
        }
        prune_connections(net, PrunePolicy(budget=k))
        # map surviving (compacted) edges back through surviving neuron ids
        keep = [v for v in range(n) if alive[v]]
        got = set()
        for a, b in np.argwhere(net.mask != 0):
            got.add((keep[int(a)], keep[int(b)]))
        if got != expect:
            _report(3, "budget pruning equals full-sort top-k selection", False, f"trial {trial}")
    _report(3, "budget pruning equals full-sort top-k selection", True, "1000 matrices")


def test_criterion_04_depth_law():
    rng = make_rng(1004)
    # layered constructions
    for _ in range(25):
        sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 6)))]
        net = from_mlp(sizes, rng)
        want = longest_path_dp(net.n_in, net.n_out, net.mask)
        if depth(net) != want or depth(net) != len(sizes) - 1:
            _report(4, "depth equals longest-path DP; scheme C keeps depth fixed", False, str(sizes))
    # the three reference wiring patterns over four hidden neurons
    def wire(pairs, n_hidden=4):
        net = Network(1, n_hidden, 1)
        for i, j in pairs:
            net.mask[i, j] = 1.0
        net.weights = net.mask * 0.5
        return net

    one_layer = wire([(0, h) for h in (1, 2, 3, 4)] + [(h, 5) for h in (1, 2, 3, 4)])
    two_layer = wire([(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
    three_layer = wire([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    chain_of_three = wire([(0, 1), (1, 2), (2, 3), (3, 4)], n_hidden=3)
    for net, want in ((one_layer, 2), (two_layer, 3), (three_layer, 4), (chain_of_three, 4)):
        if depth(net) != want or longest_path_dp(net.n_in, net.n_out, net.mask) != want:
            _report(4, "depth equals longest-path DP; scheme C keeps depth fixed", False, "pattern")
    # random DAGs against the DP oracle
    for _ in range(50):
        net = random_dag(rng, density=float(rng.uniform(0.15, 0.6)))
        want = longest_path_dp(net.n_in, net.n_out, net.mask)
        if want < 0:
            continue
        if depth(net) != want:
            _report(4, "depth equals longest-path DP; scheme C keeps depth fixed", False, "dag")
    # scheme C holds depth constant over a full run
    centers = np.array([[0.0, 0.0, 2.0], [3.0, 3.0, 0.0], [0.0, -3.0, -2.0]])
    ds = split(make_blobs(120, centers, 0.6, rng), (0.7, 0.15), rng)
    cfg = SchemeConfig(
        scheme="C",
        seed=4,
        max_iterations=4,
        layer_sizes=[3, 10, 8, 3],
        final_connections=40,
        max_connections=10000,
        optimizer=OptimizerConfig(epochs_per_iteration=6),
    )
    res = run_scheme(cfg, ds)
    depths = sorted({r.depth for r in res.history})
    ok = depths == [3]
    _report(4, "depth equals longest-path DP; scheme C keeps depth fixed", ok, f"C depths {depths}")


def test_criterion_05_jl_distance_preservation():
    start = time.perf_counter()
    in_range = 0
    total = 0
    for seed in range(20):
        rng = make_rng(3000 + seed)
        pts = rng.normal(size=(50, 1000))
        red = fit_reducer("rp_gauss_scaled", pts, 200, rng)
        proj = transform(red, pts)
        orig = pairwise_sq_dists(pts)
        new = pairwise_sq_dists(proj)
        for key, dv in orig.items():
            ratio = new[key] / dv
            total += 1
            if 0.65 <= ratio <= 1.35:
                in_range += 1
    elapsed = time.perf_counter() - start
    frac = in_range / total
    _report(
        5,
        "random projection preserves pairwise squared distances",
        frac >= 0.99 and elapsed < 30.0,
        f"{frac:.4%} of {total} pairs in range, {elapsed:.1f}s",
    )


def test_criterion_06_energy_model_exactness():
    rng = make_rng(1006)
    ok = True
    for d, h, c in ((7, 5, 3), (64, 32, 10), (178, 2116, 2)):
        net = from_mlp([d, h, c], rng)
        counts = count_ops(net)
        model = EnergyCostModel()
        got = estimate_energy(counts, model)
        macs = d * h + h * c
        same_assoc = macs * model.e_mac + (2 * macs) * model.e_sram + h * model.e_cmp
        printed_form = closed_form_mlp_energy(d, h, c)
        if got != same_assoc or not math.isclose(got, printed_form, rel_tol=1e-12):
            ok = False
    # 380.9K-connection MLP prices near the reported 3.1e-5 J
    h = 380900 // (178 + 2)
    big = from_mlp([178, h, 2], rng)
    e = estimate_energy(count_ops(big))
    rel = abs(e - 3.1e-5) / 3.1e-5
    ok = ok and rel < 0.20
    _report(6, "energy model matches the closed form and reported scale", ok, f"large-MLP rel err {rel:.1%}")


def _mnist_analog_dataset():
    env_dir = os.environ.get("GROWPRUNE_MNIST_DIR")
    if env_dir:
        d = Path(env_dir)
        ds = load_idx(d / "train-images-idx3-ubyte", d / "train-labels-idx1-ubyte")
        rng = make_rng(0)
        return split(ds, (5 / 6, 1 / 6), rng), "mnist-idx"
    rng = make_rng(200)
    ds = split(
        make_embedded_clusters(
            16000, 784, 10, latent_dim=20, rng=rng, separation=4.0, cluster_std=1.0, ambient_noise=0.3
        ),
        (0.75, 0.125),
        rng,
    )
    return ds, "synthetic-analog"


def _pendigits_analog_dataset():
    env_csv = os.environ.get("GROWPRUNE_PENDIGITS_CSV")
    total = 5995 + 1499 + 3498
    if env_csv:
        ds = load_csv(env_csv, CsvSchema(label_column=-1))
        rng = make_rng(0)
        return split(ds, (5995 / total, 1499 / total), rng), "pendigits-csv"
    rng = make_rng(100)
    ds = split(
        make_embedded_clusters(
            total, 16, 10, latent_dim=3, rng=rng, separation=6.0, cluster_std=1.0, ambient_noise=0.1
        ),
        (5995 / total, 1499 / total),
        rng,
    )
    return ds, "synthetic-analog"


@pytest.mark.slow
def test_criterion_07a_scheme_c_compression_on_mnist_shape():
    ds, source = _mnist_analog_dataset()
    assert ds.n_features == 784 and ds.n_classes == 10
    dense_opt = OptimizerConfig(
        kind="sgd_momentum",
        learning_rate=0.03,
        momentum=0.9,
        weight_decay=1e-4,
        batch_size=128,
        epochs_per_iteration=10,
    )
    seeds = [0, 1, 2, 3, 4]
    dense_accs, c_accs, ratios = [], [], []
    for seed in seeds:
        rng = make_rng(seed)
        dense = from_mlp([784, 500, 10], rng)
        train_weights(dense, ds, dense_opt, rng)
        xt, yt = ds.test_xy()
        dense_acc = accuracy(dense, xt, yt)
        dense_conns = connection_count(dense)

        cfg = SchemeConfig(
            scheme="C",
            seed=seed,
            max_iterations=4,
            layer_sizes=[784, 500, 10],
            final_connections=12000,
            max_connections=500000,
            max_neurons=600,
            optimizer=OptimizerConfig(
                kind="sgd_momentum",
                learning_rate=0.03,
                momentum=0.9,
                weight_decay=1e-4,
                batch_size=128,
                epochs_per_iteration=3,
            ),
        )
        res = run_scheme(cfg, ds)
        dense_accs.append(dense_acc)
        c_accs.append(res.test_acc)
        ratios.append(dense_conns / connection_count(res.best_net))
    mean_dense = float(np.mean(dense_accs))
    mean_c = float(np.mean(c_accs))
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio >= 20.0 and mean_c >= mean_dense - 0.005
    _report(
        7,
        "scheme C compresses the 784-500-10 baseline >= 20x within 0.5% accuracy",
        ok,
        f"{source}: dense {mean_dense:.4f} vs compressed {mean_c:.4f}, {mean_ratio:.1f}x over {len(seeds)} seeds",
    )


@pytest.mark.slow
def test_criterion_07b_pipeline_compression_on_pendigits_shape():
    ds, source = _pendigits_analog_dataset()
    assert ds.n_features == 16 and ds.n_classes == 10
    adam = dict(kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=20)
    cfg = PipelineConfig(
        baseline=dict(width=180, max_depth=1, optimizer=dict(**adam)),
        candidate_optimizer=dict(**adam),
        scheme_optimizer=dict(
            kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=12
        ),
        schemes=["A", "B", "C"],
        scheme_iterations=5,
        final_fraction=0.2,
    )
    res = run_pipeline(ds, cfg, seeds=[0])
    base_acc = res.baseline.val_acc
    base_conns = res.baseline.connections
    meeting = [r for r in res.sweep_rows if r["val_acc"] >= base_acc - 0.005]
    best_ratio = 0.0
    if meeting:
        mc = min(meeting, key=lambda r: r["connections"])
        best_ratio = base_conns / mc["connections"]
    ok = best_ratio >= 10.0
    _report(
        7,
        "reduced synthesis meets the tabular baseline at >= 10x fewer connections",
        ok,
        f"{source}: baseline {base_acc:.4f}/{base_conns} conns, best meeting ratio {best_ratio:.1f}x",
    )


def test_criterion_08_run_determinism(tmp_path):
    manifest = {
        "dataset": {
            "format": "synthetic",
            "generator": "embedded_clusters",
            "rows": 500,
            "features": 12,
            "classes": 4,
            "latent_dim": 3,
            "separation": 3.0,
            "ambient_noise": 0.1,
            "data_seed": 1,
            "split": {"fractions": [0.7, 0.15], "seed": 0},
        },
        "scheme": {
            "scheme": "B",
            "max_iterations": 2,
            "layer_sizes": [12, 16, 4],
            "final_connections": 40,
            "max_connections": 100000,
            "optimizer": {
                "kind": "adam",
                "learning_rate": 0.01,
                "weight_decay": 1e-3,
                "epochs_per_iteration": 6,
            },
        },
        "seed": 7,
        "seeds": 2,
    }
    outs = []
    for name in ("r1", "r2"):
        m = dict(manifest)
        m["out"] = str(tmp_path / name)
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(m))
        assert main(["synth", "--manifest", str(p)]) == 0
        outs.append(tmp_path / name)
    same_metrics = (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()
    same_history = all(
        (outs[0] / f"seed_{s}" / "history.csv").read_bytes()
        == (outs[1] / f"seed_{s}" / "history.csv").read_bytes()
        for s in (7, 8)
    )
    _report(8, "identical manifest and seed give byte-identical artifacts", same_metrics and same_history)


def test_criterion_09_checkpoint_roundtrip(tmp_path):
    rng = make_rng(1009)
    centers = np.array([[0.0, 0.0, 2.0], [3.0, 3.0, 0.0], [0.0, -3.0, -2.0]])
    ds = split(make_blobs(100, centers, 0.7, rng), (0.7, 0.15), rng)
    xv, yv = ds.val_xy()
    checked = 0
    for i in range(20):
        scheme = ("A", "B", "C")[i % 3]
        kw = dict(scheme=scheme, seed=100 + i, max_iterations=2,
                  optimizer=OptimizerConfig(epochs_per_iteration=4))
        if scheme in ("B", "C"):
            kw.update(layer_sizes=[3, 12, 3], final_connections=int(rng.integers(15, 40)),
                      max_connections=10000)
        res = run_scheme(SchemeConfig(**kw), ds)
        recorded = accuracy(res.best_net, xv, yv)
        path = tmp_path / f"net_{i}.json"
        save_checkpoint(res.best_net, path, seed=100 + i)
        loaded, _ = load_checkpoint(path)
        if accuracy(loaded, xv, yv) != recorded:
            _report(9, "checkpoints reproduce recorded validation accuracy", False, f"net {i}")
        checked += 1
    _report(9, "checkpoints reproduce recorded validation accuracy", checked == 20, "20 networks")


def test_criterion_10_candidate_selection_rule():
    rng = make_rng(1010)
    kinds = ["rp_gauss_scaled", "rp_gauss_unit", "rp_sign", "rp_achlioptas_sparse", "pca"]
    for trial in range(50):
        n = int(rng.integers(4, 25))
        table = []
        used = set()
        while len(table) < n:
            kind = kinds[int(rng.integers(0, len(kinds)))]
            k = int(rng.integers(2, 50))
            if (kind, k) in used:
                continue
            used.add((kind, k))
            table.append(
                {
                    "kind": kind,
                    "k": k,
                    "layer_sizes": [k, 8, 4],
                    "val_acc": float(np.round(rng.random(), 2)),  # ties likely
                    "edges": int(rng.integers(10, 400)),
                    "connections": int(rng.integers(10, 400)),
                }
            )
        baseline_acc = float(rng.random())
        selected, flagged = select_candidates(table, baseline_acc)
        got = {(r["kind"], r["k"]) for r in selected}
        want, want_flagged = rescan_candidates(table, baseline_acc)
        if got != want or set(flagged) != want_flagged or len(selected) > 6:
            _report(10, "candidate selection equals its brute-force re-scan", False, f"trial {trial}")
    _report(10, "candidate selection equals its brute-force re-scan", True, "50 tables")
