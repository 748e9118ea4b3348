"""The four benchmark workloads: inputs made from a seed, the timed call, and
the checks on its outputs.

Each workload has a `setup(seed, size, workdir)` that builds the program's
inputs (timed as `setup_s`), a `call(state)` that is the timed top-level call
(`run_s`; `rows_per_s` is `state["rows"]` over it), a `summarize(state,
out)` that reads the user-visible results and checks them, and a
`predict_rate(state, out)` that times `network.predict` of the returned
network (the per-layer `network.predict.rows_per_s`).

The seed changes the generated data and the model seeds, never the shapes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import astuple

import numpy as np

# Program functions are looked up through their modules at call time, so that
# the tracer's wrappers (installed into those modules) see these calls too.
from growprune import archops, cli, data, energy, network, pipeline, schemes
from growprune.numerics import make_rng

# "full" is the benchmark; "toy" keeps every code path at a size the smoke
# test can run in seconds.
SIZES = {
    "mnist_c": {
        "full": dict(rows=3000, features=784, hidden=500, budget=12_000),
        "toy": dict(rows=400, features=64, hidden=40, budget=600),
    },
    "mnist_b_dag": {
        "full": dict(rows=3000, features=784, hidden=200, budget=16_000),
        "toy": dict(rows=400, features=64, hidden=24, budget=800),
    },
    "tabular_pipeline": {
        "full": dict(rows=10_992, width=180, epochs=1, iterations=1),
        "toy": dict(rows=900, width=24, epochs=1, iterations=1),
    },
    "serve_784": {
        "full": dict(rows=10_000, fit_rows=2_000, features=784, hidden=500, budget=12_000),
        "toy": dict(rows=300, fit_rows=300, features=64, hidden=40, budget=600),
    },
}

PENDIGITS_SPLIT = (5995, 1499, 3498)  # train / val / test rows of the 07b shape


# Each dataset is drawn from a fixed population 1.5 times its size: the class
# geometry comes from the generator seed the acceptance tests use (200 for the
# digits analog, 100 for the tabular one) and the workload seed draws the
# rows. Without this the seed would also redraw how far apart the classes
# lie, and accuracy, the winning pipeline candidate and with it every figure
# would swing from seed to seed.
def _sample(population: data.Dataset, rows: int, rng) -> data.Dataset:
    idx = rng.choice(population.n_rows, size=rows, replace=False)
    return data.Dataset(
        features=population.features[idx],
        labels=population.labels[idx],
        splits={"train": np.arange(rows), "val": np.arange(0), "test": np.arange(0)},
        n_classes=population.n_classes,
        label_map=population.label_map,
    )


def _digits_analog(rows: int, features: int, rng) -> data.Dataset:
    """The 07a synthetic stand-in for 784-pixel digits."""
    population = data.make_embedded_clusters(
        3 * rows // 2, features, 10, latent_dim=20, rng=make_rng(200), separation=4.0, cluster_std=1.0, ambient_noise=0.3
    )
    return _sample(population, rows, rng)


def _pendigits_analog(rows: int, rng) -> data.Dataset:
    """The 07b synthetic stand-in for the 16-feature pen-digits table."""
    population = data.make_embedded_clusters(
        3 * rows // 2, 16, 10, latent_dim=3, rng=make_rng(100), separation=6.0, cluster_std=1.0, ambient_noise=0.1
    )
    return _sample(population, rows, rng)


def _sgd() -> schemes.OptimizerConfig:
    return schemes.OptimizerConfig(
        kind="sgd_momentum",
        learning_rate=0.03,
        momentum=0.9,
        weight_decay=1e-4,
        batch_size=128,
        epochs_per_iteration=1,
    )


def _rows_per_s(fn, rows: int) -> list[float]:
    """Rows/s of each call of fn(), repeated at least 5 times and 0.3 s."""
    rates, start = [], time.perf_counter()
    while len(rates) < 5 or time.perf_counter() - start < 0.3:
        t = time.perf_counter()
        fn()
        rates.append(rows / (time.perf_counter() - t))
    return rates


# --- scheme synthesis on the 784-feature digits shape ---------------------------

def _synth_setup(scheme: str, seed: int, size: dict, workdir) -> dict:
    rng = make_rng(seed)
    ds = data.split(_digits_analog(size["rows"], size["features"], rng), (0.75, 0.125), rng)
    cfg = schemes.SchemeConfig(
        scheme=scheme,
        seed=seed,
        max_iterations=2,
        layer_sizes=[size["features"], size["hidden"], 10],
        final_connections=size["budget"],
        max_connections=500_000,
        max_neurons=600,
        optimizer=_sgd(),
    )
    return {"data": ds, "cfg": cfg, "rows": ds.n_rows}


def _synth_call(state):
    return schemes.run_scheme(state["cfg"], state["data"])


def _synth_summary(state, res) -> dict:
    net = res.best_net
    macs = energy.count_ops(net).macs
    budget = state["cfg"].final_connections
    checks = []
    if macs > budget:
        checks.append(f"returned network has {macs} MACs, above the prune budget {budget}")
    # `connections` totals the checkpoints the run reports (history.csv rows).
    # The returned network alone is bimodal: when iteration 2 does not beat
    # iteration 1 on validation, the tie-break returns iteration 1's network,
    # which lost ~3,000 edges with the neurons its first prune isolated.
    return {
        "test_acc": res.test_acc,
        "connections": sum(row.connections for row in res.history),
        "macs": macs,
        "signature": [astuple(row) for row in res.history],
        "checks": checks,
        "outputs": {"returned_connections": network.connection_count(net), "best_iteration": res.best_iteration},
    }


def _synth_predict_rate(state, res) -> list[float]:
    x = state["data"].features
    return _rows_per_s(lambda: network.predict(res.best_net, x), len(x))


# --- the reduce + synthesize pipeline on the 16-feature tabular shape -----------

def _pipeline_setup(seed: int, size: dict, workdir) -> dict:
    rng = make_rng(seed)
    total = size["rows"]
    train, val = (int(round(total * n / sum(PENDIGITS_SPLIT))) for n in PENDIGITS_SPLIT[:2])
    ds = data.split(_pendigits_analog(total, rng), (train / total, val / total), rng)
    adam = dict(
        kind="adam", learning_rate=0.01, weight_decay=1e-3, batch_size=64, epochs_per_iteration=size["epochs"]
    )
    cfg = pipeline.PipelineConfig(
        # Three reducers at one k give exactly three candidates, so every seed
        # sweeps the same nine same-shape cells. With two reducers at k = 8 and
        # 4, the seed decided which three of four candidates were kept, and
        # run_s split into two modes ~20% apart.
        reducers=["rp_gauss_scaled", "rp_sign", "pca"],
        k_grid=[8],
        baseline=dict(width=size["width"], max_depth=1, optimizer=dict(adam)),
        candidate_optimizer=dict(adam),
        scheme_optimizer=dict(adam),
        schemes=["A", "B", "C"],
        scheme_iterations=size["iterations"],
        final_fraction=0.2,
    )
    workers = min(2, len(os.sched_getaffinity(0)))
    return {"data": ds, "cfg": cfg, "seed": seed, "workers": workers, "rows": ds.n_rows}


def _pipeline_call(state):
    return pipeline.run_pipeline(state["data"], state["cfg"], seeds=[state["seed"]], workers=state["workers"])


def _pipeline_summary(state, res) -> dict:
    metrics = res.bundle["metrics"]
    net = network.network_from_dict(res.bundle["checkpoint"])
    macs = energy.count_ops(net).macs
    reducer = res.bundle["preprocess"][1]["reducer"]
    # the sweep row the bundle came from, with the pipeline's C-over-B-over-A tie break
    best = min(
        (
            r
            for r in res.sweep_rows
            if (r["reducer"], r["k"], r["val_acc"], r["connections"])
            == (reducer["kind"], reducer["k"], metrics["val_acc"], metrics["connections"])
        ),
        key=lambda r: "CBA".index(r["scheme"]),
    )
    cand = next(
        c for c in res.candidates.entries if (c.reducer.kind, c.reducer.k) == (reducer["kind"], reducer["k"])
    )
    checks = []
    if best["scheme"] in ("B", "C"):
        budget = pipeline.scheme_config_for_candidate(cand, best["scheme"], state["cfg"], state["seed"]).final_connections
        if macs > budget:
            checks.append(f"returned scheme-{best['scheme']} network has {macs} MACs, above the prune budget {budget}")
    cells = len(res.candidates.entries) * len(state["cfg"].schemes)
    if len(res.sweep_rows) != cells:
        checks.append(f"{len(res.sweep_rows)} sweep rows for {cells} cells")
    if metrics["connections"] != network.connection_count(net):
        checks.append("bundle connections disagree with its checkpoint")
    # `connections` totals the sweep's nine networks (sweep.csv reports each).
    # The returned one alone would swing with the seed between a scheme-A
    # winner (~245) and a scheme-B/C one (~325).
    return {
        "test_acc": metrics["test_acc"],
        "connections": sum(r["connections"] for r in res.sweep_rows),
        "macs": macs,
        "signature": [res.sweep_rows, metrics],
        "checks": checks,
        "outputs": {"returned_connections": metrics["connections"], "returned_scheme": best["scheme"]},
    }


def _pipeline_predict_rate(state, res) -> list[float]:
    net = network.network_from_dict(res.bundle["checkpoint"])
    x = pipeline.bundle_apply_preprocess(res.bundle, state["data"].features)
    return _rows_per_s(lambda: network.predict(net, x), len(x))


# --- serving a pruned 784-500-10 bundle through the CLI -------------------------

def _fit_readout(net, x, y, ridge: float = 1e-2) -> None:
    """Least-squares output weights over the active hidden->output edges."""
    hidden = slice(net.n_in, net.hidden_end)
    w_in = net.weights[: net.n_in, hidden]
    h = np.maximum(x @ w_in + net.bias[: net.n_hidden], 0.0)
    targets = np.eye(net.n_out)[y]
    for c in range(net.n_out):
        rows = np.flatnonzero(net.mask[hidden, net.hidden_end + c])
        if rows.size == 0:
            continue
        hc = h[:, rows]
        coef = np.linalg.solve(hc.T @ hc + ridge * np.eye(rows.size), hc.T @ targets[:, c])
        net.weights[net.n_in + rows, net.hidden_end + c] = coef


def _serve_setup(seed: int, size: dict, workdir) -> dict:
    """A seeded MLP with a fitted readout, magnitude-pruned to the budget and
    refitted, saved as a bundle with a [0, 255] -> [0, 1] normalize step; the
    rows to serve are written as integer pixel CSV."""
    rng = make_rng(seed)
    n_fit, n_rows, d = size["fit_rows"], size["rows"], size["features"]
    ds = _digits_analog(n_fit + n_rows, d, rng)
    f = ds.features
    pixels = np.rint(255.0 * (f - f.min()) / (f.max() - f.min())).astype(np.int64)
    x_fit, y_fit = pixels[:n_fit] / 255.0, ds.labels[:n_fit]
    net = network.from_mlp([d, size["hidden"], 10], rng)
    _fit_readout(net, x_fit, y_fit)
    archops.prune_connections(net, archops.PrunePolicy(budget=size["budget"]))
    _fit_readout(net, x_fit, y_fit)
    bundle = pipeline.make_bundle(
        checkpoint=network.checkpoint_dict(net, seed=seed),
        label_map=ds.label_map,
        preprocess=[{"op": "normalize", "min": [0.0] * d, "scale": [1.0 / 255.0] * d}],
        metrics={},
    )
    bundle_path = os.path.join(workdir, "bundle.json")
    csv_path = os.path.join(workdir, "rows.csv")
    pipeline.save_bundle(bundle, bundle_path)
    table = [str(v) for v in range(256)]
    with open(csv_path, "w") as fh:
        fh.writelines(",".join([table[v] for v in row]) + "\n" for row in pixels[n_fit:].tolist())
    sample = np.sort(rng.choice(n_rows, size=min(64, n_rows), replace=False))
    return {
        "bundle": bundle_path,
        "csv": csv_path,
        "out": os.path.join(workdir, "predictions.txt"),
        "rows": n_rows,
        "labels": [str(v) for v in ds.labels[n_fit:]],
        "x": pixels[n_fit:] / 255.0,
        "pixels_sample": pixels[n_fit:][sample],
        "sample": sample,
        "connections": network.connection_count(net),
        "macs": energy.count_ops(net).macs,
        "budget": size["budget"],
    }


def _serve_call(state):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["infer", "--bundle", state["bundle"], "--features", state["csv"], "--out", state["out"]])
    return rc, buf.getvalue()


def _serve_summary(state, out) -> dict:
    rc, printed = out
    checks = []
    preds: list[str] = []
    if rc != 0:
        checks.append(f"infer exited with {rc}")
    else:
        with open(state["out"]) as fh:
            preds = fh.read().split()
        if len(preds) != state["rows"] or f"{state['rows']} predictions" not in printed:
            checks.append(f"{len(preds)} predictions for {state['rows']} rows")
        else:
            want = reference_predict(state["bundle"], state["pixels_sample"])
            bad = [int(i) for i, w in zip(state["sample"], want) if preds[i] != w]
            if bad:
                checks.append(f"predictions differ from the reference evaluation on rows {bad[:5]}")
    if state["macs"] > state["budget"]:
        checks.append(f"bundle network has {state['macs']} MACs, above the prune budget")
    acc = float(np.mean([p == t for p, t in zip(preds, state["labels"])])) if preds else 0.0
    return {
        "test_acc": acc,
        "connections": state["connections"],
        "macs": state["macs"],
        "signature": preds,
        "checks": checks,
    }


def _serve_predict_rate(state, out) -> list[float]:
    with open(state["bundle"]) as fh:
        net = network.network_from_dict(json.load(fh)["checkpoint"])
    return _rows_per_s(lambda: network.predict(net, state["x"]), state["rows"])


def reference_predict(bundle_path, raw_rows: np.ndarray) -> list[str]:
    """Dense evaluation of a bundle in a topological order of its edges.

    Reads the bundle file directly and shares no code with growprune: applies
    the normalize steps, visits neurons in Kahn order of the weight triples,
    and maps the argmax logit through the label map.
    """
    with open(bundle_path) as fh:
        bundle = json.load(fh)
    ck = bundle["checkpoint"]
    n_in, n_hidden, n_out = ck["n_in"], ck["n_hidden"], ck["n_out"]
    n = n_in + n_hidden + n_out
    x = np.asarray(raw_rows, dtype=np.float64)
    for step in bundle["preprocess"]:
        if step["op"] != "normalize":
            raise ValueError(f"reference evaluation does not handle {step['op']}")
        x = (x - np.asarray(step["min"])) * np.asarray(step["scale"])
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, j, w in ck["weights"]:
        incoming[j].append((i, w))
        indegree[j] += 1
    outgoing: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        for i, _ in incoming[j]:
            outgoing[i].append(j)
    ready = [v for v in range(n) if indegree[v] == 0]
    values = np.zeros((x.shape[0], n))
    while ready:
        v = ready.pop()
        if v < n_in:
            values[:, v] = x[:, v]
        else:
            u = ck["bias"][v - n_in] + sum(values[:, i] * w for i, w in incoming[v])
            values[:, v] = np.maximum(u, 0.0) if v < n_in + n_hidden else u
        for j in outgoing[v]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    inverse = {v: k for k, v in bundle["label_map"].items()}
    return [inverse[int(c)] for c in np.argmax(values[:, n_in + n_hidden :], axis=1)]


WORKLOADS = {
    "mnist_c": (lambda s, z, w: _synth_setup("C", s, z, w), _synth_call, _synth_summary, _synth_predict_rate),
    "mnist_b_dag": (lambda s, z, w: _synth_setup("B", s, z, w), _synth_call, _synth_summary, _synth_predict_rate),
    "tabular_pipeline": (_pipeline_setup, _pipeline_call, _pipeline_summary, _pipeline_predict_rate),
    "serve_784": (_serve_setup, _serve_call, _serve_summary, _serve_predict_rate),
}
