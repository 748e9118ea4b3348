import numpy as np
import pytest

from growprune.data import Dataset, make_blobs, make_embedded_clusters, make_moons, split
from growprune.dimreduce import normalize
from growprune.network import connection_count, network_from_dict
from growprune.numerics import make_rng
from growprune.pipeline import (
    BaselineSearchConfig,
    PipelineConfig,
    bundle_predict,
    cell_rng,
    compress_per_layer,
    default_k_grid,
    find_baseline,
    load_bundle,
    run_pipeline,
    save_bundle,
    scheme_config_for_candidate,
    select_candidates,
    should_stop,
    synthesize_from_candidates,
)
from growprune.schemes import OptimizerConfig, run_scheme
from oracles import rescan_candidates

FAST_OPT = dict(kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=12)


def linear_blobs(seed=0):
    rng = make_rng(seed)
    centers = np.array([[-2.0, 0.0, 1.0], [2.0, 0.0, -1.0]])
    return split(make_blobs(150, centers, 0.35, rng), (0.7, 0.15), rng)


def test_baseline_stops_at_one_hidden_layer_on_linear_data():
    ds = normalize(linear_blobs())
    cfg = BaselineSearchConfig(max_depth=4, optimizer=dict(**FAST_OPT))
    res = find_baseline(ds, cfg, make_rng(1))
    assert len(res.layer_sizes) == 3  # input, one hidden, output
    assert res.val_acc >= 0.95


def test_baseline_beats_logistic_oracle_on_moons():
    sklearn = pytest.importorskip("sklearn.linear_model")
    rng = make_rng(2)
    ds = normalize(split(make_moons(600, 0.08, rng), (0.7, 0.15), rng))
    cfg = BaselineSearchConfig(
        max_depth=3,
        optimizer=dict(kind="adam", learning_rate=0.02, weight_decay=1e-4, epochs_per_iteration=60),
    )
    res = find_baseline(ds, cfg, make_rng(2))
    lr = sklearn.LogisticRegression(max_iter=2000)
    xt, yt = ds.train_xy()
    xv, yv = ds.val_xy()
    lr.fit(xt, yt)
    assert res.val_acc > lr.score(xv, yv)


def test_should_stop_zero_epsilon_never_stops_while_improving():
    accs = []
    for a in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        accs.append(a)
        assert not should_stop(accs, 0.0)
    accs.append(0.95)  # exact plateau
    assert should_stop(accs, 0.0)


def test_should_stop_epsilon_boundary():
    assert should_stop([0.90, 0.901], 0.002)
    assert not should_stop([0.90, 0.903], 0.002)


def random_table(rng, n=12):
    rows = []
    used = set()
    kinds = ["rp_gauss_scaled", "rp_sign", "rp_achlioptas_sparse", "pca"]
    while len(rows) < n:
        kind = kinds[int(rng.integers(0, len(kinds)))]
        k = int(rng.integers(2, 40))
        if (kind, k) in used:
            continue
        used.add((kind, k))
        rows.append(
            {
                "kind": kind,
                "k": k,
                "layer_sizes": [k, 8, 4],
                "val_acc": float(np.round(rng.random(), 3)),
                "edges": int(rng.integers(20, 500)),
                "connections": int(rng.integers(20, 500)),
            }
        )
    return rows


def test_candidate_selection_matches_rescan_oracle(rng):
    for _ in range(20):
        table = random_table(rng)
        baseline_acc = float(rng.random())
        selected, flagged = select_candidates(table, baseline_acc)
        got = {(r["kind"], r["k"]) for r in selected}
        want, want_flagged = rescan_candidates(table, baseline_acc)
        assert got == want
        assert set(flagged) == want_flagged
        assert len(selected) <= 6


def test_candidate_selection_invariant_to_row_order(rng):
    table = random_table(rng, n=10)
    baseline_acc = 0.5
    a, _ = select_candidates(table, baseline_acc)
    for _ in range(5):
        shuffled = [table[i] for i in rng.permutation(len(table))]
        b, _ = select_candidates(shuffled, baseline_acc)
        assert {(r["kind"], r["k"]) for r in a} == {(r["kind"], r["k"]) for r in b}


def test_compress_per_layer_emits_candidates_and_notes():
    rng = make_rng(3)
    ds = normalize(
        split(
            make_embedded_clusters(600, 16, 4, 3, rng, separation=2.8, ambient_noise=0.1),
            (0.7, 0.15),
            rng,
        )
    )
    base_cfg = BaselineSearchConfig(max_depth=1, optimizer=dict(**FAST_OPT))
    baseline = find_baseline(ds, base_cfg, make_rng(3))
    cands = compress_per_layer(
        ds, baseline, ["rp_gauss_scaled", "pca"], [8, 4], OptimizerConfig(**FAST_OPT), make_rng(3)
    )
    assert 1 <= len(cands.entries) <= 6
    assert len(cands.table) == 4
    assert any("renormalized" in n for n in cands.notes)
    best_meeting = [c for c in cands.entries if c.qualifies]
    if best_meeting:
        fewest = min(c.connections for c in best_meeting)
        assert any(c.connections == fewest for c in cands.entries)


def small_pipeline_dataset(seed=4):
    rng = make_rng(seed)
    return split(
        make_embedded_clusters(700, 12, 4, 3, rng, separation=2.8, ambient_noise=0.12),
        (0.7, 0.15),
        rng,
    )


def small_pipeline_config(schemes=("B", "C")):
    return PipelineConfig(
        reducers=["rp_gauss_scaled", "pca"],
        k_grid=[6, 3],
        baseline=dict(max_depth=1, optimizer=dict(**FAST_OPT)),
        candidate_optimizer=dict(**FAST_OPT),
        scheme_optimizer=dict(kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=6),
        schemes=list(schemes),
        scheme_iterations=2,
    )


def test_degenerate_sweep_equals_direct_scheme_run():
    ds = small_pipeline_dataset()
    data_norm = normalize(ds)
    cfg = small_pipeline_config(schemes=("C",))
    baseline = find_baseline(data_norm, cfg.baseline, make_rng(4))
    cands = compress_per_layer(
        data_norm, baseline, ["pca"], [6], cfg.candidate_optimizer, make_rng(4)
    )
    cands.entries = cands.entries[:1]
    sweep = synthesize_from_candidates(data_norm, cands, cfg, seeds=[9])
    assert len(sweep["rows"]) == 1

    # direct run with the identical cell stream must match exactly
    from growprune.dimreduce import reduce_dataset

    reduced = normalize(reduce_dataset(cands.entries[0].reducer, data_norm))
    scheme_cfg = scheme_config_for_candidate(cands.entries[0], "C", cfg, 9)
    res = run_scheme(scheme_cfg, reduced, rng=cell_rng(9, 0))
    assert res.best_val_acc == sweep["rows"][0]["val_acc"]
    assert res.test_acc == sweep["rows"][0]["test_acc"]
    assert connection_count(res.best_net) == sweep["rows"][0]["connections"]


def test_scheme_a_cells_respect_candidate_budget():
    ds = small_pipeline_dataset(seed=5)
    data_norm = normalize(ds)
    cfg = small_pipeline_config(schemes=("A",))
    baseline = find_baseline(data_norm, cfg.baseline, make_rng(5))
    cands = compress_per_layer(
        data_norm, baseline, ["rp_gauss_scaled"], [6], cfg.candidate_optimizer, make_rng(5)
    )
    sweep = synthesize_from_candidates(data_norm, cands, cfg, seeds=[1])
    for row, cand in zip(sweep["rows"], cands.entries):
        net = network_from_dict(sweep["best_payload"]["checkpoint"])
        assert int(net.mask.sum()) <= cands.entries[sweep["best_candidate_index"]].edges


def test_sweep_best_is_argmax_with_tiebreaks(rng):
    # pure selection logic on synthetic rows via the sweep's ordering key
    rows = [
        {"val_acc": 0.9, "connections": 50, "scheme": "A"},
        {"val_acc": 0.9, "connections": 40, "scheme": "B"},
        {"val_acc": 0.9, "connections": 40, "scheme": "C"},
        {"val_acc": 0.89, "connections": 10, "scheme": "C"},
    ]
    scheme_rank = {"C": 0, "B": 1, "A": 2}
    best = min(
        range(len(rows)),
        key=lambda i: (-rows[i]["val_acc"], rows[i]["connections"], scheme_rank[rows[i]["scheme"]], i),
    )
    assert best == 2


def test_run_pipeline_end_to_end_and_bundle_replay(tmp_path):
    ds = small_pipeline_dataset(seed=6)
    cfg = small_pipeline_config()
    res = run_pipeline(ds, cfg, seeds=[7])
    assert set(res.sweep_rows[0].keys()) == {
        "reducer",
        "k",
        "scheme",
        "seed",
        "val_acc",
        "test_acc",
        "connections",
        "depth",
        "energy",
    }
    path = tmp_path / "bundle.json"
    save_bundle(res.bundle, path)
    bundle, net = load_bundle(path)
    raw_val = ds.features[ds.splits["val"]]
    preds = bundle_predict(bundle, raw_val, net)
    acc = float(np.mean([int(p) == int(y) for p, y in zip(preds, ds.labels[ds.splits["val"]])]))
    assert acc == bundle["metrics"]["val_acc"]


def test_run_pipeline_deterministic():
    ds = small_pipeline_dataset(seed=8)
    cfg = small_pipeline_config(schemes=("C",))
    r1 = run_pipeline(ds, cfg, seeds=[3])
    r2 = run_pipeline(ds, cfg, seeds=[3])
    assert r1.sweep_rows == r2.sweep_rows
    assert r1.bundle["metrics"] == r2.bundle["metrics"]


def test_sweep_results_independent_of_worker_count():
    ds = small_pipeline_dataset(seed=9)
    data_norm = normalize(ds)
    cfg = small_pipeline_config(schemes=("C", "B"))
    baseline = find_baseline(data_norm, cfg.baseline, make_rng(9))
    cands = compress_per_layer(
        data_norm, baseline, ["rp_gauss_scaled"], [6], cfg.candidate_optimizer, make_rng(9)
    )
    serial = synthesize_from_candidates(data_norm, cands, cfg, seeds=[1, 2], workers=1)
    parallel = synthesize_from_candidates(data_norm, cands, cfg, seeds=[1, 2], workers=2)
    assert serial["rows"] == parallel["rows"]
    assert serial["best_row"] == parallel["best_row"]


def test_default_k_grid_rules():
    assert default_k_grid(784) == [392, 196, 98, 49]
    assert default_k_grid(16) == [8, 4]
    assert default_k_grid(6) == [4]  # minimum 4, below d
    assert default_k_grid(4) == []  # nothing strictly below d survives the floor


def test_empty_candidate_set_rejected():
    cfg = small_pipeline_config()
    from growprune.pipeline import CandidateSet

    with pytest.raises(ValueError, match="empty"):
        synthesize_from_candidates(
            normalize(small_pipeline_dataset()), CandidateSet([], [], 0.9), cfg, seeds=[1]
        )
