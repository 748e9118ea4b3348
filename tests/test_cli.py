import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import growprune
from growprune.cli import _load_features_csv, main
from growprune.data import load_dataset
from growprune.network import checkpoint_dict, from_mlp, load_checkpoint
from growprune.numerics import make_rng
from growprune.pipeline import load_bundle, make_bundle


def toy_manifest(out, seeds=1, scheme="C"):
    return {
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
            "scheme": scheme,
            "max_iterations": 2,
            "layer_sizes": [12, 16, 4],
            "final_connections": 40,
            "max_connections": 100000,
            "optimizer": {
                "kind": "adam",
                "learning_rate": 0.01,
                "weight_decay": 1e-3,
                "epochs_per_iteration": 8,
            },
        },
        "seed": 0,
        "seeds": seeds,
        "out": str(out),
    }


def write_manifest(tmp_path, manifest, name="manifest.json"):
    p = tmp_path / name
    p.write_text(json.dumps(manifest))
    return str(p)


def test_synth_emits_all_artifacts(tmp_path):
    out = tmp_path / "run"
    m = write_manifest(tmp_path, toy_manifest(out))
    assert main(["synth", "--manifest", m]) == 0
    assert (out / "metrics.json").exists()
    assert (out / "effective_manifest.json").exists()
    assert (out / "seed_0" / "checkpoint.json").exists()
    assert (out / "seed_0" / "history.csv").exists()
    assert (out / "seed_0" / "bundle.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["per_seed"][0]["connections"] > 0
    assert "compression_ratio" in metrics["mean"]
    net, meta = load_checkpoint(out / "seed_0" / "checkpoint.json")
    assert meta["seed"] == 0
    net.validate()


def test_synth_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    m1 = write_manifest(tmp_path, toy_manifest(out1), "m1.json")
    m2 = write_manifest(tmp_path, toy_manifest(out2), "m2.json")
    assert main(["synth", "--manifest", m1]) == 0
    assert main(["synth", "--manifest", m2]) == 0
    a = (out1 / "metrics.json").read_bytes()
    b = (out2 / "metrics.json").read_bytes()
    assert a == b
    assert (out1 / "seed_0" / "history.csv").read_bytes() == (
        out2 / "seed_0" / "history.csv"
    ).read_bytes()


def test_missing_dataset_is_usage_error(tmp_path):
    m = write_manifest(tmp_path, {"scheme": {"scheme": "A", "max_iterations": 1}})
    assert main(["synth", "--manifest", m, "--out", str(tmp_path / "o")]) == 2


def test_nonexistent_dataset_file_is_data_error(tmp_path):
    manifest = toy_manifest(tmp_path / "o")
    manifest["dataset"] = {"format": "npz", "path": str(tmp_path / "nope.npz")}
    m = write_manifest(tmp_path, manifest)
    assert main(["synth", "--manifest", m]) == 3


def test_bad_flags_are_usage_error():
    assert main(["synth", "--scheme", "Z"]) == 2
    assert main(["not-a-command"]) == 2


def test_module_run_without_manifest_is_usage_error(tmp_path):
    src = str(Path(growprune.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "growprune.cli", "prep"], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == 2, proc.stderr


# four rows with labels a, b, a, b; the val file takes row 2, the test file none
BAD_SPLIT_FILES = {
    "negative_index": "0\n1\n-4\n",
    "index_past_end": "0\n1\n4\n",
    "not_an_integer": "0\n1\nthree\n",
    "missing_file": None,
}


@pytest.mark.parametrize("train", BAD_SPLIT_FILES.values(), ids=BAD_SPLIT_FILES.keys())
def test_bad_split_files_are_data_errors(tmp_path, train):
    (tmp_path / "d.csv").write_text("1,2,a\n3,4,b\n5,6,a\n7,8,b\n")
    if train is not None:
        (tmp_path / "tr.txt").write_text(train)
    (tmp_path / "va.txt").write_text("2\n")
    (tmp_path / "te.txt").write_text("")
    files = [str(tmp_path / f) for f in ("tr.txt", "va.txt", "te.txt")]
    dataset = {"format": "csv", "path": str(tmp_path / "d.csv"), "split": {"files": files}}
    m = write_manifest(tmp_path, {"dataset": dataset, "out": str(tmp_path / "o")})
    assert main(["prep", "--manifest", m]) == 3
    assert not (tmp_path / "o" / "dataset.npz").exists()


def small_npz_members():
    features = np.arange(12, dtype=np.float64).reshape(6, 2)
    meta = {"n_classes": 2, "label_map": {"a": 0, "b": 1}, "provenance": {}, "normalization": None}
    return {
        "features": features,
        "labels": np.array([0, 1, 0, 1, 0, 1]),
        "train": np.array([0, 1, 2, 3]),
        "val": np.array([4]),
        "test": np.array([5]),
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    }


def drop(key):
    return lambda d: d.pop(key)


def write_corrupt_npz(path):
    np.savez(path, **small_npz_members())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


BAD_NPZ = {
    "no_meta": drop("meta"),
    "no_labels": drop("labels"),
    "no_test_split": drop("test"),
    "meta_not_json": lambda d: d.__setitem__("meta", np.frombuffer(b"{oops", dtype=np.uint8)),
    "meta_without_n_classes": lambda d: d.__setitem__(
        "meta", np.frombuffer(json.dumps({"label_map": {}}).encode(), dtype=np.uint8)
    ),
    "label_past_n_classes": lambda d: d["labels"].__setitem__(5, 7),
    "negative_label": lambda d: d["labels"].__setitem__(5, -1),
    "float_labels": lambda d: d.__setitem__("labels", d["labels"] + 0.5),
    "features_not_2d": lambda d: d.__setitem__("features", np.arange(6.0)),
}


@pytest.mark.parametrize("tamper", [*BAD_NPZ.values(), None], ids=[*BAD_NPZ.keys(), "truncated_archive"])
def test_bad_npz_dataset_is_data_error(tmp_path, tamper, capsys):
    path = tmp_path / "d.npz"
    if tamper is None:
        write_corrupt_npz(path)
    else:
        members = small_npz_members()
        tamper(members)
        np.savez(path, **members)
    m = write_manifest(tmp_path, {"out": str(tmp_path / "o")})
    assert main(["prep", "--manifest", m, "--data", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o" / "dataset.npz").exists()


def test_small_npz_dataset_preps(tmp_path):
    path = tmp_path / "d.npz"
    np.savez(path, **small_npz_members())
    m = write_manifest(tmp_path, {"out": str(tmp_path / "o")})
    assert main(["prep", "--manifest", m, "--data", str(path)]) == 0
    assert (tmp_path / "o" / "dataset.npz").exists()


def test_prep_baseline_flow(tmp_path):
    out = tmp_path / "prep"
    manifest = {"dataset": toy_manifest(out)["dataset"], "out": str(out)}
    m = write_manifest(tmp_path, manifest)
    assert main(["prep", "--manifest", m]) == 0
    ds = load_dataset(out / "dataset.npz")
    assert ds.n_features == 12
    base_out = tmp_path / "base"
    assert (
        main(
            [
                "baseline",
                "--data",
                str(out / "dataset.npz"),
                "--out",
                str(base_out),
                "--manifest",
                write_manifest(
                    tmp_path,
                    {
                        "baseline": {
                            "max_depth": 1,
                            "optimizer": {
                                "kind": "adam",
                                "learning_rate": 0.01,
                                "weight_decay": 1e-3,
                                "epochs_per_iteration": 10,
                            },
                        }
                    },
                    "mb.json",
                ),
            ]
        )
        == 0
    )
    base = json.loads((base_out / "baseline.json").read_text())
    assert len(base["layer_sizes"]) == 3


def sweep_manifest(out):
    return {
        "dataset": toy_manifest(out)["dataset"],
        "pipeline": {
            "reducers": ["rp_gauss_scaled", "pca"],
            "k_grid": [6, 3],
            "baseline": {
                "max_depth": 1,
                "optimizer": {
                    "kind": "adam",
                    "learning_rate": 0.01,
                    "weight_decay": 1e-3,
                    "epochs_per_iteration": 10,
                },
            },
            "candidate_optimizer": {
                "kind": "adam",
                "learning_rate": 0.01,
                "weight_decay": 1e-3,
                "epochs_per_iteration": 10,
            },
            "scheme_optimizer": {
                "kind": "adam",
                "learning_rate": 0.01,
                "weight_decay": 1e-3,
                "epochs_per_iteration": 6,
            },
            "schemes": ["C"],
            "scheme_iterations": 2,
        },
        "seed": 0,
        "seeds": 1,
        "out": str(out),
    }


def test_sweep_and_infer_reproduce_val_accuracy(tmp_path):
    out = tmp_path / "sweep"
    m = write_manifest(tmp_path, sweep_manifest(out))
    assert main(["sweep", "--manifest", m]) == 0
    for name in ("baseline.json", "candidates.csv", "sweep.csv", "bundle.json", "metrics.json"):
        assert (out / name).exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "reducer,k,scheme,seed,val_acc,test_acc,connections,depth,energy"

    # rebuild the raw dataset and run infer over the validation rows
    from growprune.cli import dataset_from_manifest

    ds = dataset_from_manifest(sweep_manifest(out)["dataset"])
    val_rows = ds.features[ds.splits["val"]]
    feats = tmp_path / "val.csv"
    feats.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in val_rows) + "\n")
    preds_path = tmp_path / "preds.txt"
    assert (
        main(["infer", "--bundle", str(out / "bundle.json"), "--features", str(feats), "--out", str(preds_path)])
        == 0
    )
    preds = [int(v) for v in preds_path.read_text().split()]
    truth = ds.labels[ds.splits["val"]]
    acc = float(np.mean([p == t for p, t in zip(preds, truth)]))
    bundle, _ = load_bundle(out / "bundle.json")
    assert acc == bundle["metrics"]["val_acc"]


def test_infer_empty_input_succeeds(tmp_path):
    out = tmp_path / "run"
    m = write_manifest(tmp_path, toy_manifest(out))
    assert main(["synth", "--manifest", m]) == 0
    feats = tmp_path / "empty.csv"
    feats.write_text("")
    preds = tmp_path / "p.txt"
    assert main(["infer", "--bundle", str(out / "seed_0" / "bundle.json"), "--features", str(feats), "--out", str(preds)]) == 0
    assert preds.read_text() == ""


def test_infer_width_mismatch_names_expected(tmp_path, capsys):
    out = tmp_path / "run"
    m = write_manifest(tmp_path, toy_manifest(out))
    assert main(["synth", "--manifest", m]) == 0
    feats = tmp_path / "w.csv"
    feats.write_text("1.0,2.0\n")
    rc = main(["infer", "--bundle", str(out / "seed_0" / "bundle.json"), "--features", str(feats)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "12" in err


def write_bundle(tmp_path, tamper=None):
    """Untrained 3-4-2 MLP bundle; `tamper` edits the bundle dict first."""
    net = from_mlp([3, 4, 2], make_rng(0))
    bundle = make_bundle(checkpoint_dict(net, seed=0), {"a": 0, "b": 1}, preprocess=[], metrics={})
    bundle = json.loads(json.dumps(bundle))
    if tamper:
        tamper(bundle)
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(bundle))
    return p


def run_infer(tmp_path, bundle, rows):
    feats = tmp_path / "rows.csv"
    feats.write_text(rows)
    return main(["infer", "--bundle", str(bundle), "--features", str(feats), "--out", str(tmp_path / "p.txt")])


def test_infer_valid_bundle_predicts(tmp_path):
    assert run_infer(tmp_path, write_bundle(tmp_path), "1,2,3\n0,0,0\n") == 0
    assert set((tmp_path / "p.txt").read_text().split()) <= {"a", "b"}


NORMALIZE_5 = {"op": "normalize", "min": [0.0] * 5, "scale": [0.5] * 5}
PCA_5_TO_3 = {"kind": "pca", "d": 5, "k": 3, "mean": [0.1] * 5, "components": np.eye(5, 3).tolist()}
PCA_STEP = {"op": "reduce", "reducer": PCA_5_TO_3}


def test_infer_bundle_with_preprocess_chain_predicts(tmp_path):
    bundle = write_bundle(tmp_path, lambda b: b.__setitem__("preprocess", [NORMALIZE_5, PCA_STEP]))
    assert run_infer(tmp_path, bundle, "1,2,3,4,5\n0,0,0,0,0\n") == 0
    assert len((tmp_path / "p.txt").read_text().split()) == 2


TAMPERED_BUNDLES = {
    "wrapped_weight_index": lambda b: b["checkpoint"]["weights"].append([-1, -1, 5.0]),
    "weight_off_mask": lambda b: b["checkpoint"]["weights"].append([0, 7, 5.0]),
    "nan_weight": lambda b: b["checkpoint"]["weights"][0].__setitem__(2, float("nan")),
    "wrong_format": lambda b: b.__setitem__("format", "something-else"),
    "label_map_gap": lambda b: b.__setitem__("label_map", {"a": 0, "b": 2}),
    "label_map_short": lambda b: b.__setitem__("label_map", {"a": 0}),
    "preprocess_dict": lambda b: b.__setitem__("preprocess", NORMALIZE_5),
    "step_without_op": lambda b: b.__setitem__("preprocess", [{"min": [0] * 3, "scale": [1] * 3}]),
    "unknown_op": lambda b: b.__setitem__("preprocess", [{"op": "whiten"}]),
    "normalize_without_min": lambda b: b.__setitem__("preprocess", [{"op": "normalize", "scale": [1] * 3}]),
    "normalize_nan_scale": lambda b: b.__setitem__(
        "preprocess", [{"op": "normalize", "min": [0] * 3, "scale": [1, float("nan"), 1]}]
    ),
    "reduce_without_reducer": lambda b: b.__setitem__("preprocess", [{"op": "reduce"}]),
    "reducer_matrix_shape": lambda b: b.__setitem__(
        "preprocess", [{"op": "reduce", "reducer": {**PCA_5_TO_3, "kind": "rp_sign"}}]
    ),
    "width_into_network": lambda b: b.__setitem__("preprocess", [NORMALIZE_5]),
    "width_between_steps": lambda b: b.__setitem__(
        "preprocess", [{"op": "normalize", "min": [0] * 4, "scale": [1] * 4}, PCA_STEP]
    ),
}


@pytest.mark.parametrize("tamper", TAMPERED_BUNDLES.values(), ids=TAMPERED_BUNDLES.keys())
@pytest.mark.parametrize("rows", ["1,2,3\n", ""], ids=["rows", "empty"])
def test_infer_tampered_bundle_is_data_error(tmp_path, capsys, tamper, rows):
    assert run_infer(tmp_path, write_bundle(tmp_path, tamper), rows) == 3
    assert "cannot load bundle" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"], ids=["missing", "corrupt", "not_object"])
def test_infer_unreadable_bundle_is_data_error(tmp_path, content):
    bundle = tmp_path / "bundle.json"
    if content is not None:
        bundle.write_text(content)
    assert run_infer(tmp_path, bundle, "1,2,3\n") == 3


@pytest.mark.parametrize(
    "rows", ["1,2,3\n1,2\n", "1,2,3\nnan,0,0\n", "1,2,3\n0,-inf,0\n"], ids=["ragged", "nan", "inf"]
)
def test_infer_bad_rows_are_data_errors_naming_the_row(tmp_path, capsys, rows):
    assert run_infer(tmp_path, write_bundle(tmp_path), rows) == 3
    assert "row 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    ["1,2,3\n1,x,3\n", "1,2,3\n# note\n", "1,2,3\n1,,3\n", "1,2,3\n1,2,3,\n"],
    ids=["unparseable", "comment", "empty_field", "trailing_delimiter"],
)
def test_infer_unparseable_rows_are_data_errors_naming_the_row(tmp_path, capsys, rows):
    assert run_infer(tmp_path, write_bundle(tmp_path), rows) == 3
    assert "row 1" in capsys.readouterr().err


def test_infer_skips_whitespace_only_lines(tmp_path):
    rows = "1,2,3\n   \n\t\n0,0,0\n \n"
    assert run_infer(tmp_path, write_bundle(tmp_path), rows) == 0
    assert len((tmp_path / "p.txt").read_text().split()) == 2
    assert run_infer(tmp_path, write_bundle(tmp_path), " \n\t\n") == 0
    assert (tmp_path / "p.txt").read_text() == ""


def test_features_csv_parse_matches_python_floats(tmp_path):
    rng = make_rng(7)
    vals = rng.normal(scale=10.0 ** rng.integers(-8, 8, size=(40, 6)))
    lines = [",".join(repr(float(v)) for v in row) for row in vals[:20]]
    lines += [" , ".join(f"{v:.6g}" for v in row) for row in vals[20:]]
    feats = tmp_path / "rows.csv"
    feats.write_text("\r\n".join(lines) + "\n")
    want = np.array([[float(c) for c in ln.split(",")] for ln in lines])
    got = _load_features_csv(feats)
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
    # spellings only float() accepts, and a multi-character delimiter
    feats.write_text("1_0;;2\n\u0663;;4\n")
    assert np.array_equal(_load_features_csv(feats, ";;"), [[10.0, 2.0], [3.0, 4.0]])


MANIFEST_ERRORS = {
    "scheme_activation": ("synth", lambda m: m["scheme"].update(activation="relu"), []),
    "scheme_misspelled_key": ("synth", lambda m: m["scheme"].update(max_iteration=3), []),
    "scheme_rmsprop": ("synth", lambda m: m["scheme"]["optimizer"].update(kind="rmsprop"), []),
    "synth_zero_seeds": ("synth", lambda m: m.update(seeds=0), []),
    "synth_zero_seeds_flag": ("synth", lambda m: None, ["--seeds", "0"]),
    "pipeline_unknown_key": ("sweep", lambda m: m["pipeline"].update(k=3), []),
    "pipeline_unknown_reducer": ("sweep", lambda m: m["pipeline"].update(reducers=["pca", "svd"]), []),
    "pipeline_rmsprop": ("sweep", lambda m: m["pipeline"]["scheme_optimizer"].update(kind="rmsprop"), []),
    "pipeline_baseline_unknown_key": ("sweep", lambda m: m["pipeline"]["baseline"].update(depth=2), []),
    "sweep_zero_seeds_flag": ("sweep", lambda m: None, ["--seeds", "0"]),
    "baseline_unknown_key": ("baseline", lambda m: m.update(baseline={"widht": 8}), []),
    "baseline_zero_seeds": ("baseline", lambda m: m.update(seeds=0), []),
    "scheme_layer_sizes_mismatch": ("synth", lambda m: m["scheme"].update(layer_sizes=[10, 16, 4]), []),
    "scheme_layer_sizes_classes": ("synth", lambda m: m["scheme"].update(layer_sizes=[12, 16, 3]), []),
}


@pytest.mark.parametrize("command, edit, flags", MANIFEST_ERRORS.values(), ids=MANIFEST_ERRORS.keys())
def test_manifest_errors_are_usage_errors_before_any_output(tmp_path, capsys, command, edit, flags):
    out = tmp_path / "o"
    manifest = sweep_manifest(out) if command == "sweep" else toy_manifest(out)
    edit(manifest)
    assert main([command, "--manifest", write_manifest(tmp_path, manifest), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_report_single_run_idempotent(tmp_path):
    out = tmp_path / "run"
    m = write_manifest(tmp_path, toy_manifest(out))
    assert main(["synth", "--manifest", m]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--results", str(out), "--out", str(rep)]) == 0
    first = (rep / "report.csv").read_bytes()
    assert main(["report", "--results", str(out), "--out", str(rep)]) == 0
    assert (rep / "report.csv").read_bytes() == first
    lines = (rep / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one run
    assert "synth_ha_acc" in lines[0]


def test_report_missing_dir_is_data_error(tmp_path):
    assert main(["report", "--results", str(tmp_path / "none")]) == 3


def test_artifacts_confined_to_out_dir(tmp_path, monkeypatch):
    out = tmp_path / "only_here"
    monkeypatch.chdir(tmp_path)
    m = write_manifest(tmp_path, toy_manifest(out))
    before = {p for p in tmp_path.rglob("*")}
    assert main(["synth", "--manifest", m]) == 0
    created = {p for p in tmp_path.rglob("*")} - before
    assert all(str(p).startswith(str(out)) for p in created)


def test_failed_run_removes_the_directories_it_created(tmp_path):
    out = tmp_path / "new" / "broken"
    manifest = toy_manifest(out, seeds=2)
    manifest["scheme"]["steps"] = [{"op": "no_such_op"}]
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "keep.txt").write_text("mine\n")
    assert main(["synth", "--manifest", write_manifest(tmp_path, manifest)]) == 4
    assert not out.exists()
    assert (tmp_path / "new" / "keep.txt").read_text() == "mine\n"


def test_failed_run_removes_partial_artifacts(tmp_path):
    out = tmp_path / "broken"
    manifest = toy_manifest(out)
    manifest["scheme"]["steps"] = [{"op": "no_such_op"}]
    m = write_manifest(tmp_path, manifest)
    assert main(["synth", "--manifest", m]) == 4
    leftovers = [p for p in out.rglob("*") if p.is_file()]
    assert leftovers == []
