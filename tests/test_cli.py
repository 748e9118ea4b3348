import csv
import functools
import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import growprune
from growprune.cli import WORKERS_ENV, main
from growprune.data import DataError, load_dataset, load_features_csv
from growprune.network import MAX_CHECKPOINT_NEURONS, _StepPlan, checkpoint_dict, depth, from_mlp, load_checkpoint
from growprune.numerics import make_rng, one_blas_thread
from growprune.pipeline import bundle_predict, load_bundle, make_bundle
from conftest import random_dag
from oracles import dense_bundle_labels
from growprune.schemes import TrainingDiverged, run_scheme


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


def test_label_column_outside_the_row_is_data_error(tmp_path):
    (tmp_path / "d.csv").write_text("1,2,3\n4,5,6\n")
    manifest = toy_manifest(tmp_path / "o")
    manifest["dataset"] = {"format": "csv", "path": str(tmp_path / "d.csv"), "label_column": 7}
    assert main(["synth", "--manifest", write_manifest(tmp_path, manifest)]) == 3
    assert not (tmp_path / "o" / "metrics.json").exists()


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


def set_meta(**changes):
    def tamper(d):
        meta = json.loads(bytes(d["meta"]).decode())
        meta.update(changes)
        d["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    return tamper


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
    "label_map_list": set_meta(label_map=["a", "b"]),
    "label_map_str_values": set_meta(label_map={"a": "0", "b": "1"}),
    "label_map_not_onto_classes": set_meta(label_map={"a": 0, "b": 2}),
    "provenance_str": set_meta(provenance="csv"),
    "normalization_list": set_meta(normalization=[0.0, 1.0]),
    "normalization_short": set_meta(normalization={"min": [0.0], "scale": [1.0]}),
    "normalization_not_finite": set_meta(normalization={"min": [0.0, float("nan")], "scale": [1.0, 1.0]}),
    "nan_feature": lambda d: d["features"].__setitem__((3, 1), np.nan),
    "inf_feature": lambda d: d["features"].__setitem__((0, 0), -np.inf),
    "bool_features": lambda d: d.__setitem__("features", d["features"] > 5),
    "complex_features": lambda d: d.__setitem__("features", d["features"] + 0j),
    "str_features": lambda d: d.__setitem__("features", d["features"].astype(str)),
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


def test_synth_on_npz_with_a_nan_feature_is_data_error(tmp_path, capsys):
    path = tmp_path / "d.npz"
    members = small_npz_members()
    members["features"][2, 0] = np.nan
    np.savez(path, **members)
    out = tmp_path / "o"
    assert main(["synth", "--manifest", write_manifest(tmp_path, toy_manifest(out)), "--data", str(path)]) == 3
    assert "features row 2: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def write_idx(path, array, magic):
    dims = struct.pack(f">{array.ndim}i", *array.shape)
    path.write_bytes(struct.pack(">i", magic) + dims + array.astype(np.uint8).tobytes())


IDX_FILES = {
    "images": "train-images",
    "labels": "train-labels",
    "test_images": "test-images",
    "test_labels": "test-labels",
}


def idx_manifest(tmp_path, train_labels, test_labels):
    for name, labels in (("train", train_labels), ("test", test_labels)):
        labels = np.asarray(labels)
        images = np.repeat(labels * 80, 4).reshape(-1, 2, 2)
        write_idx(tmp_path / f"{name}-images", images, 0x803)
        write_idx(tmp_path / f"{name}-labels", labels, 0x801)
    dataset = {"format": "idx", **{k: str(tmp_path / v) for k, v in IDX_FILES.items()}}
    return write_manifest(tmp_path, {"dataset": dataset, "out": str(tmp_path / "o")})


def test_merged_idx_test_labels_go_through_the_training_label_map(tmp_path):
    assert main(["prep", "--manifest", idx_manifest(tmp_path, [0, 1, 2] * 6, [1, 2, 2, 1])]) == 0
    ds = load_dataset(tmp_path / "o" / "dataset.npz")
    assert ds.label_map == {"0": 0, "1": 1, "2": 2}
    assert ds.labels[ds.splits["test"]].tolist() == [1, 2, 2, 1]


def test_merged_idx_test_label_unknown_to_training_is_data_error(tmp_path, capsys):
    assert main(["prep", "--manifest", idx_manifest(tmp_path, [0, 1, 2] * 6, [1, 3, 2])]) == 3
    assert "test labels ['3']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_idx_header_with_negative_dimension_is_data_error(tmp_path, capsys):
    m = idx_manifest(tmp_path, [0, 1, 2] * 6, [1, 2])
    path = tmp_path / "train-images"
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack(">i", -18) + raw[8:])
    assert main(["prep", "--manifest", m]) == 3
    assert "negative IDX dimension" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_small_npz_dataset_preps(tmp_path):
    path = tmp_path / "d.npz"
    np.savez(path, **small_npz_members())
    m = write_manifest(tmp_path, {"out": str(tmp_path / "o")})
    assert main(["prep", "--manifest", m, "--data", str(path)]) == 0
    assert (tmp_path / "o" / "dataset.npz").exists()


def test_npz_with_normalization_preps(tmp_path):
    path = tmp_path / "d.npz"
    members = small_npz_members()
    set_meta(normalization={"min": [0.0, 1], "scale": [0.5, 2.0]})(members)
    np.savez(path, **members)
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


@pytest.mark.parametrize(
    "flags, env",
    [(["--workers", "0"], None), (["--workers", "-3"], None), ([], "abc"), ([], "0"), ([], "-1"), ([], "1.5")],
    ids=["flag_zero", "flag_negative", "env_abc", "env_zero", "env_negative", "env_fraction"],
)
def test_worker_count_below_one_or_not_an_integer_is_usage_error(tmp_path, monkeypatch, capsys, flags, env):
    if env is None:
        monkeypatch.delenv(WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(WORKERS_ENV, env)
    out = tmp_path / "o"
    assert main(["sweep", "--manifest", write_manifest(tmp_path, sweep_manifest(out)), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "integer >= 1" in err
    assert not out.exists()


def test_sweep_through_a_worker_pool_matches_one_worker(tmp_path, monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    manifest = sweep_manifest(tmp_path / "unused")
    manifest["pipeline"]["schemes"] = ["A", "B", "C"]
    m = write_manifest(tmp_path, manifest)
    for name, flags in (("one", ["--workers", "1"]), ("flag", ["--workers", "2"])):
        assert main(["sweep", "--manifest", m, "--out", str(tmp_path / name), *flags]) == 0
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert main(["sweep", "--manifest", m, "--out", str(tmp_path / "env")]) == 0
    # bundle.json and the checkpoint in it are left out: BLAS threads in
    # pool workers may move their low bits
    for name in ("sweep.csv", "metrics.json"):
        one = (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "flag" / name).read_bytes() == one
        assert (tmp_path / "env" / name).read_bytes() == one


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


def test_infer_refuses_a_checkpoint_above_the_neuron_ceiling_before_allocating(tmp_path, capsys):
    n = MAX_CHECKPOINT_NEURONS + 1
    checkpoint = {
        "format": "growprune-checkpoint",
        "version": 1,
        "n_in": n - 2,
        "n_hidden": 0,
        "n_out": 2,
        "activation": "relu",
        "mask_rle": [[]] * n,
        "weights": [],
        "bias": [0.0, 0.0],
        "layers": None,
    }
    bundle = tmp_path / "big.json"
    bundle.write_text(json.dumps(make_bundle(checkpoint, {"a": 0, "b": 1}, preprocess=[], metrics={})))
    start = time.perf_counter()
    assert run_infer(tmp_path, bundle, "1,2,3\n") == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"{n} neurons" in err and str(MAX_CHECKPOINT_NEURONS) in err and "Traceback" not in err
    assert not (tmp_path / "p.txt").exists()


def test_infer_names_the_length_of_a_short_layers_list(tmp_path, capsys):
    assert run_infer(tmp_path, write_bundle(tmp_path, lambda b: b["checkpoint"]["layers"].pop()), "1,2,3\n") == 3
    assert "8 layer ids for 9 neurons" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def test_infer_valid_bundle_predicts(tmp_path):
    assert run_infer(tmp_path, write_bundle(tmp_path), "1,2,3\n0,0,0\n") == 0
    assert set((tmp_path / "p.txt").read_text().split()) <= {"a", "b"}


NORMALIZE_5 = {"op": "normalize", "min": [0.0] * 5, "scale": [0.5] * 5}
PCA_5_TO_3 = {"kind": "pca", "d": 5, "k": 3, "mean": [0.1] * 5, "components": np.eye(5, 3).tolist()}
PCA_STEP = {"op": "reduce", "reducer": PCA_5_TO_3}
RP_3 = {"kind": "rp_sign", "d": 3, "k": 3, "matrix": np.eye(3).tolist()}
PCA_3 = {"kind": "pca", "d": 3, "k": 3, "mean": [0.0] * 3, "components": np.eye(3).tolist()}


def test_infer_bundle_with_preprocess_chain_predicts(tmp_path):
    bundle = write_bundle(tmp_path, lambda b: b.__setitem__("preprocess", [NORMALIZE_5, PCA_STEP]))
    assert run_infer(tmp_path, bundle, "1,2,3,4,5\n0,0,0,0,0\n") == 0
    assert len((tmp_path / "p.txt").read_text().split()) == 2


TAMPERED_BUNDLES = {
    "wrapped_weight_index": lambda b: b["checkpoint"]["weights"].append([-1, -1, 5.0]),
    "weight_off_mask": lambda b: b["checkpoint"]["weights"].append([0, 7, 5.0]),
    "nan_weight": lambda b: b["checkpoint"]["weights"][0].__setitem__(2, float("nan")),
    "fractional_layer_ids": lambda b: b["checkpoint"].__setitem__("layers", [0.7] * 3 + [1.2] * 4 + [2.1] * 2),
    "string_bias": lambda b: b["checkpoint"]["bias"].__setitem__(0, "1.5"),
    "bool_bias": lambda b: b["checkpoint"]["bias"].__setitem__(0, True),
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
    "normalize_string_min": lambda b: b.__setitem__(
        "preprocess", [{"op": "normalize", "min": ["0", "0.5", "1"], "scale": [1] * 3}]
    ),
    "normalize_bool_scale": lambda b: b.__setitem__(
        "preprocess", [{"op": "normalize", "min": [0] * 3, "scale": [1, True, 1]}]
    ),
    "reducer_string_matrix": lambda b: b.__setitem__(
        "preprocess", [{"op": "reduce", "reducer": {**RP_3, "matrix": [[1, 0, 0], [0, "1", 0], [0, 0, 1]]}}]
    ),
    "pca_bool_mean": lambda b: b.__setitem__(
        "preprocess", [{"op": "reduce", "reducer": {**PCA_3, "mean": [0, False, 0]}}]
    ),
    "pca_string_components": lambda b: b.__setitem__(
        "preprocess", [{"op": "reduce", "reducer": {**PCA_3, "components": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]}}]
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
    got = load_features_csv(feats)
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
    # spellings only float() accepts, and a multi-character delimiter
    feats.write_text("1_0;;2\n\u0663;;4\n")
    assert np.array_equal(load_features_csv(feats, ";;"), [[10.0, 2.0], [3.0, 4.0]])


INTEGER_TEXTS = {
    "signs_spaces_crlf": "+7, 5 ,0\r\n 12,+0,255\r\n",
    "negative_zero": "0,-0,3\n-5,6,-0\n",
    "beyond_2_53": "9007199254740993,1,2\n9007199254740995,3,18014398509481987\n",
    "beyond_int64": "9223372036854775807,1,2\n9223372036854775808,99999999999999999999,3\n",
    "float_in_last_row": "1,2,3\n4,5,6\n7,8,1.5\n",
    "whitespace_lines": "1,2,3\n \t\n\n4,5,6\n   \n",
    "digits": "007,0,255\n999999999999999999,18014398509481987,9007199254740993",
    "one_column": "3\n1000000000000000000\n",
}


def python_floats(text, delimiter=","):
    return np.array([[float(c) for c in ln.split(delimiter)] for ln in text.splitlines() if ln.strip()])


@pytest.mark.parametrize("text", INTEGER_TEXTS.values(), ids=INTEGER_TEXTS.keys())
def test_features_csv_integer_parse_matches_python_floats(tmp_path, text):
    feats = tmp_path / "rows.csv"
    feats.write_bytes(text.encode())
    got = load_features_csv(feats)
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), python_floats(text).view(np.int64))


def integer_rows(rng, n_rows, n_cols):
    """Integer CSV rows of 1 to 18 digits, many beyond 2**53."""
    vals = rng.integers(0, 10 ** rng.integers(1, 19, size=(n_rows, n_cols)), dtype=np.int64)
    return "".join(",".join(str(v) for v in row) + "\n" for row in vals.tolist())


@pytest.fixture
def digit_reader_only(monkeypatch):
    """Small blocks on four workers, and no text reader behind them."""
    monkeypatch.setattr(growprune.data, "_BLOCK_BYTES", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def refuse(*args):
        raise AssertionError("the digit-row reader fell back")

    monkeypatch.setattr(growprune.data, "_loadtxt", refuse)


def test_digit_reader_blocks_match_python_floats(tmp_path, digit_reader_only):
    text = integer_rows(make_rng(3), 200, 30)
    feats = tmp_path / "rows.csv"
    feats.write_text(text)
    assert feats.stat().st_size > 20 * growprune.data._BLOCK_BYTES
    got = load_features_csv(feats)
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), python_floats(text).view(np.int64))


def test_digit_reader_one_worker_runs_without_threads(tmp_path, monkeypatch, digit_reader_only):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(growprune.data, "ThreadPoolExecutor", None)
    text = integer_rows(make_rng(4), 60, 12)
    feats = tmp_path / "rows.csv"
    feats.write_text(text)
    assert np.array_equal(load_features_csv(feats).view(np.int64), python_floats(text).view(np.int64))


def test_digit_reader_takes_one_column_and_other_delimiters(tmp_path, digit_reader_only):
    feats = tmp_path / "rows.csv"
    text = integer_rows(make_rng(5), 300, 1)
    feats.write_text(text)
    assert np.array_equal(load_features_csv(feats).view(np.int64), python_floats(text).view(np.int64))
    text = integer_rows(make_rng(6), 40, 9).replace(",", "\t")
    feats.write_text(text)
    got = load_features_csv(feats, "\t")
    assert np.array_equal(got.view(np.int64), python_floats(text, "\t").view(np.int64))


@pytest.mark.parametrize(
    "tail",
    ["\r\n", "\n\n\n", "\n \n"],
    ids=["crlf", "trailing_blank_lines", "trailing_whitespace_line"],
)
def test_digit_reader_leaves_other_line_ends_to_the_text_reader(tmp_path, monkeypatch, tail):
    monkeypatch.setattr(growprune.data, "_BLOCK_BYTES", 256)
    text = integer_rows(make_rng(7), 80, 16)
    text = text.replace("\n", "\r\n") if tail == "\r\n" else text.rstrip("\n") + tail
    feats = tmp_path / "rows.csv"
    feats.write_bytes(text.encode())
    got = load_features_csv(feats)
    assert got.shape == (80, 16) and np.array_equal(got.view(np.int64), python_floats(text).view(np.int64))


@pytest.mark.parametrize(
    "bad",
    ["1,2", "1,2\n3,4,5,6", "1,x,3", "nan,2,3", "1,,3"],
    ids=["ragged", "ragged_pair", "x", "nan", "empty_field"],
)
def test_bad_row_in_the_last_block_names_its_global_row(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(growprune.data, "_BLOCK_BYTES", 256)
    text = integer_rows(make_rng(8), 120, 3) + bad + "\n"
    feats = tmp_path / "rows.csv"
    feats.write_text(text)
    with pytest.raises(DataError, match=r"row 120\b"):
        load_features_csv(feats)


@pytest.mark.parametrize("action", ["ignore", "error"])
def test_digit_reader_falls_back_on_a_short_fromstring_read(tmp_path, monkeypatch, action):
    # numpy 1.x fromstring stops at data it cannot read and returns the
    # values before it, with a DeprecationWarning
    monkeypatch.setattr(growprune.data, "_BLOCK_BYTES", 256)
    fromstring = np.fromstring

    def short_fromstring(text, dtype, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
        return fromstring(text, dtype, sep=sep)[:-1]

    monkeypatch.setattr(np, "fromstring", short_fromstring)
    text = integer_rows(make_rng(9), 50, 7)
    feats = tmp_path / "rows.csv"
    feats.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter(action, DeprecationWarning)
        got = load_features_csv(feats)
    assert np.array_equal(got.view(np.int64), python_floats(text).view(np.int64))


def net_bundle(tmp_path, net, preprocess=()):
    """A bundle of `net` with the given preprocess steps, labels c0, c1, ..."""
    labels = {f"c{i}": i for i in range(net.n_out)}
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(make_bundle(checkpoint_dict(net, seed=0), labels, preprocess=list(preprocess), metrics={})))
    return p


def walking_dag(n_in):
    net = random_dag(make_rng(11), n_in=n_in, n_hidden=10, n_out=3)
    assert any(len(walk) for _, _, walk, _ in _StepPlan(net, []).segments())
    return net


RP_STEP = {"op": "reduce", "reducer": {"kind": "rp_gauss_scaled", "d": 5, "k": 3, "matrix": make_rng(20).normal(size=(5, 3)).tolist()}}
PIXELS_8 = {"op": "normalize", "min": [0.0] * 8, "scale": [1 / 255] * 8}
STREAM_BUNDLES = {  # name: (raw feature count, bundle writer)
    "mlp": (8, lambda tmp_path: net_bundle(tmp_path, from_mlp([8, 6, 3], make_rng(10)), [PIXELS_8])),
    "walking_dag": (8, lambda tmp_path: net_bundle(tmp_path, walking_dag(8), [PIXELS_8])),
    "reduce": (5, lambda tmp_path: net_bundle(tmp_path, from_mlp([3, 4, 2], make_rng(12)), [NORMALIZE_5, PCA_STEP])),
    "random_projection": (5, lambda tmp_path: net_bundle(tmp_path, from_mlp([3, 5, 2], make_rng(19)), [NORMALIZE_5, RP_STEP])),
}


def pixel_rows(seed, n_rows, n_cols):
    return "".join(",".join(map(str, row)) + "\n" for row in make_rng(seed).integers(0, 256, (n_rows, n_cols)).tolist())


@pytest.fixture
def stream(monkeypatch):
    """Blocks of 256 bytes on two usable CPUs; records the item count of each
    stream, the worker count of each thread pool and, per prediction, whether
    it ran on the main thread and OpenBLAS's thread count (None without a
    setter)."""
    monkeypatch.setattr(growprune.data, "_BLOCK_BYTES", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = {"runs": [], "pools": [], "main_thread": [], "blas_threads": []}
    in_order, pool, predict = growprune.pipeline._in_order, growprune.data.ThreadPoolExecutor, growprune.pipeline._predict

    def record_run(fn, items):
        seen["runs"].append(len(items))
        return in_order(fn, items)

    def record_pool(workers):
        seen["pools"].append(workers)
        return pool(workers)

    def record_predict(*args):
        calls = growprune.numerics._blas_thread_calls()
        seen["main_thread"].append(threading.current_thread() is threading.main_thread())
        seen["blas_threads"].append(calls and calls[1]())
        return predict(*args)

    monkeypatch.setattr(growprune.pipeline, "_in_order", record_run)
    monkeypatch.setattr(growprune.data, "ThreadPoolExecutor", record_pool)
    monkeypatch.setattr(growprune.pipeline, "_predict", record_predict)
    return seen


def infer_rows(tmp_path, bundle, text):
    feats = tmp_path / "rows.csv"
    feats.write_text(text)
    out = tmp_path / "p.txt"
    return main(["infer", "--bundle", str(bundle), "--features", str(feats), "--out", str(out)]), feats, out


def oracle_predictions(bundle, text):
    """The predictions file the parse and serving oracles give for `text`."""
    labels = dense_bundle_labels(json.loads(Path(bundle).read_text()), python_floats(text)) if text else []
    return "".join(f"{v}\n" for v in labels)


@pytest.mark.parametrize("width, make", STREAM_BUNDLES.values(), ids=STREAM_BUNDLES.keys())
@pytest.mark.parametrize("tail", ["", "1.5"], ids=["digits", "float_in_last_block"])
def test_infer_stream_labels_equal_bundle_predict(tmp_path, stream, width, make, tail):
    bundle = make(tmp_path)
    text = pixel_rows(13, 150, width) + (",".join([tail] * width) + "\n" if tail else "")
    rc, feats, out = infer_rows(tmp_path, bundle, text)
    assert rc == 0
    assert feats.stat().st_size > 3 * growprune.data._BLOCK_BYTES
    assert out.read_text() == oracle_predictions(bundle, text)
    b, net = load_bundle(bundle)
    assert bundle_predict(b, python_floats(text), net) == out.read_text().split()
    assert stream["runs"][-1] >= 3 and stream["pools"][-1] == 2
    if growprune.numerics._blas_thread_calls() is not None:
        assert stream["main_thread"] and not any(stream["main_thread"])


def test_infer_without_a_blas_setter_predicts_on_the_calling_thread(tmp_path, stream, monkeypatch):
    bundle = STREAM_BUNDLES["mlp"][1](tmp_path)
    text = pixel_rows(14, 150, 8)
    rc, feats, out = infer_rows(tmp_path, bundle, text)
    assert rc == 0
    held = out.read_bytes()
    monkeypatch.setattr(growprune.numerics, "_blas_thread_calls", lambda: None)
    stream["main_thread"].clear()
    assert infer_rows(tmp_path, bundle, text)[0] == 0
    assert out.read_bytes() == held == oracle_predictions(bundle, text).encode()
    assert stream["runs"][-1] >= 3 and stream["main_thread"] and all(stream["main_thread"])


def test_infer_restores_the_blas_thread_count(tmp_path, stream):
    calls = growprune.numerics._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    _, get, set_ = calls
    before = get()
    try:
        set_(3)
        assert run_infer(tmp_path, write_bundle(tmp_path), integer_rows(make_rng(15), 120, 3)) == 0
        assert set(stream["blas_threads"]) == {1} and get() == 3
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread() as held:
                assert held and get() == 1
                raise RuntimeError("inside")
        assert get() == 3
    finally:
        set_(before)


@pytest.mark.parametrize("bad", ["1,2", "1,x,3", "1,,3"], ids=["ragged", "x", "empty_field"])
def test_infer_bad_row_in_the_last_block_names_its_global_row(tmp_path, capsys, stream, bad):
    text = integer_rows(make_rng(8), 120, 3) + bad + "\n"
    rc, feats, out = infer_rows(tmp_path, write_bundle(tmp_path), text)
    assert rc == 3
    with pytest.raises(DataError, match=r"row 120\b") as today:
        load_features_csv(feats)
    assert capsys.readouterr().err == f"data error: {today.value}\n"
    assert not out.exists()


def test_infer_width_mismatch_exits_before_any_block_is_predicted(tmp_path, capsys, stream):
    rc, _, out = infer_rows(tmp_path, write_bundle(tmp_path), integer_rows(make_rng(16), 120, 4))
    assert rc == 3
    assert "takes 3 features, the rows hold 4" in capsys.readouterr().err
    assert stream["main_thread"] == [] and not out.exists()


@pytest.mark.parametrize("text", ["", "1,2,3\n"], ids=["empty", "one_row"])
def test_infer_empty_and_one_row_files(tmp_path, capsys, stream, text):
    rc, feats, out = infer_rows(tmp_path, write_bundle(tmp_path), text)
    assert rc == 0 and out.read_text() == oracle_predictions(tmp_path / "bundle.json", text)
    assert capsys.readouterr().out == f"{len(text.split())} predictions -> {out}\n"


def test_bundle_predict_edge_cases_match_infer(tmp_path, stream):
    b, net = load_bundle(STREAM_BUNDLES["reduce"][1](tmp_path))
    with pytest.raises(ValueError, match="the bundle takes 5 features, the rows hold 4"):
        bundle_predict(b, np.zeros((3, 4)), net)
    assert bundle_predict(b, np.zeros((0, 0)), net) == []
    for shape in [(5,), (2, 3, 5), ()]:
        with pytest.raises(ValueError, match="2-D"):
            bundle_predict(b, np.zeros(shape), net)
    assert stream["main_thread"] == []


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_infer_failed_write_keeps_the_earlier_predictions(tmp_path, monkeypatch, error):
    bundle = write_bundle(tmp_path)
    assert run_infer(tmp_path, bundle, "1,2,3\n0,0,0\n") == 0
    before, files = (tmp_path / "p.txt").read_bytes(), sorted(tmp_path.iterdir())

    class Unwritable:
        def __format__(self, spec):
            raise error("write failed")

    # the file is opened and the first labels written before the write fails
    monkeypatch.setattr(growprune.cli, "predict_features_file", lambda *args: ["new", Unwritable()])
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run_infer(tmp_path, bundle, "1,2,3\n")
    else:
        assert run_infer(tmp_path, bundle, "1,2,3\n") == 4
    assert (tmp_path / "p.txt").read_bytes() == before
    assert sorted(tmp_path.iterdir()) == files


def test_public_functions_run_only_on_the_main_thread(tmp_path, monkeypatch, stream):
    """perfbench's tracer wraps the public functions and keeps one span stack
    per process, so the threads of infer and of the digit-row reader may call
    only private functions."""
    calls = []

    def recorder(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return recorded

    modules = [importlib.import_module(f"growprune.{m.name}") for m in pkgutil.iter_modules(growprune.__path__)]
    wrapped = {}
    for mod in modules:
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and callable(fn) and not isinstance(fn, type):
                if getattr(fn, "__module__", None) == mod.__name__:
                    wrapped[id(fn)] = (fn, recorder(f"{mod.__name__}.{attr}", fn))
    for mod in [growprune, *modules]:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                monkeypatch.setattr(mod, attr, wrapped[id(value)][1])
    rc, feats, _ = infer_rows(tmp_path, STREAM_BUNDLES["reduce"][1](tmp_path), pixel_rows(17, 150, 5))
    assert rc == 0
    feats.write_text(integer_rows(make_rng(18), 120, 6))
    assert growprune.data.load_features_csv(feats).shape == (120, 6)
    assert stream["pools"] == [2, 2, 2]  # the stream, then the reader's block checks and parses
    names = {name for name, _ in calls}
    assert {"growprune.pipeline.predict_features_file", "growprune.data.load_features_csv"} <= names
    assert [name for name, main_thread in calls if not main_thread] == []


def with_step(step):
    return lambda m: m["scheme"].update(steps=[step, {"op": "train"}])


def with_dataset(spec):
    # the files need not exist: the values are checked before any is read
    return lambda m: m.update(dataset=spec)


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
    "scheme_fractional_layer_size": ("synth", lambda m: m["scheme"].update(layer_sizes=[12, 16.7, 4]), []),
    "scheme_zero_layer_size": ("synth", lambda m: m["scheme"].update(layer_sizes=[12, 0, 4]), []),
    "optimizer_fractional_batch": ("synth", lambda m: m["scheme"]["optimizer"].update(batch_size=64.5), []),
    "optimizer_fractional_epochs": ("synth", lambda m: m["scheme"]["optimizer"].update(epochs_per_iteration=2.5), []),
    "optimizer_nan_lr": ("synth", lambda m: m["scheme"]["optimizer"].update(learning_rate=float("nan")), []),
    "optimizer_inf_lr": ("synth", lambda m: m["scheme"]["optimizer"].update(learning_rate=float("inf")), []),
    "optimizer_negative_decay": ("synth", lambda m: m["scheme"]["optimizer"].update(weight_decay=-1.0), []),
    "optimizer_nan_decay": ("synth", lambda m: m["scheme"]["optimizer"].update(weight_decay=float("nan")), []),
    "pipeline_fractional_batch": ("sweep", lambda m: m["pipeline"]["scheme_optimizer"].update(batch_size=64.5), []),
    "scheme_fractional_iterations": ("synth", lambda m: m["scheme"].update(max_iterations=2.5), []),
    "scheme_negative_budget": ("synth", lambda m: m["scheme"].update(final_connections=-5), []),
    "scheme_negative_neurons": ("synth", lambda m: m["scheme"].update(max_neurons=-1), []),
    "scheme_prune_fraction_over_1": ("synth", lambda m: m["scheme"].update(init_prune_fraction=1.5), []),
    "scheme_prune_fraction_nan": ("synth", lambda m: m["scheme"].update(init_prune_fraction=float("nan")), []),
    "scheme_negative_noise": ("synth", lambda m: m["scheme"].update(noise_std=-1), []),
    "pipeline_fractional_iterations": ("sweep", lambda m: m["pipeline"].update(scheme_iterations=2.5), []),
    "pipeline_nan_final_fraction": ("sweep", lambda m: m["pipeline"].update(final_fraction=float("nan")), []),
    "pipeline_negative_final_fraction": ("sweep", lambda m: m["pipeline"].update(final_fraction=-1.0), []),
    "step_misspelled_growth_key": (
        "synth", with_step({"op": "grow_connections", "kind": "random", "fraction_of_posible": 0.5}), []
    ),
    "step_misspelled_prune_key": ("synth", with_step({"op": "prune_connections", "budget_keys": "final_connections"}), []),
    "step_unknown_op": ("synth", with_step({"op": "no_such_op"}), []),
    "step_unknown_kind": ("synth", with_step({"op": "grow_connections", "kind": "gradiant"}), []),
    "step_no_prune_target": ("synth", with_step({"op": "prune_connections"}), []),
    "step_budget_key_not_int": ("synth", with_step({"op": "prune_connections", "budget_key": "noise_std"}), []),
    "step_not_a_dict": ("synth", with_step("train"), []),
    "step_negative_noise": ("synth", with_step({"op": "grow_neurons", "noise_std": -1}), []),
    "step_negative_budget": ("synth", with_step({"op": "prune_connections", "budget": -3}), []),
    "step_fractional_budget": ("synth", with_step({"op": "prune_connections", "budget": 2.5}), []),
    "step_keep_fraction_over_1": ("synth", with_step({"op": "prune_connections", "keep_fraction": 1.5}), []),
    "step_negative_growth_fraction": (
        "synth", with_step({"op": "grow_connections", "kind": "random", "fraction_of_possible": -0.5}), []
    ),
    "step_fractional_count": ("synth", with_step({"op": "grow_neurons", "count": 2.7}), []),
    "step_threshold_and_budget": ("synth", with_step({"op": "prune_connections", "threshold": 0.1, "budget": 5}), []),
    "step_two_growth_amounts": (
        "synth", with_step({"op": "grow_connections", "fraction_of_possible": 0.5, "fraction_of_inactive": 0.5}), []
    ),
    "csv_empty_delimiter": ("prep", with_dataset({"format": "csv", "path": "t.csv", "delimiter": ""}), []),
    "csv_delimiter_not_string": ("prep", with_dataset({"format": "csv", "path": "t.csv", "delimiter": 44}), []),
    "csv_float_label_column": ("prep", with_dataset({"format": "csv", "path": "t.csv", "label_column": 2.5}), []),
    "csv_bool_label_column": ("prep", with_dataset({"format": "csv", "path": "t.csv", "label_column": True}), []),
    "csv_header_not_bool": ("prep", with_dataset({"format": "csv", "path": "t.csv", "header": "yes"}), []),
    "idx_val_fraction_over_1": ("prep", with_dataset({"format": "idx", "images": "i", "labels": "l", "val_fraction": 1.5}), []),
    "idx_val_fraction_1": ("prep", with_dataset({"format": "idx", "images": "i", "labels": "l", "val_fraction": 1}), []),
    "idx_negative_val_fraction": (
        "prep", with_dataset({"format": "idx", "images": "i", "labels": "l", "val_fraction": -0.1}), []
    ),
}


@pytest.mark.parametrize("command, edit, flags", MANIFEST_ERRORS.values(), ids=MANIFEST_ERRORS.keys())
def test_manifest_errors_are_usage_errors_before_any_output(tmp_path, capsys, command, edit, flags):
    out = tmp_path / "o"
    manifest = sweep_manifest(out) if command == "sweep" else toy_manifest(out)
    edit(manifest)
    assert main([command, "--manifest", write_manifest(tmp_path, manifest), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("k", [0, -3, 12, 50])
def test_sweep_k_outside_the_features_is_usage_error(tmp_path, capsys, k):
    out = tmp_path / "o"
    assert main(["sweep", "--manifest", write_manifest(tmp_path, sweep_manifest(out)), "--k", str(k)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --k ") and f"got {k}" in err and "12 features" in err
    assert not out.exists()


def test_infer_bad_delimiter_is_usage_error(tmp_path):
    feats = tmp_path / "rows.csv"
    feats.write_text("1,2,3\n")
    argv = ["infer", "--bundle", str(write_bundle(tmp_path)), "--features", str(feats), "--out", str(tmp_path / "p.txt")]
    assert main([*argv, "--delimiter", ""]) == 2
    assert not (tmp_path / "p.txt").exists()
    assert main([*argv, "--delimiter", ","]) == 0


def test_synth_notes_a_checkpoint_without_a_path(tmp_path):
    # un-normalized inputs start with larger weights than the hidden layer,
    # so the budget prune keeps input edges only and the hidden layer dies
    out = tmp_path / "o"
    manifest = {
        "dataset": {"format": "synthetic", "rows": 1200, "features": 16, "classes": 4, "latent_dim": 3, "data_seed": 3},
        "normalize": False,
        "scheme": {"scheme": "C", "layer_sizes": [16, 150, 4], "final_connections": 300, "max_iterations": 2},
        "seed": 3,
        "seeds": 1,
        "out": str(out),
    }
    assert main(["synth", "--manifest", write_manifest(tmp_path, manifest)]) == 0
    entry = json.loads((out / "metrics.json").read_text())["per_seed"][0]
    assert entry["connections"] == 0
    assert entry["notes"] == [f"iteration {i}: no active path from any input to any output" for i in (1, 2)]


def test_synth_depth_describes_the_returned_network(tmp_path, monkeypatch):
    # the third training call (iteration 1's regrowth train, after its
    # checkpoint) diverges, so iteration 1's history row describes the
    # network restored from its start; the final iteration stops at its
    # checkpoint, so the regrowth train that still runs is iteration 1's
    real = growprune.schemes.train_weights
    calls = []

    def diverge_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise TrainingDiverged("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr("growprune.schemes.train_weights", diverge_third)
    out = tmp_path / "o"
    manifest = toy_manifest(out, scheme="B")
    manifest["scheme"].update(final_connections=10, max_iterations=2)
    assert main(["synth", "--manifest", write_manifest(tmp_path, manifest)]) == 0
    assert len(calls) == 4  # warm-up; iteration 1's checkpoint and regrowth; iteration 2's checkpoint
    entry = json.loads((out / "metrics.json").read_text())["per_seed"][0]
    net, _ = load_checkpoint(out / "seed_0" / "checkpoint.json")
    assert entry["diverged_iterations"] == 1
    assert entry["depth"] == depth(net)


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


def test_report_on_a_sweep_pins_baseline_reduced_and_full_cells(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--manifest", write_manifest(tmp_path, sweep_manifest(out))]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--results", str(out), "--out", str(rep)]) == 0
    with open(rep / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    # no reduced candidate and no sweep cell meets the baseline: both
    # most-compressed cells show the nearest miss, starred
    assert rows == [
        {
            "run": ".",
            "baseline_acc": "0.6316",
            "baseline_params": "276",
            "reduced_ha_acc": "0.6184",
            "reduced_ha_params": "92",
            "reduced_mc_acc": "0.4079*",
            "reduced_mc_params": "36",
            "synth_ha_acc": "-",
            "synth_ha_params": "-",
            "synth_mc_acc": "-",
            "synth_mc_params": "-",
            "full_ha_acc": "0.6053",
            "full_ha_params": "25",
            "full_mc_acc": "0.3158*",
            "full_mc_params": "8",
        }
    ]


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


def fail_run_at_seed(monkeypatch, seed):
    """Make synth's run of `seed` fail after its history file exists."""
    real = run_scheme

    def failing(cfg, data, **kwargs):
        if cfg.seed == seed:
            raise RuntimeError("run failure")
        return real(cfg, data, **kwargs)

    monkeypatch.setattr("growprune.cli.run_scheme", failing)


def test_failed_run_removes_the_directories_it_created(tmp_path, monkeypatch):
    out = tmp_path / "new" / "broken"
    fail_run_at_seed(monkeypatch, 1)
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "keep.txt").write_text("mine\n")
    assert main(["synth", "--manifest", write_manifest(tmp_path, toy_manifest(out, seeds=2))]) == 4
    assert not out.exists()
    assert (tmp_path / "new" / "keep.txt").read_text() == "mine\n"


def test_failed_run_removes_partial_artifacts(tmp_path, monkeypatch):
    out = tmp_path / "broken"
    fail_run_at_seed(monkeypatch, 0)
    m = write_manifest(tmp_path, toy_manifest(out))
    assert main(["synth", "--manifest", m]) == 4
    leftovers = [p for p in out.rglob("*") if p.is_file()]
    assert leftovers == []
