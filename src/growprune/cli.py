"""Command-line driver: dataset prep, baseline search, single-scheme synthesis
runs, full reduction+synthesis sweeps, checkpoint inference, and report tables.

A run is described by a JSON manifest; command-line flags override manifest
fields and the effective merged manifest is persisted next to the outputs.
Artifacts only ever land under the run's output directory, and only once the
command has succeeded. Exit codes: 0 ok, 2 usage error, 3 data error, 4 run
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import CsvSchema, DataError, Dataset, load_csv, load_dataset, load_idx, make_blobs, make_embedded_clusters, make_moons, save_dataset, split, split_from_files
from .dimreduce import normalize
from .energy import round_energy
from .network import checkpoint_dict
from .numerics import make_rng
from .pipeline import (
    BaselineSearchConfig,
    PipelineConfig,
    find_baseline,
    load_bundle,
    make_bundle,
    predict_features_file,
    run_pipeline,
    save_bundle,
    SWEEP_FIELDS,
)
from .schemes import HistoryWriter, SchemeConfig, run_scheme, summarize_run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUN = 4

WORKERS_ENV = "GROWPRUNE_WORKERS"


class ManifestError(Exception):
    """Invalid or incomplete run manifest (a usage error)."""


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


@contextlib.contextmanager
def _staged(out: Path):
    """Yield a hidden directory inside `out` for a command to write its files
    in. When the block succeeds, each file moves to its place under `out`,
    deepest first so the top-level records move last (files there that the
    command did not write are left alone). When it raises, an interrupt
    included, the staged files are dropped, and so are the directories of
    `out`'s path that this call created, up to the first one that is not
    empty (another run may have written into it meanwhile)."""
    missing = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as stage:
            yield Path(stage)
            files = (f.relative_to(stage) for f in Path(stage).rglob("*") if f.is_file())
            for rel in sorted(files, key=lambda r: (-len(r.parts), r)):
                (out / rel).parent.mkdir(parents=True, exist_ok=True)
                os.replace(Path(stage) / rel, out / rel)
    except BaseException:
        for d in missing:
            try:
                d.rmdir()
            except OSError:  # not empty, or already gone
                break
        raise


def load_manifest(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc


def dataset_from_manifest(spec: dict) -> Dataset:
    """Load (and split) the dataset a manifest describes."""
    if not spec:
        raise ManifestError("manifest is missing the dataset section")
    sp = spec.get("split", {})
    if type(sp) is not dict:
        raise ManifestError(f"dataset.split must be a mapping, got {sp!r}")
    _integer(sp.get("seed", 0), "dataset.split.seed", 0)
    files = sp.get("files")
    if "files" in sp and not (type(files) is list and len(files) == 3 and all(type(f) is str for f in files)):
        raise ManifestError(f"dataset.split.files must be a list of three paths, got {files!r}")
    fractions = sp.get("fractions")
    if "fractions" in sp and not (
        type(fractions) is list
        and len(fractions) in (2, 3)
        and all(type(f) in (int, float) and 0 <= f <= 1 for f in fractions)
        and sum(fractions) <= 1.0 + 1e-12
    ):
        raise ManifestError(
            "dataset.split.fractions must be a list of two or three numbers >= 0 "
            f"that sum to at most 1, got {fractions!r}"
        )
    fmt = spec.get("format")
    if fmt == "npz":
        if "path" not in spec:
            raise ManifestError("dataset.path is required for npz datasets")
        return load_dataset(spec["path"])
    if fmt == "csv":
        if "path" not in spec:
            raise ManifestError("dataset.path is required for csv datasets")
        schema = _config(
            CsvSchema,
            {key: spec[key] for key in ("label_column", "delimiter", "header") if key in spec},
            "dataset",
        )
        ds = load_csv(spec["path"], schema)
        return _apply_split(ds, spec)
    if fmt == "idx":
        test = ("test_images", "test_labels") if {"test_images", "test_labels"} & spec.keys() else ()
        for key in ("images", "labels", *test):
            if key not in spec:
                raise ManifestError(f"dataset.{key} is required for idx datasets")
        val_fraction = spec.get("val_fraction", 1 / 6)
        if type(val_fraction) not in (int, float) or not 0 <= val_fraction < 1:
            raise ManifestError(f"dataset.val_fraction must be a number in [0, 1), got {val_fraction!r}")
        ds = load_idx(spec["images"], spec["labels"])
        if "test_images" in spec:
            test = load_idx(spec["test_images"], spec["test_labels"])
            ds = _merge_train_test(ds, test, spec)
            return ds
        return _apply_split(ds, spec)
    if fmt == "synthetic":
        return _synthetic_from_spec(spec)
    raise ManifestError(f"unknown dataset format: {fmt!r}")


def _apply_split(ds: Dataset, spec: dict) -> Dataset:
    sp = spec.get("split", {})
    if "files" in sp:
        return split_from_files(ds, *sp["files"])
    fractions = sp.get("fractions", (0.7, 0.15))
    return split(ds, fractions, make_rng(sp.get("seed", 0)))


def _merge_train_test(train: Dataset, test: Dataset, spec: dict) -> Dataset:
    val_fraction = spec.get("val_fraction", 1 / 6)
    rng = make_rng(spec.get("split", {}).get("seed", 0))
    carved = split(train, (1.0 - val_fraction, val_fraction), rng)
    unknown = sorted(set(test.label_map) - set(train.label_map))
    if unknown:
        raise DataError(f"test labels {unknown} do not occur in the training labels")
    # test.labels index the test file's own label map
    by_id = sorted(test.label_map, key=test.label_map.get)
    to_train = np.array([train.label_map[raw] for raw in by_id], dtype=np.int64)
    n_train = train.n_rows
    return Dataset(
        features=np.vstack([train.features, test.features]),
        labels=np.concatenate([train.labels, to_train[test.labels]]),
        splits={
            "train": carved.splits["train"],
            "val": carved.splits["val"],
            "test": np.arange(n_train, n_train + test.n_rows),
        },
        n_classes=train.n_classes,
        label_map=train.label_map,
        provenance={**train.provenance, "test_source": test.provenance.get("source")},
    )


def _synthetic_from_spec(spec: dict) -> Dataset:
    gen = spec.get("generator", "embedded_clusters")
    rng = make_rng(_integer(spec.get("data_seed", 0), "dataset.data_seed", 0))
    if gen == "embedded_clusters":
        ds = make_embedded_clusters(
            n_rows=_integer(spec.get("rows", 1000), "dataset.rows", 1),
            n_features=_integer(spec.get("features", 16), "dataset.features", 1),
            n_classes=_integer(spec.get("classes", 4), "dataset.classes", 2),
            latent_dim=_integer(spec.get("latent_dim", 4), "dataset.latent_dim", 1),
            rng=rng,
            separation=_number(spec.get("separation", 3.0), "dataset.separation"),
            cluster_std=_number(spec.get("cluster_std", 1.0), "dataset.cluster_std"),
            ambient_noise=_number(spec.get("ambient_noise", 0.1), "dataset.ambient_noise"),
        )
    elif gen == "blobs":
        centers = spec.get("centers", np.eye(3).tolist())
        if not (
            type(centers) is list
            and len(centers) >= 2
            and all(type(row) is list and 0 < len(row) == len(centers[0]) for row in centers)
            and all(type(v) in (int, float) and math.isfinite(v) for row in centers for v in row)
        ):
            raise ManifestError(
                f"dataset.centers must be at least two rows of finite numbers, all of one length, got {centers!r}"
            )
        ds = make_blobs(
            _integer(spec.get("rows_per_class", 200), "dataset.rows_per_class", 1),
            np.asarray(centers),
            _number(spec.get("std", 0.5), "dataset.std"),
            rng,
        )
    elif gen == "moons":
        rows = _integer(spec.get("rows", 600), "dataset.rows", 1)
        ds = make_moons(rows, _number(spec.get("noise", 0.1), "dataset.noise"), rng)
    else:
        raise ManifestError(f"unknown synthetic generator: {gen!r}")
    return _apply_split(ds, spec)


def _resolve_seeds(manifest: dict, args) -> list[int]:
    base = args.seed if args.seed is not None else manifest.get("seed", 0)
    count = args.seeds if args.seeds is not None else manifest.get("seeds", 5)
    return [_integer(base, "seed", 0) + i for i in range(_integer(count, "seeds", 1))]


def _integer(value, name: str, low: int) -> int:
    if type(value) is not int or value < low:
        raise ManifestError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ManifestError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _config(cls, spec: dict, section: str):
    """Build a config object from a manifest section; unknown keys and
    invalid values are usage errors."""
    try:
        return cls(**spec)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"manifest section {section!r}: {exc}") from exc


def _resolve_out(manifest: dict, args) -> Path:
    out = args.out or manifest.get("out")
    if not out:
        raise ManifestError("no output directory: pass --out or set 'out' in the manifest")
    return Path(out)


def _resolve_workers(args) -> int:
    value = args.workers if args.workers is not None else os.environ.get(WORKERS_ENV, "1")
    if not (str(value).isdecimal() and int(value) >= 1):
        raise ManifestError(f"--workers or {WORKERS_ENV} must be an integer >= 1, got {value!r}")
    return int(value)


def _delimiter(value: str) -> str:
    """An `infer --delimiter` value, checked as a CSV dataset's delimiter is."""
    try:
        return CsvSchema(delimiter=value).delimiter
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# --- commands ---------------------------------------------------------------

def cmd_prep(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.data:
        manifest.setdefault("dataset", {})
        manifest["dataset"].setdefault("format", "npz")
        manifest["dataset"]["path"] = args.data
    ds = dataset_from_manifest(manifest.get("dataset", {}))
    ds.validate()
    out = _resolve_out(manifest, args)
    summary = {
        "rows": ds.n_rows,
        "features": ds.n_features,
        "classes": ds.n_classes,
        "train": len(ds.splits["train"]),
        "val": len(ds.splits["val"]),
        "test": len(ds.splits["test"]),
    }
    with _staged(out) as stage:
        save_dataset(ds, stage / "dataset.npz")
        _dump_json(summary, stage / "dataset_summary.json")
    print(f"prepared dataset: {summary} -> {out / 'dataset.npz'}")
    return EXIT_OK


def _load_run_dataset(manifest: dict, args) -> Dataset:
    spec = dict(manifest.get("dataset", {}))
    if args.data:
        spec = {"format": "npz", "path": args.data}
    if not spec:
        raise ManifestError("no dataset: pass --data or set dataset in the manifest")
    ds = dataset_from_manifest(spec)
    ds.validate()
    return ds


def cmd_baseline(args) -> int:
    manifest = load_manifest(args.manifest)
    ds = normalize(_load_run_dataset(manifest, args))
    cfg = _config(BaselineSearchConfig, manifest.get("baseline", {}), "baseline")
    seeds = _resolve_seeds(manifest, args)
    res = find_baseline(ds, cfg, make_rng(seeds[0]))
    out = _resolve_out(manifest, args)
    with _staged(out) as stage:
        _dump_json(asdict(res), stage / "baseline.json")
    print(f"baseline: {res.layer_sizes} val_acc={res.val_acc:.4f} connections={res.connections}")
    return EXIT_OK


def _scheme_config(manifest: dict, args, ds: Dataset, seed: int) -> SchemeConfig:
    spec = dict(manifest.get("scheme", {}))
    if args.scheme:
        spec["scheme"] = args.scheme
    spec.setdefault("scheme", "C")
    spec["seed"] = seed
    if spec["scheme"] in ("B", "C") and "layer_sizes" not in spec:
        hidden = spec.pop("hidden", None) or max(16, ds.n_classes * 4)
        spec["layer_sizes"] = [ds.n_features, hidden, ds.n_classes]
    if spec["scheme"] in ("B", "C") and "final_connections" not in spec:
        sizes = spec["layer_sizes"]
        dense = sum(a * b for a, b in zip(sizes, sizes[1:]))
        spec["final_connections"] = max(ds.n_classes, dense // 10)
    spec.pop("hidden", None)
    cfg = _config(SchemeConfig, spec, "scheme")
    sizes = cfg.layer_sizes
    if cfg.scheme in ("B", "C") and sizes[:1] + sizes[-1:] != [ds.n_features, ds.n_classes]:
        raise ManifestError(
            f"manifest section 'scheme': layer_sizes {sizes!r} do not match the dataset "
            f"({ds.n_features} features, {ds.n_classes} classes)"
        )
    return cfg


def cmd_synth(args) -> int:
    manifest = load_manifest(args.manifest)
    ds_raw = _load_run_dataset(manifest, args)
    do_normalize = manifest.get("normalize", True)
    ds = normalize(ds_raw) if do_normalize else ds_raw
    seeds = _resolve_seeds(manifest, args)
    cfgs = [_scheme_config(manifest, args, ds, seed) for seed in seeds]
    out = _resolve_out(manifest, args)
    with _staged(out) as stage:
        per_seed = []
        baseline_declared = manifest.get("baseline_connections")
        sizes = cfgs[0].layer_sizes
        if baseline_declared is None and sizes:
            # a dense MLP's edges plus the biases of its non-input neurons
            baseline_declared = sum(a * b for a, b in zip(sizes, sizes[1:])) + sum(sizes[1:])
        for seed, cfg in zip(seeds, cfgs):
            seed_dir = stage / f"seed_{seed}"
            seed_dir.mkdir()
            writer = HistoryWriter(seed_dir / "history.csv")
            try:
                res = run_scheme(cfg, ds, history_writer=writer)
            finally:
                writer.close()
            summary = summarize_run(res)
            summary["energy_j"] = round_energy(summary["energy_j"])
            checkpoint = checkpoint_dict(res.best_net, seed=seed)
            _dump_json(checkpoint, seed_dir / "checkpoint.json")
            preprocess = []
            if do_normalize and ds.normalization:
                preprocess.append({"op": "normalize", **ds.normalization})
            bundle = make_bundle(
                checkpoint=checkpoint,
                label_map=ds.label_map,
                preprocess=preprocess,
                metrics={k: summary[k] for k in ("val_acc", "test_acc", "connections", "energy_j")},
                notes=res.notes,
            )
            save_bundle(bundle, seed_dir / "bundle.json")
            entry = {
                "seed": seed,
                **summary,
                "best_iteration": res.best_iteration,
                "diverged_iterations": res.diverged_iterations,
            }
            if res.notes:
                entry["notes"] = res.notes
            if baseline_declared:
                entry["compression_ratio"] = baseline_declared / max(1, entry["connections"])
            per_seed.append(entry)
        mean = {
            key: float(np.mean([e[key] for e in per_seed]))
            for key in ("val_acc", "test_acc", "connections")
        }
        if baseline_declared:
            mean["compression_ratio"] = float(
                np.mean([e["compression_ratio"] for e in per_seed])
            )
        metrics = {
            "command": "synth",
            "scheme": cfgs[0].scheme,
            "seeds": seeds,
            "per_seed": per_seed,
            "mean": mean,
            "baseline_connections": baseline_declared,
        }
        _dump_json(metrics, stage / "metrics.json")
        _dump_json(_effective_manifest(manifest, args, seeds, out), stage / "effective_manifest.json")
    print(f"synth done: mean val_acc={mean['val_acc']:.4f} connections={mean['connections']:.0f}")
    return EXIT_OK


def _effective_manifest(manifest: dict, args, seeds: list[int], out: Path) -> dict:
    eff = dict(manifest)
    eff["seed"] = seeds[0]
    eff["seeds"] = len(seeds)
    eff["out"] = str(out)
    for key in ("scheme", "reducer", "k"):
        v = getattr(args, key, None)
        if v is not None:
            eff.setdefault("overrides", {})[key] = v
    return eff


def cmd_sweep(args) -> int:
    manifest = load_manifest(args.manifest)
    ds = _load_run_dataset(manifest, args)
    seeds = _resolve_seeds(manifest, args)
    out = _resolve_out(manifest, args)
    workers = _resolve_workers(args)
    spec = dict(manifest.get("pipeline", {}))
    if args.reducer:
        spec["reducers"] = [args.reducer]
    if args.k is not None:
        if not 1 <= args.k < ds.n_features:
            raise ManifestError(f"--k must be an integer in [1, {ds.n_features}) for {ds.n_features} features, got {args.k}")
        spec["k_grid"] = [args.k]
    if args.scheme:
        spec["schemes"] = [args.scheme]
    cfg = _config(PipelineConfig, spec, "pipeline")
    res = run_pipeline(ds, cfg, seeds, workers=workers)
    with _staged(out) as stage:
        _dump_json(asdict(res.baseline), stage / "baseline.json")
        with open(stage / "candidates.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["reducer", "k", "layer_sizes", "val_acc", "edges", "connections"])
            for row in res.candidates.table:
                w.writerow(
                    [
                        row["kind"],
                        row["k"],
                        "x".join(str(s) for s in row["layer_sizes"]),
                        repr(row["val_acc"]),
                        row["edges"],
                        row["connections"],
                    ]
                )
        with open(stage / "sweep.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SWEEP_FIELDS)
            for row in res.sweep_rows:
                w.writerow([row[k] if k != "val_acc" and k != "test_acc" else repr(row[k]) for k in SWEEP_FIELDS])
        save_bundle(res.bundle, stage / "bundle.json")
        _dump_json(res.bundle["metrics"], stage / "metrics.json")
        _dump_json(_effective_manifest(manifest, args, seeds, out), stage / "effective_manifest.json")
    m = res.bundle["metrics"]
    print(
        f"sweep done: val_acc={m['val_acc']:.4f} connections={m['connections']} "
        f"compression={m['compression_ratio']:.1f}x"
    )
    return EXIT_OK


def cmd_infer(args) -> int:
    try:
        bundle, net = load_bundle(args.bundle)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot load bundle {args.bundle}: {exc}") from exc
    try:
        labels = predict_features_file(bundle, net, args.features, args.delimiter)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    out_path = Path(args.out) if args.out else Path(args.features).with_suffix(".predictions.txt")
    with _staged(out_path.parent) as stage, open(stage / out_path.name, "w") as f:
        f.writelines(f"{v}\n" for v in labels)
    print(f"{len(labels)} predictions -> {out_path}")
    return EXIT_OK


def _collect_runs(results_dir: Path) -> list[dict]:
    runs = []
    dirs = [p for p in results_dir.rglob("*") if p.is_dir()]
    # a hidden directory is no run: it may be the stage of a run still going
    candidates = [results_dir] + sorted(d for d in dirs if not any(s.startswith(".") for s in d.relative_to(results_dir).parts))
    for d in candidates:
        entry = {"run": str(d.relative_to(results_dir)) or "."}
        found = False
        bj = d / "baseline.json"
        if bj.exists():
            entry["baseline"] = json.loads(bj.read_text())
            found = True
        for name, key in (("candidates.csv", "reduced"), ("sweep.csv", "full")):
            if (d / name).exists():
                with open(d / name) as f:
                    entry[key] = [
                        {"val_acc": float(r["val_acc"]), "connections": int(r["connections"])}
                        for r in csv.DictReader(f)
                    ]
                found = True
        mj = d / "metrics.json"
        if mj.exists():
            m = json.loads(mj.read_text())
            if m.get("command") == "synth":
                entry["synthesized"] = [
                    {"val_acc": e["val_acc"], "connections": e["connections"]}
                    for e in m["per_seed"]
                ]
                found = True
        if found:
            runs.append(entry)
    return runs


def _family_cells(entries: list[dict], baseline_acc: float | None):
    if not entries:
        return ("-", "-", "-", "-")
    ha = max(entries, key=lambda e: (e["val_acc"], -e["connections"]))
    meeting = [e for e in entries if baseline_acc is None or e["val_acc"] >= baseline_acc]
    flag = ""
    if not meeting:
        meeting = entries
        flag = "*"
    mc = min(meeting, key=lambda e: (e["connections"], -e["val_acc"]))
    return (
        f"{ha['val_acc']:.4f}",
        str(ha["connections"]),
        f"{mc['val_acc']:.4f}{flag}",
        str(mc["connections"]),
    )


REPORT_FIELDS = [
    "run",
    "baseline_acc",
    "baseline_params",
    "reduced_ha_acc",
    "reduced_ha_params",
    "reduced_mc_acc",
    "reduced_mc_params",
    "synth_ha_acc",
    "synth_ha_params",
    "synth_mc_acc",
    "synth_mc_params",
    "full_ha_acc",
    "full_ha_params",
    "full_mc_acc",
    "full_mc_params",
]


def cmd_report(args) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise DataError(f"results directory not found: {results_dir}")
    runs = _collect_runs(results_dir)
    if not runs:
        raise DataError(f"no completed runs under {results_dir}")
    rows = []
    for run in runs:
        base = run.get("baseline")
        base_acc = base["val_acc"] if base else None
        row = {
            "run": run["run"],
            "baseline_acc": f"{base_acc:.4f}" if base_acc is not None else "-",
            "baseline_params": str(base["connections"]) if base else "-",
        }
        for family, key in (("reduced", "reduced"), ("synth", "synthesized"), ("full", "full")):
            ha_acc, ha_p, mc_acc, mc_p = _family_cells(run.get(key, []), base_acc)
            row[f"{family}_ha_acc"] = ha_acc
            row[f"{family}_ha_params"] = ha_p
            row[f"{family}_mc_acc"] = mc_acc
            row[f"{family}_mc_params"] = mc_p
        rows.append(row)
    widths = {k: max(len(k), *(len(r[k]) for r in rows)) for k in REPORT_FIELDS}
    lines = ["  ".join(k.ljust(widths[k]) for k in REPORT_FIELDS)]
    for r in rows:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in REPORT_FIELDS))
    text = "\n".join(lines) + "\n(* = no entry met the baseline accuracy; best available shown)\n"
    with _staged(Path(args.out) if args.out else results_dir) as stage:
        with open(stage / "report.csv", "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=REPORT_FIELDS)
            w.writeheader()
            w.writerows(rows)
        (stage / "report.txt").write_text(text)
    print(text)
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="growprune",
        description="Synthesize compact feed-forward networks by growth and pruning.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, data=True):
        sp.add_argument("--manifest", help="JSON run manifest")
        if data:
            sp.add_argument("--data", help="prepared dataset (.npz), overrides manifest")
        sp.add_argument("--seed", type=int, default=None, help="base seed")
        sp.add_argument("--seeds", type=int, default=None, help="number of seeds")
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("prep", help="load, split, and save a dataset")
    common(sp)
    sp.set_defaults(func=cmd_prep)

    sp = sub.add_parser("baseline", help="search for the baseline MLP architecture")
    common(sp)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("synth", help="run one synthesis scheme")
    common(sp)
    sp.add_argument("--scheme", choices=["A", "B", "C"], default=None)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("sweep", help="full reduce + synthesize pipeline")
    common(sp)
    sp.add_argument("--scheme", choices=["A", "B", "C"], default=None)
    sp.add_argument("--reducer", default=None, help="restrict to one reducer kind")
    sp.add_argument("--k", type=int, default=None, help="restrict to one target dimension")
    sp.add_argument("--workers", type=int, default=None, help=f"worker processes (env {WORKERS_ENV})")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("infer", help="predict labels with a saved bundle")
    sp.add_argument("--bundle", required=True, help="bundle.json from synth/sweep")
    sp.add_argument("--features", required=True, help="numeric CSV of feature rows")
    sp.add_argument("--delimiter", default=",", type=_delimiter)
    sp.add_argument("--out", default=None, help="predictions output file")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("report", help="emit comparison tables from run artifacts")
    sp.add_argument("--results", required=True, help="directory containing completed runs")
    sp.add_argument("--out", default=None, help="directory for report files")
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # run failure
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
