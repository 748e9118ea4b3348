"""Command-line driver: dataset prep, baseline search, single-scheme synthesis
runs, full reduction+synthesis sweeps, checkpoint inference, and report tables.

A run is described by a JSON manifest; command-line flags override manifest
fields and the effective merged manifest is persisted next to the outputs.
Artifacts only ever land under the run's output directory. Exit codes: 0 ok,
2 usage error, 3 data error, 4 run failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import CsvSchema, DataError, Dataset, load_csv, load_dataset, load_idx, make_blobs, make_embedded_clusters, make_moons, save_dataset, split, split_from_files
from .dimreduce import normalize
from .energy import count_ops, estimate_energy
from .network import accuracy, checkpoint_dict, connection_count, from_mlp
from .numerics import make_rng
from .pipeline import (
    BaselineSearchConfig,
    PipelineConfig,
    bundle_predict,
    find_baseline,
    load_bundle,
    make_bundle,
    run_pipeline,
    save_bundle,
    SWEEP_FIELDS,
)
from .schemes import HistoryWriter, SchemeConfig, run_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUN = 4

WORKERS_ENV = "GROWPRUNE_WORKERS"


class ManifestError(Exception):
    """Invalid or incomplete run manifest (a usage error)."""


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


class ArtifactTracker:
    """Collects written artifact paths and the directories it created;
    removes the files, then those directories left empty, if the run fails."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []
        self.dirs: list[Path] = []
        self._mkdir(out_dir)

    def _mkdir(self, d: Path) -> None:
        missing = [p for p in (d, *d.parents) if not p.exists()]
        d.mkdir(parents=True, exist_ok=True)
        self.dirs += reversed(missing)

    def path(self, *parts) -> Path:
        p = self.out_dir.joinpath(*parts)
        self._mkdir(p.parent)
        self.paths.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.paths:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        for d in reversed(self.dirs):  # deepest first
            try:
                d.rmdir()
            except OSError:  # not empty, or already gone
                pass


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
    fmt = spec.get("format")
    if fmt == "npz":
        if "path" not in spec:
            raise ManifestError("dataset.path is required for npz datasets")
        return load_dataset(spec["path"])
    if fmt == "csv":
        if "path" not in spec:
            raise ManifestError("dataset.path is required for csv datasets")
        schema = CsvSchema(
            label_column=spec.get("label_column", -1),
            delimiter=spec.get("delimiter", ","),
            header=spec.get("header", False),
        )
        ds = load_csv(spec["path"], schema)
        return _apply_split(ds, spec)
    if fmt == "idx":
        for key in ("images", "labels"):
            if key not in spec:
                raise ManifestError(f"dataset.{key} is required for idx datasets")
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
    n_train = train.n_rows
    features = np.vstack([train.features, test.features])
    labels = np.concatenate([train.labels, test.labels])
    return Dataset(
        features=features,
        labels=labels,
        splits={
            "train": carved.splits["train"],
            "val": carved.splits["val"],
            "test": np.arange(n_train, n_train + test.n_rows),
        },
        n_classes=max(train.n_classes, test.n_classes),
        label_map=train.label_map,
        provenance={**train.provenance, "test_source": test.provenance.get("source")},
    )


def _synthetic_from_spec(spec: dict) -> Dataset:
    gen = spec.get("generator", "embedded_clusters")
    rng = make_rng(spec.get("data_seed", 0))
    if gen == "embedded_clusters":
        ds = make_embedded_clusters(
            n_rows=spec.get("rows", 1000),
            n_features=spec.get("features", 16),
            n_classes=spec.get("classes", 4),
            latent_dim=spec.get("latent_dim", 4),
            rng=rng,
            separation=spec.get("separation", 3.0),
            cluster_std=spec.get("cluster_std", 1.0),
            ambient_noise=spec.get("ambient_noise", 0.1),
        )
    elif gen == "blobs":
        centers = np.asarray(spec.get("centers", np.eye(3).tolist()))
        ds = make_blobs(spec.get("rows_per_class", 200), centers, spec.get("std", 0.5), rng)
    elif gen == "moons":
        ds = make_moons(spec.get("rows", 600), spec.get("noise", 0.1), rng)
    else:
        raise ManifestError(f"unknown synthetic generator: {gen!r}")
    return _apply_split(ds, spec)


def _resolve_seeds(manifest: dict, args) -> list[int]:
    base = args.seed if args.seed is not None else manifest.get("seed", 0)
    count = args.seeds if args.seeds is not None else manifest.get("seeds", 5)
    if type(base) is not int or type(count) is not int or count < 1:
        raise ManifestError(f"seed must be an integer and seeds a count >= 1, got {base!r}, {count!r}")
    return [base + i for i in range(count)]


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
    if getattr(args, "workers", None):
        return args.workers
    return int(os.environ.get(WORKERS_ENV, "1"))


def _fmt_energy(e: float) -> float:
    return float(f"{e:.3g}")


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
    tracker = ArtifactTracker(out)
    path = tracker.path("dataset.npz")
    save_dataset(ds, path)
    summary = {
        "rows": ds.n_rows,
        "features": ds.n_features,
        "classes": ds.n_classes,
        "train": len(ds.splits["train"]),
        "val": len(ds.splits["val"]),
        "test": len(ds.splits["test"]),
    }
    _dump_json(summary, tracker.path("dataset_summary.json"))
    print(f"prepared dataset: {summary} -> {path}")
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
    tracker = ArtifactTracker(out)
    _dump_json(asdict(res), tracker.path("baseline.json"))
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
    if cfg.scheme in ("B", "C") and not (
        isinstance(sizes, list) and sizes[:1] + sizes[-1:] == [ds.n_features, ds.n_classes]
    ):
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
    tracker = ArtifactTracker(out)
    try:
        per_seed = []
        baseline_declared = manifest.get("baseline_connections")
        for seed, cfg in zip(seeds, cfgs):
            if baseline_declared is None and cfg.layer_sizes:
                dense = from_mlp(cfg.layer_sizes, make_rng(0))
                baseline_declared = connection_count(dense)
            writer = HistoryWriter(tracker.path(f"seed_{seed}", "history.csv"))
            try:
                res = run_scheme(cfg, ds, history_writer=writer)
            finally:
                writer.close()
            net = res.best_net
            energy = estimate_energy(count_ops(net))
            checkpoint = checkpoint_dict(net, seed=seed)
            connections = connection_count(net)
            _dump_json(checkpoint, tracker.path(f"seed_{seed}", "checkpoint.json"))
            preprocess = []
            if do_normalize and ds.normalization:
                preprocess.append({"op": "normalize", **ds.normalization})
            bundle = make_bundle(
                checkpoint=checkpoint,
                label_map=ds.label_map,
                preprocess=preprocess,
                metrics={
                    "val_acc": res.best_val_acc,
                    "test_acc": res.test_acc,
                    "connections": connections,
                    "energy_j": _fmt_energy(energy),
                },
                notes=res.notes,
            )
            save_bundle(bundle, tracker.path(f"seed_{seed}", "bundle.json"))
            entry = {
                "seed": seed,
                "val_acc": res.best_val_acc,
                "test_acc": res.test_acc,
                "connections": connections,
                "neurons": net.n_hidden,
                "depth": res.history[res.best_iteration - 1].depth if res.history else 0,
                "energy_j": _fmt_energy(energy),
                "best_iteration": res.best_iteration,
                "diverged_iterations": res.diverged_iterations,
            }
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
        _dump_json(metrics, tracker.path("metrics.json"))
        _dump_json(_effective_manifest(manifest, args, seeds, out), tracker.path("effective_manifest.json"))
        print(f"synth done: mean val_acc={mean['val_acc']:.4f} connections={mean['connections']:.0f}")
        return EXIT_OK
    except Exception:
        tracker.cleanup()
        raise


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
    if args.k:
        spec["k_grid"] = [args.k]
    if args.scheme:
        spec["schemes"] = [args.scheme]
    cfg = _config(PipelineConfig, spec, "pipeline")
    tracker = ArtifactTracker(out)
    try:
        res = run_pipeline(ds, cfg, seeds, workers=workers)
        _dump_json(asdict(res.baseline), tracker.path("baseline.json"))
        with open(tracker.path("candidates.csv"), "w", newline="") as f:
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
        with open(tracker.path("sweep.csv"), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SWEEP_FIELDS)
            for row in res.sweep_rows:
                w.writerow([row[k] if k != "val_acc" and k != "test_acc" else repr(row[k]) for k in SWEEP_FIELDS])
        save_bundle(res.bundle, tracker.path("bundle.json"))
        _dump_json(res.bundle["metrics"], tracker.path("metrics.json"))
        _dump_json(_effective_manifest(manifest, args, seeds, out), tracker.path("effective_manifest.json"))
        m = res.bundle["metrics"]
        print(
            f"sweep done: val_acc={m['val_acc']:.4f} connections={m['connections']} "
            f"compression={m['compression_ratio']:.1f}x"
        )
        return EXIT_OK
    except Exception:
        tracker.cleanup()
        raise


def _load_features_csv(path, delimiter=",") -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read features file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return np.zeros((0, 0))
    try:
        x = np.loadtxt(lines, delimiter=delimiter, ndmin=2, comments=None)
    except (ValueError, TypeError):
        # float() accepts a few spellings loadtxt does not (1_0, non-ASCII
        # digits, multi-character delimiters), and this names the bad row
        x = _parse_rows(lines, delimiter)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise DataError(f"features row {int(np.argmax(bad))}: non-finite value")
    return x


def _parse_rows(lines: list[str], delimiter: str) -> np.ndarray:
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append([float(c) for c in line.split(delimiter)])
        except ValueError as exc:
            raise DataError(f"features row {i}: {exc}") from exc
        if len(rows[i]) != len(rows[0]):
            raise DataError(f"features row {i}: {len(rows[i])} values, row 0 has {len(rows[0])}")
    return np.asarray(rows, dtype=np.float64)


def cmd_infer(args) -> int:
    try:
        bundle, net = load_bundle(args.bundle)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot load bundle {args.bundle}: {exc}") from exc
    x = _load_features_csv(args.features, args.delimiter)
    out_path = Path(args.out) if args.out else Path(args.features).with_suffix(".predictions.txt")
    if x.size == 0:
        out_path.write_text("")
        print(f"0 predictions -> {out_path}")
        return EXIT_OK
    try:
        labels = bundle_predict(bundle, x, net)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    out_path.write_text("\n".join(str(v) for v in labels) + "\n")
    print(f"{len(labels)} predictions -> {out_path}")
    return EXIT_OK


def _collect_runs(results_dir: Path) -> list[dict]:
    runs = []
    candidates = [results_dir] + sorted(p for p in results_dir.rglob("*") if p.is_dir())
    for d in candidates:
        entry = {"run": str(d.relative_to(results_dir)) or "."}
        found = False
        bj = d / "baseline.json"
        if bj.exists():
            entry["baseline"] = json.loads(bj.read_text())
            found = True
        cj = d / "candidates.csv"
        if cj.exists():
            with open(cj) as f:
                entry["reduced"] = [
                    {"val_acc": float(r["val_acc"]), "connections": int(r["connections"])}
                    for r in csv.DictReader(f)
                ]
            found = True
        sj = d / "sweep.csv"
        if sj.exists():
            with open(sj) as f:
                entry["full"] = [
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
    out_dir = Path(args.out) if args.out else results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=REPORT_FIELDS)
        w.writeheader()
        w.writerows(rows)
    widths = {k: max(len(k), *(len(r[k]) for r in rows)) for k in REPORT_FIELDS}
    lines = ["  ".join(k.ljust(widths[k]) for k in REPORT_FIELDS)]
    for r in rows:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in REPORT_FIELDS))
    text = "\n".join(lines) + "\n(* = no entry met the baseline accuracy; best available shown)\n"
    (out_dir / "report.txt").write_text(text)
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
    sp.add_argument("--delimiter", default=",")
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
