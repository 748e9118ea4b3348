"""End-to-end compression pipeline: baseline MLP search, dataset reduction
with per-layer shrinking, candidate selection, and synthesis runs seeded from
the selected candidates.

The pipeline normalizes features to [0, 1], fits each reducer on the training
split, renormalizes the reduced features (flagged in reports), trains one
shrunk MLP per (reducer, k) grid cell, keeps the strongest and the most
compressed candidates, and then sweeps candidate x scheme x seed synthesis
cells, returning the validation-best bundle.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool

import numpy as np

from .data import Dataset, _digit_tasks, _in_order, _read_features, _row_blocks, _text_rows, _usable_cpus, finite_numbers
from .dimreduce import REDUCER_KINDS, Reducer, _project, _rescale, fit_reducer, normalize, reduce_dataset, shrink_architecture
from .energy import count_reducer_ops, estimate_energy, round_energy
from .network import (
    Network,
    accuracy,
    checkpoint_dict,
    connection_count,
    from_mlp,
    network_from_dict,
    _predict,
    _StepPlan,
)
from .numerics import make_rng, one_blas_thread
from .schemes import OptimizerConfig, SchemeConfig, run_scheme, summarize_run, train_weights, TrainingDiverged, _check_count

log = logging.getLogger(__name__)

RENORMALIZE_NOTE = "reduced features renormalized to [0, 1] before training"

SWEEP_FIELDS = [
    "reducer",
    "k",
    "scheme",
    "seed",
    "val_acc",
    "test_acc",
    "connections",
    "depth",
    "energy",
]


@dataclass
class BaselineSearchConfig:
    width: int | None = None  # None: geometric-mean rule, minimum 16
    max_depth: int = 4
    epsilon: float = 0.002
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=20
        )
    )

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if isinstance(self.optimizer, dict):
            self.optimizer = OptimizerConfig(**self.optimizer)


@dataclass
class BaselineResult:
    layer_sizes: list[int]
    val_acc: float
    edges: int
    connections: int


def hidden_width(n_in: int, n_out: int) -> int:
    return max(16, int(round(math.sqrt(n_in * n_out))))


def should_stop(accs: list[float], epsilon: float) -> bool:
    """Depth search stops once the newest trial fails to improve by > epsilon."""
    if len(accs) < 2:
        return False
    return accs[-1] - max(accs[:-1]) <= epsilon


def _train_mlp(layer_sizes, data, opt, rng) -> Network:
    net = from_mlp(layer_sizes, rng)
    try:
        train_weights(net, data, opt, rng)
    except TrainingDiverged:
        log.warning("baseline trial %s diverged; keeping restored weights", layer_sizes)
    return net


def find_baseline(data: Dataset, cfg: BaselineSearchConfig, rng: np.random.Generator) -> BaselineResult:
    """Train MLPs of increasing depth until validation accuracy plateaus."""
    d, c = data.n_features, data.n_classes
    w = cfg.width if cfg.width is not None else hidden_width(d, c)
    x_val, y_val = data.val_xy()
    accs: list[float] = []
    trials: list[tuple[float, int, list[int], Network]] = []
    for depth_try in range(1, cfg.max_depth + 1):
        sizes = [d] + [w] * depth_try + [c]
        net = _train_mlp(sizes, data, cfg.optimizer, rng)
        acc = accuracy(net, x_val, y_val)
        accs.append(acc)
        trials.append((acc, depth_try, sizes, net))
        if should_stop(accs, cfg.epsilon):
            break
    best = max(trials, key=lambda t: (t[0], -t[1]))
    net = best[3]
    return BaselineResult(
        layer_sizes=best[2],
        val_acc=best[0],
        edges=int(net.mask.sum()),
        connections=connection_count(net),
    )


def default_k_grid(d: int) -> list[int]:
    grid = []
    for div in (2, 4, 8, 16):
        k = max(4, int(round(d / div)))
        if 1 <= k < d and k not in grid:
            grid.append(k)
    return grid


@dataclass
class Candidate:
    layer_sizes: list[int]
    reducer: Reducer
    val_acc: float
    edges: int
    connections: int
    qualifies: bool
    flagged: bool = False


@dataclass
class CandidateSet:
    entries: list[Candidate]
    table: list[dict]
    baseline_acc: float
    notes: list[str] = field(default_factory=list)


def select_candidates(table: list[dict], baseline_acc: float) -> tuple[list[dict], list[str]]:
    """Pick up to three highest-accuracy rows plus up to three most-compressed
    rows meeting the baseline accuracy, merging duplicates.

    When nothing meets the baseline, the compressed slots take the nearest
    misses and those rows are flagged. Ties break on content keys only, so
    the selection cannot depend on table row order.
    """
    def ident(r):
        return (r["kind"], r["k"])

    by_acc = sorted(table, key=lambda r: (-r["val_acc"], r["connections"], r["kind"], r["k"]))
    chosen = [ident(r) for r in by_acc[:3]]
    qualifying = [r for r in table if r["val_acc"] >= baseline_acc]
    flagged: list = []
    if qualifying:
        by_comp = sorted(
            qualifying, key=lambda r: (r["connections"], -r["val_acc"], r["kind"], r["k"])
        )
        compressed = [ident(r) for r in by_comp[:3]]
    else:
        by_miss = sorted(
            table,
            key=lambda r: (baseline_acc - r["val_acc"], r["connections"], r["kind"], r["k"]),
        )
        compressed = [ident(r) for r in by_miss[:3]]
        flagged = list(compressed)
    out = []
    for x in chosen + compressed:
        if x not in out:
            out.append(x)
    rows = {ident(r): r for r in table}
    return [rows[x] for x in out], flagged


def compress_per_layer(
    data_norm: Dataset,
    baseline: BaselineResult,
    reducer_kinds: list[str],
    k_grid: list[int] | None,
    opt: OptimizerConfig,
    rng: np.random.Generator,
) -> CandidateSet:
    """Shrink the baseline MLP by each (reducer, k) compression ratio, train
    the shrunk model on the reduced dataset, and select candidates."""
    d = data_norm.n_features
    grid = k_grid if k_grid is not None else default_k_grid(d)
    x_train, _ = data_norm.train_xy()
    x_val, y_val = data_norm.val_xy()
    table = []
    fitted = {}
    for kind in reducer_kinds:
        for k in grid:
            if not (1 <= k < d):
                continue
            red = fit_reducer(kind, x_train, k, rng)
            reduced = normalize(reduce_dataset(red, data_norm))
            sizes = shrink_architecture(baseline.layer_sizes, d / k)
            sizes[0] = k
            net = _train_mlp(sizes, reduced, opt, rng)
            xv, yv = reduced.val_xy()
            acc = accuracy(net, xv, yv)
            row = {
                "kind": kind,
                "k": k,
                "layer_sizes": sizes,
                "val_acc": acc,
                "edges": int(net.mask.sum()),
                "connections": connection_count(net),
            }
            table.append(row)
            fitted[(kind, k)] = red
    selected, flagged_ids = select_candidates(table, baseline.val_acc)
    notes = [RENORMALIZE_NOTE]
    if flagged_ids:
        notes.append(
            "no reduced candidate met the baseline accuracy; nearest misses kept and flagged"
        )
    entries = [
        Candidate(
            layer_sizes=list(r["layer_sizes"]),
            reducer=fitted[(r["kind"], r["k"])],
            val_acc=r["val_acc"],
            edges=r["edges"],
            connections=r["connections"],
            qualifies=r["val_acc"] >= baseline.val_acc,
            flagged=(r["kind"], r["k"]) in flagged_ids,
        )
        for r in selected
    ]
    return CandidateSet(entries=entries, table=table, baseline_acc=baseline.val_acc, notes=notes)


@dataclass
class PipelineConfig:
    reducers: list[str] = field(
        default_factory=lambda: ["rp_gauss_scaled", "rp_sign", "rp_achlioptas_sparse", "pca"]
    )
    k_grid: list[int] | None = None
    baseline: BaselineSearchConfig = field(default_factory=BaselineSearchConfig)
    candidate_optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=20
        )
    )
    scheme_optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            kind="adam", learning_rate=0.01, weight_decay=1e-3, epochs_per_iteration=10
        )
    )
    schemes: list[str] = field(default_factory=lambda: ["A", "B", "C"])
    final_fraction: float = 0.25
    scheme_iterations: int = 5

    def __post_init__(self):
        if isinstance(self.baseline, dict):
            self.baseline = BaselineSearchConfig(**self.baseline)
        for name in ("candidate_optimizer", "scheme_optimizer"):
            if isinstance(getattr(self, name), dict):
                setattr(self, name, OptimizerConfig(**getattr(self, name)))
        bad = [s for s in self.schemes if s not in ("A", "B", "C")]
        if bad:
            raise ValueError(f"unknown schemes: {bad}")
        bad = [r for r in self.reducers if r not in REDUCER_KINDS]
        if bad:
            raise ValueError(f"unknown reducers: {bad}")
        _check_count("scheme_iterations", self.scheme_iterations, 1)
        f = self.final_fraction
        if isinstance(f, bool) or not (math.isfinite(f) and 0.0 < f <= 1.0):
            raise ValueError(f"final_fraction must be in (0, 1], got {f!r}")


def scheme_config_for_candidate(
    cand: Candidate, scheme: str, pipe_cfg: PipelineConfig, seed: int
) -> SchemeConfig:
    """Budgets and layer counts derive from the candidate architecture."""
    hidden_total = sum(cand.layer_sizes[1:-1])
    n_out = cand.layer_sizes[-1]
    common = dict(
        scheme=scheme,
        seed=seed,
        max_iterations=pipe_cfg.scheme_iterations,
        max_neurons=max(1, hidden_total),
        max_connections=cand.edges,
        optimizer=pipe_cfg.scheme_optimizer,
    )
    if scheme == "A":
        return SchemeConfig(**common)
    final = max(n_out, int(round(pipe_cfg.final_fraction * cand.edges)))
    return SchemeConfig(
        layer_sizes=list(cand.layer_sizes),
        final_connections=final,
        init_skip_growth=False,
        **common,
    )


def cell_rng(base_seed: int, cell_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(cell_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _run_cell(args):
    """One cell's sweep row, checkpoint, unrounded network energy and notes."""
    cand, reduced, scheme, base_seed, cell_index, pipe_cfg = args
    cfg = scheme_config_for_candidate(cand, scheme, pipe_cfg, base_seed)
    res = run_scheme(cfg, reduced, rng=cell_rng(base_seed, cell_index))
    summary = summarize_run(res)
    row = {
        "reducer": cand.reducer.kind,
        "k": cand.reducer.k,
        "scheme": scheme,
        "seed": base_seed,
        **{k: summary[k] for k in ("val_acc", "test_acc", "connections", "depth")},
        "energy": round_energy(summary["energy_j"]),
    }
    return row, checkpoint_dict(res.best_net, seed=base_seed), summary["energy_j"], res.notes


def synthesize_from_candidates(
    data_norm: Dataset,
    candidates: CandidateSet,
    pipe_cfg: PipelineConfig,
    seeds: list[int],
    workers: int = 1,
) -> dict:
    """Run every candidate x scheme x seed synthesis cell and pick the best.

    Ties on validation accuracy break toward fewer connections, then toward
    the more structured scheme (C over B over A), then the earlier cell.
    Returns the sweep rows in cell order, the winning row with its
    checkpoint, unrounded network energy and notes, and the winner's
    candidate and reduced dataset.
    """
    if not candidates.entries:
        raise ValueError("candidate set is empty")
    cells = []
    for cand in candidates.entries:
        reduced = normalize(reduce_dataset(cand.reducer, data_norm))
        for scheme in pipe_cfg.schemes:
            for seed in seeds:
                cells.append((cand, reduced, scheme, seed, len(cells), pipe_cfg))
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_run_cell, cells)
    else:
        results = [_run_cell(c) for c in cells]
    rows = [r[0] for r in results]
    best = min(
        range(len(rows)),
        key=lambda i: (-rows[i]["val_acc"], rows[i]["connections"], "CBA".index(rows[i]["scheme"])),
    )
    _, checkpoint, energy_net, notes = results[best]
    cand, reduced = cells[best][:2]
    return {
        "rows": rows,
        "best_row": rows[best],
        "checkpoint": checkpoint,
        "energy_net": energy_net,
        "notes": notes,
        "candidate": cand,
        "reduced": reduced,
    }


@dataclass
class PipelineResult:
    baseline: BaselineResult
    candidates: CandidateSet
    sweep_rows: list[dict]
    bundle: dict


def run_pipeline(
    data: Dataset,
    cfg: PipelineConfig,
    seeds: list[int],
    workers: int = 1,
) -> PipelineResult:
    """Full composite: normalize, baseline search, per-layer compression with
    candidate selection, then candidate-seeded synthesis."""
    base_rng = make_rng(seeds[0])
    data_norm = normalize(data)
    baseline = find_baseline(data_norm, cfg.baseline, base_rng)
    candidates = compress_per_layer(
        data_norm, baseline, cfg.reducers, cfg.k_grid, cfg.candidate_optimizer, base_rng
    )
    sweep = synthesize_from_candidates(data_norm, candidates, cfg, seeds, workers)
    best, reducer = sweep["best_row"], sweep["candidate"].reducer
    energy_reducer = estimate_energy(count_reducer_ops(reducer.d, reducer.k))
    bundle = make_bundle(
        checkpoint=sweep["checkpoint"],
        label_map=data.label_map,
        preprocess=[
            {"op": "normalize", **data_norm.normalization},
            {"op": "reduce", "reducer": reducer.to_dict()},
            {"op": "normalize", **sweep["reduced"].normalization},
        ],
        metrics={
            "val_acc": best["val_acc"],
            "test_acc": best["test_acc"],
            "connections": best["connections"],
            "baseline_connections": baseline.connections,
            "baseline_val_acc": baseline.val_acc,
            "compression_ratio": baseline.connections / max(1, best["connections"]),
            "energy_net_j": round_energy(sweep["energy_net"]),
            "energy_with_reducer_j": round_energy(sweep["energy_net"] + energy_reducer),
        },
        notes=candidates.notes + sweep["notes"],
    )
    return PipelineResult(
        baseline=baseline, candidates=candidates, sweep_rows=sweep["rows"], bundle=bundle
    )


# --- bundles ----------------------------------------------------------------

def make_bundle(checkpoint: dict, label_map: dict, preprocess: list[dict], metrics: dict, notes=None) -> dict:
    return {
        "format": "growprune-bundle",
        "version": 1,
        "preprocess": preprocess,
        "checkpoint": checkpoint,
        "label_map": label_map,
        "metrics": metrics,
        "notes": notes or [],
    }


def save_bundle(bundle: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(bundle, f)


def _finite(params: dict, key: str) -> np.ndarray:
    if key not in params:
        raise ValueError(f"missing {key}")
    a = finite_numbers(params[key])
    if a is None:
        raise ValueError(f"{key} must hold only finite numbers")
    return a


def _step_widths(step) -> tuple[int, int]:
    """(input, output) width of one preprocess step; ValueError unless valid."""
    op = step.get("op") if isinstance(step, dict) else None
    if op == "normalize":
        lo, scale = _finite(step, "min"), _finite(step, "scale")
        if lo.ndim != 1 or lo.shape != scale.shape:
            raise ValueError("normalize needs min and scale lists of one length")
        return lo.size, lo.size
    if op == "reduce":
        r = step.get("reducer")
        if not isinstance(r, dict) or r.get("kind") not in REDUCER_KINDS:
            raise ValueError("reduce needs a reducer of a known kind")
        d, k = r.get("d"), r.get("k")
        if type(d) is not int or type(k) is not int:
            raise ValueError("reducer d and k must be integers")
        shapes = {"mean": (d,), "components": (d, k)} if r["kind"] == "pca" else {"matrix": (d, k)}
        for key, shape in shapes.items():
            if _finite(r, key).shape != shape:
                raise ValueError(f"reducer {key} must have shape {shape}")
        return d, k
    raise ValueError(f"unknown preprocess op: {op!r}")


def load_bundle(path) -> tuple[dict, Network]:
    """Read a bundle and build its network; raises ValueError unless the
    checkpoint is a valid network, the label map covers exactly its outputs
    and the preprocess steps chain from the raw features into its inputs."""
    with open(path) as f:
        bundle = json.load(f)
    if not isinstance(bundle, dict) or bundle.get("format") != "growprune-bundle":
        raise ValueError(f"not a model bundle: {path}")
    net = network_from_dict(bundle.get("checkpoint"))
    label_map = bundle.get("label_map")
    ids = list(label_map.values()) if isinstance(label_map, dict) else [None]
    if not all(type(v) is int for v in ids) or sorted(ids) != list(range(net.n_out)):
        raise ValueError(f"label_map must map onto 0..{net.n_out - 1}")
    steps = bundle.get("preprocess")
    if not isinstance(steps, list):
        raise ValueError("preprocess must be a list of steps")
    width = None
    for i, step in enumerate(steps):
        try:
            d, k = _step_widths(step)
        except ValueError as exc:
            raise ValueError(f"preprocess step {i}: {exc}") from exc
        if width not in (None, d):
            raise ValueError(f"preprocess step {i} takes {d} features, the step before gives {width}")
        width = k
    if width not in (None, net.n_in):
        raise ValueError(f"preprocess gives {width} features, the network takes {net.n_in}")
    return bundle, net


def _preprocess_steps(bundle: dict) -> list:
    """The bundle's preprocess steps as functions of a float64 row block."""
    steps = []
    for step in bundle.get("preprocess", []):
        if step["op"] == "normalize":
            lo, scale = (np.asarray(step[key], dtype=np.float64) for key in ("min", "scale"))
            steps.append(partial(_rescale, lo=lo, scale=scale))
        elif step["op"] == "reduce":
            steps.append(partial(_project, Reducer.from_dict(step["reducer"])))
        else:
            raise ValueError(f"unknown preprocess op: {step['op']}")
    return steps


def bundle_apply_preprocess(bundle: dict, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    for step in _preprocess_steps(bundle):
        x = step(x)
    return x


def _raw_labels(bundle: dict, dense: np.ndarray) -> list:
    inverse = {v: k for k, v in bundle["label_map"].items()}
    return [inverse[v] for v in dense.tolist()]


def _stream_labels(bundle: dict, net: Network, ncols: int, tasks: list) -> np.ndarray | None:
    """Dense labels of the row blocks that `tasks` return, joined in block
    order; None if a task returns None (the digit-row reader refused its
    block). A thread per usable CPU runs the tasks and the preprocess of their
    blocks, and predicts its own block while OpenBLAS is held at one thread;
    where it cannot be held, the calling thread predicts each block in turn
    with BLAS's own threads."""
    if not tasks:
        return np.empty(0, dtype=np.int64)
    stored = bundle["preprocess"]
    width = _step_widths(stored[0])[0] if stored else net.n_in
    if ncols != width:
        raise ValueError(f"feature width mismatch: the bundle takes {width} features, the rows hold {ncols}")
    steps, segs = _preprocess_steps(bundle), _StepPlan(net, []).segments()

    def work(task):
        """The task's block preprocessed, and predicted where BLAS is held."""
        x = task()
        if x is None:
            return None
        for step in steps:
            x = step(x)
        return _predict(net, x, segs) if held else x

    parts = []
    # held exactly when `_in_order` runs the tasks on threads of its own
    with one_blas_thread() if min(_usable_cpus(), len(tasks)) > 1 else nullcontext(False) as held:
        with closing(_in_order(work, tasks)) as done:
            for out in done:
                if out is None:
                    return None
                parts.append(out if held else _predict(net, out, segs))
    return np.concatenate(parts)


def bundle_predict(bundle: dict, raw_features: np.ndarray, net: Network) -> list:
    """Raw labels of the rows of a matrix of raw features through the
    bundle's preprocess and `net` (as `load_bundle` returns them): the stream
    of `predict_features_file` over row blocks of the matrix."""
    x = np.asarray(raw_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"raw features must form a 2-D matrix, got shape {x.shape}")
    return _raw_labels(bundle, _stream_labels(bundle, net, x.shape[1], _row_blocks(x)))


def predict_features_file(bundle: dict, net: Network, path, delimiter: str = ",") -> list:
    """Raw labels of the rows of a features file, one per non-blank line,
    through the bundle's preprocess and `net` (as `load_bundle` returns
    them), streamed over row blocks: the float matrix of digit text is never
    held whole. Text the digit-row reader refuses is read whole by the text
    readers, with their messages and row numbers, and goes to
    `bundle_predict`."""
    data = _read_features(path)
    digit = _digit_tasks(data, delimiter)
    dense = None if digit is None else _stream_labels(bundle, net, *digit)
    if dense is None:
        return bundle_predict(bundle, _text_rows(data, path, delimiter), net)
    return _raw_labels(bundle, dense)
