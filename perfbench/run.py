"""growprune benchmark: run workloads, check their outputs, report metrics.

Run from the repository root:

    python3 perfbench/run.py                        # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1              # every workload, per-layer metrics
    python3 perfbench/run.py --workload mnist_c --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

One workload runs in one process: its inputs are set up at least three times
and for at least a second (`setup_s` is their median), then its top-level call repeats until
`--seconds` have passed (`run_s` is the median call). Every call's outputs are
checked; a call that raises or fails a check counts in `failed` and makes the
command exit 1. With `--trace 1` calls alternate untraced and traced, and the
traced ones give the per-layer metrics (see tracing.py): a function's value
is its median over traced calls plus its median over traced set-ups, so
`data.*` shows up although it runs only in set-up. The metric names,
units and bounds are those of BENCHMARK.json at the repository root; what
each metric should move is in perfbench/spec.json.

A result file is written to perfbench/results/ (or --out); the last line of
standard output is a JSON summary of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from compare import compare
from tracing import CELL, PER_STEP, Tracer, function_totals, layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up repeats at least MIN_SETUPS times and until SETUP_SECONDS have gone,
# so that the median of a cheap set-up is not one noisy sample of a few ms.
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 20
MIN_CALLS = 3  # untraced calls per run, however long they take
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _import_program():
    """Import growprune from this checkout's sources, and only from there."""
    if not (SRC / "growprune" / "__init__.py").is_file():
        raise SystemExit(f"error: no growprune sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import growprune

    if Path(growprune.__file__).resolve().parent != (SRC / "growprune").resolve():
        raise SystemExit(f"error: growprune imported from {growprune.__file__}, not {SRC}")


# --- environment ------------------------------------------------------------------

def layered_step_ms(steps: int = 40) -> float:
    """Median time of a plain two-GEMM forward+backward on 784-500-10 at batch 128."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(128, 784))
    w1, w2 = rng.normal(0, 0.05, (784, 500)), rng.normal(0, 0.06, (500, 10))
    onehot = np.eye(10)[rng.integers(0, 10, 128)]
    times = []
    for i in range(steps + 5):
        t = time.perf_counter()
        pre = x @ w1
        h = np.maximum(pre, 0.0)
        logits = h @ w2
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        d = (p / p.sum(axis=1, keepdims=True) - onehot) / 128
        dw2 = h.T @ d
        dh = (d @ w2.T) * (pre > 0)
        dw1 = x.T @ dh
        if i >= 5:
            times.append(time.perf_counter() - t)
    del dw1, dw2
    return 1000.0 * _median(times)


def environment(seed: int) -> dict:
    import multiprocessing

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 2 prints its configuration instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# --- per-layer metrics from the trace -----------------------------------------------

def _rep_metrics(spans, counters, workers: int) -> dict:
    """Flat per-layer values of one traced repetition."""
    totals = function_totals(spans)
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.busy_s"] = t["busy_s"]
        out[f"{name}.self_s"] = t["self_s"]
    cells = totals.get(CELL, {}).get("durations", [])
    if cells:
        out["pipeline.cells"] = len(cells)
        out["pipeline.cell_s.p50"] = _median(cells)
        out["pipeline.cell_s.max"] = max(cells)
        sweep = totals["pipeline.synthesize_from_candidates"]["busy_s"]
        out["pipeline.dispatch_wait_s"] = sweep - sum(cells) / workers
    train = totals.get("schemes.train_weights")
    if train and train["busy_s"] > 0:
        out["schemes.train_weights.samples_per_s"] = counters.get("schemes.train_weights.samples", 0) / train["busy_s"]
    for key, name, scale in (
        ("network.state_bytes", "network.state_mb", 1e-6),
        ("pipeline.cell_args_bytes", "pipeline.cell_args_mb", 1e-6),
        ("cli.features_bytes", "cli.features_mb", 1e-6),
        ("archops.prune_connections.removed", "archops.prune_connections.removed", 1),
        ("archops.grow_connections.added", "archops.grow_connections.added", 1),
        ("schemes.diverged_iterations", "schemes.diverged_iterations", 1),
    ):
        if key in counters:
            out[name] = counters[key] * scale
    return out


def per_layer(call_reps: list, setup_reps: list, workers: int) -> tuple[dict, dict]:
    """Per-call values (median over traced calls plus median over set-ups) of
    every traced function, and per-layer self time."""
    calls = [_rep_metrics(s, c, workers) for s, c in call_reps]
    setups = [_rep_metrics(s, c, workers) for s, c in setup_reps]
    keys = sorted({k for r in calls + setups for k in r})
    values = {
        k: _median([r.get(k, 0) for r in calls]) + _median([r.get(k, 0) for r in setups]) for k in keys
    }
    pooled = function_totals([span for s, _ in call_reps for span in s])
    for name in PER_STEP:
        durs = sorted(pooled.get(name, {}).get("durations", []))
        if durs:
            values[f"{name}.ms_p50"] = 1000.0 * _median(durs)
            values[f"{name}.ms_p99"] = 1000.0 * durs[min(len(durs) - 1, int(0.99 * len(durs)))]
            values[f"{name}.samples"] = len(durs)
    layers: dict[str, float] = {}
    for part in (call_reps, setup_reps):
        tables = [layer_table(s) for s, _ in part]
        for layer in {k for t in tables for k in t}:
            layers[layer] = layers.get(layer, 0.0) + _median([t.get(layer, 0.0) for t in tables])
    return values, layers


# --- one workload -----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool, bench: dict) -> dict:
    """Set up, measure and check one workload; files it writes go to a
    directory under results/ that is removed afterwards."""
    workdir = HERE / "results" / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, toy, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, toy, bench, workdir) -> dict:
    from workloads import SIZES, WORKLOADS  # imports growprune

    setup, call, summarize, predict_rate = WORKLOADS[name]
    size = SIZES[name]["toy" if toy else "full"]
    tracer = Tracer(name) if trace else None
    setup_times, setup_reps = [], []
    call_reps, runs, failures = [], [], []
    attempted = failed = 0
    first = last = None
    try:
        k = 0
        while k < MIN_SETUPS or (sum(setup_times) < SETUP_SECONDS and k < MAX_SETUPS):
            if tracer:
                tracer.rep, tracer.spans, tracer.counters = f"setup{k}", [], {}
                tracer.install()
            start = time.perf_counter()
            try:
                state = setup(seed, size, str(workdir))
            finally:
                setup_times.append(time.perf_counter() - start)
                if tracer:
                    tracer.uninstall()
                    setup_reps.append((tracer.spans, tracer.counters))
            k += 1
        began = time.perf_counter()
        i = 0
        while True:
            traced = bool(tracer) and i % 2 == 1
            if traced:
                tracer.rep, tracer.spans, tracer.counters = i, [], {}
                tracer.install()
            attempted += 1
            out, problems = None, []
            start = time.perf_counter()
            try:
                out = call(state)
            except Exception as exc:  # a failed call is counted, not fatal
                failures.append(f"call {i} raised {type(exc).__name__}: {exc}")
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            if out is not None:
                try:
                    summary = summarize(state, out)
                    problems = list(summary["checks"])
                except Exception as exc:  # outputs too broken to check
                    problems = [f"checking the outputs raised {type(exc).__name__}: {exc}"]
                if not problems and first is None:
                    first = summary
                elif not problems and any(summary[key] != first[key] for key in ("signature", "test_acc", "connections")):
                    problems.append("outputs differ from the first call with the same seed")
                if problems:
                    failures.extend(f"call {i}: {p}" for p in problems)
                else:
                    last = (out, summary)
                    runs.append((traced, elapsed))
                    if traced:
                        call_reps.append((tracer.spans, tracer.counters))
            if out is None or problems:
                failed += 1
            i += 1
            untraced = sum(1 for t, _ in runs if not t)
            done = time.perf_counter() - began >= seconds
            if done and (failed or untraced >= (1 if tracer else MIN_CALLS) and (not tracer or call_reps)):
                break
    except Exception as exc:  # set-up failed: nothing to measure
        failures.append(f"set-up raised {type(exc).__name__}: {exc}")
        failed += 1
        attempted = max(attempted, 1)

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "toy" if toy else "full",
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "correct": failed == 0 and last is not None,
        "env": environment(seed),
    }
    result["env"]["reference.layered_step_ms"] = layered_step_ms()
    if last is None:
        return result
    out, summary = last
    plain = [t for traced, t in runs if not traced]
    samples = {
        "setup_s": setup_times,
        "run_s": plain,
        "rows_per_s": [state["rows"] / t for t in plain],
        "test_acc": [summary["test_acc"]],
        "connections": [summary["connections"]],
        "peak_rss_mb": [peak_rss_mb()],
    }
    result["samples"] = samples
    result["outputs"] = summary.get("outputs", {})
    result["predict_rows_per_s"] = predict_rate(state, out)
    result["metrics"] = {
        m["name"]: {"value": _median(samples[m["name"]]), "unit": m["unit"]} for m in bench["end_to_end"]
    }
    if tracer:
        values, layers = per_layer(call_reps, setup_reps, state.get("workers", 1))
        values["energy.count_ops.macs"] = summary["macs"]
        values["network.predict.rows_per_s"] = _median(result["predict_rows_per_s"])
        values["reference.layered_step_ms"] = result["env"]["reference.layered_step_ms"]
        traced_runs = [t for traced, t in runs if traced]
        values["trace.overhead_s"] = _median(traced_runs) - _median(plain)
        result["functions"] = values
        result["layers"] = layers
        result["per_layer"] = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in bench["per_layer"]
        }
    return result


def _print_result(r: dict) -> None:
    print(f"== {r['workload']} (seed {r['seed']}, trace {r['trace']}, {r['size']} size)")
    metrics = r.get("per_layer") if r["trace"] else r.get("metrics")
    for name, m in (metrics or {}).items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':44s} {r['error_rate']:.6g} fraction ({r['failed']}/{r['attempted']} calls)")
    for f in r["failures"]:
        print(f"  FAILED: {f}")


def _summary_line(r: dict) -> str:
    metrics = r["per_layer"] if r["trace"] else r["metrics"]
    return json.dumps(
        {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}
    )


def _write(results: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workloads": results}, fh, indent=1)


def run_all(args, spec: dict) -> int:
    """Run every workload, each in a process of its own, and merge the results."""
    merged, rc = {}, 0
    for name in spec["workloads"]:
        out = HERE / "results" / f"part-{name}-{os.getpid()}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        rc = rc or proc.returncode
        if out.exists():
            merged.update(_load_json(out)["workloads"])
            out.unlink()
        else:
            rc = rc or 1
    path = Path(args.out) if args.out else HERE / "results" / f"BENCH_all_seed{args.seed}_trace{args.trace}.json"
    _write(merged, path)
    attempted = sum(r["attempted"] for r in merged.values())
    failed = sum(r["failed"] for r in merged.values())
    print(f"result file: {path}")
    print(json.dumps({"correct": rc == 0 and failed == 0, "attempted": attempted, "failed": failed}))
    return rc or (1 if failed else 0)


def main(argv=None) -> int:
    spec = _load_json(HERE / "spec.json")
    bench = _load_json(ROOT / "BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=list(spec["workloads"]), help="default: every workload")
    p.add_argument("--seed", type=int, default=spec["default_seed"], help="workload seed")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"], help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--out", help="result file")
    p.add_argument("--toy", action="store_true", help="toy sizes (smoke test)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(_load_json(Path(args.compare[0])), _load_json(Path(args.compare[1])), bench)
    _import_program()
    if args.workload is None:
        return run_all(args, spec)
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, bench)
    path = Path(args.out) if args.out else (
        HERE / "results" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    )
    _write({args.workload: r}, path)
    _print_result(r)
    print(f"result file: {path}")
    if "metrics" in r:
        print(_summary_line(r))
    else:
        print("no call completed; no metrics", file=sys.stderr)
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
