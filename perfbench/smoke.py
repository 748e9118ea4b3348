"""Smoke test of the benchmark harness at toy sizes (well under a minute).

    python3 perfbench/smoke.py

Runs every workload at toy size untraced and traced, and checks that:
the summary line has exactly the keys the runner promises; every end-to-end
and per-layer metric of BENCHMARK.json appears with its unit; every traced
function's self time is non-negative and never exceeds its busy time;
spec.json describes exactly the metrics and workloads of BENCHMARK.json;
compare mode reads the result files; and the runner fails without printing a
result when the program's sources are missing. It is a plain script, not a
pytest module, so it stays out of the repository's test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def check_spec(bench: dict, spec: dict) -> list[str]:
    problems = []
    described = [
        f"{prefix}.{suffix}" if suffix else prefix
        for prefix, group in spec["per_layer"].items()
        for suffix in group["metrics"]
    ]
    if described != [m["name"] for m in bench["per_layer"]]:
        problems.append("spec.json per_layer does not expand to the per_layer names of BENCHMARK.json")
    if {m["name"] for m in bench["end_to_end"]} | {"error_rate"} != set(spec["end_to_end"]):
        problems.append("spec.json end_to_end names differ from BENCHMARK.json")
    if [w["name"] for w in bench["workloads"]] != list(spec["workloads"]):
        problems.append("spec.json workloads differ from BENCHMARK.json")
    return problems


def check_run(workload: str, trace: int, bench: dict, out: Path) -> list[str]:
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--toy", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    tag = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
        problems.append(f"{tag}: bad summary line keys or not correct")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    got = line["metrics"]
    for m in want:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{tag}: metric {m['name']} missing or without unit {m['unit']}")
        elif not isinstance(got[m["name"]]["value"], (int, float)):
            problems.append(f"{tag}: metric {m['name']} is not a number")
    if len(got) != len(want):
        problems.append(f"{tag}: {len(got)} metrics, expected {len(want)}")
    printed = {ln.split()[0]: ln.split() for ln in proc.stdout.splitlines() if ln.startswith("  ") and ln.split()}
    for m in want:
        if printed.get(m["name"], [None])[-1] != m["unit"]:
            problems.append(f"{tag}: {m['name']} not printed with its unit")
    result = json.loads(out.read_text())["workloads"][workload]
    if result["error_rate"] != 0:
        problems.append(f"{tag}: error_rate {result['error_rate']}")
    if trace:
        functions = result["functions"]
        for key, busy in functions.items():
            if key.endswith(".busy_s"):
                self_s = functions[key[: -len("busy_s")] + "self_s"]
                if self_s < 0 or self_s > busy + 1e-9:
                    problems.append(f"{tag}: {key[:-7]} self {self_s} outside [0, busy {busy}]")
    return problems


def check_missing_sources(work: Path) -> list[str]:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "mnist_c", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["without sources the runner exited 0 or printed a result"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    work = HERE / "results" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    problems = check_spec(bench, spec)
    try:
        for w in spec["workloads"]:
            for trace in (0, 1):
                problems += check_run(w, trace, bench, work / f"{w}-{trace}.json")
        merged = {"workloads": {}}
        for w in spec["workloads"]:
            merged["workloads"].update(json.loads((work / f"{w}-0.json").read_text())["workloads"])
        (work / "all.json").write_text(json.dumps(merged))
        proc = subprocess.run(RUN + ["--compare", str(work / "all.json"), str(work / "all.json")],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        rows = [ln for ln in proc.stdout.splitlines()[1:] if ln.strip()]
        if len(rows) != len(spec["workloads"]) * len(bench["end_to_end"]) or "worse" in proc.stdout:
            problems.append(f"compare mode printed {len(rows)} rows: {proc.stdout[-500:]}")
        problems += check_missing_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
