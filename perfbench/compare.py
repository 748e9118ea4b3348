"""Compare two result files metric by metric, using the bounds of BENCHMARK.json.

For each workload in both files and each end-to-end metric, print both sides'
median and quartiles over the samples the runs recorded, and a verdict:

- unresolved: either side's spread (quartile distance over median) exceeds
  the bound, and not every NEW sample beats every OLD sample;
- better: NEW's median beats OLD's by more than OLD's quartile distance;
- worse: NEW's median is worse than OLD's by more than the bound;
- within bound: anything else.
"""

from __future__ import annotations

import statistics


def _stats(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        v = float(samples[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return med, q1, q3


def verdict(old: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    o_med, o_q1, o_q3 = _stats(old)
    n_med, n_q1, n_q3 = _stats(new)
    wide = any(med and (q3 - q1) / abs(med) > bound for med, q1, q3 in ((o_med, o_q1, o_q3), (n_med, n_q1, n_q3)))
    if wide:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "better"
        return "unresolved"
    gain = sign * (n_med - o_med)
    if gain > 0 and gain > o_q3 - o_q1:
        return "better"
    if o_med and -gain / abs(o_med) > bound:
        return "worse"
    return "within bound"


def compare(old: dict, new: dict, bench: dict) -> int:
    """Print the comparison table; returns 1 if any metric got worse."""
    rows, worse = [], False
    for workload in [w for w in old["workloads"] if w in new["workloads"]]:
        a, b = old["workloads"][workload], new["workloads"][workload]
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in a.get("samples", {}) or name not in b.get("samples", {}):
                rows.append((workload, name, m["unit"], "-", "-", "missing"))
                continue
            sa, sb = a["samples"][name], b["samples"][name]
            v = verdict(sa, sb, m["bound"], m["better"] == "higher")
            worse |= v == "worse"
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            rows.append((workload, name, m["unit"], fmt.format(*_stats(sa)), fmt.format(*_stats(sb)), v))
    header = ("workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return 1 if worse else 0
