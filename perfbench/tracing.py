"""Span tracing of growprune's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent span, workload,
repetition) around the call. Modules import each other's functions by name
(`from .network import forward`), so the wrapper replaces the name in every
growprune module that binds that function object, the defining module
included. `uninstall()` puts the originals back, so traced and untraced calls
can alternate in one process.

Pipeline cells run in `multiprocessing.Pool` workers. While tracing is
installed, `growprune.pipeline.Pool` is replaced by a pool whose workers
record their spans into their own tracer and ship them back with each cell's
result, where the parent merges them.

Spans and counters stay in memory; `function_totals` and `layer_table`
aggregate them at the end. Busy time sums span durations, so functions that
run in two pool workers at once can be busy for longer than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import pickle
import time

import numpy as np

# `numerics` is left out: nothing in the package calls its matrix helpers.
LAYERS = ("network", "archops", "schemes", "dimreduce", "pipeline", "energy", "data", "cli")

# The CLI layer is timed at its entry point only, so that `cli.main.self_s`
# holds the CSV parse and the predictions write of `infer`.
ONLY = {"cli": {"main"}}

# Functions timed once per training step; their span durations also give
# per-step percentiles.
PER_STEP = ("network.loss_and_gradients", "network.forward", "schemes.train_weights")

CELL = "pipeline.cell"

# Counters that keep their largest value; all others are summed.
PEAK_COUNTERS = ("network.state_bytes",)

_active: "Tracer | None" = None


def _edges(net) -> int:
    return int(np.count_nonzero(net.mask))


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.rep = None
        self.spans: list[tuple] = []  # (id, parent, name, start, end, workload, rep)
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next = 0
        self._pool = None

    # --- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._next += 1
        return (os.getpid() << 32) | self._next

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def merge(self, counters: dict[str, float]) -> None:
        for name, value in counters.items():
            (self.peak if name in PEAK_COUNTERS else self.add)(name, value)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self._stack[-1] if self._stack else None
            state = hook[0](self, args, kwargs) if hook else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, self.workload, self.rep))
            if hook:
                hook[1](self, state, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        global _active
        modules = [importlib.import_module(f"growprune.{m}") for m in LAYERS]
        everyone = modules + [importlib.import_module("growprune")]
        swap = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if layer in ONLY and attr not in ONLY[layer]:
                    continue
                swap[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in everyone:
            for attr, value in list(vars(mod).items()):
                if id(value) in swap and swap[id(value)][0] is value:
                    setattr(mod, attr, swap[id(value)][1])
        pipeline = importlib.import_module("growprune.pipeline")
        self._pool = pipeline.Pool
        pipeline.Pool = functools.partial(_TracedPool, self)
        _active = self

    def uninstall(self) -> None:
        global _active
        for mod in [importlib.import_module(f"growprune.{m}") for m in LAYERS] + [
            importlib.import_module("growprune")
        ]:
            for attr, value in list(vars(mod).items()):
                original = getattr(value, "__wrapped_original__", None)
                if original is not None:
                    setattr(mod, attr, original)
        importlib.import_module("growprune.pipeline").Pool = self._pool
        _active = None


# --- hooks: counts read from the arrays at layer boundaries --------------------

def _train_enter(tr, args, kwargs):
    net, data, opt = args[0], args[1], args[2]
    tr.peak("network.state_bytes", net.weights.nbytes + net.mask.nbytes)
    x_train = data.train_xy()[0] if hasattr(data, "train_xy") else data[0]
    tr.add("schemes.train_weights.samples", len(x_train) * opt.epochs_per_iteration)


def _edges_enter(tr, args, kwargs):
    return _edges(args[0])


def _prune_exit(tr, before, args, kwargs, result):
    tr.add("archops.prune_connections.removed", before - _edges(result))


def _grow_exit(tr, before, args, kwargs, result):
    tr.add("archops.grow_connections.added", _edges(result) - before)


def _run_scheme_exit(tr, state, args, kwargs, result):
    tr.add("schemes.diverged_iterations", result.diverged_iterations)


def _bundle_predict_enter(tr, args, kwargs):
    tr.add("cli.features_bytes", np.asarray(args[1]).nbytes)


def _nothing(*_):
    return None


_HOOKS = {
    "schemes.train_weights": (_train_enter, _nothing),
    "archops.prune_connections": (_edges_enter, _prune_exit),
    "archops.grow_connections": (_edges_enter, _grow_exit),
    "schemes.run_scheme": (_nothing, _run_scheme_exit),
    "pipeline.bundle_predict": (_bundle_predict_enter, _nothing),
}


# --- pool workers --------------------------------------------------------------

def _worker_init(workload: str, rep) -> None:
    global _active
    if _active is None:  # spawn / forkserver: the worker starts untraced
        Tracer(workload).install()
    _active.spans, _active.counters, _active._stack = [], {}, []
    _active.rep = rep


def _worker_call(task):
    fn, arg, parent = task
    tr = _active
    tr.spans, tr.counters = [], {}
    tr._stack = [parent]
    sid = tr._new_id()
    tr._stack.append(sid)
    start = time.perf_counter()
    result = fn(arg)
    end = time.perf_counter()
    tr._stack.pop()
    tr.spans.append((sid, parent, CELL, start, end, tr.workload, tr.rep))
    return result, tr.spans, tr.counters


class _TracedPool:
    """Stands in for `multiprocessing.Pool` inside `growprune.pipeline`."""

    def __init__(self, tracer: Tracer, processes=None):
        self.tracer = tracer
        self._pool = multiprocessing.Pool(
            processes, initializer=_worker_init, initargs=(tracer.workload, tracer.rep)
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.__exit__(*exc)
        self._pool.join()

    def map(self, fn, iterable):
        tr = self.tracer
        items = list(iterable)
        tr.add("pipeline.cell_args_bytes", sum(len(pickle.dumps(a)) for a in items))
        parent = tr._stack[-1] if tr._stack else None
        out = []
        for result, spans, counters in self._pool.map(_worker_call, [(fn, a, parent) for a in items]):
            tr.spans.extend(spans)
            tr.merge(counters)
            out.append(result)
        return out


# --- aggregation ---------------------------------------------------------------

def _union_length(intervals, lo, hi) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def function_totals(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds and durations.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children in parallel workers are merged, not summed.
    """
    children: dict[int, list] = {}
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end, *_ in spans:
        dur = end - start
        covered = _union_length(children.get(sid, ()), start, end)
        t = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        t["calls"] += 1
        t["busy_s"] += dur
        t["self_s"] += dur - covered
        t["durations"].append(dur)
    return out


def layer_table(spans) -> dict[str, float]:
    """Self seconds per layer (module), summed over its functions."""
    table: dict[str, float] = {}
    for name, t in function_totals(spans).items():
        layer = name.split(".")[0]
        table[layer] = table.get(layer, 0.0) + t["self_s"]
    return table
