"""Synthesis driver: alternate architecture changes with weight training and
keep the checkpoint that does best on the validation split.

Three schemes share one loop. Scheme A is constructive (tiny seed, growth
dominates), Scheme B is destructive over a general DAG (aggressive prune to a
budget, train, grow back, repeat), and Scheme C is Scheme B restricted to an
MLP wiring so depth never changes. The per-iteration operation sequence is
declared in the config; shipped presets encode the three standard recipes.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import archops
from .archops import GrowthPolicy, NeuronGrowthPolicy, PrunePolicy
from .energy import count_ops, estimate_energy
from .network import (
    Network,
    UnreachableOutputError,
    _check_batch,
    _check_labels,
    _StepPlan,
    accuracy,
    connection_count,
    depth,
    from_mlp,
    live_blocks,
    loss_and_gradients,
)
from .numerics import make_rng

log = logging.getLogger(__name__)


class TrainingDiverged(Exception):
    """Loss became non-finite; weights were restored to the call entry state."""


def _check_count(name: str, value, low: int) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_number(name: str, value) -> None:
    """Raise ValueError unless value is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_fraction(name: str, value) -> None:
    """Raise ValueError unless value is a number (not a bool) in [0, 1] (NaN
    is not)."""
    _check_number(name, value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class OptimizerConfig:
    kind: str = "sgd_momentum"
    learning_rate: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs_per_iteration: int = 10

    def __post_init__(self):
        if self.kind not in ("sgd_momentum", "adam"):
            raise ValueError(f"unknown optimizer kind: {self.kind}")
        for name in ("learning_rate", "momentum", "weight_decay"):
            _check_number(name, getattr(self, name))
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        _check_count("batch_size", self.batch_size, 1)
        _check_count("epochs_per_iteration", self.epochs_per_iteration, 0)


def default_steps(scheme: str) -> list[dict]:
    """Per-iteration operation sequences for the three schemes."""
    if scheme == "A":
        return [
            {"op": "grow_neurons", "kind": "division_activation", "count": 1},
            {"op": "grow_connections", "kind": "random", "fraction_of_possible": 0.30},
            {"op": "train"},
            {"op": "prune_connections", "prune_fraction": 0.25},
            {"op": "train", "checkpoint": True},
        ]
    if scheme == "B":
        return [
            {"op": "prune_connections", "budget_key": "final_connections"},
            {"op": "train", "checkpoint": True},
            {"op": "grow_connections", "kind": "random", "target_fraction_of_possible": 0.9},
            {"op": "train"},
        ]
    if scheme == "C":
        return [
            {"op": "prune_connections", "budget_key": "final_connections"},
            {"op": "train", "checkpoint": True},
            {"op": "grow_connections", "kind": "full"},
            {"op": "train"},
        ]
    raise ValueError(f"unknown scheme: {scheme}")


# the keys that set how much a step grows or prunes; a step names at most one
AMOUNT_KEYS = {
    "grow_connections": {"fraction_of_possible", "target_fraction_of_possible", "fraction_of_inactive"},
    "prune_connections": {"threshold", "budget", "budget_key", "keep_fraction", "prune_fraction"},
}

# the keys each step op reads besides "op"
STEP_KEYS = {
    "train": {"checkpoint"},
    "grow_connections": {"kind", *AMOUNT_KEYS["grow_connections"]},
    "prune_connections": AMOUNT_KEYS["prune_connections"],
    "grow_neurons": {"kind", "count", "noise_std", "fresh_connection_fraction", "selection_stat"},
}


@dataclass
class SchemeConfig:
    """Everything one synthesis run needs besides the dataset."""

    scheme: str = "C"
    seed: int = 0
    max_iterations: int = 5
    max_neurons: int = 4096
    max_connections: int = 1_000_000
    final_connections: int | None = None
    layer_sizes: list[int] | None = None  # B/C initial MLP
    seed_hidden: int | None = None  # A seed width; default max(4, n_out)
    init_prune_fraction: float = 0.0  # A: random prune right after seeding
    init_skip_growth: bool = True  # B: activate all legal skips at start
    initial_train: bool | None = None  # default: True for B/C, False for A
    steps: list[dict] | None = None  # default: preset for the scheme
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    noise_std: float | None = None  # neuron division noise; None = relative

    def __post_init__(self):
        if self.scheme not in ("A", "B", "C"):
            raise ValueError(f"unknown scheme: {self.scheme}")
        _check_count("max_iterations", self.max_iterations, 1)
        _check_count("max_neurons", self.max_neurons, 0)
        _check_count("max_connections", self.max_connections, 0)
        if self.final_connections is not None:
            _check_count("final_connections", self.final_connections, 0)
        _check_fraction("init_prune_fraction", self.init_prune_fraction)
        NeuronGrowthPolicy("division_activation", noise_std=self.noise_std)
        if isinstance(self.optimizer, dict):
            self.optimizer = OptimizerConfig(**self.optimizer)
        if self.final_connections is not None and self.final_connections > self.max_connections:
            raise ValueError("final_connections must be <= max_connections")
        if self.layer_sizes is not None:
            if not (isinstance(self.layer_sizes, list) and len(self.layer_sizes) >= 2):
                raise ValueError(f"layer_sizes must list at least two layer widths, got {self.layer_sizes!r}")
            for size in self.layer_sizes:
                _check_count("each of layer_sizes", size, 1)
        if self.scheme in ("B", "C"):
            if self.layer_sizes is None:
                raise ValueError(f"scheme {self.scheme} needs layer_sizes")
            if self.final_connections is None:
                raise ValueError(f"scheme {self.scheme} needs final_connections")
        for i, step in enumerate(self.steps or []):
            self._check_step(i, step)

    def _check_step(self, i: int, step) -> None:
        """Raise ValueError unless `step` is a dict of a known op and kind,
        with only keys that op reads, at most one amount (a prune needs one)
        and values the step's policy accepts."""
        if not isinstance(step, dict):
            raise ValueError(f"step {i} must be a dict, got {step!r}")
        op = step.get("op")
        if op not in STEP_KEYS:
            raise ValueError(f"step {i}: unknown op {op!r}")
        unknown = sorted(set(step) - STEP_KEYS[op] - {"op"})
        if unknown:
            raise ValueError(f"step {i} ({op}): keys {unknown} are not read by this op")
        amounts = sorted(step.keys() & AMOUNT_KEYS.get(op, set()))
        if len(amounts) > 1:
            raise ValueError(f"step {i} ({op}): name only one of {amounts}")
        if op == "prune_connections" and not amounts:
            raise ValueError(f"step {i}: a prune step needs one of {sorted(STEP_KEYS[op])}")
        try:
            if op == "grow_connections":
                GrowthPolicy(step.get("kind", "full"), amount=1.0)
                if amounts:
                    GrowthPolicy("random", amount=step[amounts[0]])
            elif op == "grow_neurons":
                _check_count("count", step.get("count", 1), 0)
                _neuron_policy(step, self)
            elif op == "prune_connections":
                _prune_policy(step, self, active=0)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"step {i} ({op}): {exc}") from None

    def resolved_steps(self) -> list[dict]:
        return self.steps if self.steps is not None else default_steps(self.scheme)


@dataclass
class HistoryRow:
    iteration: int
    val_acc: float
    connections: int
    neurons: int
    depth: int


@dataclass
class SynthesisResult:
    best_net: Network
    best_val_acc: float
    best_iteration: int
    history: list[HistoryRow]
    test_acc: float
    seed: int
    diverged_iterations: int = 0
    notes: list[str] = field(default_factory=list)


def summarize_run(res: SynthesisResult) -> dict:
    """What `synth` and `sweep` report of a finished run's best network:
    val_acc, test_acc, connections, neurons, depth and energy_j, the
    estimated joules per inference before `round_energy`."""
    net = res.best_net
    return {
        "val_acc": res.best_val_acc,
        "test_acc": res.test_acc,
        "connections": connection_count(net),
        "neurons": net.n_hidden,
        "depth": _safe_depth(net),
        "energy_j": estimate_energy(count_ops(net)),
    }


HISTORY_FIELDS = ["iteration", "val_acc", "connections", "neurons", "depth"]


class HistoryWriter:
    """Append-only CSV log of per-iteration synthesis state."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(HISTORY_FIELDS)
        self._file.flush()

    def append(self, row: HistoryRow) -> None:
        self._writer.writerow(
            [row.iteration, repr(row.val_acc), row.connections, row.neurons, row.depth]
        )
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def _minibatches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for s in range(0, n, batch_size):
        yield order[s : s + batch_size]


# A live block the mask fills to less than this share trains as the vector of
# its active entries, whose dW is gathered into G, the flat gradient vector; a
# fuller block's dW buffer is its slice of G. On 784-500-10 (2-core host), one
# SGD update of all 397,000 entries took 3.8 ms as a block and 6.6 ms indexed;
# after a prune to 7,130 active entries in a 228,672-entry block it took 1.96
# ms as a block and 0.09 ms indexed. On a 784x500 block with random fill, the
# two cost the same near half full (3.4 ms as a block, 3.3 ms indexed).
SPARSE_FILL = 0.5

# The most entries of G in one range of the optimizer update, which runs
# every operation on a range before the next range, so that the range stays
# in cache between them. Parameters smaller than a range share one; a larger
# one is split by rows, and a row longer than a range is a range of its own.
# The SGD + decay update of a dense 784 x 500 block (2-core host, medians of
# interleaved runs) took 1.9 ms in whole-array passes, 1.45 ms in chunks of
# 16,384 entries and 1.3 ms in chunks of 32,768.
CHUNK = 32_768


class _Params:
    """The parameters of one training call and their flat gradient vector.

    `ws` lists the parameters in order: per live block (`network.live_blocks`)
    either the block's view of net.weights or, for a block the mask fills to
    less than SPARSE_FILL, the vector of its active entries; then net.bias.
    G (`g`) holds their gradients in the same order and layout: a block
    view's dW buffer is its slice of G, a vector's dW is gathered from its
    block's own dW buffer into its slice (`gather`), and dBias is the last
    slice. The step plan (`plan`) writes all of them. A vector's entries
    have flat offsets `take` in its block and `put` in net.weights, where
    `scatter` writes the vector back so that the next forward pass sees it.

    `ranges` cuts G into (lo, hi, pieces) ranges of at most CHUNK entries
    (a longer row stays whole), where each piece (i, w, a) is a run of whole
    rows of parameter i, the view w, starting at offset a of the range.
    """

    def __init__(self, net: Network):
        forms = []
        for blk in live_blocks(net):
            live = net.mask[blk]
            dense = np.count_nonzero(live) >= SPARSE_FILL * live.size
            forms.append((blk, live, None if dense else np.flatnonzero(live)))
        sizes = [live.size if take is None else take.size for _, live, take in forms] + [net.bias.size]
        ends = np.cumsum(sizes).tolist()
        starts = [0] + ends[:-1]
        self.g = np.zeros(ends[-1])
        self.ws, self.vectors, dw_blocks = [], [], []
        for (blk, live, take), a, z in zip(forms, starts, ends):
            if take is None:
                self.ws.append(net.weights[blk])
                dw_blocks.append((blk, self.g[a:z].reshape(live.shape), True))
                continue
            rows, cols = np.divmod(take, live.shape[1])
            put = (rows + blk[0].start) * net.n + (cols + blk[1].start)
            buf = np.zeros(live.shape)
            self.ws.append(net.weights.take(put))
            self.vectors.append((buf.reshape(-1), take, self.g[a:z], self.ws[-1], put))
            # the gather reads the active entries alone, so the buffer's
            # inactive entries need not be zeroed
            dw_blocks.append((blk, buf, False))
        self.ws.append(net.bias)
        self.plan = _StepPlan(net, dw_blocks, dbias=self.g[starts[-1] :])
        self.ranges = []
        for i, (w, a) in enumerate(zip(self.ws, starts)):
            width = w[0].size
            rows = max(1, CHUNK // width)
            for r in range(0, len(w), rows):
                piece, lo = w[r : r + rows], a + r * width
                if not self.ranges or lo + piece.size - self.ranges[-1][0] > CHUNK:
                    self.ranges.append([lo, lo, []])
                self.ranges[-1][1] = lo + piece.size
                self.ranges[-1][2].append((i, piece, lo - self.ranges[-1][0]))

    def gather(self) -> None:
        for buf, take, g, _, _ in self.vectors:
            # the offsets are in range by construction; mode="raise" gathers
            # through a temporary first (twice the time at 190,000 entries)
            np.take(buf, take, out=g, mode="clip")

    def scatter(self, weights: np.ndarray) -> None:
        for _, _, _, w, put in self.vectors:
            np.put(weights, put, w)


def train_weights(
    net: Network,
    data,
    opt: OptimizerConfig,
    rng: np.random.Generator,
    lr_scale: float = 1.0,
) -> Network:
    """Minibatch training for epochs_per_iteration epochs, gradients masked.

    `data` is anything whose train_xy() gives the training features and
    labels. The mask does not change while training, so it is read once per
    call: the parameters, their flat gradient vector G and one step plan
    that writes it (`_Params`), which every step passes to
    `loss_and_gradients` and which holds the step programs for this call
    only. The features and labels are validated once, before the first
    update, so a bad label or feature width raises ValueError with the
    entry weights untouched.

    The optimizer state (the velocity, or Adam's moments) and its scratch
    are flat vectors beside G, and each update pass runs once per range of
    G (`_Params.ranges`): every operation of the update on one range before
    the next, with only the decay fold and the final `w -= t` taken per
    parameter piece. A block trained as the vector of its active entries
    runs the same elementwise updates as one trained in place, so each
    entry sees the same operations in the same order either way. Weight
    decay applies to the blocks only, folded into the update as dW +
    weight_decay * W. A masked dW entry that the update reads is zero, so
    every weight off the mask stays exactly zero. Divergence is a
    non-finite cross-entropy loss (the decay term is not part of it) or a
    non-finite weight after the last step: the entry weights are then
    restored and TrainingDiverged raised.
    """
    x_train, y_train = data.train_xy()
    y_train = _check_labels(net, y_train)
    x_train = _check_batch(net, x_train)
    params = _Params(net)
    snaps = [w.copy() for w in params.ws]
    lr, decay, bias = opt.learning_rate * lr_scale, opt.weight_decay, len(params.ws) - 1
    g = params.g
    t = np.empty(max(hi - lo for lo, hi, _ in params.ranges))
    # the velocity, or Adam's moments, flat beside G; Adam's second scratch
    if opt.kind == "sgd_momentum":
        state, scratch = [np.zeros_like(g)], [t]
    else:
        state, scratch = [np.zeros_like(g), np.zeros_like(g)], [np.empty_like(t), t]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
    # per range: its views of G, the state and the scratch, the pieces that
    # fold in the decay (weight, G and scratch views) and every piece's
    # weight and scratch views
    passes = []
    for lo, hi, pieces in params.ranges:
        shaped = [
            (i, w, g[lo + a : lo + a + w.size].reshape(w.shape), t[a : a + w.size].reshape(w.shape))
            for i, w, a in pieces
        ]
        passes.append((
            g[lo:hi],
            *(v[lo:hi] for v in state),
            *(v[: hi - lo] for v in scratch),
            [(w, gp, tp) for i, w, gp, tp in shaped if decay and i != bias],
            [(w, tp) for _, w, _, tp in shaped],
        ))
    try:
        # divergence is detected on the loss value, so float overflow inside
        # a doomed step is expected rather than a warning-worthy event
        with np.errstate(over="ignore", invalid="ignore"):
            for _epoch in range(opt.epochs_per_iteration):
                for idx in _minibatches(len(y_train), opt.batch_size, rng):
                    # take gathers 64 rows of 8 in 0.6 µs, x_train[idx] in 1.8 µs
                    loss = loss_and_gradients(net, x_train.take(idx, axis=0), y_train[idx], _plan=params.plan)[0]
                    if not math.isfinite(loss):
                        raise TrainingDiverged(f"loss became {loss}")
                    params.gather()
                    if opt.kind == "sgd_momentum":
                        for gs, vel, ts, folds, subs in passes:
                            for w, gp, tp in folds:
                                gp += np.multiply(decay, w, tp)
                            vel *= opt.momentum
                            vel += gs
                            np.multiply(lr, vel, ts)
                            for w, tp in subs:
                                w -= tp
                    else:
                        step += 1
                        bc1 = 1 - beta1**step
                        bc2 = 1 - beta2**step
                        for gs, m, v, dn, ts, folds, subs in passes:
                            for w, gp, tp in folds:
                                gp += np.multiply(decay, w, tp)
                            m *= beta1
                            m += np.multiply(1 - beta1, gs, ts)
                            v *= beta2
                            np.multiply(1 - beta2, gs, ts)
                            v += np.multiply(ts, gs, ts)
                            # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in
                            # that order, through the scratch buffers
                            np.multiply(lr, np.divide(m, bc1, ts), ts)
                            np.add(np.sqrt(np.divide(v, bc2, dn), dn), eps, dn)
                            np.divide(ts, dn, ts)
                            for w, tp in subs:
                                w -= tp
                    params.scatter(net.weights)
        if not all(np.all(np.isfinite(w)) for w in params.ws):
            raise TrainingDiverged("non-finite weights after update")
    except TrainingDiverged:
        for w, snap in zip(params.ws, snaps):
            w[...] = snap
        params.scatter(net.weights)
        raise
    return net


def _initial_network(cfg: SchemeConfig, data, rng: np.random.Generator) -> Network:
    n_in, n_out = data.n_features, data.n_classes
    if cfg.scheme == "A":
        hidden = cfg.seed_hidden if cfg.seed_hidden is not None else max(4, n_out)
        net = from_mlp([n_in, hidden, n_out], rng)
        if cfg.init_prune_fraction > 0:
            active = np.flatnonzero(net.mask)
            k = int(round(cfg.init_prune_fraction * active.size))
            pick = active[rng.choice(active.size, size=k, replace=False)]
            np.put(net.mask, pick, False)
            np.put(net.weights, pick, 0.0)
        return net
    sizes = list(cfg.layer_sizes)
    if sizes[0] != n_in or sizes[-1] != n_out:
        raise ValueError(
            f"layer_sizes {sizes} do not match dataset ({n_in} features, {n_out} classes)"
        )
    net = from_mlp(sizes, rng)
    if cfg.scheme == "B" and cfg.init_skip_growth:
        archops.grow_connections(net, GrowthPolicy("full"), rng, max_new=None)
    return net


def _apply_growth_step(net, step, cfg, rng, batch):
    adjacent_only = cfg.scheme == "C"
    active = int(net.mask.sum())
    possible = archops.possible_pair_count(net, adjacent_only)
    inactive = int(archops.candidate_pair_mask(net, adjacent_only).sum())
    if inactive == 0:
        log.info("growth step: no candidates")
        return
    if "fraction_of_possible" in step:
        n_add = math.ceil(step["fraction_of_possible"] * possible)
    elif "target_fraction_of_possible" in step:
        n_add = max(0, int(round(step["target_fraction_of_possible"] * possible)) - active)
    elif "fraction_of_inactive" in step:
        n_add = math.ceil(step["fraction_of_inactive"] * inactive)
    else:
        n_add = inactive  # full
    n_add = min(n_add, inactive, max(0, cfg.max_connections - active))
    if n_add <= 0:
        log.info("growth step: budget exhausted")
        return
    kind = step.get("kind", "full")
    amount = None if kind == "full" else n_add / inactive
    if kind == "full" and n_add < inactive:
        kind, amount = "random", n_add / inactive
    policy = GrowthPolicy(
        kind,
        amount=amount,
        data_batch=batch if kind == "gradient" else None,
        adjacent_only=adjacent_only,
    )
    # policy.amount already encodes the exact count via ceil on `inactive`
    archops.grow_connections(net, policy, rng, max_new=n_add)


def _prune_policy(step, cfg, active: int) -> PrunePolicy:
    """The policy of a prune step on a network of `active` connections."""
    if "threshold" in step:
        return PrunePolicy(threshold=step["threshold"])
    if "budget" in step:
        budget = step["budget"]
    elif "budget_key" in step:
        budget = getattr(cfg, step["budget_key"], None)
    elif "keep_fraction" in step:
        _check_fraction("keep_fraction", step["keep_fraction"])
        budget = int(math.floor(step["keep_fraction"] * active + 0.5))
    else:  # SchemeConfig checks that a prune step has a target
        _check_fraction("prune_fraction", step["prune_fraction"])
        budget = int(math.floor((1.0 - step["prune_fraction"]) * active + 0.5))
    _check_count("budget", budget, 0)
    return PrunePolicy(budget=budget)


def _neuron_policy(step, cfg, batch=None) -> NeuronGrowthPolicy:
    return NeuronGrowthPolicy(
        step.get("kind", "division_activation"),
        noise_std=step.get("noise_std", cfg.noise_std),
        fresh_connection_fraction=step.get("fresh_connection_fraction", 0.5),
        data_batch=batch,
        selection_stat=step.get("selection_stat", "mean"),
    )


def _apply_neuron_step(net, step, cfg, rng, batch):
    for _ in range(step.get("count", 1)):
        if net.n_hidden >= cfg.max_neurons:
            log.info("neuron growth: at max_neurons, skipping")
            return
        policy = _neuron_policy(step, cfg, batch)
        budget_left = cfg.max_connections - int(net.mask.sum())
        try:
            archops.grow_neuron(net, policy, rng, max_new_connections=budget_left)
        except ValueError as exc:
            log.info("neuron growth skipped: %s", exc)
            return


def _sample_batch(x, y, opt, rng):
    k = min(opt.batch_size, len(y))
    idx = rng.choice(len(y), size=k, replace=False)
    return x[idx], y[idx]


def _safe_depth(net) -> int:
    try:
        return depth(net)
    except UnreachableOutputError:
        return 0


def run_scheme(
    cfg: SchemeConfig,
    data,
    rng: np.random.Generator | None = None,
    history_writer: HistoryWriter | None = None,
) -> SynthesisResult:
    """Algorithm driver: iterate the configured step sequence, evaluate at the
    checkpoint step of each iteration, return the validation-best network.

    The final iteration stops at its last checkpoint: the steps after it
    (B and C regrow and train there) would build a network that is neither
    returned nor recorded. A step list without a train step has no
    checkpoint and runs in full. So the final history row describes the
    final checkpoint, which the run can return, unless a step up to that
    checkpoint diverged: then, as in every iteration, the network is
    restored to the iteration's start and the row describes that.
    """
    rng = rng if rng is not None else make_rng(cfg.seed)
    net = _initial_network(cfg, data, rng)
    # the training split, gathered once for every training call and growth batch
    x_train, y_train = data.train_xy()
    train = SimpleNamespace(train_xy=lambda: (x_train, y_train))
    x_val, y_val = data.val_xy()
    x_test, y_test = data.test_xy()
    steps = cfg.resolved_steps()
    ckpt_positions = [i for i, s in enumerate(steps) if s.get("op") == "train" and s.get("checkpoint")]
    if not ckpt_positions:
        train_positions = [i for i, s in enumerate(steps) if s.get("op") == "train"]
        ckpt_positions = train_positions[-1:] if train_positions else []
    # the final iteration ends after this many steps
    final_steps = ckpt_positions[-1] + 1 if ckpt_positions else len(steps)
    initial_train = cfg.initial_train
    if initial_train is None:
        initial_train = cfg.scheme in ("B", "C")

    lr_scale = 1.0
    diverged = 0
    notes: list[str] = []
    history: list[HistoryRow] = []
    best = None  # (acc, connections, iteration, net clone)

    def consider(iteration: int) -> HistoryRow:
        acc = accuracy(net, x_val, y_val)
        row = HistoryRow(iteration, acc, connection_count(net), net.n_hidden, _safe_depth(net))
        if not row.depth:  # every active path has at least one edge
            notes.append(f"iteration {iteration}: no active path from any input to any output")
        return row

    if initial_train:
        # warm-up train of the initial architecture; not an iteration, so it
        # produces no history row and no checkpoint
        try:
            train_weights(net, train, cfg.optimizer, rng, lr_scale)
        except TrainingDiverged as exc:
            diverged += 1
            lr_scale *= 0.5
            notes.append(f"warmup diverged ({exc}); learning rate halved")

    for it in range(1, cfg.max_iterations + 1):
        snap = net.clone()
        it_diverged = False
        row = None
        for pos, step in enumerate(steps if it < cfg.max_iterations else steps[:final_steps]):
            op = step.get("op")
            if op == "train":
                try:
                    train_weights(net, train, cfg.optimizer, rng, lr_scale)
                except TrainingDiverged as exc:
                    diverged += 1
                    it_diverged = True
                    lr_scale *= 0.5
                    notes.append(f"iteration {it} diverged ({exc}); restored and halved lr")
                    break
                if pos in ckpt_positions:
                    row = consider(it)
                    if best is None or (row.val_acc, -row.connections, -it) > (
                        best[0],
                        -best[1],
                        -best[2],
                    ):
                        best = (row.val_acc, row.connections, it, net.clone())
            elif op == "grow_connections":
                batch = _sample_batch(x_train, y_train, cfg.optimizer, rng) if step.get("kind") == "gradient" else None
                _apply_growth_step(net, step, cfg, rng, batch)
            elif op == "prune_connections":
                archops.prune_connections(net, _prune_policy(step, cfg, int(net.mask.sum())))
            else:  # grow_neurons, the last op SchemeConfig accepts
                batch = _sample_batch(x_train, y_train, cfg.optimizer, rng)
                _apply_neuron_step(net, step, cfg, rng, batch)
        if it_diverged:
            net = snap
            row = consider(it)
        if row is None:
            row = consider(it)
        history.append(row)
        if history_writer:
            history_writer.append(row)

    if best is None:
        best = (history[-1].val_acc if history else 0.0, connection_count(net), cfg.max_iterations, net.clone())
    best_net = best[3]
    test_acc = accuracy(best_net, x_test, y_test) if len(y_test) else 0.0
    return SynthesisResult(
        best_net=best_net,
        best_val_acc=best[0],
        best_iteration=best[2],
        history=history,
        test_acc=test_acc,
        seed=cfg.seed,
        diverged_iterations=diverged,
        notes=notes,
    )


def mnist_scheme_a_config(seed: int = 0) -> SchemeConfig:
    """Reference constructive recipe for the 784-feature digit head: 400
    seed hidden neurons with 95% of connections randomly pruned at start,
    then each iteration activates 30% of all possible connections and prunes
    25% of the existing ones."""
    return SchemeConfig(
        scheme="A",
        seed=seed,
        max_iterations=10,
        max_neurons=400,
        max_connections=400_000,
        seed_hidden=400,
        init_prune_fraction=0.95,
        steps=[
            {"op": "grow_connections", "kind": "random", "fraction_of_possible": 0.30},
            {"op": "train"},
            {"op": "prune_connections", "prune_fraction": 0.25},
            {"op": "train", "checkpoint": True},
        ],
        optimizer=OptimizerConfig(
            kind="sgd_momentum", learning_rate=0.03, momentum=0.9, weight_decay=1e-4
        ),
    )


def mnist_scheme_b_config(seed: int = 0) -> SchemeConfig:
    """Reference destructive DAG recipe: 400 hidden neurons, prune down to
    16K connections, then randomly restore to 90% of all connections."""
    return SchemeConfig(
        scheme="B",
        seed=seed,
        max_iterations=10,
        max_neurons=400,
        max_connections=400_000,
        layer_sizes=[784, 400, 10],
        final_connections=16_000,
        steps=[
            {"op": "prune_connections", "budget_key": "final_connections"},
            {"op": "train", "checkpoint": True},
            {"op": "grow_connections", "kind": "random", "target_fraction_of_possible": 0.9},
            {"op": "train"},
        ],
        optimizer=OptimizerConfig(
            kind="sgd_momentum", learning_rate=0.03, momentum=0.9, weight_decay=1e-4
        ),
    )


def mnist_scheme_c_config(seed: int = 0) -> SchemeConfig:
    """Reference MLP recipe: the dense 784-500-10 head, pruned to 6K
    connections with all connections restored each iteration."""
    return SchemeConfig(
        scheme="C",
        seed=seed,
        max_iterations=10,
        max_neurons=500,
        max_connections=400_000,
        layer_sizes=[784, 500, 10],
        final_connections=6_000,
        optimizer=OptimizerConfig(
            kind="sgd_momentum", learning_rate=0.03, momentum=0.9, weight_decay=1e-4
        ),
    )

