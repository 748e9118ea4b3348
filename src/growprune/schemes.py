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
from dataclasses import dataclass, field

import numpy as np

from . import archops
from .archops import GrowthPolicy, NeuronGrowthPolicy, PrunePolicy
from .network import (
    Network,
    UnreachableOutputError,
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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs_per_iteration < 0:
            raise ValueError("bad batch_size / epochs_per_iteration")


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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if isinstance(self.optimizer, dict):
            self.optimizer = OptimizerConfig(**self.optimizer)
        if self.final_connections is not None and self.final_connections > self.max_connections:
            raise ValueError("final_connections must be <= max_connections")
        if self.scheme in ("B", "C"):
            if self.layer_sizes is None:
                raise ValueError(f"scheme {self.scheme} needs layer_sizes")
            if self.final_connections is None:
                raise ValueError(f"scheme {self.scheme} needs final_connections")

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


def train_weights(
    net: Network,
    data,
    opt: OptimizerConfig,
    rng: np.random.Generator,
    lr_scale: float = 1.0,
) -> Network:
    """Minibatch training for epochs_per_iteration epochs, gradients masked.

    Weight decay applies to active weights only, folded into the update as
    dW + weight_decay * W; biases decay-free. The optimizer state, its
    scratch buffers and every update cover only the live blocks
    (`network.live_blocks`), computed once per call, since the mask does
    not change while training; the weights outside them stay exactly zero.
    Divergence is a non-finite cross-entropy loss (the decay term is not
    part of it) or a non-finite weight after the last step: the entry
    weights are then restored and TrainingDiverged raised.
    """
    x_train, y_train = data.train_xy()
    blocks = live_blocks(net)
    ws = [net.weights[blk] for blk in blocks]  # views: updating them updates net.weights
    snap_w, snap_b = [w.copy() for w in ws], net.bias.copy()
    lr = opt.learning_rate * lr_scale
    dw_buf = np.zeros((net.n, net.n))
    dws = [dw_buf[blk] for blk in blocks]
    tmps = [np.empty_like(w) for w in ws]
    if opt.kind == "sgd_momentum":
        vel_w = [np.zeros_like(w) for w in ws]
        vel_b = np.zeros_like(net.bias)
    else:
        m_w = [np.zeros_like(w) for w in ws]
        v_w = [np.zeros_like(w) for w in ws]
        dens = [np.empty_like(w) for w in ws]
        m_b = np.zeros_like(net.bias)
        v_b = np.zeros_like(net.bias)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
    try:
        # divergence is detected on the loss value, so float overflow inside
        # a doomed step is expected rather than a warning-worthy event
        with np.errstate(over="ignore", invalid="ignore"):
            for _epoch in range(opt.epochs_per_iteration):
                for idx in _minibatches(len(y_train), opt.batch_size, rng):
                    loss, _, dbias, _ = loss_and_gradients(net, x_train[idx], y_train[idx], _dw_buf=dw_buf)
                    if not math.isfinite(loss):
                        raise TrainingDiverged(f"loss became {loss}")
                    if opt.weight_decay:
                        for w, dw, tmp in zip(ws, dws, tmps):
                            dw += np.multiply(opt.weight_decay, w, tmp)
                    if opt.kind == "sgd_momentum":
                        for w, dw, tmp, vel in zip(ws, dws, tmps, vel_w):
                            vel *= opt.momentum
                            vel += dw
                            w -= np.multiply(lr, vel, tmp)
                        vel_b *= opt.momentum
                        vel_b += dbias
                        net.bias -= lr * vel_b
                    else:
                        step += 1
                        bc1 = 1 - beta1**step
                        bc2 = 1 - beta2**step
                        for w, dw, tmp, m, v, den in zip(ws, dws, tmps, m_w, v_w, dens):
                            m *= beta1
                            m += np.multiply(1 - beta1, dw, tmp)
                            v *= beta2
                            np.multiply(1 - beta2, dw, tmp)
                            v += np.multiply(tmp, dw, tmp)
                            # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in
                            # that order, through the scratch buffers
                            np.multiply(lr, np.divide(m, bc1, tmp), tmp)
                            np.add(np.sqrt(np.divide(v, bc2, den), den), eps, den)
                            w -= np.divide(tmp, den, tmp)
                        m_b *= beta1
                        m_b += (1 - beta1) * dbias
                        v_b *= beta2
                        v_b += (1 - beta2) * dbias * dbias
                        net.bias -= lr * (m_b / bc1) / (np.sqrt(v_b / bc2) + eps)
        if not (all(np.all(np.isfinite(w)) for w in ws) and np.all(np.isfinite(net.bias))):
            raise TrainingDiverged("non-finite weights after update")
    except TrainingDiverged:
        for w, snap in zip(ws, snap_w):
            w[...] = snap
        net.bias[:] = snap_b
        raise
    # masked gradients keep pruned weights at exactly zero, but the adam
    # denominator path must not have perturbed them either
    for w, blk in zip(ws, blocks):
        w *= net.mask[blk]
    return net


def _initial_network(cfg: SchemeConfig, data, rng: np.random.Generator) -> Network:
    n_in, n_out = data.n_features, data.n_classes
    if cfg.scheme == "A":
        hidden = cfg.seed_hidden if cfg.seed_hidden is not None else max(4, n_out)
        net = from_mlp([n_in, hidden, n_out], rng)
        if cfg.init_prune_fraction > 0:
            ii, jj = np.nonzero(net.mask)
            k = int(round(cfg.init_prune_fraction * ii.size))
            pick = rng.choice(ii.size, size=k, replace=False)
            net.mask[ii[pick], jj[pick]] = False
            net.weights[ii[pick], jj[pick]] = 0.0
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


def _apply_prune_step(net, step, cfg):
    if "threshold" in step:
        policy = PrunePolicy(threshold=step["threshold"])
    else:
        active = int(net.mask.sum())
        if "budget" in step:
            budget = step["budget"]
        elif "budget_key" in step:
            budget = getattr(cfg, step["budget_key"])
        elif "keep_fraction" in step:
            budget = int(math.floor(step["keep_fraction"] * active + 0.5))
        elif "prune_fraction" in step:
            budget = int(math.floor((1.0 - step["prune_fraction"]) * active + 0.5))
        else:
            raise ValueError(f"prune step needs a target: {step}")
        policy = PrunePolicy(budget=budget)
    archops.prune_connections(net, policy)


def _apply_neuron_step(net, step, cfg, rng, batch):
    count = int(step.get("count", 1))
    for _ in range(count):
        if net.n_hidden >= cfg.max_neurons:
            log.info("neuron growth: at max_neurons, skipping")
            return
        policy = NeuronGrowthPolicy(
            step.get("kind", "division_activation"),
            noise_std=step.get("noise_std", cfg.noise_std),
            fresh_connection_fraction=step.get("fresh_connection_fraction", 0.5),
            data_batch=batch,
            selection_stat=step.get("selection_stat", "mean"),
        )
        budget_left = cfg.max_connections - int(net.mask.sum())
        try:
            archops.grow_neuron(net, policy, rng, max_new_connections=budget_left)
        except ValueError as exc:
            log.info("neuron growth skipped: %s", exc)
            return


def _sample_batch(data, opt, rng):
    x, y = data.train_xy()
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
    checkpoint step of each iteration, return the validation-best network."""
    rng = rng if rng is not None else make_rng(cfg.seed)
    net = _initial_network(cfg, data, rng)
    x_val, y_val = data.val_xy()
    x_test, y_test = data.test_xy()
    steps = cfg.resolved_steps()
    ckpt_positions = [i for i, s in enumerate(steps) if s.get("op") == "train" and s.get("checkpoint")]
    if not ckpt_positions:
        train_positions = [i for i, s in enumerate(steps) if s.get("op") == "train"]
        ckpt_positions = train_positions[-1:] if train_positions else []
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
        return row

    if initial_train:
        # warm-up train of the initial architecture; not an iteration, so it
        # produces no history row and no checkpoint
        try:
            train_weights(net, data, cfg.optimizer, rng, lr_scale)
        except TrainingDiverged as exc:
            diverged += 1
            lr_scale *= 0.5
            notes.append(f"warmup diverged ({exc}); learning rate halved")

    for it in range(1, cfg.max_iterations + 1):
        snap = net.clone()
        it_diverged = False
        row = None
        for pos, step in enumerate(steps):
            op = step.get("op")
            if op == "train":
                try:
                    train_weights(net, data, cfg.optimizer, rng, lr_scale)
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
                batch = _sample_batch(data, cfg.optimizer, rng) if step.get("kind") == "gradient" else None
                _apply_growth_step(net, step, cfg, rng, batch)
            elif op == "prune_connections":
                _apply_prune_step(net, step, cfg)
            elif op == "grow_neurons":
                batch = _sample_batch(data, cfg.optimizer, rng)
                _apply_neuron_step(net, step, cfg, rng, batch)
            else:
                raise ValueError(f"unknown step op: {op}")
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

