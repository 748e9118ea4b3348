"""The three architecture-changing operations: connection growth, neuron
growth, and magnitude-based connection pruning.

Each returns the network it was given; neuron growth and pruning may replace
its mask and weight arrays. New connections start at weight zero, so growth
never changes what the network computes; pruning zeroes both the mask entry
and the weight and then drops hidden neurons left without in- or out-edges.
Selection runs over flat offsets into the n x n mask, whose C order is the
(i, j) order of every tie-break, and applies a choice in one write per array.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .network import Network, forward, legal_pair_mask, prune_isolated_neurons
from .network import _StepPlan, _backprop, _check_batch, _check_labels

log = logging.getLogger(__name__)

GROWTH_KINDS = ("full", "random", "gradient")
NEURON_GROWTH_KINDS = ("division_activation", "division_random", "random_fresh")


@dataclass
class GrowthPolicy:
    """How to pick inactive connections to activate.

    amount is the fraction of currently legal inactive candidates (driver
    code converts fraction-of-all-possible conventions before building the
    policy). data_batch is an (X, labels) pair, required for gradient kind.
    adjacent_only restricts candidates to adjacent-layer pairs on networks
    that carry layer ids.
    """

    kind: str
    amount: float | None = None
    data_batch: tuple | None = None
    adjacent_only: bool = False

    def __post_init__(self):
        if self.kind not in GROWTH_KINDS:
            raise ValueError(f"unknown growth kind: {self.kind}")
        if self.kind != "full":
            a = self.amount
            if isinstance(a, bool) or not isinstance(a, numbers.Real) or not (0.0 < a <= 1.0):
                raise ValueError(f"amount must be a number in (0, 1], got {a!r}")


@dataclass
class NeuronGrowthPolicy:
    """How to add one hidden neuron.

    Division copies the parent's wiring and perturbs the copied weights with
    N(0, noise_std^2) noise; noise_std=None scales to 1% of the std of the
    parent's nonzero weights. selection_stat picks the batch statistic for
    activation-based parent selection (mean or max preactivity).
    """

    kind: str
    noise_std: float | None = None
    fresh_connection_fraction: float = 0.5
    data_batch: tuple | None = None
    selection_stat: str = "mean"

    def __post_init__(self):
        if self.kind not in NEURON_GROWTH_KINDS:
            raise ValueError(f"unknown neuron growth kind: {self.kind}")
        if self.noise_std is not None and not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not (0.0 < self.fresh_connection_fraction <= 1.0):
            raise ValueError("fresh_connection_fraction must be in (0, 1]")
        if self.selection_stat not in ("mean", "max"):
            raise ValueError(f"unknown selection_stat: {self.selection_stat}")


@dataclass
class PrunePolicy:
    """Deactivate connections by magnitude: below a threshold, or down to a
    surviving-connection budget. Exactly one of the two must be set."""

    threshold: float | None = None
    budget: int | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.budget is None):
            raise ValueError("set exactly one of threshold/budget")
        t, b = self.threshold, self.budget
        if t is not None and (isinstance(t, bool) or not isinstance(t, numbers.Real) or not t >= 0):
            raise ValueError(f"threshold must be a number >= 0, got {t!r}")
        if b is not None and (isinstance(b, bool) or not isinstance(b, numbers.Integral) or b < 0):
            raise ValueError(f"budget must be an integer >= 0, got {b!r}")


def _legal_pairs(net: Network, adjacent_only: bool) -> np.ndarray:
    """Legal pairs, optionally only those from one layer to the next."""
    legal = legal_pair_mask(net)
    if adjacent_only:
        if net.layers is None:
            raise ValueError("adjacent_only growth needs a network with layer ids")
        legal &= net.layers[None, :] == net.layers[:, None] + 1
    return legal


def candidate_pair_mask(net: Network, adjacent_only: bool = False) -> np.ndarray:
    """Legal pairs that are currently inactive; optionally adjacent-layer only."""
    return _legal_pairs(net, adjacent_only) & ~net.mask


def possible_pair_count(net: Network, adjacent_only: bool = False) -> int:
    """All structurally possible connections under the same restriction."""
    return int(np.count_nonzero(_legal_pairs(net, adjacent_only)))


def _gradient_scores(net: Network, batch: tuple) -> np.ndarray:
    """Mean over the batch of |dLoss/du_j * x_i| for every (i, j) pair, from
    one forward and backward pass through a plan that writes no dW."""
    x, labels = batch
    labels, x = _check_labels(net, labels), _check_batch(net, x)
    _, _, du, acts = _backprop(_StepPlan(net, []), x, labels)
    return (np.abs(acts).T @ np.abs(du)) / x.shape[0]


def grow_connections(
    net: Network, policy: GrowthPolicy, rng: np.random.Generator, max_new: int | None = None
) -> Network:
    """Activate inactive legal connections per the policy; weights start at 0.
    Gradient growth ranks by score, ties in (i, j) order."""
    cand = np.flatnonzero(candidate_pair_mask(net, policy.adjacent_only))
    if cand.size == 0:
        log.info("connection growth: no legal inactive candidates, nothing to do")
        return net
    n_add = cand.size if policy.kind == "full" else math.ceil(policy.amount * cand.size)
    if max_new is not None:
        n_add = min(n_add, max_new)
    if n_add <= 0:
        log.info("connection growth: budget exhausted, nothing to do")
        return net
    if policy.kind == "full":
        chosen = cand[:n_add]
    elif policy.kind == "random":
        chosen = cand[rng.choice(cand.size, size=n_add, replace=False)]
    else:
        if policy.data_batch is None:
            raise ValueError("gradient growth requires a data_batch")
        s = _gradient_scores(net, policy.data_batch).take(cand)
        chosen = cand[np.argsort(-s, kind="stable")[:n_add]]
    # grown connections start at exactly zero weight
    np.put(net.mask, chosen, True)
    return net


def _active_incident(net: Network) -> np.ndarray:
    """Hidden neurons with at least one active incident connection."""
    has = net.mask.any(axis=0) | net.mask.any(axis=1)
    return np.flatnonzero(has[net.n_in : net.hidden_end]) + net.n_in


def _insert_neuron(net: Network, pos: int, layer: int | None) -> None:
    """Insert an unconnected hidden neuron so it takes global index pos."""
    n = net.n
    net.mask = np.insert(np.insert(net.mask, pos, False, axis=0), pos, False, axis=1)
    net.weights = np.insert(np.insert(net.weights, pos, 0.0, axis=0), pos, 0.0, axis=1)
    net.bias = np.insert(net.bias, pos - net.n_in, 0.0)
    if net.layers is not None:
        net.layers = np.insert(net.layers, pos, 0 if layer is None else layer)
    net.n_hidden += 1
    assert net.n == n + 1


def grow_neuron(
    net: Network,
    policy: NeuronGrowthPolicy,
    rng: np.random.Generator,
    max_new_connections: int | None = None,
) -> Network:
    """Append one hidden neuron by dividing an existing one or by fresh wiring.

    max_new_connections caps the edges the new neuron may bring; division of
    a parent whose wiring would not fit becomes a no-op with a notice.
    """
    if policy.kind in ("division_activation", "division_random"):
        active = _active_incident(net)
        if active.size == 0:
            raise ValueError("no active hidden neuron to divide")
        if policy.kind == "division_activation":
            if policy.data_batch is None:
                raise ValueError("activation-based division requires a data_batch")
            x, _ = policy.data_batch
            u = forward(net, x).u[:, active]
            stat = u.mean(axis=0) if policy.selection_stat == "mean" else u.max(axis=0)
            parent = int(active[int(np.argmax(stat))])
        else:
            parent = int(rng.choice(active))
        added = int(net.mask[:, parent].sum() + net.mask[parent, :].sum())
        if max_new_connections is not None and added > max_new_connections:
            log.info(
                "neuron division skipped: copying %d edges exceeds the %d-connection budget",
                added,
                max_new_connections,
            )
            return net
        child = parent + 1
        layer = None if net.layers is None else int(net.layers[parent])
        _insert_neuron(net, child, layer)
        # copy wiring: in-edges from the parent's sources, out-edges to its targets
        net.mask[:, child] = net.mask[:, parent]
        net.mask[child, :] = net.mask[parent, :]
        net.mask[parent, child] = False
        in_w = net.weights[:, parent].copy()
        out_w = net.weights[parent, :].copy()
        std = policy.noise_std
        if std is None:
            nz = np.concatenate([in_w[in_w != 0], out_w[out_w != 0]])
            std = 0.01 * float(nz.std()) if nz.size else 0.0
        in_active = np.flatnonzero(net.mask[:, child])
        out_active = np.flatnonzero(net.mask[child, :])
        net.weights[in_active, child] = in_w[in_active] + rng.normal(0.0, std, size=in_active.size)
        net.weights[child, out_active] = out_w[out_active] + rng.normal(0.0, std, size=out_active.size)
        net.bias[child - net.n_in] = net.bias[parent - net.n_in]
    else:
        child = int(rng.integers(net.n_in, net.hidden_end + 1))
        if max_new_connections is not None and max_new_connections < 2:
            log.info("fresh neuron growth skipped: connection budget exhausted")
            return net
        layer = None
        if net.layers is not None:
            if net.n_hidden > 0:
                layer = int(net.layers[min(child, net.hidden_end - 1)])
            else:
                layer = 1
        _insert_neuron(net, child, layer)
        # child lies in [n_in, hidden_end): every earlier neuron may feed it,
        # and it may feed every later one
        sources = np.arange(0, child)
        targets = np.arange(child + 1, net.n)
        k_in = max(1, math.ceil(policy.fresh_connection_fraction * sources.size))
        k_out = max(1, math.ceil(policy.fresh_connection_fraction * targets.size))
        if max_new_connections is not None:
            while k_in + k_out > max_new_connections:
                if k_in >= k_out and k_in > 1:
                    k_in -= 1
                elif k_out > 1:
                    k_out -= 1
                else:
                    break
        pick_in = np.sort(rng.choice(sources, size=min(k_in, sources.size), replace=False))
        pick_out = np.sort(rng.choice(targets, size=min(k_out, targets.size), replace=False))
        net.mask[pick_in, child] = True
        net.mask[child, pick_out] = True
        scale = np.sqrt(2.0 / max(1, pick_in.size))
        net.weights[pick_in, child] = rng.normal(0.0, scale, size=pick_in.size)
        net.weights[child, pick_out] = rng.normal(0.0, scale, size=pick_out.size)
    return net


def prune_connections(net: Network, policy: PrunePolicy) -> Network:
    """Magnitude pruning followed by removal of isolated neurons.

    Threshold form deactivates every active connection with |w| < t. Budget
    form keeps exactly `budget` largest-|w| connections, breaking ties by
    (i, j) lexicographic order.
    """
    keep = _kept(net, policy)
    if keep is None:
        return net
    np.copyto(net.weights, 0.0, where=~keep)
    net.mask = keep
    prune_isolated_neurons(net)
    return net


def _kept(net: Network, policy: PrunePolicy) -> np.ndarray | None:
    """The mask of active connections `policy` keeps, or None when a budget
    keeps every active one. |w| is compared as w against +-t, which needs no
    n x n float array."""
    w, mask = net.weights, net.mask
    if policy.threshold is not None:
        return mask & ~((w < policy.threshold) & (w > -policy.threshold))
    active = w[mask]
    if policy.budget >= active.size:
        if policy.budget > active.size:
            log.info("prune budget %d exceeds %d active connections, nothing to do", policy.budget, active.size)
        return None
    if not policy.budget:
        return np.zeros_like(mask)
    # keep every magnitude above the budget-th largest, then that value's
    # ties in (i, j) order
    k = active.size - policy.budget
    cut = np.partition(np.abs(active), k)[k]
    keep = mask & ((w > cut) | (w < -cut))
    ties = np.flatnonzero(mask & ((w == cut) | (w == -cut)))
    keep.flat[ties[: policy.budget - np.count_nonzero(keep)]] = True
    return keep
