"""General feed-forward network over a totally ordered neuron set.

Neurons are globally ordered: inputs first, hidden next, outputs last. Any
earlier neuron may feed any later one, so the wiring (a strictly
upper-triangular binary mask) determines the depth of the network rather than
a fixed layer structure. Pruned weights are exactly zero, which lets the
forward pass ignore the mask entirely and work off the weight matrix alone.

Forward and backward passes visit the same partition of the non-input
neurons into segments (`_segments`): hidden neurons are cut wherever the
layer id changes and every SEGMENT neurons, and the outputs form the last
segment, so no segment mixes hidden and output neurons. Each segment costs
one GEMM for the contributions of all earlier neurons, plus a sequential walk
over the columns whose weights have an in-segment in-edge. The partition
depends only on neuron counts and layer ids and the walk only on nonzero
weights, never on the mask, so activating a connection with weight zero
cannot perturb any float result.

No edge ends at an input or starts at an output, so only the legal
rectangle `Network.rect` (rows [0, hidden_end) by columns [n_in, n)) of the
mask and weights can be nonzero. The backward pass writes dW only inside it,
and it leaves dU's input columns at zero: it never computes the gradient
with respect to an input, which nothing consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


SEGMENT = 128  # most hidden neurons in one segment


class UnreachableOutputError(Exception):
    """No active path connects any input to any output."""


def _relu(u: np.ndarray) -> np.ndarray:
    return np.maximum(u, 0.0)


def _relu_grad(u: np.ndarray) -> np.ndarray:
    return (u > 0.0).astype(np.float64)


class Network:
    """Masked-weight DAG over n_in + n_hidden + n_out ordered neurons.

    mask[i, j] = 1 iff the connection i -> j is active. Invariants: the mask
    is strictly upper triangular, nothing terminates at an input, nothing
    originates at an output, and weights are exactly zero wherever the mask
    is zero. Hidden neurons apply ReLU, outputs are linear (pre-softmax
    logits). `layers` optionally records a layer id per neuron for networks
    with MLP structure (used to restrict growth to adjacent layers).
    """

    def __init__(
        self,
        n_in: int,
        n_hidden: int,
        n_out: int,
        mask: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        layers: np.ndarray | None = None,
    ):
        if n_in < 1 or n_out < 1 or n_hidden < 0:
            raise ValueError(f"bad neuron counts: {n_in}/{n_hidden}/{n_out}")
        n = n_in + n_hidden + n_out
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.n_out = n_out
        self.mask = np.zeros((n, n)) if mask is None else np.asarray(mask, dtype=np.float64)
        self.weights = np.zeros((n, n)) if weights is None else np.asarray(weights, dtype=np.float64)
        self.bias = np.zeros(n_hidden + n_out) if bias is None else np.asarray(bias, dtype=np.float64)
        self.layers = None if layers is None else np.asarray(layers, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.n_in + self.n_hidden + self.n_out

    @property
    def hidden_end(self) -> int:
        return self.n_in + self.n_hidden

    @property
    def rect(self) -> tuple[slice, slice]:
        """The legal rectangle: rows that may send an edge (inputs and hidden)
        by columns that may receive one (hidden and outputs). Every entry of
        the mask and weights outside it is zero."""
        return slice(0, self.hidden_end), slice(self.n_in, self.n)

    def clone(self) -> "Network":
        return Network(
            self.n_in,
            self.n_hidden,
            self.n_out,
            self.mask.copy(),
            self.weights.copy(),
            self.bias.copy(),
            layers=None if self.layers is None else self.layers.copy(),
        )

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        n = self.n
        if self.mask.shape != (n, n) or self.weights.shape != (n, n):
            raise ValueError("mask/weights shape does not match neuron count")
        if self.bias.shape != (self.n_hidden + self.n_out,):
            raise ValueError("bias length must be n_hidden + n_out")
        if np.any(np.tril(self.mask) != 0):
            raise ValueError("mask must be strictly upper triangular")
        if np.any(self.mask[:, : self.n_in] != 0):
            raise ValueError("connections must not terminate at input neurons")
        if np.any(self.mask[self.hidden_end :, :] != 0):
            raise ValueError("connections must not originate at output neurons")
        if np.any((self.weights != 0) & (self.mask == 0)):
            raise ValueError("nonzero weight on an inactive connection")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite weights or biases")


@dataclass
class ForwardTrace:
    """Per-sample preactivities and activities for every neuron.

    For input neurons u = x = the input value; hidden neurons apply ReLU,
    output neurons carry their preactivity (identity pre-softmax).
    """

    u: np.ndarray  # (batch, N)
    x: np.ndarray  # (batch, N)

    def logits(self, n_out: int) -> np.ndarray:
        return self.x[:, self.x.shape[1] - n_out :]


def _segments(net: Network) -> list[tuple[int, int]]:
    """Neuron ranges [s, e) evaluated as units, in order; see the module doc."""
    he = net.hidden_end
    runs = [net.n_in]
    if net.layers is not None:
        runs += (np.flatnonzero(np.diff(net.layers[net.n_in : he])) + net.n_in + 1).tolist()
    runs.append(he)
    segs = [(s, min(s + SEGMENT, e)) for a, e in zip(runs, runs[1:]) for s in range(a, e, SEGMENT)]
    return segs + [(he, net.n)]


def forward(net: Network, batch: np.ndarray) -> ForwardTrace:
    """Evaluate the network on a (batch x n_in) matrix of inputs.

    Neurons are evaluated in global order: u_j = bias_j + sum_{i<j} w_ij x_i.
    The computational path depends only on the nonzero pattern of the weight
    matrix, so growing zero-weight connections leaves every float untouched.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.n_in:
        raise ValueError(
            f"batch width mismatch: expected {net.n_in} inputs, got shape {batch.shape}"
        )
    n, b = net.n, batch.shape[0]
    w = net.weights
    u = np.empty((b, n))
    x = np.empty((b, n))
    u[:, : net.n_in] = batch
    x[:, : net.n_in] = batch
    for s, e in _segments(net):
        act = _relu if s < net.hidden_end else np.copy
        ub = net.bias[s - net.n_in : e - net.n_in] + x[:, :s] @ w[:s, s:e]
        x[:, s:e] = act(ub)
        wb = w[s:e, s:e]
        # in-segment edges: finish those columns in order
        for c in np.flatnonzero(wb.any(axis=0)):
            ub[:, c] += x[:, s : s + c] @ wb[:c, c]
            x[:, s + c] = act(ub[:, c])
        u[:, s:e] = ub
    return ForwardTrace(u=u, x=x)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_labels(net: Network, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer vector")
    if labels.size and (labels.min() < 0 or labels.max() >= net.n_out):
        raise ValueError(
            f"label out of range [0, {net.n_out}): min={labels.min()}, max={labels.max()}"
        )
    return labels.astype(np.int64)


def loss_value(net: Network, batch: np.ndarray, labels: np.ndarray, weight_decay: float = 0.0) -> float:
    """Mean softmax cross-entropy plus the L2 weight-decay term."""
    labels = _check_labels(net, labels)
    trace = forward(net, batch)
    logits = trace.logits(net.n_out)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    nll = lse - z[np.arange(len(labels)), labels]
    loss = float(nll.mean())
    if weight_decay:
        loss += 0.5 * weight_decay * _sq_norm(net.weights[net.rect])
    return loss


def _sq_norm(w: np.ndarray) -> float:
    # einsum reduces a strided view without the copy vdot would make
    return float(np.einsum("ij,ij->", w, w))


def loss_and_gradients(
    net: Network,
    batch: np.ndarray,
    labels: np.ndarray,
    weight_decay: float = 0.0,
    _dw_buf: np.ndarray | None = None,
):
    """Loss plus gradients: (loss, dW, dBias, dU).

    dW is n x n and masked (exactly zero wherever the mask is zero) and
    includes the weight-decay term on active weights; only the legal
    rectangle `net.rect` is written, so a reused `_dw_buf` must be zero
    outside it. dU holds dLoss/du for every neuron and sample, which
    gradient-based connection growth consumes; its input columns are zero,
    since no edge ends at an input.
    """
    labels = _check_labels(net, labels)
    trace = forward(net, batch)
    n, b = net.n, trace.x.shape[0]
    he = net.hidden_end
    w = net.weights
    rect = net.rect

    logits = trace.logits(net.n_out)
    p = _softmax(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = float((lse - z[np.arange(b), labels]).mean())
    if weight_decay:
        loss += 0.5 * weight_decay * _sq_norm(w[rect])

    dlogits = p.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b

    du = np.zeros((b, n))
    dx = np.zeros((b, n))
    du[:, he:] = dlogits
    dw = np.zeros((n, n)) if _dw_buf is None else _dw_buf
    for s, e in reversed(_segments(net)):
        if s < he:
            wb = w[s:e, s:e]
            # in-segment edges: finish those columns in reverse order
            for c in np.flatnonzero(wb.any(axis=0))[::-1]:
                j = s + c
                du[:, j] = dx[:, j] * _relu_grad(trace.u[:, j])
                dx[:, s:j] += du[:, j : j + 1] * wb[:c, c][None, :]
            du[:, s:e] = dx[:, s:e] * _relu_grad(trace.u[:, s:e])
        # nothing consumes the gradient of an input, so rows :n_in are skipped
        dx[:, net.n_in : s] += du[:, s:e] @ w[net.n_in : s, s:e].T
        # outputs send nothing; of rows s:e only the in-segment edges above
        # the diagonal survive the mask below
        r = min(e, he)
        dw[:r, s:e] = trace.x[:, :r].T @ du[:, s:e]

    dw_rect = dw[rect]
    dw_rect *= net.mask[rect]
    if weight_decay:
        dw_rect += weight_decay * w[rect]
    dbias = du[:, net.n_in :].sum(axis=0)
    return loss, dw, dbias, du


def predict(net: Network, batch: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Argmax class per row, evaluated in chunks."""
    batch = np.asarray(batch, dtype=np.float64)
    out = np.empty(batch.shape[0], dtype=np.int64)
    for s in range(0, batch.shape[0], batch_size):
        chunk = batch[s : s + batch_size]
        out[s : s + len(chunk)] = np.argmax(forward(net, chunk).logits(net.n_out), axis=1)
    return out


def accuracy(net: Network, batch: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float(np.mean(predict(net, batch) == labels))


def depth(net: Network) -> int:
    """Edge length of the longest active input-to-output path.

    Raises UnreachableOutputError when no output is reachable from any input.
    """
    n = net.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[: net.n_in] = 0
    for j in range(net.n_in, n):
        src = np.flatnonzero(net.mask[:j, j])
        if src.size:
            reached = dist[src]
            reached = reached[reached >= 0]
            if reached.size:
                dist[j] = int(reached.max()) + 1
    out = dist[net.hidden_end :]
    if np.all(out < 0):
        raise UnreachableOutputError("no active path from any input to any output")
    return int(out.max())


def _path_flags(net: Network) -> np.ndarray:
    """True for neurons on some active input-to-output path.

    Inputs count as path members when they reach an output; outputs when they
    are reached from an input.
    """
    n = net.n
    active = net.mask != 0
    fwd = np.zeros(n, dtype=bool)
    fwd[: net.n_in] = True
    for j in range(net.n_in, n):
        if np.any(active[:j, j] & fwd[:j]):
            fwd[j] = True
    bwd = np.zeros(n, dtype=bool)
    bwd[net.hidden_end :] = True
    for i in range(net.hidden_end - 1, -1, -1):
        if np.any(active[i, i + 1 :] & bwd[i + 1 :]):
            bwd[i] = True
    return fwd & bwd


def connection_count(net: Network) -> int:
    """Active connections plus biases of neurons on an input-output path."""
    edges = int(np.count_nonzero(net.mask))
    on_path = _path_flags(net)
    biases = int(np.count_nonzero(on_path[net.n_in :]))
    return edges + biases


def from_mlp(layer_sizes: list[int], rng: np.random.Generator) -> Network:
    """Fully connected layered network over the global ordering.

    Weights are zero-mean Gaussian with std sqrt(2 / fan_in) per receiving
    neuron; biases start at zero. Records a per-neuron layer id.
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError(f"empty layer in {sizes}")
    n_in, n_out = sizes[0], sizes[-1]
    n_hidden = sum(sizes[1:-1])
    net = Network(n_in, n_hidden, n_out)
    bounds = np.cumsum([0] + sizes)
    layers = np.empty(net.n, dtype=np.int64)
    for li in range(len(sizes)):
        layers[bounds[li] : bounds[li + 1]] = li
    net.layers = layers
    for li in range(len(sizes) - 1):
        r0, r1 = bounds[li], bounds[li + 1]
        c0, c1 = bounds[li + 1], bounds[li + 2]
        fan_in = sizes[li]
        net.mask[r0:r1, c0:c1] = 1.0
        net.weights[r0:r1, c0:c1] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(r1 - r0, c1 - c0))
    return net


def prune_isolated_neurons(net: Network) -> Network:
    """Remove hidden neurons lacking active in-edges or out-edges, to a fixed point.

    Removal deletes the neuron's remaining edges, which can isolate further
    neurons; indices are compacted and the ordering of survivors preserved.
    Input and output neurons are never removed.
    """
    n = net.n
    alive = np.ones(n, dtype=bool)
    active = net.mask != 0
    while True:
        sub = active & alive[:, None] & alive[None, :]
        in_deg = sub.sum(axis=0)
        out_deg = sub.sum(axis=1)
        hidden = np.zeros(n, dtype=bool)
        hidden[net.n_in : net.hidden_end] = True
        drop = hidden & alive & ((in_deg == 0) | (out_deg == 0))
        if not np.any(drop):
            break
        alive[drop] = False
    keep = np.flatnonzero(alive)
    dead_cols = ~alive
    net.mask[dead_cols, :] = 0.0
    net.mask[:, dead_cols] = 0.0
    net.weights[dead_cols, :] = 0.0
    net.weights[:, dead_cols] = 0.0
    net.mask = net.mask[np.ix_(keep, keep)]
    net.weights = net.weights[np.ix_(keep, keep)]
    keep_bias = keep[keep >= net.n_in] - net.n_in
    net.bias = net.bias[keep_bias]
    if net.layers is not None:
        net.layers = net.layers[keep]
    net.n_hidden = int(alive[net.n_in : net.hidden_end].sum())
    return net


def _mask_to_rle(mask: np.ndarray) -> list[list[list[int]]]:
    """Per-row runs of active entries as [start, length] pairs."""
    rows = []
    for r in range(mask.shape[0]):
        nz = np.flatnonzero(mask[r])
        runs = []
        if nz.size:
            start = prev = int(nz[0])
            for c in nz[1:]:
                c = int(c)
                if c == prev + 1:
                    prev = c
                else:
                    runs.append([start, prev - start + 1])
                    start = prev = c
            runs.append([start, prev - start + 1])
        rows.append(runs)
    return rows


def _rle_to_mask(rows: list, n: int) -> np.ndarray:
    if len(rows) != n:
        raise ValueError(f"mask_rle has {len(rows)} rows for {n} neurons")
    mask = np.zeros((n, n))
    for r, runs in enumerate(rows):
        for start, length in runs:
            if not (0 <= start and 0 < length and start + length <= n):
                raise ValueError(f"mask_rle row {r}: run [{start}, {length}] leaves [0, {n})")
            mask[r, start : start + length] = 1.0
    return mask


def checkpoint_dict(net: Network, seed: int | None = None) -> dict:
    ii, jj = np.nonzero(net.weights)
    triples = [[int(i), int(j), float(net.weights[i, j])] for i, j in zip(ii, jj)]
    return {
        "format": "growprune-checkpoint",
        "version": 1,
        "n_in": net.n_in,
        "n_hidden": net.n_hidden,
        "n_out": net.n_out,
        "activation": "relu",
        "seed": seed,
        "mask_rle": _mask_to_rle(net.mask),
        "weights": triples,
        "bias": [float(v) for v in net.bias],
        "layers": None if net.layers is None else [int(v) for v in net.layers],
    }


def network_from_dict(d: dict) -> Network:
    """Rebuild a checkpointed network; raises ValueError unless `d` describes
    a valid one (format, indices in range, then `Network.validate`)."""
    if not isinstance(d, dict) or (d.get("format"), d.get("version")) != ("growprune-checkpoint", 1):
        raise ValueError("not a checkpoint: expected format growprune-checkpoint, version 1")
    if d.get("activation") != "relu":
        raise ValueError(f"unsupported activation: {d.get('activation')!r}")
    counts = [d.get(k) for k in ("n_in", "n_hidden", "n_out")]
    if not all(type(c) is int for c in counts):
        raise ValueError(f"neuron counts must be integers, got {counts}")
    n = sum(counts)
    net = Network(
        *counts,
        mask=_rle_to_mask(d["mask_rle"], n),
        bias=d["bias"],
        layers=d.get("layers"),
    )
    if net.layers is not None and net.layers.shape != (n,):
        raise ValueError("layers must hold one layer id per neuron")
    triples = np.asarray(d["weights"], dtype=np.float64).reshape(-1, 3)
    if len(triples) != len(d["weights"]):
        raise ValueError("weights must be [row, column, value] triples")
    ij = triples[:, :2]
    if not np.all((ij >= 0) & (ij < n) & (ij == np.floor(ij))):
        raise ValueError(f"weight index outside [0, {n})")
    net.weights[ij[:, 0].astype(np.int64), ij[:, 1].astype(np.int64)] = triples[:, 2]
    net.validate()
    return net


def save_checkpoint(net: Network, path, seed: int | None = None) -> None:
    """Write the self-describing checkpoint; write + read round-trips bit-exactly."""
    with open(path, "w") as f:
        json.dump(checkpoint_dict(net, seed=seed), f)


def load_checkpoint(path) -> tuple[Network, dict]:
    with open(path) as f:
        d = json.load(f)
    return network_from_dict(d), d
