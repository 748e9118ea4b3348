"""General feed-forward network over a totally ordered neuron set.

Neurons are globally ordered: inputs first, hidden next, outputs last. Any
earlier neuron may feed any later one, so the wiring (a strictly
upper-triangular bool mask) determines the depth of the network rather than
a fixed layer structure. Pruned weights are exactly zero, which lets the
forward pass ignore the mask entirely and work off the weight matrix alone.

Forward and backward passes visit the same partition of the non-input
neurons into segments (`_segments`). Hidden neurons are cut into runs
wherever the layer id changes; a run with no nonzero weight between two of
its own neurons is one segment, however wide, and any other run is cut every
SEGMENT neurons. The outputs form the last segment, so no segment mixes
hidden and output neurons. Each segment costs one GEMM for the contributions
of all earlier neurons, plus a sequential walk over the columns whose weights
have an in-segment in-edge. The partition depends only on neuron counts,
layer ids and nonzero weights, and the walk only on nonzero weights, never on
the mask, so activating a connection with weight zero cannot perturb any
float result.

No edge ends at an input or starts at an output, so only the legal
rectangle `Network.rect` (rows [0, hidden_end) by columns [n_in, n)) of the
mask and weights can be nonzero. The backward pass writes each segment's dW
only in the rows between the first and the last sender the mask activates
into the segment's columns, so a merged layer run never multiplies its own
same-layer square unless a grown edge lies in it. It leaves dU's input
columns at zero: it never computes the gradient with respect to an input,
which nothing consumes.
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


class Network:
    """Masked-weight DAG over n_in + n_hidden + n_out ordered neurons.

    mask[i, j] is True iff the connection i -> j is active. Invariants: the
    mask is bool and holds only legal pairs (`legal_pair_mask`), and weights
    are exactly zero wherever the mask is False. Hidden neurons apply ReLU,
    outputs are linear (pre-softmax logits). `layers` optionally records a
    layer id per neuron for networks with MLP structure (used to restrict
    growth to adjacent layers).
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
        self.mask = np.zeros((n, n), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
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
        if self.mask.dtype != bool:
            raise ValueError(f"mask must be bool, got {self.mask.dtype}")
        if np.any(self.mask & ~legal_pair_mask(self)):
            raise ValueError(
                "illegal connection: edges run from an earlier to a later neuron, "
                "never into an input and never out of an output"
            )
        if np.any((self.weights != 0) & ~self.mask):
            raise ValueError("nonzero weight on an inactive connection")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite weights or biases")


def legal_pair_mask(net: Network) -> np.ndarray:
    """Bool matrix of structurally legal connections: strictly earlier to
    strictly later, never into an input, never out of an output."""
    n = net.n
    legal = np.triu(np.ones((n, n), dtype=bool), k=1)
    legal[:, : net.n_in] = False
    legal[net.hidden_end :, :] = False
    return legal


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


def _layer_runs(net: Network) -> list[tuple[int, int]]:
    """Hidden neuron ranges [a, e) of one layer id each, in order; all hidden
    neurons form one run when the network has no layer ids."""
    cuts = [net.n_in]
    if net.layers is not None:
        cuts += (np.flatnonzero(np.diff(net.layers[net.n_in : net.hidden_end])) + net.n_in + 1).tolist()
    cuts.append(net.hidden_end)
    return [(a, e) for a, e in zip(cuts, cuts[1:]) if a < e]


_NO_WALK = np.empty(0, dtype=np.int64)


def _segments(net: Network) -> list[tuple[int, int, np.ndarray]]:
    """Neuron ranges [s, e) evaluated as units, in order, each with the
    offsets in [0, e - s) of its walk columns; see the module doc."""
    w = net.weights
    segs = []
    for a, e in _layer_runs(net):
        if not w[a:e, a:e].any():
            segs.append((a, e, _NO_WALK))
            continue
        for s in range(a, e, SEGMENT):
            t = min(s + SEGMENT, e)
            segs.append((s, t, np.flatnonzero(w[s:t, s:t].any(axis=0))))
    # outputs send no edges, so the output segment never walks
    return segs + [(net.hidden_end, net.n, _NO_WALK)]


def _mask_rows(net: Network, s: int, e: int) -> tuple[int, int] | None:
    """First and one past the last sender the mask activates into columns
    [s, e), or None when the columns receive no active edge."""
    rows = np.flatnonzero(net.mask[:e, s:e].any(axis=1))
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else None


def live_blocks(net: Network) -> list[tuple[slice, slice]]:
    """Blocks that hold every active connection: each hidden layer run's
    columns, and the output columns, by the row range of the senders the
    mask activates into them. Read from the mask and layer ids only."""
    blocks = []
    for s, e in _layer_runs(net) + [(net.hidden_end, net.n)]:
        rows = _mask_rows(net, s, e)
        if rows is not None:
            blocks.append((slice(*rows), slice(s, e)))
    return blocks


def _check_batch(net: Network, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.n_in:
        raise ValueError(
            f"batch width mismatch: expected {net.n_in} inputs, got shape {batch.shape}"
        )
    return batch


def forward(net: Network, batch: np.ndarray) -> ForwardTrace:
    """Evaluate the network on a (batch x n_in) matrix of inputs.

    Neurons are evaluated in global order: u_j = bias_j + sum_{i<j} w_ij x_i.
    The computational path depends only on the nonzero pattern of the weight
    matrix, so growing zero-weight connections leaves every float untouched.
    """
    return _forward(net, _check_batch(net, batch), _segments(net))


def _forward(net: Network, batch: np.ndarray, segs: list) -> ForwardTrace:
    n, b = net.n, batch.shape[0]
    w = net.weights
    u = np.empty((b, n))
    x = np.empty((b, n))
    u[:, : net.n_in] = batch
    x[:, : net.n_in] = batch
    for s, e, walk in segs:
        act = _relu if s < net.hidden_end else np.copy
        ub = net.bias[s - net.n_in : e - net.n_in] + x[:, :s] @ w[:s, s:e]
        x[:, s:e] = act(ub)
        # in-segment edges: finish those columns in order
        for c in walk:
            ub[:, c] += x[:, s : s + c] @ w[s : s + c, s + c]
            x[:, s + c] = act(ub[:, c])
        u[:, s:e] = ub
    return ForwardTrace(u=u, x=x)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the labels, and the softmax itself."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = float((np.log(total[:, 0]) - z[np.arange(len(labels)), labels]).mean())
    return loss, e / total


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
    loss, _ = _cross_entropy(forward(net, batch).logits(net.n_out), labels)
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

    dW is n x n and masked (exactly zero wherever the mask is False) and
    includes the weight-decay term on active weights. It is written only in
    one block per segment: the segment's columns by the row range of the
    senders the mask activates into them (`_mask_rows`). Every active entry
    lies in such a block and every other entry written there ends at zero, so
    a reused `_dw_buf` must be zero outside the blocks, which holds wherever
    it is zero off the mask, as after an earlier call under the same mask.
    dU holds dLoss/du for every neuron and sample, which gradient-based
    connection growth consumes; its input columns are zero, since no edge
    ends at an input.
    """
    labels = _check_labels(net, labels)
    segs = _segments(net)
    trace = _forward(net, _check_batch(net, batch), segs)
    n, b = net.n, trace.x.shape[0]
    he = net.hidden_end
    w = net.weights

    loss, dlogits = _cross_entropy(trace.logits(net.n_out), labels)
    if weight_decay:
        loss += 0.5 * weight_decay * _sq_norm(w[net.rect])

    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b

    du = np.zeros((b, n))
    dx = np.zeros((b, n))
    du[:, he:] = dlogits
    dw = np.zeros((n, n)) if _dw_buf is None else _dw_buf
    for s, e, walk in reversed(segs):
        if s < he:
            # in-segment edges: finish those columns in reverse order
            for c in walk[::-1]:
                j = s + c
                np.multiply(dx[:, j], trace.u[:, j] > 0.0, out=du[:, j])
                dx[:, s:j] += du[:, j : j + 1] * w[s:j, j][None, :]
            np.multiply(dx[:, s:e], trace.u[:, s:e] > 0.0, out=du[:, s:e])
        # nothing consumes the gradient of an input, so rows :n_in are skipped
        dx[:, net.n_in : s] += du[:, s:e] @ w[net.n_in : s, s:e].T
        rows = _mask_rows(net, s, e)
        if rows is None:
            continue
        r0, r1 = rows
        blk = dw[r0:r1, s:e]
        np.matmul(trace.x[:, r0:r1].T, du[:, s:e], out=blk)
        blk *= net.mask[r0:r1, s:e]
        if weight_decay:
            blk += weight_decay * w[r0:r1, s:e]

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


def _longest_paths(net: Network) -> np.ndarray:
    """Edge length of the longest active path from an input to each neuron,
    -1 where no input reaches it."""
    dist = np.full(net.n, -1, dtype=np.int64)
    dist[: net.n_in] = 0
    for j in range(net.n_in, net.n):
        d = dist[:j][net.mask[:j, j]].max(initial=-1)
        if d >= 0:
            dist[j] = d + 1
    return dist


def depth(net: Network) -> int:
    """Edge length of the longest active input-to-output path.

    Raises UnreachableOutputError when no output is reachable from any input.
    """
    deepest = int(_longest_paths(net)[net.hidden_end :].max())
    if deepest < 0:
        raise UnreachableOutputError("no active path from any input to any output")
    return deepest


def _path_flags(net: Network) -> np.ndarray:
    """True for neurons on some active input-to-output path.

    Inputs count as path members when they reach an output; outputs when they
    are reached from an input.
    """
    bwd = np.zeros(net.n, dtype=bool)
    bwd[net.hidden_end :] = True
    for i in range(net.hidden_end - 1, net.n_in - 1, -1):
        bwd[i] = np.any(net.mask[i, i + 1 :] & bwd[i + 1 :])
    # no input feeds an input, so the input rows need no order
    bwd[: net.n_in] = (net.mask[: net.n_in] & bwd).any(axis=1)
    return (_longest_paths(net) >= 0) & bwd


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
        net.mask[r0:r1, c0:c1] = True
        net.weights[r0:r1, c0:c1] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(r1 - r0, c1 - c0))
    return net


def prune_isolated_neurons(net: Network) -> Network:
    """Remove the hidden neurons on no active input-to-output path.

    These are the neurons that repeatedly dropping hidden neurons without an
    active in-edge or out-edge would remove: every neuron on a path keeps a
    neighbour on it at both ends, and following live in-neighbours (or
    out-neighbours) from a survivor must end at an input (or an output).
    Indices are compacted and the ordering of survivors preserved. Input and
    output neurons are never removed.
    """
    alive = _path_flags(net)
    alive[: net.n_in] = True
    alive[net.hidden_end :] = True
    keep = np.flatnonzero(alive)
    net.mask = net.mask[np.ix_(keep, keep)]
    net.weights = net.weights[np.ix_(keep, keep)]
    net.bias = net.bias[keep[keep >= net.n_in] - net.n_in]
    if net.layers is not None:
        net.layers = net.layers[keep]
    net.n_hidden = int(alive[net.n_in : net.hidden_end].sum())
    return net


def _mask_to_rle(mask: np.ndarray) -> list[list[list[int]]]:
    """Per-row runs of active entries as [start, length] pairs."""
    # each row changes value an even number of times, so the changes pair up
    # into (start, end) within their rows
    r, c = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
    rows = [[] for _ in range(mask.shape[0])]
    for i, start, end in zip(r[::2].tolist(), c[::2].tolist(), c[1::2].tolist()):
        rows[i].append([start, end - start])
    return rows


def _rle_to_mask(rows: list, n: int) -> np.ndarray:
    if len(rows) != n:
        raise ValueError(f"mask_rle has {len(rows)} rows for {n} neurons")
    mask = np.zeros((n, n), dtype=bool)
    for r, runs in enumerate(rows):
        for start, length in runs:
            if not (0 <= start and 0 < length and start + length <= n):
                raise ValueError(f"mask_rle row {r}: run [{start}, {length}] leaves [0, {n})")
            mask[r, start : start + length] = True
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
