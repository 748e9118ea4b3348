"""General feed-forward network over a totally ordered neuron set.

Neurons are globally ordered: inputs first, hidden next, outputs last. Any
earlier neuron may feed any later one, so the wiring (a strictly
upper-triangular bool mask) determines the depth of the network rather than
a fixed layer structure. Pruned weights are exactly zero, so the arithmetic
works off the weight matrix alone.

Forward and backward passes visit the same partition of the non-input
neurons into segments (`_StepPlan.segments`). Hidden neurons are cut into
runs wherever the layer id changes; a run with no nonzero weight between two
of its own neurons is one segment, however wide, and any other run is cut
every SEGMENT neurons. The outputs form the last segment, so no segment mixes
hidden and output neurons. Each segment costs one GEMM for the contributions
of all earlier neurons. Edges between two neurons of one segment are finished
by a sequential walk. The forward pass walks the segment's walk columns (the
neurons that receive such an edge) in order, one gemv each. The backward pass
walks the segment's pull set (walk columns plus the neurons that send such an
edge) in reverse: each sender pulls its dx from the du of every later
neuron of the segment with one gemv, then each walk column sets its du from
its ReLU gate (`loss_and_gradients` states what this needs). A run the mask
holds no edge inside is one walk-free segment, read without its weights,
which are zero off the mask; any other run is partitioned by its nonzero
weights. Activating a connection with weight zero therefore cannot perturb
any float result.

No edge ends at an input or starts at an output, so only the legal
rectangle `Network.rect` (rows [0, hidden_end) by columns [n_in, n)) of the
mask and weights can be nonzero. Every active connection lies in one of the
`live_blocks`: a hidden layer run's columns (or the output columns) by the
row range of the senders the mask activates into them. The backward pass
writes each segment's dW only in the rows between the first and the last
sender the mask activates into the segment's columns, a sub-block of the
live block that holds those columns, so a merged layer run never multiplies
its own same-layer square unless a grown edge lies in it. It leaves dU's
input columns at zero: it never computes the gradient with respect to an
input, which nothing consumes.

Every call runs through a step plan (`_StepPlan`), built once per training
call and once per public call. It fixes the layer runs, which of them the
mask holds an edge inside, and per segment the dW target; it rebuilds the
walk columns and pull set of a run whose nonzero pattern changed since the
last step, since a grown edge starts at weight zero, where it needs no walk,
and turns nonzero after the first update. A plan without dW blocks writes no
dW, and `_backprop` returns the forward trace it ran on, so a caller that
needs only dU and the activations (gradient-based growth) runs one forward
and one backward pass and no dW GEMM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


SEGMENT = 128  # most hidden neurons in one segment
# most neurons a checkpoint may name: its dense n x n float64 weights and bool
# mask take 576 MiB at the ceiling, before `Network.validate`'s temporaries
MAX_CHECKPOINT_NEURONS = 8192


class UnreachableOutputError(Exception):
    """No active path connects any input to any output."""


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


def _run_segments(nonzero: np.ndarray, a: int, e: int) -> list[tuple[int, int, np.ndarray, list]]:
    """Segments of the hidden run [a, e) whose in-run nonzero weights are
    `nonzero`, each with the offsets in [0, t - s) of its walk columns and its
    pull set; see the module doc. The pull set lists, by descending offset c,
    every in-segment neuron with an in-segment edge as (c, sends, receives):
    whether it sends one and whether it receives one (is a walk column)."""
    if not nonzero.any():
        return [(a, e, _NO_WALK, [])]
    segs = []
    for s in range(a, e, SEGMENT):
        t = min(s + SEGMENT, e)
        blk = nonzero[s - a : t - a, s - a : t - a]
        recv, send = blk.any(axis=0), blk.any(axis=1)
        c = np.flatnonzero(recv | send)[::-1]
        pull = list(zip(c.tolist(), send[c].tolist(), recv[c].tolist()))
        segs.append((s, t, np.flatnonzero(recv), pull))
    return segs


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


class _StepPlan:
    """What the steps of one call share (module doc): the segment partition,
    rebuilt run by run when a run's nonzero pattern changes, and each
    segment's dW target.

    `dw_blocks` holds (block, buffer) pairs whose blocks cover the columns of
    every segment's dW; each segment's dW goes into the buffer of the block
    that holds its columns. With no blocks the plan writes no dW. A run the
    mask holds no edge inside is one walk-free segment whose weights are
    never read; the mask must not change while the plan is used.
    """

    def __init__(self, net: Network, dw_blocks: list):
        self.net = net
        self.dw_blocks = dw_blocks
        # [a, e, may walk, nonzero pattern the segments were built from, segments]
        self.runs = [
            [a, e, net.mask[a:e, a:e].any(), None, [(a, e, _NO_WALK, [])]] for a, e in _layer_runs(net)
        ]
        # outputs send no edges, so the output segment never walks
        self.outputs = (net.hidden_end, net.n, _NO_WALK, [])
        self.targets: dict[tuple[int, int], tuple | None] = {}

    def segments(self) -> list[tuple[int, int, np.ndarray, list]]:
        """This step's segments, in order."""
        w = self.net.weights
        segs = []
        for run in self.runs:
            a, e, may_walk, last, _ = run
            if may_walk:
                nonzero = w[a:e, a:e] != 0
                if last is None or not np.array_equal(nonzero, last):
                    run[3:] = nonzero, _run_segments(nonzero, a, e)
            segs += run[4]
        segs.append(self.outputs)
        return segs

    def target(self, s: int, e: int) -> tuple | None:
        """(r0, r1, blk, live) for the segment columns [s, e): the mask's
        sender rows [r0, r1) into them, the view of the dW buffer that takes
        their dW block, and that mask block, or None where it is all True.
        None when the columns receive no active edge or the plan writes no
        dW."""
        if not self.dw_blocks:
            return None
        if (s, e) not in self.targets:
            rows = _mask_rows(self.net, s, e)
            if rows is None:
                self.targets[s, e] = None
            else:
                r0, r1 = rows
                (br, bc), buf = next(d for d in self.dw_blocks if d[0][1].start <= s < d[0][1].stop)
                live = self.net.mask[r0:r1, s:e]
                blk = buf[r0 - br.start : r1 - br.start, s - bc.start : e - bc.start]
                self.targets[s, e] = (r0, r1, blk, None if live.all() else live)
        return self.targets[s, e]


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
    return _forward(net, _check_batch(net, batch), _StepPlan(net, []).segments())


def _forward(net: Network, batch: np.ndarray, segs: list) -> ForwardTrace:
    n, b = net.n, batch.shape[0]
    w = net.weights
    u = np.empty((b, n))
    x = np.empty((b, n))
    u[:, : net.n_in] = batch
    x[:, : net.n_in] = batch
    for s, e, walk, _ in segs:
        ub = x[:, :s] @ w[:s, s:e]
        ub += net.bias[s - net.n_in : e - net.n_in]
        if s < net.hidden_end:
            np.maximum(ub, 0.0, out=x[:, s:e])  # ReLU
        else:
            x[:, s:e] = ub
        # in-segment edges (hidden segments only): finish those columns in order
        for c in walk:
            ub[:, c] += x[:, s : s + c] @ w[s : s + c, s + c]
            np.maximum(ub[:, c], 0.0, out=x[:, s + c])
        u[:, s:e] = ub
    return ForwardTrace(u=u, x=x)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the labels, and the softmax itself."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    b = len(labels)
    # add.reduce / b gives the bits of .mean() without its Python overhead
    loss = float(np.add.reduce(np.log(total[:, 0]) - z[np.arange(b), labels]) / b)
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


def loss_and_gradients(
    net: Network,
    batch: np.ndarray,
    labels: np.ndarray,
    weight_decay: float = 0.0,
    _plan: _StepPlan | None = None,
):
    """Loss plus gradients: (loss, dW, dBias, dU).

    dW is n x n and masked (exactly zero wherever the mask is False) and
    includes the weight-decay term on active weights. dU holds dLoss/du for
    every neuron and sample, which gradient-based connection growth consumes;
    its input columns are zero, since no edge ends at an input.

    `_plan` is for training, which builds one `_StepPlan` per call over the
    contiguous dW buffers of its live blocks and validates the batch and
    labels once, so that this call does not. Each segment then writes its dW
    block, its columns by the row range of the senders the mask activates
    into them (`_mask_rows`), into the buffer of the live block that holds
    those columns. This is the only write to a buffer, and it leaves zero
    wherever the mask is False, so each buffer must be zero outside its
    segments' blocks, which holds wherever it is zero off the mask: when
    freshly zeroed, or after an earlier call under the same mask. dW is then
    returned as None. Without a plan, the call validates its inputs and runs
    a one-off plan that writes a fresh n x n dW.

    Segments are visited in reverse. In a segment with in-segment edges, the
    pull set is walked by descending neuron: a sender j first gathers
    dx[:, j] += dU[:, j+1:e] @ W[j, j+1:e] (one gemv), then a walk column sets
    dU[:, j] from dx[:, j] and its ReLU gate. This needs dU to be final in
    every later walk column of the segment, which the reverse order gives, and
    zero in every later column that is not a walk column; those columns are
    only set after the walk, and their weights from the segment are zero. A
    dense dW block (mask all True) skips the mask multiply, which would change
    no float.
    """
    dw = None
    if _plan is None:
        labels = _check_labels(net, labels)
        batch = _check_batch(net, batch)
        n = net.n
        dw = np.zeros((n, n))
        # the whole n x n dW is one block at the origin
        _plan = _StepPlan(net, [((slice(0, n), slice(0, n)), dw)])
    loss, dbias, du, _ = _backprop(net, batch, labels, weight_decay, _plan)
    return loss, dw, dbias, du


def _backprop(net: Network, batch: np.ndarray, labels: np.ndarray, weight_decay: float, plan: _StepPlan):
    """Forward pass, loss and backward pass of one call through `plan`, on a
    validated batch and int64 labels: (loss, dBias, dU, forward trace)."""
    segs = plan.segments()
    trace = _forward(net, batch, segs)
    n, b = net.n, trace.x.shape[0]
    he = net.hidden_end
    w = net.weights

    loss, dlogits = _cross_entropy(trace.logits(net.n_out), labels)
    if weight_decay:
        # einsum reduces a strided view without the copy vdot would make
        wr = w[net.rect]
        loss += 0.5 * weight_decay * float(np.einsum("ij,ij->", wr, wr))

    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b

    du = np.zeros((b, n))
    dx = np.zeros((b, n))
    du[:, he:] = dlogits
    for s, e, _, pull in reversed(segs):
        if s < he:
            gate = trace.u[:, s:e] > 0.0  # ReLU
            # in-segment edges: pull each sender's dx from the later columns
            # it feeds, and finish each receiver's du, in reverse order
            for c, sends, receives in pull:
                j = s + c
                if sends:
                    dx[:, j] += du[:, j + 1 : e] @ w[j, j + 1 : e]
                if receives:
                    np.multiply(dx[:, j], gate[:, c], out=du[:, j])
            np.multiply(dx[:, s:e], gate, out=du[:, s:e])
        # nothing consumes the gradient of an input, so rows :n_in are skipped
        dx[:, net.n_in : s] += du[:, s:e] @ w[net.n_in : s, s:e].T
        target = plan.target(s, e)
        if target is None:
            continue
        r0, r1, blk, live = target
        np.matmul(trace.x[:, r0:r1].T, du[:, s:e], out=blk)
        # multiplying by True changes no float, so a dense block skips it
        if live is not None:
            blk *= live
        if weight_decay:
            blk += weight_decay * w[r0:r1, s:e]

    dbias = du[:, net.n_in :].sum(axis=0)
    return loss, dbias, du, trace


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
    output neurons are never removed. When every neuron stays, the network's
    arrays are left as they are.
    """
    alive = _path_flags(net)
    alive[: net.n_in] = True
    alive[net.hidden_end :] = True
    keep = np.flatnonzero(alive)
    if keep.size == net.n:  # nothing to compact
        return net
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
    if n > MAX_CHECKPOINT_NEURONS:
        raise ValueError(f"checkpoint names {n} neurons, above the ceiling of {MAX_CHECKPOINT_NEURONS}")
    # layer ids decide the segment partition, and numpy would truncate a
    # fractional id or parse a numeric string, so the entries are checked first
    layers, bias = d.get("layers"), d.get("bias")
    if layers is not None and not (isinstance(layers, list) and all(type(v) is int for v in layers)):
        raise ValueError("layers must be a list of integer layer ids")
    if layers is not None and len(layers) != n:
        raise ValueError(f"layers holds {len(layers)} layer ids for {n} neurons")
    if not (isinstance(bias, list) and all(type(v) in (int, float) for v in bias)):
        raise ValueError("bias must be a list of numbers")
    net = Network(*counts, mask=_rle_to_mask(d["mask_rle"], n), bias=bias, layers=layers)
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
