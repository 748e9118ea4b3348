"""General feed-forward network over a totally ordered neuron set.

Neurons are globally ordered: inputs first, hidden next, outputs last. Any
earlier neuron may feed any later one, so the wiring (a strictly
upper-triangular bool mask) determines the depth of the network rather than
a fixed layer structure. Pruned weights are exactly zero, so the arithmetic
works off the weight matrix alone.

Forward and backward passes visit the same partition of the non-input
neurons into segments (`_StepPlan.segments`): hidden neurons are cut into
layer runs wherever the layer id changes, each run is one segment, however
wide, and the outputs form the last segment, so no segment mixes hidden and
output neurons. Each segment costs one GEMM for the contributions of all
earlier neurons. The output segment's GEMMs start at the first row that
holds a nonzero weight into the outputs, read from the weights: on an MLP
the inputs, which feed no output, drop out of the forward GEMM, and the
backward pass multiplies dU by a C-ordered copy of the transposed weight
block, which OpenBLAS's threaded kernels run ~10x faster than the strided
transpose.

Edges between two neurons of one run (walk columns are the neurons that
receive one) are finished by a walk over a neuron-major (run, batch) copy of
the run, cut into sub-blocks of WALK_BLOCK neurons. The forward walk visits
the sub-blocks in order: one GEMM adds the contributions of the earlier
sub-blocks, then each receiver inside the sub-block adds those from inside
it with one gemv over contiguous rows, in order. The backward pull does the
same in reverse: one GEMM pulls into each sub-block's dx from the later
sub-blocks' dU, then each sender inside it pulls from the later neurons of
the sub-block and resets its dU. A run the mask holds no edge inside is a
walk-free segment, read without its weights, which are zero off the mask;
any other run's walk and sub-blocks are described by its nonzero weights.
Activating a connection with weight zero therefore cannot perturb any float
result.

No edge ends at an input or starts at an output, so only the legal
rectangle `Network.rect` (rows [0, hidden_end) by columns [n_in, n)) of the
mask and weights can be nonzero. Every active connection lies in one of the
`live_blocks`: a hidden layer run's columns (or the output columns) by the
row range of the senders the mask activates into them. Segments and live
blocks line up one to one, and the backward pass writes each segment's dW
in its live block only, so a layer run never multiplies its own same-layer
square unless a grown edge lies in it. It leaves dU's input columns at
zero: it never computes the gradient with respect to an input, which
nothing consumes.

Every call runs through a step plan (`_StepPlan`), built once per training
call and once per public call. It fixes the layer runs, which of them the
mask holds an edge inside, and each segment's dW target; it rebuilds the
walk of a run whose nonzero pattern changed since the last step, since a
grown edge starts at weight zero, where it needs no walk, and turns nonzero
after the first update. Per batch size it keeps a step program
(`_Program`): every operation of a step bound once to its views of the
weights, the bias and the step buffers (the activations, dU and dx, each
segment's preactivations, the neuron-major copies of the walking runs, and
a scratch that takes each product before it is added), including one tuple
per walk receiver and pull sender, so that a step makes only its numpy
calls, each into an out= buffer, and a walk only its gemvs, adds and ReLUs
or gates. A rebuilt segment's operations are bound anew. Each entry sees
the operations it would see on fresh arrays, in the same order, and a GEMM
or gemv given an out= buffer is the same BLAS call, so the buffers move no
float. The backward ReLU gate reads u > 0 from the preactivations the
program keeps, which equals x > 0, since x = max(u, 0), NaN included. A
plan without dW blocks writes no dW, and `_backprop` returns the
activations it ran on, so a caller that needs only dU and the activations
(gradient-based growth) runs one forward and one backward pass and no dW
GEMM. Training, `forward`, `predict` and the growth scores all run
programs; each `predict` call, and so each block thread of `infer`, builds
a plan of its own.

The graph passes (`depth`, `connection_count`, `prune_isolated_neurons`)
use the same layer runs: a run without an edge inside it, and the outputs,
take their distances and path flags as one block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


# neurons per sub-block of a walking run (`_run_segment`). One SGD step at
# batch 128 with the full in-run triangle (2-core host, medians of 15
# interleaved runs, two sessions) took on 784-200-10 4.14-4.30 ms at 16,
# 4.20-4.33 at 32, 4.30-4.37 at 64 and 4.24-4.30 at 8, and on 784-400-10
# 8.21-8.44 ms at 16, 8.36-8.47 at 32, 8.43-8.49 at 64 and 8.48-8.53 at 8.
WALK_BLOCK = 16
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


def _layer_runs(net: Network) -> list[tuple[int, int, bool]]:
    """Hidden neuron ranges [a, e) of one layer id each, in order (all hidden
    neurons form one run when the network has no layer ids), each with
    whether the mask holds an edge between two of its neurons. A run without
    one is one block to the step plan and to the graph passes."""
    cuts = [net.n_in]
    if net.layers is not None:
        cuts += (np.flatnonzero(np.diff(net.layers[net.n_in : net.hidden_end])) + net.n_in + 1).tolist()
    cuts.append(net.hidden_end)
    return [(a, e, bool(net.mask[a:e, a:e].any())) for a, e in zip(cuts, cuts[1:]) if a < e]


_NO_WALK = np.empty(0, dtype=np.int64)


def _run_segment(nonzero: np.ndarray, a: int, e: int) -> tuple[int, int, np.ndarray, tuple]:
    """The segment (a, e, walk, (0, blocks)) of the hidden run [a, e) whose
    in-run nonzero weights are `nonzero`; see the module doc. `walk` holds
    the offsets in [0, e - a) of the run's walk columns. A walking run is
    cut into sub-blocks [p, q) of WALK_BLOCK neurons, each listed in
    `blocks` as (p, q, fed, receivers, feeds, senders): whether a nonzero
    weight joins an earlier sub-block to it (fed) and it to a later one
    (feeds), its neurons that receive a nonzero weight from inside it in
    ascending order, and those that send one inside it in descending order.
    A run that does not walk has no blocks."""
    walk = np.flatnonzero(nonzero.any(axis=0))
    blocks = []
    for p in range(0, e - a if walk.size else 0, WALK_BLOCK):
        q = min(p + WALK_BLOCK, e - a)
        inner = nonzero[p:q, p:q]
        receivers = (np.flatnonzero(inner.any(axis=0)) + p).tolist()
        senders = (np.flatnonzero(inner.any(axis=1)) + p).tolist()[::-1]
        blocks.append((p, q, bool(nonzero[:p, p:q].any()), receivers, bool(nonzero[p:q, q:].any()), senders))
    return a, e, walk, (0, tuple(blocks))


def live_blocks(net: Network) -> list[tuple[slice, slice]]:
    """Blocks that hold every active connection: each hidden layer run's
    columns, and the output columns, by the row range of the senders the
    mask activates into them. Read from the mask and layer ids only."""
    blocks = []
    for s, e, _ in _layer_runs(net) + [(net.hidden_end, net.n, False)]:
        rows = np.flatnonzero(net.mask[:e, s:e].any(axis=1))
        if rows.size:
            blocks.append((slice(int(rows[0]), int(rows[-1]) + 1), slice(s, e)))
    return blocks


class _StepPlan:
    """What the steps of one call share (module doc): one segment per layer
    run, rebuilt when the run's nonzero pattern changes, each segment's dW
    target, the dBias buffer, and one step program (`_Program`) per batch
    size.

    `dw_blocks` holds a (block, buffer, reads_all) triple per live block
    (`live_blocks`); the dW of the segment whose columns a block holds goes
    into its whole buffer. `reads_all` says whether the buffer's reader
    reads every entry of the block, so that the entries the mask leaves
    inactive must be zero; a reader of the active entries alone gets them as
    the GEMM leaves them. With no blocks the plan writes no dW. `dbias`, if
    given, is the buffer every step's dBias goes into. A run the mask holds
    no edge inside is a walk-free segment whose weights are never read.

    A plan lives for one call: the mask must not change while it is used,
    and its programs hold views of `net.weights` and `net.bias`, so a step
    after either array was replaced (`prune_isolated_neurons` compaction,
    neuron insertion) raises RuntimeError rather than train dead views.
    """

    def __init__(self, net: Network, dw_blocks: list, dbias: np.ndarray | None = None):
        self.net = net
        self.bound = (net.weights, net.bias)
        w, he = net.weights, net.hidden_end
        # [a, e, active in-run connections (0: never walks), view of the
        # in-run weights, nonzero count and pattern the segment was built
        # from, segment]
        self.runs = [
            [a, e, int(np.count_nonzero(net.mask[a:e, a:e])) if inner else 0, w[a:e, a:e], -1, None,
             (a, e, _NO_WALK, (0, ()))]
            for a, e, inner in _layer_runs(net)
        ]
        # the first row the mask activates into the outputs (from the first
        # active flat offset: 77 µs on 784-500-10, any(axis=1) 227 µs), its
        # weights into them, and the output segment
        into_outputs = np.flatnonzero(net.mask[:he, he:])
        self.out_row = int(into_outputs[0]) // net.n_out if into_outputs.size else he
        self.out_weights = w[self.out_row, he:]
        self.out_seg = None
        # by a segment's first column: its dW block's rows [r0, r1), buffer,
        # and mask where the reader needs the inactive entries zeroed, else None
        self.targets = {}
        for (rows, cols), buf, reads_all in dw_blocks:
            live = net.mask[rows, cols]
            self.targets[cols.start] = (rows.start, rows.stop, buf, live if reads_all and not live.all() else None)
        self.dbias = dbias
        self.programs = {}
        self.bufs = None

    def segments(self) -> list[tuple[int, int, np.ndarray, tuple]]:
        """This step's segments, in order: (s, e, walk, (r, blocks)) with the
        first row r the segment's forward GEMM reads (`_run_segment` gives
        the rest). The outputs send no edges, so their segment never walks,
        and it reads from the first row that holds a nonzero weight into
        them. A segment is the same object until it changes. Nonzero weights
        lie inside the mask, so a run whose nonzero count equals its active
        count has the mask's pattern, and a mask row into the outputs that
        holds a nonzero weight is the first such row."""
        net = self.net
        he = net.hidden_end
        for run in self.runs:
            a, e, active, ws, count, last, _ = run
            if not active or active == count == np.count_nonzero(ws):
                continue
            nonzero = ws != 0
            if last is None or not np.array_equal(nonzero, last):
                run[4:] = int(np.count_nonzero(nonzero)), nonzero, _run_segment(nonzero, a, e)
        r = self.out_row
        if r < he and not np.count_nonzero(self.out_weights):
            weighted = np.flatnonzero(net.weights[:he, he:])
            r = int(weighted[0]) // net.n_out if weighted.size else he
        if self.out_seg is None or self.out_seg[3][0] != r:
            self.out_seg = (he, net.n, _NO_WALK, (r, ()))
        return [run[-1] for run in self.runs] + [self.out_seg]

    def program(self, b: int) -> _Program:
        """The program for a batch of b rows, bound to this step's segments."""
        if self.net.weights is not self.bound[0] or self.net.bias is not self.bound[1]:
            raise RuntimeError("the network's weights or bias were replaced while a step plan was in use")
        segs = self.segments()
        prog = self.programs.get(b)
        if prog is None:
            if self.bufs is None or len(self.bufs[0]) < b:
                # x, dU, dx, the product scratch and the preactivations for
                # the largest batch so far, whose leading entries every
                # program uses; a larger batch gets new ones and new
                # programs. One allocation of all five would lift glibc's
                # mmap threshold so far that later n x n temporaries stay on
                # the heap (+15 MB peak RSS on a 784-500-10 synthesis)
                n = self.net.n
                x, du, dx = (np.empty((b, n)) for _ in range(3))
                self.bufs = (x, du, dx, np.empty(b * n), np.empty(b * (n - self.net.n_in)))
                self.programs = {}
            prog = self.programs[b] = _Program(self, b)
        prog.bind(segs)
        return prog


class _Program:
    """Every operation of one step of a plan at batch size b, each bound to
    its views of the network and of buffers kept for the plan's life (module
    doc): the leading b rows of the plan's activations x, dU and dx, the
    leading entries of its flat scratch, which takes each product before it
    is added, and of its preactivations, one contiguous (b, width) block
    per segment, and the program's own neuron-major copies and gates of the
    walking runs. The programs of a plan share the plan's buffers, since a
    step runs one program from start to end. dU's input columns are zero
    from the first gradient step on, since no step writes them. A segment's
    operations are rebuilt when `_StepPlan.segments` gives a new segment
    for it."""

    def __init__(self, plan: _StepPlan, b: int):
        net = plan.net
        n, n_in, he = net.n, net.n_in, net.hidden_end
        # no reference back to the plan, whose programs this would put in a
        # cycle that holds the buffers until the garbage collector runs
        self.net, self.targets, self.b = net, plan.targets, b
        x, du, dx, self.tmp, self.pres = plan.bufs
        self.x, self.du, self.dx = x[:b], du[:b], dx[:b]
        self.wt = np.empty(net.n_out * (he - n_in))
        self.dbias = np.empty(n - n_in) if plan.dbias is None else plan.dbias
        self.top, self.total = np.empty((b, 1)), np.empty((b, 1))
        self.z, self.ez, self.lse = np.empty((b, net.n_out)), np.empty((b, net.n_out)), np.empty(b)
        # the flat offset of each row's first entry in a (b, n_out) array
        self.row_starts = np.arange(b) * net.n_out
        self.inputs, self.logits, self.sums = self.x[:, :n_in], self.x[:, he:], self.total[:, 0]
        self.dlogits, self.grads, self.du_inputs = self.du[:, he:], self.du[:, n_in:], self.du[:, :n_in]
        k = len(plan.runs)
        self.segs = [None] * (k + 1)
        # per hidden segment, its forward and backward operations and its
        # preactivations; the output segment's in `out_fwd` / `out_bwd`
        self.fwd, self.bwd, self.pre = [None] * k, [None] * k, [None] * (k + 1)
        self.out_fwd = self.out_bwd = None

    def _tmp(self, *shape) -> np.ndarray:
        return self.tmp[: math.prod(shape)].reshape(shape)

    def _pre(self, s: int, e: int) -> np.ndarray:
        """The contiguous (b, e - s) preactivation buffer of segment [s, e)."""
        n_in, b = self.net.n_in, self.b
        return self.pres[b * (s - n_in) : b * (e - n_in)].reshape(b, e - s)

    def _target(self, s: int, e: int):
        target = self.targets.get(s)
        if target is None:
            return None
        r0, r1, blk, live = target
        return self.x[:, r0:r1].T, self.du[:, s:e], blk, live

    def bind(self, segs: list) -> None:
        for i, seg in enumerate(segs):
            if seg is not self.segs[i]:
                self.segs[i] = seg
                if i < len(self.fwd):
                    self.fwd[i], self.bwd[i], self.pre[i] = self._hidden_ops(*seg)
                else:
                    self._output_ops(*seg)

    def _hidden_ops(self, s, e, walk, rb):
        net, b, x, du, dx = self.net, self.b, self.x, self.du, self.dx
        w, n_in = net.weights, net.n_in
        ub = self._pre(s, e)
        xo, dxs, dus = x[:, s:e], dx[:, s:e], du[:, s:e]
        spread = None
        if s > n_in:
            spread = (dus, w[n_in:s, s:e].T, self._tmp(b, s - n_in), dx[:, n_in:s])
        if not walk.size:
            fwd = (x[:, :s], w[:s, s:e], ub, net.bias[s - n_in : e - n_in], None, ub, xo)
            bwd = (ub, np.empty((b, e - s), dtype=bool), dxs, dus, None, spread, self._target(s, e))
            return fwd, bwd, ub
        ws = w[s:e, s:e]
        ut, xt, dxt, dut = (np.empty((e - s, b)) for _ in range(4))
        gate = np.empty((e - s, b), dtype=bool)
        tv = self.tmp[:b]
        blocks = rb[1]
        steps = []
        for p, q, fed, receivers, _, _ in blocks:
            if fed:
                steps.append((ws[:p, p:q].T, xt[:p], self._tmp(q - p, b), ut[p:q], xt[p:q]))
            steps += [(ws[p:c, c], xt[p:c], tv, ut[c], xt[c]) for c in receivers]
        pull = []
        for p, q, _, _, feeds, senders in reversed(blocks):
            pull.append((ws[p:q, q:] if feeds else None, dut[q:], self._tmp(q - p, b), dxt[p:q], gate[p:q], dut[p:q]))
            pull += [(ws[c, c + 1 : q], dut[c + 1 : q], tv, dxt[c], gate[c], dut[c]) for c in senders]
        fwd = (x[:, :s], w[:s, s:e], ub, net.bias[s - n_in : e - n_in], (ut, xt, steps), ut.T, xo)
        bwd = (ut, gate, dxs, dus, (dxt, dut, pull), spread, self._target(s, e))
        return fwd, bwd, ut.T

    def _output_ops(self, s, e, walk, rb):
        net, b, x, dx = self.net, self.b, self.x, self.dx
        w, he, r = net.weights, net.hidden_end, rb[0]
        ub = self._pre(s, e)
        self.pre[-1] = ub
        self.out_fwd = (x[:, r:he], w[r:he, he:], ub, net.bias[he - net.n_in :])
        # the weights into the outputs from row r on, C-ordered and
        # transposed; no hidden neuron before r feeds an output, and
        # nothing consumes the gradient of an input
        r = min(max(r, net.n_in), he)
        spread = None
        if r < he:
            wt = self.wt[: (e - s) * (he - r)].reshape(e - s, he - r)
            spread = (w[r:he, he:].T, wt, self._tmp(b, he - r), dx[:, r:he])
        # the output GEMM's product + 0.0 sets dx from row r on, with the
        # bits of adding it to zero; the hidden rows before r are zeroed
        self.out_bwd = (dx[:, net.n_in : r] if r > net.n_in else None, spread, self._target(s, e))

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """The activations of a checked batch of b rows. Each ufunc takes its
        out= buffer by position where numpy allows it, which saves the
        keyword's parse on every small call."""
        np.copyto(self.inputs, batch)
        for xin, win, ub, bias, walk, pre, xo in self.fwd:
            np.matmul(xin, win, ub)
            np.add(ub, bias, ub)
            if walk is not None:
                # sub-block by sub-block in a neuron-major copy of the run:
                # a GEMM from the earlier sub-blocks, then a gemv per receiver
                ut, xt, steps = walk
                np.copyto(ut, ub.T)
                np.maximum(ut, 0.0, out=xt)
                for a, xa, t, ur, xr in steps:
                    np.matmul(a, xa, t)
                    np.add(ur, t, ur)
                    np.maximum(ur, 0.0, out=xr)
            np.maximum(pre, 0.0, out=xo)  # ReLU
        xin, win, ub, bias = self.out_fwd
        np.matmul(xin, win, ub)
        np.add(ub, bias, ub)
        np.copyto(self.logits, ub)
        return self.x

    def cross_entropy(self, labels: np.ndarray) -> float:
        """The mean softmax cross-entropy of the labels from the last
        forward pass; writes its gradient into the output columns of dU."""
        # the logits as the output GEMM left them, contiguous, where every
        # pass is one inner loop
        if self.du_inputs is not None:
            # dU's input columns, which no step writes, are zeroed by the
            # first gradient step, so that a forward-only program (predict)
            # never touches dU
            self.du_inputs.fill(0.0)
            self.du_inputs = None
        logits, z, ez = self.out_fwd[2], self.z, self.ez
        np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True, out=self.top), z)
        np.exp(z, ez)
        np.add.reduce(ez, axis=1, keepdims=True, out=self.total)
        np.log(self.sums, self.lse)
        picks = self.row_starts + labels
        # add.reduce / b gives the bits of .mean() without its Python overhead
        loss = float(np.add.reduce(np.subtract(self.lse, z.reshape(-1)[picks], self.lse)) / self.b)
        np.divide(ez, self.total, ez)
        ez.reshape(-1)[picks] -= 1.0
        np.divide(ez, self.b, ez)
        np.copyto(self.dlogits, ez)
        return loss

    def backward(self) -> None:
        """dU, dW into the plan's targets and dBias, from the last forward
        pass and cross-entropy: the segments in reverse, a walking run's
        pull sub-block by sub-block in reverse (module doc)."""
        zero, spread, target = self.out_bwd
        if zero is not None:
            zero.fill(0.0)
        if spread is not None:
            wsrc, wt, t, dxr = spread
            np.copyto(wt, wsrc)
            np.matmul(self.dlogits, wt, t)
            np.add(t, 0.0, dxr)
        _write_dw(target)
        for pre, gate, dxs, dus, pull, spread, target in reversed(self.bwd):
            # ReLU passes the gradient where u > 0, read from the
            # contiguous preactivations the forward pass left
            np.greater(pre, 0.0, gate)
            if pull is None:
                np.multiply(dxs, gate, dus)
            else:
                dxt, dut, steps = pull
                np.copyto(dxt, dxs.T)
                for a, da, t, dxr, g, dur in steps:
                    if a is not None:
                        np.matmul(a, da, t)
                        np.add(dxr, t, dxr)
                    np.multiply(dxr, g, dur)
                np.copyto(dus, dut.T)
            if spread is not None:
                a, wsrc, t, dxr = spread
                np.matmul(a, wsrc, t)
                np.add(dxr, t, dxr)
            _write_dw(target)
        np.add.reduce(self.grads, axis=0, out=self.dbias)


def _write_dw(target) -> None:
    """A segment's dW into its target buffer (`_Program._target`), if it
    has one."""
    if target is not None:
        xr, du, blk, live = target
        np.matmul(xr, du, blk)
        # multiplying by True changes no float, so a dense block skips it
        if live is not None:
            np.multiply(blk, live, blk)


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
    batch = _check_batch(net, batch)
    prog = _StepPlan(net, []).program(len(batch))
    x = prog.forward(batch)
    u = np.empty_like(x)
    u[:, : net.n_in] = batch
    for (s, e, *_), pre in zip(prog.segs, prog.pre):
        u[:, s:e] = pre
    return ForwardTrace(u=u, x=x)


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

    dW is n x n and masked (exactly zero wherever the mask is False). With
    weight_decay, the loss adds 0.5 * weight_decay * ||W||^2 and dW adds
    weight_decay * W over the live blocks, after the backward pass has
    written them. dU holds dLoss/du for every neuron and sample, which
    gradient-based connection growth consumes; its input columns are zero,
    since no edge ends at an input.

    `_plan` is for training, which builds one `_StepPlan` per call over the
    dW buffers of its live blocks and its dBias buffer, folds the decay into
    its update (so a call with a plan refuses a weight_decay), and validates
    the batch and labels once, so that this call does not. Each segment
    then writes its dW into the whole buffer of its live block, the only
    write to a buffer.
    Where the buffer's reader reads the whole block, the write leaves zero
    wherever the mask is False (a dense block, mask all True, skips the mask
    multiply, which would change no float); a reader of the active entries
    alone gets the inactive ones unmasked. dW is then returned as None, and
    dBias and dU are the plan's buffers, which the next call overwrites.
    Without a plan, the call validates its inputs and runs a one-off plan
    whose buffers are the live blocks' views of a fresh n x n dW.

    Segments are visited in reverse; a walking run pulls its dU through its
    sub-blocks in reverse (module doc). Each sub-block's GEMM needs dU final
    in every later neuron of the run, which the reverse order gives; each
    sender's gemv needs it final in the later neurons of its sub-block,
    which the descending order of the senders gives, since a neuron that
    sends nothing inside the sub-block has its dU set before any sender
    pulls.
    """
    if _plan is not None:
        if weight_decay:
            raise ValueError("a call through a step plan takes no weight_decay: training folds it into its update")
        loss, dbias, du, _ = _backprop(_plan, batch, labels)
        return loss, None, dbias, du
    labels = _check_labels(net, labels)
    batch = _check_batch(net, batch)
    dw = np.zeros((net.n, net.n))
    blocks = live_blocks(net)
    # each live block's dW is written into its view of dW, read whole
    loss, dbias, du, _ = _backprop(_StepPlan(net, [(blk, dw[blk], True) for blk in blocks]), batch, labels)
    if weight_decay:
        # einsum reduces a strided view without the copy vdot would make
        wr = net.weights[net.rect]
        loss += 0.5 * weight_decay * float(np.einsum("ij,ij->", wr, wr))
        for blk in blocks:
            dw[blk] += weight_decay * net.weights[blk]
    return loss, dw, dbias, du


def _backprop(plan: _StepPlan, batch: np.ndarray, labels: np.ndarray):
    """Forward pass, loss and backward pass of one step through `plan`, on
    a validated batch and int64 labels: (loss, dBias, dU, activations), the
    last three the buffers of the plan's program for this batch size, which
    the next step at that size overwrites."""
    prog = plan.program(batch.shape[0])
    prog.forward(batch)
    loss = prog.cross_entropy(labels)
    prog.backward()
    return loss, prog.dbias, prog.du, prog.x


def predict(net: Network, batch: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Argmax class per row, evaluated in chunks."""
    batch = np.asarray(batch, dtype=np.float64)
    if len(batch):
        _check_batch(net, batch)
    return _predict(net, batch, batch_size)


def _predict(net: Network, batch: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """`predict` of a checked float64 batch through a plan of its own, so
    that every caller, each thread among them, owns its buffers."""
    plan = _StepPlan(net, [])
    out = np.empty(len(batch), dtype=np.int64)
    for s in range(0, len(batch), batch_size):
        chunk = batch[s : s + batch_size]
        x = plan.program(len(chunk)).forward(chunk)
        np.argmax(x[:, net.hidden_end :], axis=1, out=out[s : s + len(chunk)])
    return out


def accuracy(net: Network, batch: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float(np.mean(predict(net, batch) == labels))


def _longest_paths(net: Network) -> np.ndarray:
    """Edge length of the longest active path from an input to each neuron,
    -1 where no input reaches it. A layer run without an edge inside it, and
    the outputs, take their senders' distances as one block."""
    dist = np.full(net.n, -1, dtype=np.int64)
    dist[: net.n_in] = 0
    for a, e, inner in _layer_runs(net) + [(net.hidden_end, net.n, False)]:
        # per column of the run, the largest distance of an active sender
        # before the run, by distance in descending order
        deepest = np.full(e - a, -1, dtype=np.int64)
        senders = net.mask[:a, a:e]
        for d in np.unique(dist[:a])[::-1].tolist():
            if d < 0:
                break
            deepest[senders[dist[:a] == d].any(axis=0) & (deepest < 0)] = d
        dist[a:e] = np.where(deepest >= 0, deepest + 1, -1)
        if inner:
            for j in range(a + 1, e):
                d = max(int(deepest[j - a]), dist[a:j][net.mask[a:j, j]].max(initial=-1))
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
    are reached from an input. A layer run without an edge inside it is one
    block, read after every later neuron.
    """
    n_in = net.n_in
    bwd = np.zeros(net.n, dtype=bool)
    bwd[net.hidden_end :] = True
    for a, e, inner in reversed(_layer_runs(net)):
        bwd[a:e] = (net.mask[a:e, e:] & bwd[e:]).any(axis=1)
        if inner:
            for i in range(e - 2, a - 1, -1):
                bwd[i] |= np.any(net.mask[i, i + 1 : e] & bwd[i + 1 : e])
    # no input feeds an input, so the input rows need no order
    bwd[:n_in] = (net.mask[:n_in, n_in:] & bwd[n_in:]).any(axis=1)
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
