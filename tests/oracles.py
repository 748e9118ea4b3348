"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately naive (nested loops, per-neuron interpreters,
full sorts, finite differences) and shares no code path with the package.
The blocked-walk reference is not naive: it does the engine's walk
arithmetic on fresh arrays, one allocation per product, so that the step
program's bound walk can be checked against it bit for bit.
The dense training reference takes its gradients from a function it is
given, so that it checks only the optimizer's bookkeeping.
"""

import numpy as np


def naive_forward(n_in, n_out, mask, weights, bias, sample):
    """Interpretive per-neuron evaluation of one sample in topological order."""
    n = mask.shape[0]
    hidden_end = n - n_out
    x = np.zeros(n)
    x[:n_in] = sample
    for j in range(n_in, n):
        u = bias[j - n_in]
        for i in range(j):
            if mask[i, j]:
                u += weights[i, j] * x[i]
        x[j] = u if j >= hidden_end else max(u, 0.0)
    return x


def naive_backward(n_in, n_out, mask, weights, bias, samples, labels, weight_decay=0.0):
    """dU, dW and dbias of the mean softmax cross-entropy (plus the L2 decay
    on active weights), by backpropagating each sample on its own in reverse
    topological order over the mask. dU holds no input columns' gradient."""
    n = mask.shape[0]
    hidden_end = n - n_out
    batch = len(samples)
    du = np.zeros((batch, n))
    dw = np.zeros((n, n))
    dbias = np.zeros(n - n_in)
    for b, (sample, label) in enumerate(zip(samples, labels)):
        x = naive_forward(n_in, n_out, mask, weights, bias, sample)
        logits = x[hidden_end:]
        e = np.exp(logits - logits.max())
        for k in range(n_out):
            du[b, hidden_end + k] = (e[k] / e.sum() - (k == label)) / batch
        for j in range(hidden_end - 1, n_in - 1, -1):
            if x[j] > 0.0:  # relu passes the gradient where u > 0
                for k in range(j + 1, n):
                    if mask[j, k]:
                        du[b, j] += weights[j, k] * du[b, k]
        for j in range(n_in, n):
            dbias[j - n_in] += du[b, j]
            for i in range(j):
                if mask[i, j]:
                    dw[i, j] += x[i] * du[b, j]
    for i in range(n):
        for j in range(n):
            if mask[i, j]:
                dw[i, j] += weight_decay * weights[i, j]
    return du, dw, dbias


def blocked_walk(ws, blocks, ub):
    """The preactivations of a walking run by the blocked-walk reference:
    in-run weights `ws`, sub-blocks `blocks` as the step plan cuts them
    ((p, q, fed, receivers, feeds, senders) each) and `ub`, the part of
    every neuron's preactivation from before the run. Each sub-block adds
    the earlier sub-blocks' part with one GEMM, then each of its receivers
    the part from inside the sub-block with one gemv, in order, on freshly
    allocated neuron-major arrays. Returns a (batch, run) view."""
    ut = np.ascontiguousarray(ub.T)
    xt = np.maximum(ut, 0.0)
    for p, q, fed, receivers, _, _ in blocks:
        if fed:
            ut[p:q] += ws[:p, p:q].T @ xt[:p]
            np.maximum(ut[p:q], 0.0, out=xt[p:q])
        for c in receivers:
            ut[c] += ws[p:c, c] @ xt[p:c]
            np.maximum(ut[c], 0.0, out=xt[c])
    return ut.T


def blocked_pull(ws, blocks, xs, dxs):
    """dU of a walking run by the blocked-walk reference, from its
    activations `xs` and `dxs`, the part of dx from every neuron after the
    run: `blocked_walk` in reverse. Each sub-block, from the last, adds what
    the later sub-blocks pull with one GEMM and sets its dU, then each of
    its senders, from the last, pulls from inside the sub-block with one
    gemv and resets its dU. Returns a (batch, run) view."""
    gate = np.ascontiguousarray(xs.T) > 0.0
    dxt = np.ascontiguousarray(dxs.T)
    dut = np.empty_like(dxt)
    for p, q, _, _, feeds, senders in reversed(blocks):
        if feeds:
            dxt[p:q] += ws[p:q, q:] @ dut[q:]
        np.multiply(dxt[p:q], gate[p:q], out=dut[p:q])
        for c in senders:
            dxt[c] += ws[c, c + 1 : q] @ dut[c + 1 : q]
            np.multiply(dxt[c], gate[c], out=dut[c])
    return dut.T


def fd_gradient(loss_fn, get, setv, eps=1e-5):
    """Central finite difference of loss_fn w.r.t. one scalar parameter."""
    orig = get()
    setv(orig + eps)
    plus = loss_fn()
    setv(orig - eps)
    minus = loss_fn()
    setv(orig)
    return (plus - minus) / (2.0 * eps)


def longest_path_dp(n_in, n_out, mask):
    """Longest input-to-output path length via a plain DP; -1 when none exists."""
    n = mask.shape[0]
    dist = [0 if v < n_in else None for v in range(n)]
    for j in range(n):
        for i in range(j):
            if mask[i, j] and dist[i] is not None:
                cand = dist[i] + 1
                if dist[j] is None or cand > dist[j]:
                    dist[j] = cand
    best = -1
    for j in range(n - n_out, n):
        if dist[j] is not None and dist[j] > best:
            best = dist[j]
    return best


def scan_connection_count(n_in, n_out, mask):
    """Edge popcount plus biases of neurons lying on an input-output path."""
    n = mask.shape[0]
    edges = sum(1 for i in range(n) for j in range(n) if mask[i, j])
    fwd = [v < n_in for v in range(n)]
    for j in range(n):
        if not fwd[j]:
            fwd[j] = any(mask[i, j] and fwd[i] for i in range(j))
    bwd = [v >= n - n_out for v in range(n)]
    for i in range(n - 1, -1, -1):
        if not bwd[i]:
            bwd[i] = any(mask[i, j] and bwd[j] for j in range(i + 1, n))
    biases = sum(1 for v in range(n_in, n) if fwd[v] and bwd[v])
    return edges + biases


def fixed_point_isolated(n_in, n_out, mask):
    """Surviving-neuron flags after repeatedly dropping dead hidden neurons."""
    n = mask.shape[0]
    hidden_end = n - n_out
    alive = [True] * n
    changed = True
    while changed:
        changed = False
        for v in range(n_in, hidden_end):
            if not alive[v]:
                continue
            ins = any(mask[i, v] and alive[i] for i in range(v))
            outs = any(mask[v, j] and alive[j] for j in range(v + 1, n))
            if not ins or not outs:
                alive[v] = False
                changed = True
    return alive


def topk_by_magnitude(entries, k):
    """Survivors under |w| ranking with (i, j) lexicographic tie-break.

    entries: list of (i, j, w) for every active connection.
    """
    ranked = sorted(entries, key=lambda t: (-abs(t[2]), t[0], t[1]))
    return {(i, j) for i, j, _ in ranked[:k]}


def dense_sgd_momentum_step(weights, bias, state, dw, dbias, lr, momentum, weight_decay):
    """One SGD-momentum step with n x n velocity, updating every entry in place.

    The weight decay is folded into the step: the velocity takes
    dw + weight_decay * weights, the gradient of the decayed loss, where dw
    is the gradient without decay. Biases do not decay.
    state: dict that carries the velocities between steps (empty at first).
    """
    vel_w = state.setdefault("vel_w", np.zeros_like(weights))
    vel_b = state.setdefault("vel_b", np.zeros_like(bias))
    vel_w *= momentum
    vel_w += dw + weight_decay * weights
    vel_b *= momentum
    vel_b += dbias
    weights -= lr * vel_w
    bias -= lr * vel_b


def dense_adam_step(weights, bias, state, dw, dbias, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step with n x n moments, in place; see
    dense_sgd_momentum_step for `weight_decay` and `state`."""
    state["step"] = state.get("step", 0) + 1
    for key, p, g in (("w", weights, dw + weight_decay * weights), ("b", bias, dbias)):
        m = state.setdefault("m_" + key, np.zeros_like(p))
        v = state.setdefault("v_" + key, np.zeros_like(p))
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        bc1 = 1 - beta1 ** state["step"]
        bc2 = 1 - beta2 ** state["step"]
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def dense_training(net, x, y, opt, rng, gradients):
    """What training `net` on (x, y) under the optimizer config `opt` should
    give, in place: the same minibatches, each epoch's order drawn from `rng`
    as training draws it, the n x n dW and dbias of `gradients(net, x, y)`
    (the public loss_and_gradients) and the dense steps above, then the
    weights masked, as training leaves them."""
    state = {}
    for _ in range(opt.epochs_per_iteration):
        order = rng.permutation(len(y))
        for s in range(0, len(y), opt.batch_size):
            idx = order[s : s + opt.batch_size]
            _, dw, dbias, _ = gradients(net, x[idx], y[idx])
            if opt.kind == "sgd_momentum":
                dense_sgd_momentum_step(
                    net.weights, net.bias, state, dw, dbias, opt.learning_rate, opt.momentum, opt.weight_decay
                )
            else:
                dense_adam_step(net.weights, net.bias, state, dw, dbias, opt.learning_rate, opt.weight_decay)
    net.weights *= net.mask


def lexsort_budget_keep(mask, weights, budget):
    """Edges a budget prune keeps before isolated-neuron removal: the budget
    largest |w|, ties in (i, j) order, ranked by one three-key lexsort."""
    ii, jj = np.nonzero(mask)
    order = np.lexsort((jj, ii, -np.abs(weights[ii, jj])))
    return {(int(ii[t]), int(jj[t])) for t in order[:budget]}


def pairwise_sq_dists(points):
    n = len(points)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            d = points[a] - points[b]
            out[(a, b)] = float(np.dot(d, d))
    return out


def rescan_candidates(rows, baseline_acc):
    """Re-derive the candidate set from a result table by exhaustive scanning.

    rows: list of dicts with keys kind, k, val_acc, connections. Returns the
    set of (kind, k) selected plus the flagged subset, mirroring the rule:
    top three accuracies union top three most-compressed runs that meet the
    baseline accuracy; when nothing meets it, the compressed slots are filled
    with the nearest misses and flagged.
    """
    def ident(r):
        return (r["kind"], r["k"])

    by_acc = sorted(rows, key=lambda r: (-r["val_acc"], r["connections"], r["kind"], r["k"]))
    top_acc = [ident(r) for r in by_acc[:3]]
    qualifying = [r for r in rows if r["val_acc"] >= baseline_acc]
    flagged = []
    if qualifying:
        by_comp = sorted(qualifying, key=lambda r: (r["connections"], -r["val_acc"], r["kind"], r["k"]))
        top_comp = [ident(r) for r in by_comp[:3]]
    else:
        by_miss = sorted(rows, key=lambda r: (baseline_acc - r["val_acc"], r["connections"], r["kind"], r["k"]))
        top_comp = [ident(r) for r in by_miss[:3]]
        flagged = list(top_comp)
    selected = []
    for x in top_acc + top_comp:
        if x not in selected:
            selected.append(x)
    return set(selected), set(flagged)


def closed_form_mlp_energy(d, h, c, e_mac=11.8e-12, e_sram=34.6e-12, e_cmp=6.16e-15):
    macs = d * h + h * c
    return macs * (e_mac + 2 * e_sram) + h * e_cmp


def dense_bundle_labels(bundle, raw_rows):
    """Raw labels of `raw_rows` under a bundle dict, evaluated densely: each
    preprocess step in plain numpy (normalize, a PCA reduce, a
    random-projection reduce), then every neuron in Kahn order of the
    checkpoint's weight triples, then the argmax logit through the label map."""
    x = np.asarray(raw_rows, dtype=np.float64)
    for step in bundle["preprocess"]:
        if step["op"] == "normalize":
            x = (x - np.array(step["min"])) * np.array(step["scale"])
        elif step["reducer"]["kind"] == "pca":
            x = (x - np.array(step["reducer"]["mean"])) @ np.array(step["reducer"]["components"])
        else:
            x = x @ np.array(step["reducer"]["matrix"])
    ck = bundle["checkpoint"]
    n_in, n_hidden, n_out = ck["n_in"], ck["n_hidden"], ck["n_out"]
    n = n_in + n_hidden + n_out
    incoming = [[] for _ in range(n)]
    outgoing = [[] for _ in range(n)]
    for i, j, w in ck["weights"]:
        incoming[j].append((i, w))
        outgoing[i].append(j)
    waiting = [len(edges) for edges in incoming]
    ready = [v for v in range(n) if not waiting[v]]
    values = np.zeros((len(x), n))
    while ready:
        v = ready.pop()
        if v < n_in:
            values[:, v] = x[:, v]
        else:
            u = ck["bias"][v - n_in] + sum(values[:, i] * w for i, w in incoming[v])
            values[:, v] = np.maximum(u, 0.0) if v < n_in + n_hidden else u
        for j in outgoing[v]:
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)
    inverse = {v: k for k, v in bundle["label_map"].items()}
    return [inverse[int(c)] for c in np.argmax(values[:, n_in + n_hidden :], axis=1)]
