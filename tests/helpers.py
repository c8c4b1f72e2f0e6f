"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
finite differences on plain callables, a parent walk, per-position CRF
forward and Viterbi loops and a path score, the CRF's earlier stacked
forward-backward and gradient scatter, its emission features as strings
and the training index they make, a frozen Chu-Liu-Edmonds, the
pipeline's earlier sparse feature table, and its earlier per-arc edge
features as strings with the candidate arcs they were read over,
Adam's step over whole arrays, the LSTM recurrence with fresh arrays
per step, the two training loops that ``nn.optim.fit`` replaced, the
three-branch BIO span decoder, the tape's backward loop that held
every gradient until its end, the per-head route of the pairwise MLP
scores, and the tree <-> heads codec with its quadratic grouping and its
segment walks that start over from every token.
Brute-force enumeration over tag paths and arborescences lives beside it
in ``oracle``.  Tests compare the package's analytic/algorithmic answers
against these.  It also holds the few small functions that only tests
need, such as a tree's summed arc weight and a CRF's log partition.
"""

import math
from typing import NamedTuple

import numpy as np

from proptree import nn
from proptree.data import (
    EQUIVALENT,
    PART_OF,
    ROOT_ID,
    SEGMENT,
    SKIP,
    Document,
    Entity,
    Mention,
    TokenHeadAssignment,
    encode_tree_to_heads,
    first_cycle_node,
)
from proptree.embeddings import EmbeddingTable
from proptree.joint import JointParser
from proptree.nn.optim import BETA1, BETA2, EPS
from proptree.synthetic import vocabulary
from proptree.train import JointRunner, TrainLog


def finite_difference(f, arrays, eps=1e-5):
    """Central finite differences of scalar f w.r.t. a list of arrays.

    f is called with no arguments and reads the arrays in place; returns
    a list of gradient arrays matching shapes.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f()
            flat[i] = orig - eps
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """Max elementwise relative error.

    Central differences at step 1e-5 in float64 carry ~5e-11 absolute noise,
    so entries below ~1e-6 cannot be compared relatively; the denominator
    floor keeps them to an absolute check instead.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def reaches_root(parents, v):
    seen = set()
    while v != 0:
        if v in seen:
            return False
        seen.add(v)
        v = parents[v]
    return True


def crf_reference_nll(emit, trans, y):
    """A linear-chain CRF's NLL of the tag ids ``y``, by one forward step per
    position that sums over the previous tag in order, then log Z over the
    last position and the path score added left to right.

    emit: (N, K) per-position tag scores; trans: (K, K) tag-to-tag scores.
    """
    alpha = emit[0]
    for i in range(1, len(emit)):
        a = alpha[:, None] + trans
        m = a.max(axis=0)
        alpha = np.log(np.exp(a - m).sum(axis=0)) + m + emit[i]
    m = alpha.max()
    log_z = np.log(np.exp(alpha - m).sum()) + m
    score = sum(emit[i, y[i]] for i in range(len(y)))
    score += sum(trans[y[i - 1], y[i]] for i in range(1, len(y)))
    return float(log_z - score)


def viterbi_reference(emit, trans):
    """The best tag path of a linear-chain CRF, one step per position over a
    (previous, next) array.  Ties: at each step the smaller previous tag wins,
    and at the end the smaller last tag wins (numpy's first argmax).

    emit: (N, K) per-position tag scores; trans: (K, K) tag-to-tag scores.
    """
    n, k = emit.shape
    delta = emit[0]
    back = np.zeros((n, k), dtype=int)
    for i in range(1, n):
        cand = delta[:, None] + trans
        back[i] = cand.argmax(axis=0)
        delta = cand.max(axis=0) + emit[i]
    path = [int(delta.argmax())]
    for i in range(n - 1, 0, -1):
        path.append(int(back[i, path[-1]]))
    return path[::-1]


def crf_forward_backward_reference(w, emit):
    """A frozen copy of ``CrfModel._forward_backward`` on plain arrays, before
    it reduced the outer axis: step i advances alpha[i] and beta[n-1-i] on one
    (2, K, K) stack of ``w`` and its transpose, reducing axis 1 in order.

    w: (K, K) tag-to-tag scores; emit: (N, K) per-position tag scores."""
    n, k = emit.shape
    pair, ends = np.stack([w, w.T]), np.stack([emit, emit[::-1]])
    alpha, beta = np.empty((n, k)), np.zeros((n, k))
    alpha[0], carry = emit[0], ends[:, 0]
    for i in range(1, n):
        a = pair + carry[:, :, None]
        m = a.max(axis=1)
        out = np.log(np.exp(a - m[:, None]).sum(axis=1)) + m
        carry = out + ends[:, i]  # alpha[i], and emit + beta at n-1-i
        alpha[i], beta[n - 1 - i] = carry[0], out[1]
    return alpha, beta


def scatter_reference(slots, grad, coeff):
    """A frozen copy of ``FeatureTable.scatter`` on plain arrays, before its
    index was worked out once per training case: add ``coeff[r]`` to
    ``grad[id]`` for every known id of row r of the (width, n) slot grid,
    row by row and each row left to right, into the C-contiguous ``grad``."""
    ids = slots.T
    known = ids >= 0
    k = math.prod(grad.shape[1:])
    flat = (ids[known][:, None] * k + np.arange(k)).ravel()
    np.add.at(grad.reshape(-1), flat, coeff.repeat(known.sum(axis=1), axis=0).ravel())


def emission_features(tokens, i):
    """A frozen copy of the CRF's emission-feature strings for position i
    (0-based) of ``tokens``, in template order: the reference for
    ``CrfModel.features`` and the training index."""
    w = tokens[i]
    return ["bias", f"w={w}", f"lc={w.lower()}", f"p2={w[:2]}", f"p3={w[:3]}",
            f"s2={w[-2:]}", f"s3={w[-3:]}", f"dig={int(w.isdigit())}",
            f"prev={tokens[i - 1] if i > 0 else '<s>'}",
            f"next={tokens[i + 1] if i + 1 < len(tokens) else '</s>'}"]


def feature_index_from_corpus(docs):
    """The CRF's training index as the strings built it: every emission
    feature of every position of ``docs``, numbered in name order."""
    feats = {f for doc in docs for i in range(len(doc.tokens))
             for f in emission_features(doc.tokens, i)}
    return {f: i for i, f in enumerate(sorted(feats))}


def crf_log_partition(model, tokens):
    """A CRF's log Z over ``tokens``: the log-sum-exp of its last forward column."""
    alpha = model._forward_backward(model.emissions(model.features(tokens)))[0][-1]
    m = alpha.max()
    return float(np.log(np.exp(alpha - m).sum()) + m)


def sequence_score(model, tokens, tags):
    """A CRF's score of the tag path ``tags`` over ``tokens``: the emissions
    position by position, then the transitions, each added left to right."""
    emit = model.emissions(model.features(tokens))
    y = [model.tag_index[t] for t in tags]
    score = sum(float(emit[i, y[i]]) for i in range(len(y)))
    return score + sum(float(model.w_trans.data[a, b]) for a, b in zip(y, y[1:]))


class SparseFeatureTable(NamedTuple):
    """A frozen copy of the pipeline's earlier sparse feature table: the known
    feature ids of ``n`` rows in template order, ``ids[j]`` belonging to row
    ``rows[j]``, summed and scattered with ``np.add.at``.  The reference for
    ``crf.FeatureTable``."""

    ids: np.ndarray
    rows: np.ndarray
    n: int

    @classmethod
    def from_slots(cls, slots):
        """The table of a (width, n) slot grid in which -1 marks an unknown feature."""
        grid = slots.T
        rows, cols = np.nonzero(grid >= 0)
        return cls(grid[rows, cols], rows, len(grid))

    def sums(self, w):
        """Each row's sum of ``w[id]`` over its ids, left to right; 0 for a row without ids."""
        out = np.zeros((self.n, *w.shape[1:]))
        np.add.at(out, self.rows, w[self.ids])
        return out

    def scatter(self, grad, coeff):
        """Add ``coeff[r]`` to ``grad[id]`` for every id of every row r."""
        np.add.at(grad, self.ids, coeff[self.rows])


def candidate_arcs(entities):
    """Every candidate arc ``(h, m, parent, child)`` over nodes 0..t.

    Node 0 is the root (``parent`` None) and node i is ``entities[i - 1]``.
    The root is only ever a parent and no entity heads itself.  Arcs come
    child-major: for m = 1..t the root first, then heads 1..t ascending.
    """
    nodes = [None, *entities]
    for m in range(1, len(nodes)):
        for h in range(len(nodes)):
            if h != m:
                yield h, m, nodes[h], nodes[m]


def _bucket(n):
    if n <= 3:
        return str(n)
    return "4-6" if n <= 6 else "7+"


def extract_edge_features(parent, child, tokens):
    """A frozen copy of the pipeline's edge-feature strings for one candidate
    parent->child arc (``parent`` None for the root), in template order: the
    reference for ``edge_models.arc_features`` and the training index."""
    cm = child.main_mention()
    c_tok = tokens[cm.anchor - 1]
    feats = ["bias", f"c_tok={c_tok}", f"c_type={child.type}"]
    if parent is None:
        feats += [
            "p_tok=<root>", "p_type=<root>",
            f"pair=<root>>{child.type}", "dist=root", "order=root",
        ]
        return feats
    pm = parent.main_mention()
    p_tok = tokens[pm.anchor - 1]
    feats += [f"p_tok={p_tok}", f"p_type={parent.type}", f"pair={parent.type}>{child.type}"]
    if pm.end <= cm.start:
        between = tokens[pm.end - 1:cm.start - 1]
        feats.append("order=parent-first")
    elif cm.end <= pm.start:
        between = tokens[cm.end - 1:pm.start - 1]
        feats.append("order=child-first")
    else:
        between = []
        feats.append("order=overlap")
    feats.append(f"dist={_bucket(abs(pm.anchor - cm.anchor))}")
    feats.append(f"btw_n={_bucket(len(between))}")
    for tok in sorted(set(between)):
        feats.append(f"btw={tok}")
    return feats


def edge_index_reference(docs):
    """The edge models' training index as the strings built it: every feature
    of every candidate arc of ``docs``, numbered in name order."""
    feats = {f for doc in docs for _, _, parent, child in candidate_arcs(doc.entities)
             for f in extract_edge_features(parent, child, doc.tokens)}
    return {f: i for i, f in enumerate(sorted(feats))}


def arborescence_weight(graph, parent):
    """The summed weight of the arcs of ``parent`` (dep -> head) in ``graph``."""
    pos = {v: i for i, v in enumerate(graph.nodes)}
    return sum(float(graph.weights[pos[h], pos[d]]) for d, h in parent.items())


def cle_reference(graph):
    """A frozen copy of ``proptree.mst.chu_liu_edmonds`` with its tie rules:
    the reference for that function's parent dicts and error messages."""
    k = len(graph.nodes)
    size = 2 * k - 1
    w = np.full((size, size), -np.inf)
    w[:k, :k] = graph.weights
    w[:, 0] = -np.inf
    np.fill_diagonal(w, -np.inf)

    def node_id(pos):
        return graph.nodes[pos] if pos < k else graph.nodes[-1] + pos - k + 1

    parent = np.zeros(size, dtype=int)
    parent[1:k] = w[:k, 1:k].argmax(axis=0)
    for v in range(1, k):
        if w[parent[v], v] == -np.inf:
            raise ValueError(f"node {node_id(v)} has no incoming arcs; tree impossible")

    active = np.arange(size) < k
    rooted = np.arange(size) == 0
    contracted = []
    start = 1
    while start < k + len(contracted):
        if not active[start] or rooted[start]:
            start += 1
            continue
        path, v = {}, start
        while not rooted[v] and v not in path:
            path[v] = len(path)
            v = parent[v]
        if rooted[v]:
            rooted[list(path)] = True
            continue
        cycle = np.array(sorted(u for u, step in path.items() if step >= path[v]))
        c = k + len(contracted)
        score = w[parent[cycle], cycle]
        active[cycle] = False
        live = np.flatnonzero(active)
        deps = live[1:]
        w[c, deps] = w[np.ix_(cycle, deps)].max(axis=0)
        w[live, c] = sum(score.tolist()) + (w[np.ix_(live, cycle)] - score).max(axis=1)
        if w[live, c].max() == -np.inf:
            raise ValueError(f"cycle {[node_id(u) for u in cycle]} cannot be entered "
                             "from outside; tree impossible")
        active[c] = True
        contracted.append((c, cycle))
        redo = np.append(deps[np.isin(parent[deps], cycle)], c)
        heads = np.append(live, c)
        parent[redo] = heads[w[np.ix_(heads, redo)].argmax(axis=0)]

    for c, cycle in reversed(contracted):
        head = parent[c]
        parent[cycle[(w[head, cycle] - w[parent[cycle], cycle]).argmax()]] = head
        leaving = np.flatnonzero(parent[:c] == c)
        parent[leaving] = cycle[w[np.ix_(cycle, leaving)].argmax(axis=0)]
    return {graph.nodes[v]: graph.nodes[parent[v]] for v in range(1, k)}


def adam_step_reference(opt):
    """A frozen copy of ``proptree.nn.Adam.step`` over whole arrays, before it
    ran in blocks: one step of ``opt``, on its parameters, ``_m`` and ``_v``."""
    opt.t += 1
    for p, m, v in zip(opt.params, opt._m, opt._v):
        a, c = np.empty_like(p.data), np.empty_like(p.data)
        g = p.grad
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=a), g, out=a)
        step = np.divide(m, 1.0 - BETA1 ** opt.t, out=a)
        step *= opt.lr
        denom = np.sqrt(np.divide(v, 1.0 - BETA2 ** opt.t, out=c), out=c)
        denom += EPS
        step /= denom
        p.data -= step


def crf_fit_reference(params, name, cases, add_grad, lam, epochs, lr, seed):
    """A frozen copy of the pipelines' earlier Adam loop ``crf.fit``, over the
    tensors ``params`` of the model class ``name``: every step adds the L2
    term ``lam / len(cases)`` times the weights, even for ``lam`` 0, then
    ``add_grad(*case)``; the weights are checked once per epoch."""
    opt = nn.Adam(params, lr=lr)
    reg = lam / len(cases)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, epochs + 1):
            for idx in rng.permutation(len(cases)):
                opt.zero_grad()
                opt.grad += reg * opt.data
                add_grad(*cases[idx])
                opt.step()
            if not np.isfinite(opt.data).all():
                raise FloatingPointError(f"{name}: non-finite parameters after epoch {epoch}")


def train_joint_reference(config, train_docs, dev_docs, table=None):
    """A frozen copy of ``proptree.train.train_joint`` with its own epoch loop,
    before it trained through ``nn.optim.fit``: the forward pass before
    ``zero_grad``, a check per document, and early stopping on a stale count."""
    if table is None:
        table = EmbeddingTable.random(vocabulary(train_docs), config.d, seed=config.seed)
    model = JointParser(table, config)
    runner = JointRunner(model)
    golds = [encode_tree_to_heads(doc) for doc in train_docs]
    val_docs = dev_docs if dev_docs else train_docs
    opt = nn.Adam(model.params_named().values(), lr=config.lr)
    shuffle_rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    log = TrainLog()
    best_f1 = -1.0
    best_params = np.empty_like(opt.data)
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        total = 0.0
        for idx in shuffle_rng.permutation(len(train_docs)):
            doc = train_docs[idx]
            with nn.Tape() as tape:
                loss = model.loss(doc.tokens, golds[idx], rng=drop_rng)
            opt.zero_grad()
            tape.backward(loss)
            if not np.isfinite(loss.item() + opt.grad.sum()):
                raise FloatingPointError(
                    f"non-finite loss or gradient in epoch {epoch}, document {doc.id!r}")
            opt.step()
            total += loss.item()
        report = runner.evaluate(val_docs)
        log.add(epoch, total / len(train_docs), report, 0.0)
        if report.overall.f1 > best_f1:
            best_f1 = report.overall.f1
            log.best_epoch = epoch
            best_params[...] = opt.data
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if log.best_epoch:
        opt.data[...] = best_params
    return runner, log


def tape_backward_reference(tape, loss):
    """A frozen copy of ``nn.Tape.backward``'s loop before leaf gradients were
    added as they arrived: every gradient, a leaf's too, waits in a dict
    beside a second dict from ids back to tensors, and the leaves' ``grad``
    buffers are added to once, after the loop."""
    grads = {id(loss): np.ones((), dtype=np.float64)}
    holders = {id(loss): loss}
    for out, inputs, bwd in reversed(tape._records):
        g = grads.pop(id(out), None)
        holders.pop(id(out), None)
        if g is None:
            continue
        for t, gt in zip(inputs, bwd(g)):
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gt
            else:
                grads[key] = gt
                holders[key] = t
    for key, g in grads.items():
        t = holders[key]
        if t.requires_grad:
            t.grad += g


def lstm_sequence_reference(x, wx, wh, b, g, reverse=False):
    """A frozen copy of ``proptree.nn.lstm_sequence`` on plain arrays, before
    its steps wrote in place: returns the hidden states H and the gradients
    (dx, dwx, dwh, db) for the upstream gradient ``g`` of H."""
    n, d = x.shape[0], wh.shape[1]
    xs = x[::-1] if reverse else x
    s = np.full(4 * d, 0.5)
    s[2 * d:3 * d] = 1.0
    shift = 1.0 - s
    zs = (xs @ wx.T + b) * s
    whs = wh * s[:, None]
    gates = np.empty((n, 4 * d))
    H = np.zeros((n + 1, d))
    C = np.zeros((n + 1, d))
    TC = np.empty((n, d))
    for t in range(n):
        y = gates[t] = np.tanh(zs[t] + whs @ H[t]) * s + shift
        c = C[t + 1] = y[d:2 * d] * C[t] + y[:d] * y[2 * d:3 * d]
        tc = TC[t] = np.tanh(c)
        H[t + 1] = y[3 * d:] * tc

    gs = g[::-1] if reverse else g
    i, f, cand, o = (gates[:, k * d:(k + 1) * d] for k in range(4))
    dgate = (1.0 - gates) * (gates + (2.0 * s - 1.0))
    mult = dgate * np.concatenate([cand, C[:-1], i, TC], axis=1)
    dh_from_c = o * (1.0 - TC * TC)
    dZ = np.empty((n, 4 * d))
    dh_next = np.zeros(d)
    dc_next = np.zeros(d)
    for t in range(n - 1, -1, -1):
        dh = gs[t] + dh_next
        dc = dh * dh_from_c[t] + dc_next
        dz = dZ[t] = mult[t] * np.concatenate((dc, dc, dc, dh))
        dc_next = dc * f[t]
        dh_next = dz @ wh
    dx = dZ @ wx
    return (H[:0:-1] if reverse else H[1:],
            (dx[::-1] if reverse else dx, dZ.T @ xs, dZ.T @ H[:-1], dZ.sum(axis=0)))


def distribution_reference(scorer, states):
    """A frozen copy of the joint distribution as ``JointParser.distribution``
    built it before it was written in place (``rows_to_distribution`` over
    ``distribution_rows``), on plain arrays: per label the projections of
    ``states[1:]`` and ``states``, ``pair_mlp``'s forward pass over blocks of
    16 rows, then the (R, C, 4) stack, its rows' softmax, and a zero-filled
    array with the root row.  Returns the (M, M, 4) array P."""
    m_pos, n_labels = states.shape[0], len(scorer.w)
    labels = []
    for w, u, b, v in zip(scorer.w, scorer.u, scorer.b, scorer.v):
        rows, cols = states[1:] @ w.data.T, states @ u.data.T
        out = np.empty((m_pos - 1, m_pos))
        for r0 in range(0, m_pos - 1, 16):
            blk = cols + rows[r0:r0 + 16, None, :]
            blk += b.data
            out[r0:r0 + 16] = (np.tanh(blk).reshape(-1, v.shape[0]) @ v.data).reshape(-1, m_pos)
        labels.append(out)
    rows = np.stack(labels, axis=2).reshape(m_pos - 1, m_pos * n_labels)
    y = rows - rows.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    p = np.zeros((m_pos, m_pos, n_labels))
    p[1:] = y.reshape(m_pos - 1, m_pos, n_labels)
    return p


def pair_mlp_reference(rows, cols, heads, g):
    """A frozen copy of the pairwise MLP scores as the joint scorer and
    additive attention built them from per-head tape ops, before
    ``nn.pair_mlp`` took every head, on plain arrays.

    Per head k = (w, u, b, v): the projections ``rows @ w.T`` and
    ``cols @ u.T``, then the pair op's forward pass over blocks of 16 rows,
    and its backward pass from the contiguous slice ``g[:, :, k]`` (the
    backward pass of the old stack).  The tape walked the heads from K-1
    down to 0 and summed each input's gradients in that order, the first by
    assignment and each later one as ``a + b``.  Returns the (R, C, K)
    scores, the cols and rows gradients and the leaf gradients
    [dw0, du0, db0, dv0, dw1, ...]."""
    n_rows, n_cols = rows.shape[0], cols.shape[0]
    scores = np.empty((n_rows, n_cols, len(heads)))
    kept = []
    for k, (w, u, b, v) in enumerate(heads):
        pr, pc = rows @ w.T, cols @ u.T
        y = np.empty((n_rows, n_cols, v.shape[0]))
        for r0 in range(0, n_rows, 16):
            blk = y[r0:r0 + 16]
            blk[...] = pc + pr[r0:r0 + 16, None, :]
            blk += b
            np.tanh(blk, out=blk)
            scores[r0:r0 + 16, :, k] = (blk.reshape(-1, v.shape[0]) @ v).reshape(-1, n_cols)
        kept.append(y)
    d_cols = d_rows = None
    leaf = [None] * (4 * len(heads))
    for k in range(len(heads) - 1, -1, -1):
        (w, u, b, v), y, gk = heads[k], kept[k], np.take(g, k, axis=2)
        dr, dc, dv = np.empty((n_rows, v.shape[0])), np.zeros((n_cols, v.shape[0])), 0.0
        for r0 in range(0, n_rows, 16):
            yb, gb = y[r0:r0 + 16], gk[r0:r0 + 16]
            d = gb[:, :, None] * v * (1.0 - yb * yb)
            dr[r0:r0 + 16] = d.sum(axis=1)
            dc += d.sum(axis=0)
            dv = dv + gb.reshape(-1) @ yb.reshape(-1, v.shape[0])
        d_cols = dc @ u if d_cols is None else d_cols + dc @ u
        d_rows = dr @ w if d_rows is None else d_rows + dr @ w
        leaf[4 * k:4 * k + 4] = (rows.T @ dr).T, (cols.T @ dc).T, dc.sum(axis=0), dv
    return scores, d_cols, d_rows, leaf


def bio_decode_spans_reference(tags):
    """The BIO span decoder with one branch per tag kind, each with its own
    close and open: ``O`` closes, ``B-`` closes and opens, and an ``I-``
    that does not continue the open span's type closes and opens."""
    spans = []
    start = None
    cur = None
    for i, tag in enumerate(tags, start=1):
        if tag == "O":
            if start is not None:
                spans.append((start, i, cur))
                start = None
        elif tag.startswith("B-"):
            if start is not None:
                spans.append((start, i, cur))
            start, cur = i, tag[2:]
        elif tag.startswith("I-"):
            if start is None or tag[2:] != cur:
                if start is not None:
                    spans.append((start, i, cur))
                start, cur = i, tag[2:]
        else:
            raise ValueError(f"bad BIO tag {tag!r} at position {i}")
    if start is not None:
        spans.append((start, len(tags) + 1, cur))
    return spans


def encode_tree_to_heads_reference(doc):
    """``data.encode_tree_to_heads`` as it was, finding each entity's first
    mention twice with a key function: the same checks, in the same order,
    with the same messages."""

    def main_mention(e):
        return min(e.mentions, key=lambda m: (m.start, m.end))

    n = doc.n
    heads = list(range(1, n + 1))
    labels = [SKIP] * n

    def put(t, h, c):
        if labels[t - 1] != SKIP:
            raise ValueError(f"document {doc.id!r}: token {t} assigned twice (overlapping mentions?)")
        heads[t - 1], labels[t - 1] = h, c

    parents = {e.id: e.parent for e in doc.entities}
    if len(parents) != len(doc.entities):
        raise ValueError(f"document {doc.id!r}: duplicate entity ids")
    if ROOT_ID in parents:
        raise ValueError(f"document {doc.id!r}: entity id {ROOT_ID!r} names the document root")
    for e in doc.entities:
        if not (e.type is None or isinstance(e.type, str)):
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has type {e.type!r}, not a string")
        if not e.mentions:
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has no mentions")
        if e.parent != ROOT_ID and e.parent not in parents:
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has unknown parent {e.parent!r}")
    looped = first_cycle_node(parents, root=ROOT_ID)
    if looped is not None:
        raise ValueError(f"document {doc.id!r}: parent links form a cycle through {looped!r}")
    anchors = {e.id: main_mention(e).anchor for e in doc.entities} | {ROOT_ID: 0}

    for e in doc.entities:
        main = main_mention(e)
        for m in e.mentions:
            if not m.end - 1 <= n:
                raise ValueError(f"document {doc.id!r}: mention [{m.start}, {m.end}) exceeds {n} tokens")
            for t in range(m.start, m.end - 1):
                put(t, m.anchor, SEGMENT)
            if m is not main:
                put(m.anchor, main.anchor, EQUIVALENT)
        put(main.anchor, anchors[e.parent], PART_OF)

    return TokenHeadAssignment(heads, labels)


def decode_heads_to_tree_reference(assignment, tokens, doc_id="decoded"):
    """``data.decode_heads_to_tree`` as it was: each segment token walks its
    chain afresh with a list lookup (O(L^3) for a chain of L tokens), and
    each entity scans every mention for its own (O(E^2))."""
    n = assignment.n
    if len(tokens) != n:
        raise ValueError(f"{len(tokens)} tokens but assignment covers {n}")

    heads, labels = assignment.heads, assignment.labels

    def resolve_anchor(t):
        seen = []
        while labels[t - 1] == SEGMENT:
            seen.append(t)
            t = heads[t - 1]
            if t == 0 or t in seen:
                raise ValueError(f"segment arcs from token {seen[0]} do not reach an anchor: {seen + [t]}")
        return t

    anchor_positions = [t for t in range(1, n + 1) if labels[t - 1] in (PART_OF, EQUIVALENT)]
    members = {a: [a] for a in anchor_positions}
    for t in range(1, n + 1):
        if labels[t - 1] == SEGMENT:
            a = resolve_anchor(t)
            if labels[a - 1] == SKIP:
                raise ValueError(f"token {t}: segment arc resolves to skip token {a}")
            members[a].append(t)

    spans = {}
    for a, ts in members.items():
        lo, hi = min(ts), max(ts)
        if hi != a:
            raise ValueError(f"anchor {a} is not the last token of its span [{lo}, {hi}]")
        if sorted(ts) != list(range(lo, hi + 1)):
            raise ValueError(f"mention at anchor {a} is not contiguous: {sorted(ts)}")
        spans[a] = Mention(lo, hi + 1)

    mains = sorted(a for a in anchor_positions if labels[a - 1] == PART_OF)
    ids = {a: f"T{i + 1}" for i, a in enumerate(mains)}

    group_of = {}
    for a in anchor_positions:
        first = heads[a - 1] if labels[a - 1] == EQUIVALENT else a
        if first not in ids:
            raise ValueError(f"token {a}: repeat-mention arc points at {first}, which anchors no first mention")
        if first > a:
            raise ValueError(f"token {a}: repeat-mention arc must point backwards, got head {first}")
        group_of[a] = first

    entities = []
    for a in mains:
        h = heads[a - 1]
        if h == 0:
            parent = ROOT_ID
        else:
            p = resolve_anchor(h)
            if p not in ids:
                raise ValueError(f"token {a}: parent arc points at {h}, which anchors no entity")
            parent = ids[p]
        own = sorted((m for m, g in group_of.items() if g == a), key=lambda m: spans[m].start)
        entities.append(Entity(ids[a], None, [spans[m] for m in own], parent))

    looped = first_cycle_node({e.id: e.parent for e in entities}, root=ROOT_ID)
    if looped is not None:
        raise ValueError(f"document {doc_id!r}: parent links form a cycle through {looped!r}")
    return Document(doc_id, list(tokens), entities)


def sigmoid(a):
    """sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 as tape ops: no overflow branch,
    and it saturates to exactly 0 and 1.  ``nn.lstm_sequence`` uses the same
    identity."""
    return nn.scale(nn.tanh(nn.scale(a, 0.5)), 0.5) + 0.5


def entity_by_id(doc, eid):
    for e in doc.entities:
        if e.id == eid:
            return e
    raise KeyError(f"no entity {eid!r} in document {doc.id!r}")


def has_crossing_arcs(assignment):
    """True if any two entity-level arcs cross when drawn above the sentence.

    Only ``PART_OF`` and ``EQUIVALENT`` arcs participate; segment arcs live
    inside single mentions and cannot cross anything meaningful.
    """
    arcs = []
    for t in range(1, assignment.n + 1):
        if assignment.labels[t - 1] in (PART_OF, EQUIVALENT):
            h = assignment.heads[t - 1]
            arcs.append((min(t, h), max(t, h)))
    for i in range(len(arcs)):
        a, b = arcs[i]
        for j in range(i + 1, len(arcs)):
            c, e = arcs[j]
            if a < c < b < e or c < a < e < b:
                return True
    return False
