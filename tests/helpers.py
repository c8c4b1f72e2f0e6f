"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
finite differences on plain callables, a parent walk, per-position CRF
forward and Viterbi loops and a path score, a frozen Chu-Liu-Edmonds, the
pipeline's earlier sparse feature table, and its earlier per-arc edge
features as strings with the candidate arcs they were read over,
Adam's step over whole arrays, and the LSTM recurrence with fresh arrays
per step.
Brute-force enumeration over tag paths and arborescences lives beside it
in ``oracle``.  Tests compare the package's analytic/algorithmic answers
against these.  It also holds the few small functions that only tests
need, such as a tree's summed arc weight and a CRF's log partition.
"""

from typing import NamedTuple

import numpy as np

from proptree import nn
from proptree.data import EQUIVALENT, PART_OF
from proptree.nn.optim import BETA1, BETA2, EPS


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
