"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
finite differences on plain callables, a parent walk, per-position CRF
forward and Viterbi loops, and a frozen Chu-Liu-Edmonds.  Brute-force
enumeration over tag paths and arborescences comes from ``proptree.oracle``,
which ``proptree selftest`` shares.  Tests compare the package's
analytic/algorithmic answers against these.  It also holds the few small
functions that only tests need.
"""

import numpy as np

from proptree import nn
from proptree.data import EQUIVALENT, PART_OF


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
