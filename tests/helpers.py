"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
finite differences on plain callables, a parent walk, and a per-position
CRF forward loop.  Brute-force enumeration over tag paths and arborescences
comes from ``proptree.oracle``, which ``proptree selftest`` shares.  Tests
compare the package's analytic/algorithmic answers against these.  It also
holds the few small functions that only tests need.
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
