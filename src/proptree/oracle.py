"""Brute-force oracles over tree and tag-path spaces small enough to enumerate.

``selftest`` and the test suite check the tree decoder, the matrix-tree
model and the CRF against these.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

import numpy as np

from .data import first_cycle_node


def enumerate_arborescences(n: int) -> Iterator[dict[int, int]]:
    """Every spanning arborescence over nodes {0..n-1} rooted at 0, as dep -> head."""
    choices = [[h for h in range(n) if h != v] for v in range(1, n)]
    for heads in itertools.product(*choices):
        parents = dict(enumerate(heads, start=1))
        if first_cycle_node(parents) is None:
            yield parents


def best_arborescence_weight(n: int, weight: Callable[[int, int], float | None]) -> float | None:
    """Largest summed weight(h, v) over arborescences; weight returns None for no arc."""
    best = None
    for parents in enumerate_arborescences(n):
        arcs = [weight(h, v) for v, h in parents.items()]
        if None not in arcs:
            total = sum(arcs, 0.0)
            if best is None or total > best:
                best = total
    return best


def arborescence_log_z_and_marginals(theta: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Over arborescences of theta's nodes that use only finite arcs: log of
    the summed exp(sum of theta[h, v]) and each arc's marginal probability,
    an (n, n) array indexed [h, v]. None when no such arborescence exists."""
    trees = [parents for parents in enumerate_arborescences(len(theta))
             if all(np.isfinite(theta[h, v]) for v, h in parents.items())]
    if not trees:
        return None
    weights = np.array([sum(theta[h, v] for v, h in parents.items()) for parents in trees])
    log_z = float(np.logaddexp.reduce(weights))
    marginals = np.zeros(theta.shape)
    for parents, weight in zip(trees, weights):
        for v, h in parents.items():
            marginals[h, v] += np.exp(weight - log_z)
    return log_z, marginals


def chain_log_z_marginals_and_best(emit: np.ndarray, trans: np.ndarray
                                   ) -> tuple[float, np.ndarray, np.ndarray, list[int], float]:
    """Over every tag path of a linear chain with (n, k) emission and (k, k)
    transition scores: log Z, the (n, k) node marginals, the (k, k) transition
    marginals summed over positions, and the first best path with its score."""
    n, k = emit.shape
    paths = np.array(list(itertools.product(range(k), repeat=n)))
    scores = emit[range(n), paths].sum(axis=1) + trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    log_z = float(np.logaddexp.reduce(scores))
    prob = np.exp(scores - log_z)
    nodes = np.array([np.bincount(paths[:, i], prob, k) for i in range(n)])
    pairs = np.zeros((k, k))
    np.add.at(pairs, (paths[:, :-1], paths[:, 1:]), prob[:, None])
    best = int(np.argmax(scores))
    return log_z, nodes, pairs, paths[best].tolist(), float(scores[best])
