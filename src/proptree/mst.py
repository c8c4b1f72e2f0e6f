"""Tree enforcement: dense arc weights and Chu-Liu-Edmonds.

Greedy head selection can produce cycles or multiple roots.  This module
rebuilds a legal structure: every non-skip token becomes a node, each
candidate arc j->i is weighted with the log-probability of the best
non-skip label for that pair, and the maximum spanning arborescence rooted
at node 0 replaces the greedy heads, each kept arc with that best label.
Skip decisions are taken from the greedy output and never revisited.

A graph over k nodes is one (k, k) array ``weights[head, dependent]`` of
node positions, with -inf for a missing arc.  Self-arcs and arcs into the
root are never used: the decoder masks them, whatever they weigh.  It
contracts cycles one at a time in a single preallocated (2k - 1, 2k - 1)
array, so memory stays O(k^2) however deeply cycles nest.

Ties are broken deterministically, which makes the output a function of the
weights alone:
- when incoming arcs tie, the smaller head id wins;
- a contracted cycle ranks after every existing node, so it loses every tie;
- cycles are sought by walking heads from each node in ascending order, and
  the first cycle met is contracted first;
- when arcs leaving a cycle tie, the smaller cycle member is their source;
- when cycle-entry candidates tie, the smaller entry target wins.
An arc entering a contracted cycle at u weighs base + (w - cycle_score[u]),
where base sums the cycle's arc weights and cycle_score[u] is the weight of
u's arc inside the cycle.
"""

from __future__ import annotations

import numpy as np

from .data import EQUIVALENT, PART_OF, SEGMENT, SKIP, TokenHeadAssignment, first_cycle_node
from .joint import JointDistribution

# Labels an arc may carry inside the tree (skip never enters the graph).
ARC_LABELS = (PART_OF, SEGMENT, EQUIVALENT)

# Floor on probabilities before taking logs, keeping weights finite.
_P_FLOOR = 1e-300


class WeightedDigraph:
    """Arc weights over ascending node ids, root first."""

    def __init__(self, nodes: list[int], weights: np.ndarray):
        if not nodes or nodes[0] != 0:
            raise ValueError("node 0 (the root) must be present")
        self.nodes = list(nodes)
        self.weights = weights


def build_graph(dist: JointDistribution, greedy: TokenHeadAssignment) -> WeightedDigraph:
    """Full graph over greedy non-skip tokens, weighted by best-label log-prob."""
    keep = [t for t in range(1, greedy.n + 1) if greedy.label_of(t) != SKIP]
    nodes = [0] + keep
    # [dependent, head, label] -> [head, dependent, label]
    probs = dist.p[np.ix_(keep, nodes)][..., ARC_LABELS].transpose(1, 0, 2)
    weights = np.full((len(nodes), len(nodes)), -np.inf)
    weights[:, 1:] = np.log(np.maximum(probs.max(axis=2), _P_FLOOR))
    return WeightedDigraph(nodes, weights)


def chu_liu_edmonds(graph: WeightedDigraph) -> dict[int, int]:
    """Maximum-weight spanning arborescence rooted at 0; returns dep -> head."""
    k = len(graph.nodes)
    size = 2 * k - 1  # each contraction removes at least one node
    w = np.full((size, size), -np.inf)
    w[:k, :k] = graph.weights
    w[:, 0] = -np.inf
    np.fill_diagonal(w, -np.inf)

    def node_id(pos: int) -> int:
        return graph.nodes[pos] if pos < k else graph.nodes[-1] + pos - k + 1

    parent = np.zeros(size, dtype=int)
    parent[1:k] = w[:k, 1:k].argmax(axis=0)
    for v in range(1, k):
        if w[parent[v], v] == -np.inf:
            raise ValueError(f"node {node_id(v)} has no incoming arcs; tree impossible")

    active = np.arange(size) < k
    rooted = np.arange(size) == 0  # proved to reach the root; stays so
    contracted: list[tuple[int, np.ndarray]] = []
    start = 1
    while start < k + len(contracted):
        if not active[start] or rooted[start]:
            start += 1
            continue
        path, v = {}, start  # node -> step at which the walk met it
        while not rooted[v] and v not in path:
            path[v] = len(path)
            v = parent[v]
        if rooted[v]:
            rooted[list(path)] = True
            continue
        cycle = np.array(sorted(u for u, step in path.items() if step >= path[v]))

        # Contract the cycle into node c, numbered after every existing node.
        c = k + len(contracted)
        score = w[parent[cycle], cycle]
        active[cycle] = False
        live = np.flatnonzero(active)
        deps = live[1:]
        w[c, deps] = w[cycle[:, None], deps].max(axis=0)
        w[live, c] = sum(score.tolist()) + (w[live[:, None], cycle] - score).max(axis=1)
        if w[live, c].max() == -np.inf:
            raise ValueError(f"cycle {[node_id(u) for u in cycle]} cannot be entered "
                             "from outside; tree impossible")
        active[c] = True
        contracted.append((c, cycle))
        # Only c and nodes whose head was on the cycle can change head; live
        # nodes have live heads, so those heads are the ones just made inactive.
        redo = np.append(deps[~active[parent[deps]]], c)
        heads = np.append(live, c)
        parent[redo] = heads[w[heads[:, None], redo].argmax(axis=0)]

    # Expand, innermost cycle first: keep cycle arcs except at the entry
    # target, and give arcs that leave c their best concrete source.
    for c, cycle in reversed(contracted):
        head = parent[c]
        parent[cycle[(w[head, cycle] - w[parent[cycle], cycle]).argmax()]] = head
        leaving = np.flatnonzero(parent[:c] == c)
        parent[leaving] = cycle[w[cycle[:, None], leaving].argmax(axis=0)]
    return {graph.nodes[v]: graph.nodes[parent[v]] for v in range(1, k)}


def is_tree(assignment: TokenHeadAssignment) -> bool:
    """True when non-skip arcs form an arborescence over the non-skip tokens.

    Skip tokens must self-loop; every non-skip token needs a head that is
    either the root or another non-skip token, and following heads from any
    token must reach the root (no cycles, single component).
    """
    heads = {}
    for t in range(1, assignment.n + 1):
        head = assignment.head_of(t)
        if assignment.label_of(t) != SKIP:
            heads[t] = head
        elif head != t:
            return False
    if any(h != 0 and h not in heads for h in heads.values()):
        return False
    return first_cycle_node(heads) is None


def repair(dist: JointDistribution, greedy: TokenHeadAssignment) -> TokenHeadAssignment:
    """Replace non-skip arcs with the maximum spanning arborescence's arcs."""
    graph = build_graph(dist, greedy)
    parent = chu_liu_edmonds(graph)
    # Each kept arc's best label: the first maximum, as build_graph weighs it.
    best = dist.p[list(parent), list(parent.values())][:, ARC_LABELS].argmax(axis=1)
    heads = list(greedy.heads)
    labels = list(greedy.labels)
    for (dep, head), label in zip(parent.items(), best.tolist()):
        heads[dep - 1] = head
        labels[dep - 1] = ARC_LABELS[label]
    for t in range(1, greedy.n + 1):
        if labels[t - 1] == SKIP:
            heads[t - 1] = t
    return TokenHeadAssignment(heads, labels)
