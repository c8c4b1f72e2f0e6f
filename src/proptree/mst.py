"""Tree enforcement: weighted digraph construction and Chu-Liu-Edmonds.

Greedy head selection can produce cycles or multiple roots.  This module
rebuilds a legal structure: every non-skip token becomes a node, each
candidate arc j->i is weighted with the log-probability of the best
non-skip label for that pair, and the maximum spanning arborescence rooted
at node 0 replaces the greedy heads.  Skip decisions are taken from the
greedy output and never revisited.

Ties are broken deterministically: when incoming edges tie, the smaller
head index wins; when cycle-entry candidates tie, the smaller entry target
wins.
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
    """Dense arc weights over {0} + non-skip token positions."""

    def __init__(self, nodes: list[int]):
        if nodes[0] != 0:
            raise ValueError("node 0 (the root) must be present")
        self.nodes = list(nodes)
        self.weights: dict[tuple[int, int], float] = {}
        self.arc_labels: dict[tuple[int, int], int] = {}

    def add_arc(self, head: int, dep: int, weight: float, label: int) -> None:
        if dep == head:
            raise ValueError(f"self-arc on node {head}")
        if dep == 0:
            raise ValueError("arcs into the root are not allowed")
        self.weights[(head, dep)] = weight
        self.arc_labels[(head, dep)] = label

    def weight(self, head: int, dep: int) -> float:
        return self.weights[(head, dep)]


def build_graph(dist: JointDistribution, greedy: TokenHeadAssignment) -> WeightedDigraph:
    """Full graph over greedy non-skip tokens, weighted by best-label log-prob."""
    keep = [t for t in range(1, greedy.n + 1) if greedy.label_of(t) != SKIP]
    graph = WeightedDigraph([0] + keep)
    for dep in keep:
        for head in [0] + keep:
            if head == dep:
                continue
            probs = dist.p[dep, head, list(ARC_LABELS)]
            best = int(np.argmax(probs))
            weight = float(np.log(max(probs[best], _P_FLOOR)))
            graph.add_arc(head, dep, weight, ARC_LABELS[best])
    return graph


def chu_liu_edmonds(graph: WeightedDigraph) -> dict[int, int]:
    """Maximum-weight spanning arborescence rooted at 0; returns dep -> head."""
    nodes = [v for v in graph.nodes if v != 0]
    if not nodes:
        return {}
    incoming: dict[int, dict[int, float]] = {v: {} for v in nodes}
    for (h, d), w in graph.weights.items():
        incoming[d][h] = w
    parent = _solve(set(graph.nodes), incoming, next_id=max(graph.nodes) + 1)
    return parent


def _best_head(options: dict[int, float]) -> int:
    """Highest weight; ties go to the smaller head index."""
    return min(options, key=lambda h: (-options[h], h))


def _solve(nodes: set[int], incoming: dict[int, dict[int, float]], next_id: int) -> dict[int, int]:
    parent: dict[int, int] = {}
    for v in sorted(n for n in nodes if n != 0):
        if not incoming[v]:
            raise ValueError(f"node {v} has no incoming arcs; tree impossible")
        parent[v] = _best_head(incoming[v])

    cycle = _find_cycle(parent)
    if cycle is None:
        return parent

    # Contract the cycle into one pseudo-node and solve the smaller problem.
    cyc = set(cycle)
    cnode = next_id
    cycle_score = {v: incoming[v][parent[v]] for v in cyc}

    new_incoming: dict[int, dict[int, float]] = {}
    enter_via: dict[int, tuple[int, int]] = {}
    leave_via: dict[int, tuple[int, int]] = {}
    for v in nodes:
        if v == 0 or v in cyc:
            continue
        opts = {}
        for h in sorted(incoming[v]):
            w = incoming[v][h]
            if h in cyc:
                # Arc out of the cycle: keep the best concrete source.
                if cnode not in opts or w > opts[cnode]:
                    opts[cnode] = w
                    leave_via[v] = (h, 0)
            else:
                opts[h] = w
        new_incoming[v] = opts

    # Entering the cycle at u breaks u's internal arc; score the swap.
    enter_opts: dict[int, float] = {}
    for u in sorted(cyc):
        for h, w in incoming[u].items():
            if h in cyc:
                continue
            gain = w - cycle_score[u]
            if h not in enter_opts or gain > enter_opts[h]:
                enter_opts[h] = gain
                enter_via[h] = (h, u)
    if not enter_opts:
        raise ValueError(f"cycle {sorted(cyc)} cannot be entered from outside; tree impossible")
    base = sum(cycle_score.values())
    new_incoming[cnode] = {h: base + gain for h, gain in enter_opts.items()}

    contracted = (nodes - cyc) | {cnode}
    sub_parent = _solve(contracted, new_incoming, next_id + 1)

    # Expand: keep cycle arcs except at the chosen entry point.
    result: dict[int, int] = {}
    entry_head = sub_parent[cnode]
    _, entry_target = enter_via[entry_head]
    for v, h in sub_parent.items():
        if v == cnode:
            continue
        result[v] = leave_via[v][0] if h == cnode else h
    for u in cyc:
        result[u] = entry_head if u == entry_target else parent[u]
    return result


def _find_cycle(parent: dict[int, int]) -> list[int] | None:
    seen_any: set[int] = set()
    for start in sorted(parent):
        if start in seen_any:
            continue
        path = []
        spot: dict[int, int] = {}
        v = start
        while v in parent and v not in seen_any:
            if v in spot:
                return path[spot[v]:]
            spot[v] = len(path)
            path.append(v)
            v = parent[v]
        seen_any.update(path)
    return None


def arborescence_weight(graph: WeightedDigraph, parent: dict[int, int]) -> float:
    return sum(graph.weight(h, d) for d, h in parent.items())


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
    heads = list(greedy.heads)
    labels = list(greedy.labels)
    for dep, head in parent.items():
        heads[dep - 1] = head
        labels[dep - 1] = graph.arc_labels[(head, dep)]
    for t in range(1, greedy.n + 1):
        if labels[t - 1] == SKIP:
            heads[t - 1] = t
    return TokenHeadAssignment(heads, labels)
