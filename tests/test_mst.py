"""Maximum spanning arborescence vs brute-force enumeration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proptree.data import (
    EQUIVALENT,
    PART_OF,
    SEGMENT,
    SKIP,
    TokenHeadAssignment,
    encode_tree_to_heads,
)
from proptree.joint import JointDistribution
from proptree.mst import (
    ARC_LABELS,
    WeightedDigraph,
    build_graph,
    chu_liu_edmonds,
    is_tree,
    repair,
)
from proptree.synthetic import SyntheticConfig, generate_corpus

from helpers import arborescence_weight, cle_reference, reaches_root
from oracle import best_arborescence_weight, enumerate_arborescences


def arcs_graph(n, arcs):
    """Graph over nodes 0..n-1 holding only the listed (head, dep, weight) arcs."""
    w = np.full((n, n), -np.inf)
    for h, v, weight in arcs:
        w[h, v] = weight
    return WeightedDigraph(list(range(n)), w)


def dense_graph(n, weights):
    return arcs_graph(n, [(h, v, weights(h, v)) for h in range(n) for v in range(1, n) if h != v])


def test_digraph_contract():
    w = np.array([[-np.inf, -1.0], [-np.inf, -np.inf]])
    g = WeightedDigraph([0, 1], w)
    assert g.nodes == [0, 1] and g.weights is w
    with pytest.raises(ValueError):
        WeightedDigraph([1, 0], w)
    # self-arcs and arcs into the root are never used, whatever they weigh
    w = np.array([[9.0, -1.0, 0.0], [9.0, 9.0, 0.0], [9.0, 0.0, 9.0]])
    assert chu_liu_edmonds(WeightedDigraph([0, 1, 2], w)) == {1: 2, 2: 0}


def test_single_edge_graph():
    g = arcs_graph(2, [(0, 1, -2.5)])
    assert chu_liu_edmonds(g) == {1: 0}
    assert chu_liu_edmonds(arcs_graph(1, [])) == {}


def test_two_node_cycle_breaks_to_smaller_entry():
    # both 3-node arborescences weigh 6; the tie resolves to entering at a=1
    g = arcs_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 5.0), (2, 1, 5.0)])
    parent = chu_liu_edmonds(g)
    assert parent == {1: 0, 2: 1}
    assert arborescence_weight(g, parent) == 6.0


def test_best_head_tie_prefers_smaller_index():
    g = arcs_graph(3, [(0, 2, 1.0), (1, 2, 1.0), (0, 1, 1.0)])
    assert chu_liu_edmonds(g) == {1: 0, 2: 0}


def test_unreachable_node_rejected():
    g = arcs_graph(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="2"):
        chu_liu_edmonds(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matches_enumeration_on_random_graphs(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        w = rng.normal(size=(n, n)) * 3.0
        g = dense_graph(n, lambda h, v: float(w[h, v]))
        parent = chu_liu_edmonds(g)
        assert set(parent) == set(range(1, n))
        got = arborescence_weight(g, parent)
        best = best_arborescence_weight(n, lambda h, v: float(w[h, v]))
        assert got == pytest.approx(best, abs=1e-9)


def test_matches_enumeration_with_integer_ties():
    # many exact ties exercise the deterministic tie-breaking paths
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        w = rng.integers(0, 3, size=(n, n)).astype(float)
        g = dense_graph(n, lambda h, v: float(w[h, v]))
        parent = chu_liu_edmonds(g)
        best = best_arborescence_weight(n, lambda h, v: float(w[h, v]))
        assert arborescence_weight(g, parent) == pytest.approx(best, abs=1e-9)
        # output must itself be an arborescence
        assert parent in list(enumerate_arborescences(n))


def test_deep_cycle_chain():
    # ring 1->2->3->1 heavily favored; root entry forced through one break
    g = arcs_graph(4, [(0, 1, 0.0), (0, 2, -1.0), (0, 3, -2.0),
                       (1, 2, 10.0), (2, 3, 10.0), (3, 1, 10.0)])
    parent = chu_liu_edmonds(g)
    assert parent == {1: 0, 2: 1, 3: 2}


def test_tie_rules_around_a_contracted_cycle():
    cycle = [(1, 2, 5.0), (2, 1, 5.0), (0, 1, 1.0), (0, 2, 1.0)]
    # node 3's head ties between cycle member 1 and node 4; the contracted
    # cycle ranks after node 4, so node 4 wins once the cycle is contracted
    g = arcs_graph(5, cycle + [(1, 3, 3.0), (4, 3, 3.0), (0, 3, 0.0), (0, 4, 1.0)])
    assert chu_liu_edmonds(g) == {1: 0, 2: 1, 3: 4, 4: 0}
    # an arc leaving the cycle from tied members comes from the smaller one
    g = arcs_graph(4, cycle + [(1, 3, 3.0), (2, 3, 3.0), (0, 3, 0.0)])
    assert chu_liu_edmonds(g) == {1: 0, 2: 1, 3: 1}


def test_build_graph_contract():
    p = np.zeros((4, 4, 4))
    p[1, 0, PART_OF] = 0.6
    p[1, 2, SEGMENT] = 0.4
    p[2, 0, PART_OF] = 0.3
    p[2, 1, EQUIVALENT] = 0.7
    # token 3 predicted skip; it must stay out of the graph
    greedy = TokenHeadAssignment([0, 1, 3], [PART_OF, EQUIVALENT, SKIP])
    g = build_graph(JointDistribution(p), greedy)
    assert g.nodes == [0, 1, 2]
    # Every arc into a non-root node is weighed, self-arcs too: the decoder
    # masks those, and arcs into the root, itself.
    assert np.isfinite(g.weights[:, 1:]).all() and not np.isfinite(g.weights[:, 0]).any()
    assert g.weights[0, 1] == pytest.approx(np.log(0.6))
    assert g.weights[2, 1] == pytest.approx(np.log(0.4))
    assert g.weights[1, 2] == pytest.approx(np.log(0.7))

    # a non-skip token with all-zero mass gets floored arcs, not -inf
    greedy = TokenHeadAssignment([0, 1, 0], [PART_OF, EQUIVALENT, PART_OF])
    g = build_graph(JointDistribution(p), greedy)
    assert g.nodes == [0, 1, 2, 3]
    assert g.weights[0, 3] == pytest.approx(np.log(1e-300))
    assert np.isfinite(g.weights[2, 3])

    all_skip = TokenHeadAssignment([1, 2, 3], [SKIP] * 3)
    g = build_graph(JointDistribution(p), all_skip)
    assert g.nodes == [0] and not np.isfinite(g.weights).any()


def test_is_tree_cases():
    docs = generate_corpus(SyntheticConfig(n_docs=30, seed=3, equivalent_rate=0.3))
    for doc in docs:
        assert is_tree(encode_tree_to_heads(doc))

    two_cycle = TokenHeadAssignment([2, 1], [PART_OF, PART_OF])
    assert not is_tree(two_cycle)
    self_head = TokenHeadAssignment([1], [PART_OF])
    assert not is_tree(self_head)
    skip_moved = TokenHeadAssignment([2, 0], [SKIP, PART_OF])
    assert not is_tree(skip_moved)
    into_skip = TokenHeadAssignment([2, 2, 0], [PART_OF, SKIP, PART_OF])
    assert not is_tree(into_skip)
    ok = TokenHeadAssignment([0, 1, 3], [PART_OF, SEGMENT, SKIP])
    assert is_tree(ok)


def test_repair_fixes_cycles_and_keeps_trees():
    p = np.zeros((3, 3, 4))
    # greedy forms the 2-cycle 1<->2; the best break attaches 1 to the root
    p[1, 2, PART_OF] = 0.6
    p[1, 0, PART_OF] = 0.4
    p[2, 1, SEGMENT] = 0.9
    p[2, 0, PART_OF] = 0.1
    dist = JointDistribution(p)
    greedy = dist.greedy()
    assert not is_tree(greedy)
    fixed = repair(dist, greedy)
    assert is_tree(fixed)
    assert fixed.heads == [0, 1]
    assert fixed.labels == [PART_OF, SEGMENT]

    # an assignment that is already a tree survives repair unchanged
    p2 = np.zeros((3, 3, 4))
    p2[1, 0, PART_OF] = 0.9
    p2[2, 1, SEGMENT] = 0.8
    p2[2, 2, SKIP] = 0.2
    dist2 = JointDistribution(p2)
    greedy2 = dist2.greedy()
    assert is_tree(greedy2)
    assert repair(dist2, greedy2) == greedy2


def test_repair_preserves_skips():
    p = np.zeros((4, 4, 4))
    p[1, 2, PART_OF] = 0.9
    p[2, 1, PART_OF] = 0.9
    p[3, 3, SKIP] = 1.0
    dist = JointDistribution(p)
    greedy = dist.greedy()
    fixed = repair(dist, greedy)
    assert is_tree(fixed)
    assert fixed.head_of(3) == 3 and fixed.label_of(3) == SKIP


# -inf marks a missing arc; small integers make ties common
ARC_WEIGHTS = st.one_of(st.integers(-2, 2).map(float), st.just(-np.inf))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    weights = draw(st.lists(ARC_WEIGHTS, min_size=n * n, max_size=n * n))
    return WeightedDigraph(list(range(n)), np.array(weights).reshape(n, n))


@given(small_graphs())
def test_cle_matches_enumeration_on_graphs_with_ties_and_missing_arcs(g):
    n = len(g.nodes)
    best = best_arborescence_weight(
        n, lambda h, v: float(g.weights[h, v]) if np.isfinite(g.weights[h, v]) else None)
    if best is None:
        with pytest.raises(ValueError, match="tree impossible"):
            chu_liu_edmonds(g)
        return
    parent = chu_liu_edmonds(g)
    assert set(parent) == set(range(1, n))
    assert all(reaches_root(parent, v) for v in parent)
    assert arborescence_weight(g, parent) == best


@st.composite
def tie_heavy_graphs(draw):
    """Up to 12 nodes with gaps in their ids, integer weights in -2..2 and a
    drawn share of missing arcs, so that ties are common and cycles nest."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.integers(-2, 3, size=(n, n)).astype(float)
    w[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = -np.inf
    nodes = [0] + sorted(rng.choice(np.arange(1, 2 * n), n - 1, replace=False).tolist())
    return WeightedDigraph(nodes, w)


def outcome(decode, g):
    """The decoder's parent dict, or the message of the ValueError it raised."""
    try:
        return decode(g)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500)
@given(tie_heavy_graphs())
def test_cle_output_and_errors_match_the_reference(g):
    assert outcome(chu_liu_edmonds, g) == outcome(cle_reference, g)


@st.composite
def distributions(draw):
    """A random joint distribution (some rows with zero mass) and a random
    tree assignment with a random skip pattern; half the time the
    distribution is boosted so that this tree is its greedy choice."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = np.zeros((n + 1, n + 1, 4))
    p[1:] = rng.random((n, n + 1, 4)) * (rng.random((n, 1, 1)) < 0.9)
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    heads, attached = list(range(1, n + 1)), [0]
    for t in rng.permutation(n) + 1:
        if labels[t - 1] != SKIP:
            heads[t - 1] = attached[rng.integers(len(attached))]
            attached.append(int(t))
    if draw(st.booleans()):
        p[range(1, n + 1), heads, labels] += 1.0
    return JointDistribution(p), TokenHeadAssignment(heads, labels)


def first_best_label(p, t, head):
    """The first of the tree labels with the most mass on arc head -> t."""
    mass = [p[t, head, label] for label in ARC_LABELS]
    return ARC_LABELS[mass.index(max(mass))]


@given(distributions())
def test_repair_always_returns_a_tree(case):
    dist, assignment = case
    for given_heads in (assignment, dist.greedy()):
        fixed = repair(dist, given_heads)
        assert is_tree(fixed)
        assert ([lab == SKIP for lab in fixed.labels]
                == [lab == SKIP for lab in given_heads.labels])
        for t, head, label in fixed.triples():
            assert label == first_best_label(dist.p, t, head)


@given(distributions())
def test_repair_keeps_greedy_trees(case):
    dist, _ = case
    greedy = dist.greedy()
    if is_tree(greedy):
        assert repair(dist, greedy) == greedy


def nested_pairs_graph(n):
    """Nodes pair up, pairs pair up with pairs, and so on: every contracted
    cycle joins another in a cycle one level up, so contractions nest about
    log2(n) deep and number n - 1."""
    ids = np.arange(n)
    level = np.frexp(ids[:, None] ^ ids[None, :])[1]  # bit length of the xor
    w = np.full((n + 1, n + 1), -np.inf)
    w[1:, 1:] = -level.astype(float)
    w[0, 1:] = -(level.max() + 1.0)
    np.fill_diagonal(w, -np.inf)
    return WeightedDigraph(list(range(n + 1)), w)


def test_cle_memory_stays_quadratic_on_nested_cycles():
    n = 300
    g = nested_pairs_graph(n)
    tracemalloc.start()
    try:
        parent = chu_liu_edmonds(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"
    assert set(parent) == set(range(1, n + 1))
    assert all(reaches_root(parent, v) for v in parent)
