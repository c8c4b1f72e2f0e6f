"""Pipeline stages: CRF tagger, arc models, tree assembly."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from proptree.data import ROOT_ID, Document, Entity, Mention, bio_encode
from proptree.pipeline.crf import (
    CrfModel,
    FeatureTable,
    crf_objective,
    emission_features,
    feature_index_from_corpus,
    tagset_from_corpus,
    train_crf,
)
from proptree.pipeline.edge_models import (
    LtmModel,
    MttModel,
    _training_cases,
    arc_features,
    mtt_log_partition_and_marginals,
    train_ltm,
    train_mtt,
)
from proptree.mst import chu_liu_edmonds
from proptree.pipeline.predict import (
    entities_from_tags,
    entity_graph,
    greedy_entity_parents,
    parents_form_tree,
    pipeline_predict,
)
from proptree.synthetic import SyntheticConfig, generate_corpus

from helpers import (SparseFeatureTable, candidate_arcs, crf_log_partition, crf_reference_nll,
                     edge_index_reference, entity_by_id, extract_edge_features,
                     finite_difference, max_rel_err, sequence_score, viterbi_reference)
from oracle import arborescence_log_z_and_marginals, chain_log_z_marginals_and_best


def toy_docs():
    return generate_corpus(SyntheticConfig(n_docs=12, seed=4))


def known_ids(table, i):
    """Row i's known feature ids, in slot order."""
    return [f for f in table.slots[:, i].tolist() if f >= 0]


def random_crf(tokens, k=3, seed=0):
    feats = sorted({f for i in range(len(tokens)) for f in emission_features(tokens, i)})
    model = CrfModel([f"t{j}" for j in range(k)], {f: i for i, f in enumerate(feats)})
    rng = np.random.default_rng(seed)
    model.w_emit.data[:] = rng.normal(size=model.w_emit.shape)
    model.w_trans.data[:] = rng.normal(size=model.w_trans.shape)
    return model


def test_emission_feature_window():
    tokens = ["Royal", "flat", "23"]
    feats = emission_features(tokens, 1)
    assert "bias" in feats
    assert "w=flat" in feats and "lc=flat" in feats
    assert "prev=Royal" in feats and "next=23" in feats
    assert "p2=fl" in feats and "s3=lat" in feats
    assert "dig=0" in feats
    first = emission_features(tokens, 0)
    assert "prev=<s>" in first and "lc=royal" in first
    last = emission_features(tokens, 2)
    assert "next=</s>" in last and "dig=1" in last


def test_crf_partition_and_viterbi_match_enumeration():
    tokens = ["big", "roof", "terrace", "pool"]
    for seed in range(8):
        model = random_crf(tokens, k=3, seed=seed)
        emit = model.emissions(model.features(tokens))
        log_z, _, _, best_path, best_score = chain_log_z_marginals_and_best(
            emit, model.w_trans.data)
        assert crf_log_partition(model, tokens) == pytest.approx(log_z, rel=1e-10)
        got = model.viterbi(tokens)
        assert [model.tag_index[t] for t in got] == best_path
        assert sequence_score(model, tokens, got) == pytest.approx(best_score)


@given(st.integers(1, 40), st.sampled_from([1, 2, 13]), st.integers(0, 2**32 - 1))
def test_viterbi_keeps_the_reference_tie_rule(n, k, seed):
    """Weights in {-1, 0, 1} make tied paths common.  The path must be the
    reference loop's: at each step the smaller previous tag wins, and at the
    end the smaller last tag wins."""
    rng = np.random.default_rng(seed)
    tokens = rng.choice(["a", "ab", "Abc", "12"], size=n).tolist()
    model = random_crf(tokens, k=k)
    for w in (model.w_emit.data, model.w_trans.data):
        w[:] = rng.integers(-1, 2, size=w.shape)
    got = [model.tag_index[t] for t in model.viterbi(tokens)]
    assert got == viterbi_reference(model.emissions(model.features(tokens)), model.w_trans.data)


def test_crf_zero_weights_partition_is_log_tagset_size():
    model = CrfModel(["a", "b", "c"], {"bias": 0})
    assert crf_log_partition(model, ["x"]) == pytest.approx(np.log(3.0))
    # per-sequence NLL of any single tag is then log 3
    nll, _, _ = model.nll_and_grad(model.features(["x"]), ["b"])
    assert nll == pytest.approx(np.log(3.0))


def test_crf_rejects_mismatched_tag_lists():
    tokens = ["big", "roof", "terrace"]
    model = random_crf(tokens)
    for tags in (["t0"], ["t0", "t1"], ["t0", "t1", "t2", "t0"]):
        with pytest.raises(ValueError, match=f"{len(tags)} tags for 3 tokens"):
            model.nll_and_grad(model.features(tokens), tags)


@example(n=1, k=3, seed=0)
@example(n=2, k=4, seed=1)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_crf_gradient_matches_enumerated_marginals(n, k, seed):
    rng = np.random.default_rng(seed)
    tokens = rng.choice(["a", "ab", "Abc", "12"], size=n).tolist()
    model = random_crf(tokens, k=k, seed=seed)
    # Weights of magnitude 1e-3 to 1e2: path scores up to about 1e3, marginals near 0 and 1.
    for w in (model.w_emit.data, model.w_trans.data):
        w *= 10.0 ** rng.integers(-3, 3, size=w.shape)
    gold = rng.integers(0, k, size=n)
    table = model.features(tokens)
    emit = model.emissions(table)
    nll, g_emit, g_trans = model.nll_and_grad(table, [model.tags[j] for j in gold])
    assert nll == crf_reference_nll(emit, model.w_trans.data, gold)

    _, nodes, pairs, _, _ = chain_log_z_marginals_and_best(emit, model.w_trans.data)
    nodes[range(n), gold] -= 1.0
    want_emit = np.zeros_like(g_emit)
    for i in range(n):
        for f in emission_features(tokens, i):
            want_emit[model.feature_index[f]] += nodes[i]
    for i in range(1, n):
        pairs[gold[i - 1], gold[i]] -= 1.0
    assert np.abs(g_emit - want_emit).max() <= 1e-10
    assert np.abs(g_trans - pairs).max() <= 1e-10


@given(st.integers(1, 20), st.sampled_from([9, 13, 16]), st.sampled_from([1e-3, 0.1, 1.0]),
       st.integers(0, 2**32 - 1))
def test_crf_nll_matches_the_forward_loop_bit_for_bit(n, k, scale, seed):
    # From 8 terms on, numpy sums a contiguous axis pairwise, so only a tag
    # set this large tells the in-order sum from another order, and only
    # weights of one scale leave several terms of a sum to round.
    rng = np.random.default_rng(seed)
    tokens = rng.choice(["a", "ab", "Abc", "12"], size=n).tolist()
    model = random_crf(tokens, k=k, seed=seed)
    model.w_emit.data[:] *= scale
    model.w_trans.data[:] *= scale
    gold = rng.integers(0, k, size=n)
    table = model.features(tokens)
    nll, _, _ = model.nll_and_grad(table, [model.tags[j] for j in gold])
    assert nll == crf_reference_nll(model.emissions(table), model.w_trans.data, gold)


def test_crf_rejects_empty_sequence():
    model = CrfModel(["a"], {"bias": 0})
    with pytest.raises(ValueError):
        crf_log_partition(model, [])
    with pytest.raises(ValueError):
        model.viterbi([])


@st.composite
def slot_grids(draw):
    """A slot grid over ``f`` ids with -1 holes, in C or Fortran order, with
    random weights (1-D, or one column per tag) of magnitudes 1e-3 to 1e3,
    row coefficients and a gradient that need not start at zero."""
    width, n, f = draw(st.integers(1, 24)), draw(st.integers(0, 6)), draw(st.integers(1, 8))
    slots = np.array(draw(st.lists(st.integers(-1, f - 1), min_size=width * n,
                                   max_size=width * n)), dtype=np.int64).reshape(width, n)
    if draw(st.booleans()):
        slots = np.asfortranarray(slots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (f, *draw(st.sampled_from([(), (1,), (3,)])))
    w = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    start = draw(st.sampled_from([0.0, 1.0])) * rng.normal(size=shape)
    coeff = rng.normal(size=(n, *shape[1:])) * 10.0 ** rng.integers(-3, 4, size=(n, *shape[1:]))
    return slots, w, coeff, start


# Three rows of 20 slots: row 0 holds id 1 twice, row 1 no known id.  The second
# example below is row 0 alone, a single row of scalars.
HOLES = (np.array([[1, -1, 0], [1, -1, 2]] + [[0, -1, 1]] * 18, dtype=np.int64),
         10.0 ** np.arange(-3, 0), np.array([1e3, -2.0, 1e-3]), np.array([0.5, 0.0, -0.25]))


@example(HOLES)
@example((HOLES[0][:, :1], HOLES[1], HOLES[2][:1], HOLES[3]))
@given(slot_grids())
def test_feature_table_matches_the_sparse_reference(grid):
    slots, w, coeff, start = grid
    table, ref = FeatureTable(slots), SparseFeatureTable.from_slots(slots)
    assert np.array_equal(table.sums(w), ref.sums(w))
    got, want = start.copy(), start.copy()
    table.scatter(got, coeff)
    ref.scatter(want, coeff)
    assert np.array_equal(got, want)


@st.composite
def crf_layouts(draw):
    """Tokens over a few repeated words, and an index lacking about ``drop``
    of their emission features, every feature of position ``blank`` (if
    any), and holding one it never uses."""
    tokens = draw(st.lists(st.sampled_from(["a", "ab", "Abc", "12"]), min_size=1, max_size=8))
    blank = draw(st.integers(-1, len(tokens) - 1))
    drop = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = sorted({f for i in range(len(tokens)) for f in emission_features(tokens, i)})
    gone = set(emission_features(tokens, blank)) if blank >= 0 else set()
    names = [f for f in full if f not in gone and rng.random() >= drop] + ["w=zz"]
    return tokens, {f: i for i, f in enumerate(rng.permutation(names).tolist())}, rng


@example((["a", "b", "a"], {"w=a": 0, "prev=<s>": 1, "next=</s>": 2},
          np.random.default_rng(0)))
@given(crf_layouts())
def test_crf_table_matches_the_string_features(layout):
    tokens, index, rng = layout
    model = CrfModel(["t0", "t1", "t2"], index)
    # Magnitudes from 1e-3 to 1e3, so that a different summation order shows.
    model.w_emit.data[:] = (rng.normal(size=model.w_emit.shape)
                            * 10.0 ** rng.integers(-3, 4, size=model.w_emit.shape))
    table = model.features(tokens)
    delta = rng.normal(size=(len(tokens), 3))
    loop_emit = np.zeros((len(tokens), 3))
    loop_grad = np.zeros_like(model.w_emit.data)
    for i in range(len(tokens)):
        ids = [index[f] for f in emission_features(tokens, i) if f in index]
        assert known_ids(table, i) == ids
        if ids:
            loop_emit[i] = model.w_emit.data[ids].sum(axis=0)
        for f in ids:
            loop_grad[f] += delta[i]
    emit = model.emissions(table)
    assert np.array_equal(emit, loop_emit)
    assert not emit[(table.slots < 0).all(axis=0)].any()
    table_grad = np.zeros_like(model.w_emit.data)
    table.scatter(table_grad, delta)
    assert np.array_equal(table_grad, loop_grad)


def test_crf_gradient_matches_finite_differences():
    docs = toy_docs()[:3]
    model = CrfModel(tagset_from_corpus(docs), feature_index_from_corpus(docs))
    rng = np.random.default_rng(1)
    model.w_emit.data[:] = rng.normal(size=model.w_emit.shape) * 0.3
    model.w_trans.data[:] = rng.normal(size=model.w_trans.shape) * 0.3

    _, g_emit, g_trans = crf_objective(model, docs, lam=0.5)
    fd = finite_difference(
        lambda: crf_objective(model, docs, lam=0.5)[0],
        [model.w_emit.data, model.w_trans.data],
    )
    assert max_rel_err([g_emit, g_trans], fd) < 1e-4


def test_crf_training_learns_toy_corpus():
    docs = toy_docs()
    model = train_crf(docs, lam=0.1, epochs=30, lr=0.05, seed=0)
    hits = total = 0
    for doc in docs:
        gold = bio_encode(doc)
        pred = model.viterbi(doc.tokens)
        hits += sum(g == p for g, p in zip(gold, pred))
        total += len(gold)
    assert hits / total > 0.95


def test_tagset_layout():
    docs = [Document("d", ["a"], [Entity("E", "zz", [Mention(1, 2)])]),
            Document("e", ["b"], [Entity("F", "aa", [Mention(1, 2)])])]
    assert tagset_from_corpus(docs) == ["O", "B-aa", "I-aa", "B-zz", "I-zz"]


def sample_entities():
    tokens = ["nice", "villa", "with", "large", "garden", "near", "pool"]
    e1 = Entity("E1", "property", [Mention(1, 3)])
    e2 = Entity("E2", "space", [Mention(4, 6)], parent="E1")
    e3 = Entity("E3", "space", [Mention(7, 8)], parent="E1")
    return tokens, [e1, e2, e3]


def test_edge_feature_contents():
    tokens, (e1, e2, e3) = sample_entities()
    feats = extract_edge_features(e1, e2, tokens)
    assert "bias" in feats
    assert "c_tok=garden" in feats  # child anchor is the span's last token
    assert "p_tok=villa" in feats
    assert "c_type=space" in feats and "p_type=property" in feats
    assert "pair=property>space" in feats
    assert "order=parent-first" in feats
    assert "dist=3" in feats  # anchors at positions 2 and 5
    assert any(f.startswith("btw_n=") for f in feats)

    rootward = extract_edge_features(None, e2, tokens)
    assert "p_tok=<root>" in rootward and "dist=root" in rootward

    far = Entity("E9", "space", [Mention(1, 2)])
    near = Entity("E8", "space", [Mention(7, 8)])
    assert "dist=4-6" in extract_edge_features(far, near, tokens)
    assert extract_edge_features(e1, e2, tokens) == extract_edge_features(e1, e2, tokens)


def arc_layout(tokens, entities, drop, seed):
    """A layout plus an index lacking about ``drop`` of its features (and
    holding two it never uses) and random weights."""
    rng = np.random.default_rng(seed)
    full = sorted(_training_cases([Document("d", tokens, entities)])[0])
    names = [f for f in full if rng.random() >= drop] + ["btw=zz", "c_tok=zz"]
    index = {f: i for i, f in enumerate(rng.permutation(names).tolist())}
    return tokens, entities, index, rng.normal(size=len(index)) * 3.0, rng


@st.composite
def entity_layouts(draw):
    """Entities over a few repeated tokens, with overlapping and multi-mention
    spans."""
    n = draw(st.integers(1, 12))
    tokens = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    spans = st.tuples(st.integers(1, n), st.integers(1, 3)).map(
        lambda sl: Mention(sl[0], min(sl[0] + sl[1], n + 1)))
    entities = [Entity(f"E{i}", draw(st.sampled_from(["x", "y", None])),
                       draw(st.lists(spans, min_size=1, max_size=2)))
                for i in range(draw(st.integers(1, 5)))]
    return tokens, entities


@st.composite
def arc_layouts(draw):
    """An entity layout with a partial index and weights."""
    tokens, entities = draw(entity_layouts())
    return arc_layout(tokens, entities, draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
                      draw(st.integers(0, 2**32 - 1)))


# "a" and "b" each twice between E1 and E2; E3 overlaps E2.
REPEATS = arc_layout(["x", "a", "b", "a", "b", "y", "a"],
                     [Entity("E1", "x", [Mention(1, 2)]), Entity("E2", "y", [Mention(6, 8)]),
                      Entity("E3", "x", [Mention(7, 8)])], 0.2, 3)


@example(REPEATS)
@given(arc_layouts())
def test_arc_table_matches_the_string_features(layout):
    tokens, entities, index, w, rng = layout
    table = arc_features(entities, tokens, index)
    mtt, ltm = MttModel(index), LtmModel(index)
    mtt.w.data[:] = ltm.w.data[:] = w
    theta, log_p = mtt.arc_matrix(entities, tokens), ltm.arc_matrix(entities, tokens)
    t = len(entities)
    assert np.isfinite(theta).sum() == np.isfinite(log_p).sum() == t * t

    coeff = rng.normal(size=t * t)
    loop_grad = np.zeros(len(w))
    for i, (h, m, parent, child) in enumerate(candidate_arcs(entities)):
        ids = [index[f] for f in extract_edge_features(parent, child, tokens) if f in index]
        assert (table.heads[i], table.children[i]) == (h, m)
        assert known_ids(table.feats, i) == ids
        z = w[ids].sum()
        assert abs(theta[h, m] - z) <= 1e-12
        assert abs(theta[h, m] - mtt.arc_score(parent, child, tokens)) <= 1e-12
        p = 1.0 / (1.0 + np.exp(-z))
        assert abs(log_p[h, m] - np.log(max(p, 1e-300))) <= 1e-12
        np.add.at(loop_grad, ids, coeff[i])
    table_grad = np.zeros(len(w))
    table.feats.scatter(table_grad, coeff)
    assert np.array_equal(table_grad, loop_grad)


def check_training_cases(docs):
    """``_training_cases`` numbers the features that some candidate arc has
    in name order, as the string reference does, and its tables are
    ``arc_features`` over that index."""
    index, cases = _training_cases(docs)
    assert list(index.items()) == list(edge_index_reference(docs).items())
    with_entities = [doc for doc in docs if doc.entities]
    assert len(cases) == len(with_entities)
    for doc, (table, gold) in zip(with_entities, cases):
        want = arc_features(doc.entities, doc.tokens, index)
        # The training grid keeps only the slots where some arc has a known id,
        # so the rows' known ids are compared, as the sparse table holds them.
        feats, want_feats = (SparseFeatureTable.from_slots(t.feats.slots) for t in (table, want))
        for got, expected in ((table.heads, want.heads), (table.children, want.children),
                              (feats.ids, want_feats.ids), (feats.rows, want_feats.rows)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert feats.n == want_feats.n
        ids = {e.id for e in doc.entities}
        assert gold.tolist() == [getattr(parent, "id", None) == (child.parent if child.parent in ids
                                                                 else None)
                                 for _, _, parent, child in candidate_arcs(doc.entities)]


@example(docs=[Document("d0", REPEATS[0], REPEATS[1])])
@given(st.lists(entity_layouts(), min_size=1, max_size=3).map(
    lambda layouts: [Document(f"d{i}", tokens, entities)
                     for i, (tokens, entities) in enumerate(layouts)]))
def test_training_index_matches_the_string_features(docs):
    check_training_cases(docs + [Document("empty", ["a"], [])])


@pytest.mark.parametrize("config", [
    dict(nonprojective_rate=0.0), dict(ambiguous=True), dict(nonprojective_rate=0.6)],
    ids=["plain", "ambiguous", "nonprojective"])
def test_training_index_matches_the_string_features_on_synthetic_corpora(config):
    check_training_cases(generate_corpus(SyntheticConfig(n_docs=30, seed=5, **config)))


def test_training_tables_have_no_empty_slot():
    """A slot where no arc has a known id would only add zeros."""
    for config in (dict(nonprojective_rate=0.0), dict(ambiguous=True)):
        _, cases = _training_cases(generate_corpus(SyntheticConfig(n_docs=30, seed=5, **config)))
        for table, _ in cases:
            assert (table.feats.slots >= 0).any(axis=1).all()


def test_ltm_probability():
    tokens, (e1, e2, _) = sample_entities()
    index = _training_cases([Document("d", tokens, [e1, e2])])[0]
    model = LtmModel(index)
    model.w.data[:] = 0.0
    weights = model.arc_matrix([e1, e2], tokens)
    assert np.exp(weights[1, 2]) == pytest.approx(0.5)
    assert weights[1, 2] == pytest.approx(np.log(0.5))


def one_entity_ads(docs):
    """Each ad cut down to its first root-level entity, so that every
    training pair of LTM is a root arc and carries the same label."""
    out = []
    for doc in docs:
        top = next(e for e in doc.entities if e.parent == ROOT_ID)
        out.append(Document(doc.id, doc.tokens, [Entity(top.id, top.type, top.mentions)]))
    return out


def test_ltm_trained_on_one_entity_ads_attaches_every_entity_to_the_root():
    """Single-label training is plain logistic training: only the root's own
    features are ever seen, and all of them as positives, so the root beats
    every other head."""
    docs = generate_corpus(SyntheticConfig(n_docs=40, seed=3))
    model = train_ltm(one_entity_ads(docs), epochs=5, lr=0.05, seed=0)
    assert any(len(doc.entities) > 1 for doc in docs)
    for doc in docs:
        graph = entity_graph(doc.entities, doc.tokens, model.arc_matrix)
        assert greedy_entity_parents(graph.weights) == [0] * len(doc.entities)
        assert chu_liu_edmonds(graph) == {m: 0 for m in range(1, len(doc.entities) + 1)}


def test_ltm_learns_parent_preference():
    docs = generate_corpus(SyntheticConfig(n_docs=40, seed=6))
    model = train_ltm(docs, epochs=40, lr=0.05, seed=0)
    correct = total = 0
    for doc in docs:
        ents = doc.entities
        parents = greedy_entity_parents(model.arc_matrix(ents, doc.tokens))
        index = {e.id: i + 1 for i, e in enumerate(ents)}
        gold = [index.get(e.parent, 0) for e in ents]
        correct += sum(g == p for g, p in zip(gold, parents))
        total += len(ents)
    assert correct / total > 0.8


def test_mtt_partition_small_cases():
    # two nodes, zero scores: trees are {0->1,0->2}, {0->1,1->2}, {0->2,2->1}
    log_z, marg = mtt_log_partition_and_marginals(np.zeros((3, 3)))
    assert np.exp(log_z) == pytest.approx(3.0, rel=1e-12)
    # every child's incoming marginals sum to one
    for m in (1, 2):
        assert marg[:, m].sum() == pytest.approx(1.0, rel=1e-10)
    assert marg[0][1] == pytest.approx(2.0 / 3.0)
    assert marg[2][1] == pytest.approx(1.0 / 3.0)

    log_z1, marg1 = mtt_log_partition_and_marginals(np.zeros((2, 2)))
    assert np.exp(log_z1) == pytest.approx(1.0)
    assert marg1[0][1] == pytest.approx(1.0)


def test_mtt_partition_matches_enumeration():
    rng = np.random.default_rng(7)
    for t in (1, 2, 3, 4):
        for _ in range(10):
            theta = rng.normal(size=(t + 1, t + 1)) * 2.0
            log_z, marg = mtt_log_partition_and_marginals(theta)
            brute, _ = arborescence_log_z_and_marginals(theta)
            assert log_z == pytest.approx(brute, rel=1e-10)
            for m in range(1, t + 1):
                assert marg[:, m].sum() == pytest.approx(1.0, rel=1e-8)


def test_mtt_shift_survives_extreme_scores():
    theta = np.zeros((3, 3))
    theta[0, 1] = 800.0  # exp would overflow without the column shift
    theta[0, 2] = -800.0
    log_z, marg = mtt_log_partition_and_marginals(theta)
    assert np.isfinite(log_z)
    assert marg[0][1] == pytest.approx(1.0, abs=1e-6)


def test_mtt_singular_laplacian_reports_node():
    theta = np.full((3, 3), -np.inf)
    theta[0, 1] = 0.0  # node 2 has no usable incoming arc
    with pytest.raises(ValueError, match="node 2"):
        mtt_log_partition_and_marginals(theta)
    # every node has an incoming arc but none leaves the root: det L is 0,
    # yet rounding leaves slogdet a positive sign and a finite log
    theta = np.full((4, 4), -np.inf)
    theta[1, 2] = theta[1, 3] = 2.0
    theta[2, 1], theta[3, 2] = -1.0, -2.0
    with pytest.raises(ValueError, match="node 1"):
        mtt_log_partition_and_marginals(theta)


def test_mtt_walks_from_the_root_when_a_root_arc_underflows():
    # Root arcs of -1000 underflow to 0 after the column shift, so the root
    # alone no longer reaches every node.  Node 1 is still reached via node 2.
    theta = np.full((3, 3), -np.inf)
    theta[0, 1], theta[2, 1], theta[0, 2] = -1000.0, 0.0, 0.0
    log_z, marg = mtt_log_partition_and_marginals(theta)
    brute_z, brute = arborescence_log_z_and_marginals(theta)
    assert log_z == pytest.approx(brute_z, abs=1e-8)
    np.testing.assert_allclose(marg, brute, rtol=0, atol=1e-8)
    # Nodes 1-3 reach each other but the root only through underflowed arcs;
    # node 4 has the smallest Laplacian diagonal but is not cut off.
    theta = np.full((5, 5), -np.inf)
    theta[1:4, 1:4] = 0.0
    theta[0, 1:4], theta[0, 4] = -1000.0, 0.0
    with pytest.raises(ValueError, match="node 1 is effectively isolated"):
        mtt_log_partition_and_marginals(theta)


# -inf marks a missing arc; small integers make ties common
ARC_SCORES = st.one_of(st.integers(-2, 2).map(float), st.just(-np.inf))


@st.composite
def sparse_thetas(draw):
    n = draw(st.integers(2, 5))
    return np.array(draw(st.lists(ARC_SCORES, min_size=n * n, max_size=n * n))).reshape(n, n)


@given(sparse_thetas())
def test_mtt_matches_enumeration_with_missing_arcs(theta):
    brute = arborescence_log_z_and_marginals(theta)
    if brute is None:
        with pytest.raises(ValueError, match="singular Laplacian: node [0-9]+ is effectively"):
            mtt_log_partition_and_marginals(theta)
        return
    log_z, marg = mtt_log_partition_and_marginals(theta)
    assert log_z == pytest.approx(brute[0], abs=1e-8)
    np.testing.assert_allclose(marg, brute[1], rtol=0, atol=1e-8)


def test_mtt_training_learns_attachments():
    # scores are trained for the global tree distribution, so decode with
    # the tree decoder rather than local argmax
    docs = generate_corpus(SyntheticConfig(n_docs=40, seed=8, equivalent_rate=0.0))
    model = train_mtt(docs, epochs=40, lr=0.05, seed=0)
    assert isinstance(model, MttModel)
    correct = total = 0
    for doc in docs:
        ents = doc.entities
        parent_map = chu_liu_edmonds(entity_graph(ents, doc.tokens, model.arc_matrix))
        index = {e.id: i + 1 for i, e in enumerate(ents)}
        gold = [index.get(e.parent, 0) for e in ents]
        tree = [parent_map[m] for m in range(1, len(ents) + 1)]
        correct += sum(g == p for g, p in zip(gold, tree))
        total += len(ents)
    assert correct / total > 0.9


def test_entities_from_tags():
    ents = entities_from_tags(["B-a", "I-a", "O", "B-b"])
    assert [e.id for e in ents] == ["M1", "M2"]
    assert ents[0].mentions == [Mention(1, 3)]
    assert ents[1].type == "b"
    assert entities_from_tags(["O", "O"]) == []


def test_candidate_arcs_are_child_major_with_the_root_first():
    ents = entities_from_tags(["B-a", "B-b", "B-c"])
    arcs = list(candidate_arcs(ents))
    assert [(h, m) for h, m, _, _ in arcs] == [
        (0, 1), (2, 1), (3, 1), (0, 2), (1, 2), (3, 2), (0, 3), (1, 3), (2, 3)]
    for h, m, parent, child in arcs:
        assert parent is (None if h == 0 else ents[h - 1]) and child is ents[m - 1]


def test_greedy_parents_match_per_child_loop_on_ties():
    rng = np.random.default_rng(0)
    root_ties = head_ties = 0
    for _ in range(300):
        t = int(rng.integers(1, 7))
        scores = rng.integers(-2, 3, size=(t + 1, t + 1)).astype(float)
        np.fill_diagonal(scores, -np.inf)  # self-arcs are never candidates
        ents = entities_from_tags(["B-a"] * t)

        want = []
        for m in range(1, t + 1):
            best = 0
            for h in range(1, t + 1):
                if h != m and scores[h, m] > scores[best, m]:
                    best = h
            top = max(scores[h, m] for h in range(t + 1) if h != m)
            tied = [h for h in range(t + 1) if h != m and scores[h, m] == top]
            root_ties += len(tied) > 1 and tied[0] == 0
            head_ties += len(tied) > 1 and tied[0] != 0
            want.append(best)
        graph = entity_graph(ents, ["x"] * t, lambda _ents, _tokens: scores)
        assert greedy_entity_parents(graph.weights) == want
    assert root_ties > 50 and head_ties > 50


def test_parents_form_tree():
    assert parents_form_tree([0, 1, 1])
    assert not parents_form_tree([2, 1])
    assert parents_form_tree([])


def matrix_of(arc_score):
    """An arc-matrix callable from a per-arc ``arc_score(parent, child, tokens)``."""
    def arc_matrix(entities, tokens):
        weights = np.full((len(entities) + 1, len(entities) + 1), -np.inf)
        for h, m, parent, child in candidate_arcs(entities):
            weights[h, m] = arc_score(parent, child, tokens)
        return weights

    return arc_matrix


def test_pipeline_predict_with_oracle_stages():
    # oracle tagger + oracle arc scores must reproduce the gold structure
    docs = generate_corpus(SyntheticConfig(n_docs=15, seed=9, equivalent_rate=0.0))
    for doc in docs:
        gold_tags = bio_encode(doc)
        anchor_parent = {}
        index = {e.id: e for e in doc.entities}
        for e in doc.entities:
            child_a = e.main_mention().anchor
            parent_a = 0 if e.parent not in index else index[e.parent].main_mention().anchor
            anchor_parent[child_a] = parent_a

        def oracle_score(parent, child, tokens):
            want = anchor_parent[child.main_mention().anchor]
            have = 0 if parent is None else parent.main_mention().anchor
            return 0.0 if want == have else -10.0

        pred, was_tree = pipeline_predict(doc.id, doc.tokens, lambda _: gold_tags,
                                          matrix_of(oracle_score))
        assert was_tree
        assert len(pred.entities) == len(doc.entities)
        # parent anchors line up entity by entity
        for e in pred.entities:
            child_a = e.main_mention().anchor
            have = 0 if e.parent == "ROOT" else entity_by_id(pred, e.parent).main_mention().anchor
            assert have == anchor_parent[child_a]


def test_pipeline_predict_empty_tagging():
    pred, was_tree = pipeline_predict("d", ["a", "b"], lambda _: ["O", "O"],
                                      matrix_of(lambda p, c, t: 0.0))
    assert pred.entities == [] and was_tree
