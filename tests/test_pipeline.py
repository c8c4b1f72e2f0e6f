"""Pipeline stages: CRF tagger, arc models, tree assembly."""

import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from proptree.data import ROOT_ID, Document, Entity, Mention, bio_encode, encode_tree_to_heads
from proptree.pipeline import edge_models
from proptree.pipeline.crf import (
    CrfModel,
    FeatureTable,
    Recorder,
    crf_objective,
    tagset_from_corpus,
    train_crf,
)
from proptree.pipeline.edge_models import (
    ARC_BLOCK,
    LtmModel,
    MttModel,
    _training_cases,
    arc_blocks,
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

from helpers import (SparseFeatureTable, candidate_arcs, crf_forward_backward_reference,
                     crf_log_partition, crf_reference_nll, edge_index_reference, emission_features,
                     entity_by_id, extract_edge_features, feature_index_from_corpus,
                     finite_difference, max_rel_err, scatter_reference, sequence_score,
                     viterbi_reference)
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
    table = model.features(["x"])
    nll, _, _ = model.nll_and_grad(table, model.tag_ids(["b"]), table.scatter(len(model.tags)))
    assert nll == pytest.approx(np.log(3.0))


def test_crf_rejects_mismatched_tag_lists():
    tokens = ["big", "roof", "terrace"]
    model = random_crf(tokens)
    for tags in (["t0"], ["t0", "t1"], ["t0", "t1", "t2", "t0"]):
        with pytest.raises(ValueError, match=f"{len(tags)} tags for 3 tokens"):
            table = model.features(tokens)
            model.nll_and_grad(table, model.tag_ids(tags), table.scatter(len(model.tags)))


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
    nll, g_emit, g_trans = model.nll_and_grad(table, gold, table.scatter(k))
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
    nll, _, _ = model.nll_and_grad(table, gold, table.scatter(k))
    assert nll == crf_reference_nll(model.emissions(table), model.w_trans.data, gold)


def frozen_scatter(table, width=None):
    """A scatter for ``table`` that adds through ``scatter_reference``."""
    return lambda grad, coeff: scatter_reference(table.slots, grad, coeff)


@example(n=40, k=16, scale=30.0, seed=0)
@given(st.integers(1, 40), st.sampled_from([1, 2, 3, 9, 13, 16]),
       st.sampled_from([1e-3, 0.1, 1.0, 30.0]), st.integers(0, 2**32 - 1))
def test_crf_recursion_matches_the_stacked_loop_byte_for_byte(n, k, scale, seed):
    """alpha, beta and the three outputs of ``nll_and_grad`` keep the bytes
    of the (2, K, K) recursion and of the scatter that worked its index out per call."""
    rng = np.random.default_rng(seed)
    tokens = rng.choice(["a", "ab", "Abc", "12"], size=n).tolist()
    model = random_crf(tokens, k=k, seed=seed)
    model.w_emit.data[:] *= scale
    model.w_trans.data[:] *= scale
    y = rng.integers(0, k, size=n)
    table = model.features(tokens)
    emit = model.emissions(table)
    for got, want in zip(model._forward_backward(emit),
                         crf_forward_backward_reference(model.w_trans.data, emit)):
        assert got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()
    new = model.nll_and_grad(table, y, table.scatter(k))
    model._forward_backward = lambda e: crf_forward_backward_reference(model.w_trans.data, e)
    old = model.nll_and_grad(table, y, frozen_scatter(table))
    assert [np.asarray(x).tobytes() for x in new] == [np.asarray(x).tobytes() for x in old]


def test_crf_and_mtt_train_byte_for_byte_as_with_the_frozen_recursion(monkeypatch):
    """Per-case tag ids, scatters and gold arcs, and the outer-axis recursion,
    train the weights that the frozen recursion and scatter train."""
    docs = generate_corpus(SyntheticConfig(n_docs=12, seed=4, ambiguous=True))

    def weights():
        crf, mtt = train_crf(docs, lam=10.0, epochs=3, lr=0.05, seed=0), train_mtt(docs, 3, 0.05, 0)
        return [p.data.tobytes() for m in (crf, mtt) for p in m.params_named().values()]

    new = weights()
    monkeypatch.setattr(CrfModel, "_forward_backward",
                        lambda self, emit: crf_forward_backward_reference(self.w_trans.data, emit))
    monkeypatch.setattr(FeatureTable, "scatter", frozen_scatter)
    assert weights() == new


def test_crf_names_an_unknown_tag_and_its_position():
    model = CrfModel(["O", "B-x", "I-x"], {"bias": 0})
    with pytest.raises(ValueError, match=r"^unknown tag 'B-y' at position 1$"):
        table = model.features(["a"])
        model.nll_and_grad(table, model.tag_ids(["B-y"]), table.scatter(len(model.tags)))
    # The objective names the document that holds the tag, after one that the model can score.
    known = Document("c", ["a", "b"], [Entity("E1", "x", [Mention(1, 3)])])
    doc = Document("d", ["a", "b", "c"], [Entity("E1", "y", [Mention(2, 4)])])
    with pytest.raises(ValueError, match=r"^document 'd': unknown tag 'B-y' at position 2$"):
        crf_objective(model, [known, doc], lam=0.0)


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
    table.scatter(int(np.prod(got.shape[1:])))(got, coeff)
    ref.scatter(want, coeff)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("top, width", [(254, 1), (255, 1), (21844, 3), (21845, 3), (65535, 1)])
def test_scatter_index_holds_the_largest_id(top, width):
    """The scatter keeps its flat index in the smallest type that holds it:
    ids at the edge of a type still land in their own rows."""
    slots = np.array([[top, -1, 0], [1, top, -1]], dtype=np.int64)
    coeff = np.arange(1.0, 3 * width + 1).reshape(3, width)
    got, want = np.zeros((top + 1, width)), np.zeros((top + 1, width))
    FeatureTable(slots).scatter(width)(got, coeff)
    scatter_reference(slots, want, coeff)
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


def crf_layout(tokens, drop, seed):
    """``tokens`` with an index lacking about ``drop`` of their emission features."""
    rng = np.random.default_rng(seed)
    full = sorted({f for i in range(len(tokens)) for f in emission_features(tokens, i)})
    names = [f for f in full if rng.random() >= drop]
    return tokens, {f: i for i, f in enumerate(rng.permutation(names).tolist())}, rng


# A document of pipeline-workload length (136 tokens over 40 words, the
# literal <s> and </s> among them), and a one-token document.
LONG_TOKENS = [f"w{k}" for k in np.random.default_rng(7).integers(0, 40, size=136)]
LONG_TOKENS[5], LONG_TOKENS[70] = "<s>", "</s>"


@example((["a", "b", "a"], {"w=a": 0, "prev=<s>": 1, "next=</s>": 2},
          np.random.default_rng(0)))
@example(crf_layout(LONG_TOKENS, 0.2, 1))
@example(crf_layout(["x12"], 0.0, 2))
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
    table.scatter(3)(table_grad, delta)
    assert np.array_equal(table_grad, loop_grad)


def test_crf_token_table_holds_across_calls():
    """One model's table serves every call: known and unknown tokens, the
    literal <s> and </s>, and a one-token document all get the ids of the
    string features, and fresh unknown tokens do not grow the table."""
    docs = [["a", "b", "<s>"], ["</s>", "a"], ["b"]]
    feats = sorted({f for doc in docs for i in range(len(doc)) for f in emission_features(doc, i)})
    index = {f: i for i, f in enumerate(feats)}
    model = CrfModel(["t0", "t1"], index)
    assert set(model.token_ids) == {"a", "b", "<s>", "</s>"}
    for tokens in (["a", "b", "<s>"], ["zz", "a", "zz", "</s>"], ["<s>"], ["</s>", "<s>", "q", "b"],
                   ["q"], ["ab", "a", "b"], ["b"], ["a", "b", "<s>"]):
        table = model.features(tokens)
        assert table.slots.dtype == np.int32 and table.slots.flags.c_contiguous
        assert table.slots.shape == (10, len(tokens))
        for i in range(len(tokens)):
            assert table.slots[:, i].tolist() == [index.get(f, -1)
                                                  for f in emission_features(tokens, i)]
    size = len(model.token_ids)
    for tokens in (["u1"], ["u2", "u3", "u2"], [f"fresh{i}" for i in range(50)]):
        model.viterbi(tokens)
    assert len(model.token_ids) == size


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
    """A layout plus an index lacking about ``drop`` of its string features
    (and holding two it never uses) and random weights."""
    rng = np.random.default_rng(seed)
    full = sorted(edge_index_reference([Document("d", tokens, entities)]))
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


def without_btw(layout):
    """``layout`` with every btw= feature dropped from its index."""
    tokens, entities, index, w, rng = layout
    names = [f for f in index if not f.startswith("btw=")]
    return tokens, entities, {f: i for i, f in enumerate(names)}, w[[index[f] for f in names]], rng


# A pipeline-workload size document: 32 entities of 1-5 tokens, some
# overlapping, over LONG_TOKENS, with many tokens between their spans.
LONG = arc_layout(LONG_TOKENS, [Entity(f"E{i}", "xyz"[i % 3], [Mention(s, s + 1 + i % 5)])
                                for i, s in enumerate(range(1, 129, 4))], 0.1, 5)


# 47 entities over 190 tokens: 2,209 candidate arcs, cut into three blocks of
# at most ARC_BLOCK (1,024), the first cut falling among child 22's arcs.
BLOCKS = arc_layout([f"w{k}" for k in np.random.default_rng(8).integers(0, 40, size=190)],
                    [Entity(f"E{i}", "xyz"[i % 3], [Mention(s, s + 1 + i % 4)])
                     for i, s in enumerate(range(1, 189, 4))], 0.1, 9)


@example(REPEATS)
@example(LONG)
@example(BLOCKS)
@example(without_btw(REPEATS))
@example(arc_layout(["a", "b", "a"], [Entity("E1", "x", [Mention(2, 3)])], 0.0, 6))
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
    table.feats.scatter(1)(table_grad, coeff)
    assert np.array_equal(table_grad, loop_grad)


def test_blocks_cut_a_long_table_inside_a_childs_arcs():
    tokens, entities, index, _, _ = BLOCKS
    blocks = list(arc_blocks(entities, tokens, index))
    assert [len(b.heads) for b in blocks] == [ARC_BLOCK, ARC_BLOCK, len(entities) ** 2 - 2 * ARC_BLOCK]
    assert blocks[0].children[-1] == blocks[1].children[0]
    assert all(b.feats.slots.dtype == np.int32 and b.feats.slots.shape[1] == len(b.heads) for b in blocks)


@pytest.mark.parametrize("block", [1, 7])
def test_blocks_keep_every_byte(block, monkeypatch):
    """Trained weights and arc matrices do not depend on the block size: the
    ads here, one block each at ``ARC_BLOCK``, are cut into many."""
    docs = toy_docs()

    def outcome():
        models = train_ltm(docs, 2, 0.05, 0), train_mtt(docs, 2, 0.05, 0)
        return [m.w.data.tobytes() for m in models] + [
            m.arc_matrix(doc.entities, doc.tokens).tobytes() for m in models for doc in docs]

    want = outcome()
    monkeypatch.setattr(edge_models, "ARC_BLOCK", block)
    assert outcome() == want


def joined_ads(n_ads, seed):
    """The tokens and entities of ``n_ads`` synthetic ads in a row, each
    entity renamed by its ad and its mentions shifted."""
    tokens, entities = [], []
    for a, ad in enumerate(generate_corpus(SyntheticConfig(n_docs=n_ads, seed=seed, ambiguous=True))):
        entities += [Entity(f"A{a}.{e.id}", e.type, [Mention(m.start + len(tokens), m.end + len(tokens))
                                                     for m in e.mentions]) for e in ad.entities]
        tokens += ad.tokens
    return tokens, entities


@pytest.mark.parametrize("model", [MttModel, LtmModel])
def test_arc_matrix_memory_on_a_long_document(model):
    """On 60 joined ads (245 entities, 60,025 arcs), scoring keeps the
    (t+1)^2 score matrix (LTM's log-sigmoid about four more) and one block of
    arcs: ARC_BLOCK * (9 + V) int32 ids, their intp copy in the gather and the
    gathered weights, about 20 index arrays of ARC_BLOCK, and the (n+1, V+1)
    int32 prefix counts of the btw= tokens.  Never the whole (9 + V, t^2)
    table, which is 35 MB here."""
    tokens, entities = joined_ads(60, 3)
    recorder = Recorder()
    list(arc_blocks(entities, tokens, recorder))  # names every feature of every arc
    model = model(recorder)
    model.w.data[:] = np.random.default_rng(0).normal(size=len(recorder))
    t, v = len(entities), sum(f"btw={tok}" in recorder for tok in set(tokens))
    tracemalloc.start()
    try:
        model.arc_matrix(entities, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrices = 1 if model.kind == "mtt" else 5
    assert t * t > 50 * ARC_BLOCK
    assert peak <= (matrices * (t + 1) ** 2 * 8 + ARC_BLOCK * ((9 + v) * 24 + 20 * 8)
                    + (len(tokens) + 1) * (v + 1) * 4)


def check_training_cases(docs):
    """``_training_cases`` numbers the features that some candidate arc has
    in name order, as the string reference does, and its tables are
    ``arc_features`` over that index.  A corpus with a broken forest raises
    the message that ``encode_tree_to_heads`` gives its first such document."""
    for doc in docs:
        try:
            encode_tree_to_heads(doc)
        except ValueError as broken:
            with pytest.raises(ValueError, match=f"^{re.escape(str(broken))}$"):
                _training_cases(docs)
            return
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
        assert gold.tolist() == [getattr(parent, "id", ROOT_ID) == child.parent
                                 for _, _, parent, child in candidate_arcs(doc.entities)]


@st.composite
def training_corpora(draw):
    """One to three gold forests from ``entity_layouts``: an entity whose
    mentions would share a token with an earlier one's is left out, and each
    parent is the root or an earlier entity."""
    docs = []
    for i in range(draw(st.integers(1, 3))):
        tokens, entities = draw(entity_layouts())
        kept, used = [], set()
        for e in entities:
            span = [t for m in e.mentions for t in range(m.start, m.end)]
            if used.isdisjoint(span) and len(set(span)) == len(span):
                used.update(span)
                parent = draw(st.sampled_from([ROOT_ID] + [k.id for k in kept]))
                kept.append(replace(e, parent=parent))
        docs.append(Document(f"d{i}", tokens, kept))
    return docs


# REPEATS' E3 overlaps E2, and "Z" is no entity's id: both corpora are refused.
@example(docs=[Document("d0", REPEATS[0], REPEATS[1])])
@example(docs=[Document("d0", REPEATS[0], REPEATS[1][:2]),
               Document("d1", ["a"], [Entity("A", "x", [Mention(1, 2)], "Z")])])
@example(docs=[Document("d0", REPEATS[0], REPEATS[1][:2])])
@given(training_corpora())
def test_training_index_matches_the_string_features(docs):
    check_training_cases(docs + [Document("empty", ["a"], [])])


@pytest.mark.parametrize("config", [
    dict(nonprojective_rate=0.0), dict(ambiguous=True), dict(nonprojective_rate=0.6)],
    ids=["plain", "ambiguous", "nonprojective"])
def test_training_index_matches_the_string_features_on_synthetic_corpora(config):
    check_training_cases(generate_corpus(SyntheticConfig(n_docs=30, seed=5, **config)))


def check_crf_training_index(docs):
    """``train_crf`` numbers the emission features that some training position
    has in name order, as the string reference does, and it trains on the
    tables that ``CrfModel.features`` builds over that index."""
    with mock.patch("proptree.pipeline.crf.fit") as fit:
        model = train_crf(docs, lam=1.0, epochs=1, lr=0.1, seed=0)
    assert list(model.feature_index.items()) == list(feature_index_from_corpus(docs).items())
    cases = fit.call_args.args[1]
    assert len(cases) == len(docs)
    for doc, (table, y, _) in zip(docs, cases):
        want = model.features(doc.tokens).slots
        assert table.slots.dtype == want.dtype and table.slots.flags.c_contiguous
        assert np.array_equal(table.slots, want)
        assert y.tolist() == [model.tag_index[t] for t in bio_encode(doc)]


@st.composite
def crf_corpora(draw):
    """One to four documents over a few words, the literal <s> and </s> among
    them, each with single-mention entities of two types on random spans."""
    docs = []
    for d in range(draw(st.integers(1, 4))):
        tokens = draw(st.lists(st.sampled_from(["a", "Ab", "12", "<s>", "</s>"]), min_size=1, max_size=6))
        entities, t = [], 1
        while t <= len(tokens):
            width = draw(st.integers(0, 2))
            if width and t + width <= len(tokens) + 1:
                entities.append(Entity(f"E{t}", draw(st.sampled_from(["x", "y"])), [Mention(t, t + width)]))
            t += max(width, 1)
        docs.append(Document(f"d{d}", tokens, entities))
    return docs


# A one-token document, a token seen only first and one seen only last (their
# next= and prev= are recorded but on no position), and the literal <s> and </s>.
@example([Document("one", ["solo"], []),
          Document("ends", ["top", "a", "last"], [Entity("E1", "x", [Mention(2, 4)])]),
          Document("marks", ["<s>", "a", "</s>"], [])])
@given(crf_corpora())
def test_crf_training_index_matches_the_string_features(docs):
    check_crf_training_index(docs)


def test_crf_training_index_matches_the_string_features_on_a_synthetic_corpus():
    check_crf_training_index(generate_corpus(SyntheticConfig(n_docs=30, seed=5, ambiguous=True)))


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


def test_mtt_training_names_the_stage_and_epoch_of_a_singular_laplacian():
    """At lr 10 an MTT step meets a Laplacian that float64 cannot invert: the
    root arcs sit 50 to 100 nats below each column's maximum.  Training raises
    the step's error with the stage and the epoch before it."""
    docs = generate_corpus(SyntheticConfig(n_docs=30, seed=3))
    message = "MttModel: epoch 1: singular Laplacian: node 3 is effectively isolated"
    with pytest.raises(ValueError, match=f"^{message}$") as info:
        train_mtt(docs, epochs=3, lr=10.0, seed=0)
    assert isinstance(info.value.__cause__, ValueError)


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
