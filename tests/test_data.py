"""Data model: spans, head encoding, BIO tags, corpus IO."""

import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proptree.corpus import (
    doc_from_json,
    doc_to_json,
    read_corpus,
    split_corpus,
    write_corpus,
)
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
    bio_decode_spans,
    bio_encode,
    decode_heads_to_tree,
    encode_tree_to_heads,
    structure_signature,
)
from proptree.synthetic import SyntheticConfig, generate_corpus

from helpers import (
    bio_decode_spans_reference,
    decode_heads_to_tree_reference,
    encode_tree_to_heads_reference,
    entity_by_id,
    has_crossing_arcs,
)


def simple_doc():
    # "lovely villa with garden": a two-token property containing a space
    return Document(
        id="d1",
        tokens=["lovely", "villa", "with", "garden"],
        entities=[
            Entity("E1", "property", [Mention(1, 3)]),
            Entity("E2", "space", [Mention(4, 5)], parent="E1"),
        ],
    )


def repeat_doc():
    # second mention of E1 at position 5 points back to the main anchor
    return Document(
        id="d2",
        tokens=["villa", "with", "garden", "and", "villa"],
        entities=[
            Entity("E1", "property", [Mention(1, 2), Mention(5, 6)]),
            Entity("E2", "space", [Mention(3, 4)], parent="E1"),
        ],
    )


def crossing_doc():
    # two sibling subtrees whose arcs interleave in the token order
    return Document(
        id="d3",
        tokens=["p", "g", "s", "x"],
        entities=[
            Entity("P", "property", [Mention(1, 2)]),
            Entity("G", "extra_building", [Mention(2, 3)], parent="P"),
            Entity("S", "space", [Mention(3, 4)], parent="P"),
            Entity("X", "space", [Mention(4, 5)], parent="G"),
        ],
    )


def test_mention_span_validation():
    m = Mention(2, 4)
    assert m.anchor == 3
    with pytest.raises(ValueError):
        Mention(0, 2)  # positions are 1-based
    with pytest.raises(ValueError):
        Mention(3, 3)  # empty span


def test_entity_main_mention_is_first_in_text_order():
    e = Entity("E", "space", [Mention(5, 7), Mention(2, 3)])
    assert e.main_mention() == Mention(2, 3)
    # A tie on start goes to the shorter span, a repeated span to its first copy.
    assert Entity("E", None, [Mention(2, 4), Mention(2, 3)]).main_mention() == Mention(2, 3)
    first, again = Mention(2, 3), Mention(2, 3)
    assert Entity("E", None, [first, again]).main_mention() is first


def test_document_lookup():
    doc = simple_doc()
    assert doc.n == 4
    assert entity_by_id(doc, "E2").type == "space"
    with pytest.raises(KeyError):
        entity_by_id(doc, "nope")


def test_assignment_basics():
    a = TokenHeadAssignment([2, 0, 3, 2], [SEGMENT, PART_OF, SKIP, PART_OF])
    assert a.n == 4
    assert a.head_of(1) == 2 and a.label_of(3) == SKIP
    assert a.triples() == {(1, 2, SEGMENT), (2, 0, PART_OF), (4, 2, PART_OF)}
    a.validate_gold()

    with pytest.raises(ValueError):
        TokenHeadAssignment([1], [SKIP, SKIP])
    with pytest.raises(ValueError):
        TokenHeadAssignment([5], [PART_OF]).validate_gold()  # head range
    with pytest.raises(ValueError):
        TokenHeadAssignment([2, 2], [SKIP, SKIP]).validate_gold()  # skip without self-head
    with pytest.raises(ValueError):
        TokenHeadAssignment([1], [PART_OF]).validate_gold()  # self-head without skip


def test_encode_simple_doc():
    got = encode_tree_to_heads(simple_doc())
    assert got == TokenHeadAssignment([2, 0, 3, 2], [SEGMENT, PART_OF, SKIP, PART_OF])


def test_encode_repeat_mention_as_equivalent():
    got = encode_tree_to_heads(repeat_doc())
    assert got.head_of(5) == 1 and got.label_of(5) == EQUIVALENT
    assert got.head_of(1) == 0 and got.label_of(1) == PART_OF
    assert got.head_of(3) == 1 and got.label_of(3) == PART_OF


def test_decode_inverts_encode_on_handmade_docs():
    for doc in (simple_doc(), repeat_doc(), crossing_doc()):
        enc = encode_tree_to_heads(doc)
        back = decode_heads_to_tree(enc, doc.tokens, doc_id=doc.id)
        assert structure_signature(back) == structure_signature(doc)


def test_roundtrip_on_generated_corpus():
    docs = generate_corpus(SyntheticConfig(n_docs=60, seed=5, equivalent_rate=0.3))
    for doc in docs:
        enc = encode_tree_to_heads(doc)
        enc.validate_gold()
        back = decode_heads_to_tree(enc, doc.tokens, doc_id=doc.id)
        assert structure_signature(back) == structure_signature(doc)


@st.composite
def forests(draw):
    """Disjoint mentions grouped into entities (a later mention may repeat an
    earlier entity) under random parent links that never form a cycle."""
    n = draw(st.integers(1, 14))
    spans, pos = [], 1
    while pos <= n:
        length = draw(st.integers(0, min(3, n + 1 - pos)))
        if length:
            spans.append(Mention(pos, pos + length))
        pos += max(length, 1)
    groups: list[list[Mention]] = []
    for span in spans:
        k = draw(st.integers(0, 2 * len(groups)))
        if k < len(groups):
            groups[k].append(span)
        else:
            groups.append([span])
    order = draw(st.permutations(range(len(groups))))
    entities = [None] * len(groups)
    for rank, g in enumerate(order):
        above = draw(st.integers(-1, rank - 1))
        parent = "ROOT" if above < 0 else f"E{order[above]}"
        entities[g] = Entity(f"E{g}", "t", groups[g], parent)
    return Document("d", [f"w{i}" for i in range(n)], entities)


@given(forests())
def test_decode_inverts_encode_on_random_forests(doc):
    enc = encode_tree_to_heads(doc)
    enc.validate_gold()
    back = decode_heads_to_tree(enc, doc.tokens, doc_id=doc.id)
    assert structure_signature(back) == structure_signature(doc)
    assert encode_tree_to_heads(back) == enc
    # Each entity lists its mentions in text order.
    assert all(e.mentions == sorted(e.mentions) for e in back.entities)


@settings(max_examples=500)
@given(st.lists(st.tuples(st.sampled_from([PART_OF, SEGMENT, EQUIVALENT, SKIP]), st.integers(0, 7)),
                min_size=1, max_size=7))
@example([(PART_OF, 0), (EQUIVALENT, 1), (EQUIVALENT, 2)])
def test_decode_covers_every_non_skip_token_or_raises(arcs):
    """A decoded tree's mentions cover exactly the tokens not labelled skip;
    an assignment that cannot keep them all raises ValueError instead.  Each
    (label, head) pair is one token; a skip token's head is itself."""
    n = len(arcs)
    labels = [c for c, _ in arcs]
    heads = [t if c == SKIP else h % (n + 1) for t, (c, h) in enumerate(arcs, start=1)]
    try:
        doc = decode_heads_to_tree(TokenHeadAssignment(heads, labels), [f"w{t}" for t in range(n)])
    except ValueError:
        return
    covered = sorted(t for e in doc.entities for m in e.mentions for t in range(m.start, m.end))
    assert covered == [t for t, c in enumerate(labels, start=1) if c != SKIP]


def test_decode_rejects_equivalent_arc_to_a_repeat_mention():
    # token 3 repeats token 2, itself a repeat of token 1: not a first mention
    bad = TokenHeadAssignment([0, 1, 2], [PART_OF, EQUIVALENT, EQUIVALENT])
    with pytest.raises(ValueError, match="token 3: repeat-mention arc points at 2, "
                                         "which anchors no first mention"):
        decode_heads_to_tree(bad, ["a", "b", "c"], doc_id="bad")


def test_decode_rejects_gapped_segment_span():
    # tokens 1 and 3 both attach to anchor 4 but token 2 does not
    bad = TokenHeadAssignment([4, 2, 4, 0], [SEGMENT, SKIP, SEGMENT, PART_OF])
    with pytest.raises(ValueError):
        decode_heads_to_tree(bad, ["a", "b", "c", "d"], doc_id="bad")


def test_decode_rejects_forward_segment_arc():
    # anchor must be the last token of its span
    bad = TokenHeadAssignment([0, 1, 3], [PART_OF, SEGMENT, SKIP])
    with pytest.raises(ValueError):
        decode_heads_to_tree(bad, ["a", "b", "c"], doc_id="bad")


def test_decode_rejects_parent_cycle():
    bad = TokenHeadAssignment([2, 1], [PART_OF, PART_OF])
    with pytest.raises(ValueError):
        decode_heads_to_tree(bad, ["a", "b"], doc_id="bad")


def test_crossing_arc_detection():
    assert has_crossing_arcs(encode_tree_to_heads(crossing_doc()))
    assert not has_crossing_arcs(encode_tree_to_heads(simple_doc()))
    assert not has_crossing_arcs(encode_tree_to_heads(repeat_doc()))


def test_structure_signature_ignores_ids_and_types():
    doc = simple_doc()
    renamed = Document(
        id="other",
        tokens=doc.tokens,
        entities=[
            Entity("Z9", "floor", [Mention(1, 3)]),
            Entity("A0", "field", [Mention(4, 5)], parent="Z9"),
        ],
    )
    assert structure_signature(doc) == structure_signature(renamed)


def test_bio_encode_decode():
    tags = bio_encode(simple_doc())
    assert tags == ["B-property", "I-property", "O", "B-space"]
    assert bio_decode_spans(tags) == [(1, 3, "property"), (4, 5, "space")]

    # stray I- opens a fresh span instead of failing
    assert bio_decode_spans(["O", "I-x", "I-x", "B-x"]) == [(2, 4, "x"), (4, 5, "x")]
    assert bio_decode_spans(["I-a", "I-b"]) == [(1, 2, "a"), (2, 3, "b")]

    overlapping = Document(
        id="bad",
        tokens=["a", "b"],
        entities=[
            Entity("E1", "x", [Mention(1, 3)]),
            Entity("E2", "y", [Mention(2, 3)]),
        ],
    )
    with pytest.raises(ValueError):
        bio_encode(overlapping)


@given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b", "I-", "X"]), max_size=10))
def test_bio_decode_spans_matches_the_three_branch_decoder(tags):
    """Same spans, or the same ValueError message, as the frozen decoder."""
    try:
        expected = bio_decode_spans_reference(tags)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            bio_decode_spans(tags)
        assert str(got.value) == str(exc)
        return
    assert bio_decode_spans(tags) == expected


def test_json_roundtrip_and_validation():
    doc = repeat_doc()
    again = doc_from_json(doc_to_json(doc))
    assert again == doc

    bad = doc_to_json(doc)
    bad["entities"][1]["parent"] = "missing"
    with pytest.raises(ValueError):
        doc_from_json(bad)

    rootless = doc_to_json(doc)
    del rootless["entities"][1]["parent"]  # a missing parent is the root
    assert doc_from_json(rootless).entities[1].parent == ROOT_ID


def test_corpus_file_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    for cfg in (SyntheticConfig(n_docs=8, seed=1),
                SyntheticConfig(n_docs=60, seed=5, equivalent_rate=0.3),
                SyntheticConfig(n_docs=60, seed=6, ambiguous=True, nonprojective_rate=0.5)):
        docs = generate_corpus(cfg)
        write_corpus(path, docs)
        assert read_corpus(path) == docs

    path.write_text('{"id": "x", "tokens": []}\n')
    with pytest.raises(ValueError, match="corpus.jsonl:1"):
        read_corpus(path)


# Gold documents with repeats, crossing arcs and nested parents, for ``broken_forests`` to edit.
FOREST_POOL = generate_corpus(SyntheticConfig(n_docs=40, seed=11, equivalent_rate=0.3,
                                              nonprojective_rate=0.5))


@st.composite
def broken_forests(draw):
    """A gold document after up to three edits, each of which may break the
    gold-forest rule in one of its ways: an entity takes another's id, a
    parent (unknown, itself, another entity or the root), a type that is not
    a string, no mentions, or a new span, which may run past the last token
    or share tokens with another mention."""
    doc = draw(st.sampled_from(FOREST_POOL))
    entities = [Entity(e.id, e.type, list(e.mentions), e.parent) for e in doc.entities]
    for edit in draw(st.lists(st.sampled_from(["id", "parent", "type", "mentions", "span"]),
                              max_size=3 if entities else 0)):
        e = draw(st.sampled_from(entities))
        if edit == "id":
            e.id = draw(st.sampled_from(entities)).id
        elif edit == "parent":
            e.parent = draw(st.sampled_from([ROOT_ID, "Z", *(o.id for o in entities)]))
        elif edit == "type":
            e.type = 3
        elif edit == "mentions":
            e.mentions = []
        else:
            # Replaces mention i, or adds one when i is past the last.
            i, start = draw(st.integers(0, len(e.mentions))), draw(st.integers(1, doc.n + 1))
            e.mentions[i:i + 1] = [Mention(start, draw(st.integers(start + 1, doc.n + 2)))]
    return Document(doc.id, doc.tokens, entities)


@settings(max_examples=400)
@example(repeat_doc())
@example(crossing_doc())
@example(Document("rep", ["a", "b", "c"],
                  [Entity("E1", "property", [Mention(2, 3), Mention(2, 3)])]))
@given(broken_forests())
def test_a_forest_that_encodes_passes_validate_gold(doc):
    """``encode_tree_to_heads`` owns the gold-forest rule: an assignment that it
    returns meets ``validate_gold``'s invariants and decodes back to the same
    forest, which encodes to the same heads; it refuses every other document
    with a ``ValueError``."""
    try:
        gold = encode_tree_to_heads(doc)
    except ValueError:
        return
    gold.validate_gold()
    back = decode_heads_to_tree(gold, doc.tokens, doc_id=doc.id)
    assert structure_signature(back) == structure_signature(doc)
    assert encode_tree_to_heads(back) == gold


def codec_outcome(fn, *args, **kwargs):
    """fn's value, or the message of the ``ValueError`` it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300)
@example(repeat_doc())
@given(broken_forests())
def test_encode_matches_the_frozen_codec(doc):
    """The same assignment as the codec that found each entity's first
    mention twice with a key function, or the same ``ValueError`` message."""
    assert codec_outcome(encode_tree_to_heads, doc) == codec_outcome(encode_tree_to_heads_reference, doc)


@st.composite
def assignments(draw):
    """Arcs of every kind, well-formed or not: segment chains that run forward
    to an anchor, back or in a cycle, arcs to 0, back and to skip tokens,
    and repeat arcs to any token, forward ones included."""
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(st.sampled_from([PART_OF, SEGMENT, SEGMENT, EQUIVALENT, SKIP]),
                           min_size=n, max_size=n))
    heads = [draw(st.one_of(st.just(min(t + 1, n)), st.just(0), st.integers(1, t), st.integers(0, n)))
             for t in range(1, n + 1)]
    return TokenHeadAssignment(heads, labels)


@settings(max_examples=1000)
@example(TokenHeadAssignment([0, 1, 1, 3, 1], [PART_OF, EQUIVALENT, SEGMENT, PART_OF, EQUIVALENT]))
@example(TokenHeadAssignment([2, 3, 1], [SEGMENT, SEGMENT, SEGMENT]))
@example(TokenHeadAssignment([2, 3, 0, 0], [SEGMENT, SEGMENT, SEGMENT, PART_OF]))
@example(TokenHeadAssignment([3, 3, 3, 0], [SEGMENT, SEGMENT, SKIP, PART_OF]))
@example(TokenHeadAssignment([2, 4, 3, 0], [SEGMENT, SEGMENT, SEGMENT, PART_OF]))
@example(TokenHeadAssignment([3, 0, 1, 2], [PART_OF, PART_OF, EQUIVALENT, SEGMENT]))
@example(TokenHeadAssignment([0, 3, 0, 2], [PART_OF, SEGMENT, PART_OF, EQUIVALENT]))
@given(assignments())
def test_decode_matches_the_frozen_codec(assignment):
    """The same document as the codec that walked every segment chain afresh
    and grouped mentions by a scan per entity, or the same ``ValueError``
    message, for any arcs with heads in 0..n."""
    tokens = [f"w{t}" for t in range(assignment.n)]
    assert (codec_outcome(decode_heads_to_tree, assignment, tokens, doc_id="x")
            == codec_outcome(decode_heads_to_tree_reference, assignment, tokens, doc_id="x"))


def test_decoding_a_segment_chain_is_linear_in_its_length():
    """One mention of n tokens, each pointing at the next: 4x the tokens take
    less than 8x the time (the frozen codec took about 50x).  The best of
    several runs keeps the ratio free of the host's speed."""
    def best_seconds(n):
        assignment = TokenHeadAssignment([*range(2, n + 1), 0], [SEGMENT] * (n - 1) + [PART_OF])
        tokens = ["w"] * n
        doc = decode_heads_to_tree(assignment, tokens)
        assert [e.mentions for e in doc.entities] == [[Mention(1, n + 1)]]
        times = []
        for _ in range(15):
            started = time.perf_counter()
            decode_heads_to_tree(assignment, tokens)
            times.append(time.perf_counter() - started)
        return min(times)

    assert best_seconds(801) < 8 * best_seconds(201)


def entity_json(eid, start, end, parent="ROOT"):
    return {"id": eid, "type": "space", "mentions": [{"start": start, "end": end}],
            "parent": parent}


@pytest.mark.parametrize("obj, message", [
    ({"id": "o", "tokens": ["a", "b", "c"],
      "entities": [entity_json("A", 1, 3), entity_json("B", 2, 4)]},
     "token 2 assigned twice"),
    # An entity that names one token twice: its repeat would point at itself.
    ({"id": "p", "tokens": ["a", "b", "c"],
      "entities": [{"id": "A", "type": "space", "parent": "ROOT",
                    "mentions": [{"start": 2, "end": 3}, {"start": 2, "end": 3}]}]},
     "document 'p': token 2 assigned twice"),
    ({"id": "s", "tokens": ["a"], "entities": [entity_json("A", 1, 2, parent="A")]},
     "parent links form a cycle through 'A'"),
    ({"id": "c", "tokens": ["a", "b"],
      "entities": [entity_json("A", 1, 2, parent="B"), entity_json("B", 2, 3, parent="A")]},
     "parent links form a cycle through 'A'"),
    ({"id": "r", "tokens": ["a", "b"],
      "entities": [entity_json("ROOT", 1, 2), entity_json("E2", 2, 3)]},
     "document 'r': entity id 'ROOT' names the document root"),
    (["x"], "expected a JSON object, got list"),
    ({"id": "t", "tokens": 5}, "'int' object is not iterable"),
])
def test_read_corpus_rejects_what_cannot_be_encoded_with_its_line(tmp_path, obj, message):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(doc_to_json(simple_doc()))
    path.write_text(f"{good}\n\n{json.dumps(obj)}\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:3: .*" + re.escape(message)):
        read_corpus(path)


def test_an_entity_may_not_take_the_roots_name():
    # A child that names the parent ROOT would be attached to the root.
    doc = Document("r", ["a", "b"], [Entity("ROOT", "space", [Mention(1, 2)], ROOT_ID),
                                     Entity("E2", "space", [Mention(2, 3)], "ROOT")])
    with pytest.raises(ValueError, match=r"^document 'r': entity id 'ROOT' names the document root$"):
        encode_tree_to_heads(doc)


def test_split_corpus_partitions_without_overlap():
    docs = generate_corpus(SyntheticConfig(n_docs=20, seed=2))
    train, dev, test = split_corpus(docs, seed=3, dev_frac=0.2, test_frac=0.2)
    assert len(dev) == 4 and len(test) == 4 and len(train) == 12
    ids = [d.id for d in train + dev + test]
    assert sorted(ids) == sorted(d.id for d in docs)
    # same seed reproduces the same split
    again = split_corpus(docs, seed=3, dev_frac=0.2, test_frac=0.2)
    assert [d.id for d in again[0]] == [d.id for d in train]
    # fractions that would put a document in two splits, or NaN, are rejected
    nan = float("nan")
    for dev_frac, test_frac in ((0.6, 0.6), (-0.2, 0.1), (0.1, -0.2), (nan, 0.1), (0.1, nan)):
        with pytest.raises(ValueError, match="dev and test fractions must be non-negative"):
            split_corpus(docs[:10], seed=3, dev_frac=dev_frac, test_frac=test_frac)
    assert [len(part) for part in split_corpus(docs[:10], 3, 0.5, 0.5)] == [0, 5, 5]


def test_generator_hits_nonprojective_rate():
    docs = generate_corpus(SyntheticConfig(n_docs=200, seed=7, nonprojective_rate=0.4))
    crossing = sum(has_crossing_arcs(encode_tree_to_heads(d)) for d in docs)
    assert 0.25 <= crossing / len(docs) <= 0.55


def test_generator_is_deterministic():
    cfg = SyntheticConfig(n_docs=10, seed=42, ambiguous=True)
    assert generate_corpus(cfg) == generate_corpus(cfg)
