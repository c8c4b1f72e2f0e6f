"""End-to-end pipeline inference: tag, build candidates, attach, enforce tree.

Stages are injectable callables so oracle tags or oracle scores can replace
trained models in tests.  Every detected mention becomes its own candidate
entity; the edge stage picks each one's parent; Chu-Liu-Edmonds guarantees
the result is a tree.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..data import Document, Entity, Mention, ROOT_ID, bio_decode_spans, first_cycle_node
from ..mst import WeightedDigraph, chu_liu_edmonds

Tagger = Callable[[list[str]], list[str]]
ArcScorer = Callable[[Entity | None, Entity, list[str]], float]


def entities_from_tags(tags: list[str]) -> list[Entity]:
    """One single-mention entity candidate per BIO span, in text order."""
    return [
        Entity(f"M{i + 1}", etype, [Mention(start, end)])
        for i, (start, end, etype) in enumerate(bio_decode_spans(tags))
    ]


def entity_graph(entities: Sequence[Entity], tokens: list[str],
                 arc_score: ArcScorer) -> WeightedDigraph:
    k = len(entities) + 1
    weights = np.full((k, k), -np.inf)
    for m, child in enumerate(entities, start=1):
        weights[0, m] = arc_score(None, child, tokens)
        for h, parent in enumerate(entities, start=1):
            if h != m:
                weights[h, m] = arc_score(parent, child, tokens)
    return WeightedDigraph(list(range(k)), weights)


def greedy_entity_parents(entities: Sequence[Entity], tokens: list[str],
                          arc_score: ArcScorer) -> list[int]:
    """Independent best head per entity (0 = root); ties to the smaller head."""
    out = []
    for m, child in enumerate(entities, start=1):
        best_h, best_w = 0, arc_score(None, child, tokens)
        for h, parent in enumerate(entities, start=1):
            if h == m:
                continue
            w = arc_score(parent, child, tokens)
            if w > best_w:
                best_h, best_w = h, w
        out.append(best_h)
    return out


def parents_form_tree(parents: list[int]) -> bool:
    """True when every entity reaches the root without repeating a node."""
    return first_cycle_node(dict(enumerate(parents, start=1))) is None


def pipeline_predict(doc_id: str, tokens: list[str], tagger: Tagger,
                     arc_score: ArcScorer) -> tuple[Document, bool]:
    """Predict a document tree; also report whether the greedy attachment
    already formed a tree before enforcement."""
    entities = entities_from_tags(tagger(tokens))
    if not entities:
        return Document(doc_id, list(tokens), []), True

    greedy = greedy_entity_parents(entities, tokens, arc_score)
    was_tree = parents_form_tree(greedy)

    parent_of = chu_liu_edmonds(entity_graph(entities, tokens, arc_score))
    for m, entity in enumerate(entities, start=1):
        head = parent_of[m]
        entity.parent = ROOT_ID if head == 0 else entities[head - 1].id
    return Document(doc_id, list(tokens), entities), was_tree
