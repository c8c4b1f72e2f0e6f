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
from .edge_models import candidate_arcs

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
    """Dense arc weights over the root (node 0) and the entities (nodes 1..t)."""
    k = len(entities) + 1
    weights = np.full((k, k), -np.inf)
    for h, m, parent, child in candidate_arcs(entities):
        weights[h, m] = arc_score(parent, child, tokens)
    return WeightedDigraph(list(range(k)), weights)


def greedy_entity_parents(entities: Sequence[Entity], tokens: list[str],
                          arc_score: ArcScorer) -> list[int]:
    """Independent best head per entity (0 = root): the first maximum of each
    column, so the root wins ties and otherwise the smaller head does."""
    return entity_graph(entities, tokens, arc_score).weights[:, 1:].argmax(axis=0).tolist()


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
