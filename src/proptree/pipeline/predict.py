"""End-to-end pipeline inference: tag, build candidates, attach, enforce tree.

Stages are injectable callables so oracle tags or an oracle arc matrix can
replace trained models in tests.  Every detected mention becomes its own
candidate entity; the edge stage weighs every candidate arc once, in one
matrix; greedy heads and Chu-Liu-Edmonds, which guarantees a tree, both
read that matrix.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..data import Document, Entity, Mention, ROOT_ID, bio_decode_spans, first_cycle_node
from ..mst import WeightedDigraph, chu_liu_edmonds

Tagger = Callable[[list[str]], list[str]]
# (entities, tokens) -> (t+1, t+1) [head, child] arc weights, -inf off the
# candidate arcs; node 0 is the root and node i is entities[i - 1].
ArcMatrix = Callable[[Sequence[Entity], list[str]], np.ndarray]


def entities_from_tags(tags: list[str]) -> list[Entity]:
    """One single-mention entity candidate per BIO span, in text order."""
    return [
        Entity(f"M{i + 1}", etype, [Mention(start, end)])
        for i, (start, end, etype) in enumerate(bio_decode_spans(tags))
    ]


def entity_graph(entities: Sequence[Entity], tokens: list[str],
                 arc_matrix: ArcMatrix) -> WeightedDigraph:
    """Dense arc weights over the root (node 0) and the entities (nodes 1..t)."""
    return WeightedDigraph(list(range(len(entities) + 1)), arc_matrix(entities, tokens))


def greedy_entity_parents(weights: np.ndarray) -> list[int]:
    """Independent best head per entity (0 = root): the first maximum of each
    column, so the root wins ties and otherwise the smaller head does."""
    return weights[:, 1:].argmax(axis=0).tolist()


def parents_form_tree(parents: list[int]) -> bool:
    """True when every entity reaches the root without repeating a node."""
    return first_cycle_node(dict(enumerate(parents, start=1))) is None


def pipeline_predict(doc_id: str, tokens: list[str], tagger: Tagger,
                     arc_matrix: ArcMatrix) -> tuple[Document, bool]:
    """Predict a document tree; also report whether the greedy attachment
    already formed a tree before enforcement."""
    entities = entities_from_tags(tagger(tokens))
    if not entities:
        return Document(doc_id, list(tokens), []), True

    graph = entity_graph(entities, tokens, arc_matrix)
    was_tree = parents_form_tree(greedy_entity_parents(graph.weights))
    parent_of = chu_liu_edmonds(graph)
    for m, entity in enumerate(entities, start=1):
        head = parent_of[m]
        entity.parent = ROOT_ID if head == 0 else entities[head - 1].id
    return Document(doc_id, list(tokens), entities), was_tree
