"""Corpus serialization (JSONL) and deterministic splitting.

One document per line:

    {"id": "d1", "tokens": ["large", "balcony"],
     "entities": [{"id": "T1", "type": "space",
                   "mentions": [{"start": 1, "end": 3}], "parent": "ROOT"}]}

Token indices are 1-based and spans are half-open.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import Document, Entity, Mention, ROOT_ID, encode_tree_to_heads
from .embeddings import read_lines


def doc_to_json(doc: Document) -> dict:
    return {
        "id": doc.id,
        "tokens": list(doc.tokens),
        "entities": [
            {
                "id": e.id,
                "type": e.type,
                "mentions": [{"start": m.start, "end": m.end} for m in e.mentions],
                "parent": e.parent,
            }
            for e in doc.entities
        ],
    }


def doc_from_json(obj: dict) -> Document:
    """Raises ``ValueError`` for a value of the wrong JSON type, which is
    checked and not converted: a document's and an entity's ``id`` and an
    entity's ``parent`` must be strings (a missing ``parent`` is the root),
    ``tokens`` a list of strings, an entity's ``type`` a string or null, and
    a mention's ``start`` and ``end`` integers (``Mention`` checks those)."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    doc = Document(
        id=_string(obj["id"], "document id"),
        tokens=obj["tokens"],
        entities=[
            Entity(
                id=_string(e["id"], f"document {obj['id']!r}: entity id"),
                type=e.get("type"),
                mentions=[Mention(m["start"], m["end"]) for m in e["mentions"]],
                parent=_string(e.get("parent", ROOT_ID),
                               f"document {obj['id']!r}: entity {e['id']!r}: parent"),
            )
            for e in obj.get("entities", [])
        ],
    )
    _validate(doc)
    return doc


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} {value!r} is not a string")
    return value


def _validate(doc: Document) -> None:
    # Iterated first, so that tokens that are not a collection keep Python's message.
    if not (all(isinstance(t, str) for t in doc.tokens) and isinstance(doc.tokens, list)):
        raise ValueError(f"document {doc.id!r}: tokens must be a list of strings")
    if not doc.tokens:
        raise ValueError(f"document {doc.id!r}: empty token list")
    for t in doc.tokens:
        if not t or any(ch.isspace() for ch in t):
            raise ValueError(f"document {doc.id!r}: bad token {t!r}")
    # The entity forest's rule, after the token rules.
    encode_tree_to_heads(doc)


def _parse_doc(line: bytes, lineno: int) -> Document | None:
    line = line.strip()
    return doc_from_json(json.loads(line.decode("utf-8"))) if line else None


def read_corpus(path: str | Path) -> list[Document]:
    return [doc for _, doc in read_lines(path, _parse_doc)]


def write_corpus(path: str | Path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc_to_json(doc), ensure_ascii=False) + "\n")


def split_corpus(docs: list[Document], seed: int, dev_frac: float, test_frac: float
                 ) -> tuple[list[Document], list[Document], list[Document]]:
    """Shuffle with ``seed`` and cut into train/dev/test.

    Dev and test sizes are floored; train takes the remainder, so small
    corpora never lose documents to rounding.  No document is in two splits.
    """
    # Stated positively, so that a NaN fraction fails it too.
    if not (dev_frac >= 0 and test_frac >= 0 and dev_frac + test_frac <= 1):
        raise ValueError("dev and test fractions must be non-negative and sum to at most 1")
    order = np.random.default_rng(seed).permutation(len(docs))
    shuffled = [docs[i] for i in order]
    n_dev = int(len(docs) * dev_frac)
    n_test = int(len(docs) * test_frac)
    n_train = len(docs) - n_dev - n_test
    return (
        shuffled[:n_train],
        shuffled[n_train:n_train + n_dev],
        shuffled[n_train + n_dev:],
    )
