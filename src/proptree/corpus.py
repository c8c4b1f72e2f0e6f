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

from .data import Document, Entity, Mention, ROOT_ID, encode_tree_to_heads, first_cycle_node
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
    checked and not converted: ``tokens`` must be a list of strings, an
    entity's ``type`` a string or null, and a mention's ``start`` and ``end``
    integers (``Mention`` checks those)."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    doc = Document(
        id=str(obj["id"]),
        tokens=obj["tokens"],
        entities=[
            Entity(
                id=str(e["id"]),
                type=e.get("type"),
                mentions=[Mention(m["start"], m["end"]) for m in e["mentions"]],
                parent=str(e.get("parent", ROOT_ID)),
            )
            for e in obj.get("entities", [])
        ],
    )
    _validate(doc)
    return doc


def _validate(doc: Document) -> None:
    # Iterated first, so that tokens that are not a collection keep Python's message.
    if not (all(isinstance(t, str) for t in doc.tokens) and isinstance(doc.tokens, list)):
        raise ValueError(f"document {doc.id!r}: tokens must be a list of strings")
    if not doc.tokens:
        raise ValueError(f"document {doc.id!r}: empty token list")
    for t in doc.tokens:
        if not t or any(ch.isspace() for ch in t):
            raise ValueError(f"document {doc.id!r}: bad token {t!r}")
    ids = [e.id for e in doc.entities]
    if len(set(ids)) != len(ids):
        raise ValueError(f"document {doc.id!r}: duplicate entity ids")
    known = set(ids)
    for e in doc.entities:
        if not (e.type is None or isinstance(e.type, str)):
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has type {e.type!r}, not a string")
        if not e.mentions:
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has no mentions")
        if e.parent != ROOT_ID and e.parent not in known:
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has unknown parent {e.parent!r}")
    looped = first_cycle_node({e.id: e.parent for e in doc.entities}, root=ROOT_ID)
    if looped is not None:
        raise ValueError(f"document {doc.id!r}: parent links form a cycle through {looped!r}")
    # Rejects mentions past the last token and overlapping mentions.
    encode_tree_to_heads(doc).validate_gold()


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
