"""Synthetic real-estate ad corpora with known entity trees.

Documents mimic classified ads: a root property entity whose parts (floors,
spaces, fields, extra buildings) appear as contiguous mentions separated by
filler.  Two layout patterns are mixed:

* nested, which yields projective trees, and
* interleaved, which guarantees one pair of crossing part-of arcs
  (parent A ... parent B ... child-of-A ... child-of-B).

With ``ambiguous=True`` every document opens with a kind marker ("listing :"
or "brochure :") and later contains one of a few cue words ("garden",
"sauna", ...).  The cue word is a real mention only in listing documents.
The marker sits far outside any fixed context window, so resolving the cue
requires carrying document-level context, which is exactly what makes
pipelines with local segmentation features struggle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Document, Entity, Mention, ROOT_ID

TYPE_CHILDREN: dict[str, tuple[str, ...]] = {
    "property": ("floor", "space", "field", "extra_building"),
    "floor": ("space", "field"),
    "space": ("subspace",),
    "extra_building": ("space", "subspace", "field"),
    "field": (),
    "subspace": (),
}

SURFACES: dict[str, list[list[str]]] = {
    "property": [["house"], ["apartment"], ["villa"], ["farm", "house"], ["canal", "house"]],
    "floor": [["first", "floor"], ["ground", "floor"], ["second", "floor"], ["attic"]],
    "space": [["living", "room"], ["kitchen"], ["bedroom"], ["bathroom"], ["garage"],
              ["master", "bedroom"], ["hallway"]],
    "subspace": [["shower"], ["bath"], ["sink"], ["closet"], ["cupboard"]],
    "field": [["floor", "heating"], ["solar", "panels"], ["oak", "beams"],
              ["new", "paint"], ["double", "glazing"]],
    "extra_building": [["summer", "house"], ["garden", "shed"], ["barn"]],
}

FILLER = ["the", "a", "spacious", "lovely", "bright", "quiet", "renovated", "modern"]
CONNECT = ["with", "offers", "features", "and", "plus", "includes"]

# Cue phrases whose mention status depends on the document kind marker.
AMBIGUOUS_SURFACES = [["roof", "terrace"], ["wine", "cellar"],
                      ["guest", "suite"], ["sun", "deck"]]
KIND_MENTION = "listing"
KIND_PLAIN = "brochure"


@dataclass
class SyntheticConfig:
    n_docs: int = 100
    seed: int = 0
    nonprojective_rate: float = 0.3
    equivalent_rate: float = 0.15
    ambiguous: bool = False

    def __post_init__(self):
        # Stated positively, so that a NaN rate fails it too.
        if not (self.n_docs >= 0 and all(0 <= rate <= 1 for rate in
                                         (self.nonprojective_rate, self.equivalent_rate))):
            raise ValueError("n_docs must be non-negative, and each rate must lie in [0, 1]")


class _Builder:
    def __init__(self):
        self.tokens: list[str] = []
        self.entities: list[Entity] = []

    def filler(self, rng: np.random.Generator, lo: int, hi: int) -> None:
        for _ in range(int(rng.integers(lo, hi + 1))):
            self.tokens.append(FILLER[rng.integers(len(FILLER))])

    def connective(self, rng: np.random.Generator) -> None:
        self.tokens.append(CONNECT[rng.integers(len(CONNECT))])

    def words(self, ws: list[str]) -> None:
        self.tokens.extend(ws)

    def mention(self, surface: list[str]) -> Mention:
        start = len(self.tokens) + 1
        self.tokens.extend(surface)
        return Mention(start, start + len(surface))

    def entity(self, etype: str, surface: list[str], parent: str) -> Entity:
        e = Entity(f"T{len(self.entities) + 1}", etype, [self.mention(surface)], parent)
        self.entities.append(e)
        return e


def _pick_surface(rng: np.random.Generator, etype: str, used: set[tuple[str, ...]]) -> list[str]:
    options = [s for s in SURFACES[etype] if tuple(s) not in used]
    if not options:
        options = SURFACES[etype]
    surface = options[rng.integers(len(options))]
    used.add(tuple(surface))
    return surface


def _gen_nested(rng: np.random.Generator, b: _Builder) -> None:
    used: set[tuple[str, ...]] = set()
    b.filler(rng, 0, 2)
    root = b.entity("property", _pick_surface(rng, "property", used), ROOT_ID)

    def grow(parent: Entity, depth: int) -> None:
        kinds = TYPE_CHILDREN[parent.type]
        if not kinds or depth >= 3:
            return
        for _ in range(int(rng.integers(1, 3))):
            etype = kinds[rng.integers(len(kinds))]
            b.connective(rng)
            b.filler(rng, 0, 1)
            child = b.entity(etype, _pick_surface(rng, etype, used), parent.id)
            if depth + 1 < 3 and TYPE_CHILDREN[etype] and rng.random() < 0.4:
                grow(child, depth + 1)

    grow(root, 0)


def _gen_interleaved(rng: np.random.Generator, b: _Builder) -> None:
    """Emit parent A, parent B, child of A, child of B, in that token order.

    The child-of-A arc then spans across parent B while the child-of-B arc
    starts inside that span and ends outside it, so the two arcs cross.
    """
    used: set[tuple[str, ...]] = set()
    b.filler(rng, 0, 1)
    prop = b.entity("property", _pick_surface(rng, "property", used), ROOT_ID)
    b.connective(rng)
    other_type = ("extra_building", "floor")[rng.integers(2)]
    other = b.entity(other_type, _pick_surface(rng, other_type, used), prop.id)
    b.connective(rng)
    b.filler(rng, 0, 1)
    b.entity("space", _pick_surface(rng, "space", used), prop.id)
    b.connective(rng)
    child_type = TYPE_CHILDREN[other_type][rng.integers(len(TYPE_CHILDREN[other_type]))]
    b.entity(child_type, _pick_surface(rng, child_type, used), other.id)


def _add_repeat_mention(rng: np.random.Generator, b: _Builder) -> None:
    candidates = [e for e in b.entities if e.type != "property"]
    if not candidates:
        return
    e = candidates[rng.integers(len(candidates))]
    b.words(["again", "the"])
    e.mentions.append(b.mention(list(b.tokens[e.mentions[0].start - 1:e.mentions[0].end - 1])))


def _add_ambiguous_cue(rng: np.random.Generator, b: _Builder, is_mention: bool) -> None:
    phrase = AMBIGUOUS_SURFACES[rng.integers(len(AMBIGUOUS_SURFACES))]
    b.connective(rng)
    b.filler(rng, 0, 1)
    if is_mention:
        b.entity("space", list(phrase), b.entities[0].id)
    else:
        b.words(list(phrase))


def generate_corpus(cfg: SyntheticConfig) -> list[Document]:
    rng = np.random.default_rng(cfg.seed)
    docs = []
    for i in range(cfg.n_docs):
        b = _Builder()
        if cfg.ambiguous:
            kind = (KIND_MENTION, KIND_PLAIN)[int(rng.integers(2))]
            b.words([kind, ":"])
        if rng.random() < cfg.nonprojective_rate:
            _gen_interleaved(rng, b)
        else:
            _gen_nested(rng, b)
        if cfg.ambiguous:
            _add_ambiguous_cue(rng, b, is_mention=(kind == KIND_MENTION))
        if rng.random() < cfg.equivalent_rate:
            _add_repeat_mention(rng, b)
        b.filler(rng, 0, 1)
        b.tokens.append(".")
        docs.append(Document(f"syn-{i:04d}", b.tokens, b.entities))
    return docs


def vocabulary(docs: list[Document]) -> list[str]:
    """Sorted set of every token appearing in ``docs``."""
    vocab = set()
    for doc in docs:
        vocab.update(doc.tokens)
    return sorted(vocab)
