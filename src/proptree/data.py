"""Document model and the tree <-> per-token head assignment codec.

A document is a token sequence plus a forest of typed entities.  Each entity
owns one or more mentions (contiguous token spans, 1-based, half-open) and a
parent link to another entity or to the document root.

The parser never sees that structure directly.  It sees one (head, label)
pair per token, where the label is one of four relations:

* ``PART_OF``    token is the anchor of an entity's first mention and points
                 at its parent entity's anchor (or at position 0 for roots);
* ``SEGMENT``    token sits inside a mention and points at that mention's
                 anchor token;
* ``EQUIVALENT`` token anchors a repeated mention and points at the anchor of
                 the entity's first mention;
* ``SKIP``       token is outside every mention and points at itself.

The anchor of a mention is its last token.  ``encode_tree_to_heads`` and
``decode_heads_to_tree`` convert between the two views and are mutually
inverse on valid documents (entity ids and types are not part of the round
trip; arcs do not carry them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PART_OF = 0
SEGMENT = 1
EQUIVALENT = 2
SKIP = 3

LABEL_NAMES = ("part-of", "segment", "equivalent", "skip")
ROOT_ID = "ROOT"

# Labels an arc may carry inside a tree, and the labels edge metrics count:
# every label but SKIP.
ARC_LABELS = (PART_OF, SEGMENT, EQUIVALENT)
# Classes scored in the headline metric; EQUIVALENT is reported separately.
STRUCTURED_LABELS = (SEGMENT, PART_OF)


@dataclass(frozen=True, slots=True, order=True)
class Mention:
    """Contiguous token span, 1-based, half-open: tokens start .. end-1.
    Mentions order by (start, end), which is text order."""

    start: int
    end: int

    def __post_init__(self):
        # The bounds are ints: not converted, and a bool is not one, as in TrainConfig.
        if not (type(self.start) is type(self.end) is int and 1 <= self.start < self.end):
            raise ValueError(f"bad mention span [{self.start!r}, {self.end!r})")

    @property
    def anchor(self) -> int:
        """Position of the span's last token."""
        return self.end - 1


@dataclass(slots=True)
class Entity:
    id: str
    type: str | None
    mentions: list[Mention]
    parent: str = ROOT_ID

    def main_mention(self) -> Mention:
        """First mention in text order; later ones are treated as repeats."""
        return min(self.mentions)


@dataclass(slots=True)
class Document:
    id: str
    tokens: list[str]
    entities: list[Entity] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass(slots=True)
class TokenHeadAssignment:
    """One (head, label) pair per token; index t-1 holds token t (1-based)."""

    heads: list[int]
    labels: list[int]

    def __post_init__(self):
        if len(self.heads) != len(self.labels):
            raise ValueError(f"length mismatch: {len(self.heads)} heads vs {len(self.labels)} labels")
        self.heads, self.labels = list(self.heads), list(self.labels)

    @property
    def n(self) -> int:
        return len(self.heads)

    def head_of(self, t: int) -> int:
        return self.heads[t - 1]

    def label_of(self, t: int) -> int:
        return self.labels[t - 1]

    def triples(self) -> set[tuple[int, int, int]]:
        """(dependent, head, label) triples for every non-skip token."""
        return {
            (t, self.heads[t - 1], self.labels[t - 1])
            for t in range(1, self.n + 1)
            if self.labels[t - 1] != SKIP
        }

    def check_heads(self) -> None:
        """Raises ValueError for the first token whose head is not a position
        0..n: the one rule that gold checks and decoding share."""
        if bad := next((t for t, h in enumerate(self.heads, 1) if not 0 <= h <= self.n), None):
            raise ValueError(f"token {bad}: head {self.head_of(bad)} out of range 0..{self.n}")

    def validate_gold(self) -> None:
        """Check the invariants encoded gold trees satisfy.

        Predicted assignments may violate all of these until repaired by the
        spanning-tree decoder, so this is only called on gold data.
        """
        self.check_heads()
        for t in range(1, self.n + 1):
            h, c = self.heads[t - 1], self.labels[t - 1]
            if not 0 <= c <= 3:
                raise ValueError(f"token {t}: label {c} out of range 0..3")
            if (c == SKIP) != (h == t):
                raise ValueError(f"token {t}: skip label and self-head must coincide (head={h}, label={c})")


def encode_tree_to_heads(doc: Document) -> TokenHeadAssignment:
    """Flatten a document's entity forest into per-token (head, label) pairs.

    The one owner of the gold-forest rule, which the corpus reader, the
    joint trainer and each pipeline stage's trainer apply through it.  It
    raises ``ValueError`` naming the document,
    in this order: for duplicate entity ids; for an entity id ``ROOT``, the
    name that a parent uses for the document root; for each entity in turn,
    a type that is neither a string nor None, no mentions, or an unknown
    parent; for parent links that form a cycle (a self-parent included);
    then, while encoding, for a mention past the last token or a token in
    two mentions, an entity's repeated span included.
    An assignment it returns passes ``validate_gold``."""
    n = doc.n
    heads = list(range(1, n + 1))
    labels = [SKIP] * n

    def put(t: int, h: int, c: int) -> None:
        if labels[t - 1] != SKIP:
            raise ValueError(f"document {doc.id!r}: token {t} assigned twice (overlapping mentions?)")
        heads[t - 1], labels[t - 1] = h, c

    parents = {e.id: e.parent for e in doc.entities}
    if len(parents) != len(doc.entities):
        raise ValueError(f"document {doc.id!r}: duplicate entity ids")
    if ROOT_ID in parents:
        raise ValueError(f"document {doc.id!r}: entity id {ROOT_ID!r} names the document root")
    for e in doc.entities:
        if not (e.type is None or isinstance(e.type, str)):
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has type {e.type!r}, not a string")
        if not e.mentions:
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has no mentions")
        if e.parent != ROOT_ID and e.parent not in parents:
            raise ValueError(f"document {doc.id!r}: entity {e.id!r} has unknown parent {e.parent!r}")
    looped = first_cycle_node(parents, root=ROOT_ID)
    if looped is not None:
        raise ValueError(f"document {doc.id!r}: parent links form a cycle through {looped!r}")
    mains = [e.main_mention() for e in doc.entities]
    # The root's position is 0, where a root entity's part-of arc points.
    anchors = {e.id: main.anchor for e, main in zip(doc.entities, mains)} | {ROOT_ID: 0}

    for e, main in zip(doc.entities, mains):
        for m in e.mentions:
            if not m.end - 1 <= n:
                raise ValueError(f"document {doc.id!r}: mention [{m.start}, {m.end}) exceeds {n} tokens")
            for t in range(m.start, m.end - 1):
                put(t, m.anchor, SEGMENT)
            if m is not main:
                put(m.anchor, main.anchor, EQUIVALENT)
        put(main.anchor, anchors[e.parent], PART_OF)

    return TokenHeadAssignment(heads, labels)


def decode_heads_to_tree(assignment: TokenHeadAssignment, tokens: list[str],
                         doc_id: str = "decoded") -> Document:
    """Rebuild mention spans, entity grouping, and parent links from arcs.

    Entity ids are regenerated (``T1``, ``T2``, ... in text order) and types
    come back as ``None``; arcs carry neither.  Raises ``ValueError`` on
    assignments that do not describe a well-formed forest.
    """
    n = assignment.n
    if len(tokens) != n:
        raise ValueError(f"{len(tokens)} tokens but assignment covers {n}")

    assignment.check_heads()
    heads, labels = assignment.heads, assignment.labels
    resolved: dict[int, int] = {}

    def resolve_anchor(t: int) -> int:
        """Follow segment arcs from token t to its mention anchor; any other
        token is its own anchor.  Every token walked is memoized, so each
        segment token is walked once; a walk that fails has met no memoized
        token, so its message lists the whole walk."""
        seen: dict[int, None] = {}
        while labels[t - 1] == SEGMENT and t not in resolved:
            seen[t] = None
            t = heads[t - 1]
            if t == 0 or t in seen:
                raise ValueError(f"segment arcs from token {next(iter(seen))} do not reach an anchor: {[*seen, t]}")
        a = resolved.get(t, t)
        resolved.update(dict.fromkeys(seen, a))
        return a

    anchor_positions = [t for t, c in enumerate(labels, 1) if c in (PART_OF, EQUIVALENT)]
    members: dict[int, list[int]] = {a: [a] for a in anchor_positions}
    for t, c in enumerate(labels, 1):
        if c == SEGMENT:
            a = resolve_anchor(t)
            if labels[a - 1] == SKIP:
                raise ValueError(f"token {t}: segment arc resolves to skip token {a}")
            members[a].append(t)

    spans: dict[int, Mention] = {}
    for a, ts in members.items():
        lo, hi = min(ts), max(ts)
        if hi != a:
            raise ValueError(f"anchor {a} is not the last token of its span [{lo}, {hi}]")
        # Distinct tokens: each is an anchor or a segment token, and joins one mention.
        if hi - lo + 1 != len(ts):
            raise ValueError(f"mention at anchor {a} is not contiguous: {sorted(ts)}")
        spans[a] = Mention(lo, hi + 1)

    mains = [a for a in anchor_positions if labels[a - 1] == PART_OF]
    ids = {a: f"T{i + 1}" for i, a in enumerate(mains)}

    # Group each mention with its entity's first mention: a part-of anchor is
    # its own, and an equivalent arc must point back at a part-of anchor.
    # Spans are disjoint, so ascending anchors are the mentions in text order.
    groups: dict[int, list[int]] = {a: [] for a in mains}
    for a in anchor_positions:
        first = heads[a - 1] if labels[a - 1] == EQUIVALENT else a
        if first not in ids:
            raise ValueError(f"token {a}: repeat-mention arc points at {first}, which anchors no first mention")
        if first > a:
            raise ValueError(f"token {a}: repeat-mention arc must point backwards, got head {first}")
        groups[first].append(a)

    entities: list[Entity] = []
    for a in mains:
        h = heads[a - 1]
        if h == 0:
            parent = ROOT_ID
        else:
            p = resolve_anchor(h)
            if p not in ids:
                raise ValueError(f"token {a}: parent arc points at {h}, which anchors no entity")
            parent = ids[p]
        entities.append(Entity(ids[a], None, [spans[m] for m in groups[a]], parent))

    looped = first_cycle_node({e.id: e.parent for e in entities}, root=ROOT_ID)
    if looped is not None:
        raise ValueError(f"document {doc_id!r}: parent links form a cycle through {looped!r}")
    return Document(doc_id, list(tokens), entities)


def first_cycle_node(parent: dict, root=0):
    """The node at which following ``parent`` links first repeats, or None.

    Walks start from each key in order; None means every node reaches
    ``root``.  A walk stops at any node an earlier walk proved to reach the
    root, so the check is linear in the number of nodes.
    """
    reaches = {root}
    for start in parent:
        path = set()
        v = start
        while v not in reaches:
            if v in path:
                return v
            path.add(v)
            v = parent[v]
        reaches |= path
    return None


def structure_signature(doc: Document):
    """Id- and type-free summary of (spans, grouping, parents) for comparisons."""
    key = {e.id: tuple(sorted((m.start, m.end) for m in e.mentions)) for e in doc.entities}
    return frozenset(
        (key[e.id], key[e.parent] if e.parent != ROOT_ID else ROOT_ID) for e in doc.entities
    )


def bio_encode(doc: Document) -> list[str]:
    """Per-token BIO tags (``O``, ``B-<type>``, ``I-<type>``) from mention spans."""
    tags = ["O"] * doc.n
    for e in doc.entities:
        for m in e.mentions:
            for t in range(m.start, m.end):
                if tags[t - 1] != "O":
                    raise ValueError(f"document {doc.id!r}: token {t} covered by two mentions")
            tags[m.start - 1] = f"B-{e.type}"
            for t in range(m.start + 1, m.end):
                tags[t - 1] = f"I-{e.type}"
    return tags


def bio_decode_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """Recover (start, end, type) spans from BIO tags.

    Only an ``I-`` of the open span's type continues it: any other tag
    closes the open span, and any tag but ``O`` opens one.  So a stray
    ``I-`` after ``O`` or after a different type opens a new span rather
    than failing.
    """
    spans: list[tuple[int, int, str]] = []
    start = None
    cur = None  # type of the open span; None while no span is open
    for i, tag in enumerate([*tags, "O"], start=1):
        if tag != "O" and tag[:2] not in ("B-", "I-"):
            raise ValueError(f"bad BIO tag {tag!r} at position {i}")
        if cur is not None and (tag[:2] != "I-" or tag[2:] != cur):
            spans.append((start, i, cur))
            cur = None
        if tag != "O" and cur is None:
            start, cur = i, tag[2:]
    return spans
