"""Long documents made by joining consecutive synthetic ads.

Each long document concatenates k consecutive ads.  Mention offsets shift
with the concatenation, entity ids get a per-ad prefix so they stay unique,
and every ad's root entity stays attached to ROOT, so a long document is a
forest with k roots.  The parser's cost grows with n^2 in the scorer and the
tree decoder, which is what the predict workloads exercise.

The k values are a seeded shuffle of an even spread over ``[k_min, k_max]``
rather than independent draws, and a document stops short of k ads where
the next ad would take it past a token cap, so the length mix, and with it
the latency distribution and the peak memory, is the same for every seed;
only the ads differ.  Without the cap the longest of 216 documents ranged
from 223 to 249 tokens over five seeds, and peak memory followed it.
"""

from __future__ import annotations

import numpy as np

from proptree import data
from proptree.data import ROOT_ID, Document, Entity, Mention


def draw_ks(count: int, seed: int, k_min: int, k_max: int) -> list[int]:
    """Ads per long document: ``count`` values spread evenly, shuffled by ``seed``."""
    spread = np.resize(np.arange(k_min, k_max + 1), count)
    return [int(k) for k in np.random.default_rng((seed, 1)).permutation(spread)]


def join_ads(doc_id: str, ads: list[Document]) -> Document:
    """Concatenate ``ads`` into one document; roots stay attached to ROOT."""
    tokens: list[str] = []
    entities: list[Entity] = []
    for a, ad in enumerate(ads):
        offset = len(tokens)
        rename = {e.id: f"A{a}.{e.id}" for e in ad.entities}
        for e in ad.entities:
            entities.append(Entity(
                rename[e.id], e.type,
                [Mention(m.start + offset, m.end + offset) for m in e.mentions],
                ROOT_ID if e.parent == ROOT_ID else rename[e.parent],
            ))
        tokens.extend(ad.tokens)
    return Document(doc_id, tokens, entities)


def long_documents(ads: list[Document], ks: list[int], max_tokens: int) -> list[Document]:
    """One long document per entry of ``ks``, consuming ``ads`` in order.  A
    document takes k ads, or fewer when the next would take it past
    ``max_tokens``; the ad is left for the next document."""
    if sum(ks) > len(ads):
        raise ValueError(f"{len(ads)} ads cannot fill long documents needing {sum(ks)}")
    out = []
    pos = 0
    for i, k in enumerate(ks):
        end, n = pos + 1, ads[pos].n
        while end < pos + k and n + ads[end].n <= max_tokens:
            n += ads[end].n
            end += 1
        out.append(join_ads(f"long-{i:04d}", ads[pos:end]))
        pos = end
    return out


def gold_round_trips(doc: Document) -> bool:
    """True when the gold heads are valid and decode back to the same tree."""
    try:
        gold = data.encode_tree_to_heads(doc)
        gold.validate_gold()
        rebuilt = data.decode_heads_to_tree(gold, doc.tokens, doc_id=doc.id)
    except ValueError:
        return False
    return (data.structure_signature(rebuilt) == data.structure_signature(doc)
            and data.encode_tree_to_heads(rebuilt) == gold)
