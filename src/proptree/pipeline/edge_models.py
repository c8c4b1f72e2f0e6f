"""Entity-pair scorers for the pipeline: local logistic (LTM) and
globally normalized Matrix-Tree (MTT) models.

Both score candidate parent->child arcs between detected entities (plus the
root as parent) with sparse hand-built features.  LTM treats every pair as
an independent binary decision; MTT normalizes over all spanning
arborescences of the entity graph, with the partition function computed as
a Laplacian minor determinant and marginals from its inverse.  Training
and prediction read each document's arc features from one builder,
``arc_blocks``, which yields them in ``ArcFeatures`` blocks of at most
``ARC_BLOCK`` arcs, built without per-arc strings.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..data import ROOT_ID, Document, Entity, encode_tree_to_heads
from ..nn import Adam, Module, Tensor
from ..nn.optim import fit
from .crf import FeatureTable, Recorder

ROOT_TOKEN = "<root>"


def _bucket(n: int) -> str:
    if n <= 3:
        return str(n)
    return "4-6" if n <= 6 else "7+"


# Candidate arcs are built and scored this many at a time: a long document's
# slot grid and weight gather never exist whole (1,024 cuts the benchmark's
# largest documents, 54 gold entities and 2,916 arcs, into three blocks).
ARC_BLOCK = 1024


def _cuts(n: int) -> list[slice]:
    """Arcs 0..n-1 in consecutive blocks of at most ``ARC_BLOCK``."""
    return [slice(s, min(s + ARC_BLOCK, n)) for s in range(0, n, ARC_BLOCK)]


class ArcFeatures(NamedTuple):
    """Candidate arcs over nodes 0..t, ``heads[i] -> children[i]``: the root 0
    is only a parent and no entity heads itself.  They run child-major, the
    root first and then heads ascending.  This fixes LTM's training pairs and,
    through argmax's first maximum, the greedy tie rule: the root beats every
    tied head and a smaller head a larger one.  Column i of ``feats`` holds
    arc i's feature ids in template order."""

    heads: np.ndarray
    children: np.ndarray
    feats: FeatureTable

    def blocks(self) -> list[ArcFeatures]:
        """The table cut where ``arc_blocks`` cuts it, as views."""
        return [ArcFeatures(self.heads[cut], self.children[cut], FeatureTable(self.feats.slots[:, cut]))
                for cut in _cuts(len(self.heads))]


def arc_scores(t: int, blocks: Iterable[ArcFeatures], w: np.ndarray) -> np.ndarray:
    """(t+1, t+1) [head, child] matrix of summed arc weights, -inf off the arcs,
    filled one block at a time."""
    out = np.full((t + 1, t + 1), -np.inf)
    for block in blocks:
        out[block.heads, block.children] = block.feats.sums(w)
    return out


def arc_blocks(entities: Sequence[Entity], tokens: list[str],
               feature_index: dict[str, int]) -> Iterator[ArcFeatures]:
    """The edge-feature template: the candidate arcs' int32 feature ids, one
    block of at most ``ARC_BLOCK`` arcs at a time.

    Strings are looked up per entity, per type pair and per distinct token,
    never per arc; each slot row is one gather of such ids through the arcs'
    heads or children.  A span's ``btw=`` features are its distinct tokens:
    with ``prefix[k]`` counting each (sorted) token in ``tokens[:k]``, the
    span ``[lo, hi)`` holds those with ``prefix[hi] > prefix[lo]``.
    """
    def lookup(names) -> np.ndarray:
        return np.array([feature_index.get(f, -1) for f in names], dtype=np.int32)

    t, mains = len(entities), [e.main_mention() for e in entities]
    anchor_tok = [tokens[m.end - 2] for m in mains]  # the anchor is end - 1, 1-based
    kinds = list(dict.fromkeys(e.type for e in entities))
    btw = {tok: i for tok in sorted(set(tokens)) if (i := feature_index.get(f"btw={tok}", -1)) >= 0}
    column = {tok: c for c, tok in enumerate(btw)}
    # Column -1 collects the tokens without a btw= feature; row 0 stays zero.
    prefix = np.zeros((len(tokens) + 1, len(btw) + 1), dtype=np.int32)
    prefix[np.arange(1, len(tokens) + 1), [column.get(tok, -1) for tok in tokens]] = 1
    prefix = prefix.cumsum(axis=0, dtype=np.int32)[:, :-1]

    # Column v of ``nodes`` is node v's main span and kind: the root's span is
    # [0, 0) and its kind 0, and node v > 0 is entity v - 1, of type kinds[kind - 1].
    nodes = np.array([(0, 0, 0), *((m.start, m.end, kinds.index(e.type) + 1)
                                   for m, e in zip(mains, entities))], dtype=np.int64).T
    bias = feature_index.get("bias", -1)
    c_tok = lookup(f"c_tok={tok}" for tok in anchor_tok)
    c_type = lookup(f"c_type={k}" for k in kinds)
    p_tok = lookup(f"p_tok={tok}" for tok in (ROOT_TOKEN, *anchor_tok))
    p_type = lookup(f"p_type={k}" for k in (ROOT_TOKEN, *kinds))
    pair = lookup(f"pair={p}>{c}" for p in (ROOT_TOKEN, *kinds) for c in kinds).reshape(len(kinds) + 1, len(kinds))
    order = lookup(["order=parent-first", "order=child-first", "order=overlap", "dist=root"])
    dist = lookup([*(f"dist={_bucket(n)}" for n in range(8)), "order=root"])
    btw_n = lookup(f"btw_n={_bucket(n)}" for n in range(8))
    btw_ids = np.array([*btw.values()], dtype=np.int32)[:, None] + 1
    for cut in _cuts(t * t):
        # Arc i is heads[i] -> child[i] + 1.
        child, j = np.divmod(np.arange(cut.start, cut.stop), t)
        heads, root = j + (j > child), j == 0  # the child's own node is skipped
        p_start, p_end, p_kind = nodes.take(heads, axis=1)
        cs, ce, c_kind = nodes.take(child + 1, axis=1)
        case = np.where(root, 3, np.where(p_end <= cs, 0, np.where(ce <= p_start, 1, 2)))
        # Between the spans lies [lo, hi); [0, 0) for an overlap or the root.
        lo = np.where(case == 0, p_end, np.where(case == 1, ce, 1)) - 1
        hi = np.where(case == 0, cs, np.where(case == 1, p_start, 1)) - 1
        slots = np.empty((9 + len(btw), len(child)), dtype=np.int32)
        slots[0] = bias
        slots[1] = c_tok[child]
        slots[2] = c_type[c_kind - 1]
        slots[3] = p_tok[heads]
        slots[4] = p_type[p_kind]
        slots[5] = pair[p_kind, c_kind - 1]
        # A root arc's slots 6 and 7 hold dist=root and order=root, and no btw_n= or btw=.
        slots[6] = order[case]
        slots[7] = dist[np.where(root, 8, np.minimum(abs(p_end - ce), 7))]
        slots[8] = np.where(root, -1, btw_n[np.minimum(hi - lo, 7)])
        # A btw= slot holds (span holds the token) * (id + 1) - 1: the id, or -1.
        held = slots[9:]
        held[...] = (prefix.take(hi, axis=0) > prefix.take(lo, axis=0)).T
        held *= btw_ids
        held -= 1
        yield ArcFeatures(heads, child + 1, FeatureTable(slots))


def arc_features(entities: Sequence[Entity], tokens: list[str],
                 feature_index: dict[str, int]) -> ArcFeatures:
    """The document's whole table: ``arc_blocks`` joined.  Training keeps one per document."""
    parts = zip(*((b.heads, b.children, b.feats.slots) for b in arc_blocks(entities, tokens, feature_index)))
    heads, children, slots = (np.concatenate(part, axis=-1) for part in parts)
    return ArcFeatures(heads, children, FeatureTable(slots))


class _FeatureModel(Module):
    trainable = ("w",)

    def __init__(self, feature_index: dict[str, int]):
        self.feature_index = dict(feature_index)
        self.w = Tensor(np.zeros(len(self.feature_index)), requires_grad=True)

    def arc_matrix(self, entities: Sequence[Entity], tokens: list[str]) -> np.ndarray:
        """(t+1, t+1) [head, child] weights of the candidate arcs, -inf elsewhere."""
        return arc_scores(len(entities), arc_blocks(entities, tokens, self.feature_index), self.w.data)


class LtmModel(_FeatureModel):
    """Independent binary classifier per candidate arc."""

    kind = "ltm"

    def arc_matrix(self, entities: Sequence[Entity], tokens: list[str]) -> np.ndarray:
        """Log-probability weights for the spanning-tree stage, -inf off the arcs."""
        z = super().arc_matrix(entities, tokens)
        p = 1.0 / (1.0 + np.exp(-z))
        return np.where(z > -np.inf, np.log(np.maximum(p, 1e-300)), -np.inf)


class MttModel(_FeatureModel):
    """Arc log-potentials normalized over all arborescences."""

    kind = "mtt"

    def arc_score(self, parent: Entity | None, child: Entity, tokens: list[str]) -> float:
        """One arc's log-potential, from ``arc_matrix`` over the pair alone; unused in prediction."""
        pair = [child] if parent is None else [parent, child]
        return float(self.arc_matrix(pair, tokens)[len(pair) - 1, len(pair)])


def mtt_log_partition_and_marginals(theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Partition function and arc marginals of the arborescence distribution.

    ``theta[h][m]`` is the log-potential of arc h->m over nodes 0..t with
    root 0; entries with h == m or m == 0 are ignored.  Columns are
    max-shifted before exponentiation, so only ratios ever reach ``exp``.
    Every spanning tree uses exactly one arc into each child, which makes
    the shift a constant factor that is added back to log Z.  With ``a`` the
    shifted potentials, L = diag(column sums of a[:, 1:]) - a[1:, 1:] and
    node k at row and column k - 1 of L and of inv(L): log Z = log det L +
    shifts, and the marginal of h->m is a[h, m] * (inv(L)[m, m] -
    inv(L)[m, h]), without the second term for h = 0 (Koo et al. 2007).
    """
    t = theta.shape[0] - 1
    if t < 1:
        raise ValueError("need at least one non-root node")
    usable = ~np.eye(t + 1, dtype=bool)
    usable[:, 0] = False
    masked = np.where(usable, theta, -np.inf)
    shift = masked.max(axis=0)
    dead = ~np.isfinite(shift)  # no usable arc into the node at all
    shift[dead] = 0.0
    a = np.exp(masked - shift)
    a[:, dead] = 0.0

    lap = np.diag(a[:, 1:].sum(axis=0)) - a[1:, 1:]
    sign, logdet = np.linalg.slogdet(lap)
    # With no arborescence det L is 0, but rounding can leave it positive.  The
    # root reaches every node by itself unless one of its arcs underflowed to 0.
    isolated = ~_reachable_from_root(a > 0)[1:] if (a[0, 1:] == 0).any() else np.zeros(t, bool)
    if isolated.any() or sign <= 0 or not np.isfinite(logdet):
        diag = np.where(isolated, lap.diagonal(), np.inf) if isolated.any() else lap.diagonal()
        worst = int(np.argmin(diag)) + 1
        raise ValueError(f"singular Laplacian: node {worst} is effectively isolated")
    log_z = float(logdet + shift[1:].sum())

    inv = np.linalg.inv(lap)
    inv_diag = inv.diagonal()
    marg = np.zeros_like(theta)
    marg[0, 1:] = a[0, 1:] * inv_diag
    marg[1:, 1:] = a[1:, 1:] * (inv_diag[None, :] - inv.T)
    return log_z, marg


def _reachable_from_root(arcs: np.ndarray) -> np.ndarray:
    """Boolean mask of the nodes that node 0 reaches over ``arcs[h, m]``."""
    reached = np.zeros(len(arcs), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | arcs[reached].any(axis=0)
        if (grown == reached).all():
            return reached
        reached = grown


def _training_cases(docs: list[Document]) -> tuple[dict[str, int], list]:
    """The corpus's feature index, and per document with entities its arc
    table and whether each arc is gold.  The index holds the features that
    some arc has, numbered in name order (``Recorder.renumber``).  A table
    keeps only the slots where some arc has a known id: the recording index
    gives every distinct token a ``btw=`` slot, which stays empty when the
    token lies between no two spans.  Each document must keep the gold-forest
    rule: ``encode_tree_to_heads`` raises its ``ValueError`` otherwise."""
    recorder, cases = Recorder(), []
    for doc in (d for d in docs if d.entities):
        encode_tree_to_heads(doc)
        node = {ROOT_ID: 0} | {e.id: i for i, e in enumerate(doc.entities, start=1)}
        parents = np.array([node[e.parent] for e in doc.entities])
        table = arc_features(doc.entities, doc.tokens, recorder)
        cases.append((table, table.heads == parents[table.children - 1]))
    index, tables = recorder.renumber([table.feats for table, _ in cases])
    return index, [(table._replace(feats=feats), gold) for (table, gold), feats in zip(cases, tables)]


def train_ltm(docs: list[Document], epochs: int, lr: float, seed: int) -> LtmModel:
    """L2-regularized logistic regression (weight 1) over all ordered entity pairs."""
    index, cases = _training_cases(docs)
    pairs = [(ids[ids >= 0], int(y)) for table, gold in cases
             for ids, y in zip(table.feats.slots.T, gold)]
    if not pairs:
        raise ValueError("no candidate entity pairs in the training corpus")
    model = LtmModel(index)

    def step(ids: np.ndarray, y: int) -> float:
        z = model.w.data[ids].sum()
        p = 1.0 / (1.0 + np.exp(-z))
        np.add.at(model.w.grad, ids, p - y)
        return np.logaddexp(0.0, z) - y * z  # the log loss of p

    fit(Adam(model.params_named().values(), lr=lr), pairs, step, epochs, seed, "LtmModel", 1.0, None)
    return model


def train_mtt(docs: list[Document], epochs: int, lr: float, seed: int) -> MttModel:
    """Gradient training of the L2-regularized (weight 1) arborescence
    log-likelihood per document."""
    index, cases = _training_cases(docs)
    if not cases:
        raise ValueError("no documents with entities in the training corpus")
    model = MttModel(index)

    def step(t: int, blocks: list[tuple], gold_arcs: tuple) -> float:
        theta = arc_scores(t, (block for block, _, _ in blocks), model.w.data)
        log_z, marg = mtt_log_partition_and_marginals(theta)
        for block, gold, scatter in blocks:
            scatter(model.w.grad, marg[block.heads, block.children] - gold)
        return log_z - theta[gold_arcs].sum()

    # Each case's blocks, with their gold flags and scatters, and its gold
    # (head, child) arcs are fixed across epochs.
    cases = [(math.isqrt(len(gold)),
              [(block, gold[cut], block.feats.scatter(1)) for block, cut in zip(table.blocks(), _cuts(len(gold)))],
              (table.heads[gold], table.children[gold])) for table, gold in cases]
    fit(Adam(model.params_named().values(), lr=lr), cases, step, epochs, seed, "MttModel", 1.0, None)
    return model
