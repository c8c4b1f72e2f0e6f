"""Entity-pair scorers for the pipeline: local logistic (LTM) and
globally normalized Matrix-Tree (MTT) models.

Both score candidate parent->child arcs between detected entities (plus the
root as parent) with sparse hand-built features.  LTM treats every pair as
an independent binary decision; MTT normalizes over all spanning
arborescences of the entity graph, with the partition function computed as
a Laplacian minor determinant and marginals from its inverse.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..data import Document, Entity
from ..nn import Adam, Module, Tensor

ROOT_TOKEN = "<root>"


def candidate_arcs(entities: Sequence[Entity]
                   ) -> Iterator[tuple[int, int, Entity | None, Entity]]:
    """Every candidate arc ``(h, m, parent, child)`` over nodes 0..t.

    Node 0 is the root (``parent`` None) and node i is ``entities[i - 1]``.
    The root is only ever a parent and no entity heads itself.  Arcs come
    child-major: for m = 1..t the root first, then heads 1..t ascending.
    This order fixes LTM's training pairs and, through argmax's first-max
    rule on the arc matrix, the greedy tie rule: the root beats every tied
    head and the smaller head beats a larger one.
    """
    for m, child in enumerate(entities, start=1):
        yield 0, m, None, child
        for h, parent in enumerate(entities, start=1):
            if h != m:
                yield h, m, parent, child


def _bucket(n: int) -> str:
    if n <= 3:
        return str(n)
    return "4-6" if n <= 6 else "7+"


def extract_edge_features(parent: Entity | None, child: Entity, tokens: list[str]) -> list[str]:
    """Sparse feature strings for one candidate parent->child arc."""
    cm = child.main_mention()
    c_tok = tokens[cm.anchor - 1]
    feats = ["bias", f"c_tok={c_tok}", f"c_type={child.type}"]
    if parent is None:
        feats += [
            f"p_tok={ROOT_TOKEN}", f"p_type={ROOT_TOKEN}",
            f"pair={ROOT_TOKEN}>{child.type}", "dist=root", "order=root",
        ]
        return feats
    pm = parent.main_mention()
    p_tok = tokens[pm.anchor - 1]
    feats += [f"p_tok={p_tok}", f"p_type={parent.type}", f"pair={parent.type}>{child.type}"]
    if pm.end <= cm.start:
        between = tokens[pm.end - 1:cm.start - 1]
        feats.append("order=parent-first")
    elif cm.end <= pm.start:
        between = tokens[cm.end - 1:pm.start - 1]
        feats.append("order=child-first")
    else:
        between = []
        feats.append("order=overlap")
    feats.append(f"dist={_bucket(abs(pm.anchor - cm.anchor))}")
    feats.append(f"btw_n={_bucket(len(between))}")
    for tok in sorted(set(between)):
        feats.append(f"btw={tok}")
    return feats


class _FeatureModel(Module):
    trainable = ("w",)

    def __init__(self, feature_index: dict[str, int]):
        self.feature_index = dict(feature_index)
        self.w = Tensor(np.zeros(len(self.feature_index)), requires_grad=True)

    def feature_ids(self, parent: Entity | None, child: Entity, tokens: list[str]) -> list[int]:
        return [self.feature_index[f]
                for f in extract_edge_features(parent, child, tokens)
                if f in self.feature_index]

    def raw_score(self, parent: Entity | None, child: Entity, tokens: list[str]) -> float:
        ids = self.feature_ids(parent, child, tokens)
        return float(self.w.data[ids].sum())


class LtmModel(_FeatureModel):
    """Independent binary classifier per candidate arc."""

    kind = "ltm"

    def __init__(self, feature_index: dict[str, int], constant_p: float | None = None):
        super().__init__(feature_index)
        # Single-class training degenerates to a constant prior probability.
        self.constant_p = constant_p

    def probability(self, parent: Entity | None, child: Entity, tokens: list[str]) -> float:
        if self.constant_p is not None:
            return self.constant_p
        return float(1.0 / (1.0 + np.exp(-self.raw_score(parent, child, tokens))))

    def arc_score(self, parent: Entity | None, child: Entity, tokens: list[str]) -> float:
        """log-probability weight for the spanning-tree stage."""
        return float(np.log(max(self.probability(parent, child, tokens), 1e-300)))


class MttModel(_FeatureModel):
    """Arc log-potentials normalized over all arborescences."""

    kind = "mtt"

    def arc_score(self, parent: Entity | None, child: Entity, tokens: list[str]) -> float:
        return self.raw_score(parent, child, tokens)


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
    # With no arborescence det L is 0, but rounding can leave it positive.
    isolated = ~_reachable_from_root(a > 0)[1:]
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


def _gold_parent_nodes(doc: Document) -> tuple[list[Entity], list[int]]:
    """Entities in document order plus each one's gold parent node index."""
    entities = doc.entities
    index = {e.id: i + 1 for i, e in enumerate(entities)}
    parents = [0 if e.parent not in index else index[e.parent] for e in entities]
    return entities, parents


def edge_feature_index(docs: list[Document]) -> dict[str, int]:
    feats = set()
    for doc in docs:
        for _, _, parent, child in candidate_arcs(doc.entities):
            feats.update(extract_edge_features(parent, child, doc.tokens))
    return {f: i for i, f in enumerate(sorted(feats))}


def train_ltm(docs: list[Document], c: float = 1.0, epochs: int = 50,
              lr: float = 1e-3, seed: int = 0) -> LtmModel:
    """L2-regularized logistic regression over all ordered entity pairs."""
    model = LtmModel(edge_feature_index(docs))
    pairs: list[tuple[list[int], int]] = []
    for doc in docs:
        entities, parents = _gold_parent_nodes(doc)
        for h, m, parent, child in candidate_arcs(entities):
            ids = model.feature_ids(parent, child, doc.tokens)
            pairs.append((ids, int(parents[m - 1] == h)))
    if not pairs:
        raise ValueError("no candidate entity pairs in the training corpus")
    labels = {y for _, y in pairs}
    if len(labels) == 1:
        return LtmModel(model.feature_index, constant_p=float(labels.pop()))

    lam = 1.0 / c
    reg = lam / len(pairs)
    opt = Adam(model.params_named().values(), lr=lr)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in rng.permutation(len(pairs)):
            ids, y = pairs[idx]
            z = model.w.data[ids].sum()
            p = 1.0 / (1.0 + np.exp(-z))
            opt.zero_grad()
            model.w.grad += reg * model.w.data
            np.add.at(model.w.grad, ids, p - y)
            opt.step()
    return model


def train_mtt(docs: list[Document], c: float = 1.0, epochs: int = 50,
              lr: float = 1e-3, seed: int = 0) -> MttModel:
    """Gradient training of the arborescence log-likelihood per document."""
    model = MttModel(edge_feature_index(docs))
    cases = []
    for doc in docs:
        entities, parents = _gold_parent_nodes(doc)
        if not entities:
            continue
        ids = {(h, m): model.feature_ids(parent, child, doc.tokens)
               for h, m, parent, child in candidate_arcs(entities)}
        cases.append((len(entities), ids, parents))
    if not cases:
        raise ValueError("no documents with entities in the training corpus")

    lam = 1.0 / c
    reg = lam / len(cases)
    opt = Adam(model.params_named().values(), lr=lr)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in rng.permutation(len(cases)):
            t, ids, parents = cases[idx]
            theta = np.full((t + 1, t + 1), -np.inf)
            for (h, m), fid in ids.items():
                theta[h][m] = model.w.data[fid].sum()
            _, marg = mtt_log_partition_and_marginals(theta)
            opt.zero_grad()
            model.w.grad += reg * model.w.data
            for (h, m), fid in ids.items():
                coeff = marg[h][m] - (1.0 if parents[m - 1] == h else 0.0)
                np.add.at(model.w.grad, fid, coeff)
            opt.step()
    return model
