"""Entity-pair scorers for the pipeline: local logistic (LTM) and
globally normalized Matrix-Tree (MTT) models.

Both score candidate parent->child arcs between detected entities (plus the
root as parent) with sparse hand-built features.  LTM treats every pair as
an independent binary decision; MTT normalizes over all spanning
arborescences of the entity graph, with the partition function computed as
a Laplacian minor determinant and marginals from its inverse.
"""

from __future__ import annotations

import numpy as np

from ..data import Document, Entity
from ..nn import Adam, Module, Tensor

ROOT_TOKEN = "<root>"


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

    def theta_matrix(self, entities: list[Entity], tokens: list[str]) -> np.ndarray:
        """(t+1, t+1) log-potentials; row 0 is the root, column 0 unused."""
        t = len(entities)
        theta = np.full((t + 1, t + 1), -np.inf)
        for m, child in enumerate(entities, start=1):
            theta[0][m] = self.raw_score(None, child, tokens)
            for h, parent in enumerate(entities, start=1):
                if h != m:
                    theta[h][m] = self.raw_score(parent, child, tokens)
        return theta


def mtt_log_partition_and_marginals(theta: np.ndarray,
                                    names: list[str] | None = None
                                    ) -> tuple[float, np.ndarray]:
    """Partition function and arc marginals of the arborescence distribution.

    ``theta[h][m]`` is the log-potential of arc h->m over nodes 0..t with
    root 0; entries with h == m or m == 0 are ignored.  Columns are
    max-shifted before exponentiation, so only ratios ever reach ``exp``.
    Every spanning tree uses exactly one arc into each child, which makes
    the shift a constant factor that is added back to log Z.
    """
    t = theta.shape[0] - 1
    if t < 1:
        raise ValueError("need at least one non-root node")
    shift = np.zeros(t + 1)
    a = np.zeros_like(theta)
    for m in range(1, t + 1):
        col = [theta[h][m] for h in range(t + 1) if h != m]
        shift[m] = max(col)
        if not np.isfinite(shift[m]):  # no usable arc into m at all
            shift[m] = 0.0
            continue
        for h in range(t + 1):
            if h != m:
                a[h][m] = np.exp(theta[h][m] - shift[m])

    lap = np.zeros((t, t))
    for m in range(1, t + 1):
        lap[m - 1][m - 1] = sum(a[h][m] for h in range(t + 1) if h != m)
        for h in range(1, t + 1):
            if h != m:
                lap[h - 1][m - 1] = -a[h][m]

    sign, logdet = np.linalg.slogdet(lap)
    if sign <= 0 or not np.isfinite(logdet):
        sums = lap.diagonal()
        worst = int(np.argmin(sums)) + 1
        label = names[worst] if names else f"node {worst}"
        raise ValueError(f"singular Laplacian: {label} is effectively isolated")
    log_z = float(logdet + shift[1:].sum())

    inv = np.linalg.inv(lap)
    marg = np.zeros_like(theta)
    for m in range(1, t + 1):
        marg[0][m] = a[0][m] * inv[m - 1][m - 1]
        for h in range(1, t + 1):
            if h != m:
                marg[h][m] = a[h][m] * (inv[m - 1][m - 1] - inv[m - 1][h - 1])
    return log_z, marg


def _gold_parent_nodes(doc: Document) -> tuple[list[Entity], list[int]]:
    """Entities in document order plus each one's gold parent node index."""
    entities = doc.entities
    index = {e.id: i + 1 for i, e in enumerate(entities)}
    parents = [0 if e.parent not in index else index[e.parent] for e in entities]
    return entities, parents


def edge_feature_index(docs: list[Document]) -> dict[str, int]:
    feats = set()
    for doc in docs:
        entities, _ = _gold_parent_nodes(doc)
        for child in entities:
            feats.update(extract_edge_features(None, child, doc.tokens))
            for parent in entities:
                if parent is not child:
                    feats.update(extract_edge_features(parent, child, doc.tokens))
    return {f: i for i, f in enumerate(sorted(feats))}


def train_ltm(docs: list[Document], c: float = 1.0, epochs: int = 50,
              lr: float = 1e-3, seed: int = 0) -> LtmModel:
    """L2-regularized logistic regression over all ordered entity pairs."""
    model = LtmModel(edge_feature_index(docs))
    pairs: list[tuple[list[int], int]] = []
    for doc in docs:
        entities, parents = _gold_parent_nodes(doc)
        for m, child in enumerate(entities, start=1):
            for h in range(len(entities) + 1):
                if h == m:
                    continue
                parent = None if h == 0 else entities[h - 1]
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
        t = len(entities)
        ids: dict[tuple[int, int], list[int]] = {}
        for m, child in enumerate(entities, start=1):
            for h in range(t + 1):
                if h == m:
                    continue
                parent = None if h == 0 else entities[h - 1]
                ids[(h, m)] = model.feature_ids(parent, child, doc.tokens)
        cases.append((t, ids, parents))
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


EdgeScorer = LtmModel | MttModel
