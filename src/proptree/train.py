"""Training loops, early stopping, checkpoints, and shared evaluation.

Both model families train document by document (batch size 1) with Adam.
The joint model early-stops on validation overall F1, computed after tree
enforcement, and the best-epoch weights are the ones kept.  Pipelines train
their two stages for a fixed epoch budget.  Runners wrap trained models
behind one interface (evaluate / predict_doc / save) so the CLI and tests
never branch on model family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .attention import attention_options, scorer_input_width
from .corpus import doc_to_json
from .data import Document, TokenHeadAssignment, decode_heads_to_tree, encode_tree_to_heads
from .embeddings import EmbeddingTable
from .joint import JointParser
from .metrics import MetricsReport, aggregate, score_edges
from .mst import is_tree, repair
from .nn import Adam, Tape, Tensor, load_checkpoint, save_checkpoint
from .pipeline import CrfModel, LtmModel, MttModel, pipeline_predict, train_crf, train_ltm, train_mtt
from .synthetic import vocabulary

MODEL_KINDS = ("joint", "joint-2layer", "pipeline-crf+ltm", "pipeline-crf+mtt")


@dataclass
class TrainConfig:
    model: str = "joint"
    attention: str | None = None
    steps: int = 1
    d: int = 128
    l: int = 32
    p: int = 32
    lr: float = 1e-3
    dropout: float | None = None
    max_epochs: int = 150
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model!r}; choose from {MODEL_KINDS}")
        if not all(v > 0 for v in (self.steps, self.d, self.l, self.p, self.lr,
                                   self.max_epochs, self.patience)):
            raise ValueError("steps, d, l, p, lr, max_epochs, patience must be positive")
        if not self.l < (width := scorer_input_width(self.d, self.attention)):
            raise ValueError(f"l={self.l} must be smaller than the scorer's input width {width}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout={self.dropout} must lie in [0, 1)")
        # An option the model kind does not read must keep its default.
        if self.model.startswith("joint"):
            attention_options(self.attention, p=self.p, steps=self.steps)
        else:
            for key in ("attention", "steps", "d", "l", "p", "dropout", "patience"):
                if getattr(self, key) != self.__dataclass_fields__[key].default:
                    raise ValueError(f"{key}={getattr(self, key)!r}: "
                                     f"{self.model} reads only model, lr, max_epochs, seed")

    @property
    def layers(self) -> int:
        return 2 if self.model == "joint-2layer" else 1

    @property
    def resolved_dropout(self) -> float:
        if self.dropout is not None:
            return self.dropout
        return 0.3 if self.layers == 2 else 0.5

    def apply_overrides(self, overrides: dict[str, str]) -> "TrainConfig":
        """A copy with ``overrides`` parsed in."""
        kwargs = {k: getattr(self, k) for k in self.__dataclass_fields__}
        for key, raw in overrides.items():
            if key not in kwargs:
                raise KeyError(f"unknown config key {key!r}")
            if key in ("model", "attention"):
                kwargs[key] = None if raw in ("", "none") else raw
            elif key in ("lr", "dropout"):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = int(raw)
        return TrainConfig(**kwargs)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    report: MetricsReport   # validation after the epoch
    seconds: float

    @property
    def val_f1(self) -> float:
        return self.report.overall.f1


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    def add(self, epoch: int, loss: float, report: MetricsReport, seconds: float) -> None:
        self.records.append(EpochRecord(epoch, loss, report, seconds))

    @property
    def best_f1(self) -> float:
        return max((r.val_f1 for r in self.records), default=0.0)

    @property
    def best_report(self) -> MetricsReport:
        """The validation report of the kept weights, those of ``best_epoch``."""
        return next(r.report for r in self.records if r.epoch == self.best_epoch)

    def to_csv(self) -> str:
        lines = ["epoch,loss,val_f1,seconds"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.loss:.6f},{r.val_f1:.4f},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"


def score_docs(docs: list[Document],
               predict: Callable[[Document], tuple[TokenHeadAssignment, bool]]
               ) -> MetricsReport:
    """Edge scores of ``predict(doc)`` (an assignment and whether greedy
    output was already a tree) against each document's gold tree."""
    counts, flags = [], []
    for doc in docs:
        gold = encode_tree_to_heads(doc)
        predicted, was_tree = predict(doc)
        counts.append(score_edges(predicted, gold))
        flags.append(was_tree)
    return aggregate(counts, flags)


class Runner:
    """Evaluation shared by the runner kinds, each of which defines
    ``predict_doc(tokens) -> (assignment, greedy_was_tree)``."""

    def evaluate(self, docs: list[Document]) -> MetricsReport:
        return score_docs(docs, lambda doc: self.predict_doc(doc.tokens))


class JointRunner(Runner):
    """A trained joint parser; its encoder holds the frozen embedding table."""

    def __init__(self, model: JointParser):
        self.model = model
        self.kind = "joint"

    def params_named(self) -> dict[str, Tensor]:
        return self.model.params_named()

    def predict_doc(self, tokens: list[str]) -> tuple[TokenHeadAssignment, bool]:
        dist = self.model.distribution(tokens)
        greedy = dist.greedy()
        # A greedy tree already holds every node's best arc: only non-trees are repaired.
        if is_tree(greedy):
            return greedy, True
        return repair(dist, greedy), False

    def save(self, path: str | Path) -> None:
        table = self.model.encoder.table
        manifest = {
            "kind": self.kind,
            "config": self.model.config,
            "vocab": table.vocab,
        }
        save_checkpoint(str(path), manifest, _arrays(self) | {"emb.matrix": table.matrix})


class PipelineRunner(Runner):
    """A trained CRF segmenter plus an entity-pair attachment model."""

    def __init__(self, crf: CrfModel, edge_model: LtmModel | MttModel):
        self.crf = crf
        self.edge_model = edge_model
        self.kind = f"pipeline-crf+{edge_model.kind}"

    def params_named(self) -> dict[str, Tensor]:
        return self.crf.params_named("crf.") | self.edge_model.params_named(
            f"{self.edge_model.kind}.")

    def predict_doc(self, tokens: list[str], doc_id: str = "doc"
                    ) -> tuple[TokenHeadAssignment, bool]:
        tree, was_tree = pipeline_predict(doc_id, tokens, self.crf.viterbi,
                                          self.edge_model.arc_matrix)
        return encode_tree_to_heads(tree), was_tree

    def save(self, path: str | Path) -> None:
        manifest = {
            "kind": self.kind,
            "tags": self.crf.tags,
            "crf_features": _names_in_order(self.crf.feature_index),
            "edge_features": _names_in_order(self.edge_model.feature_index),
        }
        save_checkpoint(str(path), manifest, _arrays(self))


def _arrays(runner) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in runner.params_named().items()}


def _restore(runner, arrays: dict[str, np.ndarray]):
    """Copy checkpoint arrays into the runner's parameters; names and shapes must match."""
    for name, tensor in runner.params_named().items():
        tensor.data[...] = _pop(arrays, name, tensor.data.shape)
    if arrays:
        raise ValueError(f"checkpoint has unexpected parameters {sorted(arrays)}")
    return runner


def _pop(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name not in arrays:
        raise ValueError(f"checkpoint lacks parameter {name}")
    stored = arrays.pop(name)
    if stored.shape != shape:
        raise ValueError(f"checkpoint mismatch for {name}: {stored.shape} vs expected {shape}")
    return stored


def _names_in_order(index: dict[str, int]) -> list[str]:
    return [name for name, _ in sorted(index.items(), key=lambda kv: kv[1])]


def train_joint(config: TrainConfig, train_docs: list[Document],
                dev_docs: list[Document],
                table: EmbeddingTable | None = None) -> tuple[JointRunner, TrainLog]:
    if not train_docs:
        raise ValueError("empty training split")
    if table is None:
        table = EmbeddingTable.random(vocabulary(train_docs), config.d, seed=config.seed)
    model = JointParser(
        table, d=config.d, l=config.l, layers=config.layers,
        dropout=config.resolved_dropout, attention=config.attention,
        steps=config.steps, p=config.p, seed=config.seed,
    )
    runner = JointRunner(model)
    golds = [encode_tree_to_heads(doc) for doc in train_docs]
    for g in golds:
        g.validate_gold()
    # Validation on the training split keeps early stopping defined for
    # corpora too small to carve a dev set from.
    val_docs = dev_docs if dev_docs else train_docs

    opt = Adam(model.params_named().values(), lr=config.lr)
    shuffle_rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    log = TrainLog()
    best_f1 = -1.0
    # The best epoch's weights are copied into one buffer, in place: freeing a
    # snapshot as large as the whole store lifts glibc's mmap threshold above
    # the largest parameter's temporaries, which then stay resident in the heap.
    best_params = np.empty_like(opt.data)
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        total = 0.0
        for idx in shuffle_rng.permutation(len(train_docs)):
            doc = train_docs[idx]
            with Tape() as tape:
                loss = model.loss(doc.tokens, golds[idx], train=True, rng=drop_rng)
            opt.zero_grad()
            tape.backward(loss)
            # A NaN or infinity anywhere makes this sum non-finite.
            if not np.isfinite(loss.item() + opt.grad.sum()):
                raise FloatingPointError(
                    f"non-finite loss or gradient in epoch {epoch}, document {doc.id!r}")
            opt.step()
            total += loss.item()
        report = runner.evaluate(val_docs)
        val_f1 = report.overall.f1
        log.add(epoch, total / len(train_docs), report, time.perf_counter() - started)

        if val_f1 > best_f1:
            best_f1 = val_f1
            log.best_epoch = epoch
            best_params[...] = opt.data
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if log.best_epoch:
        opt.data[...] = best_params
    return runner, log


def train_pipeline(config: TrainConfig, train_docs: list[Document],
                   dev_docs: list[Document] | None = None) -> tuple[PipelineRunner, TrainLog]:
    if not train_docs:
        raise ValueError("empty training split")
    started = time.perf_counter()
    crf = train_crf(train_docs, lam=10.0, epochs=config.max_epochs,
                    lr=config.lr, seed=config.seed)
    trainer = train_ltm if config.model.endswith("ltm") else train_mtt
    edge_model = trainer(train_docs, epochs=config.max_epochs,
                         lr=config.lr, seed=config.seed)
    runner = PipelineRunner(crf, edge_model)
    log = TrainLog()
    val = dev_docs if dev_docs else train_docs
    # A two-stage pipeline has no single training loss; the seconds cover
    # both stages and the validation pass, as a joint epoch's do.
    log.add(config.max_epochs, float("nan"), runner.evaluate(val),
            time.perf_counter() - started)
    log.best_epoch = config.max_epochs
    return runner, log


def train_model(config: TrainConfig, train_docs: list[Document],
                dev_docs: list[Document],
                table: EmbeddingTable | None = None):
    if config.model.startswith("joint"):
        return train_joint(config, train_docs, dev_docs, table)
    if table is not None:
        raise ValueError(f"{config.model} takes no embedding table")
    return train_pipeline(config, train_docs, dev_docs)


def load_runner(path: str | Path):
    """Rebuild a runner of the kind recorded in the checkpoint manifest."""
    manifest, arrays = load_checkpoint(str(path))
    kind = manifest["kind"]
    if kind == "joint":
        cfg = manifest["config"]
        table = EmbeddingTable(manifest["vocab"],
                               _pop(arrays, "emb.matrix", (len(manifest["vocab"]), cfg["d"])))
        return _restore(JointRunner(JointParser(table, **cfg)), arrays)
    if kind.startswith("pipeline-crf+"):
        crf = CrfModel(manifest["tags"], {f: i for i, f in enumerate(manifest["crf_features"])})
        edge_index = {f: i for i, f in enumerate(manifest["edge_features"])}
        if kind.endswith("ltm"):
            edge_model = LtmModel(edge_index)
        else:
            edge_model = MttModel(edge_index)
        return _restore(PipelineRunner(crf, edge_model), arrays)
    raise ValueError(f"unknown checkpoint kind {kind!r}")


def predict_records(runner: Runner, docs: list[Document]) -> list[dict]:
    """Token-level assignment plus (when decodable) the tree for each doc."""
    out = []
    for doc in docs:
        assignment, was_tree = runner.predict_doc(doc.tokens)
        record = {
            "id": doc.id,
            "tokens": doc.tokens,
            "heads": assignment.heads,
            "labels": assignment.labels,
            "greedy_tree": was_tree,
        }
        try:
            tree = decode_heads_to_tree(assignment, doc.tokens, doc_id=doc.id)
            record["entities"] = doc_to_json(tree)["entities"]
        except ValueError:
            record["entities"] = None
        out.append(record)
    return out
