"""Training, early stopping, checkpoints, and shared evaluation.

Both model families train document by document (batch size 1) with Adam,
through the one loop ``nn.optim.fit``.  The joint model's end-of-epoch
callback early-stops on validation overall F1, computed after tree
enforcement, and the best-epoch weights are the ones kept.  Pipelines train
their two stages for a fixed epoch budget.  With a second core free
(``in_child``), a pipeline trains its edge stage beside its CRF, and the joint
model validates an epoch beside the next one.  Runners wrap trained models
behind one interface (evaluate / predict_doc / save) so the CLI and tests
never branch on model family.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .attention import READERS, VARIANTS, scorer_input_width
from .corpus import doc_to_json
from .data import Document, TokenHeadAssignment, decode_heads_to_tree, encode_tree_to_heads
from .embeddings import EmbeddingTable
from .joint import JointParser
from .metrics import MetricsReport, aggregate, score_edges
from .mst import is_tree, repair
from .nn import Adam, Tape, Tensor, autodiff, load_checkpoint, save_checkpoint
from .nn.optim import fit
from .pipeline import CrfModel, LtmModel, MttModel, pipeline_predict, train_crf, train_ltm, train_mtt
from .synthetic import vocabulary

MODEL_KINDS = ("joint", "joint-2layer", "pipeline-crf+ltm", "pipeline-crf+mtt")
EDGE_MODELS = {f"pipeline-crf+{model.kind}": model for model in (LtmModel, MttModel)}
# The options a joint checkpoint records, dropout resolved; ``layers`` stands
# for the model kind.
JOINT_OPTIONS = ("d", "l", "layers", "dropout", "attention", "steps", "p", "seed")


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
        # Each value has its option's type, which a checkpoint's JSON may not
        # hold.  A bool is not a number, and None is a value only where it is
        # the default.
        for key, value in vars(self).items():
            kinds, name = option_type(key)
            if not (isinstance(value, kinds) and not isinstance(value, bool)
                    or value is None is self.__dataclass_fields__[key].default):
                raise ValueError(f"{key}={value!r} is not {name}")
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model!r}; choose from {MODEL_KINDS}")
        if not all(v > 0 for v in (self.steps, self.d, self.l, self.p, self.lr,
                                   self.max_epochs, self.patience)):
            raise ValueError("steps, d, l, p, lr, max_epochs, patience must be positive")
        if not self.l < (width := scorer_input_width(self.d, self.attention)):
            raise ValueError(f"l={self.l} must be smaller than the scorer's input width {width}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout={self.dropout} must lie in [0, 1)")
        # An option that the model kind, or its attention variant, does not
        # read must keep its default.
        joint = self.model.startswith("joint")
        if joint and self.attention not in (None, *VARIANTS):
            raise ValueError(f"unknown attention variant {self.attention!r}; choose from {VARIANTS}")
        unread = ([key for key, reader in READERS.items() if reader != self.attention] if joint
                  else ("attention", "steps", "d", "l", "p", "dropout", "patience"))
        for key in unread:
            if getattr(self, key) != self.__dataclass_fields__[key].default:
                reads = (f"only {READERS[key]} attention reads {key}" if joint
                         else f"{self.model} reads only model, lr, max_epochs, seed")
                raise ValueError(f"{key}={getattr(self, key)!r}: {reads}")

    @property
    def layers(self) -> int:
        return 2 if self.model == "joint-2layer" else 1

    @property
    def resolved_dropout(self) -> float:
        if self.dropout is not None:
            return self.dropout
        return 0.3 if self.layers == 2 else 0.5


def option_type(key: str) -> tuple[tuple[type, ...], str]:
    """The types that a value of ``TrainConfig``'s option ``key`` may have,
    the first being the one that text converts to, and their name in
    messages: the one place that knows each option's types."""
    if key not in TrainConfig.__dataclass_fields__:
        raise ValueError(f"unknown config key {key!r}")
    if key in ("model", "attention"):
        return (str,), "a string"
    return ((float, int), "a number") if key in ("lr", "dropout") else ((int,), "an integer")


def parse_option(key: str, raw: str):
    """``raw``, the text of a flag or a ``--config`` line, as the value of
    ``TrainConfig``'s option ``key``."""
    kinds, name = option_type(key)
    if kinds[0] is str:
        return None if raw in ("", "none") else raw
    try:
        return kinds[0](raw)
    except ValueError:
        raise ValueError(f"{key}={raw!r} is not {name}") from None


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    report: MetricsReport   # validation after the epoch
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    def add(self, epoch: int, loss: float, report: MetricsReport, seconds: float) -> None:
        self.records.append(EpochRecord(epoch, loss, report, seconds))

    @property
    def best_report(self) -> MetricsReport:
        """The validation report of the kept weights, those of ``best_epoch``."""
        return next(r.report for r in self.records if r.epoch == self.best_epoch)

    def to_csv(self) -> str:
        lines = ["epoch,loss,val_f1,seconds"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.loss:.6f},{r.report.overall.f1:.4f},{r.seconds:.3f}")
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
        table, config = self.model.encoder.table, self.model.config
        manifest = {
            "kind": self.kind,
            "config": {key: getattr(config, key) for key in JOINT_OPTIONS}
                      | {"dropout": config.resolved_dropout},
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


def in_child(fn: Callable, stage: str) -> Callable:
    """Runs ``fn()`` in a forked child beside the caller and returns a handle:
    calling it waits for the child, then returns fn's value or raises its
    exception.  The handle is called once, and no child outlives it: an
    interrupt while it waits kills the child.

    It forks only when ``nn.autodiff.SECOND_CORE`` holds, where ``os.fork``
    exists, and from a process with no other thread (a lock that one holds
    would stay held in the child).  Otherwise ``fn()`` runs now, and the
    handle returns what it returned or raises what it raised.  Either way
    the value or exception is pickled: one that does not pickle arrives as a
    RuntimeError with its type and message, and a child that ends without a
    result raises a RuntimeError naming ``stage``.
    """
    if not (autodiff.SECOND_CORE and hasattr(os, "fork") and threading.active_count() == 1):
        blob = _pickled(fn, stage)
        return lambda: _unpickled(blob)
    read, write = os.pipe()
    if not (pid := os.fork()):
        try:
            with os.fdopen(write, "wb") as pipe:
                pipe.write(_pickled(fn, stage))
        finally:
            os._exit(0)
    os.close(write)

    def handle():
        try:
            with os.fdopen(read, "rb") as pipe:
                blob = pipe.read()
        except BaseException:  # an interrupt while waiting ends the child too
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if not blob:
            raise RuntimeError(f"{stage}: the child ended without a result, wait status {status}")
        return _unpickled(blob)
    return handle


def _pickled(fn: Callable, stage: str) -> bytes:
    """(True, fn's value) or (False, the exception it raised), pickled.  A
    value that does not pickle counts as that error, and an exception that
    does not survive the round trip becomes a RuntimeError that names it."""
    try:
        return pickle.dumps((True, fn()))
    except Exception as exc:
        with suppress(Exception):
            return pickle.dumps((False, pickle.loads(pickle.dumps(exc))))
        return pickle.dumps((False, RuntimeError(f"{stage}: {exc!r}")))


def _unpickled(blob: bytes):
    ok, value = pickle.loads(blob)
    if not ok:
        raise value
    return value


def train_joint(config: TrainConfig, train_docs: list[Document],
                dev_docs: list[Document],
                table: EmbeddingTable | None = None) -> tuple[JointRunner, TrainLog]:
    if not train_docs:
        raise ValueError("empty training split")
    if table is None:
        table = EmbeddingTable.random(vocabulary(train_docs), config.d, seed=config.seed)
    model = JointParser(table, config)
    runner = JointRunner(model)
    golds = [encode_tree_to_heads(doc) for doc in train_docs]
    # Validation on the training split keeps early stopping defined for
    # corpora too small to carve a dev set from.
    val_docs = dev_docs if dev_docs else train_docs

    opt = Adam(model.params_named().values(), lr=config.lr)
    drop_rng = np.random.default_rng(config.seed + 1)
    log = TrainLog()
    # The best epoch's weights are copied into one buffer, in place: freeing a
    # snapshot as large as the whole store lifts glibc's mmap threshold above
    # the largest parameter's temporaries, which then stay resident in the heap.
    # The buffer is a shared mapping, so a validation in a child writes it too.
    best_params = np.frombuffer(mmap.mmap(-1, opt.data.nbytes))
    # The (epoch, loss, seconds, handle) of the one validation not yet logged:
    # one that runs in a child, or one that ``end_epoch`` runs here at once.
    pending = []
    started = time.perf_counter()

    def step(doc: Document, gold: TokenHeadAssignment) -> float:
        with Tape() as tape:
            loss = model.loss(doc.tokens, gold, rng=drop_rng)
        tape.backward(loss)
        # A NaN or infinity anywhere makes this sum non-finite; ``fit`` names the epoch.
        if not np.isfinite(loss.item() + opt.grad.sum()):
            raise FloatingPointError(f"non-finite loss or gradient, document {doc.id!r}")
        return loss.item()

    def validate() -> MetricsReport:
        """The validation report.  The weights are kept when F1 beats every
        logged epoch's, so the first epoch with the best F1 is the one kept."""
        report = runner.evaluate(val_docs)
        if report.overall.f1 > max((r.report.overall.f1 for r in log.records), default=-np.inf):
            best_params[...] = opt.data
        return report

    def collect() -> bool | None:
        """Logs the pending validation, if any, and says whether to stop:
        training stops after ``patience`` epochs without a better F1.  With
        none pending there is nothing to say, and it returns None."""
        if pending:
            epoch, loss, seconds, handle = pending.pop()
            log.add(epoch, loss, handle(), seconds)
            log.best_epoch = max(log.records, key=lambda r: r.report.overall.f1).epoch
            return epoch - log.best_epoch >= config.patience

    def end_epoch(epoch: int, loss: float) -> bool:
        """Validates beside the next epoch when this epoch's F1 cannot stop
        training, and now otherwise, so no epoch trains that sequential
        training would not train."""
        nonlocal started
        seconds = time.perf_counter() - started
        collect()  # the epoch before, whose F1 could not stop training
        forks = epoch < config.max_epochs and epoch - log.best_epoch < config.patience
        pending.append((epoch, loss, seconds,
                        in_child(validate, f"validation of epoch {epoch}") if forks else validate))
        stop = not forks and collect()  # validates now, on this epoch's weights
        started = time.perf_counter()
        return stop

    try:
        fit(opt, list(zip(train_docs, golds)), step, config.max_epochs, config.seed,
            "JointParser", 0.0, end_epoch)
    finally:
        collect()  # after an error, one of the validation before comes first
    opt.data[...] = best_params  # set by epoch 1 at the latest
    return runner, log


def train_pipeline(config: TrainConfig, train_docs: list[Document],
                   dev_docs: list[Document] | None = None) -> tuple[PipelineRunner, TrainLog]:
    started = time.perf_counter()
    # The edge stage trains on gold entities and never reads the CRF.  Each
    # stage's trainer refuses a broken gold forest before its first step.
    trainer = train_ltm if config.model.endswith("ltm") else train_mtt
    edge = in_child(lambda: trainer(train_docs, epochs=config.max_epochs, lr=config.lr,
                                    seed=config.seed), f"{config.model}'s edge stage")
    try:
        crf = train_crf(train_docs, lam=10.0, epochs=config.max_epochs,
                        lr=config.lr, seed=config.seed)
    except BaseException:
        with suppress(Exception):
            edge()  # the CRF's error comes first, as it trains first
        raise
    runner = PipelineRunner(crf, edge())
    log = TrainLog()
    val = dev_docs if dev_docs else train_docs
    # A two-stage pipeline has no single training loss; the seconds cover
    # both stages and the validation pass.
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
    """Rebuild a runner of the kind recorded in the checkpoint manifest.  A
    malformed checkpoint raises one ValueError that names ``path``; a joint
    model's config must be one that ``TrainConfig`` accepts."""
    manifest, arrays = load_checkpoint(str(path))
    try:
        kind = manifest["kind"]
        if kind == "joint":
            options = dict(manifest["config"])
            model = {1: "joint", 2: "joint-2layer"}.get(options.pop("layers", None))
            if model is None or {*options, "layers"} != set(JOINT_OPTIONS):
                raise ValueError(f"config {manifest['config']} must have exactly the keys "
                                 f"{', '.join(JOINT_OPTIONS)}, and layers 1 or 2")
            config = TrainConfig(model, **options)
            table = EmbeddingTable(manifest["vocab"],
                                   _pop(arrays, "emb.matrix", (len(manifest["vocab"]), config.d)))
            return _restore(JointRunner(JointParser(table, config)), arrays)
        if kind in EDGE_MODELS:
            crf = CrfModel(manifest["tags"], {f: i for i, f in enumerate(manifest["crf_features"])})
            edge_index = {f: i for i, f in enumerate(manifest["edge_features"])}
            return _restore(PipelineRunner(crf, EDGE_MODELS[kind](edge_index)), arrays)
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"{path}: the manifest lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
