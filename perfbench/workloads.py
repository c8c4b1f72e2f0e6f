"""The benchmark's four workloads: set-up and one timed round each.

Every workload is a closed loop: one caller hands proptree one document at a
time and waits for the result.  A round is a fixed amount of work (a whole
training run from scratch, then a pass over a fixed document list), so every
round of a run repeats the same work and the same outputs; the run repeats
rounds until its time is used up.  Training documents come from a fixed
corpus seed; the documents validated and predicted come from the workload seed.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from proptree import corpus, metrics, mst, synthetic, train
from proptree.data import Document, encode_tree_to_heads
from proptree.embeddings import EmbeddingTable
from proptree.pipeline import crf_objective

from longdocs import draw_ks, gold_round_trips, long_documents

# README model shape.
JOINT = dict(d=64, l=32, seed=0)
PIPELINE = dict(model="pipeline-crf+mtt", lr=0.05, seed=0)
# Training and validation documents come from this corpus seed whatever the
# workload seed, so every seed tests the same trained model; the workload
# seed makes the documents that are predicted and scored.  Models trained on
# different small corpora differ by 15-28% in F1 and loss, which would swamp
# every comparison across seeds.  The seed lies far from the small seeds a
# caller passes, so predicted documents are not training documents.
TRAIN_SEED = 1_000_000
# Workloads take their train, validation and dev documents from the front of
# these pools.
POOL_TRAIN = 120
POOL_DEV = 200


@dataclass(frozen=True)
class Spec:
    name: str
    train_docs: int             # training documents, from the fixed training corpus
    val_docs: int               # validation documents, from the same corpus
    epochs: int
    # Raised from the 1e-3 default so that a few epochs give a usable model.
    lr: float = 0.01
    attention: str | None = None
    # Documents predicted per round: ``long_docs`` long documents, or with 0
    # the first ``dev_docs`` of the seed's dev split.  Either is >= 100, so
    # p90 has >= 10 samples beyond it.
    long_docs: int = 0
    dev_docs: int = 200
    k_min: int = 4
    k_max: int = 12
    max_tokens: int = 210


SPECS = {s.name: s for s in (
    Spec("train-joint", train_docs=50, val_docs=30, epochs=4),
    # At lr 0.01 this run reaches an F1 of only 3-4%, which a handful of edges
    # moves by a quarter from seed to seed; at 0.03 it reaches 30%.
    Spec("train-attn", train_docs=20, val_docs=30, epochs=4, lr=0.03, attention="tensor"),
    # 162 long documents, 18 for each k: at 108, latency percentiles and F1
    # moved by 6-9% from seed to seed through the documents alone.  The
    # checkpoint leaves about 46% of long-document tokens non-skip, so tree
    # repair does real work; at lr 0.03 or on 40 ads it leaves 5-25%.
    Spec("predict-long", train_docs=70, val_docs=30, epochs=5, long_docs=162),
    Spec("pipeline", train_docs=120, val_docs=30, epochs=10, long_docs=162),
)}


def tiny(spec: Spec) -> Spec:
    """The same workload at a size that finishes in a few seconds."""
    return dataclasses.replace(spec, train_docs=6, val_docs=3, dev_docs=3, epochs=1,
                               long_docs=min(spec.long_docs, 2), k_min=2, k_max=3)


class Repeats:
    """Timed intervals of pieces of work that every round repeats, by piece.

    ``seconds(t0, t1)`` turns an interval into seconds, such as the speed
    meter's reference seconds."""

    def __init__(self):
        self.pieces: dict[object, tuple[int, list[tuple[float, float]]]] = {}

    def add(self, key, work: int, t0: float, t1: float) -> None:
        self.pieces.setdefault(key, (work, []))[1].append((t0, t1))

    def medians(self, seconds) -> list[float]:
        """Each piece's median time over its repeats."""
        return [statistics.median(seconds(*span) for span in spans)
                for _, spans in self.pieces.values()]

    def total_work(self) -> int:
        return sum(work * len(spans) for work, spans in self.pieces.values())

    def rate(self, seconds) -> float:
        """Work per second over all pieces, each at its median repeat."""
        return sum(work for work, _ in self.pieces.values()) / sum(self.medians(seconds))


@dataclass
class Tally:
    """What a run measured, accumulated over rounds."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Training tokens per training call (epochs x training tokens).
    train: Repeats = field(default_factory=Repeats)
    # Predicted tokens per document.
    predict: Repeats = field(default_factory=Repeats)
    # (final loss, f1) per round; identical rounds must give identical values.
    outcomes: list[tuple[float, float]] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class State:
    spec: Spec
    train_docs: list[Document]
    val_docs: list[Document]
    eval_docs: list[Document]           # documents predicted in each round
    eval_golds: list
    gold_checked: int
    gold_failed: int
    table: EmbeddingTable | None = None
    runner: object = None               # predict-long: the reloaded checkpoint
    log: train.TrainLog | None = None   # predict-long: the set-up training log
    trained: tuple[float, float] | None = None  # predict-long: set-up training interval

    @property
    def train_tokens(self) -> int:
        return sum(d.n for d in self.train_docs)


def joint_config(spec: Spec) -> train.TrainConfig:
    # patience > epochs - 1 disables early stopping: every run trains all epochs.
    return train.TrainConfig(model="joint", attention=spec.attention,
                             max_epochs=spec.epochs, patience=spec.epochs, lr=spec.lr,
                             **JOINT)


def make_corpus(seed: int, n_test: int) -> tuple[list[Document], ...]:
    """Synthetic ads split into the train and dev pools plus ``n_test`` ads."""
    n_docs = POOL_TRAIN + POOL_DEV + n_test
    docs = synthetic.generate_corpus(synthetic.SyntheticConfig(
        n_docs=n_docs, seed=seed, ambiguous=True))
    # split_corpus floors n * frac; the half document keeps the counts exact.
    return corpus.split_corpus(docs, seed, dev_frac=(POOL_DEV + 0.5) / n_docs,
                               test_frac=(n_test + 0.5) / n_docs)


def setup(spec: Spec, seed: int, workdir: Path) -> State:
    """Generate the corpus and long documents, check gold, build the model."""
    ks = draw_ks(spec.long_docs, seed, spec.k_min, spec.k_max)
    train_docs, val_docs, _ = make_corpus(TRAIN_SEED, 0)
    _, dev_docs, ads = make_corpus(seed, sum(ks))
    train_docs, val_docs = train_docs[:spec.train_docs], val_docs[:spec.val_docs]
    eval_docs = (long_documents(ads, ks, spec.max_tokens) if spec.long_docs
                 else dev_docs[:spec.dev_docs])

    # A document whose gold fails the round trip is counted as a failure and
    # left out, so the program only ever sees valid documents.
    seen = train_docs + val_docs + eval_docs
    bad = {d.id for d in seen if not gold_round_trips(d)}
    train_docs, val_docs, eval_docs = ([d for d in part if d.id not in bad]
                                       for part in (train_docs, val_docs, eval_docs))
    state = State(spec, train_docs, val_docs, eval_docs,
                  [encode_tree_to_heads(d) for d in eval_docs],
                  gold_checked=len(seen), gold_failed=len(bad))

    if spec.name == "pipeline":
        return state
    state.table = EmbeddingTable.random(synthetic.vocabulary(train_docs), JOINT["d"],
                                        seed=JOINT["seed"])
    if spec.name == "predict-long":
        started = time.perf_counter()
        runner, state.log = train.train_joint(joint_config(spec), train_docs, val_docs,
                                              state.table)
        state.trained = (started, time.perf_counter())
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            path = Path(tmp, "checkpoint.zip")
            runner.save(path)
            state.runner = train.load_runner(path)
    return state


def run_round(state: State, tally: Tally) -> None:
    """One round of the workload's timed work."""
    spec = state.spec
    if spec.name == "predict-long":
        f1 = predict_pass(state.runner, state, tally)
        tally.outcomes.append((state.log.records[-1].loss, f1))
        return
    started = time.perf_counter()
    if spec.name == "pipeline":
        runner, _ = train.train_pipeline(train.TrainConfig(max_epochs=spec.epochs, **PIPELINE),
                                         state.train_docs, state.val_docs)
        tally.train.add("run", spec.epochs * state.train_tokens, started, time.perf_counter())
        nll, _, _ = crf_objective(runner.crf, state.train_docs, lam=0.0)
        losses = [nll / len(state.train_docs)]
    else:
        runner, log = train.train_joint(joint_config(spec), state.train_docs,
                                        state.val_docs, state.table)
        losses = record_training(log, state, tally, started, time.perf_counter())
    check_losses(losses, tally)
    f1 = predict_pass(runner, state, tally)
    tally.outcomes.append((losses[-1], f1))


def record_training(log: train.TrainLog, state: State, tally: Tally,
                    t0: float, t1: float) -> list[float]:
    """Add a ``train_joint`` call, timed from ``t0`` to ``t1`` (model build and
    every epoch with its validation pass), to the training repeats; returns
    the epoch losses."""
    if len(log.records) != state.spec.epochs:
        raise RuntimeError(f"trained {len(log.records)} epochs, expected {state.spec.epochs}")
    tally.train.add("run", state.spec.epochs * state.train_tokens, t0, t1)
    return [r.loss for r in log.records]


def check_losses(losses: list[float], tally: Tally) -> None:
    """Count every epoch loss as an operation that fails when not finite."""
    tally.attempted += len(losses)
    for epoch, value in enumerate(losses, start=1):
        if not math.isfinite(value):
            tally.fail(f"epoch {epoch}: non-finite loss {value}")


def predict_pass(runner, state: State, tally: Tally) -> float:
    """Predict every evaluation document one at a time; returns overall F1."""
    is_pipeline = runner.kind.startswith("pipeline")
    counts, flags = [], []
    for doc, gold in zip(state.eval_docs, state.eval_golds):
        tally.attempted += 1
        started = time.perf_counter()
        try:
            if is_pipeline:
                predicted, was_tree = runner.predict_doc(doc.tokens, doc.id)
            else:
                predicted, was_tree = runner.predict_doc(doc.tokens)
        except Exception:
            tally.fail(f"{doc.id}: {traceback.format_exc(limit=3)}")
            continue
        tally.predict.add(doc.id, doc.n, started, time.perf_counter())
        if not mst.is_tree(predicted):
            tally.fail(f"{doc.id}: prediction is not a tree")
            continue
        counts.append(metrics.score_edges(predicted, gold))
        flags.append(was_tree)
    if not counts:
        raise RuntimeError("no prediction passed the correctness gate; F1 is undefined")
    return metrics.aggregate(counts, flags).overall.f1
