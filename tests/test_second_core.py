"""Training on the second core: ``cores.in_child`` runs the pipeline's edge
stage beside its CRF, and a joint epoch's validation beside the next epoch,
in a forked child.  Every result keeps its bytes, errors surface in the order
of sequential training, and no child outlives the call."""

import contextlib
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from proptree import cores
from proptree import train as train_module
from proptree.joint import JointParser
from proptree.synthetic import SyntheticConfig, generate_corpus
from proptree.cores import in_child
from proptree.train import JointRunner, TrainConfig, train_model

from helpers import train_joint_reference

DOCS = generate_corpus(SyntheticConfig(n_docs=20, seed=7, ambiguous=True))
TRAIN, DEV = DOCS[:14], DOCS[14:]


@pytest.fixture(autouse=True)
def bounded():
    """A test that waits over 120 s raises TimeoutError, and again every 5 s
    after, so that a wait that swallows one interrupt still ends."""
    def timeout(*_):
        signal.alarm(5)
        raise TimeoutError("the test waited too long")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Counts the children that training forks; a test sets the gate itself."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def no_child_left(threads: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


def outcome(config: TrainConfig, trainer=train_model) -> tuple:
    """Everything a training run gives but its timings."""
    runner, log = trainer(config, TRAIN, DEV, None)
    return ([(name, p.data.tobytes()) for name, p in runner.params_named().items()],
            [(r.epoch, float(r.loss).hex(), r.report.dumps(), r.report.overall.f1)
             for r in log.records],
            log.best_epoch)


RUNS = {
    "joint": TrainConfig("joint", d=8, l=4, lr=0.01, max_epochs=4, patience=4, seed=1),
    "joint-tensor": TrainConfig("joint", attention="tensor", d=8, l=4, lr=0.01,
                                max_epochs=3, patience=3, seed=2),
    # F1 0, 6.4, 12.5, 13.95, 14.71, 19.61, 15.09: stops after 7 of 10 epochs.
    # At patience 1 every epoch's F1 can stop training, so every validation
    # runs in this process.
    "joint-early-stop": TrainConfig("joint", d=8, l=4, lr=0.1, max_epochs=10, patience=1,
                                    seed=1),
    # F1 0, 0, 3.31, 0, 8.33, 0, 0: stops after 7 of 10 epochs, epochs 1, 2, 4
    # and 6 validate beside the next one, and the tied F1 0 keeps epoch 1.
    "joint-patience-2": TrainConfig("joint", d=8, l=4, lr=0.02, max_epochs=10, patience=2,
                                    seed=1),
    # F1 0, 9.09, 0, 8.82, 9.09: epoch 5 ties the best F1, and epoch 2's weights
    # are kept.
    "joint-tied-best": TrainConfig("joint", d=8, l=4, lr=0.03, max_epochs=5, patience=5,
                                   seed=2),
    "pipeline-crf+mtt": TrainConfig("pipeline-crf+mtt", lr=0.05, max_epochs=3, seed=1),
    "pipeline-crf+ltm": TrainConfig("pipeline-crf+ltm", lr=0.05, max_epochs=3, seed=1),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_second_core_keeps_every_byte(run, monkeypatch, forks):
    config = RUNS[run]
    threads = threading.active_count()
    monkeypatch.setattr(cores, "SECOND_CORE", False)
    alone = outcome(config)
    assert forks == []  # nothing forks with the gate off
    monkeypatch.setattr(cores, "SECOND_CORE", True)
    assert outcome(config) == alone
    if run.startswith("pipeline"):
        assert len(forks) == 1  # the edge stage
        return no_child_left(threads)
    # Both equal the frozen sequential trainer, ties to the first best F1 included.
    assert outcome(config, train_joint_reference) == alone
    # Epoch e validates beside epoch e + 1 when its F1 cannot stop training:
    # e < max_epochs, and e minus the best of epochs 1 to e - 1 is under patience.
    f1s = [record[-1] for record in alone[1]]
    best = [0] + [1 + f1s.index(max(f1s[:e])) for e in range(1, len(f1s))]
    assert len(forks) == sum(e < config.max_epochs and e - best[e - 1] < config.patience
                             for e in range(1, len(f1s) + 1))
    assert (len(f1s) < config.max_epochs) is run.startswith(("joint-early", "joint-patience"))
    no_child_left(threads)


class PoisonedParser(JointParser):
    """Its weights turn NaN when the first document of epoch ``POISON`` is
    trained, so that epoch's first gradient is the first non-finite one."""
    POISON = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.losses = 0

    def loss(self, *args, **kwargs):
        if self.losses == (self.POISON - 1) * len(TRAIN):
            self.scorer.w[2].data[0, 0] = np.nan
        self.losses += 1
        return super().loss(*args, **kwargs)


@pytest.mark.parametrize("second_core", [False, True])
def test_a_non_finite_gradient_names_the_epoch_in_training(second_core, monkeypatch, forks):
    monkeypatch.setattr(cores, "SECOND_CORE", second_core)
    monkeypatch.setattr(train_module, "JointParser", PoisonedParser)
    config = TrainConfig("joint", d=8, l=4, lr=0.01, max_epochs=5, patience=5, seed=0)
    rng = np.random.default_rng(config.seed)
    first = [TRAIN[rng.permutation(len(TRAIN))[0]] for _ in range(PoisonedParser.POISON)][-1]
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"^JointParser: epoch 3: non-finite loss or "
                                                 f"gradient, document '{first.id}'$"):
        train_model(config, TRAIN, DEV, None)
    # Epochs 1 and 2 validated in children, the second one beside epoch 3.
    assert len(forks) == (2 if second_core else 0)
    no_child_left(threads)


@pytest.mark.parametrize("second_core", [False, True])
def test_a_crf_error_comes_before_an_edge_stage_error(second_core, monkeypatch):
    monkeypatch.setattr(cores, "SECOND_CORE", second_core)

    def fails(message):
        def trainer(*args, **kwargs):
            raise ValueError(message)
        return trainer

    config = TrainConfig("pipeline-crf+mtt", lr=0.05, max_epochs=1)
    threads = threading.active_count()
    monkeypatch.setattr(train_module, "train_mtt", fails("the edge stage fails"))
    with pytest.raises(ValueError, match="^the edge stage fails$"):
        train_model(config, TRAIN, DEV, None)
    no_child_left(threads)
    monkeypatch.setattr(train_module, "train_crf", fails("the CRF fails"))
    with pytest.raises(ValueError, match="^the CRF fails$"):
        train_model(config, TRAIN, DEV, None)
    no_child_left(threads)


@pytest.mark.parametrize("second_core", [False, True])
def test_a_validation_error_comes_before_the_next_epochs_training_error(second_core,
                                                                       monkeypatch):
    monkeypatch.setattr(cores, "SECOND_CORE", second_core)
    monkeypatch.setattr(PoisonedParser, "POISON", 2)
    monkeypatch.setattr(train_module, "JointParser", PoisonedParser)

    def fails(self, docs):
        raise ValueError("validation fails")

    monkeypatch.setattr(JointRunner, "evaluate", fails)
    config = TrainConfig("joint", d=8, l=4, lr=0.01, max_epochs=3, patience=3, seed=0)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^validation fails$"):
        train_model(config, TRAIN, DEV, None)
    no_child_left(threads)


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # a lambda does not pickle


class Unrebuildable(Exception):
    def __init__(self, what, why):
        # Pickles as Unrebuildable(message), which fails to unpickle.
        super().__init__(f"{what} failed: {why}")


def raise_(exc):
    raise exc


@pytest.mark.parametrize("second_core", [False, True])
def test_in_child_returns_the_value_or_raises_the_error(second_core, monkeypatch, forks):
    monkeypatch.setattr(cores, "SECOND_CORE", second_core)
    threads = threading.active_count()
    assert (in_child(os.getpid, "pid")() != os.getpid()) is second_core
    with pytest.raises(KeyError, match="'missing'"):
        in_child(lambda: {}["missing"], "lookup")()
    with pytest.raises(RuntimeError, match=r"^stage A: Unpicklable\('a message'\)$"):
        in_child(lambda: raise_(Unpicklable("a message")), "stage A")()
    with pytest.raises(RuntimeError, match=r"^stage B: Unrebuildable\('x failed: y'\)$"):
        in_child(lambda: raise_(Unrebuildable("x", "y")), "stage B")()
    # A value that does not pickle raises its pickling error.
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        in_child(lambda: (lambda: None), "stage C")()
    assert len(forks) == (5 if second_core else 0)
    no_child_left(threads)


@pytest.mark.parametrize("end", [lambda: os._exit(3),
                                 lambda: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["exit", "sigkill"])
def test_a_child_that_ends_without_a_result_names_its_stage(end, monkeypatch):
    monkeypatch.setattr(cores, "SECOND_CORE", True)
    threads = threading.active_count()
    handle = in_child(end, "the doomed stage")
    with pytest.raises(RuntimeError, match="^the doomed stage: the child ended without a result"):
        handle()
    no_child_left(threads)


def test_an_interrupt_kills_the_child_it_waits_for(monkeypatch, forks):
    monkeypatch.setattr(cores, "SECOND_CORE", True)
    threads = threading.active_count()
    handle = in_child(lambda: signal.pause(), "the hung stage")
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)  # the bound's handler raises TimeoutError
        with pytest.raises(TimeoutError):
            handle()
        no_child_left(threads)
    finally:
        for pid in forks:  # should the handle have left it, the child is ended here
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def test_no_fork_beside_another_thread(monkeypatch, forks):
    """A lock held by another thread at the fork would stay held in the child."""
    monkeypatch.setattr(cores, "SECOND_CORE", True)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert in_child(os.getpid, "pid")() == os.getpid()
    finally:
        done.set()
        other.join()
    assert forks == []
