"""Untaped ``nn.pair_mlp`` scores half of its heads on a second thread for long
documents: the same bytes as one thread, joined and fork-safe."""

import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from proptree.embeddings import EmbeddingTable
from proptree.joint import JointParser
from proptree.nn import Tensor, autodiff
from proptree.nn.autodiff import SPLIT_ROWS, second_core_allowed
from proptree.train import JointRunner, TrainConfig

from helpers import pair_mlp_reference

SRC = Path(__file__).resolve().parents[1] / "src"
VOCAB = [f"w{i}" for i in range(60)]
# Both sides of the threshold, and lengths that are not multiples of PAIR_BLOCK.
LENGTHS = sorted({SPLIT_ROWS - 1, SPLIT_ROWS, 47, 95, 211})


def tokens_of(n, seed=0):
    return [VOCAB[i] for i in np.random.default_rng(seed).integers(0, len(VOCAB), n)]


def runner_for(attention=None):
    """An untrained joint runner: no attention (scorer width 2d) or additive
    attention (width 4d, and its own one-head ``pair_mlp``)."""
    table = EmbeddingTable.random(VOCAB, 8, seed=0)
    return JointRunner(JointParser(table, TrainConfig(d=8, l=6, seed=3, attention=attention)))


@pytest.fixture
def splits(monkeypatch):
    """Forces the gate open and counts the calls that took the second thread."""
    calls = []
    beside = autodiff._beside

    def counted(*args):
        calls.append(args)
        return beside(*args)

    monkeypatch.setattr(autodiff, "SECOND_CORE", True)
    monkeypatch.setattr(autodiff, "_beside", counted)
    return calls


def outputs(runner, tokens):
    p = runner.model.distribution(tokens).p
    assignment, was_tree = runner.predict_doc(tokens)
    return p.tobytes(), (assignment.heads, assignment.labels, was_tree)


@pytest.mark.parametrize("attention", [None, "additive"])
def test_split_distribution_and_prediction_are_byte_identical(monkeypatch, splits, attention):
    runner = runner_for(attention)
    for n in LENGTHS:
        tokens = tokens_of(n, seed=n)
        del splits[:]
        split = outputs(runner, tokens)
        # One split per ``distribution`` call (the scorer's four heads); the
        # additive attention's one head never splits.
        assert len(splits) == (2 if n >= SPLIT_ROWS else 0), n
        monkeypatch.setattr(autodiff, "SECOND_CORE", False)
        assert outputs(runner, tokens) == split, n
        monkeypatch.setattr(autodiff, "SECOND_CORE", True)


def test_split_pair_mlp_is_the_frozen_per_head_route(splits):
    rng = np.random.default_rng(5)
    m, l, n = 7, 5, SPLIT_ROWS + 3
    states = Tensor(rng.normal(size=(n + 1, m)))
    heads = [tuple(Tensor(rng.normal(size=shape)) for shape in [(l, m), (l, m), (l,), (l,)])
             for _ in range(4)]
    p = np.full((n + 1, n + 1, 4), np.nan)
    autodiff.pair_mlp(Tensor(states.data[1:]), states, heads, p[1:])
    ref = pair_mlp_reference(states.data[1:], states.data,
                             [tuple(t.data for t in head) for head in heads], np.zeros(p[1:].shape))[0]
    assert len(splits) == 1
    assert p[1:].tobytes() == ref.tobytes()
    assert np.isnan(p[0]).all()


def test_the_worker_runs_under_the_callers_numpy_error_state(monkeypatch, splits):
    """``np.errstate`` does not reach a new thread: the worker takes the
    caller's state, so overflow stays quiet on both halves, as in ``fit``."""
    rng = np.random.default_rng(11)
    m, l, n = 6, 5, SPLIT_ROWS + 4
    states = Tensor(rng.normal(size=(n + 1, m)) * 1e200)
    heads = [tuple(Tensor(rng.normal(size=shape) * 1e200) for shape in [(l, m), (l, m), (l,), (l,)])
             for _ in range(4)]
    outs = []
    for split in (True, False):
        monkeypatch.setattr(autodiff, "SECOND_CORE", split)
        out = np.zeros((n, n + 1, 4))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            autodiff.pair_mlp(Tensor(states.data[1:]), states, heads, out)
        outs.append(out)
    assert len(splits) == 1
    assert np.isnan(outs[0]).any() and outs[0].tobytes() == outs[1].tobytes()


def test_the_worker_is_joined_after_every_call(splits):
    runner = runner_for()
    before = threading.active_count()
    runner.model.distribution(tokens_of(95))
    assert len(splits) == 1 and threading.active_count() == before


@pytest.mark.parametrize("failing_thread", ["worker", "caller"])
def test_an_exception_in_either_half_is_raised_by_distribution(monkeypatch, splits, failing_thread):
    """The worker's exception reaches the caller as the same object; when the
    caller's half raises, the worker is still joined first."""
    boom = RuntimeError(f"{failing_thread} half failed")
    pair_scores = autodiff.pair_scores

    def failing(*args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing_thread == "worker"):
            raise boom
        return pair_scores(*args)

    monkeypatch.setattr(autodiff, "pair_scores", failing)
    runner = runner_for()
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        runner.model.distribution(tokens_of(211))
    assert info.value is boom
    assert len(splits) == 1 and threading.active_count() == before


def test_a_forked_child_predicts_after_the_parent_split(splits):
    """A thread per call leaves no pool behind: a child forked after the
    parent took the split path predicts with it too, and finishes."""
    runner, tokens = runner_for(), tokens_of(95)
    want = outputs(runner, tokens)
    assert splits
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        del splits[:]
        send.send((outputs(runner, tokens), len(splits)))

    process = ctx.Process(target=child)
    process.start()
    try:
        assert receive.poll(60), "the forked child did not finish predicting within 60 s"
        assert receive.recv() == (want, 2)
    finally:
        process.join(10)
        if process.is_alive():
            process.kill()
            process.join()
    assert process.exitcode == 0


@pytest.mark.parametrize("cpus, environ, allowed", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (8, {"OMP_NUM_THREADS": "1"}, True),
    (2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),  # 0 reads as unset
    (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    (2, {}, False),  # unset: BLAS takes every core
    (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
    (2, {"OMP_NUM_THREADS": "4"}, False),
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    (2, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
])
def test_the_gate_reads_blas_variables_in_openblas_order(cpus, environ, allowed):
    assert second_core_allowed(cpus, environ) is allowed


@pytest.mark.parametrize("blas_threads, one_cpu", [("1", False), ("2", False), (None, False),
                                                   ("1", True)])
def test_the_gate_is_read_at_import(blas_threads, one_cpu):
    """A fresh process sets SECOND_CORE from its own CPUs and variables."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    pin = "os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); " if one_cpu else ""
    code = f"import os; {pin}from proptree.nn import autodiff; print(autodiff.SECOND_CORE)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    cpus = 1 if one_cpu else len(os.sched_getaffinity(0))
    assert out.strip() == str(blas_threads == "1" and cpus >= 2)
