"""Training loop, checkpoints, CLI."""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proptree import cli, cores, nn, pipeline
from proptree import train as train_module
from proptree.attention import VARIANTS, scorer_input_width
from proptree.corpus import read_corpus, write_corpus
from proptree.data import (EQUIVALENT, PART_OF, ROOT_ID, SEGMENT, SKIP, Document, Entity,
                           Mention, decode_heads_to_tree)
from proptree.embeddings import (
    EmbeddingTable,
    load_embeddings,
    load_word2vec_binary,
    load_word2vec_text,
)
from proptree.joint import JointParser
from proptree.metrics import Counts, MetricsReport
from proptree.mst import is_tree
from proptree.nn import load_checkpoint, save_checkpoint
from proptree.nn.optim import fit
from proptree.pipeline import crf as crf_module
from proptree.pipeline import edge_models
from proptree.synthetic import SyntheticConfig, generate_corpus, vocabulary
from proptree.train import (
    JointRunner,
    TrainConfig,
    TrainLog,
    load_runner,
    parse_option,
    predict_records,
    train_joint,
    train_model,
    train_pipeline,
)
from helpers import adam_step_reference, crf_fit_reference, train_joint_reference


def small_corpus(n=12, seed=4, **kw):
    return generate_corpus(SyntheticConfig(n_docs=n, seed=seed, **kw))


def tiny_config(**kw):
    """A small config; a pipeline gets only the options it reads."""
    base = dict(model="joint", lr=0.01, max_epochs=2, seed=0)
    if kw.get("model", "joint").startswith("joint"):
        base.update(d=8, l=4, dropout=0.0, patience=5)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    cfg = TrainConfig(model="joint-2layer")
    assert cfg.layers == 2 and cfg.resolved_dropout == 0.3
    assert TrainConfig(model="joint").resolved_dropout == 0.5
    assert TrainConfig(dropout=0.1).resolved_dropout == 0.1
    with pytest.raises(ValueError):
        TrainConfig(model="transformer")
    with pytest.raises(ValueError):
        TrainConfig(d=4, l=8)  # needs l < 2d
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    for dropout in (1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            TrainConfig(dropout=dropout)
    assert TrainConfig(dropout=0.0).resolved_dropout == 0.0
    for steps, attention in ((0, None), (5, None), (2, "tensor"), (0, "edge")):
        with pytest.raises(ValueError):
            TrainConfig(steps=steps, attention=attention)
    assert TrainConfig(attention="edge", steps=3).steps == 3


def builds(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


def test_every_valid_config_builds_a_joint_parser_of_its_width():
    """One rule for the scoring width, TrainConfig's: l must be smaller than
    the scorer's input width, 2d without attention or with edge attention and
    4d with the other variants.  Every config it accepts builds a parser whose
    scorer reads exactly that width."""
    accepted = set()
    for d in (2, 3):
        table = EmbeddingTable.random(["villa", "tuin"], d, seed=0)
        for l in range(1, 14):
            for attention in (None, *VARIANTS):
                if not builds(lambda: TrainConfig(d=d, l=l, attention=attention)):
                    continue
                width = scorer_input_width(d, attention)
                parser = JointParser(table, TrainConfig(d=d, l=l, attention=attention))
                assert parser.scorer.u[0].shape == (l, width) and width > l, (d, l, attention)
                accepted.add((d, l, attention))
    assert (2, 5, "additive") in accepted and (2, 4, None) not in accepted
    assert (3, 5, "edge") in accepted and (3, 6, "edge") not in accepted


@pytest.mark.parametrize("model, dropout, expected", [
    ("joint", None, 0.5), ("joint-2layer", None, 0.3), ("joint-2layer", 0.1, 0.1)])
def test_joint_parser_takes_layers_and_dropout_from_the_config(model, dropout, expected):
    table = EmbeddingTable.random(["huis"], 4, seed=0)
    parser = JointParser(table, TrainConfig(model=model, d=4, l=3, dropout=dropout))
    assert parser.encoder.dropout == expected
    assert len(parser.encoder.layers) == TrainConfig(model=model).layers


def overridden(config, raw):
    """A copy of ``config`` with the text values ``raw`` parsed in, as the
    ``train`` command applies a ``--config`` file."""
    return replace(config, **{key: parse_option(key, text) for key, text in raw.items()})


def test_config_overrides():
    cfg = TrainConfig()
    over = overridden(cfg, {"model": "pipeline-crf+mtt", "lr": "0.05",
                            "max_epochs": "7", "attention": "none"})
    assert over.model == "pipeline-crf+mtt"
    assert over.lr == 0.05 and over.max_epochs == 7
    assert over.attention is None
    assert cfg.max_epochs == 150  # original untouched
    with pytest.raises(ValueError, match="unknown config key 'banana'"):
        parse_option("banana", "1")


@pytest.mark.parametrize("kind", ["pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_pipeline_models_reject_joint_only_options(tmp_path, capsys, kind):
    docs = small_corpus(n=3)
    table = EmbeddingTable.random(vocabulary(docs), 8, seed=0)
    with pytest.raises(ValueError, match=f"{re.escape(kind)} takes no embedding table"):
        train_model(tiny_config(model=kind, max_epochs=1), docs, [], table)

    # A pipeline reads only model, lr, max_epochs and seed: any other option
    # set away from its default raises, in the constructor or as an override.
    reads_only = f"{kind} reads only model, lr, max_epochs, seed"
    for key, value in (("attention", "tensor"), ("steps", 2), ("d", 64), ("l", 4), ("p", 4),
                       ("dropout", 0.0), ("patience", 3)):
        message = re.escape(f"{key}={value!r}: {reads_only}")
        with pytest.raises(ValueError, match=message):
            TrainConfig(model=kind, **{key: value})
        with pytest.raises(ValueError, match=message):
            overridden(TrainConfig(), {"model": kind, key: str(value)})
        with pytest.raises(ValueError, match=message):
            overridden(TrainConfig(model=kind), {key: str(value)})
    with pytest.raises(ValueError, match=re.escape(f"attention='additive': {reads_only}")):
        overridden(TrainConfig(attention="additive"), {"model": kind})
    with pytest.raises(ValueError, match=re.escape(f"d=64: {reads_only}")):
        TrainConfig(model=kind, d=64, dropout=0.0)
    # Options at their defaults are accepted.
    defaults = TrainConfig(model=kind, attention=None, steps=1, d=128, l=32, p=32,
                           dropout=None, patience=10)
    assert overridden(defaults, {"lr": "0.5", "max_epochs": "2", "seed": "3"}) == TrainConfig(
        model=kind, lr=0.5, max_epochs=2, seed=3)

    corpus, vectors = tmp_path / "c.jsonl", tmp_path / "vecs.txt"
    cfg = tmp_path / "cfg.txt"
    write_corpus(corpus, docs)
    vectors.write_text("1 2\nhuis 0.5 0.5\n")
    cfg.write_text("patience = 2\n")
    train = ["train", "--train", corpus, "--model", kind, "--max-epochs", "1"]
    for extra, message in ((["--embeddings", vectors], "takes no embedding table"),
                           (["--attention", "tensor"], f"attention='tensor': {reads_only}"),
                           (["--steps", "2"], f"steps=2: {reads_only}"),
                           (["--d", "64"], f"d=64: {reads_only}"),
                           (["--l", "4"], f"l=4: {reads_only}"),
                           (["--dropout", "0"], f"dropout=0.0: {reads_only}"),
                           (["--patience", "2"], f"patience=2: {reads_only}"),
                           (["--config", cfg], f"patience=2: {reads_only}")):
        assert run_cli([*train, *extra, "--out", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and message in err
    assert not (tmp_path / "run").exists()
    assert run_cli([*train, "--lr", "0.05", "--seed", "2", "--d", "128", "--patience", "10",
                    "--out", tmp_path / "run"]) == 0
    assert (tmp_path / "run" / "checkpoint.zip").exists()
    capsys.readouterr()


@pytest.mark.parametrize("key, value, reader", [("p", 4, "biaffine"), ("steps", 2, "edge")])
def test_joint_models_reject_options_their_attention_does_not_read(tmp_path, capsys,
                                                                   key, value, reader):
    message = f"{key}={value}: only {reader} attention reads {key}"
    for model, attention in (("joint", None), ("joint", "additive"), ("joint-2layer", "tensor"),
                             ("joint", "edge" if reader == "biaffine" else "biaffine")):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(model=model, attention=attention, **{key: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            overridden(TrainConfig(model=model), {"attention": attention or "none",
                                                  key: str(value)})
        # Left at its default, the option is accepted.
        assert TrainConfig(model=model, attention=attention, p=32, steps=1).attention == attention
    assert getattr(TrainConfig(attention=reader, **{key: value}), key) == value

    corpus, cfg = tmp_path / "c.jsonl", tmp_path / "cfg.txt"
    write_corpus(corpus, small_corpus(n=3))
    cfg.write_text(f"{key} = {value}\n")
    train = ["train", "--train", corpus, "--max-epochs", "1", "--d", "8", "--l", "4",
             "--config", cfg]
    assert run_cli([*train, "--attention", "tensor", "--out", tmp_path / "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and message in err
    assert not (tmp_path / "run").exists()
    assert run_cli([*train, "--attention", reader, "--out", tmp_path / "run"]) == 0
    assert (tmp_path / "run" / "checkpoint.zip").exists()
    capsys.readouterr()


def test_the_option_rule_reads_trainconfigs_own_defaults():
    """An option that nothing reads must keep the default that its
    ``TrainConfig`` field declares, with no second copy of p's and steps'."""

    @dataclass
    class Narrow(TrainConfig):
        steps: int = 3
        p: int = 16

    assert (Narrow().p, Narrow().steps) == (16, 3)
    assert Narrow(model="pipeline-crf+ltm").p == 16
    with pytest.raises(ValueError, match=re.escape("p=32: only biaffine attention reads p")):
        Narrow(p=32)
    with pytest.raises(ValueError, match=re.escape("steps=1: only edge attention reads steps")):
        Narrow(attention="biaffine", steps=1)
    assert Narrow(attention="biaffine", p=32).p == 32
    assert Narrow(attention="edge", steps=1).steps == 1


def test_unknown_attention_variant_is_rejected_at_construction(tmp_path, capsys):
    message = "unknown attention variant 'bogus'"
    with pytest.raises(ValueError, match=message):
        TrainConfig(attention="bogus")
    with pytest.raises(ValueError, match="unknown attention variant 'Tensor'"):
        overridden(TrainConfig(), {"attention": "Tensor"})

    corpus, cfg = tmp_path / "c.jsonl", tmp_path / "cfg.txt"
    write_corpus(corpus, small_corpus(n=3))
    cfg.write_text("attention = bogus\n")
    assert run_cli(["train", "--train", corpus, "--max-epochs", "1", "--config", cfg,
                    "--out", tmp_path / "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and message in err
    assert not (tmp_path / "run").exists()


def test_batch_size_is_not_a_config_key():
    with pytest.raises(ValueError, match="unknown config key 'batch_size'"):
        overridden(TrainConfig(), {"batch_size": "1"})


def test_cli_train_defaults_come_from_config():
    args = cli.build_parser().parse_args(["train", "--train", "t.jsonl", "--out", "o"])
    cfg = TrainConfig()
    for key in ("model", "attention", "steps", "seed", "lr", "max_epochs", "d", "l",
                "dropout", "patience"):
        assert getattr(args, key) == getattr(cfg, key), key
    assert cli.train_config(args) == cfg


def test_cli_generate_defaults_come_from_synthetic_config():
    args = cli.build_parser().parse_args(["generate", "--out", "o"])
    cfg = SyntheticConfig()
    for key in SyntheticConfig.__dataclass_fields__:
        assert getattr(args, key) == getattr(cfg, key), key


@pytest.mark.parametrize("flags", [["--n-docs", "-3"], ["--nonprojective-rate", "7"],
                                   ["--equivalent-rate", "-1"], ["--equivalent-rate", "nan"]],
                         ids=lambda flags: " ".join(flags))
def test_cli_generate_rejects_values_outside_their_range(tmp_path, capsys, flags):
    assert run_cli(["generate", "--out", tmp_path / "c.jsonl", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ValueError: n_docs must be non-negative, and each rate must lie in [0, 1]"]
    assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize("package", [nn, pipeline], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_trainlog_csv():
    log = TrainLog()
    log.add(1, 2.5, fake_f1_report(50.0), 0.1)
    log.add(2, 1.5, fake_f1_report(60.0), 0.1)
    log.best_epoch = 2
    assert log.best_report.overall.f1 == 60.0
    lines = log.to_csv().strip().splitlines()
    assert lines[0] == "epoch,loss,val_f1,seconds"
    assert lines[2].startswith("2,1.500000,60.0000")


def fake_f1_report(f1_target):
    # P = R = f1 by construction: fp == fn
    table = {50.0: (1, 1), 60.0: (3, 2), 59.0: (59, 41), 58.0: (29, 21)}
    tp, off = table[f1_target]
    return MetricsReport(
        per_label={PART_OF: Counts(tp=tp, fp=off, fn=off),
                   SEGMENT: Counts(), EQUIVALENT: Counts()},
        tree_rate=0.0, n_docs=1)


def test_early_stopping_keeps_best_epoch(monkeypatch, tmp_path):
    """With the second core, epochs 1-3 validate in forked children, so each
    validation's weights go to a file under ``tmp_path``, numbered in order."""
    docs = small_corpus(n=4)
    sequence = [50.0, 60.0, 59.0, 58.0, 57.0, 56.0]
    for second_core in (False, True):
        monkeypatch.setattr(cores, "SECOND_CORE", second_core)
        folder = tmp_path / f"second-core-{second_core}"
        folder.mkdir()

        def snapshots():
            files = sorted(folder.glob("*.npz"), key=lambda f: int(f.stem))
            return [[z[f"arr_{i}"] for i in range(len(z.files))] for z in map(np.load, files)]

        def scripted_evaluate(self, _docs):
            arrays = [p.data for p in self.model.params_named().values()]
            np.savez(folder / f"{len(snapshots())}.npz", *arrays)
            return fake_f1_report(sequence[len(snapshots()) - 1])

        monkeypatch.setattr(JointRunner, "evaluate", scripted_evaluate)
        runner, log = train_joint(tiny_config(max_epochs=10, patience=2), docs, [])

        # stops after the second non-improving epoch, keeps the epoch-2 weights
        assert [r.epoch for r in log.records] == [1, 2, 3, 4]
        assert log.best_epoch == 2
        assert log.best_report.overall.f1 == 60.0
        for p, snap in zip(runner.model.params_named().values(), snapshots()[1]):
            assert np.array_equal(p.data, snap)


def test_training_stops_on_non_finite_values(monkeypatch):
    docs = small_corpus(n=4)

    class PoisonedParser(JointParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.scorer.w[2].data[0, 0] = np.nan

    monkeypatch.setattr(train_module, "JointParser", PoisonedParser)
    first = docs[np.random.default_rng(0).permutation(len(docs))[0]]
    with pytest.raises(FloatingPointError, match=f"^JointParser: epoch 1: non-finite loss or "
                                                 f"gradient, document '{first.id}'$"):
        train_joint(tiny_config(), docs, [])


BROKEN_FORESTS = {
    "cycle": Document("cyc", ["a", "b"], [Entity("A", "x", [Mention(1, 2)], "B"),
                                          Entity("B", "x", [Mention(2, 3)], "A")]),
    "self-parent": Document("self", ["a"], [Entity("A", "x", [Mention(1, 2)], "A")]),
    "unknown-parent": Document("unknown", ["a"], [Entity("A", "x", [Mention(1, 2)], "Z")]),
    "duplicate-id": Document("dup", ["a", "b"], [Entity("A", "x", [Mention(1, 2)]),
                                                 Entity("A", "x", [Mention(2, 3)])]),
    # A type that is not a string, beside one that is: the CRF's tag set must
    # not fail to sort them before its trainer applies the rule.
    "type": Document("typ", ["a", "b"], [Entity("A", 3, [Mention(1, 2)]),
                                         Entity("B", "x", [Mention(2, 3)])]),
    # One token named twice by one entity: the CRF's BIO tags would put it in two mentions.
    "repeated-span": Document("rep", ["a", "b"], [Entity("A", "x", [Mention(2, 3),
                                                                    Mention(2, 3)])]),
}


@pytest.mark.parametrize("kind", ["joint", "pipeline-crf+ltm", "pipeline-crf+mtt",
                                  "train_ltm", "train_mtt", "train_crf"])
@pytest.mark.parametrize("fault", sorted(BROKEN_FORESTS))
def test_training_rejects_a_broken_forest_with_the_corpus_readers_message(tmp_path, kind, fault):
    """Every trainer applies the gold-forest rule that the corpus reader applies,
    through ``encode_tree_to_heads``, and names the document as the reader does;
    so does each pipeline stage's trainer when it is called directly."""
    bad, path = BROKEN_FORESTS[fault], tmp_path / "bad.jsonl"
    write_corpus(path, [bad])
    with pytest.raises(ValueError) as read:
        read_corpus(path)
    message = str(read.value).removeprefix(f"{path}:1: ")
    assert message != str(read.value) and repr(bad.id) in message
    docs = small_corpus(n=4) + [bad]
    with pytest.raises(ValueError) as trained:
        if kind == "joint":
            train_joint(tiny_config(max_epochs=1), docs, [])
        elif kind.startswith("pipeline"):
            train_pipeline(tiny_config(model=kind, max_epochs=1), docs)
        elif kind == "train_crf":
            crf_module.train_crf(docs, lam=10.0, epochs=1, lr=0.05, seed=0)
        else:
            getattr(edge_models, kind)(docs, epochs=1, lr=0.05, seed=0)
    assert str(trained.value) == message


@pytest.mark.parametrize("kind", ["joint", "pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_one_loop_trains_as_the_two_earlier_loops(monkeypatch, kind):
    """``nn.optim.fit`` trains every model byte for byte as the frozen copies
    of the joint's own epoch loop and of the pipelines' ``crf.fit`` did."""
    docs = small_corpus(n=8)
    if kind == "joint":
        config = tiny_config(max_epochs=8, patience=1)
        new, new_log = train_joint(config, docs, [])
        old, old_log = train_joint_reference(config, docs, [])
        assert len(new_log.records) < config.max_epochs  # early stopping was hit
    else:
        config = tiny_config(model=kind, lr=0.05, max_epochs=3)
        new, new_log = train_pipeline(config, docs)

        def earlier_fit(opt, cases, step, epochs, seed, stage, lam, end_epoch):
            assert end_epoch is None
            crf_fit_reference(opt.params, stage, cases, step, lam, epochs, opt.lr, seed)

        monkeypatch.setattr(crf_module, "fit", earlier_fit)
        monkeypatch.setattr(edge_models, "fit", earlier_fit)
        old, old_log = train_pipeline(config, docs)
    for name, p in new.params_named().items():
        assert p.data.tobytes() == old.params_named()[name].data.tobytes(), name
    assert [float(r.loss).hex() for r in new_log.records] == \
        [float(r.loss).hex() for r in old_log.records]
    assert new_log.best_epoch == old_log.best_epoch


def test_fit_on_a_toy_quadratic():
    """The loss (w - target)^2 / 2: with ``lam`` 0 the step's gradient is the
    whole gradient, the callback stops training, and a NaN weight fails the
    epoch with the stage's name."""
    w = nn.Tensor(np.array([3.0, -2.0]), requires_grad=True)
    opt = nn.Adam([w], lr=0.1)
    target = np.array([1.0, 1.0])
    seen, ends = [], []

    def step(scale):
        w.grad += scale * (w.data - target)
        seen.append((w.grad.copy(), scale * (w.data - target)))
        return 0.5 * scale * float(((w.data - target) ** 2).sum())

    def end_epoch(epoch, loss):
        ends.append((epoch, loss))
        return epoch == 2

    fit(opt, [(1.0,), (2.0,)], step, 5, 0, "toy", 0.0, end_epoch)
    assert len(seen) == 4 and [e for e, _ in ends] == [1, 2]
    for got, wrote in seen:
        assert got.tobytes() == wrote.tobytes()
    assert ends[0][1] > ends[1][1] > 0.0

    def poison(scale):
        w.data[0] = np.nan
        return 0.0

    with pytest.raises(FloatingPointError, match="^toy: non-finite parameters after epoch 1$"):
        fit(opt, [(1.0,)], poison, 3, 0, "toy", 0.0, None)

    def refuse(scale):
        raise ValueError("no arborescence")

    with pytest.raises(ValueError, match="^toy: epoch 1: no arborescence$") as info:
        fit(opt, [(1.0,)], refuse, 3, 0, "toy", 1.0, None)
    assert str(info.value.__cause__) == "no arborescence"


@pytest.mark.parametrize("error, kind", [(ValueError, ValueError),
                                         (FloatingPointError, FloatingPointError),
                                         (np.linalg.LinAlgError, ValueError)])
def test_fit_names_the_stage_and_epoch_of_a_step_error(error, kind):
    """``fit`` owns a step error's epoch: it raises the error's type again, a
    ValueError subclass as ValueError, prefixed with the stage and the epoch,
    and chains the original."""
    w = nn.Tensor(np.array([1.0]), requires_grad=True)
    opt, steps = nn.Adam([w], lr=0.1), []

    def step(case):
        steps.append(case)
        if len(steps) == 5:  # the first case of epoch 3
            raise error("went wrong")
        return 0.0

    with pytest.raises(kind) as info:
        fit(opt, [(1,), (2,)], step, 4, 0, "toy", 0.0, None)
    assert type(info.value) is kind and str(info.value) == "toy: epoch 3: went wrong"
    assert type(info.value.__cause__) is error and str(info.value.__cause__) == "went wrong"


@pytest.mark.parametrize("block", [7, nn.optim.ADAM_BLOCK])
def test_blocked_adam_trains_as_the_whole_array_step(monkeypatch, block):
    """Tensor attention's wide ``w_t`` spans many blocks of 7 scalars; the
    blocked step must train exactly as the frozen whole-array step does."""
    docs = small_corpus(n=6)
    config = tiny_config(attention="tensor", max_epochs=3, patience=3)
    monkeypatch.setattr(nn.optim, "ADAM_BLOCK", block)
    blocked, blocked_log = train_joint(config, docs, [])
    monkeypatch.setattr(nn.Adam, "step", adam_step_reference)
    whole, whole_log = train_joint(config, docs, [])
    assert [r.loss for r in blocked_log.records] == [r.loss for r in whole_log.records]
    for name, p in blocked.params_named().items():
        assert p.data.tobytes() == whole.params_named()[name].data.tobytes(), name


@pytest.mark.parametrize("block", [7, nn.optim.ADAM_BLOCK])
@pytest.mark.parametrize("kind", ["pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_blocked_adam_trains_pipelines_as_the_whole_array_step(monkeypatch, kind, block):
    """Each pipeline stage steps one flat store, whose blocks of 7 scalars
    straddle the CRF's two weight arrays; both stages must train exactly as
    the frozen whole-array step does, per parameter."""
    docs = small_corpus(n=6)
    config = tiny_config(model=kind, max_epochs=3, lr=0.05)
    monkeypatch.setattr(nn.optim, "ADAM_BLOCK", block)
    blocked, _ = train_pipeline(config, docs)
    monkeypatch.setattr(nn.Adam, "step", adam_step_reference)
    whole, _ = train_pipeline(config, docs)
    named = blocked.params_named()
    assert set(named) == {"crf.w_emit", "crf.w_trans", f"{kind[-3:]}.w"}
    for name, p in named.items():
        assert p.data.tobytes() == whole.params_named()[name].data.tobytes(), name


def test_restore_writes_through_to_the_optimizer_store():
    """Parameters are views into ``opt.data``, so ``_restore`` must write in place."""
    table = EmbeddingTable.random(["a", "b"], 4, seed=0)
    runner = JointRunner(JointParser(table, TrainConfig(d=4, l=3, dropout=0.0, seed=1)))
    opt = nn.Adam(runner.params_named().values(), lr=1e-3)
    other = JointParser(table, TrainConfig(d=4, l=3, dropout=0.0, seed=2)).params_named()
    train_module._restore(runner, {name: p.data.copy() for name, p in other.items()})
    assert opt.data.tobytes() == np.concatenate([p.data.ravel() for p in other.values()]).tobytes()


def test_training_is_deterministic():
    docs = small_corpus()
    a_runner, a_log = train_joint(tiny_config(), docs, [])
    b_runner, b_log = train_joint(tiny_config(), docs, [])
    for pa, pb in zip(a_runner.model.params_named().values(),
                      b_runner.model.params_named().values()):
        assert np.array_equal(pa.data, pb.data)
    assert [(r.epoch, r.loss, r.report.overall.f1) for r in a_log.records] == \
           [(r.epoch, r.loss, r.report.overall.f1) for r in b_log.records]

    c_runner, _ = train_joint(tiny_config(seed=1), docs, [])
    assert not all(np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a_runner.model.params_named().values(),
                                     c_runner.model.params_named().values()))


def test_joint_checkpoint_roundtrip(tmp_path):
    docs = small_corpus()
    runner, _ = train_joint(tiny_config(attention="additive"), docs, [])
    path = tmp_path / "ck.zip"
    runner.save(path)
    loaded = load_runner(path)
    assert loaded.kind == "joint"
    named, named2 = runner.model.params_named(), loaded.model.params_named()
    assert set(named) == set(named2)
    for name in named:
        assert np.array_equal(named[name].data, named2[name].data), name
    assert np.array_equal(runner.model.encoder.table.matrix, loaded.model.encoder.table.matrix)
    for doc in docs[:3]:
        a, at = runner.predict_doc(doc.tokens)
        b, bt = loaded.predict_doc(doc.tokens)
        assert a == b and at == bt


def test_joint_checkpoint_of_trained_views_reloads_byte_equal(tmp_path):
    """Trained parameters are views into the optimizer's flat store; a
    checkpoint saves their values, and reloading gives the same bytes."""
    runner, _ = train_joint(tiny_config(attention="tensor"), small_corpus(n=4), [])
    path = tmp_path / "ck.zip"
    runner.save(path)
    named, loaded = runner.params_named(), load_runner(path).params_named()
    assert list(named) == list(loaded)
    for name, p in named.items():
        assert p.data.base is not None, name
        assert p.data.tobytes() == loaded[name].data.tobytes(), name


@pytest.mark.parametrize("kind", ["pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_pipeline_checkpoint_roundtrip(tmp_path, kind):
    docs = small_corpus(n=15)
    runner, log = train_pipeline(tiny_config(model=kind, max_epochs=8, lr=0.05), docs)
    assert log.records[-1].report.overall.f1 >= 0.0
    path = tmp_path / "ck.zip"
    runner.save(path)
    loaded = load_runner(path)
    assert loaded.kind == kind
    named, named2 = runner.params_named(), loaded.params_named()
    assert set(named) == set(named2)
    for name in named:
        assert np.array_equal(named[name].data, named2[name].data), name
    for doc in docs[:3]:
        assert runner.predict_doc(doc.tokens, doc.id) == loaded.predict_doc(doc.tokens, doc.id)


@pytest.mark.parametrize("constant_p", [None, 1.0])
def test_ltm_checkpoint_with_a_constant_p_field_loads(tmp_path, constant_p):
    """Older pipeline-crf+ltm manifests carry ``constant_p``: null for a
    trained LTM, or 1.0 with untrained zero weights when every training pair
    had one label, which scored every arc equally.  Both load, and predict
    as the saved runner and as those equal scores did."""
    docs = small_corpus(n=15)
    runner, _ = train_pipeline(tiny_config(model="pipeline-crf+ltm", max_epochs=8, lr=0.05), docs)
    if constant_p is not None:
        runner.edge_model.w.data[:] = 0.0
    runner.save(tmp_path / "ck.zip")
    manifest, arrays = load_checkpoint(str(tmp_path / "ck.zip"))
    assert "constant_p" not in manifest
    save_checkpoint(str(tmp_path / "old.zip"), manifest | {"constant_p": constant_p}, arrays)
    loaded = load_runner(tmp_path / "old.zip")
    for doc in docs:
        assignment, was_tree = loaded.predict_doc(doc.tokens, doc.id)
        assert (assignment, was_tree) == runner.predict_doc(doc.tokens, doc.id)
        if constant_p is not None:
            tree = decode_heads_to_tree(assignment, doc.tokens)
            assert was_tree and all(e.parent == ROOT_ID for e in tree.entities)


def force_all_skip(runner):
    """Weights under which every token is predicted skip."""
    if runner.kind == "joint":
        runner.model.scorer.v[SKIP].data[:] = 10.0
        runner.model.scorer.b[SKIP].data[:] = 10.0
    else:
        crf = runner.crf
        crf.w_emit.data[:] = crf.w_trans.data[:] = 0.0
        crf.w_emit.data[crf.feature_index["bias"], crf.tag_index["O"]] = 10.0


@pytest.mark.parametrize("kind", ["joint", "pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_predict_doc_on_edge_documents(kind):
    docs = small_corpus(n=6)
    runner, _ = train_model(tiny_config(model=kind), docs, [])
    # one token, only tokens never seen in training, and a training ad
    for tokens in (["villa"], ["qqq", "zzz", "qqq"], docs[0].tokens):
        assignment, _ = runner.predict_doc(tokens)
        assert assignment.n == len(tokens) and is_tree(assignment)
    force_all_skip(runner)
    for tokens in (["villa"], docs[0].tokens):
        assignment, _ = runner.predict_doc(tokens)
        assert assignment.labels == [SKIP] * len(tokens)
        assert assignment.heads == list(range(1, len(tokens) + 1))
        assert decode_heads_to_tree(assignment, tokens).entities == []


ENCODER_L0 = {f"enc.l0.{d}.{p}" for d in ("fwd", "bwd") for p in ("wx", "wh", "b")}
ENCODER_L1 = {f"enc.l1.{d}.{p}" for d in ("fwd", "bwd") for p in ("wx", "wh", "b")}
SCORER = {f"scorer.{p}{k}" for k in range(4) for p in ("u", "w", "v", "b")}
CHECKPOINT_NAMES = [
    ("joint", None, ENCODER_L0 | SCORER),
    ("joint-2layer", None, ENCODER_L0 | ENCODER_L1 | SCORER),
    ("joint", "additive", ENCODER_L0 | SCORER | {"att.u", "att.w", "att.v", "att.b"}),
    ("joint", "bilinear", ENCODER_L0 | SCORER | {"att.w_bil"}),
    ("joint", "multiplicative", ENCODER_L0 | SCORER),
    ("joint", "biaffine", ENCODER_L0 | SCORER | {
        "att.u_dep", "att.u_head", "att.v_dep", "att.v_head",
        "att.w_bil", "att.b_lin", "att.b_dep", "att.b_head"}),
    ("joint", "tensor", ENCODER_L0 | SCORER | {"att.w_t", "att.v_t", "att.u_t", "att.b_t"}),
    ("joint", "edge", ENCODER_L0 | SCORER | {
        "att.u_e", "att.w_e", "att.b_e", "att.a_src", "att.a_dst"}),
    ("pipeline-crf+ltm", None, {"crf.w_emit", "crf.w_trans", "ltm.w"}),
    ("pipeline-crf+mtt", None, {"crf.w_emit", "crf.w_trans", "mtt.w"}),
]


@pytest.mark.parametrize("kind, attention, names", CHECKPOINT_NAMES,
                         ids=[f"{k}-{a}" for k, a, _ in CHECKPOINT_NAMES])
def test_checkpoint_parameter_names(tmp_path, kind, attention, names):
    runner, _ = train_model(
        tiny_config(model=kind, attention=attention, max_epochs=1), small_corpus(n=3), [])
    assert set(runner.params_named()) == names
    if kind.startswith("joint"):
        assert set(runner.model.params_named()) == names
        names = names | {"emb.matrix"}
    runner.save(tmp_path / "ck.zip")
    _, arrays = load_checkpoint(str(tmp_path / "ck.zip"))
    assert set(arrays) == names


def _drop(arrays, name):
    del arrays[name]


def _add(arrays, name):
    arrays["extra.w"] = arrays[name]


def _shrink(arrays, name):
    arrays[name] = arrays[name][:1]


def _narrow(arrays, name):
    arrays[name] = arrays[name][:, :1]


TAMPERED = [(kind, name, edit)
            for kind, name in (("joint", "scorer.u0"), ("pipeline-crf+ltm", "crf.w_emit"),
                               ("pipeline-crf+mtt", "crf.w_emit"), ("pipeline-crf+mtt", "mtt.w"))
            for edit in (_drop, _add, _shrink)] + [
    ("joint", "emb.matrix", edit) for edit in (_drop, _shrink, _narrow)]


@pytest.mark.parametrize("kind, name, edit", TAMPERED,
                         ids=lambda v: v.__name__.strip("_") if callable(v) else None)
def test_checkpoint_rejects_mismatched_arrays(tmp_path, kind, name, edit):
    runner, _ = train_model(tiny_config(model=kind, max_epochs=1), small_corpus(n=3), [])
    runner.save(tmp_path / "ck.zip")
    manifest, arrays = load_checkpoint(str(tmp_path / "ck.zip"))
    edit(arrays, name)
    save_checkpoint(str(tmp_path / "bad.zip"), manifest, arrays)
    with pytest.raises(ValueError, match=re.escape("extra.w" if edit is _add else name)):
        load_runner(tmp_path / "bad.zip")


def test_checkpoint_version_guard(tmp_path):
    docs = small_corpus(n=4)
    runner, _ = train_joint(tiny_config(max_epochs=1), docs, [])
    path = tmp_path / "ck.zip"
    runner.save(path)

    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        rest = {n: zf.read(n) for n in zf.namelist() if n != "manifest.json"}
    manifest["format_version"] = 99
    tampered = tmp_path / "bad.zip"
    with zipfile.ZipFile(tampered, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for n, blob in rest.items():
            zf.writestr(n, blob)
    with pytest.raises(ValueError, match="format_version"):
        load_runner(tampered)


def zip_members(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


RESAVED = [("joint", None, {}), ("joint", "additive", {}), ("joint", "bilinear", {}),
           ("joint", "multiplicative", {}), ("joint", "biaffine", {"p": 3}),
           ("joint", "tensor", {}), ("joint", "edge", {"steps": 2}),
           ("joint-2layer", None, {"dropout": None}), ("pipeline-crf+ltm", None, {}),
           ("pipeline-crf+mtt", None, {})]


@pytest.mark.parametrize("kind, attention, options", RESAVED,
                         ids=[f"{k}-{a}" for k, a, _ in RESAVED])
def test_a_reloaded_checkpoint_saves_the_same_bytes(tmp_path, kind, attention, options):
    """save -> load_runner -> save writes the same manifest.json and arrays."""
    config = tiny_config(model=kind, attention=attention, max_epochs=1, **options)
    runner, _ = train_model(config, small_corpus(n=3), [])
    runner.save(tmp_path / "a.zip")
    load_runner(tmp_path / "a.zip").save(tmp_path / "b.zip")
    assert zip_members(tmp_path / "a.zip") == zip_members(tmp_path / "b.zip")


def test_a_two_layer_manifest_loads_as_joint_2layer(tmp_path):
    """A manifest written before JointParser took a TrainConfig records the
    two-layer model as ``layers: 2`` with its resolved dropout."""
    table = EmbeddingTable.random(["huis", "tuin"], 4, seed=0)
    params = JointParser(table, TrainConfig(model="joint-2layer", d=4, l=3, seed=5)).params_named()
    config = {"d": 4, "l": 3, "layers": 2, "dropout": 0.3, "attention": None, "steps": 1,
              "p": 32, "seed": 5}
    save_checkpoint(str(tmp_path / "ck.zip"), {"kind": "joint", "config": config,
                                                "vocab": table.vocab},
                    {name: p.data for name, p in params.items()} | {"emb.matrix": table.matrix})
    loaded = load_runner(tmp_path / "ck.zip")
    assert loaded.model.config.model == "joint-2layer"
    assert len(loaded.model.encoder.layers) == 2 and loaded.model.encoder.dropout == 0.3
    for name, p in loaded.params_named().items():
        assert p.data.tobytes() == params[name].data.tobytes(), name


def _rewrite(src, dst, manifest=None, drop=()):
    """A copy of checkpoint ``src`` without the members ``drop``, and with
    ``manifest`` edited by a function when one is given."""
    members = zip_members(src)
    if manifest:
        members["manifest.json"] = json.dumps(manifest(json.loads(members["manifest.json"])))
    with zipfile.ZipFile(dst, "w") as zf:
        for name, blob in members.items():
            if name not in drop:
                zf.writestr(name, blob)


def _set_config(**options):
    return lambda manifest: manifest | {"config": manifest["config"] | options}


MALFORMED = [
    ("truncated", lambda src, dst: dst.write_bytes(src.read_bytes()[:300]),
     "File is not a zip file"),
    ("not-a-zip", lambda src, dst: dst.write_text("villa met tuin\n"), "File is not a zip file"),
    ("missing-member", lambda src, dst: _rewrite(src, dst, drop={"params/scorer.u0.npy"}),
     "There is no item named 'params/scorer.u0.npy' in the archive"),
    ("no-config", lambda src, dst: _rewrite(src, dst, lambda m: {k: v for k, v in m.items()
                                                                  if k != "config"}),
     "the manifest lacks 'config'"),
    ("unknown-config-key", lambda src, dst: _rewrite(src, dst, _set_config(banana=1)),
     "'banana': 1} must have exactly the keys d, l, layers, dropout, attention, steps, p, seed,"
     " and layers 1 or 2"),
    ("three-layers", lambda src, dst: _rewrite(src, dst, _set_config(layers=3)),
     "'layers': 3, 'p': 32, 'seed': 0, 'steps': 1} must have exactly the keys"),
    ("dropout-1.5", lambda src, dst: _rewrite(src, dst, _set_config(dropout=1.5)),
     "dropout=1.5 must lie in [0, 1)"),
]


def test_malformed_inputs_fail_with_one_line_that_names_the_path(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, small_corpus(n=3))
    runner, _ = train_model(tiny_config(d=4, l=3, max_epochs=1), small_corpus(n=3), [])
    good = tmp_path / "good.zip"
    runner.save(good)
    runs = []
    for name, make, problem in MALFORMED:
        bad = tmp_path / f"{name}.zip"
        make(good, bad)
        runs.append((["predict", "--checkpoint", bad, "--data", corpus], f"{bad}: ", problem))
    for name, line, problem in (("d", "d = abc", "d='abc' is not an integer"),
                                ("banana", "banana=1", "unknown config key 'banana'")):
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(f"# a comment\n{line}\n")
        runs.append((["train", "--train", corpus, "--config", cfg, "--out", tmp_path / "run"],
                     f"{cfg}:2: ", problem))
    for argv, where, problem in runs:
        assert run_cli(argv) == 1, problem
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: ValueError: {where}"), err
        assert problem in err, err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """One valid file of each kind that the CLI reads: a corpus, word2vec
    text and binary vectors of width 4, the checkpoint of a d 4 model and a
    ``--config`` file."""
    root = tmp_path_factory.mktemp("readers")
    docs = small_corpus(n=3)
    write_corpus(root / "corpus.jsonl", docs)
    words = vocabulary(docs)[:3]
    vectors = np.random.default_rng(0).uniform(-1, 1, (len(words), 4))
    (root / "vecs.txt").write_text(f"{len(words)} 4\n" + "".join(
        f"{w} {' '.join(map(str, row))}\n" for w, row in zip(words, vectors)))
    (root / "vecs.bin").write_bytes(f"{len(words)} 4\n".encode() + b"".join(
        w.encode() + b" " + struct.pack("<4f", *row) for w, row in zip(words, vectors)))
    runner, _ = train_model(tiny_config(d=4, l=3, max_epochs=1), docs, [])
    runner.save(root / "ck.zip")
    # No lr: a valid but large learning rate can make training diverge, which
    # is not an error in the file.
    (root / "cfg.txt").write_text("# options\nmax_epochs = 1\nseed = 3\n")
    return {"corpus": root / "corpus.jsonl", "text": root / "vecs.txt",
            "bin": root / "vecs.bin", "checkpoint": root / "ck.zip", "config": root / "cfg.txt"}


def reader_argv(kind, bad, files, work):
    """The command that reads ``bad`` as a file of ``kind``."""
    train = ["train", "--train", files["corpus"], "--d", "4", "--l", "3", "--max-epochs", "1",
             "--out", work / "run"]
    return {"corpus": ["convert", bad, work / "out.jsonl"],
            "text": [*train, "--embeddings", bad],
            "bin": [*train, "--embeddings", bad],
            "checkpoint": ["predict", "--checkpoint", bad, "--data", files["corpus"],
                           "--out", work / "pred.jsonl"],
            "config": [*train, "--config", bad]}[kind]


def _manifest(edit):
    """Writes a copy of the checkpoint whose parsed manifest ``edit`` rewrote."""
    return lambda files, bad: _rewrite(files["checkpoint"], bad, edit)


def _bytes(content):
    return lambda files, bad: bad.write_bytes(content)


def _entity_line(fields):
    """A one-document corpus whose one entity has ``fields`` besides its id."""
    return _bytes(b'{"id": "a", "tokens": ["b", "c"], "entities": [{"id": "T1", ' + fields
                  + b'}]}\n')


BAD_READS = [
    ("manifest-list", "checkpoint", _manifest(lambda m: []),
     ": manifest.json must be a JSON object whose param_names is a list"),
    ("param-names-int", "checkpoint", _manifest(lambda m: m | {"param_names": 5}),
     ": manifest.json must be a JSON object whose param_names is a list"),
    ("d-str", "checkpoint", _manifest(_set_config(d="4")), ": d='4' is not an integer"),
    ("d-float", "checkpoint", _manifest(_set_config(d=4.0)), ": d=4.0 is not an integer"),
    ("d-bool", "checkpoint", _manifest(_set_config(d=True)), ": d=True is not an integer"),
    ("corpus-array", "corpus", _bytes(b"[1, 2]\n"), ":1: expected a JSON object, got list"),
    ("corpus-0xff", "corpus", _bytes(b'{"id": "a", "tokens": ["b"]}\n{"id": "\xff"}\n'),
     ":2: 'utf-8' codec can't decode byte 0xff in position 8"),
    # JSON values of the wrong type are rejected, not converted.
    ("tokens-str", "corpus", _bytes(b'{"id": "a", "tokens": "abc"}\n'),
     ":1: document 'a': tokens must be a list of strings"),
    ("tokens-object", "corpus", _bytes(b'{"id": "a", "tokens": {"x": 1, "y": 2}}\n'),
     ":1: document 'a': tokens must be a list of strings"),
    ("tokens-numbers", "corpus", _bytes(b'{"id": "a", "tokens": [1, 2.5, true]}\n'),
     ":1: document 'a': tokens must be a list of strings"),
    ("start-float", "corpus", _entity_line(b'"mentions": [{"start": 1.9, "end": 3}]'),
     ":1: bad mention span [1.9, 3)"),
    ("start-bool", "corpus", _entity_line(b'"mentions": [{"start": true, "end": 3}]'),
     ":1: bad mention span [True, 3)"),
    ("type-int", "corpus", _entity_line(b'"type": 5, "mentions": [{"start": 1, "end": 3}]'),
     ":1: document 'a': entity 'T1' has type 5, not a string"),
    ("id-int", "corpus", _bytes(b'{"id": 7, "tokens": ["b"]}\n'), ":1: document id 7 is not a string"),
    ("id-null", "corpus", _bytes(b'{"id": null, "tokens": ["b"]}\n'),
     ":1: document id None is not a string"),
    ("entity-id-int", "corpus",
     _bytes(b'{"id": "a", "tokens": ["b", "c"], "entities": [{"id": 3, "mentions": []}]}\n'),
     ":1: document 'a': entity id 3 is not a string"),
    ("parent-null", "corpus", _entity_line(b'"mentions": [{"start": 1, "end": 3}], "parent": null'),
     ":1: document 'a': entity 'T1': parent None is not a string"),
    ("parent-int", "corpus", _entity_line(b'"mentions": [{"start": 1, "end": 3}], "parent": 3'),
     ":1: document 'a': entity 'T1': parent 3 is not a string"),
    ("text-word", "text", _bytes(b"a 0.1 abc\n"), ":1: could not convert string to float: 'abc'"),
    ("text-0xff", "text", _bytes(b"2 2\nhuis 0.1 0.2\n\xff 0.3 0.4\n"),
     ":3: 'utf-8' codec can't decode byte 0xff in position 0"),
    ("text-nan", "text", _bytes(b"huis 0.1 nan\n"), ":1: a value is not finite"),
    # The first fault in file order is named.
    ("text-nan-then-width", "text", _bytes(b"huis 0.1 0.2\ntuin 0.3 inf\nroos 0.5\n"),
     ":2: a value is not finite"),
    ("bin-nan", "bin", _bytes(b"1 2\nhuis " + struct.pack("<2f", 1.0, float("nan"))),
     ": vector 1 of 1 is not finite"),
    ("config-0xff", "config", _bytes(b"max_epochs = 1\n\xff = 2\n"),
     ":2: 'utf-8' codec can't decode byte 0xff in position 0"),
    ("config-lr-0", "config", _bytes(b"lr = 0\n"),
     ": steps, d, l, p, lr, max_epochs, patience must be positive"),
]


@pytest.mark.parametrize("kind, write, problem", [case[1:] for case in BAD_READS],
                         ids=[case[0] for case in BAD_READS])
def test_each_reader_names_the_file_it_cannot_read(tmp_path, capsys, reader_files, kind,
                                                   write, problem):
    bad = tmp_path / reader_files[kind].name
    write(reader_files, bad)
    assert run_cli(reader_argv(kind, bad, reader_files, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: ValueError: {bad}{problem}"), err
    assert not (tmp_path / "run").exists()


@settings(max_examples=12)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["corpus", "text", "bin", "checkpoint", "config"])
def test_a_damaged_file_is_read_or_named(reader_files, kind, data):
    """A file cut short at a drawn offset, or with a drawn byte overwritten,
    is read as it is or fails with one line that names it."""
    content = reader_files[kind].read_bytes()
    offset = data.draw(st.integers(0, len(content) - 1), label="offset")
    byte = data.draw(st.none() | st.integers(0, 255), label="byte")
    damaged = content[:offset] if byte is None else (
        content[:offset] + bytes([byte]) + content[offset + 1:])
    with tempfile.TemporaryDirectory() as work:
        bad = Path(work) / reader_files[kind].name
        bad.write_bytes(damaged)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(reader_argv(kind, bad, reader_files, Path(work)))
    err = stderr.getvalue()
    if code == 0:
        return
    # Vectors of another width than --d are a mismatch between a flag and a
    # file, not a malformed file: that message names no path.
    mismatch = re.fullmatch(r"error: ValueError: embedding width \d+ != hidden width 4\n", err)
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith(f"error: ValueError: {bad}") or kind in ("text", "bin") and mismatch, err


def test_train_model_dispatch():
    docs = small_corpus(n=6)
    joint_runner, _ = train_model(tiny_config(max_epochs=1), docs, [])
    assert joint_runner.kind == "joint"
    pipe_runner, _ = train_model(
        tiny_config(model="pipeline-crf+ltm", max_epochs=2), docs, [])
    assert pipe_runner.kind == "pipeline-crf+ltm"
    with pytest.raises(ValueError):
        train_joint(tiny_config(), [], [])


def test_predict_records_structure():
    docs = small_corpus(n=5)
    runner, _ = train_joint(tiny_config(), docs, [])
    records = predict_records(runner, docs)
    assert len(records) == 5
    for rec, doc in zip(records, docs):
        assert rec["id"] == doc.id
        assert rec["tokens"] == doc.tokens
        assert len(rec["heads"]) == len(doc.tokens)
        assert len(rec["labels"]) == len(doc.tokens)
        assert isinstance(rec["greedy_tree"], bool)
        assert "entities" in rec


def test_embedding_table_basics():
    table = EmbeddingTable.random(["a", "b"], 4, seed=0)
    assert table.vocab[-1] == "<unk>"
    assert table.matrix.shape == (3, 4)
    assert np.array_equal(table.lookup(["zzz"])[0], table.lookup(["<unk>"])[0])
    looked = table.lookup(["b", "a", "zzz"])
    assert looked.shape == (3, 4)
    assert np.array_equal(looked[0], table.matrix[table.index["b"]])


def test_embedding_table_takes_the_spare_row_for_unk_or_names_the_row_count():
    for rows in (1, 3):
        with pytest.raises(ValueError, match=f"^1 tokens need 2 rows, not {rows}$"):
            EmbeddingTable(["a"], np.zeros((rows, 2)))
    matrix = np.zeros((2, 2))
    table = EmbeddingTable(["a"], matrix)
    assert table.matrix is not matrix and np.shares_memory(table.matrix, matrix)
    assert matrix[1].tolist() == table.lookup(["<unk>"])[0].tolist() != [0.0, 0.0]
    named = EmbeddingTable(["a", "<unk>"], np.arange(6.0).reshape(3, 2))
    assert named.vocab == ["a", "<unk>"] and named.matrix.tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_word2vec_text_loader(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\nhuis 0.1 0.2 0.3\ntuin -1 0 1\n")
    table = load_word2vec_text(path)
    assert np.allclose(table.lookup(["huis"])[0], [0.1, 0.2, 0.3])
    assert np.allclose(table.lookup(["tuin"])[0], [-1.0, 0.0, 1.0])

    # headerless variant
    bare = tmp_path / "bare.txt"
    bare.write_text("huis 0.5 0.5\n")
    assert load_word2vec_text(bare).lookup(["huis"])[0].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("text, problem", [
    ("", "no vectors"),
    ("2 3\n", "no vectors"),
    ("huis 0.1 0.2\ntuin 0.3\n", "line 2 holds 1 values, but the first vector 2"),
    ("2 2\nhuis 0.1 0.2\n\ntuin 0.3 0.4 0.5\n", "line 4 holds 3 values, but the first vector 2"),
    # The first fault in file order is named, before a later line's bad value.
    ("huis 0.1 0.2\ntuin 0.3\nroos inf 1\n", "line 2 holds 1 values, but the first vector 2"),
])
def test_word2vec_text_loader_names_the_file_and_the_problem(tmp_path, text, problem):
    path = tmp_path / "vecs.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
        load_word2vec_text(path)


def test_word2vec_binary_loader(tmp_path):
    path = tmp_path / "vecs.bin"
    with open(path, "wb") as fh:
        fh.write(b"2 2\n")
        fh.write(b"huis " + struct.pack("<2f", 1.0, 2.0))
        fh.write(b"tuin " + struct.pack("<2f", 3.0, 4.0))
    table = load_word2vec_binary(path)
    assert np.allclose(table.lookup(["huis"])[0], [1.0, 2.0])
    assert np.allclose(table.lookup(["tuin"])[0], [3.0, 4.0])
    assert np.allclose(load_embeddings(path).lookup(["huis"])[0], [1.0, 2.0])

    # word2vec itself writes a newline after each vector, which is not part of the next word.
    source = np.random.default_rng(0).standard_normal((3, 5)).astype(np.float32)
    words = ["huis", "tuin", "été"]
    path.write_bytes(b"3 5\n" + b"".join(word.encode() + b" " + row.tobytes() + b"\n"
                                         for word, row in zip(words, source)))
    table = load_word2vec_binary(path)
    assert table.vocab == [*words, "<unk>"]
    assert table.matrix.dtype == np.float64 and np.array_equal(table.matrix[:-1], source)


@pytest.mark.parametrize("content, problem", [
    (b"", "the first line is not a 'count dim' header"),
    (b"huis 0.1 0.2\n", "the first line is not a 'count dim' header"),
    (b"2 3\nhuis ", "vector 1 of 2 is cut short"),
    (b"2 2\nhuis " + struct.pack("<2f", 1.0, 2.0) + b"tuin " + struct.pack("<f", 3.0),
     "vector 2 of 2 is cut short"),
    (b"1 1\n\xff " + struct.pack("<f", 1.0), "vector 1 of 1 has a non-UTF-8 word"),
    # Headers that claim more than the file holds, checked before anything is allocated.
    (b"99999999999 4\n", "vector 1 of 99999999999 is cut short"),
    (b"1 99999999999\nhuis " + struct.pack("<f", 1.0), "vector 1 of 1 is cut short"),
    # No vectors: nothing is allocated from the width, as the text reader reads none.
    (b"0 4\n", "no vectors"),
    (b"0 99999999999\n", "no vectors"),
    (b"3 2\nhuis " + struct.pack("<2f", 1.0, 2.0) + b"tuin ", "vector 2 of 3 is cut short"),
    # The first fault in file order is named.
    (b"2 2\nhuis " + struct.pack("<2f", 1.0, float("inf")) + b"tuin " + struct.pack("<f", 3.0),
     "vector 1 of 2 is not finite"),
    # A signalling NaN, which numpy warns about when it casts one to float64.
    (b"1 1\nhuis " + struct.pack("<I", 0x7F800001), "vector 1 of 1 is not finite"),
])
@pytest.mark.filterwarnings("error")
def test_word2vec_binary_loader_names_the_file_and_the_problem(tmp_path, capsys, content,
                                                               problem):
    corpus, vectors = tmp_path / "c.jsonl", tmp_path / "vecs.bin"
    write_corpus(corpus, small_corpus(n=2))
    vectors.write_bytes(content)
    argv = ["train", "--train", corpus, "--embeddings", vectors, "--out", tmp_path / "run"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: ValueError: {vectors}: {problem}"]
    assert not (tmp_path / "run").exists()


def test_loading_vectors_does_not_import_the_corpus_format():
    # The line reader sits with the word2vec readers, so their peak RSS holds no json or corpus code.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, proptree.embeddings; print(sorted({'json', 'proptree.corpus'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["[]"]


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def test_cli_generate_split_train_evaluate_predict(tmp_path, capsys, monkeypatch):
    """Trains without and with the second core.  With it, epoch 1 validates in
    a forked child, so the predicted documents are counted in a file."""
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(["generate", "--out", corpus, "--n-docs", "16", "--seed", "3"]) == 0
    assert len(read_corpus(corpus)) == 16

    splits = tmp_path / "splits"
    assert run_cli(["split", corpus, "--out", splits, "--seed", "1",
                    "--dev-frac", "0.25", "--test-frac", "0.25"]) == 0
    assert len(read_corpus(splits / "train.jsonl")) == 8

    for second_core in (False, True):
        out = tmp_path / f"run-{second_core}"
        predicted_file = tmp_path / f"predicted-{second_core}.jsonl"
        predict_doc = JointRunner.predict_doc

        def counted_predict_doc(self, tokens):
            with open(predicted_file, "a") as f:
                f.write(json.dumps(tokens) + "\n")
            return predict_doc(self, tokens)

        with monkeypatch.context() as patched:
            patched.setattr(cores, "SECOND_CORE", second_core)
            patched.setattr(JointRunner, "predict_doc", counted_predict_doc)
            assert run_cli(["train", "--train", splits / "train.jsonl",
                            "--dev", splits / "dev.jsonl", "--model", "joint",
                            "--d", "8", "--l", "4", "--lr", "0.01", "--dropout", "0",
                            "--max-epochs", "2", "--patience", "2", "--out", out]) == 0
        # Each epoch validates the 4 dev documents; metrics.json reuses the kept epoch's report.
        predicted = predicted_file.read_text().splitlines()
        assert len(predicted) == 8
        assert (out / "checkpoint.zip").exists()
        assert (out / "trainlog.csv").read_text().startswith("epoch,loss,val_f1,seconds")
        dev = read_corpus(splits / "dev.jsonl")
        assert (out / "metrics.json").read_text() == \
            load_runner(out / "checkpoint.zip").evaluate(dev).dumps() + "\n"
        assert json.loads((out / "metrics.json").read_text())["n_docs"] == 4

        metrics = tmp_path / f"eval-{second_core}.json"
        assert run_cli(["evaluate", "--checkpoint", out / "checkpoint.zip",
                        "--data", splits / "test.jsonl", "--out", metrics]) == 0
        blob = json.loads(metrics.read_text())
        assert set(blob["labels"]) == {"part-of", "segment", "equivalent"}

        pred_path = tmp_path / f"pred-{second_core}.jsonl"
        assert run_cli(["predict", "--checkpoint", out / "checkpoint.zip",
                        "--data", splits / "test.jsonl", "--out", pred_path]) == 0
        records = [json.loads(line) for line in pred_path.read_text().splitlines()]
        assert len(records) == len(read_corpus(splits / "test.jsonl"))
    capsys.readouterr()


def test_cli_pipeline_trainlog_has_wall_seconds_and_no_loss(tmp_path, capsys):
    """A pipeline's one trainlog row: its seconds are the measured time of
    training both stages and validating, and its loss is nan, since a
    two-stage pipeline has no single training loss."""
    corpus = tmp_path / "c.jsonl"
    run_cli(["generate", "--out", corpus, "--n-docs", "8", "--seed", "2"])
    out = tmp_path / "run"
    started = time.perf_counter()
    assert run_cli(["train", "--train", corpus, "--model", "pipeline-crf+mtt",
                    "--lr", "0.05", "--max-epochs", "2", "--out", out]) == 0
    elapsed = time.perf_counter() - started
    header, row = (out / "trainlog.csv").read_text().strip().splitlines()
    assert header == "epoch,loss,val_f1,seconds"
    epoch, loss, val_f1, seconds = row.split(",")
    assert epoch == "2" and loss == "nan"
    overall_f1 = json.loads((out / "metrics.json").read_text())["overall_f1"]
    assert float(val_f1) == pytest.approx(overall_f1, abs=0.01)
    assert 0.0 < float(seconds) <= elapsed
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_cli_pipeline_stops_on_non_finite_weights(tmp_path, capsys, kind):
    """lr 1e200 blows the CRF up in its first epoch: training raises and names
    the stage instead of saving non-finite weights (LTM) or failing later in
    MTT's Laplacian.  That one line is all of stderr: the test turns warnings
    into errors, so a numpy RuntimeWarning would surface as the error instead."""
    corpus = tmp_path / "c.jsonl"
    run_cli(["generate", "--out", corpus, "--n-docs", "30", "--seed", "3"])
    out = tmp_path / "run"
    assert run_cli(["train", "--train", corpus, "--model", kind, "--lr", "1e200",
                    "--max-epochs", "3", "--out", out]) == 1
    assert capsys.readouterr().err == \
        "error: FloatingPointError: CrfModel: non-finite parameters after epoch 1\n"
    assert not (out / "checkpoint.zip").exists()


def test_cli_gold_as_prediction_is_perfect(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run_cli(["generate", "--out", corpus, "--n-docs", "6", "--seed", "0"])
    metrics = tmp_path / "m.json"
    assert run_cli(["evaluate", "--data", corpus,
                    "--gold-as-prediction", "--out", metrics]) == 0
    blob = json.loads(metrics.read_text())
    assert blob["overall_f1"] == 100.0
    assert blob["tree_rate"] == 100.0
    capsys.readouterr()


@pytest.mark.parametrize("source", [[], ["--checkpoint", "c.zip", "--gold-as-prediction"]],
                         ids=["neither", "both"])
def test_cli_evaluate_takes_checkpoint_or_gold(source, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["evaluate", "--data", "c.jsonl", *source])
    assert exc.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_cli_convert_roundtrip(tmp_path, capsys):
    docs = small_corpus(n=4)
    src = tmp_path / "in.jsonl"
    write_corpus(src, docs)
    dst = tmp_path / "out.jsonl"
    assert run_cli(["convert", src, dst]) == 0
    assert read_corpus(dst) == docs
    capsys.readouterr()


def test_cli_config_override_file(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run_cli(["generate", "--out", corpus, "--n-docs", "6", "--seed", "2"])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment\nmax_epochs = 1\nlr=0.02\n")
    out = tmp_path / "run"
    assert run_cli(["train", "--train", corpus, "--d", "8", "--l", "4",
                    "--dropout", "0", "--max-epochs", "99", "--config", cfg,
                    "--out", out]) == 0
    log = (out / "trainlog.csv").read_text().strip().splitlines()
    assert len(log) == 2  # header + exactly one epoch
    capsys.readouterr()


def test_readme_commands_are_subcommands(capsys):
    """Every ``proptree <command>`` in README.md's shell blocks names a
    subcommand that the CLI's parser accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = {command for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if not line.lstrip().startswith("#")
                for command in re.findall(r"(?:^|\s)proptree\s+(\S+)", line)}
    assert {"generate", "train", "predict"} <= commands
    for command in sorted(commands):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0, f"README runs `proptree {command}`, which the CLI rejects"
    capsys.readouterr()


def test_cli_error_paths(tmp_path, capsys):
    assert run_cli(["evaluate", "--checkpoint", tmp_path / "missing.zip",
                    "--data", tmp_path / "missing.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")

    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text("no equals sign\n")
    corpus = tmp_path / "c.jsonl"
    run_cli(["generate", "--out", corpus, "--n-docs", "2", "--seed", "0"])
    assert run_cli(["train", "--train", corpus, "--config", bad_cfg,
                    "--out", tmp_path / "x"]) == 1
    capsys.readouterr()


def test_python_m_proptree_runs_from_a_source_checkout(tmp_path):
    out = tmp_path / "c.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "proptree", "generate", "--out", str(out),
                           "--n-docs", "2"], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(read_corpus(out)) == 2
