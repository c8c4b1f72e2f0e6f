"""Training loop, checkpoints, CLI."""

import json
import os
import re
import struct
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from proptree import cli, nn, pipeline
from proptree import train as train_module
from proptree.attention import VARIANTS, make_attention
from proptree.corpus import read_corpus, write_corpus
from proptree.data import EQUIVALENT, PART_OF, ROOT_ID, SEGMENT, SKIP, decode_heads_to_tree
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
from proptree.synthetic import SyntheticConfig, generate_corpus, vocabulary
from proptree.train import (
    JointRunner,
    TrainConfig,
    TrainLog,
    load_runner,
    predict_records,
    train_joint,
    train_model,
    train_pipeline,
)
from helpers import adam_step_reference


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


def test_config_accepts_exactly_the_widths_the_joint_parser_builds():
    """One rule for the scoring width: l must be smaller than the scorer's
    input width, 2d without attention or with edge attention and 4d with the
    other variants."""
    accepted = set()
    for d in (2, 3):
        table = EmbeddingTable.random(["villa", "tuin"], d)
        for l in range(1, 14):
            for attention in (None, *VARIANTS):
                in_config = builds(lambda: TrainConfig(d=d, l=l, attention=attention))
                in_parser = builds(lambda: JointParser(table, d=d, l=l, attention=attention))
                assert in_config == in_parser, (d, l, attention)
                if in_config:
                    accepted.add((d, l, attention))
    assert (2, 5, "additive") in accepted and (2, 4, None) not in accepted
    assert (3, 5, "edge") in accepted and (3, 6, "edge") not in accepted


def test_config_overrides():
    cfg = TrainConfig()
    over = cfg.apply_overrides({"model": "pipeline-crf+mtt", "lr": "0.05",
                                "max_epochs": "7", "attention": "none"})
    assert over.model == "pipeline-crf+mtt"
    assert over.lr == 0.05 and over.max_epochs == 7
    assert over.attention is None
    assert cfg.max_epochs == 150  # original untouched
    with pytest.raises(KeyError):
        cfg.apply_overrides({"banana": "1"})


@pytest.mark.parametrize("kind", ["pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_pipeline_models_reject_joint_only_options(tmp_path, capsys, kind):
    docs = small_corpus(n=3)
    table = EmbeddingTable.random(vocabulary(docs), 8)
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
            TrainConfig().apply_overrides({"model": kind, key: str(value)})
        with pytest.raises(ValueError, match=message):
            TrainConfig(model=kind).apply_overrides({key: str(value)})
    with pytest.raises(ValueError, match=re.escape(f"attention='additive': {reads_only}")):
        TrainConfig(attention="additive").apply_overrides({"model": kind})
    with pytest.raises(ValueError, match=re.escape(f"d=64: {reads_only}")):
        TrainConfig(model=kind, d=64, dropout=0.0)
    # Options at their defaults are accepted.
    defaults = TrainConfig(model=kind, attention=None, steps=1, d=128, l=32, p=32,
                           dropout=None, patience=10)
    assert defaults.apply_overrides({"lr": "0.5", "max_epochs": "2", "seed": "3"}) == TrainConfig(
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
            TrainConfig(model=model).apply_overrides({"attention": attention or "none",
                                                      key: str(value)})
        # The parser and the attention factory apply the same rule.
        table = EmbeddingTable.random(["huis"], 8)
        with pytest.raises(ValueError, match=re.escape(message)):
            JointParser(table, d=8, l=4, attention=attention, **{key: value})
        if attention:
            with pytest.raises(ValueError, match=re.escape(message)):
                make_attention(attention, 8, 4, np.random.default_rng(0), **{key: value})
        # Left at its default, the option is accepted.
        assert TrainConfig(model=model, attention=attention, p=32, steps=1).attention == attention
        JointParser(table, d=8, l=4, attention=attention, p=32, steps=1)
        if attention:
            make_attention(attention, 8, 4, np.random.default_rng(0), p=32, steps=1)
    assert getattr(TrainConfig(attention=reader, **{key: value}), key) == value
    parser = JointParser(EmbeddingTable.random(["huis"], 8), d=8, l=4, attention=reader,
                         **{key: value})
    assert parser.config[key] == value

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


def test_unknown_attention_variant_is_rejected_at_construction(tmp_path, capsys):
    message = "unknown attention variant 'bogus'"
    with pytest.raises(ValueError, match=message):
        TrainConfig(attention="bogus")
    with pytest.raises(ValueError, match="unknown attention variant 'Tensor'"):
        TrainConfig().apply_overrides({"attention": "Tensor"})
    with pytest.raises(ValueError, match=message):
        JointParser(EmbeddingTable.random(["huis"], 8), d=8, l=4, attention="bogus")

    corpus, cfg = tmp_path / "c.jsonl", tmp_path / "cfg.txt"
    write_corpus(corpus, small_corpus(n=3))
    cfg.write_text("attention = bogus\n")
    assert run_cli(["train", "--train", corpus, "--max-epochs", "1", "--config", cfg,
                    "--out", tmp_path / "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and message in err
    assert not (tmp_path / "run").exists()


def test_batch_size_is_not_a_config_key():
    with pytest.raises(KeyError, match="batch_size"):
        TrainConfig().apply_overrides({"batch_size": "1"})


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


@pytest.mark.parametrize("package", [nn, pipeline], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_trainlog_csv():
    log = TrainLog()
    log.add(1, 2.5, fake_f1_report(50.0), 0.1)
    log.add(2, 1.5, fake_f1_report(60.0), 0.1)
    assert log.best_f1 == 60.0
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


def test_early_stopping_keeps_best_epoch(monkeypatch):
    docs = small_corpus(n=4)
    sequence = [50.0, 60.0, 59.0, 58.0, 57.0, 56.0]
    snapshots = []

    def scripted_evaluate(self, _docs):
        snapshots.append([p.data.copy() for p in self.model.params_named().values()])
        return fake_f1_report(sequence[len(snapshots) - 1])

    monkeypatch.setattr(JointRunner, "evaluate", scripted_evaluate)
    runner, log = train_joint(tiny_config(max_epochs=10, patience=2), docs, [])

    # stops after the second non-improving epoch, keeps the epoch-2 weights
    assert [r.epoch for r in log.records] == [1, 2, 3, 4]
    assert log.best_epoch == 2
    assert log.best_f1 == 60.0
    for p, snap in zip(runner.model.params_named().values(), snapshots[1]):
        assert np.array_equal(p.data, snap)


def test_training_stops_on_non_finite_values(monkeypatch):
    docs = small_corpus(n=4)

    class PoisonedParser(JointParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.scorer.w[2].data[0, 0] = np.nan

    monkeypatch.setattr(train_module, "JointParser", PoisonedParser)
    first = docs[np.random.default_rng(0).permutation(len(docs))[0]]
    with pytest.raises(FloatingPointError, match=f"epoch 1, document '{first.id}'"):
        train_joint(tiny_config(), docs, [])


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


def test_training_is_deterministic():
    docs = small_corpus()
    a_runner, a_log = train_joint(tiny_config(), docs, [])
    b_runner, b_log = train_joint(tiny_config(), docs, [])
    for pa, pb in zip(a_runner.model.params_named().values(),
                      b_runner.model.params_named().values()):
        assert np.array_equal(pa.data, pb.data)
    assert [(r.epoch, r.loss, r.val_f1) for r in a_log.records] == \
           [(r.epoch, r.loss, r.val_f1) for r in b_log.records]

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


@pytest.mark.parametrize("kind", ["pipeline-crf+ltm", "pipeline-crf+mtt"])
def test_pipeline_checkpoint_roundtrip(tmp_path, kind):
    docs = small_corpus(n=15)
    runner, log = train_pipeline(tiny_config(model=kind, max_epochs=8, lr=0.05), docs)
    assert log.records[-1].val_f1 >= 0.0
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


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def test_cli_generate_split_train_evaluate_predict(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(["generate", "--out", corpus, "--n-docs", "16", "--seed", "3"]) == 0
    assert len(read_corpus(corpus)) == 16

    splits = tmp_path / "splits"
    assert run_cli(["split", corpus, "--out", splits, "--seed", "1",
                    "--dev-frac", "0.25", "--test-frac", "0.25"]) == 0
    assert len(read_corpus(splits / "train.jsonl")) == 8

    out = tmp_path / "run"
    predicted = []
    predict_doc = JointRunner.predict_doc

    def counted_predict_doc(self, tokens):
        predicted.append(tokens)
        return predict_doc(self, tokens)

    monkeypatch.setattr(JointRunner, "predict_doc", counted_predict_doc)
    assert run_cli(["train", "--train", splits / "train.jsonl",
                    "--dev", splits / "dev.jsonl", "--model", "joint",
                    "--d", "8", "--l", "4", "--lr", "0.01", "--dropout", "0",
                    "--max-epochs", "2", "--patience", "2", "--out", out]) == 0
    # Each epoch validates the 4 dev documents; metrics.json reuses the kept epoch's report.
    assert len(predicted) == 8
    monkeypatch.undo()
    assert (out / "checkpoint.zip").exists()
    assert (out / "trainlog.csv").read_text().startswith("epoch,loss,val_f1,seconds")
    dev = read_corpus(splits / "dev.jsonl")
    assert (out / "metrics.json").read_text() == \
        load_runner(out / "checkpoint.zip").evaluate(dev).dumps() + "\n"
    assert json.loads((out / "metrics.json").read_text())["n_docs"] == 4

    metrics = tmp_path / "eval.json"
    assert run_cli(["evaluate", "--checkpoint", out / "checkpoint.zip",
                    "--data", splits / "test.jsonl", "--out", metrics]) == 0
    blob = json.loads(metrics.read_text())
    assert set(blob["labels"]) == {"part-of", "segment", "equivalent"}

    pred_path = tmp_path / "pred.jsonl"
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
