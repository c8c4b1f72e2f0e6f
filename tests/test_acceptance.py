"""Release acceptance checks.

One test per criterion.  Each prints a single PASS/FAIL line with the
measured numbers (visible under -s or on failure), and budgets - seed
counts, instance sizes, tolerances, wall-clock limits - are asserted
inside the tests rather than only documented.

Gradient comparisons use |analytic - numeric| <= atol + rtol|numeric|
with rtol 1e-4 and atol 1e-8: central differences at step 1e-5 carry
~1e-10 of float64 roundoff, so entries far below atol cannot support a
relative comparison and are certified absolutely instead.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import (arborescence_weight, crf_log_partition, emission_features,
                     feature_index_from_corpus, finite_difference, has_crossing_arcs)
from oracle import (arborescence_log_z_and_marginals, best_arborescence_weight,
                    chain_log_z_marginals_and_best)
from proptree.attention import SCORE_VARIANTS, VARIANTS, attention_weights
from proptree.corpus import read_corpus, split_corpus
from proptree.data import (
    SKIP,
    Document,
    Entity,
    Mention,
    TokenHeadAssignment,
    encode_tree_to_heads,
    decode_heads_to_tree,
    structure_signature,
)
from proptree.embeddings import EmbeddingTable
from proptree.joint import JointParser
from proptree.mst import WeightedDigraph, chu_liu_edmonds
from proptree.nn import Tape
from proptree.pipeline import CrfModel, crf_objective, mtt_log_partition_and_marginals
from proptree.pipeline.crf import tagset_from_corpus
from proptree.synthetic import SyntheticConfig, generate_corpus
from proptree.train import TrainConfig, train_joint, train_pipeline

RTOL, ATOL = 1e-4, 1e-8


@contextmanager
def criterion(name):
    """Collects measurements and prints one PASS/FAIL line for the test."""
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    print(f"[PASS] {name}" + (f" ({detail})" if detail else ""))


VOCAB = ["huis", "tuin", "dak", "zwembad", "ruime", "garage"]
# The attention options away from their defaults, each given only to the
# variant that reads it.
READ_OPTIONS = {"biaffine": {"p": 2}, "edge": {"steps": 2}}


def random_joint_case(seed, variant):
    """A tiny parser (d=2) plus random tokens and a valid gold assignment."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    tokens = [VOCAB[i] for i in rng.integers(0, len(VOCAB), n)]
    table = EmbeddingTable.random(VOCAB, 2, seed=seed)
    model = JointParser(table, TrainConfig(d=2, l=3, dropout=0.0, attention=variant,
                                           **READ_OPTIONS.get(variant, {}), seed=seed))
    heads, labels = [], []
    for i in range(1, n + 1):
        h = int(rng.integers(0, n + 1))
        heads.append(h)
        labels.append(SKIP if h == i else int(rng.integers(0, 3)))
    return model, tokens, TokenHeadAssignment(heads, labels)


def tiny_crf_docs():
    return [
        Document(id="g1", tokens=["ruime", "villa", "met", "tuin"],
                 entities=[Entity("E1", "property", [Mention(2, 3)]),
                           Entity("E2", "space", [Mention(4, 5)], parent="E1")]),
        Document(id="g2", tokens=["dak", "terras"],
                 entities=[Entity("E1", "space", [Mention(1, 3)])]),
    ]


def assert_grads_close(analytic, numeric):
    for a, n in zip(analytic, numeric):
        gap = np.abs(a - n) - (ATOL + RTOL * np.abs(n))
        assert gap.max() <= 0.0, f"worst violation {gap.max():.3e}"


def test_gradient_correctness():
    started = time.perf_counter()
    with criterion("gradient-correctness") as info:
        worst = 0.0
        for variant in (None,) + VARIANTS:
            for seed in range(20):
                model, tokens, gold = random_joint_case(seed, variant)
                params = model.params_named().values()
                with Tape() as tape:
                    loss = model.loss(tokens, gold)
                tape.backward(loss)
                analytic = [p.grad.copy() for p in params]
                numeric = finite_difference(
                    lambda: model.loss(tokens, gold).item(),
                    [p.data for p in params])
                assert_grads_close(analytic, numeric)
                for a, n in zip(analytic, numeric):
                    big = np.abs(n) > 1e-5
                    if big.any():
                        worst = max(worst, float(
                            (np.abs(a - n)[big] / np.abs(n)[big]).max()))

        docs = tiny_crf_docs()
        for seed in range(20):
            model = CrfModel(tagset_from_corpus(docs), feature_index_from_corpus(docs))
            assert len(model.tags) <= 5
            rng = np.random.default_rng(seed)
            model.w_emit.data[:] = 0.5 * rng.normal(size=model.w_emit.data.shape)
            model.w_trans.data[:] = 0.5 * rng.normal(size=model.w_trans.data.shape)
            _, g_emit, g_trans = crf_objective(model, docs, lam=0.5)
            numeric = finite_difference(
                lambda: crf_objective(model, docs, lam=0.5)[0],
                [model.w_emit.data, model.w_trans.data])
            assert_grads_close([g_emit, g_trans], numeric)

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        info["worst_rel"] = f"{worst:.2e}"
        info["seconds"] = f"{elapsed:.1f}"


def test_edmonds_matches_enumeration():
    started = time.perf_counter()
    with criterion("edmonds-optimality") as info:
        checked = 0
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(n)
            for _ in range(100):
                weights = 3.0 * rng.normal(size=(n, n))
                graph = WeightedDigraph(list(range(n)), weights)
                parent = chu_liu_edmonds(graph)
                got = arborescence_weight(graph, parent)
                best = best_arborescence_weight(
                    n, lambda h, v: float(weights[h, v]) if h != v else None)
                assert got == pytest.approx(best, abs=1e-9)
                checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"enumeration sweep took {elapsed:.1f}s"
        info["graphs"] = checked
        info["seconds"] = f"{elapsed:.1f}"


def test_matrix_tree_matches_enumeration():
    with criterion("matrix-tree-partition") as info:
        worst = 0.0
        for t in range(1, 6):
            rng = np.random.default_rng(t)
            for _ in range(50):
                theta = rng.normal(size=(t + 1, t + 1))
                log_z, marginals = mtt_log_partition_and_marginals(theta)
                brute, enum = arborescence_log_z_and_marginals(theta)
                assert log_z == pytest.approx(brute, rel=1e-8)
                if abs(brute) > 1e-3:
                    worst = max(worst, abs(log_z - brute) / abs(brute))

                # arc marginals against the same enumeration
                mask = ~np.eye(t + 1, dtype=bool)
                mask[:, 0] = False
                assert marginals[mask] == pytest.approx(enum[mask], abs=1e-8)

        log_z, _ = mtt_log_partition_and_marginals(np.zeros((3, 3)))
        assert np.exp(log_z) == pytest.approx(3.0, abs=1e-12)
        info["worst_rel"] = f"{worst:.2e}"
        info["t=2 uniform Z"] = f"{np.exp(log_z):.12f}"


def test_crf_matches_enumeration():
    with criterion("crf-partition-and-viterbi") as info:
        rng = np.random.default_rng(0)
        for seed in range(50):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(2, 6))
            tokens = [VOCAB[i] for i in rng.integers(0, len(VOCAB), n)]
            feats = sorted({f for i in range(n)
                            for f in emission_features(tokens, i)})
            model = CrfModel([f"t{j}" for j in range(k)],
                             {f: i for i, f in enumerate(feats)})
            model.w_emit.data[:] = rng.normal(size=model.w_emit.data.shape)
            model.w_trans.data[:] = rng.normal(size=model.w_trans.data.shape)

            log_z, _, _, best_path, _ = chain_log_z_marginals_and_best(
                model.emissions(model.features(tokens)), model.w_trans.data)
            assert crf_log_partition(model, tokens) == pytest.approx(log_z, rel=1e-8)
            got = [model.tag_index[t] for t in model.viterbi(tokens)]
            assert got == best_path
        info["seeds"] = 50


def test_distribution_and_attention_normalization():
    with criterion("normalization") as info:
        worst = 0.0
        for seed in range(100):
            variant = ((None,) + VARIANTS)[seed % 7]
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            tokens = [VOCAB[i] for i in rng.integers(0, len(VOCAB), n)]
            d = int(rng.integers(2, 4))
            table = EmbeddingTable.random(VOCAB, d, seed=seed)
            model = JointParser(table, TrainConfig(d=d, l=2 * d - 1, dropout=0.0, attention=variant,
                                                   **READ_OPTIONS.get(variant, {}), seed=seed))
            dist = model.distribution(tokens)
            assert np.all(dist.p[0] == 0.0)
            sums = dist.p[1:].reshape(n, -1).sum(axis=1)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
            assert np.abs(sums - 1.0).max() <= 1e-6

            if variant in SCORE_VARIANTS:
                states = model.encoder.encode(tokens)
                alpha = attention_weights(model.attention.scores(states)).data
                assert np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-6
        info["parameterizations"] = 100
        info["worst_mass_gap"] = f"{worst:.2e}"


def test_head_encoding_roundtrip():
    with criterion("tree-codec-roundtrip") as info:
        docs = generate_corpus(SyntheticConfig(n_docs=1000, seed=13,
                                               nonprojective_rate=0.4))
        crossing = 0
        for doc in docs:
            assignment = encode_tree_to_heads(doc)
            assignment.validate_gold()
            crossing += has_crossing_arcs(assignment)
            rebuilt = decode_heads_to_tree(assignment, doc.tokens, doc_id=doc.id)
            assert structure_signature(rebuilt) == structure_signature(doc)
        share = crossing / len(docs)
        assert share >= 0.25, f"only {share:.1%} non-projective documents"
        info["docs"] = len(docs)
        info["crossing_share"] = f"{share:.1%}"


def test_joint_model_overfits_small_corpus():
    started = time.perf_counter()
    with criterion("overfit") as info:
        docs = generate_corpus(SyntheticConfig(n_docs=50, seed=5))
        config = TrainConfig(model="joint", d=16, l=16, dropout=0.0, lr=2e-3,
                             max_epochs=200, patience=200, seed=0)
        runner, log = train_joint(config, docs, [])
        report = runner.evaluate(docs)
        elapsed = time.perf_counter() - started

        assert len(log.records) <= 200
        assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s"
        assert report.overall.f1 >= 99.0, f"train F1 {report.overall.f1:.2f}"
        assert report.tree_rate >= 95.0, f"tree rate {report.tree_rate:.2f}"
        info["train_f1"] = f"{report.overall.f1:.2f}"
        info["tree_rate"] = f"{report.tree_rate:.2f}"
        info["epochs"] = len(log.records)
        info["seconds"] = f"{elapsed:.0f}"


def test_joint_beats_pipeline_on_ambiguous_corpus():
    with criterion("joint-vs-pipeline-ordering") as info:
        docs = generate_corpus(SyntheticConfig(n_docs=500, seed=11,
                                               ambiguous=True, equivalent_rate=0.0))
        train, dev, test = split_corpus(docs, 11, 0.15, 0.15)

        joint_cfg = TrainConfig(model="joint", d=16, l=16, dropout=0.0,
                                lr=2e-3, max_epochs=40, patience=12, seed=0)
        joint, _ = train_joint(joint_cfg, train, dev)
        joint_f1 = joint.evaluate(test).overall.f1

        pipe_cfg = TrainConfig(model="pipeline-crf+mtt", lr=0.05,
                               max_epochs=40, seed=0)
        pipeline, _ = train_pipeline(pipe_cfg, train)
        pipeline_f1 = pipeline.evaluate(test).overall.f1

        assert joint_f1 > pipeline_f1, (
            f"joint {joint_f1:.2f} did not beat pipeline {pipeline_f1:.2f}")
        info["joint_f1"] = f"{joint_f1:.2f}"
        info["pipeline_f1"] = f"{pipeline_f1:.2f}"


def test_reference_corpus_scores():
    """Scores on the original annotated corpus, when a copy is available.

    Point PROPTREE_REAL_CORPUS at a directory holding train/dev/test.jsonl
    produced by `proptree convert`.  Skipped otherwise.
    """
    root = os.environ.get("PROPTREE_REAL_CORPUS")
    if not root or not Path(root, "train.jsonl").exists():
        pytest.skip("real corpus not available; set PROPTREE_REAL_CORPUS")
    with criterion("reference-corpus-scores") as info:
        train = read_corpus(Path(root, "train.jsonl"))
        dev = read_corpus(Path(root, "dev.jsonl"))
        test = read_corpus(Path(root, "test.jsonl"))

        joint_cfg = TrainConfig(model="joint", attention="edge", steps=3,
                                d=64, l=32, seed=0)
        joint, _ = train_joint(joint_cfg, train, dev)
        joint_f1 = joint.evaluate(test).overall.f1

        pipe_cfg = TrainConfig(model="pipeline-crf+mtt", lr=0.05,
                               max_epochs=50, seed=0)
        pipeline, _ = train_pipeline(pipe_cfg, train)
        pipeline_f1 = pipeline.evaluate(test).overall.f1

        assert joint_f1 == pytest.approx(68.57, abs=3.0)
        assert pipeline_f1 == pytest.approx(65.15, abs=3.0)
        info["joint_f1"] = f"{joint_f1:.2f}"
        info["pipeline_f1"] = f"{pipeline_f1:.2f}"
