"""Built-in correctness checks runnable from the CLI, no test runner needed.

Each check compares an optimized implementation against a brute-force
re-computation (exhaustive enumeration or finite differences) on instances
small enough to enumerate.  Prints one line per check.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .data import decode_heads_to_tree, encode_tree_to_heads, structure_signature
from .joint import (JointDistribution, LabelScorer, distribution_rows, loss_from_rows,
                    rows_to_distribution)
from .mst import WeightedDigraph, arborescence_weight, chu_liu_edmonds
from .oracle import (arborescence_log_z_and_marginals, best_arborescence_weight,
                     chain_log_z_marginals_and_best)
from .pipeline.crf import CrfModel
from .pipeline.edge_models import mtt_log_partition_and_marginals
from .synthetic import SyntheticConfig, generate_corpus


def check_gradients() -> str:
    rng = np.random.default_rng(7)
    scorer = LabelScorer(m=4, l=2, rng=rng)
    states = nn.Tensor(rng.normal(size=(4, 4)))
    from .data import TokenHeadAssignment
    gold = TokenHeadAssignment([0, 1, 3], [0, 1, 3])

    def closure() -> float:
        return loss_from_rows(distribution_rows(scorer, states), gold).item()

    with nn.Tape() as tape:
        loss = loss_from_rows(distribution_rows(scorer, states), gold)
    tape.backward(loss)
    eps = 1e-5
    for p in scorer.params_named().values():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = closure()
            flat[idx] = keep - eps
            down = closure()
            flat[idx] = keep
            fd = (up - down) / (2 * eps)
            if abs(fd - gflat[idx]) > 1e-4 * max(1.0, abs(fd)):
                raise AssertionError(f"gradient mismatch: analytic {gflat[idx]}, numeric {fd}")
    return "scorer gradients match finite differences"


def check_edmonds() -> str:
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(20):
            weights = np.full((n + 1, n + 1), -np.inf)
            for d in range(1, n + 1):
                for h in range(0, n + 1):
                    if h != d:
                        weights[h, d] = rng.integers(-5, 6)
            graph = WeightedDigraph(list(range(n + 1)), weights)
            got = arborescence_weight(graph, chu_liu_edmonds(graph))
            best = best_arborescence_weight(n + 1, lambda h, d: float(weights[h, d]))
            if abs(got - best) > 1e-9:
                raise AssertionError(f"edmonds weight {got} != enumerated best {best}")
    return "spanning-tree weights match exhaustive enumeration"


def check_mtt() -> str:
    theta = np.zeros((3, 3))
    log_z, _ = mtt_log_partition_and_marginals(theta)
    if abs(np.exp(log_z) - 3.0) > 1e-9:
        raise AssertionError(f"t=2 uniform partition: got {np.exp(log_z)}, want 3")
    rng = np.random.default_rng(3)
    # the last theta has missing arcs: only 0->1, 0->2, 1->2, 2->1, 2->3 and 3->1
    sparse = np.full((4, 4), -np.inf)
    sparse[0, 1], sparse[0, 2], sparse[1, 2] = 0.5, -1.0, 1.0
    sparse[2, 1], sparse[2, 3], sparse[3, 1] = 0.0, 2.0, -0.5
    for th in [rng.normal(size=(t + 1, t + 1)) for t in (2, 3, 4)] + [sparse]:
        log_z, marg = mtt_log_partition_and_marginals(th)
        brute_z, brute = arborescence_log_z_and_marginals(th)
        if abs(log_z - brute_z) > 1e-8 * max(1.0, abs(brute_z)):
            raise AssertionError(f"mtt partition {log_z} != enumerated {brute_z}")
        if np.abs(marg - brute).max() > 1e-8:
            raise AssertionError("mtt marginals disagree with enumeration")
    return "matrix-tree partition and marginals match enumeration"


def check_crf() -> str:
    tags, tokens, gold = ["O", "B-x", "I-x"], ["a", "b", "c", "a"], [0, 1, 2, 0]
    model = CrfModel(tags, {f"w={w}": i for i, w in enumerate("abc")})
    rng = np.random.default_rng(5)
    model.w_emit.data[...] = rng.normal(size=model.w_emit.shape)
    model.w_trans.data[...] = rng.normal(size=model.w_trans.shape)
    table = model.features(tokens)
    log_z, nodes, pairs, best, _ = chain_log_z_marginals_and_best(
        model.emissions(table), model.w_trans.data)
    if abs(model.log_partition(tokens) - log_z) > 1e-8 * max(1.0, abs(log_z)):
        raise AssertionError("forward log-partition disagrees with enumeration")
    if [model.tag_index[t] for t in model.viterbi(tokens)] != best:
        raise AssertionError("viterbi path disagrees with enumeration")
    # The NLL gradient is the expected counts minus the gold counts.
    _, g_emit, g_trans = model.nll_and_grad(table, [tags[j] for j in gold])
    nodes[range(len(gold)), gold] -= 1.0
    np.subtract.at(pairs, (gold[:-1], gold[1:]), 1.0)
    want = np.zeros_like(g_emit)
    table.scatter(want, nodes)
    if max(np.abs(g_emit - want).max(), np.abs(g_trans - pairs).max()) > 1e-8:
        raise AssertionError("crf gradient disagrees with enumerated marginals")
    return "crf partition, viterbi and gradient match enumeration"


def check_roundtrip() -> str:
    docs = generate_corpus(SyntheticConfig(n_docs=200, seed=42, nonprojective_rate=0.4))
    for doc in docs:
        assignment = encode_tree_to_heads(doc)
        assignment.validate_gold()
        back = decode_heads_to_tree(assignment, doc.tokens, doc_id=doc.id)
        if structure_signature(back) != structure_signature(doc):
            raise AssertionError(f"roundtrip changed document {doc.id}")
    return "tree <-> head-assignment codec round-trips 200 documents"


def check_normalization() -> str:
    rng = np.random.default_rng(9)
    scorer = LabelScorer(m=4, l=2, rng=rng)
    states = nn.Tensor(rng.normal(size=(5, 4)))
    p = rows_to_distribution(distribution_rows(scorer, states)).p[1:]
    if np.abs(p.sum(axis=(1, 2)) - 1.0).max() > 1e-6:
        raise AssertionError("joint distribution rows do not sum to 1")
    dist = JointDistribution(np.zeros((3, 3, 4)))
    dist.p[1:] = rng.random((2, 3, 4))
    greedy = dist.greedy()
    if greedy.n != 2:
        raise AssertionError("greedy decode wrong length")
    return "joint distribution normalization holds"


CHECKS = [
    check_gradients,
    check_edmonds,
    check_mtt,
    check_crf,
    check_roundtrip,
    check_normalization,
]


def run_selftest() -> int:
    failed = 0
    for check in CHECKS:
        name = check.__name__.removeprefix("check_")
        try:
            detail = check()
            print(f"ok - {name}: {detail}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL - {name}: {exc}")
    if failed:
        print(f"{failed} of {len(CHECKS)} checks failed")
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0
