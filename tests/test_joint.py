"""Joint head/label scoring, normalization, loss, greedy decode."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from proptree import nn
from proptree.attention import VARIANTS, augment
from proptree.data import PART_OF, SEGMENT, SKIP, TokenHeadAssignment
from proptree.embeddings import EmbeddingTable
from proptree.joint import (
    N_LABELS,
    JointDistribution,
    JointParser,
    LabelScorer,
    distribution_rows,
    loss_from_rows,
)
from proptree.mst import is_tree, repair
from proptree.nn.autodiff import softmax_in_place
from proptree.train import JointRunner, TrainConfig

from helpers import distribution_reference, finite_difference, max_rel_err


def scorer_and_states(m=6, l=3, positions=4, seed=0):
    scorer = LabelScorer(m, l, np.random.default_rng(seed))
    states = np.random.default_rng(seed + 1).normal(size=(positions, m))
    return scorer, states


def test_scoring_width_must_shrink():
    with pytest.raises(ValueError):
        LabelScorer(4, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        LabelScorer(4, 9, np.random.default_rng(0))


def score_formula(scorer, h_j, h_i, k):
    """V_k . tanh(U_k h_j + W_k h_i + b_k), the head-j / dependent-i score under label k."""
    return scorer.v[k].data @ np.tanh(
        scorer.u[k].data @ h_j + scorer.w[k].data @ h_i + scorer.b[k].data)


def scored_triples(scorer, states):
    """The scores that ``distribution_rows`` gives, as (i - 1, j, k) for
    dependent i >= 1, head j and label k."""
    rows = distribution_rows(scorer, nn.Tensor(states)).data
    return rows.reshape(len(states) - 1, len(states), N_LABELS)


def test_distribution_rows_match_per_triple_scores():
    scorer, states = scorer_and_states()
    full = scored_triples(scorer, states)
    assert full.shape == (3, 4, 4)
    for i in range(1, 4):
        for j in range(4):
            for k in range(4):
                one = score_formula(scorer, states[j], states[i], k)
                assert full[i - 1, j, k] == pytest.approx(one)


def test_score_triple_matches_formula():
    scorer, states = scorer_and_states()
    h_j, h_i = states[1], states[2]
    full = scored_triples(scorer, states)
    for k in range(4):
        assert full[1, 1, k] == pytest.approx(score_formula(scorer, h_j, h_i, k))


@pytest.mark.parametrize("attention, records", [(None, 8), ("additive", 12)])
def test_a_training_step_tapes_one_scorer_op(attention, records):
    """One ``JointParser.loss`` step with dropout: the four labels are one
    ``nn.pair_mlp`` record beside the ``narrow`` of the dependents, and
    additive attention is one more."""
    table = EmbeddingTable.random(["a", "b", "c"], 4, seed=0)
    parser = JointParser(table, TrainConfig(d=4, l=3, attention=attention, seed=1))
    gold = TokenHeadAssignment([0, 1, 3], [PART_OF, SEGMENT, SKIP])
    with nn.Tape() as tape:
        parser.loss(["a", "c", "b"], gold, rng=np.random.default_rng(0))
    assert len(tape) == records


def filled_distribution(scorer, states) -> JointDistribution:
    """The distribution filled in place as ``JointParser.distribution`` fills
    it: ``distribution_rows`` scores into p[1:], row 0 is zeroed and each row
    is normalized where it lies."""
    p = np.full((len(states), len(states), N_LABELS), np.nan)
    rows = distribution_rows(scorer, nn.Tensor(states), p[1:])
    assert np.shares_memory(rows.data, p)
    p[0] = 0.0
    softmax_in_place(rows.data, 1)
    return JointDistribution(p)


def test_distribution_rows_normalize():
    scorer, states = scorer_and_states(positions=5)
    rows = distribution_rows(scorer, nn.Tensor(states))
    assert rows.shape == (4, 20)
    assert np.allclose(nn.softmax(rows, axis=1).data.sum(axis=1), 1.0, atol=1e-12)
    dist = filled_distribution(scorer, states)
    assert dist.n == 4
    assert np.all(dist.p[0] == 0.0)
    assert np.allclose(dist.p[1:].reshape(4, -1).sum(axis=1), 1.0, atol=1e-12)
    # the buffer holds the rows' softmax, bit for bit
    assert dist.p[1:].reshape(4, -1).tobytes() == nn.softmax(rows, axis=1).data.tobytes()


def test_greedy_prefers_smallest_head_then_label_on_ties():
    p = np.zeros((3, 3, 4))
    p[1, :, :] = 0.125  # perfectly uniform -> head 0, label 0
    p[2, :, :] = 0.0
    p[2, 1, 2] = 0.5
    p[2, 1, 1] = 0.5  # tie between labels 1 and 2 at head 1 -> label 1
    got = JointDistribution(p).greedy()
    assert got.heads == [0, 1]
    assert got.labels == [PART_OF, SEGMENT]


def test_greedy_matches_per_row_argmax():
    # small integers tie often; each row's first flat argmax is the reference
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        p = np.zeros((n + 1, n + 1, 4))
        p[1:] = rng.integers(0, 3, size=(n, n + 1, 4))
        flat = [int(np.argmax(p[i].reshape(-1))) for i in range(1, n + 1)]
        got = JointDistribution(p).greedy()
        assert got.heads == [f // 4 for f in flat]
        assert got.labels == [f % 4 for f in flat]


def test_uniform_loss_closed_form():
    # all-equal scores make each row uniform over 4(N+1) cells
    scorer, _ = scorer_and_states()
    for p in scorer.params_named().values():
        p.data[:] = 0.0
    n = 3
    states = np.random.default_rng(2).normal(size=(n + 1, 6))
    rows = distribution_rows(scorer, nn.Tensor(states))
    gold = TokenHeadAssignment([0, 1, 3], [PART_OF, SEGMENT, SKIP])
    loss = loss_from_rows(rows, gold).item()
    assert loss == pytest.approx(n * np.log(4 * (n + 1)), rel=1e-12)


def test_loss_validates_gold():
    scorer, states = scorer_and_states()
    rows = distribution_rows(scorer, nn.Tensor(states))
    with pytest.raises(ValueError):
        loss_from_rows(rows, TokenHeadAssignment([0], [PART_OF]))
    with pytest.raises(ValueError):
        loss_from_rows(rows, TokenHeadAssignment([9, 0, 1], [0, 0, SKIP]))


@pytest.mark.parametrize("label", [N_LABELS, -1])
def test_loss_refuses_a_gold_label_out_of_range(label):
    """A label past 3 would index the next head's cells, and -1 the previous
    head's last label, so the loss of another assignment would come out."""
    scorer, states = scorer_and_states()
    rows = distribution_rows(scorer, nn.Tensor(states))
    with pytest.raises(ValueError, match=rf"^token 2: gold head 1 and label {label} out of range$"):
        loss_from_rows(rows, TokenHeadAssignment([0, 1, 1], [PART_OF, label, SKIP]))


def test_loss_decreases_along_gradient():
    scorer, states = scorer_and_states()
    gold = TokenHeadAssignment([0, 1, 1], [PART_OF, SEGMENT, PART_OF])
    opt = nn.Adam(scorer.params_named().values(), lr=0.05)
    losses = []
    for _ in range(25):
        for p in scorer.params_named().values():
            p.grad.fill(0.0)
        with nn.Tape() as tape:
            loss = loss_from_rows(distribution_rows(scorer, nn.Tensor(states)), gold)
        tape.backward(loss)
        opt.step()
        losses.append(loss.item())
    assert losses[-1] < losses[0] * 0.5


def test_scorer_gradients_match_finite_differences():
    scorer, states = scorer_and_states(m=4, l=2, positions=3)
    gold = TokenHeadAssignment([0, 1], [PART_OF, SEGMENT])
    params = scorer.params_named().values()
    arrays = [p.data for p in params]

    def forward():
        rows = distribution_rows(scorer, nn.Tensor(states))
        return loss_from_rows(rows, gold).item()

    with nn.Tape() as tape:
        loss = loss_from_rows(distribution_rows(scorer, nn.Tensor(states)), gold)
    tape.backward(loss)
    fd = finite_difference(forward, arrays)
    assert max_rel_err([p.grad for p in params], fd) < 1e-4


@pytest.mark.parametrize("attention", [None, "additive", "edge"])
def test_parser_end_to_end_shapes(attention):
    table = EmbeddingTable.random(["a", "b", "c"], 3, seed=0)
    parser = JointParser(table, TrainConfig(d=3, l=2, attention=attention, seed=1))
    tokens = ["a", "c", "b"]
    dist = parser.distribution(tokens)
    assert dist.p.shape == (4, 4, 4)
    assert np.allclose(dist.p[1:].reshape(3, -1).sum(axis=1), 1.0)
    gold = TokenHeadAssignment([0, 1, 3], [PART_OF, SEGMENT, SKIP])
    with nn.Tape() as tape:
        loss = parser.loss(tokens, gold)
    tape.backward(loss)
    assert loss.item() > 0.0
    grads = [np.abs(p.grad).sum() for p in parser.params_named().values()]
    assert sum(g > 0 for g in grads) >= len(grads) - 4  # zero-init biases may idle


def test_loss_without_a_generator_applies_no_dropout():
    # A joint model's default dropout is 0.5; a loss called without a
    # generator is the loss of the undropped score rows.
    table = EmbeddingTable.random(["a", "b", "c"], 4, seed=0)
    parser = JointParser(table, TrainConfig(d=4, l=3))
    tokens = ["a", "c", "b"]
    gold = TokenHeadAssignment([0, 1, 3], [PART_OF, SEGMENT, SKIP])
    expected = loss_from_rows(parser.forward_rows(tokens), gold).item()
    assert parser.loss(tokens, gold).item() == expected


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_forward_rows_drops_out_exactly_when_given_a_generator(dropout):
    table = EmbeddingTable.random(["a", "b", "c"], 4, seed=0)
    parser = JointParser(table, TrainConfig(d=4, l=3, dropout=dropout))
    tokens = ["a", "c", "b", "a"]
    plain = parser.forward_rows(tokens).data
    dropped = parser.forward_rows(tokens, rng=np.random.default_rng(0)).data
    assert np.array_equal(plain, dropped) == (dropout == 0.0)


def test_parser_named_params_cover_everything():
    table = EmbeddingTable.random(["a", "b"], 3, seed=0)
    parser = JointParser(table, TrainConfig(d=3, l=2, attention="biaffine", p=4, seed=1))
    named = parser.params_named()
    assert set(map(id, named.values())) == set(map(id, parser.params_named().values()))
    assert "enc.l0.fwd.wx" in named and "att.w_bil" in named and "scorer.v3" in named


def reference_distribution(scorer, states):
    """P[i][j][k] from the composed expression: every row scored with
    tanh(dep + head + b) @ v per label, the root row dropped, then softmax."""
    m_pos = states.shape[0]
    scores = np.stack([
        np.tanh((states @ scorer.w[k].data.T)[:, None, :]
                + (states @ scorer.u[k].data.T)[None, :, :] + scorer.b[k].data)
        @ scorer.v[k].data
        for k in range(N_LABELS)
    ], axis=2)
    rows = scores[1:].reshape(m_pos - 1, -1)
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    p = np.zeros((m_pos, m_pos, N_LABELS))
    p[1:] = (e / e.sum(axis=1, keepdims=True)).reshape(m_pos - 1, m_pos, N_LABELS)
    return JointDistribution(p)


@pytest.mark.parametrize("m_pos", [2, 3, 17, 40, 211])
def test_distribution_matches_composed_reference(m_pos):
    scorer = LabelScorer(12, 5, np.random.default_rng(0))
    for b in scorer.b:
        b.data[:] = np.random.default_rng(1).normal(size=5)
    states = np.random.default_rng(m_pos).normal(size=(m_pos, 12))
    got = filled_distribution(scorer, states).p
    assert np.max(np.abs(got - reference_distribution(scorer, states).p)) <= 1e-12


@pytest.mark.parametrize("tokens", [["villa"], ["never", "seen", "these", "words"]])
def test_predict_doc_matches_composed_reference_on_edge_documents(tokens):
    # a one-token document, and one made only of unknown tokens
    table = EmbeddingTable.random(["villa", "garden"], 4, seed=0)
    runner = JointRunner(JointParser(table, TrainConfig(d=4, l=3, dropout=0.0, seed=2)))
    model = runner.model
    ref = reference_distribution(model.scorer, model.encoder.encode(tokens).data)
    assert np.max(np.abs(model.distribution(tokens).p - ref.p)) <= 1e-12
    greedy = ref.greedy()
    assert runner.predict_doc(tokens) == (repair(ref, greedy), is_tree(greedy))


@pytest.mark.parametrize("model, attention", [("joint", None), *(("joint", v) for v in VARIANTS),
                                              ("joint-2layer", None)])
def test_distribution_is_the_frozen_reference_byte_for_byte(model, attention):
    """The in-place distribution holds the bytes that the stacked rows' softmax
    held, at lengths on both sides of PAIR_BLOCK (16 rows), and ``predict_doc``
    decodes it as it decoded the reference."""
    vocab = [f"w{i}" for i in range(30)]
    table = EmbeddingTable.random(vocab, 6, seed=0)
    config = TrainConfig(model=model, attention=attention, d=6, l=5, seed=3)
    runner = JointRunner(JointParser(table, config))
    parser = runner.model
    for b in parser.scorer.b:
        b.data[:] = np.random.default_rng(1).normal(size=5)
    rng = np.random.default_rng(2)
    for n in (1, 15, 16, 17, 32, 33, 210):
        tokens = [vocab[i] for i in rng.integers(0, len(vocab), n)]
        states = augment(parser.encoder.encode(tokens), parser.attention).data
        ref = JointDistribution(distribution_reference(parser.scorer, states))
        assert parser.distribution(tokens).p.tobytes() == ref.p.tobytes()
        greedy = ref.greedy()
        assert runner.predict_doc(tokens) == ((greedy, True) if is_tree(greedy)
                                              else (repair(ref, greedy), False))


def test_predict_doc_keeps_greedy_trees_through_log_ties():
    """Token 2's heads 0 and 1 differ in probability but not in log.  Greedy
    picks head 1 and forms a tree, which ``predict_doc`` keeps; ``repair``
    re-decodes it, and CLE's tie rule takes the smaller head 0."""
    p = np.full((3, 3, N_LABELS), 0.01)
    p[0] = 0.0
    p[1, 0, PART_OF] = 0.3
    p[2, 0, PART_OF] = np.nextafter(0.3, 0)
    p[2, 1, PART_OF] = 0.3
    dist = JointDistribution(p)
    runner = JointRunner(SimpleNamespace(distribution=lambda tokens: dist))
    assert runner.predict_doc(["villa", "pool"]) == (
        TokenHeadAssignment([0, 1], [PART_OF, PART_OF]), True)
    assert repair(dist, dist.greedy()).heads == [0, 0]


def test_training_stays_finite_under_extreme_scores():
    # saturated tanh and v0 = +-1e4 make label 0 dominate or vanish: gold
    # probabilities underflow, and the gradient 1/p of log(softmax) overflows
    table = EmbeddingTable.random(["a", "b", "c"], 4, seed=0)
    parser = JointParser(table, TrainConfig(d=4, l=3, dropout=0.0, seed=1))
    parser.scorer.u[0].data *= 1e3
    parser.scorer.v[0].data[:] = [1e4, -1e4, 1e4]
    tokens = ["a", "c", "b", "a"]
    gold = TokenHeadAssignment([0, 1, 1, 3], [PART_OF, SEGMENT, PART_OF, SKIP])
    probs = nn.softmax(parser.forward_rows(tokens), axis=1).data
    assert np.any(probs[np.arange(4), [g * N_LABELS + k for g, k in
                                       zip(gold.heads, gold.labels)]] < 1e-308)
    params = list(parser.params_named().values())
    opt = nn.Adam(params, lr=0.01)
    for _ in range(3):
        opt.zero_grad()
        with nn.Tape() as tape:
            loss = parser.loss(tokens, gold)
        tape.backward(loss)
        assert np.isfinite(loss.item()) and loss.item() > 100.0
        assert all(np.all(np.isfinite(p.grad)) for p in params)
        opt.step()
    assert all(np.all(np.isfinite(p.data)) for p in params)


@pytest.mark.parametrize("taped", [False, True])
def test_scorer_memory_at_longest_benchmark_document(taped):
    # 211 positions (210 tokens and the root) at the benchmark's d=64, l=32
    m_pos, width, l = 211, 128, 32
    scorer = LabelScorer(width, l, np.random.default_rng(0))
    states = nn.Tensor(np.random.default_rng(1).normal(size=(m_pos, width)))
    gold = TokenHeadAssignment([0] * (m_pos - 1), [PART_OF] * (m_pos - 1))
    pair_tensor = (m_pos - 1) * m_pos * l * 8  # bytes of one (M-1, M, l) array
    tracemalloc.start()
    try:
        if taped:
            with nn.Tape() as tape:
                loss = loss_from_rows(distribution_rows(scorer, states), gold)
            tape.backward(loss)
        else:
            distribution_rows(scorer, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if taped:
        # the four kept tanh arrays, plus less than one more of their size
        assert peak < (N_LABELS + 1) * pair_tensor
    else:
        # row blocks only: never one whole pair tensor
        assert peak < pair_tensor / 2


def test_predict_doc_memory_on_a_long_document():
    """``predict_doc`` keeps one (n+1, n+1, 4) distribution and makes no other
    array of its size: its peak is at most 1.5 times that array, plus the
    repair graph's arrays of about 7 k^2 floats, where k counts the root and
    the greedy output's non-skip tokens (3.0 times before the distribution
    was written in place)."""
    vocab = [f"w{i}" for i in range(50)]
    tokens = [vocab[i] for i in np.random.default_rng(0).integers(0, len(vocab), 875)]
    table = EmbeddingTable.random(vocab, 4, seed=0)
    runner = JointRunner(JointParser(table, TrainConfig(d=4, l=3, seed=1)))
    k = 1 + sum(label != SKIP for label in runner.model.distribution(tokens).greedy().labels)
    distribution = (len(tokens) + 1) ** 2 * N_LABELS * 8
    tracemalloc.start()
    try:
        _, was_tree = runner.predict_doc(tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not was_tree  # an untrained model's greedy output is repaired
    assert peak <= 1.5 * distribution + 7 * k * k * 8
