"""Span tracing by wrapping proptree's public functions from outside.

Each wrapped call records one span (layer name, start, end, parent span).
Spans stay in memory until the run ends.  A layer's self time is its spans'
durations minus the time covered by their child spans, so the self times of
all layers plus the benchmark's own root spans add up to the root spans'
wall time exactly.

Names are patched where callers look them up: ``from x import f`` binds ``f``
in the importing module at import time, so e.g. ``repair`` is patched in
``proptree.train`` as well as in ``proptree.mst``.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter
from pathlib import Path

from proptree import data, encoder, joint, metrics, mst, train
from proptree.embeddings import EmbeddingTable
from proptree.nn import autodiff, optim
from proptree.pipeline import crf, edge_models
from proptree.pipeline import predict as pipeline_predict_mod

# Root spans opened by the benchmark itself; their self time is benchmark glue.
ROOT_SETUP = "bench.setup"
ROOT_ROUND = "bench.round"

# Span names of the wrapped layers, in report order; each names a
# ``<layer>.busy_s`` metric.
LAYERS = (
    "embeddings", "encoder", "attention", "joint.scorer", "joint.loss", "joint.greedy",
    "nn.autodiff", "nn.optim", "nn.checkpoint", "mst.build_graph", "mst.cle", "mst",
    "pipeline.crf.train", "pipeline.crf.viterbi", "pipeline.edge_models",
    "pipeline.edge_models.mtt", "pipeline.predict", "metrics", "data", "train",
)

# Counters whose per-round values must repeat exactly for a given commit and seed.
EXACT_COUNTS = (
    "encoder.calls", "encoder.tokens", "nn.autodiff.records", "nn.optim.scalars",
    "mst.arcs", "mst.repair_needed_ratio", "pipeline.edge_models.arc_score_calls",
    "pipeline.predict.arc_score_per_pair",
)


class Tracer:
    """Patches proptree's layer boundaries and records spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._pairs: set = set()
        self._in_pipeline_predict = False
        self._patches: list[tuple[object, str, object]] = []
        self._plan()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrapped(self, fn, name: str, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _plan(self) -> None:
        c = self.counts
        is_tree = mst.is_tree

        def encode_before(_self, tokens, *a, **k):
            c["encoder.calls"] += 1
            c["encoder.tokens"] += len(tokens)

        def backward_before(tape, _loss):
            c["nn.autodiff.backward_calls"] += 1
            c["nn.autodiff.records_total"] += len(tape)

        def step_before(opt):
            c["nn.optim.steps"] += 1
            c["nn.optim.scalars_total"] += sum(p.data.size for p in opt.params)

        def cle_before(graph):
            c["mst.arcs"] += len(graph.weights)

        def repair_before(_dist, greedy):
            c["mst.repair_calls"] += 1
            c["mst.repair_needed"] += not is_tree(greedy)

        def arc_score_before(_self, parent, child, _tokens):
            c["pipeline.edge_models.arc_score_calls"] += 1
            if self._in_pipeline_predict:
                c["pipeline.predict.arc_score_calls"] += 1
                self._pairs.add((None if parent is None else parent.id, child.id))

        def pipeline_predict_before(*_a, **_k):
            self._in_pipeline_predict = True
            self._pairs.clear()

        def pipeline_predict_after(result):
            self._in_pipeline_predict = False
            c["pipeline.predict.pairs"] += len(self._pairs)
            c["mst.repair_calls"] += 1
            c["mst.repair_needed"] += not result[1]

        self._targets = [
            (EmbeddingTable, "lookup", "embeddings", None, None),
            (encoder.Encoder, "encode", "encoder", encode_before, None),
            (joint, "augment", "attention", None, None),
            (joint, "distribution_rows", "joint.scorer", None, None),
            (joint, "loss_from_rows", "joint.loss", None, None),
            (joint.JointDistribution, "greedy", "joint.greedy", None, None),
            (autodiff.Tape, "backward", "nn.autodiff", backward_before, None),
            (optim.Adam, "step", "nn.optim", step_before, None),
            (optim.Adam, "zero_grad", "nn.optim", None, None),
            (train, "save_checkpoint", "nn.checkpoint", None, None),
            (train, "load_checkpoint", "nn.checkpoint", None, None),
            (mst, "build_graph", "mst.build_graph", None, None),
            (mst, "chu_liu_edmonds", "mst.cle", cle_before, None),
            (pipeline_predict_mod, "chu_liu_edmonds", "mst.cle", cle_before, None),
            (train, "repair", "mst", repair_before, None),
            (train, "is_tree", "mst", None, None),
            (mst, "is_tree", "mst", None, None),
            (train, "train_crf", "pipeline.crf.train", None, None),
            (crf.CrfModel, "nll_and_grad", "pipeline.crf.train", None, None),
            (crf.CrfModel, "viterbi", "pipeline.crf.viterbi", None, None),
            (edge_models.MttModel, "arc_score", "pipeline.edge_models", arc_score_before, None),
            (train, "train_mtt", "pipeline.edge_models.mtt", None, None),
            (edge_models, "mtt_log_partition_and_marginals", "pipeline.edge_models.mtt",
             None, None),
            (train, "pipeline_predict", "pipeline.predict",
             pipeline_predict_before, pipeline_predict_after),
            (pipeline_predict_mod, "greedy_entity_parents", "pipeline.predict", None, None),
            (pipeline_predict_mod, "entity_graph", "pipeline.predict", None, None),
            (train, "score_edges", "metrics", None, None),
            (metrics, "score_edges", "metrics", None, None),
            (train, "aggregate", "metrics", None, None),
            (metrics, "aggregate", "metrics", None, None),
            (train, "encode_tree_to_heads", "data", None, None),
            (data, "encode_tree_to_heads", "data", None, None),
            (train, "decode_heads_to_tree", "data", None, None),
            (data, "decode_heads_to_tree", "data", None, None),
            (train, "train_joint", "train", None, None),
            (train, "train_pipeline", "train", None, None),
            (train, "load_runner", "train", None, None),
            (train.JointRunner, "predict_doc", "train", None, None),
            (train.JointRunner, "save", "train", None, None),
            (train.PipelineRunner, "predict_doc", "train", None, None),
        ]

    def install(self) -> None:
        for owner, attr, name, before, after in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrapped(original, name, before, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (root name, span name), summed over all spans."""
        n = len(self.span_start)
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
                root[i] = root[p]
            else:
                root[i] = i
        out: dict[tuple[str, str], float] = {}
        for i in range(n):
            key = (self.names[self.span_name[root[i]]], self.names[self.span_name[i]])
            out[key] = out.get(key, 0.0) + (self.span_end[i] - self.span_start[i]) - child[i]
        return out

    def root_seconds(self, root_name: str) -> list[float]:
        nid = self._name_ids.get(root_name)
        return [self.span_end[i] - self.span_start[i]
                for i in range(len(self.span_start))
                if self.span_parent[i] < 0 and self.span_name[i] == nid]

    def write(self, path: Path) -> None:
        """Write every span as ``index name start end parent`` (tab separated)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\t"
                         f"{self.span_parent[i]}\n")


def round_counts(delta: Counter) -> dict[str, float]:
    """Exact per-round counts and ratios from the counter increments of one round."""
    def ratio(num: str, den: str) -> float:
        return delta[num] / delta[den] if delta[den] else 0.0

    return {
        "encoder.calls": delta["encoder.calls"],
        "encoder.tokens": delta["encoder.tokens"],
        "nn.autodiff.records": ratio("nn.autodiff.records_total", "nn.autodiff.backward_calls"),
        "nn.optim.scalars": ratio("nn.optim.scalars_total", "nn.optim.steps"),
        "mst.arcs": delta["mst.arcs"],
        "mst.repair_needed_ratio": ratio("mst.repair_needed", "mst.repair_calls"),
        "pipeline.edge_models.arc_score_calls": delta["pipeline.edge_models.arc_score_calls"],
        "pipeline.predict.arc_score_per_pair": ratio("pipeline.predict.arc_score_calls",
                                                     "pipeline.predict.pairs"),
    }
