"""The benchmark's span tracer patches proptree functions and methods by name.

Renaming or removing one of them breaks ``perfbench/run.py --trace 1``; these
tests fail first.  A trainer called under a name the tracer does not patch
would hand its time to the caller's layer, so a traced pipeline run must
still see both of its training stages.
"""

import sys
from collections import Counter
from pathlib import Path

from proptree import train
from proptree.synthetic import SyntheticConfig, generate_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer()


def test_tracer_installs_and_uninstalls():
    t = tracer()
    t.install()
    t.uninstall()


def test_tracer_sees_both_pipeline_training_stages():
    docs = generate_corpus(SyntheticConfig(n_docs=6, seed=1))
    t = tracer()
    t.install()
    try:
        # Looked up at call time, as the benchmark does, so the patched name is called.
        train.train_pipeline(train.TrainConfig(model="pipeline-crf+mtt", lr=0.05, max_epochs=1),
                             docs)
    finally:
        t.uninstall()
    seconds = {}
    for (_, name), s in t.self_times().items():
        seconds[name] = seconds.get(name, 0.0) + s
    assert seconds.get("pipeline.crf.train", 0.0) > 0.0
    assert seconds.get("pipeline.edge_models.mtt", 0.0) > 0.0
    # Each stage's trainer is one span right under ``train_pipeline``, holding
    # the scoring calls; unpatched, each scoring call would sit there instead.
    assert t.names[t.span_name[0]] == "train"
    stages = Counter(t.names[t.span_name[i]] for i, parent in enumerate(t.span_parent)
                     if parent == 0)
    assert stages["pipeline.crf.train"] == stages["pipeline.edge_models.mtt"] == 1
