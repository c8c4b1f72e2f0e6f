"""Time the pipeline CRF's forward-backward and training, one fresh process a run.

Each run is a fresh ``python`` whose ``PYTHONPATH`` is SRC.  It rebuilds the
pipeline benchmark's training ads (``training_ads``), builds a CRF over them
through ``train_crf`` with no epochs, draws its weights from a fixed seed,
and times:

- ``CrfModel._forward_backward`` over every ad's emissions, ``repeats``
  times, as microseconds per document;
- one ``train_crf`` call at the benchmark's settings (lam 10, lr 0.05, seed
  0), in seconds.

It prints the ads, their tokens and the median of each time over ``runs``
runs.  Point SRC at a checkout of another commit to compare two trees with
the same harness.

Usage: python tools/crf_rate.py [SRC]   (SRC defaults to src)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ADS, EPOCHS, REPEATS, RUNS = 120, 10, 5, 5
# The pipeline benchmark's training corpus: its train pool is the front of
# POOL synthetic ads drawn and split at SEED, of which it trains on the first ADS.
POOL, POOL_DEV, SEED = 320, 200, 1_000_000


def training_ads(n: int) -> list:
    """The first ``n`` training ads of the pipeline benchmark, rebuilt with
    the corpus and split that it draws (``n_test`` 0)."""
    from proptree import corpus, synthetic

    docs = synthetic.generate_corpus(synthetic.SyntheticConfig(n_docs=POOL, seed=SEED,
                                                               ambiguous=True))
    train, _, _ = corpus.split_corpus(docs, SEED, dev_frac=(POOL_DEV + 0.5) / POOL,
                                      test_frac=0.5 / POOL)
    return train[:n]


def child(ads: int, epochs: int, repeats: int) -> None:
    """One run: print tokens, microseconds per forward-backward and train_crf seconds."""
    import time

    import numpy as np
    from proptree.pipeline.crf import train_crf

    docs = training_ads(ads)
    # No epochs: the model that training builds over these ads, with its index.
    model = train_crf(docs, lam=10.0, epochs=0, lr=0.05, seed=0)
    rng = np.random.default_rng(0)
    model.w_emit.data[:] = rng.normal(size=model.w_emit.shape)
    model.w_trans.data[:] = rng.normal(size=model.w_trans.shape)
    emits = [model.emissions(model.features(doc.tokens)) for doc in docs]
    started = time.perf_counter()
    for _ in range(repeats):
        for emit in emits:
            model._forward_backward(emit)
    fb_us = (time.perf_counter() - started) / (repeats * len(emits)) * 1e6
    started = time.perf_counter()
    train_crf(docs, lam=10.0, epochs=epochs, lr=0.05, seed=0)
    print(sum(doc.n for doc in docs), fb_us, time.perf_counter() - started)


def time_run(src: str, ads: int, epochs: int, repeats: int) -> tuple[int, float, float]:
    """Tokens, forward-backward microseconds per document and train_crf seconds of one run."""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, __file__, "--child", str(ads), str(epochs), str(repeats)],
                         env=env, check=True, capture_output=True, text=True).stdout.split()
    return int(out[0]), float(out[1]), float(out[2])


def main(argv: list[str], ads: int = ADS, epochs: int = EPOCHS, repeats: int = REPEATS,
         runs: int = RUNS) -> int:
    src = str(Path(argv[1] if len(argv) > 1 else "src").resolve())
    tokens, fb_us, train_s = zip(*(time_run(src, ads, epochs, repeats) for _ in range(runs)))
    print(f"{'ads':>4s}  {'tokens':>6s}  {'epochs':>6s}  {'fb_us_per_doc':>13s}  {'train_crf_s':>11s}")
    print(f"{ads:4d}  {tokens[0]:6d}  {epochs:6d}  {statistics.median(fb_us):13.1f}  "
          f"{statistics.median(train_s):11.3f}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*(int(a) for a in sys.argv[2:5]))
    else:
        sys.exit(main(sys.argv))
