"""Time ``load_embeddings`` on generated word2vec files, one fresh process a run.

Writes a fixed-seed file of 100,000 words of width 50 in each format to a
temporary directory: text with six decimals a value, and ``.bin`` with a
newline after each vector, as word2vec writes it.  Each file is loaded 3
times, each time in a fresh ``python`` whose ``PYTHONPATH`` is SRC.  For each
format it prints the file's MB, the median seconds of the load, MB/s at that
median, and the median peak RSS (``ru_maxrss``) of the loading process, which
includes the interpreter and numpy.  Point SRC at a checkout of another commit
to compare two trees with the same harness.

Usage: python tools/loader_rate.py [SRC]   (SRC defaults to src)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORDS, DIM, RUNS = 100_000, 50, 3

# Prints the load's seconds and the process's peak RSS in KiB (Linux units).
CHILD = """
import resource, sys, time
from proptree.embeddings import load_embeddings
started = time.perf_counter()
load_embeddings(sys.argv[1])
print(time.perf_counter() - started, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def write_files(root: Path, words: int, dim: int) -> dict[str, Path]:
    """A text and a ``.bin`` file of the same ``words`` float32 vectors."""
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((words, dim)).astype(np.float32)
    names = [f"w{i}_{'x' * int(n)}" for i, n in enumerate(rng.integers(0, 8, words))]
    text, binary = root / "vectors.txt", root / "vectors.bin"
    with open(text, "w", encoding="utf-8") as fh:
        fh.write(f"{words} {dim}\n")
        for name, row in zip(names, vectors):
            fh.write(name + " " + " ".join(f"{v:.6f}" for v in row) + "\n")
    with open(binary, "wb") as fh:
        fh.write(f"{words} {dim}\n".encode())
        for name, row in zip(names, vectors):
            fh.write(name.encode() + b" " + row.tobytes() + b"\n")
    return {"text": text, "bin": binary}


def time_load(src: str, path: Path) -> tuple[float, float]:
    """Seconds and peak RSS in MB of one load in a fresh process."""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return float(out[0]), int(out[1]) / 1024


def main(argv: list[str], words: int = WORDS, dim: int = DIM, runs: int = RUNS) -> int:
    src = str(Path(argv[1] if len(argv) > 1 else "src").resolve())
    print(f"{'format':6s}  {'MB':>6s}  {'median_s':>8s}  {'MB/s':>7s}  {'peak_rss_MB':>11s}")
    with tempfile.TemporaryDirectory() as tmp:
        for kind, path in write_files(Path(tmp), words, dim).items():
            mb = path.stat().st_size / 1e6
            seconds, rss = zip(*(time_load(src, path) for _ in range(runs)))
            median = statistics.median(seconds)
            print(f"{kind:6s}  {mb:6.1f}  {median:8.3f}  {mb / median:7.1f}  "
                  f"{statistics.median(rss):11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
