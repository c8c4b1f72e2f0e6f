"""``tools/loader_rate.py``, the harness behind the README's loader figures."""

import importlib.util
from pathlib import Path

import numpy as np

from proptree.embeddings import load_word2vec_binary, load_word2vec_text

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "loader_rate.py"
spec = importlib.util.spec_from_file_location("loader_rate", TOOL)
loader_rate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loader_rate)


def test_the_two_files_hold_the_same_vectors(tmp_path):
    files = loader_rate.write_files(tmp_path, words=7, dim=3)
    text, binary = load_word2vec_text(files["text"]), load_word2vec_binary(files["bin"])
    assert text.vocab == binary.vocab and len(text.vocab) == 8
    # The text file rounds each value to six decimals.
    assert np.allclose(text.matrix[:-1], binary.matrix[:-1], rtol=0, atol=5e-7)


def test_main_prints_a_row_per_format(capsys):
    assert loader_rate.main(["loader_rate.py", str(ROOT / "src")], words=20, dim=3, runs=1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["format", "MB", "median_s", "MB/s", "peak_rss_MB"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["text", "bin"]
    assert all(len(row) == 5 and float(row[2]) > 0 and float(row[4]) > 0 for row in rows)
