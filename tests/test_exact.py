"""``tools/exact.py``, the digests that show two trees train and predict alike."""

import importlib.util
from pathlib import Path

from proptree.cores import SPLIT_ROWS
from proptree.synthetic import SyntheticConfig, generate_corpus

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "exact.py"
spec = importlib.util.spec_from_file_location("exact", TOOL)
exact = importlib.util.module_from_spec(spec)
spec.loader.exec_module(exact)


def test_two_runs_print_the_same_digests(capsys):
    runs = []
    for _ in range(2):
        assert exact.main(["exact.py", str(ROOT / "src")], kinds=("pipeline-crf+ltm",), seeds=(1,),
                          corpus_seeds=()) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0]]
    assert {line[0] for line in lines} == {"pipeline-crf+ltm/-/seed1"}
    assert [line[2] for line in lines if line[1] == "param"] == ["crf.w_emit", "crf.w_trans", "ltm.w"]
    assert sum(line[1] == "checkpoint" for line in lines) >= 2
    assert sum(line[1] == "losses" for line in lines) == 1
    assert sum(line[1] == "predict" for line in lines) == exact.ADS - exact.TRAIN - exact.DEV
    assert all(len(line[-1]) == 64 for line in lines)


def test_joint_runs_print_a_distribution_digest_per_document(capsys):
    """Per test ad, and per joined document long enough to split the scorer's heads."""
    assert exact.main(["exact.py", str(ROOT / "src")], kinds=("joint",), seeds=(1,),
                      corpus_seeds=()) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    runs = {line[0] for line in lines}
    # No attention and each of the six variants, and the early-stopping run.
    assert len(runs) == 8 and "joint/-/seed1/patience1" in runs
    for run in runs:
        kinds = [line[1] for line in lines if line[0] == run]
        documents = exact.ADS - exact.TRAIN - exact.DEV + len(exact.JOINED)
        assert kinds.count("distribution") == kinds.count("predict") == documents
    ads = generate_corpus(SyntheticConfig(n_docs=exact.ADS, seed=exact.CORPUS_SEED, ambiguous=True))
    test = ads[exact.TRAIN + exact.DEV:]
    assert min(sum(len(ad.tokens) for ad in test[a:b]) for a, b in exact.JOINED) >= SPLIT_ROWS


def test_the_codec_prints_an_encode_and_a_decode_digest_per_part(capsys):
    """Every ad, the long documents and three joins of a benchmark corpus; the
    training corpus has no long documents."""
    assert exact.main(["exact.py", str(ROOT / "src")], kinds=(), seeds=(),
                      corpus_seeds=(1, exact.CODEC_SEEDS[-1])) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    joined = [f"joined-{k}" for k in exact.CODEC_JOINED]
    for seed, parts in [(1, ["ads", "long", *joined]), (exact.CODEC_SEEDS[-1], ["ads", *joined])]:
        for step in ("encode", "decode"):
            assert [line[2] for line in lines if line[:2] == [f"codec/seed{seed}", step]] == parts
    assert len(lines) == 2 * 9 and all(len(line[-1]) == 64 for line in lines)
    assert len({line[-1] for line in lines}) == len(lines)


def test_blas_threads_sets_the_childs_variable(tmp_path, capsys):
    """N reaches the child, 1 by default.  The SRC given links to proptree and
    holds a ``sitecustomize`` that prints the variable as the child starts;
    with no kinds, seeds or corpus seeds the child prints nothing else."""
    (tmp_path / "proptree").symlink_to(ROOT / "src" / "proptree")
    (tmp_path / "sitecustomize.py").write_text(
        "import os\nprint('OPENBLAS_NUM_THREADS', os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    for flags, threads in [([], "1"), (["--blas-threads", "2"], "2")]:
        assert exact.main(["exact.py", *flags, str(tmp_path)], kinds=(), seeds=(),
                          corpus_seeds=()) == 0
        assert capsys.readouterr().out.splitlines() == [f"OPENBLAS_NUM_THREADS {threads}"]
