"""``tools/crf_rate.py``, the harness behind the README's CRF figures."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "crf_rate.py"
spec = importlib.util.spec_from_file_location("crf_rate", TOOL)
crf_rate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(crf_rate)


def test_the_ads_are_the_pipeline_benchmarks_training_ads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    train_docs = workloads.make_corpus(workloads.TRAIN_SEED, 0)[0]
    ads = workloads.SPECS["pipeline"].train_docs
    assert crf_rate.training_ads(ads) == train_docs[:ads]
    assert (ads, crf_rate.POOL) == (crf_rate.ADS, workloads.POOL_TRAIN + workloads.POOL_DEV)


def test_main_prints_a_row_at_a_tiny_size(capsys):
    assert crf_rate.main(["crf_rate.py", str(ROOT / "src")], ads=3, epochs=1, repeats=1, runs=1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["ads", "tokens", "epochs", "fb_us_per_doc", "train_crf_s"]
    row = lines[1].split()
    assert row[0] == "3" and row[2] == "1" and int(row[1]) > 3
    assert float(row[3]) > 0 and float(row[4]) > 0
