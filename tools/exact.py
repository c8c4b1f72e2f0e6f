"""Print a sha256 digest of everything that training and prediction produce.

One fresh ``python`` whose ``PYTHONPATH`` is SRC trains every model kind, the
joint kinds with no attention and with each attention variant, at seeds 1
and 2 and a tiny size (d 8, l 4; 2 epochs on 16 synthetic ads, 4 dev ads),
and predicts 8 more ads.  For each run it prints one line per digest of:

- each trained parameter's bytes;
- each member of the saved checkpoint;
- the epoch losses, as float hex;
- each document's predicted heads, labels and was-tree flag;
- for the joint kinds, each document's ``JointDistribution.p``, so that a
  1-ulp change that flips no decision still shows.

Two trees train and predict byte for byte alike when their outputs are equal:

    python tools/exact.py OTHER/src > other.txt
    python tools/exact.py > this.txt
    diff other.txt this.txt

Usage: python tools/exact.py [SRC]   (SRC defaults to src)
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

KINDS = ("joint", "joint-2layer", "pipeline-crf+ltm", "pipeline-crf+mtt")
SEEDS = (1, 2)
# The ads: 16 to train on, 4 to validate on and 8 to predict, from one corpus seed.
ADS, TRAIN, DEV, CORPUS_SEED = 28, 16, 4, 7


def child(kinds: list[str], seeds: list[int]) -> None:
    """Train and predict each run and print its digests, one line each."""
    import hashlib
    import json
    import tempfile
    import zipfile

    from proptree.attention import VARIANTS
    from proptree.synthetic import SyntheticConfig, generate_corpus
    from proptree.train import TrainConfig, train_model

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    docs = generate_corpus(SyntheticConfig(n_docs=ADS, seed=CORPUS_SEED, ambiguous=True))
    train, dev, test = docs[:TRAIN], docs[TRAIN:TRAIN + DEV], docs[TRAIN + DEV:]
    for kind in kinds:
        joint = kind.startswith("joint")
        for attention in (None, *VARIANTS) if joint else (None,):
            for seed in seeds:
                options = (dict(d=8, l=4, lr=0.01, patience=2, attention=attention) if joint
                           else dict(lr=0.05))
                runner, log = train_model(TrainConfig(kind, max_epochs=2, seed=seed, **options),
                                          train, dev, None)
                run = f"{kind}/{attention or '-'}/seed{seed}"
                for name, p in runner.params_named().items():
                    print(run, "param", name, sha(p.data.tobytes()))
                with tempfile.TemporaryDirectory() as tmp:
                    runner.save(Path(tmp) / "checkpoint.zip")
                    with zipfile.ZipFile(Path(tmp) / "checkpoint.zip") as zf:
                        for member in sorted(zf.namelist()):
                            print(run, "checkpoint", member, sha(zf.read(member)))
                losses = " ".join(float(r.loss).hex() for r in log.records)
                print(run, "losses", sha(losses.encode()))
                for doc in test:
                    assignment, was_tree = runner.predict_doc(doc.tokens)
                    out = json.dumps([assignment.heads, assignment.labels, was_tree])
                    print(run, "predict", doc.id, sha(out.encode()))
                    if joint:
                        p = runner.model.distribution(doc.tokens).p
                        print(run, "distribution", doc.id, sha(p.tobytes()))


def main(argv: list[str], kinds: tuple[str, ...] = KINDS, seeds: tuple[int, ...] = SEEDS) -> int:
    src = str(Path(argv[1] if len(argv) > 1 else "src").resolve())
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, __file__, "--child", ",".join(kinds),
                          ",".join(map(str, seeds))],
                         env=env, check=True, capture_output=True, text=True).stdout
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2].split(","), [int(s) for s in sys.argv[3].split(",")])
    else:
        sys.exit(main(sys.argv))
