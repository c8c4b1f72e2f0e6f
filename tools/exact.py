"""Print a sha256 digest of everything that training and prediction produce.

One fresh ``python`` whose ``PYTHONPATH`` is SRC trains every model kind, the
joint kinds with no attention and with each attention variant, at seeds 1
and 2 and a tiny size (d 8, l 4; 2 epochs on 16 synthetic ads, 4 dev ads),
and predicts 8 more ads.  One more joint run, at patience 1, stops early
(``EARLY_STOP``): every epoch's F1 can stop it, so every validation runs in
the training process, and its digests pin that rule.  For each run it prints
one line per digest of:

- each trained parameter's bytes;
- each member of the saved checkpoint;
- the epoch losses, as float hex;
- each document's predicted heads, labels and was-tree flag;
- for the joint kinds, each document's ``JointDistribution.p``, and for the
  pipeline kinds each document's edge-model arc matrix over the entities
  that its CRF tags, so that a 1-ulp change that flips no decision still
  shows.

The joint kinds also predict three documents of joined test ads (60, 74 and
134 tokens), long enough that prediction scores half of the labels on a
second thread when the machine has two CPUs.  The pipeline kinds also predict
every ad joined into one document (``LONG``, 484 tokens), whose 74-87 tagged
entities give 5,476-7,569 candidate arcs: several of the edge models' blocks
(``ARC_BLOCK``), a boundary falling inside one child's arcs.  The child runs with one BLAS
thread by default (``--blas-threads N`` sets its ``OPENBLAS_NUM_THREADS``),
which turns the second-core gate on (``proptree.cores.second_core_allowed``)
on a machine with two CPUs: prediction splits those heads, a pipeline trains
its edge stage in a forked child, and a joint epoch validates in a forked
child beside the next epoch.  Diffing against a parent tree without the gate,
or against ``--blas-threads 2``, where the gate is off, therefore compares
forked training with sequential training.  One BLAS thread also fixes the
bytes: with two, OpenBLAS splits biaffine attention's larger products too, and
the 134-token distribution rounds differently, with or without the split.

Last, it digests the gold-forest codec over the benchmark's corpora
(``perfbench/workloads.py``) at seeds 1, 2 and 1000000 (``CODEC_SEEDS``):
every ad, the pipeline workload's long documents (seeds 1 and 2), and the
first 32, 128 and 512 ads joined into one document each (554-8,776
tokens; the training corpus has 320 ads).  For each part it prints one
digest of the ``encode_tree_to_heads`` heads and labels and one of the
forests ``decode_heads_to_tree`` rebuilds from them.

Two trees train and predict byte for byte alike when their outputs are equal:

    python tools/exact.py OTHER/src > other.txt
    python tools/exact.py > this.txt
    diff other.txt this.txt

Usage: python tools/exact.py [--blas-threads N] [SRC]   (N defaults to 1, SRC to src)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

KINDS = ("joint", "joint-2layer", "pipeline-crf+ltm", "pipeline-crf+mtt")
SEEDS = (1, 2)
# The ads: 16 to train on, 4 to validate on and 8 to predict, from one corpus seed.
ADS, TRAIN, DEV, CORPUS_SEED = 28, 16, 4, 7
# The joined documents, as slices of the 8 test ads.
JOINED = ((0, 4), (4, 8), (0, 8))
# The pipelines' long document: all the ads joined.
LONG = "joined-all"
# The early-stopping joint run: seed, epoch budget and learning rate.  Its
# validation F1 reads 0, 2.63 and 2.63: it stops after 3 of 8 epochs and keeps
# epoch 2, the first of the tied best.
EARLY_STOP = (1, 8, 0.05)
# The benchmark's corpus seeds: its workload seeds 1 and 2 and its training
# seed; and the numbers of leading ads joined into one document each.
CODEC_SEEDS = (1, 2, 1_000_000)
CODEC_JOINED = (32, 128, 512)


def child(kinds: list[str], seeds: list[int]) -> None:
    """Train and predict each run and print its digests, one line each."""
    import hashlib
    import json
    import tempfile
    import zipfile

    from proptree.attention import VARIANTS
    from proptree.pipeline.predict import entities_from_tags
    from proptree.synthetic import SyntheticConfig, generate_corpus
    from proptree.train import TrainConfig, train_model

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    docs = generate_corpus(SyntheticConfig(n_docs=ADS, seed=CORPUS_SEED, ambiguous=True))
    train, dev, test = docs[:TRAIN], docs[TRAIN:TRAIN + DEV], docs[TRAIN + DEV:]
    joined = [(f"joined-{a}-{b}", [t for doc in test[a:b] for t in doc.tokens]) for a, b in JOINED]
    long = [(LONG, [t for doc in docs for t in doc.tokens])]
    runs = []
    for kind in kinds:
        joint = kind.startswith("joint")
        for attention in (None, *VARIANTS) if joint else (None,):
            for seed in seeds:
                options = (dict(d=8, l=4, lr=0.01, patience=2, attention=attention) if joint
                           else dict(lr=0.05))
                runs.append((f"{kind}/{attention or '-'}/seed{seed}",
                             TrainConfig(kind, max_epochs=2, seed=seed, **options)))
    if "joint" in kinds:
        seed, epochs, lr = EARLY_STOP
        runs.append((f"joint/-/seed{seed}/patience1",
                     TrainConfig("joint", d=8, l=4, lr=lr, max_epochs=epochs, patience=1, seed=seed)))
    for run, config in runs:
        runner, log = train_model(config, train, dev, None)
        joint = config.model.startswith("joint")
        for name, p in runner.params_named().items():
            print(run, "param", name, sha(p.data.tobytes()))
        with tempfile.TemporaryDirectory() as tmp:
            runner.save(Path(tmp) / "checkpoint.zip")
            with zipfile.ZipFile(Path(tmp) / "checkpoint.zip") as zf:
                for member in sorted(zf.namelist()):
                    print(run, "checkpoint", member, sha(zf.read(member)))
        losses = " ".join(float(r.loss).hex() for r in log.records)
        print(run, "losses", sha(losses.encode()))
        for doc_id, tokens in [(doc.id, doc.tokens) for doc in test] + (joined if joint else long):
            assignment, was_tree = runner.predict_doc(tokens)
            out = json.dumps([assignment.heads, assignment.labels, was_tree])
            print(run, "predict", doc_id, sha(out.encode()))
            if joint:
                p = runner.model.distribution(tokens).p
                print(run, "distribution", doc_id, sha(p.tobytes()))
            else:
                arcs = runner.edge_model.arc_matrix(entities_from_tags(runner.crf.viterbi(tokens)), tokens)
                print(run, "arcs", doc_id, sha(arcs.tobytes()))


def codec_child(corpus_seeds: list[int]) -> None:
    """Print the codec's encode and decode digests for each part of each corpus."""
    import hashlib
    import json

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from longdocs import draw_ks, join_ads, long_documents
    from workloads import SPECS, TRAIN_SEED, make_corpus

    from proptree.data import decode_heads_to_tree, encode_tree_to_heads

    spec = SPECS["pipeline"]
    for seed in corpus_seeds:
        ks = draw_ks(spec.long_docs, seed, spec.k_min, spec.k_max)
        # As in the workloads, the training seed's corpus has no test ads to make long documents of.
        parts = make_corpus(seed, 0 if seed == TRAIN_SEED else sum(ks))
        ads = [doc for part in parts for doc in part]
        docs = {"ads": ads}
        if parts[2]:
            docs["long"] = long_documents(parts[2], ks, spec.max_tokens)
        docs |= {f"joined-{k}": [join_ads(f"joined-{k}", ads[:k])] for k in CODEC_JOINED}
        for name, part in docs.items():
            golds = [encode_tree_to_heads(doc) for doc in part]
            rebuilt = [decode_heads_to_tree(gold, doc.tokens, doc.id) for gold, doc in zip(golds, part)]
            encoded = json.dumps([[gold.heads, gold.labels] for gold in golds])
            decoded = json.dumps([[doc.id, doc.tokens, [[e.id, e.type, [[m.start, m.end] for m in e.mentions],
                                                          e.parent] for e in doc.entities]]
                                  for doc in rebuilt])
            print(f"codec/seed{seed}", "encode", name, hashlib.sha256(encoded.encode()).hexdigest())
            print(f"codec/seed{seed}", "decode", name, hashlib.sha256(decoded.encode()).hexdigest())


def main(argv: list[str], kinds: tuple[str, ...] = KINDS, seeds: tuple[int, ...] = SEEDS,
         corpus_seeds: tuple[int, ...] = CODEC_SEEDS) -> int:
    parser = argparse.ArgumentParser(description="Print a digest of everything that "
                                                 "training and prediction produce.")
    parser.add_argument("src", nargs="?", default="src", help="the source tree (default: src)")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N",
                        help="the child's OPENBLAS_NUM_THREADS (default: 1)")
    args = parser.parse_args(argv[1:])
    if args.blas_threads < 1:
        parser.error(f"--blas-threads must be positive, got {args.blas_threads}")
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()),
           "OPENBLAS_NUM_THREADS": str(args.blas_threads)}
    out = subprocess.run([sys.executable, __file__, "--child", ",".join(kinds),
                          ",".join(map(str, seeds)), ",".join(map(str, corpus_seeds))],
                         env=env, check=True, capture_output=True, text=True).stdout
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        ints = [[int(s) for s in arg.split(",") if s] for arg in sys.argv[3:5]]
        child([k for k in sys.argv[2].split(",") if k], ints[0])
        codec_child(ints[1])
    else:
        sys.exit(main(sys.argv))
