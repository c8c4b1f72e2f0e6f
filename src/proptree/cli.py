"""Command-line interface.

Subcommands: convert, generate, split, train, evaluate, predict.
Every command exits 0 on success; failures print one ``error: ...`` line to
stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attention import VARIANTS
from .corpus import read_corpus, split_corpus, write_corpus
from .data import Document, TokenHeadAssignment, encode_tree_to_heads
from .embeddings import load_embeddings
from .mst import is_tree
from .synthetic import SyntheticConfig, generate_corpus
from .train import (MODEL_KINDS, TrainConfig, load_runner, predict_records, score_docs,
                    train_model)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proptree",
        description="Joint mention segmentation and part-of tree parsing, with pipeline baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="validate a JSONL corpus and rewrite it canonically")
    p.add_argument("input")
    p.add_argument("output")

    syn = SyntheticConfig()
    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, default=syn.n_docs)
    p.add_argument("--seed", type=int, default=syn.seed)
    p.add_argument("--nonprojective-rate", type=float, default=syn.nonprojective_rate)
    p.add_argument("--equivalent-rate", type=float, default=syn.equivalent_rate)
    p.add_argument("--ambiguous", action="store_true", default=syn.ambiguous)

    p = sub.add_parser("split", help="shuffle and cut a corpus into train/dev/test")
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dev-frac", type=float, default=0.15)
    p.add_argument("--test-frac", type=float, default=0.15)

    cfg = TrainConfig()
    p = sub.add_parser("train", help="train a model and persist the best checkpoint")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--model", default=cfg.model, choices=MODEL_KINDS)
    p.add_argument("--attention", default=cfg.attention, choices=VARIANTS)
    p.add_argument("--steps", type=int, default=cfg.steps, help="edge message-passing rounds")
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--embeddings", help="word2vec file; random vectors when omitted")
    p.add_argument("--config", help="key=value override file")
    p.add_argument("--out", required=True, help="output directory")
    # Every default is TrainConfig's own, which any model kind accepts: a kind
    # rejects only a value it does not read that differs from the default.
    p.add_argument("--d", type=int, default=cfg.d)
    p.add_argument("--l", type=int, default=cfg.l)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--dropout", type=float, default=cfg.dropout)
    p.add_argument("--max-epochs", type=int, default=cfg.max_epochs)
    p.add_argument("--patience", type=int, default=cfg.patience)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--gold-as-prediction", action="store_true",
                        help="sanity mode: score gold against itself")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="metrics JSON path")

    p = sub.add_parser("predict", help="emit assignments and trees for a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="output JSONL path (stdout when omitted)")
    return parser


def _read_overrides(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def cmd_convert(args) -> int:
    docs = read_corpus(args.input)
    write_corpus(args.output, docs)
    print(f"wrote {len(docs)} documents to {args.output}")
    return 0


def cmd_generate(args) -> int:
    fields = SyntheticConfig.__dataclass_fields__
    docs = generate_corpus(SyntheticConfig(**{key: getattr(args, key) for key in fields}))
    write_corpus(args.out, docs)
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


def cmd_split(args) -> int:
    docs = read_corpus(args.input)
    train, dev, test = split_corpus(docs, args.seed, args.dev_frac, args.test_frac)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("dev", dev), ("test", test)):
        write_corpus(out / f"{name}.jsonl", part)
        print(f"{name}: {len(part)} documents")
    return 0


def train_config(args) -> TrainConfig:
    """The flags given to ``train`` and then the ``--config`` file, over the defaults."""
    flags = {key: str(value) for key in TrainConfig.__dataclass_fields__
             if (value := getattr(args, key, None)) is not None}
    return TrainConfig().apply_overrides(flags | _read_overrides(args.config))


def cmd_train(args) -> int:
    config = train_config(args)
    train_docs = read_corpus(args.train_path)
    dev_docs = read_corpus(args.dev_path) if args.dev_path else []
    table = load_embeddings(args.embeddings) if args.embeddings else None

    runner, log = train_model(config, train_docs, dev_docs, table)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner.save(out / "checkpoint.zip")
    (out / "trainlog.csv").write_text(log.to_csv())
    report = log.best_report
    (out / "metrics.json").write_text(report.dumps() + "\n")
    print(report.to_table())
    print(f"best epoch: {log.best_epoch} (val F1 {log.best_f1:.2f}); artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    docs = read_corpus(args.data)
    if not docs:
        raise ValueError(f"{args.data}: no labeled documents")
    if args.gold_as_prediction:
        report = score_docs(docs, _gold_prediction)
    else:
        report = load_runner(args.checkpoint).evaluate(docs)
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.dumps() + "\n")
    return 0


def _gold_prediction(doc: Document) -> tuple[TokenHeadAssignment, bool]:
    gold = encode_tree_to_heads(doc)
    return gold, is_tree(gold)


def cmd_predict(args) -> int:
    runner = load_runner(args.checkpoint)
    docs = read_corpus(args.data)
    lines = [json.dumps(rec, ensure_ascii=False) for rec in predict_records(runner, docs)]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "convert": cmd_convert,
    "generate": cmd_generate,
    "split": cmd_split,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
