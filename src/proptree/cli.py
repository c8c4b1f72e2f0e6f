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
from .train import (MODEL_KINDS, TrainConfig, load_runner, parse_option, predict_records,
                    score_docs, train_model)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proptree",
        description="Joint mention segmentation and part-of tree parsing, with pipeline baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="validate a JSONL corpus and rewrite it canonically")
    p.set_defaults(run=cmd_convert)
    p.add_argument("input")
    p.add_argument("output")

    syn = SyntheticConfig()
    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.set_defaults(run=cmd_generate)
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, default=syn.n_docs)
    p.add_argument("--seed", type=int, default=syn.seed)
    p.add_argument("--nonprojective-rate", type=float, default=syn.nonprojective_rate)
    p.add_argument("--equivalent-rate", type=float, default=syn.equivalent_rate)
    p.add_argument("--ambiguous", action="store_true", default=syn.ambiguous)

    p = sub.add_parser("split", help="shuffle and cut a corpus into train/dev/test")
    p.set_defaults(run=cmd_split)
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dev-frac", type=float, default=0.15)
    p.add_argument("--test-frac", type=float, default=0.15)

    cfg = TrainConfig()
    p = sub.add_parser("train", help="train a model and persist the best checkpoint")
    p.set_defaults(run=cmd_train)
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--model", default=cfg.model, choices=MODEL_KINDS)
    p.add_argument("--attention", default=cfg.attention, choices=VARIANTS)
    p.add_argument("--embeddings", help="word2vec file; random vectors when omitted")
    p.add_argument("--config", help="key=value override file")
    p.add_argument("--out", required=True, help="output directory")
    # Every default is TrainConfig's own, which any model kind accepts: a kind
    # rejects only a value it does not read that differs from the default.
    # ``train_config`` parses a given value as the config file's are parsed.
    for key in ("steps", "seed", "d", "l", "lr", "dropout", "max_epochs", "patience"):
        p.add_argument(f"--{key.replace('_', '-')}", default=getattr(cfg, key))

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled corpus")
    p.set_defaults(run=cmd_evaluate)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--gold-as-prediction", action="store_true",
                        help="sanity mode: score gold against itself")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="metrics JSON path")

    p = sub.add_parser("predict", help="emit assignments and trees for a corpus")
    p.set_defaults(run=cmd_predict)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="output JSONL path (stdout when omitted)")
    return parser


def _read_overrides(path: str) -> dict[str, object]:
    """The options of a ``key = value`` file, each parsed on its own line."""
    overrides = {}
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = line.decode("utf-8").strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            overrides[key] = parse_option(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
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
    """The flags given to ``train`` and then the ``--config`` file, over the
    defaults.  A flag's default is already typed; a given flag is text.  An
    error that the flags alone do not raise names the ``--config`` file."""
    flags = {k: parse_option(k, v) if isinstance(v, str) else v
             for k, v in vars(args).items() if k in TrainConfig.__dataclass_fields__}
    overrides = _read_overrides(args.config) if args.config else {}
    try:
        return TrainConfig(**flags | overrides)
    except ValueError as exc:
        TrainConfig(**flags)  # raises its own error when the flags alone are at fault
        raise ValueError(f"{args.config}: {exc}") from None


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
    print(f"best epoch: {log.best_epoch} (val F1 {report.overall.f1:.2f}); artifacts in {out}")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
