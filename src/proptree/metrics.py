"""Edge-level precision/recall/F1 and the tree-rate diagnostic.

A predicted (dependent, head, label) triple counts as a true positive only
when the identical triple exists in gold.  The headline score is the
micro-averaged F1 over the two structured labels (segment, part-of);
equivalent arcs are scored as a separate diagnostic and skip arcs are never
scored.  Tree-rate is the share of documents whose greedy output already
forms a valid arborescence before any repair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .data import ARC_LABELS, EQUIVALENT, LABEL_NAMES, STRUCTURED_LABELS, TokenHeadAssignment


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, other: "Counts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn

    @property
    def precision(self) -> float:
        return 100.0 * self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


def score_edges(predicted: TokenHeadAssignment, gold: TokenHeadAssignment) -> dict[int, Counts]:
    """Per-label exact-triple counts for one document."""
    if predicted.n != gold.n:
        raise ValueError(f"predicted covers {predicted.n} tokens, gold covers {gold.n}")
    pred, ref = predicted.triples(), gold.triples()
    out = {}
    for label in ARC_LABELS:
        p = {t for t in pred if t[2] == label}
        g = {t for t in ref if t[2] == label}
        out[label] = Counts(tp=len(p & g), fp=len(p - g), fn=len(g - p))
    return out


@dataclass
class MetricsReport:
    per_label: dict[int, Counts] = field(default_factory=dict)
    tree_rate: float = 0.0
    n_docs: int = 0

    @property
    def overall(self) -> Counts:
        total = Counts()
        for label in STRUCTURED_LABELS:
            total.add(self.per_label[label])
        return total

    def to_json(self) -> dict:
        def block(c: Counts) -> dict:
            return {
                "precision": round(c.precision, 2), "recall": round(c.recall, 2),
                "f1": round(c.f1, 2), "tp": c.tp, "fp": c.fp, "fn": c.fn,
            }

        return {
            "labels": {LABEL_NAMES[k]: block(c) for k, c in sorted(self.per_label.items())},
            "overall_f1": round(self.overall.f1, 2),
            "tree_rate": round(self.tree_rate, 2),
            "n_docs": self.n_docs,
        }

    def to_table(self) -> str:
        header = f"{'label':<12}{'P':>8}{'R':>8}{'F1':>8}"
        lines = [header, "-" * len(header)]
        rows = [(LABEL_NAMES[k], self.per_label[k]) for k in STRUCTURED_LABELS]
        rows += [("overall", self.overall), ("equivalent*", self.per_label[EQUIVALENT])]
        for name, c in rows:
            lines.append(f"{name:<12}{c.precision:>8.2f}{c.recall:>8.2f}{c.f1:>8.2f}")
        lines.append(f"{'trees %':<12}{self.tree_rate:>8.2f}  (docs: {self.n_docs})")
        lines.append("* diagnostic only; excluded from overall")
        return "\n".join(lines)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def aggregate(doc_counts: list[dict[int, Counts]], tree_flags: list[bool]) -> MetricsReport:
    """Micro-average per-document counts; tree_flags mark valid greedy trees."""
    if not doc_counts:
        raise ValueError("cannot aggregate an empty corpus")
    if len(doc_counts) != len(tree_flags):
        raise ValueError(f"{len(doc_counts)} count sets vs {len(tree_flags)} tree flags")
    totals = {label: Counts() for label in ARC_LABELS}
    for counts in doc_counts:
        for label in ARC_LABELS:
            totals[label].add(counts[label])
    rate = 100.0 * sum(tree_flags) / len(tree_flags)
    return MetricsReport(per_label=totals, tree_rate=rate, n_docs=len(doc_counts))
