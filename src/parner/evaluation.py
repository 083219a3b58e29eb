"""Scoring and latency reporting: micro precision/recall/F1, speedups.

Mentions are matched as (label, surface) pairs with multiset semantics by
default: each occurrence must be matched separately, so predicting a
surface once when gold has it twice scores one true positive and one false
negative.  Set semantics (distinct pairs only) are available behind a flag.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from parner.corpus import LabelSet, Mention
from parner.scheduler import DecodeOutcome

__all__ = [
    "EvalError",
    "LabelScore",
    "EvalReport",
    "LatencyStats",
    "micro_f1",
    "latency_stats",
    "speedup",
    "emit_report",
]


class EvalError(ValueError):
    """Raised for inconsistent evaluation inputs (mismatched ids, empty runs)."""


def _prf(tp: int, fp: int, fn: int) -> tuple:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class LabelScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport(LabelScore):
    """Micro-averaged scores plus a per-label breakdown."""

    per_label: Dict[str, LabelScore]


def micro_f1(
    pred: Mapping[str, Sequence[Mention]],
    gold: Mapping[str, Sequence[Mention]],
    labels: LabelSet,
    multiset: bool = True,
) -> EvalReport:
    """Micro precision/recall/F1 over (label, surface) pairs.

    ``pred`` and ``gold`` map document ids to mention lists and must cover
    exactly the same ids.  With ``multiset`` (default) every occurrence
    counts; with set semantics duplicates within a document collapse first.
    All 0/0 ratios resolve to 0.
    """
    if set(pred.keys()) != set(gold.keys()):
        only_pred = sorted(set(pred) - set(gold))[:5]
        only_gold = sorted(set(gold) - set(pred))[:5]
        raise EvalError(
            f"prediction/gold document ids differ (pred-only {only_pred}, gold-only {only_gold})"
        )
    counts: Dict[str, List[int]] = {label: [0, 0, 0] for label in labels}
    for doc_id in gold:
        pred_counter = Counter((m.label, m.text) for m in pred[doc_id])
        gold_counter = Counter((m.label, m.text) for m in gold[doc_id])
        if not multiset:
            pred_counter = Counter(set(pred_counter))
            gold_counter = Counter(set(gold_counter))
        for key in pred_counter.keys() | gold_counter.keys():
            p = pred_counter.get(key, 0)
            g = gold_counter.get(key, 0)
            matched = min(p, g)
            row = counts.setdefault(key[0], [0, 0, 0])
            row[0] += matched
            row[1] += p - matched
            row[2] += g - matched
    per_label: Dict[str, LabelScore] = {}
    for label, (tp, fp, fn) in counts.items():
        precision, recall, f1 = _prf(tp, fp, fn)
        per_label[label] = LabelScore(tp, fp, fn, precision, recall, f1)
    tp = sum(s.tp for s in per_label.values())
    fp = sum(s.fp for s in per_label.values())
    fn = sum(s.fn for s in per_label.values())
    precision, recall, f1 = _prf(tp, fp, fn)
    return EvalReport(tp, fp, fn, precision, recall, f1, per_label)


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate decode cost for one run over one corpus."""

    mean_example_latency_ms: float
    mean_generated_tokens_per_sequence: float
    documents: int
    sequences: int
    generated_tokens: int


def latency_stats(outcomes: Iterable[DecodeOutcome]) -> LatencyStats:
    """Mean example latency and tokens-per-sequence over decode outcomes.

    Tokens per sequence is total generated tokens divided by the total
    number of decoded sequences (count and mention sequences both count).
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise EvalError("no decode outcomes to aggregate")
    sequences = sum(len(o.traces) for o in outcomes)
    tokens = sum(len(tr.result.tokens) for o in outcomes for tr in o.traces)
    return LatencyStats(
        mean_example_latency_ms=statistics.fmean(o.example_latency_ms for o in outcomes),
        mean_generated_tokens_per_sequence=tokens / sequences if sequences else 0.0,
        documents=len(outcomes),
        sequences=sequences,
        generated_tokens=tokens,
    )


def speedup(baseline: LatencyStats, ours: LatencyStats) -> Optional[float]:
    """How many times faster than the baseline this run decoded documents;
    None when this run's mean latency is zero, which leaves it undefined."""
    if ours.mean_example_latency_ms == 0:
        return None
    return baseline.mean_example_latency_ms / ours.mean_example_latency_ms


def _table(title: str, head: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """One markdown section: a heading, a table and a blank line."""
    return [f"## {title}", "", "| " + " | ".join(head) + " |",
            "| " + " | ".join("---" for _ in head) + " |",
            *("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows), ""]


def emit_report(
    evaluation: Optional[EvalReport] = None,
    latency: Optional[Mapping[str, LatencyStats]] = None,
    speedups: Optional[Mapping[str, Optional[float]]] = None,
    f1: Optional[Mapping[str, float]] = None,
) -> str:
    """Render the given report sections as markdown tables, in a fixed order."""
    lines: List[str] = []
    if evaluation is not None:
        lines += _table("Evaluation", ("label", "tp", "fp", "fn", "precision", "recall", "f1"), [
            (label, s.tp, s.fp, s.fn, f"{s.precision:.4f}", f"{s.recall:.4f}", f"{s.f1:.4f}")
            for label, s in [("ALL", evaluation), *evaluation.per_label.items()]
        ])
    if latency is not None:
        lines += _table("Latency", ("run", "mean example latency (ms)", "mean tokens/sequence",
                                    "documents", "sequences"), [
            (name, f"{s.mean_example_latency_ms:.2f}",
             f"{s.mean_generated_tokens_per_sequence:.2f}", s.documents, s.sequences)
            for name, s in latency.items()
        ])
    if speedups is not None:
        lines += _table("Speedup", ("comparison", "factor"),
                        [(name, "n/a" if factor is None else f"{factor:.2f}")
                         for name, factor in speedups.items()])
    if f1 is not None:
        lines += _table("Micro F1", ("run", "f1"),
                        [(name, f"{score:.4f}") for name, score in f1.items()])
    return "\n".join(lines)
