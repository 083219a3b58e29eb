"""Scoring and latency reporting: micro precision/recall/F1, speedups.

Mentions are matched as (label, surface) pairs with multiset semantics by
default: each occurrence must be matched separately, so predicting a
surface once when gold has it twice scores one true positive and one false
negative.  Set semantics (distinct pairs only) are available behind a flag.
"""

from __future__ import annotations

import dataclasses
import json
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
class EvalReport:
    """Micro-averaged scores plus a per-label breakdown."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
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
    tokens = sum(tr.result.generated_token_count for o in outcomes for tr in o.traces)
    return LatencyStats(
        mean_example_latency_ms=statistics.fmean(o.example_latency_ms for o in outcomes),
        mean_generated_tokens_per_sequence=tokens / sequences if sequences else 0.0,
        documents=len(outcomes),
        sequences=sequences,
        generated_tokens=tokens,
    )


def speedup(baseline: LatencyStats, ours: LatencyStats) -> float:
    """How many times faster than the baseline this run decoded documents."""
    if ours.mean_example_latency_ms == 0:
        raise EvalError("cannot compute speedup against zero mean latency")
    return baseline.mean_example_latency_ms / ours.mean_example_latency_ms


def emit_report(
    evaluation: Optional[EvalReport] = None,
    latency: Optional[Mapping[str, LatencyStats]] = None,
    speedups: Optional[Mapping[str, float]] = None,
    fmt: str = "json",
) -> str:
    """Serialize report sections deterministically as JSON or markdown tables."""
    if fmt == "json":
        payload: Dict = {}
        if evaluation is not None:
            payload["evaluation"] = dataclasses.asdict(evaluation)
        if latency is not None:
            payload["latency"] = {name: dataclasses.asdict(s) for name, s in latency.items()}
        if speedups is not None:
            payload["speedup"] = dict(speedups)
        return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if fmt != "markdown":
        raise EvalError(f"unknown report format: {fmt!r}")

    lines: List[str] = []
    if evaluation is not None:
        lines += ["## Evaluation", ""]
        lines += ["| label | tp | fp | fn | precision | recall | f1 |",
                  "| --- | --- | --- | --- | --- | --- | --- |"]
        lines.append(
            f"| ALL | {evaluation.tp} | {evaluation.fp} | {evaluation.fn} "
            f"| {evaluation.precision:.4f} | {evaluation.recall:.4f} | {evaluation.f1:.4f} |"
        )
        for label, s in evaluation.per_label.items():
            lines.append(
                f"| {label} | {s.tp} | {s.fp} | {s.fn} "
                f"| {s.precision:.4f} | {s.recall:.4f} | {s.f1:.4f} |"
            )
        lines.append("")
    if latency is not None:
        lines += ["## Latency", ""]
        lines += ["| run | mean example latency (ms) | mean tokens/sequence | documents | sequences |",
                  "| --- | --- | --- | --- | --- |"]
        for name, s in latency.items():
            lines.append(
                f"| {name} | {s.mean_example_latency_ms:.2f} "
                f"| {s.mean_generated_tokens_per_sequence:.2f} "
                f"| {s.documents} | {s.sequences} |"
            )
        lines.append("")
    if speedups is not None:
        lines += ["## Speedup", ""]
        lines += ["| comparison | factor |", "| --- | --- |"]
        for name, factor in speedups.items():
            lines.append(f"| {name} | {factor:.2f} |")
        lines.append("")
    return "\n".join(lines)
