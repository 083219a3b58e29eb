"""Rewriting an annotated corpus into per-sequence training examples.

The pair format emits one example per (label, mention index): every example
of a label repeats the same mention count, and a label with no mentions
trains an immediate end-of-sequence.  The baseline formats emit one example
per document (aug, struct) or per label (onestep).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from parner.backends.base import simple_tokenize
from parner.corpus import Document, GoldAnnotation, LabelSet
from parner.templates import (
    PromptTemplate,
    TemplateError,
    build_autoreg_prompt,
    build_count_prompt,
    build_mention_prompt,
    build_onestep_prompt,
    count_answer,
    emit_aug,
    emit_onestep,
    emit_struct,
    mention_marker,
)

__all__ = [
    "FORMATS",
    "TrainingExample",
    "ReformulationResult",
    "generate_pair_examples",
    "generate_baseline_examples",
    "reformulate_corpus",
    "corpus_stats",
]

FORMATS = ("pair", "aug", "struct", "onestep")


@dataclass(frozen=True)
class TrainingExample:
    """One (input, output) training pair for a single decoding sequence.

    ``marker_span`` is the character range of the mention-index marker
    inside ``output``; trainers can mask it out of the loss.  It is None
    for formats without a marker and for zero-mention examples.
    """

    input: str
    output: str
    format: str
    doc_id: str
    label: Optional[str] = None
    mention_index: Optional[int] = None
    mention_count: Optional[int] = None
    marker_span: Optional[Tuple[int, int]] = None

    def to_json_dict(self) -> Dict:
        return {
            "input": self.input,
            "output": self.output,
            "meta": {
                "format": self.format,
                "doc_id": self.doc_id,
                "label": self.label,
                "mention_index": self.mention_index,
                "mention_count": self.mention_count,
                "marker_span": list(self.marker_span) if self.marker_span else None,
            },
        }


def generate_pair_examples(
    doc: Document,
    gold: GoldAnnotation,
    labels: LabelSet,
    t: PromptTemplate,
) -> List[TrainingExample]:
    """Two-step examples for one document: one per (label, mention index).

    For a label with m > 0 mentions, all m examples share the count prompt
    as input and each output repeats the count before its own indexed
    mention (gold source order).  A label with no mentions yields a single
    example whose output is the end-of-sequence literal alone, so the total
    is sum over labels of max(1, m).
    """
    examples: List[TrainingExample] = []
    for label, mentions in gold.by_label(labels).items():
        common = dict(input=build_count_prompt(doc, labels.surface(label), t), format="pair",
                      doc_id=doc.id, label=label, mention_count=len(mentions))
        if not mentions:
            examples.append(TrainingExample(output="".join(count_answer(0, t)), **common))
        for idx, mention in enumerate(mentions, start=1):
            head = build_mention_prompt("", len(mentions), idx, t)
            examples.append(TrainingExample(
                output=head + mention.text, mention_index=idx,
                marker_span=(len(head) - len(mention_marker(idx, t)), len(head)), **common))
    return examples


def generate_baseline_examples(
    doc: Document,
    gold: GoldAnnotation,
    labels: LabelSet,
    fmt: str,
    t: PromptTemplate,
) -> List[TrainingExample]:
    """Baseline examples for one document in the aug, struct or onestep format.

    aug and struct yield one example per document; onestep yields one per
    label (an empty label serializes as the empty JSON list).

    Raises:
        TemplateError: for an unknown format, or (aug only) when a mention
            surface does not occur verbatim in the document text; callers
            doing corpus-level generation should skip and report such docs.
    """
    if fmt in ("aug", "struct"):
        output = (emit_aug(doc, gold, labels) if fmt == "aug"
                  else emit_struct(gold.by_label(labels), labels))
        return [TrainingExample(
            input=build_autoreg_prompt(doc, fmt, labels, t),
            output=output,
            format=fmt,
            doc_id=doc.id,
            mention_count=len(gold.mentions),
        )]
    if fmt == "onestep":
        return [
            TrainingExample(
                input=build_onestep_prompt(doc, labels.surface(label), t),
                output=emit_onestep(mentions),
                format="onestep",
                doc_id=doc.id,
                label=label,
                mention_count=len(mentions),
            )
            for label, mentions in gold.by_label(labels).items()
        ]
    raise TemplateError(f"unknown training format: {fmt!r}")


@dataclass
class ReformulationResult:
    """Corpus-level generation output plus per-document skips."""

    examples: List[TrainingExample]
    skipped: List[Tuple[str, str]]  # (doc_id, reason)


def reformulate_corpus(
    pairs: Iterable[Tuple[Document, GoldAnnotation]],
    fmt: str,
    labels: LabelSet,
    t: PromptTemplate,
) -> ReformulationResult:
    """Generate training examples for a whole corpus in one format.

    Documents where the format is unbuildable (aug with a non-substring
    mention) are skipped and reported rather than failing the run.
    """
    if fmt not in FORMATS:
        raise TemplateError(f"unknown training format: {fmt!r}")
    examples: List[TrainingExample] = []
    skipped: List[Tuple[str, str]] = []
    for doc, gold in pairs:
        try:
            if fmt == "pair":
                examples.extend(generate_pair_examples(doc, gold, labels, t))
            else:
                examples.extend(generate_baseline_examples(doc, gold, labels, fmt, t))
        except TemplateError as exc:
            skipped.append((doc.id, str(exc)))
    return ReformulationResult(examples=examples, skipped=skipped)


def _length_summary(lengths: List[int]) -> Dict[str, float]:
    """Mean, median, 95th percentile and maximum of a non-empty list."""
    ordered = sorted(lengths)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * (len(ordered) - 1) + 0.5))]
    return {
        "mean": statistics.fmean(lengths),
        "p50": statistics.median(ordered),
        "p95": float(p95),
        "max": max(ordered),
    }


def corpus_stats(examples: Iterable[TrainingExample]) -> Dict:
    """Per-format example counts and output-length summaries.

    Lengths are reported in characters and in ``simple_tokenize`` tokens.
    """
    by_format: Dict[str, List[TrainingExample]] = {}
    total = 0
    for ex in examples:
        by_format.setdefault(ex.format, []).append(ex)
        total += 1
    report: Dict = {"total_examples": total, "per_format": {}}
    for fmt in sorted(by_format):
        group = by_format[fmt]
        report["per_format"][fmt] = {
            "examples": len(group),
            "output_chars": _length_summary([len(ex.output) for ex in group]),
            "output_tokens": _length_summary(
                [len(simple_tokenize(ex.output)) for ex in group]),
        }
    return report
