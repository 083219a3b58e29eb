"""Micro-F1 scoring, latency aggregation, speedups and report output."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from parner.corpus import LabelSet, Mention
from parner.evaluation import (
    EvalError,
    LatencyStats,
    emit_report,
    latency_stats,
    micro_f1,
    speedup,
)
from parner.scheduler import DecodeOutcome, SequenceTrace
from conftest import completion


class TestMicroF1:
    def test_perfect_prediction(self, labels, cuttitta):
        _, gold = cuttitta
        report = micro_f1({"d0": gold.mentions}, {"d0": gold.mentions}, labels)
        assert (report.tp, report.fp, report.fn) == (4, 0, 0)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_worked_partial_credit(self, labels):
        pred = {"d": [Mention("LOC", "Italy")]}
        gold = {"d": [Mention("LOC", "Italy"), Mention("MISC", "1995 World Cup")]}
        report = micro_f1(pred, gold, labels)
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)

    def test_label_mismatch_is_both_fp_and_fn(self, labels):
        pred = {"d": [Mention("MISC", "Italy")]}
        gold = {"d": [Mention("LOC", "Italy")]}
        report = micro_f1(pred, gold, labels)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)
        assert report.f1 == 0.0

    def test_empty_both_scores_zero(self, labels):
        report = micro_f1({"d": []}, {"d": []}, labels)
        assert (report.tp, report.fp, report.fn) == (0, 0, 0)
        assert report.precision == report.recall == report.f1 == 0.0

    def test_multiset_counts_each_occurrence(self, labels):
        gold = {"d": [Mention("LOC", "Italy"), Mention("LOC", "Italy")]}
        pred = {"d": [Mention("LOC", "Italy")]}
        report = micro_f1(pred, gold, labels)
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)

    def test_set_semantics_collapse_duplicates(self, labels):
        gold = {"d": [Mention("LOC", "Italy"), Mention("LOC", "Italy")]}
        pred = {"d": [Mention("LOC", "Italy")]}
        report = micro_f1(pred, gold, labels, multiset=False)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)
        assert report.f1 == 1.0

    def test_per_label_breakdown_sums_to_totals(self, labels):
        pred = {"d": [Mention("LOC", "Italy"), Mention("PER", "Moret")],
                "e": [Mention("ORG", "FIFA")]}
        gold = {"d": [Mention("LOC", "Italy"), Mention("PER", "Cuttitta")],
                "e": []}
        report = micro_f1(pred, gold, labels)
        assert sum(s.tp for s in report.per_label.values()) == report.tp
        assert sum(s.fp for s in report.per_label.values()) == report.fp
        assert sum(s.fn for s in report.per_label.values()) == report.fn
        assert report.per_label["LOC"].f1 == 1.0
        assert report.per_label["PER"].tp == 0
        assert report.per_label["MISC"].tp == 0  # present even when unused

    def test_mismatched_ids_rejected(self, labels):
        with pytest.raises(EvalError) as err:
            micro_f1({"a": []}, {"b": []}, labels)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_matches_brute_force(self, labels):
        """Pairwise greedy matching equals the counter formulation."""
        rng = random.Random(1234)
        surfaces = ["Italy", "England", "Villa", "FIFA"]
        pool = list(labels)
        for _ in range(200):
            docs = [f"d{i}" for i in range(rng.randrange(1, 4))]
            pred = {d: [Mention(rng.choice(pool), rng.choice(surfaces))
                        for _ in range(rng.randrange(0, 5))] for d in docs}
            gold = {d: [Mention(rng.choice(pool), rng.choice(surfaces))
                        for _ in range(rng.randrange(0, 5))] for d in docs}
            report = micro_f1(pred, gold, labels)
            tp = fp = fn = 0
            for d in docs:
                remaining = Counter((m.label, m.text) for m in gold[d])
                for m in pred[d]:
                    key = (m.label, m.text)
                    if remaining[key] > 0:
                        remaining[key] -= 1
                        tp += 1
                    else:
                        fp += 1
                fn += sum(remaining.values())
            assert (report.tp, report.fp, report.fn) == (tp, fp, fn)


def _outcome(doc_id: str, latency: float, token_counts) -> DecodeOutcome:
    traces = []
    for i, n in enumerate(token_counts):
        c = completion("a" * n, tokens=["a"] * n) if n else completion("", tokens=[])
        traces.append(SequenceTrace(
            seq_id=f"{doc_id}/{i}", label=None, kind="count", mention_index=None,
            result=c, latency_ms=latency,
        ))
    return DecodeOutcome(
        doc_id=doc_id, raw_mentions=[], traces=traces,
        example_latency_ms=latency, step1_batch_size=len(token_counts),
        step2_batch_size=0, defects=[],
    )


class TestLatencyStats:
    def test_aggregates(self):
        outcomes = [
            _outcome("a", 30.0, [2, 3]),
            _outcome("b", 34.0, [1]),
            _outcome("c", 32.0, [4, 2, 0]),
        ]
        stats = latency_stats(outcomes)
        assert stats.mean_example_latency_ms == pytest.approx(32.0)
        assert stats.documents == 3
        assert stats.sequences == 6
        assert stats.generated_tokens == 12
        assert stats.mean_generated_tokens_per_sequence == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            latency_stats([])

    def test_speedup(self):
        slow = LatencyStats(1630.62, 35.54, 10, 10, 100)
        fast = LatencyStats(159.57, 4.86, 10, 10, 100)
        assert speedup(slow, fast) == pytest.approx(10.218, abs=0.005)
        assert speedup(slow, slow) == 1.0

    def test_speedup_zero_denominator(self):
        zero = LatencyStats(0.0, 0.0, 1, 1, 0)
        assert speedup(zero, zero) is None
        assert speedup(zero, LatencyStats(2.0, 0.0, 1, 1, 0)) == 0.0


class TestEmitReport:
    @pytest.fixture
    def small_report(self, labels):
        pred = {"d": [Mention("LOC", "Italy")]}
        gold = {"d": [Mention("LOC", "Italy"), Mention("MISC", "1995 World Cup")]}
        return micro_f1(pred, gold, labels)

    def test_sections_optional(self):
        assert emit_report() == ""

    def test_markdown_tables(self, small_report):
        stats = {"pair-multi": LatencyStats(159.57, 4.86, 20, 80, 389)}
        text = emit_report(small_report, stats, {"autoreg-struct/pair-multi": 10.218},
                           {"pair-multi": 0.98765, "autoreg-struct": 1.0})
        assert "## Evaluation" in text
        assert "| ALL | 1 | 0 | 1 | 1.0000 | 0.5000 | 0.6667 |" in text
        assert "| LOC | 1 | 0 | 0 | 1.0000 | 1.0000 | 1.0000 |" in text
        assert "## Latency" in text
        assert "| pair-multi | 159.57 | 4.86 | 20 | 80 |" in text
        assert "## Speedup" in text
        assert "| autoreg-struct/pair-multi | 10.22 |" in text
        assert text.endswith("## Micro F1\n\n| run | f1 |\n| --- | --- |\n"
                             "| pair-multi | 0.9877 |\n| autoreg-struct | 1.0000 |\n")
