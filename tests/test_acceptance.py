"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints an explicit ``[criterion N] PASS`` line
(visible with ``-rA`` or ``-s``).  Tolerances are pinned in the asserts.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from parner.backends import CostModel, ErrorInjection, OracleBackend
from parner.cli import main
from parner.corpus import (
    Document,
    GoldAnnotation,
    LabelSet,
    Mention,
    emit_spans_json,
    parse_spans_json,
)
from parner.dedup import deduplicate
from parner.evaluation import LatencyStats, latency_stats, micro_f1, speedup
from parner.reformulate import generate_pair_examples
from parner.scheduler import decode_document, run_corpus, span_probability
from parner.synthetic import make_corpus
from parner.templates import (
    emit_aug,
    emit_onestep,
    emit_struct,
    parse_augmented,
    parse_onestep,
    parse_structured,
)
from conftest import (
    ScriptedBackend,
    TRACE_EXPECTED_EXAMPLE_LATENCY,
    completion,
    two_step_fixture_entries,
)
from helpers import mention_multiset


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def _duplicate_surface_oracle(cuttitta, labels, template, **kwargs):
    """Oracle that miscounts MISC and fabricates a second, duplicate 'Italy'."""
    errors = ErrorInjection(
        forced_counts={("d0", "MISC"): 2},
        forced_mentions={("d0", "MISC", 2): "Italy"},
    )
    return OracleBackend([cuttitta], labels, template, errors=errors, **kwargs)


def test_criterion_01_reformulation_of_worked_document(cuttitta, labels, template):
    with criterion(1, "worked document reformulates into exactly five sequences"):
        doc, gold = cuttitta
        start = time.perf_counter()
        examples = generate_pair_examples(doc, gold, labels, template)
        elapsed = time.perf_counter() - start

        assert len(examples) == 5
        by_label = {}
        for ex in examples:
            by_label.setdefault(ex.label, []).append(ex)
        assert [ex.output for ex in by_label["PER"]] == ["1\n<mention 1>Cuttitta"]
        assert [ex.output for ex in by_label["MISC"]] == ["1\n<mention 1>1995 World Cup"]
        assert [ex.output for ex in by_label["LOC"]] == [
            "2\n<mention 1>Italy", "2\n<mention 2>England",
        ]
        assert by_label["LOC"][0].input == by_label["LOC"][1].input
        assert [ex.output for ex in by_label["ORG"]] == ["<eos>"]
        assert elapsed < 1.0


def test_criterion_02_noiseless_decode_is_lossless(labels, template):
    with criterion(2, "noiseless oracle decode scores micro-F1 = 1.0 in three modes"):
        start = time.perf_counter()
        pairs = make_corpus(200, labels, seed=17, max_mentions_per_label=3)
        oracle = OracleBackend(pairs, labels, template)
        docs = [doc for doc, _ in pairs]
        gold = {doc.id: ann.mentions for doc, ann in pairs}
        for mode in ("pair-multi", "onestep", "autoreg-struct"):
            outcomes = run_corpus(docs, labels, oracle, template, mode, parallelism=8)
            pred = {
                o.doc_id: deduplicate(o.raw_mentions, labels)
                for o in outcomes
            }
            report = micro_f1(pred, gold, labels)
            assert report.f1 == 1.0, f"mode {mode}: f1 {report.f1}"
            assert report.fp == 0 and report.fn == 0
        assert time.perf_counter() - start < 10.0


def test_criterion_03_probability_dedup_resolves_duplicates(cuttitta, labels, template):
    with criterion(3, "duplicate surface resolves by probability under all policies"):
        doc, _ = cuttitta
        oracle = _duplicate_surface_oracle(cuttitta, labels, template)
        outcome = decode_document(doc, labels, oracle, template, "pair-multi")

        raw = {(m.label, m.text) for m in outcome.raw_mentions}
        assert ("LOC", "Italy") in raw and ("MISC", "Italy") in raw
        probs = {(m.label, m.text): m.probability for m in outcome.raw_mentions}
        assert probs[("MISC", "Italy")] < probs[("LOC", "Italy")]

        def mentions_under(mode):
            kept = deduplicate(outcome.raw_mentions, labels, mode)
            return {(m.label, m.text) for m in kept}

        base = {("PER", "Cuttitta"), ("MISC", "1995 World Cup"), ("LOC", "England")}
        assert mentions_under("keep-max") == base | {("LOC", "Italy")}
        assert mentions_under("reverse") == base | {("MISC", "Italy")}
        assert mentions_under("off") == base | {("LOC", "Italy"), ("MISC", "Italy")}


def test_criterion_04_latency_attribution_and_batch_sizes(cuttitta, labels, template):
    with criterion(4, "slowest-path latency is exact and batch sizes are 4 then 5"):
        doc, _ = cuttitta
        scripted = ScriptedBackend(two_step_fixture_entries(doc, labels, template))
        outcome = decode_document(doc, labels, scripted, template, "pair-multi")
        assert outcome.example_latency_ms == TRACE_EXPECTED_EXAMPLE_LATENCY  # 11 + 22

        oracle = _duplicate_surface_oracle(cuttitta, labels, template)
        batched = decode_document(doc, labels, oracle, template, "pair-batch")
        assert batched.step1_batch_size == 4
        assert batched.step2_batch_size == 5


def test_criterion_05_sequences_stay_short(labels, template):
    with criterion(5, "two-step sequences are the shortest of the four formats"):
        start = time.perf_counter()
        pairs = make_corpus(60, labels, seed=23)
        oracle = OracleBackend(pairs, labels, template)
        docs = [doc for doc, _ in pairs]
        mean_tokens = {}
        for mode in ("pair-multi", "onestep", "autoreg-struct", "autoreg-aug"):
            outcomes = run_corpus(docs, labels, oracle, template, mode, parallelism=8)
            mean_tokens[mode] = latency_stats(outcomes).mean_generated_tokens_per_sequence
        assert mean_tokens["pair-multi"] < mean_tokens["onestep"]
        assert mean_tokens["onestep"] < mean_tokens["autoreg-struct"]
        assert mean_tokens["autoreg-struct"] < mean_tokens["autoreg-aug"]
        ratio = mean_tokens["pair-multi"] / mean_tokens["autoreg-struct"]
        assert ratio < 0.25, f"pair/struct token ratio {ratio:.3f}"
        assert time.perf_counter() - start < 30.0


def test_criterion_06_speedup_arithmetic_and_ordering(labels, template):
    with criterion(6, "speedup arithmetic is exact and latency ordering holds"):
        # pinned sequence-length means under a pure per-token cost (10 ms/token)
        autoreg = LatencyStats(355.4, 35.54, 100, 100, 3554)
        two_step = LatencyStats(48.6, 4.86, 100, 645, 3135)
        assert speedup(autoreg, two_step) == pytest.approx(7.31, abs=0.01)

        cost = CostModel(ms_per_token=10.0, fixed_overhead_ms=25.0,
                         batch_penalty_alpha=0.05)
        pairs = make_corpus(40, labels, seed=29)
        oracle = OracleBackend(pairs, labels, template, cost=cost)
        docs = [doc for doc, _ in pairs]
        means = {}
        for mode in ("pair-multi", "pair-batch", "autoreg-struct"):
            outcomes = run_corpus(docs, labels, oracle, template, mode, parallelism=8)
            means[mode] = latency_stats(outcomes).mean_example_latency_ms
        assert means["pair-multi"] < means["pair-batch"] < means["autoreg-struct"], means


def test_criterion_07_span_probability_consistency():
    with criterion(7, "span probability equals the direct token-probability product"):
        rng = random.Random(41)
        for _ in range(1000):
            n = rng.randrange(1, 21)
            probs = [rng.uniform(0.05, 1.0) for _ in range(n)]
            logprobs = [math.log(p) for p in probs]
            a = rng.randrange(0, n)
            b = rng.randrange(a, n)
            direct = math.prod(probs[a : b + 1])
            via_logs = span_probability(logprobs, (a, b))
            assert abs(via_logs - direct) <= 1e-9 * max(direct, 1e-300)


def test_criterion_08_micro_f1_matches_brute_force(labels):
    with criterion(8, "micro-F1 equals brute-force multiset matching on 1000 instances"):
        rng = random.Random(43)
        surfaces = ["Italy", "England", "Villa", "FIFA", "Moret"]
        pool = list(labels)
        for _ in range(1000):
            docs = [f"d{i}" for i in range(rng.randrange(1, 4))]
            pred = {d: [Mention(rng.choice(pool), rng.choice(surfaces))
                        for _ in range(rng.randrange(0, 6))] for d in docs}
            gold = {d: [Mention(rng.choice(pool), rng.choice(surfaces))
                        for _ in range(rng.randrange(0, 6))] for d in docs}
            report = micro_f1(pred, gold, labels)

            tp = fp = fn = 0
            for d in docs:
                remaining = Counter((m.label, m.text) for m in gold[d])
                for m in pred[d]:
                    if remaining[(m.label, m.text)] > 0:
                        remaining[(m.label, m.text)] -= 1
                        tp += 1
                    else:
                        fp += 1
                fn += sum(remaining.values())
            assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert (report.precision, report.recall, report.f1) == (precision, recall, f1)


def test_criterion_09_round_trips_for_all_formats(labels, template):
    with criterion(9, "emit/parse round trips preserve 500 random documents exactly"):
        pairs = make_corpus(500, labels, seed=31)
        for doc, gold in pairs:
            expected = mention_multiset(gold.mentions)

            recovered = []
            for ex in generate_pair_examples(doc, gold, labels, template):
                if ex.output == template.eos_literal:
                    continue
                count_str, rest = ex.output.split(template.count_terminator, 1)
                marker = f"<mention {ex.mention_index}>"
                assert int(count_str) == ex.mention_count
                assert rest.startswith(marker)
                recovered.append(Mention(ex.label, rest[len(marker):]))
            assert mention_multiset(recovered) == expected, f"pair on {doc.id}"

            struct_mentions, defects = parse_structured(
                emit_struct(gold.by_label(labels), labels), labels)
            assert defects == [] and mention_multiset(struct_mentions) == expected

            aug_mentions, defects = parse_augmented(emit_aug(doc, gold, labels), labels)
            assert defects == [] and mention_multiset(aug_mentions) == expected

            onestep = []
            for label, mentions in gold.by_label(labels).items():
                text = emit_onestep(mentions)
                parsed, defects = parse_onestep(completion(text, tokens=[text]), template)
                assert defects == []
                onestep.extend(Mention(label, m.text) for m in parsed)
            assert mention_multiset(onestep) == expected, f"onestep on {doc.id}"


def test_criterion_10_decode_is_deterministic_at_any_parallelism(tmp_path, labels):
    with criterion(10, "identical seeds give byte-identical outputs at any parallelism"):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(emit_spans_json(make_corpus(30, labels, seed=37)),
                          encoding="utf-8")
        backend_config = tmp_path / "backend.json"
        backend_config.write_text(json.dumps({"p_count": 0.3, "p_index": 0.3}),
                                  encoding="utf-8")
        blobs = []
        for run, parallelism in (("a", 8), ("b", 8), ("c", 1)):
            out = tmp_path / run
            code = main([
                "decode", "--corpus", str(corpus), "--labels", "PER,MISC,LOC,ORG",
                "--backend-config", str(backend_config), "--seed", "11",
                "--parallelism", str(parallelism), "--out", str(out),
            ])
            assert code == 0
            blobs.append((
                (out / "predictions.jsonl").read_bytes(),
                (out / "outcomes.jsonl").read_bytes(),
            ))
        assert blobs[0] == blobs[1] == blobs[2]
        pred = parse_spans_json(blobs[0][0].decode("utf-8"), labels)
        assert len(pred) == 30
