"""Decoding schedulers: fan-out, parsing, scoring and latency accounting."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import pathlib
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import pytest

from parner import scheduler
from parner.backends import (
    BackendError,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    CostModel,
    ErrorInjection,
    OracleBackend,
)
from parner.corpus import Document, GoldAnnotation, LabelSet, Mention
from parner.dedup import deduplicate
from parner.evaluation import micro_f1
from parner.scheduler import (
    MODES,
    decode_document,
    run_corpus,
    span_probability,
)
from parner.synthetic import make_corpus
from parner.templates import (
    PromptTemplate,
    build_count_prompt,
    parse_augmented,
    parse_onestep,
    parse_structured,
    visible_text,
)
from conftest import (
    ScriptedBackend,
    TRACE_COUNTS,
    TRACE_EXPECTED_EXAMPLE_LATENCY,
    TRACE_STEP1_LATENCY,
    TRACE_STEP2,
    two_step_fixture_entries,
)
from helpers import mention_multiset


class TestSpanProbability:
    def test_exp_of_sum(self):
        lps = [math.log(0.9), math.log(0.8), math.log(0.7)]
        assert span_probability(lps, (0, 2)) == pytest.approx(0.9 * 0.8 * 0.7)
        assert span_probability(lps, (1, 1)) == pytest.approx(0.8)

    def test_missing_information_scores_one(self):
        assert span_probability([], (0, 1)) == 1.0
        assert span_probability([math.log(0.5)], None) == 1.0

    def test_clamped_to_one(self):
        assert span_probability([0.1], (0, 0)) == 1.0

    @pytest.mark.parametrize("logprobs, expected", [
        ([800.0], 1.0),
        ([1e308, 1e308], 1.0),
        ([-1e308, -1e308], 0.0),
        ([-math.inf, 1e308, 1e308], 0.0),
        ([-math.inf, 0.5], 0.0),
        ([-746.0], 0.0),
        ([1e308, 1e308, -1e308, -1e308, math.log(0.25)], 0.25),
    ], ids=["above-exp-range", "sum-overflows", "sum-underflows", "minus-inf-beside-overflow",
            "minus-inf", "exp-underflows", "exact-past-partial-overflow"])
    def test_every_accepted_list_scores_in_unit_interval(self, logprobs, expected):
        # each list is one the result contract accepts
        tokens = tuple("abcde"[:len(logprobs)])
        result = CompletionResult(tokens=tokens, token_logprobs=tuple(logprobs),
                                  text="".join(tokens), stop_reason="eos", latency_ms=0.0)
        span = (0, len(logprobs) - 1)
        assert span_probability(result.token_logprobs, span) == pytest.approx(expected)

    @pytest.mark.parametrize("mode", ["pair-multi", "pair-batch"])
    def test_decode_scores_positive_logprob_past_exp_range(self, mode, labels, template):
        # one mention token with logprob 800.0 scores 1.0 and the decode completes
        from parner.templates import build_mention_prompt
        doc = Document(id="x", text="Italy won")
        entries = []
        for label in labels:
            prompt = build_count_prompt(doc, label, template)
            if label == "LOC":
                entries.append({"prompt": prompt, "tokens": ["1", "\n"]})
                entries.append({"prompt": build_mention_prompt(prompt, 1, 1, template),
                                "tokens": ["Italy", "<eos>"], "logprobs": [800.0, 0.0]})
            else:
                entries.append({"prompt": prompt, "tokens": ["<eos>"]})
        outcome = decode_document(doc, labels, ScriptedBackend(entries), template, mode)
        assert outcome.defects == []
        assert [(m.label, m.text, m.probability) for m in outcome.raw_mentions] == [
            ("LOC", "Italy", 1.0)]


class TestPairDecodeTrace:
    """Hand-built scripted trace; every latency is pinned."""

    @pytest.fixture
    def outcome(self, cuttitta, labels, template):
        doc, _ = cuttitta
        backend = ScriptedBackend(two_step_fixture_entries(doc, labels, template))
        return decode_document(doc, labels, backend, template, "pair-multi")

    def test_sequence_inventory(self, outcome):
        kinds = Counter(tr.kind for tr in outcome.traces)
        assert kinds == {"count": 4, "mention": 5}
        assert outcome.step1_batch_size == 4
        assert outcome.step2_batch_size == 5
        assert outcome.defects == []

    def test_count_traces_carry_own_latency(self, outcome):
        for tr in outcome.traces:
            if tr.kind == "count":
                assert tr.latency_ms == TRACE_STEP1_LATENCY[tr.label]

    def test_mention_traces_add_upstream_count_latency(self, outcome):
        for tr in outcome.traces:
            if tr.kind == "mention":
                _, own, _ = TRACE_STEP2[(tr.label, tr.mention_index)]
                assert tr.latency_ms == TRACE_STEP1_LATENCY[tr.label] + own

    def test_example_latency_is_slowest_path(self, outcome):
        assert outcome.example_latency_ms == TRACE_EXPECTED_EXAMPLE_LATENCY

    def test_mentions_scored_from_logprobs(self, outcome):
        by_seq = {m.seq_id: m for m in outcome.raw_mentions}
        loc_italy = by_seq["d0/LOC/mention1"]
        misc_italy = by_seq["d0/MISC/mention2"]
        assert loc_italy.text == misc_italy.text == "Italy"
        assert loc_italy.probability == pytest.approx(0.93)
        assert misc_italy.probability == pytest.approx(0.61)
        cup = by_seq["d0/MISC/mention1"]
        # three surface tokens at 0.9 each; the eos token is excluded
        assert cup.probability == pytest.approx(0.9 ** 3)

    def test_batch_mode_sums_step_walls(self, cuttitta, labels, template):
        doc, _ = cuttitta
        backend = ScriptedBackend(two_step_fixture_entries(doc, labels, template))
        outcome = decode_document(doc, labels, backend, template, "pair-batch")
        assert outcome.example_latency_ms == 12.0 + 22.0  # max counts + max mentions
        assert outcome.step1_batch_size == 4
        assert outcome.step2_batch_size == 5
        multiset = mention_multiset(
            Mention(m.label, m.text) for m in outcome.raw_mentions)
        assert multiset == Counter({
            ("PER", "Cuttitta"): 1, ("MISC", "1995 World Cup"): 1,
            ("MISC", "Italy"): 1, ("LOC", "Italy"): 1, ("LOC", "England"): 1,
        })


class TestPairDecodeDegradation:
    def test_garbage_count_skips_label_not_document(self, labels, template):
        doc = Document(id="x", text="some text")
        entries = []
        from parner.templates import build_count_prompt, build_mention_prompt
        for label in labels:
            prompt = build_count_prompt(doc, label, template)
            if label == "PER":
                entries.append({"prompt": prompt, "tokens": ["many", "\n"]})
            elif label == "LOC":
                entries.append({"prompt": prompt, "tokens": ["1", "\n"]})
                entries.append({
                    "prompt": build_mention_prompt(prompt, 1, 1, template),
                    "tokens": ["Italy", "<eos>"],
                })
            else:
                entries.append({"prompt": prompt, "tokens": ["<eos>"]})
        outcome = decode_document(doc, labels, ScriptedBackend(entries), template, "pair-multi")
        assert len(outcome.defects) == 1
        assert "PER" in outcome.defects[0]
        assert [m.text for m in outcome.raw_mentions] == ["Italy"]

    def test_missing_fixture_is_defect_not_crash(self, labels, template):
        doc = Document(id="x", text="some text")
        outcome = decode_document(doc, labels, ScriptedBackend([]), template, "pair-multi")
        assert len(outcome.defects) == len(labels)
        assert outcome.raw_mentions == []
        assert outcome.example_latency_ms == 0.0

    def test_empty_mention_surface_is_defect(self, labels, template):
        from parner.templates import build_count_prompt, build_mention_prompt
        doc = Document(id="x", text="some text")
        entries = []
        for label in labels:
            prompt = build_count_prompt(doc, label, template)
            if label == "PER":
                entries.append({"prompt": prompt, "tokens": ["1", "\n"]})
                entries.append({
                    "prompt": build_mention_prompt(prompt, 1, 1, template),
                    "tokens": ["<eos>"],  # immediate end: no surface
                })
            else:
                entries.append({"prompt": prompt, "tokens": ["<eos>"]})
        outcome = decode_document(doc, labels, ScriptedBackend(entries), template, "pair-multi")
        assert outcome.raw_mentions == []
        assert outcome.defects == ["empty mention for label PER index 1"]

    @pytest.mark.parametrize("mode, answer, defect", [
        ("onestep", '["Italy", ""]', "label LOC: empty mention surface in list"),
        ("autoreg-struct", "((PER): (NULL), (MISC): (NULL), (LOC): (Italy, ), (ORG): (NULL))",
         "empty mention surface under label 'LOC'"),
        ("autoreg-aug", "[Italy | LOC] won [ | LOC]", "bracket with empty mention surface"),
    ])
    def test_parser_reports_an_empty_surface_once(self, labels, template, mode, answer, defect):
        from parner.templates import build_autoreg_prompt, build_onestep_prompt
        doc = Document(id="x", text="Italy won")
        if mode == "onestep":
            entries = [{"prompt": build_onestep_prompt(doc, label, template),
                        "tokens": [answer if label == "LOC" else "[]", "<eos>"]}
                       for label in labels]
        else:
            entries = [{"prompt": build_autoreg_prompt(doc, mode[len("autoreg-"):], labels,
                                                       template),
                        "tokens": [answer, "<eos>"]}]
        outcome = decode_document(doc, labels, ScriptedBackend(entries), template, mode)
        assert [(m.label, m.text) for m in outcome.raw_mentions] == [("LOC", "Italy")]
        assert outcome.defects == [defect]

    def test_zero_entity_document(self, labels, template):
        doc = Document(id="x", text="nothing")
        gold = GoldAnnotation(doc_id="x", mentions=[])
        oracle = OracleBackend([(doc, gold)], labels, template)
        outcome = decode_document(doc, labels, oracle, template, "pair-multi")
        assert outcome.raw_mentions == []
        assert outcome.step2_batch_size == 0
        # eos-only count answers: 1 token at 10ms each
        assert outcome.example_latency_ms == pytest.approx(10.0)


class TestModeEquivalence:
    """With a noiseless oracle every mode reproduces the gold multiset."""

    @pytest.mark.parametrize("mode", MODES)
    def test_noiseless_decode_recovers_gold(self, mode, labels, template):
        pairs = make_corpus(8, labels, seed=21)
        oracle = OracleBackend(pairs, labels, template)
        docs = [doc for doc, _ in pairs]
        outcomes = run_corpus(docs, labels, oracle, template, mode, parallelism=4)
        assert [o.doc_id for o in outcomes] == [d.id for d in docs]
        for (doc, gold), outcome in zip(pairs, outcomes):
            assert outcome.defects == []
            got = mention_multiset(
                Mention(m.label, m.text) for m in outcome.raw_mentions)
            assert got == mention_multiset(gold.mentions), f"{mode} on {doc.id}"


# surfaces a format carries but a trim of whitespace or terminators would change
_EDGE_TEXT = "Room 1 met  Bob at Paris , Santa Maria said ."
VERBATIM_CORPORA = {
    "edge-whitespace": ([Mention("MISC", "1 "), Mention("PER", " Bob"),
                         Mention("LOC", "Paris ")], PromptTemplate(), MODES),
    "whitespace-only": ([Mention("PER", " ")], PromptTemplate(), MODES),
    "ends-in-terminator": ([Mention("LOC", "Santa Maria")],
                           PromptTemplate(count_terminator="a"), ("pair-multi", "pair-batch")),
}


class TestVerbatimSurfaces:
    """A decoded mention is kept exactly as the backend wrote it."""

    @pytest.mark.parametrize("dedup", ["keep-max", "off"])
    @pytest.mark.parametrize("name, mode", [
        (name, mode) for name, (_, _, modes) in VERBATIM_CORPORA.items() for mode in modes])
    def test_noiseless_decode_scores_one(self, name, mode, dedup, labels):
        mentions, t, _ = VERBATIM_CORPORA[name]
        doc = Document("d0", _EDGE_TEXT)
        gold = GoldAnnotation("d0", mentions)
        outcome = run_corpus([doc], labels, OracleBackend([(doc, gold)], labels, t), t,
                             mode, parallelism=1)[0]
        assert outcome.defects == []
        pred = deduplicate(outcome.raw_mentions, labels, dedup)
        assert micro_f1({"d0": pred}, {"d0": mentions}, labels).f1 == 1.0


def _outcomes_digest(outcomes) -> str:
    """sha256 over each outcome's raw mentions with the repr of their
    probabilities, its latencies and its defects; first 16 hex digits."""
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(repr((
            o.doc_id,
            [(m.label, m.text, repr(m.probability), m.seq_id) for m in o.raw_mentions],
            repr(o.example_latency_ms), [repr(trace.latency_ms) for trace in o.traces],
            o.defects,
        )).encode("utf-8"))
    return digest.hexdigest()[:16]


class TestLongDocumentDigests:
    """Noisy decodes of long documents stay the same to the last bit.

    The documents are as long as the benchmark's (40-80 fillers between
    mentions), so at a budget of 512 some aug answers are cut for length,
    and at 3 every answer but the shortest is; each cut answer is a defect.
    """

    DIGESTS = {
        ("pair-multi", 512): "96ac4454abb591ab",
        ("pair-multi", 3): "96ac4454abb591ab",
        ("pair-batch", 512): "49bba800b43c1707",
        ("pair-batch", 3): "49bba800b43c1707",
        ("onestep", 512): "2cd564fe4839136f",
        ("onestep", 3): "9d823720c2d3d12c",
        ("autoreg-aug", 512): "b90d5ba96706cecb",
        ("autoreg-aug", 3): "f00157ad5a061517",
        ("autoreg-struct", 512): "ec6476eddeedcb07",
        ("autoreg-struct", 3): "df071a5eef9760b4",
    }

    @pytest.fixture(scope="class")
    def corpus(self):
        labels = LabelSet(["PER", "MISC", "LOC", "ORG"])
        pairs = make_corpus(40, labels, seed=9, fillers_between=(40, 80))
        oracle = OracleBackend(pairs, labels, PromptTemplate(), seed=3,
                               errors=ErrorInjection(p_count=0.3, p_index=0.3))
        return labels, [doc for doc, _ in pairs], oracle

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("max_new_tokens", [512, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_outputs_match_recorded_digest(self, corpus, mode, max_new_tokens, parallelism):
        labels, docs, oracle = corpus
        outcomes = run_corpus(docs, labels, oracle, PromptTemplate(), mode,
                              parallelism=parallelism, max_new_tokens=max_new_tokens)
        if mode == "autoreg-aug" and max_new_tokens == 512:
            reasons = {o.traces[0].result.stop_reason for o in outcomes}
            assert reasons == {"eos", "length"}
        assert _outcomes_digest(outcomes) == self.DIGESTS[mode, max_new_tokens]


class _RecordingBackend(CompletionBackend):
    """Records every request it is sent, singly or in a batch."""

    def __init__(self, inner: CompletionBackend):
        self._inner = inner
        self.requests = []

    def generate(self, request: CompletionRequest) -> CompletionResult:
        self.requests.append(request)
        return self._inner.generate(request)

    def generate_batch(self, requests):
        self.requests.extend(requests)
        return self._inner.generate_batch(requests)


class TestLogprobRequests:
    """Only mention and onestep sequences are scored, so only they ask for logprobs."""

    @pytest.mark.parametrize("mode", MODES)
    def test_logprobs_requested_only_where_read(self, mode, labels, template):
        pairs = make_corpus(6, labels, seed=4)
        oracle = OracleBackend(pairs, labels, template, seed=2,
                               errors=ErrorInjection(p_count=0.3, p_index=0.3))
        backend = _RecordingBackend(oracle)
        outcomes = run_corpus([doc for doc, _ in pairs], labels, backend, template, mode,
                              parallelism=1)
        traces = [tr for outcome in outcomes for tr in outcome.traces]
        # one strand and no failed call: the backend saw the traces' requests in order
        assert len(traces) == len(backend.requests)
        kinds = set()
        for tr, request in zip(traces, backend.requests):
            scored = tr.kind in ("mention", "onestep")
            kinds.add((tr.kind, scored))
            assert request.want_logprobs is scored, tr.seq_id
            assert bool(tr.result.token_logprobs) is scored, tr.seq_id
        expected = {"onestep": {("onestep", True)},
                    "autoreg-aug": {("autoreg", False)},
                    "autoreg-struct": {("autoreg", False)}}
        assert kinds == expected.get(mode, {("count", False), ("mention", True)})


class TestOutcomeMemory:
    """A decode's outcomes hold each sequence's result, not another copy of its document."""

    @pytest.mark.parametrize("mode", ["pair-multi", "pair-batch", "onestep"])
    def test_outcomes_hold_a_small_multiple_of_the_text(self, mode, labels, template):
        # autoreg is left out: it sends one prompt per document, and an aug
        # answer's tokens alone, which CompletionResult must carry, hold about
        # ten times the text
        pairs = make_corpus(30, labels, seed=1, fillers_between=(60, 120))
        docs = [doc for doc, _ in pairs]
        oracle = OracleBackend(pairs, labels, template)
        run_corpus(docs, labels, oracle, template, mode)  # the oracle builds its answers lazily
        tracemalloc.start()
        try:
            outcomes = run_corpus(docs, labels, oracle, template, mode)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outcomes) == len(docs)
        assert held <= 4 * sum(len(doc.text) for doc in docs)


class _JitteryBackend(CompletionBackend):
    """Wraps a backend with a deterministic per-prompt sleep to shake up timing."""

    def __init__(self, inner: CompletionBackend):
        self._inner = inner

    def generate(self, request: CompletionRequest) -> CompletionResult:
        digest = hashlib.sha256(request.prompt.encode("utf-8")).digest()
        time.sleep(digest[0] / 255 * 0.004)
        return self._inner.generate(request)


class TestRunCorpus:
    def test_parallel_equals_serial(self, labels, template):
        pairs = make_corpus(6, labels, seed=2)
        docs = [doc for doc, _ in pairs]
        oracle = OracleBackend(pairs, labels, template)
        serial = run_corpus(docs, labels, oracle, template, "pair-multi", parallelism=1)
        jittery = _JitteryBackend(oracle)
        parallel = run_corpus(docs, labels, jittery, template, "pair-multi", parallelism=8)
        for a, b in zip(serial, parallel):
            assert a.doc_id == b.doc_id
            assert [(m.label, m.text, m.probability) for m in a.raw_mentions] == \
                [(m.label, m.text, m.probability) for m in b.raw_mentions]
            assert a.example_latency_ms == b.example_latency_ms

    def test_validation(self, labels, template):
        with pytest.raises(ValueError):
            run_corpus([], labels, ScriptedBackend([]), template, "warp")
        with pytest.raises(ValueError):
            run_corpus([], labels, ScriptedBackend([]), template, "pair-multi", parallelism=0)

    def test_empty_corpus(self, labels, template):
        assert run_corpus([], labels, ScriptedBackend([]), template, "pair-multi") == []

    def test_decode_document_rejects_unknown_mode(self, cuttitta, labels, template):
        doc, _ = cuttitta
        with pytest.raises(ValueError, match="^unknown decode mode: 'warp' "):
            decode_document(doc, labels, ScriptedBackend([]), template, "warp")

    @pytest.mark.parametrize("max_in_flight", [1, 8])
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_corpus_builds_no_pool(self, monkeypatch, mode, parallelism, max_in_flight,
                                         labels, template):
        def no_pool(*args, **kwargs):
            raise AssertionError("no pool expected")

        monkeypatch.setattr(scheduler, "ThreadPoolExecutor", no_pool)
        backend = ScriptedBackend([])
        backend.max_in_flight = max_in_flight
        assert run_corpus([], labels, backend, template, mode, parallelism=parallelism) == []


class _VaryingLatencyBackend(CompletionBackend):
    """Answers as ``inner`` does, each answer with a latency of its own: the
    n-th (from 0, batch members included) takes ``n % 7 * 1.5`` ms."""

    def __init__(self, inner: OracleBackend):
        self._inner = inner
        self._calls = 0
        self._lock = threading.Lock()

    def _timed(self, result: CompletionResult) -> CompletionResult:
        with self._lock:
            n, self._calls = self._calls, self._calls + 1
        return result._replace(latency_ms=n % 7 * 1.5)

    def generate(self, request: CompletionRequest) -> CompletionResult:
        return self._timed(self._inner.generate(request))

    def generate_batch(self, requests):
        return [self._timed(result) for result in self._inner.generate_batch(requests)]


class TestExampleLatency:
    """A decode outcome is one decode: its latency is the max over its own traces."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_max_over_traces(self, mode, parallelism, labels, template):
        pairs = make_corpus(6, labels, seed=3)
        backend = _VaryingLatencyBackend(OracleBackend(pairs, labels, template))
        outcomes = run_corpus([doc for doc, _ in pairs], labels, backend, template, mode,
                              parallelism=parallelism)
        assert len({tr.latency_ms for outcome in outcomes for tr in outcome.traces}) > 1
        for outcome in outcomes:
            assert outcome.traces
            assert outcome.example_latency_ms == max(tr.latency_ms for tr in outcome.traces)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_without_traces(self, mode, cuttitta, labels, template):
        [outcome] = run_corpus([cuttitta[0]], labels, ScriptedBackend([]), template, mode)
        assert outcome.traces == [] and outcome.defects
        assert outcome.example_latency_ms == 0.0


class TestCutMentions:
    """An answer the token budget cuts is parsed as far as it goes, and is a
    defect ahead of its parse defects; a count whose terminator arrived is
    no defect."""

    def test_cut_mention_is_a_defect_and_kept(self, template):
        labels = LabelSet(["PER", "LOC"])
        pairs = make_corpus(5, labels, seed=1)
        docs = [doc for doc, _ in pairs]
        oracle = OracleBackend(pairs, labels, template)
        for mode in ("pair-multi", "pair-batch"):
            for outcome in run_corpus(docs, labels, oracle, template, mode, max_new_tokens=1):
                cut = [tr for tr in outcome.traces
                       if tr.kind == "mention" and tr.result.stop_reason == "length"]
                assert [d for d in outcome.defects if not d.startswith("count ")] == [
                    f"mention cut by the token budget for label {tr.label} index "
                    f"{tr.mention_index}" for tr in cut]
                assert len(outcome.raw_mentions) == len(cut)
        [first] = run_corpus(docs[:1], labels, oracle, template, "pair-multi", max_new_tokens=1)
        assert pairs[0][1].mentions[0] == Mention("LOC", "Taces Diwox")
        assert (first.raw_mentions[0].label, first.raw_mentions[0].text) == ("LOC", "Taces")
        assert "mention cut by the token budget for label LOC index 1" in first.defects

    @pytest.mark.parametrize("mode, budget", [
        ("onestep", 1), ("onestep", 4), ("autoreg-aug", 1), ("autoreg-aug", 20),
        ("autoreg-struct", 1), ("autoreg-struct", 8)])
    def test_cut_answer_is_a_defect_ahead_of_its_parse_defects(self, mode, budget, template):
        labels = LabelSet(["PER", "LOC"])
        pairs = make_corpus(5, labels, seed=1)
        oracle = OracleBackend(pairs, labels, template)
        outcomes = run_corpus([doc for doc, _ in pairs], labels, oracle, template, mode,
                              max_new_tokens=budget)
        cut = 0
        for outcome in outcomes:
            expected = []
            for tr in outcome.traces:
                if tr.result.stop_reason == "length":
                    cut += 1
                    expected.append(f"{tr.kind} cut by the token budget"
                                    + (f" for label {tr.label}" if tr.label else ""))
                if mode == "onestep":
                    _, parse_defects = parse_onestep(tr.result, template)
                    expected.extend(f"label {tr.label}: {d}" for d in parse_defects)
                else:
                    parser = parse_augmented if mode == "autoreg-aug" else parse_structured
                    expected.extend(parser(visible_text(tr.result, template), labels)[1])
            assert outcome.defects == expected
        traces = sum(len(o.traces) for o in outcomes)
        assert cut == traces if budget == 1 else 0 < cut < traces
        if budget == 1:
            assert outcomes[0].defects[0] == (
                "onestep cut by the token budget for label PER" if mode == "onestep"
                else "autoreg cut by the token budget")

    @pytest.mark.parametrize("max_new_tokens, read", [(1, 1), (2, 12), (512, 12)])
    def test_count_cut_before_its_terminator_is_a_defect(self, max_new_tokens, read, template):
        labels = LabelSet(["PER", "LOC"])
        names = [f"Ann{c}" for c in "BCDEFGHIJKLM"]
        doc = Document(id="d", text=" and ".join(names) + " met .")
        gold = GoldAnnotation(doc_id="d", mentions=[Mention("PER", n) for n in names])
        [outcome] = run_corpus([doc], labels, OracleBackend([(doc, gold)], labels, template),
                               template, "pair-multi", max_new_tokens=max_new_tokens)
        # the cut count is still read as far as it goes
        assert sum(tr.kind == "mention" for tr in outcome.traces) == read
        cut = "count cut by the token budget for label PER"
        assert [d for d in outcome.defects if d.startswith("count ")] == (
            [cut] if max_new_tokens < 3 else [])
        if max_new_tokens < 3:
            assert outcome.defects[0] == cut

    def test_count_filling_its_budget_is_no_defect(self, labels, template):
        """Under ``max_count`` 9 a count gets two tokens, so a count of 3 is
        cut before its end-of-sequence, after its terminator."""
        from parner.templates import build_mention_prompt
        t = PromptTemplate(max_count=9)
        doc = Document(id="x", text="Ann , Bob and Cid met .")
        entries = []
        for label in labels:
            prompt = build_count_prompt(doc, labels.surface(label), t)
            if label == "PER":
                entries.append({"prompt": prompt, "tokens": ["3", "\n", "<eos>"]})
                entries.extend({"prompt": build_mention_prompt(prompt, 3, i, t),
                                "tokens": [name, "<eos>"]}
                               for i, name in enumerate(["Ann", "Bob", "Cid"], 1))
            else:
                entries.append({"prompt": prompt, "tokens": ["<eos>"]})
        [outcome] = run_corpus([doc], labels, ScriptedBackend(entries), t, "pair-multi")
        [count] = [tr for tr in outcome.traces if tr.kind == "count" and tr.label == "PER"]
        assert (count.result.text, count.result.stop_reason) == ("3\n", "length")
        assert [m.text for m in outcome.raw_mentions] == ["Ann", "Bob", "Cid"]
        assert outcome.defects == []


class TestCostAccounting:
    def test_batch_wall_uses_member_latencies(self, labels, template):
        # one label with a two-token count answer, three with eos-only answers
        doc = Document(id="x", text="Villa plays")
        gold = GoldAnnotation(doc_id="x", mentions=[Mention("PER", "Villa")])
        cost = CostModel(ms_per_token=10.0, fixed_overhead_ms=5.0, batch_penalty_alpha=0.05)
        oracle = OracleBackend([(doc, gold)], labels, template, cost=cost)
        outcome = decode_document(doc, labels, oracle, template, "pair-batch")
        penalty4 = 1.0 + 0.05 * 3
        step1_wall = 5.0 + 10.0 * 2 * penalty4   # "1" + terminator, batch of 4
        step2_wall = 5.0 + 10.0 * 2 * 1.0        # "Villa" + eos, batch of 1
        assert outcome.example_latency_ms == pytest.approx(step1_wall + step2_wall)

    def test_multi_mode_charges_slowest_path(self, labels, template):
        doc = Document(id="x", text="Villa plays")
        gold = GoldAnnotation(doc_id="x", mentions=[Mention("PER", "Villa")])
        cost = CostModel(ms_per_token=10.0, fixed_overhead_ms=5.0)
        oracle = OracleBackend([(doc, gold)], labels, template, cost=cost)
        outcome = decode_document(doc, labels, oracle, template, "pair-multi")
        # PER path: count (2 tokens, 25ms) + mention (2 tokens, 25ms) = 50ms
        assert outcome.example_latency_ms == pytest.approx(50.0)


class _DownBackend(CompletionBackend):
    """Every call fails, batched or not."""

    def generate(self, request: CompletionRequest) -> CompletionResult:
        raise BackendError("down")

    def generate_batch(self, requests):
        raise BackendError("down")


class _MentionBatchDownBackend(CompletionBackend):
    """Answers the first batch (the counts) from an oracle, fails every later one."""

    def __init__(self, inner: CompletionBackend):
        self._inner = inner
        self._batches = 0

    def generate_batch(self, requests):
        self._batches += 1
        if self._batches > 1:
            raise BackendError("down")
        return self._inner.generate_batch(requests)


class _CountDownBackend(CompletionBackend):
    """Answers from an oracle, one request at a time, except one label's count."""

    def __init__(self, inner: CompletionBackend, count_prompt: str):
        self._inner = inner
        self._down = count_prompt

    def generate(self, request: CompletionRequest) -> CompletionResult:
        if request.prompt == self._down:
            raise BackendError("down")
        return self._inner.generate(request)


class TestFailurePaths:
    """Backend failures become exact defect strings; the CLI writes them out."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_call_failing(self, mode, parallelism, labels, template):
        doc = Document(id="x", text="some text")
        outcome = run_corpus([doc], labels, _DownBackend(), template, mode,
                             parallelism=parallelism)[0]
        # a failed batch fails each of its sequences, as failed calls do
        per_count = [f"count request failed for label {label}: down" for label in labels]
        expected = {
            "pair-multi": per_count,
            "pair-batch": per_count,
            "onestep": [f"onestep request failed for label {label}: down" for label in labels],
            "autoreg-aug": ["autoreg request failed: down"],
            "autoreg-struct": ["autoreg request failed: down"],
        }[mode]
        assert outcome.defects == expected
        assert outcome.traces == []
        assert outcome.raw_mentions == []
        assert outcome.example_latency_ms == 0.0
        assert outcome.step1_batch_size == (1 if mode.startswith("autoreg") else 4)
        assert outcome.step2_batch_size == 0

    @pytest.mark.parametrize("mode", ["pair-multi", "pair-batch"])
    def test_one_count_failing_without_batches_loses_only_its_label(
            self, mode, labels, template):
        pairs = make_corpus(10, labels, seed=4)
        doc, gold = next((d, g) for d, g in pairs if g.by_label(["ORG"])["ORG"])
        oracle = OracleBackend(pairs, labels, template)
        backend = _CountDownBackend(oracle, build_count_prompt(doc, "ORG", template))
        outcome = run_corpus([doc], labels, backend, template, mode, parallelism=1)[0]
        assert outcome.defects == ["count request failed for label ORG: down"]
        got = mention_multiset(Mention(m.label, m.text) for m in outcome.raw_mentions)
        assert got == mention_multiset(m for m in gold.mentions if m.label != "ORG")

    def test_mention_batch_failing(self, cuttitta, labels, template):
        doc, gold = cuttitta
        oracle = OracleBackend([(doc, gold)], labels, template)
        outcome = decode_document(doc, labels, _MentionBatchDownBackend(oracle), template,
                                  "pair-batch")
        assert outcome.defects == [
            "mention request failed for label PER index 1: down",
            "mention request failed for label MISC index 1: down",
            "mention request failed for label LOC index 1: down",
            "mention request failed for label LOC index 2: down",
        ]
        assert [tr.seq_id for tr in outcome.traces] == [
            f"d0/{label}/count" for label in labels]
        assert outcome.raw_mentions == []
        assert outcome.example_latency_ms == max(tr.latency_ms for tr in outcome.traces)
        assert outcome.step1_batch_size == 4
        assert outcome.step2_batch_size == 4


class _ThreadCountingBackend(CompletionBackend):
    """Sleeps briefly per call and records the most threads alive at once.

    After ``mark_decoding_threads`` it also counts the calls that run off
    the thread decoding their document.
    """

    def __init__(self, inner: CompletionBackend, max_in_flight: int = 1):
        self._inner = inner
        self.max_in_flight = max_in_flight
        self.peak = 0
        self.calls = 0
        self.off_thread = 0
        self.decoding = threading.local()
        self._lock = threading.Lock()

    def mark_decoding_threads(self, monkeypatch) -> None:
        decode = scheduler.decode_document

        def marked(doc, *args, **kwargs):
            self.decoding.doc = doc
            try:
                return decode(doc, *args, **kwargs)
            finally:
                self.decoding.doc = None

        monkeypatch.setattr(scheduler, "decode_document", marked)

    def generate(self, request: CompletionRequest) -> CompletionResult:
        doc = getattr(self.decoding, "doc", None)
        with self._lock:
            self.peak = max(self.peak, threading.active_count())
            self.calls += 1
            self.off_thread += doc is None or doc.text not in request.prompt
        time.sleep(0.001)
        return self._inner.generate(request)


class _BatchingThreadCountingBackend(_ThreadCountingBackend):
    """A thread-counting backend that forwards batches to its inner backend."""

    def generate_batch(self, requests):
        return self._inner.generate_batch(requests)


class _ReversedBackend(CompletionBackend):
    """Answers from an oracle, one request at a time; sleeps longest on the
    first label's requests, so in flight together they finish in reverse."""

    def __init__(self, inner: CompletionBackend, labels, template, max_in_flight: int):
        self._inner = inner
        self._markers = [template.entity_header + labels.surface(label) + template.count_marker
                         for label in labels]
        self.max_in_flight = max_in_flight
        self.threads = set()

    def generate(self, request: CompletionRequest) -> CompletionResult:
        self.threads.add(threading.get_ident())
        rank = next(i for i, m in enumerate(self._markers) if m in request.prompt)
        time.sleep((len(self._markers) - rank) * 0.003)
        return self._inner.generate(request)


def _decoded(outcomes):
    return [(o.doc_id, [(m.label, m.text, m.probability, m.seq_id) for m in o.raw_mentions],
             [(tr.seq_id, tr.latency_ms) for tr in o.traces], o.example_latency_ms,
             o.step1_batch_size, o.step2_batch_size, o.defects) for o in outcomes]


class _CountsTogetherBackend(CompletionBackend):
    """Serves four calls at once, and holds the first four until all have
    arrived: they fail unless they are in flight together."""

    max_in_flight = 4

    def __init__(self, inner: CompletionBackend):
        self._inner = inner
        self._first = threading.Barrier(4, timeout=10)
        self._calls = 0
        self._lock = threading.Lock()

    def generate(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self._calls += 1
            first = self._calls <= 4
        if first:
            self._first.wait()
        return self._inner.generate(request)


class _BrokenBackend(CompletionBackend):
    """Raises a non-backend error, as a bug would, and counts its calls."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.calls += 1
        time.sleep(0.001)
        raise ValueError("bug")


class _StartingPool(ThreadPoolExecutor):
    """A pool whose ``submit`` returns only once a worker has started the
    item, as a pool of idle workers may do before the submitter moves on."""

    def submit(self, fn, /, *args, **kwargs):
        started = threading.Event()

        def run():
            started.set()
            return fn(*args, **kwargs)

        future = super().submit(run)
        assert started.wait(timeout=10)
        return future


class TestSharedPool:
    """Documents run on strands, the calling thread one of them, and their
    requests on the same pool's other threads; a run has at most
    ``max(parallelism, backend.max_in_flight)`` threads, and requests go
    only to threads no document holds."""

    def test_one_pool_per_run(self, monkeypatch, labels, template):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(scheduler, "ThreadPoolExecutor", RecordingPool)
        pairs = make_corpus(40, labels, seed=4)
        backend = _ThreadCountingBackend(OracleBackend(pairs, labels, template),
                                         max_in_flight=6)
        run_corpus([doc for doc, _ in pairs], labels, backend, template, "pair-multi",
                   parallelism=2)
        # two strands, the caller one of them, and four request threads
        assert sizes == [5]

    def test_calling_thread_runs_the_first_item_beside_idle_workers(self):
        threads = {}

        def record(item):
            threads[item] = threading.get_ident()
            return item * 10

        with _StartingPool(3) as pool:
            assert scheduler._run_all(pool, record, [0, 1, 2]) == [0, 10, 20]
        assert threads[0] == threading.get_ident()

    def test_threads_bounded_by_parallelism(self, labels, template):
        pairs = make_corpus(40, labels, seed=4)
        backend = _ThreadCountingBackend(OracleBackend(pairs, labels, template))
        before = threading.active_count()
        run_corpus([doc for doc, _ in pairs], labels, backend, template, "pair-multi",
                   parallelism=4)
        assert backend.peak - before <= 4 - 1  # the calling thread is a worker

    @pytest.mark.parametrize("mode", ["pair-multi", "onestep"])
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_requests_run_on_their_documents_thread(
            self, monkeypatch, parallelism, mode, labels, template):
        pairs = make_corpus(20, labels, seed=4)
        backend = _ThreadCountingBackend(OracleBackend(pairs, labels, template))
        backend.mark_decoding_threads(monkeypatch)
        before = threading.active_count()
        run_corpus([doc for doc, _ in pairs], labels, backend, template, mode,
                   parallelism=parallelism)
        assert backend.calls > 20
        assert backend.off_thread == 0
        assert backend.peak - before <= parallelism - 1

    def test_documents_bounded_by_parallelism_requests_by_backend(
            self, monkeypatch, labels, template):
        pairs = make_corpus(40, labels, seed=4)
        backend = _ThreadCountingBackend(OracleBackend(pairs, labels, template),
                                         max_in_flight=6)
        decode, lock = scheduler.decode_document, threading.Lock()
        docs_in_flight, docs_peak = 0, 0

        def counting_decode(*args, **kwargs):
            nonlocal docs_in_flight, docs_peak
            with lock:
                docs_in_flight += 1
                docs_peak = max(docs_peak, docs_in_flight)
            try:
                return decode(*args, **kwargs)
            finally:
                with lock:
                    docs_in_flight -= 1

        monkeypatch.setattr(scheduler, "decode_document", counting_decode)
        before = threading.active_count()
        run_corpus([doc for doc, _ in pairs], labels, backend, template, "pair-multi",
                   parallelism=2)
        assert docs_peak == 2
        assert backend.peak - before <= 6 - 1  # the calling thread is a worker

    def test_one_documents_requests_in_flight_together_at_parallelism_one(
            self, labels, template):
        pairs = make_corpus(1, labels, seed=4)
        backend = _CountsTogetherBackend(OracleBackend(pairs, labels, template))
        serial = run_corpus([pairs[0][0]], labels, OracleBackend(pairs, labels, template),
                            template, "pair-multi", parallelism=1)
        got = run_corpus([pairs[0][0]], labels, backend, template, "pair-multi",
                         parallelism=1)
        assert _decoded(got) == _decoded(serial)

    @pytest.mark.parametrize("mode", ["pair-batch", "autoreg-struct"])
    def test_one_call_per_step_makes_no_pool_for_one_document(
            self, monkeypatch, mode, labels, template):
        def no_pool(*args, **kwargs):
            raise AssertionError("no pool expected")

        monkeypatch.setattr(scheduler, "ThreadPoolExecutor", no_pool)
        pairs = make_corpus(1, labels, seed=4)
        backend = _BatchingThreadCountingBackend(OracleBackend(pairs, labels, template),
                                                 max_in_flight=8)
        run_corpus([pairs[0][0]], labels, backend, template, mode, parallelism=4)

    def test_bug_stops_the_run_without_decoding_the_rest(self, labels, template):
        pairs = make_corpus(40, labels, seed=4)
        backend = _BrokenBackend()
        with pytest.raises(ValueError, match="bug"):
            run_corpus([doc for doc, _ in pairs], labels, backend, template, "pair-multi",
                       parallelism=4)
        # each of the 4 strands fails on its first document's 4 count requests
        assert backend.calls <= 4 * 4

    def test_parallelism_one_starts_no_thread(self, labels, template):
        pairs = make_corpus(5, labels, seed=4)
        backend = _ThreadCountingBackend(OracleBackend(pairs, labels, template))
        before = threading.active_count()
        for mode in ("pair-multi", "pair-batch"):
            run_corpus([doc for doc, _ in pairs], labels, backend, template, mode,
                       parallelism=1)
        assert backend.peak <= before

    def test_pair_batch_without_batches_fans_out_on_the_run_pool(self, labels, template):
        pairs = make_corpus(40, labels, seed=4)
        backend = _ThreadCountingBackend(OracleBackend(pairs, labels, template),
                                         max_in_flight=6)
        before = threading.active_count()
        run_corpus([doc for doc, _ in pairs], labels, backend, template, "pair-batch",
                   parallelism=4)
        assert backend.peak - before <= 6 - 1  # the calling thread is a worker

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_pair_batch_without_batches_keeps_request_order(
            self, parallelism, labels, template):
        pairs = make_corpus(4, labels, seed=4)
        docs = [doc for doc, _ in pairs]
        oracle = OracleBackend(pairs, labels, template)
        one_at_a_time = _ReversedBackend(oracle, labels, template, max_in_flight=1)
        serial = run_corpus(docs, labels, one_at_a_time, template, "pair-batch", parallelism=1)
        backend = _ReversedBackend(oracle, labels, template, max_in_flight=4)
        got = run_corpus(docs, labels, backend, template, "pair-batch",
                         parallelism=parallelism)
        assert len(backend.threads) > 1
        assert _decoded(got) == _decoded(serial)

    @pytest.mark.parametrize("mode, max_in_flight", [
        ("pair-multi", 1), ("onestep", 1), ("pair-multi", 12), ("onestep", 12),
    ], ids=["pair-multi", "onestep", "pair-multi-nested", "onestep-nested"])
    def test_oversubscribed_pool_finishes_and_matches_serial(
            self, monkeypatch, mode, max_in_flight, labels, template):
        """A deadlock in the shared pool would hang, so the join timeout is the
        check.  With ``max_in_flight`` above ``parallelism`` the strands'
        requests nest on the pool's free workers."""
        pairs = make_corpus(24, labels, seed=9)
        docs = [doc for doc, _ in pairs]
        oracle = OracleBackend(pairs, labels, template,
                               errors=ErrorInjection(p_count=0.3, p_index=0.3))
        serial = run_corpus(docs, labels, oracle, template, mode, parallelism=1)
        backend = _ThreadCountingBackend(_JitteryBackend(oracle), max_in_flight=max_in_flight)
        backend.mark_decoding_threads(monkeypatch)
        before = threading.active_count()
        got = []
        worker = threading.Thread(
            target=lambda: got.append(run_corpus(docs, labels, backend, template, mode,
                                                 parallelism=8)),
            daemon=True,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "run_corpus did not finish: shared pool deadlocked"
        assert _decoded(got[0]) == _decoded(serial)
        assert (backend.off_thread > 0) is (max_in_flight > 8)
        # the run's own thread is one of its max(parallelism, max_in_flight) workers
        assert backend.peak - before <= max(8, max_in_flight)


class _SlowWideBackend(CompletionBackend):
    """Declares eight calls in flight, sleeps 3 ms per call and records the
    threads that call it; raises a non-backend error, as a bug would, on
    every request for the document ``broken``, if given."""

    max_in_flight = 8

    def __init__(self, inner: CompletionBackend, broken: Optional[Document] = None):
        self._inner = inner
        self._broken = broken
        self.threads = set()

    def generate(self, request: CompletionRequest) -> CompletionResult:
        self.threads.add(threading.get_ident())
        if self._broken is not None and self._broken.text in request.prompt:
            raise ValueError("bug")
        time.sleep(0.003)
        return self._inner.generate(request)


def _record_decoding_threads(monkeypatch):
    """(doc id, thread) of every document ``run_corpus`` starts, in order."""
    decode, started = scheduler.decode_document, []

    def recording(doc, *args, **kwargs):
        started.append((doc.id, threading.get_ident()))
        return decode(doc, *args, **kwargs)

    monkeypatch.setattr(scheduler, "decode_document", recording)
    return started


class TestThreadModel:
    """``min(parallelism, len(docs))`` strands on one pool, the calling
    thread always one of them; every thread ``max_in_flight`` allows sends
    requests."""

    @pytest.mark.parametrize("mode", ["pair-multi", "onestep"])
    def test_calling_thread_is_a_strand_and_every_thread_sends(
            self, monkeypatch, mode, labels, template):
        pairs = make_corpus(20, labels, seed=4)
        docs = [doc for doc, _ in pairs]
        backend = _SlowWideBackend(OracleBackend(pairs, labels, template))
        started = _record_decoding_threads(monkeypatch)
        run_corpus(docs, labels, backend, template, mode, parallelism=4)
        assert sorted(doc_id for doc_id, _ in started) == sorted(doc.id for doc in docs)
        assert threading.get_ident() in {thread for _, thread in started}
        assert len(backend.threads) == 8

    @pytest.mark.parametrize("max_in_flight", [1, 8])
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_a_failing_document_starts_no_later_one(
            self, monkeypatch, parallelism, max_in_flight, labels, template):
        pairs = make_corpus(20, labels, seed=4)
        docs = [doc for doc, _ in pairs]
        broken = 5
        backend = _SlowWideBackend(OracleBackend(pairs, labels, template), docs[broken])
        backend.max_in_flight = max_in_flight
        started = _record_decoding_threads(monkeypatch)
        with pytest.raises(ValueError, match="bug"):
            run_corpus(docs, labels, backend, template, "pair-multi", parallelism=parallelism)
        # documents are taken in order; besides the broken one, only the
        # parallelism - 1 that may be in flight beside it have started
        assert sorted(doc_id for doc_id, _ in started) == sorted(
            doc.id for doc in docs[:len(started)])
        assert broken < len(started) <= broken + parallelism


def _benchmark_tracing():
    """``perfbench/tracing.py`` from the checkout, loaded as it stands."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every name on parner.scheduler that the benchmark's tracer rebinds
_TRACED_NAMES = (
    "ThreadPoolExecutor", "decode_document",
    "build_count_prompt", "build_mention_prompt", "build_autoreg_prompt", "build_onestep_prompt",
    "parse_count", "parse_mention", "parse_onestep", "parse_structured", "parse_augmented",
    "visible_text",
)


class TestBenchmarkTracer:
    """The benchmark's traced runs rebind scheduler names; a scheduler that
    drops or bypasses one of them fails here as well as in the harness."""

    # at max_in_flight 4 the strands hand requests to the pool's threads that
    # no strand holds, and those must carry the decode's span
    @pytest.mark.parametrize("max_in_flight", [1, 4])
    def test_instrument_sees_every_layer_and_restores_the_scheduler(
            self, max_in_flight, labels, template):
        tracing = _benchmark_tracing()
        pairs = make_corpus(3, labels, seed=1)
        docs = [doc for doc, _ in pairs]
        tracer = tracing.Tracer()
        backend = tracing.ProbeBackend(OracleBackend(pairs, labels, template), tracer, "oracle")
        backend.max_in_flight = max_in_flight
        before = {name: getattr(scheduler, name) for name in _TRACED_NAMES}
        with tracing.instrument(tracer):
            assert all(getattr(scheduler, name) is not before[name] for name in _TRACED_NAMES)
            run_corpus(docs, labels, backend, template, "pair-multi", parallelism=2)
        assert all(getattr(scheduler, name) is before[name] for name in _TRACED_NAMES)
        decodes = [span for span in tracer.spans if span[0] == "scheduler.decode"]
        calls = [span for span in tracer.spans if span[0] == "oracle.generate"]
        names = Counter(span[0] for span in tracer.spans)
        assert len(decodes) == len(docs)
        assert len(calls) == backend.attempted > 0
        assert names["templates.build"] > 0 and names["templates.parse"] > 0
        # each call, on whichever thread, names the decode it was made for
        assert {span[5] for span in calls} == {span[3] for span in decodes}
