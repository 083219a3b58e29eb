"""Backends: request plumbing, the corpus oracle, HTTP."""

from __future__ import annotations

import base64
import contextlib
import copy
import gzip
import hashlib
import json
import math
import os
import pathlib
import pickle
import re
import select
import socket
import ssl
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler
from typing import Optional

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from parner.backends import (
    CompletionRequest,
    CompletionResult,
    CostModel,
    ErrorInjection,
    OracleBackend,
    TransportError,
    UnknownPromptError,
    simple_tokenize,
)
from parner.backends import http as http_module
from parner.backends import oracle as oracle_module
from parner.backends.base import STOP_REASONS, apply_request_limits
from parner.backends.http import TOKEN_ENV_VAR, HttpBackend
from parner.corpus import Document, GoldAnnotation, Mention
from parner.scheduler import ScoredMention, SequenceTrace, run_corpus
from parner.synthetic import make_corpus
from parner.templates import (
    build_autoreg_prompt,
    build_count_prompt,
    build_mention_prompt,
    build_onestep_prompt,
    emit_aug,
    emit_onestep,
    PromptTemplate,
    emit_struct,
    parse_count,
    ParsedMention,
)
from helpers import QuietHTTPServer


class TestRequestAndResult:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="x", max_new_tokens=0)
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            CompletionRequest(prompt="x", batch_size=0)

    def test_request_carries_no_stop_strings(self):
        assert CompletionRequest._fields == ("prompt", "max_new_tokens", "want_logprobs",
                                             "batch_size")
        assert STOP_REASONS == ("eos", "length")
        assert CompletionRequest("p", stop=()) == CompletionRequest("p")
        for stop in [("",), ["\n"]]:
            with pytest.raises(ValueError, match="stop strings are not supported"):
                CompletionRequest("p", stop=stop)
        with pytest.raises(TypeError):
            CompletionRequest("p", 4, False, ("\n",))

    def test_result_alignment_enforced(self):
        with pytest.raises(ValueError):
            CompletionResult(
                tokens=("a", "b"), token_logprobs=(-0.1,), text="ab",
                stop_reason="eos", latency_ms=0.0,
            )
        with pytest.raises(ValueError):
            CompletionResult(
                tokens=("a",), token_logprobs=(), text="a",
                stop_reason="halted", latency_ms=0.0,
            )

    def test_text_must_concatenate_tokens(self):
        with pytest.raises(ValueError, match="concatenate"):
            CompletionResult(
                tokens=("It", "aly"), token_logprobs=(-0.1, -0.2), text="Italy!",
                stop_reason="eos", latency_ms=0.0,
            )

    @pytest.mark.parametrize("logprobs, bad", [
        ((math.nan, -0.1), "nan"), ((-0.1, math.inf), "inf"),
        ((-math.inf, math.inf), "inf"), ((1e308, 1e308, math.nan), "nan"),
    ], ids=["nan", "inf", "inf-beside-minus-inf", "nan-after-overflow"])
    def test_nan_or_inf_logprob_rejected(self, logprobs, bad):
        tokens = tuple("abc"[:len(logprobs)])
        with pytest.raises(ValueError, match=f"token_logprobs must hold no NaN or \\+inf, "
                                             f"got {bad}$"):
            CompletionResult(tokens=tokens, token_logprobs=logprobs, text="".join(tokens),
                             stop_reason="eos", latency_ms=0.0)

    def test_minus_inf_and_positive_logprobs_accepted(self):
        # -inf is probability 0, and a positive logprob is clamped when scored,
        # even when the logprobs sum past the largest float
        for logprobs in [(-math.inf, 0.5), (1e308, 1e308), (-math.inf, 1e308, 1e308)]:
            tokens = tuple("abc"[:len(logprobs)])
            result = CompletionResult(tokens=tokens, token_logprobs=logprobs,
                                      text="".join(tokens), stop_reason="eos", latency_ms=0.0)
            assert result.token_logprobs == logprobs

    @pytest.mark.parametrize("latency_ms", [-5.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_latency_rejected(self, latency_ms):
        with pytest.raises(ValueError, match="latency_ms must be finite and >= 0"):
            CompletionResult(tokens=("a",), token_logprobs=(-0.1,), text="a",
                             stop_reason="eos", latency_ms=latency_ms)

    def test_make_and_replace_run_the_checks(self):
        request = CompletionRequest("p")
        result = CompletionResult(tokens=("a",), token_logprobs=(-0.1,), text="a",
                                  stop_reason="eos", latency_ms=0.0)
        with pytest.raises(ValueError, match="max_new_tokens must be >= 1"):
            request._replace(max_new_tokens=0)
        with pytest.raises(ValueError, match="max_new_tokens must be >= 1"):
            CompletionRequest._make(["p", 0, True])
        with pytest.raises(ValueError, match="latency_ms must be finite and >= 0"):
            result._replace(latency_ms=-5.0)
        with pytest.raises(ValueError, match="unknown stop_reason"):
            CompletionResult._make([("a",), (-0.1,), "a", "nope", math.nan])
        assert request._replace(max_new_tokens=4) == CompletionRequest("p", max_new_tokens=4)
        assert type(CompletionResult._make(result)) is CompletionResult

    @pytest.mark.parametrize("copy_of", [
        lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_run_the_checks(self, copy_of):
        request = CompletionRequest("p", max_new_tokens=3, want_logprobs=False)
        result = CompletionResult(tokens=("a", "b"), token_logprobs=(-0.1, 0.5), text="ab",
                                  stop_reason="length", latency_ms=2.5)
        for record in (request, result):
            again = copy_of(record)
            assert again == record and type(again) is type(record)
        # records built around the constructor are refused when rebuilt
        with pytest.raises(ValueError, match="max_new_tokens must be >= 1"):
            copy_of(tuple.__new__(CompletionRequest, ("p", 0, True)))
        with pytest.raises(ValueError, match="latency_ms must be finite and >= 0"):
            copy_of(tuple.__new__(CompletionResult, (("a",), (), "a", "eos", -5.0)))

    @pytest.mark.parametrize("record, field", [
        (CompletionRequest("p"), "max_new_tokens"),
        (CompletionResult(("a",), (), "a", "eos", 0.0), "latency_ms"),
        (SequenceTrace("d/PER/count", "PER", "count", None,
                       CompletionResult(("a",), (), "a", "eos", 0.0), 0.0), "latency_ms"),
        (ScoredMention("PER", "Bob", 0.5, "d/PER/mention1"), "probability"),
        (ParsedMention("Bob", (0, 0)), "token_span"),
        (Mention("PER", "Bob"), "text"),
    ], ids=lambda value: type(value).__name__ if not isinstance(value, str) else value)
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


@st.composite
def _limited_requests(draw):
    """Tokens (some empty, some of several characters) and a budget from 1
    to n + 2."""
    tokens = draw(st.lists(st.text("ab<>\n ", max_size=4), max_size=8))
    return tokens, CompletionRequest("p", max_new_tokens=draw(st.integers(1, len(tokens) + 2)))


class TestRequestLimits:
    @given(_limited_requests())
    @settings(max_examples=400)
    def test_keeps_the_tokens_within_budget(self, case):
        tokens, request = case
        before = list(tokens)
        kept = before[:request.max_new_tokens]
        reason = "length" if len(before) > request.max_new_tokens else "eos"
        assert apply_request_limits(tokens, request) == (kept, "".join(kept), reason)
        assert tokens == before

    def test_cuts_only_over_budget(self):
        tokens = ["Ital", "y", "<eos>"]
        for budget, kept, reason in [(3, tokens, "eos"), (4, tokens, "eos"),
                                     (2, tokens[:2], "length")]:
            request = CompletionRequest("p", max_new_tokens=budget)
            assert apply_request_limits(tokens, request) == (kept, "".join(kept), reason)


class TestSimpleTokenize:
    def test_leading_space_attaches(self):
        assert simple_tokenize("Jacques Moret") == ["Jacques", " Moret"]

    def test_concatenation_identity(self):
        for text in ["", "a", "  padded  ", "1995 World Cup", "北京市", "a\nb\tc"]:
            assert "".join(simple_tokenize(text)) == text


class TestCostModel:
    def test_affine_law(self):
        cost = CostModel(ms_per_token=10.0, fixed_overhead_ms=25.0, batch_penalty_alpha=0.05)
        assert cost.penalty(1) == 1.0
        assert cost.penalty(4) == pytest.approx(1.15)
        assert cost.latency_ms(2, 1) == pytest.approx(45.0)
        assert cost.latency_ms(2, 5) == pytest.approx(25.0 + 20.0 * 1.2)
        assert cost.latency_ms(0, 8) == pytest.approx(25.0)

    def test_batch_never_cheaper(self):
        cost = CostModel()
        assert cost.latency_ms(5, 4) >= cost.latency_ms(5, 1)
        with pytest.raises(ValueError):
            cost.penalty(0)

    @pytest.mark.parametrize("field", ["ms_per_token", "fixed_overhead_ms",
                                       "batch_penalty_alpha"])
    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_negative_or_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got {value}$"):
            CostModel(**{field: value})

    def test_zero_settings_accepted(self):
        cost = CostModel(ms_per_token=0, fixed_overhead_ms=0, batch_penalty_alpha=0)
        assert cost.latency_ms(7, 3) == 0.0


class TestErrorInjection:
    @pytest.mark.parametrize("field, value", [
        ("p_count", -0.1), ("p_index", 1.5), ("p_count", math.nan),
    ], ids=["negative", "above-one", "nan"])
    def test_probability_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be in \\[0, 1\\], got {value}$"):
            ErrorInjection(**{field: value})

    def test_bounds_accepted(self):
        errors = ErrorInjection(p_count=0.0, p_index=1.0)
        assert (errors.p_count, errors.p_index) == (0.0, 1.0)


@pytest.fixture
def oracle_corpus(cuttitta):
    doc, gold = cuttitta
    empty = (Document(id="d1", text="nothing here at all"),
             GoldAnnotation(doc_id="d1", mentions=[]))
    return [(doc, gold), empty]


class TestOracleBackend:
    def test_count_answer_digits_and_terminator(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template)
        doc = oracle_corpus[0][0]
        prompt = build_count_prompt(doc, "LOC", template)
        result = oracle.generate(CompletionRequest(prompt=prompt))
        assert result.tokens == ("2", "\n")
        assert parse_count(result, template) == 2
        assert result.latency_ms == pytest.approx(CostModel().latency_ms(2, 1))

    def test_zero_count_is_immediate_eos(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template)
        doc = oracle_corpus[0][0]
        prompt = build_count_prompt(doc, "ORG", template)
        result = oracle.generate(CompletionRequest(prompt=prompt))
        assert result.tokens == ("<eos>",)
        assert parse_count(result, template) == 0

    def test_mention_answers_match_gold(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template)
        doc, gold = oracle_corpus[0]
        count_prompt = build_count_prompt(doc, "LOC", template)
        for index, expected in [(1, "Italy"), (2, "England")]:
            prompt = build_mention_prompt(count_prompt, 2, index, template)
            result = oracle.generate(CompletionRequest(prompt=prompt))
            assert result.text == expected + "<eos>"
            assert result.tokens[-1] == "<eos>"

    def test_faithful_probabilities_near_hi(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template, seed=_SEED)
        doc, _ = oracle_corpus[0]
        prompt = build_mention_prompt(
            build_count_prompt(doc, "PER", template), 1, 1, template)
        result = oracle.generate(CompletionRequest(prompt=prompt))
        surface = [_reference_logprob(False, "d0", "PER", "mention", 1, i)
                   for i in range(len(result.tokens) - 1)]
        eos = _reference_logprob(False, "d0", "PER", "mention-eos", 1)
        assert result.token_logprobs == (*surface, eos)
        assert all(math.log(0.91) <= lp < math.log(0.95) for lp in result.token_logprobs)

    def test_unknown_prompt_raises(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template)
        with pytest.raises(UnknownPromptError):
            oracle.generate(CompletionRequest(prompt="something else entirely"))

    def test_overestimated_count_repeats_last_mention(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template, seed=_SEED)
        doc, _ = oracle_corpus[0]
        count_prompt = build_count_prompt(doc, "LOC", template)
        prompt = build_mention_prompt(count_prompt, 3, 3, template)
        result = oracle.generate(CompletionRequest(prompt=prompt))
        assert result.text == "England<eos>"
        assert result.token_logprobs[0] == _reference_logprob(True, "d0", "LOC", "mention", 3, 0)

    def test_forced_count_and_mention(self, oracle_corpus, labels, template):
        errors = ErrorInjection(
            forced_counts={("d0", "MISC"): 2},
            forced_mentions={("d0", "MISC", 2): "Italy"},
        )
        oracle = OracleBackend(oracle_corpus, labels, template, errors=errors, seed=_SEED)
        doc, _ = oracle_corpus[0]
        count_prompt = build_count_prompt(doc, "MISC", template)
        count = oracle.generate(CompletionRequest(prompt=count_prompt))
        assert count.tokens == ("2", "\n")
        # the forced count is wrong (gold has one MISC mention): low confidence
        assert count.token_logprobs[0] == _reference_logprob(True, "d0", "MISC", "count", 0)
        forced = oracle.generate(CompletionRequest(
            prompt=build_mention_prompt(count_prompt, 2, 2, template)))
        assert forced.text == "Italy<eos>"
        assert forced.token_logprobs[0] == _reference_logprob(True, "d0", "MISC", "mention", 2, 0)
        faithful = oracle.generate(CompletionRequest(
            prompt=build_mention_prompt(count_prompt, 2, 1, template)))
        assert faithful.text == "1995 World Cup<eos>"
        assert faithful.token_logprobs[0] == _reference_logprob(
            False, "d0", "MISC", "mention", 1, 0)

    def test_zero_mention_label_fabricates_cross_label(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template, seed=_SEED)
        doc, gold = oracle_corpus[0]
        count_prompt = build_count_prompt(doc, "ORG", template)
        result = oracle.generate(CompletionRequest(
            prompt=build_mention_prompt(count_prompt, 1, 1, template)))
        surface = result.text[: -len("<eos>")]
        assert surface in {m.text for m in gold.mentions}
        assert result.token_logprobs[0] == _reference_logprob(True, "d0", "ORG", "mention", 1, 0)

    def _transcript(self, oracle, corpus, labels, template):
        lines = []
        for doc, gold in corpus:
            for label, mentions in gold.by_label(labels).items():
                count_prompt = build_count_prompt(doc, labels.surface(label), template)
                r = oracle.generate(CompletionRequest(prompt=count_prompt))
                lines.append((count_prompt, r.tokens, r.token_logprobs))
                m = len(mentions)
                for index in range(1, m + 1):
                    p = build_mention_prompt(count_prompt, m, index, template)
                    r = oracle.generate(CompletionRequest(prompt=p))
                    lines.append((p, r.tokens, r.token_logprobs))
        return lines

    def test_same_seed_same_transcript(self, oracle_corpus, labels, template):
        errors = ErrorInjection(p_count=0.5, p_index=0.5)
        a = OracleBackend(oracle_corpus, labels, template, errors=errors, seed=13)
        b = OracleBackend(oracle_corpus, labels, template, errors=errors, seed=13)
        assert self._transcript(a, oracle_corpus, labels, template) == \
            self._transcript(b, oracle_corpus, labels, template)

    def test_different_seed_differs(self, oracle_corpus, labels, template):
        a = OracleBackend(oracle_corpus, labels, template, seed=0)
        b = OracleBackend(oracle_corpus, labels, template, seed=1)
        assert self._transcript(a, oracle_corpus, labels, template) != \
            self._transcript(b, oracle_corpus, labels, template)

    def test_answers_independent_of_call_order(self, oracle_corpus, labels, template):
        errors = ErrorInjection(p_count=0.4, p_index=0.4)
        oracle = OracleBackend(oracle_corpus, labels, template, errors=errors, seed=5)
        doc, _ = oracle_corpus[0]
        prompts = [build_count_prompt(doc, labels.surface(l), template) for l in labels]
        forward = [oracle.generate(CompletionRequest(prompt=p)).tokens for p in prompts]
        backward = [oracle.generate(CompletionRequest(prompt=p)).tokens
                    for p in reversed(prompts)]
        assert forward == list(reversed(backward))

    def test_batch_applies_penalty(self, oracle_corpus, labels, template):
        cost = CostModel(ms_per_token=10.0, fixed_overhead_ms=0.0, batch_penalty_alpha=0.05)
        oracle = OracleBackend(oracle_corpus, labels, template, cost=cost)
        prompt = build_count_prompt(oracle_corpus[0][0], "PER", template)
        single = oracle.generate(CompletionRequest(prompt))
        batched = oracle.generate(CompletionRequest(prompt, batch_size=4))
        # PER count "1\n" is 2 tokens: 20ms alone, 20 * 1.15 in a batch of 4
        assert single.latency_ms == pytest.approx(20.0)
        assert batched.latency_ms == pytest.approx(20.0 * 1.15)
        assert batched._replace(latency_ms=single.latency_ms) == single

    def test_length_limit_respected(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template)
        doc = oracle_corpus[0][0]
        prompt = build_count_prompt(doc, "LOC", template)
        full = oracle.generate(CompletionRequest(prompt=prompt))
        assert full.text == "2\n" and full.stop_reason == "eos"
        capped = oracle.generate(CompletionRequest(prompt=prompt, max_new_tokens=1))
        assert capped.tokens == ("2",) and capped.stop_reason == "length"

    def test_want_logprobs_false_omits_them(self, oracle_corpus, labels, template):
        oracle = OracleBackend(oracle_corpus, labels, template)
        doc = oracle_corpus[0][0]
        prompt = build_count_prompt(doc, "LOC", template)
        result = oracle.generate(CompletionRequest(prompt=prompt, want_logprobs=False))
        assert result.token_logprobs == ()


_SEED = 7


def _reference_logprob(erroneous: bool, *key) -> float:
    """The oracle's logprob formula at default probabilities, hashing the
    whole joined key of every token."""
    material = "\x1f".join(str(p) for p in (_SEED, "jitter", *key))
    unit = int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest()[:8], "big") / 2.0**64
    return math.log((0.61 if erroneous else 0.93) + (unit * 2.0 - 1.0) * 0.02)


class TestOracleLogprobs:
    """Logprobs follow the per-token formula, for the kept tokens only, and
    cost no hashing when not asked for."""

    @pytest.fixture
    def oracle(self, oracle_corpus, labels, template):
        errors = ErrorInjection(forced_counts={("d0", "MISC"): 2},
                                forced_mentions={("d0", "MISC", 2): "Italy"})
        return OracleBackend(oracle_corpus, labels, template, errors=errors, seed=_SEED)

    @pytest.fixture
    def cases(self, oracle_corpus, labels, template):
        """(prompt, (erroneous, key) of each token of the full answer, sha256 calls)."""
        doc, gold = oracle_corpus[0]
        count = {label: build_count_prompt(doc, label, template) for label in labels}

        def serialized(output, key):
            n = len(simple_tokenize(output)) + 1
            return [(False, ("d0", key, i)) for i in range(n)]

        return [
            (count["LOC"], [(False, ("d0", "LOC", "count", i)) for i in range(2)], 1),
            (count["MISC"], [(True, ("d0", "MISC", "count", i)) for i in range(2)], 1),
            (count["ORG"], [(False, ("d0", "ORG", "count", 0))], 1),
            (build_mention_prompt(count["MISC"], 2, 1, template),
             [(False, ("d0", "MISC", "mention", 1, i)) for i in range(3)]
             + [(False, ("d0", "MISC", "mention-eos", 1))], 2),
            (build_mention_prompt(count["MISC"], 2, 2, template),
             [(True, ("d0", "MISC", "mention", 2, 0)), (False, ("d0", "MISC", "mention-eos", 2))],
             2),
            (build_onestep_prompt(doc, "LOC", template),
             serialized(emit_onestep(gold.by_label(labels)["LOC"]), "onestep/LOC"), 1),
            (build_autoreg_prompt(doc, "struct", labels, template),
             serialized(emit_struct(gold.by_label(labels), labels), "autoreg"), 1),
            (build_autoreg_prompt(doc, "aug", labels, template),
             serialized(emit_aug(doc, gold, labels), "autoreg"), 1),
        ]

    @pytest.mark.parametrize("max_new_tokens", [512, 3, 1])
    def test_logprobs_match_per_token_formula(self, oracle, cases, max_new_tokens):
        for prompt, keys, _ in cases:
            result = oracle.generate(CompletionRequest(prompt, max_new_tokens=max_new_tokens))
            kept = keys[:max_new_tokens]
            assert len(result.tokens) == len(kept)
            assert result.token_logprobs == tuple(_reference_logprob(e, *k) for e, k in kept)

    def test_unrequested_logprobs_cost_no_hashing(self, oracle, cases, monkeypatch):
        calls = []
        real = oracle_module.hashlib.sha256

        def counting_sha256(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle_module.hashlib, "sha256", counting_sha256)
        for prompt, keys, hashed in cases:
            calls.clear()
            result = oracle.generate(CompletionRequest(prompt, want_logprobs=False))
            assert result.token_logprobs == () and len(result.tokens) == len(keys)
            assert calls == []
            oracle.generate(CompletionRequest(prompt))
            assert len(calls) == hashed  # once per sequence key, not per token


def _reference_unit(*parts) -> float:
    """The oracle's uniform draw for one decision, hashing its whole joined identity."""
    material = "\x1f".join(str(p) for p in (_SEED, *parts))
    return int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest()[:8], "big") / 2.0**64


class TestOracleDecisionDraws:
    """Whether a count or mention is perturbed, each count's +-1 direction and
    each swapped surface follow the reference draw of the decision's identity."""

    @pytest.fixture
    def corpus(self, labels):
        return make_corpus(8, labels, seed=5)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_count_perturbation(self, corpus, labels, template, p):
        oracle = OracleBackend(corpus, labels, template, seed=_SEED,
                               errors=ErrorInjection(p_count=p))
        seen = set()
        for doc, gold in corpus:
            for label, mentions in gold.by_label(labels).items():
                gold_m = len(mentions)
                delta = 0
                if _reference_unit("count?", doc.id, label) < p:
                    up = gold_m == 0 or _reference_unit("count+-", doc.id, label) < 0.5
                    delta = 1 if up else -1
                result = oracle.generate(CompletionRequest(
                    build_count_prompt(doc, label, template)))
                assert parse_count(result, template) == gold_m + delta
                seen.add(delta)
        assert seen == ({-1, 1} if p == 1.0 else {-1, 0, 1})

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_cross_label_swap(self, corpus, labels, template, p):
        oracle = OracleBackend(corpus, labels, template, seed=_SEED,
                               errors=ErrorInjection(p_index=p))
        picks, swapped = set(), set()
        for doc, gold in corpus:
            for label, mentions in gold.by_label(labels).items():
                candidates = [m.text for m in gold.mentions if m.label != label]
                count_prompt = build_count_prompt(doc, label, template)
                for index, mention in enumerate(mentions, start=1):
                    expected = mention.text
                    if candidates:  # no other label's surface: nothing to swap in
                        swap = _reference_unit("index?", doc.id, label, index) < p
                        swapped.add(swap)
                        if swap:
                            pick = int(_reference_unit("swap", doc.id, label, index)
                                       * len(candidates))
                            expected = candidates[min(pick, len(candidates) - 1)]
                            picks.add(pick)
                    result = oracle.generate(CompletionRequest(
                        build_mention_prompt(count_prompt, len(mentions), index, template)))
                    assert result.text == expected + "<eos>"
        assert len(picks) > 1
        assert swapped == ({True} if p == 1.0 else {False, True})


class _StubHandler(BaseHTTPRequestHandler):
    """Answers per ``server.behavior``; ``server.response_headers(n)`` adds
    headers to the n-th answer, and the body is encoded as they say
    (``Content-Encoding: gzip``/``deflate``, ``Transfer-Encoding: chunked``).
    ``server.raw_answer(n)``, when not None, is written instead, as it is."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        payload = json.loads(body)
        self.server.calls.append({
            "path": self.path, "payload": payload, "headers": dict(self.headers),
            "wire_headers": self.headers.items(), "body": body,
            "connection": self.client_address,
        })
        n = len(self.server.calls)
        raw = self.server.raw_answer(n)
        if raw is not None:
            self.wfile.write(raw)
        else:
            self._answer(payload, n)
        if self.server.drop_idle:
            self.close_connection = True  # without saying so in a header

    def _answer(self, payload, n):
        status, answer = self.server.behavior(payload, n)
        headers = self.server.response_headers(n)
        data = json.dumps(answer).encode("utf-8")
        coding = headers.get("Content-Encoding")
        if coding == "gzip":
            data = gzip.compress(data)
        elif coding == "deflate":
            data = zlib.compress(data)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        chunked = headers.get("Transfer-Encoding") == "chunked"
        if not chunked:
            self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if chunked:
            for i in range(0, len(data), 7):
                piece = data[i:i + 7]
                self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\n\r\n")
        else:
            self.wfile.write(data)

    def log_message(self, *args):
        pass


class _Http10Handler(_StubHandler):
    protocol_version = "HTTP/1.0"


class _StubServer(QuietHTTPServer):
    """Counts the connections it accepts and closes."""

    daemon_threads = True

    def __init__(self, handler, tls: Optional[ssl.SSLContext] = None):
        super().__init__(("127.0.0.1", 0), handler)
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        self.calls = []
        self.behavior = lambda payload, n: (200, _OK_BODY)
        self.response_headers = lambda n: {}
        self.raw_answer = lambda n: None
        self.drop_idle = False
        self.accepted = 0
        self.closed = 0
        self._closed_lock = threading.Lock()

    def get_request(self):
        request = super().get_request()
        self.accepted += 1
        return request

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._closed_lock:  # handler threads close their own connections
            self.closed += 1


_OK_BODY = {
    "text": "Italy<eos>",
    "tokens": ["Italy", "<eos>"],
    "token_logprobs": [-0.1, -0.05],
    "finish_reason": "eos",
}
_OK_JSON = json.dumps(_OK_BODY).encode("utf-8")
_OK_LENGTH = b"Content-Length: %d" % len(_OK_JSON)


def _raw_answer(*fields: bytes, body: bytes = _OK_JSON) -> bytes:
    """A 200 answer written by hand: the status line, ``fields`` and ``body``."""
    return b"HTTP/1.1 200 OK\r\n" + b"".join(f + b"\r\n" for f in fields) + b"\r\n" + body


@contextlib.contextmanager
def _running_stub(handler=_StubHandler, tls: Optional[ssl.SSLContext] = None):
    server = _StubServer(handler, tls)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def stub_server():
    with _running_stub() as server:
        yield server


@pytest.fixture
def proxy_server():
    """A second stub; as an HTTP proxy it sees absolute-form request targets."""
    with _running_stub() as server:
        yield server


@pytest.fixture
def session():
    with requests.Session() as session:
        yield session


def _origin(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}"


def _url(server) -> str:
    return _origin(server) + "/v1/completions"


class TestHttpBackend:
    @pytest.mark.parametrize("limits, got", [
        ({"max_in_flight": 0}, "got 0 and 2"),
        ({"max_retries": -1}, "got 8 and -1"),
    ])
    def test_bad_limits_rejected(self, limits, got):
        with pytest.raises(ValueError, match=f"max_retries >= 0, {got}"):
            HttpBackend("http://127.0.0.1:9/v1/completions", **limits)

    @pytest.mark.parametrize("timing, message", [
        ({"timeout_s": -1.0}, "timeout_s must be a finite number > 0, got -1.0"),
        ({"timeout_s": 0}, "timeout_s must be a finite number > 0, got 0"),
        ({"timeout_s": math.inf}, "timeout_s must be a finite number > 0, got inf"),
        ({"timeout_s": math.nan}, "timeout_s must be a finite number > 0, got nan"),
    ], ids=["negative-timeout", "zero-timeout", "infinite-timeout", "nan-timeout"])
    def test_bad_timing_rejected(self, timing, message):
        with pytest.raises(ValueError, match=message):
            HttpBackend("http://127.0.0.1:9/v1/completions", **timing)

    def test_round_trip(self, stub_server):
        backend = HttpBackend(_url(stub_server))
        result = backend.generate(CompletionRequest(prompt="p", max_new_tokens=64))
        assert result.text == "Italy<eos>"
        assert result.tokens == ("Italy", "<eos>")
        assert result.token_logprobs == (-0.1, -0.05)
        assert result.stop_reason == "eos"
        assert result.latency_ms > 0
        payload = stub_server.calls[0]["payload"]
        assert payload == {
            "prompt": "p", "max_tokens": 64, "temperature": 0,
            "logprobs": True, "echo": False,
        }

    def test_batch_size_is_not_sent(self, stub_server):
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            for batch_size in (4, 1):
                backend.generate(CompletionRequest("p", 64, True, batch_size))
        batched, alone = (call["body"] for call in stub_server.calls)
        assert batched == alone
        assert set(json.loads(batched)) == {"prompt", "max_tokens", "temperature", "logprobs",
                                            "echo"}

    @pytest.mark.parametrize("want_logprobs", [True, False])
    def test_body_rebuilds_as_the_served_benchmark_reads_it(self, stub_server, want_logprobs):
        # perfbench/stub_server.py builds each request from the body exactly so
        sent = CompletionRequest("Köln", max_new_tokens=9, want_logprobs=want_logprobs)
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            backend.generate(sent)
        body = stub_server.calls[0]["payload"]
        assert set(body) == {"prompt", "max_tokens", "temperature", "logprobs", "echo"}
        rebuilt = CompletionRequest(
            prompt=body["prompt"],
            max_new_tokens=int(body["max_tokens"]),
            stop=tuple(body.get("stop", ())),
            want_logprobs=bool(body.get("logprobs", True)),
        )
        assert rebuilt == sent and type(rebuilt) is CompletionRequest
        with pytest.raises(ValueError, match="stop strings are not supported"):
            CompletionRequest("p", stop=("\n",))

    def test_retries_5xx_then_succeeds(self, stub_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        stub_server.behavior = lambda payload, n: (503, {}) if n <= 2 else (200, _OK_BODY)
        backend = HttpBackend(_url(stub_server), max_retries=2)
        result = backend.generate(CompletionRequest(prompt="p"))
        assert result.text == "Italy<eos>"
        assert len(stub_server.calls) == 3
        assert sleeps == [0.25, 0.5]  # exponential backoff from 0.25 s

    def test_retries_exhausted(self, stub_server, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        stub_server.behavior = lambda payload, n: (503, {})
        backend = HttpBackend(_url(stub_server), max_retries=1)
        with pytest.raises(TransportError):
            backend.generate(CompletionRequest(prompt="p"))
        assert len(stub_server.calls) == 2

    def test_4xx_fails_without_retry(self, stub_server):
        stub_server.behavior = lambda payload, n: (404, {"error": "nope"})
        backend = HttpBackend(_url(stub_server), max_retries=3)
        with pytest.raises(TransportError):
            backend.generate(CompletionRequest(prompt="p"))
        assert len(stub_server.calls) == 1

    def test_missing_logprobs_rejected(self, stub_server):
        body = {k: v for k, v in _OK_BODY.items() if k != "token_logprobs"}
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server))
        with pytest.raises(TransportError) as err:
            backend.generate(CompletionRequest(prompt="p"))
        assert "token_logprobs" in str(err.value)

    def test_logprobs_optional_when_not_wanted(self, stub_server):
        body = {k: v for k, v in _OK_BODY.items() if k != "token_logprobs"}
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server))
        result = backend.generate(CompletionRequest(prompt="p", want_logprobs=False))
        assert result.token_logprobs == ()

    def test_misaligned_logprobs_rejected(self, stub_server):
        body = dict(_OK_BODY, token_logprobs=[-0.1])
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server))
        with pytest.raises(TransportError):
            backend.generate(CompletionRequest(prompt="p"))

    def test_unknown_finish_reason_rejected(self, stub_server):
        body = dict(_OK_BODY, finish_reason="halted")
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server))
        with pytest.raises(TransportError):
            backend.generate(CompletionRequest(prompt="p"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nan_or_inf_logprob_rejected(self, stub_server, bad):
        # the stub's json.dumps writes the NaN and Infinity literals, which
        # Python's json reads back
        body = dict(_OK_BODY, token_logprobs=[bad, -0.05])
        stub_server.behavior = lambda payload, n: (200, body)
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            with pytest.raises(TransportError, match="token_logprobs must hold no NaN or \\+inf"):
                backend.generate(CompletionRequest(prompt="p"))
            # counts are never scored, so their logprobs are not read
            result = backend.generate(CompletionRequest(prompt="p", want_logprobs=False))
            assert result.token_logprobs == ()

    def test_nan_logprob_is_one_defect(self, stub_server, labels, template):
        doc = Document(id="x", text="Italy beat England.")
        poisoned = build_mention_prompt(build_count_prompt(doc, "LOC", template), 1, 1, template)

        def behavior(payload, n):
            if not payload["logprobs"]:  # a count request: one mention per label
                return 200, {"text": "1\n", "tokens": ["1", "\n"], "finish_reason": "eos"}
            logprob = math.nan if payload["prompt"] == poisoned else -0.1
            return 200, dict(_OK_BODY, token_logprobs=[logprob, -0.05])

        stub_server.behavior = behavior
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            outcome = run_corpus([doc], labels, backend, template, "pair-multi")[0]
        assert len(outcome.defects) == 1
        assert outcome.defects[0].startswith("mention request failed for label LOC index 1: ")
        assert "token_logprobs must hold no NaN or +inf, got nan" in outcome.defects[0]
        assert [m.label for m in outcome.raw_mentions] == ["PER", "MISC", "ORG"]
        assert all(m.text == "Italy" for m in outcome.raw_mentions)

    @pytest.mark.parametrize("body, message", [
        (["Italy<eos>"], "malformed completion response: ['Italy<eos>']"),
        ({"tokens": ["Italy<eos>"]}, "malformed completion response: {'tokens'"),
        (dict(_OK_BODY, tokens=None), "completion response is missing 'tokens'"),
        (dict(_OK_BODY, finish_reason=None), "unknown finish_reason: None"),
        (dict(_OK_BODY, token_logprobs=["hi", -0.05]),
         "breaks the result contract: token_logprobs must be numbers: ['hi', -0.05]"),
        (dict(_OK_BODY, token_logprobs=[-10 ** 400, -0.05]),
         "breaks the result contract: int too large to convert to float"),
        ({"text": "Noneab", "tokens": [None, "ab"], "token_logprobs": ["-0.1", True]},
         "breaks the result contract: text and tokens must be strings"),
        (dict(_OK_BODY, tokens=["Italy", 5]),
         "breaks the result contract: text and tokens must be strings"),
        ({"text": 5, "tokens": ["5"], "token_logprobs": [-0.1]},
         "breaks the result contract: text and tokens must be strings"),
        (dict(_OK_BODY, token_logprobs=["-0.1", -0.05]),
         "breaks the result contract: token_logprobs must be numbers: ['-0.1', -0.05]"),
        (dict(_OK_BODY, token_logprobs=[True, -0.05]),
         "breaks the result contract: token_logprobs must be numbers: [True, -0.05]"),
        (dict(_OK_BODY, token_logprobs=[None, -0.05]),
         "breaks the result contract: token_logprobs must be numbers: [None, -0.05]"),
    ], ids=["not-an-object", "no-text", "tokens-null", "finish-null", "logprobs-string-entry",
            "logprobs-huge-integer", "null-token", "number-token", "number-text",
            "numeric-string-logprob", "true-logprob", "null-logprob"])
    def test_answer_breaking_the_contract_rejected(self, stub_server, body, message):
        stub_server.behavior = lambda payload, n: (200, body)
        with _client(stub_server) as backend:
            with pytest.raises(TransportError, match=re.escape(message)):
                backend.generate(CompletionRequest(prompt="p"))
        assert len(stub_server.calls) == 1

    def test_mistyped_logprob_ignored_when_none_asked_for(self, stub_server):
        stub_server.behavior = lambda payload, n: (200, dict(_OK_BODY, token_logprobs=[True, "x"]))
        with _client(stub_server) as backend:
            result = backend.generate(CompletionRequest(prompt="p", want_logprobs=False))
        assert result.tokens == ("Italy", "<eos>") and result.token_logprobs == ()

    def test_true_logprob_is_one_defect_not_probability_one(self, stub_server, labels, template):
        doc = Document(id="x", text="Italy beat England.")

        def behavior(payload, n):
            logprob = True if "LOC" in payload["prompt"] else -0.1
            return 200, {"text": '["Italy"]', "tokens": ['["Italy"]'],
                         "token_logprobs": [logprob], "finish_reason": "eos"}

        stub_server.behavior = behavior
        with _client(stub_server) as backend:
            outcome = run_corpus([doc], labels, backend, template, "onestep")[0]
        assert len(outcome.defects) == 1
        assert outcome.defects[0].startswith("onestep request failed for label LOC: ")
        assert "token_logprobs must be numbers: [True]" in outcome.defects[0]
        assert sorted(m.label for m in outcome.raw_mentions) == ["MISC", "ORG", "PER"]

    def test_integer_logprobs_arrive_as_floats(self, stub_server):
        stub_server.behavior = lambda payload, n: (200, dict(_OK_BODY, token_logprobs=[-1, 0]))
        with _client(stub_server) as backend:
            result = backend.generate(CompletionRequest(prompt="p"))
        assert result.token_logprobs == (-1.0, 0.0)
        assert [type(x) for x in result.token_logprobs] == [float, float]

    def test_minus_inf_and_positive_logprobs_accepted(self, stub_server):
        # the stub's json.dumps writes the -Infinity literal
        body = dict(_OK_BODY, token_logprobs=[-math.inf, 0.5])
        stub_server.behavior = lambda payload, n: (200, body)
        with _client(stub_server) as backend:
            result = backend.generate(CompletionRequest(prompt="p"))
        assert result.token_logprobs == (-math.inf, 0.5)

    def test_huge_integer_logprob_is_one_defect(self, stub_server, labels, template):
        doc = Document(id="x", text="Italy beat England.")

        def behavior(payload, n):
            logprob = -10 ** 400 if "LOC" in payload["prompt"] else -0.1
            return 200, {"text": '["Italy"]', "tokens": ['["Italy"]'],
                         "token_logprobs": [logprob], "finish_reason": "eos"}

        stub_server.behavior = behavior
        with _client(stub_server) as backend:
            outcome = run_corpus([doc], labels, backend, template, "onestep")[0]
        assert len(outcome.defects) == 1
        assert outcome.defects[0].startswith("onestep request failed for label LOC: ")
        assert "int too large to convert to float" in outcome.defects[0]
        assert sorted(m.label for m in outcome.raw_mentions) == ["MISC", "ORG", "PER"]

    def test_invalid_utf8_answer_is_invalid_json(self, stub_server):
        body = b'{"text": "K\xf6ln", "tokens": ["K\xf6ln"], "finish_reason": "eos"}'
        stub_server.raw_answer = lambda n: _raw_answer(
            b"Content-Type: application/json", b"Content-Length: %d" % len(body), body=body)
        with _client(stub_server) as backend:
            with pytest.raises(TransportError, match="invalid JSON"):
                backend.generate(CompletionRequest(prompt="p", want_logprobs=False))
        assert len(stub_server.calls) == 1

    def test_empty_logprobs_rejected(self, stub_server, session):
        body = dict(_OK_BODY, token_logprobs=[])
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server), session=session)
        with pytest.raises(TransportError) as err:
            backend.generate(CompletionRequest(prompt="p"))
        assert "token_logprobs" in str(err.value)

    def test_misaligned_text_rejected(self, stub_server, session):
        body = dict(_OK_BODY, tokens=["It", "aly"], text="Italy!")
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server), session=session)
        with pytest.raises(TransportError) as err:
            backend.generate(CompletionRequest(prompt="p"))
        assert "concatenate" in str(err.value)

    def test_misaligned_text_is_a_decode_defect(self, stub_server, session, labels, template):
        body = dict(_OK_BODY, tokens=["It", "aly"], text="Italy!")
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server), session=session)
        doc = Document(id="x", text="Italy beat England.")
        outcome = run_corpus([doc], labels, backend, template, "pair-multi")[0]
        assert len(outcome.defects) == len(labels)
        for label, defect in zip(labels, outcome.defects):
            assert defect.startswith(f"count request failed for label {label}: ")
            assert "concatenate" in defect
        assert outcome.traces == [] and outcome.raw_mentions == []

    @pytest.mark.parametrize("field, value, want_logprobs", [
        ("tokens", "Italy<eos>", False),
        ("tokens", {"Italy": 0, "<eos>": 1}, False),
        ("token_logprobs", {"-0.1": 0, "-0.05": 1}, True),
        ("token_logprobs", "12", True),
    ], ids=["tokens-string", "tokens-object", "logprobs-object", "logprobs-string"])
    def test_token_fields_must_be_lists(self, stub_server, field, value, want_logprobs):
        body = dict(_OK_BODY, **{field: value})
        stub_server.behavior = lambda payload, n: (200, body)
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            with pytest.raises(TransportError, match=f"field '{field}' must be a list"):
                backend.generate(CompletionRequest(prompt="p", want_logprobs=want_logprobs))

    @pytest.mark.parametrize("max_new_tokens, max_count, count_budget", [
        (512, 100, 4), (3, 100, 3), (512, 7, 2), (512, 1000, 5),
    ])
    def test_greedy_requests_and_count_budget(self, stub_server, labels, max_new_tokens,
                                              max_count, count_budget):
        t = PromptTemplate(max_count=max_count)

        def answer(payload, n):
            tokens = ["1", "\n"] if payload["prompt"].endswith(t.count_marker) else ["It", "<eos>"]
            return 200, {"text": "".join(tokens), "tokens": tokens,
                         "token_logprobs": [-0.1, -0.1], "finish_reason": "eos"}

        stub_server.behavior = answer
        doc = Document(id="x", text="Italy beat England.")
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            outcome = run_corpus([doc], labels, backend, t, "pair-multi",
                                 max_new_tokens=max_new_tokens)[0]
        assert outcome.defects == [] and len(outcome.raw_mentions) == len(labels)
        payloads = [call["payload"] for call in stub_server.calls]
        assert {payload["temperature"] for payload in payloads} == {0}
        budgets = sorted((payload["prompt"].endswith(t.count_marker), payload["max_tokens"])
                         for payload in payloads)
        assert budgets == [(False, max_new_tokens)] * 4 + [(True, count_budget)] * 4

    def test_stop_finish_maps_to_eos(self, stub_server):
        # parner sends no stop strings, so a server stops only at its end of sequence
        body = dict(_OK_BODY, finish_reason="stop")
        stub_server.behavior = lambda payload, n: (200, body)
        backend = HttpBackend(_url(stub_server))
        result = backend.generate(CompletionRequest(prompt="p"))
        assert result.stop_reason == "eos"

    def test_bearer_token_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        backend = HttpBackend(_url(stub_server))
        backend.generate(CompletionRequest(prompt="p"))
        assert stub_server.calls[0]["headers"].get("Authorization") == "Bearer sekrit"

    def test_no_token_no_header(self, stub_server, monkeypatch):
        monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
        backend = HttpBackend(_url(stub_server))
        backend.generate(CompletionRequest(prompt="p"))
        assert "Authorization" not in stub_server.calls[0]["headers"]

    @pytest.mark.parametrize("retry_after, waited", [
        ("1.5", 1.5), ("0", 0.0), (None, 7.0), ("-1", 7.0), ("nan", 7.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 7.0),
    ])
    def test_429_retried_after_retry_after(self, stub_server, monkeypatch, retry_after, waited):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        # a backoff no Retry-After value here equals, so the test tells them apart
        monkeypatch.setattr(http_module, "_BACKOFF_S", 7.0)
        stub_server.behavior = lambda payload, n: (429, {}) if n == 1 else (200, _OK_BODY)
        stub_server.response_headers = lambda n: (
            {"Retry-After": retry_after} if n == 1 and retry_after is not None else {})
        with contextlib.closing(HttpBackend(_url(stub_server))) as backend:
            assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
        assert sleeps == [waited]
        assert len(stub_server.calls) == 2

    def test_retry_after_wait_is_cut_to_the_timeout(self, stub_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        stub_server.behavior = lambda payload, n: (429, {}) if n == 1 else (200, _OK_BODY)
        stub_server.response_headers = lambda n: {"Retry-After": "3600"} if n == 1 else {}
        with _client(stub_server, timeout_s=5.0) as backend:
            assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
        assert sleeps == [5.0]

    def test_backoff_is_cut_to_the_timeout(self, stub_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(http_module, "_BACKOFF_S", 3.0)
        stub_server.behavior = lambda payload, n: (503, {})
        with _client(stub_server, timeout_s=5.0, max_retries=3) as backend:
            with pytest.raises(TransportError, match="after 4 attempts: server error 503"):
                backend.generate(CompletionRequest(prompt="p"))
        assert sleeps == [3.0, 5.0, 5.0]  # not 6 and 12

    def test_429_retries_exhausted(self, stub_server, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        stub_server.behavior = lambda payload, n: (429, {})
        with contextlib.closing(HttpBackend(_url(stub_server), max_retries=2)) as backend:
            with pytest.raises(TransportError, match="429"):
                backend.generate(CompletionRequest(prompt="p"))
        assert len(stub_server.calls) == 3

    def test_close_closes_connections_and_only_an_owned_session(self, stub_server):
        class ClosingSession(requests.Session):
            closed = 0

            def close(self):
                self.closed += 1
                super().close()

        with ClosingSession() as session:
            given = HttpBackend(_url(stub_server), session=session)
            owned = HttpBackend(_url(stub_server))
            for backend in (given, owned):
                backend.generate(CompletionRequest(prompt="p"))
                backend.close()
            assert session.closed == 0
            _wait_for(lambda: stub_server.closed == 2)
            # a closed backend still works, on a new connection
            assert given.generate(CompletionRequest(prompt="q")).text == "Italy<eos>"
            given.close()
        assert stub_server.accepted == 3


def _wait_for(condition, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


def _client(server, **kwargs) -> contextlib.closing:
    return contextlib.closing(HttpBackend(_url(server), **kwargs))


class TestKeepAliveTransport:
    """What ``HttpBackend`` sends and receives below ``session.post``."""

    def test_sequential_calls_share_one_connection(self, stub_server):
        with _client(stub_server) as backend:
            for i in range(5):
                backend.generate(CompletionRequest(prompt=f"p{i}"))
        assert stub_server.accepted == 1
        assert len({call["connection"] for call in stub_server.calls}) == 1

    def test_connection_dropped_while_idle_costs_no_failed_call(self, stub_server):
        stub_server.drop_idle = True
        with _client(stub_server, max_retries=0) as backend:
            for i in range(3):
                assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
                _wait_for(lambda: stub_server.closed == i + 1)
        assert len(stub_server.calls) == 3
        assert stub_server.accepted == 3

    @pytest.mark.parametrize("handler, headers", [
        (_StubHandler, {"Connection": "close"}),
        (_Http10Handler, {"Connection": "keep-alive"}),
    ], ids=["connection-close", "http-1.0-keep-alive"])
    def test_closing_answers_are_not_pooled(self, handler, headers):
        with _running_stub(handler) as server:
            server.response_headers = lambda n: headers
            with _client(server, max_retries=0) as backend:
                for i in range(3):
                    assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
                assert not backend._adapter._idle
            assert server.accepted == 3

    @pytest.mark.parametrize("headers", [
        {"Content-Encoding": "gzip"},
        {"Content-Encoding": "deflate"},
        {"Transfer-Encoding": "chunked"},
        {"Content-Encoding": "gzip", "Transfer-Encoding": "chunked"},
    ], ids=["gzip", "deflate", "chunked", "gzip-chunked"])
    def test_encoded_answers_decode(self, stub_server, headers):
        stub_server.response_headers = lambda n: headers
        with _client(stub_server) as backend:
            for i in range(2):
                result = backend.generate(CompletionRequest(prompt=f"p{i}"))
                assert result.tokens == ("Italy", "<eos>")
                assert result.token_logprobs == (-0.1, -0.05)
        assert stub_server.accepted == 1

    def test_concurrent_calls_open_at_most_max_in_flight_connections(self, stub_server):
        def slow(payload, n):
            time.sleep(0.002)
            return 200, _OK_BODY

        stub_server.behavior = slow
        results = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _client(stub_server, max_in_flight=3) as backend:
                def calls(i):
                    for j in range(10):
                        results.append(backend.generate(CompletionRequest(prompt=f"p{i}.{j}")))

                threads = [threading.Thread(target=calls, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                # every connection opened went back to the pool exactly once
                assert len(backend._adapter._idle) == stub_server.accepted
        finally:
            sys.setswitchinterval(switch_interval)
        assert len(results) == len(stub_server.calls) == 80
        assert all(result.text == "Italy<eos>" for result in results)
        assert 1 <= stub_server.accepted <= 3

    @pytest.mark.usefixtures("clean_env", "invalid_host_resolves_to_stub")
    @pytest.mark.parametrize("via_proxy", [False, True], ids=["direct", "proxy"])
    def test_request_on_the_wire_matches_stock_adapter(self, stub_server, proxy_server,
                                                       monkeypatch, via_proxy):
        url = _url(stub_server)
        receiver = stub_server
        if via_proxy:
            host, port = proxy_server.server_address
            monkeypatch.setenv("HTTP_PROXY", f"http://al%20ice:s3cret@{host}:{port}")
            url, receiver = _INVALID_URL, proxy_server
        with contextlib.closing(HttpBackend(url)) as backend:
            backend.generate(CompletionRequest(prompt="Köln", max_new_tokens=9))
        with requests.Session() as stock:
            assert isinstance(stock.get_adapter(url), requests.adapters.HTTPAdapter)
            stock.post(url, json=receiver.calls[0]["payload"], timeout=60.0)
        ours, theirs = receiver.calls
        for part in ("path", "wire_headers", "body"):
            assert ours[part] == theirs[part]
        if via_proxy:
            expected = "Basic " + base64.b64encode(b"al ice:s3cret").decode("ascii")
            assert ours["headers"]["Proxy-Authorization"] == expected
            assert stub_server.calls == []

    @pytest.mark.usefixtures("clean_env")
    def test_latin1_proxy_password_encodes_as_requests_does(self, proxy_server, monkeypatch):
        host, port = proxy_server.server_address
        monkeypatch.setenv("HTTP_PROXY", f"http://al%20ice:s%C3%A9cr%C3%AAt@{host}:{port}")
        with contextlib.closing(HttpBackend(_INVALID_URL)) as backend:
            backend.generate(CompletionRequest(prompt="p"))
        [call] = proxy_server.calls
        assert call["headers"]["Proxy-Authorization"] == \
            requests.auth._basic_auth_str("al ice", "sécrêt")

    def test_failures_map_to_requests_exceptions(self, stub_server):
        def slow(payload, n):
            time.sleep(0.5)
            return 200, _OK_BODY

        stub_server.behavior = slow
        with requests.Session() as session:
            with contextlib.closing(HttpBackend(_url(stub_server), session=session)) as backend:
                with pytest.raises(requests.ReadTimeout):
                    session.post(_url(stub_server), json={}, timeout=0.05)
                assert not backend._adapter._idle
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            refused = "http://127.0.0.1:{}/v1/completions".format(unused.getsockname()[1])
        with requests.Session() as session:
            with contextlib.closing(HttpBackend(refused, session=session, max_retries=0)):
                with pytest.raises(requests.ConnectionError):
                    session.post(refused, json={}, timeout=5)

    def test_session_keeps_cookies_the_server_sets(self, stub_server):
        stub_server.response_headers = lambda n: {"Set-Cookie": "sid=abc; Path=/"} if n == 1 else {}
        with requests.Session() as session:
            with contextlib.closing(HttpBackend(_url(stub_server), session=session)) as backend:
                backend.generate(CompletionRequest(prompt="p"))
                backend.generate(CompletionRequest(prompt="q"))
            assert session.cookies.get("sid") == "abc"
        assert "Cookie" not in stub_server.calls[0]["headers"]
        assert stub_server.calls[1]["headers"]["Cookie"] == "sid=abc"

    def test_session_subclass_sees_each_response(self, stub_server):
        class HeaderSession(requests.Session):
            def __init__(self):
                super().__init__()
                self.seen = []

            def post(self, url, **kwargs):
                response = super().post(url, **kwargs)
                self.seen.append(response.headers["X-Call"])
                return response

        stub_server.response_headers = lambda n: {"X-Call": str(n)}
        with HeaderSession() as session:
            with contextlib.closing(HttpBackend(_url(stub_server), session=session)) as backend:
                for i in range(3):
                    backend.generate(CompletionRequest(prompt=f"p{i}"))
                assert type(session.get_adapter(_url(stub_server))).__name__ == "_KeepAliveAdapter"
        assert session.seen == ["1", "2", "3"]

    def test_interim_answer_is_skipped(self, stub_server):
        stub_server.raw_answer = lambda n: (b"HTTP/1.1 100 Continue\r\n\r\n"
                                            + _raw_answer(_OK_LENGTH))
        with _client(stub_server, max_retries=0) as backend:
            for i in range(2):
                assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
        assert stub_server.accepted == 1

    @pytest.mark.parametrize("fields, error", [
        ([b"X-Long: " + b"a" * (65536 - 10)], None),  # 65536 bytes with the line end
        ([b"X-Long: " + b"a" * (65536 - 9)], "answer line longer than 65536 bytes"),
        ([b"X-%d: 1" % i for i in range(99)], None),  # 100 with Content-Length
        ([b"X-%d: 1" % i for i in range(100)], "answer has more than 100 header lines"),
    ], ids=["longest-line", "line-too-long", "most-fields", "too-many-fields"])
    def test_header_limits(self, stub_server, fields, error):
        stub_server.raw_answer = lambda n: _raw_answer(_OK_LENGTH, *fields)
        with _client(stub_server, max_retries=0) as backend:
            if error is None:
                assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
                assert len(backend._adapter._idle) == 1
            else:
                with pytest.raises(TransportError, match=error):
                    backend.generate(CompletionRequest(prompt="p"))
                assert not backend._adapter._idle
                _wait_for(lambda: stub_server.closed == 1)

    def test_body_cut_short_is_retried_then_fails(self, stub_server, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        stub_server.drop_idle = True
        claimed = len(_OK_JSON) + 1
        stub_server.raw_answer = lambda n: _raw_answer(b"Content-Length: %d" % claimed)
        with _client(stub_server, max_retries=1) as backend:
            with pytest.raises(TransportError, match=f"after 2 attempts: .*answer body ended "
                                                     f"after {len(_OK_JSON)} of {claimed} bytes"):
                backend.generate(CompletionRequest(prompt="p"))
            assert not backend._adapter._idle
        assert len(stub_server.calls) == stub_server.accepted == 2

    def test_body_delimited_by_close_is_read_whole(self, stub_server):
        stub_server.drop_idle = True
        stub_server.raw_answer = lambda n: _raw_answer(b"Content-Type: application/json")
        with _client(stub_server, max_retries=0) as backend:
            for i in range(2):
                result = backend.generate(CompletionRequest(prompt=f"p{i}"))
                assert result.tokens == ("Italy", "<eos>")
                assert not backend._adapter._idle
        assert stub_server.accepted == 2

    def test_chunk_extensions_and_trailer_are_dropped(self, stub_server):
        pieces = (_OK_JSON[:10], _OK_JSON[10:])
        body = b"".join(b"%X;name=value\r\n%s\r\n" % (len(p), p) for p in pieces)
        body += b"0;last\r\nX-Trailer: 1\r\nX-Other: 2\r\n\r\n"
        stub_server.raw_answer = lambda n: _raw_answer(b"Transfer-Encoding: chunked", body=body)
        with _client(stub_server, max_retries=0) as backend:
            for i in range(2):
                result = backend.generate(CompletionRequest(prompt=f"p{i}"))
                assert result.tokens == ("Italy", "<eos>")
                assert result.token_logprobs == (-0.1, -0.05)
        assert stub_server.accepted == 1

    @pytest.mark.parametrize("answer, error", [
        (b"", "connection closed without an answer"),
        (b"HTTP/1.1 2000 OK\r\n\r\n", "malformed status line b'HTTP/1.1 2000 OK"),
        (b"HTTP/1.1 099 Early\r\n\r\n", "malformed status line b'HTTP/1.1 099 Early"),
        (b"ICY 200 OK\r\n\r\n", "malformed status line b'ICY 200 OK"),
        (_raw_answer(_OK_LENGTH, b"X-Broken"), "malformed header line b'X-Broken"),
        (_raw_answer(_OK_LENGTH, b" folded: 1"), "malformed header line b' folded: 1"),
        (_raw_answer(b"Transfer-Encoding: chunked", body=b"zz\r\n" + _OK_JSON),
         "malformed chunk size b'zz'"),
        (_raw_answer(b"Transfer-Encoding: chunked", body=b"%x\r\n" % (len(_OK_JSON) + 1)
                     + _OK_JSON), "chunked answer cut short"),
        (_raw_answer(b"Content-Length: 12x"), "malformed Content-Length '12x'"),
    ], ids=["no-answer", "four-digit-status", "status-below-100", "not-http",
            "header-without-colon", "folded-header", "bad-chunk-size", "chunk-cut-short",
            "bad-content-length"])
    def test_malformed_answer_is_a_transport_error(self, stub_server, answer, error):
        stub_server.drop_idle = True
        stub_server.raw_answer = lambda n: answer
        with _client(stub_server, max_retries=0) as backend:
            with pytest.raises(TransportError, match=re.escape(error)):
                backend.generate(CompletionRequest(prompt="p"))
            assert not backend._adapter._idle
        assert len(stub_server.calls) == 1

    def test_undecodable_body_fails_the_call_not_the_connection(self, stub_server):
        stub_server.raw_answer = lambda n: (
            _raw_answer(b"Content-Encoding: gzip", _OK_LENGTH) if n == 1 else None)
        with _client(stub_server, max_retries=0) as backend:
            with pytest.raises(TransportError, match="Not a gzipped file"):
                backend.generate(CompletionRequest(prompt="p"))
            assert backend.generate(CompletionRequest(prompt="q")).text == "Italy<eos>"
        assert stub_server.accepted == 1

    def test_raw_deflate_answer_decodes(self, stub_server):
        # a deflate body without the zlib wrapper, as some servers send it
        compressor = zlib.compressobj(wbits=-zlib.MAX_WBITS)
        body = compressor.compress(_OK_JSON) + compressor.flush()
        stub_server.raw_answer = lambda n: _raw_answer(
            b"Content-Encoding: deflate", b"Content-Length: %d" % len(body), body=body)
        with _client(stub_server, max_retries=0) as backend:
            result = backend.generate(CompletionRequest(prompt="p"))
        assert result.tokens == ("Italy", "<eos>")
        assert result.token_logprobs == (-0.1, -0.05)

    @pytest.mark.parametrize("status", [b"204 No Content", b"304 Not Modified"],
                             ids=["204", "304"])
    def test_answer_that_has_no_body_keeps_the_connection(self, stub_server, status):
        stub_server.raw_answer = lambda n: b"HTTP/1.1 %s\r\n\r\n" % status if n == 1 else None
        with _client(stub_server, max_retries=0, timeout_s=5.0) as backend:
            with pytest.raises(TransportError, match=f"returned {status[:3].decode()}: $"):
                backend.generate(CompletionRequest(prompt="p"))
            assert backend.generate(CompletionRequest(prompt="q")).text == "Italy<eos>"
        assert stub_server.accepted == 1

    def test_text_body_is_sent_as_utf8(self, stub_server):
        with requests.Session() as session:
            with contextlib.closing(HttpBackend(_url(stub_server), session=session)):
                session.post(_url(stub_server), data='"Köln"', timeout=5)
        with requests.Session() as stock:
            stock.post(_url(stub_server), data='"Köln"', timeout=5)
        ours, theirs = stub_server.calls
        assert ours["body"] == theirs["body"] == '"Köln"'.encode("utf-8")
        assert ours["wire_headers"] == theirs["wire_headers"]

    @pytest.mark.parametrize("change, error", [
        (lambda request: request.headers.__setitem__("X-Note", "Ω"),
         "not sent: cannot encode header b'X-Note'"),
        (lambda request: setattr(request, "method", "PO\x01ST"),
         "must be ASCII without control characters"),
    ], ids=["header-not-latin-1", "control-character-in-method"])
    def test_unencodable_request_is_refused_unwritten(self, stub_server, change, error):
        def auth(request):  # runs after requests has checked the headers
            change(request)
            return request

        with requests.Session() as session:
            session.auth = auth
            with contextlib.closing(HttpBackend(_url(stub_server), session=session)) as backend:
                with pytest.raises(TransportError, match=re.escape(error)):
                    backend.generate(CompletionRequest(prompt="p"))
        assert stub_server.accepted == 0

    @pytest.mark.parametrize("value", ["a\r\nX-Injected: 1", "a\nb", "a\rb"],
                             ids=["crlf", "lf", "cr"])
    def test_line_break_in_a_header_is_refused_unwritten(self, stub_server, value):
        def auth(request):  # runs after requests has checked the headers
            request.headers["X-Note"] = value
            return request

        with requests.Session() as session:
            session.auth = auth
            with contextlib.closing(HttpBackend(_url(stub_server), session=session,
                                                max_retries=0)) as backend:
                with pytest.raises(TransportError, match="invalid header b'X-Note'"):
                    backend.generate(CompletionRequest(prompt="p"))
        assert stub_server.accepted == 0 and stub_server.calls == []

    def test_request_refused_unwritten_is_not_retried(self, stub_server, monkeypatch):
        attempts, slept = [], []

        def auth(request):  # runs after requests has checked the headers
            attempts.append(request.url)
            request.headers["X-Note"] = "a\r\nX-Injected: 1"
            return request

        monkeypatch.setattr(time, "sleep", slept.append)
        with requests.Session() as session:
            session.auth = auth
            with contextlib.closing(HttpBackend(_url(stub_server), session=session)) as backend:
                with pytest.raises(TransportError, match="not sent: invalid header b'X-Note'"):
                    backend.generate(CompletionRequest(prompt="p"))
        assert len(attempts) == 1 and slept == []
        assert stub_server.accepted == 0

    @pytest.mark.usefixtures("clean_env")
    @pytest.mark.parametrize("scheme, port", [("http", 80), ("https", 443)])
    def test_ipv6_literal_without_a_port_gets_the_default_port(self, monkeypatch, scheme, port):
        addresses = []

        def create_connection(address, *args, **kwargs):
            addresses.append(address)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(socket, "create_connection", create_connection)
        with contextlib.closing(HttpBackend(f"{scheme}://[::1]/v1/completions",
                                            max_retries=0)) as backend:
            with pytest.raises(TransportError, match="refused"):
                backend.generate(CompletionRequest(prompt="p"))
        assert addresses == [("::1", port)]

    def test_each_request_is_one_sendall(self, stub_server, monkeypatch):
        sent = []

        class CountingSocket(socket.socket):
            def sendall(self, data, *args):
                sent.append(bytes(data))
                return super().sendall(data, *args)

        def create_connection(address, timeout, *args):
            sock = real(address, timeout, *args)
            counting = CountingSocket(sock.family, sock.type, sock.proto, fileno=sock.detach())
            counting.settimeout(timeout)
            return counting

        real = socket.create_connection
        monkeypatch.setattr(socket, "create_connection", create_connection)
        with _client(stub_server) as backend:
            for i in range(3):
                assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
        assert stub_server.accepted == 1
        assert len(sent) == 3
        for data, call in zip(sent, stub_server.calls):
            assert data.startswith(b"POST /v1/completions HTTP/1.1\r\n")
            assert data.endswith(b"\r\n\r\n" + call["body"])

    @pytest.mark.parametrize("drop_idle", [False, True], ids=["kept", "dropped"])
    def test_idle_check_without_poll(self, stub_server, monkeypatch, drop_idle):
        # where select has no poll, select.select tells a dropped connection
        monkeypatch.delattr(select, "poll", raising=False)
        stub_server.drop_idle = drop_idle
        with _client(stub_server, max_retries=0) as backend:
            for i in range(3):
                assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
                if drop_idle:
                    _wait_for(lambda: stub_server.closed == i + 1)
        assert stub_server.accepted == (3 if drop_idle else 1)

    def test_host_field_drops_an_ipv6_zone(self):
        url = http_module.urlsplit("http://[fe80::1%25eth0]:8080/v1")
        assert http_module._host_field(url, absolute=False) == b"[fe80::1]:8080"

    @pytest.mark.usefixtures("clean_env")
    def test_connect_timeout_is_retried_then_fails(self, monkeypatch):
        attempts = []

        def create_connection(address, *args, **kwargs):
            attempts.append(address)
            raise socket.timeout("timed out")

        monkeypatch.setattr(socket, "create_connection", create_connection)
        monkeypatch.setattr(time, "sleep", lambda s: None)
        with contextlib.closing(HttpBackend("http://127.0.0.1:9/v1/completions",
                                            max_retries=2)) as backend:
            with pytest.raises(TransportError, match="after 3 attempts: transport failure: "
                                                     ".*timed out"):
                backend.generate(CompletionRequest(prompt="p"))
            assert not backend._adapter._idle
        assert attempts == [("127.0.0.1", 9)] * 3

    def test_interrupt_while_sending_closes_the_connection(self, stub_server, monkeypatch):
        class Interrupted(BaseException):
            pass

        class InterruptedSocket(socket.socket):
            def sendall(self, data, *args):
                raise Interrupted()

        def create_connection(address, timeout, *args):
            sock = real(address, timeout, *args)
            created.append(InterruptedSocket(sock.family, sock.type, sock.proto,
                                             fileno=sock.detach()))
            created[-1].settimeout(timeout)
            return created[-1]

        real, created = socket.create_connection, []
        monkeypatch.setattr(socket, "create_connection", create_connection)
        with _client(stub_server) as backend:
            with pytest.raises(Interrupted):
                backend.generate(CompletionRequest(prompt="p"))
            assert not backend._adapter._idle
        assert len(created) == 1 and created[0].fileno() == -1
        _wait_for(lambda: stub_server.closed == 1)
        assert stub_server.calls == []


_INVALID_URL = "http://completion.invalid/v1/completions"


@pytest.fixture
def clean_env(monkeypatch):
    """No proxy, CA bundle or .netrc settings from the surrounding environment."""
    for key in list(os.environ):
        if key.lower().endswith("_proxy"):
            monkeypatch.delenv(key)
    for key in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", TOKEN_ENV_VAR):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("NETRC", os.devnull)


@pytest.fixture
def invalid_host_resolves_to_stub(monkeypatch, stub_server):
    """``completion.invalid`` connects to ``stub_server``; no DNS query is made."""
    real = socket.getaddrinfo

    def getaddrinfo(host, *args, **kwargs):
        if host == "completion.invalid":
            return [(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "",
                     stub_server.server_address)]
        return real(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)


class _RecordingSession(requests.Session):
    """Keeps the keyword arguments of its last ``post``."""

    def post(self, url, **kwargs):
        self.kwargs = kwargs
        return super().post(url, **kwargs)


@pytest.mark.usefixtures("clean_env")
class TestHttpEnvironment:
    """The environment is read when the backend is built, and requests on the
    wire are the ones ``requests`` would build from it on every call."""

    @pytest.mark.usefixtures("invalid_host_resolves_to_stub")
    def test_proxy_from_environment(self, stub_server, proxy_server, session, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", _origin(proxy_server))
        backend = HttpBackend(_INVALID_URL, session=session)
        assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
        assert [call["path"] for call in proxy_server.calls] == [_INVALID_URL]
        assert stub_server.calls == []

    @pytest.mark.usefixtures("invalid_host_resolves_to_stub")
    def test_no_proxy_bypasses_proxy(self, stub_server, proxy_server, session, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", _origin(proxy_server))
        monkeypatch.setenv("NO_PROXY", "completion.invalid")
        backend = HttpBackend(_INVALID_URL, session=session)
        assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
        assert [call["path"] for call in stub_server.calls] == ["/v1/completions"]
        assert proxy_server.calls == []

    @pytest.mark.parametrize("scheme", ["https", "socks5"])
    def test_unsupported_proxy_is_rejected_when_built(self, stub_server, proxy_server, session,
                                                      monkeypatch, scheme):
        monkeypatch.setenv("HTTP_PROXY", _origin(proxy_server).replace("http", scheme, 1))
        with pytest.raises(ValueError, match="unsupported proxy URL"):
            HttpBackend(_url(stub_server), session=session, max_retries=0)
        assert stub_server.calls == [] and proxy_server.calls == []

    def test_no_environment_lookup_per_call(self, stub_server, session, monkeypatch):
        backend = HttpBackend(_url(stub_server), session=session)

        def lookup(*args, **kwargs):
            raise AssertionError("environment looked up per call")

        monkeypatch.setattr(requests.sessions, "get_environ_proxies", lookup)
        monkeypatch.setattr(requests.sessions, "get_netrc_auth", lookup)
        monkeypatch.setattr(requests.utils, "get_environ_proxies", lookup)
        assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
        assert backend.generate(CompletionRequest(prompt="q")).text == "Italy<eos>"

    def test_netrc_credentials(self, stub_server, session, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password s3cret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        backend = HttpBackend(_url(stub_server), session=session)
        backend.generate(CompletionRequest(prompt="p"))
        expected = "Basic " + base64.b64encode(b"alice:s3cret").decode("ascii")
        assert stub_server.calls[0]["headers"].get("Authorization") == expected

    def test_bearer_token_wins_over_netrc(self, stub_server, session, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password s3cret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        backend = HttpBackend(_url(stub_server), session=session)
        backend.generate(CompletionRequest(prompt="p"))
        assert stub_server.calls[0]["headers"].get("Authorization") == "Bearer sekrit"

    def test_session_settings(self, stub_server):
        with _RecordingSession() as session:
            backend = HttpBackend(_url(stub_server), session=session)
            assert session.trust_env is False
            backend.generate(CompletionRequest(prompt="p"))
        assert session.kwargs["auth"] is None
        assert "verify" not in session.kwargs and "proxies" not in session.kwargs

    @pytest.mark.parametrize("missing", ["ca-bundle", "certificate", "key"])
    def test_missing_tls_file_fails_when_built(self, stub_server, monkeypatch, tmp_path,
                                               missing):
        path = str(tmp_path / "missing.pem")
        present = tmp_path / "present.pem"
        present.write_text("", encoding="utf-8")
        with requests.Session() as session:
            if missing == "ca-bundle":
                monkeypatch.setenv("REQUESTS_CA_BUNDLE", path)
            else:
                session.cert = path if missing == "certificate" else (str(present), path)
            host, port = stub_server.server_address
            with pytest.raises(OSError, match=re.escape(f"invalid path: {path}")):
                HttpBackend(f"https://{host}:{port}/v1/completions", session=session)
            # a plain-HTTP route builds no TLS context, so reads no TLS file
            HttpBackend(_url(stub_server), session=session).close()
        assert stub_server.accepted == 0


@pytest.fixture(scope="module")
def tls_files(tmp_path_factory):
    """PEM paths: a throwaway CA, a server certificate for 127.0.0.1 and a
    client certificate it signed, and an unrelated CA."""
    x509 = pytest.importorskip("cryptography.x509")
    import datetime
    import ipaddress

    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

    directory = tmp_path_factory.mktemp("tls")
    now = datetime.datetime.now(datetime.timezone.utc)

    def issue(name, issuer=None, usage=None):
        key = ec.generate_private_key(ec.SECP256R1())
        subject = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, name)])
        signer_key, signer_name = issuer if issuer else (key, subject)
        builder = (
            x509.CertificateBuilder()
            .subject_name(subject).issuer_name(signer_name)
            .public_key(key.public_key()).serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(hours=1))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.BasicConstraints(ca=usage is None, path_length=None),
                           critical=True)
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()),
                           critical=False)
            .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(
                signer_key.public_key()), critical=False)
        )
        if usage is None:
            builder = builder.add_extension(x509.KeyUsage(
                digital_signature=True, key_cert_sign=True, crl_sign=True,
                content_commitment=False, key_encipherment=False, data_encipherment=False,
                key_agreement=False, encipher_only=False, decipher_only=False), critical=True)
        else:
            builder = builder.add_extension(x509.ExtendedKeyUsage([usage]), critical=False)
            builder = builder.add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
        cert = builder.sign(signer_key, hashes.SHA256())
        cert_path, key_path = directory / f"{name}.pem", directory / f"{name}.key"
        cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
        key_path.write_bytes(key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption()))
        return key, subject, str(cert_path), str(key_path)

    ca_key, ca_name, ca, _ = issue("ca")
    _, _, server_cert, server_key = issue("server", (ca_key, ca_name),
                                          ExtendedKeyUsageOID.SERVER_AUTH)
    _, _, client_cert, client_key = issue("client", (ca_key, ca_name),
                                          ExtendedKeyUsageOID.CLIENT_AUTH)
    _, _, other_ca, _ = issue("other-ca")
    return {"ca": ca, "server": (server_cert, server_key),
            "client": (client_cert, client_key), "other_ca": other_ca}


@contextlib.contextmanager
def _https_stub(tls_files, client_ca: Optional[str] = None):
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(*tls_files["server"])
    if client_ca:
        context.verify_mode = ssl.CERT_REQUIRED
        context.load_verify_locations(client_ca)
    with _running_stub(tls=context) as server:
        yield server


def _https_url(server) -> str:
    host, port = server.server_address
    return f"https://{host}:{port}/v1/completions"


class _TunnelHandler(BaseHTTPRequestHandler):
    """An HTTP proxy that only tunnels: ``CONNECT``, then bytes both ways."""

    protocol_version = "HTTP/1.1"

    def do_CONNECT(self):
        self.server.calls.append({"path": self.path, "headers": dict(self.headers)})
        host, port = self.path.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as upstream:
            self.send_response(200)
            self.end_headers()
            peers = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(peers), [], [], 5)
                data = readable and readable[0].recv(65536)
                if not data:
                    break
                peers[readable[0]].sendall(data)
        self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.mark.usefixtures("clean_env")
class TestHttps:
    def test_ca_bundle_path_verifies_and_reuses_connection(self, tls_files, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_files["ca"])
        with _https_stub(tls_files) as server:
            with contextlib.closing(HttpBackend(_https_url(server), max_retries=0)) as backend:
                for i in range(3):
                    assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
            assert server.accepted == 1

    def test_ca_directory_is_read_as_capath(self, tls_files, monkeypatch, tmp_path):
        # OpenSSL looks a CA up in a directory by its subject hash, as
        # c_rehash names it: SHA-1 of the canonical subject, CN=ca here
        rdn = b"\x31\x0b\x30\x09\x06\x03\x55\x04\x03\x0c\x02ca"
        subject_hash = int.from_bytes(hashlib.sha1(rdn).digest()[:4], "little")
        (tmp_path / f"{subject_hash:08x}.0").write_bytes(
            pathlib.Path(tls_files["ca"]).read_bytes())
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path))
        with _https_stub(tls_files) as server:
            with contextlib.closing(HttpBackend(_https_url(server), max_retries=0)) as backend:
                for i in range(2):
                    assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
            assert server.accepted == 1

    @pytest.mark.parametrize("bundle", ["other_ca", None], ids=["unknown-ca", "default-bundle"])
    def test_unknown_ca_is_a_transport_error(self, tls_files, monkeypatch, bundle):
        if bundle:
            monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_files[bundle])
        with _https_stub(tls_files) as server:
            with contextlib.closing(HttpBackend(_https_url(server), max_retries=0)) as backend:
                with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
                    backend.generate(CompletionRequest(prompt="p"))
            assert server.calls == []

    def test_verify_off_warns_and_succeeds(self, tls_files):
        with _https_stub(tls_files) as server, requests.Session() as session:
            session.verify = False
            with contextlib.closing(HttpBackend(_https_url(server), session=session)) as backend:
                with pytest.warns(requests.urllib3.exceptions.InsecureRequestWarning):
                    assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"

    @pytest.mark.parametrize("with_cert", [True, False], ids=["client-cert", "no-client-cert"])
    def test_client_certificate(self, tls_files, monkeypatch, with_cert):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_files["ca"])
        with _https_stub(tls_files, client_ca=tls_files["ca"]) as server, \
                requests.Session() as session:
            if with_cert:
                session.cert = tls_files["client"]
            with contextlib.closing(HttpBackend(_https_url(server), session=session,
                                                max_retries=0)) as backend:
                if with_cert:
                    assert backend.generate(CompletionRequest(prompt="p")).text == "Italy<eos>"
                else:
                    with pytest.raises(TransportError):
                        backend.generate(CompletionRequest(prompt="p"))
            assert len(server.calls) == int(with_cert)

    def test_https_through_connect_tunnel(self, tls_files, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_files["ca"])
        with _https_stub(tls_files) as server, _running_stub(_TunnelHandler) as proxy:
            host, port = proxy.server_address
            monkeypatch.setenv("HTTPS_PROXY", f"http://alice:s3cret@{host}:{port}")
            with contextlib.closing(HttpBackend(_https_url(server), max_retries=0)) as backend:
                for i in range(2):
                    assert backend.generate(CompletionRequest(prompt=f"p{i}")).text == "Italy<eos>"
            target = "{}:{}".format(*server.server_address)
            assert [call["path"] for call in proxy.calls] == [target]
            expected = "Basic " + base64.b64encode(b"alice:s3cret").decode("ascii")
            assert proxy.calls[0]["headers"]["Proxy-Authorization"] == expected
        assert [call["path"] for call in server.calls] == ["/v1/completions"] * 2
        assert all("Proxy-Authorization" not in call["headers"] for call in server.calls)

    def test_tunnel_to_ipv6_literal_without_a_port_names_the_default_port(self, monkeypatch):
        real = socket.create_connection

        def create_connection(address, *args, **kwargs):  # the proxy's upstream is refused
            if address[0] == "::1":
                raise ConnectionRefusedError("refused")
            return real(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", create_connection)
        with _running_stub(_TunnelHandler) as proxy:
            monkeypatch.setenv("HTTPS_PROXY", _origin(proxy))
            with contextlib.closing(HttpBackend("https://[::1]/v1/completions",
                                                max_retries=0)) as backend:
                with pytest.raises(TransportError):
                    backend.generate(CompletionRequest(prompt="p"))
            assert len(proxy.calls) == 1
            assert proxy.calls[0]["path"].endswith(":443")
