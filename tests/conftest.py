"""Shared fixtures: the worked single-document example, fixture builders and
a backend replaying scripted completions."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import pytest

from parner.backends import (
    BackendError,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    simple_tokenize,
)
from parner.backends.base import apply_request_limits
from parner.corpus import Document, GoldAnnotation, LabelSet, Mention
from parner.templates import PromptTemplate, build_count_prompt, build_mention_prompt

CUTTITTA_TEXT = (
    "Cuttitta announced his retirement after the 1995 World Cup , where he took "
    "issue with being dropped from the Italy side that faced England in the pool stages."
)


@pytest.fixture
def labels() -> LabelSet:
    return LabelSet(["PER", "MISC", "LOC", "ORG"])


@pytest.fixture
def template() -> PromptTemplate:
    return PromptTemplate()


@pytest.fixture
def cuttitta() -> Tuple[Document, GoldAnnotation]:
    doc = Document(id="d0", text=CUTTITTA_TEXT)
    gold = GoldAnnotation(doc_id="d0", mentions=[
        Mention("PER", "Cuttitta"),
        Mention("MISC", "1995 World Cup"),
        Mention("LOC", "Italy"),
        Mention("LOC", "England"),
    ])
    return doc, gold


def completion(
    text: str,
    tokens: Optional[List[str]] = None,
    logprobs: Optional[List[float]] = None,
    stop_reason: str = "eos",
    latency_ms: float = 0.0,
) -> CompletionResult:
    """Build a result whose text is the exact token concatenation."""
    if tokens is None:
        tokens = simple_tokenize(text) if text else []
    assert "".join(tokens) == text, "fixture tokens must concatenate to text"
    if logprobs is None:
        logprobs = [0.0] * len(tokens)
    return CompletionResult(
        tokens=tuple(tokens),
        token_logprobs=tuple(logprobs),
        text=text,
        stop_reason=stop_reason,
        latency_ms=latency_ms,
    )


class ScriptedBackend(CompletionBackend):
    """Replays one completion per exact prompt, cut to each request's limits.

    An entry is ``{"prompt", "tokens"}`` with optional ``"logprobs"`` (0.0
    per token) and ``"latency_ms"`` (0.0); its result is built once, so the
    ``CompletionResult`` contract checks it.  An unknown prompt raises
    ``BackendError``.
    """

    def __init__(self, entries: List[Dict]):
        self._results = {entry["prompt"]: completion(
            "".join(entry["tokens"]), entry["tokens"], entry.get("logprobs"),
            latency_ms=entry.get("latency_ms", 0.0)) for entry in entries}

    def generate(self, request: CompletionRequest) -> CompletionResult:
        full = self._results.get(request.prompt)
        if full is None:
            raise BackendError(f"no scripted completion for prompt ending "
                               f"{request.prompt[-120:]!r}")
        tokens, text, reason = apply_request_limits(list(full.tokens), request)
        logprobs = full.token_logprobs[:len(tokens)] if request.want_logprobs else ()
        return CompletionResult(tuple(tokens), logprobs, text, reason, full.latency_ms)


# Hand-built two-step trace for the worked document: four labels whose
# counts are 1, 2, 2 and 0, with per-sequence latencies chosen so the
# document latency is dominated by LOC mention 1 (11 + 22 = 33).
TRACE_STEP1_LATENCY = {"PER": 10.0, "MISC": 12.0, "LOC": 11.0, "ORG": 9.0}
TRACE_COUNTS = {"PER": 1, "MISC": 2, "LOC": 2, "ORG": 0}
TRACE_STEP2 = {
    ("PER", 1): ("Cuttitta", 20.0, 0.90),
    ("MISC", 1): ("1995 World Cup", 15.0, 0.90),
    ("MISC", 2): ("Italy", 18.0, 0.61),
    ("LOC", 1): ("Italy", 22.0, 0.93),
    ("LOC", 2): ("England", 19.0, 0.90),
}
TRACE_EXPECTED_EXAMPLE_LATENCY = 33.0


def two_step_fixture_entries(
    doc: Document, labels: LabelSet, t: PromptTemplate
) -> List[Dict]:
    """``ScriptedBackend`` entries replaying the hand-built two-step trace."""
    entries: List[Dict] = []
    for label in labels:
        prompt = build_count_prompt(doc, labels.surface(label), t)
        count = TRACE_COUNTS[label]
        if count == 0:
            tokens = [t.eos_literal]
        else:
            tokens = list(str(count)) + [t.count_terminator]
        entries.append({
            "prompt": prompt,
            "tokens": tokens,
            "logprobs": [math.log(0.97)] * len(tokens),
            "latency_ms": TRACE_STEP1_LATENCY[label],
        })
        for index in range(1, count + 1):
            surface, latency, prob = TRACE_STEP2[(label, index)]
            mention_tokens = simple_tokenize(surface) + [t.eos_literal]
            entries.append({
                "prompt": build_mention_prompt(prompt, count, index, t),
                "tokens": mention_tokens,
                "logprobs": [math.log(prob)] * len(mention_tokens),
                "latency_ms": latency,
            })
    return entries
