"""Backend-neutral completion types, errors and the simulated cost model."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Iterable, List, NamedTuple, Tuple

__all__ = [
    "BackendError",
    "TransportError",
    "UnknownPromptError",
    "CompletionRequest",
    "CompletionResult",
    "CostModel",
    "CompletionBackend",
    "apply_request_limits",
    "simple_tokenize",
]

STOP_REASONS = ("eos", "stop_string", "length")


class BackendError(RuntimeError):
    """Base class for completion-backend failures."""


class TransportError(BackendError):
    """HTTP transport failure or protocol violation, after retries."""


class UnknownPromptError(BackendError):
    """A replay oracle received a prompt it cannot map to its gold corpus."""


class _RequestFields(NamedTuple):
    prompt: str
    max_new_tokens: int
    stop: Tuple[str, ...]
    want_logprobs: bool


class CompletionRequest(_RequestFields):
    """One text-completion call.

    ``want_logprobs`` asks for one logprob per generated token.  The
    scheduler sets it only on mention and onestep requests, whose token
    probabilities score mentions for de-duplication; counts and autoreg
    answers are never scored, so their results carry no logprobs.

    An immutable named tuple whose every construction path (the
    constructor, ``_make``, ``_replace``, pickle and copy) runs the check:
    a ``max_new_tokens`` below 1 raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, prompt: str, max_new_tokens: int = 512, stop: Tuple[str, ...] = (),
                want_logprobs: bool = True) -> "CompletionRequest":
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        return tuple.__new__(cls, (prompt, max_new_tokens, stop, want_logprobs))

    @classmethod
    def _make(cls, iterable: Iterable) -> "CompletionRequest":
        return cls(*iterable)


class _ResultFields(NamedTuple):
    tokens: Tuple[str, ...]
    token_logprobs: Tuple[float, ...]
    text: str
    stop_reason: str
    latency_ms: float


class CompletionResult(_ResultFields):
    """Generated tokens with aligned natural-log probabilities.

    ``text`` is always the exact concatenation of ``tokens``; parsers rely
    on that alignment to map character ranges back to token spans.  A
    logprob is a number below +inf: -inf is probability 0, and a positive
    one is read as probability 1.  ``latency_ms`` is finite and not
    negative.  Every backend's results are checked here, on every
    construction path of this immutable named tuple (the constructor,
    ``_make``, ``_replace``, pickle and copy): a misaligned result, a bad
    ``stop_reason`` or logprob count, a NaN or +inf logprob or a bad
    latency raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, tokens: Tuple[str, ...], token_logprobs: Tuple[float, ...], text: str,
                stop_reason: str, latency_ms: float) -> "CompletionResult":
        if stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop_reason: {stop_reason!r}")
        if token_logprobs and len(token_logprobs) != len(tokens):
            raise ValueError(f"{len(token_logprobs)} logprobs for {len(tokens)} tokens")
        # a sum below +inf holds no NaN and no +inf; one that is not may also
        # have overflowed, so only then is each logprob looked at
        if not sum(token_logprobs) < math.inf:
            bad = [lp for lp in token_logprobs if not lp < math.inf]
            if bad:
                raise ValueError(f"token_logprobs must hold no NaN or +inf, got {bad[0]!r}")
        if not 0.0 <= latency_ms < math.inf:
            raise ValueError(f"latency_ms must be finite and >= 0, got {latency_ms!r}")
        joined = "".join(tokens)
        if joined != text:
            raise ValueError(f"tokens concatenate to {joined[:80]!r}, not to text {text[:80]!r}")
        return tuple.__new__(cls, (tokens, token_logprobs, text, stop_reason, latency_ms))

    @classmethod
    def _make(cls, iterable: Iterable) -> "CompletionResult":
        return cls(*iterable)

    @property
    def generated_token_count(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CostModel:
    """Affine latency model for simulated backends.

    A call generating n tokens in a batch of b costs
    ``fixed_overhead_ms + ms_per_token * n * penalty(b)`` where
    ``penalty(b) = 1 + alpha * (b - 1)``: batching never helps a single
    sequence, it taxes it mildly.  Each setting must be finite and not
    negative, so no attributed latency is negative or infinite; a bad one
    raises ``ValueError`` naming it.
    """

    ms_per_token: float = 10.0
    fixed_overhead_ms: float = 0.0
    batch_penalty_alpha: float = 0.05

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{field.name} must be finite and >= 0, got {value!r}")

    def penalty(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return 1.0 + self.batch_penalty_alpha * (batch_size - 1)

    def latency_ms(self, token_count: int, batch_size: int = 1) -> float:
        return self.fixed_overhead_ms + self.ms_per_token * token_count * self.penalty(batch_size)


class CompletionBackend:
    """Interface for stateless prompt -> completion generation.

    Implementations must be safe for concurrent ``generate`` calls and
    immutable once constructed, so that results are a pure function of the
    request (plus any configured seed), never of call order.

    ``max_in_flight`` is how many ``generate`` calls the backend serves at
    once.  A ``run_corpus`` run decodes its documents on at most
    ``parallelism`` strands, its calling thread one of them, and sends
    their requests to a request pool of ``max(parallelism,
    max_in_flight)`` threads less the strands; so with ``max_in_flight``
    above ``parallelism`` one document's requests can be in flight
    together.  In-process backends are bound by the interpreter and leave
    it at 1.

    A backend defines ``generate_batch(requests)`` only when it serves or
    accounts for a batch as one: ``OracleBackend`` does, charging every
    member the batch-size penalty.  "pair-batch" then issues each step as
    one such call; on a backend without one (``HttpBackend``) its
    requests fan out on the run's request pool like "pair-multi"'s.
    """

    max_in_flight: int = 1

    def generate(self, request: CompletionRequest) -> CompletionResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; in-process backends hold nothing."""


def apply_request_limits(
    tokens: List[str], request: CompletionRequest
) -> Tuple[List[str], str, str]:
    """Apply stop strings and the token budget to a would-be completion.

    Stop strings are honored at their first occurrence in the concatenated
    text (a token straddling the cut is kept truncated, preserving
    text/token alignment), then ``max_new_tokens`` caps the length.
    Returns (tokens, text, stop_reason).  The kept tokens are always a
    prefix of ``tokens``, the last one possibly truncated, so their
    logprobs are the first ``len(tokens)`` of the full list.  Without a
    non-empty stop string the text is joined once, from the kept tokens.
    """
    reason = "eos"
    if any(request.stop):
        text = "".join(tokens)
        cut = min((i for i in (text.find(s) for s in request.stop if s) if i >= 0), default=-1)
        if cut >= 0:
            kept: List[str] = []
            pos = 0
            for tok in tokens:
                if pos >= cut:
                    break
                kept.append(tok if pos + len(tok) <= cut else tok[: cut - pos])
                pos += len(tok)
            tokens = kept
            reason = "stop_string"
    if len(tokens) > request.max_new_tokens:
        tokens = tokens[: request.max_new_tokens]
        reason = "length"
    return tokens, "".join(tokens), reason


_TOKEN_RE = re.compile(r"\s*\S+|\s+")


def simple_tokenize(text: str) -> List[str]:
    """Whitespace-attached word tokens whose concatenation is exactly ``text``.

    Leading whitespace sticks to the following word, mirroring how subword
    vocabularies carry space markers:

        >>> simple_tokenize("Jacques Moret")
        ['Jacques', ' Moret']

    Unspaced scripts come out as one token per run; that coarsens the cost
    model for such text but keeps alignment exact.
    """
    return _TOKEN_RE.findall(text)
