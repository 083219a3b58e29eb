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

STOP_REASONS = ("eos", "length")


class BackendError(RuntimeError):
    """Base class for completion-backend failures."""


class TransportError(BackendError):
    """HTTP transport failure or protocol violation, after retries."""


class UnknownPromptError(BackendError):
    """A replay oracle received a prompt it cannot map to its gold corpus."""


class _RequestFields(NamedTuple):
    prompt: str
    max_new_tokens: int
    want_logprobs: bool


class CompletionRequest(_RequestFields):
    """One text-completion call.

    ``want_logprobs`` asks for one logprob per generated token.  The
    scheduler sets it only on mention and onestep requests, whose token
    probabilities score mentions for de-duplication; counts and autoreg
    answers are never scored, so their results carry no logprobs.  A
    request carries no stop strings: a completion ends at its end of
    sequence or at ``max_new_tokens``.

    ``stop`` is no field.  It is a keyword that must be empty, kept only
    because ``perfbench/stub_server.py`` passes ``stop=()`` when it builds
    a request from a body without a ``"stop"`` key; it goes with that
    argument.

    An immutable named tuple whose every construction path (the
    constructor, ``_make``, ``_replace``, pickle and copy) runs the checks:
    a ``max_new_tokens`` below 1, or a non-empty ``stop``, raises
    ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, prompt: str, max_new_tokens: int = 512, want_logprobs: bool = True, *,
                stop: Tuple[str, ...] = ()) -> "CompletionRequest":
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        if stop:
            raise ValueError(f"stop strings are not supported, got {stop!r}")
        return tuple.__new__(cls, (prompt, max_new_tokens, want_logprobs))

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
    once; ``run_corpus`` sizes its thread pool from it, as its docstring
    states.  In-process backends are bound by the interpreter and leave it
    at 1.

    A backend defines ``generate_batch(requests)`` only when it serves or
    accounts for a batch as one: ``OracleBackend`` does, charging every
    member the batch-size penalty.  "pair-batch" then issues each step as
    one such call; on a backend without one (``HttpBackend``) its
    requests fan out on the run's pool like "pair-multi"'s.  A
    ``BackendError`` from ``generate_batch`` fails each member of the
    batch: the scheduler records it once per request, as it records a
    failed ``generate`` call.
    """

    max_in_flight: int = 1

    def generate(self, request: CompletionRequest) -> CompletionResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; in-process backends hold nothing."""


def apply_request_limits(
    tokens: List[str], request: CompletionRequest
) -> Tuple[List[str], str, str]:
    """Cut a would-be completion to the request's ``max_new_tokens``.

    Returns (tokens, text, stop_reason): the first ``max_new_tokens``
    tokens, their text and ``"length"`` when the completion is longer,
    else all of them and ``"eos"``.  The kept tokens are always a prefix of
    ``tokens``, so their logprobs are the first ``len(tokens)`` of the full
    list.
    """
    reason = "eos"
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
