"""Deterministic backend replaying completions from fixture entries."""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable

from parner.backends.base import (
    STOP_REASONS,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    MissingFixtureError,
    apply_request_limits,
)

__all__ = ["ScriptedBackend"]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(name: str, numbers: list) -> list:
    try:
        return [float(x) for x in numbers]
    except OverflowError:
        raise ValueError(f"fixture field {name!r} has an integer too large "
                         f"for a float") from None


class ScriptedBackend(CompletionBackend):
    """Replays fixture completions keyed by the exact prompt string.

    Fixture entries are JSON objects::

        {"prompt": "...", "tokens": ["..."], "logprobs": [-0.01],
         "finish": "eos", "latency_ms": 10.0}

    ``tokens`` and ``logprobs`` are JSON lists.  ``logprobs`` holds one
    number per token, neither NaN nor +inf, and defaults to 0.0 per token;
    ``finish`` is one of ``CompletionResult``'s stop reasons and defaults to
    "eos"; ``latency_ms`` is a finite number of at least 0 and defaults to
    0.0.  Stop strings and ``max_new_tokens`` from the request are applied
    to the replayed tokens.
    Each entry is checked, and its numbers are made floats, once, when it
    is loaded: a bad one, such as an integer too large for a float, raises
    ``ValueError`` naming the field.
    """

    def __init__(self, entries: Iterable[Dict]):
        self._fixtures: Dict[str, Dict] = {}
        for entry in entries:
            self._add(entry)

    def _add(self, entry: Dict) -> None:
        if not isinstance(entry, dict) or "prompt" not in entry or "tokens" not in entry:
            raise ValueError(f"fixture entry needs 'prompt' and 'tokens': {entry!r}")
        for name in ("tokens", "logprobs"):  # a null ``logprobs`` is an absent one
            value = entry.get(name)
            if not isinstance(value, list) and (name == "tokens" or value is not None):
                raise ValueError(f"fixture field {name!r} must be a JSON list, got {value!r}")
        logprobs = entry.get("logprobs") or []
        if not all(_is_number(x) for x in logprobs):
            raise ValueError(f"fixture field 'logprobs' must hold numbers, got {logprobs!r}")
        if not all(x < math.inf for x in logprobs):
            raise ValueError(f"fixture field 'logprobs' must hold no NaN or +inf, "
                             f"got {logprobs!r}")
        if logprobs and len(logprobs) != len(entry["tokens"]):
            raise ValueError(f"fixture logprobs misaligned with its tokens: {entry!r}")
        if entry.get("finish", "eos") not in STOP_REASONS:
            raise ValueError(f"fixture field 'finish' must be one of {STOP_REASONS}, "
                             f"got {entry['finish']!r}")
        latency_ms = entry.get("latency_ms", 0.0)
        if not _is_number(latency_ms):
            raise ValueError(f"fixture field 'latency_ms' must be a number, got {latency_ms!r}")
        if not 0.0 <= latency_ms < math.inf:
            raise ValueError(f"fixture field 'latency_ms' must be finite and >= 0, "
                             f"got {latency_ms!r}")
        self._fixtures[entry["prompt"]] = dict(
            entry, tokens=[str(t) for t in entry["tokens"]],
            logprobs=_floats("logprobs", logprobs or [0.0] * len(entry["tokens"])),
            latency_ms=_floats("latency_ms", [latency_ms])[0])

    @classmethod
    def from_jsonl(cls, path: str) -> "ScriptedBackend":
        """Load one entry per non-blank line; a bad line's error names the file and line."""
        backend = cls([])
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    try:
                        backend._add(json.loads(line))
                    except ValueError as exc:
                        raise ValueError(f"{exc} (fixture file {path}, line {number})") from None
        return backend

    def generate(self, request: CompletionRequest) -> CompletionResult:
        entry = self._fixtures.get(request.prompt)
        if entry is None:
            preview = request.prompt[-120:]
            raise MissingFixtureError(f"no fixture for prompt ending {preview!r}")
        tokens, text, stop_reason = apply_request_limits(
            entry["tokens"], request, default_reason=entry.get("finish", "eos")
        )
        return CompletionResult(
            tokens=tuple(tokens),
            token_logprobs=tuple(entry["logprobs"][: len(tokens)]) if request.want_logprobs
            else (),
            text=text,
            stop_reason=stop_reason,
            latency_ms=entry["latency_ms"],
        )
