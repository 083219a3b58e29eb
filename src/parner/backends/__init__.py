"""Pluggable text-completion backends sharing one request/result contract."""

from parner.backends.base import (
    BackendError,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    CostModel,
    TransportError,
    UnknownPromptError,
    simple_tokenize,
)
from parner.backends.oracle import ErrorInjection, OracleBackend

__all__ = [
    "BackendError",
    "CompletionBackend",
    "CompletionRequest",
    "CompletionResult",
    "CostModel",
    "ErrorInjection",
    "HttpBackend",
    "OracleBackend",
    "TransportError",
    "UnknownPromptError",
    "simple_tokenize",
]


def __getattr__(name: str):
    # HttpBackend's module loads requests, urllib3 and ssl, which only HTTP
    # runs need, so it is imported on first access
    if name == "HttpBackend":
        from parner.backends.http import HttpBackend

        return HttpBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
