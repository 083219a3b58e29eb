"""HTTP client backend for completion servers with a logprob echo."""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

import requests

from parner.backends.base import (
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    TransportError,
)

__all__ = ["HttpBackend", "TOKEN_ENV_VAR"]

# bearer token is taken from the environment, never from config files
TOKEN_ENV_VAR = "PARNER_HTTP_TOKEN"

_FINISH_TO_STOP_REASON = {"eos": "eos", "stop": "stop_string", "length": "length"}


class HttpBackend(CompletionBackend):
    """POSTs completion requests to a JSON endpoint.

    Request body::

        {"prompt": ..., "max_tokens": ..., "temperature": ...,
         "stop": [...], "logprobs": ..., "echo": false}

    Expected response fields: ``text``, ``tokens`` (concatenating to
    ``text``), ``token_logprobs`` (required when logprobs were requested),
    ``finish_reason``.  Transport failures and 5xx responses are retried
    with exponential backoff; a response that breaks the
    ``CompletionResult`` contract is a ``TransportError``.  ``latency_ms``
    is wall-clock measured around the successful call.

    The environment is read once, when the backend is built: proxies for
    ``url`` (honouring ``NO_PROXY``), the CA bundle
    (``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``), ``PARNER_HTTP_TOKEN`` and,
    only when that token is unset, ``.netrc`` credentials.  Every request
    then carries those settings, so it is the one ``requests`` would have
    built from the environment, with no lookup per call.  ``session``
    (default: a new ``requests.Session``) gets ``trust_env`` turned off for
    the same reason, so a session shared with a later backend gives that
    one no environment settings.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        max_retries: int = 2,
        max_in_flight: int = 8,
        backoff_s: float = 0.25,
        session: Optional[requests.Session] = None,
    ):
        self._url = url
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._backoff_s = backoff_s
        self.max_in_flight = max_in_flight
        self._semaphore = threading.Semaphore(max_in_flight)
        self._session = session or requests.Session()
        self._headers: Dict[str, str] = {}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"
        # What requests would look up in the environment on every call.
        # .netrc applies only when neither the token nor the session's own
        # auth is set: requests applies auth after the headers, so .netrc
        # credentials would replace the bearer token.
        settings = self._session.merge_environment_settings(url, {}, None, None, None)
        self._proxies = settings["proxies"]
        self._verify = settings["verify"]
        self._auth = None
        if not token and self._session.trust_env and not self._session.auth:
            self._auth = requests.utils.get_netrc_auth(url)
        self._session.trust_env = False

    def generate(self, request: CompletionRequest) -> CompletionResult:
        payload = {
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
            "stop": list(request.stop),
            "logprobs": request.want_logprobs,
            "echo": False,
        }
        with self._semaphore:
            body, latency_ms = self._post(payload)
        return self._to_result(body, request, latency_ms)

    def _post(self, payload: Dict) -> tuple:
        last_error: Optional[str] = None
        for attempt in range(self._max_retries + 1):
            if attempt:
                time.sleep(self._backoff_s * 2 ** (attempt - 1))
            start = time.perf_counter()
            try:
                response = self._session.post(
                    self._url, json=payload, headers=self._headers, timeout=self._timeout_s,
                    proxies=self._proxies, verify=self._verify, auth=self._auth,
                )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
                continue
            latency_ms = (time.perf_counter() - start) * 1000.0
            if response.status_code >= 500:
                last_error = f"server error {response.status_code}"
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"completion endpoint returned {response.status_code}: {response.text[:200]}"
                )
            try:
                return response.json(), latency_ms
            except ValueError as exc:
                raise TransportError(f"completion endpoint returned invalid JSON: {exc}") from None
        raise TransportError(
            f"completion request failed after {self._max_retries + 1} attempts: {last_error}"
        )

    def _to_result(
        self, body: Dict, request: CompletionRequest, latency_ms: float
    ) -> CompletionResult:
        if not isinstance(body, dict) or "text" not in body:
            raise TransportError(f"malformed completion response: {str(body)[:200]}")
        text = body["text"]
        tokens = body.get("tokens")
        if tokens is None:
            raise TransportError("completion response is missing 'tokens'")
        logprobs = body.get("token_logprobs")
        # CompletionResult checks their length only when logprobs are present
        if request.want_logprobs and (logprobs is None or (tokens and not logprobs)):
            raise TransportError(
                "completion response is missing 'token_logprobs' (required for scoring)"
            )
        stop_reason = _FINISH_TO_STOP_REASON.get(body.get("finish_reason", "eos"))
        if stop_reason is None:
            raise TransportError(f"unknown finish_reason: {body.get('finish_reason')!r}")
        try:
            return CompletionResult(
                tokens=tuple(str(t) for t in tokens),
                token_logprobs=tuple(float(x) for x in logprobs) if request.want_logprobs else (),
                text=str(text),
                stop_reason=stop_reason,
                latency_ms=latency_ms,
            )
        except (TypeError, ValueError) as exc:
            raise TransportError(f"completion response breaks the result contract: {exc}") from None
