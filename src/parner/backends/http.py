"""HTTP client backend for completion servers with a logprob echo."""

from __future__ import annotations

import base64
import email.message
import gzip
import http.client
import io
import json
import math
import os
import re
import select
import socket
import ssl
import threading
import time
import warnings
import weakref
import zlib
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import urlsplit

import requests
from requests.adapters import BaseAdapter
from requests.cookies import extract_cookies_to_jar
from requests.structures import CaseInsensitiveDict
from requests.utils import (
    DEFAULT_CA_BUNDLE_PATH,
    get_auth_from_url,
    get_encoding_from_headers,
    prepend_scheme_if_needed,
    select_proxy,
    urldefragauth,
)
from urllib3.exceptions import InsecureRequestWarning

from parner.backends.base import (
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    TransportError,
)

__all__ = ["HttpBackend", "TOKEN_ENV_VAR"]

# bearer token is taken from the environment, never from config files
TOKEN_ENV_VAR = "PARNER_HTTP_TOKEN"

# parner sends no stop strings, so a server's "stop" is its end of sequence
_FINISH_TO_STOP_REASON = {"eos": "eos", "stop": "eos", "length": "length"}
# the JSON types a logprob may have: a bool is no number here
_NUMBERS = (int, float)

# first wait before a retry, in seconds; it doubles on every further retry
_BACKOFF_S = 0.25

_DEFAULT_PORTS = {"http": 80, "https": 443}

# what http.client refuses to write: control characters in the request
# line, and a field that would start another line
_BAD_METHOD = re.compile("[\x00-\x1f]")
_BAD_TARGET = re.compile("[\x00-\x20\x7f]")
_FIELD_NAME = re.compile(rb"[^:\s][^:\r\n]*")
_BAD_FIELD_VALUE = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])")

# what http.client reads an answer with: bytes per line, header lines
_MAX_LINE = 65536
_MAX_FIELDS = 100
_END_OF_FIELDS = (b"\r\n", b"\n", b"")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")
# the most a body read asks for at once, so a false length allocates no
# more than actually arrives
_READ_BLOCK = 1 << 20


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle connection is unusable: the peer closed it or sent
    bytes nobody asked for (either makes the socket readable)."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_idle(idle: List[http.client.HTTPConnection], lock: threading.Lock) -> None:
    with lock:
        connections = idle[:]
        idle.clear()
    for conn in connections:
        conn.close()


def _decode_body(body: bytes, content_encoding: Optional[str]) -> bytes:
    """Undo the gzip/deflate codings of a body, last applied first; other
    codings are left as they are."""
    if not content_encoding or not body:
        return body
    for coding in reversed(content_encoding.lower().split(",")):
        coding = coding.strip()
        if coding in ("gzip", "x-gzip"):
            body = gzip.decompress(body)
        elif coding == "deflate":
            try:
                body = zlib.decompress(body)
            except zlib.error:  # raw deflate, without the zlib wrapper
                body = zlib.decompress(body, -zlib.MAX_WBITS)
    return body


def _host_field(url, absolute: bool) -> bytes:
    """``Host`` as ``http.client``'s ``putrequest`` writes it: the authority
    of ``url`` for an absolute-form target (a request to a proxy), else its
    host with its port, unless that is the scheme's default."""
    if absolute:
        host, port = url.netloc.rpartition("@")[2], None
    else:
        host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
        port = url.port if url.port != _DEFAULT_PORTS[url.scheme.lower()] else None
    host = host.encode("ascii") if host.isascii() else host.encode("idna")
    host, zone, _ = host.partition(b"%")  # an IPv6 zone is not sent
    if zone:
        host += b"]"
    return host if port is None else b"%s:%d" % (host, port)


def _field(name, value) -> bytes:
    """One request header line, encoded and checked as ``http.client``'s
    ``putheader`` does it."""
    try:
        name = name if isinstance(name, bytes) else name.encode("ascii")
        value = value if isinstance(value, bytes) else str(value).encode("latin-1")
    except UnicodeEncodeError:
        raise requests.exceptions.InvalidHeader(f"cannot encode header {name!r}") from None
    if not _FIELD_NAME.fullmatch(name) or _BAD_FIELD_VALUE.search(value):
        raise requests.exceptions.InvalidHeader(f"invalid header {name!r}: {value!r}")
    return name + b": " + value


def _request_bytes(method: str, target: str, host: bytes, headers,
                   body: Optional[bytes]) -> bytes:
    """The request line, ``Host`` unless ``headers`` has one, ``headers``
    and ``body``, for one ``sendall``.  A control character in the method,
    the target or a header raises before anything is written."""
    line = f"{method} {target} HTTP/1.1"
    if _BAD_METHOD.search(method) or _BAD_TARGET.search(target) or not line.isascii():
        raise requests.exceptions.InvalidURL(
            f"request line {line!r} must be ASCII without control characters")
    lines = [line.encode("ascii")]
    if "Host" not in headers:
        lines.append(b"Host: " + host)
    lines.extend(_field(name, value) for name, value in headers.items())
    return b"\r\n".join(lines) + b"\r\n\r\n" + (body or b"")


class _BadAnswer(Exception):
    """An answer that is malformed, over a limit or cut short."""


class _Answer(NamedTuple):
    status: int
    reason: str
    headers: CaseInsensitiveDict
    fields: List[Tuple[str, str]]  # as received, for the cookie jar
    body: bytes
    reusable: bool  # HTTP/1.1, a framed body and no Connection: close


def _line(stream) -> bytes:
    line = stream.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadAnswer(f"answer line longer than {_MAX_LINE} bytes")
    return line


def _status(stream) -> Tuple[str, int, str]:
    line = _line(stream)
    if not line:
        raise _BadAnswer("connection closed without an answer")
    parts = line.decode("latin-1").split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith("HTTP/") or len(parts[1]) != 3
            or not parts[1].isdecimal() or parts[1] < "100"):
        raise _BadAnswer(f"malformed status line {line[:100]!r}")
    return parts[0], int(parts[1]), parts[2].strip() if len(parts) > 2 else ""


def _fields(stream) -> List[Tuple[str, str]]:
    """The ``name: value`` lines up to the blank line that ends them."""
    fields: List[Tuple[str, str]] = []
    for _ in range(_MAX_FIELDS + 1):
        line = _line(stream)
        if line in _END_OF_FIELDS:
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name[0] in " \t":
            raise _BadAnswer(f"malformed header line {line[:100]!r}")
        fields.append((name, value.strip(" \t\r\n")))
    raise _BadAnswer(f"answer has more than {_MAX_FIELDS} header lines")


def _read(stream, size: int) -> bytes:
    """``size`` bytes, or fewer if the stream ends first."""
    blocks = []
    while size > 0:
        block = stream.read(min(size, _READ_BLOCK))
        if not block:
            break
        blocks.append(block)
        size -= len(block)
    return b"".join(blocks)


def _chunked(stream) -> bytes:
    """A chunked body; chunk extensions and the trailer are dropped."""
    chunks = []
    while True:
        size = _line(stream).split(b";", 1)[0].strip(b" \t\r\n")
        if not _CHUNK_SIZE.fullmatch(size):
            raise _BadAnswer(f"malformed chunk size {size[:100]!r}")
        size = int(size, 16)
        if not size:
            _fields(stream)
            return b"".join(chunks)
        chunk = _read(stream, size)
        if len(chunk) < size or _line(stream) not in (b"\r\n", b"\n"):
            raise _BadAnswer("chunked answer cut short")
        chunks.append(chunk)


def _read_answer(sock: socket.socket, method: str) -> _Answer:
    """One answer from ``sock``, after any 1xx interim ones.  The body is
    framed by ``chunked``, else by ``Content-Length``, else by the close;
    HEAD, 204 and 304 answers have none."""
    with sock.makefile("rb") as stream:
        status = 100
        while status < 200:
            version, status, reason = _status(stream)
            fields = _fields(stream)
        headers = CaseInsensitiveDict()
        for name, value in fields:  # repeated fields join as urllib3 joins them
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        coding = headers.get("Transfer-Encoding")
        length = headers.get("Content-Length")
        framed = True
        if method == "HEAD" or status in (204, 304):
            body = b""
        elif coding is not None and coding.rsplit(",", 1)[-1].strip(" \t").lower() == "chunked":
            body = _chunked(stream)
        elif coding is None and length is not None:
            if not length.isdecimal():
                raise _BadAnswer(f"malformed Content-Length {length[:100]!r}")
            body = _read(stream, int(length))
            if len(body) < int(length):
                raise _BadAnswer(f"answer body ended after {len(body)} of {length} bytes")
        else:
            body, framed = stream.read(), False
    closing = "close" in {token.strip(" \t").lower()
                          for token in headers.get("Connection", "").split(",")}
    return _Answer(status, reason, headers, fields, body,
                   framed and version == "HTTP/1.1" and not closing)


def _tls_context(verify, cert) -> ssl.SSLContext:
    """An SSL context for ``verify`` and ``cert`` as ``requests`` reads
    them: ``True`` is its CA bundle, a string a CA file or directory,
    ``False`` no verification; ``cert`` is a file or a (cert, key) pair."""
    if verify:
        location = DEFAULT_CA_BUNDLE_PATH if verify is True else verify
        if not os.path.exists(location):
            raise OSError(
                f"Could not find a suitable TLS CA certificate bundle, invalid path: {location}"
            )
        if os.path.isdir(location):
            context = ssl.create_default_context(capath=location)
        else:
            context = ssl.create_default_context(cafile=location)
    else:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        context.check_hostname = False
        context.verify_mode = ssl.CERT_NONE
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    if cert:
        cert_file, key_file = (cert, None) if isinstance(cert, str) else cert
        for kind, path in (("certificate", cert_file), ("key", key_file)):
            if path and not os.path.exists(path):
                raise OSError(f"Could not find the TLS {kind} file, invalid path: {path}")
        context.load_cert_chain(cert_file, key_file)
    return context


class _KeepAliveAdapter(BaseAdapter):
    """Sends requests for one origin over pooled keep-alive connections,
    writing and reading HTTP/1.1 itself.

    The route is fixed when the adapter is built, from the URL, the proxy
    for it (or None), and ``verify`` and ``cert`` as ``requests`` reads
    them: the address to connect to, with the scheme's default port when
    the URL or the proxy URL has none; an ``http://`` proxy and its
    ``Proxy-Authorization`` from credentials in the proxy URL; one TLS
    context; and the ``Host`` field.  An unsupported scheme, an
    ``https://`` or SOCKS proxy raise ``ValueError`` there, and a missing
    CA bundle or client-certificate file ``OSError``.  ``send`` does not
    read its ``verify``, ``cert`` or ``proxies`` arguments; the adapter
    must be mounted where it gets requests for its URL's origin only.

    ``http.client`` only connects: TCP, TLS, and the ``CONNECT`` tunnel
    for HTTPS through a proxy.  What goes on the wire is the request that
    ``requests``' stock adapter sends through urllib3: the request line,
    ``Host`` as ``http.client`` writes it, the prepared headers and the
    body, in one ``sendall``.  HTTP proxies get absolute-form targets.  A
    control character in the method, the target or a header is refused
    before anything is written, as ``http.client`` refuses it.  Bodies
    must be bytes or str, as ``json=`` and ``data=`` with a dict or a
    string make them.

    Answers are read with ``http.client``'s limits, 65536 bytes per line
    and 100 header lines.  1xx interim answers are skipped.  The body is
    read whole, also with ``stream=True``, framed by ``chunked``, else by
    ``Content-Length``, else by the close; gzip/deflate are undone.

    Idle connections wait in one LIFO list, so concurrent callers never
    hold more connections than they have requests in flight.  One goes
    back to the list only after an HTTP/1.1 answer with a framed body and
    no ``Connection: close``, and is discarded instead of reused once its
    peer dropped it.  A request that was written is never re-sent here:
    socket timeouts raise ``requests.Timeout`` and other failures,
    including a malformed, oversized or cut-short answer,
    ``requests.ConnectionError``; the caller decides whether to retry.
    """

    def __init__(self, url: str, proxy: Optional[str], verify, cert) -> None:
        super().__init__()
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        if scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ValueError(f"unsupported URL: {url!r}")
        # http.client would split an IPv6 literal without a port at its last colon
        self._origin = (parts.hostname, parts.port or _DEFAULT_PORTS[scheme])
        self._address = self._origin
        self._proxy_auth: Dict[str, str] = {}
        if proxy:
            proxy = prepend_scheme_if_needed(proxy, "http")
            proxy_url = urlsplit(proxy)
            if proxy_url.scheme.lower() != "http" or not proxy_url.hostname:
                # without the credentials, which an error message must not show
                raise ValueError(f"unsupported proxy URL: {urldefragauth(proxy)!r}")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            username, password = get_auth_from_url(proxy)
            if username:
                token = base64.b64encode(f"{username}:{password}".encode("latin-1")).decode()
                self._proxy_auth["Proxy-Authorization"] = f"Basic {token}"
        self._proxied = bool(proxy)
        self._absolute = self._proxied and scheme == "http"  # else HTTPS through CONNECT
        self._context = _tls_context(verify, cert) if scheme == "https" else None
        self._host = _host_field(parts, self._absolute)
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        # like urllib3's pools, close idle sockets when dropped unclosed
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        connect_s, read_s = timeout if isinstance(timeout, tuple) else (timeout, timeout)
        headers = request.headers
        target = request.path_url
        if self._absolute:
            target = urldefragauth(request.url)
            headers = headers.copy()
            headers.update(self._proxy_auth)
        data = request.body
        if isinstance(data, str):  # as urllib3 sends it, not latin-1 as http.client would
            data = data.encode("utf-8")
        message = _request_bytes(request.method, target, self._host, headers, data)

        conn = self._checkout()
        if conn is None:
            conn = self._connect(connect_s, request)
        try:
            conn.sock.settimeout(read_s)
            conn.sock.sendall(message)
            answer = _read_answer(conn.sock, request.method)
        except socket.timeout as exc:
            conn.close()
            raise requests.exceptions.ReadTimeout(exc, request=request) from None
        except (OSError, _BadAnswer) as exc:
            conn.close()
            raise requests.exceptions.ConnectionError(exc, request=request) from None
        except BaseException:
            conn.close()
            raise
        if answer.reusable:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return self._response(request, answer)

    def close(self) -> None:
        """Close the idle connections; the adapter stays usable."""
        _close_idle(self._idle, self._lock)

    def _checkout(self) -> Optional[http.client.HTTPConnection]:
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not _dropped(conn.sock):
                return conn
            conn.close()

    def _connect(self, timeout_s, request) -> http.client.HTTPConnection:
        if self._context is None:
            conn = http.client.HTTPConnection(*self._address, timeout=timeout_s)
        else:
            conn = http.client.HTTPSConnection(*self._address, timeout=timeout_s,
                                               context=self._context)
            if self._proxied:
                conn.set_tunnel(*self._origin, headers=self._proxy_auth)
            if self._context.verify_mode == ssl.CERT_NONE:
                # the warning category that users' filters already name
                warnings.warn(f"Unverified HTTPS request is being made to host "
                              f"{self._origin[0]!r}", InsecureRequestWarning)
        try:
            conn.connect()
        except socket.timeout as exc:
            conn.close()
            raise requests.exceptions.ConnectTimeout(exc, request=request) from None
        except ssl.SSLError as exc:
            conn.close()
            raise requests.exceptions.SSLError(exc, request=request) from None
        except OSError as exc:
            conn.close()
            error = (requests.exceptions.ProxyError if self._proxied
                     else requests.exceptions.ConnectionError)
            raise error(exc, request=request) from None
        return conn

    def _response(self, request, answer: _Answer) -> requests.Response:
        headers = answer.headers
        try:
            body = _decode_body(answer.body, headers.get("Content-Encoding"))
        except (OSError, EOFError, zlib.error) as exc:
            raise requests.exceptions.ContentDecodingError(exc, request=request) from None
        response = requests.Response()
        response.status_code = answer.status
        response.reason = answer.reason
        response.headers = headers
        response.encoding = get_encoding_from_headers(headers)
        response.url = request.url
        response.request = request
        response.connection = self
        response.raw = io.BytesIO(body)
        if "Set-Cookie" in headers or "Set-Cookie2" in headers:
            # requests (here and in Session.send) reads cookies from the
            # fields of what would be urllib3's http.client answer
            fields = email.message.Message()
            for name, value in answer.fields:
                fields[name] = value
            response.raw._original_response = SimpleNamespace(msg=fields)
            extract_cookies_to_jar(response.cookies, request, response.raw)
        return response


def _retry_after_s(value: Optional[str]) -> Optional[float]:
    """``Retry-After`` as seconds, or None unless it is a non-negative number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


class HttpBackend(CompletionBackend):
    """POSTs completion requests to a JSON endpoint.

    Request body::

        {"prompt": ..., "max_tokens": ..., "temperature": 0,
         "logprobs": ..., "echo": false}

    ``temperature`` is always 0, because the two-step protocol decodes
    greedily.  ``max_tokens`` is the request's ``max_new_tokens``; the
    scheduler caps it for a count request at the length of the largest
    count's answer (4 tokens under the default template).  No stop
    strings are sent, so a ``finish_reason`` of ``"stop"`` reads as
    ``"eos"``: such a server stops only at its end of sequence.

    Expected response fields: ``text``, ``tokens`` (a list concatenating
    to ``text``), ``token_logprobs`` (a list, required when logprobs were
    requested), ``finish_reason``.  Transport failures, 5xx and 429
    responses are retried, ``max_retries`` times at most, after 0.25 s,
    doubling each time; a 429 whose ``Retry-After`` is a non-negative
    number of seconds waits that long instead.  No wait lasts longer than
    ``timeout_s``, so a server that keeps rate-limiting fails the request
    instead of holding a ``max_in_flight`` slot for hours.  A response that
    breaks the ``CompletionResult`` contract is a ``TransportError``, and so
    is a body that is not valid UTF-8 JSON.  ``latency_ms`` is wall-clock
    measured around the successful call.  A ``max_in_flight`` below 1, a
    ``max_retries`` below 0, or a ``timeout_s`` that is not a finite number
    above 0 raises ``ValueError``.

    The environment and the session's settings are read once, when the
    backend is built: proxies for ``url`` (honouring ``NO_PROXY``) and the
    session's ``proxies``, the CA bundle (``REQUESTS_CA_BUNDLE``/
    ``CURL_CA_BUNDLE``) or the session's ``verify``, its ``cert``,
    ``PARNER_HTTP_TOKEN`` and, only when that token is unset, ``.netrc``
    credentials.  They fix the route of every request, with no lookup per
    call, and a route that cannot work fails here: a ``url`` that is not
    ``http://`` or ``https://``, or an ``https://`` or SOCKS proxy, raises
    ``ValueError``, and a missing CA bundle or client-certificate file
    ``OSError``.  ``session`` (default: a new ``requests.Session``) gets
    ``trust_env`` turned off, so a session shared with a later backend
    gives that one no environment settings.

    Requests still go through ``session.post``, so a session's subclass
    and hooks see every response; below the session, ``url`` is mounted on
    a transport for its origin alone that keeps up to ``max_in_flight``
    keep-alive connections (see ``_KeepAliveAdapter``).  An answer it
    cannot read, malformed, over a limit or cut short, is a transport
    failure, retried as above; a request it refuses to write, for a
    control character in a header or the target, fails at once.
    ``close()`` closes those connections, and the session too when the
    backend built it.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        max_retries: int = 2,
        max_in_flight: int = 8,
        session: Optional[requests.Session] = None,
    ):
        if max_in_flight < 1 or max_retries < 0:
            raise ValueError(f"max_in_flight must be >= 1 and max_retries >= 0, "
                             f"got {max_in_flight} and {max_retries}")
        if not (math.isfinite(timeout_s) and timeout_s > 0):
            raise ValueError(f"timeout_s must be a finite number > 0, got {timeout_s}")
        self._url = url
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self.max_in_flight = max_in_flight
        self._semaphore = threading.Semaphore(max_in_flight)
        self._owns_session = session is None
        self._session = session or requests.Session()
        # the URL as the session prepares it, so its lowercased, IDNA-encoded
        # host is the one the mount, the proxy lookup and Host see
        route = requests.Request("POST", url).prepare().url
        settings = self._session.merge_environment_settings(route, {}, None, None, None)
        self._adapter = _KeepAliveAdapter(route, select_proxy(route, settings["proxies"]),
                                          settings["verify"], settings["cert"])
        self._headers: Dict[str, str] = {}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"
        # .netrc applies only when neither the token nor the session's own
        # auth is set: requests applies auth after the headers, so .netrc
        # credentials would replace the bearer token.
        self._auth = None
        if not token and self._session.trust_env and not self._session.auth:
            self._auth = requests.utils.get_netrc_auth(url)
        self._session.trust_env = False
        # a prepared URL always has a path, so the prefix ends the authority
        # and no other origin's request reaches the fixed route
        self._session.mount(route, self._adapter)

    def close(self) -> None:
        """Close the idle connections, and the session if this backend built it."""
        self._adapter.close()
        if self._owns_session:
            self._session.close()

    def generate(self, request: CompletionRequest) -> CompletionResult:
        payload = {
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            "temperature": 0,
            "logprobs": request.want_logprobs,
            "echo": False,
        }
        with self._semaphore:
            body, latency_ms = self._post(payload)
        return self._to_result(body, request, latency_ms)

    def _post(self, payload: Dict) -> tuple:
        last_error: Optional[str] = None
        retry_after: Optional[float] = None
        for attempt in range(self._max_retries + 1):
            if attempt:
                time.sleep(min(self._timeout_s, _BACKOFF_S * 2 ** (attempt - 1)
                               if retry_after is None else retry_after))
                retry_after = None
            start = time.perf_counter()
            try:
                response = self._session.post(self._url, json=payload, headers=self._headers,
                                              timeout=self._timeout_s, auth=self._auth)
            except (requests.exceptions.InvalidHeader, requests.exceptions.InvalidURL) as exc:
                # refused before anything was written: a retry would fail alike
                raise TransportError(f"completion request not sent: {exc}") from None
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
                continue
            latency_ms = (time.perf_counter() - start) * 1000.0
            if response.status_code >= 500:
                last_error = f"server error {response.status_code}"
                continue
            if response.status_code == 429:
                last_error = "rate limited (429)"
                retry_after = _retry_after_s(response.headers.get("Retry-After"))
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"completion endpoint returned {response.status_code}: {response.text[:200]}"
                )
            try:  # bytes, so that invalid UTF-8 is an error, not U+FFFD
                return json.loads(response.content), latency_ms
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
        for name, value in (("tokens", tokens), ("token_logprobs", logprobs)):
            if value is not None and not isinstance(value, list):
                raise TransportError(f"completion response field {name!r} must be a list, "
                                     f"got {str(value)[:200]!r}")
        # CompletionResult checks their length only when logprobs are present
        if request.want_logprobs and (logprobs is None or (tokens and not logprobs)):
            raise TransportError(
                "completion response is missing 'token_logprobs' (required for scoring)"
            )
        stop_reason = _FINISH_TO_STOP_REASON.get(body.get("finish_reason", "eos"))
        if stop_reason is None:
            raise TransportError(f"unknown finish_reason: {body.get('finish_reason')!r}")
        # checked, not coerced: a null token is no text "None", and a true
        # logprob no probability 1
        if type(text) is not str or not all(type(token) is str for token in tokens):
            raise TransportError("completion response breaks the result contract: text and "
                                 f"tokens must be strings: {str(body)[:200]}")
        if request.want_logprobs and not all(type(x) in _NUMBERS for x in logprobs):
            raise TransportError("completion response breaks the result contract: "
                                 f"token_logprobs must be numbers: {str(logprobs)[:200]}")
        try:
            return CompletionResult(
                tokens=tuple(tokens),
                token_logprobs=tuple(float(x) for x in logprobs) if request.want_logprobs else (),
                text=text,
                stop_reason=stop_reason,
                latency_ms=latency_ms,
            )
        except (TypeError, ValueError, OverflowError) as exc:  # a logprob too big for a float
            raise TransportError(f"completion response breaks the result contract: {exc}") from None
