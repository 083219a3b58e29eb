"""Stub completion server for the ``served-multi`` workload.

It replays a noiseless :class:`OracleBackend` over the corpus it reads on
stdin and sleeps a fixed fraction of each answer's attributed latency, so
that waiting on the backend dominates a decode.  It speaks HTTP/1.1 with
keep-alive and reports its own timings in response headers:

- ``X-Service-Ms``: handler time from request headers parsed to response ready;
- ``X-Oracle-Ms``: the part of that spent computing the oracle's answer.

Nagle's algorithm is off on every connection: with it on, each small
response waits for the client's delayed ACK (about 40 ms per request).

Protocol: the corpus arrives on stdin as span-format JSON lines followed by
a line ``END``.  Once listening, the server prints ``PORT <n>``; ``GET
/health`` then answers with the oracle's index build time and the
processor time this process has used so far.  The server exits when stdin
reaches end of file, so it never outlives its parent.

    python3 perfbench/stub_server.py < corpus
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parner.backends import BackendError, CompletionRequest, OracleBackend  # noqa: E402
from parner.corpus import parse_spans_json  # noqa: E402
from workloads import LABELS, SLEEP_FRAC  # noqa: E402

_FINISH_REASON = {"eos": "eos", "stop_string": "stop", "length": "length"}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        if self.path != "/health":
            self._send(404, {"error": "not found"})
            return
        self._send(200, {"index_build_ms": self.server.index_build_ms,
                         "cpu_s": time.process_time()})

    def do_POST(self) -> None:
        start = time.perf_counter()
        try:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            request = CompletionRequest(
                prompt=body["prompt"],
                max_new_tokens=int(body["max_tokens"]),
                stop=tuple(body.get("stop", ())),
                want_logprobs=bool(body.get("logprobs", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            self._send(400, {"error": f"bad request: {exc}"})
            return
        try:
            result = self.server.oracle.generate(request)
        except BackendError as exc:
            self._send(422, {"error": str(exc)})
            return
        oracle_ms = (time.perf_counter() - start) * 1000.0
        time.sleep(SLEEP_FRAC * result.latency_ms / 1000.0)
        payload = {
            "text": result.text,
            "tokens": list(result.tokens),
            "token_logprobs": list(result.token_logprobs),
            "finish_reason": _FINISH_REASON[result.stop_reason],
        }
        service_ms = (time.perf_counter() - start) * 1000.0
        self._send(200, payload, {"X-Service-Ms": f"{service_ms:.6f}",
                                  "X-Oracle-Ms": f"{oracle_ms:.6f}"})

    def _send(self, status: int, payload: dict, headers: dict = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    lines = []
    for line in sys.stdin:
        if line.strip() == "END":
            break
        lines.append(line)
    pairs = parse_spans_json("".join(lines), LABELS)

    start = time.perf_counter()
    oracle = OracleBackend(pairs, LABELS)
    index_build_ms = (time.perf_counter() - start) * 1000.0

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.oracle = oracle
    server.index_build_ms = index_build_ms
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # parent closed the pipe or exited
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
