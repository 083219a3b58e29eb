"""Spans recorded from the benchmark's own files, and the per-layer split.

A span is ``(name, start_ns, end_ns, span_id, parent_id, decode_id,
info)``.  Each thread keeps its own stack of open spans; the pools that
``parner.scheduler`` starts are swapped, in the traced run only, for one
that hands the submitting thread's open span to its workers, so backend
calls made from fan-out threads still name their decode.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

from parner import scheduler
from parner.backends import BackendError, CompletionBackend

_BUILDERS = ("build_count_prompt", "build_mention_prompt",
             "build_autoreg_prompt", "build_onestep_prompt")
_PARSERS = ("parse_count", "parse_mention", "parse_onestep",
            "parse_structured", "parse_augmented", "visible_text")

# Fields of a backend span's info tuple; the last three only for HTTP.
# Plain tuples of numbers, unlike dicts, drop out of the cyclic garbage
# collector's scans, which keeps a long traced run from slowing itself.
REQUESTS, PROMPT_CHARS, THREADS, FAILED, CLIENT_MS, SERVICE_MS, ORACLE_MS = range(7)


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """Stands in for a tracer in untraced runs; records nothing."""

    enabled = False
    _none = _NoSpan()

    def span(self, name: str, info=None, new_decode: bool = False) -> _NoSpan:
        return self._none


class _Span:
    __slots__ = ("tracer", "name", "info", "new_decode", "stack", "start")

    def __init__(self, tracer: "Tracer", name: str, info, new_decode: bool):
        self.tracer, self.name, self.info, self.new_decode = tracer, name, info, new_decode

    def __enter__(self) -> "_Span":
        self.stack = self.tracer.stack()
        parent, decode, _ = self.stack[-1]
        span_id = next(self.tracer.ids)
        self.stack.append((span_id, span_id if self.new_decode else decode, parent))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        span_id, decode, parent = self.stack.pop()
        self.tracer.spans.append((self.name, self.start, end, span_id, parent, decode, self.info))
        return False


class Tracer:
    """In-memory span recorder with a parent stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [(0, 0, 0)]
            return self._local.stack

    def span(self, name: str, info=None, new_decode: bool = False) -> _Span:
        return _Span(self, name, info, new_decode)

    def record(self, name: str, start: int, end: int, info=None) -> None:
        """A span without children, timed by the caller."""
        parent, decode, _ = self.stack()[-1]
        self.spans.append((name, start, end, next(self.ids), parent, decode, info))

    def write(self, path) -> None:
        """One JSON array per span, times in microseconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent, decode, info in self.spans:
                handle.write(json.dumps([name, (start - origin) / 1e3, (end - origin) / 1e3,
                                         span_id, parent, decode, info]) + "\n")


class ProbeBackend(CompletionBackend):
    """Counts calls into a backend and, when traced, records a span for each.

    ``layer`` names the spans (``oracle`` or ``http``).  For HTTP, the
    stub's timing headers are read from the session's last response on
    the calling thread.
    """

    def __init__(self, inner: CompletionBackend, tracer, layer: str, session=None):
        self.inner, self.tracer, self.layer, self.session = inner, tracer, layer, session
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def generate(self, request):
        return self._call("generate", self.inner.generate, request, [request])

    def generate_batch(self, requests):
        return self._call("generate_batch", self.inner.generate_batch, requests, requests)

    def _call(self, kind, fn, arg, requests: Sequence):
        with self._lock:
            self.attempted += 1
        if not self.tracer.enabled:
            try:
                return fn(arg)
            except BackendError:
                with self._lock:
                    self.failed += 1
                raise
        name = f"{self.layer}.{kind}"
        threads = threading.active_count()
        prompt_chars = sum(len(r.prompt) for r in requests)
        start = time.perf_counter_ns()
        try:
            result = fn(arg)
        except BackendError:
            self.tracer.record(name, start, time.perf_counter_ns(),
                               (len(requests), prompt_chars, threads, True))
            with self._lock:
                self.failed += 1
            raise
        end = time.perf_counter_ns()
        info = (len(requests), prompt_chars, threads, False)
        if self.session is not None:
            headers = self.session.last.headers
            info += (result.latency_ms, float(headers["X-Service-Ms"]),
                     float(headers["X-Oracle-Ms"]))
        self.tracer.record(name, start, end, info)
        return result


def _context_pool(tracer: Tracer):
    class ContextPool(ThreadPoolExecutor):
        """Runs each task under the span that was open where it was submitted."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.stack()[-1]

            def run():
                stack = tracer.stack()
                stack.append(parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()

            return super().submit(run)

    return ContextPool


def _traced(tracer: Tracer, name: str, fn, info_of=None):
    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.record(name, start, time.perf_counter_ns(),
                          info_of(*args, **kwargs) if info_of else None)
    return wrapper


def _traced_decode(tracer: Tracer, fn):
    def decode_document(doc, labels, backend, t, mode, **kwargs):
        with tracer.span("scheduler.decode", mode, new_decode=True):
            return fn(doc, labels, backend, t, mode, **kwargs)
    return decode_document


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Rebind, inside ``parner.scheduler`` only, its pools, per-document
    decode, and the template builders and parsers it imported."""
    saved = {name: getattr(scheduler, name)
             for name in ("ThreadPoolExecutor", "decode_document", *_BUILDERS, *_PARSERS)}
    patch = {
        "ThreadPoolExecutor": _context_pool(tracer),
        "decode_document": _traced_decode(tracer, saved["decode_document"]),
        "build_mention_prompt": _traced(
            tracer, "templates.build", saved["build_mention_prompt"],
            info_of=lambda count_prompt, *a, **kw: len(count_prompt)),
    }
    for name in _BUILDERS:
        patch.setdefault(name, _traced(tracer, "templates.build", saved[name]))
    for name in _PARSERS:
        patch[name] = _traced(tracer, "templates.parse", saved[name])
    for name, value in patch.items():
        setattr(scheduler, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(scheduler, name, value)


def _union_ns(intervals: List[tuple]) -> int:
    covered, end_so_far = 0, None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            covered += end - start
            end_so_far = end
        elif end > end_so_far:
            covered += end - end_so_far
            end_so_far = end
    return covered


def layer_metrics(spans: Sequence[tuple], pair_mode: str) -> Dict[str, float]:
    """Per-decode layer costs from the spans of the traced phases.

    ``scheduler.self_ms_per_doc`` is the run_corpus wall minus the part of
    it covered by backend and template spans, whichever thread ran them.
    """
    by_name: Dict[str, List[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def total_ms(names) -> float:
        return sum(s[2] - s[1] for n in names for s in by_name.get(n, ())) / 1e6

    decodes = by_name.get("scheduler.decode", [])
    n = len(decodes)
    pair_decodes = sum(1 for s in decodes if s[6] == pair_mode)
    backend = [s for n_ in ("oracle.generate", "oracle.generate_batch",
                            "http.generate", "http.generate_batch")
               for s in by_name.get(n_, ())]
    http = [s for s in backend if s[0].startswith("http.")]
    builds = by_name.get("templates.build", [])
    parses = by_name.get("templates.parse", [])
    runs = by_name.get("scheduler.run_corpus", [])
    dedups = by_name.get("dedup.deduplicate", [])
    requests = sum(s[6][REQUESTS] for s in backend)
    leaves = [(s[1], s[2]) for s in backend + builds + parses]
    scheduler_self_ns = sum(s[2] - s[1] for s in runs) - _union_ns(leaves)
    raw = sum(s[6][0] for s in dedups)

    if http:
        oracle_busy_ms = sum(s[6][ORACLE_MS] for s in http)
    else:
        oracle_busy_ms = total_ms(("oracle.generate", "oracle.generate_batch"))
    ok_http = [s for s in http if not s[6][FAILED]]
    client = sum(s[6][CLIENT_MS] for s in ok_http)
    service = sum(s[6][SERVICE_MS] for s in ok_http)
    outer = sum(s[2] - s[1] for s in ok_http) / 1e6
    per_call = max(len(ok_http), 1)
    return {
        "oracle.calls_per_doc": len(backend) / n,
        "oracle.busy_ms_per_doc": oracle_busy_ms / n,
        "scheduler.self_ms_per_doc": scheduler_self_ns / 1e6 / n,
        "scheduler.requests_per_doc": requests / n,
        "scheduler.peak_threads": max((s[6][THREADS] for s in backend), default=0),
        "templates.build_ms_per_doc": total_ms(("templates.build",)) / n,
        "templates.parse_ms_per_doc": total_ms(("templates.parse",)) / n,
        "templates.prompt_chars_per_request":
            sum(s[6][PROMPT_CHARS] for s in backend) / max(requests, 1),
        "templates.prefix_shared_chars_per_doc":
            sum(s[6] for s in builds if s[6] is not None) / max(pair_decodes, 1),
        "dedup.ms_per_doc": total_ms(("dedup.deduplicate",)) / len(dedups),
        "dedup.conflict_groups_per_doc": sum(s[6][2] for s in dedups) / len(dedups),
        "dedup.kept_frac": sum(s[6][1] for s in dedups) / raw if raw else 1.0,
        "http.calls_per_doc": len(http) / n,
        "http.client_ms_per_call": client / per_call,
        "http.service_ms_per_call": service / per_call,
        "http.overhead_ms_per_call": (client - service) / per_call,
        "http.queue_wait_ms_per_call": (outer - client) / per_call,
        "http.failed": sum(1 for s in http if s[6][FAILED]),
    }
