"""Workload inputs and backends for the parner benchmark.

Each workload is a corpus made from the seed plus a mix of decode modes;
a decode is one document in one mode.  The first mode of a mix is the
paper's pair mode under test, and every mix holds ``autoreg-struct`` as
the single-sequence reference the speedups divide by.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import requests

from parner.backends import ErrorInjection, HttpBackend, OracleBackend
from parner.corpus import Document, GoldAnnotation, LabelSet, Mention, parse_spans_json
from parner.synthetic import make_corpus

LABELS = LabelSet(["PER", "MISC", "LOC", "ORG"])
STUB_SERVER = Path(__file__).resolve().parent / "stub_server.py"

Pairs = List[Tuple[Document, GoldAnnotation]]


@dataclass(frozen=True)
class Workload:
    """A corpus recipe and a mix of modes; why each exists is in BENCHMARK.json."""

    name: str
    modes: Tuple[str, ...]
    n_docs: int
    served: bool = False
    p_count: float = 0.0
    p_index: float = 0.0

    @property
    def pair_mode(self) -> str:
        return self.modes[0]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mixed-long-noisy",
        modes=("pair-batch", "onestep", "autoreg-struct", "autoreg-aug"),
        n_docs=300,
        p_count=0.05,
        p_index=0.05,
    ),
    Workload(
        name="served-multi",
        modes=("pair-multi", "autoreg-struct"),
        n_docs=200,
        served=True,
    ),
)}

# Share of mixed-long-noisy documents that repeat one surface under its
# own label.  make_corpus keeps every surface unique, which hides the
# keep-max dedup collapsing such repeats; these documents expose it.
REPEAT_SHARE = 0.25
# The stub sleeps this fraction of the oracle's attributed latency
# (10 ms per generated token), i.e. 2 ms per token: enough for waiting to
# dominate a call, little enough for one pass over 200 documents to take
# about 35 s on a 2-vCPU machine.  stub_server.py reads it from here.
SLEEP_FRAC = 0.2


def make_inputs(workload: Workload, seed: int) -> Pairs:
    """The workload's corpus; the same seed gives the same documents."""
    if workload.name != "mixed-long-noisy":
        return make_corpus(workload.n_docs, LABELS, seed=seed)
    base = make_corpus(workload.n_docs, LABELS, seed=seed, fillers_between=(40, 80))
    rng = random.Random(f"{seed}/repeats")
    pairs: Pairs = []
    for doc, gold in base:
        if gold.mentions and rng.random() < REPEAT_SHARE:
            again = rng.choice(gold.mentions)
            # gold order follows text order, so the repeat goes last in both
            text = doc.text[: -len(" .")] + " and again " + again.text + " ."
            doc = Document(id=doc.id, text=text)
            gold = GoldAnnotation(doc_id=doc.id,
                                  mentions=gold.mentions + [Mention(again.label, again.text)])
        pairs.append((doc, gold))
    return pairs


def same_label_repeat_share(pairs: Pairs) -> float:
    """Share of documents in which some (label, surface) occurs twice."""
    repeated = sum(
        1 for _, gold in pairs
        if len({(m.label, m.text) for m in gold.mentions}) < len(gold.mentions)
    )
    return repeated / len(pairs)


class ServiceTimeSession(requests.Session):
    """Keeps the stub's timing headers of the last response, per thread."""

    def __init__(self) -> None:
        super().__init__()
        self.last = threading.local()

    def post(self, url, **kwargs):
        response = super().post(url, **kwargs)
        self.last.headers = response.headers
        return response


class StubServer:
    """The stub completion server in a child process, ready once built.

    ``cpu_s`` is the processor time the child had used when it first
    answered its readiness probe: interpreter start, corpus load and
    oracle index build.

    Closing the child's stdin makes it exit, and so does this process's
    death, so the child never outlives the benchmark.
    """

    def __init__(self, corpus_jsonl: str):
        self._proc = subprocess.Popen(
            [sys.executable, str(STUB_SERVER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self._proc.stdin.write(corpus_jsonl + "END\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"stub server did not start: {line!r}")
            self.port = int(line.split()[1])
            health = self._probe()
            self.index_build_ms = float(health["index_build_ms"])
            self.cpu_s = float(health["cpu_s"])
        except BaseException:
            self.close()
            raise

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/completions"

    def _probe(self) -> dict:
        """Readiness probe: GET /health until it answers, within 30 s."""
        deadline = time.monotonic() + 30.0
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                if response.status == 200:
                    return json.loads(response.read())
            except OSError:
                if time.monotonic() > deadline:
                    raise
            finally:
                connection.close()
            if time.monotonic() > deadline:
                raise RuntimeError("stub server never became ready")
            time.sleep(0.01)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass  # the child is gone already
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


@dataclass(frozen=True)
class SetupTimes:
    """What one set-up took.

    ``cpu_s`` is processor time, in this process and, for the served
    workload, in the stub server up to readiness.  Time the machine's
    other tenants take from its processors is left out.
    """

    cpu_s: float
    load_ms: float
    index_build_ms: float


@dataclass
class Setup:
    """One set-up: the loaded corpus and a ready backend."""

    pairs: Pairs
    backend: object
    times: SetupTimes
    server: Optional[StubServer] = None
    session: Optional[ServiceTimeSession] = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def set_up(workload: Workload, corpus_jsonl: str, seed: int, tracer) -> Setup:
    """Load the corpus with parse_spans_json and make the backend ready."""
    cpu_start = time.process_time()
    start = time.perf_counter()
    with tracer.span("corpus.load"):
        pairs = parse_spans_json(corpus_jsonl, LABELS)
    loaded = time.perf_counter()
    if workload.served:
        server = StubServer(corpus_jsonl)
        session = ServiceTimeSession()
        backend = HttpBackend(server.url, max_in_flight=nproc(), session=session)
        times = SetupTimes(time.process_time() - cpu_start + server.cpu_s,
                           (loaded - start) * 1e3, server.index_build_ms)
        return Setup(pairs, backend, times, server=server, session=session)
    errors = ErrorInjection(p_count=workload.p_count, p_index=workload.p_index)
    with tracer.span("oracle.index_build"):
        backend = OracleBackend(pairs, LABELS, errors=errors, seed=seed)
    times = SetupTimes(time.process_time() - cpu_start,
                       (loaded - start) * 1e3, (time.perf_counter() - loaded) * 1e3)
    return Setup(pairs, backend, times)


# Median processor ms of reference_work() on a shared 2-vCPU virtual
# machine under Python 3.11, without and with the stub server.  They only
# set the scale of the scaled metrics, so that these read close to plain
# processor ms on such a machine.
REFERENCE_MS = {False: 20.0, True: 70.0}


def reference_work(setup: "Setup") -> float:
    """Processor ms this process spends on a fixed piece of work of the
    kind parner does on the workload, using no parner code.

    In-process workloads: building, sorting and scanning small dicts of
    strings.  The served workload: small HTTP requests over keep-alive
    from short-lived pools of nproc threads, as fan-out makes them.  The
    machine's speed at each kind of work drifts by a third over minutes,
    and a reference of another kind does not follow it.
    """
    start = time.process_time()
    if setup.server is None:
        data = [{"id": i, "text": f"doc {i} " * 8} for i in range(10000)]
        data.sort(key=lambda d: d["text"][::-1])
        sum(len(d["text"]) for d in data)
    else:
        url = f"http://127.0.0.1:{setup.server.port}/health"
        with requests.Session() as session:
            for _ in range(5):
                with ThreadPoolExecutor(nproc()) as pool:
                    list(pool.map(lambda _: session.get(url).json(), range(6)))
    return (time.process_time() - start) * 1e3


def nproc() -> int:
    """Processors this process may run on."""
    return len(os.sched_getaffinity(0))
