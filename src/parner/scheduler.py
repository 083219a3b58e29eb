"""Decoding pipeline: plan, issue, parse and attribute, for every mode.

Every mode decodes a document the same way.  It plans a step of requests
(one count per label, one JSON list per label, or one autoreg sequence),
issues it, then traces and parses each result in request order.  The pair
modes add a second step: one request per (label, mention index) counted in
step one, every prompt rebuilt from scratch so backends stay stateless.
Every request is its own call.  "pair-batch" sends the same requests as
"pair-multi" and differs only in data: each request carries its step's
size as ``batch_size``, which a simulated backend prices (the oracle
charges the batch-size penalty), and each mention waits for every count,
so the steps run in lockstep.  A mention's latency includes its upstream:
its label's count in "pair-multi", the whole first step's wall in
"pair-batch".  A document's latency is therefore the max over its traces
in every mode.  Only mention and onestep requests ask for token logprobs:
theirs score mentions for de-duplication, while counts and autoreg
answers (aug and struct mentions score 1.0) never read them.

A backend's ``max_in_flight`` is how many calls it serves at once
(``HttpBackend(max_in_flight=...)``; in-process backends count 1).
``run_corpus`` runs at most ``parallelism`` documents at once on one
thread pool per run, sized from both; its docstring states how.

Parsing or backend failures for one sequence degrade to defect records; a
document never hard-fails.  A failed backend call is one defect, for the
one sequence it lost, in every mode.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from fractions import Fraction
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union,
)

from parner.backends.base import (
    BackendError,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
)
from parner.corpus import Document, LabelSet
from parner.templates import (
    CountParseError,
    PromptTemplate,
    build_autoreg_prompt,
    build_count_prompt,
    build_mention_prompt,
    build_onestep_prompt,
    count_answer,
    parse_augmented,
    parse_count,
    parse_mention,
    parse_onestep,
    parse_structured,
    visible_text,
)

__all__ = [
    "MODES",
    "SequenceTrace",
    "ScoredMention",
    "DecodeOutcome",
    "span_probability",
    "decode_document",
    "run_corpus",
]

MODES = ("pair-multi", "pair-batch", "onestep", "autoreg-aug", "autoreg-struct")


class SequenceTrace(NamedTuple):
    """One decoded sequence with its result and attributed latency.

    For step-two sequences ``latency_ms`` includes the label's step-one
    latency (the mention could not start before its count arrived), so the
    per-document latency is simply the max over traces.
    """

    seq_id: str
    label: Optional[str]
    kind: str  # count | mention | onestep | autoreg
    mention_index: Optional[int]
    result: CompletionResult
    latency_ms: float


class ScoredMention(NamedTuple):
    """A raw predicted mention scored by its decoding probability.

    The probability is exp of the summed token logprobs over the mention's
    span.  Formats that do not expose per-mention spans score 1.0.
    """

    label: str
    text: str
    probability: float
    seq_id: str


class DecodeOutcome(NamedTuple):
    """Everything one decode of one document produced, before de-duplication.

    ``example_latency_ms`` is the max over ``traces``' latencies, 0.0 when
    no sequence came back.
    """

    doc_id: str
    raw_mentions: List[ScoredMention]
    traces: List[SequenceTrace]
    example_latency_ms: float
    step1_batch_size: int
    step2_batch_size: int
    defects: List[str]


def span_probability(
    token_logprobs: Sequence[float], span: Optional[Tuple[int, int]]
) -> float:
    """Probability of a token span: exp of its summed natural-log probs.

    Returns 1.0 when no logprobs or no span are available.  Every list the
    ``CompletionResult`` contract accepts gives a number in [0, 1]: a sum
    at or above 0 gives 1.0 and a -inf gives 0.0, also where the sum
    leaves the float range.
    """
    if span is None or not token_logprobs:
        return 1.0
    start, end = span
    logprobs = token_logprobs[start : end + 1]
    try:
        total = math.fsum(logprobs)
    except OverflowError:  # a partial sum left the float range, so sum exactly
        # exp is already 0.0 at -1000, and the exact sum may lie below every float
        total = -math.inf if -math.inf in logprobs else max(sum(map(Fraction, logprobs)), -1000)
    return 1.0 if total >= 0 else math.exp(total)


_T = TypeVar("_T")
_R = TypeVar("_R")
_CallOutcome = Union[CompletionResult, BackendError]
# (label, mention index, prompt, positions in the document's traces of the
# sequences it waits for) of one planned sequence
_Planned = Tuple[Optional[str], Optional[int], str, Tuple[int, ...]]
# the only kinds whose token logprobs are read: they score mentions for dedup
_SCORED_KINDS = ("mention", "onestep")


def _run_all(pool: Optional[Executor], fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
    """``fn`` over ``items`` in order, shared with ``pool``'s workers if given.

    The calling thread counts as one of the workers: it runs the first item
    itself, then takes back every item no worker has started yet (a
    successful ``cancel()``) and runs it here, so it only ever waits for
    items already running on another thread.  No thread is started beyond
    the pool's own (a pool of ``n - 1`` threads gives ``n`` workers with the
    caller), and a single item never leaves the calling thread.
    """
    if pool is None or len(items) <= 1:
        return [fn(item) for item in items]
    futures = [pool.submit(fn, item) for item in items[1:]]
    try:
        first = fn(items[0])
        done = {f: fn(item) for f, item in zip(futures, items[1:]) if f.cancel()}
        return [first] + [done[f] if f in done else f.result() for f in futures]
    except BaseException:
        for f in futures:  # as ``Executor.map`` does: queued items never start
            f.cancel()
        raise


def _subject(label: Optional[str], index: Optional[int]) -> str:
    """What a defect appends to name its sequence: `` for label L``, plus
    `` index i`` for a mention."""
    return ("" if label is None else f" for label {label}" if index is None
            else f" for label {label} index {index}")


def _call(backend: CompletionBackend, request: CompletionRequest) -> _CallOutcome:
    """One backend call; an error is kept as this item's result, so one failed
    sequence cannot take down its siblings."""
    try:
        return backend.generate(request)
    except BackendError as exc:
        return exc


def decode_document(
    doc: Document,
    labels: LabelSet,
    backend: CompletionBackend,
    t: PromptTemplate,
    mode: str,
    max_new_tokens: int = 512,
    *,
    pool: Optional[Executor] = None,
) -> DecodeOutcome:
    """Decode one document in any mode of ``MODES``.

    Step one asks every label for its mention count ("pair-*") or its JSON
    mention list ("onestep"), or asks once for the whole annotated output
    ("autoreg-*").  In the pair modes an empty completion counts as zero
    and the label gets no step two.  A count request may generate no more
    tokens than the count answer of ``t.max_count``; every other request
    gets ``max_new_tokens``.  An answer the budget cut short is parsed as
    far as it goes and also recorded as a defect, ahead of its parse
    defects; a count is cut short only before its terminator.  A step's
    requests run on ``pool`` when one is given, and one at a time without
    it.  The aug and struct formats expose no per-mention token spans, so
    their mentions score probability 1.0 and de-duplication falls back to
    the label-order tie-break.
    """
    if mode not in MODES:
        raise ValueError(f"unknown decode mode: {mode!r} (expected one of {MODES})")
    traces: List[SequenceTrace] = []
    defects: List[str] = []
    mentions: List[ScoredMention] = []

    def issue(
        kind: str, planned: Sequence[_Planned]
    ) -> Iterator[Tuple[Optional[str], Optional[int], CompletionResult, str]]:
        """Issue one step and yield each traced result in request order.

        Failures become defects here, one per failed request; the caller
        parses each result before the next is traced, so defects keep
        request order across kinds.  A trace's latency is its own plus the
        longest of those it waits for.
        """
        # no count that parses needs more tokens than the largest one
        budget = (min(max_new_tokens, len(count_answer(t.max_count, t))) if kind == "count"
                  else max_new_tokens)
        # records are built positionally: binding keywords costs about as much
        # again as the tuple (prompt, max_new_tokens, want_logprobs, batch_size)
        want_logprobs = kind in _SCORED_KINDS
        batch_size = len(planned) if mode == "pair-batch" else 1
        requests = [CompletionRequest(prompt, budget, want_logprobs, batch_size)
                    for _, _, prompt, _ in planned]
        results = _run_all(pool, functools.partial(_call, backend), requests)
        for (label, index, _, waits), result in zip(planned, results):
            if isinstance(result, BackendError):
                defects.append(f"{kind} request failed{_subject(label, index)}: {result}")
                continue
            seq_id = (f"{doc.id}/{label}/{kind}{index or ''}" if label is not None
                      else f"{doc.id}/{kind}")
            upstream = max((traces[position].latency_ms for position in waits), default=0.0)
            traces.append(SequenceTrace(seq_id, label, kind, index, result,
                                        upstream + result.latency_ms))
            # a count whose terminator arrived is exempt: a model trained on
            # pair examples writes on past its count, and parse_count reads
            # only up to the terminator
            if result.stop_reason == "length" and (
                    kind != "count" or t.count_terminator not in visible_text(result, t)):
                defects.append(f"{kind} cut by the token budget{_subject(label, index)}")
            yield label, index, result, seq_id

    # the list, struct and aug parsers drop an empty surface and record
    # their own defect, so only the mention step can meet one
    step2: List[_Planned] = []
    if mode == "onestep":
        step1 = [(label, None, build_onestep_prompt(doc, labels.surface(label), t), ())
                 for label in labels]
        for label, _, result, seq_id in issue("onestep", step1):
            parsed, parse_defects = parse_onestep(result, t)
            defects.extend(f"label {label}: {d}" for d in parse_defects)
            mentions.extend(
                ScoredMention(label, item.text,
                              span_probability(result.token_logprobs, item.token_span), seq_id)
                for item in parsed)
    elif mode.startswith("autoreg-"):
        fmt = mode[len("autoreg-"):]
        step1 = [(None, None, build_autoreg_prompt(doc, fmt, labels, t), ())]
        for _, _, result, seq_id in issue("autoreg", step1):
            text = visible_text(result, t)
            parser = parse_structured if fmt == "struct" else parse_augmented
            parsed, parse_defects = parser(text, labels)
            defects.extend(parse_defects)
            mentions.extend(ScoredMention(m.label, m.text, 1.0, seq_id) for m in parsed)
    else:
        count_prompts = {label: build_count_prompt(doc, labels.surface(label), t)
                         for label in labels}
        step1 = [(label, None, count_prompts[label], ()) for label in labels]
        counts: Dict[str, int] = {}
        count_traces: Dict[str, Tuple[int]] = {}
        for label, _, result, _ in issue("count", step1):
            count_traces[label] = (len(traces) - 1,)
            try:
                counts[label] = parse_count(result, t)
            except CountParseError as exc:
                defects.append(f"count unparseable for label {label}: {exc}")
        # A mention waits for its label's count; in pair-batch, for every
        # count, so the max over traces is exactly step-one wall plus
        # step-two wall, because rounding ``a + x`` is monotone in ``x``.
        every_count = tuple(range(len(traces)))
        step2 = [
            (label, index, build_mention_prompt(count_prompts[label], count, index, t),
             every_count if mode == "pair-batch" else count_traces[label])
            for label, count in counts.items()
            for index in range(1, count + 1)
        ]
        for label, index, result, seq_id in issue("mention", step2):
            parsed = parse_mention(result, t)
            if parsed.text:
                mentions.append(ScoredMention(
                    label, parsed.text,
                    span_probability(result.token_logprobs, parsed.token_span), seq_id))
            else:
                defects.append(f"empty mention for label {label} index {index}")

    return DecodeOutcome(doc.id, mentions, traces,
                         max((tr.latency_ms for tr in traces), default=0.0),
                         len(step1), len(step2), defects)


def run_corpus(
    docs: Sequence[Document],
    labels: LabelSet,
    backend: CompletionBackend,
    t: PromptTemplate,
    mode: str,
    parallelism: int = 4,
    max_new_tokens: int = 512,
) -> List[DecodeOutcome]:
    """Decode a corpus with at most ``parallelism`` documents in flight.

    Documents run on ``min(parallelism, len(docs))`` strands, each decoding
    one document after another, and the calling thread is always one of
    them.  A run makes at most one pool, of ``W - 1`` threads: ``W`` is
    ``max(parallelism, backend.max_in_flight)``, or the strand count in
    autoreg, which issues one call per step, and on a backend that serves
    one call at a time (``max_in_flight`` 1, as every in-process backend
    does).  The other strands run on that pool, and when ``W`` exceeds the
    strands their documents' requests go to it too, to the threads no
    strand holds.  So a run uses at most ``W`` threads, the caller
    included: with ``HttpBackend`` one document's requests fan out even at
    parallelism 1, and with an in-process backend never.  A pool of no
    threads is not made: a run starts no thread at parallelism 1 with an
    in-process backend, nor for one document in autoreg or with an
    in-process backend.  A strand waiting for its requests runs every one
    no other thread has started yet, so it never waits on a queued one.  A
    document that raises stops the run, and no strand starts another
    document.  Output order always equals input order regardless of
    completion order.  Each document is decoded once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown decode mode: {mode!r} (expected one of {MODES})")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if not docs:
        return []

    strands = min(parallelism, len(docs))
    # autoreg issues one call per step, and a backend that serves one call
    # at a time gains nothing from handing a document's requests off
    threads = (strands if mode.startswith("autoreg-") or backend.max_in_flight == 1
               else max(parallelism, backend.max_in_flight))
    todo = collections.deque(enumerate(docs))
    outcomes: Dict[int, DecodeOutcome] = {}

    def strand(request_pool: Optional[Executor]) -> None:
        while True:
            try:
                i, doc = todo.popleft()
            except IndexError:
                return
            try:
                outcomes[i] = decode_document(doc, labels, backend, t, mode,
                                              max_new_tokens=max_new_tokens, pool=request_pool)
            except BaseException:
                todo.clear()  # the other strands start no new document
                raise

    # ThreadPoolExecutor rejects a pool of no threads
    with (ThreadPoolExecutor(threads - 1) if threads > 1 else contextlib.nullcontext()) as pool:
        # each strand sends its requests to the pool only if the pool has
        # threads no strand holds
        _run_all(pool, strand, [pool if threads > strands else None] * strands)
    return [outcomes[i] for i in range(len(docs))]
