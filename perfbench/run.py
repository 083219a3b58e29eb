"""The parner benchmark: one workload, end-to-end metrics, output checks.

    python3 perfbench/run.py --workload mixed-long-noisy --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``parner`` from ``src/`` and
takes the metric names and units from ``BENCHMARK.json``.  The benchmark
treats parner as an offline batch job: a corpus goes in, deduplicated
predictions and scores come out.  A run has two closed-loop phases, both
driven from this one process.  They take turns chunk by chunk, cycling
over the corpus until ``--seconds`` have passed and every document has
been through both at least once.  Each chunk's turn starts with one more
set-up, timed and closed at once, so that ``setup_s`` samples the whole
run as the phases do:

- throughput: the corpus in chunks of CHUNK_DOCS documents; per chunk,
  ``run_corpus`` in every mode of the workload's mix at parallelism =
  nproc, then dedup and scoring;
- latency: one document at a time, ``run_corpus([doc], ...)`` then dedup,
  in every mode, the paper's per-example setting.

The gated end-to-end times are processor time of this process, all its
threads (``time.process_time``), scaled by a reference; they are not wall
time.  On a shared virtual machine the hypervisor takes the processors
away for long stretches: in one 32 s run, 24 of the 64 processor-seconds
went to other tenants as steal time, and wall-clock throughput moved by a
third from one set of runs to the next.  Processor time leaves steal time
out.  The stub server's sleeps stand for the model's compute and are not
parner's work, so they are not counted either.  Processor time still
drifts with the machine's speed, by a third over tens of minutes, so
``workloads.reference_work()`` is timed before both phases of every
chunk's turn, and the processor times are scaled by
``workloads.REFERENCE_MS`` over the run's median reference time.  Every
run prints them before scaling too.  The wall-clock figures
(``docs_per_s``, the ``doc_wall`` percentiles, the attributed latencies,
which ``HttpBackend`` measures on the wall clock, and the speedups) are
printed on ``#`` lines and not gated.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes every
throughput chunk untraced and then traced and the latency phase traced,
prints the per-layer metrics and writes the spans to ``perfbench/out/``.
Either way the outputs are checked, and the last line of stdout is one
JSON object; a failed check exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "parner").is_dir():
    sys.exit(f"no parner sources under {SRC}: run from the root of a repository checkout")
sys.path.insert(0, str(SRC))

from parner import scheduler  # noqa: E402
from parner.backends import OracleBackend  # noqa: E402
from parner.corpus import emit_spans_json  # noqa: E402
from parner.dedup import deduplicate  # noqa: E402
from parner.evaluation import LatencyStats, latency_stats, micro_f1  # noqa: E402
from parner.templates import PromptTemplate  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import LABELS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]

OUT_DIR = HERE / "out"
REFERENCE_MODE = "autoreg-struct"
CHUNK_DOCS = 25
# doc_cpu_ms_p95 needs ten latency-phase decodes beyond it.
MIN_LATENCY_DECODES = 200


def warm_up(seconds: float = 1.0) -> None:
    """Keep a processor busy before anything is timed.

    On a shared 2-vCPU virtual machine, a sha256 loop ran 1.8x slower for
    the first two seconds after idle than afterwards.
    """
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        hashlib.sha256(b"%d" % i).digest()
        i += 1


@dataclass
class Chunk:
    """One run of one throughput chunk: its times and what its decodes produced."""

    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    decodes: int
    tp: int
    fp: int
    fn: int
    stats: List[LatencyStats]
    defects: int
    aug_length_stops: int


class Bench:
    """Drives parner's public API over one workload and set-up.

    The first decode of each (mode, document) is the reference that every
    later decode of it must reproduce byte for byte, and, on the oracle
    workloads, with the same attributed latency.
    """

    def __init__(self, workload: workloads.Workload, setup: workloads.Setup):
        self.workload = workload
        self.setup = setup
        self.setup_times = [setup.times]
        # workloads.reference_work() before both phases of every chunk's turn
        self.reference_ms: List[float] = []
        self.docs = [doc for doc, _ in setup.pairs]
        self.template = PromptTemplate()
        self.parallelism = workloads.nproc()
        self.tracer = tracing.NullTracer()
        self.probe = tracing.ProbeBackend(setup.backend, self.tracer,
                                          "http" if workload.served else "oracle",
                                          session=setup.session)
        gold = {doc.id: g.mentions for doc, g in setup.pairs}
        self.chunks = []
        for i in range(0, len(self.docs), CHUNK_DOCS):
            docs = self.docs[i:i + CHUNK_DOCS]
            self.chunks.append((docs, {f"{mode}/{doc.id}": gold[doc.id]
                                       for mode in workload.modes for doc in docs}))
        self.reference: Dict[tuple, tuple] = {}
        self.mismatches: Counter = Counter()
        # (wall ms, processor ms) of every latency-phase decode, by mode
        self.latency: Dict[str, List[Tuple[float, float]]] = {m: [] for m in workload.modes}

    def set_tracer(self, tracer) -> None:
        self.tracer = self.probe.tracer = tracer

    def decode(self, docs, mode: str) -> list:
        with self.tracer.span("scheduler.run_corpus", len(docs)):
            return scheduler.run_corpus(docs, LABELS, self.probe, self.template, mode,
                                        parallelism=self.parallelism)

    def dedup(self, outcome) -> list:
        if not self.tracer.enabled:
            return deduplicate(outcome.raw_mentions, LABELS)
        start = time.perf_counter_ns()
        kept = deduplicate(outcome.raw_mentions, LABELS)
        end = time.perf_counter_ns()
        surfaces = Counter(m.text.strip() for m in outcome.raw_mentions)
        conflict_groups = sum(1 for n in surfaces.values() if n > 1)
        self.tracer.record("dedup.deduplicate", start, end,
                           (len(outcome.raw_mentions), len(kept), conflict_groups))
        return kept

    def compare(self, phase: str, mode: str, doc_id: str, kept: list, outcome) -> None:
        """Hold the decode against the first decode of the same document."""
        text = serialize(outcome, kept)
        ref_text, ref_ms = self.reference.setdefault(
            (mode, doc_id), (text, outcome.example_latency_ms))
        if text != ref_text:
            self.mismatches[f"{phase} decodes (scored mentions or predictions)"] += 1
        if not self.workload.served and outcome.example_latency_ms != ref_ms:
            self.mismatches[f"{phase} attributed latencies"] += 1

    def chunk(self, index: int) -> Chunk:
        docs, gold = self.chunks[index]
        start, cpu_start = time.perf_counter(), time.process_time()
        outcomes = {mode: self.decode(docs, mode) for mode in self.workload.modes}
        kept = {f"{mode}/{doc.id}": self.dedup(o)
                for mode, outs in outcomes.items() for doc, o in zip(docs, outs)}
        with self.tracer.span("evaluation"):
            report = micro_f1(kept, gold, LABELS)
            stats = [latency_stats(outs) for outs in outcomes.values()]
        cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
        for mode, outs in outcomes.items():
            for doc, o in zip(docs, outs):
                self.compare("throughput", mode, doc.id, kept[f"{mode}/{doc.id}"], o)
        return Chunk(
            index=index,
            traced=self.tracer.enabled,
            wall_s=wall,
            cpu_s=cpu,
            decodes=len(kept),
            tp=report.tp, fp=report.fp, fn=report.fn,
            stats=stats,
            defects=sum(len(o.defects) for outs in outcomes.values() for o in outs),
            aug_length_stops=sum(1 for o in outcomes.get("autoreg-aug", ())
                                 if o.traces and o.traces[0].result.stop_reason == "length"),
        )

    @contextmanager
    def using(self, tracer) -> Iterator[None]:
        """Run under ``tracer``; a real one also rebinds the scheduler's names."""
        self.set_tracer(tracer)
        with tracing.instrument(tracer) if tracer.enabled else nullcontext():
            yield

    def latency_chunk(self, index: int) -> None:
        """One document at a time, in every mode, over one chunk's documents."""
        for doc in self.chunks[index][0]:
            for mode in self.workload.modes:
                t0, c0 = time.perf_counter(), time.process_time()
                [outcome] = self.decode([doc], mode)
                kept = self.dedup(outcome)
                cpu, wall = time.process_time() - c0, time.perf_counter() - t0
                self.latency[mode].append((wall * 1e3, cpu * 1e3))
                self.compare("latency-phase", mode, doc.id, kept, outcome)

    def run_for(self, seconds: float, throughput_tracers, latency_tracer,
                set_up) -> List[Chunk]:
        """Cycle over the chunks, each after a spare ``set_up()`` and then
        through the throughput phase once per tracer and the latency
        phase, until ``seconds`` have passed and every chunk has been
        through both.  The machine's speed changes from second to second;
        interleaving spreads each kind of work over the whole run.

        Returns the throughput chunk runs.
        """
        chunks: List[Chunk] = []
        start = time.perf_counter()
        step = 0
        while step < len(self.chunks) or time.perf_counter() - start < seconds:
            index = step % len(self.chunks)
            spare = set_up()
            spare.close()
            self.setup_times.append(spare.times)
            self.reference_ms.append(workloads.reference_work(self.setup))
            for tracer in throughput_tracers:
                with self.using(tracer):
                    chunks.append(self.chunk(index))
            self.reference_ms.append(workloads.reference_work(self.setup))
            with self.using(latency_tracer):
                self.latency_chunk(index)
            step += 1
        return chunks

    def attributed(self, mode: str) -> List[float]:
        return [self.reference[(mode, doc.id)][1] for doc in self.docs]


def serialize(outcome, kept) -> str:
    """A decode's scored raw mentions and its deduplicated predictions."""
    return json.dumps({
        "scored": [[m.label, m.text, m.probability] for m in outcome.raw_mentions],
        "predicted": [[m.label, m.text] for m in kept],
    }, ensure_ascii=False)


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_ms_per_decode(chunks: List[Chunk]) -> float:
    return 1e3 * sum(c.cpu_s for c in chunks) / sum(c.decodes for c in chunks)


def pass_f1(bench: Bench, chunks: List[Chunk]) -> float:
    """Micro-F1 of the first pass over the corpus, pooled over the mix."""
    first = chunks[:len(bench.chunks)]
    tp, fp, fn = (sum(getattr(c, k) for c in first) for k in ("tp", "fp", "fn"))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def check_outputs(bench: Bench, f1: float, setup: workloads.Setup) -> List[str]:
    """Every failed output check, as a message; empty when all pass."""
    failures = [f"{n} {what} differ from the first decode of the same document"
                for what, n in sorted(bench.mismatches.items())]
    pair_decodes = len(bench.latency[bench.workload.pair_mode])
    if pair_decodes < MIN_LATENCY_DECODES:
        failures.append(f"only {pair_decodes} latency-phase decodes in the pair mode, "
                        f"fewer than the {MIN_LATENCY_DECODES} a p95 needs")
    if bench.workload.p_count == bench.workload.p_index == 0 and f1 != 1.0:
        failures.append(f"F1 of the noiseless oracle is {f1!r}, not exactly 1.0")
    if bench.workload.served:
        oracle = OracleBackend(setup.pairs, LABELS)
        for mode in bench.workload.modes:
            outcomes = scheduler.run_corpus(bench.docs, LABELS, oracle, bench.template, mode,
                                            parallelism=bench.parallelism)
            expected = [serialize(o, deduplicate(o.raw_mentions, LABELS)) for o in outcomes]
            differ = sum(1 for doc, text in zip(bench.docs, expected)
                         if bench.reference[(mode, doc.id)][0] != text)
            if differ:
                failures.append(f"{differ} served {mode} decodes differ from "
                                "the in-process oracle's")
    return failures


def processor_times(bench: Bench, chunks: List[Chunk]) -> Dict[str, float]:
    """The processor-time metrics as measured, before scaling."""
    pair_cpu = [cpu for _, cpu in bench.latency[bench.workload.pair_mode]]
    return {
        "setup_s": statistics.median(t.cpu_s for t in bench.setup_times),
        "cpu_ms_per_doc": cpu_ms_per_decode(chunks),
        "doc_cpu_ms_p50": statistics.median(pair_cpu),
        "doc_cpu_ms_p95": percentile(pair_cpu, 95),
    }


def reference_scale(bench: Bench) -> float:
    return (workloads.REFERENCE_MS[bench.workload.served]
            / statistics.median(bench.reference_ms))


def end_to_end(bench: Bench, chunks: List[Chunk], f1: float) -> Dict[str, float]:
    scale = reference_scale(bench)
    metrics = {name: value * scale for name, value in processor_times(bench, chunks).items()}
    metrics["f1"] = f1
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def wall_clock(bench: Bench, chunks: List[Chunk]) -> List[str]:
    """The wall-clock figures, as printed lines; they are not gated."""
    pair = bench.workload.pair_mode
    attr = bench.attributed(pair)
    walls = {mode: [w for w, _ in bench.latency[mode]] for mode in bench.workload.modes}
    docs_per_s = sum(c.decodes for c in chunks) / sum(c.wall_s for c in chunks)
    speedup_attr = statistics.fmean(bench.attributed(REFERENCE_MODE)) / statistics.fmean(attr)
    speedup_wall = statistics.fmean(walls[REFERENCE_MODE]) / statistics.fmean(walls[pair])
    return [
        f"docs_per_s = {docs_per_s:.6g} 1/s over {len(chunks)} throughput chunk runs",
        f"doc_wall_ms_p50 = {statistics.median(walls[pair]):.6g} ms, "
        f"doc_wall_ms_p95 = {percentile(walls[pair], 95):.6g} ms "
        f"over {len(walls[pair])} latency-phase {pair} decodes",
        f"attr_ms_mean = {statistics.fmean(attr):.6g} ms, "
        f"attr_ms_p50 = {statistics.median(attr):.6g} ms, "
        f"attr_ms_p99 = {percentile(attr, 99):.6g} ms over {len(attr)} {pair} decodes",
        f"speedup_attr = {speedup_attr:.6g}, speedup_wall = {speedup_wall:.6g} "
        f"({REFERENCE_MODE} over {pair})",
    ]


def per_layer(bench: Bench, tracer, chunks: List[Chunk]) -> Dict[str, float]:
    metrics = tracing.layer_metrics(tracer.spans, bench.workload.pair_mode)
    traced = [c for c in chunks if c.traced]
    stats = [s for c in traced for s in c.stats]
    decodes = sum(s.documents for s in stats)
    evaluation = [s[2] - s[1] for s in tracer.spans if s[0] == "evaluation"]
    metrics.update({
        "corpus.load_ms": statistics.median(t.load_ms for t in bench.setup_times),
        "oracle.index_build_ms": statistics.median(t.index_build_ms for t in bench.setup_times),
        "scheduler.gen_tokens_per_seq":
            sum(s.generated_tokens for s in stats) / sum(s.sequences for s in stats),
        "scheduler.defects_per_doc": sum(c.defects for c in traced) / decodes,
        "evaluation.ms": statistics.fmean(evaluation) / 1e6,
        "trace.overhead_frac":
            cpu_ms_per_decode(traced) / cpu_ms_per_decode([c for c in chunks if not c.traced])
            - 1.0,
        "backend.failed_frac": bench.probe.failed / bench.probe.attempted,
    })
    for mode in scheduler.MODES:
        walls = [w for w, _ in bench.latency.get(mode, ())]
        metrics[f"mode.{mode}.wall_ms_per_doc"] = statistics.fmean(walls) if walls else 0.0
    return metrics


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    corpus_jsonl = emit_spans_json(workloads.make_inputs(workload, args.seed))
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    warm_up()

    def set_up() -> workloads.Setup:
        return workloads.set_up(workload, corpus_jsonl, args.seed, tracer)

    setup = set_up()
    try:
        bench = Bench(workload, setup)
        start = time.perf_counter()
        if args.trace:
            chunks = bench.run_for(args.seconds, [tracing.NullTracer(), tracer], tracer, set_up)
        else:
            chunks = bench.run_for(args.seconds, [tracing.NullTracer()], tracing.NullTracer(),
                                   set_up)
        elapsed = time.perf_counter() - start
        f1 = pass_f1(bench, [c for c in chunks if not c.traced])
        if args.trace:
            metrics, units = per_layer(bench, tracer, chunks), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(bench, chunks, f1), END_TO_END_UNITS
        failures = check_outputs(bench, f1, setup)
    finally:
        setup.close()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are measured "
                           "but not in BENCHMARK.json, or the other way round")

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
    report(bench, args, setup, metrics, units, chunks, elapsed, f1, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": bench.probe.attempted,
        "failed": bench.probe.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failures else 0


def report(bench: Bench, args, setup, metrics, units, chunks, elapsed, f1, failures) -> None:
    workload = bench.workload
    untraced = [c for c in chunks if not c.traced]
    aug = len(bench.docs) if "autoreg-aug" in workload.modes else 0
    print(f"# workload {workload.name}, seed {args.seed}, nproc {bench.parallelism}, "
          f"Python {sys.version.split()[0]}, modes {','.join(workload.modes)}")
    print(f"# input: {len(bench.docs)} documents, "
          f"{statistics.fmean(len(doc.text) for doc in bench.docs):.0f} chars/doc, "
          f"same-label repeat in {workloads.same_label_repeat_share(setup.pairs):.3f} of them; "
          f"autoreg-aug answers stopped by length: "
          f"{sum(c.aug_length_stops for c in untraced[:len(bench.chunks)])} of {aug}")
    print(f"# {len(untraced) / len(bench.chunks):.2f} passes over the corpus in {elapsed:.1f} s: "
          f"{len(chunks)} throughput chunk runs of up to {CHUNK_DOCS} documents in "
          f"{len(workload.modes)} modes, {len(bench.setup_times)} set-ups; doc_cpu percentiles over "
          f"{len(bench.latency[workload.pair_mode])} latency-phase {workload.pair_mode} decodes")
    print(f"# pooled micro-F1 of the first pass {f1:.6f}")
    if not args.trace:
        print(f"# reference work: median {statistics.median(bench.reference_ms):.6g} ms over "
              f"{len(bench.reference_ms)} samples, against "
              f"{workloads.REFERENCE_MS[workload.served]} ms; before scaling: "
              + ", ".join(f"{name} = {value:.6g}"
                          for name, value in processor_times(bench, untraced).items()))
        for line in wall_clock(bench, untraced):
            print(f"# wall clock, not gated: {line}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print("# all output checks passed")


def main() -> int:
    parser = argparse.ArgumentParser(description="parner benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if set(LAYERS) != set(PER_LAYER_UNITS):
        sys.exit(f"perfbench/layers.json and BENCHMARK.json per_layer differ in "
                 f"{sorted(set(LAYERS) ^ set(PER_LAYER_UNITS))}")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
