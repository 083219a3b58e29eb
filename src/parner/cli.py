"""Command-line interface: reformat, decode, eval, bench.

Every option is declared once, in ``_OPTIONS``: the commands that take it,
its default for each, the check its value must pass and its help text.
Options resolve in three layers: command-line flag, then the JSON file
given via --config, then the built-in default; every resolved value is
checked, wherever it came from, before anything is loaded or written.
Backend settings are declared once too, in ``_BACKEND_SETTINGS``.  Every
run writes its fully resolved configuration beside its outputs
(resolved_config.json), so any result can be reproduced from the artifacts
alone.

Exit codes: 0 success, 1 usage or configuration error, 2 completed with
more runtime defects than --max-defects allows.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import statistics
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from parner.backends import (
    BackendError,
    CompletionBackend,
    CostModel,
    ErrorInjection,
    OracleBackend,
)
from parner.corpus import (
    CorpusError,
    Document,
    GoldAnnotation,
    LabelSet,
    emit_spans_json,
    filter_max_mentions,
    parse_bio,
    parse_spans_json,
)
from parner.dedup import DEDUP_MODES, deduplicate
from parner.evaluation import (
    EvalError,
    emit_report,
    latency_stats,
    micro_f1,
    speedup,
)
from parner.reformulate import FORMATS, corpus_stats, reformulate_corpus
from parner.scheduler import MODES, run_corpus
from parner.templates import PromptTemplate, TemplateError, chinese_template

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class ConfigError(ValueError):
    """Invalid option combination or unreadable configuration input."""


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

class _Check(NamedTuple):
    """How an option's value is checked, and the argparse keywords of its flag."""

    test: Callable[[str, object], None]  # raises ConfigError naming the option
    flag: Dict = {}


def _kind(accepts: Callable[[object], bool], kind: str, **flag) -> _Check:
    def check(key: str, value) -> None:
        if not accepts(value):
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return _Check(check, flag)


def _integer(least: float, kind: str, nullable: bool = False) -> _Check:
    # a bool is no integer here
    return _kind(lambda v: (nullable and v is None) or (type(v) is int and v >= least),
                 kind, type=int)


def _split_csv(value) -> List[str]:
    if isinstance(value, list):
        return list(value)
    return [part.strip() for part in value.split(",") if part.strip()]


_CSV = _kind(lambda v: isinstance(v, str) or (
    isinstance(v, list) and all(isinstance(item, str) for item in v)),
    "a comma-separated string or a list of strings")


def _choice(noun: str, choices: Sequence[str], csv: bool = False) -> _Check:
    """One of ``choices``; with ``csv``, a comma-separated string or list of them, none twice."""
    def check(key: str, value) -> None:
        if csv:
            _CSV.test(key, value)
        items = _split_csv(value) if csv else [value]
        if not items:
            raise ConfigError(f"{key} must name at least one {noun}")
        for i, item in enumerate(items):
            if item not in choices:
                raise ConfigError(f"unknown {noun}: {item!r} ({key} takes {', '.join(choices)})")
            if item in items[:i]:
                raise ConfigError(f"{key} names {noun} {item!r} twice")
    return _Check(check, {} if csv else {"choices": choices})


def _required(inner: _Check) -> _Check:
    def check(key: str, value) -> None:
        if value in (None, "", []):
            raise ConfigError(f"--{key.replace('_', '-')} is required (flag or config file)")
        inner.test(key, value)
    return _Check(check, inner.flag)


_STRING = _kind(lambda v: isinstance(v, str), "a string")
_PATH_OR_NULL = _kind(lambda v: v is None or isinstance(v, str), "null or a path")
_POSITIVE = _integer(1, "a positive integer")

# each backend's settings and their JSON types: float takes any JSON number,
# and [{...}] is a list of objects with exactly those keys.  A setting the
# config leaves out is not passed, so its default lives in the constructor.
_BACKEND_SETTINGS: Dict[str, Dict] = {
    "oracle": {
        "p_count": float, "p_index": float,
        "forced_counts": [{"doc_id": str, "label": str, "count": int}],
        "forced_mentions": [{"doc_id": str, "label": str, "index": int, "surface": str}],
        "ms_per_token": float, "fixed_overhead_ms": float, "batch_penalty_alpha": float,
    },
    "http": {"url": str, "timeout_s": float, "max_retries": int, "max_in_flight": int},
}


class _Option(NamedTuple):
    name: str
    defaults: Dict[str, object]  # default per command; the commands that take the option
    check: _Check
    help: str


_ALL = ("reformat", "decode", "eval", "bench")
_WRITERS = ("reformat", "decode", "bench")
_RUNS = ("decode", "bench")

_OPTIONS: Tuple[_Option, ...] = (
    _Option("corpus", dict.fromkeys(_ALL), _required(_STRING), "corpus file path"),
    _Option("labels", dict.fromkeys(_ALL), _required(_CSV),
            "comma-separated label names, in canonical order"),
    _Option("corpus_format", dict.fromkeys(_ALL, "jsonl"),
            _choice("corpus format", ("jsonl", "bio")), "corpus file format"),
    _Option("joiner", dict.fromkeys(_ALL, " "), _STRING,
            "token joiner for BIO corpora ('' for unspaced text)"),
    _Option("bio_malformed", dict.fromkeys(_ALL, "treat-as-b"),
            _choice("BIO policy", ("treat-as-b", "error")),
            "policy for I- tags without a matching B-"),
    _Option("label_map", dict.fromkeys(_ALL), _PATH_OR_NULL,
            "JSON file mapping labels to prompt surfaces"),
    _Option("max_mentions", dict.fromkeys(_ALL),
            _integer(0, "null or a non-negative integer", nullable=True),
            "drop documents with more total mentions than this"),
    _Option("template", dict.fromkeys(_WRITERS), _PATH_OR_NULL,
            "JSON file overriding prompt template fields"),
    _Option("out", dict.fromkeys(_ALL, "out"), _required(_STRING), "output directory"),
    _Option("max_defects", dict.fromkeys(_WRITERS, 0), _integer(0, "a non-negative integer"),
            "exit 2 when runtime defects exceed this count"),
    _Option("formats", {"reformat": ",".join(FORMATS)}, _choice("format", FORMATS, csv=True),
            f"comma-separated output formats (default all of {','.join(FORMATS)})"),
    _Option("backend", dict.fromkeys(_RUNS, "oracle"),
            _choice("backend", tuple(_BACKEND_SETTINGS)), "completion backend"),
    _Option("backend_config", dict.fromkeys(_RUNS), _PATH_OR_NULL,
            "JSON file with backend settings"),
    _Option("mode", {"decode": "pair-multi"}, _choice("mode", MODES), "decode mode"),
    _Option("modes", {"bench": ",".join(MODES)}, _choice("mode", MODES, csv=True),
            "comma-separated decode modes to compare"),
    _Option("baseline", {"bench": "autoreg-struct"}, _choice("mode", MODES),
            "mode used as the speedup denominator reference"),
    _Option("dedup", dict.fromkeys(_RUNS, "keep-max"), _choice("dedup policy", DEDUP_MODES),
            "policy for the same surface under several labels"),
    _Option("parallelism", dict.fromkeys(_RUNS, 4), _POSITIVE, "documents decoded at once"),
    _Option("repeats", dict.fromkeys(_RUNS, 1), _POSITIVE,
            "passes over the corpus; each document's latency is its mean over the passes. "
            "The oracle's latency is the same on every pass, so HTTP runs pass more to "
            "average a measured wall clock"),
    _Option("seed", dict.fromkeys(_RUNS, 0), _integer(-math.inf, "an integer"),
            "seed of the oracle's error injection"),
    _Option("max_new_tokens", dict.fromkeys(_RUNS, 512), _POSITIVE,
            "generated tokens per sequence at most"),
    _Option("pred", {"eval": None}, _required(_STRING),
            "predictions file (JSON-lines span format)"),
    _Option("semantics", {"eval": "multiset"}, _choice("semantics", ("multiset", "set")),
            "score repeated mentions as a multiset or as a set"),
)


def _read_json(path: str, what: str = ""):
    """The JSON value in ``path``; with ``what``, it must be an object."""
    with open(path, encoding="utf-8") as handle:
        value = json.load(handle)
    if what and not isinstance(value, dict):
        raise ConfigError(f"{what} must hold a JSON object: {path}")
    return value


def _resolve_options(ns: argparse.Namespace) -> Dict:
    """Merge flags, config file and builtin defaults into one checked dict."""
    command = ns.command
    options = [option for option in _OPTIONS if command in option.defaults]
    from_file: Dict = _read_json(ns.config, "--config") if ns.config else {}
    unknown = set(from_file) - {option.name for option in options}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    resolved: Dict = {"command": command}
    for option in options:
        value = getattr(ns, option.name)
        if value is None:
            value = from_file.get(option.name, option.defaults[command])
        option.check.test(option.name, value)
        resolved[option.name] = value
    return resolved


def _load_labels(options: Dict) -> LabelSet:
    mapping = _read_json(options["label_map"]) if options["label_map"] else None
    return LabelSet(_split_csv(options["labels"]), surface_map=mapping)


def _load_template(options: Dict) -> PromptTemplate:
    path = options["template"]
    if not path:
        return PromptTemplate()
    fields = _read_json(path, "template file")
    preset = fields.pop("preset", None)
    if preset is None:
        base = PromptTemplate()
    elif preset == "chinese":
        base = chinese_template()
    else:
        raise ConfigError(f"unknown template preset: {preset!r} (expected 'chinese')")
    valid = {f.name for f in dataclasses.fields(PromptTemplate)}
    unknown = set(fields) - valid
    if unknown:
        raise ConfigError(f"unknown template fields: {sorted(unknown)}")
    return dataclasses.replace(base, **fields)


def _load_corpus(
    options: Dict, labels: LabelSet
) -> Tuple[List[Tuple[Document, GoldAnnotation]], List[str]]:
    with open(options["corpus"], encoding="utf-8") as handle:
        text = handle.read()
    if options["corpus_format"] == "bio":
        pairs = parse_bio(text, labels, joiner=options["joiner"],
                          malformed=options["bio_malformed"])
    else:
        pairs = parse_spans_json(text, labels)
    return filter_max_mentions(pairs, options["max_mentions"])


_JSON_TYPES = {float: "a number", int: "an integer", str: "a string"}


def _typed(where: str, value, kind):
    """``value`` as the JSON type ``kind``, or a ConfigError naming ``where``."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_typed(f"{where}[{i}]", item, kind[0]) for i, item in enumerate(value)]
    if isinstance(kind, dict):
        if not isinstance(value, dict) or value.keys() != kind.keys():
            raise ConfigError(f"{where} must be an object with keys {sorted(kind)}, "
                              f"got {value!r}")
        return {key: _typed(f"{where}.{key}", value[key], kind[key]) for key in kind}
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{where} must be {_JSON_TYPES[kind]} that fits a float, "
                          f"got an integer of {len(str(value))} digits") from None


def _backend_settings(options: Dict) -> Dict:
    """The --backend-config settings, each checked against its JSON type."""
    path, backend = options["backend_config"], options["backend"]
    settings = _read_json(path, "backend config") if path else {}
    kinds = _BACKEND_SETTINGS[backend]
    unknown = set(settings) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {backend} backend settings: {sorted(unknown)} "
                          f"(expected some of {sorted(kinds)})")
    return {key: _typed(f"{backend} backend setting {key}", value, kinds[key])
            for key, value in settings.items()}


def _make_backend(
    options: Dict,
    settings: Dict,
    pairs: List[Tuple[Document, GoldAnnotation]],
    labels: LabelSet,
    template: PromptTemplate,
) -> CompletionBackend:
    backend = options["backend"]
    if backend == "oracle":
        def pick(*keys: str) -> Dict:
            return {key: settings[key] for key in keys if key in settings}

        errors = ErrorInjection(
            **pick("p_count", "p_index"),
            forced_counts={(e["doc_id"], e["label"]): e["count"]
                           for e in settings.get("forced_counts", [])},
            forced_mentions={(e["doc_id"], e["label"], e["index"]): e["surface"]
                             for e in settings.get("forced_mentions", [])},
        )
        cost = CostModel(**pick("ms_per_token", "fixed_overhead_ms", "batch_penalty_alpha"))
        return OracleBackend(pairs, labels, template=template, cost=cost, errors=errors,
                             seed=options["seed"])
    if not settings.get("url"):
        raise ConfigError("http backend needs a 'url' in --backend-config")
    from parner.backends.http import HttpBackend  # loads requests: HTTP runs only

    return HttpBackend(**settings)


def _write(out_dir: str, name: str, content: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        handle.write(content)


def _write_json(out_dir: str, name: str, payload: Dict) -> None:
    _write(out_dir, name, json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _write_jsonl(out_dir: str, name: str, rows: List[Dict]) -> None:
    _write(out_dir, name, "".join(
        json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows))


def _defect_exit(total_defects: int, max_defects: int) -> int:
    if total_defects > max_defects:
        print(f"defects: {total_defects} (threshold {max_defects})", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_reformat(options: Dict) -> int:
    labels = _load_labels(options)
    template = _load_template(options)
    pairs, dropped = _load_corpus(options, labels)
    formats = _split_csv(options["formats"])
    out_dir = options["out"]

    all_examples = []
    total_skipped = 0
    for fmt in formats:
        result = reformulate_corpus(pairs, fmt, labels, template)
        _write_jsonl(out_dir, f"{fmt}.jsonl", [ex.to_json_dict() for ex in result.examples])
        all_examples.extend(result.examples)
        total_skipped += len(result.skipped)
        for doc_id, reason in result.skipped:
            print(f"skipped {doc_id} for {fmt}: {reason}", file=sys.stderr)
        print(f"{fmt}: {len(result.examples)} examples"
              + (f" ({len(result.skipped)} documents skipped)" if result.skipped else ""))
    stats = corpus_stats(all_examples)
    stats["documents"] = len(pairs)
    stats["documents_dropped_by_mention_filter"] = dropped
    _write_json(out_dir, "stats.json", stats)
    return _defect_exit(total_skipped, options["max_defects"])


@contextlib.contextmanager
def _load_run(options: Dict):
    """Load what every mode of a decode or bench run shares.

    The backend settings are checked first, then labels, template, corpus
    and backend are loaded once; a corpus with no documents left is refused
    before the backend is built.  The yielded ``decode(mode)`` decodes the
    corpus in one mode ``--repeats`` times and de-duplicates the first pass.
    It returns that pass's outcomes, each document's latency in every pass,
    the run's latency stats with each document's mean over the passes, and
    the predictions.  The backend is closed when the ``with`` block ends,
    however it ends.
    """
    settings = _backend_settings(options)
    labels = _load_labels(options)
    template = _load_template(options)
    pairs, dropped = _load_corpus(options, labels)
    if not pairs:
        raise ConfigError(f"the corpus has no documents to decode "
                          f"({len(dropped)} dropped by --max-mentions)")
    try:
        backend = _make_backend(options, settings, pairs, labels, template)
    except ValueError as exc:  # a bad backend setting or HTTP route
        raise ConfigError(str(exc)) from None
    docs = [doc for doc, _ in pairs]

    def decode(mode: str):
        def one_pass():
            return run_corpus(docs, labels, backend, template, mode,
                              parallelism=options["parallelism"],
                              max_new_tokens=options["max_new_tokens"])

        outcomes = one_pass()
        latencies = [[outcome.example_latency_ms] for outcome in outcomes]
        for _ in range(1, options["repeats"]):  # later passes keep only their latencies
            for per_pass, outcome in zip(latencies, one_pass()):
                per_pass.append(outcome.example_latency_ms)
        mean = statistics.fmean(map(statistics.fmean, latencies))
        stats = dataclasses.replace(latency_stats(outcomes), mean_example_latency_ms=mean)
        predictions = [
            (doc, GoldAnnotation(doc_id=doc.id, mentions=deduplicate(
                outcome.raw_mentions, labels, options["dedup"])))
            for doc, outcome in zip(docs, outcomes)
        ]
        return outcomes, latencies, stats, predictions

    try:
        yield labels, pairs, dropped, decode
    finally:
        backend.close()


def _outcome_row(outcome, latencies: List[float]) -> Dict:
    """One document's row of ``outcomes.jsonl``: its first pass, with its
    latency in every pass (null after one) and their mean."""
    return {
        "id": outcome.doc_id,
        "example_latency_ms": statistics.fmean(latencies),
        "repeat_latencies": latencies if len(latencies) > 1 else None,
        "step1_batch_size": outcome.step1_batch_size,
        "step2_batch_size": outcome.step2_batch_size,
        "sequences": len(outcome.traces),
        "generated_tokens": sum(len(tr.result.tokens) for tr in outcome.traces),
        "defects": list(outcome.defects),
    }


def _cmd_decode(options: Dict) -> int:
    with _load_run(options) as (_, _, dropped, decode):
        outcomes, latencies, stats, predictions = decode(options["mode"])
    out_dir = options["out"]

    _write(out_dir, "predictions.jsonl", emit_spans_json(predictions))
    _write_jsonl(out_dir, "outcomes.jsonl",
                 [_outcome_row(o, per_pass) for o, per_pass in zip(outcomes, latencies)])
    total_defects = sum(len(o.defects) for o in outcomes)
    metrics = {
        "latency": dataclasses.asdict(stats),
        "total_defects": total_defects,
        "documents_dropped_by_mention_filter": dropped,
    }
    _write_json(out_dir, "metrics.json", metrics)
    print(f"decoded {len(outcomes)} documents in mode {options['mode']}: "
          f"mean example latency {stats.mean_example_latency_ms:.2f} ms, "
          f"{total_defects} defects")
    return _defect_exit(total_defects, options["max_defects"])


def _cmd_eval(options: Dict) -> int:
    labels = _load_labels(options)
    pairs, _ = _load_corpus(options, labels)
    with open(options["pred"], encoding="utf-8") as handle:
        pred_pairs = parse_spans_json(handle.read(), labels)
    gold = {doc.id: ann.mentions for doc, ann in pairs}
    pred = {doc.id: ann.mentions for doc, ann in pred_pairs}
    report = micro_f1(pred, gold, labels, multiset=options["semantics"] == "multiset")
    out_dir = options["out"]
    _write_json(out_dir, "report.json", {"evaluation": dataclasses.asdict(report)})
    _write(out_dir, "report.md", emit_report(evaluation=report))
    print(f"micro F1 {report.f1:.4f} (precision {report.precision:.4f}, "
          f"recall {report.recall:.4f}) over {len(gold)} documents")
    return 0


def _cmd_bench(options: Dict) -> int:
    modes = _split_csv(options["modes"])
    baseline_mode = options["baseline"]
    if baseline_mode not in modes:
        raise ConfigError(f"baseline {baseline_mode!r} must be one of the benched modes {modes}")
    out_dir = options["out"]

    per_mode_stats = {}
    per_mode_f1 = {}
    total_defects = 0
    with _load_run(options) as (labels, pairs, _, decode):
        gold = {doc.id: ann.mentions for doc, ann in pairs}
        for mode in modes:
            outcomes, _, per_mode_stats[mode], predictions = decode(mode)
            pred = {doc.id: ann.mentions for doc, ann in predictions}
            per_mode_f1[mode] = micro_f1(pred, gold, labels).f1
            total_defects += sum(len(o.defects) for o in outcomes)

    base = per_mode_stats[baseline_mode]
    speedups = {
        f"{baseline_mode}/{mode}": speedup(base, per_mode_stats[mode])
        for mode in modes if mode != baseline_mode
    }
    payload = {
        "modes": {
            mode: {"latency": dataclasses.asdict(per_mode_stats[mode]), "f1": per_mode_f1[mode]}
            for mode in modes
        },
        "speedup": speedups,
        "baseline": baseline_mode,
    }
    _write_json(out_dir, "bench.json", payload)
    _write(out_dir, "bench.md", emit_report(latency=per_mode_stats, speedups=speedups,
                                            f1=per_mode_f1))
    for mode in modes:
        stats = per_mode_stats[mode]
        print(f"{mode}: mean example latency {stats.mean_example_latency_ms:.2f} ms, "
              f"mean tokens/sequence {stats.mean_generated_tokens_per_sequence:.2f}, "
              f"f1 {per_mode_f1[mode]:.4f}")
    for name, factor in speedups.items():
        print(f"speedup {name}: " + ("n/a" if factor is None else f"{factor:.2f}x"))
    return _defect_exit(total_defects, options["max_defects"])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMMANDS = {
    "reformat": (_cmd_reformat, "rewrite a corpus as training examples"),
    "decode": (_cmd_decode, "decode a corpus against a backend"),
    "eval": (_cmd_eval, "score a prediction file against gold"),
    "bench": (_cmd_bench, "compare decode modes on one corpus"),
}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="parner",
        description="Parallel per-label NER decoding over text-completion backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        p_command.add_argument("--config", help="JSON file with defaults for any option")
        for option in _OPTIONS:
            if command in option.defaults:
                p_command.add_argument("--" + option.name.replace("_", "-"),
                                       help=option.help, **option.check.flag)
        p_command.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        options = _resolve_options(ns)
        code = ns.func(options)
        _write_json(options["out"], "resolved_config.json", options)
        return code
    except (ConfigError, CorpusError, TemplateError, EvalError, BackendError,
            OSError, json.JSONDecodeError) as exc:
        print(f"parner: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
