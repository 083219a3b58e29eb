"""Command-line interface: reformat, decode, eval, bench.

Options resolve in three layers: command-line flag, then the JSON file
given via --config, then the built-in default.  Every run writes its fully
resolved configuration beside its outputs (resolved_config.json), so any
result can be reproduced from the artifacts alone.

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
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from parner.backends import (
    BackendError,
    CompletionBackend,
    CostModel,
    ErrorInjection,
    HttpBackend,
    OracleBackend,
    ScriptedBackend,
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


# builtin defaults, overridable by --config file, overridden by flags
_COMMON_DEFAULTS = {
    "corpus_format": "jsonl",
    "joiner": " ",
    "bio_malformed": "treat-as-b",
    "label_map": None,
    "max_mentions": None,
    "template": None,
    "out": "out",
    "max_defects": 0,
}
_DEFAULTS: Dict[str, Dict] = {
    "reformat": {**_COMMON_DEFAULTS, "formats": ",".join(FORMATS)},
    "decode": {
        **_COMMON_DEFAULTS,
        "backend": "oracle",
        "backend_config": None,
        "mode": "pair-multi",
        "dedup": "keep-max",
        "parallelism": 4,
        "repeats": 1,
        "seed": 0,
        "max_new_tokens": 512,
    },
    "eval": {
        **_COMMON_DEFAULTS,
        "pred": None,
        "semantics": "multiset",
        "report_format": "json",
    },
    "bench": {
        **_COMMON_DEFAULTS,
        "backend": "oracle",
        "backend_config": None,
        "modes": ",".join(MODES),
        "baseline": "autoreg-struct",
        "dedup": "keep-max",
        "parallelism": 4,
        "repeats": 3,
        "seed": 0,
        "max_new_tokens": 512,
    },
}


# integer options: the least value each may take, and how an error names it
_INTEGER_OPTIONS = {
    "parallelism": (1, "a positive integer"), "repeats": (1, "a positive integer"),
    "max_new_tokens": (1, "a positive integer"), "max_defects": (0, "a non-negative integer"),
    "max_mentions": (0, "null or a non-negative integer"), "seed": (-math.inf, "an integer"),
}


def _resolve_options(ns: argparse.Namespace, command: str) -> Dict:
    """Merge flags, config file and builtin defaults into one dict.

    Every integer option the command takes is checked here, before anything
    is loaded or written; ``max_mentions`` may also be null (no limit).
    """
    from_file: Dict = {}
    if ns.config:
        with open(ns.config, encoding="utf-8") as handle:
            from_file = json.load(handle)
        if not isinstance(from_file, dict):
            raise ConfigError(f"--config must hold a JSON object: {ns.config}")
        unknown = set(from_file) - set(_DEFAULTS[command]) - {"corpus", "labels"}
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    resolved: Dict = {"command": command}
    for key in ("corpus", "labels", *_DEFAULTS[command].keys()):
        value = getattr(ns, key, None)
        if value is None:
            value = from_file.get(key, _DEFAULTS[command].get(key))
        resolved[key] = value
    if not resolved.get("corpus"):
        raise ConfigError("--corpus is required (flag or config file)")
    if not resolved.get("labels"):
        raise ConfigError("--labels is required (flag or config file)")
    for key, (least, kind) in _INTEGER_OPTIONS.items():
        value = resolved.get(key)
        if key not in resolved or (value is None and key == "max_mentions"):
            continue
        if type(value) is not int or value < least:  # a bool is no integer here
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return resolved


def _split_csv(value) -> List[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [part.strip() for part in str(value).split(",") if part.strip()]


def _load_labels(options: Dict) -> LabelSet:
    mapping = None
    if options.get("label_map"):
        with open(options["label_map"], encoding="utf-8") as handle:
            mapping = json.load(handle)
    return LabelSet(_split_csv(options["labels"]), surface_map=mapping)


def _load_template(options: Dict) -> PromptTemplate:
    path = options.get("template")
    if not path:
        return PromptTemplate()
    with open(path, encoding="utf-8") as handle:
        fields = json.load(handle)
    if not isinstance(fields, dict):
        raise ConfigError(f"template file must hold a JSON object: {path}")
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
    path = options["corpus"]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if options["corpus_format"] == "bio":
        pairs = parse_bio(text, labels, joiner=options["joiner"],
                          malformed=options["bio_malformed"])
    elif options["corpus_format"] == "jsonl":
        pairs = parse_spans_json(text, labels)
    else:
        raise ConfigError(f"unknown corpus format: {options['corpus_format']!r}")
    return filter_max_mentions(pairs, options["max_mentions"])


def _load_backend_config(options: Dict) -> Dict:
    path = options.get("backend_config")
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ConfigError(f"backend config must hold a JSON object: {path}")
    return cfg


def _make_backend(
    options: Dict,
    pairs: List[Tuple[Document, GoldAnnotation]],
    labels: LabelSet,
    template: PromptTemplate,
) -> CompletionBackend:
    kind = options["backend"]
    cfg = _load_backend_config(options)
    if kind == "oracle":
        # settings the config leaves out keep the constructors' defaults
        def floats(*keys: str) -> Dict[str, float]:
            return {key: float(cfg[key]) for key in keys if key in cfg}

        errors = ErrorInjection(
            **floats("p_count", "p_index"),
            forced_counts={
                (e["doc_id"], e["label"]): int(e["count"])
                for e in cfg.get("forced_counts", [])
            },
            forced_mentions={
                (e["doc_id"], e["label"], int(e["index"])): e["surface"]
                for e in cfg.get("forced_mentions", [])
            },
        )
        cost = CostModel(**floats("ms_per_token", "fixed_overhead_ms", "batch_penalty_alpha"))
        return OracleBackend(
            pairs, labels, template=template, cost=cost, errors=errors, seed=options["seed"],
            **floats("hi_token_prob", "lo_token_prob", "prob_jitter"),
        )
    if kind == "scripted":
        fixtures = cfg.get("fixtures")
        if not fixtures:
            raise ConfigError("scripted backend needs a 'fixtures' path in --backend-config")
        return ScriptedBackend.from_jsonl(fixtures)
    if kind == "http":
        url = cfg.get("url")
        if not url:
            raise ConfigError("http backend needs a 'url' in --backend-config")
        return HttpBackend(
            url,
            timeout_s=float(cfg.get("timeout_s", 60.0)),
            max_retries=int(cfg.get("max_retries", 2)),
            max_in_flight=int(cfg.get("max_in_flight", 8)),
        )
    raise ConfigError(f"unknown backend: {kind!r}")


def _write(out_dir: str, name: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path


def _write_snapshot(out_dir: str, resolved: Dict) -> None:
    _write(out_dir, "resolved_config.json",
           json.dumps(resolved, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _defect_exit(total_defects: int, max_defects: int) -> int:
    if total_defects > max_defects:
        print(f"defects: {total_defects} (threshold {max_defects})", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_reformat(ns: argparse.Namespace) -> int:
    options = _resolve_options(ns, "reformat")
    labels = _load_labels(options)
    template = _load_template(options)
    pairs, dropped = _load_corpus(options, labels)
    formats = _split_csv(options["formats"])
    out_dir = options["out"]

    all_examples = []
    total_skipped = 0
    for fmt in formats:
        result = reformulate_corpus(pairs, fmt, labels, template)
        lines = [json.dumps(ex.to_json_dict(), ensure_ascii=False, sort_keys=True)
                 for ex in result.examples]
        _write(out_dir, f"{fmt}.jsonl", "\n".join(lines) + ("\n" if lines else ""))
        all_examples.extend(result.examples)
        total_skipped += len(result.skipped)
        for doc_id, reason in result.skipped:
            print(f"skipped {doc_id} for {fmt}: {reason}", file=sys.stderr)
        print(f"{fmt}: {len(result.examples)} examples"
              + (f" ({len(result.skipped)} documents skipped)" if result.skipped else ""))
    stats = corpus_stats(all_examples)
    stats["documents"] = len(pairs)
    stats["documents_dropped_by_mention_filter"] = dropped
    _write(out_dir, "stats.json",
           json.dumps(stats, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    _write_snapshot(out_dir, options)
    return _defect_exit(total_skipped, options["max_defects"])


@contextlib.contextmanager
def _load_run(options: Dict, modes: Sequence[str]):
    """Check a decode or bench run's options, then load what every mode shares.

    Every check runs before anything is loaded, decoded or written.  Labels,
    template, corpus and backend are loaded once; the yielded
    ``decode(mode)`` decodes the corpus in one mode and de-duplicates it.
    The backend is closed when the ``with`` block ends, however it ends.
    """
    unknown = [mode for mode in modes if mode not in MODES]
    if unknown:
        raise ConfigError(f"unknown mode: {unknown[0]!r} (expected one of {MODES})")
    if options["dedup"] not in DEDUP_MODES:
        raise ConfigError(f"unknown dedup policy: {options['dedup']!r}")
    labels = _load_labels(options)
    template = _load_template(options)
    pairs, dropped = _load_corpus(options, labels)
    try:
        backend = _make_backend(options, pairs, labels, template)
    except ValueError as exc:  # a bad backend setting or fixture entry
        raise ConfigError(str(exc)) from None
    docs = [doc for doc, _ in pairs]

    def decode(mode: str):
        outcomes = run_corpus(
            docs, labels, backend, template, mode,
            parallelism=options["parallelism"],
            repeats=options["repeats"],
            max_new_tokens=options["max_new_tokens"],
        )
        predictions = [
            (doc, GoldAnnotation(doc_id=doc.id, mentions=deduplicate(
                outcome.raw_mentions, labels, options["dedup"])))
            for doc, outcome in zip(docs, outcomes)
        ]
        return outcomes, predictions

    try:
        yield labels, pairs, dropped, decode
    finally:
        backend.close()


def _outcome_row(outcome) -> Dict:
    return {
        "id": outcome.doc_id,
        "example_latency_ms": outcome.example_latency_ms,
        "repeat_latencies": outcome.repeat_latencies,
        "step1_batch_size": outcome.step1_batch_size,
        "step2_batch_size": outcome.step2_batch_size,
        "sequences": len(outcome.traces),
        "generated_tokens": sum(tr.result.generated_token_count for tr in outcome.traces),
        "defects": list(outcome.defects),
    }


def _cmd_decode(ns: argparse.Namespace) -> int:
    options = _resolve_options(ns, "decode")
    with _load_run(options, [options["mode"]]) as (_, _, dropped, decode):
        outcomes, predictions = decode(options["mode"])
    out_dir = options["out"]

    _write(out_dir, "predictions.jsonl", emit_spans_json(predictions))
    rows = [json.dumps(_outcome_row(o), ensure_ascii=False, sort_keys=True) for o in outcomes]
    _write(out_dir, "outcomes.jsonl", "\n".join(rows) + ("\n" if rows else ""))
    stats = latency_stats(outcomes)
    total_defects = sum(len(o.defects) for o in outcomes)
    metrics = {
        "latency": dataclasses.asdict(stats),
        "total_defects": total_defects,
        "documents_dropped_by_mention_filter": dropped,
    }
    _write(out_dir, "metrics.json",
           json.dumps(metrics, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    _write_snapshot(out_dir, options)
    print(f"decoded {len(outcomes)} documents in mode {options['mode']}: "
          f"mean example latency {stats.mean_example_latency_ms:.2f} ms, "
          f"{total_defects} defects")
    return _defect_exit(total_defects, options["max_defects"])


def _cmd_eval(ns: argparse.Namespace) -> int:
    options = _resolve_options(ns, "eval")
    if not options.get("pred"):
        raise ConfigError("--pred is required")
    labels = _load_labels(options)
    pairs, _ = _load_corpus(options, labels)
    with open(options["pred"], encoding="utf-8") as handle:
        pred_pairs = parse_spans_json(handle.read(), labels)
    gold = {doc.id: ann.mentions for doc, ann in pairs}
    pred = {doc.id: ann.mentions for doc, ann in pred_pairs}
    report = micro_f1(pred, gold, labels, multiset=options["semantics"] == "multiset")
    out_dir = options["out"]
    _write(out_dir, "report.json", emit_report(evaluation=report, fmt="json"))
    if options["report_format"] == "markdown":
        _write(out_dir, "report.md", emit_report(evaluation=report, fmt="markdown"))
    _write_snapshot(out_dir, options)
    print(f"micro F1 {report.f1:.4f} (precision {report.precision:.4f}, "
          f"recall {report.recall:.4f}) over {len(gold)} documents")
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    options = _resolve_options(ns, "bench")
    modes = _split_csv(options["modes"])
    baseline_mode = options["baseline"]
    if baseline_mode not in modes:
        raise ConfigError(f"baseline {baseline_mode!r} must be one of the benched modes {modes}")
    out_dir = options["out"]

    per_mode_stats = {}
    per_mode_f1 = {}
    total_defects = 0
    with _load_run(options, modes) as (labels, pairs, _, decode):
        gold = {doc.id: ann.mentions for doc, ann in pairs}
        for mode in modes:
            outcomes, predictions = decode(mode)
            per_mode_stats[mode] = latency_stats(outcomes)
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
    _write(out_dir, "bench.json",
           json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    markdown = emit_report(latency=per_mode_stats, speedups=speedups, fmt="markdown")
    f1_lines = ["## Micro F1", "", "| run | f1 |", "| --- | --- |"]
    f1_lines += [f"| {mode} | {per_mode_f1[mode]:.4f} |" for mode in modes]
    _write(out_dir, "bench.md", markdown + "\n".join(f1_lines) + "\n")
    _write_snapshot(out_dir, options)
    for mode in modes:
        stats = per_mode_stats[mode]
        print(f"{mode}: mean example latency {stats.mean_example_latency_ms:.2f} ms, "
              f"mean tokens/sequence {stats.mean_generated_tokens_per_sequence:.2f}, "
              f"f1 {per_mode_f1[mode]:.4f}")
    for name, factor in speedups.items():
        print(f"speedup {name}: {factor:.2f}x")
    return _defect_exit(total_defects, options["max_defects"])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with defaults for any option")
    parser.add_argument("--corpus", help="corpus file path")
    parser.add_argument("--corpus-format", dest="corpus_format", choices=["jsonl", "bio"])
    parser.add_argument("--labels", help="comma-separated label names, in canonical order")
    parser.add_argument("--label-map", dest="label_map",
                        help="JSON file mapping labels to prompt surfaces")
    parser.add_argument("--joiner", help="token joiner for BIO corpora ('' for unspaced text)")
    parser.add_argument("--bio-malformed", dest="bio_malformed",
                        choices=["treat-as-b", "error"],
                        help="policy for I- tags without a matching B-")
    parser.add_argument("--max-mentions", dest="max_mentions", type=int,
                        help="drop documents with more total mentions than this")
    parser.add_argument("--template", help="JSON file overriding prompt template fields")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--max-defects", dest="max_defects", type=int,
                        help="exit 2 when runtime defects exceed this count")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["oracle", "scripted", "http"])
    parser.add_argument("--backend-config", dest="backend_config",
                        help="JSON file with backend settings")
    parser.add_argument("--dedup", choices=list(DEDUP_MODES))
    parser.add_argument("--parallelism", type=int)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-new-tokens", dest="max_new_tokens", type=int)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="parner",
        description="Parallel per-label NER decoding over text-completion backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reformat = sub.add_parser("reformat", parents=[], help="rewrite a corpus as training examples")
    _add_common(p_reformat)
    p_reformat.add_argument("--formats", help="comma-separated output formats "
                            f"(default all of {','.join(FORMATS)})")
    p_reformat.set_defaults(func=_cmd_reformat)

    p_decode = sub.add_parser("decode", help="decode a corpus against a backend")
    _add_common(p_decode)
    _add_run_options(p_decode)
    p_decode.add_argument("--mode", choices=list(MODES))
    p_decode.set_defaults(func=_cmd_decode)

    p_eval = sub.add_parser("eval", help="score a prediction file against gold")
    _add_common(p_eval)
    p_eval.add_argument("--pred", help="predictions file (JSON-lines span format)")
    p_eval.add_argument("--semantics", choices=["multiset", "set"])
    p_eval.add_argument("--report-format", dest="report_format", choices=["json", "markdown"])
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="compare decode modes on one corpus")
    _add_common(p_bench)
    _add_run_options(p_bench)
    p_bench.add_argument("--modes", help="comma-separated decode modes to compare")
    p_bench.add_argument("--baseline", help="mode used as the speedup denominator reference")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, CorpusError, TemplateError, EvalError, BackendError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"parner: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
