"""End-to-end CLI flows for reformat, decode, eval and bench."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

import parner
from parner import cli
from parner.backends import CompletionRequest, CompletionResult, HttpBackend, OracleBackend
from parner.cli import main
from parner.corpus import Document, GoldAnnotation, Mention, emit_spans_json, parse_spans_json
from parner.evaluation import micro_f1
from parner.scheduler import MODES
from parner.synthetic import make_corpus
from helpers import QuietHTTPServer


def write_corpus(tmp_path, pairs, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text(emit_spans_json(pairs), encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_path(tmp_path, labels):
    return write_corpus(tmp_path, make_corpus(12, labels, seed=4))


LABELS_ARG = "PER,MISC,LOC,ORG"


class TestReformat:
    def test_worked_document(self, tmp_path, cuttitta, capsys):
        corpus = write_corpus(tmp_path, [cuttitta])
        out = tmp_path / "out"
        code = main(["reformat", "--corpus", corpus, "--labels", LABELS_ARG,
                     "--out", str(out)])
        assert code == 0
        pair_lines = (out / "pair.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(pair_lines) == 5
        outputs = [json.loads(line)["output"] for line in pair_lines]
        assert outputs == [
            "1\n<mention 1>Cuttitta",
            "1\n<mention 1>1995 World Cup",
            "2\n<mention 1>Italy",
            "2\n<mention 2>England",
            "<eos>",
        ]
        for name in ("aug.jsonl", "struct.jsonl", "onestep.jsonl",
                     "stats.json", "resolved_config.json"):
            assert (out / name).exists()
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["per_format"]["pair"]["examples"] == 5
        assert stats["per_format"]["onestep"]["examples"] == 4
        assert "5 examples" in capsys.readouterr().out

    def test_format_subset(self, tmp_path, corpus_path):
        out = tmp_path / "out"
        code = main(["reformat", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--formats", "pair", "--out", str(out)])
        assert code == 0
        assert (out / "pair.jsonl").exists()
        assert not (out / "aug.jsonl").exists()

    def test_unbuildable_doc_trips_defect_threshold(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "id": "bad", "text": "no match here",
            "mentions": [{"label": "LOC", "text": "Italy"}],
        }) + "\n", encoding="utf-8")
        args = ["reformat", "--corpus", str(corpus), "--labels", LABELS_ARG,
                "--formats", "aug", "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "skipped bad" in capsys.readouterr().err
        assert main(args + ["--max-defects", "1"]) == 0


class TestDecode:
    def test_noiseless_oracle_reproduces_gold(self, tmp_path, labels, corpus_path, capsys):
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--out", str(out)])
        assert code == 0
        pred = parse_spans_json((out / "predictions.jsonl").read_text(encoding="utf-8"),
                                labels)
        gold = parse_spans_json(Path(corpus_path).read_text(encoding="utf-8"), labels)
        assert [doc.id for doc, _ in pred] == [doc.id for doc, _ in gold]
        for (_, p), (_, g) in zip(pred, gold):
            assert sorted((m.label, m.text) for m in p.mentions) == \
                sorted((m.label, m.text) for m in g.mentions)
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["total_defects"] == 0
        assert metrics["latency"]["mean_example_latency_ms"] > 0
        rows = [json.loads(line) for line in
                (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()]
        assert all(row["step1_batch_size"] == 4 for row in rows)
        assert "decoded 12 documents" in capsys.readouterr().out

    def test_snapshot_records_resolution(self, tmp_path, corpus_path):
        out = tmp_path / "out"
        config = write_json(tmp_path, "config.json",
                            {"mode": "pair-batch", "seed": 9, "dedup": "off"})
        main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
              "--config", config, "--mode", "pair-multi", "--out", str(out)])
        snapshot = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
        assert snapshot["mode"] == "pair-multi"  # flag beats config file
        assert snapshot["seed"] == 9             # config beats builtin default
        assert snapshot["dedup"] == "off"
        assert snapshot["parallelism"] == 4      # builtin default

    def test_unknown_config_key_rejected(self, tmp_path, corpus_path, capsys):
        config = write_json(tmp_path, "config.json", {"modee": "pair-batch"})
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "modee" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--mode", "warp"), ("--backend", "scripted")],
                             ids=["mode-warp", "backend-scripted"])
    def test_usage_error_exits_one(self, tmp_path, corpus_path, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                  "--out", str(out), flag, value])
        assert err.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, config, message", [
        ("decode", ["--parallelism", "0"], None, "parallelism must be a positive integer, got 0"),
        ("decode", ["--repeats", "0"], None, "repeats must be a positive integer, got 0"),
        ("decode", ["--max-new-tokens", "0"], None,
         "max_new_tokens must be a positive integer, got 0"),
        ("bench", [], {"dedup": "keep-all"}, "unknown dedup policy: 'keep-all'"),
        ("bench", ["--parallelism", "0"], None, "parallelism must be a positive integer, got 0"),
        ("bench", ["--modes", "pair-multi,bogus", "--baseline", "pair-multi"], None,
         "unknown mode: 'bogus'"),
        ("decode", [], {"max_defects": "abc"},
         "max_defects must be a non-negative integer, got 'abc'"),
        ("decode", [], {"max_mentions": "x"},
         "max_mentions must be null or a non-negative integer, got 'x'"),
        ("decode", [], {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("reformat", ["--max-defects", "-1"], None,
         "max_defects must be a non-negative integer, got -1"),
        ("reformat", ["--max-mentions", "-1"], None,
         "max_mentions must be null or a non-negative integer, got -1"),
        ("bench", [], {"seed": "s"}, "seed must be an integer, got 's'"),
        ("decode", [], {"backend": "scripted"},
         "unknown backend: 'scripted' (backend takes oracle, http)"),
        ("reformat", [], {"formats": []}, "formats must name at least one format"),
        ("bench", [], {"modes": []}, "modes must name at least one mode"),
    ], ids=["decode-parallelism", "decode-repeats", "decode-max-new-tokens",
            "bench-config-dedup", "bench-parallelism", "bench-modes",
            "decode-config-max-defects", "decode-config-max-mentions", "decode-config-seed",
            "reformat-max-defects", "reformat-max-mentions", "bench-config-seed",
            "decode-config-scripted-backend", "reformat-config-no-formats",
            "bench-config-no-modes"])
    def test_bad_run_option_rejected_before_decoding(self, tmp_path, corpus_path, capsys,
                                                     command, flags, config, message):
        out = tmp_path / "out"
        if config is not None:
            flags = flags + ["--config", write_json(tmp_path, "config.json", config)]
        code = main([command, "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--out", str(out), *flags])
        assert code == 1
        assert f"parner: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["ms_per_token", "fixed_overhead_ms",
                                         "batch_penalty_alpha"])
    @pytest.mark.parametrize("literal, shown", [("-5", "-5.0"), ("NaN", "nan"),
                                                ("Infinity", "inf")])
    def test_bad_cost_setting_rejected_before_writing(self, tmp_path, corpus_path, capsys,
                                                      setting, literal, shown):
        backend_config = tmp_path / "backend.json"
        backend_config.write_text(f'{{"{setting}": {literal}}}', encoding="utf-8")
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--backend-config", str(backend_config), "--out", str(out)])
        assert code == 1
        assert f"parner: error: {setting} must be finite and >= 0, got {shown}\n" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("backend, setting", [("oracle", "ms_per_token"),
                                                  ("http", "timeout_s")])
    def test_integer_too_large_for_a_float_rejected_before_writing(
            self, tmp_path, corpus_path, capsys, backend, setting):
        backend_config = tmp_path / "backend.json"
        backend_config.write_text(f'{{"url": "{HTTP_URL}", "{setting}": 1{"0" * 400}}}'
                                  if backend == "http" else f'{{"{setting}": 1{"0" * 400}}}',
                                  encoding="utf-8")
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--backend", backend, "--backend-config", str(backend_config),
                     "--out", str(out)])
        assert code == 1
        assert (f"parner: error: {backend} backend setting {setting} must be a number that "
                f"fits a float, got an integer of 401 digits\n") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus_flag(self, capsys):
        assert main(["decode", "--labels", LABELS_ARG]) == 1
        assert "corpus" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        assert main(["decode", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--labels", LABELS_ARG, "--out", str(tmp_path / "out")]) == 1

    def test_backend_failures_trip_defect_threshold(self, tmp_path, capsys):
        # the gold mention is not in the text, so the oracle cannot build the
        # augmented answer: one defect
        corpus = write_corpus(tmp_path, [(Document(id="bad", text="no match here"),
                                          GoldAnnotation(doc_id="bad", mentions=[
                                              Mention("LOC", "Italy")]))])
        args = ["decode", "--corpus", corpus, "--labels", LABELS_ARG, "--mode", "autoreg-aug",
                "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "defects: 1 (threshold 0)" in capsys.readouterr().err
        outcome = json.loads((tmp_path / "out" / "outcomes.jsonl").read_text(encoding="utf-8"))
        assert outcome["defects"] == [
            "autoreg request failed: augmented answer unbuildable for document bad"]
        assert main(args + ["--max-defects", "1"]) == 0

    # a cut onestep list is also a parse defect; a cut aug answer parses up
    # to the cut, and a cut count loses digits, so there every defect is a cut
    @pytest.mark.parametrize("mode, budget, cut", [
        ("onestep", 1, "onestep cut by the token budget for label "),
        ("autoreg-aug", 8, "autoreg cut by the token budget"),
        ("pair-multi", 1, "count cut by the token budget for label "),
    ], ids=["onestep", "autoreg-aug", "pair-multi"])
    def test_cut_answers_trip_defect_threshold(self, tmp_path, labels, capsys,
                                               mode, budget, cut):
        out = tmp_path / "out"
        args = ["decode", "--corpus", write_corpus(tmp_path, make_corpus(5, labels, seed=1)),
                "--labels", LABELS_ARG, "--mode", mode, "--max-new-tokens", str(budget),
                "--out", str(out)]
        assert main(args) == 2
        assert "(threshold 0)" in capsys.readouterr().err
        defects = [d for line in (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
                   for d in json.loads(line)["defects"]]
        assert any(d.startswith(cut) for d in defects)
        if mode != "onestep":
            assert all(" cut by the token budget" in d for d in defects)
        assert main(args + ["--max-defects", "1000"]) == 0

    def test_identical_seeds_identical_bytes(self, tmp_path, labels, corpus_path):
        backend_config = write_json(tmp_path, "backend.json",
                                    {"p_count": 0.4, "p_index": 0.4})
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                         "--backend-config", backend_config, "--seed", "3",
                         "--parallelism", "8", "--out", str(out)])
            assert code == 0
            blobs.append((out / "predictions.jsonl").read_bytes())
        assert blobs[0] == blobs[1]
        # and the injected errors actually moved the output away from gold
        pred = parse_spans_json(blobs[0].decode("utf-8"), labels)
        gold = parse_spans_json(Path(corpus_path).read_text(encoding="utf-8"), labels)
        flat_pred = [(d.id, m.label, m.text) for d, a in pred for m in a.mentions]
        flat_gold = [(d.id, m.label, m.text) for d, a in gold for m in a.mentions]
        assert flat_pred != flat_gold

    # sha256 over predictions.jsonl, outcomes.jsonl and metrics.json, first 16 hex digits
    NOISY_DIGESTS = {
        "pair-multi": "f743feda4897a5aa",
        "pair-batch": "9000acce41efc734",
        "onestep": "7c5a8a2384ed17d7",
        "autoreg-aug": "ee713b59bb28ce9e",
        "autoreg-struct": "88863306a62fb062",
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_noisy_decode_outputs_pinned(self, tmp_path, labels, mode):
        corpus = write_corpus(tmp_path, make_corpus(12, labels, seed=6))
        backend_config = write_json(tmp_path, "backend.json", {"p_count": 0.3, "p_index": 0.3})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus, "--labels", LABELS_ARG,
                     "--backend-config", backend_config, "--seed", "3", "--mode", mode,
                     "--parallelism", "2", "--out", str(out)])
        assert code == 0
        digest = hashlib.sha256()
        for name in ("predictions.jsonl", "outcomes.jsonl", "metrics.json"):
            digest.update((out / name).read_bytes())
        assert digest.hexdigest()[:16] == self.NOISY_DIGESTS[mode]

    def test_bio_corpus_with_label_map(self, tmp_path, capsys):
        bio = tmp_path / "corpus.bio"
        bio.write_text(
            "Cuttitta B-PER\njoined O\nItaly B-LOC\n\nnothing O\nhere O\n",
            encoding="utf-8",
        )
        label_map = write_json(tmp_path, "map.json",
                               {"PER": "person", "LOC": "location"})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", str(bio), "--corpus-format", "bio",
                     "--labels", "PER,LOC", "--label-map", label_map,
                     "--out", str(out)])
        assert code == 0
        rows = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(rows[0])
        assert {(m["label"], m["text"]) for m in first["mentions"]} == {
            ("PER", "Cuttitta"), ("LOC", "Italy"),
        }

    def test_chinese_template_preset(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "id": "zh-0", "text": "印度在孟买的测试比赛",
            "mentions": [{"label": "LOC", "text": "印度"},
                         {"label": "LOC", "text": "孟买"}],
        }, ensure_ascii=False) + "\n", encoding="utf-8")
        template = write_json(tmp_path, "template.json", {"preset": "chinese"})
        label_map = write_json(tmp_path, "map.json", {"LOC": "地点", "PER": "名称"})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", str(corpus), "--labels", "LOC,PER",
                     "--label-map", label_map, "--template", template,
                     "--out", str(out)])
        assert code == 0
        row = json.loads((out / "predictions.jsonl").read_text(encoding="utf-8"))
        assert [m["text"] for m in row["mentions"]] == ["印度", "孟买"]

    def test_unknown_template_preset_rejected(self, tmp_path, corpus_path, capsys):
        template = write_json(tmp_path, "template.json", {"preset": "japanese"})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--template", template, "--out", str(out)])
        assert code == 1
        assert ("parner: error: unknown template preset: 'japanese' (expected 'chinese')"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_template_field_rejected(self, tmp_path, corpus_path, capsys):
        template = write_json(tmp_path, "template.json", {"count_mark": "<n>"})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--template", template, "--out", str(out)])
        assert code == 1
        assert ("parner: error: unknown template fields: ['count_mark']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("field", ["label_list_header", "aug_answer_header",
                                       "struct_answer_header", "onestep_entity_marker",
                                       "onestep_text_marker"])
    def test_baseline_framing_is_no_template_field(self, tmp_path, corpus_path, capsys, field):
        template = write_json(tmp_path, "template.json", {"preset": "chinese", field: "x"})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--template", template, "--out", str(out)])
        assert code == 1
        assert (f"parner: error: unknown template fields: ['{field}']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, what", [
        ("--config", "--config"), ("--template", "template file"),
        ("--backend-config", "backend config"),
    ])
    def test_file_that_is_not_a_json_object_rejected(self, tmp_path, corpus_path, capsys,
                                                     flag, what):
        path = write_json(tmp_path, "list.json", ["PER"])
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--out", str(out), flag, path])
        assert code == 1
        assert (f"parner: error: {what} must hold a JSON object: {path}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"count_marker": ""}, "count_marker must be non-empty"),
        ({"count_terminator": "0"}, "nor count_terminator or eos_literal start with one"),
    ], ids=["empty-count-marker", "digit-terminator"])
    def test_template_whose_numbers_cannot_be_read_back_rejected(
            self, tmp_path, corpus_path, capsys, fields, message):
        template = write_json(tmp_path, "template.json", fields)
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--template", template, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("parner: error: ") and message in err
        assert "s3cret" not in err
        assert not out.exists()

    def test_label_map_key_that_is_not_a_label_rejected(self, tmp_path, corpus_path, capsys):
        label_map = write_json(tmp_path, "map.json", {"LOC": "x", "PER": "p", "MISC": "m",
                                                      "ORG": "o", "PERR": "y"})
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--label-map", label_map, "--out", str(out)])
        assert code == 1
        assert ("parner: error: surface mapping names unknown labels: ['PERR']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--label-map", "--config", "--corpus", "--template",
                                      "--backend-config"])
    def test_directory_for_a_file_rejected(self, tmp_path, corpus_path, capsys, flag):
        out = tmp_path / "out"
        paths = {"--corpus": corpus_path, flag: str(tmp_path)}
        code = main(["decode", "--labels", LABELS_ARG, "--out", str(out),
                     *(part for item in paths.items() for part in item)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"parner: error: [Errno 21] Is a directory: {str(tmp_path)!r}" in err
        assert "Traceback" not in err
        assert not out.exists()


# one bad --config value per entry of cli._OPTIONS: (option, command, value)
BAD_CONFIG_VALUES = [
    ("corpus", "decode", ["c"]),
    ("labels", "reformat", 5),
    ("corpus_format", "eval", "conll"),
    ("joiner", "reformat", 5),
    ("bio_malformed", "decode", "skip"),
    ("label_map", "eval", ["m"]),
    ("max_mentions", "bench", True),
    ("template", "bench", ["t"]),
    ("out", "decode", ["o"]),
    ("max_defects", "reformat", 1.5),
    ("formats", "reformat", ["pair", "bogus"]),
    ("backend", "decode", "gpt"),
    ("backend_config", "bench", ["b"]),
    ("mode", "decode", "warp"),
    ("modes", "bench", ["autoreg-struct", 3]),
    ("baseline", "bench", 5),
    ("dedup", "decode", "keep-all"),
    ("parallelism", "bench", "4"),
    ("repeats", "decode", 0),
    ("seed", "decode", None),
    ("max_new_tokens", "bench", 0.5),
    ("pred", "eval", ["p"]),
    ("semantics", "eval", "bogus"),
]

HTTP_URL = "http://127.0.0.1:9/v1/completions"


class TestOptionChecks:
    def test_every_option_has_a_bad_config_case(self):
        assert sorted(option for option, _, _ in BAD_CONFIG_VALUES) == \
            sorted(option.name for option in cli._OPTIONS)

    @pytest.mark.parametrize("option, command, value", BAD_CONFIG_VALUES,
                             ids=[option for option, _, _ in BAD_CONFIG_VALUES])
    def test_bad_config_value_rejected_before_writing(self, tmp_path, corpus_path, monkeypatch,
                                                      capsys, option, command, value):
        monkeypatch.chdir(tmp_path)
        flags = {"corpus": corpus_path, "labels": LABELS_ARG, "out": "out"}
        if command == "eval":
            flags["pred"] = corpus_path
        flags.pop(option, None)  # a flag would win over the config file
        argv = [command, "--config", write_json(tmp_path, "config.json", {option: value})]
        for key, flag_value in flags.items():
            argv += [f"--{key}", flag_value]
        before = set(tmp_path.iterdir())
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("parner: error: ") and option in err
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("backend, settings, message", [
        ("oracle", {"p_cout": 0.5}, "unknown oracle backend settings: ['p_cout']"),
        ("oracle", {"p_count": "x"}, "oracle backend setting p_count must be a number, got 'x'"),
        ("oracle", {"forced_counts": [{"doc_id": "d0"}]},
         "oracle backend setting forced_counts[0] must be an object with keys "
         "['count', 'doc_id', 'label'], got {'doc_id': 'd0'}"),
        ("oracle", {"forced_mentions": [
            {"doc_id": "d0", "label": "LOC", "index": "1", "surface": "Italy"}]},
         "oracle backend setting forced_mentions[0].index must be an integer, got '1'"),
        ("oracle", {"hi_token_prob": 0.9}, "unknown oracle backend settings: ['hi_token_prob']"),
        ("oracle", {"prob_jitter": 0}, "unknown oracle backend settings: ['prob_jitter']"),
        ("oracle", {"ms_per_token": -1}, "ms_per_token must be finite and >= 0, got -1.0"),
        ("oracle", {"forced_counts": {"doc_id": "d0"}},
         "oracle backend setting forced_counts must be a list, got {'doc_id': 'd0'}"),
        ("http", {}, "http backend needs a 'url' in --backend-config"),
        ("http", {"url": ""}, "http backend needs a 'url' in --backend-config"),
        ("http", {"url": HTTP_URL, "max_inflight": 2},
         "unknown http backend settings: ['max_inflight']"),
        ("http", {"url": HTTP_URL, "max_retries": 2.7},
         "http backend setting max_retries must be an integer, got 2.7"),
        ("http", {"url": HTTP_URL, "timeout_s": -1},
         "timeout_s must be a finite number > 0, got -1.0"),
        ("http", {"url": HTTP_URL, "timeout_s": 0},
         "timeout_s must be a finite number > 0, got 0.0"),
        ("http", {"url": HTTP_URL, "timeout_s": float("inf")},
         "timeout_s must be a finite number > 0, got inf"),
    ], ids=["oracle-unknown", "oracle-mistyped", "oracle-forced-counts",
            "oracle-forced-mentions", "oracle-token-prob", "oracle-prob-jitter",
            "oracle-negative-cost", "oracle-forced-counts-not-a-list", "http-no-url",
            "http-empty-url", "http-unknown", "http-mistyped", "http-negative-timeout",
            "http-zero-timeout", "http-infinite-timeout"])
    def test_bad_backend_setting_rejected_before_writing(self, tmp_path, corpus_path, capsys,
                                                         backend, settings, message):
        out = tmp_path / "out"
        code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--backend", backend, "--out", str(out),
                     "--backend-config", write_json(tmp_path, "backend.json", settings)])
        assert code == 1
        assert f"parner: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--template", "t.json"), ("--max-defects", "3")])
    def test_eval_takes_neither_template_nor_max_defects(self, tmp_path, corpus_path,
                                                         flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["eval", "--corpus", corpus_path, "--labels", LABELS_ARG,
                  "--pred", corpus_path, "--out", str(out), flag, value])
        assert err.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("reformat", ["--formats", "pair,bogus"],
         "unknown format: 'bogus' (formats takes pair, aug, struct, onestep)"),
        ("reformat", ["--formats", "pair,aug,pair"], "formats names format 'pair' twice"),
        ("bench", ["--modes", "onestep,autoreg-struct,onestep"],
         "modes names mode 'onestep' twice"),
        ("reformat", ["--formats", ""], "formats must name at least one format"),
        ("reformat", ["--formats", ","], "formats must name at least one format"),
        ("bench", ["--modes", ""], "modes must name at least one mode"),
    ], ids=["unknown-format", "repeated-format", "repeated-mode", "empty-formats",
            "comma-formats", "empty-modes"])
    def test_bad_list_rejected_before_writing(self, tmp_path, corpus_path, capsys,
                                              command, flags, message):
        out = tmp_path / "out"
        code = main([command, "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--out", str(out), *flags])
        assert code == 1
        assert f"parner: error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_decode_then_eval(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "out"
        assert main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--out", str(out)]) == 0
        code = main(["eval", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--pred", str(out / "predictions.jsonl"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["evaluation"]["f1"] == 1.0
        assert (out / "report.md").exists()
        assert "micro F1 1.0000" in capsys.readouterr().out

    def test_set_semantics_flag(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({
            "id": "d", "text": "Italy beat Italy",
            "mentions": [{"label": "LOC", "text": "Italy"},
                         {"label": "LOC", "text": "Italy"}],
        }) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({
            "id": "d", "text": "Italy beat Italy",
            "mentions": [{"label": "LOC", "text": "Italy"}],
        }) + "\n", encoding="utf-8")
        base = ["eval", "--corpus", str(gold), "--labels", LABELS_ARG,
                "--pred", str(pred), "--out", str(tmp_path / "out")]
        assert main(base) == 0
        multiset_f1 = json.loads(
            (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        )["evaluation"]["f1"]
        assert multiset_f1 == pytest.approx(2 / 3)
        assert main(base + ["--semantics", "set"]) == 0
        set_f1 = json.loads(
            (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        )["evaluation"]["f1"]
        assert set_f1 == 1.0

    def test_id_mismatch_fails(self, tmp_path, corpus_path, labels, capsys):
        pred = write_corpus(tmp_path, make_corpus(3, labels, seed=4), name="pred.jsonl")
        code = main(["eval", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--pred", pred, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ids differ" in capsys.readouterr().err

    def test_missing_pred_flag(self, corpus_path, capsys):
        assert main(["eval", "--corpus", corpus_path, "--labels", LABELS_ARG]) == 1
        assert "--pred" in capsys.readouterr().err

    def test_report_json_layout(self, tmp_path, labels):
        corpus = write_corpus(tmp_path, make_corpus(6, labels, seed=4))
        backend_config = write_json(tmp_path, "backend.json", {"p_count": 0.3, "p_index": 0.3})
        out = tmp_path / "out"
        assert main(["decode", "--corpus", corpus, "--labels", LABELS_ARG,
                     "--backend-config", backend_config, "--seed", "3", "--out", str(out)]) == 0
        assert main(["eval", "--corpus", corpus, "--labels", LABELS_ARG,
                     "--pred", str(out / "predictions.jsonl"), "--out", str(out)]) == 0
        gold = parse_spans_json(Path(corpus).read_text(encoding="utf-8"), labels)
        pred = parse_spans_json((out / "predictions.jsonl").read_text(encoding="utf-8"), labels)
        report = micro_f1({doc.id: ann.mentions for doc, ann in pred},
                          {doc.id: ann.mentions for doc, ann in gold}, labels)
        assert report.f1 < 1.0
        expected = json.dumps({"evaluation": dataclasses.asdict(report)},
                              indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert (out / "report.json").read_text(encoding="utf-8") == expected


class TestBench:
    def test_mode_comparison(self, tmp_path, labels, capsys):
        corpus = write_corpus(tmp_path, make_corpus(8, labels, seed=6))
        backend_config = write_json(tmp_path, "backend.json",
                                    {"fixed_overhead_ms": 25.0})
        out = tmp_path / "out"
        code = main(["bench", "--corpus", corpus, "--labels", LABELS_ARG,
                     "--modes", "pair-multi,pair-batch,autoreg-struct",
                     "--baseline", "autoreg-struct",
                     "--backend-config", backend_config,
                     "--repeats", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert payload["baseline"] == "autoreg-struct"
        latencies = {mode: entry["latency"]["mean_example_latency_ms"]
                     for mode, entry in payload["modes"].items()}
        assert latencies["pair-multi"] < latencies["pair-batch"] < latencies["autoreg-struct"]
        assert all(entry["f1"] == 1.0 for entry in payload["modes"].values())
        speedups = payload["speedup"]
        assert speedups["autoreg-struct/pair-multi"] > 1.0
        assert (out / "bench.md").exists()
        console = capsys.readouterr().out
        assert "speedup autoreg-struct/pair-multi" in console

    def test_markdown_has_a_micro_f1_row_for_every_mode(self, tmp_path, labels):
        corpus = write_corpus(tmp_path, make_corpus(6, labels, seed=6))
        backend_config = write_json(tmp_path, "backend.json", {"p_count": 0.3, "p_index": 0.3})
        out = tmp_path / "out"
        assert main(["bench", "--corpus", corpus, "--labels", LABELS_ARG, "--repeats", "1",
                     "--backend-config", backend_config, "--seed", "3", "--out", str(out)]) == 0
        payload = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        markdown = (out / "bench.md").read_text(encoding="utf-8")
        rows = "".join(f"| {mode} | {payload['modes'][mode]['f1']:.4f} |\n" for mode in MODES)
        assert markdown.endswith("\n\n## Micro F1\n\n| run | f1 |\n| --- | --- |\n" + rows)

    def test_backend_built_once_for_every_mode(self, tmp_path, corpus_path, monkeypatch):
        built = []

        class CountingOracle(OracleBackend):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("parner.cli.OracleBackend", CountingOracle)
        code = main(["bench", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--modes", "pair-multi,onestep,autoreg-struct",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert len(built) == 1

    def test_zero_latency_speedups_are_null(self, tmp_path, corpus_path, capsys):
        # CostModel accepts ms_per_token 0, so every latency is 0 and no speedup is defined
        out = tmp_path / "out"
        assert main(["bench", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--modes", "pair-multi,autoreg-struct", "--backend-config",
                     write_json(tmp_path, "backend.json", {"ms_per_token": 0}),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert payload["speedup"] == {"autoreg-struct/pair-multi": None}
        markdown = (out / "bench.md").read_text(encoding="utf-8")
        assert "| autoreg-struct/pair-multi | n/a |" in markdown
        assert "speedup autoreg-struct/pair-multi: n/a\n" in capsys.readouterr().out
        assert (out / "resolved_config.json").exists()

    def test_baseline_must_be_benched(self, tmp_path, corpus_path, capsys):
        code = main(["bench", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--modes", "pair-multi", "--baseline", "autoreg-struct",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "baseline" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reformat", "decode", "eval", "bench"])
def test_every_command_writes_its_resolved_config(tmp_path, corpus_path, command):
    out = tmp_path / "out"
    args = [command, "--corpus", corpus_path, "--labels", LABELS_ARG, "--out", str(out)]
    if command == "eval":
        args += ["--pred", corpus_path]
    if command == "bench":
        args += ["--modes", "onestep", "--baseline", "onestep", "--repeats", "1"]
    assert main(args) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert snapshot["command"] == command and snapshot["out"] == str(out)


@pytest.mark.parametrize("command", ["decode", "bench"])
def test_one_repeat_by_default(tmp_path, corpus_path, command):
    # the oracle attributes the same latency on every repeat
    out = tmp_path / "out"
    args = [command, "--corpus", corpus_path, "--labels", LABELS_ARG, "--out", str(out)]
    if command == "bench":
        args += ["--modes", "onestep", "--baseline", "onestep"]
    assert main(args) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert snapshot["repeats"] == 1


class _PassOracle(OracleBackend):
    """An oracle for runs of one request per document: on pass k (from 0)
    over the corpus each answer comes 10 * k ms later, and after pass 0 it
    is an unreadable "?"."""

    def __init__(self, pairs, *args, **kwargs):
        super().__init__(pairs, *args, **kwargs)
        self._documents = len(pairs)
        self._calls = 0
        self._lock = threading.Lock()

    def generate(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            k, self._calls = self._calls // self._documents, self._calls + 1
        result = super().generate(request)
        return result if k == 0 else CompletionResult(("?",), (), "?", "eos",
                                                      result.latency_ms + 10.0 * k)


class TestRepeats:
    """``--repeats`` runs whole passes over the corpus; only the first is kept,
    and each document's latency is its mean over the passes."""

    def _decode(self, tmp_path, corpus_path, repeats: int):
        out = tmp_path / f"repeats-{repeats}"
        assert main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                     "--mode", "autoreg-struct", "--repeats", str(repeats),
                     "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()]
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        return rows, metrics, (out / "predictions.jsonl").read_text(encoding="utf-8")

    def test_latency_is_mean_over_passes(self, tmp_path, corpus_path, monkeypatch):
        monkeypatch.setattr(cli, "OracleBackend", _PassOracle)
        once, _, once_predictions = self._decode(tmp_path, corpus_path, 1)
        rows, metrics, predictions = self._decode(tmp_path, corpus_path, 3)
        assert predictions == once_predictions
        assert all(first["repeat_latencies"] is None for first in once)
        for first, row in zip(once, rows):
            latency = first["example_latency_ms"]
            assert row["repeat_latencies"] == [latency, latency + 10.0, latency + 20.0]
            assert row["example_latency_ms"] == statistics.fmean(row["repeat_latencies"])
            # mentions, traces and defects are pass 1's
            assert row["defects"] == first["defects"] == []
            assert {key: row[key] for key in ("sequences", "generated_tokens")} == \
                {key: first[key] for key in ("sequences", "generated_tokens")}
        assert metrics["total_defects"] == 0
        assert metrics["latency"]["mean_example_latency_ms"] == \
            statistics.fmean(row["example_latency_ms"] for row in rows)


class TestEmptyCorpus:
    @pytest.mark.parametrize("command", ["decode", "bench"])
    @pytest.mark.parametrize("empty", ["empty-file", "max-mentions-0"])
    def test_refused_before_the_backend_is_built(self, tmp_path, corpus_path, capsys,
                                                 monkeypatch, command, empty):
        def no_backend(*args, **kwargs):
            raise AssertionError("no backend expected")

        monkeypatch.setattr(cli, "_make_backend", no_backend)
        out = tmp_path / "out"
        corpus, extra, dropped = ((write_corpus(tmp_path, [], "empty.jsonl"), [], 0)
                                  if empty == "empty-file"
                                  else (corpus_path, ["--max-mentions", "0"], 12))
        assert main([command, "--corpus", corpus, "--labels", LABELS_ARG, *extra,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"parner: error: the corpus has no documents to "
                                           f"decode ({dropped} dropped by --max-mentions)\n")
        assert not out.exists()

    def test_reformat_writes_an_empty_corpus(self, tmp_path):
        out = tmp_path / "out"
        assert main(["reformat", "--corpus", write_corpus(tmp_path, []), "--labels", LABELS_ARG,
                     "--out", str(out)]) == 0
        assert json.loads((out / "stats.json").read_text(encoding="utf-8"))["documents"] == 0


class _OracleHandler(BaseHTTPRequestHandler):
    """Serves completions over HTTP by delegating to an in-process oracle."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        request = CompletionRequest(
            prompt=payload["prompt"],
            max_new_tokens=payload.get("max_tokens", 512),
            stop=tuple(payload.get("stop", ())),
            want_logprobs=payload.get("logprobs", True),
        )
        result = self.server.oracle.generate(request)
        finish = {"eos": "eos", "stop_string": "stop", "length": "length"}[result.stop_reason]
        body = json.dumps({
            "text": result.text,
            "tokens": list(result.tokens),
            "token_logprobs": list(result.token_logprobs),
            "finish_reason": finish,
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _FixedAnswerHandler(BaseHTTPRequestHandler):
    """Answers every completion request with ``server.status`` and ``server.body``."""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.server.body)))
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, *args):
        pass


def _oracle_server(pairs, labels, template):
    """A completion server over ``pairs``; yields its URL."""
    return _serving(_OracleHandler, oracle=OracleBackend(pairs, labels, template))


@contextlib.contextmanager
def _serving(handler, **attributes):
    """A completion server whose ``handler`` reads ``attributes`` off the server;
    yields its URL."""
    server = QuietHTTPServer(("127.0.0.1", 0), handler)
    for name, value in attributes.items():
        setattr(server, name, value)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        yield f"http://{host}:{port}/v1/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHttpEndToEnd:
    def test_decode_via_http_backend(self, tmp_path, labels, template):
        pairs = make_corpus(5, labels, seed=8)
        corpus = write_corpus(tmp_path, pairs)
        with _oracle_server(pairs, labels, template) as url:
            backend_config = write_json(tmp_path, "backend.json", {"url": url})
            for mode in ("pair-multi", "pair-batch"):
                out = tmp_path / mode
                code = main(["decode", "--corpus", corpus, "--labels", LABELS_ARG,
                             "--backend", "http", "--backend-config", backend_config,
                             "--mode", mode, "--out", str(out)])
                assert code == 0
                pred = parse_spans_json(
                    (out / "predictions.jsonl").read_text(encoding="utf-8"), labels)
                for (_, p), (_, g) in zip(pred, pairs):
                    assert sorted((m.label, m.text) for m in p.mentions) == \
                        sorted((m.label, m.text) for m in g.mentions)
                metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
                assert metrics["latency"]["mean_example_latency_ms"] > 0
                assert metrics["total_defects"] == 0

    @pytest.mark.parametrize("status, body, reason", [
        (200, '{"text": "[]", "tokens": ["[]"], "token_logprobs": [NaN]}',
         "token_logprobs must hold no NaN or +inf, got nan"),
        (200, '{"text": "[]", "tokens": ["[]"], "token_logprobs": [-1%s]}' % ("0" * 400),
         "int too large to convert to float"),
        (200, '{"text": "[]!", "tokens": ["[]"], "token_logprobs": [-0.1]}',
         "tokens concatenate to '[]', not to text '[]!'"),
        (500, '{"error": "down"}', "failed after 1 attempts: server error 500"),
    ], ids=["nan-logprob", "huge-integer-logprob", "misaligned-text", "server-error"])
    def test_broken_answers_are_defects_that_trip_the_threshold(self, tmp_path, capsys,
                                                                status, body, reason):
        doc = Document(id="d0", text="Zed met Ann .")
        corpus = write_corpus(tmp_path, [(doc, GoldAnnotation(doc_id="d0", mentions=[]))])
        out = tmp_path / "out"
        with _serving(_FixedAnswerHandler, status=status, body=body.encode("utf-8")) as url:
            args = ["decode", "--corpus", corpus, "--labels", LABELS_ARG, "--mode", "onestep",
                    "--backend", "http", "--out", str(out), "--backend-config",
                    write_json(tmp_path, "backend.json", {"url": url, "max_retries": 0})]
            assert main(args) == 2
            assert "defects: 4 (threshold 0)" in capsys.readouterr().err
            outcome = json.loads((out / "outcomes.jsonl").read_text(encoding="utf-8"))
            assert len(outcome["defects"]) == 4
            assert all(reason in defect for defect in outcome["defects"])
            assert main(args + ["--max-defects", "4"]) == 0

    def test_bench_with_every_request_failed(self, tmp_path, labels, capsys, monkeypatch):
        for key in list(os.environ):
            if key.lower().endswith("_proxy"):
                monkeypatch.delenv(key)
        with socket.socket() as listener:  # a port no server listens on once closed
            listener.bind(("127.0.0.1", 0))
            port = listener.getsockname()[1]
        corpus = write_corpus(tmp_path, make_corpus(2, labels, seed=8))
        backend_config = write_json(tmp_path, "backend.json", {
            "url": f"http://127.0.0.1:{port}/v1/completions", "max_retries": 0})
        out = tmp_path / "out"
        assert main(["bench", "--corpus", corpus, "--labels", LABELS_ARG, "--backend", "http",
                     "--backend-config", backend_config, "--modes", "pair-multi,autoreg-struct",
                     "--out", str(out)]) == 2
        assert "defects: 10 (threshold 0)" in capsys.readouterr().err
        payload = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert payload["speedup"] == {"autoreg-struct/pair-multi": None}
        assert payload["modes"]["pair-multi"]["latency"]["mean_example_latency_ms"] == 0.0
        assert (out / "bench.md").exists() and (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("config, message", [
        ({"max_in_flight": 0}, "max_retries >= 0, got 0 and 2"),
        ({"max_in_flight": -1}, "max_retries >= 0, got -1 and 2"),
        ({"max_retries": -1}, "max_retries >= 0, got 8 and -1"),
    ], ids=["no-flight", "negative-flight", "negative-retries"])
    def test_bad_http_limits_rejected(self, tmp_path, corpus_path, capsys, config, message):
        out = tmp_path / "out"
        backend_config = write_json(tmp_path, "backend.json",
                                    {"url": "http://127.0.0.1:9/v1/completions", **config})
        codes = []
        # a semaphore of 0 would block every request forever: the join timeout is the check
        worker = threading.Thread(target=lambda: codes.append(main([
            "decode", "--corpus", corpus_path, "--labels", LABELS_ARG, "--backend", "http",
            "--backend-config", backend_config, "--out", str(out)])), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "decode hung"
        assert codes == [1]
        assert f"parner: error: max_in_flight must be >= 1 and {message}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route, message", [
        ("socks-proxy", "unsupported proxy URL: 'socks5://"),
        ("ftp-url", "unsupported URL: 'ftp://"),
        ("missing-ca-bundle", "invalid path: "),
    ])
    def test_bad_route_exits_before_decoding(self, tmp_path, corpus_path, capsys, monkeypatch,
                                             route, message):
        for key in list(os.environ):
            if key.lower().endswith("_proxy"):
                monkeypatch.delenv(key)
        out = tmp_path / "out"
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            authority = "127.0.0.1:{}".format(listener.getsockname()[1])
            url = f"http://{authority}/v1/completions"
            if route == "socks-proxy":
                monkeypatch.setenv("HTTP_PROXY", f"socks5://alice:s3cret@{authority}")
            elif route == "ftp-url":
                url = url.replace("http", "ftp", 1)
            else:
                url = url.replace("http", "https", 1)
                monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "missing.pem"))
            backend_config = write_json(tmp_path, "backend.json", {"url": url})
            code = main(["decode", "--corpus", corpus_path, "--labels", LABELS_ARG,
                         "--backend", "http", "--backend-config", backend_config,
                         "--out", str(out)])
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):  # no connection was made
                listener.accept()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("parner: error: ") and message in err
        assert "s3cret" not in err
        assert not out.exists()

    def test_route_is_mounted_for_its_origin_alone(self, monkeypatch):
        for key in list(os.environ):
            if key.lower().endswith("_proxy"):
                monkeypatch.delenv(key)
        with contextlib.closing(HttpBackend("http://127.0.0.1:1234")) as backend:
            session = backend._session
            assert session.get_adapter("http://127.0.0.1:1234/x") is backend._adapter
            assert session.get_adapter("http://127.0.0.1:12345/x") is not backend._adapter

    @pytest.mark.parametrize("command, fails", [
        ("decode", False), ("bench", False), ("decode", True),
    ], ids=["decode", "bench", "decode-raises"])
    def test_backend_closed_when_the_command_ends(self, tmp_path, labels, template,
                                                  monkeypatch, command, fails):
        closed = []
        close = HttpBackend.close
        monkeypatch.setattr(HttpBackend, "close", lambda self: closed.append(close(self)))
        if fails:
            def boom(*args, **kwargs):
                raise RuntimeError("decode failed")

            monkeypatch.setattr(cli, "run_corpus", boom)
        pairs = make_corpus(2, labels, seed=8)
        corpus = write_corpus(tmp_path, pairs)
        with _oracle_server(pairs, labels, template) as url:
            argv = [command, "--corpus", corpus, "--labels", LABELS_ARG, "--backend", "http",
                    "--backend-config", write_json(tmp_path, "backend.json", {"url": url}),
                    "--out", str(tmp_path / "out")]
            if command == "bench":
                argv += ["--modes", "pair-multi,autoreg-struct"]
            with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
                assert main(argv) == 0
        assert closed == [None]


def test_importing_the_cli_loads_no_http_client():
    """requests, urllib3 and ssl load only when an HTTP backend is made."""
    src = str(Path(parner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, parner.cli; print(sorted(m for m in "
            "('requests', 'urllib3', 'ssl', 'charset_normalizer') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.strip() == "[]"
