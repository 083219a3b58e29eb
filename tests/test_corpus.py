"""Corpus loading, label handling and BIO round trips."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parner.corpus import (
    CorpusError,
    Document,
    GoldAnnotation,
    LabelSet,
    Mention,
    bio_spans,
    emit_spans_json,
    filter_max_mentions,
    parse_bio,
    parse_spans_json,
)

from helpers import mention_multiset, spans_to_bio


class TestLabelSet:
    def test_order_and_rank(self):
        ls = LabelSet(["PER", "MISC", "LOC", "ORG"])
        assert list(ls) == ["PER", "MISC", "LOC", "ORG"]
        assert ls.rank("PER") == 0
        assert ls.rank("ORG") == 3
        assert "LOC" in ls
        assert "GPE" not in ls
        assert len(ls) == 4

    def test_duplicate_labels_rejected(self):
        with pytest.raises(CorpusError):
            LabelSet(["PER", "PER"])

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            LabelSet([])

    def test_surface_map_round_trip(self):
        ls = LabelSet(["LOC", "PER"], surface_map={"LOC": "地点", "PER": "名称"})
        assert ls.surface("LOC") == "地点"
        assert ls.canonical("地点") == "LOC"
        with pytest.raises(CorpusError):
            ls.canonical("LOC")  # strict: only surfaces invert

    def test_repr_lists_labels_in_order(self):
        assert repr(LabelSet(["PER", "LOC"])) == "LabelSet(['PER', 'LOC'])"

    def test_surface_map_must_cover_all_labels(self):
        with pytest.raises(CorpusError):
            LabelSet(["LOC", "PER"], surface_map={"LOC": "地点"})

    def test_surface_map_must_be_invertible(self):
        with pytest.raises(CorpusError):
            LabelSet(["LOC", "PER"], surface_map={"LOC": "x", "PER": "x"})

    @pytest.mark.parametrize("surface_map, message", [
        ({"LOC": "地点", "PER": 5}, "must map labels to strings"),
        ({"LOC": "地点", "PER": None}, "must map labels to strings"),
        (["LOC", "PER"], "surface mapping must be a dict, got"),
        ("LOC", "surface mapping must be a dict, got"),
    ], ids=["int-surface", "null-surface", "list", "string"])
    def test_surface_map_must_map_labels_to_strings(self, surface_map, message):
        with pytest.raises(CorpusError, match=message):
            LabelSet(["LOC", "PER"], surface_map=surface_map)

    def test_unknown_label_lookups_raise(self):
        ls = LabelSet(["LOC"])
        with pytest.raises(CorpusError):
            ls.rank("PER")
        with pytest.raises(CorpusError):
            ls.surface("PER")
        with pytest.raises(CorpusError):
            ls.canonical("PER")

    def test_unknown_label_surface_message(self):
        ls = LabelSet(["LOC"], {"LOC": "地点"})
        with pytest.raises(CorpusError, match=r"^unknown label: 'PER'$"):
            ls.surface("PER")
        with pytest.raises(CorpusError, match=r"^unknown label: '地点'$"):
            ls.surface("地点")  # a surface is no label

    def test_apply_label_map(self):
        mapped = LabelSet(["LOC", "PER"], surface_map={"LOC": "location", "PER": "person"})
        assert mapped.surface("LOC") == "location"
        assert list(mapped) == ["LOC", "PER"]

    def test_apply_label_map_requires_every_label(self):
        with pytest.raises(CorpusError):
            LabelSet(["LOC", "PER"], surface_map={"LOC": "location"})

    def test_surface_map_rejects_keys_that_are_not_labels(self):
        surface_map = {"LOC": "x", "PER": "p", "MISC": "m", "ORG": "o", "PERR": "y"}
        with pytest.raises(CorpusError, match=r"unknown labels: \['PERR'\]"):
            LabelSet(["PER", "MISC", "LOC", "ORG"], surface_map=surface_map)


class TestBioSpans:
    def test_basic(self):
        tags = ["B-PER", "I-PER", "O", "B-LOC"]
        assert bio_spans(tags) == [("PER", 0, 2), ("LOC", 3, 4)]

    def test_adjacent_b_tags_split(self):
        tags = ["B-LOC", "B-LOC"]
        assert bio_spans(tags) == [("LOC", 0, 1), ("LOC", 1, 2)]

    def test_dangling_i_treated_as_begin(self):
        tags = ["O", "I-LOC", "I-LOC", "O", "I-PER"]
        assert bio_spans(tags) == [("LOC", 1, 3), ("PER", 4, 5)]

    def test_label_switch_inside_run_starts_new_span(self):
        tags = ["B-PER", "I-LOC"]
        assert bio_spans(tags) == [("PER", 0, 1), ("LOC", 1, 2)]

    def test_dangling_i_error_policy(self):
        with pytest.raises(CorpusError):
            bio_spans(["O", "I-LOC"], malformed="error")

    def test_bad_tag_rejected(self):
        with pytest.raises(CorpusError):
            bio_spans(["B-PER", "X-PER"])

    @pytest.mark.parametrize("tag", ["B-", "I-"])
    def test_tag_without_label_rejected(self, tag):
        with pytest.raises(CorpusError, match=f"malformed BIO tag at position 1: '{tag}'"):
            bio_spans(["O", tag])

    def test_unknown_malformed_policy_rejected(self):
        with pytest.raises(CorpusError, match="unknown malformed-tag policy: 'drop'"):
            bio_spans(["O"], malformed="drop")

    def test_spans_to_bio_inverse(self):
        spans = [("PER", 0, 2), ("LOC", 3, 4)]
        tags = spans_to_bio(spans, 5)
        assert tags == ["B-PER", "I-PER", "O", "B-LOC", "O"]
        assert bio_spans(tags) == spans

    def test_spans_to_bio_rejects_overlap(self):
        with pytest.raises(CorpusError):
            spans_to_bio([("PER", 0, 2), ("LOC", 1, 3)], 4)

    def test_spans_to_bio_rejects_out_of_bounds(self):
        with pytest.raises(CorpusError):
            spans_to_bio([("PER", 0, 5)], 4)

    @given(
        st.lists(
            st.sampled_from(
                ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG"]
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_decode_encode_decode_is_stable(self, tags):
        spans = bio_spans(tags)
        rebuilt = spans_to_bio(spans, len(tags))
        assert bio_spans(rebuilt) == spans


class TestParseBio:
    def test_two_documents(self, labels):
        text = (
            "Cuttitta B-PER\n"
            "joined O\n"
            "Italy B-LOC\n"
            "\n"
            "nothing O\n"
            "here O\n"
        )
        pairs = parse_bio(text, labels)
        assert len(pairs) == 2
        doc0, gold0 = pairs[0]
        assert doc0.id == "0"
        assert doc0.text == "Cuttitta joined Italy"
        assert gold0.mentions == [Mention("PER", "Cuttitta"), Mention("LOC", "Italy")]
        doc1, gold1 = pairs[1]
        assert doc1.id == "1"
        assert doc1.text == "nothing here"
        assert gold1.mentions == []

    def test_multi_token_mention(self, labels):
        text = "1995 B-MISC\nWorld I-MISC\nCup I-MISC\n"
        pairs = parse_bio(text, labels)
        assert pairs[0][1].mentions == [Mention("MISC", "1995 World Cup")]

    def test_empty_joiner_for_unspaced_scripts(self):
        ls = LabelSet(["LOC"])
        text = "北 B-LOC\n京 I-LOC\n市 O\n"
        pairs = parse_bio(text, ls, joiner="")
        doc, gold = pairs[0]
        assert doc.text == "北京市"
        assert gold.mentions == [Mention("LOC", "北京")]

    def test_extra_columns_use_last(self, labels):
        text = "Cuttitta NNP B-PER\n"
        pairs = parse_bio(text, labels)
        assert pairs[0][1].mentions == [Mention("PER", "Cuttitta")]

    def test_unknown_label_reports_line(self, labels):
        with pytest.raises(CorpusError) as err:
            parse_bio("a O\nParis B-GPE\n", labels)
        assert "GPE" in str(err.value)
        assert "2" in str(err.value)

    def test_line_without_tag_column_reports_line(self, labels):
        with pytest.raises(CorpusError,
                           match="line 2: expected token and tag columns: 'Paris'"):
            parse_bio("a O\nParis\n", labels)

    def test_trailing_blank_lines_ignored(self, labels):
        pairs = parse_bio("a O\n\n\n", labels)
        assert len(pairs) == 1

    def test_empty_input(self, labels):
        assert parse_bio("", labels) == []

    def test_docstart_lines_separate_documents(self, labels):
        # CoNLL-2003: two articles, three sentences; one separator is bare
        text = (
            "-DOCSTART- -X- -X- O\n"
            "\n"
            "EU NNP B-NP B-ORG\n"
            "rejects VBZ B-VP O\n"
            "German JJ B-NP B-MISC\n"
            "call NN I-NP O\n"
            ". . O O\n"
            "\n"
            "Peter NNP B-NP B-PER\n"
            "Blackburn NNP I-NP I-PER\n"
            "-DOCSTART-\n"
            "BRUSSELS NNP B-NP B-LOC\n"
            "1996-08-22 CD I-NP O\n"
        )
        pairs = parse_bio(text, labels)
        assert [(doc.id, doc.text, gold.doc_id, gold.mentions) for doc, gold in pairs] == [
            ("0", "EU rejects German call .", "0",
             [Mention("ORG", "EU"), Mention("MISC", "German")]),
            ("1", "Peter Blackburn", "1", [Mention("PER", "Peter Blackburn")]),
            ("2", "BRUSSELS 1996-08-22", "2", [Mention("LOC", "BRUSSELS")]),
        ]

    def test_dangling_i_error_policy_propagates(self, labels):
        with pytest.raises(CorpusError):
            parse_bio("Paris I-LOC\n", labels, malformed="error")
        pairs = parse_bio("Paris I-LOC\n", labels)
        assert pairs[0][1].mentions == [Mention("LOC", "Paris")]


class TestSpansJson:
    def test_round_trip(self, labels, cuttitta):
        doc, gold = cuttitta
        other = (Document(id="d1", text="no entities here"),
                 GoldAnnotation(doc_id="d1", mentions=[]))
        blob = emit_spans_json([(doc, gold), other])
        pairs = parse_spans_json(blob, labels)
        assert pairs == [(doc, gold), other]

    def test_invalid_json_line_numbered(self, labels):
        with pytest.raises(CorpusError) as err:
            parse_spans_json('{"id": "a", "text": "x", "mentions": []}\nnot json\n', labels)
        assert "2" in str(err.value)

    def test_duplicate_id_rejected(self, labels):
        row = json.dumps({"id": "a", "text": "x", "mentions": []})
        with pytest.raises(CorpusError):
            parse_spans_json(row + "\n" + row + "\n", labels)

    def test_unknown_mention_label_rejected(self, labels):
        row = json.dumps({
            "id": "a", "text": "Paris",
            "mentions": [{"label": "GPE", "text": "Paris"}],
        })
        with pytest.raises(CorpusError) as err:
            parse_spans_json(row + "\n", labels)
        assert "GPE" in str(err.value)

    def test_malformed_record_rejected(self, labels):
        with pytest.raises(CorpusError):
            parse_spans_json('["not", "a", "dict"]\n', labels)
        with pytest.raises(CorpusError):
            parse_spans_json(json.dumps({"id": "a"}) + "\n", labels)
        row = json.dumps({"id": "a", "text": "x", "mentions": ["bad"]})
        with pytest.raises(CorpusError):
            parse_spans_json(row + "\n", labels)

    @pytest.mark.parametrize("blank", ["", "  ", "\t", "\u3000"])
    def test_blank_lines_skipped_and_counted(self, labels, blank):
        row = json.dumps({"id": "a", "text": "x"})
        assert len(parse_spans_json(f"{blank}\n{row}\n{blank}\n", labels)) == 1
        with pytest.raises(CorpusError, match="^line 3: invalid JSON"):
            parse_spans_json(f"{row}\n{blank}\nnot json\n", labels)

    @pytest.mark.parametrize("mention, message", [
        ("bad", "malformed mention entry: 'bad'"),
        (None, "malformed mention entry: None"),
        (["PER", "Bob"], "malformed mention entry: ['PER', 'Bob']"),
        ({}, "malformed mention entry: {}"),
        ({"text": "Bob"}, "malformed mention entry: {'text': 'Bob'}"),
        ({"label": "PER"}, "malformed mention entry: {'label': 'PER'}"),
        ({"label": 1, "text": "Bob"}, "malformed mention entry: {'label': 1, 'text': 'Bob'}"),
        ({"label": "PER", "text": None},
         "malformed mention entry: {'label': 'PER', 'text': None}"),
        ({"label": "GPE", "text": "Bob"}, "mention label 'GPE' not in label set"),
        ({"label": "GPE", "text": 1}, "malformed mention entry: {'label': 'GPE', 'text': 1}"),
    ], ids=["string", "null", "list", "empty", "no-label", "no-text", "label-number",
            "text-null", "unknown-label", "unknown-label-text-number"])
    def test_malformed_mention_messages(self, labels, mention, message):
        row = json.dumps({"id": "a", "text": "Bob", "mentions": [
            {"label": "PER", "text": "Bob"}, mention]})
        with pytest.raises(CorpusError, match=f"^line 2: {re.escape(message)}$"):
            parse_spans_json("\n" + row + "\n", labels)

    @pytest.mark.parametrize("record, message", [
        ({"id": 1, "text": "x"}, "line 1: 'id' and 'text' must be strings"),
        ({"id": "a", "text": None}, "line 1: 'id' and 'text' must be strings"),
        ({"id": "a", "text": "x", "mentions": {"label": "PER"}},
         "line 1: 'mentions' must be a list"),
    ], ids=["id-number", "text-null", "mentions-object"])
    def test_mistyped_record_rejected(self, labels, record, message):
        with pytest.raises(CorpusError, match=f"^{message}$"):
            parse_spans_json(json.dumps(record) + "\n", labels)

    def test_missing_mentions_key_defaults_empty(self, labels):
        pairs = parse_spans_json(json.dumps({"id": "a", "text": "x"}) + "\n", labels)
        assert pairs[0][1].mentions == []


class TestMention:
    def test_hashes_and_compares_as_its_fields(self):
        # set and dict orders of mentions depend only on their fields
        assert hash(Mention("PER", "Bob")) == hash(("PER", "Bob"))
        assert Mention("PER", "Bob") == ("PER", "Bob")
        assert Mention(label="PER", text="Bob") == Mention("PER", "Bob")
        assert repr(Mention("PER", "Bob")) == "Mention(label='PER', text='Bob')"


class TestHelpers:
    def test_mention_multiset(self, cuttitta):
        _, gold = cuttitta
        assert mention_multiset(gold.mentions) == Counter({
            ("PER", "Cuttitta"): 1,
            ("MISC", "1995 World Cup"): 1,
            ("LOC", "Italy"): 1,
            ("LOC", "England"): 1,
        })

    def test_by_label_preserves_order(self, cuttitta):
        _, gold = cuttitta
        groups = gold.by_label(["LOC", "ORG"])
        assert [m.text for m in groups["LOC"]] == ["Italy", "England"]
        assert groups["ORG"] == []

    def test_by_label_groups_as_a_filter(self, cuttitta):
        _, gold = cuttitta
        groups = gold.by_label(["ORG", "LOC", "PER"])
        assert list(groups) == ["ORG", "LOC", "PER"]
        assert all(groups[label] == [m for m in gold.mentions if m.label == label]
                   for label in groups)

    def test_filter_max_mentions(self, cuttitta):
        doc, gold = cuttitta
        small = (Document(id="d1", text="x"), GoldAnnotation(doc_id="d1", mentions=[]))
        kept, dropped = filter_max_mentions([(doc, gold), small], 1)
        assert dropped == ["d0"]
        assert [p[0].id for p in kept] == ["d1"]
        kept_all, dropped_none = filter_max_mentions([(doc, gold), small], None)
        assert dropped_none == []
        assert len(kept_all) == 2

    def test_filter_limit_is_total_mentions(self, cuttitta):
        doc, gold = cuttitta  # four mentions in total
        kept, dropped = filter_max_mentions([(doc, gold)], 4)
        assert dropped == []
        kept, dropped = filter_max_mentions([(doc, gold)], 3)
        assert dropped == ["d0"]
