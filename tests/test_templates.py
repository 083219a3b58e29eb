"""Prompt construction and completion parsing for all four formats."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parner.corpus import Document, GoldAnnotation, LabelSet, Mention
from parner.templates import (
    CountParseError,
    PromptTemplate,
    TemplateError,
    build_autoreg_prompt,
    build_count_prompt,
    build_mention_prompt,
    build_onestep_prompt,
    chinese_template,
    count_answer,
    emit_aug,
    emit_onestep,
    emit_struct,
    mention_marker,
    parse_augmented,
    parse_count,
    parse_mention,
    parse_onestep,
    parse_structured,
    read_mention_prompt,
    visible_text,
)

from conftest import completion
from helpers import mention_multiset


class TestPromptConstruction:
    def test_count_prompt_exact(self, template):
        doc = Document(id="x", text="But Fischler agreed to review his proposal")
        prompt = build_count_prompt(doc, "PER", template)
        assert prompt == (
            "text:\nBut Fischler agreed to review his proposal\nentity type:\nPER\n<num>\n"
        )

    def test_mention_prompt_is_strict_extension(self, template, cuttitta):
        doc, _ = cuttitta
        count_prompt = build_count_prompt(doc, "LOC", template)
        p1 = build_mention_prompt(count_prompt, 2, 1, template)
        p2 = build_mention_prompt(count_prompt, 2, 2, template)
        assert p1.startswith(count_prompt)
        assert p1 == count_prompt + "2\n<mention 1>"
        assert p2 == count_prompt + "2\n<mention 2>"

    def test_mention_prompt_multi_digit(self, template):
        p = build_mention_prompt("base", 12, 3, template)
        assert p == "base12\n<mention 3>"

    def test_mention_prompt_index_bounds(self, template):
        with pytest.raises(TemplateError):
            build_mention_prompt("base", 2, 0, template)
        with pytest.raises(TemplateError):
            build_mention_prompt("base", 2, 3, template)
        with pytest.raises(TemplateError):
            build_mention_prompt("base", 0, 1, template)

    @pytest.mark.parametrize("index", [0, -1])
    def test_mention_marker_index_must_be_positive(self, template, index):
        with pytest.raises(TemplateError, match=f"mention index must be >= 1, got {index}"):
            mention_marker(index, template)

    def test_onestep_prompt(self, template):
        doc = Document(id="x", text="some text")
        assert build_onestep_prompt(doc, "LOC", template) == "<entity>LOC<text>some text"

    def test_autoreg_prompt_lists_labels_in_order(self, template, labels):
        doc = Document(id="x", text="some text")
        prompt = build_autoreg_prompt(doc, "struct", labels, template)
        assert prompt == (
            "text:\nsome text\nentity types:\nPER, MISC, LOC, ORG\nannotation:\n"
        )
        aug = build_autoreg_prompt(doc, "aug", labels, template)
        assert aug.endswith("annotated text:\n")
        with pytest.raises(TemplateError):
            build_autoreg_prompt(doc, "pair", labels, template)

    def test_chinese_preset(self):
        t = chinese_template()
        doc = Document(id="x", text="印度在孟买的比赛")
        ls = LabelSet(["LOC"], surface_map={"LOC": "地点"})
        prompt = build_count_prompt(doc, ls.surface("LOC"), t)
        assert prompt.startswith("文本(text):\n印度在孟买的比赛")
        assert "指定NER标签(entity type):\n地点" in prompt
        assert prompt.endswith("<数量>(<num>)\n")
        p1 = build_mention_prompt(prompt, 2, 1, t)
        assert p1 == prompt + "2\n<第1文段>"
        # the baseline prompts' framing is fixed: only the text header changes
        assert build_onestep_prompt(doc, "地点", t) == "<entity>地点<text>印度在孟买的比赛"
        assert build_autoreg_prompt(doc, "struct", ls, t) == (
            "文本(text):\n印度在孟买的比赛\nentity types:\n地点\nannotation:\n")

    def test_only_the_pair_protocol_is_settable(self):
        assert [f.name for f in dataclasses.fields(PromptTemplate)] == [
            "text_header", "entity_header", "count_marker", "count_terminator",
            "mention_marker", "eos_literal", "max_count"]
        with pytest.raises(TypeError):
            PromptTemplate(aug_answer_header="x")

    def test_template_validation(self):
        with pytest.raises(TemplateError):
            PromptTemplate(mention_marker="<mention>")  # no {n}
        with pytest.raises(TemplateError):
            PromptTemplate(mention_marker="<{n} and {n}>")
        with pytest.raises(TemplateError):
            PromptTemplate(count_terminator="")
        with pytest.raises(TemplateError):
            PromptTemplate(max_count=0)

    @pytest.mark.parametrize("fields, message", [
        ({"max_count": "x"}, "max_count must be an integer, got 'x'"),
        ({"max_count": 2.0}, "max_count must be an integer, got 2.0"),
        ({"max_count": True}, "max_count must be an integer, got True"),
        ({"count_terminator": 5}, "count_terminator must be a string, got 5"),
        ({"text_header": None}, "text_header must be a string, got None"),
        ({"mention_marker": ["<mention {n}>"]},
         r"mention_marker must be a string, got \['<mention {n}>'\]"),
    ], ids=["max-count-string", "max-count-float", "max-count-bool", "terminator-int",
            "header-null", "marker-list"])
    def test_template_field_types(self, fields, message):
        with pytest.raises(TemplateError, match=message):
            PromptTemplate(**fields)


# templates whose counts and mention indices must read back, edge cases included
PAIR_TEMPLATES = {
    "english": PromptTemplate(),
    "chinese": chinese_template(),
    "newline-count-marker": PromptTemplate(count_marker="\n"),
    "num-in-both-markers": PromptTemplate(count_marker="\n<num>", mention_marker="\n<num>{n}"),
    "digit-after-index": PromptTemplate(mention_marker="<{n}1>"),
    "digit-inside-markers": PromptTemplate(count_marker="\n<num 1>\n", count_terminator="\n2x"),
    "full-width-digit-ends-marker": PromptTemplate(count_marker="\n数量２"),
    "index-right-after-terminator": PromptTemplate(mention_marker="{n}", max_count=12),
    "eos-starts-terminator": PromptTemplate(count_terminator="<eos>\n"),
    "braces-in-marker": PromptTemplate(mention_marker="{x}<{n}{{>"),
}


class TestTemplateChecks:
    """A template is rejected when a count or mention index it lays out
    could not be read back."""

    @pytest.mark.parametrize("fields, message", [
        ({"count_marker": ""}, "count_marker must be non-empty"),
        ({"count_terminator": ""}, "count_terminator must be non-empty"),
        ({"count_marker": "\n<num>7"}, "must not end in a digit"),
        ({"count_terminator": "\n1", "mention_marker": "{n}"}, "must not end in a digit"),
        ({"mention_marker": "<mention 1{n}>"}, "must not end in a digit"),
        ({"count_terminator": "0"}, "nor count_terminator or eos_literal start with one"),
        ({"count_terminator": "9\n"}, "nor count_terminator or eos_literal start with one"),
        ({"eos_literal": ""}, "eos_literal must be non-empty"),
        ({"eos_literal": "1"}, "nor count_terminator or eos_literal start with one"),
        ({"count_terminator": "\n<eos>"}, "eos_literal '<eos>' must not cut count_terminator"),
    ], ids=["empty-count-marker", "empty-terminator", "count-marker-ends-in-digit",
            "terminator-ends-in-digit-before-index", "digit-before-index",
            "terminator-is-a-digit", "terminator-starts-with-digit", "empty-eos",
            "eos-is-a-digit", "eos-inside-terminator"])
    def test_rejected(self, fields, message):
        with pytest.raises(TemplateError, match=message):
            PromptTemplate(**fields)

    @pytest.mark.parametrize("name", sorted(PAIR_TEMPLATES))
    def test_accepted(self, name):
        assert isinstance(PAIR_TEMPLATES[name], PromptTemplate)


class TestCountAnswer:
    def test_tokens(self, template):
        assert count_answer(12, template) == ["1", "2", "\n"]
        assert count_answer(1, template) == ["1", "\n"]
        assert count_answer(0, template) == ["<eos>"]

    @pytest.mark.parametrize("name", sorted(PAIR_TEMPLATES))
    def test_parse_count_reads_every_count_back(self, name):
        t = PAIR_TEMPLATES[name]
        for n in range(t.max_count + 1):
            tokens = count_answer(n, t)
            assert parse_count(completion("".join(tokens), tokens=tokens), t) == n


class TestReadMentionPrompt:
    @pytest.mark.parametrize("name", sorted(PAIR_TEMPLATES))
    def test_reads_back_what_is_built(self, name, cuttitta):
        t = PAIR_TEMPLATES[name]
        count_prompt = build_count_prompt(cuttitta[0], "LOC", t)
        for count in (1, 2, 9, 10, 11, 100, 1234):
            for index in sorted({1, 2, 10, count - 1, count} & set(range(1, count + 1))):
                prompt = build_mention_prompt(count_prompt, count, index, t)
                assert read_mention_prompt(prompt, t) == (len(count_prompt), index)

    @pytest.mark.parametrize("tail", [
        "２\n<mention １>", "2\n<mention １>", "02\n<mention 01>", "2\n<mention 01>",
        "02\n<mention 1>", "2\n<mention 0>", "0\n<mention 0>", "2\n<mention 3>",
        "2\n<mention >", "\n<mention 1>", "2<mention 1>", "2\n<mention 1> ",
        "2\n\n<mention 1>", "x2\n<mention 1>", "2\n<mention 1x>", "",
    ])
    def test_rejects_what_no_builder_makes(self, template, cuttitta, tail):
        count_prompt = build_count_prompt(cuttitta[0], "LOC", template)
        assert read_mention_prompt(count_prompt + tail, template) is None

    def test_braces_other_than_the_placeholder_are_text(self):
        t = PAIR_TEMPLATES["braces-in-marker"]
        assert build_mention_prompt("\n<num>\n", 12, 3, t) == "\n<num>\n12\n{x}<3{{>"

    def test_count_prompt_must_end_with_the_count_marker(self, template):
        assert read_mention_prompt("base2\n<mention 1>", template) is None
        assert read_mention_prompt("<num>\n2\n<mention 1>", template) is None
        assert read_mention_prompt("\n<num>\n2\n<mention 1>", template) == (7, 1)


class TestParseCount:
    def test_basic(self, template):
        assert parse_count(completion("2\n", tokens=["2", "\n"]), template) == 2

    def test_multi_digit_and_leading_zeros(self, template):
        assert parse_count(completion("12\n", tokens=["1", "2", "\n"]), template) == 12
        assert parse_count(completion("007\n", tokens=["0", "0", "7", "\n"]), template) == 7

    def test_immediate_eos_is_zero(self, template):
        assert parse_count(completion("<eos>", tokens=["<eos>"]), template) == 0

    def test_explicit_zero_not_empty(self, template):
        assert parse_count(completion("0\n", tokens=["0", "\n"]), template) == 0

    def test_content_after_terminator_ignored(self, template):
        assert parse_count(completion("2\ngarbage", tokens=["2", "\ngarbage"]), template) == 2

    def test_non_digit_raises_with_raw_text(self, template):
        with pytest.raises(CountParseError) as err:
            parse_count(completion("many\n", tokens=["many", "\n"]), template)
        assert repr("many\n") in str(err.value)

    def test_mixed_digits_raise(self, template):
        with pytest.raises(CountParseError):
            parse_count(completion("2x\n", tokens=["2x", "\n"]), template)

    def test_non_ascii_digits_raise(self, template):
        with pytest.raises(CountParseError):
            parse_count(completion("٢\n", tokens=["٢", "\n"]), template)

    def test_over_max_count_raises(self, template):
        with pytest.raises(CountParseError):
            parse_count(completion("101\n", tokens=["1", "0", "1", "\n"]), template)

    @given(st.integers(min_value=0, max_value=100))
    def test_render_parse_identity(self, n):
        t = PromptTemplate()
        text = f"{n}\n"
        assert parse_count(completion(text, tokens=list(str(n)) + ["\n"]), t) == n


class TestParseMention:
    def test_split_surface_tokens(self, template):
        c = completion("Italy<eos>", tokens=["Ital", "y", "<eos>"])
        parsed = parse_mention(c, template)
        assert parsed.text == "Italy"
        assert parsed.token_span == (0, 1)

    def test_immediate_eos_is_empty(self, template):
        parsed = parse_mention(completion("<eos>", tokens=["<eos>"]), template)
        assert parsed.text == ""
        assert parsed.token_span is None

    def test_multi_word_surface(self, template):
        c = completion("1995 World Cup<eos>", tokens=["1995", " World", " Cup", "<eos>"])
        parsed = parse_mention(c, template)
        assert parsed.text == "1995 World Cup"
        assert parsed.token_span == (0, 2)

    def test_trailing_terminator_kept(self, template):
        c = completion("Italy\n<eos>", tokens=["Italy", "\n", "<eos>"])
        parsed = parse_mention(c, template)
        assert parsed.text == "Italy\n"
        assert parsed.token_span == (0, 1)

    def test_no_eos_uses_whole_text(self, template):
        c = completion("Italy", tokens=["Italy"], stop_reason="length")
        parsed = parse_mention(c, template)
        assert parsed.text == "Italy"
        assert parsed.token_span == (0, 0)

    def test_visible_text_cuts_at_eos(self, template):
        c = completion("Italy<eos>junk", tokens=["Italy", "<eos>junk"])
        assert visible_text(c, template) == "Italy"


class TestStructFormat:
    def test_emit_worked_example(self, labels, cuttitta):
        _, gold = cuttitta
        assert emit_struct(gold.by_label(labels), labels) == (
            "((PER): (Cuttitta), (MISC): (1995 World Cup), "
            "(LOC): (Italy, England), (ORG): (NULL))"
        )

    def test_emit_all_empty(self, labels):
        gold = GoldAnnotation(doc_id="x", mentions=[])
        assert emit_struct(gold.by_label(labels), labels) == (
            "((PER): (NULL), (MISC): (NULL), (LOC): (NULL), (ORG): (NULL))"
        )

    def test_parse_worked_example(self, labels, cuttitta):
        _, gold = cuttitta
        mentions, defects = parse_structured(emit_struct(gold.by_label(labels), labels), labels)
        assert defects == []
        assert mentions == gold.mentions  # label-set order happens to match here

    def test_parse_repeated_groups_accumulate(self, labels):
        text = "((LOC): (Italy), (LOC): (England))"
        mentions, defects = parse_structured(text, labels)
        assert defects == []
        assert mentions == [Mention("LOC", "Italy"), Mention("LOC", "England")]

    def test_parse_all_null(self, labels):
        text = "((PER): (NULL), (MISC): (NULL), (LOC): (NULL), (ORG): (NULL))"
        mentions, defects = parse_structured(text, labels)
        assert mentions == [] and defects == []

    def test_parse_unknown_label_is_defect(self, labels):
        mentions, defects = parse_structured("((GPE): (Paris), (LOC): (Rome))", labels)
        assert mentions == [Mention("LOC", "Rome")]
        assert len(defects) == 1 and "GPE" in defects[0]

    def test_parse_unwrapped_is_defect(self, labels):
        mentions, defects = parse_structured("PER: Cuttitta", labels)
        assert mentions == [] and len(defects) == 1

    def test_parse_garbage_tail_keeps_prefix(self, labels):
        mentions, defects = parse_structured("((PER): (Cuttitta), garbage", labels)
        assert mentions == [Mention("PER", "Cuttitta")]
        assert len(defects) == 2  # unclosed envelope + tail

    def test_parse_truncated_completion_keeps_prefix(self, labels):
        mentions, defects = parse_structured("((PER): (Cuttitta), (MISC): (1995 Wor", labels)
        assert mentions == [Mention("PER", "Cuttitta")]
        assert len(defects) == 2

    def test_parse_wrapped_text_without_groups_is_defect(self, labels):
        mentions, defects = parse_structured("(PER: Cuttitta)", labels)
        assert mentions == []
        assert defects == ["unparseable tail at offset 0: 'PER: Cuttitta'"]

    def test_parse_empty_surface_is_defect(self, labels):
        mentions, defects = parse_structured("((LOC): (Italy, , England))", labels)
        assert mentions == [Mention("LOC", "Italy"), Mention("LOC", "England")]
        assert defects == ["empty mention surface under label 'LOC'"]

    def test_text_outside_any_group_is_defect(self, labels):
        mentions, defects = parse_structured("((PER): (Cuttitta), x(LOC): (Rome))", labels)
        assert mentions == [Mention("PER", "Cuttitta"), Mention("LOC", "Rome")]
        assert defects == ["text outside any label group at offset 17: ', x'"]

    def test_text_outside_any_group_before_a_later_group_is_defect(self, labels):
        mentions, defects = parse_structured(
            "((PER): (Cuttitta), x(LOC): (Rome), (ORG): (NULL))", labels)
        assert mentions == [Mention("PER", "Cuttitta"), Mention("LOC", "Rome")]
        assert defects == ["text outside any label group at offset 17: ', x'"]

    def test_header_that_occurs_again_later_stays_in_the_body(self, labels):
        # the body of a group that is not the last holds a later label's header
        gold = GoldAnnotation("x", [Mention("PER", "a), x(LOC): (b"), Mention("LOC", "c")])
        mentions, defects = parse_structured(emit_struct(gold.by_label(labels), labels), labels)
        assert defects == []
        assert mentions == [Mention("PER", "a)"), Mention("PER", "x(LOC): (b"),
                            Mention("LOC", "c")]

    def test_header_inside_an_unclosed_body_is_defect(self, labels):
        mentions, defects = parse_structured("((PER): (Cuttitta(LOC): (Rome))", labels)
        assert mentions == [Mention("LOC", "Rome")]
        assert defects == ["unterminated mention body at offset 8"]

    def test_groups_without_separator_are_defect(self, labels):
        mentions, defects = parse_structured("((PER): (a)(LOC): (b))", labels)
        assert mentions == [Mention("PER", "a"), Mention("LOC", "b")]
        assert defects == ["text outside any label group at offset 10: ''"]

    @pytest.mark.parametrize("names, label, surface", [
        (["PER"], "PER", "Cuttitta), x(LOC): (Rome"),
        (["PER", "MISC", "LOC", "ORG"], "ORG", "a(PER): (b"),
        (["PER", "MISC", "LOC", "ORG"], "ORG", "a), x(ORG): (b"),
    ], ids=["not-a-label", "earlier-label", "own-label"])
    def test_header_that_occurs_earlier_stays_in_the_body(self, names, label, surface):
        ls = LabelSet(names)
        mentions, defects = parse_structured(
            emit_struct(GoldAnnotation("x", [Mention(label, surface)]).by_label(ls), ls), ls)
        assert defects == []
        assert mentions == [Mention(label, part) for part in surface.split(", ")]

    @given(st.lists(st.tuples(
        st.sampled_from(["PER", "MISC", "LOC", "ORG"]),
        st.lists(st.sampled_from(["(", ")", ", ", ": ", "), (", "(PER): (", "(LOC): (", "(ORG): (",
                                  "NULL", "x"]), max_size=5).map("".join)), max_size=5))
    @settings(max_examples=300)
    def test_emitted_text_never_splits_at_a_header(self, pairs):
        # emit_struct writes every header before the last body, so the last
        # body never starts a group of its own, whatever the surfaces hold
        gold = GoldAnnotation("x", [Mention(label, surface) for label, surface in pairs])
        _, defects = parse_structured(
            emit_struct(gold.by_label(_PROP_LABELS), _PROP_LABELS), _PROP_LABELS)
        assert not any(d.startswith(("text outside any label group",
                                     "unterminated mention body")) for d in defects)

    def test_surface_map_round_trip(self):
        ls = LabelSet(["LOC", "PER"], surface_map={"LOC": "地点", "PER": "名称"})
        gold = GoldAnnotation(doc_id="x", mentions=[Mention("LOC", "孟买")])
        text = emit_struct(gold.by_label(ls), ls)
        assert text == "((地点): (孟买), (名称): (NULL))"
        mentions, defects = parse_structured(text, ls)
        assert defects == [] and mentions == gold.mentions


class TestAugFormat:
    def test_emit_worked_example(self, labels):
        doc = Document(id="x", text="Japan won the World Cup after FIFA ruling .")
        gold = GoldAnnotation(doc_id="x", mentions=[
            Mention("LOC", "Japan"),
            Mention("MISC", "World Cup"),
            Mention("ORG", "FIFA"),
        ])
        assert emit_aug(doc, gold, labels) == (
            "[Japan | LOC] won the [World Cup | MISC] after [FIFA | ORG] ruling ."
        )

    def test_emit_no_mentions_is_identity(self, labels):
        doc = Document(id="x", text="nothing here .")
        assert emit_aug(doc, GoldAnnotation(doc_id="x", mentions=[]), labels) == doc.text

    def test_emit_repeated_surface_advances_cursor(self, labels):
        doc = Document(id="x", text="Italy beat Italy")
        gold = GoldAnnotation(doc_id="x", mentions=[
            Mention("LOC", "Italy"), Mention("ORG", "Italy"),
        ])
        assert emit_aug(doc, gold, labels) == "[Italy | LOC] beat [Italy | ORG]"

    def test_emit_missing_surface_raises(self, labels):
        doc = Document(id="x", text="no match here")
        gold = GoldAnnotation(doc_id="x", mentions=[Mention("LOC", "Italy")])
        with pytest.raises(TemplateError):
            emit_aug(doc, gold, labels)

    def test_parse_round_trip(self, labels):
        text = "[Japan | LOC] won the [World Cup | MISC] after [FIFA | ORG] ruling ."
        mentions, defects = parse_augmented(text, labels)
        assert defects == []
        assert mentions == [
            Mention("LOC", "Japan"),
            Mention("MISC", "World Cup"),
            Mention("ORG", "FIFA"),
        ]

    def test_parse_defects(self, labels):
        mentions, defects = parse_augmented("[Italy | GPE] and [x] and [open", labels)
        assert mentions == []
        assert len(defects) == 3

    def test_parse_plain_text_is_empty(self, labels):
        mentions, defects = parse_augmented("no brackets at all", labels)
        assert mentions == [] and defects == []

    def test_parse_empty_surface_is_defect(self, labels):
        mentions, defects = parse_augmented("[ | LOC] beat [England | LOC]", labels)
        assert mentions == [Mention("LOC", "England")]
        assert defects == ["bracket with empty mention surface"]


class TestOnestepFormat:
    def test_emit_list(self, cuttitta):
        _, gold = cuttitta
        groups = gold.by_label(["LOC", "ORG"])
        assert emit_onestep(groups["LOC"]) == '["Italy", "England"]'
        assert emit_onestep(groups["ORG"]) == "[]"

    def test_emit_preserves_unicode(self):
        gold = GoldAnnotation(doc_id="x", mentions=[Mention("LOC", "孟买")])
        assert emit_onestep(gold.mentions) == '["孟买"]'

    def test_parse_spans_cover_surfaces(self, template):
        text = '["Italy", "England"]'
        tokens = ['["Italy",', ' "England"]', "<eos>"]
        c = completion(text + "<eos>", tokens=tokens)
        mentions, defects = parse_onestep(c, template)
        assert defects == []
        assert [m.text for m in mentions] == ["Italy", "England"]
        assert mentions[0].token_span == (0, 0)
        assert mentions[1].token_span == (1, 1)

    def test_parse_empty_list(self, template):
        c = completion("[]<eos>", tokens=["[]", "<eos>"])
        mentions, defects = parse_onestep(c, template)
        assert mentions == [] and defects == []

    def test_parse_escaped_quote(self, template):
        surface = 'a "b"'
        text = json.dumps([surface], ensure_ascii=False)
        c = completion(text, tokens=[text])
        mentions, defects = parse_onestep(c, template)
        assert defects == []
        assert mentions[0].text == surface

    def test_parse_non_json_still_scans(self, template):
        c = completion('oops "Italy" trailing', tokens=['oops "Italy" trailing'])
        mentions, defects = parse_onestep(c, template)
        assert [m.text for m in mentions] == ["Italy"]
        assert len(defects) == 1

    @pytest.mark.parametrize("text, surfaces", [
        ('["Italy", 3]', ["Italy"]),
        ('{"LOC": "Italy"}', ["LOC", "Italy"]),
    ], ids=["number-entry", "object"])
    def test_parse_json_that_is_not_a_list_of_strings(self, template, text, surfaces):
        mentions, defects = parse_onestep(completion(text, tokens=[text]), template)
        assert [m.text for m in mentions] == surfaces
        assert defects == [f"completion is not a JSON list of strings: {text!r}"]

    def test_parse_undecodable_literal_is_skipped(self, template):
        text = r'["Ital\y", "England"]'
        mentions, defects = parse_onestep(completion(text, tokens=[text]), template)
        assert [m.text for m in mentions] == ["England"]
        assert defects == [f"completion is not well-formed JSON: {text!r}",
                           "undecodable string literal: '\"Ital\\\\y\"'"]

    def test_parse_empty_surface_is_defect(self, template):
        text = '["", "Italy"]'
        mentions, defects = parse_onestep(completion(text, tokens=[text]), template)
        assert [m.text for m in mentions] == ["Italy"]
        assert defects == ["empty mention surface in list"]


@st.composite
def tokenizations(draw, text):
    """``text`` cut into tokens at drawn offsets, with empty tokens slipped in."""
    cuts = sorted(draw(st.sets(st.integers(1, len(text) - 1))))
    tokens = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    for _ in range(draw(st.integers(0, 3))):
        tokens.insert(draw(st.integers(0, len(tokens))), "")
    return tokens


def reference_span(tokens, start, end):
    """First and last non-empty token overlapping characters [start, end)."""
    hits, offset = [], 0
    for i, tok in enumerate(tokens):
        if tok and offset < end and offset + len(tok) > start:
            hits.append(i)
        offset += len(tok)
    return (hits[0], hits[-1]) if hits else None


class TestTokenSpans:
    """Surfaces map to the inclusive span of the non-empty tokens holding them."""

    def test_empty_tokens_never_bound_a_span(self, template):
        c = completion("Italy<eos>", tokens=["", "Ital", "", "y", "", "<eos>"])
        assert parse_mention(c, template).token_span == (1, 3)
        c = completion('["Italy"]<eos>', tokens=['["', "", "Italy", "", '"]', "<eos>"])
        mentions, _ = parse_onestep(c, template)
        assert mentions[0].token_span == (2, 2)

    @given(st.text(alphabet="ab ", min_size=1, max_size=8), st.data())
    def test_mention_span_matches_reference(self, surface, data):
        tokens = data.draw(tokenizations(surface + "<eos>"))
        parsed = parse_mention(completion(surface + "<eos>", tokens=tokens), PromptTemplate())
        assert parsed.text == surface
        assert parsed.token_span == reference_span(tokens, 0, len(surface))

    @given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=5), max_size=3), st.data())
    def test_onestep_spans_match_reference(self, surfaces, data):
        text, ranges = "[", []
        for i, surface in enumerate(surfaces):
            text += ", " if i else ""
            ranges.append((len(text) + 1, len(text) + 1 + len(surface)))
            text += json.dumps(surface)
        text += "]<eos>"
        tokens = data.draw(tokenizations(text))
        mentions, defects = parse_onestep(completion(text, tokens=tokens), PromptTemplate())
        assert defects == []
        assert [m.text for m in mentions] == surfaces
        assert [m.token_span for m in mentions] == [reference_span(tokens, a, b)
                                                    for a, b in ranges]


@st.composite
def _gold_documents(draw):
    """Random documents whose mentions occur verbatim, in order, in the text."""
    labels = ["PER", "MISC", "LOC", "ORG"]
    n = draw(st.integers(min_value=0, max_value=4))
    words = st.text(alphabet="abcdefg", min_size=1, max_size=6)
    pieces = []
    mentions = []
    for _ in range(n):
        label = draw(st.sampled_from(labels))
        surface = draw(st.lists(words, min_size=1, max_size=2).map(" ".join))
        mentions.append(Mention(label, surface))
        pieces.append(surface)
        pieces.append(draw(words))
    text = " ".join(pieces) if pieces else draw(words)
    return Document(id="h", text=text), GoldAnnotation(doc_id="h", mentions=mentions)


_PROP_LABELS = LabelSet(["PER", "MISC", "LOC", "ORG"])
_PROP_TEMPLATE = PromptTemplate()


class TestRoundTripProperties:
    @given(_gold_documents())
    @settings(max_examples=150)
    def test_struct_round_trip_multiset(self, pair):
        doc, gold = pair
        mentions, defects = parse_structured(
            emit_struct(gold.by_label(_PROP_LABELS), _PROP_LABELS), _PROP_LABELS)
        assert defects == []
        assert mention_multiset(mentions) == mention_multiset(gold.mentions)

    @given(_gold_documents())
    @settings(max_examples=150)
    def test_aug_round_trip_multiset(self, pair):
        doc, gold = pair
        mentions, defects = parse_augmented(emit_aug(doc, gold, _PROP_LABELS), _PROP_LABELS)
        assert defects == []
        assert mention_multiset(mentions) == mention_multiset(gold.mentions)

    @given(_gold_documents())
    @settings(max_examples=150)
    def test_onestep_round_trip_multiset(self, pair):
        _, gold = pair
        recovered = []
        for label, label_mentions in gold.by_label(_PROP_LABELS).items():
            text = emit_onestep(label_mentions)
            c = completion(text, tokens=[text] if text else [])
            mentions, defects = parse_onestep(c, _PROP_TEMPLATE)
            assert defects == []
            recovered.extend(Mention(label, m.text) for m in mentions)
        assert mention_multiset(recovered) == mention_multiset(gold.mentions)
