"""Training-sequence generation for the pair format and the baselines."""

from __future__ import annotations

from collections import Counter

import pytest

from parner.corpus import Document, GoldAnnotation, LabelSet, Mention
from parner.reformulate import (
    FORMATS,
    corpus_stats,
    generate_baseline_examples,
    generate_pair_examples,
    reformulate_corpus,
)
from parner.synthetic import make_corpus
from parner.templates import PromptTemplate, TemplateError, build_count_prompt

from helpers import mention_multiset


class TestPairExamples:
    def test_worked_document_yields_five(self, cuttitta, labels, template):
        doc, gold = cuttitta
        examples = generate_pair_examples(doc, gold, labels, template)
        assert len(examples) == 5
        assert [ex.output for ex in examples] == [
            "1\n<mention 1>Cuttitta",
            "1\n<mention 1>1995 World Cup",
            "2\n<mention 1>Italy",
            "2\n<mention 2>England",
            "<eos>",
        ]

    def test_inputs_are_count_prompts(self, cuttitta, labels, template):
        doc, gold = cuttitta
        examples = generate_pair_examples(doc, gold, labels, template)
        for ex in examples:
            assert ex.input == build_count_prompt(doc, labels.surface(ex.label), template)

    def test_same_label_examples_share_input(self, cuttitta, labels, template):
        doc, gold = cuttitta
        loc = [ex for ex in generate_pair_examples(doc, gold, labels, template)
               if ex.label == "LOC"]
        assert len(loc) == 2
        assert loc[0].input == loc[1].input
        assert (loc[0].mention_index, loc[1].mention_index) == (1, 2)
        assert loc[0].mention_count == loc[1].mention_count == 2

    def test_marker_span_covers_marker(self, cuttitta, labels, template):
        doc, gold = cuttitta
        for ex in generate_pair_examples(doc, gold, labels, template):
            if ex.mention_index is None:
                assert ex.marker_span is None
                continue
            a, b = ex.marker_span
            assert ex.output[a:b] == f"<mention {ex.mention_index}>"

    def test_zero_mention_label_trains_eos(self, labels, template):
        doc = Document(id="x", text="nothing to see")
        gold = GoldAnnotation(doc_id="x", mentions=[])
        examples = generate_pair_examples(doc, gold, labels, template)
        assert len(examples) == len(labels)
        assert all(ex.output == "<eos>" for ex in examples)
        assert all(ex.mention_count == 0 for ex in examples)

    def test_multiplicity_matches_gold(self, labels, template):
        pairs = make_corpus(30, labels, seed=7)
        for doc, gold in pairs:
            examples = generate_pair_examples(doc, gold, labels, template)
            per_label = Counter(m.label for m in gold.mentions)
            expected = sum(max(1, per_label.get(l, 0)) for l in labels)
            assert len(examples) == expected

    def test_outputs_reconstruct_gold(self, labels, template):
        """Independent parse of the training outputs recovers the gold multiset."""
        pairs = make_corpus(30, labels, seed=11)
        for doc, gold in pairs:
            recovered = []
            for ex in generate_pair_examples(doc, gold, labels, template):
                if ex.output == template.eos_literal:
                    continue
                count_str, rest = ex.output.split(template.count_terminator, 1)
                assert int(count_str) == ex.mention_count
                marker = f"<mention {ex.mention_index}>"
                assert rest.startswith(marker)
                recovered.append(Mention(ex.label, rest[len(marker):]))
            assert mention_multiset(recovered) == mention_multiset(gold.mentions)


class TestBaselineExamples:
    def test_struct_single_example(self, cuttitta, labels, template):
        doc, gold = cuttitta
        examples = generate_baseline_examples(doc, gold, labels, "struct", template)
        assert len(examples) == 1
        assert examples[0].output.startswith("((PER): (Cuttitta)")
        assert examples[0].mention_count == 4

    def test_onestep_one_example_per_label(self, cuttitta, labels, template):
        doc, gold = cuttitta
        examples = generate_baseline_examples(doc, gold, labels, "onestep", template)
        assert [ex.label for ex in examples] == list(labels)
        by_label = {ex.label: ex.output for ex in examples}
        assert by_label["LOC"] == '["Italy", "England"]'
        assert by_label["ORG"] == "[]"

    def test_aug_propagates_unbuildable(self, labels, template):
        doc = Document(id="x", text="no match")
        gold = GoldAnnotation(doc_id="x", mentions=[Mention("LOC", "Italy")])
        with pytest.raises(TemplateError):
            generate_baseline_examples(doc, gold, labels, "aug", template)

    def test_unknown_format_rejected(self, cuttitta, labels, template):
        doc, gold = cuttitta
        with pytest.raises(TemplateError):
            generate_baseline_examples(doc, gold, labels, "two-step", template)


class TestCorpusReformulation:
    def test_skips_unbuildable_docs(self, labels, template):
        good = (Document(id="g", text="Italy plays"),
                GoldAnnotation(doc_id="g", mentions=[Mention("LOC", "Italy")]))
        bad = (Document(id="b", text="no match"),
               GoldAnnotation(doc_id="b", mentions=[Mention("LOC", "Italy")]))
        result = reformulate_corpus([good, bad], "aug", labels, template)
        assert [ex.doc_id for ex in result.examples] == ["g"]
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == "b"

    def test_pair_never_skips(self, labels, template):
        bad = (Document(id="b", text="no match"),
               GoldAnnotation(doc_id="b", mentions=[Mention("LOC", "Italy")]))
        result = reformulate_corpus([bad], "pair", labels, template)
        assert result.skipped == []
        assert len(result.examples) == len(labels)  # one LOC mention + three empties

    def test_invalid_format_raises(self, labels, template):
        with pytest.raises(TemplateError):
            reformulate_corpus([], "nope", labels, template)

    def test_all_formats_cover_corpus(self, labels, template):
        pairs = make_corpus(10, labels, seed=3)
        for fmt in FORMATS:
            result = reformulate_corpus(pairs, fmt, labels, template)
            assert result.skipped == []
            assert {ex.doc_id for ex in result.examples} == {d.id for d, _ in pairs}


class TestStats:
    def test_counts_and_lengths(self, labels, template):
        examples = reformulate_corpus(
            make_corpus(12, labels, seed=5), "pair", labels, template
        ).examples
        stats = corpus_stats(examples)
        assert stats["total_examples"] == len(examples)
        pair = stats["per_format"]["pair"]
        assert pair["examples"] == len(examples)
        hand_mean = sum(len(ex.output) for ex in examples) / len(examples)
        assert pair["output_chars"]["mean"] == pytest.approx(hand_mean)
        assert pair["output_chars"]["max"] == max(len(ex.output) for ex in examples)
        assert pair["output_tokens"]["mean"] > 0

    def test_empty(self):
        stats = corpus_stats([])
        assert stats == {"total_examples": 0, "per_format": {}}

    def test_json_shape(self, cuttitta, labels, template):
        doc, gold = cuttitta
        ex = generate_pair_examples(doc, gold, labels, template)[2]
        d = ex.to_json_dict()
        assert d["input"].endswith("<num>\n")
        assert d["output"] == "2\n<mention 1>Italy"
        assert d["meta"]["label"] == "LOC"
        assert d["meta"]["mention_index"] == 1
        assert d["meta"]["mention_count"] == 2
        assert d["meta"]["marker_span"] == [2, 13]
