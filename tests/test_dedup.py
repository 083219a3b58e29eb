"""Probability-based de-duplication of repeated surfaces across labels."""

from __future__ import annotations

import random

import pytest

from parner.backends import OracleBackend
from parner.corpus import Document, GoldAnnotation, LabelSet, Mention
from parner.dedup import deduplicate
from parner.evaluation import micro_f1
from parner.scheduler import MODES, ScoredMention, decode_document


def sm(label, text, probability, seq_id="s"):
    return ScoredMention(label=label, text=text, probability=probability, seq_id=seq_id)


@pytest.fixture
def duplicate_italy(labels):
    """The same surface under two labels plus three singletons."""
    return [
        sm("PER", "Cuttitta", 0.90),
        sm("MISC", "1995 World Cup", 0.88),
        sm("MISC", "Italy", 0.61),
        sm("LOC", "Italy", 0.93),
        sm("LOC", "England", 0.89),
    ]


class TestPolicies:
    def test_keep_max_keeps_confident_label(self, duplicate_italy, labels):
        result = deduplicate(duplicate_italy, labels)
        assert result == [
            Mention("PER", "Cuttitta"),
            Mention("MISC", "1995 World Cup"),
            Mention("LOC", "Italy"),
            Mention("LOC", "England"),
        ]

    def test_reverse_keeps_least_confident(self, duplicate_italy, labels):
        result = deduplicate(duplicate_italy, labels, mode="reverse")
        assert Mention("MISC", "Italy") in result
        assert Mention("LOC", "Italy") not in result

    def test_off_is_identity_ordered(self, duplicate_italy, labels):
        result = deduplicate(duplicate_italy, labels, mode="off")
        assert result == [
            Mention("PER", "Cuttitta"),
            Mention("MISC", "1995 World Cup"),
            Mention("MISC", "Italy"),
            Mention("LOC", "Italy"),
            Mention("LOC", "England"),
        ]

    def test_unknown_mode_rejected(self, labels):
        with pytest.raises(ValueError):
            deduplicate([], labels, mode="keep-all")


class TestGrouping:
    def test_surfaces_compared_exactly(self, labels):
        result = deduplicate(
            [sm("LOC", " Italy ", 0.7), sm("MISC", "Italy", 0.9)], labels)
        assert result == [Mention("MISC", "Italy"), Mention("LOC", " Italy ")]

    def test_case_sensitive_surfaces_stay_apart(self, labels):
        mentions = [sm("LOC", "Italy", 0.7), sm("MISC", "ITALY", 0.9)]
        result = deduplicate(mentions, labels)
        assert len(result) == 2

    def test_same_label_repeats_kept(self, labels):
        mentions = [sm("LOC", "Italy", 0.8), sm("LOC", "Italy", 0.6)]
        for mode in ("keep-max", "reverse", "off"):
            assert deduplicate(mentions, labels, mode=mode) == [Mention("LOC", "Italy")] * 2

    def test_winning_label_keeps_its_less_probable_repeats(self, labels):
        mentions = [sm("LOC", "Italy", 0.8), sm("MISC", "Italy", 0.7), sm("LOC", "Italy", 0.6)]
        assert deduplicate(mentions, labels) == [Mention("LOC", "Italy")] * 2
        assert deduplicate(mentions, labels, mode="reverse") == [Mention("LOC", "Italy")] * 2
        mentions[0] = sm("LOC", "Italy", 0.65)
        assert deduplicate(mentions, labels) == [Mention("MISC", "Italy")]

    def test_three_way_group(self, labels):
        mentions = [
            sm("ORG", "Villa", 0.5),
            sm("PER", "Villa", 0.9),
            sm("LOC", "Villa", 0.7),
        ]
        assert deduplicate(mentions, labels) == [Mention("PER", "Villa")]
        assert deduplicate(mentions, labels, mode="reverse") == [
            Mention("ORG", "Villa")
        ]


class TestOrderingAndTies:
    def test_output_ordered_by_rank_then_position(self, labels):
        mentions = [
            sm("ORG", "FIFA", 0.9),
            sm("PER", "Cuttitta", 0.9),
            sm("PER", "Moret", 0.9),
        ]
        result = deduplicate(mentions, labels, mode="off")
        assert result == [
            Mention("PER", "Cuttitta"),
            Mention("PER", "Moret"),
            Mention("ORG", "FIFA"),
        ]

    def test_exact_tie_breaks_to_earliest_label(self, labels):
        for order in ([sm("LOC", "Italy", 0.8), sm("MISC", "Italy", 0.8)],
                      [sm("MISC", "Italy", 0.8), sm("LOC", "Italy", 0.8)]):
            result = deduplicate(order, labels)
            assert result == [Mention("MISC", "Italy")]  # MISC ranks before LOC

    def test_near_tie_within_epsilon(self, labels):
        mentions = [sm("LOC", "Italy", 0.8), sm("MISC", "Italy", 0.8 - 1e-13)]
        assert deduplicate(mentions, labels) == [Mention("MISC", "Italy")]

    def test_tie_within_winning_label_keeps_every_occurrence(self, labels):
        mentions = [sm("LOC", "Italy", 0.8), sm("MISC", "Italy", 0.8), sm("MISC", "Italy", 0.8)]
        assert deduplicate(mentions, labels) == [Mention("MISC", "Italy")] * 2

    def test_empty_input(self, labels):
        assert deduplicate([], labels) == []


class TestAgainstBruteForce:
    """Randomized comparison with an independent reference implementation."""

    @staticmethod
    def _reference(mentions, labels, mode):
        if mode == "off":
            kept = list(enumerate(mentions))
        else:
            surfaces = {m.text.strip() for m in mentions}
            kept = []
            for surface in surfaces:
                group = [(i, m) for i, m in enumerate(mentions)
                         if m.text.strip() == surface]
                probs = [m.probability for _, m in group]
                target = max(probs) if mode == "keep-max" else min(probs)
                tied_labels = [m.label for _, m in group
                               if abs(m.probability - target) <= 1e-12]
                winner = min(tied_labels, key=labels.rank)
                kept.extend((i, m) for i, m in group if m.label == winner)
        kept.sort(key=lambda x: (labels.rank(x[1].label), x[0]))
        return [Mention(m.label, m.text.strip()) for _, m in kept]

    @pytest.mark.parametrize("mode", ["keep-max", "off", "reverse"])
    def test_matches_reference(self, mode, labels):
        rng = random.Random(97)
        surfaces = ["Italy", "England", "Villa"]
        label_pool = list(labels)
        for _ in range(300):
            mentions = [
                sm(rng.choice(label_pool), rng.choice(surfaces),
                   rng.choice([0.2, 0.5, 0.5, 0.9]))  # forced ties
                for _ in range(rng.randrange(0, 7))
            ]
            got = deduplicate(mentions, labels, mode=mode)
            assert got == self._reference(mentions, labels, mode)

    def test_keep_max_idempotent(self, labels):
        rng = random.Random(13)
        label_pool = list(labels)
        for _ in range(100):
            mentions = [
                sm(rng.choice(label_pool), rng.choice(["a", "b"]), rng.random())
                for _ in range(rng.randrange(0, 6))
            ]
            once = deduplicate(mentions, labels)
            rewrapped = [sm(m.label, m.text, 1.0) for m in once]
            assert deduplicate(rewrapped, labels) == once


@pytest.mark.parametrize("mode", MODES)
def test_noiseless_oracle_keeps_same_label_repeats(mode, labels, template):
    """A surface repeated under one label is two gold mentions, not a conflict."""
    doc = Document("d0", "Bob flew to Paris, and Paris was warm.")
    gold = GoldAnnotation("d0", [Mention("PER", "Bob"), Mention("LOC", "Paris"),
                                 Mention("LOC", "Paris")])
    oracle = OracleBackend([(doc, gold)], labels, template)
    outcome = decode_document(doc, labels, oracle, template, mode)
    for dedup in ("keep-max", "reverse", "off"):
        pred = deduplicate(outcome.raw_mentions, labels, mode=dedup)
        report = micro_f1({"d0": pred}, {"d0": gold.mentions}, labels)
        assert report.f1 == 1.0, f"dedup {dedup}: {pred}"
