"""The deterministic synthetic corpus generator."""

from __future__ import annotations

from collections import Counter

from parner.corpus import LabelSet
from parner.synthetic import make_corpus


class TestMakeCorpus:
    def test_deterministic(self, labels):
        a = make_corpus(12, labels, seed=42)
        b = make_corpus(12, labels, seed=42)
        assert a == b

    def test_seed_changes_content(self, labels):
        assert make_corpus(12, labels, seed=1) != make_corpus(12, labels, seed=2)

    def test_prefix_stable_in_corpus_size(self, labels):
        small = make_corpus(5, labels, seed=7)
        large = make_corpus(20, labels, seed=7)
        assert large[:5] == small

    def test_plain_label_list_accepted(self, labels):
        assert make_corpus(4, list(labels), seed=5) == make_corpus(4, labels, seed=5)

    def test_ids_sequential(self, labels):
        pairs = make_corpus(3, labels, seed=0)
        assert [doc.id for doc, _ in pairs] == ["doc-0", "doc-1", "doc-2"]
        assert all(gold.doc_id == doc.id for doc, gold in pairs)

    def test_surfaces_verbatim_and_unique(self, labels):
        for doc, gold in make_corpus(40, labels, seed=3):
            seen = set()
            for m in gold.mentions:
                assert m.text in doc.text
                assert m.text not in seen  # no accidental duplicate surfaces
                seen.add(m.text)

    def test_gold_order_follows_text(self, labels):
        for doc, gold in make_corpus(25, labels, seed=9):
            positions = [doc.text.find(m.text) for m in gold.mentions]
            assert positions == sorted(positions)
            assert all(p >= 0 for p in positions)

    def test_mentions_bounded_per_label(self, labels):
        for _, gold in make_corpus(40, labels, seed=5, max_mentions_per_label=2):
            per_label = Counter(m.label for m in gold.mentions)
            assert all(n <= 2 for n in per_label.values())

    def test_labels_respected(self):
        ls = LabelSet(["A", "B"])
        for _, gold in make_corpus(10, ls, seed=0):
            assert all(m.label in ("A", "B") for m in gold.mentions)

    def test_mention_words_are_capitalized_fillers_lowercase(self, labels):
        for doc, gold in make_corpus(20, labels, seed=11):
            mention_words = {w for m in gold.mentions for w in m.text.split()}
            for word in doc.text.split():
                if word == ".":
                    continue
                if word in mention_words:
                    assert word[0].isupper()
                else:
                    assert word[0].islower()

    def test_some_docs_have_empty_labels(self, labels):
        pairs = make_corpus(60, labels, seed=13)
        label_counts = [Counter(m.label for m in gold.mentions) for _, gold in pairs]
        assert any(len(c) < len(labels) for c in label_counts)
        sparse = make_corpus(60, labels, seed=13, p_label_present=0.3)
        assert any(not gold.mentions for _, gold in sparse)  # fully empty docs exist
