"""Seeded synthetic corpora for tests and benchmarks.

Generated documents are built so every supported output format is exactly
constructible and round-trippable: mention surfaces occur verbatim in the
text, use only letters and single spaces (no format metacharacters), and
are unique within a document with no shared words, so no surface is a
substring of another and cross-label duplicates never occur by accident.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, Union

from parner.corpus import Document, GoldAnnotation, LabelSet, Mention

__all__ = ["make_corpus"]

_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne",
    "po", "ra", "su", "ta", "vi", "wo", "ze", "ju", "my", "qa",
)

# lowercase filler can never contain a Capitalized mention word
_FILLER_VOCAB = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES)
_MENTION_VOCAB = tuple(
    (a + b + c).capitalize()
    for a in _SYLLABLES for b in _SYLLABLES for c in ("x", "n", "s", "r")
)


def make_corpus(
    n_docs: int,
    labels: Union[LabelSet, Sequence[str]],
    seed: int = 0,
    max_mentions_per_label: int = 3,
    p_label_present: float = 0.8,
    fillers_between: Tuple[int, int] = (2, 4),
) -> List[Tuple[Document, GoldAnnotation]]:
    """Generate a deterministic corpus of annotated documents.

    Each label is present in a document with probability
    ``p_label_present``, carrying 1..max_mentions_per_label mentions of
    one or two words each; absent labels exercise the zero-mention
    path.  Document randomness is derived from (seed, doc index), so a
    document's content does not depend on how many documents are requested.
    """
    if not isinstance(labels, LabelSet):
        labels = LabelSet(labels)
    pairs: List[Tuple[Document, GoldAnnotation]] = []
    for i in range(n_docs):
        rng = random.Random(f"{seed}/{i}")
        doc_id = f"doc-{i}"
        used_words: set = set()

        def fresh_word() -> str:
            while True:
                word = rng.choice(_MENTION_VOCAB)
                if word not in used_words:
                    used_words.add(word)
                    return word

        chosen: List[Mention] = []
        for label in labels:
            if rng.random() >= p_label_present:
                continue
            for _ in range(rng.randint(1, max_mentions_per_label)):
                words = [fresh_word() for _ in range(rng.randint(1, 2))]
                chosen.append(Mention(label, " ".join(words)))
        rng.shuffle(chosen)

        def filler() -> List[str]:
            return [rng.choice(_FILLER_VOCAB) for _ in range(rng.randint(*fillers_between))]

        parts: List[str] = filler()
        gold_order: List[Mention] = []
        for mention in chosen:
            parts.append(mention.text)
            parts.extend(filler())
            gold_order.append(mention)
        parts.append(".")
        doc = Document(id=doc_id, text=" ".join(parts))
        pairs.append((doc, GoldAnnotation(doc_id=doc_id, mentions=gold_order)))
    return pairs
