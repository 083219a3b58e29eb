"""Cross-label de-duplication of predicted mentions by decoding probability.

A decode can emit the same surface under several labels; at most one label
can be right, so the default policy keeps the label the model was most
confident about, with every occurrence the surface has under it.  Repeats
under one label are separate mentions (scoring counts each), so they are
never collapsed.  The reverse policy (keep the least confident label)
exists to demonstrate the probabilities carry signal, and "off" disables
the filter.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from parner.corpus import LabelSet, Mention
from parner.scheduler import ScoredMention

__all__ = ["DEDUP_MODES", "deduplicate"]

DEDUP_MODES = ("keep-max", "off", "reverse")

# probabilities within this of a group's best count as tied
_TIE_EPSILON = 1e-12


def deduplicate(
    mentions: Sequence[ScoredMention],
    labels: LabelSet,
    mode: str = "keep-max",
) -> List[Mention]:
    """Resolve surfaces predicted under several labels, in stable order.

    Surfaces are compared exactly, as decoded (case and whitespace
    included).  keep-max picks, per surface, the label of its most
    probable occurrence (reverse: of its least probable) and keeps every
    occurrence of the surface under that label, dropping those under the
    other labels.  Probabilities within 1e-12 of the best count as tied,
    and ties go to the earliest label in the label set.  "off" is the
    identity on the multiset.  Output is ordered by label-set rank, then by
    input position, so equal inputs always produce equal outputs.

    Raises:
        ValueError: for a ``mode`` outside ``DEDUP_MODES``.
    """
    if mode not in DEDUP_MODES:
        raise ValueError(f"unknown dedup mode: {mode!r} (expected one of {DEDUP_MODES})")

    # stable, so mentions under one label keep their input order
    chosen = sorted(mentions, key=lambda m: labels.rank(m.label))
    if mode != "off":
        pick = max if mode == "keep-max" else min
        best: Dict[str, float] = {}
        for m in chosen:
            best[m.text] = pick(best.get(m.text, m.probability), m.probability)
        winner: Dict[str, str] = {}  # surface -> earliest label tied with its best
        for m in chosen:
            if abs(m.probability - best[m.text]) <= _TIE_EPSILON:
                winner.setdefault(m.text, m.label)
        chosen = [m for m in chosen if m.label == winner[m.text]]
    return [Mention(m.label, m.text) for m in chosen]
