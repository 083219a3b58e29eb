"""Data model and corpus loading for label/mention NER datasets.

Two on-disk formats are supported: column-style BIO files and a JSON-lines
span format (one document per line, mentions as label/text pairs).  Both
load into the same (Document, GoldAnnotation) pairs.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "CorpusError",
    "LabelSet",
    "Document",
    "Mention",
    "GoldAnnotation",
    "bio_spans",
    "parse_bio",
    "parse_spans_json",
    "filter_max_mentions",
    "emit_spans_json",
]


class CorpusError(ValueError):
    """Raised for malformed corpus files or inconsistent label configuration."""


class Mention(NamedTuple):
    """A single extracted entity: label plus surface text (no offsets)."""

    label: str
    text: str


# Mention from a (label, text) pair through tuple.__new__ alone: the named
# tuple's own constructor is a Python function that costs about as much again
_mention = functools.partial(tuple.__new__, Mention)


@dataclass(frozen=True)
class Document:
    """One input text with a corpus-unique id."""

    id: str
    text: str


@dataclass
class GoldAnnotation:
    """Reference mentions for one document, in source (left-to-right) order.

    Mentions are a multiset: the same (label, text) pair may appear more
    than once and each occurrence counts separately during scoring.
    """

    doc_id: str
    mentions: List[Mention] = field(default_factory=list)

    def by_label(self, labels: Iterable[str]) -> Dict[str, List[Mention]]:
        """Each of ``labels``, in their order, mapped to its mentions in gold
        order, from one pass over the mentions.

        This is the one per-label view of gold: every pair, onestep and
        struct answer is built from it.  A label with no mentions maps to an
        empty list; a mention whose label is not in ``labels`` is left out.
        """
        groups: Dict[str, List[Mention]] = {label: [] for label in labels}
        for m in self.mentions:
            if m.label in groups:
                groups[m.label].append(m)
        return groups


class LabelSet:
    """Ordered, unique label inventory with a surface mapping.

    Label order is semantic: prompts, training examples and report rows are
    all emitted in this order, and ties elsewhere break toward the earliest
    label.  ``surface_map`` rewrites canonical labels to the strings shown
    to the model (e.g. "LOC" -> "地点"); it must map every label, and
    nothing else, to a distinct string.  Without it every label is shown
    as itself.  Scoring stays in canonical space via the retained inverse.
    """

    def __init__(self, labels: Sequence[str], surface_map: Optional[Dict[str, str]] = None):
        labels = list(labels)
        if not labels:
            raise CorpusError("label set must not be empty")
        if len(set(labels)) != len(labels):
            raise CorpusError(f"duplicate labels in label set: {labels}")
        self.labels: Tuple[str, ...] = tuple(labels)
        self._rank = {label: i for i, label in enumerate(self.labels)}
        if surface_map is None:
            surface_map = {l: l for l in self.labels}
        if not isinstance(surface_map, dict):
            raise CorpusError(f"surface mapping must be a dict, got {surface_map!r}")
        missing = [l for l in self.labels if l not in surface_map]
        if missing:
            raise CorpusError(f"labels without a surface mapping: {missing}")
        extra = [key for key in surface_map if key not in self._rank]
        if extra:
            raise CorpusError(f"surface mapping names unknown labels: {extra}")
        surfaces = [surface_map[l] for l in self.labels]
        if not all(isinstance(s, str) for s in surfaces):
            raise CorpusError(f"surface mapping must map labels to strings: {surface_map}")
        if len(set(surfaces)) != len(surfaces):
            raise CorpusError("surface mapping is not invertible (duplicate surfaces)")
        self._surface = dict(surface_map)
        self._inverse = {surface_map[l]: l for l in self.labels}

    def __contains__(self, label: str) -> bool:
        return label in self._rank

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"LabelSet({list(self.labels)!r})"

    def rank(self, label: str) -> int:
        """Position of ``label`` in the canonical order."""
        try:
            return self._rank[label]
        except KeyError:
            raise CorpusError(f"unknown label: {label!r}") from None

    def surface(self, label: str) -> str:
        """The string shown to the model for ``label``."""
        try:
            return self._surface[label]
        except KeyError:
            raise CorpusError(f"unknown label: {label!r}") from None

    def canonical(self, surface: str) -> str:
        """Inverse of :meth:`surface`."""
        try:
            return self._inverse[surface]
        except KeyError:
            raise CorpusError(f"unknown label surface: {surface!r}") from None


# ---------------------------------------------------------------------------
# BIO column format
# ---------------------------------------------------------------------------

def bio_spans(tags: Sequence[str], malformed: str = "treat-as-b") -> List[Tuple[str, int, int]]:
    """Decode a BIO tag sequence into (label, start, end) spans, end exclusive.

    Spans are maximal B-I runs taken left to right.  An I- tag that does not
    continue an open span of the same label is handled per ``malformed``:
    "treat-as-b" opens a new span, "error" raises.

    Example:
        >>> bio_spans(["B-PER", "I-PER", "O", "B-LOC"])
        [('PER', 0, 2), ('LOC', 3, 4)]
    """
    if malformed not in ("treat-as-b", "error"):
        raise CorpusError(f"unknown malformed-tag policy: {malformed!r}")
    spans: List[Tuple[str, int, int]] = []
    open_label: Optional[str] = None
    start = 0
    for i, tag in enumerate(tags):
        if tag == "O":
            kind, label = "O", None
        elif tag.startswith("B-") or tag.startswith("I-"):
            kind, label = tag[0], tag[2:]
            if not label:
                raise CorpusError(f"malformed BIO tag at position {i}: {tag!r}")
        else:
            raise CorpusError(f"malformed BIO tag at position {i}: {tag!r}")

        continues = kind == "I" and open_label is not None and label == open_label
        if continues:
            continue
        if kind == "I" and malformed == "error":
            raise CorpusError(f"I- tag without matching B- at position {i}: {tag!r}")
        if open_label is not None:
            spans.append((open_label, start, i))
            open_label = None
        if kind in ("B", "I"):
            open_label = label
            start = i
    if open_label is not None:
        spans.append((open_label, start, len(tags)))
    return spans


def parse_bio(
    text: str,
    labels: LabelSet,
    joiner: str = " ",
    malformed: str = "treat-as-b",
) -> List[Tuple[Document, GoldAnnotation]]:
    """Parse a column-style BIO file into documents and gold annotations.

    Each nonblank line holds a token and its tag (first and last whitespace
    columns; extra middle columns are ignored).  Blank lines separate
    documents, and so does a line whose first column is ``-DOCSTART-``,
    CoNLL-2003's article separator, which is no token of any document.
    Document ids are positions among the documents read.  Tokens are
    joined with ``joiner`` to form document and mention text; pass "" for
    unspaced scripts.

    Raises:
        CorpusError: on malformed lines or tags, or tags whose label is not
            in ``labels`` (the offending tag is named).
    """
    docs: List[Tuple[Document, GoldAnnotation]] = []
    tokens: List[str] = []
    tags: List[str] = []
    first_line = 0

    def flush(end_line: int) -> None:
        nonlocal tokens, tags
        if not tokens:
            return
        try:
            spans = bio_spans(tags, malformed=malformed)
        except CorpusError as exc:
            raise CorpusError(f"lines {first_line}-{end_line}: {exc}") from None
        for label, _, _ in spans:
            if label not in labels:
                raise CorpusError(
                    f"lines {first_line}-{end_line}: tag label {label!r} not in label set"
                )
        doc_id = str(len(docs))
        doc = Document(id=doc_id, text=joiner.join(tokens))
        mentions = [Mention(label, joiner.join(tokens[s:e])) for label, s, e in spans]
        docs.append((doc, GoldAnnotation(doc_id=doc_id, mentions=mentions)))
        tokens, tags = [], []

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush(lineno - 1)
            continue
        fields = line.split()
        if fields[0] == "-DOCSTART-":
            flush(lineno - 1)
            continue
        if len(fields) < 2:
            raise CorpusError(f"line {lineno}: expected token and tag columns: {raw!r}")
        if not tokens:
            first_line = lineno
        tokens.append(fields[0])
        tags.append(fields[-1])
    flush(lineno)
    return docs


# ---------------------------------------------------------------------------
# JSON-lines span format
# ---------------------------------------------------------------------------

def parse_spans_json(text: str, labels: LabelSet) -> List[Tuple[Document, GoldAnnotation]]:
    """Parse JSON-lines records {"id", "text", "mentions": [{"label", "text"}]}.

    Mention order inside a record is preserved.  Malformed records, duplicate
    ids and mentions with labels outside the label set all raise
    :class:`CorpusError` naming the offending line.
    """
    docs: List[Tuple[Document, GoldAnnotation]] = []
    seen_ids: set = set()
    known = frozenset(labels.labels)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise CorpusError(f"line {lineno}: record must be a JSON object")
        try:
            doc_id = record["id"]
            doc_text = record["text"]
            raw_mentions = record.get("mentions", [])
        except KeyError as exc:
            raise CorpusError(f"line {lineno}: missing key {exc}") from None
        if not isinstance(doc_id, str) or not isinstance(doc_text, str):
            raise CorpusError(f"line {lineno}: 'id' and 'text' must be strings")
        if not isinstance(raw_mentions, list):
            raise CorpusError(f"line {lineno}: 'mentions' must be a list")
        if doc_id in seen_ids:
            raise CorpusError(f"line {lineno}: duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        mentions: List[Mention] = []
        for m in raw_mentions:
            label = surface = None
            if isinstance(m, dict):
                label, surface = m.get("label"), m.get("text")
            if not isinstance(label, str) or not isinstance(surface, str):
                raise CorpusError(f"line {lineno}: malformed mention entry: {m!r}")
            if label not in known:
                raise CorpusError(f"line {lineno}: mention label {label!r} not in label set")
            mentions.append(_mention((label, surface)))
        docs.append((Document(doc_id, doc_text), GoldAnnotation(doc_id, mentions)))
    return docs


def filter_max_mentions(
    pairs: Iterable[Tuple[Document, GoldAnnotation]],
    limit: Optional[int],
) -> Tuple[List[Tuple[Document, GoldAnnotation]], List[str]]:
    """Drop documents with more than ``limit`` total mentions.

    Off by default (``limit=None``).  Returns the kept pairs and the ids of
    dropped documents so callers can report the exclusions.
    """
    pairs = list(pairs)
    if limit is None:
        return pairs, []
    kept, dropped = [], []
    for doc, gold in pairs:
        if len(gold.mentions) > limit:
            dropped.append(doc.id)
        else:
            kept.append((doc, gold))
    return kept, dropped


def emit_spans_json(pairs: Iterable[Tuple[Document, GoldAnnotation]]) -> str:
    """Serialize (document, annotation) pairs to the JSON-lines span format.

    Inverse of :func:`parse_spans_json`; also the schema used for
    prediction files, so predictions and gold load the same way.
    """
    lines = []
    for doc, gold in pairs:
        lines.append(json.dumps(
            {
                "id": doc.id,
                "text": doc.text,
                "mentions": [{"label": m.label, "text": m.text} for m in gold.mentions],
            },
            ensure_ascii=False,
            sort_keys=True,
        ))
    return "\n".join(lines) + ("\n" if lines else "")
