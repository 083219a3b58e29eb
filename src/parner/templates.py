"""Prompt construction and completion parsing for every decoding format.

The two-step (pair) format asks for a mention count first, then for each
indexed mention in its own sequence.  The baseline formats decode a whole
document (or a whole label) in one autoregressive pass: an inline-bracket
augmented text, a parenthesized per-label annotation, or a JSON list per
label.  Emitters and parsers for each format live side by side here so the
round-trip contract (parse(emit(gold)) == gold) is easy to state and test.
The pair protocol's own layout lives here alone, in both directions:
``parse_count`` reads back every ``count_answer`` from 0 to ``max_count``,
and ``read_mention_prompt`` reads back exactly what ``build_mention_prompt``
builds.  ``PromptTemplate`` rejects a template under which either could not.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import re
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from parner.corpus import CorpusError, Document, GoldAnnotation, LabelSet, Mention

__all__ = [
    "TemplateError",
    "CountParseError",
    "PromptTemplate",
    "chinese_template",
    "Completion",
    "ParsedMention",
    "build_count_prompt",
    "build_mention_prompt",
    "read_mention_prompt",
    "build_autoreg_prompt",
    "build_onestep_prompt",
    "mention_marker",
    "count_answer",
    "parse_count",
    "parse_mention",
    "emit_struct",
    "parse_structured",
    "emit_aug",
    "parse_augmented",
    "emit_onestep",
    "parse_onestep",
    "visible_text",
]


_DIGITS = frozenset("0123456789")


class TemplateError(ValueError):
    """Raised for invalid template configuration or unbuildable prompts."""


class CountParseError(TemplateError):
    """A count completion held something other than a count up to ``max_count``."""


class Completion(Protocol):
    """Structural view of a backend completion: text, aligned tokens, stop reason."""

    text: str
    tokens: Sequence[str]
    stop_reason: str


@dataclass(frozen=True)
class PromptTemplate:
    """The settable strings that frame the two-step prompts and completions.

    Defaults reproduce the English two-step layout::

        text:
        <document text>
        entity type:
        PER
        <num>

    ``mention_marker`` must contain exactly one ``{n}`` placeholder for the
    1-based mention index.  Every other field but ``max_count``, an integer
    of at least 1, must be a string too.

    Both numbers of a mention prompt are read back from the right, so no
    digit may touch them: ``count_marker`` and ``count_terminator`` are
    non-empty, ``count_marker`` and ``count_terminator`` plus the text
    before ``{n}`` end in no ASCII digit, and ``count_terminator`` starts
    with none.  A count answer is read up to ``eos_literal``, so that is
    non-empty, starts with no ASCII digit, and occurs in
    ``count_terminator`` only at its start.  Otherwise a count would read as
    another count.
    """

    text_header: str = "text:\n"
    entity_header: str = "\nentity type:\n"
    count_marker: str = "\n<num>\n"
    count_terminator: str = "\n"
    mention_marker: str = "<mention {n}>"
    eos_literal: str = "<eos>"
    max_count: int = 100

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            expected, kind = (int, "an integer") if f.name == "max_count" else (str, "a string")
            if type(value) is not expected:  # a bool is no count here
                raise TemplateError(f"{f.name} must be {kind}, got {value!r}")
        if self.mention_marker.count("{n}") != 1:
            raise TemplateError(
                f"mention_marker needs exactly one {{n}} placeholder: {self.mention_marker!r}"
            )
        for name in ("count_marker", "count_terminator", "eos_literal"):
            if not getattr(self, name):
                raise TemplateError(f"{name} must be non-empty")
        if {self.count_marker[-1], self._index_frame[0][-1], self.count_terminator[0],
                self.eos_literal[0]} & _DIGITS:
            raise TemplateError(
                "count_marker and count_terminator plus the text before {n} must not end "
                "in a digit, nor count_terminator or eos_literal start with one: "
                f"{self.count_marker!r}, {self.count_terminator!r}, {self.mention_marker!r}, "
                f"{self.eos_literal!r}")
        if self.eos_literal in self.count_terminator[1:]:
            raise TemplateError(f"eos_literal {self.eos_literal!r} must not cut count_terminator "
                                f"{self.count_terminator!r} short")
        if self.max_count < 1:
            raise TemplateError("max_count must be at least 1")

    @functools.cached_property
    def _index_frame(self) -> Tuple[str, str]:
        """What a mention prompt holds between its count and its index, and after the index."""
        before, after = self.mention_marker.split("{n}")
        return self.count_terminator + before, after


def chinese_template() -> PromptTemplate:
    """Template variant for unspaced Chinese corpora."""
    return PromptTemplate(
        text_header="文本(text):\n",
        entity_header="\n指定NER标签(entity type):\n",
        count_marker="\n<数量>(<num>)\n",
        mention_marker="<第{n}文段>",
    )


# ---------------------------------------------------------------------------
# Two-step prompts
# ---------------------------------------------------------------------------

def build_count_prompt(doc: Document, label_surface: str, t: PromptTemplate) -> str:
    """Prompt asking how many mentions of one label the document holds."""
    return t.text_header + doc.text + t.entity_header + label_surface + t.count_marker


def mention_marker(index: int, t: PromptTemplate) -> str:
    if index < 1:
        raise TemplateError(f"mention index must be >= 1, got {index}")
    return t.mention_marker.replace("{n}", str(index))


def count_answer(count: int, t: PromptTemplate) -> List[str]:
    """The tokens of a step-one answer, which :func:`parse_count` reads back:
    one per digit, then the terminator; the end-of-sequence literal alone
    for a count of 0 or below."""
    return [*str(count), t.count_terminator] if count > 0 else [t.eos_literal]


def build_mention_prompt(count_prompt: str, count: int, index: int, t: PromptTemplate) -> str:
    """Extend a count prompt with the decoded count and one mention marker.

    The result is a strict extension of ``count_prompt``, so a stateless
    backend re-reads the full context on every step-two request.
    :func:`read_mention_prompt` reads it back.

    Raises:
        TemplateError: unless 1 <= index <= count.
    """
    if not 1 <= index <= count:
        raise TemplateError(f"mention index {index} out of range 1..{count}")
    return count_prompt + "".join(count_answer(count, t)) + mention_marker(index, t)


def _is_number(digits: str) -> bool:
    """Whether ``digits`` is a number above 0 as ``str`` writes it."""
    return digits.isdigit() and digits.isascii() and digits[0] != "0"


def read_mention_prompt(prompt: str, t: PromptTemplate) -> Optional[Tuple[int, int]]:
    """The inverse of :func:`build_mention_prompt`: where its count prompt
    ends, and the mention index; None for any other prompt.

    Both numbers are read from the right.  The count prompt is only known to
    end with ``count_marker``; whether it is a count prompt is the caller's
    question.
    """
    between, after = t._index_frame
    index_end = len(prompt) - len(after)
    count_end = prompt.rfind(between, 0, index_end)
    if count_end < 0 or not prompt.endswith(after):
        return None
    index = prompt[count_end + len(between):index_end]
    count_start = count_end
    while count_start and prompt[count_start - 1] in _DIGITS:
        count_start -= 1
    count = prompt[count_start:count_end]
    if not (_is_number(index) and _is_number(count)
            and prompt.endswith(t.count_marker, 0, count_start)):
        return None
    n = int(index)
    return (count_start, n) if n <= int(count) else None


# ---------------------------------------------------------------------------
# Baseline prompts: fixed framing; aug and struct start with text_header
# ---------------------------------------------------------------------------

_LABEL_LIST_HEADER = "\nentity types:\n"
_ANSWER_HEADERS = {"aug": "\nannotated text:\n", "struct": "\nannotation:\n"}
_ONESTEP_ENTITY_MARKER = "<entity>"
_ONESTEP_TEXT_MARKER = "<text>"


def build_autoreg_prompt(doc: Document, fmt: str, labels: LabelSet, t: PromptTemplate) -> str:
    """Single-sequence baseline prompt for the aug or struct format."""
    answer_header = _ANSWER_HEADERS.get(fmt)
    if answer_header is None:
        raise TemplateError(f"unknown autoregressive format: {fmt!r}")
    label_list = ", ".join(labels.surface(l) for l in labels)
    return t.text_header + doc.text + _LABEL_LIST_HEADER + label_list + answer_header


def build_onestep_prompt(doc: Document, label_surface: str, t: PromptTemplate) -> str:
    """Per-label prompt whose answer is a JSON list of mention surfaces.

    Its framing is fixed: ``t`` is taken so that every builder is called alike.
    """
    return _ONESTEP_ENTITY_MARKER + label_surface + _ONESTEP_TEXT_MARKER + doc.text


# ---------------------------------------------------------------------------
# Two-step completion parsing
# ---------------------------------------------------------------------------

class ParsedMention(NamedTuple):
    """Decoded mention surface plus the inclusive token span that produced it.

    ``token_span`` indexes into the completion's token list and excludes the
    end-of-sequence token; it is ``None`` for an empty mention.
    """

    text: str
    token_span: Optional[Tuple[int, int]]


def visible_text(completion: Completion, t: PromptTemplate) -> str:
    """Generated text up to (excluding) the end-of-sequence literal."""
    text = completion.text
    cut = text.find(t.eos_literal)
    return text[:cut] if cut >= 0 else text


def parse_count(completion: Completion, t: PromptTemplate) -> int:
    """Read the mention count from a step-one completion.

    The count is the digit run before the terminator; leading zeros are
    fine ("007" -> 7).  An immediate end-of-sequence (no digits at all) is
    the trained "no mentions" signal and parses as 0.

    Raises:
        CountParseError: for non-digit content (the message quotes the raw
            completion text) or a count above ``t.max_count``.
    """
    visible = visible_text(completion, t)
    idx = visible.find(t.count_terminator)
    digits = visible[:idx] if idx >= 0 else visible
    if digits == "":
        return 0
    if not (digits.isascii() and digits.isdigit()):
        raise CountParseError(
            f"expected a digit run before the terminator, got {completion.text!r}")
    value = int(digits)
    if value > t.max_count:
        raise CountParseError(f"mention count {value} exceeds maximum {t.max_count}")
    return value


def _token_ends(completion: Completion) -> List[int]:
    """Character offset, in ``completion.text``, at which each token ends."""
    return list(itertools.accumulate(len(tok) for tok in completion.tokens))


def _token_span(ends: Sequence[int], start: int, end: int) -> Optional[Tuple[int, int]]:
    """Inclusive span of the tokens holding characters [start, end) of the text.

    ``ends`` comes from :func:`_token_ends`.  An empty token holds no
    character, so it never starts or ends a span.  None when no token holds
    any character of the range.
    """
    end = min(end, ends[-1] if ends else 0)
    if start >= end:
        return None
    return bisect.bisect_right(ends, start), bisect.bisect_right(ends, end - 1)


def parse_mention(completion: Completion, t: PromptTemplate) -> ParsedMention:
    """Read one mention surface from a step-two completion.

    The surface is everything before the end-of-sequence literal, exactly
    as the backend wrote it: edge whitespace and a trailing terminator are
    part of it.  The token span covers the surface and excludes the
    end-of-sequence token, so it is the right range for probability
    scoring.

    Example:
        tokens ["Ital", "y", "<eos>"] -> ParsedMention("Italy", (0, 1))
        tokens ["<eos>"]              -> ParsedMention("", None) (empty mention)
    """
    visible = visible_text(completion, t)
    return ParsedMention(visible, _token_span(_token_ends(completion), 0, len(visible)))


# ---------------------------------------------------------------------------
# Structured annotation format: ((PER): (Cuttitta), ..., (ORG): (NULL))
# ---------------------------------------------------------------------------

_NULL_BODY = "NULL"


def emit_struct(groups: Dict[str, List[Mention]], labels: LabelSet) -> str:
    """Serialize gold mentions, as ``GoldAnnotation.by_label(labels)``
    groups them, as a parenthesized per-label annotation.

    Labels appear in the order of ``groups``, which ``by_label`` gives in
    label-set order; a label with no mentions gets the NULL body.  Example::

        ((PER): (Cuttitta), (MISC): (1995 World Cup), (LOC): (Italy, England), (ORG): (NULL))
    """
    parts = []
    for label, mentions in groups.items():
        body = ", ".join([m.text for m in mentions]) if mentions else _NULL_BODY
        parts.append(f"({labels.surface(label)}): ({body})")
    return "(" + ", ".join(parts) + ")"


def parse_structured(text: str, labels: LabelSet) -> Tuple[List[Mention], List[str]]:
    """Parse a structured annotation back into mentions (best effort).

    Mention bodies are comma-separated, so surfaces containing ", " cannot
    round-trip; that is a limit of the format itself.  Anything unparseable
    is reported as a defect string while the well-formed prefix is kept.
    Repeated label groups accumulate.  Inside a group's body, the header of
    a label whose header occurs nowhere earlier in the text and nowhere
    after that body starts a group of its own; the text between the body's
    closing parenthesis and that header belongs to no group and is a defect.
    In :func:`emit_struct`'s output every label's real header lies outside
    every body, so a header inside a body either occurs earlier or occurs
    again after it, and the output parses as if this rule did not exist.
    """
    mentions: List[Mention] = []
    defects: List[str] = []
    stripped = text.strip()
    if not stripped.startswith("("):
        defects.append(f"annotation not wrapped in parentheses: {text!r}")
        return mentions, defects
    inner = stripped[1:]
    if inner.endswith(")"):
        inner = inner[:-1]
    else:
        defects.append(f"annotation not closed: {text!r}")
    # (first offset, header) of each label's group header in the text, in
    # text order; bodies only move right, so a header behind one is dropped
    firsts = sorted(_first_headers(inner, labels))
    pos = 0
    while pos < len(inner):
        if not inner.startswith("(", pos):
            defects.append(f"unparseable tail at offset {pos}: {inner[pos:]!r}")
            break
        head_end = inner.find("): (", pos)
        if head_end < 0:
            defects.append(f"unterminated label group at offset {pos}: {inner[pos:]!r}")
            break
        surface = inner[pos + 1 : head_end]
        body_start = head_end + len("): (")
        next_group = inner.find("), (", body_start)
        stop = len(inner) if next_group < 0 else next_group
        while firsts and firsts[0][0] < body_start:
            del firsts[0]
        header = -1
        for first, group_header in firsts:
            if first >= stop:
                break
            if inner.rfind(group_header) < stop:  # nowhere after the body either
                header = first
                break
        if header < 0 and next_group >= 0:
            body = inner[body_start:next_group]
            pos = next_group + len("), ")
        else:
            end = len(inner) if header < 0 else header
            close = inner.rfind(")", body_start, end)
            if close < 0:
                defects.append(f"unterminated mention body at offset {body_start}")
                if header < 0:
                    break
                pos = header
                continue
            body = inner[body_start:close]
            tail = inner[close + 1 : end]
            if header >= 0:
                defects.append(f"text outside any label group at offset {close + 1}: {tail!r}")
            elif tail:
                defects.append(f"unparseable tail after final group: {tail!r}")
            pos = end
        try:
            label = labels.canonical(surface)
        except CorpusError:
            defects.append(f"unknown label surface {surface!r}")
            continue
        if body == _NULL_BODY:
            continue
        for part in body.split(", "):
            if part == "":
                defects.append(f"empty mention surface under label {label!r}")
                continue
            mentions.append(Mention(label, part))
    return mentions, defects


def _first_headers(inner: str, labels: LabelSet) -> List[Tuple[int, str]]:
    """(offset of its first occurrence, header) of each label's group header
    that occurs in ``inner``."""
    found = []
    for label in labels:
        header = f"({labels.surface(label)}): ("
        first = inner.find(header)
        if first >= 0:
            found.append((first, header))
    return found


# ---------------------------------------------------------------------------
# Augmented-text format: brackets inline in a copy of the input
# ---------------------------------------------------------------------------

def emit_aug(doc: Document, gold: GoldAnnotation, labels: LabelSet) -> str:
    """Copy the document text, wrapping each gold mention as [surface | LABEL].

    Mentions are matched left to right, each search starting after the
    previous match, which assumes gold order follows source order.

    Raises:
        TemplateError: when a mention surface does not occur verbatim in the
            remaining text, making the format unbuildable for this document.
    """
    text, surface = doc.text, labels.surface
    out = []
    cursor = 0
    for label, mention in gold.mentions:
        idx = text.find(mention, cursor) if mention else -1
        if idx < 0:
            raise TemplateError(
                f"mention {mention!r} not found verbatim in document {doc.id} after offset {cursor}"
            )
        out.append(text[cursor:idx])
        out.append(f"[{mention} | {surface(label)}]")
        cursor = idx + len(mention)
    out.append(text[cursor:])
    return "".join(out)


def parse_augmented(text: str, labels: LabelSet) -> Tuple[List[Mention], List[str]]:
    """Extract every well-formed [surface | LABEL] bracket in reading order.

    Malformed brackets (unclosed, missing separator, unknown label) are
    skipped and reported as defects; zero well-formed brackets is a valid
    empty result.
    """
    mentions: List[Mention] = []
    defects: List[str] = []
    pos = 0
    while True:
        start = text.find("[", pos)
        if start < 0:
            break
        end = text.find("]", start + 1)
        if end < 0:
            defects.append(f"unclosed bracket at offset {start}")
            break
        content = text[start + 1 : end]
        pos = end + 1
        if " | " not in content:
            defects.append(f"bracket without label separator: {content!r}")
            continue
        surface, label_surface = content.rsplit(" | ", 1)
        try:
            label = labels.canonical(label_surface)
        except CorpusError:
            defects.append(f"unknown label surface {label_surface!r} in bracket")
            continue
        if surface == "":
            defects.append("bracket with empty mention surface")
            continue
        mentions.append(Mention(label, surface))
    return mentions, defects


# ---------------------------------------------------------------------------
# One-step per-label format: a JSON list of surfaces
# ---------------------------------------------------------------------------

_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


def emit_onestep(mentions: Sequence[Mention]) -> str:
    """JSON list of the surfaces of ``mentions``, one label's group of
    ``GoldAnnotation.by_label``, in gold order."""
    return json.dumps([m.text for m in mentions], ensure_ascii=False)


def parse_onestep(completion: Completion, t: PromptTemplate) -> Tuple[List[ParsedMention], List[str]]:
    """Parse a JSON-list completion, recovering each surface's token span.

    Spans are recovered by mapping every quoted string's character range
    onto the completion's token offsets, which keeps probability scoring
    possible for individual mentions inside the single sequence.  A
    completion that is not a well-formed JSON list is still scanned for
    quoted strings, with a defect recorded.
    """
    visible = visible_text(completion, t)
    defects: List[str] = []
    try:
        loaded = json.loads(visible)
        if not isinstance(loaded, list) or not all(isinstance(x, str) for x in loaded):
            defects.append(f"completion is not a JSON list of strings: {visible!r}")
    except (json.JSONDecodeError, ValueError):
        defects.append(f"completion is not well-formed JSON: {visible!r}")

    ends = _token_ends(completion)
    mentions: List[ParsedMention] = []
    for match in _QUOTED.finditer(visible):
        try:
            surface = json.loads(match.group(0))
        except json.JSONDecodeError:
            defects.append(f"undecodable string literal: {match.group(0)!r}")
            continue
        if surface == "":
            defects.append("empty mention surface in list")
            continue
        mentions.append(ParsedMention(surface, _token_span(ends, match.start() + 1,
                                                           match.end() - 1)))
    return mentions, defects
