"""Test-only helpers over the corpus data model, and a test HTTP server."""

from __future__ import annotations

import sys
from collections import Counter
from http.server import ThreadingHTTPServer
from typing import Iterable, List, Sequence, Tuple

from parner.corpus import CorpusError, Mention


def spans_to_bio(spans: Sequence[Tuple[str, int, int]], length: int) -> List[str]:
    """Encode (label, start, end) spans back into a BIO tag sequence.

    Spans must be within bounds, non-empty and non-overlapping.
    """
    tags = ["O"] * length
    occupied = [False] * length
    for label, start, end in spans:
        if not (0 <= start < end <= length):
            raise CorpusError(f"span out of bounds: {(label, start, end)}")
        if any(occupied[start:end]):
            raise CorpusError(f"overlapping span: {(label, start, end)}")
        for i in range(start, end):
            occupied[i] = True
        tags[start] = f"B-{label}"
        for i in range(start + 1, end):
            tags[i] = f"I-{label}"
    return tags


def mention_multiset(mentions: Iterable[Mention]) -> Counter:
    """Multiset view of mentions as (label, text) pairs, for scoring."""
    return Counter((m.label, m.text) for m in mentions)


class QuietHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that prints nothing when its client goes away.

    Tests drop connections on purpose, and the handler thread's traceback
    would reach stderr after the test that caused it has finished.
    """

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)
