"""Gold-replay oracle backend with seeded error injection.

The oracle recognizes every prompt the schedulers can build over its
reference corpus and answers from gold: counts as digit tokens, mentions
as the indexed gold surface, baseline prompts as the serialized gold
annotation.  Optional error injection perturbs counts by one or swaps a
mention for another label's surface, which is how cross-label duplicates
and count mistakes are manufactured on demand.

Every random decision is derived by hashing the seed with the decision's
identity (document, label, index), never from shared RNG state, so answers
are a pure function of the request and identical under any call order or
concurrency.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from parner.backends.base import (
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    CostModel,
    UnknownPromptError,
    apply_request_limits,
    simple_tokenize,
)
from parner.corpus import Document, GoldAnnotation, LabelSet
from parner.templates import (
    PromptTemplate,
    TemplateError,
    build_autoreg_prompt,
    build_count_prompt,
    build_onestep_prompt,
    emit_aug,
    emit_onestep,
    emit_struct,
)

__all__ = ["ErrorInjection", "OracleBackend"]

# the logprobs of an answer's first n tokens, computed only when asked for
_Logprobs = Callable[[int], List[float]]


def _clamped_log(p: float) -> float:
    return math.log(min(max(p, 1e-6), 1.0 - 1e-9))


@dataclass(frozen=True)
class ErrorInjection:
    """Controlled mistakes for the replay oracle.

    ``p_count`` perturbs a label's mention count by +-1 (never below zero);
    ``p_index`` replaces a mention answer with a surface taken from another
    label of the same document.  The ``forced_*`` maps override specific
    answers deterministically: counts keyed by (doc_id, label), mention
    surfaces keyed by (doc_id, label, index).  Forced and swapped answers
    are scored with the low token probability.
    """

    p_count: float = 0.0
    p_index: float = 0.0
    forced_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    forced_mentions: Dict[Tuple[str, str, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, p in (("p_count", self.p_count), ("p_index", self.p_index)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


class OracleBackend(CompletionBackend):
    """Answers protocol prompts from a gold corpus with simulated latency.

    With zero error rates and no forced overrides the oracle inverts
    corpus reformulation exactly: decoding any document in any format
    reproduces its gold mentions.  Token probabilities are synthesized
    near ``hi_token_prob`` for faithful answers and near ``lo_token_prob``
    for injected errors, with a small seeded jitter.  They are computed
    only when the request sets ``want_logprobs``, and only for the tokens
    that stop strings and ``max_new_tokens`` keep.

    The instance is immutable after construction and safe for concurrent
    use.
    """

    def __init__(
        self,
        pairs: Iterable[Tuple[Document, GoldAnnotation]],
        labels: LabelSet,
        template: Optional[PromptTemplate] = None,
        cost: Optional[CostModel] = None,
        errors: Optional[ErrorInjection] = None,
        seed: int = 0,
        hi_token_prob: float = 0.93,
        lo_token_prob: float = 0.61,
        prob_jitter: float = 0.02,
    ):
        self._labels = labels
        self._t = template or PromptTemplate()
        self._cost = cost or CostModel()
        self._errors = errors or ErrorInjection()
        self._seed = seed
        self._hi = hi_token_prob
        self._lo = lo_token_prob
        self._jitter = prob_jitter
        for name, p in (("hi_token_prob", self._hi), ("lo_token_prob", self._lo)):
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {p}")

        t = self._t
        # prompt -> ("count", doc, gold, label) | ("onestep", ...) | ("autoreg", doc, gold, output)
        self._exact: Dict[str, tuple] = {}
        for doc, gold in pairs:
            for label in labels:
                surface = labels.surface(label)
                self._exact[build_count_prompt(doc, surface, t)] = ("count", doc, gold, label)
                self._exact[build_onestep_prompt(doc, surface, t)] = ("onestep", doc, gold, label)
            self._exact[build_autoreg_prompt(doc, "struct", labels, t)] = (
                "autoreg", doc, gold, emit_struct(gold, labels))
            try:
                aug_output = emit_aug(doc, gold, labels)
            except TemplateError:
                aug_output = None  # mention not verbatim in text; format unbuildable
            self._exact[build_autoreg_prompt(doc, "aug", labels, t)] = (
                "autoreg", doc, gold, aug_output)

        marker_pre, marker_post = t.mention_marker.split("{n}")
        self._mention_tail = re.compile(
            r"(\d+)" + re.escape(t.count_terminator)
            + re.escape(marker_pre) + r"(\d+)" + re.escape(marker_post) + r"\Z"
        )

    # -- seeded, order-independent randomness --------------------------------

    def _units(self, key: Sequence[object], lasts: Iterable[object]) -> List[float]:
        """Uniform [0, 1) draws for ``(*key, last)``, one per item of ``lasts``.

        Each draw is the SHA-256 of the seed and its parts, as strings
        joined by the unit separator U+001F.  SHA-256 and UTF-8 both compose
        over prefixes, so the seed and ``key`` are hashed once and each draw
        extends a copy of that hash by its last part.
        """
        material = "\x1f".join(map(str, (self._seed, *key))) + "\x1f"
        prefix = hashlib.sha256(material.encode("utf-8"))
        units = []
        for last in lasts:
            draw = prefix.copy()
            draw.update(str(last).encode("utf-8"))
            units.append(int.from_bytes(draw.digest()[:8], "big") / 2.0**64)
        return units

    def _unit(self, *parts: object) -> float:
        """The draw for one decision identity."""
        return self._units(parts[:-1], parts[-1:])[0]

    def _logprobs(self, erroneous: bool, key: Tuple, lasts: Sequence[object]) -> List[float]:
        """One token logprob per item of ``lasts``, jittered by the draw ``("jitter", *key, last)``."""
        base = self._lo if erroneous else self._hi
        if not self._jitter:
            return [_clamped_log(base)] * len(lasts)
        return [_clamped_log(base + (unit * 2.0 - 1.0) * self._jitter)
                for unit in self._units(("jitter", *key), lasts)]

    # -- answers --------------------------------------------------------------

    def generate(self, request: CompletionRequest) -> CompletionResult:
        return self._answer(request, batch_size=1)

    def generate_batch(self, requests: Sequence[CompletionRequest]) -> List[CompletionResult]:
        """One lockstep batch: every member is charged the batch-size penalty."""
        return [self._answer(r, batch_size=len(requests)) for r in requests]

    def _answer(self, request: CompletionRequest, batch_size: int) -> CompletionResult:
        tokens, logprobs = self._full_answer(request.prompt)
        tokens, text, reason = apply_request_limits(tokens, request)
        return CompletionResult(
            tokens=tuple(tokens),
            token_logprobs=tuple(logprobs(len(tokens))) if request.want_logprobs else (),
            text=text,
            stop_reason=reason,
            latency_ms=self._cost.latency_ms(len(tokens), batch_size),
        )

    def _full_answer(self, prompt: str) -> Tuple[List[str], _Logprobs]:
        """The unlimited answer's tokens, and the logprobs of its first n tokens."""
        entry = self._exact.get(prompt)
        if entry is None:
            mention = self._match_mention_prompt(prompt)
            if mention is None:
                raise UnknownPromptError(
                    f"prompt does not match any document/label in the oracle corpus: "
                    f"{prompt[-120:]!r}"
                )
            return self._mention_answer(*mention)
        kind = entry[0]
        if kind == "count":
            return self._count_answer(entry[1], entry[2], entry[3])
        if kind == "onestep":
            _, doc, gold, label = entry
            return self._serialized_answer(emit_onestep(gold, label), doc.id, f"onestep/{label}")
        _, doc, _, output = entry
        if output is None:
            raise UnknownPromptError(f"augmented answer unbuildable for document {doc.id}")
        return self._serialized_answer(output, doc.id, "autoreg")

    def _match_mention_prompt(
        self, prompt: str
    ) -> Optional[Tuple[Document, GoldAnnotation, str, int]]:
        head, sep, _ = prompt.rpartition(self._t.count_marker)
        if not sep:
            return None
        count_prompt = head + sep
        entry = self._exact.get(count_prompt)
        if entry is None or entry[0] != "count":
            return None
        tail = prompt[len(count_prompt):]
        match = self._mention_tail.fullmatch(tail)
        if match is None:
            return None
        _, doc, gold, label = entry
        return doc, gold, label, int(match.group(2))

    def _count_answer(
        self, doc: Document, gold: GoldAnnotation, label: str
    ) -> Tuple[List[str], _Logprobs]:
        t = self._t
        gold_m = len(gold.for_label(label))
        forced = self._errors.forced_counts.get((doc.id, label))
        if forced is not None:
            m = forced
        else:
            m = gold_m
            if self._errors.p_count > 0 and self._unit("count?", doc.id, label) < self._errors.p_count:
                delta = 1 if gold_m == 0 or self._unit("count+-", doc.id, label) < 0.5 else -1
                m = gold_m + delta
        erroneous = m != gold_m
        if m <= 0:
            tokens = [t.eos_literal]
        else:
            tokens = list(str(m)) + [t.count_terminator]
        return tokens, lambda n: self._logprobs(erroneous, (doc.id, label, "count"), range(n))

    def _mention_answer(
        self, doc: Document, gold: GoldAnnotation, label: str, index: int
    ) -> Tuple[List[str], _Logprobs]:
        mentions = gold.for_label(label)
        forced = self._errors.forced_mentions.get((doc.id, label, index))
        if forced is not None:
            surface, erroneous = forced, True
        elif 1 <= index <= len(mentions):
            surface, erroneous = mentions[index - 1].text, False
            if self._errors.p_index > 0 and self._unit("index?", doc.id, label, index) < self._errors.p_index:
                swapped = self._cross_label_surface(doc, gold, label, index)
                if swapped is not None:
                    surface, erroneous = swapped, True
        elif mentions:
            # count was overestimated: repeat the last known mention
            surface, erroneous = mentions[-1].text, True
        else:
            surface = self._cross_label_surface(doc, gold, label, index) or "unknown"
            erroneous = True
        tokens = simple_tokenize(surface) + [self._t.eos_literal]

        def logprobs(n: int) -> List[float]:
            kept = self._logprobs(erroneous, (doc.id, label, "mention", index),
                                  range(min(n, len(tokens) - 1)))
            if n == len(tokens):
                kept += self._logprobs(False, (doc.id, label, "mention-eos"), (index,))
            return kept

        return tokens, logprobs

    def _cross_label_surface(
        self, doc: Document, gold: GoldAnnotation, label: str, index: int
    ) -> Optional[str]:
        candidates = [m.text for m in gold.mentions if m.label != label]
        if not candidates:
            return None
        pick = int(self._unit("swap", doc.id, label, index) * len(candidates))
        return candidates[min(pick, len(candidates) - 1)]

    def _serialized_answer(
        self, output: str, doc_id: str, key: str
    ) -> Tuple[List[str], _Logprobs]:
        tokens = simple_tokenize(output) + [self._t.eos_literal]
        return tokens, lambda n: self._logprobs(False, (doc_id, key), range(n))
