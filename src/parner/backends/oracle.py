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
import struct
import threading
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
from parner.corpus import Document, GoldAnnotation, LabelSet, Mention
from parner.templates import (
    PromptTemplate,
    TemplateError,
    build_autoreg_prompt,
    build_count_prompt,
    build_onestep_prompt,
    count_answer,
    emit_aug,
    emit_onestep,
    emit_struct,
    read_mention_prompt,
)

__all__ = ["ErrorInjection", "OracleBackend"]

# the logprobs of an answer's first n tokens, computed only when asked for
_Logprobs = Callable[[int], List[float]]
# a document's position in the corpus, the document, its gold, and its gold
# mentions by label
_Pair = Tuple[int, Document, GoldAnnotation, Dict[str, List[Mention]]]
# a frame's build order within one document, its prompt kind, and its
# label (count, onestep) or format (autoreg)
_Frame = Tuple[int, str, str]

# stands for the document text when the prompt builders lay out the frames
_SENTINEL = "\U0010fffd"

# each token's probability: near _HI_TOKEN_PROB for a faithful answer, near
# _LO_TOKEN_PROB for an injected error, within +-_PROB_JITTER of it
_HI_TOKEN_PROB = 0.93
_LO_TOKEN_PROB = 0.61
_PROB_JITTER = 0.02

# a digest's first 8 bytes as a big-endian integer
_HEAD = struct.Struct(">Q").unpack_from


def _logprob(base: float, unit: float) -> float:
    """The logprob of a token of probability ``base``, jittered by the draw ``unit``."""
    return math.log(base + (unit * 2.0 - 1.0) * _PROB_JITTER)


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
    reproduces its gold mentions.  Token probabilities are fixed at 0.93
    for faithful answers and 0.61 for injected errors, each with a seeded
    jitter of +-0.02, so every logprob is finite.  They are computed
    only when the request sets ``want_logprobs``, and only for the tokens
    that ``max_new_tokens`` keeps.

    Every draw is the SHA-256 of the seed and the draw's identity, their
    parts joined by the unit separator U+001F, with the digest's first 8
    bytes read as a big-endian fraction of 2**64.  A decision (``count?``,
    ``count+-``, ``index?``, ``swap``) and a mention's end-of-sequence
    token are hashed in one call each.  The jitter of a sequence's tokens
    takes one hash per sequence: the seed and the sequence key are hashed
    once, and each token's draw extends a copy of that hash by the token's
    position in decimal.

    A prompt is recognised as a *frame* plus a document text: the frame is
    the template text a prompt builder puts before and after the document
    text, derived once by running the builders on a sentinel document.
    The oracle keeps one map from document text to its pair, keyed on the
    corpus's own strings, and the few frames of the template and label
    set; it holds no prompt.  Index memory is therefore O(corpus), not
    O(corpus x (2 labels + 2)) as a map from every buildable prompt would
    be.  Construction groups each gold by label, once, with
    ``GoldAnnotation.by_label``; count, mention, onestep and struct answers
    are all read from those groups.  It builds no struct or aug answer.
    The first request that reads an answer of a format builds that
    format's answers for every document, in one loop, so a run builds only
    the formats its modes read, and a format costs what it would cost at
    construction.  A mention prompt is recognised as a count prompt plus
    the tail that ``templates.build_mention_prompt`` adds, read back by
    ``templates.read_mention_prompt``.  That reading is tried only when the
    whole prompt is no count, onestep or autoreg prompt, so a prompt that
    is both gets the other prompt's answer.  When two pairs share a
    document text, the later one answers.  A gold mention whose label is
    not in ``labels`` is a ``CorpusError`` at construction.

    Answers are a pure function of the request, and the instance is safe
    for concurrent use: a lock makes the first build of a format's answers
    the only one.
    """

    def __init__(
        self,
        pairs: Iterable[Tuple[Document, GoldAnnotation]],
        labels: LabelSet,
        template: Optional[PromptTemplate] = None,
        cost: Optional[CostModel] = None,
        errors: Optional[ErrorInjection] = None,
        seed: int = 0,
    ):
        self._labels = labels
        self._t = template or PromptTemplate()
        self._cost = cost or CostModel()
        self._errors = errors or ErrorInjection()
        self._seed = seed

        t = self._t
        # document text -> _Pair; a later pair with the same text replaces an
        # earlier one
        self._texts: Dict[str, _Pair] = {}
        for position, (doc, gold) in enumerate(pairs):
            by_label = gold.by_label(labels)
            if sum(map(len, by_label.values())) < len(gold.mentions):
                # by_label leaves out a mention whose label is not in labels
                for label, _ in gold.mentions:
                    labels.rank(label)  # raises CorpusError("unknown label: ...")
            self._texts[doc.text] = (position, doc, gold, by_label)
        # "struct" or "aug" -> each document's answer by corpus position
        self._autoreg: Dict[str, Dict[int, Optional[str]]] = {}
        self._autoreg_lock = threading.Lock()

        # the builders lay out each frame around a sentinel document text
        by_prefix: Dict[str, Dict[str, _Frame]] = {}
        sentinel = Document("", _SENTINEL)
        builds = []
        for label in labels:
            surface = labels.surface(label)
            builds.append(("count", label, build_count_prompt(sentinel, surface, t)))
            builds.append(("onestep", label, build_onestep_prompt(sentinel, surface, t)))
        for fmt in ("struct", "aug"):
            builds.append(("autoreg", fmt, build_autoreg_prompt(sentinel, fmt, labels, t)))
        for rank, (kind, arg, prompt) in enumerate(builds):
            if prompt.count(_SENTINEL) != 1:
                raise TemplateError(
                    f"a {kind} prompt must hold the document text exactly once: {prompt!r}")
            prefix, suffix = prompt.split(_SENTINEL)
            by_prefix.setdefault(prefix, {})[suffix] = (rank, kind, arg)
        # prefix -> (its suffixes, their distinct lengths, suffix -> frame);
        # cuts are tried in build order, so a count prompt is cut right first
        self._frames = {
            prefix: (tuple(by_suffix), list(dict.fromkeys(map(len, by_suffix))), by_suffix)
            for prefix, by_suffix in by_prefix.items()
        }
        self._prefix_lens = list(dict.fromkeys(map(len, by_prefix)))
        # when no prefix begins another, a prompt begins with at most one
        self._exclusive_prefixes = not any(
            p1.startswith(p2) for p1 in by_prefix for p2 in by_prefix if p1 != p2)
        # unless two frames can both match one prompt, the first match is the only one
        frames = [(prefix, suffix) for prefix, by_suffix in by_prefix.items()
                  for suffix in by_suffix]
        self._unambiguous = not any(
            (p1.startswith(p2) or p2.startswith(p1)) and (s1.endswith(s2) or s2.endswith(s1))
            for i, (p1, s1) in enumerate(frames) for p2, s2 in frames[:i]
        )

    # -- seeded, order-independent randomness --------------------------------

    def _unit(self, identity: str) -> float:
        """The uniform [0, 1) draw named by ``identity``, such as a decision's:
        the first 8 bytes of the SHA-256 of the seed and ``identity``, as a
        fraction of 2**64."""
        digest = hashlib.sha256(f"{self._seed}\x1f{identity}".encode("utf-8")).digest()
        return _HEAD(digest)[0] * 2.0**-64

    def _logprobs(self, erroneous: bool, key: str, n: int) -> List[float]:
        """The logprobs of the first ``n`` tokens of the sequence ``key``.

        Token i is jittered by the draw of ``jitter``, ``key`` and i.  The
        seed and ``key`` are hashed once; SHA-256 and UTF-8 compose over
        prefixes, so each token's draw extends a copy of that hash by i.
        """
        base = _LO_TOKEN_PROB if erroneous else _HI_TOKEN_PROB
        key_hash = hashlib.sha256(f"{self._seed}\x1fjitter\x1f{key}\x1f".encode("utf-8"))
        logprobs = []
        for i in range(n):
            draw = key_hash.copy()
            draw.update(b"%d" % i)
            logprobs.append(_logprob(base, _HEAD(draw.digest())[0] * 2.0**-64))
        return logprobs

    # -- answers --------------------------------------------------------------

    def generate(self, request: CompletionRequest) -> CompletionResult:
        return self._answer(request, batch_size=1)

    def generate_batch(self, requests: Sequence[CompletionRequest]) -> List[CompletionResult]:
        """One lockstep batch: every member is charged the batch-size penalty."""
        return [self._answer(r, batch_size=len(requests)) for r in requests]

    def _answer(self, request: CompletionRequest, batch_size: int) -> CompletionResult:
        tokens, logprobs = self._full_answer(request.prompt)
        tokens, text, reason = apply_request_limits(tokens, request)
        token_logprobs = tuple(logprobs(len(tokens))) if request.want_logprobs else ()
        # positional: binding keywords costs about as much again as the tuple
        return CompletionResult(tuple(tokens), token_logprobs, text, reason,
                                self._cost.latency_ms(len(tokens), batch_size))

    def _full_answer(self, prompt: str) -> Tuple[List[str], _Logprobs]:
        """The unlimited answer's tokens, and the logprobs of its first n tokens."""
        index = None
        found = self._lookup(prompt, len(prompt))
        if found is None:  # then a mention prompt: a count prompt and a tail
            read = read_mention_prompt(prompt, self._t)
            if read is not None:
                count_end, index = read
                found = self._lookup(prompt, count_end)
            if found is None or found[0][1] != "count":
                raise UnknownPromptError(
                    f"prompt does not match any document/label in the oracle corpus: "
                    f"{prompt[-120:]!r}"
                )
        (_, kind, arg), (position, doc, gold, by_label) = found
        if index is not None:
            return self._mention_answer(doc, gold, arg, index, by_label[arg])
        if kind == "count":
            return self._count_answer(doc, arg, by_label[arg])
        if kind == "onestep":
            return self._serialized_answer(emit_onestep(by_label[arg]), doc.id, f"onestep/{arg}")
        answers = self._autoreg.get(arg)
        if answers is None:
            answers = self._build_autoreg(arg)
        output = answers[position]
        if output is None:
            raise UnknownPromptError(f"augmented answer unbuildable for document {doc.id}")
        return self._serialized_answer(output, doc.id, "autoreg")

    def _build_autoreg(self, fmt: str) -> Dict[int, Optional[str]]:
        """Every document's ``fmt`` answer by corpus position, built once.

        An aug answer is None when a mention is not verbatim in the text.
        """
        with self._autoreg_lock:
            answers = self._autoreg.get(fmt)
            if answers is not None:
                return answers  # another thread built them while this one waited
            labels = self._labels
            answers = {}
            for position, doc, gold, by_label in self._texts.values():
                if fmt == "struct":
                    answers[position] = emit_struct(by_label, labels)
                    continue
                try:
                    answers[position] = emit_aug(doc, gold, labels)
                except TemplateError:
                    answers[position] = None
            self._autoreg[fmt] = answers
            return answers

    def _lookup(self, prompt: str, end: int) -> Optional[Tuple[_Frame, _Pair]]:
        """The frame and pair whose prompt is ``prompt[:end]``, or None.

        When several frames split the prompt into a known document text,
        the one a document later in the corpus built wins, then the one
        built later for the same document.
        """
        best = None
        texts, frames_of = self._texts, self._frames.get
        for prefix_len in self._prefix_lens:
            frames = frames_of(prompt[:prefix_len]) if prefix_len <= end else None
            if frames is None:
                continue
            suffixes, suffix_lens, by_suffix = frames
            # one test rejects what no frame ends, such as every mention prompt
            if prompt.endswith(suffixes, prefix_len, end):
                for suffix_len in suffix_lens:
                    text_end = end - suffix_len
                    if text_end < prefix_len:
                        continue
                    frame = by_suffix.get(prompt[text_end:end])
                    if frame is None:
                        continue
                    pair = texts.get(prompt[prefix_len:text_end])
                    if pair is None:
                        continue
                    if self._unambiguous:
                        return frame, pair
                    if best is None or (pair[0], frame[0]) > (best[1][0], best[0][0]):
                        best = frame, pair
            if self._exclusive_prefixes:
                break  # no other prefix can begin this prompt
        return best

    def _count_answer(
        self, doc: Document, label: str, mentions: List[Mention]
    ) -> Tuple[List[str], _Logprobs]:
        gold_m = len(mentions)
        key = f"{doc.id}\x1f{label}"
        forced = self._errors.forced_counts.get((doc.id, label))
        if forced is not None:
            m = forced
        else:
            m = gold_m
            p = self._errors.p_count
            if p > 0 and self._unit(f"count?\x1f{key}") < p:
                delta = 1 if gold_m == 0 or self._unit(f"count+-\x1f{key}") < 0.5 else -1
                m = gold_m + delta
        erroneous = m != gold_m
        tokens = count_answer(m, self._t)
        return tokens, lambda n: self._logprobs(erroneous, f"{key}\x1fcount", n)

    def _mention_answer(
        self, doc: Document, gold: GoldAnnotation, label: str, index: int,
        mentions: List[Mention],
    ) -> Tuple[List[str], _Logprobs]:
        key = f"{doc.id}\x1f{label}"
        forced = self._errors.forced_mentions.get((doc.id, label, index))
        if forced is not None:
            surface, erroneous = forced, True
        elif 1 <= index <= len(mentions):
            surface, erroneous = mentions[index - 1].text, False
            p = self._errors.p_index
            if p > 0 and self._unit(f"index?\x1f{key}\x1f{index}") < p:
                swapped = self._cross_label_surface(doc, gold, label, index)
                if swapped is not None:
                    surface, erroneous = swapped, True
        elif mentions:
            # count was overestimated: repeat the last known mention
            surface, erroneous = mentions[-1].text, True
        else:
            surface = self._cross_label_surface(doc, gold, label, index) or "unknown"
            erroneous = True
        tokens = simple_tokenize(surface)
        tokens.append(self._t.eos_literal)

        def logprobs(n: int) -> List[float]:
            kept = self._logprobs(erroneous, f"{key}\x1fmention\x1f{index}",
                                  min(n, len(tokens) - 1))
            if n == len(tokens):
                eos = self._unit(f"jitter\x1f{key}\x1fmention-eos\x1f{index}")
                kept.append(_logprob(_HI_TOKEN_PROB, eos))
            return kept

        return tokens, logprobs

    def _cross_label_surface(
        self, doc: Document, gold: GoldAnnotation, label: str, index: int
    ) -> Optional[str]:
        candidates = [m.text for m in gold.mentions if m.label != label]
        if not candidates:
            return None
        pick = int(self._unit(f"swap\x1f{doc.id}\x1f{label}\x1f{index}") * len(candidates))
        return candidates[min(pick, len(candidates) - 1)]

    def _serialized_answer(
        self, output: str, doc_id: str, key: str
    ) -> Tuple[List[str], _Logprobs]:
        tokens = simple_tokenize(output)
        tokens.append(self._t.eos_literal)
        return tokens, lambda n: self._logprobs(False, f"{doc_id}\x1f{key}", n)
