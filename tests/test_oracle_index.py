"""The oracle's prompt index: frames plus document text, checked on
adversarial texts, against a map of every buildable prompt, for size, and
for answers built on first use."""

from __future__ import annotations

import dataclasses
import re
import sys
import threading
import tracemalloc
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parner import templates
from parner.backends import (CompletionRequest, CompletionResult, OracleBackend,
                             UnknownPromptError)
from parner.backends import oracle as oracle_module
from parner.corpus import CorpusError, Document, GoldAnnotation, LabelSet, Mention
from parner.evaluation import micro_f1
from parner.scheduler import run_corpus
from parner.synthetic import make_corpus
from parner.templates import (
    PromptTemplate,
    TemplateError,
    build_autoreg_prompt,
    build_count_prompt,
    build_mention_prompt,
    build_onestep_prompt,
    chinese_template,
    emit_aug,
    emit_onestep,
    emit_struct,
    mention_marker,
    read_mention_prompt,
)

Pairs = List[Tuple[Document, GoldAnnotation]]

LABEL_NAMES = ["PER", "MISC", "LOC", "ORG"]
SETUPS = {
    "english": (PromptTemplate(), LabelSet(LABEL_NAMES)),
    "chinese": (chinese_template(),
                LabelSet(LABEL_NAMES, {"PER": "人物", "MISC": "其他", "LOC": "地点",
                                       "ORG": "组织"})),
}
# occurs in no template, label surface or generated text
ALIEN = "☃"
# the baseline prompts' framing, which no template sets
FIXED_FRAMING = [templates._LABEL_LIST_HEADER, *templates._ANSWER_HEADERS.values(),
                 templates._ONESTEP_ENTITY_MARKER, templates._ONESTEP_TEXT_MARKER]


def _template_pieces(t: PromptTemplate, labels: LabelSet) -> List[str]:
    """Every string field of the template, the fixed framing, every label
    surface, and mention markers."""
    fields = [getattr(t, f.name) for f in dataclasses.fields(t) if f.name != "max_count"]
    return fields + FIXED_FRAMING + [labels.surface(l) for l in labels] + [
        "<mention 3>", mention_marker(3, t), "3" + t.count_terminator]


@st.composite
def corpora(draw, setup: str) -> Pairs:
    """Documents whose texts are built from template text, label surfaces and
    mention markers, some the prefix, suffix or duplicate of another's."""
    t, labels = SETUPS[setup]
    piece = st.sampled_from(_template_pieces(t, labels)) | st.text("ab 1\n", max_size=4)
    texts: List[str] = []
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["new", "prefix", "suffix", "duplicate"])
                   if texts else st.just("new"))
        text = "".join(draw(st.lists(piece, max_size=6)))
        if how != "new":
            other = draw(st.sampled_from(texts))
            text = {"prefix": other + text, "suffix": text + other, "duplicate": other}[how]
        texts.append(text)
    # what the pair and onestep formats carry back: no end-of-sequence
    # literal, no empty surface
    surface = st.text('abXY 19",[]|()\\', min_size=1, max_size=8)
    pairs: Pairs = []
    for i, text in enumerate(texts):
        mentions = draw(st.lists(st.builds(Mention, st.sampled_from(LABEL_NAMES), surface),
                                 max_size=5))
        pairs.append((Document(f"d{i}", text), GoldAnnotation(f"d{i}", mentions)))
    return pairs


def _answering_gold(pairs: Pairs) -> Dict[str, GoldAnnotation]:
    """Document id -> the gold that answers for its text: the last pair's."""
    last = {doc.text: gold for doc, gold in pairs}
    return {doc.id: last[doc.text] for doc, _ in pairs}


def _multiset(mentions) -> List[Tuple[str, str]]:
    return sorted((m.label, m.text) for m in mentions)


def _raises_unknown(oracle: OracleBackend, prompt: str) -> None:
    with pytest.raises(UnknownPromptError):
        oracle.generate(CompletionRequest(prompt=prompt))


class TestRecognition:
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @pytest.mark.parametrize("mode", ["pair-multi", "pair-batch", "onestep"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_noiseless_decode_returns_the_answering_gold(self, setup, mode, data):
        pairs = data.draw(corpora(setup))
        t, labels = SETUPS[setup]
        oracle = OracleBackend(pairs, labels, t)
        answering = _answering_gold(pairs)
        outcomes = run_corpus([doc for doc, _ in pairs], labels, oracle, t, mode,
                              parallelism=1)
        for outcome in outcomes:
            assert outcome.defects == []
            assert (_multiset(outcome.raw_mentions)
                    == _multiset(answering[outcome.doc_id].mentions))

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_near_misses_are_unknown(self, setup, data):
        pairs = data.draw(corpora(setup))
        t, labels = SETUPS[setup]
        oracle = OracleBackend(pairs, labels, t)
        doc, _ = data.draw(st.sampled_from(pairs))
        surface = labels.surface(data.draw(st.sampled_from(LABEL_NAMES)))
        count = build_count_prompt(doc, surface, t)
        valid = [count, build_mention_prompt(count, 2, 1, t),
                 build_onestep_prompt(doc, surface, t),
                 build_autoreg_prompt(doc, "struct", labels, t)]
        for prompt in valid:
            _raises_unknown(oracle, prompt + ALIEN)
        if doc.text:
            i = data.draw(st.integers(0, len(doc.text) - 1))
            changed = Document(doc.id, doc.text[:i] + ALIEN + doc.text[i + 1:])
            _raises_unknown(oracle, build_count_prompt(changed, surface, t))
            _raises_unknown(oracle, build_onestep_prompt(changed, surface, t))
            _raises_unknown(oracle, build_autoreg_prompt(changed, "aug", labels, t))
        _raises_unknown(oracle, build_count_prompt(doc, surface + ALIEN, t))
        _raises_unknown(oracle, build_onestep_prompt(doc, ALIEN + surface, t))
        # a non-digit index, full-width digits, leading zeros, index 0, index above count
        for count_text, index_text in (("2", "x"), ("２", "１"), ("02", "01"), ("2", "0"),
                                       ("2", "3")):
            _raises_unknown(oracle, count + count_text + t.count_terminator
                            + t.mention_marker.replace("{n}", index_text))


def _count_tokens(mentions: List[Mention], t: PromptTemplate) -> Tuple[str, ...]:
    m = len(mentions)
    return tuple(str(m)) + (t.count_terminator,) if m else (t.eos_literal,)


@st.composite
def tiny_worlds(draw):
    """A template, label surfaces and texts over a four-letter alphabet and
    the fixed framing, so that one prompt often splits into frame + text in
    more than one way, also between frames of different kinds."""
    word = st.text("ab#\n", max_size=3)
    names = LABEL_NAMES[:draw(st.integers(1, 3))]
    surfaces = draw(st.lists(st.text("ab#\n", min_size=1, max_size=3), min_size=len(names),
                             max_size=len(names), unique=True))
    labels = LabelSet(names, dict(zip(names, surfaces)))
    # the framing that no template sets: each onestep prompt's head and
    # each autoreg prompt's tail
    empty, bare = Document("", ""), PromptTemplate(text_header="")
    fixed = [build_onestep_prompt(empty, surface, bare) for surface in surfaces]
    fixed += [build_autoreg_prompt(empty, fmt, labels, bare) for fmt in ("struct", "aug")]
    framed = word | st.sampled_from(fixed)
    t = PromptTemplate(
        text_header=draw(framed), entity_header=draw(framed), count_marker=draw(framed) or "#",
        count_terminator=draw(st.sampled_from(["\n", "#", "a"])),
        mention_marker=draw(word) + "{n}" + draw(word))
    # (head, tail) of every prompt's frame
    sentinel = Document("", ALIEN)
    frames = st.sampled_from(
        [build(sentinel, surface, t).split(ALIEN)
         for surface in surfaces for build in (build_count_prompt, build_onestep_prompt)]
        + [build_autoreg_prompt(sentinel, fmt, labels, t).split(ALIEN)
           for fmt in ("struct", "aug")])
    texts: List[str] = []
    for _ in range(draw(st.integers(1, 5))):
        text = draw(framed)
        if texts and draw(st.booleans()):  # extend another text, by a word or as a frame does
            other = draw(st.sampled_from(texts))
            head, tail = draw(frames)
            text = draw(st.sampled_from([other + text, text + other, head + other,
                                         other + tail]))
        texts.append(text)
    pairs = []
    for i, text in enumerate(texts):
        # at most 16, so that no answer outgrows the default token budget
        mentions = [Mention(names[k % len(names)], text[:k + 1])
                    for k in range(min(len(text), 16))]
        pairs.append((Document(f"d{i}", text), GoldAnnotation(f"d{i}", mentions)))
    return t, labels, pairs


class TestAgainstAPromptMap:
    """The oracle answers every buildable prompt as a map from each prompt to
    its pair, filled in corpus order, would: the last pair to build it wins."""

    @settings(max_examples=200, deadline=None)
    @given(tiny_worlds())
    def test_every_buildable_prompt(self, world):
        t, labels, pairs = world
        oracle = OracleBackend(pairs, labels, t)
        expected: Dict[str, tuple] = {}
        for doc, gold in pairs:
            groups = gold.by_label(labels)
            for label, mentions in groups.items():
                surface = labels.surface(label)
                expected[build_count_prompt(doc, surface, t)] = (
                    "count", _count_tokens(mentions, t))
                expected[build_onestep_prompt(doc, surface, t)] = (
                    "text", emit_onestep(mentions) + t.eos_literal)
            expected[build_autoreg_prompt(doc, "struct", labels, t)] = (
                "text", emit_struct(groups, labels) + t.eos_literal)
            try:
                aug = ("text", emit_aug(doc, gold, labels) + t.eos_literal)
            except TemplateError:
                aug = ("unknown", None)
            expected[build_autoreg_prompt(doc, "aug", labels, t)] = aug
        for prompt, (kind, answer) in expected.items():
            request = CompletionRequest(prompt=prompt)
            if kind == "unknown":
                with pytest.raises(UnknownPromptError):
                    oracle.generate(request)
                continue
            result = oracle.generate(request)
            assert (result.tokens if kind == "count" else result.text) == answer


class TestPairProtocol:
    """Mention prompts read back over random templates, and noiseless pair
    decodes under templates whose count marker also ends the text between a
    mention prompt's count and its index."""

    @settings(max_examples=200, deadline=None)
    @given(world=tiny_worlds(), data=st.data())
    def test_mention_prompt_reads_back(self, world, data):
        t, labels, pairs = world
        doc, _ = data.draw(st.sampled_from(pairs))
        count_prompt = build_count_prompt(doc, labels.surface(next(iter(labels))), t)
        count = data.draw(st.integers(1, 150))
        index = data.draw(st.integers(1, count))
        prompt = build_mention_prompt(count_prompt, count, index, t)
        assert read_mention_prompt(prompt, t) == (len(count_prompt), index)

    @settings(max_examples=300, deadline=None)
    @given(world=tiny_worlds(), data=st.data())
    def test_what_reads_back_was_built(self, world, data):
        t, labels, pairs = world
        before, after = t.mention_marker.split("{n}")
        piece = st.sampled_from(["", "0", "1", "10", "２", t.count_marker, t.count_terminator,
                                 before, after, "a", "#"])
        number = st.sampled_from(["1", "2", "9", "10", "12", "", "0", "01", "２"])
        # a mention prompt's layout, a part of it now and then swapped for another piece
        layout = [piece, st.just(t.count_marker), number, st.just(t.count_terminator),
                  st.just(before), number, st.just(after)]
        prompt = "".join(data.draw(piece if data.draw(st.sampled_from(range(8))) == 0 else part)
                         for part in layout)
        read = read_mention_prompt(prompt, t)
        if read is not None:
            end, index = read
            count = int(re.match("[0-9]+", prompt[end:]).group())
            assert prompt[:end].endswith(t.count_marker)
            assert build_mention_prompt(prompt[:end], count, index, t) == prompt

    @pytest.mark.parametrize("fields", [
        {"count_marker": "\n"},
        {"count_marker": "\n<num>", "mention_marker": "\n<num>{n}"},
    ], ids=["newline", "num-in-both"])
    @pytest.mark.parametrize("mode", ["pair-multi", "pair-batch"])
    def test_noiseless_decode_scores_one(self, labels, fields, mode):
        t = PromptTemplate(**fields)
        pairs = make_corpus(50, labels, seed=1)
        outcomes = run_corpus([doc for doc, _ in pairs], labels,
                              OracleBackend(pairs, labels, t), t, mode, parallelism=1)
        assert [d for outcome in outcomes for d in outcome.defects] == []
        pred = {outcome.doc_id: [Mention(m.label, m.text) for m in outcome.raw_mentions]
                for outcome in outcomes}
        gold = {doc.id: gold.mentions for doc, gold in pairs}
        assert micro_f1(pred, gold, labels).f1 == 1.0


class TestTieBreaks:
    """Where one prompt is two documents' prompts, or two prompts of one
    document, the last pair, then the last prompt built for it, answers."""

    @pytest.fixture
    def template(self):
        return PromptTemplate(entity_header="", count_marker="#")

    @pytest.fixture
    def labels(self):
        return LabelSet(["PER", "LOC"], {"PER": "ba", "LOC": "a"})

    @pytest.mark.parametrize("later", ["x", "xb"])
    def test_later_document_answers(self, template, labels, later):
        earlier = {"x": "xb", "xb": "x"}[later]
        pairs = [(Document(f"d-{text}", text), GoldAnnotation(f"d-{text}", [
            Mention("PER", "p")] * 2 + [Mention("LOC", "l")] * 3)) for text in (earlier, later)]
        oracle = OracleBackend(pairs, labels, template)
        prompt = build_count_prompt(pairs[0][0], "ba" if earlier == "x" else "a", template)
        assert prompt == "text:\nxba#"
        result = oracle.generate(CompletionRequest(prompt=prompt))
        assert result.text == ("2\n" if later == "x" else "3\n")

    def test_later_prompt_of_one_document_answers(self, labels):
        t = PromptTemplate(text_header="", entity_header="<entity>", count_marker="<text>")
        doc = Document("d0", "<entity>a<text>")
        gold = GoldAnnotation("d0", [Mention("LOC", "l")])
        oracle = OracleBackend([(doc, gold)], labels, t)
        prompt = build_count_prompt(doc, "a", t)
        assert prompt == build_onestep_prompt(doc, "a", t) == "<entity>a<text>" * 2
        result = oracle.generate(CompletionRequest(prompt=prompt))
        assert result.text == '["l"]<eos>'

    @pytest.mark.parametrize("b_later", [True, False], ids=["b-later", "b-earlier"])
    def test_whole_prompt_beats_mention_reading(self, b_later):
        # one prompt is a's PER mention 1 prompt and b's PER onestep prompt:
        # the whole-prompt reading answers, wherever b is in the corpus
        t = PromptTemplate(text_header="<entity>PER<text>")
        labels = LabelSet(["PER", "LOC"])
        a = Document("a", "Bob met Ann .")
        b = Document("b", a.text + "\nentity type:\nPER\n<num>\n1\n<mention 1>")
        pairs = [(a, GoldAnnotation("a", [Mention("PER", "Bob")])),
                 (b, GoldAnnotation("b", [Mention("LOC", "Ann")]))]
        oracle = OracleBackend(pairs if b_later else pairs[::-1], labels, t)
        prompt = build_mention_prompt(build_count_prompt(a, "PER", t), 1, 1, t)
        assert prompt == build_onestep_prompt(b, "PER", t)
        assert oracle.generate(CompletionRequest(prompt=prompt)).text == "[]<eos>"


class TestPrebuiltAnswers:
    """The struct and aug answers, built on first use, are the emitters' own."""

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_equal_emit_struct_and_emit_aug(self, setup):
        t, labels = SETUPS[setup]
        pairs = make_corpus(20, LABEL_NAMES, seed=4)
        # same-label repeats, and a last document whose aug answer cannot be built
        doc, gold = pairs[0]
        again = gold.mentions[0]
        pairs[0] = (Document(doc.id, doc.text + " " + again.text),
                    GoldAnnotation(doc.id, gold.mentions + [again]))
        pairs.append((Document("lost", "no mention here"),
                      GoldAnnotation("lost", [Mention("LOC", "Rome"), Mention("LOC", "Rome")])))
        oracle = OracleBackend(pairs, labels, t)
        for doc, gold in pairs:
            struct = oracle.generate(CompletionRequest(
                build_autoreg_prompt(doc, "struct", labels, t), 10 ** 6))
            assert struct.text == emit_struct(gold.by_label(labels), labels) + t.eos_literal
            aug_prompt = build_autoreg_prompt(doc, "aug", labels, t)
            if doc.id == "lost":
                with pytest.raises(TemplateError):
                    emit_aug(doc, gold, labels)
                with pytest.raises(UnknownPromptError, match="augmented answer unbuildable"):
                    oracle.generate(CompletionRequest(aug_prompt))
                continue
            aug = oracle.generate(CompletionRequest(aug_prompt, 10 ** 6))
            assert aug.text == emit_aug(doc, gold, labels) + t.eos_literal


def _every_prompt(pairs: Pairs, labels: LabelSet, t: PromptTemplate) -> List[str]:
    """Each prompt kind of each document: count, first mention, onestep, struct, aug."""
    prompts = []
    for doc, _ in pairs:
        for label in labels:
            count = build_count_prompt(doc, labels.surface(label), t)
            prompts += [count, build_mention_prompt(count, 1, 1, t),
                        build_onestep_prompt(doc, labels.surface(label), t)]
        prompts += [build_autoreg_prompt(doc, fmt, labels, t) for fmt in ("struct", "aug")]
    return prompts


def _answer_all(oracle: OracleBackend, prompts: List[str]) -> List[CompletionResult]:
    return [oracle.generate(CompletionRequest(prompt, 10 ** 6)) for prompt in prompts]


class TestIndexSize:
    def test_memory_below_twice_the_corpus_text(self, labels, template):
        pairs = make_corpus(300, labels, fillers_between=(40, 80))
        text_bytes = sum(len(doc.text.encode("utf-8")) for doc, _ in pairs)
        autoreg = [build_autoreg_prompt(doc, fmt, labels, template)
                   for doc, _ in pairs for fmt in ("struct", "aug")]
        tracemalloc.start()
        try:
            oracle = OracleBackend(pairs, labels, template)
            # every struct answer and aug answer built
            for prompt in autoreg:
                oracle.generate(CompletionRequest(prompt))
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle._autoreg.keys() == {"struct", "aug"}
        assert None not in oracle._autoreg["aug"].values()
        assert grown < 2 * text_bytes

    def test_holds_no_prompt(self, labels, template):
        pairs = make_corpus(5, labels, seed=3)
        oracle = OracleBackend(pairs, labels, template)
        prompts = _every_prompt(pairs, labels, template)
        _answer_all(oracle, prompts)
        # every string the oracle reaches, through containers and the
        # attributes of every object, its struct and aug answers among them
        held, seen, todo = set(), set(), [oracle]
        while todo:
            value = todo.pop()
            if isinstance(value, str):
                held.add(value)
            elif id(value) in seen:
                continue
            else:
                seen.add(id(value))
                if isinstance(value, dict):
                    todo.extend(value.keys())
                    todo.extend(value.values())
                elif isinstance(value, (tuple, list, set, frozenset)):
                    todo.extend(value)
                elif hasattr(value, "__dict__"):
                    todo.extend(vars(value).values())
        assert oracle._autoreg.keys() == {"struct", "aug"}
        assert set(oracle._autoreg["aug"].values()) <= held
        assert held and not held & set(prompts)


class TestFirstUse:
    """Construction builds no struct or aug answer; the first request that
    reads one of a format builds that format's answers for every document,
    once."""

    @pytest.fixture
    def calls(self, monkeypatch) -> Dict[str, int]:
        calls = {"emit_aug": 0, "emit_struct": 0, "by_label": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in ("emit_aug", "emit_struct"):
            monkeypatch.setattr(oracle_module, name, counted(name, getattr(oracle_module, name)))
        monkeypatch.setattr(GoldAnnotation, "by_label",
                            counted("by_label", GoldAnnotation.by_label))
        return calls

    def test_construction_builds_no_answer(self, calls, labels, template):
        pairs = make_corpus(10, labels, seed=2)
        n = len(pairs)
        oracle = OracleBackend(pairs, labels, template)
        assert calls == {"emit_aug": 0, "emit_struct": 0, "by_label": n}
        for i in (3, 3, 7):
            oracle.generate(CompletionRequest(
                build_autoreg_prompt(pairs[i][0], "aug", labels, template)))
        assert calls == {"emit_aug": n, "emit_struct": 0, "by_label": n}
        for i in (3, 7):
            oracle.generate(CompletionRequest(
                build_autoreg_prompt(pairs[i][0], "struct", labels, template)))
            oracle.generate(CompletionRequest(build_count_prompt(pairs[i][0], "LOC", template)))
        assert calls == {"emit_aug": n, "emit_struct": n, "by_label": n}

    def test_pair_and_onestep_build_no_answer(self, calls, labels, template):
        pairs = make_corpus(10, labels, seed=2)
        oracle = OracleBackend(pairs, labels, template)
        for mode in ("pair-batch", "onestep"):
            run_corpus([doc for doc, _ in pairs], labels, oracle, template, mode,
                       parallelism=1)
        assert calls == {"emit_aug": 0, "emit_struct": 0, "by_label": len(pairs)}

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_concurrent_first_use_gives_the_single_thread_answers(self, calls, setup):
        t, labels = SETUPS[setup]
        pairs = make_corpus(6, LABEL_NAMES, seed=9)
        prompts = [[build_autoreg_prompt(doc, fmt, labels, t) for fmt in ("struct", "aug")]
                   + [build_count_prompt(doc, labels.surface("LOC"), t)] for doc, _ in pairs]
        single = OracleBackend(pairs, labels, t)
        expected = [_answer_all(single, own) for own in prompts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the first builds
        try:
            for own, answers in zip(prompts, expected):
                oracle = OracleBackend(pairs, labels, t)
                barrier = threading.Barrier(8)
                results: List[object] = [None] * 8

                def ask(i: int) -> None:
                    barrier.wait(timeout=30)
                    results[i] = _answer_all(oracle, own[i % 2:] + own[:i % 2])

                threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [answers[i % 2:] + answers[:i % 2] for i in range(8)]
        finally:
            sys.setswitchinterval(interval)
        # each oracle, the single-thread one and one per document, built
        # each format once, however many threads asked for it at once
        oracles = 1 + len(pairs)
        assert calls["emit_aug"] == calls["emit_struct"] == oracles * len(pairs)


class TestUnknownLabel:
    """A gold mention under a label outside the label set is refused at
    construction, whether or not the aug answer could reach it."""

    @pytest.mark.parametrize("mentions", [
        [Mention("LOC", "Rome"), Mention("GPE", "Paris")],
        # the aug answer stops at the first mention, which is not in the text
        [Mention("LOC", "Milan"), Mention("GPE", "Paris")],
        [Mention("GPE", "Lyon")],
    ], ids=["reached", "behind-an-unbuildable-mention", "not-in-text"])
    def test_raised_at_construction(self, labels, mentions):
        pairs = make_corpus(3, labels, seed=1)
        pairs.insert(1, (Document("x", "Rome and Paris"), GoldAnnotation("x", mentions)))
        unknown = next(m.label for m in mentions if m.label not in labels)
        with pytest.raises(CorpusError, match=f"^unknown label: '{unknown}'$"):
            OracleBackend(pairs, labels)


def test_template_holding_the_sentinel_rejected(labels):
    t = PromptTemplate(text_header="\U0010fffd")
    with pytest.raises(TemplateError, match="document text exactly once"):
        OracleBackend(make_corpus(1, labels), labels, t)
