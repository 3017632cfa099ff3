import base64
import itertools
import json
import math
import os
import random
import tempfile
import tracemalloc
import zlib
from array import array
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hlmkit import cli, surprisal
from hlmkit.errors import EmptyCorpus, ParseError, ValidationError
from hlmkit.surprisal import (
    BOS,
    EOS,
    UNK,
    NgramModel,
    SurprisalSequence,
    _tokenize_sentences,
    import_surprisals,
    export_surprisals,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    sentence_surprisals,
    token_surprisals,
    train_lm,
)
from hlmkit.textstat import Document
from oracles import (CountTableKN, decode_ints, dump_counts, dump_grams, encode_ints, kn_prob,
                     train_counts)
from test_cli import ENCODING_FAULTS

ALPHABET = list("abcdefghij")


def docs_from_sentences(sentences):
    return [Document(id=f"d{i}", text=" ".join(s)) for i, s in enumerate(sentences)]


def zipf_docs(seed=10, words=3000, docs=300):
    """Documents of Zipf-like word frequencies: an order-3 model of them stores 20k+ grams."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(words)]
    weights = [1 / (r + 1) for r in range(len(vocab))]
    return [Document(id=f"d{d}", text=" ".join(
                " ".join(rng.choices(vocab, weights, k=rng.randint(3, 20))) + "."
                for _ in range(8)))
            for d in range(docs)]


def traced_bytes(build):
    """What ``build()`` returns, and the traced bytes it peaked at and still holds."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


def random_corpus(rng, max_tokens=20, max_vocab=10):
    vocab = ALPHABET[: rng.randint(1, max_vocab)]
    sentences = []
    budget = rng.randint(1, max_tokens)
    while budget > 0:
        n = rng.randint(1, min(6, budget))
        sentences.append([rng.choice(vocab) for _ in range(n)])
        budget -= n
    return sentences


class TestTrainLm:
    def test_symmetric_counts_equal_probability(self):
        model = train_lm(docs_from_sentences([["a", "b"], ["a", "b"]]), order=1)
        assert model.prob("a") == pytest.approx(model.prob("b"))

    def test_mle_limit_matches_raw_relative_frequency(self):
        # hand count: "a" is 3 of 4 tokens; smoothing vanishes as discount -> 0
        model = train_lm(docs_from_sentences([["a", "a", "a", "b"]]), order=1, discount=1e-9)
        assert model.prob("a") == pytest.approx(0.75, abs=1e-6)

    def test_smoothed_unigram_matches_oracle(self):
        sentences = [["a", "a", "a", "b"]]
        model = train_lm(docs_from_sentences(sentences), order=1, discount=0.75)
        assert model.prob("a") == pytest.approx(kn_prob(sentences, 1, 0.75, "a"), abs=1e-12)

    def test_order_three_trains_on_two_token_corpus(self):
        model = train_lm(docs_from_sentences([["a", "b"]]), order=3)
        total = sum(model.prob(w, (BOS, BOS)) for w in model.event_vocab)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_hapax_tokens_are_retained(self):
        model = train_lm(docs_from_sentences([["a", "b", "a"]]), order=2)
        assert "b" in model.words
        assert model.prob("b", ("a",)) > model.prob("zzz", ("a",))

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            train_lm([], order=1)

    @pytest.mark.parametrize("order", [0, 4])
    def test_invalid_order(self, order):
        with pytest.raises(ValidationError):
            train_lm(docs_from_sentences([["a"]]), order=order)

    @pytest.mark.parametrize("discount", [0.0, 1.0, -0.5])
    def test_invalid_discount(self, discount):
        with pytest.raises(ValidationError):
            train_lm(docs_from_sentences([["a"]]), order=1, discount=discount)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from(" \t\n.?!Ab-") | st.characters(exclude_categories=()),
                   min_size=1).filter(str.strip))
    def test_any_document_gives_a_gram_and_a_surprisal(self, text):
        # a Document's text is not blank, and text that is not blank holds a token
        doc = Document("d", text)
        model = train_lm([doc])
        assert dump_grams(model_to_dict(model))
        assert token_surprisals(model, doc).values

    def test_peak_and_held_memory_per_gram(self):
        """Training counts by sorting the packed windows, with no window -> count dict, and
        the model keeps its grams and counts as int64 arrays: 89-93 traced bytes per stored
        gram at the peak on Python 3.10-3.13, the generated corpus included (83 without it on
        3.11), and 27-29 held. The windows are one int64 array, sorted as ints one half of the
        gram range at a time; sorted as one list of ints the peak was 97-101 (91 without the
        corpus), and counting with a Counter into tuples read 167-170 and 66-68."""
        model, peak, held = traced_bytes(lambda: train_lm(zipf_docs(), order=3))
        stored = len(dump_grams(model_to_dict(model)))
        assert stored >= 20_000
        assert peak / stored < 105 and held / stored < 45

    def test_vocabulary_beyond_int64_packing_is_refused_before_packing(self, monkeypatch):
        # the real bound needs 2**21 distinct words; a lower one shows where train_lm checks
        monkeypatch.setattr(surprisal, "_GRAM_LIMIT", 7 ** 3)
        docs = docs_from_sentences([["a", "b", "c"], ["d"]])  # 7 words with the pads
        with pytest.raises(ValidationError, match=r"^7 words are too many for order 3"):
            train_lm(docs, order=3)
        assert len(model_to_dict(train_lm(docs, order=2))["vocab"]) == 7


class TestDistributions:
    def test_normalization_over_random_models(self):
        rng = random.Random(20240811)
        for _ in range(60):
            sentences = random_corpus(rng)
            order = rng.choice([1, 2, 3])
            discount = rng.uniform(0.05, 0.95)
            model = train_lm(docs_from_sentences(sentences), order=order, discount=discount)
            contexts = {(), (BOS,) * (order - 1), ("unseen-token",) * (order - 1)}
            for hist in list(model.counts[order])[:8]:
                contexts.add(hist)
            for ctx in contexts:
                total = sum(model.prob(w, ctx) for w in model.event_vocab)
                assert total == pytest.approx(1.0, abs=1e-9), (sentences, order, ctx)

    def test_matches_naive_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            sentences = random_corpus(rng)
            order = rng.choice([1, 2, 3])
            discount = rng.uniform(0.1, 0.9)
            model = train_lm(docs_from_sentences(sentences), order=order, discount=discount)
            contexts = [(), ("a",), ("zz",), (BOS,) * (order - 1)]
            contexts += [h for h in list(model.counts[order])[:5]]
            for ctx in contexts:
                for w in model.event_vocab + ("never-seen",):
                    got = model.prob(w, ctx)
                    want = kn_prob(sentences, order, discount, w, tuple(ctx))
                    assert got == pytest.approx(want, abs=1e-9), (sentences, order, ctx, w)

    def test_unknown_word_gets_positive_probability(self):
        model = train_lm(docs_from_sentences([["a", "b"]]), order=2)
        assert model.prob("martian", ("a",)) > 0
        assert model.prob(UNK, ("a",)) == model.prob("martian", ("a",))

    def test_bos_is_not_predictable(self):
        model = train_lm(docs_from_sentences([["a", "b"]]), order=2)
        assert BOS not in model.event_vocab
        with pytest.raises(ValidationError):
            model.prob(BOS)

    def test_unigram_event_vocab_has_no_eos(self):
        model = train_lm(docs_from_sentences([["a", "b"]]), order=1)
        assert EOS not in model.event_vocab
        model2 = train_lm(docs_from_sentences([["a", "b"]]), order=2)
        assert EOS in model2.event_vocab


_WORDS = st.sampled_from("abcd")
_QUERY_WORDS = st.sampled_from(["a", "b", "c", "d", "zz", "qq"])


# Words that sort before, between and after the pads, non-ASCII words, and
# pad-like text (tokenizing strips "<unk>" to "unk": no text is the <unk> id);
# a terminator followed by a capital ends a sentence, so one-token sentences occur.
_TRAIN_TOKENS = st.sampled_from(["a", "b", "é", "ß", "жук", "中文", "0", "<", "<>", "<unk>",
                                 "</s>", "<s>", "Zed.", "Go!", "c."])


class TestModelChecks:
    """The constructor's checks cost no per-word work beyond the vocabulary itself."""

    @pytest.mark.parametrize("counts", [[1], [1, 0]], ids=["one-count-for-two-grams",
                                                           "zero-count"])
    def test_counts_not_one_positive_count_per_gram_are_refused(self, counts):
        with pytest.raises(ValidationError) as refused:
            NgramModel(2, 0.75, [EOS, BOS, UNK], [0, 1], counts)
        assert str(refused.value) == "model counts must be positive, one per gram"

    def test_vocabulary_beyond_int64_packing_is_refused_first(self):
        # 2**21 + 3 words: V ** 3 >= 2**63. The size is checked before the vocabulary's
        # order (this one repeats a word), and before anything per word is built
        words = [BOS, EOS, UNK] + ["w"] * 2 ** 21
        with pytest.raises(ValidationError, match=r"^2097155 words are too many for order 3"):
            NgramModel(3, 0.75, words, [], [])
        with pytest.raises(ValidationError, match="strictly increasing"):
            NgramModel(2, 0.75, words, [], [])

    def test_int64_bound_is_exact(self):
        surprisal._check_packable(2 ** 21 - 1, 3)  # the largest order-3 vocabulary
        with pytest.raises(ValidationError, match="2097152 words"):
            surprisal._check_packable(2 ** 21, 3)

    @pytest.mark.parametrize("field, message", [("grams", r"in \[0, 5\*\*2\)"),
                                                ("counts", r"counts must be below 2\*\*63")])
    def test_values_beyond_int64_are_refused(self, field, message):
        dump = model_to_dict(train_lm(docs_from_sentences([["a", "b"]]), order=2))
        columns = {"grams": dump_grams(dump), "counts": dump_counts(dump)}
        columns[field][-1] = 2 ** 63
        with pytest.raises(ValidationError, match=message):
            NgramModel(2, 0.75, dump["vocab"], columns["grams"], columns["counts"])

    def test_history_total_beyond_int64_is_derived(self):
        """Each count is below 2**63, but a history's total may pass it: such a model
        (a file can hold one) still derives its tables and scores."""
        words = [EOS, BOS, UNK, "a", "b"]
        model = NgramModel(2, 0.75, words, [3 * 5 + 0, 3 * 5 + 4], [2 ** 62, 2 ** 62])
        lower = model.prob("b")  # the unigram: the history "a" backs off with 0.75 * 2 / 2**63
        assert model.prob("b", ("a",)) == (2 ** 62 - 0.75) / 2 ** 63 + 0.75 * 2 / 2 ** 63 * lower
        # a top-order miss at that history sums its listed counts into the same int total
        assert model.prob("a", ("a",)) == 0.75 * 2 / 2 ** 63 * model.prob("a")
        assert sum(model.prob(w, ("a",)) for w in model.event_vocab) == pytest.approx(1.0)

    def test_history_check_builds_nothing_per_word(self):
        """An order-3 model of 200k words and no grams: the history check makes one pass
        over the stored grams, so the build holds only the vocabulary's tuple and index
        (90-111 traced bytes per word, as at order 2). It bisected two windows per word,
        and peaked at 290-304."""
        words = sorted([BOS, EOS, UNK] + [f"w{i:06d}" for i in range(200_000)])
        model, peak, _ = traced_bytes(lambda: NgramModel(3, 0.75, words, [], []))
        assert model.prob("w000001", ("w000002", "w000003")) == 1 / (len(words) - 1)
        assert peak / len(words) < 120


class TestTrainOracle:
    """Training counts the padded id stream in one pass, and gives the words,
    grams and counts of the tuple counting in ``oracles.train_counts``."""

    @settings(max_examples=80, deadline=None)
    @given(texts=st.lists(st.lists(_TRAIN_TOKENS, min_size=1, max_size=12).map(" ".join),
                          min_size=1, max_size=4),
           order=st.integers(1, 3))
    def test_packed_counts_match_tuple_counting(self, texts, order):
        docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
        dump = model_to_dict(train_lm(docs, order=order))
        sentences = [s for d in docs for s in _tokenize_sentences(d.text)]
        assert (dump["vocab"], dump_grams(dump), dump_counts(dump)) == train_counts(sentences, order)

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3)
                          .map(" ".join).map("{}.".format), min_size=1, max_size=4),
           order=st.integers(1, 3))
    def test_ranged_sort_matches_one_sort(self, texts, order):
        """train_lm sorts the windows below half of V ** order and then the rest; over two
        words, many corpora put every window in one half (e.g. one-word sentences at order 3,
        whose windows all start with <s>)."""
        docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts)]
        dump = model_to_dict(train_lm(docs, order=order))
        sentences = [s for d in docs for s in _tokenize_sentences(d.text)]
        assert (dump["vocab"], dump_grams(dump), dump_counts(dump)) == train_counts(sentences, order)

    @pytest.mark.parametrize("text, order, lower", [("A. A. B.", 3, True), ("a b b a", 1, False)])
    def test_every_window_in_one_half(self, text, order, lower):
        docs = [Document(id="d", text=text)]
        dump = model_to_dict(train_lm(docs, order=order))
        half = len(dump["vocab"]) ** order // 2
        assert {g < half for g in dump_grams(dump)} == {lower}
        sentences = _tokenize_sentences(text)
        assert (dump["vocab"], dump_grams(dump), dump_counts(dump)) == train_counts(sentences, order)

    def test_oov_and_one_token_sentences(self):
        docs = [Document(id="d", text="Zed. Ωmega <unk> ß. Go!")]
        model = train_lm(docs, order=3)
        sentences = [["zed"], ["ωmega", "unk", "ß"], ["go"]]
        assert _tokenize_sentences(docs[0].text) == sentences
        dump = model_to_dict(model)
        assert (dump["vocab"], dump_grams(dump), dump_counts(dump)) == train_counts(sentences, 3)
        assert model.prob("never-seen", ("ß",)) == model.prob(UNK, ("ß",)) > 0


class TestTableOracle:
    """The per-gram probability tables give exactly the floats of the count
    tables walked from the uniform floor (``oracles.CountTableKN``)."""

    @settings(max_examples=60, deadline=None)
    @given(train=st.lists(st.lists(_WORDS, min_size=1, max_size=6), min_size=1, max_size=6),
           query=st.lists(st.lists(_QUERY_WORDS, min_size=1, max_size=8), min_size=1,
                          max_size=3),
           order=st.integers(1, 3),
           discount=st.floats(0.01, 0.99))
    def test_bit_exact_against_count_tables(self, train, query, order, discount):
        model = train_lm(docs_from_sentences(train), order=order, discount=discount)
        dump = model_to_dict(model)
        words = dump["vocab"]
        oracle = CountTableKN(order, discount, words, dict(zip(dump_grams(dump), dump_counts(dump))))
        size, index = len(words), {w: i for i, w in enumerate(words)}

        def pack(tokens):
            g = 0
            for t in tokens:
                g = g * size + index.get(t, index[UNK])
            return g

        # every context up to order - 1 tokens, OOV and start pads included,
        # so seen and unseen histories, stored and unstored grams all occur
        for n in range(order):
            for ctx in itertools.product(["a", "b", "zz", BOS], repeat=n):
                want = {w: oracle.p(pack(ctx), n, index[w]) for w in model.event_vocab}
                assert {w: model.prob(w, ctx) for w in model.event_vocab} == want
                assert model.prob("never-seen", ctx) == oracle.p(pack(ctx), n, index[UNK])

        text = " ".join(" ".join(s).capitalize() + "." for s in query)
        doc = Document(id="q", text=text)
        for base, log in (("2", math.log2), ("e", math.log)):
            want = []
            for s in query:
                h, values = pack([BOS] * (order - 1)), []
                for tok in s:
                    w = pack([tok])
                    values.append(max(0.0, -log(oracle.p(h, order - 1, w))))
                    h = (h * size + w) % size ** (order - 1)
                want.append(values)
            assert [list(q.values) for q in sentence_surprisals(model, doc, base)] == want
            assert list(token_surprisals(model, doc, base).values) == sum(want, [])


class TestMissPath:
    """Held-out text scored through the lower orders: its grams mostly miss the
    top order, and every sentence ends in a word the model never saw, whose
    query falls back through every order to the uniform floor."""

    @settings(max_examples=60, deadline=None)
    @given(train=st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=5), min_size=1,
                          max_size=4),
           held_out=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), min_size=0,
                                      max_size=25), min_size=1, max_size=3),
           order=st.integers(1, 3),
           discount=st.floats(0.01, 0.99))
    def test_held_out_text_matches_count_tables(self, train, held_out, order, discount):
        model = train_lm(docs_from_sentences(train), order=order, discount=discount)
        dump = model_to_dict(model)
        words, size = dump["vocab"], len(dump["vocab"])
        oracle = CountTableKN(order, discount, words, dict(zip(dump_grams(dump), dump_counts(dump))))
        index = {w: i for i, w in enumerate(words)}
        sentences = [s + ["never-seen"] for s in held_out]
        doc = Document(id="q", text=" ".join(" ".join(s).capitalize() + "." for s in sentences))
        assert _tokenize_sentences(doc.text) == sentences
        want = []
        for s in sentences:
            h, values = 0, []
            for _ in range(order - 1):  # the start pads
                h = h * size + index[BOS]
            for tok in s:
                w = index.get(tok, index[UNK])
                values.append(max(0.0, -math.log2(oracle.p(h, order - 1, w))))
                h = (h * size + w) % size ** (order - 1)
            want.append(values)
        assert [list(q.values) for q in sentence_surprisals(model, doc)] == want

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_lower_orders_hold_only_arrays(self, order):
        model = train_lm(docs_from_sentences([["a", "b", "a"], ["b", "c"]]), order=order)
        model.prob("a", ("b",))
        # every order, the top one too: sorted grams, first-id starts and p, no dict; below the
        # top order and at order 1, one backoff mass per packed history, and none at the top
        size = len(model.words)
        assert len(model._levels) == order
        for k, (grams, starts, masses, probs) in enumerate(model._levels):
            assert [type(grams), type(starts), type(probs)] == [array] * 3
            assert [grams.typecode, starts.typecode, probs.typecode] == ["q", "q", "d"]
            assert len(starts) == size + 1 and len(probs) == len(grams)
            if k and k == order - 1:
                assert masses is None
            else:
                assert type(masses) is array and masses.typecode == "d"
                assert len(masses) == size ** k
        if order == 3:  # no bigram follows </s>: its history is unseen
            assert model._levels[1][2][model.ids[EOS]] == 1.0
        assert model._levels[-1][0] is model._grams

    @pytest.mark.parametrize("order", [2, 3])
    def test_openings_never_seen_at_a_sentence_start(self, order):
        """Held-out sentences open with words that the training text has only inside its
        sentences, or not at all, so each first token misses at the start history. Its run
        is the longest one, and its total adds the counts listed above 1, most of the run's
        here. Every surprisal is prob()'s, and kn_prob's to 1e-12."""
        rng = random.Random(29)
        starters, inner = [f"s{i}" for i in range(40)], [f"w{i}" for i in range(12)]
        weights = [1 / (r + 1) for r in range(len(starters))]
        train = [rng.choices(starters, weights) + rng.choices(inner, k=3) for _ in range(150)]
        held_out = [[w] + rng.choices(starters + inner, k=3) for w in inner[:8] + ["zz"]]
        model = train_lm(docs_from_sentences(train), order=order, discount=0.6)
        rows = model.counts[order]
        start = rows[(BOS,) * (order - 1)]
        assert len(start) == max(map(len, rows.values())) and {1, 2} < set(start.values())
        doc = Document(id="q", text=" ".join(" ".join(s).capitalize() + "." for s in held_out))
        assert _tokenize_sentences(doc.text) == held_out
        for s, values in zip(held_out, sentence_surprisals(model, doc)):
            assert s[0] not in start
            context = [BOS] * (order - 1)
            for tok, value in zip(s, values.values):
                p = model.prob(tok, tuple(context))
                assert value == max(0.0, -math.log2(p))
                want = kn_prob(train, order, 0.6, tok, tuple(context[len(context) - order + 1:]))
                assert p == pytest.approx(want, abs=1e-12), (context, tok)
                context.append(tok)


class TestInsertionPoint:
    """A top-order miss reuses the point where its one search stopped: the history's
    backoff is read at ``grams[i]`` or ``grams[i - 1]``. Every gram missed at each
    position scores as ``prob()`` and the naive oracle give."""

    # "e" only ends sentences, so at order 3 no gram starts with it; "zz" is unseen
    SENTENCES = [["b", "c", "b"], ["c", "d", "b", "c"], ["d", "e"], ["b", "d", "d", "c", "e"],
                 ["c", "c", "b", "d"]]
    WORDS = ["b", "c", "d", "e", "zz"]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_missed_grams_at_every_position(self, order):
        model = train_lm(docs_from_sentences(self.SENTENCES), order=order)
        grams, starts, _, _ = model._levels[-1]
        size, n, index = len(model.words), order - 1, model.ids
        contexts = [(BOS,) * (n - k) + tail for k in range(n + 1)
                    for tail in itertools.product(self.WORDS, repeat=k)]
        positions = set()
        for ctx in contexts:
            h = 0
            for t in ctx:
                h = h * size + index.get(t, index[UNK])
            for w in self.WORDS:
                g = h * size + index.get(w, index[UNK])
                lo, hi = starts[g // size ** n], starts[g // size ** n + 1]
                i = bisect_left(grams, g, lo, hi)
                if i < hi and grams[i] == g:
                    continue
                if i == len(grams):
                    positions.add("past the last gram")
                if lo < i and grams[i - 1] // size == h != (grams[i] // size if i < hi else -1):
                    positions.add("end of the history's run")
                if n and i == lo < hi and grams[i] // size == h:
                    positions.add("first history of the block, i == lo")
                if n and lo < i == hi and grams[i - 1] // size == h:
                    positions.add("last history of the block, i == hi")
                positions.add("miss")
                doc = Document(id="q", text=" ".join([t for t in ctx if t != BOS] + [w]))
                got = token_surprisals(model, doc).values[-1]
                assert got == -math.log2(model.prob(w, ctx)), (ctx, w)
                want = kn_prob(self.SENTENCES, order, 0.75, w, ctx)
                assert got == pytest.approx(-math.log2(want), abs=1e-12), (ctx, w)
        assert positions == ({"miss"} if order == 1 else {
            "miss", "past the last gram", "end of the history's run",
            "first history of the block, i == lo", "last history of the block, i == hi"})


class TestCorpusIndependence:
    """A document's surprisals are the same whichever other documents the
    scoring corpus holds, and in whatever order: the derived tables and the
    scorer keep no state between documents."""

    TRAIN = ["The cat sat on the mat. A dog ran.", "The dog sat. The cat ran on."]
    HELD_OUT = ["The cat ran.", "A mat sat on a dog. Zebras ran.", "Dog.",
                "On the mat the cat sat on the dog.", "Unseen words everywhere."]

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
           order=st.integers(1, 3))
    def test_surprisals_ignore_the_other_documents(self, picks, order):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_model(train_lm([Document(id=f"t{i}", text=t) for i, t in enumerate(self.TRAIN)],
                                order=order), tmp / "m.json")

            def score(indexes, name):
                corpus, out = tmp / f"{name}.jsonl", tmp / f"{name}.out"
                corpus.write_text("".join(
                    json.dumps({"id": f"d{i}", "text": self.HELD_OUT[i]}) + "\n" for i in indexes))
                assert cli.main(["surprisal", "--corpus", str(corpus),
                                 "--model", str(tmp / "m.json"), "-o", str(out)]) == 0
                return [json.loads(line) for line in out.read_text().splitlines()]

            alone = {i: score([i], f"alone{i}")[0] for i in set(picks)}
            assert score(picks, "mixed") == [alone[i] for i in picks]


class TestTokenSurprisals:
    def test_log_transform_constants(self):
        # the scoring path is -log_base(p); fix the two hand-checked anchors
        assert -math.log2(0.75) == pytest.approx(0.4150374992788438, abs=1e-12)
        assert -math.log2(0.5) == 1.0

    def test_values_match_direct_probability_lookup(self):
        corpus = docs_from_sentences([["a", "b", "a"], ["b", "a"]])
        model = train_lm(corpus, order=2)
        doc = Document(id="q", text="a b zz")
        seq = token_surprisals(model, doc, base="2")
        expected = []
        ctx = (BOS,)
        for tok in ["a", "b", "zz"]:
            expected.append(-math.log2(model.prob(tok, ctx)))
            ctx = ctx + (tok,)
        assert list(seq.values) == pytest.approx(expected, abs=1e-12)
        assert seq.doc_id == "q"
        assert seq.base == "2"

    def test_base_e(self):
        model = train_lm(docs_from_sentences([["a", "b"]]), order=1)
        doc = Document(id="q", text="a b")
        bits = token_surprisals(model, doc, base="2")
        nats = token_surprisals(model, doc, base="e")
        for b, n in zip(bits.values, nats.values):
            assert n == pytest.approx(b * math.log(2), abs=1e-12)

    def test_all_finite_and_nonnegative(self):
        rng = random.Random(5)
        model = train_lm(docs_from_sentences(random_corpus(rng)), order=3)
        doc = Document(id="q", text="a qq b zz a. A b c.")
        for seq in sentence_surprisals(model, doc):
            for v in seq.values:
                assert math.isfinite(v) and v >= 0

    def test_sentence_concatenation(self):
        model = train_lm(docs_from_sentences([["a", "b"], ["c"]]), order=2)
        doc = Document(id="q", text="a b. C a.")
        per_sentence = sentence_surprisals(model, doc)
        merged = token_surprisals(model, doc)
        assert [v for s in per_sentence for v in s.values] == list(merged.values)
        assert len(per_sentence) == 2
        # pads are context only: one value per real token
        assert len(merged.values) == 4

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_long_sentence_matches_full_prefix_probability(self, order):
        # one ~3000-token sentence the segmenter cannot split, with OOV tokens;
        # the scorer keeps only the last order-1 tokens, prob() gets them all
        rng = random.Random(order)
        words = [f"w{i}" for i in range(40)]
        train = [[rng.choice(words) for _ in range(rng.randint(3, 12))] for _ in range(200)]
        model = train_lm(docs_from_sentences(train), order=order, discount=0.7)
        toks = [rng.choice(words + ["oov1", "oov2", "oov3"]) for _ in range(3000)]
        doc = Document(id="long", text=" ".join(toks))
        assert len(sentence_surprisals(model, doc)) == 1
        want = []
        for i, tok in enumerate(toks):
            prefix = (BOS,) * (order - 1) + tuple(toks[:i])
            want.append(max(0.0, -math.log2(model.prob(tok, prefix))))
        assert list(token_surprisals(model, doc).values) == want

    def test_lowercasing(self):
        model = train_lm([Document(id="d", text="The cat. The dog.")], order=2)
        a = token_surprisals(model, Document(id="q", text="THE CAT"))
        b = token_surprisals(model, Document(id="q", text="the cat"))
        assert a.values == b.values

    def test_invalid_base(self):
        model = train_lm(docs_from_sentences([["a"]]), order=1)
        with pytest.raises(ValidationError):
            token_surprisals(model, Document(id="q", text="a"), base="10")


class TestSequenceValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            SurprisalSequence(doc_id="d", values=(1.0, -0.1), base="2")

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            SurprisalSequence(doc_id="d", values=(), base="2")

    def test_rejects_bad_base(self):
        with pytest.raises(ValidationError):
            SurprisalSequence(doc_id="d", values=(1.0,), base="10")

    @pytest.mark.parametrize("value", ["1.5", True, False, None, [1.0], 1j])
    def test_rejects_non_numbers_instead_of_coercing(self, value):
        with pytest.raises(ValidationError):
            SurprisalSequence(doc_id="d", values=(1.0, value, 2), base="2")

    @pytest.mark.parametrize("value", [10**400, 10**5000, 2**1024], ids=["1e400", "1e5000", "2^1024"])
    def test_rejects_ints_beyond_the_float_range(self, value):
        with pytest.raises(ValidationError, match="an int beyond the float range"):
            SurprisalSequence(doc_id="d", values=(1.0, value), base="2")

    def test_ints_become_floats(self):
        seq = SurprisalSequence(doc_id="d", values=(2, 0, 1.5), base="2")
        assert seq.values == (2.0, 0.0, 1.5)
        assert all(type(v) is float for v in seq.values)


class TestImportExport:
    def test_round_trip(self, tmp_path):
        seqs = [
            SurprisalSequence(doc_id="d1", values=(0.5, 1.25), base="2"),
            SurprisalSequence(doc_id="d2", values=(3.0,), base="e"),
        ]
        path = tmp_path / "s.jsonl"
        export_surprisals(seqs, path)
        assert import_surprisals(path) == seqs

    def test_multiple_lines_per_id_allowed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"id": "d1", "surprisals": [1.0], "base": "2"}\n'
            '{"id": "d1", "surprisals": [2.0], "base": "2"}\n'
        )
        assert len(import_surprisals(path)) == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": "d1", "surprisals": [1.0], "base": "2"}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            import_surprisals(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": "d1", "surprisals": [1.0, -2.0], "base": "2"}\n')
        with pytest.raises(ValidationError, match="line 1"):
            import_surprisals(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": "d1"}\n')
        with pytest.raises(ParseError):
            import_surprisals(path)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = random.Random(3)
        sentences = random_corpus(rng)
        for order in (1, 2, 3):
            model = train_lm(docs_from_sentences(sentences), order=order, discount=0.65)
            p1 = tmp_path / f"m{order}a.json"
            p2 = tmp_path / f"m{order}b.json"
            save_model(model, p1)
            save_model(load_model(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_tables_are_derived_at_the_first_query(self, tmp_path):
        model = train_lm(docs_from_sentences([["a", "b", "a"], ["b"]]), order=3)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert "_levels" not in vars(model)
        loaded = load_model(path)
        assert "_levels" not in vars(loaded)
        loaded.prob("a", ("b",))
        assert "_levels" in vars(loaded)

    def test_probabilities_survive_reload(self, tmp_path):
        sentences = [["a", "b", "a", "c"], ["b", "c"]]
        model = train_lm(docs_from_sentences(sentences), order=2)
        path = tmp_path / "m.json"
        save_model(model, path)
        reloaded = load_model(path)
        for w in model.event_vocab:
            assert reloaded.prob(w, ("a",)) == model.prob(w, ("a",))

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValidationError):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        rng = random.Random(4)
        model = train_lm(docs_from_sentences(random_corpus(rng)), order=1)
        data = model_to_dict(model)
        data["version"] = 99
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError):
            load_model(path)

    def test_file_holds_only_the_top_order_table(self, tmp_path):
        model = train_lm(docs_from_sentences([["a", "b", "a"], ["b"]]), order=3)
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n") and ": " not in text
        data = json.loads(text)
        assert sorted(data) == ["count_gaps", "counts", "discount", "format", "gaps", "order",
                                "version", "vocab"]
        assert data["version"] == 6
        assert decode_ints(data["count_gaps"]) == decode_ints(data["counts"]) == []  # all 1s
        words = data["vocab"]
        assert words == sorted({"a", "b", BOS, EOS, UNK})
        size = len(words)
        gaps = decode_ints(data["gaps"])
        assert gaps[0] >= 0 and min(gaps[1:]) > 0
        unpacked = {(words[g // size ** 2], words[g // size % size], words[g % size]): c
                    for g, c in zip(dump_grams(data), dump_counts(data))}
        assert unpacked == {(BOS, BOS, "a"): 1, (BOS, "a", "b"): 1, ("a", "b", "a"): 1,
                            ("b", "a", EOS): 1, (BOS, BOS, "b"): 1, (BOS, "b", EOS): 1}

    def test_model_keeps_its_own_grams(self):
        dump = model_to_dict(train_lm(docs_from_sentences([["a", "b", "a"], ["b"]]), order=2))
        vocab, grams, counts = dump["vocab"], dump_grams(dump), dump_counts(dump)
        model = NgramModel(2, 0.75, vocab, grams, counts)
        before = model_to_dict(model)
        vocab.append("zz")
        grams.pop()
        counts[0] += 7
        # the tables are derived at the first query, after the lists changed
        assert model.prob("b", ("a",)) == kn_prob([["a", "b", "a"], ["b"]], 2, 0.75, "b", ("a",))
        assert model_to_dict(model) == before

    def test_load_peak_memory_per_stored_gram(self, tmp_path):
        """Loading a model and deriving its tables keep one copy of the grams, the counts
        as the file lists them, and every order in arrays: the traced peak is 62.9 bytes per
        stored gram on Python 3.11, set by the derivation (the load alone peaks at 61.9),
        and the model holds 44.5 after its first query. The peak was 81.8, set by the load,
        while the file listed its ints in JSON, one Python int each. It held
        65-67 (peak 96.6-97.7 on Python 3.10-3.13) while it kept one int64 count per gram
        and one backoff mass per gram at every order. The suffix
        counts are freed before each gram's suffix is found by bisection, and each history
        keeps one total: the peak was 116-118 while the counts became a suffix -> index
        dict and every gram had its history's total in a list, 121-124 while each order's
        suffix index lived on while the next order was counted; 191-193 and 165-168 while
        the top order was a gram -> p dict, 285-289 at the peak while every order's tables
        were dicts, and 411-414 while the model also kept a gram -> count dict beside
        per-history total and type dicts."""
        path = tmp_path / "m.json"
        save_model(train_lm(zipf_docs(), order=3), path)
        stored = len(dump_grams(json.loads(path.read_text())))
        assert stored >= 20_000

        def load_and_query():
            model = load_model(path)
            model.prob("w1", ("w2",))
            return model
        _, peak, held = traced_bytes(load_and_query)
        assert peak / stored < 80 and held / stored < 55

    def test_save_peak_memory_per_stored_gram(self, tmp_path):
        """save_model builds the whole text, each int list one string: 27.3 traced bytes per
        stored gram at the peak on Python 3.11, mostly the gaps' int64 bytes, each byte plane
        compressed as it is sliced from them. Writing decimal JSON lists a block at a time
        read 5-10 on Python 3.10-3.13, and json.dumps of those lists 41-121."""
        model = train_lm(zipf_docs(), order=3)
        stored = len(model._grams)
        assert stored >= 20_000
        _, peak, _ = traced_bytes(lambda: save_model(model, tmp_path / "m.json"))
        assert peak / stored < 40

    @pytest.mark.parametrize("build, shape", [
        (lambda k=k: train_lm(docs_from_sentences([["a", "b", "a"], ["a", "b", "a", "b"]]), k),
         lambda dump: decode_ints(dump["counts"]))  # some counts above 1
        for k in (1, 2, 3)
    ] + [
        (lambda: train_lm(docs_from_sentences([["a", "b"], ["c", "d"]]), order=2),
         lambda dump: decode_ints(dump["count_gaps"]) == decode_ints(dump["counts"]) == []),
        (lambda: NgramModel(1, 0.5, sorted([BOS, EOS, UNK, "café", 'say"', "back\\slash", "中"]),
                            [3, 4, 6], [1, 7, 2]),
         lambda dump: {"café", 'say"', "back\\slash", "中"} <= set(dump["vocab"])),
        (lambda: train_lm(zipf_docs(docs=40), order=3),
         lambda dump: len(dump_grams(dump)) > 2048),
    ], ids=["order-1", "order-2", "order-3", "all-ones", "escaped-vocab", "many-blocks"])
    def test_saved_bytes_are_the_dict_dump(self, tmp_path, build, shape):
        """save_model writes the bytes of json.dumps of model_to_dict."""
        model = build()
        save_model(model, tmp_path / "m.json")
        dump = model_to_dict(model)
        assert shape(dump)
        assert (tmp_path / "m.json").read_bytes() == (
            json.dumps(dump, sort_keys=True, separators=(",", ":")) + "\n").encode()

    def test_file_bytes_per_stored_gram(self, tmp_path):
        """The file stores each gram as its distance from the one before, and lists only the
        counts above 1, each list as the byte planes of its int64s, compressed: 3.86 bytes
        per stored gram here. The int64 bytes compressed in item order took 5.00, and
        decimal JSON lists 6.62; with one count per gram they took 8.50, and as the packed
        grams themselves 13.79. Another zlib build may compress a little differently."""
        path = tmp_path / "m.json"
        save_model(train_lm(zipf_docs(), order=3), path)
        stored = len(dump_grams(json.loads(path.read_text())))
        assert stored >= 20_000
        assert path.stat().st_size / stored < 4.5

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_model_of_single_counts_round_trips(self, tmp_path, order):
        """No gram is counted twice, so both count lists are empty."""
        path = tmp_path / "m.json"
        save_model(train_lm(docs_from_sentences([["a", "b"], ["c", "d"]]), order=order), path)
        data = json.loads(path.read_text())
        assert decode_ints(data["count_gaps"]) == decode_ints(data["counts"]) == []
        assert len(dump_grams(data)) >= 4
        loaded = load_model(path)
        assert loaded._listed_at == loaded._listed == array("q")
        assert {c for row in loaded.counts[order].values() for c in row.values()} == {1}
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_dump_round_trips_the_arrays(self):
        model = train_lm(zipf_docs(docs=40), order=3)
        loaded = model_from_dict(model_to_dict(model))
        assert loaded.words == model.words
        assert loaded._grams == model._grams
        assert (loaded._listed_at, loaded._listed) == (model._listed_at, model._listed)

    def test_int_lists_are_the_byte_planes_of_int64s(self):
        """Each int list is the zlib stream of its int64 little-endian bytes, byte 0 of every
        item first, then byte 1 of every item, and so on to byte 7. The stream is decompressed
        here, not compared as text, since another zlib build may compress differently."""
        words = sorted([BOS, EOS, UNK] + [f"w{i:03d}" for i in range(297)])  # ids 3-299
        dump = model_to_dict(NgramModel(1, 0.5, words, [3, 299], [2 ** 40 + 5, 2]))
        planes = {key: zlib.decompress(base64.b64decode(dump[key], validate=True))
                  for key in ("gaps", "count_gaps", "counts")}
        assert planes == {
            "gaps": b"\x03\x28" + b"\x00\x01" + bytes(12),  # 3 and 296 = 0x0128
            "count_gaps": b"\x00\x01" + bytes(14),  # positions 0 and 1
            "counts": b"\x05\x02" + bytes(8) + b"\x01\x00" + bytes(4),  # 2**40 + 5 and 2
        }
        edges = [0, 1, -1, 255, 256, 2 ** 63 - 1, -2 ** 63]
        assert surprisal._decode("gaps", surprisal._encode(edges)).tolist() == edges
        assert decode_ints(surprisal._encode(edges)) == edges  # the tests' own reader
        assert surprisal._decode("gaps", encode_ints(edges)).tolist() == edges

    @pytest.mark.parametrize("key", ["gaps", "count_gaps", "counts"])
    @pytest.mark.parametrize("fault", sorted(ENCODING_FAULTS))
    def test_each_encoding_fault_names_its_field(self, key, fault):
        dump = model_to_dict(train_lm(docs_from_sentences([["a", "b", "a"], ["a", "b"]]), 2))
        planes = zlib.decompress(base64.b64decode(dump[key]))
        dump[key] = ENCODING_FAULTS[fault](planes)
        with pytest.raises(ValidationError, match=f"^model field '{key}' must be canonical"):
            model_from_dict(dump)

    def test_count_fields_decompress_at_most_one_item_per_gram(self):
        """count_gaps and counts each list at most one int64 per gram, so no more than that
        is decompressed: 16 MiB of zeros, 16 KB compressed, are refused with 74 KB traced
        for a model of 5 grams."""
        dump = model_to_dict(train_lm(docs_from_sentences([["a", "b", "a"], ["a", "b"]]), 2))
        zeros = zlib.compressobj()
        stream = b"".join([zeros.compress(bytes(1 << 20)) for _ in range(16)]) + zeros.flush()
        for key in ("count_gaps", "counts"):
            bomb = dict(dump, **{key: base64.b64encode(stream).decode()})

            def refuse():
                with pytest.raises(ValidationError, match=f"'{key}' .* at most one per gram$"):
                    model_from_dict(bomb)
            _, peak, _ = traced_bytes(refuse)
            assert peak < 1 << 20

    def test_counts_view_is_a_copy(self):
        model = train_lm(docs_from_sentences([["a", "b", "a"]]), order=2)
        model.counts[2][(BOS,)]["a"] = 99
        assert model.counts[2] == {(BOS,): {"a": 1}, ("a",): {"b": 1, EOS: 1},
                                   ("b",): {"a": 1}}

    @pytest.mark.parametrize("failure", ["serialize", "replace", "json", "jsonl", "csv"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, failure):
        """A model, JSON, JSONL or CSV write that raises part-way, or whose
        final rename fails, leaves the previous file and no temporary file."""
        model = train_lm(docs_from_sentences([["a", "b"]]), order=2)
        path = tmp_path / "m.json"
        path.write_text("previous model\n")

        def fail(*args, **kwargs):
            raise OSError("simulated failure")

        def first_then_fail(item):
            yield item
            fail()

        class FailingSection(dict):
            # the JSON encoder reads a section's items only when it reaches it
            items = fail

        if failure in ("serialize", "replace"):
            monkeypatch.setattr(*((json, "dumps") if failure == "serialize" else (os, "replace")),
                                fail)
        with pytest.raises(OSError, match="simulated"):
            if failure == "json":
                cli._dump_json({"a": 1, "b": FailingSection(c=2)}, path, False)
            elif failure == "jsonl":
                export_surprisals(first_then_fail(SurprisalSequence("d1", (1.0,))), path)
            elif failure == "csv":
                cli._write((path, cli._write_csv, first_then_fail(["a", "b"])))
            else:
                save_model(model, path)
        assert path.read_text() == "previous model\n"
        assert os.listdir(tmp_path) == ["m.json"]
