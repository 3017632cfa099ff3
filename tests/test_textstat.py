import time

import pytest
from hypothesis import example, given, settings, strategies as st

from hlmkit.errors import DegenerateStats, EmptyDocument, ValidationError
from hlmkit.textstat import (
    Document,
    FleschConfig,
    TextStats,
    count_syllables,
    flesch_score,
    segment_sentences,
    text_stats,
    tokenize_words,
)
import oracles
from oracles import flesch_formula


class TestSegmentSentences:
    def test_two_terminated_sentences(self):
        assert segment_sentences("Hi. Bye.") == ["Hi.", "Bye."]

    def test_abbreviation_suppresses_split(self):
        assert segment_sentences("Dr. Smith left.") == ["Dr. Smith left."]

    def test_no_terminator_is_one_sentence(self):
        assert segment_sentences("No terminator") == ["No terminator"]

    @pytest.mark.parametrize("text,expected", [
        ("Mr. Jones met Mrs. Lee. They talked.", 2),
        ("Use lists, e.g. Apples and pears.", 1),
        ("It works, i.e. It compiles.", 1),
        ("Cats vs. Dogs was a draw. Rematch soon!", 2),
        ("Really?! Yes. Truly.", 3),
        ("lowercase follows. so no split here", 1),
        ("Ends mid air", 1),
    ])
    def test_abbreviations_and_terminator_runs(self, text, expected):
        assert len(segment_sentences(text)) == expected

    def test_empty_text_raises(self):
        with pytest.raises(EmptyDocument):
            segment_sentences("   \n\t ")

    @given(st.text(alphabet="aAbB .?!\n\te", min_size=1, max_size=120))
    def test_round_trip(self, text):
        if not text.strip():
            return
        sentences = segment_sentences(text)
        assert len(sentences) >= 1
        joined = " ".join(" ".join(s.split()) for s in sentences)
        assert joined == " ".join(text.split())

    # terminators, letters of both cases, the abbreviations with and without
    # dots, and whitespace that str.isspace() and the regex \s both accept
    @settings(max_examples=500, derandomize=True)
    @given(st.lists(st.sampled_from(
        [".", "?", "!", "a", "B", "x", "Y", "z", "e.g", "i.e", "Dr", "mrs", "ETC", "Vs",
         " ", "\n", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003"]),
        min_size=1, max_size=40).map("".join))
    @example("x.m.r.s. B")  # a long token whose last five characters spell "mrs"
    @example("Go x.etc. Now")
    def test_matches_the_quadratic_oracle(self, text):
        if text.strip():
            assert segment_sentences(text) == oracles.segment_sentences(text)

    # A split at every terminator, no split at all, and an abbreviation check at
    # every terminator of one sentence. The quadratic segmenter took 8.3 s and
    # 1.7 s on the first two; an unbounded look-behind takes 11 s on the third.
    @pytest.mark.parametrize("unit,n,count", [("Word is here. ", 80_000, 80_000),
                                              ("word. ", 80_000, 1), ("Dr. Who ", 5_000, 1)])
    def test_long_document_is_linear(self, unit, n, count):
        text = unit * n
        began = time.perf_counter()
        sentences = segment_sentences(text)
        assert time.perf_counter() - began < 2.0
        assert len(sentences) == count


class TestTokenizeWords:
    def test_strips_surrounding_punctuation(self):
        assert tokenize_words('"Hello," she said.') == ["Hello", "she", "said"]

    def test_hyphenated_compound_is_one_word(self):
        assert tokenize_words("A well-known mother-in-law") == ["A", "well-known", "mother-in-law"]

    def test_pure_punctuation_token_kept(self):
        assert tokenize_words("wait -- what") == ["wait", "--", "what"]

    def test_numbers_kept(self):
        assert tokenize_words("$100 worth") == ["100", "worth"]


class TestCountSyllables:
    @pytest.mark.parametrize("word,expected", [
        ("cat", 1),
        ("make", 1),        # vowel groups a, e; trailing silent e dropped
        ("beautiful", 3),   # eau, i, u
        ("see", 1),         # single group; silent-e rule cannot reach zero
        ("the", 1),
        ("yes", 1),         # leading y is a consonant
        ("my", 1),          # y after consonant is a vowel
        ("beyond", 2),      # y after vowel stays a consonant
        ("syllable", 2),    # sy-lla-ble minus trailing e
        ("123", 1),         # non-alphabetic tokens count one syllable
        ("--", 1),
    ])
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(alphabet="abcdeyz -'.,0123456789", min_size=1, max_size=20))
    def test_always_at_least_one(self, word):
        assert count_syllables(word) >= 1


class TestFlesch:
    @pytest.mark.parametrize("stats,expected", [
        ((1, 1, 1), 121.22),
        ((1, 3, 3), 119.19),
        ((2, 20, 30), 69.785),
    ])
    def test_hand_cases(self, stats, expected):
        assert flesch_score(TextStats(*stats)) == pytest.approx(expected, abs=1e-6)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=800),
    )
    def test_matches_direct_formula(self, d_s, d_w, extra_syllables):
        d_l = d_w + extra_syllables
        got = flesch_score(TextStats(d_s, d_w, d_l))
        assert got == pytest.approx(flesch_formula(d_s, d_w, d_l), abs=1e-9)

    def test_strictly_decreasing_in_syllables(self):
        scores = [flesch_score(TextStats(2, 10, d_l)) for d_l in range(10, 40)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_config_override(self):
        cfg = FleschConfig(base=100.0, words_per_sentence=1.0, syllables_per_word=1.0)
        assert flesch_score(TextStats(1, 2, 2), cfg) == pytest.approx(100.0 - 2.0 - 1.0)

    def test_degenerate_stats_raise(self):
        with pytest.raises(DegenerateStats):
            TextStats(0, 1, 1)
        with pytest.raises(DegenerateStats):
            TextStats(1, 0, 1)

    def test_syllables_below_words_invalid(self):
        with pytest.raises(ValidationError):
            TextStats(1, 5, 4)


class TestTextStats:
    def test_three_word_sentence(self):
        assert text_stats("One two three.") == TextStats(1, 3, 3)
        assert flesch_score(text_stats("One two three.")) == pytest.approx(119.19, abs=1e-6)

    def test_multi_sentence_counts(self):
        stats = text_stats("Hi there. Bye now.")
        assert stats.sentences == 2
        assert stats.words == 4

    def test_syllables_never_below_words(self):
        for text in ["a b c", "Strengths crwth 9.", "-- ... !!"]:
            s = text_stats(text)
            assert s.syllables >= s.words


class TestDocument:
    def test_requires_id(self):
        with pytest.raises(ValidationError):
            Document(id="", text="hello")

    def test_requires_text(self):
        with pytest.raises(EmptyDocument):
            Document(id="d1", text="  \n ")
