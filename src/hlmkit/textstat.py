"""Sentence segmentation, token/syllable counting and the Flesch reading-ease score.

Everything here is a pure function on strings, deliberately dependency-free so
that counts are reproducible across platforms. The syllable counter is the
classic vowel-group heuristic, not a pronunciation dictionary.
"""

from __future__ import annotations

import re
import string
from functools import lru_cache

from .errors import DegenerateStats, EmptyDocument, Record, ValidationError

_VOWELS = set("aeiou")
_PUNCT = string.punctuation + "“”‘’«»‹›…–—´`"

# Dots removed, lowercased. Splitting is suppressed after any of these, even
# where the abbreviation legitimately ends a sentence ("..., etc. Next").
_ABBREVIATIONS = {"dr", "mr", "mrs", "ms", "etc", "eg", "ie", "vs"}

_TERMINATOR = re.compile(r"[.?!]+")
_SPACE = re.compile(r"\s+")
_TRAILING_TOKEN = re.compile(r"([A-Za-z]+(?:\.[A-Za-z]+)*)$")
# A trailing token (letters with single dots) that fills this window is no abbreviation
_LOOKBEHIND = 2 * max(map(len, _ABBREVIATIONS)) + 2


class Document(Record):
    """A text unit with a corpus-unique id."""

    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("document id must be non-empty")
        if not self.text or not self.text.strip():
            raise EmptyDocument(f"document {self.id!r} has no text")


class TextStats(Record):
    """Sentence, word and syllable counts for one document."""

    sentences: int
    words: int
    syllables: int

    def __post_init__(self):
        if self.sentences < 1 or self.words < 1 or self.syllables < 1:
            raise DegenerateStats(
                f"counts must all be >= 1, got sentences={self.sentences} "
                f"words={self.words} syllables={self.syllables}"
            )
        if self.syllables < self.words:
            raise ValidationError("syllable count cannot be below word count")


class FleschConfig(Record):
    """Empirical coefficients of the reading-ease formula."""

    base: float = 206.835
    words_per_sentence: float = 1.015
    syllables_per_word: float = 84.6


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences.

    A sentence boundary is a run of ``.?!`` followed by whitespace and an
    uppercase letter, unless the word before the run is a known abbreviation
    (Dr., Mr., Mrs., Ms., etc., e.g., i.e., vs.). Text without a matching
    terminator is returned as a single sentence. Inter-sentence whitespace is
    dropped; everything else is preserved verbatim.
    """
    if not text or not text.strip():
        raise EmptyDocument("cannot segment empty text")
    text = text.strip()

    sentences = []
    start = 0
    for m in _TERMINATOR.finditer(text):
        space = _SPACE.match(text, m.end())
        if space is None or space.end() == len(text) or not text[space.end()].isupper():
            continue  # no whitespace after the run, end of text, or no capital next
        before = _TRAILING_TOKEN.search(text, max(start, m.start() - _LOOKBEHIND), m.start())
        if before and before.group(1).replace(".", "").lower() in _ABBREVIATIONS:
            continue
        sentences.append(text[start:m.end()])
        start = space.end()
    if start < len(text):
        sentences.append(text[start:])
    return sentences


def tokenize_words(text: str) -> list[str]:
    """Split on whitespace and strip surrounding punctuation.

    Hyphenated compounds stay one token. Chunks that are pure punctuation are
    kept as-is rather than dropped, so word counts never undercount the input.
    """
    tokens = []
    for chunk in text.split():
        stripped = chunk.strip(_PUNCT)
        tokens.append(stripped if stripped else chunk)
    return tokens


@lru_cache(maxsize=1 << 16)  # a corpus repeats its words: count each one once
def count_syllables(word: str) -> int:
    """Heuristic syllable count, always >= 1.

    Counts maximal vowel groups (a, e, i, o, u, plus y when it follows a
    consonant) and drops one for a trailing silent "e" unless that would
    reach zero. Tokens without any letter count as one syllable.
    """
    w = word.lower()
    groups = 0
    prev_alpha = ""
    prev_was_vowel = False
    last_alpha = ""
    for ch in w:
        if not ch.isalpha():
            prev_alpha = ""
            prev_was_vowel = False
            continue
        is_vowel = ch in _VOWELS or (ch == "y" and prev_alpha != "" and not prev_was_vowel)
        if is_vowel and not prev_was_vowel:
            groups += 1
        prev_alpha = ch
        prev_was_vowel = is_vowel
        last_alpha = ch
    if last_alpha == "":
        return 1
    if last_alpha == "e" and groups > 1:
        groups -= 1
    return max(1, groups)


def text_stats(text: str) -> TextStats:
    """Compute sentence/word/syllable counts for a document body."""
    sentences = segment_sentences(text)
    words = [w for s in sentences for w in tokenize_words(s)]
    syllables = sum(count_syllables(w) for w in words)
    return TextStats(len(sentences), len(words), syllables)


def flesch_score(stats: TextStats, config: FleschConfig | None = None) -> float:
    """Flesch reading ease. Higher scores mean easier text.

    base - wps * words/sentences - spw * syllables/words, with the classic
    coefficients 206.835 / 1.015 / 84.6 by default.
    """
    cfg = config or FleschConfig()
    return (
        cfg.base
        - cfg.words_per_sentence * stats.words / stats.sentences
        - cfg.syllables_per_word * stats.syllables / stats.words
    )
