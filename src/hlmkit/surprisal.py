"""Per-token surprisal from an interpolated Kneser-Ney n-gram model.

Surprisal of a token is -log p(token | preceding context). The built-in model
is a single-discount interpolated Kneser-Ney estimator of order 1 to 3:
the top order uses raw counts, lower orders use continuation counts (number
of distinct left extensions observed one order up), and the recursion bottoms
out in a uniform distribution over the predictable vocabulary. Because the
discount is below 1 and the uniform floor is always reachable, every
conditional probability is strictly positive and every surprisal finite.

Sequences produced elsewhere (e.g. by a neural LM scored offline) can be
ingested from JSONL instead; see :func:`import_surprisals`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._files import (INT, NUMBER, NUMBERS, STRING, STRINGS, atomic_write, fields,
                     read_json, read_jsonl, record)
from .errors import EmptyCorpus, EmptyDocument, ValidationError
from .textstat import Document, segment_sentences, tokenize_words

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

MODEL_FORMAT = "hlmkit-ngram"
MODEL_VERSION = 2

DEFAULT_ORDER = 2
DEFAULT_DISCOUNT = 0.75

_LOG = {"2": math.log2, "e": math.log}


@dataclass(frozen=True)
class SurprisalSequence:
    """Per-token surprisals for one document, in the given log base."""

    doc_id: str
    values: tuple[float, ...]
    base: str = "2"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise EmptyDocument(f"surprisal sequence for {self.doc_id!r} is empty")
        if self.base not in _LOG:
            raise ValidationError(f"base must be '2' or 'e', got {self.base!r}")
        for v in self.values:
            if not math.isfinite(v) or v < 0:
                raise ValidationError(
                    f"surprisal values must be finite and >= 0, got {v!r} "
                    f"in document {self.doc_id!r}"
                )


def _tokenize_sentences(text: str) -> list[list[str]]:
    """Lowercased word tokens per sentence; empty sentences dropped."""
    out = []
    for sent in segment_sentences(text):
        toks = [t.lower() for t in tokenize_words(sent)]
        if toks:
            out.append(toks)
    return out


class NgramModel:
    """Immutable Kneser-Ney smoothed n-gram model.

    The model is defined by one table: {history tuple: {word: count}} of raw
    top-order counts from the padded training stream (histories have
    ``order - 1`` tokens). Windows whose last token is the start pad are
    never counted, so each history's distribution normalizes exactly over
    the predictable vocabulary. ``counts`` exposes it as ``{order: table}``.

    Because every stream starts with ``order - 1`` start pads, every observed
    lower-order gram is a suffix of an observed top-order gram, so the
    lower-order continuation tables are derived from the top table and never
    stored. The vocabulary is every word the table predicts plus the pads and
    ``<unk>``. The predictable vocabulary excludes the start pad, and
    excludes the end pad for unigram models (order 1 trains on unpadded
    token streams so that its low-discount limit matches raw relative
    frequencies).
    """

    def __init__(self, order: int, discount: float,
                 table: Mapping[tuple[str, ...], Mapping[str, int]]):
        if not 1 <= order <= 3:
            raise ValidationError(f"order must be in [1, 3], got {order}")
        if not 0 < discount < 1:
            raise ValidationError(f"discount must be in (0, 1), got {discount}")
        self.order = order
        self.discount = discount
        top = {tuple(h): dict(ws) for h, ws in table.items()}
        self.counts = {order: top}
        self.vocab = frozenset(w for ws in top.values() for w in ws) | {BOS, EOS, UNK}
        excluded = {BOS} | ({EOS} if order == 1 else set())
        self._events: tuple[str, ...] = tuple(sorted(self.vocab - excluded))
        self._uniform = 1.0 / len(self._events)
        # _levels[j] maps a j-token history to (words, total, backoff mass)
        # of the order j+1 table.
        levels = [top]
        for _ in range(order - 1):
            levels.append(_continuation_counts(levels[-1]))
        self._levels: list[dict[tuple[str, ...], tuple[dict[str, int], int, float]]] = []
        for tbl in reversed(levels):
            stats = {}
            for h, ws in tbl.items():
                total = sum(ws.values())
                stats[h] = (ws, total, discount * len(ws) / total)
            self._levels.append(stats)

    @property
    def event_vocab(self) -> tuple[str, ...]:
        """Sorted tokens the model assigns probability to."""
        return self._events

    def prob(self, word: str, context: Sequence[str] = ()) -> float:
        """p(word | context). Unknown words and context tokens map to <unk>."""
        if word == BOS:
            raise ValidationError("the start pad is not a predictable token")
        w = word if word in self.vocab else UNK
        ctx = tuple(t if t in self.vocab else UNK for t in context)
        k = min(self.order, len(ctx) + 1)
        hist = ctx[len(ctx) - (k - 1):] if k > 1 else ()
        return self._p(hist, w)

    def _p(self, hist: tuple[str, ...], w: str) -> float:
        """p(w | hist) for a mapped history of at most ``order - 1`` tokens.

        Interpolates from the uniform floor up to order len(hist) + 1,
        skipping histories the tables never saw. This is the recursion
        p_k = max(c - D, 0) / total + backoff * p_(k-1) unrolled, with the
        same float operations in the same order, so values are bit-identical
        to evaluating it directly.
        """
        p = self._uniform
        n = len(hist)
        for j in range(n + 1):
            entry = self._levels[j].get(hist[n - j:])
            if entry is not None:
                words, total, backoff = entry
                c = words.get(w)
                # an unseen word's discounted term is exactly 0.0: skip it
                p = (c - self.discount) / total + backoff * p if c else backoff * p
        return p

    def distribution(self, context: Sequence[str] = ()) -> dict[str, float]:
        """Full conditional distribution over the predictable vocabulary."""
        return {w: self.prob(w, context) for w in self._events}


def _continuation_counts(
    upper: Mapping[tuple[str, ...], Mapping[str, int]],
) -> dict[tuple[str, ...], dict[str, int]]:
    """One order down: how many distinct left extensions each gram has.

    Every (history, word) entry of ``upper`` is a distinct gram, so a lower
    gram's continuation count is the number of upper entries ending in it.
    """
    lower: dict[tuple[str, ...], dict[str, int]] = {}
    for hist, words in upper.items():
        row = lower.setdefault(hist[1:], {})
        for w in words:
            row[w] = row.get(w, 0) + 1
    return lower


def train_lm(corpus: Sequence[Document], order: int = DEFAULT_ORDER,
             discount: float = DEFAULT_DISCOUNT) -> NgramModel:
    """Train an interpolated Kneser-Ney model on a corpus.

    Sentences are lowercased and, for order >= 2, padded with ``order - 1``
    start symbols and one end symbol. Every training token is kept in the
    vocabulary (no minimum count); tokens unseen at scoring time map to
    ``<unk>``, which receives probability through the uniform floor.
    """
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    if not 1 <= order <= 3:
        raise ValidationError(f"order must be in [1, 3], got {order}")
    if not 0 < discount < 1:
        raise ValidationError(f"discount must be in (0, 1), got {discount}")

    sents = [s for doc in corpus for s in _tokenize_sentences(doc.text)]
    if not sents:
        raise EmptyCorpus("corpus contains no tokens")

    grams: Counter = Counter()
    for s in sents:
        padded = [BOS] * (order - 1) + s + ([EOS] if order >= 2 else [])
        grams.update(zip(*(padded[i:] for i in range(order))))
    table: dict[tuple[str, ...], dict[str, int]] = {}
    for gram, c in grams.items():
        table.setdefault(gram[:-1], {})[gram[-1]] = c
    return NgramModel(order, discount, table)


def token_surprisals(model: NgramModel, doc: Document, base: str = "2") -> SurprisalSequence:
    """Surprisal of every real token in the document, sentences concatenated.

    Start/end pads condition and absorb probability mass but are never scored
    themselves, so the output has exactly one value per word token.
    """
    values = tuple(v for s in _sentence_values(model, doc, base) for v in s)
    return SurprisalSequence(doc_id=doc.id, values=values, base=base)


def sentence_surprisals(model: NgramModel, doc: Document, base: str = "2") -> list[SurprisalSequence]:
    """Per-sentence surprisal sequences for one document."""
    return [SurprisalSequence(doc_id=doc.id, values=tuple(values), base=base)
            for values in _sentence_values(model, doc, base)]


def _sentence_values(model: NgramModel, doc: Document, base: str) -> list[list[float]]:
    """Surprisals per sentence, each token scored on the last order-1 tokens."""
    if base not in _LOG:
        raise ValidationError(f"base must be '2' or 'e', got {base!r}")
    log = _LOG[base]
    sents = _tokenize_sentences(doc.text)
    if not sents:
        raise EmptyDocument(f"document {doc.id!r} has no tokens")
    vocab = model.vocab
    n = model.order - 1
    out = []
    for s in sents:
        hist: tuple[str, ...] = (BOS,) * n
        values = []
        for tok in s:
            w = tok if tok in vocab else UNK
            # max() guards float round-off when p is within an ulp of 1
            values.append(max(0.0, -log(model._p(hist, w))))
            if n:
                hist = hist[1:] + (w,)
        out.append(values)
    return out


def import_surprisals(path: str | Path) -> list[SurprisalSequence]:
    """Read surprisal sequences from JSONL.

    One object per line: {"id": str, "surprisals": [number, ...], "base": "2"|"e"}.
    Several lines may share an id (e.g. one line per sentence); consumers
    decide whether to concatenate or average them.
    """
    spec = {"id": STRING, "surprisals": NUMBERS, "base": STRING}
    return [record(line, SurprisalSequence, *fields(obj, spec, line))
            for line, obj in read_jsonl(path)]


def export_surprisals(seqs: Iterable[SurprisalSequence], path: str | Path) -> None:
    """Write sequences as JSONL, one object per line."""
    with atomic_write(path) as fh:
        for s in seqs:
            fh.write(json.dumps(
                {"id": s.doc_id, "surprisals": list(s.values), "base": s.base},
                ensure_ascii=False,
            ) + "\n")


def model_to_dict(model: NgramModel) -> dict:
    """Versioned, fully sorted JSON-safe dump of the top-order count table."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "discount": model.discount,
        "counts": [
            [list(h), sorted(ws.items())]
            for h, ws in sorted(model.counts[model.order].items())
        ],
    }


# Fields of each readable dump version. Version 1 also stored the vocabulary
# and the raw count tables of every order; only its top-order table is read.
_MODEL_FIELDS = {
    1: {"format", "version", "order", "discount", "vocab", "counts"},
    2: {"format", "version", "order", "discount", "counts"},
}


def _count_table(entries, order: int) -> dict[tuple[str, ...], dict[str, int]]:
    """Parse ``[[history, [[word, count], ...]], ...]``, checking every value.

    Types are compared exactly, so a bool or float count is rejected rather
    than coerced.
    """
    if type(entries) is not list:
        raise ValidationError("model counts must be a list of [history, words] entries")
    table: dict[tuple[str, ...], dict[str, int]] = {}
    for i, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 2:
            raise ValidationError(f"count entry {i} must be [history, words]")
        hist, words = entry
        if (type(hist) is not list or len(hist) != order - 1
                or not all(type(t) is str for t in hist)):
            raise ValidationError(
                f"count entry {i}: history must be a list of {order - 1} strings")
        if type(words) is not list or not words:
            raise ValidationError(f"count entry {i}: words must be a non-empty list")
        row = {}
        for item in words:
            if type(item) is not list or len(item) != 2:
                raise ValidationError(f"count entry {i}: expected [word, count], got {item!r}")
            w, c = item
            if type(w) is not str or type(c) is not int or c <= 0:
                raise ValidationError(
                    f"count entry {i}: expected a string word and a positive "
                    f"integer count, got {item!r}")
            row[w] = c
        if len(row) != len(words):
            raise ValidationError(f"count entry {i}: duplicate word")
        table[tuple(hist)] = row
    if len(table) != len(entries):
        raise ValidationError("duplicate history in model counts")
    return table


def model_from_dict(data: dict) -> NgramModel:
    """Rebuild a model from a version-2 dump or a version-1 (legacy) one."""
    fmt, version = fields(data, {"format": STRING, "version": INT})
    if fmt != MODEL_FORMAT:
        raise ValidationError("not a hlmkit n-gram model dump")
    if version not in _MODEL_FIELDS:
        raise ValidationError(f"unsupported model version {version}")
    if data.keys() != _MODEL_FIELDS[version]:
        raise ValidationError(
            f"model version {version} needs fields {sorted(_MODEL_FIELDS[version])}, "
            f"got {sorted(data)}")
    order, discount = fields(data, {"order": INT, "discount": NUMBER})
    if not 1 <= order <= 3:
        raise ValidationError(f"order must be in [1, 3], got {order}")
    entries = data["counts"]
    if version == 1:
        fields(data, {"vocab": STRINGS})
        # version 1 holds [[k, entries], ...] for k = 1..order
        tops = [t[1] for t in entries if type(t) is list and len(t) == 2
                and type(t[0]) is int and t[0] == order] if type(entries) is list else []
        if len(tops) != 1:
            raise ValidationError(f"version-1 counts need exactly one order-{order} table")
        entries = tops[0]
    return NgramModel(order, discount, _count_table(entries, order))


def save_model(model: NgramModel, path: str | Path) -> None:
    """Serialize a model to compact JSON. Round-trips bit-exactly (counts are ints)."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_model(path: str | Path) -> NgramModel:
    return model_from_dict(read_json(path))
