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
import operator
import sys
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from pathlib import Path

from ._files import (INT, INTS, NUMBER, NUMBERS, STRING, STRINGS, atomic_write, fields,
                     read_json, read_jsonl, record)
from .errors import EmptyCorpus, EmptyDocument, Record, ValidationError
from .textstat import Document, segment_sentences, tokenize_words

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

MODEL_FORMAT = "hlmkit-ngram"
MODEL_VERSION = 5

_LOG = {"2": math.log2, "e": math.log}
_GRAM_LIMIT = 2 ** 63  # V ** order stays below it, so every packed gram is an int64


class SurprisalSequence(Record):
    """Per-token surprisals for one document, in the given log base."""

    doc_id: str
    values: tuple[float, ...]
    base: str = "2"

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise EmptyDocument(f"surprisal sequence for {self.doc_id!r} is empty")
        if self.base not in _LOG:
            raise ValidationError(f"base must be '2' or 'e', got {self.base!r}")
        # exact types, so a bool or a numeric string is rejected, not coerced;
        # an int beyond the float range is rejected before float() overflows
        if {float, int}.issuperset(map(type, values)) and max(values) <= sys.float_info.max:
            values = tuple(map(float, values))
            if all(map(math.isfinite, values)) and min(values) >= 0:
                object.__setattr__(self, "values", values)
                return
        bad = next(v for v in values
                   if type(v) not in (int, float) or not 0 <= v <= sys.float_info.max)
        shown = "an int beyond the float range" if type(bad) is int and bad > 0 else repr(bad)
        raise ValidationError(f"surprisal values must be finite numbers >= 0, got {shown} "
                              f"in document {self.doc_id!r}")


def _tokenize_sentences(text: str) -> list[list[str]]:
    """Lowercased word tokens per sentence; empty sentences dropped."""
    sents = ([t.lower() for t in tokenize_words(s)] for s in segment_sentences(text))
    return [toks for toks in sents if toks]


class NgramModel:
    """Immutable Kneser-Ney smoothed n-gram model over integer word ids.

    ``words`` is the sorted vocabulary (it holds the pads and ``<unk>``) and
    ``ids`` maps each word to its position. A gram of ids is one int in base
    ``V = len(words)``, ``(h1 * V + h2) * V + w``: its history is ``g // V``,
    dropping its first id is ``g % V ** (k - 1)``, and sorted keys are grams
    in lexicographic order. The model is defined by ``words`` and the raw
    top-order counts of the padded training stream: ``grams`` strictly
    increasing in ``[0, V ** order)``, with positive ``counts``, kept as the file
    lists them (the positions of the counts above 1, and those). Windows whose
    last token is the start pad are never counted, so each history's
    distribution normalizes exactly, and every stream starts with
    ``order - 1`` start pads, so each lower-order gram is a suffix of a
    top-order one: the lower continuation tables are derived, never stored.
    The predictable vocabulary, ``event_vocab``, is sorted and excludes the
    start pad, and the end pad for order 1 (which trains on unpadded streams
    so that its low-discount limit matches raw relative frequencies).
    """

    def __init__(self, order: int, discount: float, vocab: Sequence[str],
                 grams: Iterable[int], counts: Iterable[int]):
        try:  # dense only here: the model keeps the counts above 1 and their positions
            counts = array("q", counts)
        except OverflowError:
            raise ValidationError("model counts must be below 2**63") from None
        if counts and min(counts) <= 0:
            raise ValidationError("model counts must be positive, one per gram")
        at = array("q", compress(count(), map((1).__lt__, counts)))
        self._build(order, discount, vocab, grams, len(counts), at,
                    array("q", map(counts.__getitem__, at)))

    def _build(self, order: int, discount: float, vocab: Sequence[str], grams: Iterable[int],
               n: int, listed_at: array, listed: array) -> None:
        """Check and keep the model of ``n`` counts whose values above 1 are ``listed`` at the
        increasing positions ``listed_at``: the constructor's, or a file's (checked on load)."""
        in_range = f"model grams must be strictly increasing and in [0, {len(vocab)}**{order})"
        try:  # copies first, since a caller may change its lists later; the checks read them
            self._grams = grams = array("q", grams)
        except OverflowError:
            raise ValidationError(in_range) from None
        if not 1 <= order <= 3:
            raise ValidationError(f"order must be in [1, 3], got {order}")
        if not 0 < discount < 1:
            raise ValidationError(f"discount must be in (0, 1), got {discount}")
        _check_packable(size := len(vocab), order)
        words = tuple(vocab)
        if not ({BOS, EOS, UNK} <= set(words) and all(map(operator.lt, words, words[1:]))):
            raise ValidationError(
                f"model vocabulary must be strictly increasing and hold {BOS}, {EOS} and {UNK}")
        if len(grams) != n:
            raise ValidationError("model counts must be positive, one per gram")
        if grams and not (0 <= grams[0] and grams[-1] < size ** order
                          and all(map(operator.lt, grams, islice(grams, 1, None)))):
            raise ValidationError(in_range)
        self.order, self.discount, self.words = order, discount, words
        self.ids = {w: i for i, w in enumerate(words)}
        excluded = {BOS} | ({EOS} if order == 1 else set())
        # Training writes no gram that predicts an excluded word or follows </s>, or <s> after a
        # word: one pass over each gram's last two ids, g % V**2 = h * V + w, finds a bad pair
        bos, eos, span, pairs = self.ids[BOS], self.ids[EOS], size ** (order - 1), size * size
        lo, hi, i = (bisect_left(grams, x * span) for x in (bos, bos + 1, eos))
        width = size if grams and order > 1 else 0  # each h's pairs (none built for no grams)
        bad = {p for w in excluded for p in range(self.ids[w], pairs if grams else 0, size)}
        bad.update(range(eos * size, eos * size + width))  # h is </s>
        ok = bad.isdisjoint(map(operator.mod, islice(grams, lo, hi), repeat(pairs)))  # first <s>
        bad.update(range(bos * size, bos * size + width))  # h is <s> after a word
        rest = chain(islice(grams, lo), islice(grams, hi, None))
        if not (ok and bad.isdisjoint(map(operator.mod, rest, repeat(pairs)))
                and (i == len(grams) or grams[i] >= (eos + 1) * span)):  # no first id </s>
            if not {self.ids[w] for w in excluded}.isdisjoint(map(size.__rmod__, grams)):
                raise ValidationError(
                    f"model grams must not predict {' or '.join(sorted(excluded))}")
            raise ValidationError(f"model grams must not follow {EOS}, or {BOS} after a word")
        self.event_vocab = tuple(w for w in words if w not in excluded)
        self._uniform = 1.0 / len(self.event_vocab)
        self._listed_at, self._listed = listed_at, listed

    @cached_property
    def _levels(self) -> list[tuple[array, array, array | None, array]]:
        """Per order, built at the first query from the uniform floor up: the sorted grams, where
        each first id's grams start, each packed history's backoff mass (1.0 if unseen; none at
        the top order) and each gram's p. Each suffix of a stored gram is stored one level down."""
        size, discount = len(self.words), self.discount
        # top down: a lower order's grams are the distinct suffixes one order up, and its counts
        # (read anew by each call) how many grams there end in each
        tables = [(self._grams, partial(_each_count, self._listed_at, self._listed,
                                        len(self._grams)))]
        for k in range(self.order - 1, 0, -1):
            grams, counts = _tally(array("q", map((size ** k).__rmod__, tables[-1][0])), size ** k)
            tables.append((grams, counts.__iter__))
        levels, lower = [], repeat(self._uniform)
        while tables:
            grams, counts = tables.pop()
            if levels:  # each gram's suffix p, found by bisection one order down
                lower = map(levels[-1][3].__getitem__, map(bisect_left, repeat(levels[-1][0]), map(
                    (size ** len(levels)).__rmod__, grams)))
            # a 1 at each history run's last gram; each run's length and (int) total, in step
            ends = bytes(map(operator.ne, map(size.__rfloordiv__, grams),
                             chain(map(size.__rfloordiv__, islice(grams, 1, None)), [-1])))
            lengths, mass_lengths, backoff_lengths = tee(_steps(compress(count(1), ends)), 3)
            totals, mass_totals = tee(_steps(compress(accumulate(counts()), ends)))
            masses = map(operator.truediv, map(discount.__mul__, mass_lengths), mass_totals)
            kept = None
            if len(levels) < max(1, self.order - 1):  # below the top order, and at order 1
                masses, runs = tee(masses)  # at most V, all buffered while they are kept
                kept = array("d", [1.0]) * size ** len(levels)
                for h, mass in zip(compress(map(size.__rfloordiv__, grams), ends), runs):
                    kept[h] = mass
            # (c - discount) / total + backoff * lower p, streamed into the array with no list
            discounted = map(operator.sub, counts(), repeat(discount))
            totals = chain.from_iterable(map(repeat, totals, lengths))
            backoffs = chain.from_iterable(map(repeat, masses, backoff_lengths))
            probs = array("d", map(operator.add, map(operator.truediv, discounted, totals),
                                   map(operator.mul, backoffs, lower)))
            step = size ** len(levels)
            starts = array("q", map(bisect_left, repeat(grams), range(0, size * step + 1, step)))
            levels.append((grams, starts, kept, probs))
        return levels

    @property
    def counts(self) -> dict[int, dict[tuple[str, ...], dict[str, int]]]:
        """The top-order counts as ``{order: {history: {word: count}}}``, derived
        from the packed table on every read (changing it changes no model)."""
        words, size, rows = self.words, len(self.words), {}
        for g, c in zip(self._grams, _each_count(self._listed_at, self._listed, len(self._grams))):
            rows.setdefault(g // size, {})[words[g % size]] = c
        radixes = [size ** k for k in range(self.order - 2, -1, -1)]
        return {self.order: {tuple(words[h // r % size] for r in radixes): row
                             for h, row in rows.items()}}

    def prob(self, word: str, context: Sequence[str] = ()) -> float:
        """p(word | context). Unknown words and context tokens map to <unk>."""
        if word == BOS:
            raise ValidationError("the start pad is not a predictable token")
        n, size = min(self.order - 1, len(context)), len(self.words)
        h, w = _pack(self.ids, context[len(context) - n:]), _pack(self.ids, (word,))
        (grams, starts, _, probs), f = self._levels[n], (g := h * size + w) // size ** n
        i = bisect_left(grams, g, lo := starts[f], hi := starts[f + 1])
        return probs[i] if i < hi and grams[i] == g else self._miss(h, n, w, i, lo, hi)

    @cached_property
    def _miss(self) -> Callable[[int, int, int, int, int, int], float]:
        """p(w | h) for the packed history ``h`` of ``n`` ids when order ``n + 1`` stores no
        ``g = h * V + w``: ``bisect_left`` stopped at ``i`` in ``[lo, hi)``, the grams of g's
        first id, so ``h``'s run, if stored, holds ``grams[i]`` or ``grams[i - 1]``. Up from
        the unigram p, each order gives a stored gram's p, or a seen history's backoff * p: its
        kept mass below the top order, and at the top ``discount * length / total`` of the run
        (two bisections in ``[lo, hi)`` bound it, and two in the listed counts' positions find
        what they add to its total, read from their running sums), so a miss costs O(log n)."""
        levels, size, discount = self._levels, len(self.words), self.discount
        (_, unigram_starts, (mass,), unigrams), middle = levels[0], levels[1:-1]
        unseen, at = mass * self._uniform, self._listed_at
        sums = list(accumulate(self._listed, initial=0))  # Python ints: may pass 2**63

        def miss(h, n, w, i, lo, hi):
            a, b = unigram_starts[w], unigram_starts[w + 1]
            q, v = unigrams[a] if a < b else unseen, h % size
            for grams, runs, masses, probs in middle if n == 2 else ():  # order 3
                a, b = runs[v], runs[v + 1]
                if a == b:  # unseen, so no top-order history ends in it either
                    return q
                j = bisect_left(grams, g := v * size + w, a, b)
                q = probs[j] if j < b and grams[j] == g else masses[v] * q
            grams, _, masses, _ = levels[n]
            if masses is not None:  # below the top order (prob() of a short context), or n is 0
                return masses[h] * q if n else q
            if not (i < hi and grams[i] // size == h or lo < i and grams[i - 1] // size == h):
                return q  # an unseen history
            a, b = bisect_left(grams, h * size, lo, i), bisect_left(grams, h * size + size, i, hi)
            x, y = bisect_left(at, a), bisect_left(at, b)
            return discount * (b - a) / (b - a + sums[y] - sums[x] - (y - x)) * q
        return miss


def _steps(ends: Iterable[int]) -> Iterator[int]:
    """Each of the increasing ``ends`` minus the one before it (the first minus 0)."""
    ends, before = tee(ends)  # read in step, so the copy buffers one value
    return map(operator.sub, ends, chain([0], before))


def _tally(windows: array, limit: int) -> tuple[array, array]:
    """The distinct values of ``windows`` in increasing order, and how often each occurs. The
    values below half of ``limit`` (which bounds them all), then the rest, are each sorted as a
    list of ints: about half of them are Python ints at once (Heafield et al. 2013's blocks)."""
    values, counts, half = array("q"), array("q"), limit // 2
    for in_part in half.__gt__, half.__le__:
        part = sorted(filter(in_part, windows))
        # each run of equal values is one, counted by where the runs end
        ends = array("q", compress(count(1), map(operator.ne, part,
                                                 chain(islice(part, 1, None), [-1]))))
        values.extend(map(part.__getitem__, map((-1).__add__, ends)))
        counts.extend(_steps(ends))
        part = ends = None  # freed before the next half is sorted
    return values, counts


def _each_count(at: Sequence[int], listed: Iterable[int], n: int) -> Iterator[int]:
    """The ``n`` counts whose values above 1 are ``listed`` at the increasing positions ``at``."""
    ones = map(operator.sub, chain(at, [n]), chain([0], map((1).__add__, at)))  # 1s before each
    return chain.from_iterable(map(chain, map(repeat, repeat(1), ones),
                                   chain(map(repeat, listed, repeat(1)), [()])))


def _pack(ids: Mapping[str, int], tokens: Iterable[str]) -> int:
    """The mixed-radix key of ``tokens`` in base ``len(ids)``; unknown ones are <unk>."""
    g, size, unk = 0, len(ids), ids[UNK]
    for t in tokens:
        g = g * size + ids.get(t, unk)
    return g


def _check_packable(size: int, order: int) -> None:
    if size ** order >= _GRAM_LIMIT:  # each packed gram is one int64 array item
        raise ValidationError(f"{size} words are too many for order {order}: V ** {order} >= 2**63")


def train_lm(corpus: Sequence[Document], order: int = 2, discount: float = 0.75) -> NgramModel:
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

    # one stream of ids, first numbered as seen and then renumbered in sorted order
    index = {BOS: 0, EOS: 1, UNK: 2}
    pad, end, stream = [0] * (order - 1), [1] if order >= 2 else [], []
    for doc in corpus:
        for s in _tokenize_sentences(doc.text):
            stream += pad + [index.setdefault(t, len(index)) for t in s] + end
    words = sorted(index)
    _check_packable(size := len(words), order)
    ids = {w: i for i, w in enumerate(words)}
    stream = windows = list(map([ids[w] for w in index].__getitem__, stream))
    for k in range(1, order):
        windows = map(operator.add, map(size.__mul__, windows), islice(stream, k, None))
    # a window that ends at a start pad spans two sentences
    windows = array("q", compress(windows, map(ids[BOS].__ne__, islice(stream, order - 1, None))))
    stream = None
    grams, counts = _tally(windows, size ** order)  # each run of equal windows is one gram
    windows = None  # freed before the model copies the grams
    return NgramModel(order, discount, words, grams, counts)


def token_surprisals(model: NgramModel, doc: Document, base: str = "2") -> SurprisalSequence:
    """Surprisal of every real token in the document, sentences concatenated.

    Start/end pads condition and absorb probability mass but are never scored
    themselves, so the output has exactly one value per word token.
    """
    values = tuple(chain.from_iterable(_sentence_values(model, doc, base)))
    return SurprisalSequence(doc.id, values, base)


def sentence_surprisals(model: NgramModel, doc: Document, base: str = "2") -> list[SurprisalSequence]:
    """Per-sentence surprisal sequences for one document."""
    return [SurprisalSequence(doc.id, tuple(values), base)
            for values in _sentence_values(model, doc, base)]


def _sentence_values(model: NgramModel, doc: Document, base: str) -> list[list[float]]:
    """Surprisals per sentence, each token scored on the last order-1 tokens."""
    if base not in _LOG:
        raise ValidationError(f"base must be '2' or 'e', got {base!r}")
    log = _LOG[base]
    sents = _tokenize_sentences(doc.text)
    ids, unk, size, n = model.ids, model.ids[UNK], len(model.words), model.order - 1
    (grams, starts, _, probs), miss = model._levels[-1], model._miss
    # the packed start history, and the radix that keeps its last n ids (g // keep: g's first)
    start, keep = _pack(ids, (BOS,) * n), size ** n
    out = []
    for s in sents:
        h = start
        values = []
        for tok in s:
            w = ids.get(tok, unk)
            f = (g := h * size + w) // keep
            i = bisect_left(grams, g, lo := starts[f], hi := starts[f + 1])
            p = probs[i] if i < hi and grams[i] == g else miss(h, n, w, i, lo, hi)
            # max() guards float round-off when p is within an ulp of 1
            values.append(max(0.0, -log(p)))
            h = g % keep
        out.append(values)
    return out


def iter_surprisals(path: str | Path) -> Iterator[SurprisalSequence]:
    """Yield the surprisal sequences of a JSONL file one at a time, each checked as it is read.

    One object per line: {"id": str, "surprisals": [number, ...], "base": "2"|"e"}.
    Several lines may share an id (e.g. one line per sentence); consumers
    decide whether to concatenate or average them.
    """
    spec = {"id": STRING, "surprisals": NUMBERS, "base": STRING}
    for line, obj in read_jsonl(path):
        yield record(line, SurprisalSequence, *fields(obj, spec, line))


def import_surprisals(path: str | Path) -> list[SurprisalSequence]:
    """Every surprisal sequence of a JSONL file; see :func:`iter_surprisals`."""
    return list(iter_surprisals(path))


def export_surprisals(seqs: Iterable[SurprisalSequence], path: str | Path) -> int:
    """Write sequences as JSONL, one object per line, as they come; return how many."""
    n = 0
    with atomic_write(path) as (fh,):
        for n, s in enumerate(seqs, 1):
            fh.write(json.dumps({"id": s.doc_id, "surprisals": list(s.values), "base": s.base},
                                ensure_ascii=False) + "\n")
    return n


# The fields of a dump after "format" and "version", in NgramModel's order (gaps for grams,
# and the counts above 1 at the positions that count_gaps codes as gaps)
_MODEL_FIELDS = {"order": INT, "discount": NUMBER, "vocab": STRINGS, "gaps": INTS,
                 "count_gaps": INTS, "counts": INTS}
_WRITE_BLOCK = 1024  # ints per save_model write: a few KB of text, below the 8 KiB text chunk


def _dump_fields(model: NgramModel, ints: Callable) -> dict:
    """The dump's fields, each int list an iterator passed through ``ints``."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "discount": model.discount,
        "vocab": list(model.words),
        "gaps": ints(_steps(model._grams)),
        "count_gaps": ints(_steps(model._listed_at)),
        "counts": ints(model._listed),
    }


def model_to_dict(model: NgramModel) -> dict:
    """Versioned JSON-safe dump: sorted vocabulary, gaps between the sorted packed grams, and
    the counts above 1 with the gaps between their positions (every other count is 1)."""
    return _dump_fields(model, list)


def model_from_dict(data: dict) -> NgramModel:
    """Rebuild a model from a version-5 dump; any other version is refused."""
    fmt, version = fields(data, {"format": STRING, "version": INT})
    if fmt != MODEL_FORMAT:
        raise ValidationError("not a hlmkit n-gram model dump")
    if version != MODEL_VERSION:
        raise ValidationError(f"unsupported model version {version}: retrain the model "
                              f"with lm-train, which writes version {MODEL_VERSION}")
    keys = {"format", "version", *_MODEL_FIELDS}
    if data.keys() != keys:
        raise ValidationError(f"a model file needs fields {sorted(keys)}, got {sorted(data)}")
    order, discount, vocab, gaps, count_gaps, listed = fields(data, _MODEL_FIELDS)
    if len(count_gaps) != len(listed) or listed and not 2 <= min(listed) <= max(listed) < 2 ** 63:
        raise ValidationError("model counts must be listed in [2, 2**63), one per count gap")
    # the positions are the running sums, so they increase and end below the gram count
    if count_gaps and not (count_gaps[0] >= 0 and sum(count_gaps) < len(gaps)
                           and all(map((0).__lt__, islice(count_gaps, 1, None)))):
        raise ValidationError(
            f"model count positions must be strictly increasing and in [0, {len(gaps)})")
    # the running sums are the grams, which _build checks, and the listed counts' positions
    model = object.__new__(NgramModel)
    model._build(order, discount, vocab, accumulate(gaps), len(gaps),
                 array("q", accumulate(count_gaps)), array("q", listed))
    return model


def save_model(model: NgramModel, path: str | Path) -> None:
    """Serialize a model to compact JSON, the bytes of ``json.dumps(model_to_dict(model),
    sort_keys=True, separators=(",", ":"))`` and a newline. Round-trips bit-exactly."""
    with atomic_write(path) as (fh,):  # field by field: no list of gaps, no whole text
        dump = sorted(_dump_fields(model, iter).items())
        for sep, (key, value) in zip(chain("{", repeat(",")), dump):
            fh.write(f'{sep}"{key}":')  # each key is a plain name
            if _MODEL_FIELDS.get(key) is INTS:
                blocks = iter(lambda: ",".join(map(str, islice(value, _WRITE_BLOCK))), "")
                fh.writelines(chain("[", islice(blocks, 1), map(",".__add__, blocks), "]"))
            else:
                fh.write(json.dumps(value, separators=(",", ":")))
        fh.write("}\n")


def load_model(path: str | Path) -> NgramModel:
    return model_from_dict(read_json(path))
