"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written as direct count arithmetic,
recomputed from scratch on every call, with no code shared with the package
under test.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

BOS, EOS, UNK = "<s>", "</s>", "<unk>"


def kn_event_vocab(sentences: list[list[str]], order: int) -> list[str]:
    vocab = {t for s in sentences for t in s}
    events = vocab | {UNK} | ({EOS} if order >= 2 else set())
    return sorted(events)


def kn_prob(sentences: list[list[str]], order: int, discount: float,
            word: str, context: tuple[str, ...] = ()) -> float:
    """Interpolated Kneser-Ney probability by naive per-call counting.

    Raw counts at the top order, continuation counts (distinct left
    extensions among observed higher-order grams) below, uniform floor over
    the predictable vocabulary at the bottom. Streams are padded with
    order-1 start symbols and one end symbol (no padding for order 1), and
    windows ending in the start symbol are never events.
    """
    vocab = {t for s in sentences for t in s}
    events = kn_event_vocab(sentences, order)
    streams = [
        [BOS] * (order - 1) + s + ([EOS] if order >= 2 else [])
        for s in sentences
    ]

    def observed(k: int) -> list[tuple[str, ...]]:
        out = []
        for st in streams:
            for i in range(len(st) - k + 1):
                g = tuple(st[i:i + k])
                if g[-1] != BOS:
                    out.append(g)
        return out

    def table(k: int) -> Counter:
        if k == order:
            return Counter(observed(k))
        return Counter(g[1:] for g in set(observed(k + 1)))

    def p(k: int, hist: tuple[str, ...], w: str) -> float:
        if k == 0:
            return 1.0 / len(events)
        grams = table(k)
        total = sum(c for g, c in grams.items() if g[:-1] == hist)
        if total == 0:
            return p(k - 1, hist[1:], w)
        types = sum(1 for g in grams if g[:-1] == hist)
        c = grams.get(hist + (w,), 0)
        return max(c - discount, 0.0) / total + discount * types / total * p(k - 1, hist[1:], w)

    w = word if word in set(events) else UNK
    ctx = tuple(t if (t in vocab or t == BOS) else UNK for t in context)
    k = min(order, len(ctx) + 1)
    hist = ctx[len(ctx) - (k - 1):] if k > 1 else ()
    return p(k, hist, w)


def flesch_formula(sentences: int, words: int, syllables: int) -> float:
    return 206.835 - 1.015 * words / sentences - 84.6 * syllables / words


def uid_sl_formula(values, k: float = 1.25) -> float:
    return sum(v ** k for v in values) / len(values)


def uid_var_formula(values, mu: float = 3.8845) -> float:
    return sum((v - mu) ** 2 for v in values) / len(values)


def ordering_score(easy: float, medium: float, hard: float, higher_is_better: bool) -> float:
    """Literal transcription of the six-case ordering score."""
    e, m, h = (easy, medium, hard) if higher_is_better else (-easy, -medium, -hard)
    if e == m == h:
        return 0.0
    if e >= m >= h:
        return 0.75
    if e >= h >= m:
        return 0.375
    if m >= h >= e:
        return 0.0
    if m >= e >= h:
        return 0.0
    if h >= e >= m:
        return -0.375
    if h >= m >= e:
        return -0.75
    raise AssertionError("no ordering matched")


def cell_formula(easy: float, medium: float, hard: float, higher_is_better: bool,
                 ddof: int = 0) -> float:
    s = ordering_score(easy, medium, hard, higher_is_better)
    if s == 0.0:
        return 0.0
    mean = (easy + medium + hard) / 3
    sq = sum((v - mean) ** 2 for v in (easy, medium, hard))
    std = math.sqrt(sq / (3 - ddof))
    return s + 0.25 * (1 if s > 0 else -1) / (1 + math.exp(-std))


def axis_index(values: dict, axis: int, key: str) -> float:
    """Mean of the cell values whose (task, criterion, model) key holds ``key``
    at position ``axis``: their exact fsum over their count."""
    matched = [v for k, v in values.items() if k[axis] == key]
    return math.fsum(matched) / len(matched)


def exact_std(values, ddof: int = 0) -> float:
    """Standard deviation from the exact Fraction variance: its square root in
    Decimal at 60 digits, then rounded to a float (inf beyond the float range)."""
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    variance = sum((x - mean) ** 2 for x in xs) / (len(xs) - ddof)
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
    return float(root)


def rank_scores(level_values: dict[str, float], higher_is_better: bool) -> dict[str, float]:
    """Transfer ranks read off the sorted order: the best value sits at
    position 0 and gets 3 - 0; tied values average 3 - position."""
    ordered = sorted(level_values.values(), reverse=higher_is_better)
    out = {}
    for level, v in level_values.items():
        positions = [i for i, sv in enumerate(ordered) if sv == v]
        out[level] = sum(3 - i for i in positions) / len(positions)
    return out


def transfer_matrix(groups: dict) -> tuple[dict, tuple]:
    """Mean rank of each (train level, eval level) over the groups that hold all
    nine combinations, in sorted group order, and those groups. ``groups`` maps
    a group key to (higher_is_better, {(train level, eval level): value})."""
    levels = ("easy", "medium", "hard")
    complete = tuple(sorted(key for key, (_, values) in groups.items()
                            if all((tr, ev) in values for tr in levels for ev in levels)))
    sums = {(tr, ev): 0.0 for tr in levels for ev in levels}
    for key in complete:
        higher_is_better, values = groups[key]
        for ev in levels:
            ranks = rank_scores({tr: values[(tr, ev)] for tr in levels}, higher_is_better)
            for tr in levels:
                sums[(tr, ev)] += ranks[tr]
    return {k: v / max(len(complete), 1) for k, v in sums.items()}, complete


_ABBREVIATIONS = {"dr", "mr", "mrs", "ms", "etc", "eg", "ie", "vs"}
_TERMINATOR = re.compile(r"[.?!]+")
_TRAILING_TOKEN = re.compile(r"([A-Za-z]+(?:\.[A-Za-z]+)*)$")


def segment_sentences(text: str) -> list[str]:
    """The sentence segmenter as first written: it copies the rest of the
    text at every terminator run and searches for the trailing token from the
    start of the sentence, so it is quadratic in the length of the text."""
    text = text.strip()
    sentences = []
    start = 0
    for m in _TERMINATOR.finditer(text):
        rest = text[m.end():]
        stripped = rest.lstrip()
        if len(stripped) == len(rest) or not stripped:
            continue
        if not stripped[0].isupper():
            continue
        before = _TRAILING_TOKEN.search(text, start, m.start())
        if before and before.group(1).replace(".", "").lower() in _ABBREVIATIONS:
            continue
        sentences.append(text[start:m.end()])
        start = m.end() + (len(rest) - len(stripped))
    if start < len(text):
        sentences.append(text[start:])
    return sentences


class CountTableKN:
    """The packed-gram Kneser-Ney tables as first written for model v3: count
    tables of every order with (total, backoff mass) per history, derived
    from the top-order counts, and the recursion walked from the uniform floor
    up on every query. Grams are mixed-radix ints in base ``len(words)``.
    """

    def __init__(self, order: int, discount: float, words: list[str],
                 top: dict[int, int]):
        excluded = {BOS} | ({EOS} if order == 1 else set())
        self.discount = discount
        self.size = size = len(words)
        self.uniform = 1.0 / sum(1 for w in words if w not in excluded)
        tables = [top]
        for k in range(order - 1, 0, -1):
            tables.append(Counter(g % size ** k for g in tables[-1]))
        self.levels = []
        for j, table in enumerate(reversed(tables)):
            totals: dict[int, int] = {}
            for g, c in table.items():
                totals[g // size] = totals.get(g // size, 0) + c
            types = Counter(g // size for g in table)
            stats = {h: (t, discount * types[h] / t) for h, t in totals.items()}
            self.levels.append((table, stats, size ** j))

    def p(self, h: int, n: int, w: int) -> float:
        """p(w | h) for the packed history ``h`` of ``n <= order - 1`` ids."""
        p = self.uniform
        size = self.size
        for grams, stats, radix in self.levels[:n + 1]:
            hist = h % radix
            entry = stats.get(hist)
            if entry is not None:
                total, backoff = entry
                c = grams.get(hist * size + w)
                # an unseen word's discounted term is exactly 0.0: skip it
                p = (c - self.discount) / total + backoff * p if c else backoff * p
        return p


def train_counts(sentences: list[list[str]], order: int) -> tuple[list[str], list[int], list[int]]:
    """The vocabulary and the sorted packed top-order grams and counts that
    ``train_lm`` gave as first written for model v3: each sentence padded on
    its own, its windows counted as tuples of words, and each tuple packed in
    base ``len(words)`` one at a time."""
    grams: Counter = Counter()
    for s in sentences:
        padded = [BOS] * (order - 1) + s + ([EOS] if order >= 2 else [])
        grams.update(zip(*(padded[i:] for i in range(order))))
    words = sorted({w for g in grams for w in g} | {BOS, EOS, UNK})
    ids = {w: i for i, w in enumerate(words)}
    packed = {}
    for gram, c in grams.items():
        g = 0
        for w in gram:
            g = g * len(ids) + ids[w]
        packed[g] = c
    keys = sorted(packed)
    return words, keys, [packed[g] for g in keys]
