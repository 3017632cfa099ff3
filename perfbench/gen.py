"""Seeded input generator for the benchmark workloads.

Everything is derived from the seed through this file's own splitmix64, so
the inputs do not change when the package's private PRNG helper is
refactored. The same seed and scale always give byte-identical files.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from pathlib import Path

_MASK64 = (1 << 64) - 1
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

# Workload shapes. "full" is what the benchmark measures; "tiny" keeps the
# same structure at a size the smoke test can run in a few seconds.
SCALES = {
    "full": {
        "vocab": 6000, "docs": 2000, "doc_tokens": (30, 100),
        "train_docs": 300, "long_docs": (2000, 4000, 8000),
        "tasks": 30, "criteria": 6, "models": 30, "logs": 4, "log_steps": 2000,
    },
    "tiny": {
        "vocab": 300, "docs": 40, "doc_tokens": (20, 60),
        "train_docs": 30, "long_docs": (200, 400),
        "tasks": 3, "criteria": 2, "models": 3, "logs": 2, "log_steps": 50,
    },
}

ZIPF_EXPONENT = 1.05
SENTENCE_TOKENS = (4, 25)


class Rng:
    """splitmix64 stream; the seed is the whole state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


class ZipfWords:
    """Synthetic consonant-vowel words drawn with Zipf-distributed ranks.

    Words are built from CV syllables only, so none of them is one of the
    segmenter's abbreviations (dr, mr, etc, e.g., ...).
    """

    def __init__(self, rng: Rng, size: int):
        words: list[str] = []
        seen = set()
        while len(words) < size:
            w = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.randint(1, 4))
            )
            if w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        total = 0.0
        self.cdf = []
        for rank in range(1, size + 1):
            total += 1.0 / rank ** ZIPF_EXPONENT
            self.cdf.append(total)

    def draw(self, rng: Rng) -> str:
        i = bisect.bisect_left(self.cdf, rng.uniform() * self.cdf[-1])
        return self.words[min(i, len(self.words) - 1)]


def _sentence(rng: Rng, words: ZipfWords, n: int, capitalise: bool) -> str:
    toks = [words.draw(rng) for _ in range(n)]
    if n > 6 and rng.uniform() < 0.3:
        toks[rng.randint(1, n - 3)] += ","
    if capitalise:
        toks[0] = toks[0].capitalize()
    end = "." if rng.uniform() < 0.9 else rng.choice("?!")
    return " ".join(toks) + end


def _document(rng: Rng, words: ZipfWords, target: int, capitalise: bool) -> tuple[str, int]:
    """Sentences of 4-25 tokens until the document reaches ``target`` tokens.

    Returns the text and its token count: every generated word is one
    whitespace-separated token, punctuation attached.
    """
    parts = []
    count = 0
    while count < target:
        n = min(rng.randint(*SENTENCE_TOKENS), max(target - count, SENTENCE_TOKENS[0]))
        parts.append(_sentence(rng, words, n, capitalise))
        count += n
    return " ".join(parts), count


def _write_corpus(path: Path, docs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text in docs:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")


def corpus_pipeline(out: Path, seed: int, scale: str) -> dict:
    """A normal corpus: capitalised sentences of Zipf-distributed words."""
    shape = SCALES[scale]
    rng = Rng(seed)
    words = ZipfWords(rng, shape["vocab"])
    docs = []
    tokens = {}
    for i in range(shape["docs"]):
        text, n = _document(rng, words, rng.randint(*shape["doc_tokens"]), True)
        docs.append((f"d{i:05d}", text))
        tokens[f"d{i:05d}"] = n
    corpus = out / "corpus.jsonl"
    _write_corpus(corpus, docs)
    return {"corpus": corpus, "train": corpus, "tokens": tokens}


def long_sentence(out: Path, seed: int, scale: str) -> dict:
    """A small normal training corpus plus a few all-lowercase long documents.

    Lowercase text has no sentence boundary the segmenter recognises, so
    each long document is scored as one sentence.
    """
    shape = SCALES[scale]
    rng = Rng(seed)
    words = ZipfWords(rng, shape["vocab"])
    train = []
    for i in range(shape["train_docs"]):
        text, _ = _document(rng, words, rng.randint(*shape["doc_tokens"]), True)
        train.append((f"t{i:05d}", text))
    longs = []
    tokens = {}
    for i, n in enumerate(shape["long_docs"]):
        text, tokens[f"long{i:02d}"] = _document(rng, words, n, False)
        longs.append((f"long{i:02d}", text))
    paths = {"train": out / "train.jsonl", "corpus": out / "long.jsonl"}
    _write_corpus(paths["train"], train)
    _write_corpus(paths["corpus"], longs)
    return {**paths, "tokens": tokens}


def analysis_cube(out: Path, seed: int, scale: str) -> dict:
    """A complete performance cube with full and per-eval-level rows, plus
    training logs for convergence and learning curves."""
    shape = SCALES[scale]
    rng = Rng(seed)
    levels = ("easy", "medium", "hard")
    cube = out / "cube.csv"
    with open(cube, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "criterion", "model", "train_level", "eval_level",
                         "metric", "value", "higher_is_better"])
        for t in range(shape["tasks"]):
            for c in range(shape["criteria"]):
                for m in range(shape["models"]):
                    higher = rng.uniform() < 0.8
                    metric = "accuracy" if higher else "perplexity"
                    lo, hi = (0.3, 0.95) if higher else (5.0, 80.0)
                    key = [f"task{t:02d}", f"crit{c:02d}", f"model{m:02d}"]
                    for tr in levels:
                        for ev in ("full",) + levels:
                            value = lo + (hi - lo) * rng.uniform()
                            writer.writerow(key + [tr, ev, metric, f"{value:.4f}",
                                                   "true" if higher else "false"])
    logs = []
    for i in range(shape["logs"]):
        path = out / f"run{i}.csv"
        rate = 2.0 + 6.0 * rng.uniform()
        ceiling = 0.6 + 0.3 * rng.uniform()
        steps = shape["log_steps"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("step,value\n")
            for step in range(1, steps + 1):
                value = ceiling * (1 - math.exp(-rate * step / steps))
                value += 0.002 * (rng.uniform() - 0.5)
                fh.write(f"{step},{value:.6f}\n")
        logs.append(path)
    return {"cube": cube, "logs": logs,
            "cells": shape["tasks"] * shape["criteria"] * shape["models"],
            "log_steps": shape["log_steps"]}


def oracle_corpus(out: Path, seed: int) -> Path:
    """A small corpus whose surprisals the naive reference can recompute."""
    rng = Rng(seed ^ 0x5EED)
    words = ZipfWords(rng, 60)
    docs = []
    for i in range(12):
        text, _ = _document(rng, words, rng.randint(8, 30), True)
        docs.append((f"o{i:02d}", text))
    path = out / "oracle.jsonl"
    _write_corpus(path, docs)
    return path


GENERATORS = {
    "corpus-pipeline": corpus_pipeline,
    "long-sentence": long_sentence,
    "analysis-cube": analysis_cube,
}
