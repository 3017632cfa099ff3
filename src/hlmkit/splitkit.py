"""Score a corpus under a difficulty criterion and split it into tertiles.

Four criteria are supported: ``flesch`` (computed from text statistics,
higher = easier), ``uid_sl`` and ``uid_var`` (computed from surprisal
sequences, higher = harder), and ``neural`` (ingested from a score file,
direction declared per row). Splitting normalizes every criterion to
"higher = harder" internally, sorts easiest-first with doc id as the tie
break, and cuts the ordering into three near-equal blocks, giving any
remainder to easy first and then medium.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import uid
from ._files import (BOOL, NUMBER, NUMBERS, STRING, STRINGS, atomic_write, fields,
                     read_jsonl, record)
from .errors import EmptyCorpus, MissingScore, MissingSurprisal, TooSmall, ValidationError
from .surprisal import NgramModel, SurprisalSequence, sentence_surprisals, token_surprisals
from .textstat import Document, FleschConfig, flesch_score, text_stats

CRITERIA = ("flesch", "uid_sl", "uid_var", "neural")

# Whether a larger criterion value means harder text. Neural scores carry
# their own per-file flag instead.
HIGHER_IS_HARDER = {"flesch": False, "uid_sl": True, "uid_var": True}


@dataclass(frozen=True)
class DifficultyScore:
    doc_id: str
    criterion: str
    value: float
    higher_is_harder: bool

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValidationError(f"unknown criterion {self.criterion!r}")
        if not math.isfinite(self.value):
            raise ValidationError(f"non-finite score for document {self.doc_id!r}")
        expected = HIGHER_IS_HARDER.get(self.criterion)
        if expected is not None and self.higher_is_harder != expected:
            raise ValidationError(
                f"criterion {self.criterion!r} must have higher_is_harder={expected}"
            )

    @property
    def difficulty(self) -> float:
        """Direction-normalized value: higher always means harder."""
        return self.value if self.higher_is_harder else -self.value


@dataclass
class Providers:
    """External inputs score_corpus may need, depending on the criterion.

    ``lm`` computes surprisals on the fly; ``surprisals`` supplies imported
    sequences keyed by doc id (several per id are treated as sentence
    sequences). ``per_sentence`` averages UID scores over sentences instead
    of scoring the document-level concatenation. ``k`` and ``mu_lang`` are
    the constants of ``uid_sl`` and ``uid_var``.
    """

    lm: NgramModel | None = None
    surprisals: Mapping[str, Sequence[SurprisalSequence]] | None = None
    neural: Mapping[str, DifficultyScore] | None = None
    base: str = SurprisalSequence.base
    k: float = uid.DEFAULT_K
    mu_lang: float = uid.DEFAULT_MU_LANG
    flesch: FleschConfig = FleschConfig()
    per_sentence: bool = False


@dataclass(frozen=True)
class DifficultySplit:
    criterion: str
    easy: tuple[str, ...]
    medium: tuple[str, ...]
    hard: tuple[str, ...]
    boundaries: tuple[float, float]


def index_surprisals(seqs: Sequence[SurprisalSequence]) -> dict[str, list[SurprisalSequence]]:
    """Group imported sequences by document id, preserving file order."""
    out: dict[str, list[SurprisalSequence]] = {}
    for s in seqs:
        out.setdefault(s.doc_id, []).append(s)
    return out


def doc_sequences(doc: Document, providers: Providers) -> list[SurprisalSequence]:
    """``doc``'s sequences: the model's, one per sentence if ``per_sentence``, else the imported."""
    if providers.lm is not None:
        if providers.per_sentence:
            return sentence_surprisals(providers.lm, doc, providers.base)
        return [token_surprisals(providers.lm, doc, providers.base)]
    if providers.surprisals is not None:
        seqs = providers.surprisals.get(doc.id)
        if seqs:
            return list(seqs)
    raise MissingSurprisal(doc.id)


def _uid_value(doc: Document, criterion: str, providers: Providers) -> float:
    if criterion == "uid_sl":
        score = lambda s: uid.uid_superlinear(s, providers.k)
    else:
        score = lambda s: uid.uid_variance(s, providers.mu_lang)
    seqs = doc_sequences(doc, providers)
    bases = {s.base for s in seqs}
    if len(bases) > 1:
        raise ValidationError(f"mixed surprisal bases for document {doc.id!r}: {sorted(bases)}")
    if providers.per_sentence:
        return math.fsum(map(score, seqs)) / len(seqs)
    if len(seqs) == 1:
        return score(seqs[0])
    merged = SurprisalSequence(
        doc_id=doc.id,
        values=tuple(v for s in seqs for v in s.values),
        base=seqs[0].base,
    )
    return score(merged)


def score_corpus(
    corpus: Sequence[Document],
    criterion: str,
    providers: Providers | None = None,
) -> list[DifficultyScore]:
    """Score every document under one criterion. Deterministic in its inputs."""
    if criterion not in CRITERIA:
        raise ValidationError(f"unknown criterion {criterion!r}")
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    dupes = sorted(i for i, n in Counter(d.id for d in corpus).items() if n > 1)
    if dupes:
        raise ValidationError(f"duplicate document ids: {dupes}")
    providers = providers or Providers()

    scores = []
    for doc in corpus:
        if criterion == "flesch":
            value = flesch_score(text_stats(doc.text), providers.flesch)
            harder = False
        elif criterion in ("uid_sl", "uid_var"):
            try:
                value = _uid_value(doc, criterion, providers)
            except OverflowError:
                raise ValidationError(f"{criterion} score of {doc.id!r} overflows") from None
            harder = True
        else:
            if providers.neural is None or doc.id not in providers.neural:
                raise MissingScore(doc.id)
            row = providers.neural[doc.id]
            value = row.value
            harder = row.higher_is_harder
        scores.append(DifficultyScore(doc.id, criterion, value, harder))
    return scores


def tertile_split(scores: Sequence[DifficultyScore]) -> DifficultySplit:
    """Partition scored documents into easy/medium/hard thirds.

    Documents are sorted easiest-first by direction-normalized difficulty
    with doc id breaking ties, so identical inputs always produce identical
    splits. For n = 3q + r the block sizes are (q+r>=1, q+r>=2, q), i.e.
    extras go to easy, then medium. Boundaries record the raw criterion
    value of the last easy and last medium document.
    """
    if len(scores) < 3:
        raise TooSmall(f"need at least 3 scored documents, got {len(scores)}")
    criteria = {s.criterion for s in scores}
    if len(criteria) > 1:
        raise ValidationError(f"mixed criteria in one split: {sorted(criteria)}")
    flags = {s.higher_is_harder for s in scores}
    if len(flags) > 1:
        raise ValidationError("mixed higher_is_harder flags in one split")
    ids = [s.doc_id for s in scores]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate document ids in scores")

    ordered = sorted(scores, key=lambda s: (s.difficulty, s.doc_id))
    q, r = divmod(len(ordered), 3)
    n_easy = q + (1 if r >= 1 else 0)
    n_medium = q + (1 if r >= 2 else 0)
    easy = ordered[:n_easy]
    medium = ordered[n_easy:n_easy + n_medium]
    hard = ordered[n_easy + n_medium:]
    return DifficultySplit(
        criterion=next(iter(criteria)),
        easy=tuple(s.doc_id for s in easy),
        medium=tuple(s.doc_id for s in medium),
        hard=tuple(s.doc_id for s in hard),
        boundaries=(easy[-1].value, medium[-1].value),
    )


# ---------------------------------------------------------------------------
# file formats

def load_corpus_jsonl(path: str | Path) -> list[Document]:
    """Corpus JSONL: one {"id": str, "text": str} object per line."""
    docs: dict[str, Document] = {}
    for line, obj in read_jsonl(path):
        doc_id, text = fields(obj, {"id": STRING, "text": STRING}, line)
        if doc_id in docs:
            raise ValidationError(f"line {line}: duplicate document id {doc_id!r}")
        docs[doc_id] = record(line, Document, doc_id, text)
    if not docs:
        raise EmptyCorpus(f"no documents in {path}")
    return list(docs.values())


def load_neural_scores(path: str | Path) -> dict[str, DifficultyScore]:
    """Neural score JSONL: {"id": str, "score": number, "higher_is_harder": bool}."""
    out: dict[str, DifficultyScore] = {}
    for line, obj in read_jsonl(path):
        doc_id, score, harder = fields(
            obj, {"id": STRING, "score": NUMBER, "higher_is_harder": BOOL}, line)
        if doc_id in out:
            raise ValidationError(f"line {line}: duplicate id {doc_id!r}")
        out[doc_id] = record(line, DifficultyScore, doc_id, "neural", score, harder)
    return out


def scores_to_jsonl(scores: Sequence[DifficultyScore], path: str | Path) -> None:
    with atomic_write(path) as (fh,):
        for s in scores:
            fh.write(json.dumps(
                {"id": s.doc_id, "criterion": s.criterion, "value": s.value,
                 "higher_is_harder": s.higher_is_harder},
                ensure_ascii=False,
            ) + "\n")


def scores_from_jsonl(path: str | Path) -> list[DifficultyScore]:
    """Score JSONL: {"id": str, "criterion": str, "value": number,
    "higher_is_harder": bool} per line, types checked exactly."""
    spec = {"id": STRING, "criterion": STRING, "value": NUMBER, "higher_is_harder": BOOL}
    return [record(line, DifficultyScore, *fields(obj, spec, line))
            for line, obj in read_jsonl(path)]


def split_to_dict(split: DifficultySplit) -> dict:
    return {
        "criterion": split.criterion,
        "boundaries": list(split.boundaries),
        "easy": list(split.easy),
        "medium": list(split.medium),
        "hard": list(split.hard),
    }


def split_from_dict(data: dict) -> DifficultySplit:
    criterion, boundaries, easy, medium, hard = fields(data, {
        "criterion": STRING, "boundaries": NUMBERS, "easy": STRINGS, "medium": STRINGS,
        "hard": STRINGS})
    if len(boundaries) != 2:
        raise ValidationError("split must have exactly two boundaries")
    repeated = sorted(i for i, n in Counter(easy + medium + hard).items() if n > 1)
    if repeated:
        raise ValidationError(f"split lists document ids more than once: {repeated}")
    return DifficultySplit(criterion, tuple(easy), tuple(medium), tuple(hard), tuple(boundaries))
