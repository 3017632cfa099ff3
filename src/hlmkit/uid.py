"""Uniform-information-density difficulty scores over surprisal sequences.

Two operationalizations are provided, both "higher = harder":

* super-linear: mean of per-token surprisal raised to an exponent k > 1, so
  locally peaky sequences score worse than even ones with the same total.
* variance: mean squared deviation of per-token surprisal from a fixed
  language-level mean.

The language-level mean (default 3.8845) is applied in whatever log base the
surprisal values were produced with; it is the caller's job to keep the two
consistent. See the README for the base caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import EmptyDocument, ValidationError
from .surprisal import SurprisalSequence


@dataclass(frozen=True)
class UidSlConfig:
    """Exponent controlling super-linearity strength."""

    k: float = 1.25

    def __post_init__(self):
        if not self.k > 0:
            raise ValidationError(f"k must be > 0, got {self.k}")


@dataclass(frozen=True)
class UidVarConfig:
    """Language-level mean surprisal the variance is taken around."""

    mu_lang: float = 3.8845


def uid_superlinear(seq: SurprisalSequence, cfg: UidSlConfig | None = None) -> float:
    """Mean of surprisal**k over the sequence. Higher is harder."""
    cfg = cfg or UidSlConfig()
    return math.fsum(s ** cfg.k for s in seq.values) / len(seq.values)


def uid_variance(seq: SurprisalSequence, cfg: UidVarConfig | None = None) -> float:
    """Mean squared deviation from the language-level mean. Higher is harder."""
    cfg = cfg or UidVarConfig()
    return math.fsum((s - cfg.mu_lang) ** 2 for s in seq.values) / len(seq.values)


def sentence_averaged(
    score: Callable[[SurprisalSequence], float],
    seqs: Iterable[SurprisalSequence],
) -> float:
    """Average a UID score over per-sentence sequences.

    Opt-in alternative to scoring the whole-document concatenation; pass a
    closure such as ``lambda s: uid_superlinear(s, cfg)``.
    """
    values = [score(s) for s in seqs]
    if not values:
        raise EmptyDocument("no sentence sequences to average")
    return math.fsum(values) / len(values)
