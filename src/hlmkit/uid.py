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

from .errors import ValidationError

DEFAULT_K = 1.25
DEFAULT_MU_LANG = 3.8845


def uid_superlinear(seq: SurprisalSequence, k: float = DEFAULT_K) -> float:
    """Mean of surprisal**k over the sequence, for a finite exponent k > 0. Higher is harder."""
    if not 0 < k < math.inf:
        raise ValidationError(f"k must be {'finite' if k > 0 else '> 0'}, got {k}")
    return math.fsum(s ** k for s in seq.values) / len(seq.values)


def uid_variance(seq: SurprisalSequence, mu_lang: float = DEFAULT_MU_LANG) -> float:
    """Mean squared deviation from the language-level mean. Higher is harder."""
    if not math.isfinite(mu_lang):
        raise ValidationError(f"mu_lang must be finite, got {mu_lang}")
    return math.fsum((s - mu_lang) ** 2 for s in seq.values) / len(seq.values)
