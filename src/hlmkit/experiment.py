"""Curriculum schedules, convergence measurement and difficulty transfer.

Schedules order a split corpus for training: easy-to-hard mimics human
learning, hard-to-easy reverses the phase order, and random applies a seeded
Fisher-Yates shuffle driven by splitmix64 so the same seed reproduces the
same permutation on any platform.

The convergence ratio of a training log is the first step whose dev metric
comes within a relative tolerance of the log's best value, divided by the
last step. Lower means faster convergence.

Transfer scoring ranks the three train levels (3 = best, ties share the
average rank) within every evaluation level of every complete run group and
averages the ranks into a 3x3 matrix whose columns each sum to 6 on
complete data.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path

from ._files import csv_rows
from .errors import ParseError, Record, ValidationError

ORDERS = ("easy_to_hard", "hard_to_easy", "random")
DEFAULT_EPSILON_REL = 0.001

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def seeded_shuffle(items: Sequence, seed: int) -> list:
    """Fisher-Yates shuffle with splitmix64 as the randomness source.

    The seed is the entire PRNG state, so results are reproducible
    bit-exactly across platforms and Python versions.
    """
    out = list(items)
    state = seed & _MASK64
    for i in range(len(out) - 1, 0, -1):
        state, z = _splitmix64(state)
        j = z % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class Schedule(Record):
    """A training order over a split corpus with its two phase boundaries."""

    order: str
    seed: int | None
    sequence: tuple[str, ...]
    phase_boundaries: tuple[int, int]


def make_schedule(split: DifficultySplit, order: str, seed: int | None = None) -> Schedule:
    """Build a training schedule from a difficulty split.

    easy_to_hard concatenates easy, medium, hard with within-phase order
    preserved; hard_to_easy reverses the phase order only. random shuffles
    the whole corpus with the given seed; its phase boundaries mark the same
    block sizes but carry no difficulty meaning.
    """
    if order not in ORDERS:
        raise ValidationError(f"order must be one of {ORDERS}, got {order!r}")
    easy, medium, hard = list(split.easy), list(split.medium), list(split.hard)
    if order == "easy_to_hard":
        seq = easy + medium + hard
        bounds = (len(easy), len(easy) + len(medium))
        seed = None
    elif order == "hard_to_easy":
        seq = hard + medium + easy
        bounds = (len(hard), len(hard) + len(medium))
        seed = None
    else:
        if seed is None:
            raise ValidationError("random schedules require a seed")
        seq = seeded_shuffle(easy + medium + hard, seed)
        bounds = (len(easy), len(easy) + len(medium))
    return Schedule(order=order, seed=seed, sequence=tuple(seq), phase_boundaries=bounds)


def schedule_to_dict(s: Schedule) -> dict:
    return {
        "order": s.order,
        "seed": s.seed,
        "sequence": list(s.sequence),
        "phase_boundaries": list(s.phase_boundaries),
    }


class TrainingLog(Record):
    """Dev-set metric measurements over strictly increasing step numbers."""

    steps: tuple[tuple[int, float], ...]
    higher_is_better: bool = True

    def __post_init__(self):
        if len(self.steps) < 2:
            raise ValidationError("training log needs at least 2 entries")
        prev = 0
        for step, value in self.steps:
            if step <= prev:
                raise ValidationError(f"steps must be strictly increasing and >= 1, got {step}")
            if not math.isfinite(value):
                raise ValidationError(f"non-finite metric at step {step}")
            prev = step


def _best_metric(log: TrainingLog) -> float:
    return (max if log.higher_is_better else min)(v for _, v in log.steps)


def convergent_step(log: TrainingLog, epsilon_rel: float = DEFAULT_EPSILON_REL) -> int:
    """First step whose metric lies within ``epsilon_rel * |best|`` of the
    best metric in the log, direction-aware."""
    if not 0 < epsilon_rel < 1:
        raise ValidationError(f"epsilon_rel must be in (0, 1), got {epsilon_rel}")
    best = _best_metric(log)
    slack = epsilon_rel * abs(best)
    for step, value in log.steps:
        if (value >= best - slack) if log.higher_is_better else (value <= best + slack):
            return step
    raise AssertionError("unreachable: the best entry always qualifies")


def load_training_log(path: str | Path, higher_is_better: bool) -> TrainingLog:
    """Training log CSV with header ``step,value``."""
    entries = []
    for line, (step, value) in csv_rows(path, ("step", "value")):
        try:
            entries.append((int(step), float(value)))
            float(entries[-1][0])  # a step beyond the float range cannot be plotted
        except (ValueError, OverflowError):
            raise ParseError(f"invalid row {step},{value}", line=line) from None
    return TrainingLog(steps=tuple(entries), higher_is_better=higher_is_better)


class TransferMatrix(Record):
    """Average 3/2/1 rank of each train level on each evaluation level."""

    values: dict[tuple[str, str], float]  # (train_level, eval_level) -> mean rank
    groups: tuple[tuple[str, str, str], ...]  # contributing (task, criterion, model)


def _rank_scores(a: float, b: float, c: float, higher_is_better: bool) -> tuple[float, ...]:
    """1 + (values strictly worse) + half the others tied with it, for each value:
    the best gets 3, and tied values share the average of their ranks."""
    if not higher_is_better:
        a, b, c = -a, -b, -c
    return (1 + 0.5 * ((b < a) + (b <= a) + (c < a) + (c <= a)),  # worse u counts 2, tied 1
            1 + 0.5 * ((a < b) + (a <= b) + (c < b) + (c <= b)),
            1 + 0.5 * ((a < c) + (a <= c) + (b < c) + (b <= c)))


def transfer_scores(cube: PerformanceCube) -> TransferMatrix:
    """Average train-level ranks per eval level over all complete run groups.

    A group is one (task, criterion, model) with metric values for all nine
    train x eval level combinations; incomplete groups are skipped with a
    warning. Columns of the result sum to 6 exactly (up to float error).
    """
    from .hlm import EVAL_PAIRS, warn_skipped
    groups = cube.eval_groups
    complete = []
    skipped = []
    for key in sorted(groups):
        if any(map(math.isnan, groups[key][1])):
            skipped.append(key)
        else:
            complete.append(key)
    if skipped:
        warn_skipped(f"skipping {len(skipped)} incomplete transfer groups", skipped)
    if not complete:
        raise ValidationError("no complete (train x eval) groups in cube")

    sums = [0.0] * len(EVAL_PAIRS)
    for key in complete:
        direction, values = groups[key]
        for ev in range(3):  # the column of eval level ev: slots ev, ev + 3 and ev + 6
            for slot, rank in zip(range(ev, 9, 3), _rank_scores(*values[ev::3], direction)):
                sums[slot] += rank
    n = len(complete)
    return TransferMatrix(
        values={pair: s / n for pair, s in zip(EVAL_PAIRS, sums)},
        groups=tuple(complete),
    )


def transfer_to_dict(matrix: TransferMatrix) -> dict:
    from .hlm import LEVELS
    return {
        "train_levels": list(LEVELS),
        "eval_levels": list(LEVELS),
        "matrix": {tr: {ev: matrix.values[(tr, ev)] for ev in LEVELS} for tr in LEVELS},
        "group_count": len(matrix.groups),
        "groups": [list(g) for g in matrix.groups],
    }


def converge_result_to_dict(log: TrainingLog, epsilon_rel: float = DEFAULT_EPSILON_REL) -> dict:
    step = convergent_step(log, epsilon_rel)
    return {
        "ratio": step / log.steps[-1][0],
        "convergent_step": step,
        "total_steps": log.steps[-1][0],
        "epsilon_rel": epsilon_rel,
        "higher_is_better": log.higher_is_better,
        "best_metric": _best_metric(log),
    }
