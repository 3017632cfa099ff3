"""Human-likeness scoring of difficulty-stratified benchmark results.

Given test performance of a model trained on the easy, medium and hard
slices of a task, a logical score rewards orderings that match human
learning (easy-trained best) and penalizes the reverse:

    +0.75   easy >= medium >= hard
    +0.375  easy >= hard   >= medium
     0      medium-first orderings
    -0.375  hard >= easy   >= medium
    -0.75   hard >= medium >= easy

Cases are checked top to bottom and the first match wins; an exact
three-way tie scores 0 because it carries no ordering evidence. On top of
the logical score, a dispersion bonus of 0.25 * sign * sigmoid(STD) rewards
decisive performance gaps, where STD is the standard deviation of the raw
triplet (population divisor by default). Averaging these cell values along
one axis of a (task, criterion, model) cube yields the per-model, per-task
and per-criterion indices.

Values lie in the open interval (-1, 1) mathematically; the sigmoid only
reaches 1 as STD grows without bound, although float rounding can pin a
cell to exactly +/-1.0 once STD exceeds roughly 37 (e.g. for perplexity
triplets spanning hundreds of points).
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from ._files import LIST, NUMBER, OBJECT, STRING, csv_rows, fields
from .errors import IncompleteDataWarning, ParseError, ValidationError

LEVELS = ("easy", "medium", "hard")
_EVAL_LEVELS = LEVELS + ("full",)
# the (train_level, eval_level) of each value of an eval group, slot 3 * train + eval
EVAL_PAIRS = tuple(itertools.product(LEVELS, LEVELS))
# a loading group's slot of each (train_level, eval_level): the full rows, then EVAL_PAIRS
_SLOTS = {pair: i for i, pair in enumerate([(tr, "full") for tr in LEVELS] + list(EVAL_PAIRS))}
_UNFILLED = array("d", [math.nan]) * len(_SLOTS)  # NaN: no row, as values must be finite
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

CUBE_COLUMNS = (
    "task", "criterion", "model", "train_level", "eval_level",
    "metric", "value", "higher_is_better",
)


@dataclass(frozen=True)
class PerformanceTriplet:
    """Metric values for easy/medium/hard-trained runs of one cell."""

    easy: float
    medium: float
    hard: float
    higher_is_better: bool = True

    def __post_init__(self):
        for v in (self.easy, self.medium, self.hard):
            if not math.isfinite(v):
                raise ValidationError(f"triplet values must be finite, got {v!r}")


def logical_score(t: PerformanceTriplet) -> float:
    """Ordering score in {0.75, 0.375, 0, -0.375, -0.75}.

    Direction is normalized first, so a perplexity triplet whose hard value
    is lowest scores the same as an accuracy triplet whose hard value is
    highest. Only rankings matter; the function is invariant under any
    strictly increasing transform of all three values.
    """
    e, m, h = t.easy, t.medium, t.hard
    if not t.higher_is_better:
        e, m, h = -e, -m, -h
    if e == m == h:
        return 0.0
    cases = (
        (0.75, e, m, h),
        (0.375, e, h, m),
        (0.0, m, h, e),
        (0.0, m, e, h),
        (-0.375, h, e, m),
        (-0.75, h, m, e),
    )
    for score, a, b, c in cases:
        if a >= b >= c:
            return score
    raise AssertionError("unreachable: some ordering always holds")


def _check_ddof(ddof: int) -> None:
    if ddof not in (0, 1):
        raise ValidationError(f"std_ddof must be 0 or 1, got {ddof}")


def triplet_std(t: PerformanceTriplet, ddof: int = 0) -> float:
    """Standard deviation of the raw triplet values (population by default): the
    correctly rounded root of the exact variance, the same bits on every Python."""
    _check_ddof(ddof)
    (x, dx), (y, dy), (z, dz) = (v.as_integer_ratio() for v in (t.easy, t.medium, t.hard))
    d = max(dx, dy, dz)  # powers of two, so every value is exactly (integer / d)
    x, y, z = x * (d // dx), y * (d // dy), z * (d // dz)
    # variance n / m, with n = 3(x²+y²+z²) - (x+y+z)² written as pairwise squares
    n, m = (x - y) ** 2 + (y - z) ** 2 + (x - z) ** 2, (9 if ddof == 0 else 6) * d * d
    # a 55+ bit root rounded to odd, then one rounding to float, is correctly
    # rounded (Boldo & Melquiond 2008; the method of Python 3.11's statistics)
    shift = (n.bit_length() - m.bit_length() - 109) // 2
    n, m = (n, m << 2 * shift) if shift >= 0 else (n << -2 * shift, m)
    root = math.isqrt(n // m)
    root |= root * root * m != n
    try:
        return float(root << shift) if shift >= 0 else root / (1 << -shift)
    except OverflowError:
        raise ValidationError(f"the sample STD of {t} exceeds the float range") from None


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _cell_terms(t: PerformanceTriplet, ddof: int) -> tuple[float, float, float, float]:
    """(s, STD, sigmoid(STD), cell value) of one triplet: the cell formula."""
    s = logical_score(t)
    std = triplet_std(t, ddof)
    sig = sigmoid(std)
    return s, std, sig, 0.0 if s == 0.0 else s + 0.25 * math.copysign(1.0, s) * sig


class PerformanceCube:
    """Benchmark metric values indexed by (task, criterion, model).

    Each index key owns one triplet of full-test-set performances (one per
    train level). Rows evaluated on individual difficulty slices of the test
    set (eval level easy/medium/hard) are kept separately for transfer
    analysis (see :mod:`hlmkit.experiment`): ``eval_groups`` maps each
    (task, criterion, model) with at least one such row to (higher_is_better,
    ``array("d")`` of its nine values in :data:`EVAL_PAIRS` order, NaN where
    the group has no row).
    """

    def __init__(self, cells: Mapping[tuple[str, str, str], PerformanceTriplet],
                 eval_groups: Mapping[tuple, tuple[bool, array]] | None = None):
        self.cells = dict(cells)
        self.eval_groups = dict(eval_groups or {})


def warn_skipped(message: str, keys: Iterable) -> None:
    """One IncompleteDataWarning: ``message``, then the first 10 of ``keys``
    (given in sorted order), so its size does not grow with the cube."""
    shown = list(itertools.islice(keys, 10))
    warnings.warn(f"{message}, the first {len(shown)} in sorted order: {shown}",
                  IncompleteDataWarning, stacklevel=3)


@dataclass(frozen=True)
class CellBreakdown:
    task: str
    criterion: str
    model: str
    s: float
    std: float
    sigmoid: float
    value: float


@dataclass(frozen=True)
class HlmReport:
    """Per-axis index values plus the per-cell breakdown they average."""

    i_model: dict[str, float]
    i_task: dict[str, float]
    i_criteria: dict[str, float]
    cells: tuple[CellBreakdown, ...]
    std_ddof: int


def _axis_means(cells: Iterable[tuple[str, str, str, float]]):
    """The i_task, i_criteria and i_model dicts of (task, criterion, model,
    value) cells: each name maps to the fsum of its values over their count,
    in sorted name order."""
    groups: tuple[dict[str, list[float]], ...] = ({}, {}, {})  # task, criterion, model
    for *key, value in cells:
        for axis_groups, k in zip(groups, key):
            axis_groups.setdefault(k, []).append(value)
    return tuple({k: math.fsum(v) / len(v) for k, v in sorted(g.items())} for g in groups)


def compute_report(cube: PerformanceCube, std_ddof: int = 0) -> HlmReport:
    """Compute all three index families over a cube in one pass.

    Cells absent from the full task x criterion x model cross product are
    skipped with a warning that gives their count and the first few of them,
    and the per-key divisor shrinks accordingly; a cube with no cell at all
    is a ValidationError.
    """
    _check_ddof(std_ddof)
    if not cube.cells:
        raise ValidationError("no complete (easy, medium, hard) triplet of full rows in cube")
    breakdown = []
    for key, t in sorted(cube.cells.items()):
        try:
            s, std, sig, value = _cell_terms(t, std_ddof)
        except ValidationError as e:
            raise ValidationError(f"cell {key}: {e}") from None
        breakdown.append(CellBreakdown(*key, s=s, std=std, sigmoid=sig, value=value))
    i_task, i_criteria, i_model = _axis_means(
        (c.task, c.criterion, c.model, c.value) for c in breakdown)
    n_missing = len(i_task) * len(i_criteria) * len(i_model) - len(cube.cells)
    if n_missing:
        warn_skipped(f"cube is sparse; skipping {n_missing} missing cells",
                     (k for k in itertools.product(i_task, i_criteria, i_model)
                      if k not in cube.cells))
    return HlmReport(
        i_model=i_model,
        i_task=i_task,
        i_criteria=i_criteria,
        cells=tuple(breakdown),
        std_ddof=std_ddof,
    )


def report_to_dict(report: HlmReport) -> dict:
    return {
        "i_model": dict(sorted(report.i_model.items())),
        "i_task": dict(sorted(report.i_task.items())),
        "i_criteria": dict(sorted(report.i_criteria.items())),
        "std_ddof": report.std_ddof,
        "cells": [
            {"task": c.task, "criterion": c.criterion, "model": c.model,
             "s": c.s, "std": c.std, "sigmoid": c.sigmoid, "value": c.value}
            for c in report.cells
        ],
    }


def report_values(data: dict):
    """The i_model, i_task and i_criteria dicts of a report dict, then a list of
    each cell's task, criterion, model and value; no other key is read."""
    *axes, cells = fields(data, {"i_model": OBJECT, "i_task": OBJECT, "i_criteria": OBJECT,
                                 "cells": LIST})
    spec = {"task": STRING, "criterion": STRING, "model": STRING, "value": NUMBER}
    i_model, i_task, i_criteria = (dict(zip(a, fields(a, dict.fromkeys(a, NUMBER)))) for a in axes)
    cells = [fields(c, spec) for c in cells]
    if not cells:  # compute_report refuses a cube that would give one
        raise ValidationError("report has no cells")
    if len({(t, c, m) for t, c, m, _ in cells}) < len(cells):
        raise ValidationError("a cell key repeats")
    # exact ==: fsum makes each mean independent of the order of the cells
    if [i_task, i_criteria, i_model] != list(_axis_means(cells)):
        raise ValidationError("i_task, i_criteria or i_model is not the mean of its cells' values")
    return i_model, i_task, i_criteria, cells


# ---------------------------------------------------------------------------
# CSV cube format

def load_cube_csv(path: str | Path) -> PerformanceCube:
    """Load a performance cube from CSV.

    Required header: task,criterion,model,train_level,eval_level,metric,
    value,higher_is_better. Rows with eval_level "full" form the per-key
    triplets used by the indices; rows with eval_level easy/medium/hard are
    kept for transfer analysis. The metric and its direction must be the same
    on every row of a (task, criterion, model) group. Rows are checked in file
    order and the first faulty row raises.
    """
    # (task, criterion, model) -> (higher_is_better, its _SLOTS values, metric)
    groups: dict[tuple, tuple[bool, array, str]] = {}
    names: dict[str, str] = {}  # one string object per task, criterion, model and metric name
    for lineno, row in csv_rows(path, CUBE_COLUMNS):
        task, criterion, model, train_level, eval_level, metric, value, hib = row
        if train_level not in LEVELS:
            raise ParseError(f"invalid train_level {train_level!r}", line=lineno)
        if eval_level not in _EVAL_LEVELS:
            raise ParseError(f"invalid eval_level {eval_level!r}", line=lineno)
        try:
            val = float(value)
        except ValueError:
            raise ParseError(f"invalid value {value!r}", line=lineno) from None
        if not math.isfinite(val):
            raise ParseError(f"non-finite value {value!r}", line=lineno)
        direction = _BOOLS.get(hib.lower())
        if direction is None:
            raise ParseError(f"invalid boolean {hib!r}", line=lineno)

        slot = _SLOTS[train_level, eval_level]
        key = (task, criterion, model)
        group = groups.get(key)
        if group is None:
            key = tuple(names.setdefault(name, name) for name in key)
            group = groups[key] = (direction, _UNFILLED[:], names.setdefault(metric, metric))
        elif group[0] != direction:
            raise ValidationError(
                f"line {lineno}: inconsistent higher_is_better within group {key}"
            )
        elif group[2] != metric:
            raise ValidationError(f"line {lineno}: inconsistent metric within group {key}")
        values = group[1]
        if not math.isnan(values[slot]):
            shown = f"{key} train={train_level}" if slot < 3 else key + (train_level, eval_level)
            raise ValidationError(f"line {lineno}: duplicate row for {shown}")
        values[slot] = val

    cells, eval_groups, incomplete = {}, {}, []
    for key in sorted(groups):  # each loading array is freed once it is split
        direction, values, _ = groups.pop(key)
        full, runs = values[:3], values[3:]
        if not any(map(math.isnan, full)):
            cells[key] = PerformanceTriplet(*full, direction)
        elif not all(map(math.isnan, full)):
            incomplete.append(key)
        if not all(map(math.isnan, runs)):
            eval_groups[key] = (direction, runs)
    if incomplete:
        warn_skipped(f"skipping {len(incomplete)} incomplete triplet groups", incomplete)
    return PerformanceCube(cells, eval_groups)
