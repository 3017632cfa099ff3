import itertools
import math
import random
import struct
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from hlmkit.data import reference_performance_path
from hlmkit.errors import IncompleteDataWarning, ParseError, ValidationError
from hlmkit.hlm import (
    EVAL_PAIRS,
    PerformanceCube,
    PerformanceTriplet,
    compute_report,
    load_cube_csv,
    logical_score,
    report_to_dict,
    triplet_std,
)
from oracles import axis_index, cell_formula, exact_std, ordering_score

# frozen from the population-std oracle: 0.75 + 0.25 * sigmoid(sqrt(0.02 / 3))
DESCENDING_CELL = 0.8801002704619898
KEY = ("t", "c", "m")  # the key of a one-cell cube


@pytest.fixture(scope="module")
def reference_cube():
    return load_cube_csv(reference_performance_path())


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# Finite floats of every kind: any float (hypothesis favours the edges), raw
# bit patterns, subnormals, values near +/-1e300, and rounded decimals.
_STD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_float_of_bits).filter(math.isfinite),
    st.integers(-2**52, 2**52).map(lambda k: k * 5e-324),
    st.floats(-1.0, 1.0).map(lambda f: f * 1e300),
    st.floats(0, 100).map(lambda f: round(f, 4)),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1.7e308, -1.7976931348623157e308]),
)


class TestLogicalScore:
    def test_reference_spot_anchors(self, reference_cube):
        assert logical_score(reference_cube.cells[("SST2", "flesch", "BERT")]) == 0.0
        assert logical_score(reference_cube.cells[("ROC", "uid_sl", "LSTM")]) == 0.375
        assert logical_score(reference_cube.cells[("WT2", "flesch", "BERT")]) == -0.75

    @pytest.mark.parametrize("triplet,expected", [
        ((3.0, 2.0, 1.0), 0.75),
        ((3.0, 1.0, 2.0), 0.375),
        ((1.0, 3.0, 2.0), 0.0),
        ((2.0, 3.0, 1.0), 0.0),
        ((2.0, 1.0, 3.0), -0.375),
        ((1.0, 2.0, 3.0), -0.75),
    ])
    def test_all_six_orderings(self, triplet, expected):
        assert logical_score(PerformanceTriplet(*triplet)) == expected

    def test_three_way_tie_scores_zero(self):
        assert logical_score(PerformanceTriplet(5.0, 5.0, 5.0)) == 0.0

    @pytest.mark.parametrize("triplet,expected", [
        ((2.0, 2.0, 1.0), 0.75),    # e == m > h: first listed case wins
        ((2.0, 1.0, 2.0), 0.375),   # e == h > m
        ((1.0, 2.0, 2.0), 0.0),     # m == h > e
        ((2.0, 2.0, 3.0), -0.375),  # h > e == m
    ])
    def test_partial_ties_first_match(self, triplet, expected):
        assert logical_score(PerformanceTriplet(*triplet)) == expected

    def test_direction_flip_preserves_score(self):
        rng = random.Random(13)
        for _ in range(300):
            vals = [rng.uniform(-10, 10) for _ in range(3)]
            up = PerformanceTriplet(*vals, higher_is_better=True)
            down = PerformanceTriplet(*[-v for v in vals], higher_is_better=False)
            assert logical_score(up) == logical_score(down)

    def test_invariant_under_increasing_transforms(self):
        rng = random.Random(17)
        transforms = [math.exp, lambda x: 3 * x + 7, lambda x: x ** 3, math.atan]
        for _ in range(200):
            vals = [rng.uniform(-3, 3) for _ in range(3)]
            base = logical_score(PerformanceTriplet(*vals))
            for f in transforms:
                assert logical_score(PerformanceTriplet(*[f(v) for v in vals])) == base

    def test_matches_literal_transcription(self):
        rng = random.Random(19)
        for _ in range(500):
            vals = [rng.choice([rng.uniform(0, 1), round(rng.uniform(0, 1), 1)]) for _ in range(3)]
            hib = rng.random() < 0.5
            got = logical_score(PerformanceTriplet(*vals, higher_is_better=hib))
            assert got == ordering_score(*vals, higher_is_better=hib)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            PerformanceTriplet(1.0, float("nan"), 2.0)


class TestCellValue:
    def test_descending_accuracy_triplet(self):
        report = compute_report(PerformanceCube({KEY: PerformanceTriplet(0.9, 0.8, 0.7)}))
        assert report.cells[0].value == pytest.approx(DESCENDING_CELL, abs=1e-12)

    def test_tie_is_exactly_zero(self):
        tie = PerformanceCube({KEY: PerformanceTriplet(3.3, 3.3, 3.3)})
        assert compute_report(tie).cells[0].value == 0.0

    def test_perplexity_cell_saturates_near_one(self, reference_cube):
        got = next(c.value for c in compute_report(reference_cube).cells
                   if (c.task, c.criterion, c.model) == ("WT2", "uid_sl", "BERT"))
        assert got == pytest.approx(1.0, abs=1e-3)
        assert logical_score(reference_cube.cells[("WT2", "uid_sl", "BERT")]) == 0.75

    def test_sign_matches_logical_score(self):
        rng = random.Random(23)
        for _ in range(500):
            t = PerformanceTriplet(*[rng.uniform(0, 100) for _ in range(3)],
                                   higher_is_better=rng.random() < 0.5)
            s, c = logical_score(t), compute_report(PerformanceCube({KEY: t})).cells[0].value
            assert math.copysign(1, c) == math.copysign(1, s) or (s == 0 and c == 0)
            assert abs(c) <= abs(s) + 0.25

    def test_matches_direct_formula(self):
        rng = random.Random(29)
        for _ in range(300):
            vals = [rng.uniform(0, 10) for _ in range(3)]
            hib = rng.random() < 0.5
            for ddof in (0, 1):
                cube = PerformanceCube({KEY: PerformanceTriplet(*vals, higher_is_better=hib)})
                got = compute_report(cube, ddof).cells[0].value
                assert got == pytest.approx(cell_formula(*vals, hib, ddof=ddof), abs=1e-12)

    def test_std_uses_raw_values_not_normalized(self):
        # direction affects ranking only; dispersion comes from the raw metric
        up = PerformanceTriplet(10.0, 20.0, 90.0, higher_is_better=True)
        down = PerformanceTriplet(10.0, 20.0, 90.0, higher_is_better=False)
        assert triplet_std(up) == triplet_std(down)

    def test_sample_std_option(self):
        t = PerformanceTriplet(0.9, 0.8, 0.7)
        assert triplet_std(t, ddof=1) == pytest.approx(0.1)
        population, sample = (compute_report(PerformanceCube({KEY: t}), ddof).cells[0].value
                              for ddof in (0, 1))
        assert sample > population

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(_STD_VALUES, min_size=3, max_size=3),
           ties=st.sampled_from([(0, 1, 2), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)]),
           ddof=st.sampled_from([0, 1]))
    @example(values=[1.7e308, -1.7e308, 0.0], ties=(0, 0, 1), ddof=1)
    @example(values=[5e-324, 0.0, 1e300], ties=(0, 1, 1), ddof=0)
    def test_std_is_the_correctly_rounded_exact_root(self, values, ties, ddof):
        triplet = [values[i] for i in ties]
        expected = exact_std(triplet, ddof)
        if math.isinf(expected):  # only a sample STD can pass the float range
            assert ddof == 1
            with pytest.raises(ValidationError, match="exceeds the float range"):
                triplet_std(PerformanceTriplet(*triplet), ddof)
        else:
            assert triplet_std(PerformanceTriplet(*triplet), ddof).hex() == expected.hex()

    def test_sample_std_beyond_the_float_range_is_a_validation_error(self):
        t = PerformanceTriplet(1.7e308, 1.7e308, -1.7e308)
        assert triplet_std(t) == exact_std([1.7e308, 1.7e308, -1.7e308])
        with pytest.raises(ValidationError, match="exceeds the float range"):
            triplet_std(t, ddof=1)


class TestIndex:
    def test_single_cell_cube(self):
        report = compute_report(
            PerformanceCube({("t1", "flesch", "m1"): PerformanceTriplet(0.9, 0.8, 0.7)}))
        for got in (report.i_task["t1"], report.i_criteria["flesch"], report.i_model["m1"]):
            assert got == pytest.approx(DESCENDING_CELL, abs=1e-12)

    def test_opposite_cells_cancel(self):
        cube = PerformanceCube({
            ("t1", "c1", "m1"): PerformanceTriplet(0.9, 0.8, 0.7),
            ("t2", "c1", "m1"): PerformanceTriplet(0.7, 0.8, 0.9),
        })
        assert compute_report(cube).i_model["m1"] == pytest.approx(0.0, abs=1e-15)

    def test_wt2_task_index_restricted_to_uid_sl(self, reference_cube):
        cells = {("WT2", "uid_sl", m): reference_cube.cells[("WT2", "uid_sl", m)]
                 for m in ("BERT", "LSTM")}
        assert compute_report(PerformanceCube(cells)).i_task["WT2"] == pytest.approx(1.0, abs=1e-3)


class TestComputeReport:
    def test_reference_report_shape(self, reference_cube):
        report = compute_report(reference_cube)
        assert len(report.cells) == 72
        assert set(report.i_model) == {"BERT", "LSTM"}
        assert set(report.i_criteria) == {"flesch", "uid_sl", "uid_var", "neural"}
        assert len(report.i_task) == 9
        for cell in report.cells:
            assert abs(cell.s) in (0.0, 0.375, 0.75)
            assert cell.value == pytest.approx(
                cell.s + (0.25 * math.copysign(1, cell.s) * cell.sigmoid if cell.s else 0.0)
            )

    def test_reference_ordering_claims(self, reference_cube):
        # WT2 behaves human-like under every surprisal/neural criterion for
        # both models, and anti-human-like under flesch
        for criterion in ("uid_sl", "uid_var", "neural"):
            for model in ("BERT", "LSTM"):
                assert logical_score(reference_cube.cells[("WT2", criterion, model)]) == 0.75
        for model in ("BERT", "LSTM"):
            assert logical_score(reference_cube.cells[("WT2", "flesch", model)]) == -0.75

    def test_sparse_cube_warns_and_averages_present_cells(self):
        triplet = PerformanceTriplet(0.9, 0.8, 0.7)
        cube = PerformanceCube({("t1", "c1", "m1"): triplet, ("t2", "c1", "m1"): triplet,
                                ("t1", "c1", "m2"): triplet})
        with pytest.warns(IncompleteDataWarning, match="t2.*m2"):
            report = compute_report(cube)
        assert report.i_model["m2"] == pytest.approx(DESCENDING_CELL, abs=1e-12)

    def test_sparse_diagonal_cube_warning_is_bounded(self):
        # cell i = (t_i, c_i, m_i): 60 present cells of a 60^3 cross product
        cube = PerformanceCube({
            (f"t{i:02d}", f"c{i:02d}", f"m{i:02d}"): PerformanceTriplet(0.9, 0.8, 0.7)
            for i in range(60)
        })
        with pytest.warns(IncompleteDataWarning) as record:
            report = compute_report(cube)
        message = str(record[0].message)
        assert "215940 missing cells" in message
        assert len(message) < 2000
        assert "('t00', 'c00', 'm01')" in message
        assert len(report.i_task) == len(report.i_model) == len(report.i_criteria) == 60

    def test_report_dict_is_json_shaped(self, reference_cube):
        data = report_to_dict(compute_report(reference_cube))
        assert data["std_ddof"] == 0
        assert len(data["cells"]) == 72
        assert set(data) == {"i_model", "i_task", "i_criteria", "std_ddof", "cells"}

    @pytest.mark.parametrize("ddof", [2, -3])
    def test_ddof_other_than_0_or_1_rejected(self, reference_cube, ddof):
        with pytest.raises(ValidationError, match=f"^std_ddof must be 0 or 1, got {ddof}$"):
            compute_report(reference_cube, std_ddof=ddof)
        with pytest.raises(ValidationError, match=f"^std_ddof must be 0 or 1, got {ddof}$"):
            triplet_std(PerformanceTriplet(0.9, 0.8, 0.7), ddof=ddof)


# Few distinct keys and values, so generated cubes have missing cells and
# tied triplets.
_KEYS = st.tuples(st.sampled_from("abc"), st.sampled_from("xy"), st.sampled_from("pqr"))
_VALUES = st.one_of(st.sampled_from([0.5, 0.7, 0.9, 40.0]),
                    st.floats(-1e3, 1e3, allow_nan=False))
_CELLS = st.lists(
    st.tuples(_KEYS, st.tuples(_VALUES, _VALUES, _VALUES, st.booleans())),
    min_size=1, max_size=18, unique_by=lambda cell: cell[0],
)


class TestReportMatchesIndex:
    """The one-pass report agrees with the cell_formula and axis_index oracles, and a
    cell's value does not depend on the rest of the cube."""

    @settings(max_examples=150, deadline=None)
    @given(cells=_CELLS, ddof=st.sampled_from([0, 1]))
    def test_every_index_and_cell_value(self, cells, ddof):
        # insertion order is the generated order, not the sorted one
        cube = PerformanceCube({key: PerformanceTriplet(*t) for key, t in cells})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = compute_report(cube, ddof)
        values = {(c.task, c.criterion, c.model): c.value for c in report.cells}
        for key, t in cube.cells.items():
            assert values[key] == compute_report(PerformanceCube({key: t}), ddof).cells[0].value
            assert values[key] == pytest.approx(cell_formula(
                t.easy, t.medium, t.hard, t.higher_is_better, ddof=ddof), abs=1e-12)
        for pos, got in enumerate((report.i_task, report.i_criteria, report.i_model)):
            assert list(got) == sorted({key[pos] for key, _ in cells})
            for key, value in got.items():
                assert value == axis_index(values, pos, key)
        assert [(c.task, c.criterion, c.model) for c in report.cells] == sorted(cube.cells)

        missing = sorted(
            set(itertools.product(report.i_task, report.i_criteria, report.i_model))
            - cube.cells.keys()
        )
        messages = [str(w.message) for w in caught if w.category is IncompleteDataWarning]
        if missing:
            assert len(messages) == 1
            assert f"skipping {len(missing)} missing cells" in messages[0]
            assert messages[0].endswith(str(missing[:10]))
        else:
            assert messages == []


class TestCubeCsv:
    HEADER = "task,criterion,model,train_level,eval_level,metric,value,higher_is_better\n"

    def write(self, tmp_path, body):
        path = tmp_path / "cube.csv"
        path.write_text(self.HEADER + body)
        return path

    def test_minimal_cube(self, tmp_path):
        path = self.write(
            tmp_path,
            "t1,c1,m1,easy,full,accuracy,0.9,true\n"
            "t1,c1,m1,medium,full,accuracy,0.8,true\n"
            "t1,c1,m1,hard,full,accuracy,0.7,true\n",
        )
        cube = load_cube_csv(path)
        assert cube.cells[("t1", "c1", "m1")] == PerformanceTriplet(0.9, 0.8, 0.7, True)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cube.csv"
        path.write_text("task,model\n")
        with pytest.raises(ParseError, match="header"):
            load_cube_csv(path)

    def test_bad_level(self, tmp_path):
        path = self.write(tmp_path, "t1,c1,m1,extreme,full,accuracy,0.9,true\n")
        with pytest.raises(ParseError, match="line 2: invalid train_level 'extreme'"):
            load_cube_csv(path)

    def test_bad_eval_level(self, tmp_path):
        path = self.write(tmp_path, "t1,c1,m1,easy,overall,accuracy,0.9,true\n")
        with pytest.raises(ParseError, match="line 2: invalid eval_level 'overall'"):
            load_cube_csv(path)

    def test_bad_train_level_is_named_before_a_bad_eval_level(self, tmp_path):
        path = self.write(tmp_path, "t1,c1,m1,extreme,overall,accuracy,0.9,true\n")
        with pytest.raises(ParseError, match="line 2: invalid train_level 'extreme'"):
            load_cube_csv(path)

    def test_each_group_is_one_array_and_each_name_one_string(self, tmp_path):
        """Each group keeps one float array and every name is one string
        object, so the loaded cube holds 52-57 traced bytes per CSV row on
        Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0. It held 83-90 while each
        group kept a dict of its full rows and a dict of its eval rows, and
        205-226 while each row kept its own level strings and
        (train_level, eval_level) tuple."""
        rng = random.Random(14)
        levels = ("easy", "medium", "hard")
        rows = [f"task{t},crit{c},model{m},{tr},{ev},accuracy,{rng.random():.4f},true\n"
                for t in range(10) for c in range(6) for m in range(10)
                for tr in levels for ev in ("full", *levels)]
        path = self.write(tmp_path, "".join(rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cube = load_cube_csv(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 7200 and len(cube.cells) == len(cube.eval_groups) == 600
        assert len({id(name) for key in [*cube.cells, *cube.eval_groups] for name in key}) == 26
        assert held / len(rows) < 60

    def test_bad_value(self, tmp_path):
        path = self.write(tmp_path, "t1,c1,m1,easy,full,accuracy,abc,true\n")
        with pytest.raises(ParseError, match="line 2"):
            load_cube_csv(path)

    def test_duplicate_row(self, tmp_path):
        path = self.write(
            tmp_path,
            "t1,c1,m1,easy,full,accuracy,0.9,true\n"
            "t1,c1,m1,easy,full,accuracy,0.8,true\n",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_cube_csv(path)

    def test_inconsistent_direction(self, tmp_path):
        path = self.write(
            tmp_path,
            "t1,c1,m1,easy,full,accuracy,0.9,true\n"
            "t1,c1,m1,medium,full,accuracy,0.8,false\n",
        )
        with pytest.raises(ValidationError, match="higher_is_better"):
            load_cube_csv(path)

    def test_incomplete_triplet_warns(self, tmp_path):
        path = self.write(
            tmp_path,
            "t1,c1,m1,easy,full,accuracy,0.9,true\n"
            "t1,c1,m1,medium,full,accuracy,0.8,true\n"
            "t1,c1,m1,hard,full,accuracy,0.7,true\n"
            "t2,c1,m1,easy,full,accuracy,0.9,true\n",
        )
        with pytest.warns(IncompleteDataWarning):
            cube = load_cube_csv(path)
        assert list(cube.cells) == [("t1", "c1", "m1")]

    def test_many_incomplete_triplets_warning_is_bounded(self, tmp_path):
        body = "".join(f"t{i:02d},c1,m1,easy,full,accuracy,0.9,true\n" for i in range(25))
        path = self.write(tmp_path, body + "".join(
            f"u1,c1,m1,{tr},full,accuracy,0.5,true\n" for tr in ("easy", "medium", "hard")))
        with pytest.warns(IncompleteDataWarning) as record:
            cube = load_cube_csv(path)
        shown = [(f"t{i:02d}", "c1", "m1") for i in range(10)]
        assert [str(w.message) for w in record] == [
            f"skipping 25 incomplete triplet groups, the first 10 in sorted order: {shown}"]
        assert list(cube.cells) == [("u1", "c1", "m1")]

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("TRUE", True), ("1", True), (" Yes ", True),
        ("false", False), ("0", False), ("no", False), ("No", False),
    ])
    def test_boolean_spellings(self, tmp_path, raw, expected):
        body = "".join(f"t1,c1,m1,{tr},full,accuracy,0.5,{raw}\n"
                       for tr in ("easy", "medium", "hard"))
        cube = load_cube_csv(self.write(tmp_path, body))
        assert cube.cells[("t1", "c1", "m1")].higher_is_better is expected

    def test_bad_boolean(self, tmp_path):
        path = self.write(tmp_path, "t1,c1,m1,easy,full,accuracy,0.9, maybe \n")
        with pytest.raises(ParseError, match="line 2: invalid boolean 'maybe'"):
            load_cube_csv(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = self.write(
            tmp_path,
            "t1,c1,m1,easy,full,accuracy,0.9,true\n"
            "\n"
            ",,,,,,,\n"
            " , \n"
            "t1,c1,m1,medium,full,accuracy,0.8,true\n"
            "t1,c1,m1,hard,full,accuracy,0.7,true\n",
        )
        assert load_cube_csv(path).cells[("t1", "c1", "m1")] == PerformanceTriplet(0.9, 0.8, 0.7)

    def test_first_fault_in_file_order_wins(self, tmp_path):
        path = self.write(
            tmp_path,
            "t1,c1,m1,easy,full,accuracy,0.9,true\n"
            "t1,c1,m1,easy,full,accuracy,0.8,true\n"
            "t1,c1,m1,medium,full,accuracy,abc,true\n",
        )
        with pytest.raises(ValidationError, match="line 3: duplicate"):
            load_cube_csv(path)

    def test_eval_rows_are_kept_separately(self, tmp_path):
        # each eval value sits in its EVAL_PAIRS slot, and NaN marks the missing (hard, hard)
        levels = ("easy", "medium", "hard")
        body = "".join(
            f"t1,c1,m1,{tr},{ev},accuracy,0.{i}{j},true\n"
            for i, tr in enumerate(levels, 1)
            for j, ev in enumerate(("easy", "medium", "hard", "full"), 1)
            if (tr, ev) != ("hard", "hard")
        )
        cube = load_cube_csv(self.write(tmp_path, body))
        direction, values = cube.eval_groups[("t1", "c1", "m1")]
        assert direction is True and len(values) == 9 and math.isnan(values[8])
        assert list(values[:8]) == [0.11, 0.12, 0.13, 0.21, 0.22, 0.23, 0.31, 0.32]
        assert EVAL_PAIRS[8] == ("hard", "hard")
        assert cube.cells[("t1", "c1", "m1")] == PerformanceTriplet(0.14, 0.24, 0.34)
