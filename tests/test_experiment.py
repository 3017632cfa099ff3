import itertools
import math
import random
import tempfile
import warnings
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hlmkit.errors import IncompleteDataWarning, ParseError, ValidationError
from hlmkit.experiment import (
    TrainingLog,
    _rank_scores,
    _splitmix64,
    converge_result_to_dict,
    convergent_step,
    load_training_log,
    make_schedule,
    seeded_shuffle,
    transfer_scores,
    transfer_to_dict,
)
from hlmkit.hlm import (CUBE_COLUMNS, EVAL_PAIRS, PerformanceCube, PerformanceTriplet,
                        load_cube_csv)
from hlmkit.splitkit import DifficultyScore, DifficultySplit, tertile_split
import oracles

LEVELS = ("easy", "medium", "hard")


def split_of(easy, medium, hard):
    return DifficultySplit("uid_sl", tuple(easy), tuple(medium), tuple(hard), (0.0, 0.0))


class TestPrng:
    def test_splitmix64_reference_vectors(self):
        # published outputs for seed 0
        state, expected = 0, (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        for want in expected:
            state, out = _splitmix64(state)
            assert out == want

    def test_shuffle_frozen_permutation(self):
        assert seeded_shuffle(list("abcdef"), 7) == ["b", "f", "a", "c", "e", "d"]
        assert seeded_shuffle([f"d{i}" for i in range(10)], 42) == [
            "d0", "d9", "d5", "d8", "d6", "d4", "d7", "d2", "d1", "d3",
        ]

    def test_shuffle_is_permutation(self):
        rng = random.Random(0)
        for _ in range(50):
            items = [f"x{i}" for i in range(rng.randint(0, 30))]
            assert sorted(seeded_shuffle(items, rng.randint(0, 2**64))) == sorted(items)


class TestMakeSchedule:
    def test_easy_to_hard(self):
        s = make_schedule(split_of(["a"], ["b"], ["c"]), "easy_to_hard")
        assert s.sequence == ("a", "b", "c")
        assert s.phase_boundaries == (1, 2)
        assert s.seed is None

    def test_hard_to_easy_reverses_phases_only(self):
        s = make_schedule(split_of(["a1", "a2"], ["b1"], ["c1", "c2"]), "hard_to_easy")
        assert s.sequence == ("c1", "c2", "b1", "a1", "a2")
        assert s.phase_boundaries == (2, 3)

    def test_random_is_deterministic_in_seed(self):
        split = split_of(["a", "b"], ["c", "d"], ["e", "f"])
        s1 = make_schedule(split, "random", seed=7)
        s2 = make_schedule(split, "random", seed=7)
        assert s1 == s2
        assert sorted(s1.sequence) == ["a", "b", "c", "d", "e", "f"]

    def test_random_requires_seed(self):
        with pytest.raises(ValidationError):
            make_schedule(split_of(["a"], ["b"], ["c"]), "random")

    def test_unknown_order(self):
        with pytest.raises(ValidationError):
            make_schedule(split_of(["a"], ["b"], ["c"]), "alphabetical")

    def test_easy_to_hard_difficulty_nondecreasing(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(3, 40)
            scores = [DifficultyScore(f"d{i}", "uid_sl", rng.uniform(0, 9), True)
                      for i in range(n)]
            split = tertile_split(scores)
            schedule = make_schedule(split, "easy_to_hard")
            by_id = {s.doc_id: s.difficulty for s in scores}
            b1, b2 = schedule.phase_boundaries
            phases = [schedule.sequence[:b1], schedule.sequence[b1:b2], schedule.sequence[b2:]]
            assert sorted(schedule.sequence) == sorted(by_id)
            for earlier, later in zip(phases, phases[1:]):
                assert max(by_id[d] for d in earlier) <= min(by_id[d] for d in later)


class TestConvergenceRatio:
    def test_plateau_reached_at_step_two(self):
        log = TrainingLog(steps=((1, 0.5), (2, 0.9), (3, 0.9), (4, 0.9)))
        assert converge_result_to_dict(log, 0.001)["ratio"] == pytest.approx(0.5)

    def test_constant_log_converges_immediately(self):
        log = TrainingLog(steps=((1, 0.8), (2, 0.8)))
        assert converge_result_to_dict(log, 0.001)["ratio"] == pytest.approx(0.5)

    def test_perplexity_threshold_arithmetic(self):
        # lower-is-better: threshold is best * (1 + eps); 200 <= 199.9 * 1.001,
        # so the run converges at step 2 of 3
        log = TrainingLog(steps=((1, 300.0), (2, 200.0), (3, 199.9)), higher_is_better=False)
        assert converge_result_to_dict(log, 0.001)["ratio"] == pytest.approx(2.0 / 3.0)

    def test_perplexity_tight_epsilon_needs_final_step(self):
        log = TrainingLog(steps=((1, 300.0), (2, 200.0), (3, 199.9)), higher_is_better=False)
        assert converge_result_to_dict(log, 0.0001)["ratio"] == pytest.approx(1.0)

    def test_ratio_in_unit_interval(self):
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(2, 40)
            steps = tuple((i + 1, rng.uniform(-5, 5)) for i in range(n))
            log = TrainingLog(steps=steps, higher_is_better=rng.random() < 0.5)
            ratio = converge_result_to_dict(log, rng.uniform(1e-6, 0.5))["ratio"]
            assert 0 < ratio <= 1

    def test_truncation_after_first_best_never_lowers_ratio(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(2, 40)
            hib = rng.random() < 0.5
            steps = tuple((i + 1, rng.uniform(1, 10)) for i in range(n))
            log = TrainingLog(steps=steps, higher_is_better=hib)
            values = [v for _, v in steps]
            best = max(values) if hib else min(values)
            cut = values.index(best) + 1
            if cut < 2:
                continue
            truncated = TrainingLog(steps=steps[:cut], higher_is_better=hib)
            full = converge_result_to_dict(log, 0.01)["ratio"]
            assert converge_result_to_dict(truncated, 0.01)["ratio"] >= full

    def test_one_search_behind_ratio_and_report(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(2, 40)
            hib = rng.random() < 0.5
            steps = tuple((i + 1, rng.choice([1.0, rng.uniform(1, 10)])) for i in range(n))
            log = TrainingLog(steps=steps, higher_is_better=hib)
            eps = rng.uniform(1e-6, 0.5)
            best = max(v for _, v in steps) if hib else min(v for _, v in steps)
            slack = eps * abs(best)
            within = [s for s, v in steps if (v >= best - slack if hib else v <= best + slack)]
            step = convergent_step(log, eps)
            assert step == within[0]
            result = converge_result_to_dict(log, eps)
            assert result["convergent_step"] == step
            assert result["best_metric"] == best
            assert result["ratio"] == step / n

    def test_epsilon_bounds(self):
        log = TrainingLog(steps=((1, 1.0), (2, 2.0)))
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValidationError, match="^epsilon_rel must be in"):
                converge_result_to_dict(log, eps)

    def test_log_validation(self):
        with pytest.raises(ValidationError):
            TrainingLog(steps=((1, 1.0),))
        with pytest.raises(ValidationError):
            TrainingLog(steps=((2, 1.0), (2, 2.0)))
        with pytest.raises(ValidationError):
            TrainingLog(steps=((0, 1.0), (1, 2.0)))

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("step,value\n1,0.5\n2,0.9\n")
        log = load_training_log(path, higher_is_better=True)
        assert log.steps == ((1, 0.5), (2, 0.9))

    def test_csv_loader_bad_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,acc\n1,0.5\n")
        with pytest.raises(ParseError, match="header"):
            load_training_log(path, higher_is_better=True)

    def test_csv_loader_bad_row(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("step,value\n1,0.5\nxx,0.9\n")
        with pytest.raises(ParseError, match="line 3"):
            load_training_log(path, higher_is_better=True)


def eval_cube(groups):
    """Build a cube with eval-level rows from {group_key: {(train, eval): value}}."""
    eval_groups = {}
    cells = {}
    for (task, criterion, model, hib), entries in groups.items():
        values = array("d", (entries.get(pair, math.nan) for pair in EVAL_PAIRS))
        eval_groups[(task, criterion, model)] = (hib, values)
        cells[(task, criterion, model)] = PerformanceTriplet(1.0, 1.0, 1.0, hib)
    return PerformanceCube(cells, eval_groups)


def full_group(by_train_eval, hib=True, name=("t1", "c1", "m1")):
    return {name + (hib,): by_train_eval}


class TestTransferScores:
    def test_single_group_strict_ordering(self):
        entries = {(tr, ev): v
                   for ev in LEVELS
                   for tr, v in zip(LEVELS, (0.9, 0.8, 0.7))}
        matrix = transfer_scores(eval_cube(full_group(entries)))
        for ev in LEVELS:
            assert matrix.values[("easy", ev)] == 3.0
            assert matrix.values[("medium", ev)] == 2.0
            assert matrix.values[("hard", ev)] == 1.0

    def test_opposite_groups_average_to_two(self):
        g1 = {(tr, ev): v for ev in LEVELS for tr, v in zip(LEVELS, (0.9, 0.8, 0.7))}
        g2 = {(tr, ev): v for ev in LEVELS for tr, v in zip(LEVELS, (0.7, 0.8, 0.9))}
        groups = {("t1", "c1", "m1", True): g1, ("t2", "c1", "m1", True): g2}
        matrix = transfer_scores(eval_cube(groups))
        for tr in LEVELS:
            for ev in LEVELS:
                assert matrix.values[(tr, ev)] == pytest.approx(2.0)

    def test_two_way_tie_shares_average_rank(self):
        entries = {(tr, ev): v for ev in LEVELS for tr, v in zip(LEVELS, (0.9, 0.9, 0.7))}
        matrix = transfer_scores(eval_cube(full_group(entries)))
        for ev in LEVELS:
            assert matrix.values[("easy", ev)] == pytest.approx(2.5)
            assert matrix.values[("medium", ev)] == pytest.approx(2.5)
            assert matrix.values[("hard", ev)] == pytest.approx(1.0)
            assert matrix.column_sum(ev) == pytest.approx(6.0, abs=1e-9)

    def test_direction_aware_ranking(self):
        entries = {(tr, ev): v for ev in LEVELS for tr, v in zip(LEVELS, (100.0, 200.0, 300.0))}
        matrix = transfer_scores(eval_cube(full_group(entries, hib=False)))
        for ev in LEVELS:
            assert matrix.values[("easy", ev)] == 3.0  # lowest perplexity wins

    def test_column_sums_on_random_cubes(self):
        rng = random.Random(43)
        for _ in range(50):
            groups = {}
            for g in range(rng.randint(1, 6)):
                hib = rng.random() < 0.5
                entries = {(tr, ev): rng.choice([rng.uniform(0, 1), 0.5])
                           for tr in LEVELS for ev in LEVELS}
                groups[(f"t{g}", "c1", "m1", hib)] = entries
            matrix = transfer_scores(eval_cube(groups))
            for ev in LEVELS:
                assert matrix.column_sum(ev) == pytest.approx(6.0, abs=1e-9)

    def test_incomplete_group_skipped_with_warning(self):
        complete = {(tr, ev): 0.5 for tr in LEVELS for ev in LEVELS}
        partial = {("easy", "easy"): 0.9}
        groups = {("t1", "c1", "m1", True): complete, ("t2", "c1", "m1", True): partial}
        with pytest.warns(IncompleteDataWarning, match="t2"):
            matrix = transfer_scores(eval_cube(groups))
        assert matrix.groups == (("t1", "c1", "m1"),)

    def test_many_incomplete_groups_warning_is_bounded(self):
        groups = {(f"t{g:02d}", "c1", "m1", True): {("easy", "easy"): 0.9} for g in range(25)}
        groups[("u1", "c1", "m1", True)] = {(tr, ev): 0.5 for tr in LEVELS for ev in LEVELS}
        with pytest.warns(IncompleteDataWarning) as record:
            matrix = transfer_scores(eval_cube(groups))
        shown = [(f"t{g:02d}", "c1", "m1") for g in range(10)]
        assert [str(w.message) for w in record] == [
            f"skipping 25 incomplete transfer groups, the first 10 in sorted order: {shown}"]
        assert matrix.groups == (("u1", "c1", "m1"),)

    @pytest.mark.parametrize("higher_is_better", [True, False])
    def test_rank_scores_match_the_sorted_positions(self, higher_is_better):
        for values in itertools.product((0.0, -0.0, 1.5, 2.0), repeat=3):
            level_values = dict(zip(LEVELS, values))
            assert (_rank_scores(*values, higher_is_better)
                    == tuple(oracles.rank_scores(level_values, higher_is_better).values()))

    def test_no_complete_groups_raises(self):
        groups = {("t1", "c1", "m1", True): {("easy", "easy"): 0.9}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValidationError):
                transfer_scores(eval_cube(groups))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_rank_oracle_through_the_csv_loader(self, data):
        # few keys and values, so groups tie, hold -0.0 beside 0.0, point both
        # ways and miss rows; rows are written in a random order
        combos = [(tr, ev) for tr in LEVELS for ev in LEVELS]
        value = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e300]),
                          st.floats(-10, 10, allow_nan=False))
        groups = {}
        for key in data.draw(st.lists(st.tuples(st.sampled_from("ab"), st.just("c1"),
                                                st.sampled_from("pqr")),
                                      min_size=1, max_size=6, unique=True)):
            kept = data.draw(st.sets(st.sampled_from(combos), min_size=8)
                             | st.just(set(combos)))
            groups[key] = (data.draw(st.booleans()), {c: data.draw(value) for c in combos
                                                      if c in kept})
        rows = [[*key, tr, ev, "metric", repr(v), str(hib).lower()]
                for key, (hib, values) in groups.items() for (tr, ev), v in values.items()]
        rows = data.draw(st.permutations(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cube.csv"
            path.write_text("\n".join(",".join(r) for r in [list(CUBE_COLUMNS), *rows]) + "\n")
            cube = load_cube_csv(path)
        expected, complete = oracles.transfer_matrix(groups)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncompleteDataWarning)
            if not complete:
                with pytest.raises(ValidationError):
                    transfer_scores(cube)
                return
            matrix = transfer_scores(cube)
        assert matrix.groups == complete
        assert {k: v.hex() for k, v in matrix.values.items()} == {
            k: v.hex() for k, v in expected.items()}

    def test_to_dict_shape(self):
        entries = {(tr, ev): 0.5 for tr in LEVELS for ev in LEVELS}
        data = transfer_to_dict(transfer_scores(eval_cube(full_group(entries))))
        assert data["group_count"] == 1
        assert data["matrix"]["easy"]["hard"] == pytest.approx(2.0)
