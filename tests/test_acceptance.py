"""Acceptance suite: one test per release criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure). Expected values tagged as derived were computed with the
independent oracles in ``oracles.py``, never copied untested.
"""

import argparse
import csv
import itertools
import json
import math
import random
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import pytest

from hlmkit.cli import _build_parser
from hlmkit.data import reference_performance_path, reference_transfer_path
from hlmkit.experiment import TrainingLog, converge_result_to_dict, transfer_scores
from hlmkit.hlm import (
    EVAL_PAIRS,
    PerformanceCube,
    PerformanceTriplet,
    compute_report,
    load_cube_csv,
    logical_score,
)
from hlmkit.splitkit import DifficultyScore, split_to_dict, tertile_split
from hlmkit.surprisal import BOS, SurprisalSequence, train_lm
from hlmkit.textstat import Document, TextStats, flesch_score
from hlmkit.uid import uid_superlinear, uid_variance
from oracles import (
    flesch_formula,
    kn_prob,
    ordering_score,
    uid_sl_formula,
    uid_var_formula,
)

README = Path(__file__).resolve().parent.parent / "README.md"


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:>2} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num:>2} ({label}): PASS")


def test_c01_reference_ordering_reproduction():
    with criterion(1, "reference table ordering reproduction"):
        start = time.perf_counter()
        cube = load_cube_csv(reference_performance_path())
        assert len(cube.cells) == 72
        for (task, crit, model), t in cube.cells.items():
            want = ordering_score(t.easy, t.medium, t.hard, t.higher_is_better)
            assert logical_score(t) == want, (task, crit, model)
        # spot anchors, checked by hand against the published table
        assert logical_score(cube.cells[("SST2", "flesch", "BERT")]) == 0.0
        assert logical_score(cube.cells[("ROC", "uid_sl", "LSTM")]) == 0.375
        assert logical_score(cube.cells[("WT2", "flesch", "BERT")]) == -0.75
        assert time.perf_counter() - start < 1.0


def test_c02_extreme_cells_of_reference_heatmap():
    with criterion(2, "heatmap extremes on the reference fixture"):
        start = time.perf_counter()
        report = compute_report(load_cube_csv(reference_performance_path()))
        values = {(c.task, c.criterion, c.model): c.value for c in report.cells}
        for crit in ("uid_sl", "uid_var", "neural"):
            for model in ("BERT", "LSTM"):
                v = values[("WT2", crit, model)]
                assert v >= 0.99, (crit, model, v)
        assert values[("WT2", "flesch", "BERT")] <= -0.99
        assert time.perf_counter() - start < 1.0


def test_c03_cell_value_bounds_and_sign_gating():
    with criterion(3, "cell value bounds, sign, and zero gating"):
        rng = random.Random(20250810)
        # mixed directions and scales; ranges kept below the float saturation
        # point of the sigmoid so the strict mathematical bound is testable
        scales = [(0.0, 1.0), (0.0, 50.0), (50.0, 100.0), (-1.0, 1.0)]
        cells = {}
        for i in range(10_000):
            lo, hi = scales[i % len(scales)]
            vals = [rng.uniform(lo, hi) for _ in range(3)]
            if i % 7 == 0:
                vals[i % 3] = vals[(i + 1) % 3]  # inject ties
            cells[(f"t{i:05d}", "c", "m")] = PerformanceTriplet(*vals, higher_is_better=bool(i % 2))
        # one report over all of them, as `hlm` computes it
        report = compute_report(PerformanceCube(cells))
        assert len(report.cells) == len(cells)
        for c in report.cells:
            s, v = logical_score(cells[(c.task, c.criterion, c.model)]), c.value
            assert -1.0 < v < 1.0
            if s == 0.0:
                assert v == 0.0
            else:
                assert math.copysign(1, v) == math.copysign(1, s)


def test_c04_flesch_exactness():
    with criterion(4, "flesch hand-case exactness"):
        cases = [((1, 1, 1), 121.22), ((1, 3, 3), 119.19), ((2, 20, 30), 69.785)]
        for (d_s, d_w, d_l), expected in cases:
            got = flesch_score(TextStats(d_s, d_w, d_l))
            assert got == pytest.approx(expected, abs=1e-6)
            assert got == pytest.approx(flesch_formula(d_s, d_w, d_l), abs=1e-9)


def test_c05_uid_oracle_equivalence_and_minimality():
    with criterion(5, "uid oracle equivalence and uniform minimality"):
        rng = random.Random(5150)
        for _ in range(1000):
            n = rng.randint(1, 32)
            values = tuple(rng.uniform(0, 20) for _ in range(n))
            seq = SurprisalSequence(doc_id="d", values=values, base="2")
            assert uid_superlinear(seq) == pytest.approx(uid_sl_formula(values), abs=1e-12)
            assert uid_variance(seq) == pytest.approx(uid_var_formula(values), abs=1e-12)
        # brute force over discretized grids: for fixed N and fixed sum the
        # even sequence minimizes the super-linear mean (k > 1)
        grid = [i * 0.5 for i in range(9)]
        for n in (2, 3, 4):
            for combo in itertools.product(grid, repeat=n):
                uniform = SurprisalSequence("u", tuple([sum(combo) / n] * n), "2")
                got = uid_superlinear(SurprisalSequence("d", combo, "2"), k=1.25)
                assert got >= uid_superlinear(uniform, k=1.25) - 1e-12


def test_c06_ngram_model_against_naive_oracle():
    with criterion(6, "kneser-ney normalization and oracle equivalence"):
        rng = random.Random(606)
        alphabet = list("abcdefghij")
        for _ in range(30):
            vocab = alphabet[: rng.randint(1, 10)]
            sentences, budget = [], rng.randint(1, 20)
            while budget > 0:
                n = rng.randint(1, min(6, budget))
                sentences.append([rng.choice(vocab) for _ in range(n)])
                budget -= n
            order = rng.choice([1, 2, 3])
            discount = rng.uniform(0.1, 0.9)
            docs = [Document(id=f"d{i}", text=" ".join(s)) for i, s in enumerate(sentences)]
            model = train_lm(docs, order=order, discount=discount)

            # every context observed at any level (each is a suffix of a
            # top-order history), plus unseen ones
            contexts = {(), (BOS,) * (order - 1), ("oov",) * max(1, order - 1)}
            for hist in model.counts[order]:
                contexts.update(hist[i:] for i in range(order))
            for ctx in contexts:
                dist = {w: model.prob(w, ctx) for w in model.event_vocab}
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
            for ctx in list(model.counts[order]) + [(), ("oov",) * max(1, order - 1)]:
                for w in model.event_vocab + ("never-seen",):
                    want = kn_prob(sentences, order, discount, w, tuple(ctx))
                    assert model.prob(w, ctx) == pytest.approx(want, abs=1e-9)


def test_c07_tertile_split_properties():
    with criterion(7, "tertile split invariants over random corpora"):
        rng = random.Random(707)
        for _ in range(500):
            n = rng.randint(3, 1000)
            harder = rng.random() < 0.5
            crit = "uid_sl" if harder else "flesch"
            values = [round(rng.uniform(-100, 100), rng.choice([0, 1, 6])) for _ in range(n)]
            scores = [DifficultyScore(f"d{i:04d}", crit, v, harder)
                      for i, v in enumerate(values)]
            split = tertile_split(scores)

            ids = split.easy + split.medium + split.hard
            assert sorted(ids) == sorted(s.doc_id for s in scores)
            assert len(set(ids)) == len(ids)
            sizes = (len(split.easy), len(split.medium), len(split.hard))
            assert sizes[0] >= sizes[1] >= sizes[2] >= sizes[0] - 1
            by_id = {s.doc_id: s.difficulty for s in scores}
            assert max(by_id[d] for d in split.easy) <= min(by_id[d] for d in split.hard)

            shuffled = list(scores)
            rng.shuffle(shuffled)
            again = tertile_split(shuffled)
            assert json.dumps(split_to_dict(split)) == json.dumps(split_to_dict(again))


def _transfer_cube(groups):
    eval_groups, cells = {}, {}
    for (task, hib), entries in groups.items():
        values = array("d", (entries.get(pair, math.nan) for pair in EVAL_PAIRS))
        eval_groups[(task, "c1", "m1")] = (hib, values)
        cells[(task, "c1", "m1")] = PerformanceTriplet(1, 1, 1, hib)
    return PerformanceCube(cells, eval_groups)


def test_c08_transfer_column_sums():
    with criterion(8, "transfer matrix column-sum invariant"):
        levels = ("easy", "medium", "hard")
        rng = random.Random(808)
        for _ in range(100):
            groups = {}
            for g in range(rng.randint(1, 8)):
                entries = {(tr, ev): rng.choice([rng.uniform(0, 100), 50.0])
                           for tr in levels for ev in levels}
                groups[(f"t{g}", rng.random() < 0.5)] = entries
            matrix = transfer_scores(_transfer_cube(groups))
            for ev in levels:
                assert matrix.column_sum(ev) == pytest.approx(6.0, abs=1e-9)
        # explicit tie case: shared best rank becomes 2.5 each, sum preserved
        tie = {(tr, ev): v for ev in levels for tr, v in zip(levels, (0.9, 0.9, 0.7))}
        matrix = transfer_scores(_transfer_cube({("t1", True): tie}))
        assert matrix.values[("easy", "easy")] == pytest.approx(2.5)
        assert matrix.values[("medium", "easy")] == pytest.approx(2.5)
        assert matrix.column_sum("easy") == pytest.approx(6.0, abs=1e-9)


# Published columns of the reference transfer matrix that break the rank-sum
# invariant, mapped to the sum the published values give. See README "Known
# data inconsistency".
REFERENCE_TRANSFER_ERRATA = {("BERT", "medium"): 6.07}
# Each published cell is rounded to 2 decimals (error at most 0.005), so a
# column of three cells may miss the exact rank sum 6 by at most 3 * 0.005.
COLUMN_SUM_ROUNDING = 3 * 0.005


def test_c08_reference_transfer_anchor():
    # The bundled reference transfer matrix is kept verbatim from the
    # published source. Rank-sum arithmetic forces every eval column to sum
    # to 6.0 up to 2-decimal rounding, and five of the six columns do. The
    # BERT/medium column sums to 6.07, which no rounding of valid rank
    # averages can produce; this anchor pins that column at its published
    # value and requires the other five to sum to 6, so a slip in any cell
    # fails here. The invariant itself is checked on synthetic data in
    # test_c08_transfer_column_sums.
    with criterion(8, "published transfer columns sum to 6 (sanity anchor)"):
        models, levels = ("LSTM", "BERT"), ("easy", "medium", "hard")
        with open(reference_transfer_path(), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        keys = sorted((row["model"], row["train_level"], row["eval_level"]) for row in rows)
        assert keys == sorted(itertools.product(models, levels, levels))

        sums = {}
        for row in rows:
            score = float(row["score"])
            # a mean of 3/2/1 ranks lies in [1, 3]
            assert 1.0 <= score <= 3.0, f"score out of rank range: {row}"
            key = (row["model"], row["eval_level"])
            sums[key] = sums.get(key, 0.0) + score

        for (model, ev), total in sorted(sums.items()):
            published = REFERENCE_TRANSFER_ERRATA.get((model, ev))
            if published is None:
                assert total == pytest.approx(6.0, abs=COLUMN_SUM_ROUNDING), (
                    f"published column {model}/{ev} sums to {total:.2f}, not 6.0"
                )
            else:
                assert abs(total - 6.0) > COLUMN_SUM_ROUNDING, (
                    f"column {model}/{ev} now sums to {total:.2f}, within rounding "
                    "of 6: drop its REFERENCE_TRANSFER_ERRATA entry and the README "
                    "note in the same commit"
                )
                assert round(total, 2) == published, (
                    f"column {model}/{ev} sums to {total:.2f}, not its recorded "
                    f"published value {published}"
                )


def test_c09_convergence_metric():
    with criterion(9, "convergence ratio cases and monotonicity"):
        log = TrainingLog(steps=((1, 0.5), (2, 0.9), (3, 0.9), (4, 0.9)))
        assert converge_result_to_dict(log, 0.001)["ratio"] == pytest.approx(0.5)
        log = TrainingLog(steps=((1, 0.8), (2, 0.8)))
        assert converge_result_to_dict(log, 0.001)["ratio"] == pytest.approx(0.5)
        ppl = TrainingLog(steps=((1, 300.0), (2, 200.0), (3, 199.9)), higher_is_better=False)
        # 200 lies within 199.9 * 1.001, so the threshold is met at step 2
        assert converge_result_to_dict(ppl, 0.001)["ratio"] == pytest.approx(2.0 / 3.0)
        assert converge_result_to_dict(ppl, 0.0001)["ratio"] == pytest.approx(1.0)

        rng = random.Random(909)
        for _ in range(1000):
            n = rng.randint(2, 50)
            hib = rng.random() < 0.5
            steps = tuple((i + 1, rng.uniform(1, 100)) for i in range(n))
            log = TrainingLog(steps=steps, higher_is_better=hib)
            eps = rng.uniform(1e-6, 0.2)
            ratio = converge_result_to_dict(log, eps)["ratio"]
            assert 0 < ratio <= 1
            values = [v for _, v in steps]
            best = max(values) if hib else min(values)
            cut = values.index(best) + 1
            if cut >= 2:
                truncated = TrainingLog(steps=steps[:cut], higher_is_better=hib)
                assert converge_result_to_dict(truncated, eps)["ratio"] >= ratio


def test_c10_no_model_training_disclosure():
    # Absolute task performances and learning curves cannot be recomputed
    # here: they would require training the benchmarked models. They enter
    # the pipeline only as ingested files, and the docs must say so.
    with criterion(10, "performance numbers are ingested, never produced"):
        assert reference_performance_path().is_file()
        assert reference_transfer_path().is_file()

        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        commands = set(sub.choices)
        assert commands == {"score", "split", "lm-train", "surprisal", "hlm",
                            "schedule", "converge", "transfer", "report"}

        readme = README.read_text(encoding="utf-8").lower()
        assert "does not train" in readme
        assert "ingested" in readme


@pytest.mark.parametrize("ddof", [0, 1])
def test_c11_paper_findings(ddof):
    # The bundled fixtures carry four of the paper's five findings; each is
    # stated as an ordering, not as a float literal. Finding (5), faster
    # convergence of easy-to-hard training, needs training logs, which are
    # not bundled (c09 checks the metric's direction on synthetic logs).
    with criterion(11, f"paper findings (1)-(4) on the bundled fixtures, ddof {ddof}"):
        report = compute_report(load_cube_csv(reference_performance_path()), ddof)
        # (1) LSTM is more human-like than BERT
        assert report.i_model["LSTM"] > report.i_model["BERT"]
        # (2) UID-SuperLinear is the best criterion, then UID-Variance, Flesch, neural
        ranked = sorted(report.i_criteria, key=report.i_criteria.__getitem__, reverse=True)
        assert ranked == ["uid_sl", "uid_var", "flesch", "neural"]
        # (3) some tasks follow difficulty clearly, others show no such effect
        following = {t for t, v in report.i_task.items() if v >= 0.49}
        indifferent = {t for t, v in report.i_task.items() if abs(v) < 0.12}
        assert following == {"RTE", "SQUAD", "SST2", "WT2"}
        assert indifferent == {"CoNLL2003", "MRPC", "QNLI", "ROC", "STS-B"}
        # (4) easy training serves easy and medium evaluation; hard training
        # serves only hard evaluation
        with open(reference_transfer_path(), newline="", encoding="utf-8") as fh:
            scores = {(r["model"], r["train_level"], r["eval_level"]): float(r["score"])
                      for r in csv.DictReader(fh)}
        levels = ("easy", "medium", "hard")
        for model in ("LSTM", "BERT"):
            best = {ev: max(levels, key=lambda tr: scores[(model, tr, ev)]) for ev in levels}
            assert best == {"easy": "easy", "medium": "easy", "hard": "hard"}, model
