import argparse
import base64
import bisect
import csv
import hashlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
import zlib
from contextlib import nullcontext
from itertools import accumulate, pairwise
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hlmkit
from hlmkit import cli, svg
from hlmkit.cli import _build_parser, main
from hlmkit.data import reference_performance_path
from hlmkit.errors import IncompleteDataWarning, ValidationError
from hlmkit.hlm import CUBE_COLUMNS
from hlmkit.textstat import FleschConfig, flesch_score, text_stats
from oracles import decode_dump, dump_counts, dump_grams, encode_dump, encode_ints, int_planes

CORPUS_LINES = [
    {"id": "d1", "text": "The cat sat on the mat. It was warm."},
    {"id": "d2", "text": "Quantum entanglement characterizes nonclassical correlations."},
    {"id": "d3", "text": "Dogs run fast. Cats sleep a lot. Birds sing."},
    {"id": "d4", "text": "The committee ratified the comprehensive modernization proposal."},
    {"id": "d5", "text": "I like tea. You like milk."},
    {"id": "d6", "text": "The hypothesis survived repeated falsification attempts."},
]


def write_corpus(tmp_path, name="corpus.jsonl", lines=CORPUS_LINES):
    path = tmp_path / name
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return str(path)


def write_transfer_cube(tmp_path):
    header = "task,criterion,model,train_level,eval_level,metric,value,higher_is_better\n"
    rows = []
    perf = {"easy": 0.9, "medium": 0.8, "hard": 0.7}
    for task in ("t1", "t2"):
        for tr in ("easy", "medium", "hard"):
            for ev in ("easy", "medium", "hard"):
                rows.append(f"{task},c1,m1,{tr},{ev},accuracy,{perf[tr]},true")
            rows.append(f"{task},c1,m1,{tr},full,accuracy,{perf[tr]},true")
    path = tmp_path / "transfer_cube.csv"
    path.write_text(header + "\n".join(rows) + "\n")
    return str(path)


def write_reference_transfer_cube(tmp_path):
    """The bundled reference cube plus eval-level rows derived from it.

    The bundled cube has full-test-set rows only. Train level i evaluated on
    level j takes the full-set row of train level (i + j) mod 3, so each eval
    column ranks the train levels in a different order.
    """
    levels = ("easy", "medium", "hard")
    with open(reference_performance_path(), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    full = {}
    for row in rows[1:]:
        full.setdefault(tuple(row[:3]), {})[row[3]] = row
    for key, group in full.items():
        for i, tr in enumerate(levels):
            for j, ev in enumerate(levels):
                rows.append(list(key) + [tr, ev] + group[levels[(i + j) % 3]][5:])
    path = tmp_path / "reference_transfer_cube.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(path)


def run_twice_and_compare(argv, out_path):
    assert main(argv) == 0
    first = out_path.read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first


class TestPipeline:
    def test_full_pipeline(self, tmp_path):
        corpus = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        surp = tmp_path / "surp.jsonl"
        scores = tmp_path / "scores.jsonl"
        split = tmp_path / "split.json"
        sched = tmp_path / "sched.json"

        assert main(["lm-train", "--corpus", corpus, "--order", "2",
                     "-o", str(model), "--validate"]) == 0
        assert main(["surprisal", "--corpus", corpus, "--model", str(model),
                     "-o", str(surp), "--validate"]) == 0
        assert main(["score", "--corpus", corpus, "--criterion", "uid_sl",
                     "--model", str(model), "-o", str(scores), "--validate"]) == 0
        assert main(["split", "--scores", str(scores), "-o", str(split), "--validate"]) == 0
        assert main(["schedule", "--split", str(split), "--order", "easy_to_hard",
                     "-o", str(sched), "--validate"]) == 0

        split_data = json.loads(split.read_text())
        assert sorted(
            split_data["easy"] + split_data["medium"] + split_data["hard"]
        ) == [f"d{i}" for i in range(1, 7)]
        sched_data = json.loads(sched.read_text())
        assert len(sched_data["sequence"]) == 6

    def test_score_with_imported_surprisals(self, tmp_path):
        corpus = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        surp = tmp_path / "surp.jsonl"
        out_lm = tmp_path / "a.jsonl"
        out_imported = tmp_path / "b.jsonl"
        assert main(["lm-train", "--corpus", corpus, "-o", str(model)]) == 0
        assert main(["surprisal", "--corpus", corpus, "--model", str(model),
                     "-o", str(surp)]) == 0
        assert main(["score", "--corpus", corpus, "--criterion", "uid_var",
                     "--model", str(model), "-o", str(out_lm)]) == 0
        assert main(["score", "--corpus", corpus, "--criterion", "uid_var",
                     "--surprisals", str(surp), "-o", str(out_imported)]) == 0
        assert out_lm.read_bytes() == out_imported.read_bytes()

    def test_per_sentence_scoring_from_the_model(self, tmp_path):
        corpus = write_corpus(tmp_path)
        model, docs, sents = (tmp_path / name for name in ("m.json", "d.jsonl", "s.jsonl"))
        assert main(["lm-train", "--corpus", corpus, "--order", "3", "-o", str(model)]) == 0
        assert main(["surprisal", "--corpus", corpus, "--model", str(model), "-o", str(docs)]) == 0
        assert main(["surprisal", "--corpus", corpus, "--model", str(model), "--per-sentence",
                     "-o", str(sents)]) == 0
        # the sentence lines, joined per id, are the document lines
        joined = {}
        for line in sents.read_text().splitlines():
            row = json.loads(line)
            joined.setdefault(row["id"], []).extend(row["surprisals"])
        doc_rows = [json.loads(line) for line in docs.read_text().splitlines()]
        assert len(sents.read_text().splitlines()) > len(doc_rows)
        assert joined == {row["id"]: row["surprisals"] for row in doc_rows}
        for criterion in ("uid_sl", "uid_var"):
            def scores(*flags):
                out = tmp_path / "scores.jsonl"
                assert main(["score", "--corpus", corpus, "--criterion", criterion, *flags,
                             "-o", str(out)]) == 0
                return out.read_bytes()
            from_model = scores("--model", str(model), "--per-sentence")
            assert from_model == scores("--surprisals", str(sents), "--per-sentence")
            assert from_model != scores("--model", str(model))

    def test_score_neural(self, tmp_path):
        corpus = write_corpus(tmp_path)
        neural = tmp_path / "neural.jsonl"
        neural.write_text("".join(
            json.dumps({"id": f"d{i}", "score": float(i), "higher_is_harder": True}) + "\n"
            for i in range(1, 7)
        ))
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--corpus", corpus, "--criterion", "neural",
                     "--neural-scores", str(neural), "-o", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["value"] for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_flesch_score_cardinality(self, tmp_path):
        corpus = write_corpus(tmp_path, lines=CORPUS_LINES[:3])
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--corpus", corpus, "--criterion", "flesch",
                     "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


class TestHlmCommand:
    def test_bundled_reference_default(self, tmp_path):
        report = tmp_path / "report.json"
        hm_csv = tmp_path / "hm.csv"
        hm_svg = tmp_path / "hm.svg"
        assert main(["hlm", "-o", str(report), "--heatmap-csv", str(hm_csv),
                     "--heatmap-svg", str(hm_svg), "--validate"]) == 0
        data = json.loads(report.read_text())
        assert len(data["cells"]) == 72
        wt2 = {
            (c["model"], c["criterion"]): c["value"]
            for c in data["cells"] if c["task"] == "WT2"
        }
        for model in ("BERT", "LSTM"):
            assert wt2[(model, "uid_sl")] == pytest.approx(1.0, abs=1e-3)
        assert hm_svg.read_text().startswith("<svg")
        header = hm_csv.read_text().splitlines()[0]
        assert header.startswith("model,criterion,")

    def test_explicit_cube_and_ddof(self, tmp_path):
        report0 = tmp_path / "r0.json"
        report1 = tmp_path / "r1.json"
        cube = str(reference_performance_path())
        assert main(["hlm", "--cube", cube, "-o", str(report0)]) == 0
        assert main(["hlm", "--cube", cube, "--std-ddof", "1", "-o", str(report1)]) == 0
        d0 = json.loads(report0.read_text())
        d1 = json.loads(report1.read_text())
        assert d0["std_ddof"] == 0 and d1["std_ddof"] == 1
        assert d0["cells"] != d1["cells"]

    def test_idempotent(self, tmp_path):
        report = tmp_path / "report.json"
        run_twice_and_compare(["hlm", "-o", str(report)], report)

    @settings(max_examples=15, deadline=None)
    @given(rows=st.permutations(
               reference_performance_path().read_text(encoding="utf-8").splitlines()[1:]),
           ddof=st.sampled_from(["0", "1"]))
    def test_outputs_ignore_the_cube_row_order(self, rows, ddof):
        """Permuting a cube's data rows leaves the report, the heatmap CSV and
        the heatmap SVG byte-identical."""
        lines = reference_performance_path().read_text(encoding="utf-8").splitlines()
        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for name, body in (("given", lines[1:]), ("permuted", rows)):
                cube = Path(tmp, f"{name}_cube.csv")
                cube.write_text("\n".join([lines[0], *body]) + "\n", encoding="utf-8")
                files = [Path(tmp, f"{name}{ext}") for ext in (".json", ".csv", ".svg")]
                assert main(["hlm", "--cube", str(cube), "--std-ddof", ddof, "-o", str(files[0]),
                             "--heatmap-csv", str(files[1]), "--heatmap-svg", str(files[2])]) == 0
                outputs.append([f.read_bytes() for f in files])
            assert outputs[0] == outputs[1]

    def test_sample_std_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        cube = tmp_path / "cube.csv"
        cube.write_text(",".join(CUBE_COLUMNS) + "\n" + "".join(
            f"t1,c1,m1,{tr},full,accuracy,{v},true\n"
            for tr, v in zip(("easy", "medium", "hard"), ("1.7e308", "1.7e308", "-1.7e308"))))
        report = tmp_path / "report.json"
        assert main(["hlm", "--cube", str(cube), "--std-ddof", "1", "-o", str(report)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError: cell ('t1', 'c1', 'm1'):" in err
        assert "exceeds the float range" in err and "Traceback" not in err
        assert not report.exists()
        # a population STD is at most half the range, so ddof 0 runs
        assert main(["hlm", "--cube", str(cube), "-o", str(report)]) == 0

    def test_heatmap_keeps_apart_names_that_join_to_one_label(self, tmp_path):
        # the cells (model a, criterion b/c) and (model a/b, criterion c) are
        # both labelled a/b/c, yet each keeps its own value and its own names
        cube = tmp_path / "cube.csv"
        cube.write_text(",".join(CUBE_COLUMNS) + "\n" + "".join(
            f"t,{criterion},{model},{tr},full,accuracy,{v},true\n"
            for model, criterion, values in (("a", "b/c", (0.9, 0.8, 0.7)),
                                             ("a/b", "c", (0.7, 0.8, 0.9)))
            for tr, v in zip(("easy", "medium", "hard"), values)))
        report, hm_csv, hm_svg = (tmp_path / name for name in ("r.json", "h.csv", "h.svg"))
        with pytest.warns(IncompleteDataWarning, match="skipping 2 missing cells"):
            assert main(["hlm", "--cube", str(cube), "-o", str(report), "--heatmap-csv",
                         str(hm_csv), "--heatmap-svg", str(hm_svg)]) == 0
        value = {(c["model"], c["criterion"]): c["value"]
                 for c in json.loads(report.read_text())["cells"]}
        assert value[("a", "b/c")] == -value[("a/b", "c")] != 0
        assert hm_csv.read_text().splitlines() == [
            "model,criterion,t", f"a,b/c,{value[('a', 'b/c')]!r}", "a,c,", "a/b,b/c,",
            f"a/b,c,{value[('a/b', 'c')]!r}"]
        svg_text = hm_svg.read_text()
        labels = re.findall(r'text-anchor="middle">(-?\d+\.\d\d)</text>', svg_text)
        assert labels[:2] == [f"{value[('a', 'b/c')]:.2f}", f"{value[('a/b', 'c')]:.2f}"]
        # the same figure from the report file
        out = tmp_path / "again.svg"
        assert main(["report", "--hlm-report", str(report), "--heatmap-out", str(out)]) == 0
        assert out.read_text() == svg_text

    def test_heatmap_past_one_write_slice_is_the_same_from_hlm_and_report(self, tmp_path):
        """A heatmap longer than one 65,536-character write slice, with a non-ASCII task
        name and one holding "&", is the same bytes from ``hlm --heatmap-svg`` and from
        ``report --heatmap-out``, and each file is well-formed XML."""
        tasks = ["café", "R&D"] + [f"t{i}" for i in range(1, 19)]
        cube = tmp_path / "cube.csv"
        cube.write_text(",".join(CUBE_COLUMNS) + "\n" + "".join(
            f"{task},c{c},m{m},{tr},full,accuracy,{v},true\n"
            for i, task in enumerate(tasks) for c in range(3) for m in range(10)
            for tr, v in zip(("easy", "medium", "hard"), (0.9, 0.5 + i / 100, 0.1 + m / 20))),
            encoding="utf-8")
        report, from_hlm, from_report = (tmp_path / name for name in ("r.json", "h.svg", "r.svg"))
        assert main(["hlm", "--cube", str(cube), "-o", str(report),
                     "--heatmap-svg", str(from_hlm), "--validate"]) == 0
        assert main(["report", "--hlm-report", str(report),
                     "--heatmap-out", str(from_report), "--validate"]) == 0
        assert from_report.read_bytes() == from_hlm.read_bytes()
        for path in (from_hlm, from_report):
            ET.parse(path)
        text = from_hlm.read_text(encoding="utf-8")
        assert len(text) > 65536
        assert ">café<" in text and ">R&amp;D<" in text

    def test_config_std_ddof_other_than_0_or_1_exit_2(self, tmp_path, capsys):
        config = tmp_path / "hlmkit.ini"
        config.write_text("[hlm]\nstd_ddof = 2\n")
        report = tmp_path / "report.json"
        assert main(["hlm", "--config", str(config), "-o", str(report)]) == 2
        assert capsys.readouterr().err == ("error: ValidationError: config [hlm] std_ddof: "
                                           "invalid choice: 2 (choose from 0, 1)\n")
        assert not report.exists()


# sha256 of the hlm and transfer outputs on the bundled reference cube,
# recorded with the implementation that re-scored every cell per index key.
PINNED_DIGESTS = {
    "report0.json": "1c7b9b1be77d7056ae6d7e1dc4214f826ce1fd217e9edc53a02545b9dc0c9b1f",
    "heatmap0.csv": "0f2261f35eefcb5163fa98e5f9430503dfb60692bde4509bfbc2d2ec86305eda",
    "heatmap0.svg": "8a30f2869a75915ef6f77d762bea82f22879d53026bd52cc593f2026e0d85ec8",
    "report1.json": "9edfbd854efec5a5ce45f63bef899a9fb6fde73ed0ca99061763e5f6a7f2a1d5",
    "heatmap1.csv": "3947ad415aa12d1444d10a0ce4aed471b544e1fbd2f0b35d12ad0253f4e29082",
    "heatmap1.svg": "66b91f423309fa6943ed5a25cefdcc46513059dc1aff8106d24e5188e78855d1",
    "transfer.json": "3b9bb7287a1d1ce21aaa11539221499fa188b1dc758ce430c13b26737608e146",
    "transfer.csv": "b13831000ce5e6b4c17c04136ed4a3295fc9673615a4b9e8472e2575b8f90f84",
}


def test_reference_outputs_are_pinned(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for ddof in ("0", "1"):
        assert main(["hlm", "--std-ddof", ddof, "-o", str(out / f"report{ddof}.json"),
                     "--heatmap-csv", str(out / f"heatmap{ddof}.csv"),
                     "--heatmap-svg", str(out / f"heatmap{ddof}.svg")]) == 0
    assert main(["transfer", "--cube", write_reference_transfer_cube(tmp_path),
                 "-o", str(out / "transfer.json"), "--csv", str(out / "transfer.csv")]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == PINNED_DIGESTS


class TestConvergeCommand:
    def write_log(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("step,value\n1,0.5\n2,0.9\n3,0.9\n4,0.9\n")
        return str(path)

    def test_with_flag(self, tmp_path):
        log = self.write_log(tmp_path)
        out = tmp_path / "conv.json"
        assert main(["converge", "--log", log, "--higher-is-better", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["ratio"] == pytest.approx(0.5)
        assert data["convergent_step"] == 2

    def test_with_manifest(self, tmp_path):
        log = self.write_log(tmp_path)
        manifest = tmp_path / "run.json"
        manifest.write_text('{"higher_is_better": true}\n')
        out = tmp_path / "conv.json"
        assert main(["converge", "--log", log, "--manifest", str(manifest),
                     "-o", str(out), "--validate"]) == 0
        assert json.loads(out.read_text())["ratio"] == pytest.approx(0.5)

    def test_direction_required(self, tmp_path, capsys):
        log = self.write_log(tmp_path)
        assert main(["converge", "--log", log, "-o", str(tmp_path / "x.json")]) == 2
        assert "direction" in capsys.readouterr().err

    def test_epsilon_flag(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("step,value\n1,300\n2,200\n3,199.9\n")
        out = tmp_path / "conv.json"
        assert main(["converge", "--log", str(path), "--lower-is-better",
                     "--epsilon", "0.0001", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["ratio"] == pytest.approx(1.0)


class TestTransferCommand:
    def test_synthetic_cube(self, tmp_path):
        cube = write_transfer_cube(tmp_path)
        out = tmp_path / "matrix.json"
        out_csv = tmp_path / "matrix.csv"
        assert main(["transfer", "--cube", cube, "-o", str(out),
                     "--csv", str(out_csv), "--validate"]) == 0
        data = json.loads(out.read_text())
        assert data["group_count"] == 2
        for ev in ("easy", "medium", "hard"):
            total = sum(data["matrix"][tr][ev] for tr in ("easy", "medium", "hard"))
            assert total == pytest.approx(6.0, abs=1e-9)
        assert out_csv.read_text().splitlines()[0] == "train_level,easy,medium,hard"

    def test_idempotent(self, tmp_path):
        cube = write_transfer_cube(tmp_path)
        out = tmp_path / "matrix.json"
        run_twice_and_compare(["transfer", "--cube", cube, "-o", str(out)], out)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestReportCommand:
    def test_renders_both_svgs(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["hlm", "-o", str(report)]) == 0
        log = tmp_path / "log.csv"
        log.write_text("step,value\n1,0.5\n2,0.7\n3,0.9\n")
        heatmap = tmp_path / "heatmap.svg"
        curves = tmp_path / "curves.svg"
        assert main(["report", "--hlm-report", str(report), "--heatmap-out", str(heatmap),
                     "--curves", str(log), "--labels", "baseline",
                     "--curves-out", str(curves), "--validate"]) == 0
        assert heatmap.read_text().startswith("<svg")
        assert "baseline" in curves.read_text()

    def test_requires_some_work(self, tmp_path, capsys):
        assert main(["report"]) == 2
        assert "nothing to render" in capsys.readouterr().err

    def test_curves_beyond_the_plottable_range_exit_2(self, tmp_path, capsys):
        # the distance between the two values overflows to inf
        log = tmp_path / "log.csv"
        log.write_text("step,value\n1,1e308\n2,-1e308\n")
        out = tmp_path / "curves.svg"
        assert main(["report", "--curves", str(log), "--curves-out", str(out),
                     "--validate"]) == 2
        assert capsys.readouterr().err.startswith("error: ValidationError: curve values beyond ")
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=5),
                    min_size=1, max_size=3))
    def test_no_finite_curve_plots_a_non_finite_number(self, logs):
        series = [(f"s{i}", log) for i, log in enumerate(logs)]
        largest = max(abs(n) for _, points in series for point in points for n in point)
        try:
            text = svg.curves_svg(series)
        except ValidationError:
            assert largest > sys.float_info.max / 4
        else:
            assert "nan" not in text and "inf" not in text


class TestDeterminism:
    def test_random_schedule_reruns_identically(self, tmp_path):
        corpus = write_corpus(tmp_path)
        scores = tmp_path / "scores.jsonl"
        split = tmp_path / "split.json"
        assert main(["score", "--corpus", corpus, "--criterion", "flesch",
                     "-o", str(scores)]) == 0
        assert main(["split", "--scores", str(scores), "-o", str(split)]) == 0
        out = tmp_path / "sched.json"
        run_twice_and_compare(
            ["schedule", "--split", str(split), "--order", "random", "--seed", "7",
             "-o", str(out)],
            out,
        )

    def test_score_rerun_is_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "scores.jsonl"
        run_twice_and_compare(
            ["score", "--corpus", corpus, "--criterion", "flesch", "-o", str(out)], out
        )

    def test_lm_train_reruns_write_identical_model_bytes(self, tmp_path):
        """Two processes, each with its own string hashing, write the same model file: the
        same zlib stream of the same byte planes. Another zlib build may write other bytes
        for the same model, so this compares reruns and pins no digest."""
        corpus, outs = write_corpus(tmp_path), [tmp_path / "a.json", tmp_path / "b.json"]
        for out, seed in zip(outs, ("1", "2")):
            proc = subprocess.run([sys.executable, "-m", "hlmkit", "lm-train", "--corpus", corpus,
                                   "--order", "3", "-o", str(out)], capture_output=True,
                                  text=True, env=dict(_cli_env(), PYTHONHASHSEED=seed))
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["version"] == 6


class TestErrorPaths:
    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["score", "--corpus", str(empty), "--criterion", "flesch",
                     "-o", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "EmptyCorpus" in capsys.readouterr().err

    def test_uid_without_surprisal_source_exit_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code = main(["score", "--corpus", corpus, "--criterion", "uid_sl",
                     "-o", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "MissingSurprisal" in capsys.readouterr().err

    def test_missing_input_exit_3(self, tmp_path, capsys):
        code = main(["score", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--criterion", "flesch", "-o", str(tmp_path / "x.jsonl")])
        assert code == 3
        assert str(tmp_path / "nope.jsonl") in capsys.readouterr().err

    def test_malformed_cube_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "cube.csv"
        bad.write_text("task,model\nx,y\n")
        code = main(["hlm", "--cube", str(bad), "-o", str(tmp_path / "r.json")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2

    def test_uid_sl_with_k_0_exit_2(self, tmp_path, capsys):
        surprisals = tmp_path / "s.jsonl"
        surprisals.write_text(_lines({"id": d["id"], "surprisals": [1.0], "base": "2"}
                                     for d in CORPUS_LINES))
        out = tmp_path / "x.jsonl"
        code = main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "uid_sl",
                     "--surprisals", str(surprisals), "--k", "0", "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: ValidationError: k must be > 0, got 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("criterion, knob, value", [("uid_sl", "k", "inf"),
                                                       ("uid_var", "mu_lang", "nan")])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_a_non_finite_uid_constant_is_refused_by_name(self, valid_inputs, tmp_path, capsys,
                                                          criterion, knob, value, via):
        config = tmp_path / "hlmkit.ini"
        config.write_text(f"[score]\n{knob} = {value}\n")
        setting = {"flag": ["--" + knob.replace("_", "-"), value],
                   "config": ["--config", str(config)]}
        out = tmp_path / "x.jsonl"
        assert main(["score", "--corpus", valid_inputs["CORPUS"], "--criterion", criterion,
                     "--model", valid_inputs["MODEL"], "-o", str(out), *setting[via]]) == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: {knob} must be finite, got {value}\n")
        assert not out.exists()

    def test_k_is_checked_only_where_it_is_used(self, tmp_path):
        # flesch reads no k, as it reads no mu_lang
        out = tmp_path / "x.jsonl"
        assert main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "flesch",
                     "--k", "0", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == len(CORPUS_LINES)

    def test_split_listing_an_id_twice_exit_2(self, tmp_path, capsys):
        split = tmp_path / "split.json"
        split.write_text(json.dumps(dict(SPLIT, easy=["a", "a"], medium=["a"], hard=["b"])))
        out = tmp_path / "schedule.json"
        code = main(["schedule", "--split", str(split), "--order", "random", "--seed", "3",
                     "--validate", "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValidationError: split lists document ids more than once: ['a']\n")
        assert not out.exists()


def _cli_env():
    """The environment of a CLI subprocess: PYTHONPATH holds hlmkit's source alone."""
    env = dict(os.environ, PYTHONPATH=str(Path(hlmkit.__file__).parents[1]))
    env.pop("HLMKIT_CONFIG", None)
    return env


def _run_cli(*argv, flags=()):
    return subprocess.run([sys.executable, *flags, "-m", "hlmkit", *argv],
                          capture_output=True, text=True, env=_cli_env())


def test_runs_on_the_standard_library_alone(tmp_path):
    """``python -S`` leaves site-packages off the path, so training and scoring
    import nothing outside the standard library (``dependencies = []``)."""
    probe = subprocess.run([sys.executable, "-S", "-c", "import pytest"], capture_output=True,
                           env=_cli_env())
    assert probe.returncode != 0, "site-packages is still importable under -S"
    corpus, model = write_corpus(tmp_path), str(tmp_path / "model.json")
    proc = _run_cli("lm-train", "--corpus", corpus, "-o", model, flags=["-S"])
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli("surprisal", "--corpus", corpus, "--model", model,
                    "-o", str(tmp_path / "s.jsonl"), flags=["-S"])
    assert proc.returncode == 0, proc.stderr


GOOD_SCORE = {"criterion": "uid_sl", "higher_is_harder": True}

# one malformed field of the second line of a score file
BAD_SCORE_FIELDS = {
    "harder-string": ("higher_is_harder", "false"),
    "harder-int": ("higher_is_harder", 1),
    "harder-null": ("higher_is_harder", None),
    "value-numeric-string": ("value", "2.5"),
    "value-string": ("value", "x"),
    "value-bool": ("value", True),
    "value-out-of-float-range": ("value", 10 ** 400),
    "value-nan": ("value", float("nan")),
    "value-infinity": ("value", float("inf")),
    "value-minus-infinity": ("value", -float("inf")),
    "id-int": ("id", 5),
    "criterion-list": ("criterion", ["uid_sl"]),
}


@pytest.mark.parametrize("case", sorted(BAD_SCORE_FIELDS))
def test_split_rejects_mistyped_score_fields(valid_inputs, tmp_path, capsys, case):
    field, value = BAD_SCORE_FIELDS[case]
    rows = [dict(GOOD_SCORE, id=f"d{i}", value=float(i)) for i in (1, 2, 3)]
    rows[1][field] = value
    _one_bad_input(valid_inputs, tmp_path, capsys, _lines(rows), "split", "--scores", 2,
                   "error: ParseError: line 2: ")


NEURAL_ROWS = [{"id": d["id"], "score": 1.0, "higher_is_harder": True} for d in CORPUS_LINES]
OUT_OF_RANGE = f"error: ParseError: line {len(CORPUS_LINES)}: 'score' is out of the float range\n"


def test_neural_score_out_of_float_range_exit_2(valid_inputs, tmp_path, capsys):
    neural = _lines(NEURAL_ROWS[:-1] + [dict(NEURAL_ROWS[-1], score=10 ** 400)])
    assert _one_bad_input(valid_inputs, tmp_path, capsys, neural, "score", "--neural-scores", 2,
                          OUT_OF_RANGE) == OUT_OF_RANGE


def test_neural_score_literal_beyond_the_float_range_exit_2(valid_inputs, tmp_path, capsys):
    # a float literal such as 1e400 decodes to inf, not to an error
    neural = _lines(NEURAL_ROWS[:-1]) + _lines(NEURAL_ROWS[-1:]).replace("1.0", "1e400")
    assert _one_bad_input(valid_inputs, tmp_path, capsys, neural, "score", "--neural-scores", 2,
                          OUT_OF_RANGE) == OUT_OF_RANGE


def _set_item(key, index, value):
    def mutate(data):
        data[key][index] = value
    return mutate


def _swap_first_two(key):
    def mutate(data):
        data[key][0], data[key][1] = data[key][1], data[key][0]
    return mutate


def _gaps(values):
    """``values`` gap-coded: the first one, then each one's distance from the one before."""
    return [b - a for a, b in zip([0] + values, values)]


def _add_gram(*gram):
    """Insert ``gram`` with count 5, keeping the grams sorted and the counts above 1 listed."""
    def mutate(data):
        index = {w: i for i, w in enumerate(data["vocab"])}
        packed = 0
        for w in gram:
            packed = packed * len(index) + index[w]
        grams, counts = dump_grams(encode_dump(data)), dump_counts(encode_dump(data))
        i = bisect.bisect(grams, packed)
        grams.insert(i, packed)
        counts.insert(i, 5)
        positions = [j for j, c in enumerate(counts) if c > 1]
        data.update(gaps=_gaps(grams), count_gaps=_gaps(positions),
                    counts=[counts[j] for j in positions])
    return mutate


def _set_count(index, value):
    """List ``value`` as the count of the gram at ``index``, in place of its count."""
    def mutate(data):
        position = range(len(data["gaps"]))[index]
        positions = list(accumulate(data["count_gaps"]))
        i = bisect.bisect_left(positions, position)
        if position in positions:
            data["counts"][i] = value
        else:
            positions.insert(i, position)
            data["counts"].insert(i, value)
        data["count_gaps"] = _gaps(positions)
    return mutate


def _last_gram_at_the_range_end(data):
    """Make the last gram, the sum of the gaps, V ** 2: one past the largest order-2 gram."""
    data["gaps"][-1] += len(data["vocab"]) ** 2 - sum(data["gaps"])


def _text(stream):
    return base64.b64encode(stream).decode()


# Each int list of a model file as one string that the reader must refuse, made from the
# list's byte planes. (Values that int64 bytes cannot hold are cases of MALFORMED_MODELS: one
# beyond int64 is written as its 64-bit pattern, which reads back negative, and a bool, float
# or string item leaves the list a JSON list, where the field's string belongs.)
ENCODING_FAULTS = {
    "bad-base64": lambda planes: "QUJ",  # incorrect padding
    # base64 that a2b_base64 decodes, skipping what it does not expect
    "base64-space": lambda planes: " " + _text(zlib.compress(planes)),
    "base64-newline": lambda planes: _text(zlib.compress(planes)) + "\n",
    "base64-non-ascii": lambda planes: "\u00e9" + _text(zlib.compress(planes)),
    "bad-zlib": lambda planes: _text(planes),
    "truncated-zlib": lambda planes: _text(zlib.compress(planes)[:-1]),
    "bytes-after-the-stream": lambda planes: _text(zlib.compress(planes) + b"\0"),
    "two-streams": lambda planes: _text(zlib.compress(planes) * 2),
    "length-not-a-multiple-of-8": lambda planes: _text(zlib.compress(planes + b"\0")),
    "length-short-of-an-item": lambda planes: _text(zlib.compress(planes[:-1])),
}


def _encoding_fault(key, fault):
    """Write field ``key`` as ``ENCODING_FAULTS[fault]`` of its byte planes."""
    def mutate(data):
        data[key] = ENCODING_FAULTS[fault](int_planes(data[key]))
    return mutate


# (order of lm-train's starting model file, change that makes it malformed)
MALFORMED_MODELS = {
    "missing-counts": (2, lambda d: d.pop("counts")),
    "order-not-int": (2, lambda d: d.update(order="x")),
    "order-float": (2, lambda d: d.update(order=2.0)),
    "discount-string": (2, lambda d: d.update(discount="0.75")),
    "version-string": (2, lambda d: d.update(version="3")),
    "unknown-field": (2, lambda d: d.update(extra=5)),
    "counts-not-list": (2, lambda d: d.update(counts={"the": 1})),
    # the last count, where the v3-count-* cases change the first
    "count-negative": (2, _set_count(-1, -5)),
    "count-zero": (2, _set_count(-1, 0)),
    "count-bool": (2, _set_count(-1, True)),
    "count-float": (2, _set_count(-1, 2.7)),
    "count-string": (2, _set_count(-1, "3")),
    "v4-missing-gaps": (2, lambda d: d.pop("gaps")),
    "v4-gaps-sum-to-the-range-end": (2, _last_gram_at_the_range_end),
    # values the int64 arrays cannot hold: a gap, or a sum of gaps that each fit
    "v4-gap-beyond-int64": (2, _set_item("gaps", -1, 2 ** 63)),
    "v4-gaps-sum-past-int64": (2, lambda d: d["gaps"].__setitem__(slice(0, 2), [2 ** 62] * 2)),
    "v3-count-beyond-int64": (2, _set_count(-1, 2 ** 63)),
    "v4-first-gap-negative": (2, _set_item("gaps", 0, -1)),
    "v4-gap-float": (2, _set_item("gaps", 0, 0.0)),
    # a later gram below the one before it, or equal to it
    "v4-gap-negative": (2, _set_item("gaps", 1, -1)),
    "v4-gap-zero": (2, _set_item("gaps", 1, 0)),
    "v3-count-zero": (2, _set_count(0, 0)),
    "v3-count-negative": (2, _set_count(0, -2)),
    "v3-count-bool": (2, _set_count(0, True)),
    "v3-vocab-unsorted": (2, _swap_first_two("vocab")),
    "v3-vocab-duplicate": (2, lambda d: d["vocab"].__setitem__(1, d["vocab"][0])),
    "v3-vocab-not-strings": (2, _set_item("vocab", -1, 7)),
    "v3-missing-pad": (2, lambda d: d["vocab"].remove("<unk>")),
    "v3-length-mismatch": (2, lambda d: d["counts"].append(2)),
    "v3-gram-predicts-bos": (2, _add_gram("the", "<s>")),
    # the start pad predicted after the start-pad history itself
    "v2-gram-predicts-bos": (2, _add_gram("<s>", "<s>")),
    "unigram-predicts-eos": (1, _add_gram("</s>")),
    # histories training never writes: </s>, or <s> after a word
    "order-1-file-read-as-order-2": (1, lambda d: d.update(order=2)),
    "history-bos-after-word": (3, _add_gram("the", "<s>", "cat")),
    "history-holds-eos": (3, _add_gram("cat", "</s>", "the")),
    # the order-1 file, whose grams are single words
    "v1-vocab-not-list": (1, lambda d: d.update(vocab=5)),
    "v1-missing-vocab": (1, lambda d: d.pop("vocab")),
    "v1-count-zero": (1, _set_count(0, 0)),
    "order-4": (2, lambda d: d.update(order=4)),
    # the counts above 1 and their gap-coded positions
    "v5-missing-count-gaps": (2, lambda d: d.pop("count_gaps")),
    "v5-count-gaps-not-list": (2, lambda d: d.update(count_gaps=3)),
    "v5-count-gap-float": (2, lambda d: d.update(count_gaps=[0.0], counts=[2])),
    "v5-count-one": (2, _set_count(-1, 1)),
    "v5-count-gap-beyond-int64": (2, lambda d: d.update(count_gaps=[2 ** 63], counts=[2])),
    "v5-first-count-gap-negative": (2, lambda d: d.update(count_gaps=[-1], counts=[2])),
    # a later position equal to the one before it, or below it
    "v5-count-gap-zero": (2, lambda d: d.update(count_gaps=[1, 0], counts=[2, 2])),
    "v5-count-gap-negative": (2, lambda d: d.update(count_gaps=[2, -1], counts=[2, 2])),
    # a position at the number of grams, one past the last gram
    "v5-count-position-at-the-gram-count": (
        2, lambda d: d.update(count_gaps=[len(d["gaps"])], counts=[2])),
    "v5-count-gaps-sum-to-the-gram-count": (
        2, lambda d: d.update(count_gaps=[1, len(d["gaps"]) - 1], counts=[2, 2])),
    "v5-more-count-gaps-than-counts": (2, lambda d: d["count_gaps"].append(1)),
    "v5-counts-without-count-gaps": (2, lambda d: d.update(count_gaps=[], counts=[2])),
    # each list of ints as one string; count_gaps and counts list at most one item per gram
    **{f"v6-{key.replace('_', '-')}-{fault}": (2, _encoding_fault(key, fault))
       for key in ("gaps", "count_gaps", "counts") for fault in ENCODING_FAULTS},
    "v6-count-gaps-beyond-one-per-gram": (2, lambda d: d.update(
        count_gaps=[0] + [1] * len(d["gaps"]), counts=[2] * (len(d["gaps"]) + 1))),
}


class TestMalformedModel:
    """A malformed model file exits 2 with a one-line error, never a traceback."""

    @staticmethod
    def _run_surprisal(tmp_path, model_path):
        return _run_cli("surprisal", "--corpus", write_corpus(tmp_path),
                        "--model", str(model_path), "-o", str(tmp_path / "s.jsonl"))

    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        """lm-train's model file of order 1, 2 and 3, by order."""
        tmp = tmp_path_factory.mktemp("model")
        out = {}
        for order in (1, 2, 3):
            path = tmp / f"model{order}.json"
            assert main(["lm-train", "--corpus", write_corpus(tmp), "--order", str(order),
                         "-o", str(path)]) == 0
            out[order] = json.loads(path.read_text())
        return out

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_valid_dump_scores(self, tmp_path, dumps, order):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dumps[order]))
        proc = self._run_surprisal(tmp_path, path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_exit_2_without_traceback(self, tmp_path, dumps, case):
        order, mutate = MALFORMED_MODELS[case]
        # a copy, each int list decoded to a list and encoded again once changed
        data = decode_dump(json.loads(json.dumps(dumps[order])))
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(encode_dump(data)))
        proc = self._run_surprisal(tmp_path, bad)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "ValidationError" in proc.stderr or "ParseError" in proc.stderr
        # the file is refused when it is loaded, not at the first score
        with pytest.raises((hlmkit.ValidationError, hlmkit.ParseError)):
            hlmkit.load_model(bad)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_older_version_exit_2(self, tmp_path, version):
        """Versions 1 and 2 stored nested ``[history, [[word, count], ...]]``
        tables, version 3 the packed grams themselves, version 4 their gaps
        with one count per gram, and version 5 the counts above 1 and their
        positions' gaps, each list of ints a JSON list; they are no longer read,
        and have to be retrained."""
        table = [[[], [["cat", 1], ["the", 2]]]]
        dump = {"format": "hlmkit-ngram", "version": version, "order": 1, "discount": 0.75,
                "counts": table}
        if version == 1:  # a table per order, and the vocabulary
            dump.update(counts=[[1, table]], vocab=["</s>", "<s>", "<unk>", "cat", "the"])
        if version == 3:  # the sorted vocabulary, and the grams "cat" and "the"
            dump.update(vocab=["</s>", "<s>", "<unk>", "cat", "the"], grams=[3, 4],
                        counts=[1, 2])
        if version == 4:  # the same grams as gaps
            dump.update(vocab=["</s>", "<s>", "<unk>", "cat", "the"], gaps=[3, 1],
                        counts=[1, 2])
        if version == 5:  # and the count above 1, at the gap-coded position 1
            dump.update(vocab=["</s>", "<s>", "<unk>", "cat", "the"], gaps=[3, 1],
                        count_gaps=[1], counts=[2])
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dump))
        corpus = write_corpus(tmp_path)
        for argv in (["surprisal", "--corpus", corpus],
                     ["score", "--corpus", corpus, "--criterion", "uid_sl"]):
            proc = _run_cli(*argv, "--model", str(path), "-o", str(tmp_path / "out"))
            assert proc.returncode == 2, proc.stderr
            assert f"unsupported model version {version}: retrain" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert not (tmp_path / "out").exists()
        with pytest.raises(hlmkit.ValidationError, match="unsupported model version"):
            hlmkit.load_model(path)

    def test_non_utf8_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "hlmkit-ngram\xff"}')
        proc = self._run_surprisal(tmp_path, bad)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


# Every documented config key: (argv without -o, with knob_inputs placeholders;
# section; key; value; the flag argv that gives that value; another value)
_SCORE_UID_SL = ["score", "--corpus", "CORPUS", "--criterion", "uid_sl", "--model", "MODEL"]
KNOBS = [
    (_SCORE_UID_SL, "score", "k", "2.0", ["--k", "2.0"], "3.0"),
    (["score", "--corpus", "CORPUS", "--criterion", "uid_var", "--model", "MODEL"],
     "score", "mu_lang", "5.0", ["--mu-lang", "5.0"], "1.0"),
    (_SCORE_UID_SL, "score", "base", "e", ["--base", "e"], "2"),
    (_SCORE_UID_SL, "score", "per_sentence", "yes", ["--per-sentence"], "no"),
    (["surprisal", "--corpus", "CORPUS", "--model", "MODEL"],
     "surprisal", "base", "e", ["--base", "e"], "2"),
    (["surprisal", "--corpus", "CORPUS", "--model", "MODEL"],
     "surprisal", "per_sentence", "yes", ["--per-sentence"], "no"),
    (["lm-train", "--corpus", "CORPUS"], "lm-train", "order", "3", ["--order", "3"], "1"),
    (["lm-train", "--corpus", "CORPUS"], "lm-train", "discount", "0.5", ["--discount", "0.5"],
     "0.25"),
    (["hlm"], "hlm", "std_ddof", "1", ["--std-ddof", "1"], "0"),
    # without a seed, a random schedule is refused
    (["schedule", "--split", "SPLIT", "--order", "random"], "schedule", "seed", "7",
     ["--seed", "7"], "8"),
    (["converge", "--log", "LOG", "--higher-is-better"], "converge", "epsilon_rel", "0.1",
     ["--epsilon", "0.1"], "0.2"),
]

# A config value refused before any input is opened: (argv without -o, with MISSING for the
# missing input; section; key; value; the error after the key)
_SCORE_FLESCH = ["score", "--corpus", "MISSING", "--criterion", "flesch"]
CONFIG_FAULTS = [
    (_SCORE_FLESCH, "score", "k", "abc", "could not convert string to float: 'abc'"),
    (_SCORE_FLESCH, "defaults", "per_sentence", "maybe", "Not a boolean: maybe"),
    (_SCORE_FLESCH, "flesch", "base", "abc", "could not convert string to float: 'abc'"),
    (["lm-train", "--corpus", "MISSING"], "lm-train", "order", "5",
     "invalid choice: 5 (choose from 1, 2, 3)"),
    (["hlm", "--cube", "MISSING"], "hlm", "std_ddof", "2",
     "invalid choice: 2 (choose from 0, 1)"),
    (_SCORE_FLESCH, "score", "base", "7", "invalid choice: '7' (choose from '2', 'e')"),
    (["surprisal", "--corpus", "MISSING", "--model", "MISSING"], "defaults", "base", "7",
     "invalid choice: '7' (choose from '2', 'e')"),
]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        corpus = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        assert main(["lm-train", "--corpus", corpus, "-o", str(model)]) == 0
        config = tmp_path / "hlmkit.ini"
        config.write_text("[score]\nk = 2.0\n")

        def uid_values(extra):
            out = tmp_path / "out.jsonl"
            assert main(["score", "--corpus", corpus, "--criterion", "uid_sl",
                         "--model", str(model), "-o", str(out)] + extra) == 0
            return [json.loads(l)["value"] for l in out.read_text().splitlines()]

        plain = uid_values([])
        via_config = uid_values(["--config", str(config)])
        flag_wins = uid_values(["--config", str(config), "--k", "1.25"])
        assert via_config != plain
        assert flag_wins == plain

    def test_env_var_config(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        assert main(["lm-train", "--corpus", corpus, "-o", str(model)]) == 0
        config = tmp_path / "hlmkit.ini"
        config.write_text("[defaults]\nk = 3.0\n")
        out_env = tmp_path / "env.jsonl"
        monkeypatch.setenv("HLMKIT_CONFIG", str(config))
        assert main(["score", "--corpus", corpus, "--criterion", "uid_sl",
                     "--model", str(model), "-o", str(out_env)]) == 0
        monkeypatch.delenv("HLMKIT_CONFIG")
        out_plain = tmp_path / "plain.jsonl"
        assert main(["score", "--corpus", corpus, "--criterion", "uid_sl",
                     "--model", str(model), "-o", str(out_plain)]) == 0
        assert out_env.read_bytes() != out_plain.read_bytes()

    @pytest.mark.parametrize("text,error", [
        ("[score]\nk = abc\n", "ValidationError: config [score] k: "),
        ("[flesch]\nbase = abc\n", "ValidationError: config [flesch] base: "),
        ("[defaults]\nper_sentence = maybe\n", "ValidationError: config [defaults] per_sentence: "),
        ("k = 1.5\n", "ParseError: invalid config file: "),
        ("[score]\nk = 1.5\nk = 2.0\n", "ParseError: invalid config file: "),
    ], ids=["cast-score", "cast-flesch", "cast-bool", "no-section", "duplicate-option"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, text, error):
        config = tmp_path / "hlmkit.ini"
        config.write_text(text)
        code = main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "flesch",
                     "-o", str(tmp_path / "x.jsonl"), "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize("argv, section, key, value, error", CONFIG_FAULTS,
                             ids=[f"{case[1]}-{case[2]}-{case[3]}" for case in CONFIG_FAULTS])
    def test_config_is_checked_before_any_input(self, tmp_path, capsys,
                                                argv, section, key, value, error):
        """Every config value is read and checked, its cast and its flag's choices, before
        the missing input is opened."""
        config = tmp_path / "hlmkit.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "x.jsonl"
        missing = str(tmp_path / "missing")
        code = main([missing if a == "MISSING" else a for a in argv]
                    + ["-o", str(out), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2 and not out.exists() and captured.out == ""
        assert captured.err == f"error: ValidationError: config [{section}] {key}: {error}\n"

    def test_flesch_keys(self, tmp_path):
        """The [flesch] keys set the coefficients of every flesch score; unset ones keep theirs."""
        config = tmp_path / "hlmkit.ini"
        config.write_text("[flesch]\nbase = 100\nsyllables_per_word = 80\n")
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "flesch",
                     "-o", str(out), "--config", str(config)]) == 0
        cfg = FleschConfig(base=100.0, syllables_per_word=80.0)
        got = [json.loads(line)["value"] for line in out.read_text().splitlines()]
        assert got == [flesch_score(text_stats(d["text"]), cfg) for d in CORPUS_LINES]
        assert got != [flesch_score(text_stats(d["text"])) for d in CORPUS_LINES]

    def test_missing_config_file_exit_3(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code = main(["score", "--corpus", corpus, "--criterion", "flesch",
                     "-o", str(tmp_path / "x.jsonl"), "--config",
                     str(tmp_path / "nope.ini")])
        assert code == 3

    @pytest.fixture(scope="class")
    def knob_inputs(self, tmp_path_factory):
        """A corpus, its order-2 model, a split of it and a training log."""
        tmp = tmp_path_factory.mktemp("knobs")
        paths = {"CORPUS": write_corpus(tmp), "MODEL": str(tmp / "model.json"),
                 "SCORES": str(tmp / "scores.jsonl"), "SPLIT": str(tmp / "split.json"),
                 "LOG": str(tmp / "log.csv")}
        assert main(["lm-train", "--corpus", paths["CORPUS"], "-o", paths["MODEL"]]) == 0
        assert main(["score", "--corpus", paths["CORPUS"], "--criterion", "flesch",
                     "-o", paths["SCORES"]]) == 0
        assert main(["split", "--scores", paths["SCORES"], "-o", paths["SPLIT"]]) == 0
        Path(paths["LOG"]).write_text("step,value\n1,0.5\n2,0.8\n3,0.95\n4,1.0\n")
        return paths

    @pytest.mark.parametrize("argv, section, key, value, flag, other", KNOBS,
                             ids=[f"{case[1]}-{case[2]}" for case in KNOBS])
    def test_each_documented_key(self, knob_inputs, tmp_path, monkeypatch,
                                 argv, section, key, value, flag, other):
        """``[command] key`` gives the bytes of its flag, and differs from no
        config; ``[command]`` beats ``[defaults]``, and the flag beats both."""
        monkeypatch.delenv("HLMKIT_CONFIG", raising=False)
        out = tmp_path / "out"

        def output(config=None, flags=()):
            args = [knob_inputs.get(a, a) for a in argv] + ["-o", str(out), *flags]
            if config is not None:
                path = tmp_path / "hlmkit.ini"
                path.write_text(config)
                args += ["--config", str(path)]
            out.unlink(missing_ok=True)
            code = main(args)
            assert code in (0, 2)
            return out.read_bytes() if code == 0 else None

        via_command = output(f"[{section}]\n{key} = {value}\n")
        assert via_command is not None
        assert via_command == output(flags=flag)
        assert via_command != output()
        assert via_command != output(f"[defaults]\n{key} = {other}\n")
        assert via_command == output(f"[defaults]\n{key} = {other}\n[{section}]\n{key} = {value}\n")
        both = f"[defaults]\n{key} = {other}\n[{section}]\n{key} = {other}\n"
        assert via_command == output(both, flags=flag)


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "scores.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "hlmkit", "score", "--corpus", corpus,
             "--criterion", "flesch", "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def _lines(objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def _log(tmp):
    log = tmp / "log.csv"
    log.write_text("step,value\n1,0.5\n2,0.9\n")
    return str(log)


def _file(tmp, name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)


SPLIT = {"criterion": "flesch", "boundaries": [50.0, 70.0],
         "easy": ["d1", "d2"], "medium": ["d3", "d4"], "hard": ["d5", "d6"]}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid file for each placeholder of FULL_ARGV."""
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {"CORPUS": write_corpus(tmp), "CUBE": write_transfer_cube(tmp), "LOG": _log(tmp)}
    for name, file in (("MODEL", "model.json"), ("SURPRISALS", "s.jsonl"),
                       ("SCORES", "scores.jsonl"), ("SPLIT", "split.json"),
                       ("REPORT", "report.json"), ("NEURAL", "neural.jsonl"),
                       ("MANIFEST", "manifest.json"), ("CONFIG", "config.ini")):
        paths[name] = str(tmp / file)
    assert main(["lm-train", "--corpus", paths["CORPUS"], "-o", paths["MODEL"]]) == 0
    assert main(["surprisal", "--corpus", paths["CORPUS"], "--model", paths["MODEL"],
                 "-o", paths["SURPRISALS"]]) == 0
    assert main(["score", "--corpus", paths["CORPUS"], "--criterion", "flesch",
                 "-o", paths["SCORES"]]) == 0
    assert main(["split", "--scores", paths["SCORES"], "-o", paths["SPLIT"]]) == 0
    assert main(["hlm", "-o", paths["REPORT"]]) == 0
    Path(paths["NEURAL"]).write_text(_lines(NEURAL_ROWS))
    Path(paths["MANIFEST"]).write_text('{"higher_is_better": true}\n')
    Path(paths["CONFIG"]).write_text("[defaults]\nbase = 2\n")
    return paths


# Each subcommand with every input flag it has at a valid file, named by its
# valid_inputs placeholder, and OUT, OUT2 and OUT3 for its outputs.
FULL_ARGV = {
    "score": ["score", "--corpus", "CORPUS", "--criterion", "uid_sl", "--model", "MODEL",
              "--surprisals", "SURPRISALS", "--neural-scores", "NEURAL", "-o", "OUT"],
    "split": ["split", "--scores", "SCORES", "-o", "OUT"],
    "lm-train": ["lm-train", "--corpus", "CORPUS", "-o", "OUT"],
    "surprisal": ["surprisal", "--corpus", "CORPUS", "--model", "MODEL", "-o", "OUT"],
    "hlm": ["hlm", "--cube", "CUBE", "-o", "OUT", "--heatmap-csv", "OUT2", "--heatmap-svg", "OUT3"],
    "schedule": ["schedule", "--split", "SPLIT", "--order", "easy_to_hard", "-o", "OUT"],
    "converge": ["converge", "--log", "LOG", "--manifest", "MANIFEST", "--higher-is-better",
                 "-o", "OUT"],
    "transfer": ["transfer", "--cube", "CUBE", "--csv", "OUT2", "-o", "OUT"],
    "report": ["report", "--hlm-report", "REPORT", "--heatmap-out", "OUT",
               "--curves", "LOG", "LOG", "--curves-out", "OUT2"],
}
INPUT_FLAGS = ("--corpus", "--model", "--surprisals", "--neural-scores", "--scores", "--cube",
               "--split", "--log", "--manifest", "--hlm-report", "--curves", "--config")
# (command, input flag, placeholder of the file the flag names) of every input FULL_ARGV sets
INPUTS = [(command, flag, kind) for command, argv in FULL_ARGV.items()
          for flag, kind in pairwise(argv + ["--config", "CONFIG"]) if flag in INPUT_FLAGS]
MISSING_INPUTS = [(command, flag) for command, flag, _ in INPUTS]


def _full_argv(command, inputs, out_dir, flags=()):
    """FULL_ARGV of ``command`` with ``--config`` and ``flags``, its placeholders filled."""
    paths = dict(inputs, **{out: str(out_dir / out.lower()) for out in ("OUT", "OUT2", "OUT3")})
    return [paths.get(arg, arg) for arg in FULL_ARGV[command] + ["--config", "CONFIG", *flags]]


def _fails(argv, capsys, code, prefix, *dirs):
    """``main(argv)`` exits ``code`` with an error that starts with ``prefix``
    and leaves each of ``dirs`` holding the files it held. Returns the error."""
    held = [sorted(os.listdir(d)) for d in dirs]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err
    assert [sorted(os.listdir(d)) for d in dirs] == held
    return err


def _one_bad_input(inputs, work, capsys, content, command, flag, code, prefix):
    """Run FULL_ARGV of ``command`` with ``work / "bad"`` at ``flag``, a file of
    ``content`` (text or bytes; no file if it is None), and its outputs in a new
    ``work / "out"``: it must exit ``code`` with an error that starts with
    ``prefix``, write no output and leave every input as it was."""
    bad, out = work / "bad", work / "out"
    out.mkdir(parents=True)
    if content is not None:
        bad.write_bytes(content.encode() if isinstance(content, str) else content)
    argv = _full_argv(command, inputs, out)
    argv[argv.index(flag) + 1] = str(bad)
    return _fails(argv, capsys, code, prefix, out, work, Path(inputs["CORPUS"]).parent)


def _unused_inputs_warning(command):
    """FULL_ARGV's score gives uid_sl a model and two inputs it does not use, and is warned so."""
    return (pytest.warns(UserWarning, match="^--criterion uid_sl does not use --surprisals, "
                         "--neural-scores$") if command == "score" else nullcontext())


@pytest.mark.parametrize("command", sorted(FULL_ARGV))
def test_every_input_flag_at_once_exit_0(valid_inputs, tmp_path, command):
    # so that a fault case below fails for its one bad file alone
    with _unused_inputs_warning(command):
        assert main(_full_argv(command, valid_inputs, tmp_path, ["--validate"])) == 0
    assert os.listdir(tmp_path)


@pytest.mark.parametrize("criterion, flags, unused", [
    ("uid_sl", ["--model", "--surprisals", "--neural-scores"], "--surprisals, --neural-scores"),
    ("uid_var", ["--surprisals", "--neural-scores"], "--neural-scores"),
    ("flesch", ["--model", "--surprisals", "--neural-scores"],
     "--model, --surprisals, --neural-scores"),
    ("neural", ["--model", "--neural-scores"], "--model"),
    ("uid_var", ["--surprisals"], None),
    ("neural", ["--neural-scores"], None),
])
def test_score_names_each_unused_input_in_one_warning(valid_inputs, tmp_path, criterion, flags,
                                                      unused):
    """score reads and checks every input it is given; one warning line names those its
    criterion does not use (a model wins over imported surprisals)."""
    placeholder = {"--model": "MODEL", "--surprisals": "SURPRISALS", "--neural-scores": "NEURAL"}
    proc = _run_cli("score", "--corpus", valid_inputs["CORPUS"], "--criterion", criterion,
                    "-o", str(tmp_path / "scores.jsonl"),
                    *[arg for flag in flags for arg in (flag, valid_inputs[placeholder[flag]])])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (f"warning: UserWarning: --criterion {criterion} does not use {unused}\n"
                           if unused else "")


@pytest.mark.parametrize("command, flag", MISSING_INPUTS)
def test_missing_input_exit_3_and_writes_nothing(valid_inputs, tmp_path, capsys, command, flag):
    """Each input is refused by the reader that opens it, with the OS message
    naming its path, before any output is written."""
    err = _one_bad_input(valid_inputs, tmp_path, capsys, None, command, flag, 3, "error: ")
    assert str(tmp_path / "bad") in err


@pytest.mark.parametrize("command", sorted(FULL_ARGV))
def test_non_utf8_input_exit_2(valid_inputs, tmp_path, capsys, command):
    # at each input of the command in turn
    for flag in [flag for name, flag, _ in INPUTS if name == command]:
        _one_bad_input(valid_inputs, tmp_path / flag, capsys, b"step,value\n1,0.5\xff\n",
                       command, flag, 2, "error: ParseError: ")


CUBE_HEADER = ",".join(CUBE_COLUMNS) + "\n"

# A malformed file of one kind of input, named by its FULL_ARGV placeholder,
# which every command that reads that kind refuses. A JSON value nested deeper
# than the decoder can follow is malformed in every kind but CONFIG, where a
# line of brackets is a valid INI section header.
DEEP = "[" * 200_000 + "]" * 200_000 + "\n"
MALFORMED_INPUTS = {
    **{f"deep-{kind.lower()}": (DEEP, kind) for _, _, kind in INPUTS if kind != "CONFIG"},
    "boundaries-number": (json.dumps(dict(SPLIT, boundaries=3)), "SPLIT"),
    "boundaries-string": (json.dumps(dict(SPLIT, boundaries=["x", 2])), "SPLIT"),
    "boundaries-nan": (json.dumps(dict(SPLIT, boundaries=[float("nan"), float("inf")])), "SPLIT"),
    "boundaries-1e400": (json.dumps(dict(SPLIT, boundaries=[1.0, -1.0])).replace("1.0", "1e400"),
                         "SPLIT"),
    "easy-string": (json.dumps(dict(SPLIT, easy="abc")), "SPLIT"),
    "easy-number": (json.dumps(dict(SPLIT, easy=[1])), "SPLIT"),
    "surprisal-base-number": (
        _lines({"id": d["id"], "surprisals": [1.0, 2.0], "base": 2 if i == 2 else "2"}
               for i, d in enumerate(CORPUS_LINES)), "SURPRISALS"),
    "neural-id-number": (_lines(NEURAL_ROWS + [dict(NEURAL_ROWS[0], id=5)]), "NEURAL"),
    "report-cell-number": (
        json.dumps({"i_model": {"m": 0.5}, "i_task": {"t": 0.5}, "i_criteria": {"c": 0.5},
                    "std_ddof": 0, "cells": [1]}), "REPORT"),
    "report-index-nan": (
        json.dumps({"i_model": {"m": float("nan")}, "i_task": {"t": 0.5},
                    "i_criteria": {"c": 0.5}, "std_ddof": 0, "cells": []}), "REPORT"),
    "report-index-1e400": (
        '{"i_model": {"m": 1e400}, "i_task": {"t": 0.5}, "i_criteria": {"c": 0.5}, '
        '"std_ddof": 0, "cells": []}', "REPORT"),
    "manifest-bool-string": ('{"higher_is_better": "false"}', "MANIFEST"),
    "cube-value-nan": (CUBE_HEADER + "t,c,m,easy,full,accuracy,nan,true\n", "CUBE"),
    "cube-row-of-7-fields": (CUBE_HEADER + "t,c,m,easy,full,accuracy,0.9\n", "CUBE"),
    "log-field-too-long": ("step,value\n1," + "9" * 200_000 + "\n", "LOG"),
    # an integer step the float axis of the curves plot cannot hold
    "log-step-too-big": ("step,value\n1,0.5\n1" + "0" * 400 + ",0.9\n", "LOG"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_2(valid_inputs, tmp_path, capsys, case):
    content, kind = MALFORMED_INPUTS[case]
    for command, flag in [(command, flag) for command, flag, name in INPUTS if name == kind]:
        _one_bad_input(valid_inputs, tmp_path / command / flag, capsys, content, command, flag,
                       2, "error: ParseError: ")


def _full_rows(task, criterion="c", model="m"):
    """The three full rows of one complete cube group."""
    return "".join(f"{task},{criterion},{model},{tr},full,accuracy,{v},true\n"
                   for tr, v in zip(("easy", "medium", "hard"), (0.9, 0.8, 0.7)))


# a cube whose cell i is (t_i, c_i, m_i): 50 cells on a 50 x 50 x 50 grid
DIAGONAL_CUBE = CUBE_HEADER + "".join(_full_rows(f"t{i:02d}", f"c{i:02d}", f"m{i:02d}")
                                      for i in range(50))
TWO_FULL_ROWS = "t,c,m,easy,full,accuracy,0.9,true\nt,c,m,medium,full,accuracy,0.8,true\n"


def _report(cells, models=None, **index_dicts):
    """A report file of (task, criterion, model, value) cells, whose index dicts
    name the cells' tasks, criteria and ``models`` at 0.5, unless ``index_dicts``
    gives one of them."""
    def index(names):
        return dict.fromkeys(sorted(set(names)), 0.5)
    return json.dumps({
        "i_task": index(c[0] for c in cells), "i_criteria": index(c[1] for c in cells),
        "i_model": index(models or [c[2] for c in cells]), "std_ddof": 0,
        "cells": [dict(zip(("task", "criterion", "model", "value"), c)) for c in cells],
        **index_dicts})


def _scores(*rows):
    """A score file of (id, criterion, value, higher_is_harder) rows."""
    return _lines(dict(zip(("id", "criterion", "value", "higher_is_harder"), r)) for r in rows)


# Inputs that are well formed but refused, each a file's content at one input of
# a command's FULL_ARGV: a heatmap with far more grid positions than cells,
# report cells the index dicts do not match, a label that XML cannot hold, or
# records that parse but break a rule of their file (an empty cube, a cube with
# no complete full-row triplet, a report with no cells, a repeated row or id, a
# mixed direction, an unknown criterion, three boundaries, a non-finite log value)
REFUSED_INPUTS = {
    "hlm-heatmap-of-diagonal-cube": (DIAGONAL_CUBE, "hlm", "--cube"),
    "report-no-cells": (_report([]), "report", "--hlm-report"),
    "report-repeated-cell-key": (
        _report([("t", "c", "m", 0.9), ("t", "c", "m", -0.9)]), "report", "--hlm-report"),
    "report-cell-outside-the-index": (
        _report([("t", "c", "m", 0.9), ("t", "c", "ghost", 0.5)], models=["m"]),
        "report", "--hlm-report"),
    "report-index-without-a-cell": (
        _report([("t", "c", "m", 0.5)], i_model={"m": 0.5, "ghost": -0.7}),
        "report", "--hlm-report"),
    "report-index-not-the-mean": (
        _report([("t", "c", "m", 0.9)], i_model={"m": -0.9}, i_task={"t": 0.9},
                i_criteria={"c": 0.9}), "report", "--hlm-report"),
    "hlm-heatmap-svg-of-a-control-character": (CUBE_HEADER + _full_rows("a\x01b"), "hlm", "--cube"),
    "hlm-header-only-cube": (CUBE_HEADER, "hlm", "--cube"),
    "hlm-eval-only-cube": (
        CUBE_HEADER + "t,c,m,easy,easy,accuracy,0.9,true\nt,c,m,medium,easy,accuracy,0.8,true\n",
        "hlm", "--cube"),
    # the eval row keeps the group in the cube, so only the missing hard row refuses it
    "hlm-two-of-three-full-rows": (
        CUBE_HEADER + TWO_FULL_ROWS + "t,c,m,easy,easy,accuracy,0.9,true\n", "hlm", "--cube"),
    # two full rows and no eval row: each command names what the cube lacks for it
    "hlm-two-full-rows-only": (CUBE_HEADER + TWO_FULL_ROWS, "hlm", "--cube"),
    "transfer-two-full-rows-only": (CUBE_HEADER + TWO_FULL_ROWS, "transfer", "--cube"),
    "hlm-repeated-full-row": (
        CUBE_HEADER + TWO_FULL_ROWS + "t,c,m,easy,full,accuracy,0.7,true\n", "hlm", "--cube"),
    "hlm-direction-changes-within-group": (
        CUBE_HEADER + TWO_FULL_ROWS + "t,c,m,hard,easy,perplexity,30.0,false\n", "hlm", "--cube"),
    # three metrics of one direction would score as one triplet, "hard best"
    "hlm-metric-changes-within-group": (
        CUBE_HEADER + "t,c,m,easy,full,accuracy,0.9,true\nt,c,m,medium,full,f1,0.8,true\n"
        "t,c,m,hard,full,bleu,30.5,true\n", "hlm", "--cube"),
    "transfer-repeated-eval-level-row": (
        CUBE_HEADER + "t,c,m,easy,hard,accuracy,0.9,true\n" * 2, "transfer", "--cube"),
    "score-neural-id-twice": (_lines(NEURAL_ROWS + NEURAL_ROWS[:1]), "score", "--neural-scores"),
    "split-neural-scores-of-mixed-direction": (
        _scores(("a", "neural", 1.0, True), ("b", "neural", 2.0, False), ("c", "neural", 3.0, True)),
        "split", "--scores"),
    "split-criterion-foo": (
        _scores(("a", "foo", 1.0, True), ("b", "foo", 2.0, True), ("c", "foo", 3.0, True)),
        "split", "--scores"),
    "split-duplicate-ids": (
        _scores(("a", "uid_sl", 1.0, True), ("b", "uid_sl", 2.0, True), ("a", "uid_sl", 3.0, True)),
        "split", "--scores"),
    "schedule-split-of-3-boundaries": (
        json.dumps(dict(SPLIT, boundaries=[50.0, 60.0, 70.0])), "schedule", "--split"),
    "converge-log-value-nan": ("step,value\n1,0.5\n2,nan\n", "converge", "--log"),
}


def _heatmap_of(tmp, report):
    """Argv of ``report`` drawing the heatmap of a report file of text ``report``."""
    return ["report", "--hlm-report", _file(tmp, "report.json", report),
            "--heatmap-out", str(tmp / "heatmap.svg")]


def _report_of_diagonal_cube(tmp):
    report = tmp / "report.json"
    assert main(["hlm", "--cube", _file(tmp, "cube.csv", DIAGONAL_CUBE), "-o", str(report)]) == 0
    return ["report", "--hlm-report", str(report), "--heatmap-out", str(tmp / "heatmap.svg")]


ONE_CELL = _report([("t", "c", "m", 0.5)])

# argv of report with a combination of flags it refuses: a flag missing its
# partner, an output flag whose input is not given, a label XML cannot hold or
# one label for two curves files; and report on the report hlm writes of the
# diagonal cube
REFUSED_ARGV = {
    "report-heatmap-of-diagonal-cube": _report_of_diagonal_cube,
    "report-curves-without-curves-out": lambda tmp: _heatmap_of(tmp, ONE_CELL) + [
        "--curves", _log(tmp)],
    "report-heatmap-out-without-hlm-report": lambda tmp: [
        "report", "--curves", _log(tmp), "--curves-out", str(tmp / "c.svg"),
        "--heatmap-out", str(tmp / "h.svg")],
    "report-labels-without-curves": lambda tmp: _heatmap_of(tmp, ONE_CELL) + ["--labels", "x", "y"],
    "report-curves-out-without-curves": lambda tmp: _heatmap_of(tmp, ONE_CELL) + [
        "--curves-out", str(tmp / "c.svg")],
    "report-label-with-a-control-character": lambda tmp: [
        "report", "--curves", _log(tmp), "--labels", "a\x0bb", "--curves-out",
        str(tmp / "curves.svg"), "--validate"],
    "report-hlm-report-without-heatmap-out": lambda tmp: _heatmap_of(tmp, ONE_CELL)[:3],
    "report-labels-not-one-per-curves-file": lambda tmp: [
        "report", "--curves", _log(tmp), _log(tmp), "--labels", "a", "--curves-out",
        str(tmp / "c.svg")],
}
# the message of a refused input that another command's message could stand in for
REFUSED_MESSAGES = {
    "hlm-eval-only-cube": "no complete (easy, medium, hard) triplet of full rows in cube\n",
    "hlm-two-full-rows-only": "no complete (easy, medium, hard) triplet of full rows in cube\n",
    "transfer-two-full-rows-only": "no complete (train x eval) groups in cube\n",
    "report-no-cells": "report has no cells\n",
    # the messages that name a cube's faulty row by its line and key
    "hlm-repeated-full-row": "line 4: duplicate row for ('t', 'c', 'm') train=easy\n",
    "hlm-direction-changes-within-group":
        "line 4: inconsistent higher_is_better within group ('t', 'c', 'm')\n",
    "hlm-metric-changes-within-group": "line 3: inconsistent metric within group ('t', 'c', 'm')\n",
    "transfer-repeated-eval-level-row":
        "line 3: duplicate row for ('t', 'c', 'm', 'easy', 'hard')\n",
    "split-duplicate-ids": "duplicate document ids in scores: ['a']\n",
}


@pytest.mark.filterwarnings("ignore::hlmkit.errors.IncompleteDataWarning")
@pytest.mark.parametrize("case", sorted([*REFUSED_INPUTS, *REFUSED_ARGV]))
def test_refused_input_exit_2_and_writes_nothing(valid_inputs, tmp_path, capsys, case):
    refused = "error: ValidationError: "
    if case in REFUSED_INPUTS:
        start = time.perf_counter()
        err = _one_bad_input(valid_inputs, tmp_path, capsys, *REFUSED_INPUTS[case], 2, refused)
    else:
        argv = REFUSED_ARGV[case](tmp_path)
        start = time.perf_counter()
        err = _fails(argv, capsys, 2, refused, tmp_path)
    assert time.perf_counter() - start < 2.0
    assert err.endswith(REFUSED_MESSAGES.get(case, ""))


# a cube with one complete triplet and one incomplete group
SPARSE_CUBE = CUBE_HEADER + _full_rows("t") + "u,c,m,easy,full,accuracy,0.9,true\n"
SPARSE_WARNING = ("warning: IncompleteDataWarning: skipping 1 incomplete triplet groups, "
                  "the first 1 in sorted order: [('u', 'c', 'm')]\n")


def test_a_warning_prints_as_one_line(tmp_path):
    # in a subprocess: pytest records in-process warnings instead of printing them
    proc = _run_cli("hlm", "--cube", _file(tmp_path, "cube.csv", SPARSE_CUBE),
                    "-o", str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == SPARSE_WARNING


def test_main_leaves_the_warnings_module_as_it_found_it(tmp_path):
    argv = ["hlm", "--cube", _file(tmp_path, "cube.csv", SPARSE_CUBE),
            "-o", str(tmp_path / "report.json")]
    with pytest.warns(IncompleteDataWarning, match="skipping 1 incomplete triplet groups"):
        state = warnings.formatwarning, warnings.showwarning, warnings.filters[:]
        assert main(argv) == 0
        assert (warnings.formatwarning, warnings.showwarning, warnings.filters) == state


# every command whose output --validate reads back: all but report
READ_BACK_COMMANDS = ["converge", "hlm", "lm-train", "schedule", "score", "split", "surprisal",
                      "transfer"]


def _not_read_back(path):
    return f"error: ValidationError: {path} is not a file that reads back as written\n"


@pytest.mark.parametrize("command", READ_BACK_COMMANDS)
def test_validate_refuses_an_output_to_dev_null(valid_inputs, tmp_path, capsys, command):
    # /dev/null is written through in place, and reading it back gives nothing
    argv = _full_argv(command, valid_inputs, tmp_path, ["--validate"])
    argv[argv.index("-o") + 1] = os.devnull
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == _not_read_back(os.devnull)


@pytest.mark.parametrize("command", READ_BACK_COMMANDS)
def test_validate_does_not_read_back_from_a_pipe(valid_inputs, tmp_path, command):
    # reading /dev/stdout on a pipe would take the output back from it, or block
    argv = _full_argv(command, valid_inputs, tmp_path, ["--validate"])
    with _unused_inputs_warning(command):
        assert main(argv) == 0
    argv[argv.index("-o") + 1] = "/dev/stdout"
    proc = subprocess.run([sys.executable, "-m", "hlmkit", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == (tmp_path / "out").read_text()
    assert proc.stderr == _not_read_back("/dev/stdout")


@pytest.mark.parametrize("command, module, writer, fault", [
    ("score", hlmkit.splitkit, "scores_to_jsonl",
     lambda write: lambda scores, path: write(scores[:-1], path)),
    ("surprisal", hlmkit.surprisal, "export_surprisals",
     lambda export: lambda seqs, path: export(list(seqs)[:-1], path) + 1),
    ("lm-train", hlmkit.surprisal, "save_model",
     lambda save: lambda model, path: save(hlmkit.surprisal.NgramModel(
         model.order, model.discount, model.words, model._grams[:-1],
         dump_counts(hlmkit.surprisal.model_to_dict(model))[:-1]), path)),
], ids=["score", "surprisal", "lm-train"])
def test_validate_refuses_an_output_that_reads_back_otherwise(
        valid_inputs, tmp_path, capsys, monkeypatch, command, module, writer, fault):
    # the writer leaves out the last record or gram it was given, or counts one it did not write
    monkeypatch.setattr(module, writer, fault(getattr(module, writer)))
    capsys.readouterr()
    assert main(_full_argv(command, valid_inputs, tmp_path, ["--validate"])) == 2
    assert capsys.readouterr().err == _not_read_back(tmp_path / "out")


def test_surprisal_validate_checks_one_record_at_a_time(tmp_path):
    """--validate counts the records as it reads and checks each one, so it lifts the
    command's traced peak by at most 0.3 MB. On these 300 documents of 88 words it
    lifted it by about 0.5 MB while it built every sequence again."""
    rng = random.Random(7)
    words = [f"w{i}" for i in range(300)]
    text = lambda: " ".join(" ".join(rng.choices(words, k=11)) + "." for _ in range(8))
    corpus = write_corpus(tmp_path, lines=[{"id": f"d{i}", "text": text()} for i in range(300)])
    model = str(tmp_path / "model.json")
    assert main(["lm-train", "--corpus", corpus, "-o", model]) == 0
    peaks = []
    for validate in ([], ["--validate"]):
        tracemalloc.start()
        try:
            assert main(["surprisal", "--corpus", corpus, "--model", model,
                         "-o", str(tmp_path / "s.jsonl"), *validate]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 0.3e6


# Each subcommand's options as its parser declares them: the strings of one
# option joined by "/", and "!" after a required one.
PARSER_OPTIONS = {
    "score": "--base --config --corpus! --criterion! --k --model --mu-lang --neural-scores "
             "--per-sentence/--no-per-sentence --surprisals --validate -h/--help -o/--output!",
    "split": "--config --scores! --validate -h/--help -o/--output!",
    "lm-train": "--config --corpus! --discount --order --validate -h/--help -o/--output!",
    "surprisal": "--base --config --corpus! --model! --per-sentence/--no-per-sentence "
                 "--validate -h/--help -o/--output!",
    "hlm": "--config --cube --heatmap-csv --heatmap-svg --std-ddof --validate -h/--help "
           "-o/--output!",
    "schedule": "--config --order! --seed --split! --validate -h/--help -o/--output!",
    "converge": "--config --epsilon --higher-is-better --log! --lower-is-better --manifest "
                "--validate -h/--help -o/--output!",
    "transfer": "--config --csv --cube! --validate -h/--help -o/--output!",
    "report": "--config --curves --curves-out --heatmap-out --hlm-report --labels --validate "
              "-h/--help",
}


def test_every_subcommand_keeps_its_options():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: " ".join(sorted("/".join(a.option_strings) + "!" * a.required
                                  for a in p._actions))
            for name, p in sub.choices.items()} == PARSER_OPTIONS


@pytest.mark.parametrize("argv", [["score", "--corpus", "MISSING", "--criterion", "bogus"],
                                  ["schedule", "--split", "MISSING", "--order", "bogus"]])
def test_an_unknown_choice_is_a_usage_error_before_any_input_is_read(tmp_path, capsys, argv):
    # a known choice would read the missing input and exit 3
    with pytest.raises(SystemExit) as exited:
        main([str(tmp_path / "missing") if a == "MISSING" else a for a in argv] + ["-o", "x"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hlmkit {argv[0]} ") and "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("command, listed", [("score", "flesch, uid_sl, uid_var, neural"),
                                             ("schedule", "easy_to_hard, hard_to_easy, random")])
def test_help_lists_every_choice(capsys, command, listed):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"one of {listed}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["hlm", "report", "transfer"])
def test_an_output_that_cannot_be_created_leaves_every_output_as_it_was(
        valid_inputs, tmp_path, capsys, command):
    """A command with several outputs writes all of them or none: when its last
    output's directory is missing, it exits 3, the previous files at its other
    outputs stay, and no temporary file is left."""
    argv = _full_argv(command, valid_inputs, tmp_path)
    last = max(arg for arg in argv if arg.startswith(str(tmp_path / "out")))
    argv[argv.index(last)] = str(tmp_path / "missing" / "out")
    previous = {Path(arg).name: f"previous {arg}\n" for arg in argv
                if arg.startswith(str(tmp_path / "out"))}
    for name, text in previous.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    assert main(argv) == 3
    assert "missing" in capsys.readouterr().err
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == previous


@pytest.mark.parametrize("command", ["hlm", "report", "transfer"])
def test_two_outputs_that_name_one_file_exit_2_and_leave_it(valid_inputs, tmp_path, capsys,
                                                            command):
    """Two outputs that name one file, through a link to their directory or through a link
    to the file, which is written in place, would keep only the output written last: the
    command exits 2 before it makes any temporary file, and the previous file stays.
    Outputs to a device, such as /dev/null, may share a path."""
    argv = _full_argv(command, valid_inputs, tmp_path)
    (tmp_path / "dir").symlink_to(tmp_path)
    (tmp_path / "file").symlink_to(tmp_path / "out")
    (tmp_path / "out").write_text("previous\n")
    second = argv.index(str(tmp_path / "out2"))
    for again in (tmp_path / "dir" / "out", tmp_path / "file"):
        argv[second] = str(again)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: {tmp_path / 'out'} and {again} name one output file\n")
        assert (tmp_path / "out").read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path)) == ["dir", "file", "out"]
    assert main([os.devnull if arg.startswith(str(tmp_path)) else arg for arg in argv]) == 0


def test_an_output_through_a_link_is_opened_after_every_temporary_file(tmp_path):
    # a link is written through in place, and opening its target truncates it
    target = tmp_path / "target"
    target.write_text("previous\n")
    (tmp_path / "link").symlink_to(target)
    assert main(["hlm", "-o", str(tmp_path / "link"),
                 "--heatmap-svg", str(tmp_path / "missing" / "h.svg")]) == 3
    assert target.read_text() == "previous\n"
    assert sorted(os.listdir(tmp_path)) == ["link", "target"]


def test_lone_surrogate_in_input_exit_2(tmp_path, capsys):
    # valid JSON and valid UTF-8, but "\ud800" decodes to text UTF-8 cannot encode
    corpus = write_corpus(tmp_path, lines=[dict(CORPUS_LINES[0], id="\ud800")] + CORPUS_LINES[1:])
    out = tmp_path / "scores.jsonl"
    assert main(["score", "--corpus", corpus, "--criterion", "flesch", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError: cannot write ")
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


def test_surprisal_streams_and_a_late_failure_keeps_the_previous_output(tmp_path, capsys,
                                                                          monkeypatch):
    """Each document is scored as it is written: the second document's id
    cannot be written, so the command stops there, before the others are
    scored, and leaves the previous output and no temporary file."""
    model = tmp_path / "model.json"
    assert main(["lm-train", "--corpus", write_corpus(tmp_path), "-o", str(model)]) == 0
    corpus = write_corpus(tmp_path, name="bad.jsonl",
                          lines=[CORPUS_LINES[0], dict(CORPUS_LINES[1], id="\ud800")]
                          + CORPUS_LINES[2:])
    out = tmp_path / "s.jsonl"
    out.write_bytes(b"previous output\n")
    scored = []
    score = hlmkit.surprisal.token_surprisals

    def recording(model, doc, base):
        scored.append(doc.id)
        return score(model, doc, base)

    monkeypatch.setattr(hlmkit.surprisal, "token_surprisals", recording)
    capsys.readouterr()
    assert main(["surprisal", "--corpus", corpus, "--model", str(model), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError: cannot write ")
    assert scored == ["d1", "\ud800"]
    assert out.read_bytes() == b"previous output\n"
    assert sorted(os.listdir(tmp_path)) == ["bad.jsonl", "corpus.jsonl", "model.json", "s.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_pipe_is_written_in_place(tmp_path):
    # an output such as /dev/stdout or /dev/null cannot be replaced by a renamed file
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "flesch",
                 "-o", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received[0].count(b"\n") == len(CORPUS_LINES)
    assert stat.S_ISFIFO(fifo.stat().st_mode)


FULL_DISK = [("lm-train", "-o"), ("surprisal", "-o"), ("score", "-o"), ("hlm", "-o"),
             ("converge", "-o"), ("transfer", "-o"), ("report", "--curves-out")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, flag", FULL_DISK)
def test_an_output_on_a_full_disk_exit_3(valid_inputs, tmp_path, capsys, command, flag):
    """/dev/full takes an output in place and refuses its bytes: the command exits 3 with one
    OS error line, and writes none of its other outputs."""
    argv = _full_argv(command, valid_inputs, tmp_path)
    argv[argv.index(flag) + 1] = "/dev/full"
    err = _fails(argv, capsys, 3, "error: ", tmp_path)
    assert err.count("\n") == 1 and "No space left on device" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_heatmap_on_a_full_disk_leaves_no_report(tmp_path, capsys):
    err = _fails(["hlm", "-o", str(tmp_path / "out.json"), "--heatmap-svg", "/dev/full"],
                 capsys, 3, "error: ", tmp_path)
    assert err.count("\n") == 1 and "No space left on device" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text", [
    "a" * 65536,  # exactly one slice
    "a" * 65535 + "\u00e9\u20ac" + "b" * 65536,  # three slices; the first two split "\u00e9\u20ac"
    "<",
], ids=["one-slice", "three-slices", "one-character"])
def test_svg_text_is_written_in_slices_byte_for_byte(tmp_path, text):
    path = tmp_path / "out.svg"
    cli._write((path, cli._write_svg, text))
    assert path.read_bytes() == text.encode("utf-8")


def test_svg_write_holds_no_second_copy_of_its_text(tmp_path):
    """The text is written in 65,536-character slices, so the write's traced
    peak is at most 0.25 MB above the 1 MB text it writes; one write of the
    whole text encoded a second copy, about 1 MB."""
    text = "<rect/>\n" * 125_000
    tracemalloc.start()
    try:
        cli._write((tmp_path / "out.svg", cli._write_svg, text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out.svg").stat().st_size == len(text) == 1_000_000
    assert peak < 0.25e6


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_input_from_a_pipe_is_read(tmp_path):
    # as /dev/stdin or a shell's <(...) is
    fifo = tmp_path / "scores"
    os.mkfifo(fifo)
    rows = [dict(GOOD_SCORE, id=f"d{i}", value=float(i)) for i in (1, 2, 3)]
    writer = threading.Thread(target=lambda: fifo.write_text(_lines(rows)), daemon=True)
    writer.start()
    out = tmp_path / "split.json"
    assert main(["split", "--scores", str(fifo), "-o", str(out)]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert json.loads(out.read_text())["easy"] == ["d1"]


def test_output_through_a_symlink_keeps_the_link(tmp_path):
    # as /dev/stdout -> /proc/self/fd/1 does when stdout is redirected to a file
    target = tmp_path / "target"
    target.write_text("old\n")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "flesch",
                 "-o", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text().count("\n") == len(CORPUS_LINES)
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "link", "target"]


def test_report_reads_only_the_keys_the_heatmap_shows(tmp_path):
    # no std_ddof and no s/std/sigmoid: the heatmap does not use them
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "i_model": {"m": 0.5}, "i_task": {"t": 0.5}, "i_criteria": {"c": 0.5},
        "cells": [{"task": "t", "criterion": "c", "model": "m", "value": 0.5}]}))
    out = tmp_path / "heatmap.svg"
    assert main(["report", "--hlm-report", str(report), "--heatmap-out", str(out),
                 "--validate"]) == 0
    assert out.read_text().startswith("<svg")


def test_huge_surprisal_exit_2(tmp_path, capsys):
    # each value is a float, but its UID score is beyond the float range
    surprisals = tmp_path / "s.jsonl"
    surprisals.write_text(_lines({"id": d["id"], "surprisals": [1e308], "base": "2"}
                                 for d in CORPUS_LINES))
    for criterion in ("uid_sl", "uid_var"):
        assert main(["score", "--corpus", write_corpus(tmp_path), "--criterion", criterion,
                     "--surprisals", str(surprisals), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ValidationError: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12,
)


def _any(*keys):
    return dict.fromkeys(keys, JSON_VALUES)


# A list of ints as a model file writes it, or text near it: base64 characters, padding,
# whitespace and the URL-safe ones
INTS = (st.lists(st.integers(-1, 30), max_size=6).map(encode_ints)
        | st.text(st.sampled_from("QUJDeJw=+/-_ \n"), max_size=12))
# A model record of this format and version whose lists have their types: about
# a third pass the key and type checks and reach the model's own checks
MODEL_RECORD = {
    "format": st.just("hlmkit-ngram"), "version": st.just(6),
    "order": st.integers(0, 4) | JSON_VALUES, "discount": st.floats(0, 1) | JSON_VALUES,
    "vocab": st.lists(st.sampled_from(["</s>", "<s>", "<unk>", "a", "b"]), unique=True).map(sorted),
    "gaps": INTS, "count_gaps": INTS, "counts": INTS,
}

# Every input a subcommand reads: its argv, with BAD for the generated file
# and valid files for the other inputs, the file's shape, and the values of
# the keys one record of that shape carries.
FUZZED_INPUTS = {
    "score-corpus": (["score", "--corpus", "BAD", "--criterion", "flesch", "-o", "OUT"],
                     "jsonl", _any("id", "text")),
    "score-model": (["score", "--corpus", "CORPUS", "--criterion", "uid_sl", "--model", "BAD",
                     "-o", "OUT"], "json", MODEL_RECORD),
    "score-surprisals": (["score", "--corpus", "CORPUS", "--criterion", "uid_var",
                          "--surprisals", "BAD", "-o", "OUT"],
                         "jsonl", _any("id", "surprisals", "base")),
    "score-neural": (["score", "--corpus", "CORPUS", "--criterion", "neural",
                      "--neural-scores", "BAD", "-o", "OUT"],
                     "jsonl", _any("id", "score", "higher_is_harder")),
    "score-config": (["score", "--corpus", "CORPUS", "--criterion", "flesch", "--config", "BAD",
                      "-o", "OUT"], "ini", _any("k", "mu_lang", "base", "per_sentence")),
    "split-scores": (["split", "--scores", "BAD", "-o", "OUT"],
                     "jsonl", _any("id", "criterion", "value", "higher_is_harder")),
    "lm-train-corpus": (["lm-train", "--corpus", "BAD", "-o", "OUT"], "jsonl", _any("id", "text")),
    "surprisal-model": (["surprisal", "--corpus", "CORPUS", "--model", "BAD", "-o", "OUT"],
                        "json", MODEL_RECORD),
    "hlm-cube": (["hlm", "--cube", "BAD", "-o", "OUT"], "csv", _any(*CUBE_COLUMNS)),
    "schedule-split": (["schedule", "--split", "BAD", "--order", "random", "--seed", "3",
                        "-o", "OUT"], "json", _any(*SPLIT)),
    "converge-log": (["converge", "--log", "BAD", "--higher-is-better", "-o", "OUT"],
                     "csv", _any("step", "value")),
    "converge-manifest": (["converge", "--log", "LOG", "--manifest", "BAD", "-o", "OUT"],
                          "json", _any("higher_is_better")),
    "transfer-cube": (["transfer", "--cube", "BAD", "-o", "OUT"], "csv", _any(*CUBE_COLUMNS)),
    "report-hlm-report": (["report", "--hlm-report", "BAD", "--heatmap-out", "OUT"], "json",
                          _any("i_model", "i_task", "i_criteria", "std_ddof", "cells")),
    "report-curves": (["report", "--curves", "BAD", "--curves-out", "OUT"],
                      "csv", _any("step", "value")),
}


def _record_file(shape, record):
    """One record with the given values, written in the file's shape."""
    if shape in ("json", "jsonl"):
        return json.dumps(record)
    if shape == "ini":
        return "[score]\n" + "".join(f"{k} = {json.dumps(v)}\n" for k, v in record.items())
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [list(record), [json.dumps(v) for v in record.values()]])
    return text.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    log = tmp / "log.csv"
    log.write_text("step,value\n1,0.5\n2,0.9\n")
    return {"CORPUS": write_corpus(tmp), "LOG": str(log)}


@pytest.mark.parametrize("name", sorted(FUZZED_INPUTS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_input_exits_0_2_or_3(fuzz_inputs, name, data):
    """Arbitrary bytes, arbitrary JSON or a record of arbitrary JSON values
    (MODEL_RECORD's for a model) in any input file: the CLI exits 0, 2 or 3
    and raises nothing."""
    argv, shape, record = FUZZED_INPUTS[name]
    content = data.draw(st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.fixed_dictionaries(record).map(lambda values: _record_file(shape, values).encode()),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "input"
        bad.write_bytes(content)
        paths = dict(fuzz_inputs, BAD=str(bad), OUT=str(Path(tmp) / "output"))
        code = main([paths.get(arg, arg) for arg in argv])
        assert code in (0, 2, 3)
        assert code == 0 or not Path(paths["OUT"]).exists()
