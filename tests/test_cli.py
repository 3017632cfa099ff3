import bisect
import csv
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hlmkit
from hlmkit import svg
from hlmkit.cli import main
from hlmkit.data import reference_performance_path
from hlmkit.errors import IncompleteDataWarning, ValidationError
from hlmkit.hlm import CUBE_COLUMNS

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

    def test_config_std_ddof_other_than_0_or_1_exit_2(self, tmp_path, capsys):
        config = tmp_path / "hlmkit.ini"
        config.write_text("[hlm]\nstd_ddof = 2\n")
        report = tmp_path / "report.json"
        assert main(["hlm", "--config", str(config), "-o", str(report)]) == 2
        assert capsys.readouterr().err == "error: ValidationError: std_ddof must be 0 or 1, got 2\n"
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
        assert "not found" in capsys.readouterr().err

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


# argv of each subcommand with the non-UTF-8 file as its (first) input
NON_UTF8_ARGV = {
    "score": lambda bad, out: ["score", "--corpus", bad, "--criterion", "flesch", "-o", out],
    "split": lambda bad, out: ["split", "--scores", bad, "-o", out],
    "lm-train": lambda bad, out: ["lm-train", "--corpus", bad, "-o", out],
    "surprisal": lambda bad, out: ["surprisal", "--corpus", bad, "--model", bad, "-o", out],
    "hlm": lambda bad, out: ["hlm", "--cube", bad, "-o", out],
    "schedule": lambda bad, out: ["schedule", "--split", bad, "--order", "easy_to_hard",
                                  "-o", out],
    "converge": lambda bad, out: ["converge", "--log", bad, "--higher-is-better", "-o", out],
    "transfer": lambda bad, out: ["transfer", "--cube", bad, "-o", out],
    "report": lambda bad, out: ["report", "--curves", bad, "--curves-out", out],
}


@pytest.mark.parametrize("command", sorted(NON_UTF8_ARGV))
def test_non_utf8_input_exit_2(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"step,value\n1,0.5\xff\n")
    proc = _run_cli(*NON_UTF8_ARGV[command](str(bad), str(tmp_path / "out")))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ParseError: ")


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
def test_split_rejects_mistyped_score_fields(tmp_path, capsys, case):
    field, value = BAD_SCORE_FIELDS[case]
    rows = [dict(GOOD_SCORE, id=f"d{i}", value=float(i)) for i in (1, 2, 3)]
    rows[1][field] = value
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "split.json"
    assert main(["split", "--scores", str(scores), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: line 2: ")
    assert not out.exists()


def test_neural_score_out_of_float_range_exit_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    neural = tmp_path / "neural.jsonl"
    neural.write_text(
        "".join(json.dumps({"id": d["id"], "score": 1.0, "higher_is_harder": True}) + "\n"
                for d in CORPUS_LINES[:-1])
        + json.dumps({"id": CORPUS_LINES[-1]["id"], "score": 10 ** 400,
                      "higher_is_harder": True}) + "\n"
    )
    assert main(["score", "--corpus", corpus, "--criterion", "neural",
                 "--neural-scores", str(neural), "-o", str(tmp_path / "s.jsonl")]) == 2
    assert f"line {len(CORPUS_LINES)}: 'score' is out of the float range" in capsys.readouterr().err


def test_neural_score_literal_beyond_the_float_range_exit_2(tmp_path, capsys):
    # a float literal such as 1e400 decodes to inf, not to an error
    rows = [{"id": d["id"], "score": 1.0, "higher_is_harder": True} for d in CORPUS_LINES]
    neural = tmp_path / "neural.jsonl"
    neural.write_text(_lines(rows[:-1]) + _lines(rows[-1:]).replace("1.0", "1e400"))
    assert main(["score", "--corpus", write_corpus(tmp_path), "--criterion", "neural",
                 "--neural-scores", str(neural), "-o", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"error: ParseError: line {len(CORPUS_LINES)}: 'score' is out of the float range\n")


def _set_item(key, index, value):
    def mutate(data):
        data[key][index] = value
    return mutate


def _swap_first_two(key):
    def mutate(data):
        data[key][0], data[key][1] = data[key][1], data[key][0]
    return mutate


def _add_gram(*gram):
    """Insert ``gram`` with count 5, keeping the grams sorted."""
    def mutate(data):
        index = {w: i for i, w in enumerate(data["vocab"])}
        packed = 0
        for w in gram:
            packed = packed * len(index) + index[w]
        i = bisect.bisect(data["grams"], packed)
        data["grams"].insert(i, packed)
        data["counts"].insert(i, 5)
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
    "count-negative": (2, _set_item("counts", -1, -5)),
    "count-zero": (2, _set_item("counts", -1, 0)),
    "count-bool": (2, _set_item("counts", -1, True)),
    "count-float": (2, _set_item("counts", -1, 2.7)),
    "count-string": (2, _set_item("counts", -1, "3")),
    "v3-missing-grams": (2, lambda d: d.pop("grams")),
    "v3-gram-out-of-range": (2, lambda d: d["grams"].__setitem__(-1, len(d["vocab"]) ** 2)),
    # values the int64 arrays cannot hold
    "v3-gram-beyond-int64": (2, _set_item("grams", -1, 2 ** 63)),
    "v3-count-beyond-int64": (2, _set_item("counts", -1, 2 ** 63)),
    "v3-gram-negative": (2, _set_item("grams", 0, -1)),
    "v3-gram-float": (2, _set_item("grams", 0, 0.0)),
    "v3-grams-unsorted": (2, _swap_first_two("grams")),
    "v3-gram-duplicate": (2, lambda d: d["grams"].__setitem__(1, d["grams"][0])),
    "v3-count-zero": (2, _set_item("counts", 0, 0)),
    "v3-count-negative": (2, _set_item("counts", 0, -2)),
    "v3-count-bool": (2, _set_item("counts", 0, True)),
    "v3-vocab-unsorted": (2, _swap_first_two("vocab")),
    "v3-vocab-duplicate": (2, lambda d: d["vocab"].__setitem__(1, d["vocab"][0])),
    "v3-vocab-not-strings": (2, _set_item("vocab", -1, 7)),
    "v3-missing-pad": (2, lambda d: d["vocab"].remove("<unk>")),
    "v3-length-mismatch": (2, lambda d: d["counts"].pop()),
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
    "v1-count-zero": (1, _set_item("counts", 0, 0)),
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
        data = json.loads(json.dumps(dumps[order]))
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        proc = self._run_surprisal(tmp_path, bad)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "ValidationError" in proc.stderr or "ParseError" in proc.stderr
        # the file is refused when it is loaded, not at the first score
        with pytest.raises((hlmkit.ValidationError, hlmkit.ParseError)):
            hlmkit.load_model(bad)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_exit_2(self, tmp_path, version):
        """Versions 1 and 2 stored nested ``[history, [[word, count], ...]]``
        tables; they are no longer read, and have to be retrained."""
        table = [[[], [["cat", 1], ["the", 2]]]]
        dump = {"format": "hlmkit-ngram", "version": version, "order": 1, "discount": 0.75,
                "counts": table}
        if version == 1:  # a table per order, and the vocabulary
            dump.update(counts=[[1, table]], vocab=["</s>", "<s>", "<unk>", "cat", "the"])
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

    def test_missing_config_file_exit_3(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        code = main(["score", "--corpus", corpus, "--criterion", "flesch",
                     "-o", str(tmp_path / "x.jsonl"), "--config",
                     str(tmp_path / "nope.ini")])
        assert code == 3


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


# A JSON value nested deeper than the decoder can follow.
DEEP = "[" * 200_000 + "]" * 200_000 + "\n"
SPLIT = {"criterion": "flesch", "boundaries": [50.0, 70.0],
         "easy": ["d1", "d2"], "medium": ["d3", "d4"], "hard": ["d5", "d6"]}


def _lines(objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def _score_with(flag, criterion):
    return lambda bad, tmp: ["score", "--corpus", write_corpus(tmp), "--criterion", criterion,
                             flag, bad]


def _converge_manifest(bad, tmp):
    log = tmp / "log.csv"
    log.write_text("step,value\n1,300\n2,200\n3,199.9\n")
    return ["converge", "--log", str(log), "--manifest", bad]


def _schedule(bad, tmp):
    return ["schedule", "--split", bad, "--order", "easy_to_hard"]


def _report(bad, tmp):
    return ["report", "--hlm-report", bad]


def _surprisal_model(bad, tmp):
    return ["surprisal", "--corpus", write_corpus(tmp), "--model", bad]


# (content of the malformed input, argv of the subcommand that reads it)
MALFORMED_INPUTS = {
    "deep-corpus": (DEEP, lambda bad, tmp: ["score", "--corpus", bad, "--criterion", "flesch"]),
    "deep-neural": (DEEP, _score_with("--neural-scores", "neural")),
    "deep-scores": (DEEP, lambda bad, tmp: ["split", "--scores", bad]),
    "deep-surprisals": (DEEP, _score_with("--surprisals", "uid_sl")),
    "deep-split": (DEEP, _schedule),
    "deep-manifest": (DEEP, _converge_manifest),
    "deep-report": (DEEP, _report),
    "deep-model": (DEEP, _surprisal_model),
    "boundaries-number": (json.dumps(dict(SPLIT, boundaries=3)), _schedule),
    "boundaries-string": (json.dumps(dict(SPLIT, boundaries=["x", 2])), _schedule),
    "boundaries-nan": (json.dumps(dict(SPLIT, boundaries=[float("nan"), float("inf")])),
                       _schedule),
    "boundaries-1e400": (json.dumps(dict(SPLIT, boundaries=[1.0, -1.0])).replace("1.0", "1e400"),
                         _schedule),
    "easy-string": (json.dumps(dict(SPLIT, easy="abc")), _schedule),
    "easy-number": (json.dumps(dict(SPLIT, easy=[1])), _schedule),
    "surprisal-base-number": (
        _lines({"id": d["id"], "surprisals": [1.0, 2.0], "base": 2 if i == 2 else "2"}
               for i, d in enumerate(CORPUS_LINES)),
        _score_with("--surprisals", "uid_sl")),
    "neural-id-number": (
        _lines([{"id": d["id"], "score": 1.0, "higher_is_harder": True} for d in CORPUS_LINES]
               + [{"id": 5, "score": 1.0, "higher_is_harder": True}]),
        _score_with("--neural-scores", "neural")),
    "report-cell-number": (
        json.dumps({"i_model": {"m": 0.5}, "i_task": {"t": 0.5}, "i_criteria": {"c": 0.5},
                    "std_ddof": 0, "cells": [1]}),
        _report),
    "report-index-nan": (
        json.dumps({"i_model": {"m": float("nan")}, "i_task": {"t": 0.5},
                    "i_criteria": {"c": 0.5}, "std_ddof": 0, "cells": []}),
        _report),
    "report-index-1e400": (
        '{"i_model": {"m": 1e400}, "i_task": {"t": 0.5}, "i_criteria": {"c": 0.5}, '
        '"std_ddof": 0, "cells": []}',
        _report),
    "manifest-bool-string": ('{"higher_is_better": "false"}', _converge_manifest),
    "log-field-too-long": ("step,value\n1," + "9" * 200_000 + "\n",
                           lambda bad, tmp: ["converge", "--log", bad, "--higher-is-better"]),
    # an integer step the float axis of the curves plot cannot hold
    "log-step-too-big": ("step,value\n1,0.5\n1" + "0" * 400 + ",0.9\n",
                         lambda bad, tmp: ["report", "--curves", bad,
                                           "--curves-out", str(tmp / "out")]),
}


# the option that names each subcommand's output, where it is not -o
OUTPUT_FLAG = {"report": "--heatmap-out"}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_2(tmp_path, capsys, case):
    content, argv = MALFORMED_INPUTS[case]
    bad = tmp_path / "bad"
    bad.write_text(content)
    out = tmp_path / "out"
    args = argv(str(bad), tmp_path)
    assert main(args + [OUTPUT_FLAG.get(args[0], "-o"), str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ParseError: ")
    assert not out.exists()


def _diagonal_cube(tmp, n=50):
    """A cube whose cell i is (t_i, c_i, m_i): n cells on an n x n x n grid."""
    cube = tmp / "cube.csv"
    cube.write_text(",".join(CUBE_COLUMNS) + "\n" + "".join(
        f"t{i:02d},c{i:02d},m{i:02d},{tr},full,accuracy,{v},true\n"
        for i in range(n) for tr, v in zip(("easy", "medium", "hard"), (0.9, 0.8, 0.7))))
    return str(cube)


def _heatmap_of(report):
    return ["report", "--hlm-report", str(report),
            "--heatmap-out", str(report.with_name("heatmap.svg"))]


def _report_of(tmp, cells, models=None):
    """Argv of ``report`` on a report file of (task, criterion, model, value)
    cells, whose index dicts name the cells' tasks, criteria and ``models``."""
    def index(names):
        return dict.fromkeys(sorted(set(names)), 0.5)
    report = tmp / "report.json"
    report.write_text(json.dumps({
        "i_task": index(c[0] for c in cells), "i_criteria": index(c[1] for c in cells),
        "i_model": index(models or [c[2] for c in cells]), "std_ddof": 0,
        "cells": [dict(zip(("task", "criterion", "model", "value"), c)) for c in cells]}))
    return _heatmap_of(report)


def _report_of_diagonal_cube(tmp):
    report = tmp / "report.json"
    assert main(["hlm", "--cube", _diagonal_cube(tmp), "-o", str(report)]) == 0
    return _heatmap_of(report)


# argv of a command whose inputs are well formed but refused: a heatmap with far
# more grid positions than cells, or report cells the index dicts do not match
REFUSED_INPUTS = {
    "hlm-heatmap-of-diagonal-cube": lambda tmp: [
        "hlm", "--cube", _diagonal_cube(tmp), "-o", str(tmp / "out.json"),
        "--heatmap-csv", str(tmp / "heatmap.csv"), "--heatmap-svg", str(tmp / "heatmap.svg")],
    "report-heatmap-of-diagonal-cube": _report_of_diagonal_cube,
    "report-repeated-cell-key": lambda tmp: _report_of(
        tmp, [("t", "c", "m", 0.9), ("t", "c", "m", -0.9)]),
    "report-cell-outside-the-index": lambda tmp: _report_of(
        tmp, [("t", "c", "m", 0.9), ("t", "c", "ghost", 0.5)], models=["m"]),
}


@pytest.mark.filterwarnings("ignore::hlmkit.errors.IncompleteDataWarning")
@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_refused_input_exit_2_and_writes_nothing(tmp_path, capsys, case):
    argv = REFUSED_INPUTS[case](tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == inputs


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
        "i_model": {"m": 0.5}, "i_task": {"t": 0.25}, "i_criteria": {"c": 0.75},
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
        assert main(_score_with("--surprisals", criterion)(str(surprisals), tmp_path)
                    + ["-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ValidationError: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12,
)
MODEL_KEYS = ("format", "version", "order", "discount", "vocab", "grams", "counts")

# Every input a subcommand reads: its argv, with BAD for the generated file
# and valid files for the other inputs, the file's shape, and the keys one
# record of that shape carries.
FUZZED_INPUTS = {
    "score-corpus": (["score", "--corpus", "BAD", "--criterion", "flesch", "-o", "OUT"],
                     "jsonl", ("id", "text")),
    "score-model": (["score", "--corpus", "CORPUS", "--criterion", "uid_sl", "--model", "BAD",
                     "-o", "OUT"], "json", MODEL_KEYS),
    "score-surprisals": (["score", "--corpus", "CORPUS", "--criterion", "uid_var",
                          "--surprisals", "BAD", "-o", "OUT"],
                         "jsonl", ("id", "surprisals", "base")),
    "score-neural": (["score", "--corpus", "CORPUS", "--criterion", "neural",
                      "--neural-scores", "BAD", "-o", "OUT"],
                     "jsonl", ("id", "score", "higher_is_harder")),
    "score-config": (["score", "--corpus", "CORPUS", "--criterion", "flesch", "--config", "BAD",
                      "-o", "OUT"], "ini", ("k", "mu_lang", "base", "per_sentence")),
    "split-scores": (["split", "--scores", "BAD", "-o", "OUT"],
                     "jsonl", ("id", "criterion", "value", "higher_is_harder")),
    "lm-train-corpus": (["lm-train", "--corpus", "BAD", "-o", "OUT"], "jsonl", ("id", "text")),
    "surprisal-model": (["surprisal", "--corpus", "CORPUS", "--model", "BAD", "-o", "OUT"],
                        "json", MODEL_KEYS),
    "hlm-cube": (["hlm", "--cube", "BAD", "-o", "OUT"], "csv", CUBE_COLUMNS),
    "schedule-split": (["schedule", "--split", "BAD", "--order", "random", "--seed", "3",
                        "-o", "OUT"], "json", tuple(SPLIT)),
    "converge-log": (["converge", "--log", "BAD", "--higher-is-better", "-o", "OUT"],
                     "csv", ("step", "value")),
    "converge-manifest": (["converge", "--log", "LOG", "--manifest", "BAD", "-o", "OUT"],
                          "json", ("higher_is_better",)),
    "transfer-cube": (["transfer", "--cube", "BAD", "-o", "OUT"], "csv", CUBE_COLUMNS),
    "report-hlm-report": (["report", "--hlm-report", "BAD", "--heatmap-out", "OUT"], "json",
                          ("i_model", "i_task", "i_criteria", "std_ddof", "cells")),
    "report-curves": (["report", "--curves", "BAD", "--curves-out", "OUT"],
                      "csv", ("step", "value")),
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
    """Arbitrary bytes, arbitrary JSON or a record of arbitrary JSON values in
    any input file: the CLI exits 0, 2 or 3 and raises nothing."""
    argv, shape, keys = FUZZED_INPUTS[name]
    content = data.draw(st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.fixed_dictionaries(dict.fromkeys(keys, JSON_VALUES)).map(
            lambda record: _record_file(shape, record).encode()),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "input"
        bad.write_bytes(content)
        paths = dict(fuzz_inputs, BAD=str(bad), OUT=str(Path(tmp) / "output"))
        assert main([paths.get(arg, arg) for arg in argv]) in (0, 2, 3)
