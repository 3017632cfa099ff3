"""Growth gate: no command does super-linear work on any size axis it reads.

Each command runs in-process through ``cli.main`` at n, 2n and 4n items of one axis:

- documents and sentence length: ``lm-train``, ``surprisal`` and
  ``score --criterion uid_sl --model``;
- sentences that open with a word the model never saw open one: ``surprisal``, whose every
  first token misses at the start history, the longest run of the model;
- imported surprisal lines: ``score --criterion uid_var --surprisals``;
- scores: ``split``, and ``schedule --order random`` on the split it writes;
- log steps: ``converge`` and ``report --curves``;
- cube groups: ``hlm`` with both heatmaps, and ``transfer --csv``.

Under ``sys.setprofile`` each run's Python calls and builtin calls are counted: a per-item
loop shows as a count that doubles with n, and a quadratic one as a count that quadruples.
Work inside one builtin call (``sorted``, ``x in list``, ``list.pop(0)``) is one event, so the
gate also times each command at 8n with ``time.process_time``. That catches a quadratic of
Python-level comparisons, such as ``x in list`` per item, but not one of memory moves alone:
``list.pop(0)`` per item in ``tertile_split``, ``load_training_log`` or ``load_cube_csv`` reads
9-21x, under the bound, since at these sizes the moves cost less than the linear work around
them.
"""

import json
import random
import sys
import time

import pytest

from hlmkit import cli
from hlmkit.hlm import CUBE_COLUMNS, LEVELS

# Call counts per doubling of n: 1.53-1.98 measured on Python 3.10-3.13 over every axis,
# where linear work reads at most 2 and quadratic work 4
COUNT_RATIO = 2.3
# CPU time at 8n over n: 3.3-12.1 measured on Python 3.10-3.13 over every axis (best of two
# runs each, on a shared 2-vCPU VM), where linear work reads at most about 8 and quadratic
# work 64; 24 leaves a 2x margin over the worst
CPU_RATIO = 24


def _words(rng, n):
    """n tokens of Zipf-like frequency over 2,000 words, so the vocabulary keeps growing."""
    vocab = [f"w{i}" for i in range(2000)]
    return rng.choices(vocab, [1 / (r + 1) for r in range(len(vocab))], k=n)


def _corpus_commands(tmp, texts):
    corpus, model, out = tmp / "corpus.jsonl", str(tmp / "model.json"), str(tmp / "out.jsonl")
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n"
                              for i, t in enumerate(texts)), encoding="utf-8")
    return {  # in chain order: the model comes first
        "lm-train": ["lm-train", "--corpus", str(corpus), "--order", "3", "-o", model],
        "surprisal": ["surprisal", "--corpus", str(corpus), "--model", model, "-o", out],
        "score-uid_sl": ["score", "--corpus", str(corpus), "--criterion", "uid_sl",
                         "--model", model, "-o", out],
    }


def _documents(tmp, n):
    """n documents of two capitalised 10-token sentences each."""
    rng = random.Random(n)
    return _corpus_commands(tmp, [" ".join(" ".join(_words(rng, 10)).capitalize() + "."
                                           for _ in range(2)) for _ in range(n)])


def _one_sentence(tmp, n):
    """One lowercase document of n tokens and no full stop: the segmenter keeps it whole."""
    return _corpus_commands(tmp, [" ".join(_words(random.Random(n), n))])


def _unseen_openings(tmp, n):
    """n one-sentence documents, each opening with a word that opens no sentence of the 200
    training documents (their sentences open with s-words), scored with their model. Training
    runs before the counted commands, on the same documents at every n."""
    rng = random.Random(0)
    train = [" ".join(" ".join(["s" + _words(rng, 1)[0][1:]] + _words(rng, 9)).capitalize() + "."
                      for _ in range(2)) for _ in range(200)]
    commands = _corpus_commands(tmp, train)
    assert cli.main(commands["lm-train"]) == 0
    rng = random.Random(n)
    held_out = tmp / "held_out.jsonl"
    held_out.write_text("".join(json.dumps({"id": f"h{i}", "text": " ".join(_words(rng, 10))
                                                                .capitalize() + "."}) + "\n"
                                for i in range(n)), encoding="utf-8")
    argv = commands["surprisal"]
    argv[argv.index("--corpus") + 1] = str(held_out)
    return {"surprisal": argv}


def _imported_surprisals(tmp, n):
    """n documents, each with one line of ten imported surprisals."""
    rng = random.Random(n)
    corpus, surprisals = tmp / "corpus.jsonl", tmp / "surprisals.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": "A word."}) + "\n"
                              for i in range(n)))
    surprisals.write_text("".join(json.dumps({"id": f"d{i}", "surprisals": [
        rng.random() * 10 for _ in range(10)], "base": "2"}) + "\n" for i in range(n)))
    return {"score-uid_var": ["score", "--corpus", str(corpus), "--criterion", "uid_var",
                              "--surprisals", str(surprisals), "-o", str(tmp / "scores.jsonl")]}


def _scores(tmp, n):
    """n scores over 100 values, so that ties straddle the tertile cuts; the schedule reads
    the split of them."""
    rng = random.Random(n)
    scores, split = tmp / "scores.jsonl", str(tmp / "split.json")
    scores.write_text("".join(json.dumps({"id": f"d{i}", "criterion": "uid_sl", "value":
                                          rng.randrange(100) / 10, "higher_is_harder": True})
                              + "\n" for i in range(n)))
    return {"split": ["split", "--scores", str(scores), "-o", split],
            "schedule": ["schedule", "--split", split, "--order", "random", "--seed", "7",
                         "-o", str(tmp / "schedule.json")]}


def _log_steps(tmp, n):
    """A training log of n steps that rises towards 1, with noise."""
    rng = random.Random(n)
    log = tmp / "log.csv"
    log.write_text("step,value\n" + "".join(f"{i},{1 - 1 / i + rng.random() / 100!r}\n"
                                            for i in range(1, n + 1)))
    return {"converge": ["converge", "--log", str(log), "--higher-is-better",
                         "-o", str(tmp / "converge.json")],
            "report-curves": ["report", "--curves", str(log), "--curves-out",
                              str(tmp / "curves.svg")]}


def _cube_groups(tmp, n):
    """A cube of n (task, criterion, model) groups over two criteria and two models, each
    group with its three full rows and nine eval rows."""
    rng = random.Random(n)
    cube = tmp / "cube.csv"
    cube.write_text(",".join(CUBE_COLUMNS) + "\n" + "".join(
        f"t{g // 4},c{g % 2},m{g // 2 % 2},{tr},{ev},accuracy,{rng.random():.4f},true\n"
        for g in range(n) for tr in LEVELS for ev in ("full", *LEVELS)))
    return {"hlm": ["hlm", "--cube", str(cube), "-o", str(tmp / "report.json"),
                    "--heatmap-csv", str(tmp / "heatmap.csv"),
                    "--heatmap-svg", str(tmp / "heatmap.svg")],
            "transfer": ["transfer", "--cube", str(cube), "-o", str(tmp / "transfer.json"),
                         "--csv", str(tmp / "transfer.csv")]}


# each axis: the function giving each command's argv on an input of n items, and the smallest n
AXES = {"documents": (_documents, 100), "sentence-length": (_one_sentence, 2000),
        "unseen-openings": (_unseen_openings, 200),
        "imported-surprisals": (_imported_surprisals, 4000), "scores": (_scores, 5000),
        "log-steps": (_log_steps, 5000), "cube-groups": (_cube_groups, 500)}


def _runs(tmp_path, axis, size):
    """Each command's ``cli.main`` call on the ``axis`` input of ``size``, in chain order."""
    return {label: lambda argv=argv: cli.main(argv)
            for label, argv in AXES[axis][0](tmp_path, size).items()}


def _events(run):
    events = 0

    def tally(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    sys.setprofile(tally)
    try:
        assert run() == 0
    finally:
        sys.setprofile(None)
    return events


def _cpu(run):
    times = []
    for _ in range(2):
        start = time.process_time()
        assert run() == 0
        times.append(time.process_time() - start)
    return min(times)


@pytest.mark.parametrize("axis", AXES)
def test_call_counts_grow_linearly(tmp_path, capsys, monkeypatch, axis):
    monkeypatch.delenv("HLMKIT_CONFIG", raising=False)
    n = AXES[axis][1]
    counts = {}
    for size in (n, 2 * n, 4 * n):
        for label, run in _runs(tmp_path, axis, size).items():
            counts.setdefault(label, []).append(_events(run))
    capsys.readouterr()
    for label, (a, b, c) in counts.items():
        assert b / a <= COUNT_RATIO and c / b <= COUNT_RATIO, (label, counts[label])


@pytest.mark.parametrize("axis", AXES)
def test_cpu_time_grows_at_most_linearly_times_log(tmp_path, capsys, monkeypatch, axis):
    monkeypatch.delenv("HLMKIT_CONFIG", raising=False)
    n = AXES[axis][1]
    small = {label: _cpu(run) for label, run in _runs(tmp_path, axis, n).items()}
    large = {label: _cpu(run) for label, run in _runs(tmp_path, axis, 8 * n).items()}
    capsys.readouterr()
    for label, time_n in small.items():
        assert large[label] / time_n < CPU_RATIO, (label, time_n, large[label])
