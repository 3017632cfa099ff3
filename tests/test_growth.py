"""Growth gate: the n-gram commands do no super-linear work.

``lm-train``, ``surprisal`` and ``score --criterion uid_sl --model`` run in-process through
``cli.main`` on corpora of n, 2n and 4n documents and on one sentence of n, 2n and 4n tokens.
Under ``sys.setprofile`` each run's Python calls and builtin calls are counted: a per-item
loop shows as a count that doubles with n, and a quadratic one as a count that quadruples.
Work inside one builtin call (``sorted``, ``x in list``, ``list.pop(0)``) is one event, so the
gate also times each command at 8n with ``time.process_time``.
"""

import json
import random
import sys
import time

import pytest

from hlmkit import cli

# Call counts per doubling of n: 1.53-1.87 measured on Python 3.10-3.13, where linear work
# reads at most 2 and quadratic work 4
COUNT_RATIO = 2.3
# CPU time at 8n over n: 4.0-7.2 measured on Python 3.10-3.13 (best of two runs each), where
# linear work reads at most about 8 and quadratic work 64; 24 leaves a 3x margin over the worst
CPU_RATIO = 24


def _words(rng, n):
    """n tokens of Zipf-like frequency over 2,000 words, so the vocabulary keeps growing."""
    vocab = [f"w{i}" for i in range(2000)]
    return rng.choices(vocab, [1 / (r + 1) for r in range(len(vocab))], k=n)


def _documents(n):
    """n documents of two capitalised 10-token sentences each."""
    rng = random.Random(n)
    return [" ".join(" ".join(_words(rng, 10)).capitalize() + "." for _ in range(2))
            for _ in range(n)]


def _one_sentence(n):
    """One lowercase document of n tokens and no full stop: the segmenter keeps it whole."""
    return [" ".join(_words(random.Random(n), n))]


AXES = {"documents": (_documents, 100), "sentence-length": (_one_sentence, 2000)}
COMMANDS = {
    "lm-train": ["lm-train", "--order", "3", "-o", "{model}"],
    "surprisal": ["surprisal", "--model", "{model}", "-o", "{out}"],
    "score-uid_sl": ["score", "--criterion", "uid_sl", "--model", "{model}", "-o", "{out}"],
}


def _runs(tmp_path, texts):
    """Each command's ``cli.main`` call on a corpus of ``texts``, in chain order."""
    corpus, model = tmp_path / "corpus.jsonl", tmp_path / "model.json"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n"
                              for i, t in enumerate(texts)), encoding="utf-8")
    names = {"model": str(model), "out": str(tmp_path / "out.jsonl")}
    return {label: lambda argv=argv: cli.main(
                [argv[0], "--corpus", str(corpus)] + [a.format(**names) for a in argv[1:]])
            for label, argv in COMMANDS.items()}


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
    make, n = AXES[axis]
    counts = {label: [] for label in COMMANDS}
    for size in (n, 2 * n, 4 * n):
        for label, run in _runs(tmp_path, make(size)).items():
            counts[label].append(_events(run))
    capsys.readouterr()
    for label, (a, b, c) in counts.items():
        assert b / a <= COUNT_RATIO and c / b <= COUNT_RATIO, (label, counts[label])


@pytest.mark.parametrize("axis", AXES)
def test_cpu_time_grows_at_most_linearly_times_log(tmp_path, capsys, monkeypatch, axis):
    monkeypatch.delenv("HLMKIT_CONFIG", raising=False)
    make, n = AXES[axis]
    small = {label: _cpu(run) for label, run in _runs(tmp_path, make(n)).items()}
    large = {label: _cpu(run) for label, run in _runs(tmp_path, make(8 * n)).items()}
    capsys.readouterr()
    for label in COMMANDS:
        assert large[label] / small[label] < CPU_RATIO, (label, small[label], large[label])
