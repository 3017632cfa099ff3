#!/usr/bin/env python3
"""hlmkit benchmark: generated workloads run through the real CLI.

    python3 perfbench/run.py --workload corpus-pipeline --seed 1 --seconds 25 --trace 0

Run from a checkout that holds ``src/hlmkit``. The seed is the only source of
the generated inputs. With ``--trace 0`` the workload's CLI chain runs as
``python -m hlmkit`` subprocesses, one after another, repeated while the
time budget allows, and the end-to-end metrics are reported. With
``--trace 1`` the chain runs once as subprocesses (per-subcommand times),
then four times in-process through ``hlmkit.cli.main``: untraced, then
twice with spans around every layer boundary, then untraced again.
The per-layer metrics, each layer's self time and the tracing overhead come
from those passes. Outputs are checked after the timed region; every failed
command or check counts in ``failed``. The last line of standard output is
one JSON object; the lines before it give the same figures, and more, for
reading.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import UNPINNED_OUTPUTS, WORKLOADS, digests  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference_digests.json"
DEFAULT_SEED = 1
COMMAND_TIMEOUT_S = 150
SETUP_PROBES_PER_REPETITION = 2
MIN_SETUP_PROBES = 3
STARTUP_PROBES = 5
IN_PROCESS_PASSES = ("untraced", "traced", "traced", "untraced")
ORACLE_SAMPLES = 25
LONG_SENTENCE_TOKENS = 1000
SUBCOMMANDS = ("lm-train", "surprisal", "score", "split", "schedule",
               "hlm", "transfer", "converge", "report")
LAYERS = ("textstat", "surprisal", "uid", "splitkit", "experiment", "hlm", "svg", "cli")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


class Runner:
    """Runs child processes one at a time and keeps the operation tally."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "HLMKIT_CONFIG"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed: dict[str, str] = {}

    def op(self) -> str:
        self.attempted += 1
        return f"op{self.attempted}"

    def fail(self, op: str, why: str) -> None:
        self.failed.setdefault(op, why)

    def spawn(self, args: list[str], label: str) -> dict:
        """One child process: its wall time, peak RSS and operation id."""
        op = self.op()
        out, err = self.work / "child.out", self.work / "child.err"
        with open(out, "wb") as so, open(err, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=so, stderr=se,
                                    env=self.env, cwd=ROOT)
            signal.alarm(COMMAND_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                self.fail(op, f"{label}: timed out after {COMMAND_TIMEOUT_S} s")
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            self.fail(op, f"{label}: exit {proc.returncode}: {stderr.strip()[-300:]}")
        elif "Traceback (most recent call last)" in stderr:
            self.fail(op, f"{label}: traceback on stderr")
        return {"op": op, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0}

    def cli(self, cmd) -> dict:
        return self.spawn(["-m", "hlmkit", *cmd.argv], cmd.label)


# ---------------------------------------------------------------------------
# checks, all outside the timed region

def _load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def verify(runner: Runner, wl, inp: dict, out: Path, chain, ops: dict[str, str],
           got: dict[str, str], ref_key: str) -> None:
    """Output checks, and the digests ``got`` against the reference, for one chain.

    ``ops`` maps command labels to the operation each failure is charged to.
    """
    try:
        found = wl.check(inp, out)
    except (OSError, ValueError, KeyError, TypeError) as e:
        found = {chain[-1].label: [f"output check crashed: {type(e).__name__}: {e}"]}
    for label, problems in found.items():
        for p in problems:
            runner.fail(ops[label], p)
    expected = _load_reference().get(ref_key)
    if expected is not None:
        producer = {name: cmd.label for cmd in chain for name in cmd.outputs}
        for name, digest in expected.items():
            if got.get(name) != digest:
                runner.fail(ops[producer[name]], f"{name}: sha256 differs from the reference")


def oracle_check(runner: Runner, seed: int) -> None:
    """Recompute a seeded sample of CLI surprisals with the naive KN reference."""
    import importlib.util
    import math

    from hlmkit.textstat import segment_sentences, tokenize_words
    from workloads import Command

    d = runner.work / "oracle"
    d.mkdir(exist_ok=True)
    corpus = gen.oracle_corpus(d, seed)
    train = runner.cli(Command("oracle-train", ("lm-train", "--corpus", str(corpus), "--order",
                                                "3", "-o", str(d / "model.json")), (), "other"))
    score = runner.cli(Command("oracle-score", ("surprisal", "--corpus", str(corpus), "--model",
                                                str(d / "model.json"), "-o",
                                                str(d / "surprisals.jsonl")), (), "other"))
    if train["op"] in runner.failed or score["op"] in runner.failed:
        return
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        runner.fail(score["op"], "tests/oracles.py is missing")
        return
    spec = importlib.util.spec_from_file_location("oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    docs = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    sents_by_doc = [[[t.lower() for t in tokenize_words(s)] for s in segment_sentences(doc["text"])]
                    for doc in docs]
    all_sents = [s for sents in sents_by_doc for s in sents if s]
    rows = [json.loads(line) for line in
            (d / "surprisals.jsonl").read_text(encoding="utf-8").splitlines()]
    rng = gen.Rng(seed)
    for _ in range(ORACLE_SAMPLES):
        di = rng.randint(0, len(docs) - 1)
        positions = [(s, i) for s in sents_by_doc[di] if s for i in range(len(s))]
        k = rng.randint(0, len(positions) - 1)
        sent, i = positions[k]
        ctx = (oracles.BOS,) * 2 + tuple(sent[:i])
        expected = -math.log2(oracles.kn_prob(all_sents, 3, 0.75, sent[i], ctx))
        got = rows[di]["surprisals"][k]
        if abs(got - max(0.0, expected)) > 1e-9 * max(1.0, expected):
            runner.fail(score["op"], f"oracle: {docs[di]['id']} token {k}: {got!r} != {expected!r}")
            return


def corpus_shape(path: Path) -> dict:
    """Sentence and token counts of a corpus as the segmenter sees it."""
    from hlmkit.textstat import segment_sentences, tokenize_words
    lengths = []
    for line in path.read_text(encoding="utf-8").splitlines():
        for s in segment_sentences(json.loads(line)["text"]):
            lengths.append(len(tokenize_words(s)))
    tokens = sum(lengths)
    long_tokens = sum(n for n in lengths if n > LONG_SENTENCE_TOKENS)
    return {"sentences": len(lengths), "tokens": tokens,
            "max_sentence_tokens": max(lengths, default=0),
            "long_sentence_token_share": 100.0 * long_tokens / tokens if tokens else 0.0}


# ---------------------------------------------------------------------------
# the two kinds of run

def _median(values):
    return statistics.median(values) if values else 0.0


def untraced_run(runner: Runner, wl, inp: dict, seed: int, seconds: float,
                 ref_key: str) -> dict:
    out = runner.work / "out"
    out.mkdir()
    chain = wl.chain(inp, out)
    walls: dict[str, list[float]] = {cmd.label: [] for cmd in chain}
    rss: dict[str, list[float]] = {cmd.label: [] for cmd in chain}
    setup: list[float] = []
    first = None
    start = time.perf_counter()
    while not setup or time.perf_counter() - start < seconds:
        results = [runner.cli(cmd) for cmd in chain]
        # Set-up probes in every repetition, so that they sample the same
        # stretch of time as the chains rather than one burst after them.
        for _ in range(SETUP_PROBES_PER_REPETITION):
            setup.append(runner.spawn(wl.setup(inp, out), "setup")["wall"])
        ops = {cmd.label: r["op"] for cmd, r in zip(chain, results)}
        got = digests(out, chain)
        first = first or got
        for cmd, r in zip(chain, results):
            walls[cmd.label].append(r["wall"])
            rss[cmd.label].append(r["rss_mb"])
            if any(got[n] != first[n] for n in cmd.outputs):
                runner.fail(r["op"], f"{cmd.label}: output differs from the first repetition")
    verify(runner, wl, inp, out, chain, ops, got, ref_key)
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(runner.spawn(wl.setup(inp, out), "setup")["wall"])
    if wl.uses_lm:
        oracle_check(runner, seed)

    # Medians per command, then summed: one disturbed command does not move
    # the whole repetition's figure.
    per_cmd = {label: _median(ws) for label, ws in walls.items()}

    def group(name):
        return sum(per_cmd[c.label] for c in chain if c.group == name)

    metrics = {
        "wall_s": sum(per_cmd.values()),
        "setup_s": _median(setup),
        "peak_rss_mb": max(_median(v) for v in rss.values()),
        "output_bytes": sum((out / n).stat().st_size for c in chain for n in c.outputs
                            if (out / n).is_file()),
    }
    model = out / "model.json"
    extra = {"train_s": (group("train"), "s"), "score_s": (group("score"), "s"),
             "analyze_s": (group("analyze"), "s"),
             "model_bytes": (model.stat().st_size if model.is_file() else 0, "B"),
             "repetitions": (len(walls[chain[0].label]), "count"),
             "setup_probes": (len(setup), "count"),
             "setup_walls": (setup, "s"),
             **{f"{label}_walls": (ws, "s") for label, ws in walls.items()}}
    return {"metrics": metrics, "extra": extra}


def _in_process(runner: Runner, wl, inp: dict, out: Path, tracer: Tracer | None) -> float:
    """Run the chain through ``hlmkit.cli.main``; returns summed seconds."""
    from hlmkit import cli
    out.mkdir()
    total = 0.0
    for cmd in wl.chain(inp, out):
        op = runner.op()
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's "wrote ..." lines
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(list(cmd.argv))
                else:
                    with tracer.span(f"cli.{cmd.subcommand}"):
                        rc = cli.main(list(cmd.argv))
            except SystemExit as e:
                rc = e.code
            total += time.perf_counter() - start
        if rc != 0:
            runner.fail(op, f"in-process {cmd.label}: exit {rc}")
    return total


def traced_run(runner: Runner, wl, inp: dict, seed: int, ref_key: str,
               trace_path: Path) -> dict:
    import hlmkit.cli  # noqa: F401  (imported before any pass is timed)
    out = runner.work / "out"
    out.mkdir()
    chain = wl.chain(inp, out)
    results = [runner.cli(cmd) for cmd in chain]
    ops = {cmd.label: r["op"] for cmd, r in zip(chain, results)}
    reference = digests(out, chain)
    verify(runner, wl, inp, out, chain, ops, reference, ref_key)
    startup = [runner.spawn(["-c", "import hlmkit.cli"], "startup")["wall"]
               for _ in range(STARTUP_PROBES)]
    if wl.uses_lm:
        oracle_check(runner, seed)

    # Passes run untraced, traced, traced, untraced, so that a steady drift
    # in speed over the run cancels out of the overhead; the spans of the
    # last traced pass are kept.
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    for i, name in enumerate(IN_PROCESS_PASSES):
        d = runner.work / f"pass{i}"
        if name == "untraced":
            walls[name].append(_in_process(runner, wl, inp, d, None))
        else:
            tracer = Tracer()
            with tracer.installed():
                walls[name].append(_in_process(runner, wl, inp, d, tracer))
        got = digests(d, wl.chain(inp, d))
        for cmd in chain:
            if any(got[n] != reference[n] for n in cmd.outputs):
                runner.fail(ops[cmd.label], f"in-process {name} output of {cmd.label} "
                                            "differs from the CLI's")
        shutil.rmtree(d, ignore_errors=True)
    untraced_s, traced_s = statistics.fmean(walls["untraced"]), statistics.fmean(walls["traced"])
    tracer.write(trace_path)

    t, c = tracer.total, tracer.counts
    shape = corpus_shape(Path(inp["corpus"])) if wl.uses_lm else {}
    model = out / "model.json"
    score_s = t("surprisal.score")
    m = {
        "textstat.segment_s": t("textstat.segment"),
        "textstat.text_stats_s": t("textstat.text_stats"),
        **{f"textstat.{k}": shape.get(k, 0) for k in
           ("sentences", "tokens", "max_sentence_tokens", "long_sentence_token_share")},
        "surprisal.train_s": t("surprisal.train"),
        "surprisal.save_s": t("surprisal.save"),
        "surprisal.load_s": t("surprisal.load"),
        "surprisal.score_s": score_s,
        "surprisal.export_s": t("surprisal.export"),
        "surprisal.import_s": t("surprisal.import"),
        "surprisal.model_bytes": model.stat().st_size if model.is_file() else 0,
        "surprisal.ngram_entries": c.get("surprisal.ngram_entries", 0),
        "surprisal.tokens_per_s": c.get("surprisal.tokens", 0) / score_s if score_s else 0.0,
        "uid.sl_s": t("uid.sl"),
        "uid.var_s": t("uid.var"),
        "splitkit.load_corpus_s": t("splitkit.load_corpus"),
        "splitkit.score_model_s": t("splitkit.score_model"),
        "splitkit.score_imported_s": t("splitkit.score_imported"),
        "splitkit.score_flesch_s": t("splitkit.score_flesch"),
        "splitkit.split_s": t("splitkit.split"),
        "splitkit.scores_io_s": t("splitkit.scores_io"),
        "experiment.schedule_s": t("experiment.schedule"),
        "experiment.transfer_s": t("experiment.transfer"),
        "experiment.transfer_groups": c.get("experiment.transfer_groups", 0),
        "experiment.load_log_s": t("experiment.load_log"),
        "experiment.converge_s": t("experiment.converge"),
        "hlm.load_cube_s": t("hlm.load_cube"),
        "hlm.report_s": t("hlm.report"),
        "hlm.cells": c.get("hlm.cells", 0),
        "hlm.index_keys": c.get("hlm.index_keys", 0),
        "svg.heatmap_s": t("svg.heatmap"),
        "svg.curves_s": t("svg.curves"),
        "svg.bytes": c.get("svg.bytes", 0),
        **{f"{layer}.self_s": tracer.layer_self(layer) for layer in LAYERS},
        **{f"cli.{sub}_s": sum(r["wall"] for cmd, r in zip(chain, results)
                               if cmd.subcommand == sub) for sub in SUBCOMMANDS},
        "cli.startup_s": _median(startup),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }
    return {"metrics": m, "extra": {}}


# ---------------------------------------------------------------------------

def _declared(trace: int) -> tuple[dict[str, str], dict[str, str]]:
    """Metric units and workload reasons, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    return units, {w["name"]: w["why"] for w in bench["workloads"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(gen.SCALES), default="full",
                   help="input size; 'tiny' is for the smoke test")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's output digests as the reference for its seed")
    args = p.parse_args(argv)

    if not (SRC / "hlmkit" / "cli.py").is_file():
        print(f"error: no hlmkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units, why = _declared(args.trace)

    wl = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        runner = Runner(work)
        (work / "in").mkdir()
        inp = gen.GENERATORS[wl.name](work / "in", args.seed, args.scale)
        runner.spawn(["-c", "import hlmkit.cli"], "warm-up")  # compiles bytecode once
        ref_key = f"{wl.name}/{args.scale}/seed{args.seed}"
        if args.trace:
            trace_path = STATE / "trace" / f"{wl.name}-{args.scale}-seed{args.seed}.jsonl"
            result = traced_run(runner, wl, inp, args.seed, ref_key, trace_path)
        else:
            result = untraced_run(runner, wl, inp, args.seed, args.seconds, ref_key)
        if args.record_reference:
            out = work / "out"
            ref = _load_reference()
            ref[ref_key] = {n: d for n, d in digests(out, wl.chain(inp, out)).items()
                            if n not in UNPINNED_OUTPUTS}
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(f"# {wl.name} seed={args.seed} scale={args.scale} trace={args.trace}: "
          f"{why.get(wl.name, '')}")
    rows = {n: (v, units.get(n, "")) for n, v in values.items()}
    for name, (value, unit) in {**rows, **result["extra"]}.items():
        shown = " ".join(f"{v:.6g}" for v in value) if isinstance(value, list) else f"{value:.6g}"
        print(f"{name:34s} {shown} {unit}")
    print(f"{'error_rate':34s} {len(runner.failed) / runner.attempted:.6g} "
          f"({len(runner.failed)} of {runner.attempted} operations)")
    for op, why in sorted(runner.failed.items()):
        print(f"FAILED {op}: {why}")
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
