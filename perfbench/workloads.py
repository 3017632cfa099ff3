"""The benchmark's workloads: CLI command chains, set-up probes and output checks.

Each workload is a chain of ``hlmkit`` subcommands over generated inputs.
Commands read inputs and write outputs inside one output directory, so the
same chain can run as subprocesses or in-process against another directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

SCHEDULE_SEED = 12345


@dataclass(frozen=True)
class Command:
    label: str                 # unique within the chain
    argv: tuple[str, ...]      # arguments after ``python -m hlmkit``
    outputs: tuple[str, ...]   # files the command writes, relative to the output dir
    group: str                 # "train", "score", "analyze" or "other"

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _corpus_chain(inp: dict, out: Path) -> list[Command]:
    corpus, model = str(inp["corpus"]), str(out / "model.json")

    def o(name):
        return str(out / name)

    return [
        Command("lm-train", ("lm-train", "--corpus", str(inp["train"]), "--order", "3",
                             "-o", model), ("model.json",), "train"),
        Command("surprisal", ("surprisal", "--corpus", corpus, "--model", model,
                              "-o", o("surprisals.jsonl")), ("surprisals.jsonl",), "score"),
        Command("score-uid_sl", ("score", "--corpus", corpus, "--criterion", "uid_sl",
                                 "--model", model, "-o", o("uid_sl.jsonl")),
                ("uid_sl.jsonl",), "score"),
    ]


def corpus_pipeline_chain(inp: dict, out: Path) -> list[Command]:
    corpus = str(inp["corpus"])

    def o(name):
        return str(out / name)

    return _corpus_chain(inp, out) + [
        Command("score-uid_var", ("score", "--corpus", corpus, "--criterion", "uid_var",
                                  "--surprisals", o("surprisals.jsonl"), "-o", o("uid_var.jsonl")),
                ("uid_var.jsonl",), "other"),
        Command("score-flesch", ("score", "--corpus", corpus, "--criterion", "flesch",
                                 "-o", o("flesch.jsonl")), ("flesch.jsonl",), "other"),
        Command("split", ("split", "--scores", o("uid_sl.jsonl"), "-o", o("split.json")),
                ("split.json",), "other"),
        Command("schedule", ("schedule", "--split", o("split.json"), "--order", "random",
                             "--seed", str(SCHEDULE_SEED), "-o", o("schedule.json")),
                ("schedule.json",), "other"),
    ]


def analysis_cube_chain(inp: dict, out: Path) -> list[Command]:
    cube = str(inp["cube"])

    def o(name):
        return str(out / name)

    chain = [
        Command("hlm", ("hlm", "--cube", cube, "-o", o("report.json"),
                        "--heatmap-csv", o("heatmap.csv"), "--heatmap-svg", o("heatmap.svg")),
                ("report.json", "heatmap.csv", "heatmap.svg"), "analyze"),
        Command("transfer", ("transfer", "--cube", cube, "-o", o("transfer.json")),
                ("transfer.json",), "analyze"),
    ]
    for log in inp["logs"]:
        name = f"converge-{Path(log).stem}.json"
        chain.append(Command(f"converge-{Path(log).stem}",
                             ("converge", "--log", str(log), "--higher-is-better", "-o", o(name)),
                             (name,), "analyze"))
    chain.append(Command(
        "report",
        ("report", "--hlm-report", o("report.json"), "--heatmap-out", o("report-heatmap.svg"),
         "--curves", *map(str, inp["logs"]), "--curves-out", o("curves.svg")),
        ("report-heatmap.svg", "curves.svg"), "analyze"))
    return chain


# Python run by each set-up probe: interpreter start, the CLI import, and
# the workload's inputs through the public loaders.
_SETUP_CORPUS = (
    "import sys\n"
    "import hlmkit.cli\n"
    "from hlmkit import splitkit, surprisal\n"
    "splitkit.load_corpus_jsonl(sys.argv[1])\n"
    "surprisal.load_model(sys.argv[2])\n"
)
_SETUP_CUBE = (
    "import sys\n"
    "import hlmkit.cli\n"
    "from hlmkit import hlm\n"
    "hlm.load_cube_csv(sys.argv[1])\n"
)


def corpus_setup(inp: dict, out: Path) -> list[str]:
    return ["-c", _SETUP_CORPUS, str(inp["corpus"]), str(out / "model.json")]


def cube_setup(inp: dict, out: Path) -> list[str]:
    return ["-c", _SETUP_CUBE, str(inp["cube"])]


# ---------------------------------------------------------------------------
# output checks; each returns {command label: [problem, ...]}

def digests(out: Path, chain: list[Command]) -> dict[str, str]:
    """sha256 of every output file the chain wrote, by file name."""
    result = {}
    for cmd in chain:
        for name in cmd.outputs:
            path = out / name
            result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return result


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_scores(path: Path, ids: list[str], criterion: str) -> list[str]:
    rows = _jsonl(path)
    problems = []
    if [r["id"] for r in rows] != ids:
        problems.append(f"{path.name}: ids do not match the corpus")
    if any(r["criterion"] != criterion or not math.isfinite(r["value"]) for r in rows):
        problems.append(f"{path.name}: wrong criterion or non-finite value")
    return problems


def _check_surprisals(path: Path, tokens: dict[str, int]) -> list[str]:
    rows = _jsonl(path)
    problems = []
    if [r["id"] for r in rows] != list(tokens):
        problems.append("surprisals: one sequence per document expected")
    for r in rows:
        if len(r["surprisals"]) != tokens.get(r["id"]):
            problems.append(f"surprisals: {r['id']} has {len(r['surprisals'])} values "
                            f"for {tokens.get(r['id'])} tokens")
        if not all(math.isfinite(v) and v >= 0 for v in r["surprisals"]):
            problems.append(f"surprisals: {r['id']} has a negative or non-finite value")
    return problems


def check_corpus_pipeline(inp: dict, out: Path) -> dict[str, list[str]]:
    ids = list(inp["tokens"])
    found = {
        "surprisal": _check_surprisals(out / "surprisals.jsonl", inp["tokens"]),
        "score-uid_sl": _check_scores(out / "uid_sl.jsonl", ids, "uid_sl"),
        "score-uid_var": _check_scores(out / "uid_var.jsonl", ids, "uid_var"),
        "score-flesch": _check_scores(out / "flesch.jsonl", ids, "flesch"),
    }
    split = json.loads((out / "split.json").read_text(encoding="utf-8"))
    parts = [split["easy"], split["medium"], split["hard"]]
    q, r = divmod(len(ids), 3)
    sizes = [q + (r >= 1), q + (r >= 2), q]
    members = [i for p in parts for i in p]
    found["split"] = [] if (sorted(members) == sorted(ids)
                            and [len(p) for p in parts] == sizes) else \
        ["split: easy/medium/hard do not partition the corpus into tertiles"]
    sched = json.loads((out / "schedule.json").read_text(encoding="utf-8"))
    found["schedule"] = [] if sorted(sched["sequence"]) == sorted(ids) else \
        ["schedule: sequence is not a permutation of the corpus"]
    return found


def check_long_sentence(inp: dict, out: Path) -> dict[str, list[str]]:
    return {
        "surprisal": _check_surprisals(out / "surprisals.jsonl", inp["tokens"]),
        "score-uid_sl": _check_scores(out / "uid_sl.jsonl", list(inp["tokens"]), "uid_sl"),
    }


def _is_svg(path: Path) -> bool:
    return path.read_text(encoding="utf-8").startswith("<svg")


def check_analysis_cube(inp: dict, out: Path) -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    if len(report["cells"]) != inp["cells"]:
        problems.append(f"hlm: {len(report['cells'])} cells, expected {inp['cells']}")
    if not all(-1 <= c["value"] <= 1 for c in report["cells"]):
        problems.append("hlm: a cell value lies outside [-1, 1]")
    heat_rows = (out / "heatmap.csv").read_text(encoding="utf-8").splitlines()
    if len(heat_rows) != 1 + len(report["i_model"]) * len(report["i_criteria"]):
        problems.append("hlm: heatmap CSV has the wrong number of rows")
    if not _is_svg(out / "heatmap.svg"):
        problems.append("hlm: heatmap.svg is not an SVG document")
    found["hlm"] = problems

    transfer = json.loads((out / "transfer.json").read_text(encoding="utf-8"))
    problems = []
    for ev in transfer["eval_levels"]:
        total = sum(transfer["matrix"][tr][ev] for tr in transfer["train_levels"])
        if abs(total - 6.0) > 1e-9:
            problems.append(f"transfer: column {ev} sums to {total!r}, not 6")
    if transfer["group_count"] != inp["cells"]:
        problems.append(f"transfer: {transfer['group_count']} groups, expected {inp['cells']}")
    found["transfer"] = problems

    for log in inp["logs"]:
        label = f"converge-{Path(log).stem}"
        result = json.loads((out / f"{label}.json").read_text(encoding="utf-8"))
        ok = 0 < result["ratio"] <= 1 and result["total_steps"] == inp["log_steps"]
        found[label] = [] if ok else [f"{label}: ratio or step count out of range"]

    found["report"] = [f"report: {n} is not an SVG document"
                       for n in ("report-heatmap.svg", "curves.svg") if not _is_svg(out / n)]
    return found


@dataclass(frozen=True)
class Workload:
    name: str
    chain: object          # (inputs, out dir) -> list[Command]
    setup: object          # (inputs, out dir) -> python arguments of one set-up probe
    check: object          # (inputs, out dir) -> {label: [problem, ...]}
    uses_lm: bool


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("corpus-pipeline", corpus_pipeline_chain, corpus_setup,
                 check_corpus_pipeline, True),
        Workload("long-sentence", _corpus_chain, corpus_setup, check_long_sentence, True),
        Workload("analysis-cube", analysis_cube_chain, cube_setup, check_analysis_cube, False),
    )
}

# Files never compared against the recorded digests: the model is checked by
# what it scores, so a new model format stays legal.
UNPINNED_OUTPUTS = {"model.json"}
