"""Command-line driver.

Subcommands: score, split, lm-train, surprisal, hlm, schedule, converge,
transfer, report. Options may come from an INI config file (section per
subcommand plus a [defaults] section) selected with --config or the
HLMKIT_CONFIG environment variable; explicit flags always win. Exit codes:
0 success, 2 validation failure, 3 I/O failure. All outputs are
deterministic, so rerunning a subcommand on unchanged inputs produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

# eager on purpose: perfbench/tracing.py looks up all seven layers in sys.modules
from . import experiment, hlm, splitkit, surprisal, svg, uid
from ._files import BOOL, NUMBER, atomic_write, fields, open_input, read_json
from .data import reference_performance_path
from .errors import HlmkitError, ParseError, ValidationError
from .textstat import FleschConfig


class _Config:
    """Layered option lookup: CLI flag, then [command], then [defaults]."""

    def __init__(self, path: str | None):
        self.parser = configparser.ConfigParser()
        if path:
            try:
                with open_input(path) as fh:
                    self.parser.read_file(fh)
            except configparser.Error as e:  # its message may span lines
                raise ParseError(f"invalid config file: {' '.join(str(e).split())}") from None

    def _get(self, section: str, key: str, cast):
        get = {bool: self.parser.getboolean, int: self.parser.getint,
               float: self.parser.getfloat, str: self.parser.get}[cast]
        try:
            return get(section, key)
        except (ValueError, configparser.Error) as e:  # a bad cast or interpolation
            raise ValidationError(f"config [{section}] {key}: {e}") from None

    def resolve(self, flag_value, section: str, key: str, default, cast):
        if flag_value is not None:
            return flag_value
        for sect in (section, "defaults"):
            if self.parser.has_option(sect, key):
                return self._get(sect, key, cast)
        return default

    def flesch_config(self) -> FleschConfig:
        # Flesch coefficients are config-file-only by design; no CLI flags.
        return FleschConfig(**{
            f.name: self._get("flesch", f.name, float)
            for f in dataclasses.fields(FleschConfig) if self.parser.has_option("flesch", f.name)
        })


def _require_files(*paths):
    """Check that every input path exists before any work begins. A pipe such as
    ``/dev/stdin`` is an input too; a directory fails with exit 3 when it is opened."""
    for p in paths:
        if p is not None and not Path(p).exists():
            raise FileNotFoundError(f"input file not found: {p}")


def _dump_json(data: dict, path: str) -> None:
    with atomic_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _write_csv(path: str, rows) -> None:
    with atomic_write(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _check_svg(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        if not fh.read(5).startswith("<svg"):
            raise ValidationError(f"{path} is not an SVG document")


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_score(args, cfg: _Config) -> int:
    k = cfg.resolve(args.k, "score", "k", uid.DEFAULT_K, float)
    mu_lang = cfg.resolve(args.mu_lang, "score", "mu_lang", uid.DEFAULT_MU_LANG, float)
    base = cfg.resolve(args.base, "score", "base", surprisal.SurprisalSequence.base, str)
    per_sentence = cfg.resolve(args.per_sentence, "score", "per_sentence", False, bool)
    _require_files(args.corpus, args.model, args.surprisals, args.neural_scores)
    corpus = splitkit.load_corpus_jsonl(args.corpus)
    providers = splitkit.Providers(
        lm=surprisal.load_model(args.model) if args.model else None,
        surprisals=(
            splitkit.index_surprisals(surprisal.import_surprisals(args.surprisals))
            if args.surprisals else None
        ),
        neural=splitkit.load_neural_scores(args.neural_scores) if args.neural_scores else None,
        base=base,
        k=k,
        mu_lang=mu_lang,
        flesch=cfg.flesch_config(),
        per_sentence=per_sentence,
    )
    scores = splitkit.score_corpus(corpus, args.criterion, providers)
    splitkit.scores_to_jsonl(scores, args.output)
    if args.validate:
        splitkit.scores_from_jsonl(args.output)
    print(f"wrote {args.output} ({len(scores)} scores)")
    return 0


def cmd_split(args, cfg: _Config) -> int:
    _require_files(args.scores)
    scores = splitkit.scores_from_jsonl(args.scores)
    split = splitkit.tertile_split(scores)
    _dump_json(splitkit.split_to_dict(split), args.output)
    if args.validate:
        loaded = splitkit.split_from_dict(read_json(args.output))
        ids = set(loaded.easy) | set(loaded.medium) | set(loaded.hard)
        if ids != {s.doc_id for s in scores}:
            raise ValidationError("split output does not partition the scored corpus")
    sizes = (len(split.easy), len(split.medium), len(split.hard))
    print(f"wrote {args.output} (sizes {sizes})")
    return 0


def cmd_lm_train(args, cfg: _Config) -> int:
    order = cfg.resolve(args.order, "lm-train", "order", surprisal.DEFAULT_ORDER, int)
    discount = cfg.resolve(args.discount, "lm-train", "discount", surprisal.DEFAULT_DISCOUNT, float)
    _require_files(args.corpus)
    corpus = splitkit.load_corpus_jsonl(args.corpus)
    model = surprisal.train_lm(corpus, order=order, discount=discount)
    surprisal.save_model(model, args.output)
    if args.validate:
        reloaded = surprisal.load_model(args.output)
        if surprisal.model_to_dict(reloaded) != surprisal.model_to_dict(model):
            raise ValidationError("model dump did not round-trip")
    print(f"wrote {args.output} (order {order}, vocab {len(model.words)})")
    return 0


def cmd_surprisal(args, cfg: _Config) -> int:
    base = cfg.resolve(args.base, "surprisal", "base", surprisal.SurprisalSequence.base, str)
    per_sentence = cfg.resolve(args.per_sentence, "surprisal", "per_sentence", False, bool)
    _require_files(args.corpus, args.model)
    corpus = splitkit.load_corpus_jsonl(args.corpus)
    model = surprisal.load_model(args.model)
    if per_sentence:
        seqs = (s for doc in corpus for s in surprisal.sentence_surprisals(model, doc, base))
    else:
        seqs = (surprisal.token_surprisals(model, doc, base) for doc in corpus)
    n = surprisal.export_surprisals(seqs, args.output)
    if args.validate:
        surprisal.import_surprisals(args.output)
    print(f"wrote {args.output} ({n} sequences)")
    return 0


def _report_heatmap_data(i_model, i_task, i_criteria, cells):
    """Row labels, column labels and value grid of the index heatmap, and the
    (model, criterion) pair of each cell row, from the three index dicts and
    (task, criterion, model, value) cells; a cell is found by names, not label."""
    models, tasks, criteria = sorted(i_model), sorted(i_task), sorted(i_criteria)
    height, width = (len(models) + 1) * (len(criteria) + 1), len(tasks) + 1
    if height * width > 16 * max(1, len(cells)):
        raise ValidationError(f"a heatmap of {height} rows x {width} columns is too sparse for "
                              f"{len(cells)} cells (at most 16 positions per cell)")
    pairs = [(m, c) for m in models for c in criteria]
    values = {(model, criterion, task): v for task, criterion, model, v in cells}
    rows = ([f"{m}/{c}" for m, c in pairs] + ["I_task"] + [f"I_model {m}" for m in models]
            + [f"I_criteria {c}" for c in criteria])
    blank = [None] * len(tasks)
    grid = ([[values.get((m, c, t)) for t in tasks] + [None] for m, c in pairs]
            + [[i_task[t] for t in tasks] + [None]] + [blank + [i_model[m]] for m in models]
            + [blank + [i_criteria[c]] for c in criteria])
    return rows, tasks + ["index"], grid, pairs


def cmd_hlm(args, cfg: _Config) -> int:
    std_ddof = cfg.resolve(args.std_ddof, "hlm", "std_ddof", 0, int)
    cube_path = args.cube or str(reference_performance_path())
    _require_files(cube_path)
    # no name holds the cube, so it is freed before the outputs are built
    report = hlm.compute_report(hlm.load_cube_csv(cube_path), ddof=std_ddof)
    if args.heatmap_csv or args.heatmap_svg:  # its size check runs before anything is written
        rows, cols, grid, pairs = _report_heatmap_data(
            report.i_model, report.i_task, report.i_criteria,
            [(c.task, c.criterion, c.model, c.value) for c in report.cells])
    _dump_json(hlm.report_to_dict(report), args.output)
    if args.heatmap_csv:
        _write_csv(args.heatmap_csv, [["model", "criterion"] + cols[:-1]] + [
            [m, c] + ["" if v is None else v for v in row[:-1]] for (m, c), row in zip(pairs, grid)
        ])
    if args.heatmap_svg:
        _write_text(args.heatmap_svg, svg.heatmap_svg(rows, cols, grid, title="HLM index"))
    if args.validate:
        if hlm.report_from_dict(read_json(args.output)) != report:
            raise ValidationError("report did not round-trip")
        if args.heatmap_svg:
            _check_svg(args.heatmap_svg)
    print(f"wrote {args.output} ({len(report.cells)} cells)")
    return 0


def cmd_schedule(args, cfg: _Config) -> int:
    seed = cfg.resolve(args.seed, "schedule", "seed", None, int)
    _require_files(args.split)
    split = splitkit.split_from_dict(read_json(args.split))
    schedule = experiment.make_schedule(split, args.order, seed)
    _dump_json(experiment.schedule_to_dict(schedule), args.output)
    if args.validate:
        loaded = experiment.schedule_from_dict(read_json(args.output))
        if sorted(loaded.sequence) != sorted(split.easy + split.medium + split.hard):
            raise ValidationError("schedule is not a permutation of the split corpus")
    print(f"wrote {args.output} ({len(schedule.sequence)} documents, order {args.order})")
    return 0


def cmd_converge(args, cfg: _Config) -> int:
    epsilon_rel = cfg.resolve(args.epsilon, "converge", "epsilon_rel",
                              experiment.DEFAULT_EPSILON_REL, float)
    _require_files(args.log, args.manifest)
    if args.higher_is_better is not None:
        direction = args.higher_is_better
    elif args.manifest:
        (direction,) = fields(read_json(args.manifest), {"higher_is_better": BOOL})
    else:
        raise ValidationError(
            "metric direction required: pass --higher-is-better/--lower-is-better "
            "or a --manifest file"
        )
    log = experiment.load_training_log(args.log, higher_is_better=direction)
    result = experiment.converge_result_to_dict(log, epsilon_rel)
    _dump_json(result, args.output)
    if args.validate:
        (ratio,) = fields(read_json(args.output), {"ratio": NUMBER})
        if not 0 < ratio <= 1:
            raise ValidationError("convergence ratio out of range")
    print(f"wrote {args.output} (ratio {result['ratio']:.4f})")
    return 0


def cmd_transfer(args, cfg: _Config) -> int:
    _require_files(args.cube)
    cube = hlm.load_cube_csv(args.cube)
    matrix = experiment.transfer_scores(cube)
    _dump_json(experiment.transfer_to_dict(matrix), args.output)
    if args.csv:
        _write_csv(args.csv, [["train_level", *hlm.LEVELS]] + [
            [tr] + [matrix.values[(tr, ev)] for ev in hlm.LEVELS] for tr in hlm.LEVELS
        ])
    if args.validate:
        for ev in hlm.LEVELS:
            if abs(matrix.column_sum(ev) - 6.0) > 1e-9:
                raise ValidationError(f"transfer column {ev} does not sum to 6")
    print(f"wrote {args.output} ({len(matrix.groups)} groups)")
    return 0


def cmd_report(args, cfg: _Config) -> int:
    if not args.hlm_report and not args.curves:
        raise ValidationError("nothing to render: pass --hlm-report and/or --curves")
    wrote = []
    if args.hlm_report:
        _require_files(args.hlm_report)
        if not args.heatmap_out:
            raise ValidationError("--hlm-report requires --heatmap-out")
        rows, cols, grid, _ = _report_heatmap_data(
            *hlm.report_values(read_json(args.hlm_report)))
        _write_text(args.heatmap_out, svg.heatmap_svg(rows, cols, grid, title="HLM index"))
        wrote.append(args.heatmap_out)
    if args.curves:
        _require_files(*args.curves)
        if not args.curves_out:
            raise ValidationError("--curves requires --curves-out")
        labels = args.labels or [Path(p).stem for p in args.curves]
        if len(labels) != len(args.curves):
            raise ValidationError("--labels must match the number of --curves files")
        series = []
        for label, path in zip(labels, args.curves):
            # direction does not matter for plotting; use the default
            log = experiment.load_training_log(path, higher_is_better=True)
            series.append((label, [(float(s), v) for s, v in log.steps]))
        _write_text(args.curves_out, svg.curves_svg(
            series, title="Learning curves", x_label="step", y_label="dev metric"))
        wrote.append(args.curves_out)
    if args.validate:
        for path in wrote:
            _check_svg(path)
    print(f"wrote {', '.join(wrote)}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file (default: $HLMKIT_CONFIG)")
    p.add_argument("--validate", action="store_true",
                   help="re-read and schema-check outputs after writing")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlmkit",
        description="Text difficulty scoring, splits, and human-likeness analysis",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("score", help="score a corpus under a difficulty criterion")
    p.add_argument("--corpus", required=True, help="corpus JSONL ({id, text} per line)")
    p.add_argument("--criterion", required=True, choices=splitkit.CRITERIA)
    p.add_argument("--model", help="n-gram model JSON (for uid criteria)")
    p.add_argument("--surprisals", help="imported surprisal JSONL (for uid criteria)")
    p.add_argument("--neural-scores", help="neural score JSONL (for the neural criterion)")
    p.add_argument("--base", choices=("2", "e"))
    p.add_argument("--k", type=float,
                   help=f"super-linearity exponent (default {uid.DEFAULT_K})")
    p.add_argument("--mu-lang", type=float,
                   help=f"language-level mean surprisal (default {uid.DEFAULT_MU_LANG})")
    p.add_argument("--per-sentence", action=argparse.BooleanOptionalAction,
                   help="average UID scores over sentences")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("split", help="partition scored documents into tertiles")
    p.add_argument("--scores", required=True, help="difficulty score JSONL")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("lm-train", help="train the built-in Kneser-Ney n-gram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, choices=(1, 2, 3))
    p.add_argument("--discount", type=float)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("surprisal", help="score per-token surprisals with a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--base", choices=("2", "e"))
    p.add_argument("--per-sentence", action=argparse.BooleanOptionalAction,
                   help="emit one sequence per sentence instead of per document")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_surprisal)

    p = sub.add_parser("hlm", help="compute the HLM index report from a performance cube")
    p.add_argument("--cube", help="performance cube CSV (default: bundled reference results)")
    p.add_argument("--std-ddof", type=int, choices=(0, 1),
                   help="0 = population STD (default), 1 = sample STD")
    p.add_argument("--heatmap-csv", help="also write the cell-value matrix as CSV")
    p.add_argument("--heatmap-svg", help="also render the heatmap as SVG")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_hlm)

    p = sub.add_parser("schedule", help="emit a curriculum schedule from a split")
    p.add_argument("--split", required=True, help="split JSON from the split subcommand")
    p.add_argument("--order", required=True, choices=experiment.ORDERS)
    p.add_argument("--seed", type=int, help="PRNG seed (random order only)")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("converge", help="convergence ratio of a training log")
    p.add_argument("--log", required=True, help="training log CSV (step,value)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--higher-is-better", dest="higher_is_better", action="store_true")
    group.add_argument("--lower-is-better", dest="higher_is_better", action="store_false")
    p.set_defaults(higher_is_better=None)
    p.add_argument("--manifest", help="run manifest JSON with a higher_is_better flag")
    p.add_argument("--epsilon", type=float, help="relative convergence tolerance "
                   f"(default {experiment.DEFAULT_EPSILON_REL})")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("transfer", help="train/eval difficulty transfer matrix")
    p.add_argument("--cube", required=True, help="performance cube CSV with eval-level rows")
    p.add_argument("--csv", help="also write the 3x3 matrix as CSV")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("report", help="render heatmap / learning-curve SVGs")
    p.add_argument("--hlm-report", help="report JSON from the hlm subcommand")
    p.add_argument("--heatmap-out", help="output SVG for the index heatmap")
    p.add_argument("--curves", nargs="+", help="training log CSVs to plot")
    p.add_argument("--labels", nargs="+", help="legend labels (default: file stems)")
    p.add_argument("--curves-out", help="output SVG for the learning curves")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        cfg = _Config(args.config or os.environ.get("HLMKIT_CONFIG"))
        return args.func(args, cfg)
    except HlmkitError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
