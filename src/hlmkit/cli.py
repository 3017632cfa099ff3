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
import warnings
from operator import attrgetter
from pathlib import Path

# eager on purpose: perfbench/tracing.py looks up all seven layers in sys.modules
from . import experiment, hlm, splitkit, surprisal, svg, uid
from ._files import BOOL, atomic_write, fields, open_input, read_json
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

    def knobs(self, args: argparse.Namespace) -> dict:
        """The command's knobs that are set, by dest; unset ones keep their library default."""
        knobs = {}
        for dest, cast in vars(args).get("knob_casts", {}).items():
            sections = [s for s in (args.command, "defaults") if self.parser.has_option(s, dest)]
            if getattr(args, dest) is not None:
                knobs[dest] = getattr(args, dest)
            elif sections:
                knobs[dest] = self._get(sections[0], dest, cast)
        return knobs

    def flesch_config(self) -> FleschConfig:
        # Flesch coefficients are config-file-only by design; no CLI flags.
        return FleschConfig(**{
            f.name: self._get("flesch", f.name, float)
            for f in dataclasses.fields(FleschConfig) if self.parser.has_option("flesch", f.name)
        })


def _read_back(path: str, read, written) -> None:
    """The --validate check: ``path`` is a regular file that ``read`` turns back into ``written``
    (/dev/null reads back nothing; a pipe such as /dev/stdout would block or echo the output)."""
    if not (os.path.isfile(path) and read(path) == written):
        raise ValidationError(f"{path} is not a file that reads back as written")


_SLICE = 1 << 16  # characters per SVG write: each write encodes its whole text, a copy


def _write_json(fh, data: dict) -> None:
    json.dump(data, fh, indent=2, sort_keys=True, ensure_ascii=False)
    fh.write("\n")


def _write_svg(fh, text: str) -> None:
    for start in range(0, len(text), _SLICE):
        fh.write(text[start:start + _SLICE])


def _write_csv(fh, rows) -> None:
    csv.writer(fh, lineterminator="\n").writerows(rows)


def _write(*outputs) -> None:
    """Write each ``(path, write, value)`` output as ``write(fh, value)`` through one
    atomic_write: every file exists before the first is written."""
    with atomic_write(*[path for path, _, _ in outputs]) as handles:
        for fh, (_, write, value) in zip(handles, outputs):
            write(fh, value)


def _dump_json(data: dict, path: str, validate: bool, *more) -> None:
    _write((path, _write_json, data), *more)
    if validate:
        _read_back(path, read_json, data)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_score(args, cfg: _Config) -> int:
    corpus = splitkit.load_corpus_jsonl(args.corpus)
    providers = splitkit.Providers(
        lm=surprisal.load_model(args.model) if args.model else None,
        surprisals=(
            splitkit.index_surprisals(surprisal.import_surprisals(args.surprisals))
            if args.surprisals else None
        ),
        neural=splitkit.load_neural_scores(args.neural_scores) if args.neural_scores else None,
        flesch=cfg.flesch_config(),
        **args.knobs,
    )
    scores = splitkit.score_corpus(corpus, args.criterion, providers)
    splitkit.scores_to_jsonl(scores, args.output)
    if args.validate:
        _read_back(args.output, splitkit.scores_from_jsonl, scores)
    used = {"neural": "--neural-scores", "flesch": None}.get(
        args.criterion, "--model" if args.model else "--surprisals")  # uid: a model wins
    given = [("--model", args.model), ("--surprisals", args.surprisals),
             ("--neural-scores", args.neural_scores)]
    if unused := [flag for flag, path in given if path and flag != used]:  # read, all the same
        warnings.warn(f"--criterion {args.criterion} does not use {', '.join(unused)}")
    print(f"wrote {args.output} ({len(scores)} scores)")
    return 0


def cmd_split(args, cfg: _Config) -> int:
    scores = splitkit.scores_from_jsonl(args.scores)
    split = splitkit.tertile_split(scores)
    _dump_json(splitkit.split_to_dict(split), args.output, args.validate)
    sizes = (len(split.easy), len(split.medium), len(split.hard))
    print(f"wrote {args.output} (sizes {sizes})")
    return 0


def cmd_lm_train(args, cfg: _Config) -> int:
    corpus = splitkit.load_corpus_jsonl(args.corpus)
    model = surprisal.train_lm(corpus, **args.knobs)
    surprisal.save_model(model, args.output)
    if args.validate:  # the model's own arrays, with no dump of either side built
        tables = attrgetter("order", "discount", "words", "_grams", "_listed_at", "_listed")
        _read_back(args.output, lambda p: tables(surprisal.load_model(p)), tables(model))
    print(f"wrote {args.output} (order {model.order}, vocab {len(model.words)})")
    return 0


def cmd_surprisal(args, cfg: _Config) -> int:
    corpus = splitkit.load_corpus_jsonl(args.corpus)
    providers = splitkit.Providers(lm=surprisal.load_model(args.model), **args.knobs)
    seqs = (s for doc in corpus for s in splitkit.doc_sequences(doc, providers))
    n = surprisal.export_surprisals(seqs, args.output)
    if args.validate:  # a count, each record checked and dropped as it is read
        _read_back(args.output, lambda p: sum(1 for _ in surprisal.iter_surprisals(p)), n)
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
    cube_path = args.cube or str(reference_performance_path())
    # no name holds the cube, so it is freed before the outputs are built
    report = hlm.compute_report(hlm.load_cube_csv(cube_path), **args.knobs)
    if args.heatmap_csv or args.heatmap_svg:  # checked, and rendered, before any write
        rows, cols, grid, pairs = _report_heatmap_data(
            report.i_model, report.i_task, report.i_criteria,
            [(c.task, c.criterion, c.model, c.value) for c in report.cells])
    more = [(args.heatmap_csv, _write_csv, [["model", "criterion"] + cols[:-1]] + [
        [m, c] + ["" if v is None else v for v in row[:-1]] for (m, c), row in zip(pairs, grid)
    ])] if args.heatmap_csv else []
    if args.heatmap_svg:
        more.append((args.heatmap_svg, _write_svg, svg.heatmap_svg(rows, cols, grid)))
    _dump_json(hlm.report_to_dict(report), args.output, args.validate, *more)
    print(f"wrote {args.output} ({len(report.cells)} cells)")
    return 0


def cmd_schedule(args, cfg: _Config) -> int:
    split = splitkit.split_from_dict(read_json(args.split))
    schedule = experiment.make_schedule(split, args.order, **args.knobs)
    _dump_json(experiment.schedule_to_dict(schedule), args.output, args.validate)
    print(f"wrote {args.output} ({len(schedule.sequence)} documents, order {args.order})")
    return 0


def cmd_converge(args, cfg: _Config) -> int:
    if args.manifest:  # read even when a flag wins, so that a bad manifest is refused
        (direction,) = fields(read_json(args.manifest), {"higher_is_better": BOOL})
    if args.higher_is_better is not None:
        direction = args.higher_is_better
    elif not args.manifest:
        raise ValidationError(
            "metric direction required: pass --higher-is-better/--lower-is-better "
            "or a --manifest file"
        )
    log = experiment.load_training_log(args.log, higher_is_better=direction)
    result = experiment.converge_result_to_dict(log, **args.knobs)
    _dump_json(result, args.output, args.validate)
    print(f"wrote {args.output} (ratio {result['ratio']:.4f})")
    return 0


def cmd_transfer(args, cfg: _Config) -> int:
    cube = hlm.load_cube_csv(args.cube)
    matrix = experiment.transfer_scores(cube)
    more = [(args.csv, _write_csv, [["train_level", *hlm.LEVELS]] + [
        [tr] + [matrix.values[(tr, ev)] for ev in hlm.LEVELS] for tr in hlm.LEVELS
    ])] if args.csv else []
    _dump_json(experiment.transfer_to_dict(matrix), args.output, args.validate, *more)
    print(f"wrote {args.output} ({len(matrix.groups)} groups)")
    return 0


def cmd_report(args, cfg: _Config) -> int:
    if not args.hlm_report and not args.curves:
        raise ValidationError("nothing to render: pass --hlm-report and/or --curves")
    if args.hlm_report and not args.heatmap_out:
        raise ValidationError("--hlm-report requires --heatmap-out")
    if args.curves and not args.curves_out:
        raise ValidationError("--curves requires --curves-out")
    if args.heatmap_out and not args.hlm_report:
        raise ValidationError("--heatmap-out requires --hlm-report")
    if (args.curves_out or args.labels) and not args.curves:
        raise ValidationError("--curves-out and --labels require --curves")
    labels = args.labels or [Path(p).stem for p in args.curves or ()]
    if args.curves and len(labels) != len(args.curves):
        raise ValidationError("--labels must match the number of --curves files")
    outputs = []  # (path, SVG text): both are rendered before either is written
    if args.hlm_report:
        rows, cols, grid, _ = _report_heatmap_data(
            *hlm.report_values(read_json(args.hlm_report)))
        outputs.append((args.heatmap_out, svg.heatmap_svg(rows, cols, grid)))
    if args.curves:
        series = []
        for label, path in zip(labels, args.curves):
            # direction does not matter for plotting; use the default
            log = experiment.load_training_log(path, higher_is_better=True)
            series.append((label, [(float(s), v) for s, v in log.steps]))
        outputs.append((args.curves_out, svg.curves_svg(series)))
    _write(*[(path, _write_svg, text) for path, text in outputs])
    print(f"wrote {', '.join(path for path, _ in outputs)}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _command(sub, name: str, func, help: str,
             output: str | None = "output path") -> argparse.ArgumentParser:
    """Subcommand ``name``, run by ``func``, with --config, --validate and, unless
    ``output`` is None, a required -o/--output described by ``output``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="INI config file (default: $HLMKIT_CONFIG)")
    p.add_argument("--validate", action="store_true",
                   help="fail unless each JSON, JSON-lines or model output reads back as written")
    if output:
        p.add_argument("-o", "--output", required=True, help=output)
    return p


def _knob(p: argparse.ArgumentParser, *flags: str, **kwargs) -> None:
    """Add a flag that the config file may also set, as the key named by its dest."""
    action = p.add_argument(*flags, **kwargs)
    cast = bool if isinstance(action, argparse.BooleanOptionalAction) else action.type or str
    p.set_defaults(knob_casts={**(p.get_default("knob_casts") or {}), action.dest: cast})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlmkit",
        description="Text difficulty scoring, splits, and human-likeness analysis",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = _command(sub, "score", cmd_score, "score a corpus under a difficulty criterion")
    p.add_argument("--corpus", required=True, help="corpus JSONL ({id, text} per line)")
    p.add_argument("--criterion", required=True, choices=splitkit.CRITERIA)
    p.add_argument("--model", help="n-gram model JSON (for uid criteria)")
    p.add_argument("--surprisals", help="imported surprisal JSONL (for uid criteria)")
    p.add_argument("--neural-scores", help="neural score JSONL (for the neural criterion)")
    _knob(p, "--base", choices=("2", "e"))
    _knob(p, "--k", type=float, help=f"super-linearity exponent (default {uid.DEFAULT_K})")
    _knob(p, "--mu-lang", type=float,
          help=f"language-level mean surprisal (default {uid.DEFAULT_MU_LANG})")
    _knob(p, "--per-sentence", action=argparse.BooleanOptionalAction,
          help="average UID scores over sentences")

    p = _command(sub, "split", cmd_split, "partition scored documents into tertiles")
    p.add_argument("--scores", required=True, help="difficulty score JSONL")

    p = _command(sub, "lm-train", cmd_lm_train, "train the built-in Kneser-Ney n-gram model")
    p.add_argument("--corpus", required=True)
    _knob(p, "--order", type=int, choices=(1, 2, 3))
    _knob(p, "--discount", type=float)

    p = _command(sub, "surprisal", cmd_surprisal, "score per-token surprisals with a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    _knob(p, "--base", choices=("2", "e"))
    _knob(p, "--per-sentence", action=argparse.BooleanOptionalAction,
          help="emit one sequence per sentence instead of per document")

    p = _command(sub, "hlm", cmd_hlm, "compute the HLM index report from a performance cube",
                 output="report JSON path")
    p.add_argument("--cube", help="performance cube CSV (default: bundled reference results)")
    _knob(p, "--std-ddof", type=int, choices=(0, 1),
          help="0 = population STD (default), 1 = sample STD")
    p.add_argument("--heatmap-csv", help="also write the cell-value matrix as CSV")
    p.add_argument("--heatmap-svg", help="also render the heatmap as SVG")

    p = _command(sub, "schedule", cmd_schedule, "emit a curriculum schedule from a split")
    p.add_argument("--split", required=True, help="split JSON from the split subcommand")
    p.add_argument("--order", required=True, choices=experiment.ORDERS)
    _knob(p, "--seed", type=int, help="PRNG seed (random order only)")

    p = _command(sub, "converge", cmd_converge, "convergence ratio of a training log")
    p.add_argument("--log", required=True, help="training log CSV (step,value)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--higher-is-better", dest="higher_is_better", action="store_true")
    group.add_argument("--lower-is-better", dest="higher_is_better", action="store_false")
    p.set_defaults(higher_is_better=None)
    p.add_argument("--manifest", help="run manifest JSON with a higher_is_better flag")
    _knob(p, "--epsilon", dest="epsilon_rel", type=float,
          help=f"relative convergence tolerance (default {experiment.DEFAULT_EPSILON_REL})")

    p = _command(sub, "transfer", cmd_transfer, "train/eval difficulty transfer matrix")
    p.add_argument("--cube", required=True, help="performance cube CSV with eval-level rows")
    p.add_argument("--csv", help="also write the 3x3 matrix as CSV")

    p = _command(sub, "report", cmd_report, "render heatmap / learning-curve SVGs", output=None)
    p.add_argument("--hlm-report", help="report JSON from the hlm subcommand")
    p.add_argument("--heatmap-out", help="output SVG for the index heatmap")
    p.add_argument("--curves", nargs="+", help="training log CSVs to plot")
    p.add_argument("--labels", nargs="+", help="legend labels (default: file stems)")
    p.add_argument("--curves-out", help="output SVG for the learning curves")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    # a warning prints as one line, without the line of hlmkit's source that raised it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda msg, category, *_: f"warning: {category.__name__}: {msg}\n"
    try:
        cfg = _Config(args.config or os.environ.get("HLMKIT_CONFIG"))
        args.knobs = cfg.knobs(args)
        return args.func(args, cfg)
    except HlmkitError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
