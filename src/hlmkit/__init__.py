"""hlmkit: text difficulty criteria, stratified splits, and human-likeness analysis.

The package is organized around a small pipeline:

* :mod:`hlmkit.textstat` counts sentences/words/syllables and computes the
  Flesch reading-ease score.
* :mod:`hlmkit.surprisal` trains an interpolated Kneser-Ney n-gram model and
  produces per-token surprisal sequences (or imports them from JSONL).
* :mod:`hlmkit.uid` turns surprisal sequences into the two
  uniform-information-density difficulty scores.
* :mod:`hlmkit.splitkit` scores a corpus under one criterion and splits it
  into easy/medium/hard tertiles.
* :mod:`hlmkit.hlm` computes logical ordering scores and the per-model,
  per-task and per-criterion human-likeness indices over a performance cube.
* :mod:`hlmkit.experiment` builds curriculum schedules and measures
  convergence ratios and difficulty-transfer matrices.
* :mod:`hlmkit.cli` is the command-line driver tying it together.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DegenerateStats", "EmptyCorpus", "EmptyDocument", "HlmkitError",
               "IncompleteDataWarning", "MissingScore", "MissingSurprisal", "ParseError",
               "TooSmall", "ValidationError"),
    "experiment": ("Schedule", "TrainingLog", "TransferMatrix", "convergence_ratio",
                   "make_schedule", "seeded_shuffle", "transfer_scores"),
    "hlm": ("HlmReport", "PerformanceCube", "PerformanceTriplet", "cell_value",
            "compute_report", "load_cube_csv", "logical_score"),
    "splitkit": ("DifficultyScore", "DifficultySplit", "Providers", "score_corpus",
                 "tertile_split"),
    "surprisal": ("NgramModel", "SurprisalSequence", "import_surprisals", "load_model",
                  "save_model", "sentence_surprisals", "token_surprisals", "train_lm"),
    "textstat": ("Document", "FleschConfig", "TextStats", "count_syllables", "flesch_score",
                 "segment_sentences", "text_stats", "tokenize_words"),
    "uid": ("uid_superlinear", "uid_variance"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines ``name``, on first use."""
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value
