"""Bundled reference fixtures.

``reference_performance.csv`` holds per-difficulty-level benchmark results
for two models under four split criteria on nine tasks, evaluated on the full
test set. ``reference_transfer.csv`` holds the published 3x3 train/eval
transfer score matrix per model. Both are ingested measurements transcribed
from externally published results; nothing in this package produces them.
"""

from pathlib import Path


def reference_performance_path() -> Path:
    return Path(__file__).with_name("reference_performance.csv")


def reference_transfer_path() -> Path:
    return Path(__file__).with_name("reference_transfer.csv")
