"""The import contract: ``import hlmkit`` loads a submodule only on the first
use of one of its names, and a layer imports no layer it only annotates."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hlmkit

SUBMODULES = ("errors", "experiment", "hlm", "splitkit", "surprisal", "textstat", "uid")
LAYERS = ("experiment", "hlm", "splitkit", "surprisal", "svg", "textstat", "uid")


def _fresh(code):
    """What ``code`` prints as JSON, run in a fresh ``python -S``: without
    site-packages, whose ``.pth`` files may import modules of their own. ``-B``
    keeps it from writing bytecode into ``src/``, which the environment given
    here would otherwise allow."""
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(Path(hlmkit.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_by(statement):
    """The hlmkit modules, and importlib.resources, that ``statement`` loads."""
    return set(_fresh(f"import json, sys\n{statement}\n"
                      "print(json.dumps([m for m in sys.modules"
                      "                  if m.startswith(('hlmkit', 'importlib.resources'))]))"))


def test_bare_import_loads_no_submodule():
    assert _loaded_by("import hlmkit") == {"hlmkit"}


def test_experiment_loads_no_scoring_layer():
    loaded = _loaded_by("import hlmkit.experiment")
    assert "hlmkit.experiment" in loaded
    assert not loaded & {"hlmkit.splitkit", "hlmkit.surprisal", "hlmkit.textstat", "hlmkit.uid"}


def test_uid_loads_no_surprisal():
    loaded = _loaded_by("import hlmkit.uid")
    assert "hlmkit.uid" in loaded and "hlmkit.surprisal" not in loaded


def test_cli_loads_every_layer_and_no_importlib_resources():
    loaded = _loaded_by("import hlmkit.cli")
    assert {f"hlmkit.{layer}" for layer in LAYERS} <= loaded
    assert not any(m.startswith("importlib.resources") for m in loaded)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_after_a_bare_import(name):
    assert _fresh(f"import json, sys, hlmkit\n"
                  f"print(json.dumps(hlmkit.{name} is sys.modules['hlmkit.{name}']))")


def test_every_public_name_is_its_modules_object():
    # resolved on first use in a fresh process, then read again from the cache
    assert _fresh(
        "import json, sys, hlmkit\n"
        "def owner(v): return getattr(sys.modules[v.__module__], v.__name__)\n"
        "first = [n for n in hlmkit.__all__ if n != '__version__'\n"
        "         and owner(getattr(hlmkit, n)) is not getattr(hlmkit, n)]\n"
        "ns = {}\n"
        "exec('from hlmkit import *', ns)\n"
        "print(json.dumps([first, sorted(set(hlmkit.__all__) - set(ns))]))") == [[], []]
    assert len(hlmkit.__all__) == len(set(hlmkit.__all__)) == 48


@pytest.mark.parametrize("module, name", [
    ("uid", "UidSlConfig"), ("uid", "UidVarConfig"), ("uid", "sentence_averaged"),
    ("splitkit", "NeuralScore"), ("hlm", "CubeCell"), ("hlm", "index"), ("hlm", "AXES"),
    ("errors", "MissingKey")])
def test_plain_values_replace_the_deleted_records(module, name):
    # k and mu_lang are floats, a neural row is a DifficultyScore, a cube a mapping,
    # and an index is read from compute_report(cube).i_model, .i_task or .i_criteria
    assert not hasattr(hlmkit, name)
    assert not hasattr(importlib.import_module(f"hlmkit.{module}"), name)


def test_cube_cells_replace_triplet():
    # a cell is read as cube.cells[(task, criterion, model)]
    assert not hasattr(hlmkit.PerformanceCube, "triplet")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hlmkit.no_such_name  # noqa: B018
