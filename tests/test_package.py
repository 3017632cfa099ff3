"""The import contract: ``import hlmkit`` loads a submodule only on the first
use of one of its names, a layer imports no layer it only annotates, and each
command runs only the layers it uses."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hlmkit
from test_cli import FULL_ARGV, valid_inputs  # noqa: F401  (a fixture)

SUBMODULES = ("errors", "experiment", "hlm", "splitkit", "surprisal", "textstat", "uid")
LAYERS = ("experiment", "hlm", "splitkit", "surprisal", "svg", "textstat", "uid")


def _fresh(code, *args, **env):
    """What ``code`` prints as JSON, run with ``args`` in a fresh ``python -S``:
    without site-packages, whose ``.pth`` files may import modules of their own.
    ``-B`` keeps it from writing bytecode into ``src/``, which the environment
    given here (PYTHONPATH and ``env``) would otherwise allow."""
    env = {"PYTHONPATH": str(Path(hlmkit.__file__).parents[1]), **env}
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", code, *args], capture_output=True,
                          text=True, env=env)
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


# Modules no command needs, each several milliseconds of start-up: the records are plain
# classes, and the layers take their annotation names from collections.abc.
UNUSED = ("dataclasses", "inspect", "typing")

# What a fresh process ran: the exit code of ``hlmkit.cli.main(argv)`` (0 with no argv), the
# layers whose code ran (a layer registered unrun is of LazyLoader's module type, and one
# missing from sys.modules is a KeyError), whether configparser was imported and which of
# UNUSED were (under ``-S``, so no site-packages ``.pth`` file imported one).
_RAN = f"""import contextlib, io, json, sys, types
import hlmkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = hlmkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, [layer for layer in {LAYERS!r}
                         if type(sys.modules[f"hlmkit.{{layer}}"]) is types.ModuleType],
                  "configparser" in sys.modules, [m for m in {UNUSED!r} if m in sys.modules]]))
"""


def _ran(argv, inputs, out, **env):
    """``_RAN`` of ``argv``, its placeholders filled from ``inputs`` and outputs in ``out``."""
    paths = dict(inputs, OUT=str(out / "out"), OUT2=str(out / "out2"), OUT3=str(out / "out3"))
    code, ran, config, imported = _fresh(_RAN, *[paths.get(arg, arg) for arg in argv], **env)
    return code, set(ran), config, imported


def test_importing_the_cli_registers_every_layer_and_runs_none():
    assert _fresh(_RAN) == [0, [], False, []]


# (a layer the command runs, the layers it must not run)
SCORING = ("splitkit", "surprisal", "textstat", "uid")
RUNS = {"converge": ("experiment", {*SCORING, "svg"}),
        "split": ("splitkit", {"surprisal", "hlm", "svg"}),
        "schedule": ("experiment", {"surprisal", "hlm", "svg"}),
        "hlm": ("hlm", set(SCORING)),
        "transfer": ("experiment", set(SCORING)),
        "report": ("svg", set(SCORING)),
        "lm-train": ("surprisal", {"hlm", "experiment", "svg"}),
        "surprisal": ("surprisal", {"hlm", "experiment", "svg"}),
        "score": ("uid", {"hlm", "experiment", "svg"})}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_each_command_runs_only_the_layers_it_uses(valid_inputs, tmp_path, command):
    uses, unused = RUNS[command]
    code, ran, config, imported = _ran(FULL_ARGV[command], valid_inputs, tmp_path)
    assert code == 0 and uses in ran and not ran & unused, ran
    assert not config  # no --config and no HLMKIT_CONFIG
    assert imported == []


@pytest.mark.parametrize("how", ["flag", "environment"])
def test_configparser_is_imported_for_a_config_file(valid_inputs, tmp_path, how):
    argv, env = FULL_ARGV["converge"], {"HLMKIT_CONFIG": valid_inputs["CONFIG"]}
    if how == "flag":
        argv, env = argv + ["--config", "CONFIG"], {}
    assert _ran(argv, valid_inputs, tmp_path, **env) == (0, {"experiment"}, True, [])


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
    assert len(hlmkit.__all__) == len(set(hlmkit.__all__)) == 46


@pytest.mark.parametrize("module, name", [
    ("uid", "UidSlConfig"), ("uid", "UidVarConfig"), ("uid", "sentence_averaged"),
    ("splitkit", "NeuralScore"), ("hlm", "CubeCell"), ("hlm", "index"), ("hlm", "AXES"),
    ("errors", "MissingKey"), ("hlm", "cell_value"), ("experiment", "convergence_ratio"),
    ("experiment", "schedule_from_dict")])
def test_plain_values_replace_the_deleted_records(module, name):
    # k and mu_lang are floats, a neural row is a DifficultyScore, a cube a mapping,
    # an index is read from compute_report(cube).i_model, .i_task or .i_criteria, a cell
    # value from compute_report(cube).cells, and a ratio from converge_result_to_dict
    assert not hasattr(hlmkit, name)
    assert not hasattr(importlib.import_module(f"hlmkit.{module}"), name)


def test_cube_cells_replace_triplet():
    # a cell is read as cube.cells[(task, criterion, model)]
    assert not hasattr(hlmkit.PerformanceCube, "triplet")
    # and a distribution as {w: model.prob(w, context) for w in model.event_vocab}
    assert not hasattr(hlmkit.NgramModel, "distribution")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hlmkit.no_such_name  # noqa: B018
