"""The record types: each is built positionally or by keyword, with its defaults, compares and
hashes by its field values in field order, prints them in its repr (error messages quote it),
refuses assignment, and gives its fields by name in ``_asdict``, each tuple as a list."""

import pytest

from hlmkit.errors import DegenerateStats, EmptyDocument, ValidationError
from hlmkit.experiment import Schedule, TrainingLog, TransferMatrix
from hlmkit.hlm import CellBreakdown, HlmReport, PerformanceTriplet
from hlmkit.splitkit import DifficultyScore, DifficultySplit, Providers
from hlmkit.surprisal import SurprisalSequence
from hlmkit.textstat import Document, FleschConfig, TextStats

FLESCH = "FleschConfig(base=206.835, words_per_sentence=1.015, syllables_per_word=84.6)"
CELL = CellBreakdown("t", "c", "m", 0.75, 0.5, 0.25, 0.125)
CELL_REPR = ("CellBreakdown(task='t', criterion='c', model='m', s=0.75, std=0.5, sigmoid=0.25, "
             "value=0.125)")

# (record type, its fields in order with sample values, its defaults, the repr of the sample,
#  a field and another value for it, and (a field, a value __post_init__ refuses, the error))
RECORDS = [
    (Document, {"id": "d1", "text": "Hi there."}, {}, "Document(id='d1', text='Hi there.')",
     ("text", "Bye."), ("id", "", ValidationError)),
    (TextStats, {"sentences": 1, "words": 3, "syllables": 4}, {},
     "TextStats(sentences=1, words=3, syllables=4)", ("words", 4),
     ("sentences", 0, DegenerateStats)),
    (FleschConfig, {"base": 1.0, "words_per_sentence": 2.0, "syllables_per_word": 3.5},
     {"base": 206.835, "words_per_sentence": 1.015, "syllables_per_word": 84.6},
     "FleschConfig(base=1.0, words_per_sentence=2.0, syllables_per_word=3.5)", ("base", 2.0), None),
    (SurprisalSequence, {"doc_id": "d1", "values": (1.0, 2.5), "base": "e"}, {"base": "2"},
     "SurprisalSequence(doc_id='d1', values=(1.0, 2.5), base='e')", ("values", (1.0,)),
     ("values", (), EmptyDocument)),
    (DifficultyScore, {"doc_id": "d1", "criterion": "flesch", "value": 12.5,
                       "higher_is_harder": False}, {},
     "DifficultyScore(doc_id='d1', criterion='flesch', value=12.5, higher_is_harder=False)",
     ("value", 13.0), ("criterion", "nope", ValidationError)),
    (Providers, {"lm": None, "surprisals": {}, "neural": None, "base": "e", "k": 1.5,
                 "mu_lang": 2.0, "flesch": FleschConfig(), "per_sentence": True},
     {"lm": None, "surprisals": None, "neural": None, "base": "2", "k": 1.25, "mu_lang": 3.8845,
      "flesch": FleschConfig(), "per_sentence": False},
     f"Providers(lm=None, surprisals={{}}, neural=None, base='e', k=1.5, mu_lang=2.0, "
     f"flesch={FLESCH}, per_sentence=True)", ("k", 2.5), None),
    (DifficultySplit, {"criterion": "flesch", "easy": ("a",), "medium": ("b",), "hard": ("c",),
                       "boundaries": (1.0, 2.0)}, {},
     "DifficultySplit(criterion='flesch', easy=('a',), medium=('b',), hard=('c',), "
     "boundaries=(1.0, 2.0))", ("hard", ("d",)), None),
    (PerformanceTriplet, {"easy": 0.5, "medium": 0.25, "hard": 0.125, "higher_is_better": False},
     {"higher_is_better": True},
     "PerformanceTriplet(easy=0.5, medium=0.25, hard=0.125, higher_is_better=False)",
     ("medium", 0.5), ("hard", float("nan"), ValidationError)),
    (CellBreakdown, {"task": "t", "criterion": "c", "model": "m", "s": 0.75, "std": 0.5,
                     "sigmoid": 0.25, "value": 0.125}, {}, CELL_REPR, ("s", -0.75), None),
    (HlmReport, {"i_model": {"m": 0.5}, "i_task": {"t": 0.5}, "i_criteria": {"c": 0.5},
                 "cells": (CELL,), "std_ddof": 0}, {},
     f"HlmReport(i_model={{'m': 0.5}}, i_task={{'t': 0.5}}, i_criteria={{'c': 0.5}}, "
     f"cells=({CELL_REPR},), std_ddof=0)", ("std_ddof", 1), None),
    (Schedule, {"order": "random", "seed": 7, "sequence": ("a", "b", "c"),
                "phase_boundaries": (1, 2)}, {},
     "Schedule(order='random', seed=7, sequence=('a', 'b', 'c'), phase_boundaries=(1, 2))",
     ("seed", None), None),
    (TrainingLog, {"steps": ((1, 0.5), (2, 0.75)), "higher_is_better": False},
     {"higher_is_better": True}, "TrainingLog(steps=((1, 0.5), (2, 0.75)), higher_is_better=False)",
     ("steps", ((1, 0.5), (3, 0.75))), ("steps", ((1, 0.5),), ValidationError)),
    (TransferMatrix, {"values": {("easy", "hard"): 2.5}, "groups": (("t", "c", "m"),)}, {},
     "TransferMatrix(values={('easy', 'hard'): 2.5}, groups=(('t', 'c', 'm'),))",
     ("groups", ()), None),
]
IDS = [row[0].__name__ for row in RECORDS]


def _built(make, values):
    """``make`` built positionally and by keyword in reverse field order."""
    return make(*values.values()), make(**dict(reversed(values.items())))


def _hashable(values):
    try:
        hash(tuple(values.values()))
    except TypeError:  # a dict field: hashing the record raises too
        return False
    return True


@pytest.mark.parametrize("make, values, defaults, text, changed, refused", RECORDS, ids=IDS)
def test_record_fields_equality_and_repr(make, values, defaults, text, changed, refused):
    by_position, by_keyword = _built(make, values)
    for record in by_position, by_keyword:
        assert [getattr(record, name) for name in values] == list(values.values())
        assert repr(record) == text
    assert by_position == by_keyword and not by_position != by_keyword
    other = make(**dict(values, **dict([changed])))
    assert by_position != other and not by_position == other
    for stranger in tuple(values.values()), CELL, Document("d1", "Hi there."):
        if type(stranger) is not make:  # a plain tuple, or a record of another type
            assert by_position != stranger and not by_position == stranger
            assert by_position.__eq__(stranger) is NotImplemented


@pytest.mark.parametrize("make, values, defaults, text, changed, refused", RECORDS, ids=IDS)
def test_record_defaults(make, values, defaults, text, changed, refused):
    record = make(**{k: v for k, v in values.items() if k not in defaults})
    assert {name: getattr(record, name) for name in defaults} == defaults


@pytest.mark.parametrize("make, values, defaults, text, changed, refused", RECORDS, ids=IDS)
def test_record_hash_and_assignment(make, values, defaults, text, changed, refused):
    by_position, by_keyword = _built(make, values)
    name, value = changed
    if _hashable(values):
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    for attr in name, "not_a_field":
        with pytest.raises(AttributeError):
            setattr(by_position, attr, value)
    with pytest.raises(AttributeError):
        delattr(by_position, name)
    assert by_position == by_keyword


@pytest.mark.parametrize("make, values, defaults, text, changed, refused", RECORDS, ids=IDS)
def test_record_refuses_a_bad_argument_list(make, values, defaults, text, changed, refused):
    args = list(values.values())
    required = [name for name in values if name not in defaults]
    calls = [lambda: make(*args, "surplus"),  # one positional argument too many
             lambda: make(**values, not_a_field=1),
             lambda: make(args[0], **values)]  # the first field twice
    if required:  # one required field left out
        calls.append(lambda: make(**{k: v for k, v in values.items() if k != required[-1]}))
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("make, values, refused",
                         [(row[0], row[1], row[5]) for row in RECORDS if row[5]],
                         ids=[row[0].__name__ for row in RECORDS if row[5]])
def test_record_post_init_refusal(make, values, refused):
    name, value, error = refused
    with pytest.raises(error):
        make(**dict(values, **{name: value}))


@pytest.mark.parametrize("make, values, defaults, text, changed, refused", RECORDS, ids=IDS)
def test_record_asdict(make, values, defaults, text, changed, refused):
    by_position, _ = _built(make, values)
    data = by_position._asdict()
    assert list(data) == list(make._fields) == list(values)
    for name, value in values.items():
        assert data[name] == (list(value) if type(value) is tuple else value)
        assert type(data[name]) is (list if type(value) is tuple else type(value))
