"""The one place where hlmkit decodes input files and writes outputs.

Every decoding fault is a :class:`ParseError` naming its line where there is
one, and :func:`fields` checks exact JSON types, so no value is coerced. Each
file format is a spec over these helpers, beside the record type it builds.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import EmptyDocument, ParseError, ValidationError

# A field kind is (description, exact types of the value, exact types of
# each item of a list or None). Numbers are returned as floats.
STRING = ("a string", (str,), None)
BOOL = ("a boolean", (bool,), None)
INT = ("an integer", (int,), None)
INT_OR_NULL = ("an integer or null", (int, type(None)), None)
NUMBER = ("a number", (int, float), None)
OBJECT = ("an object", (dict,), None)
LIST = ("a list", (list,), None)
STRINGS = ("a list of strings", (list,), (str,))
INTS = ("a list of integers", (list,), (int,))
NUMBERS = ("a list of numbers", (list,), (int, float))


@contextmanager
def open_input(path: str | Path, newline: str | None = None):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 are a ParseError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not valid UTF-8: {e}") from None


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# one decoder for every call: json.loads with a hook builds a new one each time
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(text: str, line: int | None = None):
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=line or e.lineno) from None
    except (RecursionError, ValueError) as e:  # too deep, an over-long integer, NaN or Infinity
        raise ParseError(f"invalid JSON: {e}", line=line) from None


def read_json(path: str | Path):
    """The JSON document in ``path``."""
    with open_input(path) as fh:
        return _decode(fh.read())


def read_jsonl(path: str | Path):
    """Yield ``(line number, value)`` for every non-blank line of a JSON-lines file."""
    with open_input(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            if text.strip():
                yield lineno, _decode(text, lineno)


def csv_rows(path: str | Path, columns: tuple[str, ...]):
    """Yield ``(line number, iterator of stripped fields)`` for every non-blank
    row under a header naming ``columns``; every row has one field per column."""
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if tuple(map(str.strip, header)) != columns:
                raise ParseError(f"expected header {','.join(columns)}, "
                                 f"got {','.join(header) or 'nothing'}", line=1)
            for row in reader:
                if not "".join(row).strip():
                    continue
                if len(row) != len(columns):
                    raise ParseError(
                        f"expected {len(columns)} fields, got {len(row)}", line=reader.line_num)
                yield reader.line_num, map(str.strip, row)
        except csv.Error as e:
            raise ParseError(f"invalid CSV: {e}", line=reader.line_num) from None


def _show(value) -> str:
    """A JSON value for an error message: a container's kind, else a short repr."""
    if type(value) in (list, dict):
        return "a list" if type(value) is list else "an object"
    return f"{value!r:.40}"


def fields(obj, spec: dict, line: int | None = None) -> list:
    """The values of ``spec``'s keys in ``obj``, in spec order.

    ``obj`` must be an object holding every key of ``spec`` (other keys are
    ignored), and each value must have exactly the JSON type of its kind: a
    boolean is not a number and a numeric string is not a number. Numbers
    come back as floats; one beyond the float range is a ParseError.
    """
    if type(obj) is not dict or not spec.keys() <= obj.keys():
        raise ParseError(f"expected an object with keys {list(spec)}, got {_show(obj)}", line=line)
    values = []
    for key, (what, types, items) in spec.items():
        value = obj[key]
        if type(value) not in types:
            raise ParseError(f"{key!r} must be {what}, got {_show(value)}", line=line)
        if items:
            for item in value:
                if type(item) not in items:
                    raise ParseError(f"{key!r} must be {what}, got {_show(item)}", line=line)
        if float in (items or types):
            try:
                value = [float(v) for v in value] if items else float(value)
            except OverflowError:
                raise ParseError(f"{key!r} is out of the float range", line=line) from None
        values.append(value)
    return values


def record(line: int, make, *args):
    """``make(*args)``, naming ``line`` in a ValidationError or EmptyDocument it raises."""
    try:
        return make(*args)
    except (ValidationError, EmptyDocument) as e:
        raise type(e)(f"line {line}: {e}") from e


@contextmanager
def atomic_write(path: str | Path):
    """A new UTF-8 text file (``\\n`` line ends), randomly named beside ``path``,
    that replaces it once the block has finished; on any failure it is removed
    and a previous file at ``path`` stays. A symlink, device or pipe, such as
    ``/dev/stdout``, is written through in place. Text UTF-8 cannot encode (a
    lone surrogate, which JSON can spell as an escape) is a ValidationError."""
    path = Path(path)
    in_place = path.is_symlink() or (path.exists() and not path.is_file())
    tmp = path if in_place else path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "w" if in_place else "x", encoding="utf-8", newline="") as fh:
            yield fh
        if not in_place:
            os.replace(tmp, path)
    except BaseException as e:
        if not in_place:
            tmp.unlink(missing_ok=True)
        if isinstance(e, UnicodeEncodeError):
            raise ValidationError(f"cannot write {path}: {e.reason} in the input text") from e
        raise
