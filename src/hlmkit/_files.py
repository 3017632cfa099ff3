"""The one place where hlmkit decodes input files and writes outputs.

Every decoding fault is a :class:`ParseError` naming its line where there is
one, and :func:`fields` checks exact JSON types, so no value is coerced. Each
file format is a spec over these helpers, beside the record type it builds;
:func:`read_jsonl` builds one per JSON line, and :func:`write_jsonl` writes them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path

from .errors import EmptyDocument, ParseError, ValidationError

# A field kind is (description, exact types of the value, exact types of
# each item of a list or None). Numbers are returned as floats.
STRING = ("a string", (str,), None)
BOOL = ("a boolean", (bool,), None)
INT = ("an integer", (int,), None)
NUMBER = ("a number", (int, float), None)
OBJECT = ("an object", (dict,), None)
LIST = ("a list", (list,), None)
STRINGS = ("a list of strings", (list,), (str,))
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


# built once: json.loads with a hook, and json.dumps with an option, build a new one per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


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


def read_jsonl(path: str | Path, make, spec: dict):
    """Yield ``(line number, make(*fields(value, spec, line)))`` for every non-blank line of a
    JSON-lines file, naming the line in a ValidationError or EmptyDocument that ``make`` raises."""
    with open_input(path) as fh:
        for line, text in enumerate(fh, start=1):
            if text.strip():
                try:  # a decoding or field fault is a ParseError that names the line itself
                    made = make(*fields(_decode(text, line), spec, line))
                except (ValidationError, EmptyDocument) as e:
                    raise type(e)(f"line {line}: {e}") from e
                yield line, made


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
    come back as floats; one beyond the float range, such as 1e400, is a ParseError.
    """
    if type(obj) is not dict or not spec.keys() <= obj.keys():
        raise ParseError(f"expected an object with keys {list(spec)}, got {_show(obj)}", line=line)
    values = []
    for key, (what, types, items) in spec.items():
        value = obj[key]
        if type(value) not in types:
            raise ParseError(f"{key!r} must be {what}, got {_show(value)}", line=line)
        if items and not set(map(type, value)) <= set(items):  # one C-level pass
            for item in value:  # name the first item of another type
                if type(item) not in items:
                    raise ParseError(f"{key!r} must be {what}, got {_show(item)}", line=line)
        if float in (items or types):
            try:  # an integer beyond the float range overflows; a literal such as 1e400 is inf
                value = [float(v) for v in value] if items else float(value)
                if not all(map(math.isfinite, value if items else [value])):
                    raise OverflowError
            except OverflowError:
                raise ParseError(f"{key!r} is out of the float range", line=line) from None
        values.append(value)
    return values


@contextmanager
def atomic_write(*paths: str | Path):
    """New UTF-8 text files (``\\n`` line ends), one randomly named beside each of ``paths``
    and all made before the block runs, that replace their paths once it has finished; on
    any failure they are removed and previous files stay. A symlink, device or pipe, such as
    ``/dev/stdout``, is written through in place, as the block writes it. Text UTF-8 cannot
    encode (a lone surrogate, which JSON can spell as an escape) is a ValidationError, and
    so are two paths that name one regular file, directly or through a link: only the
    output written last would be kept."""
    paths = [Path(p) for p in paths]
    tmps = [p if p.is_symlink() or (p.exists() and not p.is_file())  # written in place
            else p.with_name(f".{p.name}.{os.urandom(8).hex()}.tmp") for p in paths]
    renames = [(tmp, p) for tmp, p in zip(tmps, paths) if tmp is not p]
    seen = {}
    for p in paths:
        if p.is_file() or not p.exists():  # a device or pipe may take several outputs
            other = seen.setdefault(os.path.realpath(p), p)
            if other is not p:
                raise ValidationError(f"{other} and {p} name one output file")
    utf8 = {"encoding": "utf-8", "newline": ""}
    try:
        with ExitStack() as files:  # in-place outputs last: opening one truncates it
            made = {tmp: files.enter_context(open(tmp, "x", **utf8)) for tmp, _ in renames}
            yield [made.get(tmp) or files.enter_context(open(tmp, "w", **utf8)) for tmp in tmps]
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException as e:
        for tmp, _ in renames:
            tmp.unlink(missing_ok=True)
        if isinstance(e, UnicodeEncodeError):
            raise ValidationError(f"cannot write {', '.join(map(str, paths))}: {e.reason} "
                                  "in the input text") from e
        raise


def write_jsonl(path: str | Path, objects) -> int:
    """Write ``objects`` to ``path`` as they come, one JSON line each; return how many."""
    n = 0
    with atomic_write(path) as (fh,):
        for n, obj in enumerate(objects, 1):
            fh.write(_LINE_ENCODER.encode(obj) + "\n")
    return n
