"""Atomic file writes, the CSV table reader and JSON helpers for serialization."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import tempfile
from pathlib import Path

from .errors import DataError, FormatError

FORMAT_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename, never partial."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextlib.contextmanager
def read_table(path):
    """Yield a UTF-8 CSV's stripped header and a lazy iterator of
    ``(1-based data row, cells)`` over its non-blank rows; a missing or
    empty file is a :class:`DataError`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        yield header, ((row, cells) for row, cells in enumerate(reader, start=1) if cells)


def dump_json(obj, path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: not valid JSON ({e})") from None


def check_version(doc: dict, what: str, path=None) -> None:
    """Reject documents whose format_version we cannot read."""
    where = f"{path}: " if path else ""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise FormatError(f"{where}{what} document has no format_version field")
    v = doc["format_version"]
    if v != FORMAT_VERSION:
        raise FormatError(
            f"{where}{what} format_version {v!r} is not supported (expected {FORMAT_VERSION})"
        )


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", float: "a number"}


def member(doc, key: str, kind: type, *, what: str):
    """``doc[key]``, checked to hold the JSON type ``kind`` (``float`` takes any
    number, ``object`` any value); otherwise a :class:`FormatError` naming
    ``key`` within ``what``."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be an object, got {type(doc).__name__}")
    if key not in doc:
        raise FormatError(f"{what} is missing key {key!r}")
    value = doc[key]
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise FormatError(
            f"{what} member {key!r} must be {_JSON_NAMES[kind]}, got {type(value).__name__}"
        )
    return value


def fmt_float(v: float) -> str:
    """Shortest exact decimal form, byte-stable across runs."""
    return repr(float(v))
