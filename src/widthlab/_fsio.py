"""File helpers shared by the modules: atomic writes, the one report encoding
(JSON sections under the format/config header, CSV with ``%.17g`` cells),
the JSON-file reader and the numeric-list check of the loaders.

The encoders return text; each module writes it with ``atomic_write_text``
itself."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from itertools import chain

__all__ = ["atomic_write_text", "json_text", "report_text", "csv_text", "read_json",
           "is_number_list"]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and rename.

    Readers never observe a partially written report: the content appears
    atomically or not at all.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wl-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def json_text(payload: dict) -> str:
    """Compact JSON with sorted keys and a final newline; a record as its fields."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_json_default) + "\n"


def report_text(config: dict, **sections) -> str:
    """A JSON report: the sections under ``"format"`` (``cli.FORMAT_VERSION``)
    and ``"config"`` (the resolved run configuration)."""
    # Looked up per call: a caller that rebinds the public constant (the
    # benchmark's self-test does) changes the reports written after it.
    from .cli import FORMAT_VERSION

    return json_text({"format": FORMAT_VERSION, "config": config, **sections})


_BOOL_TEXT = {True: "true", False: "false"}


def _column_cells(values):
    """The ``%`` format and the cells of one column, by the type of its first
    value."""
    kind = type(values[0]) if len(values) else float
    if kind is bool:
        return "%s", map(_BOOL_TEXT.__getitem__, values)
    if kind is int:
        return "%s", values
    return "%.17g", values


def csv_text(columns: dict) -> str:
    """CSV from a mapping of column name to the column's values, a sequence
    of one type: booleans are written ``true``/``false``, integers in full
    and other numbers as ``%.17g`` (round-trip exact).

    One row format is built per call and applied by one ``%`` to all the
    cells, row after row, which keeps 10,000-row traces cheap."""
    formats, cells = zip(*map(_column_cells, columns.values()))
    flat = tuple(chain.from_iterable(zip(*cells)))
    rows = ("\n" + ",".join(formats)) * (len(flat) // len(formats))
    return (",".join(columns).replace("%", "%%") + rows + "\n") % flat


def read_json(path: str):
    """The decoded content of the JSON file at ``path``; a file that is not
    JSON raises a ``ValueError`` that names it."""
    with open(path, "r") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path} is not a JSON file: {exc}") from None


def is_number_list(value) -> bool:
    """True for a decoded JSON list of numbers (booleans are not numbers)."""
    return isinstance(value, list) and set(map(type, value)) <= {int, float}
