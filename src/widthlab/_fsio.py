"""File helpers shared by the modules: atomic writes, the one JSON encoding
of reports and input files, and the numeric-list check of the loaders."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = ["atomic_write_text", "json_text", "is_number_list"]


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
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def json_text(payload: dict) -> str:
    """Compact JSON with sorted keys and a final newline.  Each module writes
    it with ``atomic_write_text`` itself."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_json_default) + "\n"


def is_number_list(value) -> bool:
    """True for a decoded JSON list of numbers (booleans are not numbers)."""
    return isinstance(value, list) and set(map(type, value)) <= {int, float}
