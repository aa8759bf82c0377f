"""Deterministic artifact serialization.

All floats are rounded to 9 significant digits before writing and JSON
keys are sorted, so reruns of the same computation produce byte-identical
files on any platform.  Writes go to a temp file in the target directory,
given the mode ``open()`` would give it, followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "format_float",
    "round_floats",
    "stable_json_dumps",
    "write_text_atomic",
    "write_json_atomic",
    "write_csv_atomic",
]

_FLOAT_FORMAT = ".9g"


def format_float(x: float) -> str:
    """Fixed 9-significant-digit text form of a float."""
    return format(float(x), _FLOAT_FORMAT)


def round_floats(obj):
    """Recursively round floats (and numpy scalars/arrays) to 9 significant
    digits, converting numpy containers to plain Python types.  A list of
    plain floats, such as a flattened weight matrix, is rounded in one
    comprehension."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format_float(obj))
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float}:
            return [float(format_float(v)) for v in obj]
        return [round_floats(v) for v in obj]
    return obj


def stable_json_dumps(obj) -> str:
    return json.dumps(round_floats(obj), sort_keys=True, indent=2) + "\n"


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mkstemp's 0600 would survive os.replace; os.umask reads the umask only by setting it
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_json_atomic(path, obj) -> None:
    write_text_atomic(path, stable_json_dumps(obj))


def write_csv_atomic(path, header, rows) -> None:
    """Write rows of mixed str/number cells; floats use the fixed format.

    A row whose cells include 1-D float arrays of one length n stands for
    n lines, line i holding entry i of each array and the row's other
    cells; a row without arrays is one line.  A row takes one ``%``
    formatting, of its line format repeated n times, with its other cells'
    text built into the format: ``%`` with the float format is
    :func:`format_float`'s text for any float, and every other cell is its
    ``str``."""
    chunks = [",".join(header) + "\n"]
    for row in rows:
        columns = [cell for cell in row if isinstance(cell, np.ndarray)]
        line = ",".join(
            "%" + _FLOAT_FORMAT if isinstance(cell, np.ndarray)
            else (format_float(cell) if isinstance(cell, (float, np.floating))
                  else str(cell)).replace("%", "%%")
            for cell in row) + "\n"
        entries = np.column_stack(columns).ravel().tolist() if columns else []
        chunks.append(line * (len(columns[0]) if columns else 1) % tuple(entries))
    write_text_atomic(path, "".join(chunks))
