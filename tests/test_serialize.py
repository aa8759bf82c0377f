"""CSV writer: the row-at-a-time formatter, and the one-format-per-row
lines of rows with array cells, against the earlier per-cell writer, on
rows of mixed cell types and special float values; JSON float
rounding against the earlier per-item rounding; the mode of a written
file under the process umask."""

import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts.serialize import (
    format_float,
    stable_json_dumps,
    write_csv_atomic,
    write_text_atomic,
)

from conftest import round_floats_oracle


def csv_text_oracle(header, rows) -> str:
    """The earlier writer's text: one ``cell`` call per value."""
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class _Float(float):
    """A float subclass with its own ``str``, which the writer must not use."""
    def __str__(self):
        return "not-the-float-format"


class _Text(str):
    def __str__(self):
        return "<" + super().__str__() + ">"


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072e-308,
            1e-310, 1.0, 0.1, 123456789.5, 1.5e300]

_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))

_CELL = st.one_of(
    st.text(max_size=6),
    st.integers(-10**20, 10**20),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    _FLOAT,
    _FLOAT.map(np.float64),
    st.one_of(st.sampled_from([0.0, -0.0, np.inf, np.nan, 1e-45, -1e-40]),
              st.floats(width=32)).map(np.float32),
    st.floats(width=16).map(np.float16),
    _FLOAT.map(_Float),
    st.text(max_size=6).map(_Text),
)


def _written(header, rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv_atomic(path, header, rows)
        return path.read_bytes().decode()


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_CELL, min_size=0, max_size=6), max_size=12))
    def test_matches_per_cell_oracle(self, rows):
        header = [f"c{i}" for i in range(6)]
        assert _written(header, rows) == csv_text_oracle(header, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insertion", "deletion"]),
                              st.integers(0, 50), st.integers(0, 3), _FLOAT, _FLOAT),
                    max_size=40))
    def test_matches_oracle_on_curve_rows(self, rows):
        header = ["metric", "example", "class", "fraction", "probability"]
        assert _written(header, rows) == csv_text_oracle(header, rows)

    def test_row_types_are_formatted_per_row(self):
        rows = [(1, 0.5), (True, 0.5), ("a", np.float32(0.1)), (np.int64(2), -0.0),
                (np.bool_(False), np.float16(0.1))]
        assert _written(["a", "b"], rows) == (
            "a,b\n1,0.5\nTrue,0.5\na,0.100000001\n2,-0\nFalse,0.0999755859\n")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_array_cells_stand_for_one_line_per_entry(self, data):
        """A row with 1-D float array cells of one length n writes the n
        lines of its entries, the other cells repeated on each, a ``%`` in
        them included."""
        rows = []
        for _ in range(data.draw(st.integers(0, 6))):
            cells = data.draw(st.lists(st.one_of(_CELL, st.sampled_from(["%", "%s", "5%%d"])),
                                       max_size=4))
            n = data.draw(st.integers(0, 5))
            for _ in range(data.draw(st.integers(0, 2))):
                column = np.array(data.draw(st.lists(_FLOAT, min_size=n, max_size=n)),
                                  dtype=np.float64)
                cells.insert(data.draw(st.integers(0, len(cells))), column)
            rows.append(tuple(cells))
        expanded = []
        for row in rows:
            arrays = [cell for cell in row if isinstance(cell, np.ndarray)]
            if not arrays:
                expanded.append(row)
                continue
            expanded += [tuple(cell[i] if isinstance(cell, np.ndarray) else cell
                               for cell in row) for i in range(len(arrays[0]))]
        header = [f"c{i}" for i in range(6)]
        assert _written(header, rows) == csv_text_oracle(header, expanded)

    def test_accepts_iterators_of_lists(self):
        rows = iter([[0, 1.25], [1, float("nan")]])
        assert _written(["step", "loss"], rows) == "step,loss\n0,1.25\n1,nan\n"


# JSON values as the commands' artifacts hold them: plain and numpy scalars,
# numpy arrays, and lists, tuples and dicts of them, flat lists of plain
# floats among them
_JSON_LEAF = st.one_of(
    st.none(), st.text(max_size=4), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-10**20, 10**20), st.integers(-2**63, 2**63 - 1).map(np.int64),
    _FLOAT, _FLOAT.map(np.float64), st.floats(width=32).map(np.float32),
)
_JSON_VALUE = st.recursive(
    st.one_of(_JSON_LEAF, st.lists(_FLOAT, max_size=8),
              st.lists(_FLOAT, max_size=8).map(np.array),
              st.lists(st.integers(-5, 5), max_size=8).map(np.array)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=20,
)


class TestRoundFloats:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUE)
    def test_json_text_matches_per_item_oracle(self, value):
        assert stable_json_dumps(value) == \
            json.dumps(round_floats_oracle(value), sort_keys=True, indent=2) + "\n"


class TestWriteTextAtomic:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        """The file gets the mode ``open()`` would give it, not mkstemp's
        0600, and no temporary file stays beside it."""
        previous = os.umask(umask)
        try:
            write_text_atomic(tmp_path / "results.json", "{}\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "results.json").stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]
