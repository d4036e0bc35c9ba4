"""The one place where output numbers become text.

Payload builders hand plain, full-precision Python values to csv_text or
json_text. Both writers render every float at 12 significant digits, so
CSV and JSON encode identical numbers and reruns are byte-identical.

A list whose items share one exact type is a column, and so is each
column of equal-width rows, or of dicts that share one tuple of str keys,
that holds one exact type. Each column is one slot of a template (%d for
int, %.12g for float, %s for texts made beforehand), and a whole list or
table is written by one % over it. A JSON float column that %.12g would
not spell as json does is written by its distinct values, each rendered
once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .fockspace import Window

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_CONSTANTS = {True: "true", False: "false", None: "null"}.__getitem__

_SEQUENCES = {list, tuple}


class _FloatTexts(dict):
    """JSON float texts of one json_text call, made on first sight of each
    value: repr(float(f"{x:.12g}")), the float rounded to 12 significant
    digits through decimal text, with NaN and Infinity spelled as json
    spells them. Zeros are not kept, since 0.0 and -0.0 share one key."""

    def __missing__(self, x):
        if x == 0.0:
            return "-0.0" if math.copysign(1.0, x) < 0.0 else "0.0"
        text = f"{x:.12g}"
        # %.12g already is the repr of its own value, except for integral
        # values ("100"), exponents 12 to 15 ("1e+12") and subnormals, all
        # below 1e-299 (4.94065645841e-324 reads back as 5e-324)
        if ("." not in text and "e" not in text) or "e+" in text or "e-3" in text:
            text = _NON_FINITE.get(text) or repr(float(text))
        self[x] = text
        return text


def _columns(items) -> list | None:
    """The columns of a list: itself, if its items are scalars, or each
    column of its rows, if they are lists or tuples of one common nonzero
    width or dicts of one common nonempty tuple of str keys; None unless
    every column holds values of one exact type."""
    if type(items[0]) in _SEQUENCES:
        widths = set(map(len, items)) if set(map(type, items)) <= _SEQUENCES else ()
        if len(widths) != 1 or 0 in widths:  # empty rows print as "[]"
            return None
        columns = list(zip(*items))
    elif type(items[0]) is dict:
        keys = set(map(tuple, items)) if set(map(type, items)) == {dict} else ()
        # "{}" is no table, and json spells a key of another type itself
        if len(keys) != 1 or set(map(type, items[0])) != {str}:
            return None
        columns = list(zip(*map(dict.values, items)))
    else:
        columns = [items]
    return columns if all(len(set(map(type, column))) == 1 for column in columns) else None


class _JsonWriter:
    """The chunks of one json_text call, in the layout of
    json.dumps(indent=2). A column, or a table of columns, of ints, floats,
    strings, bools or None is rendered in bulk by one % over a template;
    anything else recurses through dicts and lists."""

    def __init__(self):
        self.floats = _FloatTexts()
        self.scalars = {float: self.floats.__getitem__, int: int.__repr__, str: _quoted,
                        bool: _CONSTANTS, type(None): _CONSTANTS}
        self.chunks: list[str] = []

    def write(self, value, newline: str):
        render = self.scalars.get(type(value))
        if render is not None:
            self.chunks.append(render(value))
        elif isinstance(value, dict):
            self._write_dict(value, newline)
        elif isinstance(value, (list, tuple)):
            self._write_list(value, newline)
        else:
            self.chunks.append(self._scalar(value))

    def _scalar(self, value) -> str:
        """Text of a scalar of a subclass of a type json accepts."""
        if isinstance(value, str):
            return _quoted(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return self.floats[value]
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def _write_dict(self, value: dict, newline: str):
        if not value:
            self.chunks.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in value.items():
            # json's own spelling of a non-string key
            key_text = _quoted(key) if type(key) is str else json.dumps({key: None})[1:-7]
            self.chunks.append(opener + key_text + ": ")
            self.write(item, inner)
            opener = "," + inner
        self.chunks.append(newline + "}")

    def _write_list(self, value, newline: str):
        if not value:
            self.chunks.append("[]")
            return
        inner = newline + "  "
        text = self._bulk(value, newline, inner)
        if text is not None:
            self.chunks.append(text)
            return
        opener = "[" + inner
        for item in value:
            self.chunks.append(opener)
            self.write(item, inner)
            opener = "," + inner
        self.chunks.append(newline + "]")

    def _bulk(self, items, newline: str, inner: str) -> str | None:
        """Text of a list that is one column of scalars or a table of
        such columns (see _columns); None for any other list."""
        columns = _columns(items)
        # before any column is rendered: check's reports hold a window dict
        if not columns or not all(type(column[0]) in self.scalars for column in columns):
            return None
        slots = [self._slot(column) for column in columns]
        row, deeper = slots[0][0], inner + "  "
        if type(items[0]) in _SEQUENCES:
            row = "[" + deeper + ("," + deeper).join([slot for slot, _ in slots]) + inner + "]"
        elif type(items[0]) is dict:
            cells = [_quoted(key).replace("%", "%%") + ": " + slot
                     for key, (slot, _) in zip(items[0], slots)]
            row = "{" + deeper + ("," + deeper).join(cells) + inner + "}"
        values = tuple(chain.from_iterable(zip(*[column for _, column in slots])))
        return ("[" + inner + ("," + inner).join([row] * len(items)) + newline + "]") % values

    def _slot(self, column) -> tuple[str, object]:
        """(template slot, values for it) of a column of one exact type
        that self.scalars renders."""
        kind = type(column[0])
        if kind is int:
            return "%d", column
        if kind is float:
            x = np.array(column)
            ax = np.abs(x)
            # %.12g spells x as json does unless it rounds to an integer at
            # 12 digits ("100", "1e+12"), is subnormal ("4.94065645841e-324"
            # reads back as 5e-324) or is not finite. This marks a superset
            # of those, every |x| >= 1e11 included: |x - rint(x)| <= 0.5 there
            if np.isfinite(x).all() and not (
                    (ax < 1e-290) | (np.abs(x - np.rint(x)) <= 6e-12 * ax)).any():
                return "%.12g", column
            # by bit pattern, which keeps -0.0 apart from 0.0
            bits, index = np.unique(x.view(np.int64), return_inverse=True)
            texts = np.array([self.floats[v] for v in bits.view(np.float64).tolist()], dtype=object)
            return "%s", texts[index].tolist()
        return "%s", list(map(self.scalars[kind], column))


def json_text(payload) -> str:
    """The one JSON writer: the bytes of json.dumps(indent=2) over the
    payload with every float rounded to 12 significant digits, plus one
    trailing newline."""
    writer = _JsonWriter()
    writer.write(payload, "\n")
    writer.chunks.append("\n")
    return "".join(writer.chunks)


def csv_text(header: list[str], rows) -> str:
    """The one CSV writer: a header row, then rows whose floats are
    written at 12 significant digits and whose other values by str.
    Equal-width rows whose columns each hold only ints or only floats need
    no quoting and are written by one % over a template; rows holding
    anything else (a string to quote, a bool) send the whole table through
    csv.writer."""
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    columns = _columns(rows) if rows and type(rows[0]) in _SEQUENCES else None
    if not columns or not {type(column[0]) for column in columns} <= {int, float}:
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
        return buf.getvalue()
    template = ",".join(["%d" if type(column[0]) is int else "%.12g" for column in columns])
    return buf.getvalue() + (template + "\n") * len(rows) % tuple(chain.from_iterable(rows))


def window_to_json_dict(window: Window) -> dict:
    return {
        "lo": window.lo,
        "hi": window.hi,
        "boundary": window.boundary.value,
        "wrap_phase": window.wrap_phase,
    }
