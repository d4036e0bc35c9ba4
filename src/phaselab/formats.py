"""The one place where output numbers become text.

Payload builders hand plain, full-precision Python values to csv_text or
json_text. Both writers render every float at 12 significant digits, so
CSV and JSON encode identical numbers and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii as _quoted

from .fockspace import Window

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_CONSTANTS = {True: "true", False: "false", None: "null"}.__getitem__

_SEQUENCES = {list, tuple}

# CSV text of a plain int or float; any other value goes through csv.writer
_CSV_NUMBERS = {float: "{:.12g}".format, int: int.__repr__}


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


def _row_texts(rows, texts) -> tuple[int, tuple[str, ...]] | None:
    """(width, the text of every value row by row) of rows that are lists
    or tuples of one common width, each value's text made by texts[type];
    None for any other rows, or when a value's exact type is not in texts."""
    widths = set(map(len, rows)) if set(map(type, rows)) <= _SEQUENCES else ()
    if len(widths) != 1:
        return None
    try:
        return widths.pop(), tuple([texts[type(v)](v) for row in rows for v in row])
    except KeyError:
        return None


class _JsonWriter:
    """The chunks of one json_text call, in the layout of
    json.dumps(indent=2). A list of scalars, or of equal-width lists of
    scalars, is rendered in bulk by looking each value's text up by exact
    type; anything else recurses through dicts and lists."""

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
        """Text of a list of scalars, or of a list of equal-width, nonempty
        lists of scalars; None for any other list."""
        if type(items[0]) in _SEQUENCES:
            rows = _row_texts(items, self.scalars)
            if rows is None or rows[0] == 0:  # empty rows print as "[]"
                return None
            width, texts = rows
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["%s"] * width) + inner + "]"
            return ("[" + inner + ("," + inner).join([row] * len(items)) + newline + "]") % texts
        scalars = self.scalars
        try:
            texts = [scalars[type(v)](v) for v in items]
        except KeyError:
            return None
        return "[" + inner + ("," + inner).join(texts) + newline + "]"


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
    Equal-width rows of plain ints and floats need no quoting and are
    joined directly; rows holding anything else (a string to quote, a
    bool) send the whole table through csv.writer."""
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    numbers = _row_texts(rows, _CSV_NUMBERS)
    if numbers is None:
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
        return buf.getvalue()
    width, texts = numbers
    return buf.getvalue() + (",".join(["%s"] * width) + "\n") * len(rows) % texts


def window_to_json_dict(window: Window) -> dict:
    return {
        "lo": window.lo,
        "hi": window.hi,
        "boundary": window.boundary.value,
        "wrap_phase": window.wrap_phase,
    }
