"""The one place where output numbers become text.

Payload builders hand plain, full-precision Python values to csv_text or
json_text. Both writers render every float at 12 significant digits, so
CSV and JSON encode identical numbers and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json

from .fockspace import Window


def _rounded(value):
    """Copy of a JSON payload with every float rounded to 12 significant
    digits through decimal text."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def json_text(payload) -> str:
    """The one JSON writer: two-space indent, one trailing newline."""
    return json.dumps(_rounded(payload), indent=2) + "\n"


def csv_text(header: list[str], rows) -> str:
    """The one CSV writer: a header row, then rows whose floats are
    written at 12 significant digits and whose other values by str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def window_to_json_dict(window: Window) -> dict:
    return {
        "lo": window.lo,
        "hi": window.hi,
        "boundary": window.boundary.value,
        "wrap_phase": window.wrap_phase,
    }
