"""Shared output formatting: fixed significant digits and window JSON.

All file outputs round through round_sig so that CSV and JSON encode
identical numbers and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json

from .fockspace import Window

SIG_DIGITS = 12


def round_sig(x: float, digits: int = SIG_DIGITS) -> float:
    """Round to a fixed number of significant digits via decimal text."""
    return float(f"{float(x):.{digits}g}")


def format_sig(x: float, digits: int = SIG_DIGITS) -> str:
    return f"{float(x):.{digits}g}"


def _csv_text(header: list[str], rows) -> str:
    """The one CSV writer: a header row, then rows whose floats are
    rendered by format_sig and whose other values by str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_sig(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def window_to_json_dict(window: Window) -> dict:
    return {
        "lo": window.lo,
        "hi": window.hi,
        "boundary": window.boundary.value,
        "wrap_phase": round_sig(window.wrap_phase),
    }


def dump_json(obj) -> str:
    """Canonical JSON rendering used for every JSON output."""
    return json.dumps(obj, indent=2) + "\n"
