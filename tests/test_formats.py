import csv
import io
import json
import math

from hypothesis import example, given
from hypothesis import strategies as st

from phaselab.formats import csv_text, json_text

# -0.0, a large integer-valued float, a small one, the smallest subnormal,
# and values exactly halfway between two 12-digit decimals
EDGE_FLOATS = [-0.0, 1e16, 1e-5, 5e-324, 1e12 + 5, 1e12 + 15, 123456789012.5, 123456789013.5]

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


def _sig(x: float) -> str:
    return f"{x:.12g}"


@given(st.lists(finite, max_size=20))
@example(EDGE_FLOATS)
def test_writers_write_every_float_at_twelve_digits(xs):
    rows = [[i, x, "a, b"] for i, x in enumerate(xs)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "x", "note"])
    writer.writerows([i, _sig(x), note] for i, x, note in rows)
    assert csv_text(["i", "x", "note"], rows) == buf.getvalue()

    payload = {"xs": xs, "rows": rows, "none": None, "flag": True}
    rounded = [float(_sig(x)) for x in xs]
    expected = {"xs": rounded, "rows": [[i, x, "a, b"] for i, x in enumerate(rounded)],
                "none": None, "flag": True}
    assert json_text(payload) == json.dumps(expected, indent=2) + "\n"


def test_non_finite_values_keep_their_rendering():
    values = [math.nan, math.inf, -math.inf]
    assert json_text(values) == "[\n  NaN,\n  Infinity,\n  -Infinity\n]\n"
    assert csv_text(["x"], [[v] for v in values]) == "x\nnan\ninf\n-inf\n"
