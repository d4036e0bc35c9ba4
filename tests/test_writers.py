"""The writers in formats against their definitions in oracles: the same
bytes on any payload, and the same stdout from every subcommand."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from phaselab import cli, formats
from phaselab.fockspace import Boundary, Window
from phaselab.operators import OPERATOR_BUILDERS
from phaselab.verify import ToleranceProfile, report_to_json_dict, run_checks
from test_formats import EDGE_FLOATS

NON_FINITE = [math.nan, math.inf, -math.inf]

floats = st.floats() | st.sampled_from(EDGE_FLOATS + NON_FINITE + [100.0, 1e15, -2.5e-310])
texts = st.text(max_size=8) | st.sampled_from(['say "hi"', "back\\slash", "φ₀ ≈ 0.7", "a, b", "\n"])
scalars = (floats | floats.map(np.float64) | st.integers() | st.booleans() | st.none() | texts)


def _equal_width_rows(values):
    """Lists and tuples of one common width, the dump's entries shape."""
    return st.integers(0, 4).flatmap(lambda width: st.lists(
        st.lists(values, min_size=width, max_size=width)
        | st.tuples(*[values] * width), max_size=6))


payloads = st.recursive(
    scalars | st.lists(scalars) | _equal_width_rows(scalars),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.lists(st.lists(children, max_size=3), max_size=3)
                      | st.dictionaries(texts | st.integers() | floats | st.booleans() | st.none(),
                                        children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
@example([])
@example({})
@example({"entries": [[], []], "empty": {}, "rows": [[1, 2.0], [3, 4.5, 6]]})
@example({"entries": [[-1, 0, 1.0, 0.0], [0, -1, -0.0, 2.5], [1, 1, 5e-324, 1e12 + 5]]})
@example([[np.float64(0.1), 1.0], [2.0, np.float64(-0.0)]])
@example(EDGE_FLOATS + NON_FINITE)
@example([EDGE_FLOATS, NON_FINITE + [0.0, 1.0, 2.0, 3.0, 4.0]])
@example((1, "two", (3.0, None, True), {"k": [False]}))
def test_json_text_matches_the_reference_writer(payload):
    assert formats.json_text(payload) == oracles.reference_json_text(payload)


# Where %.12g stops spelling a float as json does, or nearly: 12 digits
# that round to an integer, |x| >= 1e11, tiny or subnormal, not finite
COLUMN_EDGES = [99999999999.5, 1e11, 999999999999.5, 2.0000000000001, 0.99999999999996,
                1e-290, 1e-300, 2.2250738585072014e-308, 5e-324, -0.0, math.nan]

# mostly floats that %.12g spells as json does
plain_floats = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-9, 9))
column_floats = st.one_of(plain_floats, plain_floats, plain_floats,
                          st.sampled_from(COLUMN_EDGES + NON_FINITE + [0.0, 7.0]))


def _tables(*columns):
    """Lists of rows, as lists or as tuples, whose columns draw from columns."""
    return st.lists(st.tuples(*columns).map(list) | st.tuples(*columns), min_size=1, max_size=8)


@st.composite
def _records(draw):
    """Lists of dicts that share one tuple of keys, each key's values drawn
    from one kind or from all scalars, and now and then one dict with its
    keys reversed."""
    keys = draw(st.lists(texts | st.sampled_from(["k", "phase", "re", "im", "50%", "%s", "%%d"]),
                         min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([st.integers(), column_floats, texts, st.booleans(), st.none(),
                                   scalars])) for _ in keys]
    records = [dict(zip(keys, [draw(kind) for kind in kinds])) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        records[-1] = dict(reversed(records[-1].items()))
    return records


# lists whose items, or whose rows' columns, each share one exact type: the
# phase distribution's phi and probabilities, the dump's entries, the
# spectrum and phase distribution CSV rows, the spectrum's JSON records
columns = (st.lists(column_floats, min_size=1, max_size=8) | st.lists(st.integers(), min_size=1)
           | _tables(st.integers(), st.integers(), column_floats, column_floats)
           | _tables(column_floats, column_floats) | _records())

CHECK_REPORTS = [report_to_json_dict(report)
                 for report in run_checks(Window.symmetric(3, Boundary.CYCLIC, 0.7), ToleranceProfile())]


@settings(max_examples=300, deadline=None)
@given(columns)
@example([[0.25] * len(COLUMN_EDGES), COLUMN_EDGES, [-3.5] * len(COLUMN_EDGES)])
@example([[-1, 0, 0.5, 0.0], [0, -1, 31.984371183438952, -0.0], [1, 1, 2.5, 1e-17]])
@example([np.float64(0.25), np.float64(-3.5)])
@example([[1.5, 2], [2.5, 3.0]])
@example([{"50%": 1, "%s": "%d"}, {"50%": 2, "%s": "%%"}])
@example([{"k": 0, "re": 1.0}, {"re": 0.5, "k": 1}])
@example([{}, {}])
@example([{1: 2.5}, {1: 3.5}])
@example([{"flag": True, "none": None}, {"flag": False, "none": None}])
@example(CHECK_REPORTS)
def test_columns_match_the_reference_writers(payload):
    assert formats.json_text(payload) == oracles.reference_json_text(payload)
    rows = payload if type(payload[0]) in (list, tuple) else [[v] for v in payload]
    assert formats.csv_text(["x"], rows) == oracles.reference_csv_text(["x"], rows)


def test_records_that_share_one_key_tuple_are_a_table():
    assert formats._columns([{"k": 0, "re": 1.0}, {"k": 1, "re": 0.5}]) == [(0, 1), (1.0, 0.5)]
    # mixed key order, empty dicts, a non-str key, a column of mixed types
    for records in ([{"k": 0, "re": 1.0}, {"re": 0.5, "k": 1}], [{}, {}], [{1: 2.5}, {1: 3.5}],
                    [{"k": 0}, {"k": 1.0}]):
        assert formats._columns(records) is None


@given(st.lists(st.lists(scalars, max_size=4) | st.tuples(floats, st.integers()), max_size=8))
@example([[i, x] for i, x in enumerate(EDGE_FLOATS + NON_FINITE)])
@example([(1.0, 2), (np.float64(3.5), 4)])
@example([[1, 2.5], [True, 0.5]])
@example([[], []])
@example([[1.0, "a, b"], [2.0, 'say "hi"']])
def test_csv_text_matches_the_reference_writer(rows):
    header = ["x", "y"]
    assert formats.csv_text(header, iter(rows)) == oracles.reference_csv_text(header, rows)


@pytest.mark.parametrize("value", [object(), np.int64(3), {1, 2}, b"bytes"])
def test_both_json_writers_refuse_what_json_refuses(value):
    for writer in (formats.json_text, oracles.reference_json_text):
        with pytest.raises(TypeError, match="not JSON serializable"):
            writer({"rows": [[1.0, value]], "value": value})


def _argvs(n_max):
    window = ["--n-max", str(n_max), "--wrap-phase", "0.7"]
    for boundary in ("cyclic", "open"):
        common = window + ["--boundary", boundary]
        for fmt in ("csv", "json"):
            yield ["check", *common, "--format", fmt]
            yield ["spectrum", *common, "--format", fmt]
            for state in ("coherent:upper,alpha=2+1i", "fock:0"):
                yield ["phasedist", *common, "--state", state, "--phi0", "0.3", "--format", fmt]
        for name in OPERATOR_BUILDERS:
            yield ["operators", *common, "--operator", name, "--format", "json"]


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("n_max", [0, 31, 1023])  # D = 2, 64, 2048
def test_every_subcommand_prints_the_reference_writers_bytes(capsys, monkeypatch, n_max):
    reference = {"json_text": oracles.reference_json_text, "csv_text": oracles.reference_csv_text}
    # every phaselab namespace that bound a writer by name
    bindings = [(module, name, reference[name])
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("phaselab")
                for name in reference
                if getattr(module, name, None) is getattr(formats, name)]
    for argv in _argvs(n_max):
        ours = _run(capsys, argv)
        with monkeypatch.context() as patched:
            for module, name, writer in bindings:
                patched.setattr(module, name, writer)
            assert _run(capsys, argv) == ours, argv
