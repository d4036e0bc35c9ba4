"""Property test of the command line: random JSON configs for each
subcommand, with ints past the float and array ranges, NaN, Infinity and
values of every JSON type under known and unknown keys."""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from phaselab.cli import _DEFAULTS, main
from phaselab.operators import OPERATOR_BUILDERS

OUT = "<out>"  # replaced by a path in a temporary directory

HUGE = [10**400, -10**400, 2**62, -2**62, 2**31, -2**31]
NUMBERS = st.one_of(st.integers(-10, 10), st.sampled_from(HUGE), st.floats())
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS)
JUNK = st.one_of(SCALARS, st.text(max_size=8), st.lists(SCALARS, max_size=2),
                 st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))

# a window of at most 130 labels, or one past the 2**31-label limit, so
# that no example allocates more than a few MiB
BOUNDS = st.one_of(st.integers(-65, 64), st.sampled_from(HUGE))
WINDOWS = st.one_of(
    st.builds(lambda n: {"n_max": n}, st.integers(0, 64)),
    st.builds(lambda lo, hi: {"lo": lo, "hi": hi}, st.integers(-65, -1), st.integers(0, 64)),
    st.builds(lambda n: {"n_max": n}, BOUNDS),
    st.builds(lambda lo, hi: {"lo": lo, "hi": hi}, BOUNDS, BOUNDS),
)
# values that mostly hold, so that most examples run their subcommand
STATES = ["fock:0", "fock:-3", "fock:99", "vacuum:sym", "coherent:upper,alpha=1+0.5i",
          "coherent:lower,alpha=0.3-0.2i", "coherent:upper,alpha=1e400+0i"]
VALUES = st.fixed_dictionaries({
    "state": st.sampled_from(STATES),
    "operator": st.sampled_from(sorted(OPERATOR_BUILDERS)),
}, optional={
    "boundary": st.sampled_from(["open", "cyclic"]),
    "wrap_phase": st.one_of(st.floats(allow_nan=False, allow_infinity=False), NUMBERS),
    "phi0": st.one_of(st.floats(-10.0, 10.0), NUMBERS),
    "format": st.sampled_from(["csv", "json"]),
    "tolerance_profile": st.one_of(
        st.just("default"),
        st.dictionaries(st.sampled_from(["exact", "accumulated"]), st.one_of(NUMBERS, JUNK),
                        max_size=2)),
    # never a drawn string: the payload would land at that path
    "out": st.sampled_from([OUT, OUT, OUT, None, 3, 1e400, False, [OUT]]),
})
# none, or values of any JSON type under up to two known keys or one unknown key
OVERRIDES = st.one_of(
    st.just({}),
    st.just({}),
    st.dictionaries(st.sampled_from(sorted(set(_DEFAULTS) - {"out"})), JUNK,
                    min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=6).filter(lambda k: k not in _DEFAULTS), JUNK,
                    min_size=1, max_size=1),
)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@settings(max_examples=400, deadline=None)
@given(subcommand=st.sampled_from(["check", "spectrum", "phasedist", "operators"]),
       window=WINDOWS, values=VALUES, overrides=OVERRIDES)
def test_any_config_ends_in_a_documented_exit(directory, subcommand, window, values,
                                               overrides):
    out_path = directory / "payload"
    out_path.unlink(missing_ok=True)
    config = {**window, **values, **overrides}
    if config.get("out") == OUT:
        config["out"] = str(out_path)
    path = directory / "config.json"
    path.write_text(json.dumps(config))

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([subcommand, "--config", str(path)])
    written = stdout.getvalue() + (out_path.read_text() if out_path.exists() else "")

    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert written == ""
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
    if code == 0:
        assert "NaN" not in written and "Infinity" not in written
    # every drawn window holds at most 130 labels or is refused, so no
    # example can run out of memory or overflow: exit 3 is never right
    assert code != 3, stderr.getvalue()
