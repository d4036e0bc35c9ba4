"""Every matrix builder against its closed-form entries from oracles.py,
compared exactly (np.array_equal, and the sign bits of the nonzero
entries' parts), not to a tolerance."""

import cmath

import numpy as np
import pytest

import oracles
from phaselab.baselines import (
    SingleModeWindow,
    build_pegg_barnett,
    build_sg_single,
    restrict_to_upper,
)
from phaselab.fockspace import Boundary, Window
from phaselab.operators import OPERATOR_BUILDERS

WINDOWS = [
    Window(-1, 0, Boundary.OPEN),
    Window(-1, 0, Boundary.CYCLIC, 1.25),
    Window(-4, 3, Boundary.OPEN, 0.7),
    Window(-4, 3, Boundary.CYCLIC),
    Window(-4, 3, Boundary.CYCLIC, -2.5),
    Window(-7, 3, Boundary.CYCLIC, 1.25),
    Window(-2, 9, Boundary.OPEN),
    Window(-2, 9, Boundary.CYCLIC, 0.7),
]


def window_id(w):
    return f"{w.lo}..{w.hi}-{w.boundary.value}-{w.wrap_phase:g}"


def dense(entries, lo, dimension):
    m = np.zeros((dimension, dimension), dtype=complex)
    for (row, col), value in entries.items():
        m[row - lo, col - lo] = value
    return m


def expected_doubled(name, w):
    entries = oracles.doubled_operator_entries(
        name, w.lo, w.hi, w.boundary is Boundary.CYCLIC, w.wrap_phase
    )
    return dense(entries, w.lo, w.dimension)


def expected_upper_block(name, w):
    entries = oracles.doubled_operator_entries(
        name, w.lo, w.hi, w.boundary is Boundary.CYCLIC, w.wrap_phase
    )
    upper = {(r, c): v for (r, c), v in entries.items() if r >= 0 and c >= 0}
    return dense(upper, 0, w.hi + 1)


CASES = []
for _w in WINDOWS:
    for _name in sorted(OPERATOR_BUILDERS):
        CASES.append(pytest.param(
            lambda n=_name, w=_w: OPERATOR_BUILDERS[n](w).to_dense(),
            lambda n=_name, w=_w: expected_doubled(n, w),
            _name == "polarization_swap" and not _w.is_symmetric,
            id=f"{_name}[{window_id(_w)}]",
        ))
        CASES.append(pytest.param(
            lambda n=_name, w=_w: restrict_to_upper(OPERATOR_BUILDERS[n](w)).to_dense(),
            lambda n=_name, w=_w: expected_upper_block(n, w),
            _name == "polarization_swap" and not _w.is_symmetric,
            id=f"restrict_to_upper({_name})[{window_id(_w)}]",
        ))
for _s in (0, 1, 6):
    CASES.append(pytest.param(
        lambda s=_s: build_sg_single(SingleModeWindow(s)).to_dense(),
        lambda s=_s: dense(oracles.single_mode_shift_entries(s), 0, s + 1),
        False,
        id=f"sg_single[{_s}]",
    ))
    for _phi0 in (0.0, 0.4, -1.0):
        CASES.append(pytest.param(
            lambda s=_s, p=_phi0: build_pegg_barnett(SingleModeWindow(s), p).to_dense(),
            lambda s=_s, p=_phi0: dense(
                oracles.single_mode_shift_entries(s, cmath.exp(1j * (s + 1) * p)), 0, s + 1
            ),
            False,
            id=f"pegg_barnett[{_s},{_phi0:g}]",
        ))


@pytest.mark.parametrize("build,expected,refused", CASES)
def test_builder_matches_its_closed_form(build, expected, refused):
    if refused:  # the branch swap needs a symmetric window
        with pytest.raises(ValueError):
            build()
        return
    got, want = build(), expected()
    assert np.array_equal(got, want)
    # array_equal takes -0.0 for 0.0, and a dump prints a -0.0 part as -0.0
    nonzero = want != 0
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got[nonzero])), np.signbit(part(want[nonzero])))
