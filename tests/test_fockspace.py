import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from phaselab.fockspace import (
    Boundary,
    Polarization,
    StateVector,
    TailWeightError,
    Window,
    coherent_state,
    fock_state,
    parse_complex,
    parse_state_spec,
    photon_count,
    polarization,
    vacuum_symmetric,
)


@pytest.mark.parametrize("n,count", [(0, 0), (-1, 0), (-4, 3), (5, 5), (-100, 99)])
def test_photon_count_values(n, count):
    assert photon_count(n) == count


@given(st.integers(min_value=-10_000, max_value=10_000))
def test_photon_count_mirrors_between_branches(n):
    assert photon_count(n) >= 0
    assert photon_count(n) == photon_count(-(n + 1))


@given(st.integers(min_value=0, max_value=10_000))
def test_photon_count_hits_every_value_on_each_branch(m):
    assert photon_count(m) == m
    assert photon_count(-(m + 1)) == m
    assert polarization(m) is Polarization.UPPER
    assert polarization(-(m + 1)) is Polarization.LOWER


class TestWindow:
    def test_dimension_and_positions(self):
        w = Window(-4, 3)
        assert w.dimension == 8
        assert w.position(-4) == 0
        assert w.position(0) == 4
        assert w.position(-1) == 3
        assert list(w.indices()) == list(range(-4, 4))

    @pytest.mark.parametrize("lo,hi", [(0, 3), (1, 5), (-3, -1), (-2, -2)])
    def test_must_straddle_the_vacuum_seam(self, lo, hi):
        with pytest.raises(ValueError):
            Window(lo, hi)

    def test_symmetric_constructor(self):
        w = Window.symmetric(15)
        assert (w.lo, w.hi) == (-16, 15)
        assert w.is_symmetric
        assert not Window(-3, 3).is_symmetric
        with pytest.raises(ValueError):
            Window.symmetric(-1)

    def test_minimal_window_is_the_two_vacua(self):
        w = Window.symmetric(0)
        assert w.dimension == 2

    def test_boundary_coercion_from_string(self):
        w = Window(-2, 1, "cyclic", 0.25)
        assert w.boundary is Boundary.CYCLIC
        assert w == Window(-2, 1, Boundary.CYCLIC, 0.25)
        assert w != Window(-2, 1, Boundary.CYCLIC, 0.5)

    def test_position_outside_window(self):
        with pytest.raises(ValueError):
            Window(-4, 3).position(5)

    def test_at_most_two_to_the_31_labels(self):
        # past 2**31 labels, int64 products of two labels such as C08's
        # (D - 1)(2n + 1) can overflow
        assert Window(-2**30, 2**30 - 1).dimension == 2**31
        for lo, hi in [(-2**30 - 1, 2**30 - 1), (-1, 2**31), (-10**400, 0)]:
            with pytest.raises(ValueError, match=r"more than 2\*\*31 labels"):
                Window(lo, hi)
        with pytest.raises(ValueError, match=r"more than 2\*\*31 labels"):
            Window.symmetric(2**62)


class TestFockState:
    def test_placement(self, open_window):
        assert fock_state(open_window, 0).amplitudes[4] == 1.0
        assert fock_state(open_window, -1).amplitudes[3] == 1.0

    def test_out_of_window(self, open_window):
        with pytest.raises(ValueError):
            fock_state(open_window, 5)

    def test_orthonormal(self, open_window):
        states = [fock_state(open_window, n) for n in range(-4, 4)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert a.inner(b) == (1.0 if i == j else 0.0)


class TestCoherentState:
    def test_alpha_zero_is_the_vacuum_bit_for_bit(self, open_window):
        upper = coherent_state(open_window, "upper", 0.0)
        lower = coherent_state(open_window, Polarization.LOWER, 0.0)
        assert np.array_equal(upper.amplitudes, fock_state(open_window, 0).amplitudes)
        assert np.array_equal(lower.amplitudes, fock_state(open_window, -1).amplitudes)
        assert upper.tail_weight == 0.0

    def test_amplitude_ratio_alpha_one(self):
        w = Window(-1, 32)
        state = coherent_state(w, "upper", 1.0)
        # c_{m+1}/c_m = alpha / sqrt(m+1); at m=0 the ratio is exactly 1
        assert state.amplitude(1) / state.amplitude(0) == pytest.approx(1.0, abs=1e-15)
        assert state.amplitude(2) / state.amplitude(1) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15
        )

    def test_lower_branch_mirrors_upper(self):
        w = Window.symmetric(12)
        alpha = 0.8 - 0.3j
        upper = coherent_state(w, "upper", alpha)
        lower = coherent_state(w, "lower", alpha)
        for m in range(13):
            assert lower.amplitude(-(m + 1)) == upper.amplitude(m)

    def test_tail_weight_reported(self):
        w = Window(-1, 6)
        state = coherent_state(w, "upper", 2.0, tail_threshold=1.0)
        kept = math.exp(-4.0) * sum(4.0**m / math.factorial(m) for m in range(7))
        assert state.tail_weight == pytest.approx(1.0 - kept, abs=1e-14)
        assert state.is_normalized()

    def test_tail_threshold_enforced(self):
        w = Window(-1, 6)
        with pytest.raises(TailWeightError) as info:
            coherent_state(w, "upper", 2.0)
        assert info.value.tail_weight > 0.1

    def test_normalized_over_window(self):
        w = Window.symmetric(40)
        assert coherent_state(w, "upper", 2.0).is_normalized()

    @pytest.mark.parametrize(
        "alpha, n_max, bound",
        [(1.5 + 0.5j, 63, 1e-15), (2.0 - 1.0j, 1023, 1e-15), (-4.0j, 1023, 1e-15),
         (3.9 + 0.1j, 1023, 2e-15),
         # e^{-|alpha|^2/2} alone underflows; the product of the factors does not
         (39.0, 4000, 2e-12)],
    )
    def test_amplitudes_match_the_closed_form(self, alpha, n_max, bound):
        w = Window.symmetric(n_max)
        expected = oracles.coherent_amplitudes(alpha, n_max)
        expected = expected / np.linalg.norm(expected)
        upper = coherent_state(w, "upper", alpha)
        lower = coherent_state(w, "lower", alpha)
        assert upper.tail_weight <= 1e-12
        assert np.max(np.abs(upper.amplitudes[n_max + 1:] - expected)) <= bound
        assert np.max(np.abs(lower.amplitudes[n_max::-1] - expected)) <= bound

    @pytest.mark.parametrize("alpha", [40.0, 1e200, 1e300 + 1e300j])
    def test_no_kept_weight_is_a_tail_error_at_any_threshold(self, alpha):
        # |alpha|^2 that underflows e^{-|alpha|^2/2} or overflows the float range
        with pytest.raises(TailWeightError) as info:
            coherent_state(Window.symmetric(3), "upper", alpha, tail_threshold=1.0)
        assert info.value.tail_weight == 1.0


def test_vacuum_symmetric(open_window):
    state = vacuum_symmetric(open_window)
    root_half = 1.0 / math.sqrt(2.0)
    assert state.amplitude(0) == root_half
    assert state.amplitude(-1) == root_half
    assert state.norm() == pytest.approx(1.0, abs=1e-15)
    assert state.inner(fock_state(open_window, 0)) == pytest.approx(root_half)
    assert np.count_nonzero(state.amplitudes) == 2


class TestStateVector:
    def test_length_mismatch(self, open_window):
        with pytest.raises(ValueError):
            StateVector(open_window, np.zeros(3, dtype=complex))

    def test_rejects_non_finite(self, open_window):
        amps = np.zeros(8, dtype=complex)
        amps[0] = np.nan
        with pytest.raises(ValueError):
            StateVector(open_window, amps)

    def test_amplitudes_frozen(self, open_window):
        state = fock_state(open_window, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0

    def test_inner_needs_same_window(self, open_window):
        other = fock_state(Window(-4, 4), 0)
        with pytest.raises(ValueError):
            fock_state(open_window, 0).inner(other)


@pytest.mark.parametrize(
    "text,value",
    [
        ("2+0i", 2 + 0j),
        ("2-1i", 2 - 1j),
        ("-1.5+0.25i", -1.5 + 0.25j),
        ("1e-3+2i", 1e-3 + 2j),
        ("3", 3 + 0j),
        ("2i", 2j),
        ("-2.5i", -2.5j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "abc", "1+2", "i+i"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


class TestStateSpecLanguage:
    def test_fock(self, open_window):
        state = parse_state_spec("fock:-2", open_window)
        assert state.amplitude(-2) == 1.0

    def test_vacuum_sym(self, open_window):
        got = parse_state_spec("vacuum:sym", open_window)
        assert np.array_equal(got.amplitudes, vacuum_symmetric(open_window).amplitudes)

    def test_coherent_both_branches(self):
        w = Window.symmetric(20)
        upper = parse_state_spec("coherent:upper,alpha=1+0i", w)
        lower = parse_state_spec("coherent:lower,alpha=0.5-0.5i", w)
        assert np.array_equal(upper.amplitudes, coherent_state(w, "upper", 1.0).amplitudes)
        assert np.array_equal(
            lower.amplitudes, coherent_state(w, "lower", 0.5 - 0.5j).amplitudes
        )

    def test_case_insensitive(self, open_window):
        a = parse_state_spec("FOCK:1", open_window)
        b = parse_state_spec("fock:1", open_window)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        parse_state_spec("Vacuum:SYM", open_window)
        parse_state_spec("Coherent:UPPER,Alpha=1+0I", Window.symmetric(20))

    @pytest.mark.parametrize(
        "spec",
        [
            "fock: 1",
            "coherent:upper, alpha=1+0i",
            "fock:x",
            "vacuum:asym",
            "coherent:middle,alpha=1+0i",
            "coherent:upper,beta=1+0i",
            "squeezed:upper",
            "fock",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_state_spec(spec, Window.symmetric(20))
