import cmath
import math

import numpy as np
import pytest

import oracles
from phaselab.baselines import (
    SingleModeWindow,
    build_cosine_sine_single,
    build_pegg_barnett,
    build_sg_single,
    compare_distributions,
    comparison_report,
    pegg_barnett_distribution,
    restrict_to_upper,
    single_mode_coherent,
)
from phaselab.fockspace import Boundary, TailWeightError, Window, coherent_state, fock_state
from phaselab.operators import (
    NumberKind,
    build_helicity,
    build_number,
    build_susskind_glogower,
)
from phaselab.phase import phase_distribution, phase_grid


def maxabs(arr):
    return float(np.max(np.abs(arr)))


class TestSingleModeLadder:
    def test_annihilates_the_vacuum(self):
        e = build_sg_single(SingleModeWindow(5))
        vec = np.zeros(6, dtype=complex)
        vec[0] = 1.0
        assert maxabs(e.entries @ vec) == 0.0

    def test_unitarity_defects_sit_at_both_ends(self):
        nw = SingleModeWindow(5)
        e = build_sg_single(nw)
        ident = np.eye(6)
        left_defect = (e @ e.adjoint()).entries - ident
        right_defect = (e.adjoint() @ e).entries - ident
        expected_left = np.zeros((6, 6), dtype=complex)
        expected_left[5, 5] = -1.0
        expected_right = np.zeros((6, 6), dtype=complex)
        expected_right[0, 0] = -1.0
        assert maxabs(left_defect - expected_left) == 0.0
        assert maxabs(right_defect - expected_right) == 0.0

    def test_quadrature_commutator_matches_the_brute_force_route(self):
        nw = SingleModeWindow(7)
        c, s = build_cosine_sine_single(nw)
        comm = (c @ s - s @ c).entries
        assert maxabs(comm - oracles.brute_single_mode_cs_commutator(7)) < 1e-15
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 0.5j
        expected[7, 7] = -0.5j  # truncation-edge artifact
        assert maxabs(comm - expected) < 1e-15

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            SingleModeWindow(-1)


class TestPeggBarnett:
    @pytest.mark.parametrize("phi0", [0.0, 0.4])
    def test_exactly_unitary(self, phi0):
        u = build_pegg_barnett(SingleModeWindow(6), phi0)
        defect = (u @ u.adjoint()).entries - np.eye(7)
        assert maxabs(defect) < 1e-15

    @pytest.mark.parametrize("s,phi0", [(7, 0.0), (7, 0.4), (4, -1.0)])
    def test_spectrum_is_the_offset_grid(self, s, phi0):
        d = s + 1
        u = build_pegg_barnett(SingleModeWindow(s), phi0)
        values = np.linalg.eigvals(u.entries)
        got = np.sort(np.mod(np.angle(values), 2 * math.pi))
        expected = np.sort(np.mod(phi0 + 2 * math.pi * np.arange(d) / d, 2 * math.pi))
        assert np.allclose(got, expected, atol=1e-10)

    def test_two_dim_eigenvalues(self):
        u = build_pegg_barnett(SingleModeWindow(1), 0.0)
        values = sorted(np.linalg.eigvals(u.entries).real, reverse=True)
        assert values == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_wrap_element_phase(self):
        phi0 = 0.3
        u = build_pegg_barnett(SingleModeWindow(3), phi0)
        assert u.entries[3, 0] == pytest.approx(cmath.exp(4j * phi0), abs=1e-15)


class TestRestriction:
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CYCLIC])
    def test_upper_block_is_the_single_mode_ladder(self, boundary):
        w = Window(-6, 9, boundary)
        restricted = restrict_to_upper(build_susskind_glogower(w))
        single = build_sg_single(SingleModeWindow(9))
        assert restricted.window == SingleModeWindow(9)
        assert maxabs(restricted.entries - single.entries) == 0.0

    def test_helicity_restricts_to_the_identity(self):
        w = Window(-4, 5)
        restricted = restrict_to_upper(build_helicity(w))
        assert maxabs(restricted.entries - np.eye(6)) == 0.0

    def test_label_number_restricts_to_the_photon_ladder(self):
        w = Window(-4, 5)
        restricted = restrict_to_upper(build_number(w, NumberKind.LABEL))
        assert maxabs(restricted.entries - np.diag(np.arange(6.0))) == 0.0


class TestPeggBarnettDistribution:
    def test_number_state_is_uniform(self):
        nw = SingleModeWindow(7)
        grid = phase_grid(Window(-1, 6))  # any 8-point grid geometry
        vec = np.zeros(8, dtype=complex)
        vec[3] = 1.0
        dist = pegg_barnett_distribution(vec, grid)
        assert maxabs(dist.probabilities - 1.0 / 8.0) < 1e-15

    def test_dimension_must_match_the_grid(self):
        grid = phase_grid(Window(-1, 6))
        with pytest.raises(ValueError):
            pegg_barnett_distribution(np.ones(4, dtype=complex) / 2.0, grid)

    def test_requires_normalized_state(self):
        grid = phase_grid(Window(-1, 6))
        with pytest.raises(ValueError):
            pegg_barnett_distribution(np.full(8, 0.1, dtype=complex), grid)

    def test_single_mode_coherent_is_the_upper_coherent_branch(self):
        w = Window.symmetric(20)
        doubled = coherent_state(w, "upper", 0.9 - 0.4j).amplitudes[w.position(0):]
        assert np.array_equal(single_mode_coherent(SingleModeWindow(20), 0.9 - 0.4j), doubled)
        with pytest.raises(TailWeightError):
            single_mode_coherent(SingleModeWindow(3), 3.0)

    @pytest.mark.parametrize("n_max,alpha,bound", [(63, 1.0, 1e-14), (15, 0.5, 1e-11)])
    def test_doubled_space_agrees_for_upper_states(self, n_max, alpha, bound):
        w = Window.symmetric(n_max, Boundary.CYCLIC)
        grid = phase_grid(w)
        doubled = phase_distribution(coherent_state(w, "upper", alpha), grid)
        matched = single_mode_coherent(SingleModeWindow(w.dimension - 1), alpha)
        single = pegg_barnett_distribution(matched, grid)
        sup, l1 = compare_distributions(doubled, single)
        assert sup < bound
        assert l1 < bound * w.dimension


class TestCompare:
    def test_self_comparison_is_zero(self):
        w = Window.symmetric(7)
        dist = phase_distribution(fock_state(w, 2), phase_grid(w))
        assert compare_distributions(dist, dist) == (0.0, 0.0)

    def test_uniform_vs_uniform(self):
        w = Window.symmetric(7)
        a = phase_distribution(fock_state(w, 2), phase_grid(w))
        b = phase_distribution(fock_state(w, -3), phase_grid(w))
        sup, l1 = compare_distributions(a, b)
        assert sup < 1e-15 and l1 < 1e-13

    def test_offset_may_differ_by_a_full_turn(self):
        w = Window.symmetric(7)
        a = phase_distribution(fock_state(w, 2), phase_grid(w, 0.0))
        b = phase_distribution(fock_state(w, 2), phase_grid(w, 2 * math.pi))
        sup, _ = compare_distributions(a, b)
        assert sup < 1e-12

    def test_size_mismatch_rejected(self):
        a = phase_distribution(
            fock_state(Window.symmetric(7), 0), phase_grid(Window.symmetric(7))
        )
        b = phase_distribution(
            fock_state(Window.symmetric(8), 0), phase_grid(Window.symmetric(8))
        )
        with pytest.raises(ValueError):
            compare_distributions(a, b)

    def test_offset_mismatch_rejected(self):
        w = Window.symmetric(7)
        a = phase_distribution(fock_state(w, 0), phase_grid(w, 0.0))
        b = phase_distribution(fock_state(w, 0), phase_grid(w, 0.5))
        with pytest.raises(ValueError):
            compare_distributions(a, b)


def test_comparison_report_shape():
    w = Window.symmetric(3)
    report = comparison_report("pegg_barnett", w, 1.25e-16, 3.5e-15, "coherent:upper,alpha=1+0i")
    assert report == {
        "baseline": "pegg_barnett",
        "window": {"lo": -4, "hi": 3, "boundary": "open", "wrap_phase": 0.0},
        "sup_diff": 1.25e-16,
        "l1_diff": 3.5e-15,
        "state_spec": "coherent:upper,alpha=1+0i",
    }
