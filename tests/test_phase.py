import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from phaselab.fockspace import (
    Boundary,
    StateVector,
    Window,
    coherent_state,
    fock_state,
    vacuum_symmetric,
)
from phaselab.operators import (
    build_cosine_sine,
    build_polarization_swap,
    build_susskind_glogower,
)
from phaselab.phase import (
    PhaseDistribution,
    PhaseGrid,
    circular_stats,
    cosine_sine_expectation,
    distribution_to_csv,
    distribution_to_json_dict,
    eigen_decompose_sg,
    phase_distribution,
    phase_grid,
    phase_state,
)

D2 = Window.symmetric(0, Boundary.CYCLIC)  # the two-vacua space


def test_grid_points():
    w = Window.symmetric(3)
    grid = phase_grid(w, 0.5)
    assert len(grid.points) == 8
    assert grid.points[0] == 0.5
    assert np.allclose(np.diff(grid.points), 2 * math.pi / 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grids_and_distributions_must_be_finite(bad):
    w = Window.symmetric(1)
    with pytest.raises(ValueError, match="points must be finite"):
        PhaseGrid(w, 0.0, [0.0, 1.0, bad, 3.0])
    grid = phase_grid(w)
    with pytest.raises(ValueError, match="probabilities must be finite"):
        PhaseDistribution(grid, [0.25, 0.25, bad, 0.25], 0.0, 0.0)
    with pytest.raises(ValueError, match="shape"):
        PhaseDistribution(grid, [0.5, 0.5], 0.0, 0.0)


class TestPhaseState:
    def test_two_dim_at_zero_is_the_symmetric_vacuum(self):
        state = phase_state(D2, 0.0)
        assert np.allclose(state.amplitudes, vacuum_symmetric(D2).amplitudes, atol=1e-15)

    def test_two_dim_at_pi(self):
        state = phase_state(D2, math.pi)
        # storage order is n = -1, 0
        assert state.amplitude(0) == pytest.approx(1j / math.sqrt(2), abs=1e-15)
        assert state.amplitude(-1) == pytest.approx(-1j / math.sqrt(2), abs=1e-15)
        e = build_susskind_glogower(D2)
        assert np.allclose(
            e.apply(state).amplitudes, -state.amplitudes, atol=1e-15
        )

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_vacuum_components_differ_by_the_phase(self, phi):
        state = phase_state(Window.symmetric(5), phi)
        ratio = state.amplitude(0) / state.amplitude(-1)
        assert abs(ratio - cmath.exp(1j * phi)) < 1e-12

    def test_unit_norm(self):
        assert phase_state(Window(-3, 7), 1.234).is_normalized()


class TestGridBasis:
    @pytest.mark.parametrize("phi0", [0.0, 0.3])
    def test_orthonormal_and_complete(self, phi0):
        w = Window(-5, 4)
        basis = np.column_stack(
            [phase_state(w, phi).amplitudes for phi in phase_grid(w, phi0).points]
        )
        ident = np.eye(w.dimension)
        assert np.max(np.abs(basis.conj().T @ basis - ident)) < 1e-12
        assert np.max(np.abs(basis @ basis.conj().T - ident)) < 1e-12

    def test_off_grid_states_are_not_orthogonal(self):
        w = Window.symmetric(3)
        a = phase_state(w, 0.0)
        b = phase_state(w, 0.1)  # not a grid spacing
        assert abs(a.inner(b)) > 1e-3


class TestEigenDecomposition:
    @pytest.mark.parametrize("d", [2, 16])
    def test_spectrum_is_the_uniform_grid(self, d):
        w = Window.symmetric(d // 2 - 1, Boundary.CYCLIC)
        pairs = eigen_decompose_sg(build_susskind_glogower(w))
        assert len(pairs) == d
        values = np.array([value for value, _ in pairs])
        assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-10
        expected = np.exp(2j * math.pi * np.arange(d) / d)
        assert np.max(np.abs(values - expected)) < 1e-10

    def test_two_dim_eigenvalues(self):
        pairs = eigen_decompose_sg(build_susskind_glogower(D2))
        values = sorted((value.real for value, _ in pairs), reverse=True)
        assert values == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_eigenvectors_match_the_analytic_phase_states(self):
        w = Window.symmetric(7, Boundary.CYCLIC)
        grid = phase_grid(w)
        for k, (value, vec) in enumerate(eigen_decompose_sg(build_susskind_glogower(w))):
            overlap = abs(phase_state(w, grid.points[k]).inner(vec))
            assert overlap >= 1.0 - 1e-10

    def test_wrap_phase_shifts_the_spectrum(self):
        theta = 0.9
        w = Window.symmetric(4, Boundary.CYCLIC, theta)
        d = w.dimension
        pairs = eigen_decompose_sg(build_susskind_glogower(w))
        phases = sorted(np.angle(value) % (2 * math.pi) for value, _ in pairs)
        expected = sorted((theta + 2 * math.pi * k) / d for k in range(d))
        assert np.allclose(phases, expected, atol=1e-10)

    def test_anchor_amplitude_is_real_positive(self):
        w = Window.symmetric(5, Boundary.CYCLIC)
        for _, vec in eigen_decompose_sg(build_susskind_glogower(w)):
            anchor = vec.amplitude(0)
            assert anchor.real > 0
            assert abs(anchor.imag) < 1e-12

    def test_open_mode_refused(self):
        with pytest.raises(ValueError):
            eigen_decompose_sg(build_susskind_glogower(Window.symmetric(3)))


class TestPhaseDistribution:
    @pytest.mark.parametrize("n", [-4, -1, 0, 3])
    def test_fock_states_are_phase_uniform(self, n):
        w = Window.symmetric(3)
        dist = phase_distribution(fock_state(w, n), phase_grid(w))
        assert np.max(np.abs(dist.probabilities - 1.0 / w.dimension)) < 1e-15

    def test_two_dim_symmetric_vacuum_is_sharp(self):
        dist = phase_distribution(vacuum_symmetric(D2), phase_grid(D2))
        assert dist.probabilities == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_probabilities_sum_to_one(self):
        w = Window.symmetric(31)
        state = coherent_state(w, "upper", 1.5)
        dist = phase_distribution(state, phase_grid(w, 0.2))
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_states(self):
        w = Window.symmetric(3)
        state = StateVector(w, np.full(w.dimension, 0.1, dtype=complex))
        with pytest.raises(ValueError):
            phase_distribution(state, phase_grid(w))

    def test_rejects_mismatched_grid(self):
        w = Window.symmetric(3)
        with pytest.raises(ValueError):
            phase_distribution(fock_state(w, 0), phase_grid(Window.symmetric(4)))

    def test_coherent_mean_tracks_the_amplitude_argument(self):
        beta = 0.9
        n_max = 40
        w = Window.symmetric(n_max, Boundary.CYCLIC)
        alpha = 2.0 * cmath.exp(1j * beta)
        state = coherent_state(w, "upper", alpha)
        dist = phase_distribution(state, phase_grid(w))
        assert abs(dist.circular_mean - beta) < 0.1
        # independent oracle at 10x resolution
        labels = list(range(w.lo, w.hi + 1))
        angles, weights = oracles.doubled_distribution(
            labels, state.amplitudes, w.dimension, 0.0, resolution=10
        )
        oracle_mean, oracle_var = oracles.circular_mean_variance(angles, weights)
        assert abs(dist.circular_mean - oracle_mean) < 1e-6
        assert abs(dist.circular_variance - oracle_var) < 1e-6

    def test_global_phase_invariance(self):
        w = Window.symmetric(18)
        state = coherent_state(w, "lower", 1.2 + 0.4j)
        rotated = StateVector(w, state.amplitudes * cmath.exp(0.77j))
        grid = phase_grid(w)
        a = phase_distribution(state, grid).probabilities
        b = phase_distribution(rotated, grid).probabilities
        assert np.max(np.abs(a - b)) < 1e-14

    def test_label_phase_rotation_translates_the_distribution(self):
        # multiplying amplitudes by e^{i(n+1/2) dphi} with dphi one grid
        # step moves every probability to the next grid point
        w = Window.symmetric(12, Boundary.CYCLIC)
        grid = phase_grid(w)
        step = 2 * math.pi / w.dimension
        state = coherent_state(w, "upper", 1.0 + 0.5j)
        rotated = StateVector(
            w, state.amplitudes * np.exp(1j * (w.indices() + 0.5) * step)
        )
        p = phase_distribution(state, grid).probabilities
        q = phase_distribution(rotated, grid).probabilities
        assert np.max(np.abs(q - np.roll(p, 1))) < 1e-10

    def test_ladder_adjoint_leaves_the_distribution_invariant(self):
        # E^dag multiplies every phase-state overlap by a unit phase, so
        # the distribution cannot move
        w = Window.symmetric(12, Boundary.CYCLIC)
        grid = phase_grid(w)
        state = coherent_state(w, "upper", 1.0)
        shifted = build_susskind_glogower(w).adjoint().apply(state)
        p = phase_distribution(state, grid).probabilities
        q = phase_distribution(shifted, grid).probabilities
        assert np.max(np.abs(q - p)) < 1e-10

    def test_branch_swap_reflects_the_distribution(self):
        w = Window.symmetric(18)
        grid = phase_grid(w)
        state = coherent_state(w, "upper", 1.0 + 0.7j)
        swapped = build_polarization_swap(w).apply(state)
        p = phase_distribution(state, grid).probabilities
        q = phase_distribution(swapped, grid).probabilities
        d = w.dimension
        reflected = p[(d - np.arange(d)) % d]
        assert np.max(np.abs(q - reflected)) < 1e-10


def test_circular_stats_point_mass():
    mean, variance = circular_stats(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert mean == pytest.approx(1.0)
    assert variance == pytest.approx(0.0, abs=1e-15)


class TestQuadratureExpectations:
    def test_interior_fock_state_has_no_preferred_phase(self):
        w = Window.symmetric(4)
        c, s = build_cosine_sine(w)
        got = cosine_sine_expectation(fock_state(w, 2), c, s)
        assert got == (0.0, 0.0)

    def test_phase_states_give_their_own_angle(self):
        w = Window.symmetric(6, Boundary.CYCLIC)
        c, s = build_cosine_sine(w)
        for phi in phase_grid(w).points[:5]:
            ec, es = cosine_sine_expectation(phase_state(w, phi), c, s)
            assert ec == pytest.approx(math.cos(phi), abs=1e-12)
            assert es == pytest.approx(math.sin(phi), abs=1e-12)

    def test_two_dim_symmetric_vacuum(self):
        c, s = build_cosine_sine(D2)
        assert cosine_sine_expectation(vacuum_symmetric(D2), c, s) == pytest.approx(
            (1.0, 0.0), abs=1e-14
        )

    def test_rejects_non_hermitian_input(self):
        w = Window.symmetric(4, Boundary.CYCLIC)
        e = build_susskind_glogower(w)
        c, s = build_cosine_sine(w)
        with pytest.raises(ValueError):
            cosine_sine_expectation(fock_state(w, 0), e, s)

    def test_rejects_mismatched_window(self):
        w = Window.symmetric(4)
        c, s = build_cosine_sine(w)
        with pytest.raises(ValueError):
            cosine_sine_expectation(fock_state(Window.symmetric(5), 0), c, s)


class TestRendering:
    def test_csv_layout_and_numbers(self):
        w = Window.symmetric(7)
        dist = phase_distribution(vacuum_symmetric(w), phase_grid(w))
        text = distribution_to_csv(dist)
        lines = text.strip().split("\n")
        assert lines[0] == "phi,probability"
        assert len(lines) == 1 + w.dimension
        phis = [float(line.split(",")[0]) for line in lines[1:]]
        assert phis == sorted(phis)
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_csv_and_json_encode_identical_numbers(self):
        w = Window.symmetric(14)
        dist = phase_distribution(coherent_state(w, "upper", 1.0), phase_grid(w, 0.1))
        csv_rows = distribution_to_csv(dist).strip().split("\n")[1:]
        payload = distribution_to_json_dict(dist)
        for row, phi, p in zip(csv_rows, payload["phi"], payload["probabilities"]):
            csv_phi, csv_p = row.split(",")
            assert float(csv_phi) == phi
            assert float(csv_p) == p
        assert set(payload) == {
            "window", "phi0", "phi", "probabilities",
            "circular_mean", "circular_variance",
        }

    def test_rendering_is_deterministic(self):
        w = Window.symmetric(14)
        state = coherent_state(w, "upper", 0.7 + 0.2j)
        a = distribution_to_csv(phase_distribution(state, phase_grid(w)))
        b = distribution_to_csv(phase_distribution(state, phase_grid(w)))
        assert a == b
