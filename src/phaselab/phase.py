"""Phase eigenstates of the doubled-space ladder operator, phase
probability distributions, and circular statistics.

A window of dimension D admits exactly D orthonormal phase states on a
uniform grid phi_k = phi0 + 2 pi k / D, with amplitudes
<n|phi> = e^{i(n+1/2)phi} / sqrt(D); the grid offset phi0 is the free
phase reference. The same amplitude formula evaluated off-grid gives the
non-orthogonal interpolating states used by higher-resolution scans.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fockspace import Boundary, StateVector, Window, _freeze
from .formats import csv_text, window_to_json_dict
from .operators import OperatorMatrix, _require_same_window

PROBABILITY_TOL = 1e-10

_HERMITIAN_TOL = 1e-12

# Below this resultant length the circular mean is the angle of roundoff
# and is reported as None: Fock states (phase-uniform in exact arithmetic)
# gave |resultant| <= 2.9e-15 over D = 2..513 and D up to 65543 with phi0
# in {0, 0.3, -7.5, +-100}, so 1e-12 leaves a wide margin.
RESULTANT_FLOOR = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """D equally spaced phase points phi0 + 2 pi k / D covering one 2 pi
    period, derived from the window's dimension and phi0. The uniform
    spacing is what lets the Born rule over the grid be one FFT.

    A phi0 so large that the spacing 2 pi / D is below one unit in the
    12th significant digit of the largest |point| is refused: formats
    would print points that are not distinct.
    """

    window: Window
    phi0: float
    points: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phi0", float(self.phi0))
        d = self.window.dimension
        object.__setattr__(self, "points", self.phi0 + _TWO_PI * np.arange(d) / d)
        _freeze(self, "points", float, (d,))
        largest = max(abs(self.points[0]), abs(self.points[-1]))
        if _TWO_PI / d < 10.0 ** (math.floor(math.log10(largest)) - 11):
            raise ValueError(f"phi0 {self.phi0:g} is too large for {d} grid points "
                             f"distinct at 12 significant digits")

    @functools.cached_property
    def _labels_and_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The label factors e^{-i l phi0} and e^{+i l phi0} over the labels
        l = n + 1/2, and the k-factors / sqrt(D) of _phase_fft, with l_0 k
        reduced modulo D exactly so the angle stays below 2 pi; formed once
        per grid, read-only, for every transform on it."""
        labels = self.window.indices() + 0.5
        d = len(labels)
        factors = (np.exp(-1j * labels * self.phi0), np.exp(1j * labels * self.phi0),
                   np.exp(-1j * _TWO_PI * ((labels[0] * np.arange(d)) % d) / d) / math.sqrt(d))
        for factor in factors:
            factor.setflags(write=False)
        return factors


def phase_grid(window: Window, phi0: float = 0.0) -> PhaseGrid:
    return PhaseGrid(window, phi0)


def eigenphase_grid(window: Window) -> PhaseGrid:
    """The cyclic ladder's eigenphases (theta + 2 pi k) / D, theta in
    (-pi, pi] the angle of E's wrap element e^{i wrap_phase}: phi0 stays
    below pi / D, so (n + 1/2) phi0 keeps its digits at any wrap_phase."""
    theta = cmath.phase(cmath.exp(1j * window.wrap_phase))
    return PhaseGrid(window, theta / window.dimension)


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Born-rule probabilities of a state over a phase grid, with the
    resultant-vector circular mean (None for a phase-uniform state, see
    RESULTANT_FLOOR) and variance."""

    grid: PhaseGrid
    probabilities: np.ndarray
    circular_mean: float | None
    circular_variance: float

    def __post_init__(self):
        _freeze(self, "probabilities", float, self.grid.points.shape)


def phase_state(window: Window, phi: float) -> StateVector:
    """State with amplitudes e^{i(n+1/2)phi} / sqrt(D) on every label n.

    On-grid values of phi give the orthonormal phase basis; other values
    give the interpolating states.
    """
    amplitudes = np.exp(1j * (window.indices() + 0.5) * phi) / math.sqrt(window.dimension)
    return StateVector(window, amplitudes)


def _phase_fft(amplitudes: np.ndarray, down: np.ndarray) -> np.ndarray:
    """sum_j c_j e^{-i l_j phi0} e^{-2 pi i jk/D} over labels l_j = l_0 + j,
    along the last axis (a vector, or one row per vector), given the label
    factors down = e^{-i l phi0}: the overlaps with the grid
    phi0 + 2 pi k / D, up to the unimodular k-factor e^{-2 pi i l_0 k/D}
    and 1/sqrt(D)."""
    weighted = amplitudes * down
    return np.fft.fft(weighted, out=weighted)


def _to_phase_basis(amplitudes: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """B: the overlaps <phi_k|psi> with the grid's phase states, of a
    vector or of each row of a matrix."""
    down, _up, factors = grid._labels_and_factors
    overlaps = _phase_fft(amplitudes, down)
    overlaps *= factors
    return overlaps


def _from_phase_basis(overlaps: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """K = B^dagger: sum_k x_k |phi_k> in the label basis, of a vector or
    of each row of a matrix."""
    _down, up, factors = grid._labels_and_factors
    spread = overlaps * factors.conj()
    np.fft.ifft(spread, out=spread)
    spread *= len(up)
    spread *= up
    return spread


def circular_stats(points: np.ndarray, probabilities: np.ndarray) -> tuple[float | None, float]:
    """Circular mean (arg of the resultant, None when |resultant| <=
    RESULTANT_FLOOR) and variance (1 - |resultant|)."""
    resultant = complex(np.sum(probabilities * np.exp(1j * points)))
    length = abs(resultant)
    mean = math.atan2(resultant.imag, resultant.real) if length > RESULTANT_FLOOR else None
    return mean, 1.0 - length


def _born_distribution(amplitudes: np.ndarray, grid: PhaseGrid) -> PhaseDistribution:
    """Born rule p_k = |<phi_k|psi>|^2 of unit-norm amplitudes over the
    grid window's labels n + 1/2, one FFT, with the circular statistics of
    the result. Any other run of consecutive labels, such as a single
    mode's 0..s, shifts each overlap by a phase alone, so it gives the same
    probabilities. A distribution is one transform on its grid, so its
    label factors are formed here rather than cached on the grid."""
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= PROBABILITY_TOL:
        raise ValueError(f"state norm {norm:.12g} is not 1 within {PROBABILITY_TOL:g}")
    labels = grid.window.indices() + 0.5
    overlaps = _phase_fft(amplitudes, np.exp(-1j * labels * grid.phi0))
    probabilities = np.abs(overlaps) ** 2 / len(labels)
    mean, variance = circular_stats(grid.points, probabilities)
    return PhaseDistribution(grid, probabilities, mean, variance)


def phase_distribution(state: StateVector, grid: PhaseGrid) -> PhaseDistribution:
    """p_k = |<phi_k|state>|^2 over the grid's orthonormal phase states."""
    _require_same_window(state.window, grid.window, "phase distribution")
    return _born_distribution(state.amplitudes, grid)


def _eigenphase(values, window: Window):
    """Angles in [0, 2 pi) of eigenvalues of the window's cyclic ladder,
    elementwise. Only a wrap_phase that is a multiple of 2 pi gives exact
    eigenphases 0, which may round to just below 2 pi; those are folded
    back to 0. Any other angle a hair below 0 can round up to 2 pi in the
    fold; it is kept as the largest float below 2 pi, since it is not 0."""
    phases = np.angle(values) % _TWO_PI
    if window.wrap_phase % _TWO_PI == 0.0:
        phases = np.where(phases > _TWO_PI - 1e-9, 0.0, phases)
    return np.minimum(phases, math.nextafter(_TWO_PI, 0.0))


def _unit_phasors(grid: PhaseGrid) -> np.ndarray:
    """e^{i phi_k} on the grid's points phi_k = phi0 + 2 pi k/D. With
    q = rint(4k/D) and the exact m = 4k - qD, 2 pi k/D = (q + m/D) pi/2, so
    e^{i phi_k} = i^q e^{i(phi0 + m pi/(2D))}: float pi's error enters only
    an angle below pi/4 + |phi0|."""
    d = grid.window.dimension
    k = np.arange(d)
    quarter = np.rint(4 * k / d).astype(int)
    residual = grid.phi0 + (4 * k - quarter * d) * math.pi / (2 * d)
    return np.array([1, 1j, -1, -1j])[quarter % 4] * np.exp(1j * residual)


def _sorted_eigenphases(window: Window) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic ladder's eigenvalues e^{i phi_k} and their grid points
    phi_k on eigenphase_grid, both sorted by phase angle in [0, 2 pi).

    Open-mode windows are refused: truncation leaves the ladder defective
    at the edge and the numerical output would be misleading.
    """
    if window.boundary is not Boundary.CYCLIC:
        raise ValueError("eigendecomposition needs a cyclic-boundary ladder operator; "
                         "the open-mode operator is defective at the truncation edge")
    grid = eigenphase_grid(window)
    values = _unit_phasors(grid)
    order = np.argsort(_eigenphase(values, window))
    return values[order], grid.points[order]


def eigenvalues_sg(window: Window) -> np.ndarray:
    """The eigenvalues of eigen_decompose_sg, in its order, without the
    eigenvectors: O(D) time and memory. Open-mode windows are refused."""
    return _sorted_eigenphases(window)[0]


def eigen_decompose_sg(window: Window) -> list[tuple[complex, StateVector]]:
    """Eigenpairs of the window's cyclic ladder E in closed form, sorted by
    phase angle in [0, 2 pi): e^{i phi_k} on eigenphase_grid, with the
    unit-norm eigenvector e^{i n phi_k} / sqrt(D), real positive at label 0.
    Open-mode windows are refused, as by eigenvalues_sg.
    """
    values, points = _sorted_eigenphases(window)
    labels, norm = window.indices(), math.sqrt(window.dimension)
    return [(complex(value), StateVector(window, np.exp(1j * labels * phi) / norm))
            for value, phi in zip(values.tolist(), points.tolist())]


def cosine_sine_expectation(
    state: StateVector, c: OperatorMatrix, s: OperatorMatrix
) -> tuple[float, float]:
    """(<C>, <S>) for Hermitian quadratures; the imaginary residue is
    checked against 1e-12 and then discarded."""
    for name, op in (("cosine", c), ("sine", s)):
        _require_same_window(state.window, op.window, "expectation")
        if op.hermiticity_defect() > _HERMITIAN_TOL:
            raise ValueError(f"{name} operator is not Hermitian within {_HERMITIAN_TOL:g}")
    expectations = []
    for op in (c, s):
        value = complex(np.vdot(state.amplitudes, op.apply(state).amplitudes))
        if abs(value.imag) > _HERMITIAN_TOL:
            raise ArithmeticError(
                f"expectation of a Hermitian operator came out complex: {value!r}"
            )
        expectations.append(value.real)
    return expectations[0], expectations[1]


def distribution_to_csv(dist: PhaseDistribution) -> str:
    """CSV rows "phi,probability" in ascending phi, 12 significant digits.

    Grid points are generated ascending from phi0, so enumeration order
    is already ascending phi.
    """
    return csv_text(["phi", "probability"],
                    zip(dist.grid.points.tolist(), dist.probabilities.tolist()))


def distribution_to_json_dict(dist: PhaseDistribution) -> dict:
    return {
        "window": window_to_json_dict(dist.grid.window),
        "phi0": dist.grid.phi0,
        "phi": dist.grid.points.tolist(),
        "probabilities": dist.probabilities.tolist(),
        "circular_mean": dist.circular_mean,
        "circular_variance": dist.circular_variance,
    }
