"""Phase eigenstates of the doubled-space ladder operator, phase
probability distributions, and circular statistics.

A window of dimension D admits exactly D orthonormal phase states on a
uniform grid phi_k = phi0 + 2 pi k / D, with amplitudes
<n|phi> = e^{i(n+1/2)phi} / sqrt(D); the grid offset phi0 is the free
phase reference. The same amplitude formula evaluated off-grid gives the
non-orthogonal interpolating states used by higher-resolution scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import Boundary, StateVector, Window, _freeze
from .formats import _csv_text, round_sig, window_to_json_dict
from .operators import OperatorMatrix, _require_same_window

PROBABILITY_TOL = 1e-10

_HERMITIAN_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """D equally spaced phase points covering one 2 pi period.

    For a cyclic window with wrap_phase 0 the grid with phi0 = 0
    enumerates the exact eigenphases of the ladder operator E.
    """

    window: Window
    phi0: float
    points: np.ndarray

    def __post_init__(self):
        _freeze(self, "points", float, (self.window.dimension,))
        object.__setattr__(self, "phi0", float(self.phi0))


def phase_grid(window: Window, phi0: float = 0.0) -> PhaseGrid:
    d = window.dimension
    points = phi0 + _TWO_PI * np.arange(d) / d
    return PhaseGrid(window, phi0, points)


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Born-rule probabilities of a state over a phase grid, with the
    resultant-vector circular mean and variance."""

    grid: PhaseGrid
    probabilities: np.ndarray
    circular_mean: float
    circular_variance: float

    def __post_init__(self):
        _freeze(self, "probabilities", float, self.grid.points.shape)


def phase_state(window: Window, phi: float) -> StateVector:
    """State with amplitudes e^{i(n+1/2)phi} / sqrt(D) on every label n.

    On-grid values of phi give the orthonormal phase basis; other values
    give the interpolating states.
    """
    bra = _phase_bras(window.indices() + 0.5, np.array([phi]))[0]
    return StateVector(window, bra.conj())


def _phase_bras(labels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The phase-grid basis as bras: row k is <phi_k| over the given basis
    labels, e^{-i labels phi_k} / sqrt(len(labels)). Doubled-space labels
    are n + 1/2; the single-mode Pegg-Barnett grid uses n. Its conjugate
    transpose holds the phase states as columns."""
    return np.exp(-1j * np.outer(points, labels)) / math.sqrt(len(labels))


def circular_stats(points: np.ndarray, probabilities: np.ndarray) -> tuple[float, float]:
    """Circular mean (arg of the resultant) and variance (1 - |resultant|)."""
    resultant = complex(np.sum(probabilities * np.exp(1j * points)))
    return math.atan2(resultant.imag, resultant.real), 1.0 - abs(resultant)


def _born_distribution(amplitudes: np.ndarray, labels: np.ndarray, grid: PhaseGrid) -> PhaseDistribution:
    """Born rule p_k = |<phi_k|psi>|^2 of unit-norm amplitudes over the
    given basis labels, with the circular statistics of the result."""
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= PROBABILITY_TOL:
        raise ValueError(f"state norm {norm:.12g} is not 1 within {PROBABILITY_TOL:g}")
    probabilities = np.abs(_phase_bras(labels, grid.points) @ amplitudes) ** 2
    mean, variance = circular_stats(grid.points, probabilities)
    return PhaseDistribution(grid, probabilities, mean, variance)


def phase_distribution(state: StateVector, grid: PhaseGrid) -> PhaseDistribution:
    """p_k = |<phi_k|state>|^2 over the grid's orthonormal phase states."""
    _require_same_window(state.window, grid.window, "phase distribution")
    return _born_distribution(state.amplitudes, state.window.indices() + 0.5, grid)


def _eigenphase(value: complex, window: Window) -> float:
    """Angle in [0, 2 pi) of an eigenvalue of the window's cyclic ladder.
    Only a wrap_phase that is a multiple of 2 pi gives an exact eigenphase
    0, which may round to just below 2 pi; that one is folded back to 0."""
    phase = float(np.angle(value) % _TWO_PI)
    return 0.0 if window.wrap_phase % _TWO_PI == 0.0 and phase > _TWO_PI - 1e-9 else phase


def eigen_decompose_sg(op: OperatorMatrix) -> list[tuple[complex, StateVector]]:
    """Eigenpairs of the cyclic ladder operator, sorted by phase angle in
    [0, 2 pi), eigenvectors unit-norm with the amplitude at label 0 made
    real positive.

    Open-mode operators are refused: truncation leaves them defective at
    the edge and the numerical output would be misleading.
    """
    if op.window.boundary is not Boundary.CYCLIC:
        raise ValueError(
            "eigendecomposition needs a cyclic-boundary ladder operator; "
            "the open-mode operator is defective at the truncation edge"
        )
    values, vectors = np.linalg.eig(op.entries)
    order = np.argsort([_eigenphase(value, op.window) for value in values])

    pos0 = op.window.position(0)
    pairs = []
    for k in order:
        vec = vectors[:, k]
        vec = vec / np.linalg.norm(vec)
        anchor = vec[pos0]
        if abs(anchor) > 1e-14:
            vec = vec * (anchor.conjugate() / abs(anchor))
        pairs.append((complex(values[k]), StateVector(op.window, vec)))
    return pairs


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
        value = complex(np.vdot(state.amplitudes, op.entries @ state.amplitudes))
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
    return _csv_text(["phi", "probability"], zip(dist.grid.points, dist.probabilities))


def distribution_to_json_dict(dist: PhaseDistribution) -> dict:
    return {
        "window": window_to_json_dict(dist.grid.window),
        "phi0": round_sig(dist.grid.phi0),
        "phi": [round_sig(x) for x in dist.grid.points],
        "probabilities": [round_sig(p) for p in dist.probabilities],
        "circular_mean": round_sig(dist.circular_mean),
        "circular_variance": round_sig(dist.circular_variance),
    }
