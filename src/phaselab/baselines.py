"""Single-polarization baselines: the non-unitary exponential phase
operator on a nonnegative Fock ladder, the Pegg-Barnett truncated-space
unitary, and distribution comparison metrics.

Single-mode operators are OperatorMatrix values over a SingleModeWindow
(indices 0..n_max). For pointwise distribution comparison the
Pegg-Barnett dimension must equal the doubled grid size, so matched runs
use s + 1 = D.
"""

from __future__ import annotations

import cmath

import numpy as np

from .fockspace import DEFAULT_TAIL_THRESHOLD, SingleModeWindow, Window, coherent_state
from .operators import OperatorMatrix, _quadratures, _unit_shift
from .phase import _TWO_PI, PhaseDistribution, PhaseGrid, _born_distribution


def build_sg_single(nw: SingleModeWindow) -> OperatorMatrix:
    """Unit lowering chain on 0..n_max; annihilates |0>, hence the
    classic unitarity defect E^dag E = I - |0><0|."""
    return _unit_shift(nw)


def build_cosine_sine_single(nw: SingleModeWindow) -> tuple[OperatorMatrix, OperatorMatrix]:
    return _quadratures(build_sg_single(nw))


def build_pegg_barnett(nw: SingleModeWindow, phi0: float = 0.0) -> OperatorMatrix:
    """Unitary phase exponential on the truncated space: lowering chain
    with wrap element e^{i (s+1) phi0}, whose eigenstates are the uniform
    phase grid with offset phi0 and eigenvalues e^{i(phi0 + 2 pi k/(s+1))}.
    """
    return _unit_shift(nw, cmath.exp(1j * nw.dimension * phi0))


def restrict_to_upper(op: OperatorMatrix) -> OperatorMatrix:
    """The (n >= 0) x (n >= 0) sub-block of a doubled-space operator as a
    single-mode matrix over 0..hi. Each term gives at most two block terms:
    its entries whose column wraps around the doubled window, and those
    whose column does not; entries whose column falls outside the block
    are dropped."""
    w = op.window
    start, size = w.position(0), w.hi + 1
    rows, terms = np.arange(size), []
    for reflect, offset, weights in op.terms:
        for wrap in (0, w.dimension if reflect else -w.dimension):
            # block row b reads block column k + b, or k - b when the term reflects
            k = offset - 2 * start + wrap if reflect else offset + wrap
            cols = k - rows if reflect else k + rows
            inside = (cols >= 0) & (cols < size)
            if inside.any():
                terms.append((reflect, k, np.where(inside, weights[start:], 0.0)))
    return OperatorMatrix(SingleModeWindow(w.hi), terms)


def single_mode_coherent(
    nw: SingleModeWindow, alpha: complex, tail_threshold: float = DEFAULT_TAIL_THRESHOLD
) -> np.ndarray:
    """Normalized coherent amplitudes over 0..n_max (plain vector): the
    upper branch of the doubled-space coherent state, so the recurrence,
    the tail check and the renormalization are coherent_state's."""
    window = Window.symmetric(nw.n_max)
    state = coherent_state(window, "upper", alpha, tail_threshold)
    return np.array(state.amplitudes[window.position(0):])


def pegg_barnett_distribution(amplitudes: np.ndarray, grid: PhaseGrid) -> PhaseDistribution:
    """Phase distribution of a single-mode state over the Pegg-Barnett
    grid states e^{i n phi_k} / sqrt(s+1).

    The state dimension must equal the grid size (s + 1 = D); that is the
    matched-dimension setup for comparing against the doubled space.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    d = len(grid.points)
    if amps.shape != (d,):
        raise ValueError(
            f"state dimension {amps.shape} must match grid size {d} "
            "for an orthonormal phase basis"
        )
    return _born_distribution(amps, grid)


def compare_distributions(
    p: PhaseDistribution, q: PhaseDistribution
) -> tuple[float, float]:
    """(sup difference, l1 difference) between two distributions on
    identical grids (same size, same offset modulo 2 pi)."""
    if len(p.probabilities) != len(q.probabilities):
        raise ValueError(
            f"grid size mismatch: {len(p.probabilities)} vs {len(q.probabilities)}"
        )
    offset_gap = (p.grid.phi0 - q.grid.phi0) % _TWO_PI
    if min(offset_gap, _TWO_PI - offset_gap) > 1e-12:
        raise ValueError(
            f"grid offset mismatch: {p.grid.phi0!r} vs {q.grid.phi0!r} (mod 2 pi)"
        )
    diff = np.abs(p.probabilities - q.probabilities)
    return float(np.max(diff)), float(np.sum(diff))

