"""Matrix builders for the doubled-space operators, plus dense arithmetic.

Ladder conventions on the two branches (all against ascending label
order n = lo..hi):

  a_plus        lowers the label and the photon count on the upper branch:
                <n-1|a+|n> = sqrt(n) for n >= 1; zero elsewhere.
  a_minus       lowers the label but raises the photon count on the lower
                branch: <n-1|a-|n> = sqrt(|n|) for n <= -1. Its adjoint is
                the photon-removing operator there and annihilates |-1>.
  a_v           couples the branches across the vacuum seam: |-1><0|.
  a_m           the full lowering chain a_plus + a_v + a_minus; in cyclic
                mode the wrap element <hi|a_m|lo> = sqrt(|lo|) e^{i theta}
                keeps the factorization a_m = E diag(c) exact.
  susskind_glogower  the unit-coefficient lowering chain E (the
                exponential-of-phase operator); cyclic wrap e^{i theta}.

a_plus, a_minus, their adjoints, a_v, helicity, the number diagonals and
the polarization swap are in-window matrix elements of the untruncated
operators and ignore the boundary mode; only a_m and E close the edge.

Builders and arithmetic are pure and OperatorMatrix is immutable, so
parallel construction is safe and bit-identical to serial construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fockspace import Boundary, SingleModeWindow, StateVector, Window, _freeze, photon_count
from .formats import round_sig, window_to_json_dict


class WindowMismatchError(ValueError):
    """Binary operation between operators or states on different windows."""


class NumberKind(str, Enum):
    """The three number-operator diagonals the identity suite adjudicates.

    LABEL counts the signed basis label n. PHOTON counts photons,
    photon_count(n). LITERAL is the literal operator-ordering reading of
    the block definition (upper a+^dag a+, lower a- a-^dag - 1), which
    gives |n+1| - 1 on the lower branch. All three agree for n >= 0.
    """

    LABEL = "label"
    PHOTON = "photon"
    LITERAL = "literal"


def _require_same_window(a, b, what: str) -> None:
    if a != b:
        raise WindowMismatchError(f"{what} needs identical windows, got {a} vs {b}")


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix over a window, tagged with its builder label.

    The window is a doubled-space Window or, for the single-polarization
    baselines, a SingleModeWindow; operands of a binary operation must
    share it.
    """

    window: Window | SingleModeWindow
    entries: np.ndarray
    label: str

    def __post_init__(self):
        _freeze(self, "entries", complex, (self.window.dimension,) * 2)

    def adjoint(self) -> OperatorMatrix:
        return OperatorMatrix(self.window, self.entries.conj().T, f"adjoint({self.label})")

    def apply(self, state: StateVector) -> StateVector:
        _require_same_window(self.window, state.window, "apply")
        return StateVector(self.window, self.entries @ state.amplitudes)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "product")
        return OperatorMatrix(
            self.window, self.entries @ other.entries, f"({self.label} {other.label})"
        )

    def __add__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "sum")
        return OperatorMatrix(
            self.window, self.entries + other.entries, f"({self.label} + {other.label})"
        )

    def __sub__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "difference")
        return OperatorMatrix(
            self.window, self.entries - other.entries, f"({self.label} - {other.label})"
        )

    def __mul__(self, scalar) -> OperatorMatrix:
        return OperatorMatrix(
            self.window, self.entries * complex(scalar), f"({scalar} {self.label})"
        )

    __rmul__ = __mul__

    def __neg__(self) -> OperatorMatrix:
        return OperatorMatrix(self.window, -self.entries, f"(-{self.label})")


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    _require_same_window(a.window, b.window, "commutator")
    return OperatorMatrix(
        a.window,
        a.entries @ b.entries - b.entries @ a.entries,
        f"[{a.label},{b.label}]",
    )


def _weighted_shift(coefficients, lowering: bool = True, wrap: complex | None = None) -> np.ndarray:
    """The one builder of shift-chain entries: a D x D matrix, D =
    len(coefficients) + 1, with coefficients[k] joining storage positions
    k and k+1, at (k, k+1) when lowering and at (k+1, k) when raising. A
    wrap value closes the chain at the corner (D-1, 0) when lowering, or
    (0, D-1) when raising."""
    m = np.diag(np.asarray(coefficients, dtype=complex), 1 if lowering else -1)
    if wrap is not None:
        m[(-1, 0) if lowering else (0, -1)] = wrap
    return m


def _quadratures(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts C = (E + E^dag)/2 and S = (E - E^dag)/(2i)."""
    return (e + e.conj().T) / 2.0, (e - e.conj().T) / 2.0j


def build_identity(window: Window) -> OperatorMatrix:
    return OperatorMatrix(window, np.eye(window.dimension, dtype=complex), "identity")


def build_helicity(window: Window) -> OperatorMatrix:
    """Diagonal +1 on the upper branch (n >= 0), -1 on the lower."""
    diag = np.where(window.indices() >= 0, 1.0, -1.0).astype(complex)
    return OperatorMatrix(window, np.diag(diag), "helicity")


def build_a_plus(window: Window) -> OperatorMatrix:
    m = _weighted_shift(_chain(window, lambda n: n >= 1))
    return OperatorMatrix(window, m, "a_plus")


def build_a_plus_dagger(window: Window) -> OperatorMatrix:
    m = _weighted_shift(_chain(window, lambda n: n >= 1), lowering=False)
    return OperatorMatrix(window, m, "a_plus_dagger")


def build_a_minus(window: Window) -> OperatorMatrix:
    m = _weighted_shift(_chain(window, lambda n: n <= -1))
    return OperatorMatrix(window, m, "a_minus")


def build_a_minus_dagger(window: Window) -> OperatorMatrix:
    # annihilates |-1>: the seam step (n = 0) is not part of the lower branch
    m = _weighted_shift(_chain(window, lambda n: n <= -1), lowering=False)
    return OperatorMatrix(window, m, "a_minus_dagger")


def build_a_v(window: Window) -> OperatorMatrix:
    """Vacuum coupler |-1><0|: sends the upper vacuum to the lower one."""
    return OperatorMatrix(window, _weighted_shift(_chain(window, lambda n: n == 0)), "a_v")


def lowering_coefficient(n: int) -> float:
    """Coefficient of the n -> n-1 transition in the full lowering chain:
    sqrt(n) above the seam, 1 across it, sqrt(|n|) below."""
    if n >= 1:
        return math.sqrt(n)
    if n == 0:
        return 1.0
    return math.sqrt(-n)


def _chain(window: Window, keep=lambda n: True) -> list[float]:
    """lowering_coefficient(n) of the steps n -> n-1, n = lo+1..hi in
    storage order; zero where keep(n) is false."""
    return [
        lowering_coefficient(n) if keep(n) else 0.0
        for n in range(window.lo + 1, window.hi + 1)
    ]


def build_a_m(window: Window) -> OperatorMatrix:
    """Full lowering chain over both branches; see the module docstring
    for the boundary closure."""
    wrap = None
    if window.boundary is Boundary.CYCLIC:
        wrap = lowering_coefficient(window.lo) * cmath.exp(1j * window.wrap_phase)
    return OperatorMatrix(window, _weighted_shift(_chain(window), wrap=wrap), "a_m")


def build_number(window: Window, kind: NumberKind | str = NumberKind.LABEL) -> OperatorMatrix:
    kind = NumberKind(kind)
    if kind is NumberKind.LABEL:
        diag = [float(n) for n in window.indices()]
    elif kind is NumberKind.PHOTON:
        diag = [float(photon_count(n)) for n in window.indices()]
    else:
        diag = [float(n) if n >= 0 else float(abs(n + 1) - 1) for n in window.indices()]
    return OperatorMatrix(window, np.diag(np.array(diag, dtype=complex)), f"number_{kind.value}")


def build_susskind_glogower(window: Window) -> OperatorMatrix:
    """Unit-coefficient lowering chain E (exponential-of-phase operator)."""
    wrap = None
    if window.boundary is Boundary.CYCLIC:
        wrap = cmath.exp(1j * window.wrap_phase)
    m = _weighted_shift([1.0] * (window.dimension - 1), wrap=wrap)
    return OperatorMatrix(window, m, "susskind_glogower")


def build_cosine_sine(window: Window) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Hermitian quadratures C = (E + E^dag)/2 and S = (E - E^dag)/(2i)."""
    c, s = _quadratures(build_susskind_glogower(window).entries)
    return (
        OperatorMatrix(window, c, "cosine"),
        OperatorMatrix(window, s, "sine"),
    )


def build_polarization_swap(window: Window) -> OperatorMatrix:
    """Half-wave-plate permutation n -> -(n+1): swaps the branches while
    preserving photon count. Needs a symmetric window."""
    if not window.is_symmetric:
        raise ValueError(
            f"polarization swap needs a symmetric window (lo = -(hi+1)); "
            f"got [{window.lo}, {window.hi}]"
        )
    m = np.zeros((window.dimension, window.dimension), dtype=complex)
    for n in range(window.lo, window.hi + 1):
        m[window.position(-(n + 1)), window.position(n)] = 1.0
    return OperatorMatrix(window, m, "polarization_swap")


OPERATOR_BUILDERS = {
    "identity": build_identity,
    "helicity": build_helicity,
    "a_plus": build_a_plus,
    "a_plus_dagger": build_a_plus_dagger,
    "a_minus": build_a_minus,
    "a_minus_dagger": build_a_minus_dagger,
    "a_v": build_a_v,
    "a_m": build_a_m,
    "number_label": lambda w: build_number(w, NumberKind.LABEL),
    "number_photon": lambda w: build_number(w, NumberKind.PHOTON),
    "number_literal": lambda w: build_number(w, NumberKind.LITERAL),
    "susskind_glogower": build_susskind_glogower,
    "cosine": lambda w: build_cosine_sine(w)[0],
    "sine": lambda w: build_cosine_sine(w)[1],
    "polarization_swap": build_polarization_swap,
}


def operator_to_json_dict(op: OperatorMatrix) -> dict:
    """Dump format: nonzero entries as [row_label, col_label, re, im],
    sorted by (row, col), with rows/cols as basis labels, not positions."""
    lo = op.window.lo
    rows, cols = np.nonzero(op.entries)
    entries = [
        [int(i + lo), int(j + lo), round_sig(op.entries[i, j].real), round_sig(op.entries[i, j].imag)]
        for i, j in zip(rows, cols)
    ]
    return {
        "window": window_to_json_dict(op.window),
        "label": op.label,
        "entries": entries,
    }
