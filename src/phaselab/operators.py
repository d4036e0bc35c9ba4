"""Builders for the doubled-space operators, and their arithmetic as
short sums of weighted rotations and reflections of the labels.

Ladder conventions on the two branches (all against ascending label
order n = lo..hi):

  a_plus        lowers the label and the photon count on the upper branch:
                <n-1|a+|n> = sqrt(n) for n >= 1; zero elsewhere.
  a_minus       lowers the label but raises the photon count on the lower
                branch: <n-1|a-|n> = sqrt(|n|) for n <= -1. Its adjoint is
                the photon-removing operator there and annihilates |-1>.
  a_v           couples the branches across the vacuum seam: |-1><0|.
  a_m           the full lowering chain a_plus + a_v + a_minus, built as
                E diag(c); in cyclic mode its wrap element
                <hi|a_m|lo> = sqrt(|lo|) e^{i theta} is E's corner times c(lo).
  susskind_glogower  the unit-coefficient lowering chain E (the
                exponential-of-phase operator); cyclic wrap e^{i theta}.

E is the one shift: every lowering ladder is E diag(m) and every raising
one diag(m) E^dag, with m the ladder's lowering coefficients.

a_plus, a_minus, their adjoints, a_v, helicity, the number diagonals and
the polarization swap are in-window matrix elements of the untruncated
operators and ignore the boundary mode; only a_m and E close the edge.

Every operator is held as a few terms (reflect, offset, w), each a
rotation or a reflection of the positions with weights w. Products,
adjoints and sums cost O(D) per term; only to_dense, the tests' dense
reference, forms a D x D array.

Builders and arithmetic are pure and OperatorMatrix is immutable, so
parallel construction is safe and bit-identical to serial construction.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fockspace import Boundary, SingleModeWindow, StateVector, Window, _frozen
from .formats import window_to_json_dict


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
    """A complex matrix over a window as a sum of weighted rotations and
    reflections of the positions: the window and the terms, nothing else.

    Each term (reflect, offset, w) holds the entries w[i] at (i, j): row i
    reads column j = (offset + i) mod D, or (offset - i) mod D when reflect
    is set. A shift or a diagonal is a rotation, the polarization swap
    n -> -n - 1 a reflection; for D <= 2 the two coincide, and a reflection
    is held as a rotation. Terms may share positions; coalesced adds their
    weights. The window is a doubled-space Window or, for the
    single-polarization baselines, a SingleModeWindow; operands of a
    binary operation must share it.
    """

    window: Window | SingleModeWindow
    terms: tuple

    def __post_init__(self):
        d = self.window.dimension
        object.__setattr__(self, "terms", tuple(
            (bool(reflect) and d > 2, operator.index(offset) % d,
             _frozen(w, "weights", complex, (d,)))
            for reflect, offset, w in self.terms))

    def coalesced(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the entries the terms reach, one per
        position, in no set order, zeros kept. The weights of terms with one
        (reflect, offset) add in term order by np.add.reduceat, as a sort by
        position adds them. Where a reflection and a rotation reach the same
        column, on at most two rows, the reflection's sum joins the rotation's."""
        d = self.window.dimension
        groups = {}
        for reflect, offset, w in self.terms:
            groups.setdefault((reflect, offset), []).append(w)
        sums = {key: np.add.reduceat(np.stack(ws, 1).ravel(), np.arange(0, d * len(ws), len(ws)))
                for key, ws in groups.items()}
        rows = np.arange(d)
        parts = [(rows[:0], rows[:0], np.zeros(0, complex))]
        for (reflect, offset), total in sums.items():
            cols, kept = _gather(rows, reflect, offset), slice(None)
            if reflect:
                # row i meets the rotation by (cols[i] - i) mod D, if there is one
                shifts = (cols - rows) % d
                kept = ~np.isin(shifts, [j for flip, j in sums if not flip])
                for i in np.flatnonzero(~kept):
                    sums[False, shifts[i]][i] += total[i]
            parts.append((rows[kept], cols[kept], total[kept]))
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def to_dense(self) -> np.ndarray:
        """The D x D matrix: the tests' only route to dense entries."""
        rows, cols, values = self.coalesced()
        m = np.zeros((self.window.dimension,) * 2, dtype=complex)
        m[rows, cols] = values
        return m

    def max_abs(self, where=None) -> float:
        """max |entry| over the coalesced entries; only over those where
        where(rows, cols) is true, when it is given."""
        rows, cols, values = self.coalesced()
        if where is not None:
            values = values[where(rows, cols)]
        return float(np.max(np.abs(values), initial=0.0))

    def adjoint(self) -> OperatorMatrix:
        """Each term's inverse, weights conjugated: a rotation by -offset, or the same reflection."""
        inverses = ((reflect, offset if reflect else -offset, w) for reflect, offset, w in self.terms)
        terms = [(reflect, k, _gather(w, reflect, k).conj()) for reflect, k, w in inverses]
        return OperatorMatrix(self.window, terms)

    def apply(self, state: StateVector) -> StateVector:
        """The matrix-vector product, O(D) per term."""
        _require_same_window(self.window, state.window, "apply")
        out = np.zeros(self.window.dimension, dtype=complex)
        for reflect, offset, w in self.terms:
            out += w * _gather(state.amplitudes, reflect, offset)
        return StateVector(self.window, out)

    def hermiticity_defect(self) -> float:
        return (self - self.adjoint()).max_abs()

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "product")
        return OperatorMatrix(self.window, _product_terms(self, other))

    def __add__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "sum")
        return OperatorMatrix(self.window, self.terms + other.terms)

    def __sub__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "difference")
        return OperatorMatrix(self.window, self.terms + _negated(other.terms))

    def __mul__(self, scalar) -> OperatorMatrix:
        terms = tuple((reflect, offset, w * complex(scalar)) for reflect, offset, w in self.terms)
        return OperatorMatrix(self.window, terms)

    __rmul__ = __mul__

    def __neg__(self) -> OperatorMatrix:
        return OperatorMatrix(self.window, _negated(self.terms))


def _gather(values: np.ndarray, reflect: bool, offset: int) -> np.ndarray:
    """values at the columns the rows of a term (reflect, offset) read:
    values[(offset + i) mod D], or values[(offset - i) mod D], at row i."""
    k = offset % len(values)
    return np.concatenate((values[k::-1], values[:k:-1]) if reflect else (values[k:], values[:k]))


def _product_terms(a: OperatorMatrix, b: OperatorMatrix) -> tuple:
    """Terms of AB: row i of a term of A reads row j of a term of B, which
    then reads column kb + j, or kb - j when B's term reflects."""
    return tuple((ra != rb, kb - ka if rb else kb + ka, _times(wa, _gather(wb, ra, ka)))
                 for ra, ka, wa in a.terms for rb, kb, wb in b.terms)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y with each real product rounded on its own, so a weight does
    not depend on where it sits: numpy's vectorized complex multiply fuses
    the products on some array positions and not on others."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _negated(terms: tuple) -> tuple:
    return tuple((reflect, offset, -w) for reflect, offset, w in terms)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    _require_same_window(a.window, b.window, "commutator")
    terms = _product_terms(a, b) + _negated(_product_terms(b, a))
    return OperatorMatrix(a.window, terms)


def _unit_shift(window, wrap: complex = 0.0) -> OperatorMatrix:
    """The unit lowering chain over the window: 1 at each (k, k+1), closed
    at the corner (D-1, 0) by wrap, which is 0 in open mode."""
    weights = np.append(np.ones(window.dimension - 1), wrap)
    return OperatorMatrix(window, ((False, 1, weights),))


def _ladder(window: Window, keep, raising: bool = False) -> OperatorMatrix:
    """E diag(m), or diag(m) E^dag when raising, with m(n) =
    lowering_coefficient(n) where keep(n) holds and 0 elsewhere. The
    raising ladder is not the adjoint of the lowering one: conjugation
    would turn each +0.0 imaginary part into -0.0."""
    n = window.indices()
    m = _diagonal(window, np.where(keep(n), lowering_coefficient(n), 0.0))
    e = build_susskind_glogower(window)
    return m @ e.adjoint() if raising else e @ m


def _diagonal(window, values) -> OperatorMatrix:
    return OperatorMatrix(window, ((False, 0, values),))


def _quadratures(e: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Hermitian parts C = (E + E^dag)/2 and S = (E - E^dag)/(2i) of a
    ladder E by operator arithmetic. Every product by 1/2 or -i/2 is exact."""
    e_dagger = e.adjoint()
    return (e + e_dagger) * 0.5, (e - e_dagger) * -0.5j


def build_identity(window: Window) -> OperatorMatrix:
    return _diagonal(window, np.ones(window.dimension))


def build_helicity(window: Window) -> OperatorMatrix:
    """Diagonal +1 on the upper branch (n >= 0), -1 on the lower."""
    return _diagonal(window, np.where(window.indices() >= 0, 1.0, -1.0))


def build_a_plus(window: Window) -> OperatorMatrix:
    return _ladder(window, lambda n: n >= 1)


def build_a_plus_dagger(window: Window) -> OperatorMatrix:
    return _ladder(window, lambda n: n >= 1, raising=True)


def build_a_minus(window: Window) -> OperatorMatrix:
    # lo is left out, so the corner stays 0 in cyclic mode
    return _ladder(window, lambda n: (n > window.lo) & (n <= -1))


def build_a_minus_dagger(window: Window) -> OperatorMatrix:
    # annihilates |-1>: the seam step (n = 0) is not part of the lower branch
    return _ladder(window, lambda n: (n > window.lo) & (n <= -1), raising=True)


def build_a_v(window: Window) -> OperatorMatrix:
    """Vacuum coupler |-1><0|: sends the upper vacuum to the lower one."""
    return _ladder(window, lambda n: n == 0)


def lowering_coefficient(n):
    """Coefficient of the n -> n-1 transition in the full lowering chain:
    sqrt(n) above the seam, 1 across it, sqrt(|n|) below; elementwise on
    an array of labels."""
    return np.sqrt(np.maximum(np.abs(n), 1))


def build_a_m(window: Window) -> OperatorMatrix:
    """Full lowering chain over both branches, E diag(c): its corner is
    E's, times c(lo)."""
    return _ladder(window, lambda n: True)


def build_number(window: Window, kind: NumberKind | str = NumberKind.LABEL) -> OperatorMatrix:
    kind = NumberKind(kind)
    n = window.indices()
    # the kinds differ below the seam only, where photon_count(n) = -(n + 1)
    lower = {NumberKind.LABEL: n, NumberKind.PHOTON: -(n + 1),
             NumberKind.LITERAL: np.abs(n + 1) - 1}
    return _diagonal(window, np.where(n >= 0, n, lower[kind]))


def build_susskind_glogower(window: Window) -> OperatorMatrix:
    """Unit-coefficient lowering chain E (exponential-of-phase operator)."""
    wrap = cmath.exp(1j * window.wrap_phase) if window.boundary is Boundary.CYCLIC else 0.0
    return _unit_shift(window, wrap)


def build_cosine_sine(window: Window) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Hermitian quadratures C = (E + E^dag)/2 and S = (E - E^dag)/(2i)."""
    return _quadratures(build_susskind_glogower(window))


def build_polarization_swap(window: Window) -> OperatorMatrix:
    """Half-wave-plate permutation n -> -(n+1): swaps the branches while
    preserving photon count. Needs a symmetric window."""
    if not window.is_symmetric:
        raise ValueError(
            f"polarization swap needs a symmetric window (lo = -(hi+1)); "
            f"got [{window.lo}, {window.hi}]"
        )
    # row -(n+1) reads column n: on a symmetric window, position i reads D-1-i
    return OperatorMatrix(window, ((True, window.dimension - 1, np.ones(window.dimension)),))


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


def operator_to_json_dict(op: OperatorMatrix, label: str) -> dict:
    """Dump format: the name given as label, and the nonzero entries as
    [row_label, col_label, re, im], sorted by (row, col), with rows/cols
    as basis labels, not positions."""
    rows, cols, values = op.coalesced()
    order = np.lexsort((cols, rows))
    order = order[values[order] != 0]
    rows, cols, values = rows[order], cols[order], values[order]
    entries = zip((rows + op.window.lo).tolist(), (cols + op.window.lo).tolist(),
                  values.real.tolist(), values.imag.tolist())
    return {
        "window": window_to_json_dict(op.window),
        "label": label,
        "entries": [list(entry) for entry in entries],
    }
