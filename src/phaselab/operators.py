"""Builders for the doubled-space operators, and their arithmetic as
short sums of weighted permutations.

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

Every builder output has at most two nonzeros per column, and so has
every product, adjoint and sum the checks form: each is held as a few
terms (p, w), a permutation p with weights w. Products, adjoints and sums
cost O(D) per term; only to_dense, the tests' dense reference, forms a
D x D array.

Builders and arithmetic are pure and OperatorMatrix is immutable, so
parallel construction is safe and bit-identical to serial construction.
"""

from __future__ import annotations

import cmath
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
    """A complex matrix over a window as a sum of weighted permutations,
    tagged with its builder label.

    Each term (p, w) holds the entries w[i] at (i, p[i]): row i reads
    column p[i]. Terms may share positions; their weights then add, in
    term order. The window is a doubled-space Window or, for the
    single-polarization baselines, a SingleModeWindow; operands of a
    binary operation must share it.
    """

    window: Window | SingleModeWindow
    terms: tuple
    label: str

    def __post_init__(self):
        d = self.window.dimension
        terms = []
        for p, w in self.terms:
            if np.asarray(p).dtype.kind not in "iu":
                raise ValueError("a term's permutation must hold integers")
            p = _frozen(p, "permutation", np.intp, (d,))
            seen = np.zeros(d, dtype=bool)
            seen[p[(p >= 0) & (p < d)]] = True
            if not seen.all():
                raise ValueError(f"a term's columns are not a permutation of 0..{d - 1}")
            terms.append((p, _frozen(w, "weights", complex, (d,))))
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def _from_terms(cls, window, terms, label: str) -> OperatorMatrix:
        """The operator of terms that are permutations with complex weights
        by construction, as the arithmetic below forms them: their arrays
        are frozen in place, not copied or checked again."""
        for p, w in terms:
            p.setflags(write=False)
            w.setflags(write=False)
        op = object.__new__(cls)
        op.__dict__.update(window=window, terms=tuple(terms), label=label)
        return op

    def coalesced(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the entries the terms reach, sorted by
        (row, col), with the weights at one position added in term order.
        Zero values are kept."""
        d, count = self.window.dimension, len(self.terms)
        if not count:
            return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex)
        keys = (np.arange(d)[:, np.newaxis] * d + np.stack([p for p, _ in self.terms], 1)).ravel()
        values = np.stack([w for _, w in self.terms], 1).ravel()
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys = keys[starts]
        return keys // d, keys % d, np.add.reduceat(values, starts)

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
        terms = []
        for p, w in self.terms:
            inverse = np.empty_like(p)
            inverse[p] = np.arange(len(p))
            terms.append((inverse, w[inverse].conj()))
        return OperatorMatrix._from_terms(self.window, terms, f"adjoint({self.label})")

    def apply(self, state: StateVector) -> StateVector:
        """The matrix-vector product, O(D) per term."""
        _require_same_window(self.window, state.window, "apply")
        out = np.zeros(self.window.dimension, dtype=complex)
        for p, w in self.terms:
            out += w * state.amplitudes[p]
        return StateVector(self.window, out)

    def hermiticity_defect(self) -> float:
        return (self - self.adjoint()).max_abs()

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "product")
        return OperatorMatrix._from_terms(self.window, _product_terms(self, other),
                                          f"({self.label} {other.label})")

    def __add__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "sum")
        return OperatorMatrix._from_terms(self.window, self.terms + other.terms,
                                          f"({self.label} + {other.label})")

    def __sub__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_window(self.window, other.window, "difference")
        return OperatorMatrix._from_terms(self.window, self.terms + _negated(other.terms),
                                          f"({self.label} - {other.label})")

    def __mul__(self, scalar) -> OperatorMatrix:
        terms = tuple((p, w * complex(scalar)) for p, w in self.terms)
        return OperatorMatrix._from_terms(self.window, terms, f"({scalar} {self.label})")

    __rmul__ = __mul__

    def __neg__(self) -> OperatorMatrix:
        return OperatorMatrix._from_terms(self.window, _negated(self.terms), f"(-{self.label})")


def _product_terms(a: OperatorMatrix, b: OperatorMatrix) -> tuple:
    """Terms of AB: row i of a term of A reads row pa[i] of a term of B."""
    return tuple((pb[pa], _times(wa, wb[pa])) for pa, wa in a.terms for pb, wb in b.terms)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y with each real product rounded on its own, so a weight does
    not depend on where it sits: numpy's vectorized complex multiply fuses
    the products on some array positions and not on others."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _negated(terms: tuple) -> tuple:
    return tuple((p, -w) for p, w in terms)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    _require_same_window(a.window, b.window, "commutator")
    terms = _product_terms(a, b) + _negated(_product_terms(b, a))
    return OperatorMatrix._from_terms(a.window, terms, f"[{a.label},{b.label}]")


def _weighted_shift(window, label: str, coefficients, lowering: bool = True,
                    wrap: complex = 0.0) -> OperatorMatrix:
    """The one builder of shift chains: a one-term operator over D =
    len(coefficients) + 1 positions, with coefficients[k] joining storage
    positions k and k+1, at (k, k+1) when lowering and at (k+1, k) when
    raising. The wrap weight closes the chain at the corner (D-1, 0) when
    lowering, or (0, D-1) when raising; it is 0 in open mode."""
    chain = np.asarray(coefficients, dtype=complex)
    positions = np.arange(len(chain) + 1)
    if lowering:
        term = np.roll(positions, -1), np.append(chain, wrap)
    else:
        term = np.roll(positions, 1), np.insert(chain, 0, wrap)
    return OperatorMatrix(window, (term,), label)


def _diagonal(window, values, label: str = "diagonal") -> OperatorMatrix:
    return OperatorMatrix(window, ((np.arange(window.dimension), values),), label)


def _quadratures(
    e: OperatorMatrix, labels: tuple[str, str]
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Hermitian parts C = (E + E^dag)/2 and S = (E - E^dag)/(2i) of a
    ladder E by operator arithmetic, under the builder labels. Every
    product by 1/2 or -i/2 is exact."""
    e_dagger = e.adjoint()
    c, s = (e + e_dagger) * 0.5, (e - e_dagger) * -0.5j
    return (OperatorMatrix._from_terms(e.window, c.terms, labels[0]),
            OperatorMatrix._from_terms(e.window, s.terms, labels[1]))


def build_identity(window: Window) -> OperatorMatrix:
    return _diagonal(window, np.ones(window.dimension), "identity")


def build_helicity(window: Window) -> OperatorMatrix:
    """Diagonal +1 on the upper branch (n >= 0), -1 on the lower."""
    return _diagonal(window, np.where(window.indices() >= 0, 1.0, -1.0), "helicity")


def build_a_plus(window: Window) -> OperatorMatrix:
    return _weighted_shift(window, "a_plus", _chain(window, lambda n: n >= 1))


def build_a_plus_dagger(window: Window) -> OperatorMatrix:
    chain = _chain(window, lambda n: n >= 1)
    return _weighted_shift(window, "a_plus_dagger", chain, lowering=False)


def build_a_minus(window: Window) -> OperatorMatrix:
    return _weighted_shift(window, "a_minus", _chain(window, lambda n: n <= -1))


def build_a_minus_dagger(window: Window) -> OperatorMatrix:
    # annihilates |-1>: the seam step (n = 0) is not part of the lower branch
    chain = _chain(window, lambda n: n <= -1)
    return _weighted_shift(window, "a_minus_dagger", chain, lowering=False)


def build_a_v(window: Window) -> OperatorMatrix:
    """Vacuum coupler |-1><0|: sends the upper vacuum to the lower one."""
    return _weighted_shift(window, "a_v", _chain(window, lambda n: n == 0))


def lowering_coefficient(n):
    """Coefficient of the n -> n-1 transition in the full lowering chain:
    sqrt(n) above the seam, 1 across it, sqrt(|n|) below; elementwise on
    an array of labels."""
    return np.sqrt(np.maximum(np.abs(n), 1))


def _chain(window: Window, keep=lambda n: True) -> np.ndarray:
    """lowering_coefficient(n) of the steps n -> n-1, n = lo+1..hi in
    storage order; zero where keep(n) is false."""
    n = window.indices()[1:]
    return np.where(keep(n), lowering_coefficient(n), 0.0)


def build_a_m(window: Window) -> OperatorMatrix:
    """Full lowering chain over both branches; see the module docstring
    for the boundary closure."""
    wrap = 0.0
    if window.boundary is Boundary.CYCLIC:
        wrap = lowering_coefficient(window.lo) * cmath.exp(1j * window.wrap_phase)
    return _weighted_shift(window, "a_m", _chain(window), wrap=wrap)


def build_number(window: Window, kind: NumberKind | str = NumberKind.LABEL) -> OperatorMatrix:
    kind = NumberKind(kind)
    n = window.indices()
    # the kinds differ below the seam only, where photon_count(n) = -(n + 1)
    lower = {NumberKind.LABEL: n, NumberKind.PHOTON: -(n + 1),
             NumberKind.LITERAL: np.abs(n + 1) - 1}
    return _diagonal(window, np.where(n >= 0, n, lower[kind]), f"number_{kind.value}")


def build_susskind_glogower(window: Window) -> OperatorMatrix:
    """Unit-coefficient lowering chain E (exponential-of-phase operator)."""
    wrap = 0.0
    if window.boundary is Boundary.CYCLIC:
        wrap = cmath.exp(1j * window.wrap_phase)
    return _weighted_shift(window, "susskind_glogower", [1.0] * (window.dimension - 1), wrap=wrap)


def build_cosine_sine(window: Window) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Hermitian quadratures C = (E + E^dag)/2 and S = (E - E^dag)/(2i)."""
    return _quadratures(build_susskind_glogower(window), ("cosine", "sine"))


def build_polarization_swap(window: Window) -> OperatorMatrix:
    """Half-wave-plate permutation n -> -(n+1): swaps the branches while
    preserving photon count. Needs a symmetric window."""
    if not window.is_symmetric:
        raise ValueError(
            f"polarization swap needs a symmetric window (lo = -(hi+1)); "
            f"got [{window.lo}, {window.hi}]"
        )
    # row -(n+1) reads column n: on a symmetric window, position i reads D-1-i
    return OperatorMatrix(window, ((np.arange(window.dimension)[::-1], np.ones(window.dimension)),),
                          "polarization_swap")


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
    rows, cols, values = op.coalesced()
    nonzero = values != 0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    entries = zip((rows + op.window.lo).tolist(), (cols + op.window.lo).tolist(),
                  values.real.tolist(), values.imag.tolist())
    return {
        "window": window_to_json_dict(op.window),
        "label": op.label,
        "entries": [list(entry) for entry in entries],
    }
