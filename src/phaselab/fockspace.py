"""Doubled Fock space: basis labels, truncation windows, state vectors.

The basis is labeled by all integers n. Labels n >= 0 are the photon
number states of the upper (right-circular) polarization branch; labels
n <= -1 hold the lower (left-circular) branch, with photon count
-(n+1). The pair n = 0 / n = -1 are the two vacuum labels ("the seam"),
the only place where the branch-coupling operators act.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely between threads or tasks.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

NORM_TOL = 1e-12

DEFAULT_TAIL_THRESHOLD = 1e-8


class Boundary(str, Enum):
    """How the shift operators close at the truncation edge.

    OPEN keeps the in-window matrix elements of the untruncated operator
    (honest, but the shift loses unitarity at the edge). CYCLIC wraps the
    lowest label onto the highest with a phase factor, which restores
    exact unitarity at the price of one synthetic matrix element.
    """

    OPEN = "open"
    CYCLIC = "cyclic"


class Polarization(str, Enum):
    UPPER = "upper"
    LOWER = "lower"


class TailWeightError(ValueError):
    """Coherent-state weight lost to truncation exceeded the threshold."""

    def __init__(self, tail_weight: float, threshold: float):
        self.tail_weight = tail_weight
        self.threshold = threshold
        super().__init__(
            f"truncated tail weight {tail_weight:.3e} exceeds threshold "
            f"{threshold:.3e}; the window is too small for this amplitude"
        )


def polarization(n: int) -> Polarization:
    """Branch of basis label n: UPPER for n >= 0, LOWER for n <= -1."""
    return Polarization.UPPER if n >= 0 else Polarization.LOWER


def photon_count(n: int) -> int:
    """Photon number carried by basis label n.

    Labels n and -(n+1) hold the same photon count on opposite branches;
    both vacua (0 and -1) count zero.
    """
    return n if n >= 0 else -(n + 1)


@dataclass(frozen=True)
class Window:
    """Inclusive truncation range [lo, hi] of basis labels.

    Every window must straddle the vacuum seam (lo <= -1 and hi >= 0):
    the branch coupling lives entirely at the 0/-1 pair, and a window
    missing it would degenerate to a single-branch theory. Storage
    position of label n is n - lo (ascending label order). wrap_phase is
    only consulted in cyclic mode.
    """

    lo: int
    hi: int
    boundary: Boundary = Boundary.OPEN
    wrap_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        object.__setattr__(self, "wrap_phase", float(self.wrap_phase))
        if self.lo > -1:
            raise ValueError(f"window lo must be <= -1, got {self.lo}")
        if self.hi < 0:
            raise ValueError(f"window hi must be >= 0, got {self.hi}")

    @classmethod
    def symmetric(cls, n_max: int, boundary=Boundary.OPEN, wrap_phase: float = 0.0) -> Window:
        """Window with equal photon capacity on both branches: lo = -(n_max+1)."""
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        return cls(-(n_max + 1), n_max, boundary, wrap_phase)

    @property
    def dimension(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_symmetric(self) -> bool:
        return self.lo == -(self.hi + 1)

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def position(self, n: int) -> int:
        """Storage position of basis label n."""
        if not self.contains(n):
            raise ValueError(
                f"basis label {n} outside window [{self.lo}, {self.hi}]"
            )
        return n - self.lo

    def indices(self) -> np.ndarray:
        """All basis labels lo..hi in storage order."""
        return np.arange(self.lo, self.hi + 1)


@dataclass(frozen=True)
class SingleModeWindow:
    """Truncated single-polarization ladder: indices 0..n_max.

    The baselines' window type; Window cannot describe it, since every
    Window must straddle the vacuum seam.
    """

    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def dimension(self) -> int:
        return self.n_max + 1


def _freeze(obj, name: str, dtype, shape: tuple) -> None:
    """Replace the array attribute obj.<name> of a frozen dataclass by a
    read-only copy of the given dtype, after checking its shape and that
    every value is finite."""
    values = np.array(getattr(obj, name), dtype=dtype)
    if values.shape != shape:
        raise ValueError(f"{name} shape {values.shape} does not match {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    values.setflags(write=False)
    object.__setattr__(obj, name, values)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a window, in storage (ascending label) order.

    tail_weight records probability lost to truncation by the constructor
    that produced the state (0 for exact constructions).
    """

    window: Window
    amplitudes: np.ndarray
    tail_weight: float = 0.0

    def __post_init__(self):
        _freeze(self, "amplitudes", complex, (self.window.dimension,))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def amplitude(self, n: int) -> complex:
        """Amplitude on basis label n."""
        return complex(self.amplitudes[self.window.position(n)])

    def inner(self, other: StateVector) -> complex:
        """<self|other>, conjugating self."""
        if self.window != other.window:
            raise ValueError("inner product needs identical windows")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def fock_state(window: Window, n: int) -> StateVector:
    """Unit vector on basis label n."""
    amps = np.zeros(window.dimension, dtype=complex)
    amps[window.position(n)] = 1.0
    return StateVector(window, amps)


def coherent_state(
    window: Window,
    pol: Polarization | str,
    alpha: complex,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> StateVector:
    """Coherent amplitudes alpha^m / sqrt(m!) placed on one branch.

    Upper places photon count m at label m; lower places it at label
    -(m+1). The result is renormalized over the window and the weight
    lost to truncation is reported on the state; if that tail exceeds
    tail_threshold, or no weight at all is kept, the window is too small
    and TailWeightError is raised.
    """
    pol = Polarization(pol)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha.real:g}{alpha.imag:+g}i")
    m_cap = window.hi if pol is Polarization.UPPER else -window.lo - 1

    coeffs = np.empty(m_cap + 1, dtype=complex)
    try:
        coeffs[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    except OverflowError:  # |alpha|^2 past the float range: every weight underflows
        coeffs[0] = 0.0
    for m in range(1, m_cap + 1):
        coeffs[m] = coeffs[m - 1] * alpha / math.sqrt(m)

    amps = np.zeros(window.dimension, dtype=complex)
    for m in range(m_cap + 1):
        label = m if pol is Polarization.UPPER else -(m + 1)
        amps[window.position(label)] = coeffs[m]

    kept = float(np.sum(np.abs(amps) ** 2))
    tail = max(1.0 - kept, 0.0)
    if tail > tail_threshold or kept == 0.0:
        raise TailWeightError(tail, tail_threshold)
    if kept != 1.0:
        amps = amps / math.sqrt(kept)
    return StateVector(window, amps, tail_weight=tail)


def vacuum_symmetric(window: Window) -> StateVector:
    """Equal-weight superposition of the two vacuum labels, unit norm."""
    amps = np.zeros(window.dimension, dtype=complex)
    amps[window.position(0)] = 1.0 / math.sqrt(2.0)
    amps[window.position(-1)] = 1.0 / math.sqrt(2.0)
    return StateVector(window, amps)


_IMAG_SUFFIX = re.compile(r"([+\-]|^)j$")


def parse_complex(text: str) -> complex:
    """Parse the flag/JSON complex format "a+bi" / "a-bi" (decimal reals,
    scientific notation allowed, 'i' suffix on the imaginary part)."""
    t = text.strip().lower()
    if not t:
        raise ValueError("empty complex literal")
    if t.endswith("i"):
        t = t[:-1] + "j"
        t = _IMAG_SUFFIX.sub(r"\g<1>1j", t)
    try:
        return complex(t)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


def parse_state_spec(
    spec: str,
    window: Window,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> StateVector:
    """Build a state from the mini-language used by the command line.

    Forms (case-insensitive, no whitespace anywhere inside the spec):
      fock:<n>
      coherent:upper,alpha=<re>+<im>i
      coherent:lower,alpha=<re>+<im>i
      vacuum:sym
    """
    if re.search(r"\s", spec):
        raise ValueError(f"whitespace is not allowed in state spec {spec!r}")
    s = spec.lower()
    kind, sep, rest = s.partition(":")
    if not sep:
        raise ValueError(f"malformed state spec {spec!r}: missing ':'")
    if kind == "fock":
        try:
            n = int(rest)
        except ValueError:
            raise ValueError(f"bad fock label in state spec {spec!r}") from None
        return fock_state(window, n)
    if kind == "vacuum":
        if rest != "sym":
            raise ValueError(f"unknown vacuum spec {spec!r}; use vacuum:sym")
        return vacuum_symmetric(window)
    if kind == "coherent":
        branch, sep, assignment = rest.partition(",")
        if branch not in ("upper", "lower") or not sep:
            raise ValueError(
                f"bad coherent spec {spec!r}; use coherent:upper,alpha=..."
            )
        key, sep, value = assignment.partition("=")
        if key != "alpha" or not sep:
            raise ValueError(f"coherent spec {spec!r} needs alpha=<re>+<im>i")
        return coherent_state(window, branch, parse_complex(value), tail_threshold)
    raise ValueError(f"unknown state spec kind {kind!r} in {spec!r}")
