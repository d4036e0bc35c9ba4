"""Named, runnable checks of every operator identity the construction
claims, with measured deviations and a machine-readable report.

Scoping rule used throughout: identities of the untruncated operators
are asserted on interior entries only in open mode, and globally (minus
the wrap element where noted) in cyclic mode, so truncation artifacts
can neither fake a failure nor hide one. Each report's notes state the
identity and its scope in plain terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import build_cosine_sine_single, build_sg_single, restrict_to_upper
from .fockspace import Boundary, SingleModeWindow, Window
from .formats import round_sig, window_to_json_dict
from .operators import (
    NumberKind,
    build_a_m,
    build_a_v,
    build_cosine_sine,
    build_helicity,
    build_number,
    build_polarization_swap,
    build_susskind_glogower,
    commutator,
)
from .phase import _phase_bras, phase_grid

# Bound constant for C11: residual * D was measured at <= 5.64 for the
# band-limited test amplitude (and pi/4 for the single-mode fallback)
# across D = 2..1024 in the pre-build reference run; 8.5/D keeps a ~1.5x
# margin over the worst observed value.
C11_RATE_CONSTANT = 8.5


@dataclass(frozen=True)
class ToleranceProfile:
    """exact: identities that are exact in exact arithmetic (single
    products); accumulated: chains of three or more products and
    eigen-decomposition residuals."""

    exact: float = 1e-12
    accumulated: float = 1e-10

    @classmethod
    def named(cls, name: str) -> ToleranceProfile:
        try:
            return _PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown tolerance profile {name!r}; available: "
                f"{sorted(_PROFILES)}"
            ) from None


_PROFILES = {"default": ToleranceProfile()}


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    window: Window
    max_deviation: float
    tolerance: float
    passed: bool
    notes: str


def report_to_json_dict(report: CheckReport) -> dict:
    return {
        "check_id": report.check_id,
        "window": window_to_json_dict(report.window),
        "max_deviation": round_sig(report.max_deviation),
        "tolerance": round_sig(report.tolerance),
        "passed": report.passed,
        "notes": report.notes,
    }


def _report(check_id, window, deviation, tolerance, notes) -> CheckReport:
    deviation = float(deviation)
    return CheckReport(check_id, window, deviation, float(tolerance),
                       deviation <= tolerance, notes)


def _maxabs(matrix) -> float:
    return float(np.max(np.abs(matrix)))


def _projector(window: Window, n: int) -> np.ndarray:
    d = window.dimension
    p = np.zeros((d, d), dtype=complex)
    p[window.position(n), window.position(n)] = 1.0
    return p


def _check_c01(window, tol):
    av = build_a_v(window)
    avd = av.adjoint()
    dev = max(
        _maxabs((av @ av).entries),
        _maxabs((avd @ avd).entries),
        _maxabs((avd @ av).entries - _projector(window, 0)),
        _maxabs((av @ avd).entries - _projector(window, -1)),
    )
    return _report(
        "C01", window, dev, tol.exact,
        "vacuum coupler algebra: both squares vanish and the adjoint "
        "products give the two vacuum projectors; exact 0/1 arithmetic, "
        "full matrix, either boundary mode",
    )


def _commutator_a_m(window):
    am = build_a_m(window)
    return commutator(am, am.adjoint()).entries


def _check_c02(window, tol):
    comm = _commutator_a_m(window)
    dev = 0.0
    for n in range(window.lo + 1, window.hi):
        expected = 1.0 if n >= 1 else (-1.0 if n <= -2 else 0.0)
        p = window.position(n)
        dev = max(dev, abs(comm[p, p] - expected))
    return _report(
        "C02", window, dev, tol.exact,
        "lowering-chain commutator diagonal: +1 on the interior upper "
        "branch, -1 on the interior lower branch, 0 on both vacuum "
        "labels; edge rows lo/hi excluded as truncation artifacts",
    )


def _check_c03(window, tol):
    comm = _commutator_a_m(window)
    off = comm - np.diag(np.diag(comm))
    return _report(
        "C03", window, _maxabs(off), tol.exact,
        "lowering-chain commutator has no off-diagonal entries; full "
        "matrix, both boundary modes",
    )


def _check_c04(window, tol):
    e = build_susskind_glogower(window).entries
    d = window.dimension
    # columns lo+1..hi: label n goes to n-1, the first superdiagonal
    dev = _maxabs(e[:, 1:] - np.eye(d, k=1)[:, 1:])
    if window.boundary is Boundary.CYCLIC:
        expected = np.zeros(d, dtype=complex)
        expected[window.position(window.hi)] = np.exp(1j * window.wrap_phase)
        dev = max(dev, _maxabs(e[:, window.position(window.lo)] - expected))
        scope = "all columns including the phased wrap"
    else:
        scope = "columns lo+1..hi (the edge column lo has no in-window image)"
    return _report(
        "C04", window, dev, tol.exact,
        f"phase ladder lowers every basis label by one across both "
        f"branches and the seam; {scope}",
    )


def _check_c05(window, tol):
    e = build_susskind_glogower(window)
    chain = np.array(e.entries)
    if window.boundary is Boundary.CYCLIC:
        chain[window.position(window.hi), window.position(window.lo)] = 0.0

    labels = window.indices()
    sign_for = {
        NumberKind.LABEL: np.ones(window.dimension),
        NumberKind.PHOTON: np.where(labels >= 1, 1.0, np.where(labels <= -1, -1.0, 0.0)),
        NumberKind.LITERAL: np.where(labels >= 0, 1.0, -1.0),
    }
    residuals = {}
    for kind, signs in sign_for.items():
        comm = commutator(e, build_number(window, kind)).entries
        if window.boundary is Boundary.CYCLIC:
            comm = np.array(comm)
            comm[window.position(window.hi), window.position(window.lo)] = 0.0
        residuals[kind] = _maxabs(comm - chain * signs[np.newaxis, :])
    dev = max(residuals.values())
    notes = (
        "number-kind adjudication of the ladder commutator, interior "
        "entries (wrap element excluded): label-count commutes up to "
        "exactly the ladder itself (residual {:.1e}); photon-count gives "
        "+ladder above the seam, 0 across it, -ladder below (residual "
        "{:.1e}); the literal block-ordering diagonal gives +ladder on "
        "and above the seam, -ladder below (residual {:.1e}); only the "
        "label kind satisfies the canonical-conjugate identity"
    ).format(
        residuals[NumberKind.LABEL],
        residuals[NumberKind.PHOTON],
        residuals[NumberKind.LITERAL],
    )
    return _report("C05", window, dev, tol.exact, notes)


def _check_c06(window, tol):
    e = build_susskind_glogower(window)
    ident = np.eye(window.dimension, dtype=complex)
    left = (e @ e.adjoint()).entries - ident
    right = (e.adjoint() @ e).entries - ident
    if window.boundary is Boundary.CYCLIC:
        dev = max(_maxabs(left), _maxabs(right))
        notes = (
            "phase ladder is exactly unitary in cyclic mode: both "
            "products with the adjoint give the identity"
        )
    else:
        dev = max(
            _maxabs(right + _projector(window, window.lo)),
            _maxabs(left + _projector(window, window.hi)),
        )
        notes = (
            "open-mode unitarity defect is localized: adjoint-times-"
            "ladder misses the identity by exactly -1 at (lo, lo), and "
            "ladder-times-adjoint by exactly -1 at (hi, hi)"
        )
    return _report("C06", window, dev, tol.exact, notes)


def _check_c07(window, tol):
    c, s = build_cosine_sine(window)
    comm = commutator(c, s).entries
    if window.boundary is Boundary.CYCLIC:
        dev = _maxabs(comm)
        scope = "full matrix (cyclic)"
    else:
        comm = np.array(comm)
        for n in (window.lo, window.hi):
            comm[window.position(n), window.position(n)] = 0.0
        dev = _maxabs(comm)
        scope = "interior (open mode pushes the residue onto the two edge diagonals)"

    nw = SingleModeWindow(window.hi)
    cs, ss = build_cosine_sine_single(nw)
    single = (cs @ ss - ss @ cs).entries
    single = np.array(single)
    if nw.n_max >= 1:
        dev = max(dev, abs(single[0, 0] - 0.5j))
    single[0, 0] = 0.0
    single[nw.n_max, nw.n_max] = 0.0
    dev = max(dev, _maxabs(single))
    return _report(
        "C07", window, dev, tol.exact,
        f"doubled-space quadratures commute, {scope}; the single-"
        f"polarization baseline commutator instead equals i/2 on the "
        f"vacuum diagonal entry, with only a truncation-edge artifact "
        f"elsewhere",
    )


def _check_c08(window, tol):
    d = window.dimension
    cyclic = window.boundary is Boundary.CYCLIC
    phi0 = window.wrap_phase / d if cyclic else 0.0
    grid = phase_grid(window, phi0)
    bras = _phase_bras(window.indices() + 0.5, grid.points)
    kets = bras.conj().T
    ident = np.eye(d, dtype=complex)
    dev = max(_maxabs(bras @ kets - ident), _maxabs(kets @ bras - ident))
    e = build_susskind_glogower(window).entries
    residual = e @ kets - kets * np.exp(1j * grid.points)[np.newaxis, :]
    if cyclic:
        scope = "with the full eigenvalue equation on the wrap-aligned grid"
    else:
        residual = np.array(residual)
        residual[window.position(window.hi), :] = 0.0
        scope = (
            "with the eigenvalue equation on every component but the top "
            "edge row (open mode drops the inflow that would fill it)"
        )
    dev = max(dev, _maxabs(residual))
    return _report(
        "C08", window, dev, tol.exact,
        f"the uniform phase grid states are orthonormal and complete, {scope}",
    )


def _check_c09(window, tol):
    points = phase_grid(window, 0.0).points
    # the two vacuum columns (labels 0 and -1) of the phase bras
    vacua = np.exp(-1j * np.outer(points, (0.5, -0.5))) / math.sqrt(window.dimension)
    upper, lower = vacua[:, 0], vacua[:, 1]
    dev = 0.0
    for phi, b0, b1 in zip(points, upper, lower):
        ratio = complex(b0).conjugate() / complex(b1).conjugate()
        dev = max(dev, abs(ratio - np.exp(1j * phi)))
    return _report(
        "C09", window, dev, tol.exact,
        "the two vacuum components of every phase state differ by "
        "exactly the phase e^{i phi}",
    )


def _check_c10(window, tol):
    upper = restrict_to_upper(build_susskind_glogower(window))
    single = build_sg_single(SingleModeWindow(window.hi))
    dev = _maxabs(upper.entries - single.entries)
    return _report(
        "C10", window, dev, tol.exact,
        "restricting the doubled ladder to the upper branch reproduces "
        "the single-polarization exponential phase operator entry for "
        "entry (the seam element falls outside the block, recreating "
        "the annihilated vacuum column)",
    )


def _check_c11(window, tol):
    d = window.dimension
    grid = phase_grid(window, 0.0)
    bras = _phase_bras(window.indices() + 0.5, grid.points)
    n_label = build_number(window, NumberKind.LABEL).entries
    n_phase_basis = bras @ n_label @ bras.conj().T

    angles = grid.points
    rich = window.lo <= -3 and window.hi >= 1
    if rich:
        envelope = 1.0 + np.cos(angles) / 2.0 + np.sin(2.0 * angles) / 4.0
    else:
        envelope = np.ones(d)
    h = np.exp(1j * angles / 2.0) * envelope

    step = 2.0 * math.pi / d
    shifted = np.empty(d, dtype=complex)
    shifted[:-1] = h[1:]
    shifted[-1] = -h[0]  # phase amplitudes are anti-periodic over 2 pi
    fd = (shifted - h) / step

    dev = _maxabs(n_phase_basis @ h + h / 2.0 - 1j * fd)
    tolerance = C11_RATE_CONSTANT / d
    return _report(
        "C11", window, dev, tolerance,
        "canonical conjugation: in the phase-grid basis the label-count "
        "operator acts on smooth band-limited amplitudes as i times the "
        "one-sided discrete derivative, up to the intrinsic half-quantum "
        "diagonal shift of -1/2; the residual is the forward-difference "
        "truncation error and shrinks as 1/D",
    )


def _check_c12(window, tol):
    if not window.is_symmetric:
        return _report(
            "C12", window, 0.0, tol.exact,
            "not applicable: the branch swap needs a symmetric window "
            "(lo = -(hi+1)); nothing checked",
        )
    w = build_polarization_swap(window)
    p = build_helicity(window)
    ident = np.eye(window.dimension, dtype=complex)
    dev = max(
        _maxabs((w @ p @ w.adjoint()).entries + p.entries),
        _maxabs((w @ w).entries - ident),
    )
    return _report(
        "C12", window, dev, tol.exact,
        "the branch swap is an involution and conjugates the helicity "
        "to its negative, as a half-wave plate must",
    )


_REGISTRY = (
    _check_c01,
    _check_c02,
    _check_c03,
    _check_c04,
    _check_c05,
    _check_c06,
    _check_c07,
    _check_c08,
    _check_c09,
    _check_c10,
    _check_c11,
    _check_c12,
)

CHECK_IDS = tuple(f"C{i:02d}" for i in range(1, len(_REGISTRY) + 1))


def run_checks(window: Window, profile: ToleranceProfile | None = None) -> list[CheckReport]:
    """Run the full registry in order; failures are data, not errors."""
    profile = profile or ToleranceProfile()
    return [check(window, profile) for check in _REGISTRY]
