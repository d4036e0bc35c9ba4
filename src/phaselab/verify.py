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
from .fockspace import Boundary, SingleModeWindow, StateVector, Window, fock_state
from .formats import window_to_json_dict
from .operators import (
    NumberKind,
    _diagonal,
    _unit_shift,
    build_a_m,
    build_a_v,
    build_cosine_sine,
    build_helicity,
    build_identity,
    build_number,
    build_polarization_swap,
    build_susskind_glogower,
    commutator,
    lowering_coefficient,
)
from .phase import _from_phase_basis, _to_phase_basis, _unit_phasors, eigenphase_grid, phase_grid

# Bound constant for C11: residual * D was measured at <= 5.64 for the
# band-limited test amplitude (and pi/4 for the single-mode fallback)
# across D = 2..1024 in the pre-build reference run; 8.5/D keeps a ~1.5x
# margin over the worst observed value.
C11_RATE_CONSTANT = 8.5


@dataclass(frozen=True)
class ToleranceProfile:
    """exact: the tolerance of every identity that is exact in exact
    arithmetic; C11, a truncation error, carries its own 1/D rate."""

    exact: float = 1e-12

    @classmethod
    def named(cls, name: str) -> ToleranceProfile:
        if name != "default":
            raise ValueError(f"unknown tolerance profile {name!r}; available: ['default']")
        return cls()


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
        "max_deviation": report.max_deviation,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "notes": report.notes,
    }


def _report(check_id, window, deviation, tolerance, notes) -> CheckReport:
    deviation = float(deviation)
    return CheckReport(check_id, window, deviation, float(tolerance),
                       deviation <= tolerance, notes)


def _maxabs(array) -> float:
    return float(np.max(np.abs(array)))


def _check_c01(window, tol):
    av = build_a_v(window)
    avd = av.adjoint()
    labels = window.indices()
    dev = max(
        (av @ av).max_abs(),
        (avd @ avd).max_abs(),
        (avd @ av - _diagonal(window, labels == 0)).max_abs(),
        (av @ avd - _diagonal(window, labels == -1)).max_abs(),
    )
    return _report(
        "C01", window, dev, tol.exact,
        "vacuum coupler algebra: both squares vanish and the adjoint "
        "products give the two vacuum projectors; exact 0/1 arithmetic, "
        "full matrix, either boundary mode",
    )


def _phase_ladder(window):
    """E in closed form: each label n goes to n-1, and lo to hi with the wrap phase if cyclic."""
    cyclic = window.boundary is Boundary.CYCLIC
    return _unit_shift(window, np.exp(1j * window.wrap_phase) if cyclic else 0.0)


def _check_c02(window, tol):
    labels = window.indices()
    expected = np.where(labels >= 1, 1.0, np.where(labels <= -2, -1.0, 0.0))
    last = window.dimension - 1
    am = build_a_m(window)
    residual = commutator(am, am.adjoint()) - _diagonal(window, expected)
    # the paper's a_m = E diag(c), the one term that reads the wrap <hi|a_m|lo>
    chain = am - _phase_ladder(window) @ _diagonal(window, lowering_coefficient(labels))
    dev = max(residual.max_abs(lambda rows, cols: (rows == cols) & (rows > 0) & (rows < last)),
              chain.max_abs())
    return _report(
        "C02", window, dev, tol.exact,
        "lowering-chain commutator diagonal: +1 on the interior upper "
        "branch, -1 on the interior lower branch, 0 on both vacuum "
        "labels; edge rows lo/hi excluded as truncation artifacts; and "
        "the chain is the phase ladder times its coefficients, E diag(c), "
        "on the full matrix with the wrap, either boundary mode",
    )


def _check_c03(window, tol):
    am = build_a_m(window)
    dev = commutator(am, am.adjoint()).max_abs(lambda rows, cols: rows != cols)
    return _report(
        "C03", window, dev, tol.exact,
        "lowering-chain commutator has no off-diagonal entries; full "
        "matrix, both boundary modes",
    )


def _check_c04(window, tol):
    residual = build_susskind_glogower(window) - _phase_ladder(window)
    if window.boundary is Boundary.CYCLIC:
        dev = residual.max_abs()
        scope = "all columns including the phased wrap"
    else:
        dev = residual.max_abs(lambda rows, cols: cols > 0)
        scope = "columns lo+1..hi (the edge column lo has no in-window image)"
    return _report(
        "C04", window, dev, tol.exact,
        f"phase ladder lowers every basis label by one across both "
        f"branches and the seam; {scope}",
    )


def _check_c05(window, tol):
    e = build_susskind_glogower(window)
    labels = window.indices()
    sign_for = {
        NumberKind.LABEL: np.ones(window.dimension),
        NumberKind.PHOTON: np.where(labels >= 1, 1.0, np.where(labels <= -1, -1.0, 0.0)),
        NumberKind.LITERAL: np.where(labels >= 0, 1.0, -1.0),
    }
    last = window.dimension - 1

    def off_the_wrap(rows, cols):  # all but the wrap element <hi|E|lo>
        return (rows != last) | (cols != 0)

    keep = off_the_wrap if window.boundary is Boundary.CYCLIC else None
    residuals = {}
    for kind, signs in sign_for.items():
        residual = commutator(e, build_number(window, kind)) - e @ _diagonal(window, signs)
        residuals[kind] = residual.max_abs(keep)
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
    ident = build_identity(window)
    left = e @ e.adjoint() - ident
    right = e.adjoint() @ e - ident
    if window.boundary is Boundary.CYCLIC:
        dev = max(left.max_abs(), right.max_abs())
        notes = (
            "phase ladder is exactly unitary in cyclic mode: both "
            "products with the adjoint give the identity"
        )
    else:
        labels = window.indices()
        dev = max(
            (right + _diagonal(window, labels == window.lo)).max_abs(),
            (left + _diagonal(window, labels == window.hi)).max_abs(),
        )
        notes = (
            "open-mode unitarity defect is localized: adjoint-times-"
            "ladder misses the identity by exactly -1 at (lo, lo), and "
            "ladder-times-adjoint by exactly -1 at (hi, hi)"
        )
    return _report("C06", window, dev, tol.exact, notes)


def _check_c07(window, tol):
    comm = commutator(*build_cosine_sine(window))
    last = window.dimension - 1
    if window.boundary is Boundary.CYCLIC:
        dev = comm.max_abs()
        scope = "full matrix (cyclic)"
    else:
        dev = comm.max_abs(lambda rows, cols: (rows != cols) | ((rows > 0) & (rows < last)))
        scope = "interior (open mode pushes the residue onto the two edge diagonals)"

    nw = SingleModeWindow(window.hi)
    cs, ss = build_cosine_sine_single(nw)
    # i/2 on the vacuum diagonal entry (when n_max >= 1), 0 elsewhere but
    # at the truncation edge (n_max, n_max)
    vacuum = _diagonal(nw, 0.5j * (np.arange(nw.dimension) == 0))
    single = commutator(cs, ss) - vacuum
    dev = max(dev, single.max_abs(lambda rows, cols: (rows != cols) | (rows != nw.n_max)))
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
    grid = eigenphase_grid(window) if cyclic else phase_grid(window)
    # B K = I, K B = I and <x, K x> = <B x, x> on a fixed unit-norm chirp
    # that is flat in both bases: these test that the transform pair is
    # mutually inverse and adjoint. K also sends e_0 and e_{D-1} to the
    # closed-form states e^{i l phi_k} / sqrt(D), l = n + 1/2 (2 l k reduced
    # modulo 2D exactly), which ties the pair to the phase states
    k = np.arange(d)
    probes = np.zeros((3, d), dtype=complex)
    probes[0] = x = np.exp(1j * math.pi * ((k * (k - 1 + d % 2)) % (2 * d)) / d) / math.sqrt(d)
    probes[1, 0] = probes[2, -1] = 1.0
    kets = _from_phase_basis(probes, grid)
    bx, bkx = _to_phase_basis(np.stack([x, kets[0]]), grid)
    twice = 2 * window.indices() + 1
    angles = twice * grid.phi0 / 2.0 + math.pi * (np.outer([0, d - 1], twice) % (2 * d)) / d
    dev = max(_maxabs(bkx - x), _maxabs(_from_phase_basis(bx, grid) - x),
              abs(np.vdot(x, kets[0]) - np.vdot(bx, x)),
              _maxabs(kets[1:] - np.exp(1j * angles) / math.sqrt(d)))
    # the whole eigenvalue equation E K - K Lambda, row by row: a weight c
    # at (i, p) of E gives (E K)[i, k] = K[i, k] c e^{i r phi0} w^{r k}
    # with r = p - i and w = e^{2 pi i/D}, so row i is K[i, k] (P_i(k) -
    # lambda_k), |K[i, k]| = 1/sqrt(D) and P_i a polynomial in w^k
    rows, cols, values = build_susskind_glogower(window).coalesced()
    twisted, exponents = values * np.exp(1j * (cols - rows) * grid.phi0), (cols - rows) % d
    checked = np.ones(d, dtype=bool)
    scope = "with the full eigenvalue equation on the wrap-aligned grid"
    if not cyclic:
        checked[window.position(window.hi)] = False
        scope = ("with the eigenvalue equation on every component but the top "
                 "edge row (open mode drops the inflow that would fill it)")
    # a row with one entry is c w^{r k}, evaluated once per distinct (r, c)
    # (a built E has one or two); a row with several entries, or none, is
    # one length-D FFT
    counts = np.bincount(rows, minlength=d)
    lone, crowded = checked[rows] & (counts[rows] == 1), checked[rows] & (counts[rows] != 1)
    distinct, which = np.unique(twisted[lone], return_inverse=True)
    # unique_inverse: the values-only np.unique imports numpy.ma on its first
    # call (the call above, with return_inverse=True, does not)
    groups = np.unique_inverse(which * d + exponents[lone]).values
    crowded_rows = np.flatnonzero(checked & (counts != 1))
    spectra = np.zeros((len(crowded_rows), d), dtype=complex)
    spectra[np.searchsorted(crowded_rows, rows[crowded]), exponents[crowded]] = twisted[crowded]
    powers = np.exp(2j * math.pi * k / d)[np.outer(groups % d, k) % d]
    polynomials = np.vstack([distinct[groups // d, np.newaxis] * powers,
                             np.fft.ifft(spectra, norm="forward")])
    dev = max(dev, _maxabs(polynomials - _unit_phasors(grid)) / math.sqrt(d))
    return _report(
        "C08", window, dev, tol.exact,
        f"the uniform phase grid states are orthonormal and complete, {scope}",
    )


def _check_c09(window, tol):
    grid = phase_grid(window, 0.0)
    # the components <0|phi_k> and <-1|phi_k> of every phase state
    upper, lower = (_to_phase_basis(fock_state(window, n).amplitudes, grid).conj() for n in (0, -1))
    dev = _maxabs(upper / lower - _unit_phasors(grid))
    return _report(
        "C09", window, dev, tol.exact,
        "the two vacuum components of every phase state differ by "
        "exactly the phase e^{i phi}",
    )


def _check_c10(window, tol):
    upper = restrict_to_upper(build_susskind_glogower(window))
    dev = (upper - build_sg_single(SingleModeWindow(window.hi))).max_abs()
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
    angles = grid.points
    h = np.exp(1j * angles / 2.0)
    if window.lo <= -3 and window.hi >= 1:  # room for a band-limited envelope
        h = h * (1.0 + np.cos(angles) / 2.0 + np.sin(2.0 * angles) / 4.0)
    # phase amplitudes are anti-periodic over 2 pi
    fd = (np.append(h[1:], -h[0]) - h) / (2.0 * math.pi / d)

    # the label count in the phase-grid basis: B N K h
    kh = StateVector(window, _from_phase_basis(h, grid))
    n_h = _to_phase_basis(build_number(window, NumberKind.LABEL).apply(kh).amplitudes, grid)
    dev = _maxabs(n_h + h / 2.0 - 1j * fd)
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
    dev = max(
        (w @ p @ w.adjoint() + p).max_abs(),
        (w @ w - build_identity(window)).max_abs(),
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
