import cmath
import math

import numpy as np
import pytest

import oracles
from phaselab import phase, verify
from phaselab.cli import main
from phaselab.fockspace import Boundary, Window
from phaselab.operators import (
    NumberKind,
    OperatorMatrix,
    build_number,
    build_susskind_glogower,
    commutator,
)
from phaselab.verify import (
    CHECK_IDS,
    CheckReport,
    ToleranceProfile,
    report_to_json_dict,
    run_checks,
)

WINDOWS = [
    Window.symmetric(15, Boundary.CYCLIC),
    Window.symmetric(15, Boundary.OPEN),
    Window.symmetric(8, Boundary.CYCLIC, 0.7),
    Window(-3, 9, Boundary.OPEN),
    Window(-9, 2, Boundary.CYCLIC),
    Window.symmetric(0, Boundary.CYCLIC),
    Window.symmetric(0, Boundary.OPEN),
]


@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_every_check_passes(window):
    reports = run_checks(window)
    failed = [(r.check_id, r.max_deviation, r.tolerance) for r in reports if not r.passed]
    assert not failed


def test_registry_order_and_ids():
    reports = run_checks(Window.symmetric(5, Boundary.CYCLIC))
    assert tuple(r.check_id for r in reports) == CHECK_IDS
    assert CHECK_IDS[0] == "C01" and CHECK_IDS[-1] == "C12"


def test_reports_are_deterministic():
    w = Window.symmetric(9, Boundary.CYCLIC, 0.3)
    assert run_checks(w) == run_checks(w)


def test_pass_flag_is_consistent_with_the_numbers():
    for window in WINDOWS:
        for r in run_checks(window):
            assert r.passed == (r.max_deviation <= r.tolerance)
            assert r.max_deviation >= 0.0
            assert r.window == window


def test_every_report_documents_its_identity():
    for r in run_checks(Window.symmetric(5, Boundary.OPEN)):
        assert len(r.notes) > 20


def _perturbed(builder, row, col):
    """builder, with the entry at basis labels (row, col) moved by 1e-9."""
    def build(window):
        op = builder(window)
        entries = op.to_dense()
        entries[window.position(row), window.position(col)] += 1e-9
        return oracles.from_dense(window, entries)
    return build


def _plus_one_entry(builder, row, col):
    """builder, with one more term holding 1e-9 at basis labels (row, col):
    the rotation that takes the row to the column, weighted 1e-9 at the row
    and 0 elsewhere. Unlike _perturbed, this costs O(D)."""
    def build(window):
        op = builder(window)
        i, j = window.position(row), window.position(col)
        weights = np.zeros(window.dimension, complex)
        weights[i] = 1e-9
        return OperatorMatrix(window, [*op.terms, (False, j - i, weights)])
    return build


@pytest.mark.parametrize("n_max", [4, 4095])  # D = 10 and 8192
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CYCLIC])
@pytest.mark.parametrize("builder,row,col,owners", [
    ("build_susskind_glogower", -1, 0, {"C04", "C06", "C08"}),
    ("build_a_m", 1, 2, {"C02"}),
    ("build_a_v", -1, 0, {"C01"}),
    ("build_polarization_swap", -1, 0, {"C12"}),
    ("build_a_m", "hi", "lo", {"C02"}),  # the wrap corner, which only E diag(c) reads
])
def test_a_perturbed_operator_fails_exactly_its_owning_checks(
    monkeypatch, n_max, boundary, builder, row, col, owners
):
    # the suite fails closed: a 1e-9 error in one entry cannot pass unseen
    window = Window.symmetric(n_max, boundary)
    row, col = (getattr(window, at) if isinstance(at, str) else at for at in (row, col))
    monkeypatch.setattr(verify, builder, _plus_one_entry(getattr(verify, builder), row, col))
    reports = run_checks(window)
    assert {r.check_id for r in reports if not r.passed} == owners


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CYCLIC])
@pytest.mark.parametrize("d", [8, 512])
def test_the_checks_read_the_eigenvalues_spectrum_prints(monkeypatch, capsys, d, boundary):
    # e^{i phi_k} rotated by 1e-9 rad wherever the program reads it: the
    # checks that compare against it fail, and spectrum prints the change
    def spectrum():
        assert main(["spectrum", "--n-max", "3", "--format", "csv"]) == 0
        return capsys.readouterr().out

    exact = spectrum()
    unit_phasors = phase._unit_phasors

    def rotated(grid):
        return unit_phasors(grid) * cmath.exp(1e-9j)

    monkeypatch.setattr(phase, "_unit_phasors", rotated)
    monkeypatch.setattr(verify, "_unit_phasors", rotated)
    reports = run_checks(Window.symmetric(d // 2 - 1, boundary))
    assert {r.check_id for r in reports if not r.passed} == {"C08", "C09"}
    assert spectrum() != exact


# 15 windows from the two vacua to D = 256, symmetric and not
C08_CORPUS = [(-1, 0), (-2, 1), (-1, 5), (-3, 9), (-7, 3), (-9, 2), (-8, 7), (-16, 15),
              (-20, 50), (-100, 27), (-32, 31), (-1, 127), (-128, 0), (-64, 63), (-128, 127)]


@pytest.mark.parametrize("wrap", [0.0, 1.25, -2.5])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CYCLIC])
@pytest.mark.parametrize("lo, hi", C08_CORPUS)
def test_c08_verdicts_match_the_dense_products(monkeypatch, lo, hi, boundary, wrap):
    window = Window(lo, hi, boundary, wrap)
    cyclic = boundary is Boundary.CYCLIC
    phi0 = cmath.phase(cmath.exp(1j * wrap)) / window.dimension if cyclic else 0.0
    labels = window.indices() + 0.5
    tol = ToleranceProfile()
    # both routes pass the built E; both fail it moved by 1e-9 at (-1, 0) or
    # by dense 1e-9 noise, where the eigenvalue residual over every entry
    # dominates and both measure the same one
    build = verify.build_susskind_glogower
    noise = 1e-9 * np.random.default_rng(window.dimension).standard_normal((window.dimension,) * 2)

    def noisy(w):
        return oracles.from_dense(w, build(w).to_dense() + noise)

    for builder, passes in [(build, True), (_perturbed(build, -1, 0), False), (noisy, False)]:
        monkeypatch.setattr(verify, "build_susskind_glogower", builder)
        dense = oracles.dense_c08_deviation(builder(window).to_dense(), labels, phi0, cyclic)
        report = verify._check_c08(window, tol)
        assert report.passed == (dense <= tol.exact) == passes
        if not passes:
            assert report.max_deviation == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.CYCLIC])
@pytest.mark.parametrize("row", [-150, 100])
def test_c08_sees_one_interior_entry_of_e_moved(monkeypatch, boundary, row):
    # far from the seam and both edges, in a one-term E whose rows C08
    # groups by their weight: a grouping that reads only the first or the
    # last row of a group would pass it
    build = _perturbed(verify.build_susskind_glogower, row, row + 1)
    monkeypatch.setattr(verify, "build_susskind_glogower", build)
    window = Window.symmetric(255, boundary, 1.25)
    assert len(build(window).terms) == 1
    report = verify._check_c08(window, ToleranceProfile())
    assert not report.passed
    assert report.max_deviation == pytest.approx(1e-9 / math.sqrt(window.dimension), rel=1e-3)


def test_c08_ties_the_transform_pair_to_the_closed_form_states(monkeypatch):
    # the pair with the sign of phi0 flipped in both factors is still
    # mutually inverse and adjoint, so the chirp checks cannot see it; only
    # comparing K e_0 and K e_{D-1} with the closed-form states can
    def flipped(transform):
        return lambda x, grid: transform(x, phase.PhaseGrid(grid.window, -grid.phi0))

    to_phase, from_phase = flipped(phase._to_phase_basis), flipped(phase._from_phase_basis)
    window = Window.symmetric(255, Boundary.CYCLIC, 1.25)
    grid = phase.eigenphase_grid(window)
    x = np.random.default_rng(0).standard_normal(window.dimension) + 0j
    np.testing.assert_allclose(to_phase(from_phase(x, grid), grid), x, atol=1e-13)
    assert verify._check_c08(window, ToleranceProfile()).passed
    monkeypatch.setattr(verify, "_to_phase_basis", to_phase)
    monkeypatch.setattr(verify, "_from_phase_basis", from_phase)
    assert not verify._check_c08(window, ToleranceProfile()).passed


class TestNumberKindAdjudication:
    """The C05 sign-split table, recomputed directly at the test level."""

    W = Window.symmetric(8, Boundary.OPEN)

    def interior_residual(self, kind, signs):
        e = build_susskind_glogower(self.W)
        comm = commutator(e, build_number(self.W, kind)).to_dense()
        expected = e.to_dense() * signs[np.newaxis, :]
        return float(np.max(np.abs(comm - expected)))

    def test_label_kind_satisfies_the_ladder_identity(self):
        signs = np.ones(self.W.dimension)
        assert self.interior_residual(NumberKind.LABEL, signs) < 1e-12

    def test_photon_kind_splits_by_branch_and_dies_at_the_seam(self):
        labels = self.W.indices()
        signs = np.where(labels >= 1, 1.0, np.where(labels <= -1, -1.0, 0.0))
        assert self.interior_residual(NumberKind.PHOTON, signs) < 1e-12
        # and its deviation from the plain identity is exactly 2 on the
        # lower branch (the commutator gives -ladder there)
        plain = self.interior_residual(NumberKind.PHOTON, np.ones(self.W.dimension))
        assert plain == pytest.approx(2.0, abs=1e-12)

    def test_literal_kind_fails_the_identity_with_a_lower_branch_flip(self):
        labels = self.W.indices()
        signs = np.where(labels >= 0, 1.0, -1.0)
        assert self.interior_residual(NumberKind.LITERAL, signs) < 1e-12
        plain = self.interior_residual(NumberKind.LITERAL, np.ones(self.W.dimension))
        assert plain == pytest.approx(2.0, abs=1e-12)

    def test_c05_report_encodes_the_table(self):
        report = next(r for r in run_checks(self.W) if r.check_id == "C05")
        assert report.passed
        assert "label" in report.notes and "photon" in report.notes


def test_c11_residual_shrinks_like_one_over_d():
    devs = {}
    for n_max in (63, 127):
        w = Window.symmetric(n_max, Boundary.CYCLIC)
        report = next(r for r in run_checks(w) if r.check_id == "C11")
        assert report.passed
        devs[w.dimension] = report.max_deviation
    ratio = devs[128] / devs[256]
    assert 1.7 < ratio < 2.3
    # tripwire: residual * D sits where the pre-build reference run put it
    assert 5.0 < devs[128] * 128 < 6.5


def test_c12_reports_not_applicable_on_asymmetric_windows():
    reports = run_checks(Window(-3, 9, Boundary.OPEN))
    c12 = next(r for r in reports if r.check_id == "C12")
    assert c12.passed
    assert "not applicable" in c12.notes


class TestToleranceProfile:
    def test_default_values(self):
        profile = ToleranceProfile()
        assert profile.exact == 1e-12

    def test_named_lookup(self):
        assert ToleranceProfile.named("default") == ToleranceProfile()
        with pytest.raises(ValueError):
            ToleranceProfile.named("nonsense")

    def test_loose_profile_still_passes(self):
        loose = ToleranceProfile(exact=1e-6)
        assert all(r.passed for r in run_checks(Window.symmetric(4, Boundary.CYCLIC), loose))

    def test_impossible_profile_fails_closed(self):
        # a zero tolerance flags any check whose arithmetic is not exact
        none = ToleranceProfile(exact=0.0)
        reports = run_checks(Window.symmetric(4, Boundary.CYCLIC), none)
        c01 = next(r for r in reports if r.check_id == "C01")
        assert c01.passed  # 0/1 products are exact even at tolerance zero
        assert any(not r.passed for r in reports)  # but sqrt arithmetic is not


def test_report_json_dict():
    w = Window.symmetric(3, Boundary.CYCLIC)
    payload = report_to_json_dict(run_checks(w)[0])
    assert payload["check_id"] == "C01"
    assert payload["window"] == {"lo": -4, "hi": 3, "boundary": "cyclic", "wrap_phase": 0.0}
    assert payload["passed"] is True
    assert isinstance(payload["max_deviation"], float)
    assert isinstance(payload["notes"], str)


def test_check_report_is_a_value_object():
    w = Window.symmetric(3)
    a = CheckReport("C99", w, 0.0, 1e-12, True, "x")
    b = CheckReport("C99", w, 0.0, 1e-12, True, "x")
    assert a == b
