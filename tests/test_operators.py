import cmath
import json
import math

import numpy as np
import pytest

from phaselab.fockspace import Boundary, Window, fock_state
from phaselab.operators import (
    OPERATOR_BUILDERS,
    NumberKind,
    OperatorMatrix,
    WindowMismatchError,
    build_a_m,
    build_a_minus,
    build_a_minus_dagger,
    build_a_plus,
    build_a_plus_dagger,
    build_a_v,
    build_cosine_sine,
    build_helicity,
    build_identity,
    build_number,
    build_polarization_swap,
    build_susskind_glogower,
    commutator,
    lowering_coefficient,
    operator_to_json_dict,
)

W = Window(-4, 3)
WC = Window(-4, 3, Boundary.CYCLIC)


def maxabs(arr):
    return float(np.max(np.abs(arr)))


def test_helicity_diagonal():
    h = build_helicity(W)
    assert h.entries[W.position(0), W.position(0)] == 1.0
    assert h.entries[W.position(-1), W.position(-1)] == -1.0
    assert np.trace(build_helicity(Window.symmetric(5)).entries) == 0.0


class TestUpperLadder:
    def test_lowers_with_sqrt_coefficient(self):
        aplus = build_a_plus(W)
        got = aplus.apply(fock_state(W, 1))
        assert np.array_equal(got.amplitudes, fock_state(W, 0).amplitudes)
        got3 = aplus.apply(fock_state(W, 3))
        assert maxabs(got3.amplitudes - math.sqrt(3) * fock_state(W, 2).amplitudes) == 0.0

    def test_annihilates_upper_vacuum(self):
        assert build_a_plus(W).apply(fock_state(W, 0)).norm() == 0.0

    def test_ignores_lower_branch(self):
        assert build_a_plus(W).apply(fock_state(W, -2)).norm() == 0.0

    def test_dagger_matches_adjoint(self):
        assert np.array_equal(
            build_a_plus(W).adjoint().entries, build_a_plus_dagger(W).entries
        )


class TestLowerLadder:
    def test_lowers_label_raising_photon_count(self):
        aminus = build_a_minus(W)
        got = aminus.apply(fock_state(W, -1))
        assert np.array_equal(got.amplitudes, fock_state(W, -2).amplitudes)
        got3 = aminus.apply(fock_state(W, -3))
        assert maxabs(got3.amplitudes - math.sqrt(3) * fock_state(W, -4).amplitudes) == 0.0

    def test_dagger_annihilates_lower_vacuum(self):
        assert build_a_minus_dagger(W).apply(fock_state(W, -1)).norm() == 0.0

    def test_ignores_upper_branch(self):
        assert build_a_minus(W).apply(fock_state(W, 2)).norm() == 0.0

    def test_dagger_matches_adjoint(self):
        assert np.array_equal(
            build_a_minus(W).adjoint().entries, build_a_minus_dagger(W).entries
        )


class TestVacuumCoupler:
    def test_action(self):
        av = build_a_v(W)
        got = av.apply(fock_state(W, 0))
        assert np.array_equal(got.amplitudes, fock_state(W, -1).amplitudes)

    def test_nilpotent(self):
        av = build_a_v(W)
        assert maxabs((av @ av).entries) == 0.0
        assert maxabs((av.adjoint() @ av.adjoint()).entries) == 0.0

    def test_adjoint_products_are_vacuum_projectors(self):
        av = build_a_v(W)
        p0 = np.outer(fock_state(W, 0).amplitudes, fock_state(W, 0).amplitudes.conj())
        pm1 = np.outer(fock_state(W, -1).amplitudes, fock_state(W, -1).amplitudes.conj())
        assert maxabs((av.adjoint() @ av).entries - p0) == 0.0
        assert maxabs((av @ av.adjoint()).entries - pm1) == 0.0

    def test_equals_helicity_projected_seam_hop(self):
        # dual route: build it from the helicity projectors and the bare
        # |-1><0| hop instead of by direct placement
        ident = np.eye(W.dimension)
        hel = build_helicity(W).entries
        hop = np.outer(fock_state(W, -1).amplitudes, fock_state(W, 0).amplitudes.conj())
        sandwich = (ident - hel) / 2 @ hop @ (ident + hel) / 2
        assert maxabs(build_a_v(W).entries - sandwich) == 0.0


class TestFullLoweringChain:
    def test_seam_and_branch_actions(self):
        am = build_a_m(W)
        assert np.array_equal(
            am.apply(fock_state(W, 0)).amplitudes, fock_state(W, -1).amplitudes
        )
        got = am.apply(fock_state(W, 3))
        assert maxabs(got.amplitudes - math.sqrt(3) * fock_state(W, 2).amplitudes) == 0.0
        got = am.apply(fock_state(W, -2))
        assert maxabs(got.amplitudes - math.sqrt(2) * fock_state(W, -3).amplitudes) == 0.0

    def test_open_mode_is_sum_of_the_three_pieces(self):
        total = (
            build_a_plus(W).entries + build_a_v(W).entries + build_a_minus(W).entries
        )
        assert np.array_equal(build_a_m(W).entries, total)

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_cyclic_wrap_element(self, theta):
        w = Window(-4, 3, Boundary.CYCLIC, theta)
        am = build_a_m(w)
        wrap = am.entries[w.position(3), w.position(-4)]
        assert wrap == pytest.approx(2.0 * cmath.exp(1j * theta), abs=1e-15)

    @pytest.mark.parametrize("window", [W, WC, Window(-6, 2, Boundary.CYCLIC, 1.1)])
    def test_factors_through_the_unit_chain(self, window):
        coeffs = np.array(
            [lowering_coefficient(n) for n in window.indices()], dtype=complex
        )
        factored = build_susskind_glogower(window).entries @ np.diag(coeffs)
        assert maxabs(build_a_m(window).entries - factored) < 1e-15


class TestNumberKinds:
    def test_diagonals(self):
        w = W
        label = build_number(w, "label").entries
        photon = build_number(w, NumberKind.PHOTON).entries
        literal = build_number(w, NumberKind.LITERAL).entries
        p = w.position
        assert label[p(-3), p(-3)] == -3.0
        assert photon[p(-3), p(-3)] == 2.0
        assert literal[p(-1), p(-1)] == -1.0
        assert literal[p(-4), p(-4)] == 2.0

    def test_all_kinds_agree_on_the_upper_branch(self):
        mats = [build_number(W, kind).entries for kind in NumberKind]
        for n in range(0, W.hi + 1):
            p = W.position(n)
            values = {m[p, p] for m in mats}
            assert values == {complex(n)}


class TestPhaseLadder:
    def test_lowers_across_the_seam(self):
        e = build_susskind_glogower(W)
        assert np.array_equal(
            e.apply(fock_state(W, 0)).amplitudes, fock_state(W, -1).amplitudes
        )
        assert np.array_equal(
            e.apply(fock_state(W, 2)).amplitudes, fock_state(W, 1).amplitudes
        )

    def test_open_mode_drops_the_edge_column(self):
        e = build_susskind_glogower(W)
        assert e.apply(fock_state(W, -4)).norm() == 0.0

    def test_cyclic_wrap(self):
        e = build_susskind_glogower(WC)
        assert np.array_equal(
            e.apply(fock_state(WC, -4)).amplitudes, fock_state(WC, 3).amplitudes
        )

    def test_cyclic_unitarity(self):
        e = build_susskind_glogower(WC)
        ident = np.eye(WC.dimension)
        assert maxabs((e @ e.adjoint()).entries - ident) == 0.0
        assert maxabs((e.adjoint() @ e).entries - ident) == 0.0


class TestQuadratures:
    def test_hermitian(self):
        for op in build_cosine_sine(W):
            assert op.hermiticity_defect() == 0.0

    def test_single_shift_element_halved(self):
        c, _ = build_cosine_sine(W)
        assert c.entries[W.position(1), W.position(2)] == 0.5

    def test_cyclic_squares_sum_to_identity(self):
        c, s = build_cosine_sine(WC)
        total = (c @ c).entries + (s @ s).entries
        assert maxabs(total - np.eye(WC.dimension)) < 1e-15


class TestPolarizationSwap:
    def test_vacuum_flip_and_involution(self):
        w = Window.symmetric(3)
        swap = build_polarization_swap(w)
        assert np.array_equal(
            swap.apply(fock_state(w, 0)).amplitudes, fock_state(w, -1).amplitudes
        )
        for n in range(w.lo, w.hi + 1):
            twice = swap.apply(swap.apply(fock_state(w, n)))
            assert np.array_equal(twice.amplitudes, fock_state(w, n).amplitudes)

    def test_conjugates_helicity_to_its_negative(self):
        w = Window.symmetric(3)
        swap = build_polarization_swap(w)
        hel = build_helicity(w)
        assert maxabs((swap @ hel @ swap.adjoint()).entries + hel.entries) == 0.0

    def test_asymmetric_window_rejected(self):
        with pytest.raises(ValueError):
            build_polarization_swap(Window(-3, 3))


class TestArithmetic:
    def test_commutator_with_itself_vanishes(self):
        am = build_a_m(W)
        assert maxabs(commutator(am, am).entries) == 0.0

    def test_commutator_diagonal_values(self):
        am = build_a_m(W)
        comm = commutator(am, am.adjoint()).entries
        assert comm[W.position(2), W.position(2)] == pytest.approx(1.0, abs=1e-14)
        assert comm[W.position(0), W.position(0)] == pytest.approx(0.0, abs=1e-14)
        assert comm[W.position(-1), W.position(-1)] == pytest.approx(0.0, abs=1e-14)

    def test_adjoint_is_an_involution(self):
        am = build_a_m(WC)
        assert np.array_equal(am.adjoint().adjoint().entries, am.entries)

    def test_identity_application(self):
        state = fock_state(W, 1)
        assert np.array_equal(
            build_identity(W).apply(state).amplitudes, state.amplitudes
        )

    def test_window_mismatch_rejected(self):
        other = Window(-4, 4)
        with pytest.raises(WindowMismatchError):
            commutator(build_a_m(W), build_a_m(other))
        with pytest.raises(WindowMismatchError):
            build_a_v(W) @ build_a_v(other)
        with pytest.raises(WindowMismatchError):
            build_a_v(W).apply(fock_state(other, 0))
        # same labels but different boundary is also a mismatch
        with pytest.raises(WindowMismatchError):
            build_a_v(W) @ build_a_v(WC)

    def test_rejects_non_finite_entries(self):
        bad = np.zeros((W.dimension, W.dimension), dtype=complex)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            OperatorMatrix(W, bad, "bad")


def test_builder_registry_covers_the_window():
    for name, builder in OPERATOR_BUILDERS.items():
        op = builder(Window.symmetric(3, Boundary.CYCLIC))
        assert op.entries.shape == (8, 8), name


def test_operator_dump_format():
    w = Window(-2, 1)
    dump = operator_to_json_dict(build_susskind_glogower(w))
    assert dump["window"] == {"lo": -2, "hi": 1, "boundary": "open", "wrap_phase": 0.0}
    assert dump["label"] == "susskind_glogower"
    assert dump["entries"] == [
        [-2, -1, 1.0, 0.0],
        [-1, 0, 1.0, 0.0],
        [0, 1, 1.0, 0.0],
    ]
    json.dumps(dump)  # JSON-serializable as-is


def test_operator_dump_uses_basis_labels_and_sorted_order():
    w = Window(-2, 1, Boundary.CYCLIC, 0.3)
    dump = operator_to_json_dict(build_susskind_glogower(w))
    coords = [(row, col) for row, col, _, _ in dump["entries"]]
    assert coords == sorted(coords)
    assert (1, -2) in coords  # the wrap element, in label coordinates
    wrap = [e for e in dump["entries"] if (e[0], e[1]) == (1, -2)][0]
    assert wrap[2] == pytest.approx(math.cos(0.3), abs=1e-12)
    assert wrap[3] == pytest.approx(math.sin(0.3), abs=1e-12)
