import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from phaselab.fockspace import Boundary, StateVector, Window, fock_state
from phaselab.formats import window_to_json_dict
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
    assert h.to_dense()[W.position(0), W.position(0)] == 1.0
    assert h.to_dense()[W.position(-1), W.position(-1)] == -1.0
    assert np.trace(build_helicity(Window.symmetric(5)).to_dense()) == 0.0


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
            build_a_plus(W).adjoint().to_dense(), build_a_plus_dagger(W).to_dense()
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
            build_a_minus(W).adjoint().to_dense(), build_a_minus_dagger(W).to_dense()
        )


class TestVacuumCoupler:
    def test_action(self):
        av = build_a_v(W)
        got = av.apply(fock_state(W, 0))
        assert np.array_equal(got.amplitudes, fock_state(W, -1).amplitudes)

    def test_nilpotent(self):
        av = build_a_v(W)
        assert maxabs((av @ av).to_dense()) == 0.0
        assert maxabs((av.adjoint() @ av.adjoint()).to_dense()) == 0.0

    def test_adjoint_products_are_vacuum_projectors(self):
        av = build_a_v(W)
        p0 = np.outer(fock_state(W, 0).amplitudes, fock_state(W, 0).amplitudes.conj())
        pm1 = np.outer(fock_state(W, -1).amplitudes, fock_state(W, -1).amplitudes.conj())
        assert maxabs((av.adjoint() @ av).to_dense() - p0) == 0.0
        assert maxabs((av @ av.adjoint()).to_dense() - pm1) == 0.0

    def test_equals_helicity_projected_seam_hop(self):
        # dual route: build it from the helicity projectors and the bare
        # |-1><0| hop instead of by direct placement
        ident = np.eye(W.dimension)
        hel = build_helicity(W).to_dense()
        hop = np.outer(fock_state(W, -1).amplitudes, fock_state(W, 0).amplitudes.conj())
        sandwich = (ident - hel) / 2 @ hop @ (ident + hel) / 2
        assert maxabs(build_a_v(W).to_dense() - sandwich) == 0.0


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
            build_a_plus(W).to_dense() + build_a_v(W).to_dense() + build_a_minus(W).to_dense()
        )
        assert np.array_equal(build_a_m(W).to_dense(), total)

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_cyclic_wrap_element(self, theta):
        w = Window(-4, 3, Boundary.CYCLIC, theta)
        am = build_a_m(w)
        wrap = am.to_dense()[w.position(3), w.position(-4)]
        assert wrap == pytest.approx(2.0 * cmath.exp(1j * theta), abs=1e-15)

    @pytest.mark.parametrize("window", [W, WC, Window(-6, 2, Boundary.CYCLIC, 1.1)])
    def test_factors_through_the_unit_chain(self, window):
        coeffs = np.array(
            [lowering_coefficient(n) for n in window.indices()], dtype=complex
        )
        factored = build_susskind_glogower(window).to_dense() @ np.diag(coeffs)
        assert maxabs(build_a_m(window).to_dense() - factored) < 1e-15


def test_lowering_coefficient_is_elementwise_and_exact():
    labels = np.arange(-3000, 3001)
    expected = [math.sqrt(abs(n)) if n else 1.0 for n in labels.tolist()]
    assert lowering_coefficient(labels).tolist() == expected
    scalars = [lowering_coefficient(n) for n in labels.tolist()]
    assert scalars == expected and all(isinstance(c, float) for c in scalars)


class TestNumberKinds:
    def test_diagonals(self):
        w = W
        label = build_number(w, "label").to_dense()
        photon = build_number(w, NumberKind.PHOTON).to_dense()
        literal = build_number(w, NumberKind.LITERAL).to_dense()
        p = w.position
        assert label[p(-3), p(-3)] == -3.0
        assert photon[p(-3), p(-3)] == 2.0
        assert literal[p(-1), p(-1)] == -1.0
        assert literal[p(-4), p(-4)] == 2.0

    def test_all_kinds_agree_on_the_upper_branch(self):
        mats = [build_number(W, kind).to_dense() for kind in NumberKind]
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
        assert maxabs((e @ e.adjoint()).to_dense() - ident) == 0.0
        assert maxabs((e.adjoint() @ e).to_dense() - ident) == 0.0


class TestQuadratures:
    def test_hermitian(self):
        for op in build_cosine_sine(W):
            assert op.hermiticity_defect() == 0.0

    def test_single_shift_element_halved(self):
        c, _ = build_cosine_sine(W)
        assert c.to_dense()[W.position(1), W.position(2)] == 0.5

    def test_cyclic_squares_sum_to_identity(self):
        c, s = build_cosine_sine(WC)
        total = (c @ c).to_dense() + (s @ s).to_dense()
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
        assert maxabs((swap @ hel @ swap.adjoint()).to_dense() + hel.to_dense()) == 0.0

    def test_asymmetric_window_rejected(self):
        with pytest.raises(ValueError):
            build_polarization_swap(Window(-3, 3))


class TestArithmetic:
    def test_commutator_with_itself_vanishes(self):
        am = build_a_m(W)
        assert maxabs(commutator(am, am).to_dense()) == 0.0

    def test_commutator_diagonal_values(self):
        am = build_a_m(W)
        comm = commutator(am, am.adjoint()).to_dense()
        assert comm[W.position(2), W.position(2)] == pytest.approx(1.0, abs=1e-14)
        assert comm[W.position(0), W.position(0)] == pytest.approx(0.0, abs=1e-14)
        assert comm[W.position(-1), W.position(-1)] == pytest.approx(0.0, abs=1e-14)

    def test_adjoint_is_an_involution(self):
        am = build_a_m(WC)
        assert np.array_equal(am.adjoint().adjoint().to_dense(), am.to_dense())

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
            oracles.from_dense(W, bad)


def test_builder_registry_covers_the_window():
    for name, builder in OPERATOR_BUILDERS.items():
        op = builder(Window.symmetric(3, Boundary.CYCLIC))
        assert op.to_dense().shape == (8, 8), name


def test_operator_dump_format():
    w = Window(-2, 1)
    dump = operator_to_json_dict(build_susskind_glogower(w), "susskind_glogower")
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
    dump = operator_to_json_dict(build_susskind_glogower(w), "susskind_glogower")
    coords = [(row, col) for row, col, _, _ in dump["entries"]]
    assert coords == sorted(coords)
    assert (1, -2) in coords  # the wrap element, in label coordinates
    wrap = [e for e in dump["entries"] if (e[0], e[1]) == (1, -2)][0]
    assert wrap[2] == pytest.approx(math.cos(0.3), abs=1e-12)
    assert wrap[3] == pytest.approx(math.sin(0.3), abs=1e-12)


# D from 2 to 40, both boundaries, half of them symmetric so the branch
# swap (which does not commute with the shifts) takes part; wrap -0.0
# gives E a wrap weight 1 - 0j
boundaries = st.sampled_from(list(Boundary))
wraps = st.sampled_from([0.0, 1.25, -2.5, -0.0])
windows = (st.builds(Window, lo=st.integers(-20, -1), hi=st.integers(0, 19),
                     boundary=boundaries, wrap_phase=wraps)
           | st.builds(Window.symmetric, st.integers(0, 19), boundaries, wraps))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def dense_dump(window, label, m):
    """The dump as np.nonzero over a dense matrix reads it."""
    rows, cols = np.nonzero(m != 0)
    values = m[rows, cols]
    entries = zip((rows + window.lo).tolist(), (cols + window.lo).tolist(),
                  values.real.tolist(), values.imag.tolist())
    return {"window": window_to_json_dict(window), "label": label,
            "entries": [list(entry) for entry in entries]}


@settings(max_examples=25, deadline=None)
@given(windows)
@example(Window(-1, 0, Boundary.CYCLIC, 1.25))  # D = 2: the +1 and -1 shifts coincide
@example(Window(-1, 0, Boundary.OPEN))
@example(Window(-1, 0, Boundary.CYCLIC, -0.0))
@example(Window.symmetric(3, Boundary.CYCLIC, 1.25))
def test_structured_arithmetic_matches_dense_numpy(window):
    ops = {name: builder(window) for name, builder in OPERATOR_BUILDERS.items()
           if window.is_symmetric or name != "polarization_swap"}
    dense = {name: op.to_dense() for name, op in ops.items()}
    rng = np.random.default_rng(window.dimension)
    state = StateVector(window, rng.standard_normal(window.dimension)
                        + 1j * rng.standard_normal(window.dimension))
    for name, op in ops.items():
        m = dense[name]
        np.testing.assert_array_equal(op.adjoint().to_dense(), m.conj().T)
        np.testing.assert_array_equal((-op).to_dense(), -m)
        assert_close((op * (1.5 - 0.5j)).to_dense(), m * (1.5 - 0.5j))
        assert_close((2 * op).to_dense(), 2 * m)
        assert_close(op.apply(state).amplitudes, m @ state.amplitudes)
        assert op.hermiticity_defect() == pytest.approx(np.max(np.abs(m - m.conj().T)), abs=1e-15)
        assert json.dumps(operator_to_json_dict(op, name)) == json.dumps(dense_dump(window, name, m))
        for key, other in ops.items():
            n = dense[key]
            assert_close((op @ other).to_dense(), m @ n)
            # exact except where three or more terms meet (D = 2), which
            # the structured sum adds in term order
            assert_close((op + other).to_dense(), m + n)
            assert_close((op - other).to_dense(), m - n)
            assert_close(commutator(op, other).to_dense(), m @ n - n @ m)


@settings(max_examples=25, deadline=None)
@given(windows)
@example(Window(-1, 0, Boundary.CYCLIC, 1.25))
@example(Window(-1, 0, Boundary.CYCLIC, -0.0))
@example(Window(-1, 0, Boundary.OPEN))
def test_quadrature_dumps_match_the_dense_quadrature_formula(window):
    # each printed zero keeps the sign the dense entrywise formula gives it
    e = build_susskind_glogower(window).to_dense()
    c, s = build_cosine_sine(window)
    for name, op, m in (("cosine", c, (e + e.conj().T) / 2.0), ("sine", s, (e - e.conj().T) / 2.0j)):
        assert json.dumps(operator_to_json_dict(op, name)) == json.dumps(dense_dump(window, name, m))


@settings(max_examples=25, deadline=None)
@given(windows)
@example(Window(-1, 0, Boundary.CYCLIC, 1.25))  # D = 2: reflections are held as rotations
@example(Window.symmetric(1, Boundary.CYCLIC, 1.25))  # D = 4
def test_coalesced_adds_each_position_as_the_reference_sort_does(window):
    d = window.dimension
    ops = [builder(window) for name, builder in OPERATOR_BUILDERS.items()
           if window.is_symmetric or name != "polarization_swap"]
    pairs = [f(a, b) for a in ops for b in ops
             for f in (OperatorMatrix.__matmul__, OperatorMatrix.__add__, commutator)]
    # three rotations and three reflections on each offset, interleaved in
    # term order: on odd D every reflection meets every rotation
    rng = np.random.default_rng(d)
    mixed = OperatorMatrix(window, [(t % 2 == 1, t // 6, rng.standard_normal(d)
                                     + 1j * rng.standard_normal(d)) for t in range(24)])

    def sorted_and_reference(op):
        rows, cols, values = op.coalesced()
        order = np.lexsort((cols, rows))
        return (rows[order], cols[order], values[order]), oracles.reference_coalesced(d, op.terms)

    # bit for bit: numpy adds four or more complex weights pairwise, so a
    # plain running sum would change printed deviations
    for k, op in enumerate([*ops, *pairs]):
        got, want = sorted_and_reference(op)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], k
    # where a reflection meets a rotation, their group sums add
    for op in [mixed, *(mixed + op for op in ops)]:
        got, want = sorted_and_reference(op)
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
        assert_close(got[2], want[2])


def test_terms_need_an_integer_offset_and_finite_weights_of_length_d():
    ones = np.ones(W.dimension)
    with pytest.raises(TypeError):
        OperatorMatrix(W, [(False, 1.0, ones)])
    with pytest.raises(ValueError):
        OperatorMatrix(W, [(False, 1, ones[1:])])
    with pytest.raises(ValueError):
        OperatorMatrix(W, [(True, 1, np.where(ones > 0, np.nan, 0.0))])
    # the offset is reduced mod D; for D <= 2 a reflection is a rotation
    assert OperatorMatrix(W, [(True, -1, ones)]).terms[0][:2] == (True, W.dimension - 1)
    assert OperatorMatrix(Window(-1, 0), [(True, 3, [1, 1])]).terms[0][:2] == (False, 1)


def test_arithmetic_results_are_read_only():
    # products, adjoints and sums go through the public constructor, which
    # freezes a copy of each term's weights
    e, n = build_susskind_glogower(WC), build_number(WC)
    for op in (e.adjoint(), e @ n, e + n, e - n, 2 * e, -e, commutator(e, n)):
        for reflect, offset, w in op.terms:
            assert type(reflect) is bool and type(offset) is int and not w.flags.writeable
