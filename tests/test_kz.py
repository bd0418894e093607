import numpy as np
import pytest
from scipy.linalg import expm

from monogate.fuchsian import ConfigurationConnection, NumericsError, integrability_check, transport
from monogate.gate_core import SIGMA_X, SIGMA_Z
from monogate.kz import (
    SpinModule,
    braid_matrix,
    braid_word_matrix,
    build_kz,
    casimir_omega,
    flip_operator,
    log_increment,
    two_point_transport_factor,
    _unitarize_block,
    unitarize_kz,
    verify_braid_relations,
)
from monogate.matrices import frobenius, unitarity_defect
from monogate.paths import LineSegment, PiecewisePath, braid_word_path
from oracles import casimir_omega_via_coproduct, two_point_solution, unitarize_representation

HALF = SpinModule(0.5)

PRINTED_OMEGA = np.array(
    [
        [0.5, 0, 0, 0],
        [0, -0.5, 1, 0],
        [0, 1, -0.5, 0],
        [0, 0, 0, 0.5],
    ],
    dtype=complex,
)


@pytest.fixture(scope="module")
def sys2():
    return build_kz([HALF, HALF], 3.0)


@pytest.fixture(scope="module")
def sys3():
    return build_kz([HALF, HALF, HALF], 3.0)


@pytest.fixture(scope="module")
def braid3(sys3):
    return [braid_matrix(sys3, i, 1e-11) for i in (1, 2)]


# ---------------------------------------------------------------------------
# Spin modules.
# ---------------------------------------------------------------------------

def test_spin_module_dimensions():
    for twice_j in range(0, 5):
        m = SpinModule(twice_j / 2)
        assert m.dim == twice_j + 1


def test_spin_half_is_pauli_over_two():
    assert np.allclose(HALF.sx, SIGMA_X / 2)
    assert np.allclose(HALF.sz, SIGMA_Z / 2)


def test_sl2_commutation_relations_up_to_spin_two():
    for twice_j in range(1, 5):
        m = SpinModule(twice_j / 2)
        assert m.commutator_defect() <= 1e-12


def test_casimir_scalar():
    for j in (0.5, 1.0, 1.5):
        m = SpinModule(j)
        c = 2 * (m.sx @ m.sx + m.sy @ m.sy + m.sz @ m.sz)
        assert frobenius(c - m.casimir_value() * np.eye(m.dim)) < 1e-12


def test_invalid_spin_rejected():
    with pytest.raises(ValueError):
        SpinModule(0.3)
    with pytest.raises(ValueError):
        SpinModule(-0.5)


# ---------------------------------------------------------------------------
# Casimir coupling operator.
# ---------------------------------------------------------------------------

def test_casimir_omega_matches_printed_matrix_exactly():
    om = casimir_omega(HALF, HALF)
    assert np.array_equal(om, PRINTED_OMEGA)


def test_casimir_omega_is_swap_minus_half():
    om = casimir_omega(HALF, HALF)
    swap = flip_operator(2, 2, 1)
    assert np.array_equal(om, swap - np.eye(4) / 2)
    eigs = np.sort(np.linalg.eigvalsh(om.real))
    assert np.allclose(eigs, [-1.5, 0.5, 0.5, 0.5])


def test_casimir_omega_coproduct_route_agrees():
    for ji, jj in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.5)):
        vi, vj = SpinModule(ji), SpinModule(jj)
        assert frobenius(casimir_omega(vi, vj) - casimir_omega_via_coproduct(vi, vj)) < 1e-12


def test_casimir_commutes_with_diagonal_action():
    for ji, jj in ((0.5, 0.5), (1.0, 1.0), (1.5, 2.0), (0.5, 2.0)):
        vi, vj = SpinModule(ji), SpinModule(jj)
        om = casimir_omega(vi, vj)
        for a, b in zip(vi.spin_triple(), vj.spin_triple()):
            delta = np.kron(a, np.eye(vj.dim)) + np.kron(np.eye(vi.dim), b)
            assert frobenius(om @ delta - delta @ om) <= 1e-12


# ---------------------------------------------------------------------------
# KZ system assembly.
# ---------------------------------------------------------------------------

def test_build_kz_two_point_form(sys2):
    conn = sys2.connection()
    assert np.allclose(conn.matrix(0, 1), PRINTED_OMEGA / 3.0)


def test_omega_acts_trivially_outside_its_factors(sys3):
    # O_12 commutes with operators supported on the third factor
    om = sys3.omega(0, 1)
    probe = np.kron(np.eye(4), SIGMA_X + 0.7 * SIGMA_Z)
    assert frobenius(om @ probe - probe @ om) < 1e-12
    assert frobenius(om - om.conj().T) < 1e-12  # Hermitian


def test_kz_flatness_n3_n4():
    for n in (3, 4):
        sysn = build_kz([HALF] * n, 3.0)
        assert integrability_check(sysn.connection()).max_violation <= 1e-12


def test_zero_coupling_rejected():
    with pytest.raises(ValueError):
        build_kz([HALF, HALF], 0.0)
    with pytest.raises(ValueError):
        build_kz([HALF], 3.0)


def test_zero_omegas_transport_identity():
    conn = ConfigurationConnection(3, {})
    path = braid_word_path(3, [1, 1])
    assert frobenius(transport(conn, path, 1e-10) - np.eye(1)) < 1e-12


# ---------------------------------------------------------------------------
# Two-point closed form.
# ---------------------------------------------------------------------------

def test_two_point_solution_at_unit_separation():
    c = np.array([1.0, 2.0, -1.0, 0.5j])
    out = two_point_solution(PRINTED_OMEGA, 3.0, (2.0, 1.0), c)
    assert np.allclose(out, c, atol=1e-12)


def test_two_point_diagonal_rejected():
    with pytest.raises(ValueError):
        two_point_solution(PRINTED_OMEGA, 3.0, (1.0, 1.0), np.ones(4))


def test_full_loop_multiplies_by_full_twist(sys2):
    loop = braid_word_path(2, [1, 1])
    assert abs(log_increment(loop) - 2j * np.pi) < 1e-8
    numeric = transport(sys2.connection(), loop, 1e-11)
    closed = expm((2j * np.pi / 3.0) * PRINTED_OMEGA)
    assert frobenius(numeric - closed) < 1e-8


def test_open_path_matches_closed_form():
    seg = LineSegment(np.array([1.0, 2.0], complex), np.array([0.3 - 0.7j, 2.9 + 0.4j], complex))
    path = PiecewisePath((seg,))
    for lam in (2.0, 3.0 + 1.0j):
        sysv = build_kz([HALF, HALF], lam)
        numeric = transport(sysv.connection(), path, 1e-11)
        closed = two_point_transport_factor(PRINTED_OMEGA, lam, path)
        assert frobenius(numeric - closed) < 1e-9


# ---------------------------------------------------------------------------
# Braid gates.
# ---------------------------------------------------------------------------

def test_half_twist_squared_is_full_twist_n2(sys2):
    b1 = braid_matrix(sys2, 1, 1e-11)
    full = transport(sys2.connection(), braid_word_path(2, [1, 1]), 1e-11)
    assert frobenius(b1 @ b1 - full) < 1e-6


def test_half_twist_squared_is_full_twist_n3(sys3, braid3):
    for i, b in enumerate(braid3, start=1):
        full = transport(sys3.connection(), braid_word_path(3, [i, i]), 1e-11)
        assert frobenius(b @ b - full) < 1e-6


def test_half_twist_closed_form_both_orientations(sys2):
    # clockwise half-twist with the flip divided out reproduces e^{-i pi O / lam}
    p = flip_operator(2, 2, 1)
    b_cw = braid_matrix(sys2, 1, 1e-11, orientation="cw")
    b_ccw = braid_matrix(sys2, 1, 1e-11)
    assert frobenius(p @ b_cw - expm(-1j * np.pi * PRINTED_OMEGA / 3.0)) < 1e-9
    assert frobenius(p @ b_ccw - expm(+1j * np.pi * PRINTED_OMEGA / 3.0)) < 1e-9


def test_opposite_orientations_are_inverse(sys3):
    b = braid_matrix(sys3, 1, 1e-11)
    b_inv = braid_matrix(sys3, 1, 1e-11, orientation="cw")
    assert frobenius(b @ b_inv - np.eye(8)) < 1e-9


def test_braid_relation_n3(braid3):
    report = verify_braid_relations(braid3, 3, 1e-6)
    assert report.max_braid_deviation <= 1e-6


def test_far_commutation_n4():
    sys4 = build_kz([HALF] * 4, 3.0)
    mats = [braid_matrix(sys4, i, 1e-10) for i in (1, 2, 3)]
    report = verify_braid_relations(mats, 4, 1e-6)
    assert report.max_braid_deviation <= 1e-6
    assert report.max_commutation_deviation <= 1e-6


def test_braid_matrix_requires_identical_modules():
    mixed = build_kz([SpinModule(0.5), SpinModule(1.0)], 3.0)
    with pytest.raises(ValueError):
        braid_matrix(mixed, 1)


def test_braid_word_matrix_inverse():
    rng = np.random.default_rng(2)
    from monogate.matrices import random_unitary

    b = [random_unitary(4, rng), random_unitary(4, rng)]
    m = braid_word_matrix(b, [1, -1])
    assert frobenius(m - np.eye(4)) < 1e-12


# ---------------------------------------------------------------------------
# Unitarizability witness.
# ---------------------------------------------------------------------------

def test_unitarize_n2_strict(sys2):
    b1 = braid_matrix(sys2, 1, 1e-11)
    assert unitarity_defect(b1) < 1e-8  # already unitary in the solution frame
    res = unitarize_representation([b1])
    assert res.radical_dim == 0
    assert res.defect < 1e-8


def test_unitarize_kz_n3_level_one(sys3, braid3):
    # lambda = 3 sits at integer level: null vectors force a 2-dim radical
    res = unitarize_kz(sys3, braid3, tol=1e-11)
    assert res.defect <= 1e-8
    assert res.radical_dim == 2
    assert res.matrices[0].shape == (6, 6)
    # the invariant form is preserved by the raw matrices
    for b in braid3:
        assert frobenius(b.conj().T @ res.form @ b - res.form) < 1e-8
    # braid relation survives on the quotient
    rep = verify_braid_relations(res.matrices, 3, 1e-6)
    assert rep.max_braid_deviation <= 1e-6
    assert max(rep.pure_braid_unitarity) <= 1e-8


def test_unitarize_kz_generic_coupling_strict():
    sysg = build_kz([HALF] * 3, 4.0)
    res = unitarize_kz(sysg, tol=1e-10)
    assert res.radical_dim == 0
    assert res.defect <= 1e-8
    generic = unitarize_representation([braid_matrix(sysg, i, 1e-10) for i in (1, 2)])
    assert generic.defect <= 1e-8


def test_unitarize_degenerate_coupling_raises_generic(sys3, braid3):
    with pytest.raises(ValueError):
        unitarize_representation(braid3)


def test_unitarize_kz_indefinite_sector_dies():
    # below the definite window the spin-1/2 multiplicity pair preserves only
    # an indefinite form; the unitary quotient is the spin-3/2 tower alone
    sysq = build_kz([HALF] * 3, 2.5)
    res = unitarize_kz(sysq, tol=1e-10)
    assert res.radical_dim == 4
    assert res.matrices[0].shape == (4, 4)
    assert res.defect <= 1e-8


@pytest.mark.parametrize(
    "n, lam, radical",
    [(4, 2.5, 11), (4, 3.0, 10), (4, 4.0, 6), (4, 5.0, 0),
     (5, 2.5, 22), (5, 3.0, 26), (5, 4.0, 24), (5, 5.0, 12)],
)
def test_unitarize_kz_radical_dims_pinned(n, lam, radical):
    # values of the iterative most-definite-form search, which the closed
    # form per block must reproduce
    res = unitarize_kz(build_kz([HALF] * n, lam), tol=1e-10)
    assert res.radical_dim == radical
    assert res.matrices[0].shape[0] == 2**n - radical
    assert res.defect <= 1e-8


def test_unitarize_block_needs_a_unique_form():
    # the identity preserves every Hermitian form: four of them, not one
    with pytest.raises(NumericsError, match="2-dimensional block has 4"):
        _unitarize_block([np.eye(2)], 1e-7)


def test_connection_is_built_once(sys3):
    conn = sys3.connection()
    assert sys3.connection() is conn
    assert np.allclose(conn.matrix(0, 2), sys3.omega(0, 2) / sys3.lam)


# ---------------------------------------------------------------------------
# Relation reports.
# ---------------------------------------------------------------------------

def test_identity_matrices_report_zero():
    mats = [np.eye(4), np.eye(4)]
    report = verify_braid_relations(mats, 3, 1e-6)
    assert report.max_deviation == 0.0
    assert max(report.pure_braid_unitarity) == 0.0


def test_pauli_pair_violates_braid_relation():
    report = verify_braid_relations([SIGMA_X, SIGMA_Z], 3, 1e-6)
    # oracle: || sx sz sx - sz sx sz ||_F computed directly
    expected = frobenius(SIGMA_X @ SIGMA_Z @ SIGMA_X - SIGMA_Z @ SIGMA_X @ SIGMA_Z)
    assert abs(report.max_braid_deviation - expected) < 1e-12
    assert expected > 1.9  # the pair genuinely fails the relation


def test_relation_report_shape():
    mats = [np.eye(2)] * 3
    report = verify_braid_relations(mats, 4, 1e-6)
    assert len(report.braid_deviations) == 2
    assert len(report.commutation_deviations) == 1
    assert len(report.pure_braid_unitarity) == 6
    with pytest.raises(ValueError):
        verify_braid_relations(mats, 3, 1e-6)
