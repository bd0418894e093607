import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from monogate.fuchsian import (
    BranchCutError,
    ConfigurationConnection,
    DefectiveMatrixError,
    DifferencesConnection,
    DivisorContactError,
    MonodromyRepresentation,
    PointsConnection,
    chern_index,
    connection_from_json,
    connection_to_json,
    curvature_residual,
    integrability_check,
    monodromy_representation,
    residue_log,
    transport,
    x4_generator_loops,
)
from monogate.gate_core import SIGMA_X, SIGMA_Z
from monogate.matrices import frobenius, random_hermitian, random_su2
from monogate import fuchsian
from monogate.paths import (
    ArcSegment,
    LineSegment,
    PiecewisePath,
    PointsDivisor,
    concat,
    generator_loop,
    invert,
    min_divisor_distance,
)

RNG = np.random.default_rng(20240817)


def random_traceless_hermitian(rng, scale=0.5):
    h = random_hermitian(2, rng)
    h -= np.trace(h) / 2 * np.eye(2)
    return h * scale


@pytest.fixture(scope="module")
def unit_loop():
    return generator_loop(2.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# Transport basics.
# ---------------------------------------------------------------------------

def test_zero_connection_gives_identity(unit_loop):
    conn = PointsConnection((0.0,), (np.zeros((2, 2)),))
    assert frobenius(transport(conn, unit_loop, 1e-10) - np.eye(2)) < 1e-12


def test_scalar_pole_monodromy(unit_loop):
    a = 0.37 - 0.21j
    conn = PointsConnection((0.0,), (np.array([[a]]),))
    m = transport(conn, unit_loop, 1e-10)
    assert abs(m[0, 0] - np.exp(2j * np.pi * a)) < 1e-9


def test_matrix_pole_monodromy_vs_expm(unit_loop):
    a = random_traceless_hermitian(RNG) + 0.2 * np.eye(2)
    conn = PointsConnection((0.0,), (a,))
    m = transport(conn, unit_loop, 1e-10)
    assert frobenius(m - expm(2j * np.pi * a)) < 1e-9


def test_hermitian_pole_monodromy_unitary(unit_loop):
    a = random_hermitian(2, RNG)
    conn = PointsConnection((0.0,), (a,))
    m = transport(conn, unit_loop, 1e-10)
    assert frobenius(m.conj().T @ m - np.eye(2)) < 1e-9


def test_winding_powers():
    a = random_traceless_hermitian(RNG, scale=0.4)
    conn = PointsConnection((0.0,), (a,))
    base = generator_loop(2.0, 0.0, 0.5)
    for w in (-2, -1, 1, 2):
        loop = base if w > 0 else invert(base)
        path = loop
        for _ in range(abs(w) - 1):
            path = concat(path, loop)
        m = transport(conn, path, 1e-11)
        assert frobenius(m - expm(2j * np.pi * w * a)) < 1e-9


def test_transport_multiplicative():
    a = random_traceless_hermitian(RNG)
    conn = PointsConnection((0.0,), (a,))
    seg1 = PiecewisePath((LineSegment(np.array([2.0]), np.array([1.0 + 1.0j])),))
    seg2 = PiecewisePath((LineSegment(np.array([1.0 + 1.0j]), np.array([-1.5 + 0.5j])),))
    t1 = transport(conn, seg1, 1e-11)
    t2 = transport(conn, seg2, 1e-11)
    both = transport(conn, concat(seg1, seg2), 1e-11)
    assert frobenius(both - t2 @ t1) < 2e-11


def test_transport_of_inverse_path(unit_loop):
    a = random_traceless_hermitian(RNG)
    conn = PointsConnection((0.0,), (a,))
    m = transport(conn, unit_loop, 1e-11)
    m_inv = transport(conn, invert(unit_loop), 1e-11)
    assert frobenius(m @ m_inv - np.eye(2)) < 1e-10


def test_homotopy_invariance():
    a = random_traceless_hermitian(RNG)
    conn = PointsConnection((0.0,), (a,))
    small = generator_loop(2.0, 0.0, 0.3)
    big = generator_loop(2.0, 0.0, 0.7)
    m1 = transport(conn, small, 1e-10)
    m2 = transport(conn, big, 1e-10)
    assert frobenius(m1 - m2) < 2e-9


def test_loop_then_inverse_is_identity(unit_loop):
    a = random_traceless_hermitian(RNG)
    conn = PointsConnection((0.0,), (a,))
    m = transport(conn, concat(unit_loop, invert(unit_loop)), 1e-10)
    assert frobenius(m - np.eye(2)) < 1e-9


def test_divisor_contact_rejected():
    conn = PointsConnection((0.0,), (np.eye(2),))
    through = PiecewisePath((LineSegment(np.array([-1.0]), np.array([1.0])),))
    with pytest.raises(DivisorContactError):
        transport(conn, through, 1e-10)


def test_dimension_mismatch_rejected(unit_loop):
    conn = ConfigurationConnection(2, {(0, 1): np.eye(2)})
    with pytest.raises(ValueError):
        transport(conn, unit_loop, 1e-10)


# ---------------------------------------------------------------------------
# Transport near the divisor.
# ---------------------------------------------------------------------------

NEAR_APPROACH = 1.4
NEAR_RADIUS = 0.25


def near_pole_loop(h, detour=None):
    """Loop around the pole at 0 whose approach line passes the pole at 1 at height h.

    The basepoint lies just below the real axis, NEAR_APPROACH from 0, on the
    ray whose distance to 1 is h; the loop runs to the circle of radius
    NEAR_RADIUS, once round it counterclockwise, and back.  With `detour`,
    the way in and out bends through that point instead.
    """
    base = NEAR_APPROACH * np.exp(-1j * np.arcsin(h))
    phi = float(np.angle(base))
    foot = NEAR_RADIUS * np.exp(1j * phi)
    stops = [base, foot] if detour is None else [base, detour, foot]
    way_in = [LineSegment(np.array([a]), np.array([b])) for a, b in zip(stops, stops[1:])]
    circle = ArcSegment(np.array([0j]), np.array([NEAR_RADIUS + 0j]), phi, phi + 2 * np.pi)
    way_out = [seg.reversed() for seg in reversed(way_in)]
    return PiecewisePath((*way_in, circle, *way_out))


def test_near_pole_cost_grows_like_log(monkeypatch):
    calls = []
    contract = PointsConnection.contract

    def counted(self, z, v):
        calls.append(None)
        return contract(self, z, v)

    monkeypatch.setattr(PointsConnection, "contract", counted)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    evals = {}
    for h in (1e-2, 1e-4, 1e-6):
        calls.clear()
        m = transport(conn, near_pole_loop(h), 1e-10)
        evals[h] = len(calls)
    assert evals[1e-4] <= 3 * evals[1e-2], evals
    assert abs(m[0, 0] - np.exp(2j * np.pi * 0.3)) <= 1e-10


def test_uniform_clearance_segments_are_single_solves(monkeypatch):
    solves = []
    solve_ivp = fuchsian.solve_ivp

    def counted(*args, **kwargs):
        solves.append(None)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", counted)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    for loop in x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25):
        transport(conn, loop, 1e-10)
    assert len(solves) == 6
    solves.clear()
    transport(conn, near_pole_loop(1e-6), 1e-10)
    assert 3 < len(solves) < 200


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), log_h=st.floats(-6.0, -1.0))
def test_near_pole_transport_homotopy_invariant(seed, log_h):
    rng = np.random.default_rng(seed)
    a, b = (0.3 * g / np.linalg.norm(g) for g in
            (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)))
    assume(frobenius(a @ b - b @ a) > 1e-3)
    conn = PointsConnection((0.0, 1.0), (a, b))
    near = near_pole_loop(10.0 ** log_h)
    far = near_pole_loop(10.0 ** log_h, detour=1.0 - 0.5j)
    assert min_divisor_distance(far, PointsDivisor((1.0,))) >= 0.3
    assert frobenius(transport(conn, near, 1e-10) - transport(conn, far, 1e-10)) <= 1e-8


# ---------------------------------------------------------------------------
# Monodromy representations.
# ---------------------------------------------------------------------------

def test_commuting_diagonal_residues():
    # the diagonal case decouples into scalar equations
    a1, a2 = 0.3, -0.45 + 0.1j
    punctures = (0.0, 1.0)
    conn = PointsConnection(punctures, (np.diag([a1, a2]), np.diag([a2, a1])))
    loops = x4_generator_loops(punctures, 0.5 - 1.5j, 0.3)
    rep = monodromy_representation(conn, loops, 1e-11)
    assert frobenius(rep.matrices[0] - np.diag(np.exp(2j * np.pi * np.array([a1, a2])))) < 1e-9
    assert frobenius(rep.matrices[1] - np.diag(np.exp(2j * np.pi * np.array([a2, a1])))) < 1e-9


def test_x4_product_relation():
    residues = [random_traceless_hermitian(RNG, 0.4) for _ in range(3)]
    residues.append(-sum(residues))
    punctures = (0.0, 1.0, 2.0, 3.0)
    conn = PointsConnection(punctures, tuple(residues), regular_at_infinity=True)
    loops = x4_generator_loops(punctures, 1.5 - 2.0j, 0.3)
    rep = monodromy_representation(conn, loops, 1e-11)
    assert rep.product_defect() <= 1e-7


def test_loops_must_share_basepoint():
    conn = PointsConnection((0.0,), (np.eye(1) * 0.3,))
    loops = [generator_loop(2.0, 0.0, 0.5), generator_loop(3.0, 0.0, 0.5)]
    with pytest.raises(ValueError):
        monodromy_representation(conn, loops, 1e-10)


# ---------------------------------------------------------------------------
# Residue logarithms and the Chern index.
# ---------------------------------------------------------------------------

def test_residue_log_identity():
    assert frobenius(residue_log(np.eye(3))) < 1e-14


def test_residue_log_diag_minus_one():
    e = residue_log(np.diag([1.0, -1.0]))
    assert np.allclose(e, np.diag([0.0, 0.5]), atol=1e-12)


def test_residue_log_roundtrip_su2():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_su2(rng)
        e = residue_log(m)
        assert frobenius(expm(2j * np.pi * e) - m) < 1e-10


def test_residue_log_hermitian_for_hermitian_unitary():
    u = SIGMA_X
    e = residue_log(u)
    assert frobenius(e - e.conj().T) < 1e-12


def test_residue_log_branch_window():
    m = np.diag([np.exp(1j * 0.3)])
    e0 = residue_log(m)
    e_shift = residue_log(m, branch_start=-np.pi)
    assert np.allclose(e0, e_shift, atol=1e-12)
    # below the default cut the exponent jumps by one
    m2 = np.diag([np.exp(-1j * 0.3)])
    assert np.allclose(residue_log(m2), [[(2 * np.pi - 0.3) / (2 * np.pi)]], atol=1e-12)
    assert np.allclose(residue_log(m2, branch_start=-np.pi), [[-0.3 / (2 * np.pi)]], atol=1e-12)


def test_residue_log_branch_cut_rejected():
    m = np.diag([np.exp(-1e-12j)])
    with pytest.raises(BranchCutError):
        residue_log(m)


def test_residue_log_defective_rejected():
    with pytest.raises(DefectiveMatrixError):
        residue_log(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_residue_log_singular_rejected():
    with pytest.raises(ValueError):
        residue_log(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_chern_index_trivial():
    rep = MonodromyRepresentation(("a", "b", "c", "d"), (np.eye(2),) * 4, np.array([2.0]))
    index, residual = chern_index(rep)
    assert index == 0 and residual < 1e-12


def test_chern_index_two():
    minus = -np.eye(2)
    rep = MonodromyRepresentation(
        ("a", "b", "c", "d"), (minus, minus, np.eye(2), np.eye(2)), np.array([2.0])
    )
    index, residual = chern_index(rep)
    assert index == 2 and residual < 1e-12


def test_chern_index_integer_for_su2_quadruples():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m1, m2, m3 = (random_su2(rng) for _ in range(3))
        m4 = np.linalg.inv(m1 @ m2 @ m3)
        rep = MonodromyRepresentation(("1", "2", "3", "4"), (m1, m2, m3, m4), np.array([0.0]))
        _, residual = chern_index(rep)
        assert residual < 1e-8


def test_chern_index_rejects_noninteger():
    rep = MonodromyRepresentation(("a",), (np.diag([np.exp(1j * np.pi / 3)]),), np.array([0.0]))
    with pytest.raises(BranchCutError):
        chern_index(rep)


# ---------------------------------------------------------------------------
# Curvature and integrability.
# ---------------------------------------------------------------------------

def test_scalar_curvature_vanishes():
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[0.7]])))
    assert curvature_residual(conn, [0.5 + 1.0j], [1.0], [1.0j]) == 0.0


def test_commuting_family_curvature_vanishes():
    base = random_hermitian(2, RNG)
    conn = ConfigurationConnection(
        3, {(0, 1): 0.3 * base, (0, 2): -1.1 * base, (1, 2): 0.8 * base}
    )
    point = np.array([0.0, 1.0, 2.5 + 1.0j])
    u = np.array([1.0, -0.5j, 0.3])
    v = np.array([0.2, 1.0, -1.0j])
    assert curvature_residual(conn, point, u, v) < 1e-12


def test_curvature_rejects_divisor_point():
    conn = ConfigurationConnection(2, {(0, 1): np.eye(2)})
    with pytest.raises(DivisorContactError):
        curvature_residual(conn, [1.0, 1.0], [1.0, 0.0], [0.0, 1.0])


def test_integrability_vacuous_for_two_points():
    conn = ConfigurationConnection(2, {(0, 1): random_hermitian(2, RNG)})
    report = integrability_check(conn)
    assert report.max_violation == 0.0


def test_integrability_violation_reported():
    conn = ConfigurationConnection(
        3, {(0, 1): SIGMA_X, (0, 2): SIGMA_Z, (1, 2): np.zeros((2, 2))}
    )
    report = integrability_check(conn)
    expected = frobenius(SIGMA_X @ SIGMA_Z - SIGMA_Z @ SIGMA_X)  # = 2 sqrt 2
    assert abs(expected - 2 * np.sqrt(2)) < 1e-15
    assert abs(report.max_violation - expected) < 1e-12
    assert not report.passed(1e-12)


def test_integrability_matches_curvature_on_random_commuting_families():
    rng = np.random.default_rng(2)
    base = random_hermitian(3, rng)
    conn = ConfigurationConnection(
        4,
        {(i, j): rng.uniform(-1, 1) * base for i in range(4) for j in range(i + 1, 4)},
    )
    report = integrability_check(conn)
    assert report.max_violation < 1e-12
    for _ in range(5):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = rng.standard_normal(4)
        v = rng.standard_normal(4) * 1j
        assert curvature_residual(conn, z, u, v) < 1e-12


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_points_connection_json_roundtrip():
    conn = PointsConnection((0.0, 1.0 + 1.0j), (random_hermitian(2, RNG), random_hermitian(2, RNG)))
    again = connection_from_json(connection_to_json(conn))
    assert isinstance(again, PointsConnection)
    assert np.allclose(again.residues[1], conn.residues[1])


def test_differences_connection_json_roundtrip():
    conn = DifferencesConnection((0.0, 1.0), (np.eye(2) * 0.1, np.eye(2) * 0.2), reference=5.0)
    again = connection_from_json(connection_to_json(conn))
    assert isinstance(again, DifferencesConnection)
    assert again.reference == 5.0
    eq = again.as_points_connection()
    assert eq.regular_at_infinity
    assert np.allclose(eq.residues[2], -0.3 * np.eye(2))


def test_configuration_connection_json_roundtrip():
    conn = ConfigurationConnection(3, {(0, 1): SIGMA_X, (1, 2): SIGMA_Z})
    again = connection_from_json(connection_to_json(conn))
    assert isinstance(again, ConfigurationConnection)
    assert np.allclose(again.matrix(1, 2), SIGMA_Z)
    assert np.allclose(again.matrix(0, 2), np.zeros((2, 2)))


def test_regular_at_infinity_validated():
    with pytest.raises(ValueError):
        PointsConnection((0.0,), (np.eye(2),), regular_at_infinity=True)


# ---------------------------------------------------------------------------
# One representation: scalar forms against one coefficient stack.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_configuration_contract_matches_explicit_sum(n):
    rng = np.random.default_rng(100 + n)
    d = 3
    terms = {
        (i, j): rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for i in range(n) for j in range(i + 1, n)
    }
    conn = ConfigurationConnection(n, terms)
    for _ in range(5):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = sum(m * ((v[i] - v[j]) / (z[i] - z[j])) for (i, j), m in terms.items())
        assert np.max(np.abs(conn.contract(z, v) - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_coefficients_are_views_of_the_stack():
    conn = ConfigurationConnection(4, {(0, 2): SIGMA_X, (1, 3): SIGMA_Z})
    for pair, m in conn.terms.items():
        assert np.shares_memory(m, conn._stack), pair
    assert np.array_equal(conn.matrix(0, 2), SIGMA_X)
    assert np.array_equal(conn.matrix(0, 1), np.zeros((2, 2)))
    points = PointsConnection((0.0, 1.0), (SIGMA_X, SIGMA_Z))
    diffs = DifferencesConnection((0.0, 1.0), (SIGMA_X, SIGMA_Z), reference=2.0)
    for c in (points, diffs):
        mats = c.residues if isinstance(c, PointsConnection) else c.coefficients
        assert all(np.shares_memory(m, c._stack) for m in mats)


def test_differences_contract_matches_points_form():
    rng = np.random.default_rng(7)
    coeffs = tuple(random_hermitian(2, rng) for _ in range(3))
    conn = DifferencesConnection((0.0, 1.0, 2.0 + 1.0j), coeffs, reference=-1.0 + 0.5j)
    points = conn.as_points_connection()
    assert conn.divisor.points == points.divisor.points
    for _ in range(5):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert np.max(np.abs(conn.contract(z, v) - points.contract(z, v))) <= 1e-13
