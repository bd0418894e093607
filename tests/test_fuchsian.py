import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from monogate.fuchsian import (
    BranchCutError,
    ConfigurationForms,
    Connection,
    DefectiveMatrixError,
    DifferenceForms,
    DivisorContactError,
    MonodromyRepresentation,
    PointsConnection,
    connection_from_json,
    connection_to_json,
    integrability_check,
    monodromy_representation,
    residue_log,
    transport,
    x4_generator_loops,
)
from monogate.gate_core import SIGMA_X, SIGMA_Z
from monogate.matrices import frobenius, random_hermitian
from monogate import cli, fuchsian
from monogate.kz import SpinModule, build_kz
from monogate.lappo_danilevski import ConnectionFamily, jet_monodromy
from monogate.paths import (
    ArcSegment,
    LineSegment,
    PiecewisePath,
    PointsDivisor,
    braid_word_path,
    generator_loop,
    loops_to_json,
)
from monogate.universality import haar_su2_samples
from oracles import (
    as_points_connection,
    chern_index,
    curvature_residual,
    invert,
    min_divisor_distance,
    sequential_integrate,
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
        path = PiecewisePath(loop.segments * abs(w))
        m = transport(conn, path, 1e-11)
        assert frobenius(m - expm(2j * np.pi * w * a)) < 1e-9


def test_transport_multiplicative():
    a = random_traceless_hermitian(RNG)
    conn = PointsConnection((0.0,), (a,))
    seg1 = PiecewisePath((LineSegment(np.array([2.0]), np.array([1.0 + 1.0j])),))
    seg2 = PiecewisePath((LineSegment(np.array([1.0 + 1.0j]), np.array([-1.5 + 0.5j])),))
    t1 = transport(conn, seg1, 1e-11)
    t2 = transport(conn, seg2, 1e-11)
    both = transport(conn, PiecewisePath(seg1.segments + seg2.segments), 1e-11)
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
    m = transport(conn, PiecewisePath(unit_loop.segments + invert(unit_loop).segments), 1e-10)
    assert frobenius(m - np.eye(2)) < 1e-9


def test_divisor_contact_rejected():
    conn = PointsConnection((0.0,), (np.eye(2),))
    through = PiecewisePath((LineSegment(np.array([-1.0]), np.array([1.0])),))
    with pytest.raises(DivisorContactError):
        transport(conn, through, 1e-10)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_integrate_along_needs_finite_positive_tol(unit_loop, tol, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("tol must be rejected before any solve")

    monkeypatch.setattr(fuchsian, "solve_ivp", no_solve)
    conn = PointsConnection((0.0,), (np.eye(2),))
    with pytest.raises(ValueError, match="tol"):
        fuchsian.integrate_along([unit_loop], conn, [np.eye(2)], tol)
    with pytest.raises(ValueError, match="tol"):
        fuchsian.transports(conn, [unit_loop], tol)


def test_integrate_along_transports_a_column_block():
    # a (d, 2) start block is carried like its columns: Y(end) = F Y0
    rng = np.random.default_rng(71)
    loop_conn = Connection(DifferenceForms((0.0, 1.0)), [random_hermitian(2, rng, 0.4) for _ in range(2)])
    braid_conn = Connection(ConfigurationForms(3), [random_hermitian(3, rng, 0.3) for _ in range(3)])
    cases = [
        (loop_conn, generator_loop(0.5 - 1.5j, 0.0, 0.3, avoid=(1.0,))),
        (braid_conn, braid_word_path(3, [1, -2, 1])),
    ]
    for conn, path in cases:
        y0 = rng.standard_normal((conn.dim, 2)) + 1j * rng.standard_normal((conn.dim, 2))
        (got,) = fuchsian.integrate_along([path], conn, [y0], 1e-11)
        assert got.shape == y0.shape
        assert frobenius(got - transport(conn, path, 1e-11) @ y0) < 1e-9


def test_dimension_mismatch_rejected(unit_loop):
    conn = Connection(ConfigurationForms(2), [np.eye(2)])
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
    way_out = invert(PiecewisePath(tuple(way_in))).segments
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
    # a d = 1 solve's state holds one entry per piece
    pieces = []
    solve_ivp = fuchsian.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        pieces.append(len(y0))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", counted)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    # the six uniform-clearance segments of both standard loops are whole
    # pieces, and all of them share one batched solve
    monodromy_representation(conn, x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25), 1e-10)
    assert pieces == [6]
    pieces.clear()
    # the near-pole line is graded into a bounded number of pieces, still
    # one solve
    transport(conn, near_pole_loop(1e-6), 1e-10)
    assert len(pieces) == 1
    assert 3 < pieces[0] < 200


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


def test_open_path_rejected_as_monodromy_loop():
    conn = PointsConnection((0.0,), (np.eye(1) * 0.3,))
    open_path = PiecewisePath((LineSegment(np.array([2.0 + 0j]), np.array([1.0 + 1.0j])),))
    with pytest.raises(ValueError, match="gamma_2 is not a closed loop"):
        monodromy_representation(conn, [generator_loop(2.0, 0.0, 0.5), open_path], 1e-10)


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
        m = haar_su2_samples(1, rng)[0]
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
        m1, m2, m3 = haar_su2_samples(3, rng)
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
    conn = Connection(ConfigurationForms(3), [0.3 * base, -1.1 * base, 0.8 * base])
    point = np.array([0.0, 1.0, 2.5 + 1.0j])
    u = np.array([1.0, -0.5j, 0.3])
    v = np.array([0.2, 1.0, -1.0j])
    assert curvature_residual(conn, point, u, v) < 1e-12


def test_curvature_rejects_divisor_point():
    conn = Connection(ConfigurationForms(2), [np.eye(2)])
    with pytest.raises(DivisorContactError):
        curvature_residual(conn, [1.0, 1.0], [1.0, 0.0], [0.0, 1.0])


def test_integrability_vacuous_for_two_points():
    conn = Connection(ConfigurationForms(2), [random_hermitian(2, RNG)])
    report = integrability_check(conn)
    assert report.max_violation == 0.0


def test_integrability_violation_reported():
    conn = Connection(ConfigurationForms(3), [SIGMA_X, SIGMA_Z, np.zeros((2, 2))])
    report = integrability_check(conn)
    expected = frobenius(SIGMA_X @ SIGMA_Z - SIGMA_Z @ SIGMA_X)  # = 2 sqrt 2
    assert abs(expected - 2 * np.sqrt(2)) < 1e-15
    assert abs(report.max_violation - expected) < 1e-12
    assert report.max_violation > 1e-12


def test_integrability_matches_curvature_on_random_commuting_families():
    rng = np.random.default_rng(2)
    base = random_hermitian(3, rng)
    forms = ConfigurationForms(4)
    conn = Connection(forms, [rng.uniform(-1, 1) * base for _ in forms.pairs])
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
    assert again.forms == conn.forms
    assert np.allclose(again.coefficients[1], conn.coefficients[1])


def test_differences_connection_json_roundtrip():
    conn = Connection(DifferenceForms((0.0, 1.0), reference=5.0), [np.eye(2) * 0.1, np.eye(2) * 0.2])
    again = connection_from_json(connection_to_json(conn))
    assert isinstance(again.forms, DifferenceForms)
    assert again.forms.reference == 5.0
    eq = as_points_connection(again)
    assert frobenius(eq.coefficients.sum(axis=0)) <= 1e-12
    assert np.allclose(eq.coefficients[2], -0.3 * np.eye(2))


def test_configuration_connection_json_roundtrip():
    forms = ConfigurationForms(3)
    conn = Connection(forms, [SIGMA_X, np.zeros((2, 2)), SIGMA_Z])
    obj = connection_to_json(conn)
    assert [(t["i"], t["j"]) for t in obj["terms"]] == [(1, 2), (1, 3), (2, 3)]
    # a file may leave out pairs; the reader puts zeros there
    obj["terms"] = [t for t in obj["terms"] if (t["i"], t["j"]) != (1, 3)]
    again = connection_from_json(obj)
    assert again.forms == forms
    assert np.allclose(again.coefficients[forms.pairs.index((1, 2))], SIGMA_Z)
    assert np.allclose(again.coefficients[forms.pairs.index((0, 2))], np.zeros((2, 2)))


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
    forms = ConfigurationForms(n)
    conn = Connection(forms, [terms[pair] for pair in forms.pairs])
    for _ in range(5):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = sum(m * ((v[i] - v[j]) / (z[i] - z[j])) for (i, j), m in terms.items())
        assert np.max(np.abs(conn.contract(z, v) - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_coefficients_are_views_of_the_stack():
    forms = ConfigurationForms(4)
    terms = {(0, 2): SIGMA_X, (1, 3): SIGMA_Z}
    conn = Connection(forms, [terms.get(pair, np.zeros((2, 2))) for pair in forms.pairs])
    for pair, m in zip(forms.pairs, conn.coefficients):
        assert np.shares_memory(m, conn._stack), pair
    assert np.array_equal(conn.coefficients[forms.pairs.index((0, 2))], SIGMA_X)
    assert np.array_equal(conn.coefficients[forms.pairs.index((0, 1))], np.zeros((2, 2)))
    points = PointsConnection((0.0, 1.0), (SIGMA_X, SIGMA_Z))
    diffs = Connection(DifferenceForms((0.0, 1.0), reference=2.0), [SIGMA_X, SIGMA_Z])
    for c in (conn, points, diffs):
        assert all(np.shares_memory(m, c._stack) for m in c.coefficients)
        assert not c.coefficients.flags.writeable


def test_differences_contract_matches_points_form():
    rng = np.random.default_rng(7)
    coeffs = tuple(random_hermitian(2, rng) for _ in range(3))
    conn = Connection(DifferenceForms((0.0, 1.0, 2.0 + 1.0j), reference=-1.0 + 0.5j), coeffs)
    points = as_points_connection(conn)
    assert conn.divisor.points == points.divisor.points
    for _ in range(5):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert np.max(np.abs(conn.contract(z, v) - points.contract(z, v))) <= 1e-13


def test_coincident_punctures_rejected_at_construction():
    with pytest.raises(ValueError, match="not separated"):
        PointsConnection((0.0, 0.0), (np.eye(2), -np.eye(2)))
    with pytest.raises(ValueError, match="not separated"):
        DifferenceForms((0, 1), reference=1)


def test_form_systems_build_their_divisor_once():
    forms = DifferenceForms((0.0, 1.0), reference=2.0)
    assert forms.divisor is forms.divisor
    assert forms.divisor.points == (0.0, 1.0, 2.0)
    config = ConfigurationForms(4)
    assert config.divisor is config.divisor and config.divisor.n == 4


# ---------------------------------------------------------------------------
# Batched solves: every piece of every path in one DOP853 run.
# ---------------------------------------------------------------------------

def sum_free_connection(rng, d):
    """Four poles near 0, 1, 2, 3 with random residues summing to zero."""
    poles = np.arange(4.0) + rng.uniform(-0.05, 0.05, 4)
    res = [0.3 * g / np.linalg.norm(g) for g in
           (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3))]
    return PointsConnection(poles, (*res, -sum(res)), regular_at_infinity=True)


def standard_loops(conn):
    poles = conn.forms.points
    return x4_generator_loops(poles, np.mean(poles).real - 1.5j, 0.25)


def random_block(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
def test_batched_transport_matches_the_per_piece_solves_on_standard_loops(seed, d):
    rng = np.random.default_rng(seed)
    conn = sum_free_connection(rng, d)
    loops = standard_loops(conn)
    eye = np.eye(d, dtype=complex)
    for got, loop in zip(fuchsian.transports(conn, loops, 1e-10), loops):
        assert frobenius(got - sequential_integrate(loop, conn, eye, 1e-10)) <= 1e-9
    y0 = random_block(rng, d, 2)
    for got, loop in zip(fuchsian.integrate_along(loops, conn, [y0] * len(loops), 1e-10), loops):
        assert frobenius(got - sequential_integrate(loop, conn, y0, 1e-10)) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), log_h=st.floats(-6.0, -1.0))
def test_batched_transport_matches_the_per_piece_solves_near_a_pole(seed, d, log_h):
    # the near-pole loop shares its batch with two far loops, so the
    # smallest step cap and the 1 / sqrt(B) tolerances act on all of them
    rng = np.random.default_rng(seed)
    conn = PointsConnection((0.0, 1.0), [0.3 * g / np.linalg.norm(g) for g in
                                          (random_block(rng, d, d) for _ in range(2))])
    paths = [near_pole_loop(10.0 ** log_h), *x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25)]
    eye = np.eye(d, dtype=complex)
    for got, path in zip(fuchsian.transports(conn, paths, 1e-10), paths):
        assert frobenius(got - sequential_integrate(path, conn, eye, 1e-10)) <= 1e-9
    y0 = random_block(rng, d, 1)
    for got, path in zip(fuchsian.integrate_along(paths, conn, [y0] * 3, 1e-10), paths):
        assert frobenius(got - sequential_integrate(path, conn, y0, 1e-10)) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=6)
@given(n=st.integers(3, 5), lam=st.floats(4.5, 9.5))
def test_batched_half_twists_match_the_per_piece_solves(n, lam):
    conn = build_kz([SpinModule(0.5)] * n, lam)._hw_connection
    twists = [braid_word_path(n, [i]) for i in range(1, n)]
    eye = np.eye(conn.dim, dtype=complex)
    for got, path in zip(fuchsian.transports(conn, twists, 1e-10), twists):
        assert frobenius(got - sequential_integrate(path, conn, eye, 1e-10)) <= 1e-9
    full = [braid_word_path(n, [i, i]) for i in range(1, n)]
    for got, path in zip(fuchsian.integrate_along(full, conn, [eye] * len(full), 1e-10), full):
        assert frobenius(got - sequential_integrate(path, conn, eye, 1e-10)) <= 1e-9


def record_solves(monkeypatch):
    """(state size, rtol, atol, max_step) of every solve `fuchsian` makes."""
    calls = []
    solve_ivp = fuchsian.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        calls.append((len(y0), kwargs["rtol"], kwargs["atol"], kwargs["max_step"]))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", recording)
    return calls


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
def test_batch_tolerances_scale_with_one_over_root_batch(monkeypatch, tol):
    calls = record_solves(monkeypatch)
    conn = sum_free_connection(np.random.default_rng(5), 2)
    loops = standard_loops(conn)
    circle = PiecewisePath(loops[0].segments[1:2])
    fuchsian.transports(conn, [circle], tol)
    fuchsian.transports(conn, loops, tol)
    fuchsian.transports(conn, loops[:1], tol)
    for (size, rtol, atol, _), batch in zip(calls, (1, 12, 3)):
        assert size == batch * 4
        assert rtol == max(tol * 1e-2 / np.sqrt(batch), 3e-14)
        assert atol == max(tol * 1e-3 / np.sqrt(batch), 1e-14)


def test_batch_step_cap_is_the_smallest_member_cap(monkeypatch):
    calls = record_solves(monkeypatch)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    near = near_pole_loop(1e-3)
    far = x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25)
    fuchsian.transports(conn, far, 1e-10)
    fuchsian.transports(conn, [near], 1e-10)
    fuchsian.transports(conn, [near, *far], 1e-10)
    assert calls[2][3] == min(calls[0][3], calls[1][3])


def test_monodromy_command_is_one_solve_of_twelve_pieces(tmp_path, monkeypatch, capsys):
    calls = record_solves(monkeypatch)
    for d in (1, 3):
        conn = sum_free_connection(np.random.default_rng(d), d)
        (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
        (tmp_path / "loops.json").write_text(json.dumps(loops_to_json(standard_loops(conn))))
        calls.clear()
        assert cli.main(["fuchsian", "monodromy", "--conn", str(tmp_path / "conn.json"),
                         "--loops", str(tmp_path / "loops.json")]) == 0
        capsys.readouterr()
        assert [size for size, *_ in calls] == [12 * d * d]


@pytest.mark.parametrize("m, order, d", [(2, 3, 2), (3, 4, 1)])
def test_jet_blocks_are_not_widened(monkeypatch, m, order, d):
    # a jet transport carries the thin (K + 1) d x d first block column of
    # every loop, never the (K + 1) d square propagator
    calls = record_solves(monkeypatch)
    rng = np.random.default_rng(m)
    forms = DifferenceForms(tuple(float(k) for k in range(m)))
    loops = x4_generator_loops(forms.points, (m - 1) / 2 - 1.5j, 0.3)
    fam = ConnectionFamily(forms, tuple(tuple(random_hermitian(d, rng, 0.3) for _ in range(order))
                                        for _ in range(m)))
    jets = jet_monodromy(fam, loops, order, 1e-10)
    assert [len(j) for j in jets] == [order] * m
    assert [size for size, *_ in calls] == [m * (order + 1) * d * d] * 3
