import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp as stock_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
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
    TransportError,
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
    braid_word_matrix,
    chern_index,
    curvature_residual,
    invert,
    levelt_pair,
    min_divisor_distance,
    sequential_integrate,
    toeplitz_jets,
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


def count_omega_evaluations(monkeypatch):
    """One entry per evaluation of the form weights, which every Omega
    evaluation, complex (`contract`) or real (`contract_real`), starts from."""
    calls = []
    weights = DifferenceForms.weights

    def counted(self, z, v):
        calls.append(None)
        return weights(self, z, v)

    monkeypatch.setattr(DifferenceForms, "weights", counted)
    return calls


def test_near_pole_cost_grows_like_log(monkeypatch):
    calls = count_omega_evaluations(monkeypatch)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    evals = {}
    for h in (1e-2, 1e-4, 1e-6):
        calls.clear()
        m = transport(conn, near_pole_loop(h), 1e-10)
        evals[h] = len(calls)
    # at h = 1e-2 the pieces are cut to their clearance, which is cheaper
    # still; from h = 1e-4 on the batch is too large to cut, and 100 times
    # closer costs at most 3 times more
    assert evals[1e-2] <= evals[1e-4] and evals[1e-6] <= 3 * evals[1e-4], evals
    assert abs(m[0, 0] - np.exp(2j * np.pi * 0.3)) <= 1e-10


# Close-approach sweeps, largest distance first: the residue dimension, the
# distances, and the path at each distance.
CLOSE_APPROACHES = {
    # the approach line of a generator loop ends at distance r from its pole
    "loop_radius": (2, (1e-1, 1e-2, 1e-3, 1e-4),
                    lambda r: x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, r)[0]),
    # a line passes the pole at 1 at its midpoint, at distance h
    "midpoint_line": (3, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                      lambda h: PiecewisePath((LineSegment(np.array([0.6 - 1j * h]), np.array([1.4 - 1j * h])),))),
}


@pytest.mark.parametrize("sweep", CLOSE_APPROACHES)
def test_close_approaches_cost_about_as_much_as_far_ones(monkeypatch, sweep):
    calls = count_omega_evaluations(monkeypatch)
    d, distances, path_at = CLOSE_APPROACHES[sweep]
    g = np.random.default_rng(5).standard_normal((d, d, 2)) @ np.array([1.0, 1j])
    a = 0.3 * g / np.linalg.norm(g)
    conn = PointsConnection((0.0, 1.0), (a, -a))
    evals = []
    for distance in distances:
        path = path_at(distance)
        # the residues commute, so the transport is expm of the residues
        # times the form periods
        truth = expm(np.tensordot(conn.forms.periods(path), conn.coefficients, 1))
        calls.clear()
        assert np.abs(transport(conn, path, 1e-10) - truth).max() <= 1e-9
        evals.append(len(calls))
    assert evals[-1] <= 2 * evals[0], evals


def test_uniform_clearance_segments_are_single_solves(monkeypatch):
    calls = record_solves(monkeypatch)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    # the six uniform-clearance segments of both standard loops are whole
    # pieces, each cut to its clearance, and all of them share one batched
    # solve
    loops = x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25)
    monodromy_representation(conn, loops, 1e-10)
    pieces = planned_pieces(conn, loops)
    assert len(pieces) == 6
    assert [c.members for c in calls] == [sum(k for *_, k in pieces)]
    calls.clear()
    # the near-pole line is graded into a bounded number of pieces, still
    # one solve
    transport(conn, near_pole_loop(1e-6), 1e-10)
    assert len(calls) == 1
    assert 3 < calls[0].members < 200


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


def companion_matrix(roots) -> np.ndarray:
    """The companion matrix of prod (t - root): ones below the diagonal,
    minus the coefficients in the last column."""
    coeffs = np.poly(roots)
    d = len(roots)
    m = np.zeros((d, d), dtype=complex)
    m[1:, :-1] = np.eye(d - 1)
    m[:, -1] = -coeffs[:0:-1]
    return m


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_hypergeometric_monodromy_is_levelts_companion_pair(data):
    # Levelt (1961; Beukers & Heckman, Invent. Math. 95, 1989): a pair (a, b)
    # with char polys prod (t - e^{2 pi i alpha}) and prod (t - e^{2 pi i
    # beta}), no alpha - beta integer and a^-1 b - 1 of rank one, is
    # conjugate to the pair of companion matrices, so every word in a, b
    # (letters +-1, +-2) has the trace of the same word in the companions.
    # Far from the identity: the exponents spread over (-0.4, 0.41).
    d = data.draw(st.integers(2, 5), label="d")
    gaps = data.draw(st.lists(st.floats(0.03, 0.09), min_size=2 * d - 1, max_size=2 * d - 1))
    points = -0.4 + np.concatenate([[0.0], np.cumsum(gaps)])
    order = data.draw(st.permutations(range(2 * d)))
    alphas, betas = points[list(order[:d])], points[list(order[d:])]
    a0, a1 = levelt_pair(alphas, betas)
    # the trace gap grows with the rank-one residue: 2e-13 at norm 5, 8e-12 at 15
    assume(np.linalg.norm(a1, 2) <= 1.5)
    loops = x4_generator_loops((0, 1), 0.5 - 1.5j, 0.25)
    m0, m1 = monodromy_representation(PointsConnection((0, 1), (a0, a1)), loops, 1e-10).matrices
    got = [m0, m1 @ m0]
    want = [companion_matrix(np.exp(2j * np.pi * alphas)), companion_matrix(np.exp(2j * np.pi * betas))]
    words = data.draw(st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2]), min_size=6, max_size=6), min_size=10, max_size=10
    ))
    for word in words:
        t_got = np.trace(braid_word_matrix(got, word))
        t_want = np.trace(braid_word_matrix(want, word))
        assert abs(t_got - t_want) <= 1e-9 * max(1.0, abs(t_want)), word


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
    # `transports` cuts every piece to its clearance here, in real form
    rng = np.random.default_rng(seed)
    conn = sum_free_connection(rng, d)
    loops = standard_loops(conn)
    eye = np.eye(d, dtype=complex)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_solves(mp)
        ends = fuchsian.transports(conn, loops, 1e-10)
    assert [(c.members, c.real) for c in calls] == [(sum(k for *_, k in planned_pieces(conn, loops)), True)]
    for got, loop in zip(ends, loops):
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


@settings(derandomize=True, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), log_h=st.floats(-6.0, -1.0))
@example(seed=1, d=2, log_h=-1.5)  # cut: 39 members
@example(seed=2, d=3, log_h=-5.0)  # whole: 31 pieces
def test_cut_near_pole_loops_match_the_per_piece_solves(seed, d, log_h):
    # a loop past a pole at h is cut while its graded pieces' cuts stay
    # within B_floor = (tol / 1e-11)^2 = 100 members, and solved whole beyond
    rng = np.random.default_rng(seed)
    conn = PointsConnection((0.0, 1.0), [0.3 * g / np.linalg.norm(g) for g in
                                          (random_block(rng, d, d) for _ in range(2))])
    loop = near_pole_loop(10.0 ** log_h)
    pieces = planned_pieces(conn, [loop])
    members = sum(k for *_, k in pieces)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_solves(mp)
        (got,) = fuchsian.transports(conn, [loop], 1e-10)
    assert [c.members for c in calls] == [members if members <= 100 else len(pieces)]
    assert frobenius(got - sequential_integrate(loop, conn, np.eye(d, dtype=complex), 1e-10)) <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@settings(derandomize=True, deadline=None, max_examples=2)
@given(lam=st.floats(4.5, 9.5))
def test_half_twists_are_cut_below_the_state_bound_only(n, lam):
    # each half-twist is 3 x its clearance long; n - 1 of them are cut and
    # real up to n = 5 (at most 12 x 10^2 entries), whole and complex at
    # n = 7 (6 x 35^2 = 7,350 > W entries)
    conn = build_kz([SpinModule(0.5)] * n, lam)._hw_connection
    twists = [braid_word_path(n, [i]) for i in range(1, n)]
    with pytest.MonkeyPatch.context() as mp:
        calls = record_solves(mp)
        ends = fuchsian.transports(conn, twists, 1e-10)
    cut = n < 7
    assert [(c.members, c.real) for c in calls] == [((n - 1) * (3 if cut else 1), cut)]
    eye = np.eye(conn.dim, dtype=complex)
    for got, path in zip(ends, twists):
        assert frobenius(got - sequential_integrate(path, conn, eye, 1e-10)) <= 1e-9


def test_batches_over_the_state_bound_or_the_floor_stay_whole(monkeypatch):
    # cut, the four loops' 12 pieces make sum ceil(length / clearance) > 12
    # members; at d = 8 those hold more than W = 4,096 entries and at
    # tol 1e-11 they are more than B_floor = 1, so the pieces stay whole.
    # A whole state within W entries is still real; one past W is complex.
    calls = record_solves(monkeypatch)
    for d, tol, real in ((8, 1e-10, True), (19, 1e-10, False), (1, 1e-11, True)):
        conn = sum_free_connection(np.random.default_rng(d), d)
        loops = standard_loops(conn)
        calls.clear()
        fuchsian.transports(conn, loops, tol)
        members = sum(k for *_, k in planned_pieces(conn, loops))
        assert members * d * d > fuchsian.SMALL_STATE or members > (tol / 1e-11) ** 2
        assert [(c.members, c.entries, c.real) for c in calls] == [(12, 12 * d * d, real)]


class Solve(NamedTuple):
    members: int  # rows of the batch: pieces, or sub-pieces when cut
    entries: int  # complex entries of the state
    real: bool  # carried as [Re Y; Im Y]
    rtol: float
    atol: float
    max_step: float


def record_solves(monkeypatch):
    """A `Solve` record of every solve `fuchsian` makes."""
    calls = []
    solve_ivp = fuchsian.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        real = np.isrealobj(y0)
        calls.append(Solve(kwargs["shape"][0], len(y0) // 2 if real else len(y0), real,
                           kwargs["rtol"], kwargs["atol"], kwargs["max_step"]))
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", recording)
    return calls


def planned_pieces(conn, paths, tol=1e-10):
    """(piece, clearance, ceil(length / clearance)) of every planned piece."""
    return [(piece, c, int(np.ceil(piece.max_speed() / c)))
            for plan in fuchsian._plan(conn, paths, tol) for piece, c in plan]


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
def test_batch_tolerances_scale_with_one_over_root_batch(monkeypatch, tol):
    # B counts the members of the batch: the sub-pieces where the pieces are
    # cut (tol 1e-8, 1e-10), the pieces where they are not (tol 1e-13)
    calls = record_solves(monkeypatch)
    conn = sum_free_connection(np.random.default_rng(5), 2)
    loops = standard_loops(conn)
    circle = PiecewisePath(loops[0].segments[1:2])
    fuchsian.transports(conn, [circle], tol)
    fuchsian.transports(conn, loops, tol)
    fuchsian.transports(conn, loops[:1], tol)
    cut = tol > 1e-11
    for call, paths in zip(calls, ([circle], loops, loops[:1])):
        pieces = planned_pieces(conn, paths, tol)
        batch = sum(k for *_, k in pieces) if cut else len(pieces)
        assert call.members == batch and call.entries == batch * 4
        assert call.rtol == max(tol * 1e-2 / np.sqrt(batch), 3e-14)
        assert call.atol == max(tol * 1e-3 / np.sqrt(batch), 1e-14)


def test_batch_step_cap_is_the_smallest_member_cap(monkeypatch):
    # at tol 1e-12 no piece is cut, and each member's cap is its piece's
    calls = record_solves(monkeypatch)
    conn = PointsConnection((0.0, 1.0), (np.array([[0.3]]), np.array([[-0.3]])))
    near = near_pole_loop(1e-3)
    far = x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25)
    fuchsian.transports(conn, far, 1e-12)
    fuchsian.transports(conn, [near], 1e-12)
    fuchsian.transports(conn, [near, *far], 1e-12)
    assert [c.members for c in calls] == [6, calls[1].members, 6 + calls[1].members]
    assert calls[2].max_step == min(calls[0].max_step, calls[1].max_step)


def test_monodromy_command_is_one_solve_of_twelve_pieces(tmp_path, monkeypatch, capsys):
    # the twelve pieces of four standard loops are one solve, each piece cut
    # into ceil(length / clearance) members; a member's cap is 0.5 x
    # clearance / its own speed, length / cuts, at least 0.5
    calls = record_solves(monkeypatch)
    for d in (1, 3):
        conn = sum_free_connection(np.random.default_rng(d), d)
        loops = standard_loops(conn)
        (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
        (tmp_path / "loops.json").write_text(json.dumps(loops_to_json(loops)))
        calls.clear()
        assert cli.main(["fuchsian", "monodromy", "--conn", str(tmp_path / "conn.json"),
                         "--loops", str(tmp_path / "loops.json")]) == 0
        capsys.readouterr()
        pieces = planned_pieces(conn, loops)
        members = sum(k for *_, k in pieces)
        assert len(pieces) == 12 and members > 12
        assert [(c.members, c.entries, c.real) for c in calls] == [(members, members * d * d, True)]
        caps = [min(1.0, 0.5 * c * k / piece.max_speed()) for piece, c, k in pieces]
        assert calls[0].max_step == min(caps) >= 0.5


@pytest.mark.parametrize("m, order, d", [(2, 3, 2), (3, 4, 1)])
def test_jet_blocks_are_not_widened(monkeypatch, m, order, d):
    # a jet transport carries the thin (K + 1) d x d first block column of
    # every piece of every loop, never the (K + 1) d square propagator, in
    # one solve of at least the 3 m pieces of the m loops
    calls = record_solves(monkeypatch)
    rng = np.random.default_rng(m)
    forms = DifferenceForms(tuple(float(k) for k in range(m)))
    loops = x4_generator_loops(forms.points, (m - 1) / 2 - 1.5j, 0.3)
    fam = ConnectionFamily(forms, tuple(tuple(random_hermitian(d, rng, 0.3) for _ in range(order))
                                        for _ in range(m)))
    jets = jet_monodromy(fam, loops, order, 1e-10)
    assert [len(j) for j in jets] == [order] * m
    (call,) = calls
    assert call.members >= 3 * m and call.entries == call.members * (order + 1) * d * d


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 8), d=st.integers(1, 4), m=st.integers(2, 3))
@example(seed=0, order=8, d=4, m=3)
def test_jets_compose_piece_columns_as_the_toeplitz_propagator(seed, order, d, m):
    # each piece's thin first block column, composed by truncated Cauchy
    # products (later piece on the left), is the first block column of the
    # whole propagator; the near-pole loop at h = 1e-4 composes graded pieces
    rng = np.random.default_rng(seed)
    forms = DifferenceForms(tuple(float(k) for k in range(m)))
    loops = [near_pole_loop(1e-4), *x4_generator_loops(forms.points, (m - 1) / 2 - 1.5j, 0.3)]
    fam = ConnectionFamily(forms, tuple(tuple(random_hermitian(d, rng, 0.3) for _ in range(order))
                                        for _ in range(m)))
    got = jet_monodromy(fam, loops, order, 1e-10)
    for jets, want in zip(got, toeplitz_jets(fam, loops, order, 1e-10)):
        assert np.linalg.norm(np.subtract(jets, want)) <= 1e-9 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# The batched stepper against scipy's stock DOP853.
# ---------------------------------------------------------------------------

def twin_solves(monkeypatch):
    """(solution, Connection.contract calls, stock solution) of every solve
    `fuchsian` makes; the stock solution is scipy's own DOP853 run on the same
    right-hand side with the same tolerances and step cap."""
    runs = []
    solve_ivp, contract = fuchsian.solve_ivp, Connection.contract
    calls = []

    def counted(self, z, v):
        calls.append(None)
        return contract(self, z, v)

    def twin(fun, t_span, y0, **kwargs):
        calls.clear()
        sol = solve_ivp(fun, t_span, y0, **kwargs)
        used = len(calls)
        stock = {k: v for k, v in kwargs.items() if k not in ("omegas", "shape")}
        runs.append((sol, used, stock_solve_ivp(fun, t_span, y0, **stock, method="DOP853")))
        return sol

    monkeypatch.setattr(Connection, "contract", counted)
    monkeypatch.setattr(fuchsian, "solve_ivp", twin)
    return runs


def test_the_tableau_is_scipys_dop853():
    c = dop853_coefficients
    assert np.array_equal(fuchsian._A[1:12, :12], c.A[1:12, :12])
    assert np.array_equal(fuchsian._B, c.B)
    assert np.array_equal(fuchsian._C, c.C[1:12])
    assert np.array_equal(fuchsian._E3, c.E3)
    assert np.array_equal(fuchsian._E5, c.E5)


def assert_stock_steps(runs):
    assert runs
    for sol, _, stock in runs:
        assert sol.status == stock.status == 0
        assert (sol.nfev, len(sol.t)) == (stock.nfev, len(stock.t))
        end, want = sol.y[:, -1], stock.y[:, -1]
        assert np.max(np.abs(end - want)) <= 1e-14 * np.max(np.abs(want))


def rejected_attempts(stock):
    """Stock DOP853 takes 2 start-up evaluations and 12 per step attempt."""
    return (stock.nfev - 2) // 12 - (len(stock.t) - 1)


def test_batched_stepper_takes_the_stock_steps_on_x4_loops(monkeypatch):
    runs = twin_solves(monkeypatch)
    conn = sum_free_connection(np.random.default_rng(3), 2)
    fuchsian.transports(conn, standard_loops(conn), 1e-10)
    assert_stock_steps(runs)


def test_batched_stepper_takes_the_stock_steps_near_a_pole(monkeypatch):
    runs = twin_solves(monkeypatch)
    conn = PointsConnection((0.0, 1.0), (0.3 * SIGMA_X, -0.2 * SIGMA_Z))
    fuchsian.transports(conn, [near_pole_loop(1e-4), *x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25)], 1e-10)
    assert_stock_steps(runs)
    assert sum(rejected_attempts(stock) for *_, stock in runs) > 0


def test_batched_stepper_takes_the_stock_steps_on_kz_half_twists(monkeypatch):
    runs = twin_solves(monkeypatch)
    conn = build_kz([SpinModule(0.5)] * 5, 7.5)._hw_connection
    fuchsian.transports(conn, [braid_word_path(5, [i]) for i in range(1, 5)], 1e-10)
    assert_stock_steps(runs)


def test_batched_stepper_takes_the_stock_steps_on_jets(monkeypatch):
    runs = twin_solves(monkeypatch)
    rng = np.random.default_rng(4)
    forms = DifferenceForms((0.0, 1.0))
    fam = ConnectionFamily(forms, tuple(tuple(random_hermitian(2, rng, 0.3) for _ in range(4))
                                        for _ in range(2)))
    jet_monodromy(fam, x4_generator_loops(forms.points, 0.5 - 1.5j, 0.3), 4, 1e-10)
    assert len(runs) == 1
    assert_stock_steps(runs)


def test_one_contraction_per_step_attempt(monkeypatch):
    # the 12 stage connections of an attempt are one Omega evaluation; only
    # the two start-up evaluations are single.  The first batch is too
    # large to cut and has rejected attempts, the second is cut.
    evaluations = count_omega_evaluations(monkeypatch)
    runs = []
    solve_ivp = fuchsian.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        evaluations.clear()
        sol = solve_ivp(fun, t_span, y0, **kwargs)
        runs.append((sol, len(evaluations), kwargs["shape"][0]))
        return sol

    monkeypatch.setattr(fuchsian, "solve_ivp", counted)
    conn = sum_free_connection(np.random.default_rng(6), 2)
    paths = [near_pole_loop(1e-3), *standard_loops(conn)]
    fuchsian.transports(conn, paths, 1e-10)
    fuchsian.transports(conn, paths[1:], 1e-10)
    (whole, used, pieces), (cut, cut_used, members) = runs
    assert pieces == len(planned_pieces(conn, paths)) and members > 12
    assert rejected_attempts(whole) > 0
    for sol, n in ((whole, used), (cut, cut_used)):
        assert sol.status == 0
        assert n == 2 + (sol.nfev - 2) // 12


class _NaNRightOfHalf(DifferenceForms):
    """Forms whose weights, and so Omega, are NaN where Re z > 0.5."""

    def weights(self, z, v):
        return np.where(z[..., :1].real > 0.5, np.nan, super().weights(z, v))


def run_python(args, timeout=60):
    """Run `python args` on this checkout's package; a hang fails by timeout."""
    src = str(Path(fuchsian.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "ignore"}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("tol", ["1e-10", "1e-12"])
def test_omega_overflowing_at_a_piece_start_exits_2(tmp_path, tol):
    # the 1e308 residue overflows Omega to inf on the circle around pole 0
    # and inf * 0 gives NaN; at tol 1e-10 the pieces are cut and real, at
    # 1e-12 they are whole and the circle starts at an infinite Omega
    conn = PointsConnection((0.0, 1.0), (np.array([[1e308, 1.0], [0.0, 1.0]]), np.eye(2)))
    (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
    loops = x4_generator_loops((0.0, 1.0), 0.5 - 1.5j, 0.25)
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json(loops)))
    proc = run_python(["-m", "monogate.cli", "fuchsian", "monodromy", "--conn", str(tmp_path / "conn.json"),
                       "--loops", str(tmp_path / "loops.json"), "--tol", tol])
    assert proc.returncode == 2, proc.stderr
    assert "numerical failure" in proc.stderr


def test_a_nan_first_step_fails_the_solve():
    # the start-up step from a NaN rate is NaN, and every attempt at a
    # NaN step would be rejected without end
    proc = run_python(["-c", "\n".join([
        "import numpy as np",
        "from monogate import fuchsian",
        "sol = fuchsian.solve_ivp(lambda t, y: np.full(1, np.nan), (0.0, 1.0), np.ones(1),",
        "    omegas=lambda ts: np.full((len(ts), 1, 1, 1), np.nan),",
        "    shape=(1, 1, 1), rtol=1e-12, atol=1e-13, max_step=1.0)",
        "print(sol.status, sol.message)",
    ])])
    assert proc.stdout.strip() == "-1 the first step is not finite", proc.stderr


def test_the_cli_does_not_load_scipy_integrate():
    proc = run_python(["-c", "import sys, monogate.cli; print('scipy.integrate' in sys.modules)"])
    assert proc.stdout.strip() == "False", proc.stderr


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_connection_is_a_transport_error(monkeypatch):
    # past Re z = 0.5 every attempt is rejected until the step underflows
    runs = twin_solves(monkeypatch)
    conn = Connection(_NaNRightOfHalf((0.0, 1.0)), (np.array([[0.3]]), np.array([[-0.3]])))
    line = PiecewisePath((LineSegment(np.array([0.0 - 1.0j]), np.array([1.0 - 1.0j])),))
    with pytest.raises(TransportError, match="step size"):
        transport(conn, line, 1e-10)
    ((sol, _, stock),) = runs
    assert sol.status == stock.status == -1
    assert (sol.nfev, len(sol.t)) == (stock.nfev, len(stock.t))
