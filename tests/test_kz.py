from functools import cache, reduce
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from monogate import cli, fuchsian, kz
from monogate.fuchsian import (
    ConfigurationForms,
    Connection,
    DivisorContactError,
    NumericsError,
    integrability_check,
    transport,
)
from monogate.gate_core import SIGMA_X, SIGMA_Z
from monogate.kz import (
    SpinModule,
    braid_matrix,
    build_kz,
    casimir_omega,
    two_point_transport_factor,
    _isotypic_towers,
    _unitarize_block,
    unitarize_kz,
    verify_braid_relations,
)
from monogate.matrices import frobenius, unitarity_defect
from monogate.paths import LineSegment, PiecewisePath, braid_word_path
from oracles import (
    braid_word_matrix,
    casimir_omega_via_coproduct,
    casimir_value,
    dense_on_sites,
    flip_operator,
    full_space_braid_matrix,
    jimbo_braid_rep,
    pure_braid_unitarity,
    random_unitary,
    total_spin_operators,
    two_point_solution,
    unitarize_representation,
)

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
        assert frobenius(c - casimir_value(m) * np.eye(m.dim)) < 1e-12


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
    assert conn.forms.pairs == [(0, 1)]
    assert np.allclose(conn.coefficients[0], PRINTED_OMEGA / 3.0)


def test_omega_acts_trivially_outside_its_factors(sys3):
    # O_12 commutes with operators supported on the third factor
    om = sys3._coupling(0, 1, np.eye(sys3.dim, dtype=complex))
    probe = np.kron(np.eye(4), SIGMA_X + 0.7 * SIGMA_Z)
    assert frobenius(om @ probe - probe @ om) < 1e-12
    assert frobenius(om - om.conj().T) < 1e-12  # Hermitian


def test_kz_flatness_n3_n4():
    for n in (3, 4):
        sysn = build_kz([HALF] * n, 3.0)
        assert integrability_check(sysn.connection()).max_violation <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flatness_checked_on_three_sites_catches_a_broken_coupling(n, monkeypatch):
    # a coupling that is not sl2 invariant breaks the infinitesimal braid
    # relations; the three-site check must see it for every n >= 3
    honest = kz.casimir_omega

    def broken(vi, vj):
        out = honest(vi, vj)
        out[0, 0] += 0.3
        return out

    monkeypatch.setattr(kz, "casimir_omega", broken)
    with pytest.raises(ValueError, match="not flat"):
        build_kz([HALF] * n, 3.0)


def test_zero_coupling_rejected():
    with pytest.raises(ValueError):
        build_kz([HALF, HALF], 0.0)
    with pytest.raises(ValueError):
        build_kz([HALF], 3.0)


def test_zero_omegas_transport_identity():
    conn = Connection(ConfigurationForms(3), np.zeros((3, 1, 1)))
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
    assert abs(ConfigurationForms(2).periods(loop)[0] - 2j * np.pi) < 1e-8
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


def test_two_point_factor_rejects_a_path_grazing_the_diagonal():
    # z_1 - z_2 runs from -1 to 1 - 1e-10 i, passing within 1e-10 of zero
    seg = LineSegment(np.array([0.0, 1.0], complex), np.array([1.0, 1e-10j], complex))
    with pytest.raises(DivisorContactError):
        two_point_transport_factor(PRINTED_OMEGA, 3.0, PiecewisePath((seg,)))


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


def clockwise_gate(sys, i, tol):
    """The gate of the clockwise half-twist: the flip after transport along sigma_i^{-1}."""
    half = transport(sys.connection(), braid_word_path(sys.n, [-i]), tol)
    return flip_operator(sys.n, sys.modules[0].dim, i) @ half


def test_half_twist_closed_form_both_orientations(sys2):
    # clockwise half-twist with the flip divided out reproduces e^{-i pi O / lam}
    p = flip_operator(2, 2, 1)
    b_cw = clockwise_gate(sys2, 1, 1e-11)
    b_ccw = braid_matrix(sys2, 1, 1e-11)
    assert frobenius(p @ b_cw - expm(-1j * np.pi * PRINTED_OMEGA / 3.0)) < 1e-9
    assert frobenius(p @ b_ccw - expm(+1j * np.pi * PRINTED_OMEGA / 3.0)) < 1e-9


def test_opposite_orientations_are_inverse(sys3):
    b = braid_matrix(sys3, 1, 1e-11)
    b_inv = clockwise_gate(sys3, 1, 1e-11)
    assert frobenius(b @ b_inv - np.eye(8)) < 1e-9


def test_braid_relation_n3(braid3):
    report = verify_braid_relations(braid3, 3)
    assert report.max_braid_deviation <= 1e-6


def test_far_commutation_n4():
    sys4 = build_kz([HALF] * 4, 3.0)
    mats = [braid_matrix(sys4, i, 1e-10) for i in (1, 2, 3)]
    report = verify_braid_relations(mats, 4)
    assert report.max_braid_deviation <= 1e-6
    assert report.max_commutation_deviation <= 1e-6


@pytest.mark.parametrize("i", [-1, 0, 3])
def test_braid_matrix_rejects_a_generator_index_out_of_range(sys3, i):
    # sigma_{-1} is a valid braid word letter but no flip of factors -1, 0
    with pytest.raises(ValueError, match="out of range"):
        braid_matrix(sys3, i)


def test_braid_matrix_requires_identical_modules():
    mixed = build_kz([SpinModule(0.5), SpinModule(1.0)], 3.0)
    with pytest.raises(ValueError):
        braid_matrix(mixed, 1)


# ---------------------------------------------------------------------------
# Transport in the highest-weight multiplicity spaces.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spin, n, lam",
    [(0.5, n, lam) for n in (2, 3, 4, 5, 6) for lam in (3.0, 4.0, 7.3)]
    + [(1.0, 3, 4.3), (1.0, 4, 4.3), (1.5, 3, 4.3)],
)
def test_braid_matrix_matches_the_full_space_transport(spin, n, lam):
    sys = build_kz([SpinModule(spin)] * n, lam)
    gates = [braid_matrix(sys, i) for i in range(1, n)]
    oracle = [full_space_braid_matrix(sys, i) for i in range(1, n)]
    for got, want in zip(gates, oracle):
        assert frobenius(got - want) <= 1e-10
    res, ref = unitarize_kz(sys, gates), unitarize_kz(sys, oracle)
    assert res.radical_dim == ref.radical_dim
    assert abs(res.defect - ref.defect) <= 1e-10


def test_full_twist_from_the_gate_matches_the_full_space_transport(sys3):
    twists = kz._full_twists(sys3, kz._gate_blocks(sys3, (1, 2), 1e-11), 1e-11)
    assert len(twists) == 2
    for i, twist in enumerate(twists, start=1):
        full = transport(sys3.connection(), braid_word_path(3, [i, i]), 1e-11)
        assert frobenius(twist - full) < 1e-9


def record_solve_shapes(monkeypatch):
    """(members, rows, columns) of every solve `fuchsian` makes, rows counted
    in complex entries (a real-form state holds Re and Im rows)."""
    shapes = []
    solve = fuchsian.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        b, rows, cols = kwargs["shape"]
        shapes.append((b, rows // 2 if np.isrealobj(y0) else rows, cols))
        return solve(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", recording)
    return shapes


def test_braid_gates_are_solved_in_the_multiplicity_space(monkeypatch, capsys):
    # a half-twist is solved on a sum_j mu_j = C(n, n/2) square state, not
    # on a 2^n square one, and the n - 1 generators share one solve of
    # (n - 1) mu^2 entries; kz verify adds one solve for the second arcs of
    # all n - 1 full twists, 2 solves in all.  A half-twist alone is small
    # enough to be cut into ceil(length / clearance) = 3 members.
    shapes = record_solve_shapes(monkeypatch)
    for n, mu in [(6, 20), (7, 35)]:
        shapes.clear()
        braid_matrix(build_kz([HALF] * n, 7.5), 1)
        assert shapes == [(3, mu, mu)]
        shapes.clear()
        kz.braid_matrices(build_kz([HALF] * n, 7.5), range(1, n))
        assert shapes == [(n - 1, mu, mu)]
    shapes.clear()
    assert cli.main(["kz", "verify", "--n", "6", "--lambda", "7.5"]) == 0
    capsys.readouterr()
    assert shapes == [(5, 20, 20)] * 2


def test_kz_braid_unitarize_assembles_no_product_basis_gate(monkeypatch, capsys):
    # the half-twists are one solve; the only assembly on the tensor product
    # is the invariant form's
    assembled = []
    solves = record_solve_shapes(monkeypatch)
    from_hw_blocks = kz._from_hw_blocks

    def recording_assembly(sys, blocks):
        assembled.append(blocks)
        return from_hw_blocks(sys, blocks)

    monkeypatch.setattr(kz, "_from_hw_blocks", recording_assembly)
    assert cli.main(["kz", "braid", "--n", "6", "--lambda", "7.5", "--unitarize"]) == 0
    capsys.readouterr()
    assert solves == [(5, 20, 20)]
    assert len(assembled) == 1
    form = assembled[0]
    assert form.shape == (20, 20)
    assert np.array_equal(form, form.conj().T)
    assert np.max(np.abs(np.linalg.eigvalsh(form))) == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [3.0, 4.0, 7.5])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unitarize_kz_from_blocks_matches_the_product_basis_gates(n, lam):
    sys = build_kz([HALF] * n, lam)
    res = unitarize_kz(sys)
    ref = unitarize_kz(sys, kz.braid_matrices(sys, range(1, n)))
    assert res.radical_dim == ref.radical_dim
    assert np.max(np.abs(res.form - ref.form)) <= 1e-12
    assert abs(res.defect - ref.defect) <= 1e-12
    assert len(res.matrices) == len(ref.matrices) == n - 1
    for got, want in zip(res.matrices, ref.matrices):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_the_tower_frame_is_computed_once_per_system(monkeypatch):
    calls = []
    towers = kz._isotypic_towers

    def counting(sys):
        calls.append(sys)
        return towers(sys)

    monkeypatch.setattr(kz, "_isotypic_towers", counting)
    sys = build_kz([HALF] * 4, 7.5)
    gates = [braid_matrix(sys, i) for i in (1, 2, 3)]
    unitarize_kz(sys, gates)
    assert calls == [sys]


def test_the_gate_path_stores_no_operator_on_the_tensor_product():
    sys = build_kz([HALF] * 7, 7.5)
    kz._gate_blocks(sys, range(1, 7), 1e-10)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from arrays(v)
        elif isinstance(value, (list, tuple)):
            for v in value:
                yield from arrays(v)

    held = vars(sys)
    assert "_connection" not in held
    assert all(a.size < sys.dim**2 for value in held.values() for a in arrays(value))


@cache
def half_spin_gates(n: int, lam: float) -> tuple[np.ndarray, ...]:
    sys = build_kz([HALF] * n, lam)
    return tuple(braid_matrix(sys, i) for i in range(1, n))


@pytest.mark.parametrize("lam", [3.0, 3.3, 4.0, 7.5])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_braid_word_traces_match_the_jimbo_representation(n, lam, data):
    # Drinfeld-Kohno: the spin-1/2 KZ gates are equivalent to Jimbo's R-matrix
    # representation at q = e^{pi i / lambda}, integer levels included, so
    # every braid word has the same trace in both; q = e^{-pi i / lambda}
    # misses by O(10)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    word = data.draw(st.lists(st.sampled_from(letters), min_size=8, max_size=8))
    jimbo = jimbo_braid_rep(n, np.exp(1j * np.pi / lam))
    got = np.trace(braid_word_matrix(half_spin_gates(n, lam), word))
    want = np.trace(braid_word_matrix(jimbo, word))
    assert abs(got - want) < 1e-9


@pytest.mark.parametrize(
    "n, lam", [(3, 3.0), (3, 4.0), (3, 7.5), (4, 3.0), (4, 4.0), (4, 7.5), (5, 3.0)]
)
def test_jimbo_intertwiners_have_the_commutant_dimension(n, lam):
    # {X : B_i X = X R_i for all i} has dimension sum_j (2j + 1)^2 over the
    # spins j in V_{1/2}^{(x) n} when the two representations are equivalent;
    # vec(B X - X R) = (1 (x) B - R^T (x) 1) vec(X), column-major
    gates = half_spin_gates(n, lam)
    jimbo = jimbo_braid_rep(n, np.exp(1j * np.pi / lam))
    eye = np.eye(2**n)
    system = np.vstack([np.kron(eye, b) - np.kron(r.T, eye) for b, r in zip(gates, jimbo)])
    s = np.linalg.svd(system, compute_uv=False)
    expected = sum((n - 2 * k + 1) ** 2 for k in range(n // 2 + 1))
    assert expected == {3: 20, 4: 35, 5: 56}[n]
    assert np.max(s[-expected:]) < 1e-10
    assert s[-expected - 1] > 0.1


def test_braid_word_matrix_inverse():
    rng = np.random.default_rng(2)
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
    rep = verify_braid_relations(res.matrices, 3)
    assert rep.max_braid_deviation <= 1e-6
    assert max(pure_braid_unitarity(res.matrices, 3)) <= 1e-8


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
        _unitarize_block([np.eye(2)])


def test_connection_is_built_once(sys3):
    conn = sys3.connection()
    assert sys3.connection() is conn
    want = dense_on_sites(PRINTED_OMEGA, (0, 2), [2, 2, 2]) / sys3.lam
    assert np.allclose(conn.coefficients[conn.forms.pairs.index((0, 2))], want)


# ---------------------------------------------------------------------------
# Relation reports.
# ---------------------------------------------------------------------------

def test_identity_matrices_report_zero():
    mats = [np.eye(4), np.eye(4)]
    report = verify_braid_relations(mats, 3)
    assert report.max_deviation == 0.0
    assert max(pure_braid_unitarity(mats, 3)) == 0.0


def test_pauli_pair_violates_braid_relation():
    report = verify_braid_relations([SIGMA_X, SIGMA_Z], 3)
    # oracle: || sx sz sx - sz sx sz ||_F computed directly
    expected = frobenius(SIGMA_X @ SIGMA_Z @ SIGMA_X - SIGMA_Z @ SIGMA_X @ SIGMA_Z)
    assert abs(report.max_braid_deviation - expected) < 1e-12
    assert expected > 1.9  # the pair genuinely fails the relation


def test_relation_report_shape():
    mats = [np.eye(2)] * 3
    report = verify_braid_relations(mats, 4)
    assert len(report.braid_deviations) == 2
    assert len(report.commutation_deviations) == 1
    assert len(pure_braid_unitarity(mats, 4)) == 6
    with pytest.raises(ValueError):
        verify_braid_relations(mats, 3)


# ---------------------------------------------------------------------------
# Tensor structure: factor flips and the isotypic frame.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sites", [(0,), (1,), (2,), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
def test_on_sites_matches_the_dense_operator(sites):
    # spins 1/2, 1 and 3/2: factors of unequal dimension in every order
    dims = [2, 3, 4]
    rng = np.random.default_rng(sum(10**k * (s + 1) for k, s in enumerate(sites)))
    size = int(np.prod([dims[s] for s in sites]))
    op = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    cols = rng.normal(size=(24, 5)) + 1j * rng.normal(size=(24, 5))
    got = kz._on_sites(op, sites, dims, cols)
    assert np.max(np.abs(got - dense_on_sites(op, sites, dims) @ cols)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_flip_operator_swaps_product_vectors_exactly(n, d):
    rng = np.random.default_rng(10 * n + d)
    # small Gaussian integers: every kron product is exact in any factor order
    vs = [rng.integers(-9, 10, size=d) + 1j * rng.integers(-9, 10, size=d) for _ in range(n)]
    for i in range(1, n):
        swapped = vs[: i - 1] + [vs[i], vs[i - 1]] + vs[i + 1 :]
        assert np.array_equal(flip_operator(n, d, i) @ reduce(np.kron, vs), reduce(np.kron, swapped))


@pytest.mark.parametrize(
    "spin, n",
    [(0.5, n) for n in (2, 3, 4, 5, 6)] + [(1.0, n) for n in (2, 3, 4, 5)] + [(1.5, n) for n in (2, 3, 4)],
)
def test_flip_blocks_are_the_projected_factor_flips(spin, n):
    sys = build_kz([SpinModule(spin)] * n, 7.5)
    hw = sys._hw
    assert len(sys._flips) == n - 1
    for i, flip in enumerate(sys._flips, start=1):
        want = hw.conj().T @ flip_operator(n, sys.modules[0].dim, i) @ hw
        assert np.max(np.abs(flip - want)) <= 1e-14
        assert np.max(np.abs(flip @ flip - np.eye(hw.shape[1]))) <= 1e-14


def _multiplicities(sys):
    return {j: towers[0].shape[1] for j, towers in _isotypic_towers(sys)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_isotypic_multiplicities_are_clebsch_gordan_counts(n):
    sys = build_kz([HALF] * n, 7.5)
    # V_{1/2}^{(x) n} holds spin j = n/2 - k with multiplicity C(n, k) - C(n, k - 1)
    expected = {n / 2 - k: comb(n, k) - (comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)}
    mults = _multiplicities(sys)
    assert list(mults) == sorted(expected)
    assert mults == expected


def test_isotypic_multiplicities_of_mixed_modules():
    # 1/2 (x) 1 (x) 3/2 = (1/2 (x) 1) (x) 3/2 = (1/2 + 3/2) (x) 3/2
    sys = build_kz([SpinModule(0.5), SpinModule(1.0), SpinModule(1.5)], 7.5)
    assert _multiplicities(sys) == {0.0: 1, 1.0: 2, 2.0: 2, 3.0: 1}


@pytest.mark.parametrize("spins", [(0.5,) * 5, (1.0,) * 3, (0.5, 1.0, 1.5)])
def test_isotypic_towers_are_highest_weight_and_orthonormal(spins):
    sys = build_kz([SpinModule(s) for s in spins], 7.5)
    jp, jz = total_spin_operators(sys)
    frame = []
    for j, towers in _isotypic_towers(sys):
        assert np.max(np.abs(jp @ towers[0])) < 1e-12
        assert np.max(np.abs(jz @ towers[0] - j * towers[0])) < 1e-12
        frame.extend(towers)
    frame = np.hstack(frame)
    assert frame.shape == (sys.dim, sys.dim)
    assert np.max(np.abs(frame.conj().T @ frame - np.eye(sys.dim))) < 1e-12


@pytest.mark.parametrize("lam", [3.0, 4.0, 7.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spin_half_gates_satisfy_the_hecke_relation(n, lam):
    # sigma_i is conjugate to P e^{pi i O / lam}: eigenvalue e^{pi i / 2 lam} on
    # the pair triplet and -e^{-3 pi i / 2 lam} on the pair singlet
    sys = build_kz([HALF] * n, lam)
    q1, q2 = np.exp(0.5j * np.pi / lam), -np.exp(-1.5j * np.pi / lam)
    eye = np.eye(sys.dim)
    for i in range(1, n):
        b = braid_matrix(sys, i)
        assert np.max(np.abs((b - q1 * eye) @ (b - q2 * eye))) < 1e-9
