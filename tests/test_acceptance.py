"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time
import warnings

import numpy as np
from scipy.linalg import expm

from monogate.fuchsian import (
    PointsConnection,
    integrability_check,
    monodromy_representation,
    transport,
    x4_generator_loops,
)
from monogate.gate_core import (
    HADAMARD_STD,
    SIGMA_X,
    SIGMA_Z,
    QubitState,
    apply,
    controlled,
    named_gate,
)
from monogate.kz import (
    SpinModule,
    braid_matrix,
    build_kz,
    casimir_omega,
    two_point_transport_factor,
    unitarize_kz,
    verify_braid_relations,
)
from monogate.lappo_danilevski import (
    DifferenceForms,
    RepresentationFamily,
    chen_integral,
    synthesize,
    verify_match,
)
from monogate.matrices import frobenius, random_hermitian, unitarity_defect
from monogate.paths import (
    ArcSegment,
    LineSegment,
    PiecewisePath,
    braid_word_path,
    generator_loop,
    puncture_loops,
)

HALF = SpinModule(0.5)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def random_traceless_hermitian(rng, scale=0.5):
    h = random_hermitian(2, rng)
    h -= np.trace(h) / 2 * np.eye(2)
    return h * scale


def test_01_scalar_monodromy():
    # transport of df = (a/z) f dz around a winding-1 loop equals e^{2 pi i a};
    # draws keep |Im a| <= 0.25 so the 1e-9 absolute tolerance is commensurate
    # with the monodromy magnitude.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        while True:
            a = complex(rng.uniform(-2, 2), rng.uniform(-0.25, 0.25))
            if abs(a) <= 2.0:
                break
        conn = PointsConnection((0.0,), (np.array([[a]]),))
        loop = generator_loop(2.0, 0.0, 0.5)
        m = transport(conn, loop, 1e-10)
        worst = max(worst, abs(m[0, 0] - np.exp(2j * np.pi * a)))
    elapsed = time.perf_counter() - start
    report(1, "scalar-monodromy", worst <= 1e-9 and elapsed < 1.0,
           f"max_err={worst:.2e} <= 1e-9, runtime={elapsed:.2f}s < 1s")


def test_02_matrix_single_pole():
    rng = np.random.default_rng(102)
    worst_err, worst_unit = 0.0, 0.0
    for _ in range(20):
        a = random_hermitian(2, rng, 1.0)
        conn = PointsConnection((0.0,), (a,))
        m = transport(conn, generator_loop(2.0, 0.0, 0.5), 1e-10)
        worst_err = max(worst_err, frobenius(m - expm(2j * np.pi * a)))
        worst_unit = max(worst_unit, unitarity_defect(m))
    report(2, "matrix-single-pole", worst_err <= 1e-8 and worst_unit <= 1e-8,
           f"max_err={worst_err:.2e} <= 1e-8, max_unitarity={worst_unit:.2e} <= 1e-8")


def test_03_homotopy_invariance():
    rng = np.random.default_rng(103)
    a = random_traceless_hermitian(rng)
    conn = PointsConnection((0.0,), (a,))
    direct = generator_loop(2.0, 0.0, 0.3)
    # same basepoint and winding, different radius and approach route
    detour = np.array([1.0 + 0.8j])
    foot_angle = float(np.angle(detour[0]))
    foot = np.array([0.7 * np.exp(1j * foot_angle)])
    indirect = PiecewisePath((
        LineSegment(np.array([2.0]), detour),
        LineSegment(detour, foot),
        ArcSegment(np.array([0.0]), np.array([0.7 + 0j]), foot_angle, foot_angle + 2 * np.pi),
        LineSegment(foot, detour),
        LineSegment(detour, np.array([2.0])),
    ))
    m1 = transport(conn, direct, 1e-10)
    m2 = transport(conn, indirect, 1e-10)
    diff = frobenius(m1 - m2)
    report(3, "homotopy-invariance", diff <= 2e-9, f"deviation={diff:.2e} <= 2e-9")


def test_04_x4_relation():
    rng = np.random.default_rng(104)
    worst = 0.0
    punctures = (0.0, 1.0, 2.0, 3.0)
    loops = x4_generator_loops(punctures, 1.5 - 2.0j, 0.3)
    for _ in range(5):
        residues = [random_traceless_hermitian(rng, 0.4) for _ in range(3)]
        residues.append(-sum(residues))
        conn = PointsConnection(punctures, tuple(residues), regular_at_infinity=True)
        rep = monodromy_representation(conn, loops, 1e-11)
        worst = max(worst, rep.product_defect())
    report(4, "x4-relation", worst <= 1e-7, f"max ||M1 M2 M3 M4 - I|| = {worst:.2e} <= 1e-7")


def test_05_chen_identities():
    rng = np.random.default_rng(105)
    forms = DifferenceForms((0.0, 1.0))
    worst_shuffle, worst_power = 0.0, 0.0
    for _ in range(3):
        base = complex(rng.uniform(0.2, 0.8), rng.uniform(-2.5, -1.2))
        loop = generator_loop(base, float(rng.integers(0, 2)), rng.uniform(0.2, 0.35))
        a = chen_integral(forms, [0], loop, 1e-11)
        b = chen_integral(forms, [1], loop, 1e-11)
        ab = chen_integral(forms, [0, 1], loop, 1e-11)
        ba = chen_integral(forms, [1, 0], loop, 1e-11)
        worst_shuffle = max(worst_shuffle, abs(a * b - ab - ba))
        factorial = 1.0
        for k in range(2, 5):
            factorial *= k
            got = chen_integral(forms, [0] * k, loop, 1e-11)
            worst_power = max(worst_power, abs(got - a**k / factorial))
    ok = worst_shuffle <= 1e-8 and worst_power <= 1e-8
    report(5, "chen-identities", ok,
           f"shuffle={worst_shuffle:.2e} <= 1e-8, power={worst_power:.2e} <= 1e-8 (k <= 4)")


def test_06_lappo_danilevski_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1)  # fixed seed with ||H_j|| <= 1 draws
    hs = [random_hermitian(2, rng, 1.0), random_hermitian(2, rng, 1.0)]
    forms = DifferenceForms((0.0, 1.0))
    loops = puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3)
    targets = RepresentationFamily.exponential_targets(hs, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam4 = synthesize(targets, forms, loops, 4, tol=1e-11)
        fam2 = synthesize(targets, forms, loops, 2, tol=1e-11)
        v4 = verify_match(targets, fam4, 0.05, loops, tol=1e-11)
        v2 = verify_match(targets, fam2, 0.05, loops, tol=1e-11)
    elapsed = time.perf_counter() - start
    ratio = v2.max_deviation / v4.max_deviation
    ok = v4.max_deviation <= 1e-5 and ratio >= 50 and elapsed < 30.0
    report(6, "lappo-danilevski-round-trip", ok,
           f"K=4 dev={v4.max_deviation:.2e} <= 1e-5, K2/K4 ratio={ratio:.0f} >= 50, "
           f"runtime={elapsed:.1f}s < 30s")


def test_07_kz_construction():
    printed = np.array(
        [[0.5, 0, 0, 0], [0, -0.5, 1, 0], [0, 1, -0.5, 0], [0, 0, 0, 0.5]], dtype=complex
    )
    exact = np.array_equal(casimir_omega(HALF, HALF), printed)
    worst_flat = 0.0
    for n in (3, 4):
        sysn = build_kz([HALF] * n, 3.0)
        worst_flat = max(worst_flat, integrability_check(sysn.connection()).max_violation)
    ok = exact and worst_flat <= 1e-12
    report(7, "kz-construction", ok,
           f"printed-Omega exact={exact}, flatness(n=3,4)={worst_flat:.2e} <= 1e-12")


def test_08_kz_two_point_closed_form():
    omega = casimir_omega(HALF, HALF)
    seg = LineSegment(np.array([1.0, 2.0], complex), np.array([0.3 - 0.7j, 2.9 + 0.4j], complex))
    open_path = PiecewisePath((seg,))
    full_loop = braid_word_path(2, [1, 1])
    worst_open, worst_loop = 0.0, 0.0
    for lam in (2.0, 3.0 + 1.0j):
        sysv = build_kz([HALF, HALF], lam)
        numeric = transport(sysv.connection(), open_path, 1e-11)
        closed = two_point_transport_factor(omega, lam, open_path)
        worst_open = max(worst_open, frobenius(numeric - closed))
        loop_numeric = transport(sysv.connection(), full_loop, 1e-11)
        worst_loop = max(worst_loop, frobenius(loop_numeric - expm((2j * np.pi / lam) * omega)))
    ok = worst_open <= 1e-9 and worst_loop <= 1e-8
    report(8, "kz-two-point-closed-form", ok,
           f"open-path={worst_open:.2e} <= 1e-9, full-loop={worst_loop:.2e} <= 1e-8, "
           "lambda in {2, 3+i}")


def test_09_braid_relations_and_unitarity():
    sys3 = build_kz([HALF] * 3, 3.0)
    b3 = [braid_matrix(sys3, i, 1e-11) for i in (1, 2)]
    braid_dev = verify_braid_relations(b3, 3).max_braid_deviation
    sys4 = build_kz([HALF] * 4, 3.0)
    b4 = [braid_matrix(sys4, i, 1e-10) for i in (1, 2, 3)]
    comm_dev = verify_braid_relations(b4, 4).max_commutation_deviation
    twist_dev = 0.0
    for i, b in enumerate(b3, start=1):
        full = transport(sys3.connection(), braid_word_path(3, [i, i]), 1e-11)
        twist_dev = max(twist_dev, frobenius(b @ b - full))
    # unitarizability witness: at lambda = 3 the invariant form degenerates
    # (null vectors, radical dim 2); the quotient matrices are unitary.
    res = unitarize_kz(sys3, b3, tol=1e-11)
    ok = (
        braid_dev <= 1e-6
        and comm_dev <= 1e-6
        and twist_dev <= 1e-6
        and res.defect <= 1e-8
    )
    report(9, "braid-relations", ok,
           f"braid={braid_dev:.2e} <= 1e-6, far-comm(n=4)={comm_dev:.2e} <= 1e-6, "
           f"half-twist^2={twist_dev:.2e} <= 1e-6, "
           f"unitarity={res.defect:.2e} <= 1e-8 on the radical-{res.radical_dim} quotient")


def test_10_universality_screen():
    from monogate.universality import GateSet, density_screen, epsilon_net_coverage

    start = time.perf_counter()
    t_gate = named_gate("PHASE", 0.25).matrix
    ht = GateSet((HADAMARD_STD, t_gate), ("H_std", "T"))
    v1 = density_screen(ht).verdict
    cov = epsilon_net_coverage(ht, 12, 0.5, 200, seed=7)
    v2 = density_screen(GateSet((SIGMA_X, SIGMA_Z))).verdict
    v3 = density_screen(GateSet((named_gate("PHASE", 1 / 3).matrix,))).verdict
    elapsed = time.perf_counter() - start
    ok = (
        v1 == "dense-likely"
        and cov.coverage >= 0.9
        and v2 == "finite-suspect"
        and v3 == "abelian"
        and elapsed < 60.0
    )
    report(10, "universality-screen", ok,
           f"{{H_std,T}}={v1}, coverage={cov.coverage:.3f} >= 0.9 (L=12, eps=0.5, "
           f"N=200, seed=7), {{X,Z}}={v2}, {{PHASE(1/3)}}={v3}, runtime={elapsed:.1f}s < 60s")


def test_11_truth_tables():
    cnot = controlled(named_gate("X"), 1)
    ccnot = controlled(named_gate("X"), 2)
    ok = True
    for u in (0, 1):
        for v in (0, 1):
            got = apply(cnot, QubitState.basis(f"{u}{v}")).amplitudes
            ok = ok and np.array_equal(got, QubitState.basis(f"{u}{v ^ u}").amplitudes)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                got = apply(ccnot, QubitState.basis(f"{a}{b}{c}")).amplitudes
                want = QubitState.basis(f"{a}{b}{c ^ (a & b)}").amplitudes
                ok = ok and np.array_equal(got, want)
    report(11, "truth-tables", ok, "cNOT 4/4 and ccNOT 8/8 basis cases exact")
