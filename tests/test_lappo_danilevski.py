import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from monogate import fuchsian, kz, lappo_danilevski
from monogate.fuchsian import transport
from monogate.lappo_danilevski import (
    ConfigurationForms,
    ConnectionFamily,
    DifferenceForms,
    RepresentationFamily,
    chen_integral,
    connection_family_from_json,
    connection_family_to_json,
    evaluate_at,
    family_from_json,
    family_to_json,
    jet_monodromy,
    matrix_chen_integral,
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
    pure_braid_word,
)
from oracles import composition_synthesize, compositions, curvature_residual, series_residuals

TWO_PI_I = 2j * np.pi
RNG = np.random.default_rng(99)


@pytest.fixture(scope="module")
def line_forms():
    return DifferenceForms((0.0, 1.0))


@pytest.fixture(scope="module")
def line_loops():
    return puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3)


@pytest.fixture
def solve_count(monkeypatch):
    """One entry per adaptive solve (`solve_ivp` as `fuchsian` binds it)."""
    calls = []
    solve_ivp = fuchsian.solve_ivp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", counting)
    return calls


def small_hermitian(rng, scale=0.15):
    return random_hermitian(2, rng, norm_bound=scale)


def arc_and_chord_loop():
    """The unit circle from pi/4 to 7 pi/4 closed by its chord: it winds once
    around 0, and its circle passes through 1 outside the swept part."""
    arc = ArcSegment(np.array([0j]), np.array([1 + 0j]), np.pi / 4, 7 * np.pi / 4)
    return PiecewisePath((arc, LineSegment(arc.end_point, arc.start_point)))


# ---------------------------------------------------------------------------
# Chen integrals.
# ---------------------------------------------------------------------------

def test_single_form_winding_normalization():
    forms = DifferenceForms((0.0,))
    loop = generator_loop(2.0, 0.0, 0.5)
    assert abs(chen_integral(forms, [0], loop, 1e-11) - TWO_PI_I) < 1e-9


def test_non_enclosing_loop_integrates_to_zero():
    forms = DifferenceForms((5.0,))
    loop = generator_loop(2.0, 0.0, 0.5)  # winds around 0, not around 5
    assert abs(chen_integral(forms, [0], loop, 1e-11)) < 1e-9


def test_repeated_form_powers():
    # iterated integral of one exact-log form is (integral)^k / k!
    forms = DifferenceForms((0.0,))
    loop = generator_loop(2.0, 0.0, 0.5)
    total = chen_integral(forms, [0], loop, 1e-11)
    factorial = 1.0
    for k in range(2, 5):
        factorial *= k
        got = chen_integral(forms, [0] * k, loop, 1e-11)
        assert abs(got - total**k / factorial) < 1e-8


def test_shuffle_identity(line_forms):
    rng = np.random.default_rng(17)
    for _ in range(4):
        base = complex(rng.uniform(0.2, 0.8), rng.uniform(-2.5, -1.0))
        loop = generator_loop(base, float(rng.integers(0, 2)), 0.25)
        a = chen_integral(line_forms, [0], loop, 1e-11)
        b = chen_integral(line_forms, [1], loop, 1e-11)
        ab = chen_integral(line_forms, [0, 1], loop, 1e-11)
        ba = chen_integral(line_forms, [1, 0], loop, 1e-11)
        assert abs(a * b - ab - ba) < 1e-8


def test_chen_word_validation(line_forms):
    loop = generator_loop(0.5 - 1.5j, 0.0, 0.3)
    with pytest.raises(ValueError):
        chen_integral(line_forms, [], loop, 1e-10)
    with pytest.raises(ValueError):
        chen_integral(line_forms, [2], loop, 1e-10)


def composition_defect(forms, path, cut, word, tol=1e-11) -> float:
    """|int_gamma w - sum over w = w'w'' of int_{gamma_2} w' int_{gamma_1} w''|
    for gamma cut after `cut` segments into gamma_1 then gamma_2; the empty
    word counts 1 and one-letter words are the closed-form periods."""
    first, second = PiecewisePath(path.segments[:cut]), PiecewisePath(path.segments[cut:])

    def integral(part, sub):
        if not sub:
            return 1.0
        if len(sub) == 1:
            return forms.periods(part)[sub[0]]
        return chen_integral(forms, sub, part, tol)

    split = sum(integral(second, word[:i]) * integral(first, word[i:]) for i in range(len(word) + 1))
    return abs(chen_integral(forms, word, path, tol) - split)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(word=st.lists(st.integers(0, 1), min_size=2, max_size=3), cut=st.integers(1, 2))
def test_chen_path_composition_on_a_generator_loop(word, cut):
    # Chen's identity pins the leftmost-latest order: the left factor of a
    # word lives on the later piece of the path (the shuffle identity cannot
    # tell the two orders apart)
    forms = DifferenceForms((0.0, 1.0))
    loop = generator_loop(0.5 - 1.5j, 0.0, 0.3, avoid=(1.0,))
    assert composition_defect(forms, loop, cut, word) < 1e-9


@settings(derandomize=True, deadline=None, max_examples=25)
@given(word=st.lists(st.integers(0, 2), min_size=2, max_size=3), cut=st.integers(1, 3))
def test_chen_path_composition_on_a_pure_braid(word, cut):
    # tau_13 = s_2 s_1^2 s_2^{-1}, one arc per letter, cut between letters
    forms = ConfigurationForms(3)
    path = braid_word_path(3, pure_braid_word(3, 1, 3))
    assert composition_defect(forms, path, cut, word) < 1e-9


def test_matrix_chen_matches_scalar_expansion(line_forms):
    # matrix-valued word integral = sum over scalar words times coefficient products
    rng = np.random.default_rng(3)
    u = [random_hermitian(2, rng), random_hermitian(2, rng)]
    loop = generator_loop(0.5 - 1.5j, 0.0, 0.3, avoid=(1.0,))
    omega = np.array(u)  # u[0] omega_0 + u[1] omega_1 as a coefficient stack

    direct = matrix_chen_integral(line_forms, [omega, omega], loop, 1e-11)
    expansion = np.zeros((2, 2), dtype=complex)
    for j1 in (0, 1):
        for j2 in (0, 1):
            expansion += chen_integral(line_forms, [j1, j2], loop, 1e-11) * (u[j1] @ u[j2])
    assert frobenius(direct - expansion) < 1e-9


def test_every_solve_goes_through_the_one_right_hand_side(monkeypatch, line_forms, line_loops):
    # transport, Chen integrals, jets, synthesis and braid gates are all
    # batched transports of a connection by `fuchsian._solve`
    names = set()
    solve_ivp = fuchsian.solve_ivp

    def recording(fun, *args, **kwargs):
        names.add(fun.__qualname__)
        return solve_ivp(fun, *args, **kwargs)

    monkeypatch.setattr(fuchsian, "solve_ivp", recording)
    rng = np.random.default_rng(60)
    coeffs = tuple(tuple(small_hermitian(rng) for _ in range(2)) for _ in range(2))
    fam = ConnectionFamily(line_forms, coeffs)
    targets = RepresentationFamily(coeffs)
    loop = line_loops[0]
    transport(evaluate_at(fam, 0.05), loop, 1e-8)
    chen_integral(line_forms, [0, 1], loop, 1e-8)
    matrix_chen_integral(line_forms, [np.array(coeffs)[:, 0]] * 2, loop, 1e-8)
    jet_monodromy(fam, [loop], 2, 1e-8)
    verify_match(targets, synthesize(targets, line_forms, line_loops, 2, 1e-8), 0.05, line_loops, 1e-8)
    kz.braid_matrix(kz.build_kz([kz.SpinModule(0.5)] * 3, 4.0), 1, 1e-8)
    assert names == {"_solve.<locals>.rhs"}


# ---------------------------------------------------------------------------
# Periods in closed form.
# ---------------------------------------------------------------------------

def period_cases():
    """(forms, paths): lines and arcs, a finite reference, an arc whose circle
    meets a puncture, open paths, and pure-braid loops with an open braid."""
    config = ConfigurationForms(3)
    loop = arc_and_chord_loop()
    outside_arc = ArcSegment(np.array([1 + 0j]), np.array([0.5 + 0j]), 0.0, np.pi / 2)
    approach = LineSegment(np.array([0.5 - 1.5j]), outside_arc.start_point)
    return {
        "lines_and_arcs": (DifferenceForms((0.0, 1.0)), puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3)),
        "finite_reference": (
            DifferenceForms((0.0, 1.0, 2.0), reference=5.0 + 2.0j),
            puncture_loops([0.0, 1.0, 2.0], 1.0 - 1.5j, 0.3),
        ),
        "circle_through_puncture": (
            DifferenceForms((0.0, 1.0)),
            [loop, generator_loop(loop.start[0], 1.0, 0.2, avoid=(0.0,))],
        ),
        "open_paths": (
            DifferenceForms((0.5, 0.0), reference=-1.0j),
            [PiecewisePath((approach, outside_arc)), PiecewisePath((outside_arc,))],
        ),
        "configuration": (
            config,
            [braid_word_path(3, pure_braid_word(3, i + 1, j + 1)) for (i, j) in config.pairs]
            + [braid_word_path(3, [1, -2])],
        ),
    }


@pytest.mark.parametrize("case", sorted(period_cases()))
def test_periods_match_the_ode_integrals(case):
    forms, paths = period_cases()[case]
    for path in paths:
        got = forms.periods(path)
        want = [chen_integral(forms, [k], path, 1e-11) for k in range(forms.count)]
        assert np.max(np.abs(got - want)) < 1e-10


def test_periods_check_the_divisor_clearance(line_forms):
    # the approach from 2 to the circle around 0 runs through the puncture at 1
    with pytest.raises(fuchsian.DivisorContactError):
        line_forms.periods(generator_loop(2.0, 0.0, 0.3))


def test_loop_normalization_solves_no_ode(line_forms, line_loops, solve_count):
    lappo_danilevski._check_loop_normalization(line_forms, line_loops)
    config = ConfigurationForms(3)
    braids = [braid_word_path(3, pure_braid_word(3, i + 1, j + 1)) for (i, j) in config.pairs]
    lappo_danilevski._check_loop_normalization(config, braids)
    assert solve_count == []


def test_compositions():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert sum(1 for q in range(2, 6) for _ in compositions(5, q)) == 2**4 - 1


# ---------------------------------------------------------------------------
# Synthesis.
# ---------------------------------------------------------------------------

def test_first_order_is_target_over_two_pi_i(line_forms, line_loops):
    rng = np.random.default_rng(5)
    m1 = [small_hermitian(rng), small_hermitian(rng)]
    targets = RepresentationFamily((((m1[0]),), ((m1[1]),)))
    fam = synthesize(targets, line_forms, line_loops, 1, tol=1e-11)
    for j in range(2):
        assert frobenius(fam.coefficients[j][0] - m1[j] / TWO_PI_I) < 1e-9


def test_second_order_formula(line_forms, line_loops):
    # U_2^j = (M_2^j - sum_{k1,k2} int w_{k1} w_{k2} U_1^{k1} U_1^{k2}) / 2 pi i
    rng = np.random.default_rng(8)
    coeffs = tuple(
        (small_hermitian(rng), small_hermitian(rng)) for _ in range(2)
    )
    targets = RepresentationFamily(coeffs)
    fam = synthesize(targets, line_forms, line_loops, 2, tol=1e-11)
    u1 = [fam.coefficients[j][0] for j in range(2)]
    for j in range(2):
        correction = np.zeros((2, 2), dtype=complex)
        for k1 in (0, 1):
            for k2 in (0, 1):
                w = chen_integral(line_forms, [k1, k2], line_loops[j], 1e-11)
                correction += w * (u1[k1] @ u1[k2])
        expected = (targets.coefficients[j][1] - correction) / TWO_PI_I
        assert frobenius(fam.coefficients[j][1] - expected) < 1e-8


def test_single_generator_exponential_series():
    # for M(lambda) = e^{2 pi i lambda H} the exact answer is U_1 = H, U_k = 0
    h = random_hermitian(2, np.random.default_rng(4))
    forms = DifferenceForms((0.0,))
    loop = generator_loop(2.0, 0.0, 0.5)
    targets = RepresentationFamily.exponential_targets([h], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = synthesize(targets, forms, [loop], 3, tol=1e-11)
    assert frobenius(fam.coefficients[0][0] - h) < 1e-10
    assert frobenius(fam.coefficients[0][1]) < 1e-10
    assert frobenius(fam.coefficients[0][2]) < 1e-9


def oracle_cases():
    """(forms, loops, dim, order): both reference kinds, m = 3 with d = 4 at
    K = 5, and the diagonal arrangement on pure-braid loops."""
    config = ConfigurationForms(3)
    return {
        "dlog": (DifferenceForms((0.0, 1.0)), puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3), 2, 4),
        "reference_m3_d4": (
            DifferenceForms((0.0, 1.0, 2.0), reference=1.0 + 2.0j),
            puncture_loops([0.0, 1.0, 2.0], 1.0 - 1.5j, 0.3),
            4,
            5,
        ),
        "configuration": (
            config,
            [braid_word_path(3, pure_braid_word(3, i + 1, j + 1)) for (i, j) in config.pairs],
            2,
            4,
        ),
    }


@pytest.mark.parametrize("case", ["dlog", "reference_m3_d4", "configuration"])
def test_synthesize_matches_composition_sum(case):
    # the jet solve and the explicit composition sum are the same series
    forms, loops, dim, order = oracle_cases()[case]
    rng = np.random.default_rng(70)
    targets = RepresentationFamily(tuple(
        tuple(random_hermitian(dim, rng, norm_bound=2.0) for _ in range(order))
        for _ in range(forms.count)
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = np.array(synthesize(targets, forms, loops, order).coefficients)
    want = np.array(composition_synthesize(targets, forms, loops, order).coefficients)
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_synthesis_cost_is_linear_in_order(order, solve_count):
    # the loop normalization is checked in closed form, and each order
    # k >= 2 carries every piece of all m loops in one solve, K - 1 solves
    # whatever m is
    for m in (2, 3):
        punctures = [float(k) for k in range(m)]
        loops = puncture_loops(punctures, (m - 1) / 2 - 1.5j, 0.3)
        rng = np.random.default_rng(71)
        targets = RepresentationFamily.exponential_targets(
            [small_hermitian(rng) for _ in range(m)], order
        )
        solve_count.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            synthesize(targets, DifferenceForms(tuple(punctures)), loops, order, tol=1e-10)
        assert len(solve_count) == order - 1, m


def test_loop_normalization_verified(line_forms):
    # loops swapped against the forms violate int_{gamma_j} w_k = 2 pi i delta
    loops = puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3)[::-1]
    targets = RepresentationFamily.exponential_targets([np.zeros((2, 2))] * 2, 1)
    with pytest.raises(ValueError):
        synthesize(targets, line_forms, loops, 1, tol=1e-10)


def test_open_path_is_not_dual(line_forms, line_loops):
    approach = PiecewisePath(line_loops[0].segments[:1])
    targets = RepresentationFamily.exponential_targets([np.zeros((2, 2))] * 2, 1)
    with pytest.raises(ValueError, match="not dual"):
        synthesize(targets, line_forms, [approach, line_loops[1]], 1, tol=1e-10)


def test_synthesis_on_a_loop_whose_circle_meets_another_puncture(line_forms):
    # the arc of the first loop lies on the unit circle, which passes through
    # the puncture at 1 outside the swept part
    first = arc_and_chord_loop()
    loops = [first, generator_loop(first.start[0], 1.0, 0.2, avoid=(0.0,))]
    rng = np.random.default_rng(72)
    targets = RepresentationFamily.exponential_targets(
        [small_hermitian(rng), small_hermitian(rng)], 3
    )
    fam = synthesize(targets, line_forms, loops, 3, tol=1e-11)
    residuals = series_residuals(fam, targets, loops, tol=1e-11)
    assert max(max(r) for r in residuals) < 1e-8


def test_order_truncation_validated(line_forms, line_loops):
    targets = RepresentationFamily.exponential_targets([np.zeros((2, 2))] * 2, 2)
    with pytest.raises(ValueError):
        synthesize(targets, line_forms, line_loops, 3, tol=1e-10)


def test_large_first_order_warns(line_forms, line_loops):
    big = np.eye(2) * 3.0
    targets = RepresentationFamily(((big,), (big,)))
    with pytest.warns(UserWarning):
        synthesize(targets, line_forms, line_loops, 1, tol=1e-10)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def test_evaluate_at_zero_is_zero_connection(line_forms, line_loops):
    targets = RepresentationFamily.exponential_targets([np.zeros((2, 2))] * 2, 2)
    fam = synthesize(targets, line_forms, line_loops, 2, tol=1e-10)
    conn = evaluate_at(fam, 0.0)
    assert all(frobenius(u) == 0.0 for u in conn.coefficients)


def test_evaluate_single_term_scaling(line_forms):
    u = random_hermitian(2, np.random.default_rng(2))
    fam = ConnectionFamily(line_forms, ((u,), (2 * u,)))
    conn = evaluate_at(fam, 0.1)
    assert frobenius(conn.coefficients[0] - 0.1 * u) < 1e-15
    assert frobenius(conn.coefficients[1] - 0.2 * u) < 1e-15


def test_partial_sum_difference_is_last_term(line_forms):
    rng = np.random.default_rng(6)
    u1, u2 = random_hermitian(2, rng), random_hermitian(2, rng)
    fam1 = ConnectionFamily(line_forms, ((u1,), (u1,)))
    fam2 = ConnectionFamily(line_forms, ((u1, u2), (u1, u2)))
    lam = 0.07
    c1 = evaluate_at(fam1, lam)
    c2 = evaluate_at(fam2, lam)
    diff = frobenius(c2.coefficients[0] - c1.coefficients[0])
    assert abs(diff - abs(lam) ** 2 * frobenius(u2)) < 1e-14


def test_radius_warning(line_forms):
    u = np.eye(2)
    fam = ConnectionFamily(line_forms, ((u, 10 * u), (u, 10 * u)))  # radius ~ 0.1
    with pytest.warns(UserWarning):
        evaluate_at(fam, 0.5)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------

def test_zero_targets_verify_exactly(line_forms, line_loops):
    targets = RepresentationFamily.exponential_targets([np.zeros((2, 2))] * 2, 3)
    fam = synthesize(targets, line_forms, line_loops, 3, tol=1e-10)
    report = verify_match(targets, fam, 0.05, line_loops, tol=1e-10)
    assert report.max_deviation < 1e-10


def test_single_generator_against_exact_exponential():
    h = random_hermitian(2, np.random.default_rng(12))
    forms = DifferenceForms((0.0,))
    loop = generator_loop(2.0, 0.0, 0.5)
    targets = RepresentationFamily.exponential_targets([h], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = synthesize(targets, forms, [loop], 4, tol=1e-11)
        conn = evaluate_at(fam, 0.05)
    exact = expm(TWO_PI_I * 0.05 * h)
    got = transport(conn, loop, 1e-11)
    assert frobenius(got - exact) < 1e-5


def test_order_doubling_shrinks_deviation(line_forms, line_loops):
    rng = np.random.default_rng(1)
    hs = [random_hermitian(2, rng, 1.0), random_hermitian(2, rng, 1.0)]
    targets = RepresentationFamily.exponential_targets(hs, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam2 = synthesize(targets, line_forms, line_loops, 2, tol=1e-11)
        fam4 = synthesize(targets, line_forms, line_loops, 4, tol=1e-11)
        v2 = verify_match(targets, fam2, 0.05, line_loops, tol=1e-11)
        v4 = verify_match(targets, fam4, 0.05, line_loops, tol=1e-11)
    assert v4.max_deviation <= 1e-5
    assert v2.max_deviation / v4.max_deviation >= 50


def test_series_residuals_on_random_targets(line_forms, line_loops):
    # order-by-order exactness of the synthesized Peano series
    rng = np.random.default_rng(30)
    coeffs = tuple(
        tuple(small_hermitian(rng, 0.5) for _ in range(3)) for _ in range(2)
    )
    targets = RepresentationFamily(coeffs)
    fam = synthesize(targets, line_forms, line_loops, 3, tol=1e-11)
    residuals = series_residuals(fam, targets, line_loops, tol=1e-11)
    assert max(max(r) for r in residuals) < 1e-8


def test_jet_monodromy_matches_compositions(line_forms, line_loops):
    # independent cross-check of the composition enumeration
    rng = np.random.default_rng(31)
    coeffs = tuple(
        tuple(small_hermitian(rng, 0.4) for _ in range(3)) for _ in range(2)
    )
    fam = ConnectionFamily(line_forms, coeffs)
    (jets,) = jet_monodromy(fam, [line_loops[0]], 3, tol=1e-11)
    u1 = [gen[0] for gen in coeffs]
    first = sum(
        chen_integral(line_forms, [j], line_loops[0], 1e-11) * u1[j] for j in range(2)
    )
    assert frobenius(jets[0] - first) < 1e-9


def test_jet_connection_is_built_on_the_family_forms(monkeypatch, line_forms, line_loops):
    # the block-Toeplitz connection and the evaluated one reuse the family's
    # form system (and with it its divisor) instead of rebuilding it
    seen = []
    piece_ends = lappo_danilevski._piece_ends

    def capturing(conn, paths, tol, start):
        seen.append(conn)
        return piece_ends(conn, paths, tol, start)

    monkeypatch.setattr(lappo_danilevski, "_piece_ends", capturing)
    rng = np.random.default_rng(32)
    fam = ConnectionFamily(line_forms, tuple(tuple(small_hermitian(rng) for _ in range(2)) for _ in range(2)))
    jet_monodromy(fam, line_loops, 2, 1e-8)
    assert len(seen) == 1
    assert seen[0].forms is fam.forms
    assert evaluate_at(fam, 0.05).forms is fam.forms


def test_unitary_targets_give_unitary_monodromy(line_forms, line_loops):
    rng = np.random.default_rng(40)
    hs = [random_hermitian(2, rng, 0.6), random_hermitian(2, rng, 0.6)]
    targets = RepresentationFamily.exponential_targets(hs, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = synthesize(targets, line_forms, line_loops, 4, tol=1e-11)
        conn = evaluate_at(fam, 0.04)
    for loop in line_loops:
        m = transport(conn, loop, 1e-11)
        assert unitarity_defect(m) < 1e-4  # up to the truncation error


# ---------------------------------------------------------------------------
# Configuration-space forms (pure-braid route).
# ---------------------------------------------------------------------------

def test_configuration_forms_linking_numbers():
    forms = ConfigurationForms(3)
    assert forms.pairs == [(0, 1), (0, 2), (1, 2)]
    for k, (i, j) in enumerate(forms.pairs):
        loop = braid_word_path(3, pure_braid_word(3, i + 1, j + 1))
        for l in range(forms.count):
            got = chen_integral(forms, [l], loop, 1e-11)
            want = TWO_PI_I if l == k else 0.0
            assert abs(got - want) < 1e-8


def test_configuration_space_synthesis_and_flatness():
    # synthesize over the diagonal arrangement from pure-braid targets
    rng = np.random.default_rng(50)
    forms = ConfigurationForms(3)
    loops = [
        braid_word_path(3, pure_braid_word(3, i + 1, j + 1)) for (i, j) in forms.pairs
    ]
    coeffs = tuple(
        tuple(small_hermitian(rng, 0.3) for _ in range(2)) for _ in range(3)
    )
    targets = RepresentationFamily(coeffs)
    fam = synthesize(targets, forms, loops, 2, tol=1e-10)
    lam = 0.04
    conn = evaluate_at(fam, lam)
    report = verify_match(targets, fam, lam, loops, tol=1e-10)
    assert report.max_deviation < 5e-4  # O(lambda^3)
    # truncation breaks exact flatness only at order lambda^(K+1)
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = rng.standard_normal(3)
        v = 1j * rng.standard_normal(3)
        assert curvature_residual(conn, z, u, v) <= max(1e-10, abs(lam) ** 3 * 100)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_family_json_roundtrip():
    rng = np.random.default_rng(60)
    series = RepresentationFamily.exponential_targets([random_hermitian(2, rng)], 3)
    targets = RepresentationFamily(series.coefficients, labels=("g1",))
    again = family_from_json(family_to_json(targets))
    assert again.labels == ("g1",)
    for k in range(3):
        assert np.allclose(again.coefficients[0][k], targets.coefficients[0][k])


def test_connection_family_json_roundtrip(line_forms):
    u = random_hermitian(2, np.random.default_rng(61))
    fam = ConnectionFamily(line_forms, ((u,), (2 * u,)))
    again = connection_family_from_json(connection_family_to_json(fam))
    assert again.forms.points == (0.0, 1.0)
    assert np.allclose(again.coefficients[1][0], 2 * u)
