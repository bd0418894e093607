from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import oracles
from monogate import universality
from monogate.gate_core import HADAMARD_STD, SIGMA_X, SIGMA_Z, named_gate
from monogate.kz import SpinModule, build_kz, unitarize_kz
from monogate.matrices import random_hermitian
from monogate.universality import (
    DEFAULT_MAXLEN,
    GateSet,
    _closure_levels,
    density_screen,
    epsilon_net_coverage,
    haar_su2_samples,
)
from oracles import closure_levels_reference, projective_distance, random_unitary

T_GATE = named_gate("PHASE", 0.25).matrix
PHASE_THIRD = named_gate("PHASE", 1 / 3).matrix
S_GATE = named_gate("PHASE", 0.5).matrix


@cache
def kz_spin_half_block(lam: float) -> tuple[np.ndarray, ...]:
    """The B_3 generators on the spin-1/2 block of the n = 3 KZ gates."""
    res = unitarize_kz(build_kz([SpinModule(0.5)] * 3, lam), tol=1e-10)
    assert res.radical_dim == 0
    return tuple(m[:2, :2] for m in res.matrices)


# verdict and exact projective order (None where there is no finite order)
KNOWN_SETS = {
    "abelian": (lambda: (PHASE_THIRD,), "abelian", None),
    "pauli": (lambda: (SIGMA_X, SIGMA_Z), "finite-suspect", 4),
    "clifford": (lambda: (HADAMARD_STD, S_GATE), "finite-suspect", 24),
    "kz4": (lambda: kz_spin_half_block(4.0), "finite-suspect", 24),
    "kz6": (lambda: kz_spin_half_block(6.0), "finite-suspect", 12),
    "kz10": (lambda: kz_spin_half_block(10.0), "finite-suspect", 60),
    "ht": (lambda: (HADAMARD_STD, T_GATE), "dense-likely", None),
}


@pytest.fixture(scope="module")
def ht_set():
    return GateSet((HADAMARD_STD, T_GATE), ("H_std", "T"))


# ---------------------------------------------------------------------------
# Screen verdicts.
# ---------------------------------------------------------------------------

def test_single_diagonal_generator_is_abelian():
    assert density_screen(GateSet((SIGMA_Z,))).verdict == "abelian"


def test_phase_gate_is_abelian():
    assert density_screen(GateSet((PHASE_THIRD,))).verdict == "abelian"


def test_pauli_pair_is_finite_suspect():
    report = density_screen(GateSet((SIGMA_X, SIGMA_Z)))
    assert report.verdict == "finite-suspect"
    assert report.saturated
    # projectively {I, X, Z, XZ}: the Klein four-group
    assert sum(report.closure_sizes) == 4


def test_clifford_pair_has_projective_order_24():
    # <H, S> is the octahedral group projectively; H and S have entries of
    # tied magnitude, where the phase pivot must not depend on rounding
    report = density_screen(GateSet((HADAMARD_STD, named_gate("PHASE", 0.5).matrix)))
    assert report.verdict == "finite-suspect"
    assert sum(report.closure_sizes) == 24


@pytest.mark.parametrize("lam, order", [(4.0, 24), (6.0, 12), (10.0, 60)])
def test_kz_spin_half_block_projective_orders(lam, order):
    # B_3 images on the spin-1/2 block of the n = 3 KZ gates (Jones 1986):
    # octahedral at lambda = 4, tetrahedral at 6, icosahedral at 10
    report = density_screen(GateSet(kz_spin_half_block(lam)))
    assert report.verdict == "finite-suspect"
    assert sum(report.closure_sizes) == order


def test_haar_pair_closure_levels_are_free():
    # a Haar-random pair generates a free group: 4 * 3^(k-1) new words at
    # length k, up to the level where the node budget cuts the enumeration
    rng = np.random.default_rng(31)
    report = density_screen(GateSet(tuple(haar_su2_samples(2, rng))), node_budget=2000)
    levels = list(report.closure_sizes)
    assert levels[:-1] == [1] + [4 * 3 ** (k - 1) for k in range(1, len(levels) - 1)]
    assert levels[-1] <= 4 * 3 ** (len(levels) - 2)
    assert sum(levels) == 2001 and report.budget_exhausted


def closure_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    if kind == "haar":
        return tuple(haar_su2_samples(2, rng))
    if kind == "near-identity":
        # the pipeline's generators exp(2 pi i lambda H) at lambda = 0.05
        return tuple(expm(0.1j * np.pi * random_hermitian(4, rng)) for _ in range(3))
    return KNOWN_SETS[kind][0]()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["haar", "near-identity", "pauli", "clifford", "kz4", "kz6", "kz10"]),
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(0, 3000),
)
def test_closure_matches_reference(kind, seed, budget):
    # the budget cuts inside frontier slices and at their edges; the finite
    # sets have entries of tied magnitude, where the phase pivot is decided
    gs = GateSet(closure_case(kind, np.random.default_rng(seed)))
    elements, *rest = _closure_levels(gs, DEFAULT_MAXLEN, budget)
    ref_elements, *ref_rest = closure_levels_reference(gs, DEFAULT_MAXLEN, budget)
    assert rest == ref_rest
    ref_stack = np.stack(ref_elements)
    assert elements.shape == ref_stack.shape
    assert elements.tobytes() == ref_stack.tobytes()


def test_closure_keys_at_most_one_slice_past_the_cut(monkeypatch):
    # frontier slices sized by the budget's room key fewer than |alphabet|
    # products past the cut; keying the whole last level would key 4 * 8748
    rows, ref_rows = [], []
    keys, ref_key = universality._dedup_keys, oracles.dedup_key

    def counting(us):
        rows.append(len(us))
        return keys(us)

    def ref_counting(u):
        ref_rows.append(1)
        return ref_key(u)

    monkeypatch.setattr(universality, "_dedup_keys", counting)
    monkeypatch.setattr(oracles, "dedup_key", ref_counting)
    rng = np.random.default_rng(37)
    gs = GateSet(tuple(haar_su2_samples(2, rng)))
    _, levels, _, exhausted = _closure_levels(gs, DEFAULT_MAXLEN, 20000)
    _, ref_levels, _, _ = closure_levels_reference(gs, DEFAULT_MAXLEN, 20000)
    assert exhausted and levels == ref_levels
    assert 0 < sum(rows) <= len(ref_rows) + 4 - 1


def test_hadamard_t_is_dense_likely(ht_set):
    report = density_screen(ht_set)
    assert report.verdict == "dense-likely"
    assert not report.saturated


def test_commuting_pair_abelian_even_with_phases():
    a = np.diag([1.0, np.exp(0.4j)])
    b = np.diag([np.exp(-0.3j), np.exp(0.9j)])
    assert density_screen(GateSet((a, b))).verdict == "abelian"


def test_gate_set_validation():
    with pytest.raises(ValueError):
        GateSet(())
    with pytest.raises(ValueError):
        GateSet((SIGMA_X, np.eye(4)))
    with pytest.raises(ValueError):
        GateSet((np.array([[1, 0], [0, 1.01]]),))


# ---------------------------------------------------------------------------
# Coverage.
# ---------------------------------------------------------------------------

def test_identity_set_covers_nothing():
    gs = GateSet((np.eye(2, dtype=complex),))
    report = epsilon_net_coverage(gs, 4, 0.1, 200, seed=7)
    assert report.coverage <= 0.05


def test_ht_coverage_meets_baseline(ht_set):
    report = epsilon_net_coverage(ht_set, 12, 0.5, 200, seed=7)
    assert report.coverage >= 0.9
    assert not report.partial


def test_coverage_monotone_in_maxlen(ht_set):
    c = [
        epsilon_net_coverage(ht_set, L, 0.4, 150, seed=3).coverage
        for L in (4, 8, 12)
    ]
    assert c[0] <= c[1] <= c[2]


def test_coverage_monotone_in_eps(ht_set):
    c = [
        epsilon_net_coverage(ht_set, 8, eps, 150, seed=3).coverage
        for eps in (0.2, 0.4, 0.8)
    ]
    assert c[0] <= c[1] <= c[2]


def test_abelian_coverage_stays_low():
    # diagonal words cannot approximate generic off-diagonal targets
    gs = GateSet((PHASE_THIRD,))
    report = epsilon_net_coverage(gs, 16, 0.3, 200, seed=11)
    assert report.coverage < 0.5


def test_budget_flags_partial(ht_set):
    report = epsilon_net_coverage(ht_set, 12, 0.5, 50, seed=7, node_budget=100)
    assert report.partial


def test_coverage_counts_targets_within_eps_of_a_word(ht_set):
    # brute force over the same words and Haar targets, one projective
    # distance per pair
    words, *_ = _closure_levels(ht_set, 5, 200000)
    targets = haar_su2_samples(60, np.random.default_rng(5))
    covered = [min(projective_distance(w, t) for w in words) <= 0.4 for t in targets]
    report = epsilon_net_coverage(ht_set, 5, 0.4, 60, seed=5)
    assert report.words == len(words)
    assert report.coverage == np.mean(covered)


def test_coverage_needs_single_qubit():
    gs = GateSet((np.eye(4, dtype=complex),))
    with pytest.raises(ValueError):
        epsilon_net_coverage(gs, 4, 0.5, 10)


# ---------------------------------------------------------------------------
# Invariance properties.
# ---------------------------------------------------------------------------

def test_haar_samples_are_special_unitary():
    samples = haar_su2_samples(50, np.random.default_rng(0))
    for u in samples:
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=25)
@given(kind=st.sampled_from(sorted(KNOWN_SETS)), seed=st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_conjugation(kind, seed):
    # projective invariance: a phase per generator and one common Haar
    # conjugation keep the verdict and the exact order of a finite image
    make, verdict, order = KNOWN_SETS[kind]
    rng = np.random.default_rng(seed)
    v = random_unitary(2, rng)
    gens = tuple(
        np.exp(2j * np.pi * rng.random()) * (v @ g @ v.conj().T) for g in make()
    )
    report = density_screen(GateSet(gens))
    assert report.verdict == verdict
    if order is not None:
        assert sum(report.closure_sizes) == order
