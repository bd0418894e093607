import numpy as np
import pytest

from monogate.gate_core import HADAMARD_STD, SIGMA_X, SIGMA_Z, named_gate
from monogate.kz import SpinModule, build_kz, unitarize_kz
from monogate.matrices import random_su2, random_unitary
from monogate.universality import (
    GateSet,
    density_screen,
    epsilon_net_coverage,
    haar_su2_samples,
)

T_GATE = named_gate("PHASE", 0.25).matrix
PHASE_THIRD = named_gate("PHASE", 1 / 3).matrix


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
    res = unitarize_kz(build_kz([SpinModule(0.5)] * 3, lam), tol=1e-10)
    assert res.radical_dim == 0
    blocks = tuple(m[:2, :2] for m in res.matrices)
    report = density_screen(GateSet(blocks))
    assert report.verdict == "finite-suspect"
    assert sum(report.closure_sizes) == order


def test_haar_pair_closure_levels_are_free():
    # a Haar-random pair generates a free group: 4 * 3^(k-1) new words at
    # length k, up to the level where the node budget cuts the enumeration
    rng = np.random.default_rng(31)
    report = density_screen(GateSet((random_su2(rng), random_su2(rng))), node_budget=2000)
    levels = list(report.closure_sizes)
    assert levels[:-1] == [1] + [4 * 3 ** (k - 1) for k in range(1, len(levels) - 1)]
    assert levels[-1] <= 4 * 3 ** (len(levels) - 2)
    assert sum(levels) == 2001 and report.budget_exhausted


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


def test_verdict_invariant_under_conjugation():
    rng = np.random.default_rng(23)
    sets = {
        "abelian": (PHASE_THIRD,),
        "finite-suspect": (SIGMA_X, SIGMA_Z),
        "dense-likely": (HADAMARD_STD, T_GATE),
    }
    for expected, gens in sets.items():
        v = random_unitary(2, rng)
        conjugated = tuple(v @ g @ v.conj().T for g in gens)
        assert density_screen(GateSet(conjugated)).verdict == expected
