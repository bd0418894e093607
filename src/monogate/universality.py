"""Heuristic density screening for finite gate sets.

Whether a finite subset of SU(2) generates a dense subgroup cannot be decided
numerically; this module gives a three-way verdict (abelian / finite-suspect
/ dense-likely) from commutator checks and breadth-first closure saturation,
plus a quantitative epsilon-net coverage measure against Haar samples.  All
comparisons are projective: gates are identified up to a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate_core import QuantumGate
from .matrices import as_square_matrix, frobenius, projective_distance

__all__ = [
    "GateSet",
    "projective_distance",
    "ScreenReport",
    "CoverageReport",
    "density_screen",
    "epsilon_net_coverage",
    "haar_su2_samples",
]

ABELIAN_TOL = 1e-10
DEDUP_TOL = 1e-6
DEFAULT_MAXLEN = 16
DEFAULT_NODE_BUDGET = 20000


@dataclass(frozen=True)
class GateSet:
    """Common-dimension unitary generators with labels."""

    generators: tuple[np.ndarray, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        gens = tuple(as_square_matrix(g) for g in self.generators)
        if not gens:
            raise ValueError("gate set needs at least one generator")
        dim = gens[0].shape[0]
        if any(g.shape[0] != dim for g in gens):
            raise ValueError("all generators must share one dimension")
        for g in gens:
            QuantumGate(g)  # unitarity and power-of-two dimension checks
        labels = self.labels or tuple(f"g{k+1}" for k in range(len(gens)))
        if len(labels) != len(gens):
            raise ValueError("one label per generator required")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]


def _dedup_key(u: np.ndarray) -> bytes:
    """Projective grid key: the first entry within DEDUP_TOL of the largest
    magnitude is rotated to real positive, then entries are rounded to
    integers on a 1/DEDUP_TOL grid (integers have no -0.0, so the
    phase-fixed form of every element has one key)."""
    flat = u.reshape(-1)
    mags = np.abs(flat)
    k = int(np.argmax(mags >= mags.max() - DEDUP_TOL))
    v = flat / (flat[k] / mags[k])
    return np.rint(v.view(float) * (1 / DEDUP_TOL)).astype(np.int64).tobytes()


def _closure_levels(gs: GateSet, maxlen: int, node_budget: int):
    """Breadth-first closure of the generators and their inverses.

    Yields nothing; returns (elements, levels, saturated, budget_exhausted)
    where levels[k] counts the new elements at word length k.
    """
    alphabet = list(gs.generators) + [g.conj().T for g in gs.generators]
    eye = np.eye(gs.dim, dtype=complex)
    seen = {_dedup_key(eye)}
    elements = [eye]
    frontier = [eye]
    levels = [1]
    saturated = False
    budget_exhausted = False
    for _ in range(maxlen):
        new = []
        for w in frontier:
            for a in alphabet:
                v = a @ w
                key = _dedup_key(v)
                if key not in seen:
                    seen.add(key)
                    new.append(v)
                    if len(seen) > node_budget:
                        budget_exhausted = True
                        break
            if budget_exhausted:
                break
        if not new:
            saturated = True
            break
        elements.extend(new)
        frontier = new
        levels.append(len(new))
        if budget_exhausted:
            break
    return elements, levels, saturated, budget_exhausted


@dataclass(frozen=True)
class ScreenReport:
    """Verdict of the density screen plus the evidence behind it."""

    verdict: str  # abelian | finite-suspect | dense-likely
    max_commutator: float
    closure_sizes: tuple[int, ...]
    saturated: bool
    budget_exhausted: bool

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_commutator": self.max_commutator,
            "closure_sizes": list(self.closure_sizes),
            "saturated": self.saturated,
            "budget_exhausted": self.budget_exhausted,
        }


def density_screen(gs: GateSet, maxlen: int = DEFAULT_MAXLEN,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> ScreenReport:
    """Classify a gate set as abelian, finite-suspect or dense-likely.

    Abelian: all generator pairs commute within 1e-10.  Finite-suspect: the
    projective closure under products stops growing before `maxlen`.
    Dense-likely: closure still growing at the word-length or node budget.
    The full closure screen is meaningful for dim 2; in higher dimension only
    the commutator part is conclusive and non-abelian sets report dense-likely
    on continued growth all the same.
    """
    max_comm = 0.0
    for a in range(len(gs.generators)):
        for b in range(a + 1, len(gs.generators)):
            u, v = gs.generators[a], gs.generators[b]
            max_comm = max(max_comm, frobenius(u @ v - v @ u))
    if len(gs.generators) == 1 or max_comm <= ABELIAN_TOL:
        return ScreenReport("abelian", max_comm, (1,), False, False)
    _, levels, saturated, exhausted = _closure_levels(gs, maxlen, node_budget)
    verdict = "finite-suspect" if saturated else "dense-likely"
    return ScreenReport(verdict, max_comm, tuple(levels), saturated, exhausted)


def haar_su2_samples(count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(2) matrices from uniform unit quaternions."""
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q.T
    out = np.empty((count, 2, 2), dtype=complex)
    out[:, 0, 0] = a + 1j * b
    out[:, 0, 1] = c + 1j * d
    out[:, 1, 0] = -c + 1j * d
    out[:, 1, 1] = a - 1j * b
    return out


@dataclass(frozen=True)
class CoverageReport:
    """Fraction of Haar targets within projective distance eps of some word."""

    coverage: float
    words: int
    maxlen: int
    eps: float
    samples: int
    seed: int
    partial: bool

    def as_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "words": self.words,
            "maxlen": self.maxlen,
            "eps": self.eps,
            "samples": self.samples,
            "seed": self.seed,
            "partial": self.partial,
        }


def epsilon_net_coverage(gs: GateSet, maxlen: int, eps: float, samples: int,
                         seed: int = 0, node_budget: int = 200000) -> CoverageReport:
    """Enumerate words up to `maxlen` and measure how much of SU(2) they cover.

    Coverage is the fraction of `samples` Haar targets lying within projective
    distance `eps` of some enumerated word.  A result truncated by the node
    budget is flagged partial.
    """
    if gs.dim != 2:
        raise ValueError("epsilon-net coverage is defined for single-qubit gate sets")
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    targets = haar_su2_samples(samples, rng)
    words, _, _, exhausted = _closure_levels(gs, maxlen, node_budget)
    stack = np.stack(words)
    # tr(W† T) for all pairs; projective distance = sqrt(4 - 2 |tr|)
    overlaps = np.abs(np.einsum("wij,nij->wn", stack.conj(), targets))
    d2 = 4.0 - 2.0 * overlaps.max(axis=0)
    covered = np.sqrt(np.clip(d2, 0.0, None)) <= eps
    return CoverageReport(
        coverage=float(np.mean(covered)),
        words=len(words),
        maxlen=maxlen,
        eps=eps,
        samples=samples,
        seed=seed,
        partial=exhausted,
    )
