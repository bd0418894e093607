"""Independent reference implementations used only by the tests.

Each oracle computes something the library also computes, by a different
and slower route, so tests can compare the two:

* `compositions` and `composition_synthesize`: the Lappo-Danilevski recursion
  as an explicit sum over integer compositions, one matrix Chen integral per
  composition (2^(k-1) - 1 solves per generator at order k), against the
  library's single jet solve per order and loop.
* `casimir_omega_via_coproduct`: the two-site Casimir coupling from the
  coproduct of the Casimir element.
* `two_point_solution`: the closed-form solution of the n = 2 KZ system.
* `sample_path`: dense point samples of a path, against analytic clearance.
* `unitarize_representation`: the most definite invariant Hermitian form of
  any representation by supergradient ascent over the space of forms,
  against `unitarize_kz`'s unique form per multiplicity block.
"""

from itertools import combinations

import numpy as np
from scipy.linalg import expm

from monogate.kz import UnitarizationResult, _hermitian_kernel_basis
from monogate.lappo_danilevski import ConnectionFamily, matrix_chen_integral
from monogate.matrices import as_square_matrix, unitarity_defect

TWO_PI_I = 2j * np.pi
ORACLE_SAMPLES = 2048


def compositions(k: int, q: int):
    """Ordered compositions of k into q positive parts."""
    for cuts in combinations(range(1, k), q - 1):
        bounds = (0,) + cuts + (k,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def composition_synthesize(targets, forms, loops, order: int, tol: float = 1e-10) -> ConnectionFamily:
    """U_k^j = (M_k^j - sum over compositions k_1+...+k_q = k, q >= 2 of the
    iterated integral of Omega_{k_1} ... Omega_{k_q} over gamma_j) / (2 pi i).

    Skips the loop-normalization check and the warnings of `synthesize`.
    """
    dim = targets.dim
    series = [[] for _ in range(targets.generators)]

    def omega(k):
        mats = np.array([gen[k - 1] for gen in series])
        return lambda z, v: np.tensordot(forms.weights(z, v), mats, axes=1)

    for k in range(1, order + 1):
        evaluators = {p: omega(p) for p in range(1, k)}
        for j in range(targets.generators):
            correction = np.zeros((dim, dim), dtype=complex)
            for q in range(2, k + 1):
                for parts in compositions(k, q):
                    words = [evaluators[p] for p in parts]
                    correction += matrix_chen_integral(words, loops[j], tol, forms.divisor, dim)
            series[j].append((targets.coefficients[j][k - 1] - correction) / TWO_PI_I)
    return ConnectionFamily(forms, tuple(tuple(gen) for gen in series))


def casimir_omega_via_coproduct(vi, vj) -> np.ndarray:
    """The coupling from (Delta c - c (x) 1 - 1 (x) c) / 2."""
    dim = vi.dim * vj.dim
    delta_c = np.zeros((dim, dim), dtype=complex)
    for a, b in zip(vi.spin_triple(), vj.spin_triple()):
        # images of the orthonormal basis elements are sqrt(2) * spin matrices
        da = np.sqrt(2.0) * (np.kron(a, np.eye(vj.dim)) + np.kron(np.eye(vi.dim), b))
        delta_c += da @ da
    c_left = vi.casimir_value() * np.eye(dim)
    c_right = vj.casimir_value() * np.eye(dim)
    return (delta_c - c_left - c_right) / 2.0


def two_point_solution(omega, lam: complex, z, c, winding: int = 0) -> np.ndarray:
    """F(z) = e^{(1/lambda) ln(z1 - z2) Omega} C on the principal branch,
    shifted by 2 pi i `winding` for other sheets."""
    omega = as_square_matrix(omega)
    z1, z2 = complex(z[0]), complex(z[1])
    if z1 == z2:
        raise ValueError("two-point solution undefined on the diagonal z1 = z2")
    log_w = np.log(z1 - z2) + 2j * np.pi * winding
    return expm((log_w / lam) * omega) @ np.asarray(c, dtype=complex)


def sample_path(path, per_segment: int = ORACLE_SAMPLES) -> np.ndarray:
    """Dense point samples along the whole path, shape (N, dim)."""
    ts = np.linspace(0.0, 1.0, per_segment)
    blocks = [np.stack([seg.at(t) for t in ts]) for seg in path.segments]
    return np.concatenate(blocks)


def _most_definite_form(basis, dim: int) -> tuple[np.ndarray, float]:
    """Maximize the smallest eigenvalue over the unit sphere of the form space.

    Supergradient ascent with softmin weights over the low eigenvalue cluster
    (the minimum is typically degenerate because the forms are block-scalar
    on isotypic components).  Returns the best form and its min eigenvalue.
    """

    def assemble(x):
        h = sum(c * b for c, b in zip(x, basis))
        return (h + h.conj().T) / 2.0

    vec_i = np.eye(dim, dtype=complex).reshape(-1)
    starts = [np.array([np.vdot(b.reshape(-1), vec_i).real for b in basis])]
    rng = np.random.default_rng(12345)
    starts.append(rng.standard_normal(len(basis)))
    best_x, best_val = None, -np.inf
    for x in starts:
        if np.linalg.norm(x) < 1e-14:
            continue
        for sign in (1.0, -1.0):
            y = sign * x / np.linalg.norm(x)
            step = 0.3
            for it in range(400):
                h = assemble(y)
                evals, vecs = np.linalg.eigh(h)
                if evals[0] > best_val:
                    best_x, best_val = y, evals[0]
                spread = max(evals[-1] - evals[0], 1e-12)
                tau = max(spread * 0.2 * (0.99**it), 1e-8)
                wts = np.exp(-(evals - evals[0]) / tau)
                wts /= wts.sum()
                grad = np.array(
                    [sum(wts[i] * np.vdot(vecs[:, i], b @ vecs[:, i]).real for i in range(dim)) for b in basis]
                )
                grad -= (grad @ y) * y
                gn = np.linalg.norm(grad)
                if gn < 1e-14:
                    break
                y = y + step * grad / gn * min(1.0, spread)
                y /= np.linalg.norm(y)
                step *= 0.995
    return assemble(best_x), best_val


def unitarize_representation(mats, rank_cut: float = 1e-7) -> UnitarizationResult:
    """Conjugate a unitarizable representation into a unitary frame.

    Generic reference: maximizes the smallest eigenvalue over the whole space
    of invariant Hermitian forms and conjugates by the square root of the
    best form.  Raises when only a degenerate form exists.  `unitarize_kz`
    reads the unique form of each KZ multiplicity block instead."""
    mats = [as_square_matrix(m) for m in mats]
    dim = mats[0].shape[0]
    basis = _hermitian_kernel_basis(mats)
    h, lam_min = _most_definite_form(basis, dim)
    h = h / np.linalg.eigvalsh(h)[-1]
    if lam_min <= rank_cut:
        raise ValueError(
            "the maximal invariant form is degenerate (null vectors); "
            "no positive definite invariant form exists"
        )
    evals, vecs = np.linalg.eigh(h)
    root = (vecs * np.sqrt(evals)) @ vecs.conj().T
    root_inv = (vecs / np.sqrt(evals)) @ vecs.conj().T
    conjugated = tuple(root @ b @ root_inv for b in mats)
    defect = max(unitarity_defect(b) for b in conjugated)
    return UnitarizationResult(h, conjugated, defect, 0)
