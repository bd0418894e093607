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
"""

from itertools import combinations

import numpy as np
from scipy.linalg import expm

from monogate.lappo_danilevski import ConnectionFamily, matrix_chen_integral
from monogate.matrices import as_square_matrix

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
