"""Dense complex square matrices: the common carrier for gates, residues and
monodromies, plus the JSON wire format and the distance functions used
throughout the package.

Matrices are plain numpy arrays of dtype complex128.  This module only adds
validation, serialization and the handful of norms/metrics every other module
needs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_square_matrix",
    "frobenius",
    "unitarity_defect",
    "projective_distance",
    "matrix_to_json",
    "matrix_from_json",
    "complex_to_json",
    "complex_from_json",
    "random_unitary",
    "random_hermitian",
    "random_su2",
    "random_traceless_hermitian_unitary",
]

DEFAULT_UNITARITY_TOL = 1e-10


def as_square_matrix(entries) -> np.ndarray:
    """Coerce to a finite complex square matrix (dim >= 1)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m), "fro"))


def unitarity_defect(u) -> float:
    """Frobenius norm of U†U - I."""
    u = np.asarray(u, dtype=complex)
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def projective_distance(u, v) -> float:
    """min over unit phases of ||U - e^{i theta} V||_F.

    Closed form: the optimal phase aligns tr(U† V), giving
    sqrt(||U||^2 + ||V||^2 - 2 |tr(U† V)|).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    overlap = abs(np.trace(u.conj().T @ v))
    d2 = frobenius(u) ** 2 + frobenius(v) ** 2 - 2.0 * overlap
    return float(np.sqrt(max(d2, 0.0)))


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": n, "entries": [[{"re": .., "im": ..}, ..], ..]}
# ---------------------------------------------------------------------------

def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    return complex(obj["re"], obj.get("im", 0.0))


def matrix_to_json(m) -> dict:
    m = as_square_matrix(m)
    return {
        "dim": m.shape[0],
        "entries": [[complex_to_json(z) for z in row] for row in m],
    }


def matrix_from_json(obj) -> np.ndarray:
    entries = [[complex_from_json(z) for z in row] for row in obj["entries"]]
    m = as_square_matrix(entries)
    if "dim" in obj and m.shape[0] != obj["dim"]:
        raise ValueError(f"declared dim {obj['dim']} != actual {m.shape[0]}")
    return m


# ---------------------------------------------------------------------------
# Seeded random ensembles used by tests and the pipeline.
# ---------------------------------------------------------------------------

def random_hermitian(dim: int, rng: np.random.Generator, norm_bound: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix rescaled to spectral norm <= norm_bound."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    s = np.linalg.norm(h, 2)
    if s > 0:
        h *= norm_bound * rng.uniform(0.2, 1.0) / s
    return h


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(2) element from a uniform unit quaternion."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_traceless_hermitian_unitary(rng: np.random.Generator) -> np.ndarray:
    """Random point on the sphere x sx + y sy + z sz, x^2+y^2+z^2 = 1."""
    v = rng.standard_normal(3)
    x, y, z = v / np.linalg.norm(v)
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]])
