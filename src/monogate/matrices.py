"""Dense complex square matrices: the common carrier for gates, residues and
monodromies, plus the JSON wire format.

Matrices are plain numpy arrays of dtype complex128.  This module only adds
validation, serialization and the norms every other module needs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_square_matrix",
    "frobenius",
    "unitarity_defect",
    "matrix_to_json",
    "matrix_from_json",
    "complex_to_json",
    "complex_from_json",
    "random_hermitian",
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
# Seeded random Hermitian matrices.
# ---------------------------------------------------------------------------

def random_hermitian(dim: int, rng: np.random.Generator, norm_bound: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix rescaled to spectral norm <= norm_bound."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    s = np.linalg.norm(h, 2)
    if s > 0:
        h *= norm_bound * rng.uniform(0.2, 1.0) / s
    return h
