"""Qubit registers and gate algebra: named single-qubit gates, controlled
gates, tensor products, state application and measurement expectation.

Conventions
-----------
* Basis order is lexicographic |x1 ... xk> with x1 the leftmost (most
  significant) tensor factor.
* ``H`` denotes the matrix (1/sqrt 2)[[1, 1], [-1, 1]]; it differs from the
  textbook Hadamard (available as ``H_std``) by the placement of the minus
  sign.  Both are unitary and square to a phase.
* The controlled-NOT admits the projector decomposition
  |0><0| (x) 1 + |1><1| (x) sx.  (Writing |0><1| in the first term is a
  common slip: that operator is not a projector, and only the projector form
  reproduces the cNOT truth table.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    DEFAULT_UNITARITY_TOL,
    as_square_matrix,
    unitarity_defect,
)

__all__ = [
    "QuantumGate",
    "QubitState",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "HADAMARD",
    "HADAMARD_STD",
    "IDENTITY_2",
    "named_gate",
    "phase_gate",
    "controlled",
    "tensor",
    "apply",
    "expectation_value",
    "pauli_coefficients",
    "parse_gate_name",
    "GATE_NAMES",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

HADAMARD = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
HADAMARD_STD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

GATE_NAMES = ("X", "Y", "Z", "H", "H_std", "PHASE", "CNOT", "CCNOT")


@dataclass(frozen=True)
class QuantumGate:
    """A unitary operator on k qubits (dim 2^k)."""

    matrix: np.ndarray
    qubits: int = field(default=0)
    unitarity_tol: float = field(default=DEFAULT_UNITARITY_TOL, repr=False, compare=False)

    def __post_init__(self):
        m = as_square_matrix(self.matrix)
        k = int(np.log2(m.shape[0]) + 0.5)
        if 2**k != m.shape[0]:
            raise ValueError(f"gate dimension {m.shape[0]} is not a power of two")
        if self.qubits and self.qubits != k:
            raise ValueError(f"declared {self.qubits} qubits, matrix is {m.shape[0]}x{m.shape[0]}")
        defect = unitarity_defect(m)
        if defect > self.unitarity_tol:
            raise ValueError(f"matrix is not unitary: ||U†U - I||_F = {defect:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", k)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QubitState:
    """Normalized machine state of n qubits, amplitudes in lexicographic order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(amp.size) + 0.5)
        if 2**n != amp.size:
            raise ValueError(f"state length {amp.size} is not a power of two")
        defect = abs(np.sum(np.abs(amp) ** 2) - 1.0)
        if defect > 1e-10:
            raise ValueError(f"state is not normalized: |sum|c|^2 - 1| = {defect:.3e}")
        object.__setattr__(self, "amplitudes", amp)
        self.amplitudes.setflags(write=False)

    @property
    def qubits(self) -> int:
        return int(np.log2(self.amplitudes.size) + 0.5)

    @classmethod
    def basis(cls, bits: str) -> "QubitState":
        """Computational basis state from a bit string, e.g. '101'."""
        amp = np.zeros(2 ** len(bits), dtype=complex)
        amp[int(bits, 2)] = 1.0
        return cls(amp)


def phase_gate(alpha: float) -> QuantumGate:
    """diag(1, e^{i pi alpha}); alpha = 1 gives sz, alpha = 1/4 the T gate."""
    return QuantumGate(np.array([[1, 0], [0, np.exp(1j * np.pi * alpha)]], dtype=complex))


def named_gate(name: str, param: float | None = None) -> QuantumGate:
    """Look up a gate by name.  PHASE requires the exponent parameter."""
    table = {
        "X": SIGMA_X,
        "Y": SIGMA_Y,
        "Z": SIGMA_Z,
        "H": HADAMARD,
        "H_std": HADAMARD_STD,
        "I": IDENTITY_2,
    }
    if name == "PHASE":
        if param is None:
            raise ValueError("PHASE gate requires a parameter alpha")
        return phase_gate(param)
    if name == "CNOT":
        return controlled(QuantumGate(SIGMA_X), 1)
    if name == "CCNOT":
        return controlled(QuantumGate(SIGMA_X), 2)
    if name not in table:
        raise ValueError(f"unknown gate name {name!r}; known: {', '.join(GATE_NAMES)}")
    return QuantumGate(table[name])


def parse_gate_name(text: str) -> QuantumGate:
    """Parse a CLI gate name: plain, or 'PHASE:<alpha>' with its exponent."""
    if ":" in text:
        name, _, arg = text.partition(":")
        return named_gate(name, float(arg))
    return named_gate(text)


def controlled(u: QuantumGate, k: int) -> QuantumGate:
    """The controlled gate Lambda_k(U): apply U iff all k control bits are 1.

    Lambda_0(U) = U; the matrix is identity except for the final dim(U) block.
    """
    if k < 0:
        raise ValueError("number of control qubits must be >= 0")
    if k == 0:
        return u
    d = u.dim * 2**k
    m = np.eye(d, dtype=complex)
    m[d - u.dim :, d - u.dim :] = u.matrix
    return QuantumGate(m, u.qubits + k, u.unitarity_tol)


def tensor(gates: list[QuantumGate]) -> QuantumGate:
    """Kronecker product in list order; qubit counts add."""
    if not gates:
        raise ValueError("tensor of an empty gate list")
    m = gates[0].matrix
    for g in gates[1:]:
        m = np.kron(m, g.matrix)
    return QuantumGate(m, sum(g.qubits for g in gates))


def apply(g: QuantumGate, s: QubitState) -> QubitState:
    """Matrix-vector action; no renormalization (unitarity preserves norm)."""
    if g.dim != s.amplitudes.size:
        raise ValueError(f"gate dim {g.dim} != state dim {s.amplitudes.size}")
    return QubitState(g.matrix @ s.amplitudes)


def expectation_value(s: QubitState) -> float:
    """<N> = |beta|^2, the probability of reading |1> from a single qubit."""
    if s.amplitudes.size != 2:
        raise ValueError("expectation_value is defined for single-qubit states")
    return float(abs(s.amplitudes[1]) ** 2)


def pauli_coefficients(u) -> tuple[float, float, float]:
    """Solve U = x sx + y sy + z sz for a traceless Hermitian unitary U.

    Returns real (x, y, z) with x^2 + y^2 + z^2 = 1.
    """
    u = as_square_matrix(u)
    if u.shape != (2, 2):
        raise ValueError("Pauli decomposition needs a 2x2 matrix")
    if abs(np.trace(u)) > 1e-10 or not np.allclose(u, u.conj().T, atol=1e-10):
        raise ValueError("matrix is not traceless Hermitian")
    x = float(u[1, 0].real)
    y = float(u[1, 0].imag)
    z = float(u[0, 0].real)
    r = x * x + y * y + z * z
    if abs(r - 1.0) > 1e-8:
        raise ValueError(f"coefficients not on the unit sphere (|v|^2 = {r:.6f}); U not unitary")
    return x, y, z
