"""Parallel transport and monodromy of logarithmic connections.

A connection here is a matrix-valued 1-form with first-order poles,
Omega = sum_k C_k omega_k: a fixed system of m scalar logarithmic forms
omega_k against one stacked (m, d*d) tensor of coefficients C_k, evaluated
as (weights of the forms) @ (stack).  Two form systems cover every variant:
`DifferenceForms`, dz/(z - a_j) minus the same at a reference point (at
infinity for simple poles), and `ConfigurationForms`, d log(z_i - z_j) on the
configuration space of n points.  The variants `PointsConnection`,
`DifferencesConnection` and `ConfigurationConnection` differ only in how
their coefficients are named and serialized.

Transport solves dF = Omega(gamma(t)) gamma'(t) F dt with F(start) = I by an
adaptive embedded Runge-Kutta scheme (DOP853), one solve per piece of the
path, with the step capped by the piece's own distance from the divisor.  A
segment is one piece unless it dips toward the divisor in its interior; then
it is cut into pieces graded by clearance, so a loop that passes a pole at
distance h costs O(log(1/h)) solver steps rather than O(1/h).

Composition convention: loops act on solution columns, so traversing gamma
then delta gives M(delta) @ M(gamma).  The X_4 relation M1 M2 M3 M4 = I holds
for loops around punctures enumerated left to right along the real axis with
the basepoint below it (see `x4_generator_loops`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import schur

from .matrices import (
    as_square_matrix,
    complex_from_json,
    complex_to_json,
    frobenius,
    matrix_from_json,
    matrix_to_json,
)
from .paths import PiecewisePath, PointsDivisor, DiagonalDivisor, puncture_loops

__all__ = [
    "NumericsError",
    "DivisorContactError",
    "TransportError",
    "DefectiveMatrixError",
    "BranchCutError",
    "DifferenceForms",
    "ConfigurationForms",
    "PointsConnection",
    "ConfigurationConnection",
    "DifferencesConnection",
    "MonodromyRepresentation",
    "integrate_along",
    "transport",
    "monodromy_representation",
    "residue_log",
    "chern_index",
    "curvature_residual",
    "integrability_check",
    "IntegrabilityReport",
    "x4_generator_loops",
    "connection_to_json",
    "connection_from_json",
]

MIN_CLEARANCE = 1e-9
# Transport solves a piece whole when its clearance is at least GRADING times
# the clearance at its ends, and halves it otherwise (`_graded_pieces`).
GRADING = 0.5


class NumericsError(RuntimeError):
    """Base class for numerical failures (CLI exit code 2)."""


class DivisorContactError(NumericsError):
    def __init__(self, closest: float):
        super().__init__(f"path touches the divisor (closest approach {closest:.3e})")
        self.closest = closest


class TransportError(NumericsError):
    def __init__(self, message: str, closest: float):
        super().__init__(f"{message} (closest approach to divisor {closest:.3e})")
        self.closest = closest


class DefectiveMatrixError(NumericsError):
    pass


class BranchCutError(NumericsError):
    pass


# ---------------------------------------------------------------------------
# Scalar form systems.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceForms:
    """omega_j = dz/(z - a_j) - dz/(z - a_ref) on a punctured line.

    reference=None puts the reference puncture at infinity (plain dlog forms).
    """

    points: tuple[complex, ...]
    reference: complex | None = None
    _point_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(a) for a in self.points))
        if self.reference is not None:
            object.__setattr__(self, "reference", complex(self.reference))
        object.__setattr__(self, "_point_vector", np.array(self.points, dtype=complex))

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def ambient(self) -> int:
        return 1

    @property
    def divisor(self) -> PointsDivisor:
        pts = self.points if self.reference is None else self.points + (self.reference,)
        return PointsDivisor(pts)

    def weights(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All form values omega_j(z)(v) as one vector."""
        z0, v0 = complex(z[0]), complex(v[0])
        w = v0 / (z0 - self._point_vector)
        if self.reference is not None:
            w -= v0 / (z0 - self.reference)
        return w

    def connection(self, coefficients) -> "DifferencesConnection":
        return DifferencesConnection(self.points, tuple(coefficients), reference=self.reference)


@dataclass(frozen=True)
class ConfigurationForms:
    """The forms d log(z_i - z_j) on the configuration space of n points,
    indexed by the lexicographic list of pairs i < j."""

    n: int
    # First and second index of every pair, for `weights`.
    _left: np.ndarray = field(init=False, repr=False, compare=False)
    _right: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        left, right = np.triu_indices(self.n, k=1)
        object.__setattr__(self, "_left", left)
        object.__setattr__(self, "_right", right)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._left.tolist(), self._right.tolist()))

    @property
    def count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def ambient(self) -> int:
        return self.n

    @property
    def divisor(self) -> DiagonalDivisor:
        return DiagonalDivisor(self.n)

    def weights(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All form values d log(z_i - z_j)(v) as one vector, in `pairs` order."""
        i, j = self._left, self._right
        return (v[i] - v[j]) / (z[i] - z[j])

    def connection(self, coefficients) -> "ConfigurationConnection":
        return ConfigurationConnection(self.n, dict(zip(self.pairs, coefficients)))


# ---------------------------------------------------------------------------
# Connection variants.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _StackedConnection:
    """Omega = sum_k C_k omega_k: scalar forms against one coefficient stack.

    `_stack` holds C_k as row k of an (m, d*d) array, the only copy of the
    coefficients; the matrices a variant exposes are read-only views of it.
    """

    forms: DifferenceForms | ConfigurationForms = field(init=False, repr=False, compare=False)
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def _store(self, forms, rows, dim: int) -> np.ndarray:
        """Stack (k, C_k) pairs once, zero where no C_k is given; returns
        the (m, d, d) view."""
        stack = np.zeros((forms.count, dim, dim), dtype=complex)
        for k, m in rows:
            stack[k] = m
        stack.setflags(write=False)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "_stack", stack.reshape(forms.count, dim * dim))
        return stack

    @property
    def dim(self) -> int:
        return math.isqrt(self._stack.shape[1])

    @property
    def ambient(self) -> int:
        return self.forms.ambient

    @property
    def divisor(self):
        return self.forms.divisor

    def contract(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        d = self.dim
        return (self.forms.weights(z, v) @ self._stack).reshape(d, d)


def _same_dim(mats, what: str) -> int:
    if mats and any(m.shape != mats[0].shape for m in mats):
        raise ValueError(f"all {what} must share one dimension")
    return mats[0].shape[0] if mats else 1


@dataclass(frozen=True)
class PointsConnection(_StackedConnection):
    """Omega = sum_j A_j dz / (z - s_j) on C minus the poles."""

    poles: tuple[complex, ...]
    residues: tuple[np.ndarray, ...]
    regular_at_infinity: bool = False

    def __post_init__(self):
        poles = tuple(complex(s) for s in self.poles)
        res = tuple(as_square_matrix(a) for a in self.residues)
        if len(poles) != len(res):
            raise ValueError("one residue matrix per pole required")
        dim = _same_dim(res, "residues")
        if self.regular_at_infinity and res:
            total = frobenius(sum(res))
            if total > 1e-12:
                raise ValueError(f"residues do not sum to zero (norm {total:.3e})")
        stack = self._store(DifferenceForms(poles), enumerate(res), dim)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", tuple(stack))


@dataclass(frozen=True)
class ConfigurationConnection(_StackedConnection):
    """Omega = sum_{i<j} O_ij d log(z_i - z_j) on the configuration space of n points."""

    n: int
    terms: dict = field(default_factory=dict)  # {(i, j) 0-based, i < j: matrix}

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("configuration connection needs n >= 2")
        for i, j in self.terms:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad index pair ({i}, {j}) for n={self.n}")
        mats = [as_square_matrix(m) for m in self.terms.values()]
        dim = _same_dim(mats, "matrices")
        forms = ConfigurationForms(self.n)
        row = {pair: k for k, pair in enumerate(forms.pairs)}
        stack = self._store(forms, ((row[pair], m) for pair, m in zip(self.terms, mats)), dim)
        object.__setattr__(self, "terms", {pair: stack[row[pair]] for pair in self.terms})

    def matrix(self, i: int, j: int) -> np.ndarray:
        if i > j:
            i, j = j, i
        got = self.terms.get((i, j))
        return got if got is not None else np.zeros((self.dim, self.dim), dtype=complex)


@dataclass(frozen=True)
class DifferencesConnection(_StackedConnection):
    """Omega = sum_j U^j (dz/(z - a_j) - dz/(z - a_ref)) on a punctured line.

    reference=None places the reference puncture at infinity, dropping the
    second term.
    """

    points: tuple[complex, ...]
    coefficients: tuple[np.ndarray, ...]
    reference: complex | None = None

    def __post_init__(self):
        forms = DifferenceForms(self.points, self.reference)
        coeffs = tuple(as_square_matrix(u) for u in self.coefficients)
        if forms.count != len(coeffs):
            raise ValueError("one coefficient matrix per puncture required")
        stack = self._store(forms, enumerate(coeffs), _same_dim(coeffs, "coefficients"))
        object.__setattr__(self, "points", forms.points)
        object.__setattr__(self, "coefficients", tuple(stack))
        object.__setattr__(self, "reference", forms.reference)

    def as_points_connection(self) -> PointsConnection:
        """Equivalent simple-pole form (adds the reference pole if finite)."""
        if self.reference is None:
            return PointsConnection(self.points, self.coefficients)
        total = -sum(self.coefficients, np.zeros((self.dim, self.dim), dtype=complex))
        return PointsConnection(
            self.points + (self.reference,),
            self.coefficients + (total,),
            regular_at_infinity=True,
        )


Connection = PointsConnection | ConfigurationConnection | DifferencesConnection


# ---------------------------------------------------------------------------
# Transport.
# ---------------------------------------------------------------------------

def _segment_step_cap(seg, clearance: float) -> float:
    speed = seg.max_speed()
    if speed == 0.0:
        return 1.0
    return float(min(1.0, max(1e-5, 0.5 * clearance / speed)))


def _graded_pieces(seg, clearance: float, divisor):
    """(piece, clearance) pairs covering the segment in order.

    A piece whose clearance is at least GRADING times the clearance at its
    ends is kept: its worst point is near an end, and one step cap fits all
    of it.  Otherwise it dips toward the divisor in its interior (a line
    threading past a pole it does not encircle) and is halved.  Arcs around
    their own pole, approach lines ending on the pole's circle and braid
    half-twists stay whole.  Around a dip at distance h the kept pieces are
    about as long as their distance from the divisor, so there are
    O(log(1/h)) of them.
    """
    pieces = []
    stack = [(0.0, 1.0, seg, clearance)]
    while stack:
        t0, t1, piece, c = stack.pop()
        ends = min(divisor.point_distance(piece.start_point), divisor.point_distance(piece.end_point))
        if c >= GRADING * ends:
            pieces.append((piece, c))
            continue
        tm = 0.5 * (t0 + t1)
        left, right = seg.piece(t0, tm), seg.piece(tm, t1)
        stack.append((tm, t1, right, divisor.segment_distance(right)))
        stack.append((t0, tm, left, divisor.segment_distance(left)))
    return pieces


def integrate_along(path: PiecewisePath, rhs_for_segment, y0: np.ndarray, tol: float,
                    divisor) -> np.ndarray:
    """Drive an ODE state along a path, piece by piece.

    `rhs_for_segment(seg)` must return an f(t, y) for t in [0, 1]; it is
    called with whole segments and with pieces of them (`seg.piece`).  The
    local solver tolerance sits two orders below `tol`.  Each piece is one
    solve whose step is capped at 0.5 x (the piece's own clearance from the
    divisor) / speed, so no step can skip a pole.  Segments that pass close
    to a pole in their interior are cut into pieces graded by clearance
    (`_graded_pieces`), so their cost grows like log(1/h) in the closest
    approach h, not like 1/h.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rtol = max(tol * 1e-2, 3e-14)
    atol = max(tol * 1e-3, 1e-14)
    state = np.asarray(y0, dtype=complex).reshape(-1)
    for seg in path.segments:
        clearance = divisor.segment_distance(seg)
        if clearance <= MIN_CLEARANCE:
            raise DivisorContactError(clearance)
        if seg.max_speed() == 0.0:
            continue
        for piece, piece_clearance in _graded_pieces(seg, clearance, divisor):
            sol = solve_ivp(
                rhs_for_segment(piece),
                (0.0, 1.0),
                state,
                method="DOP853",
                rtol=rtol,
                atol=atol,
                max_step=_segment_step_cap(piece, piece_clearance),
            )
            if not sol.success:
                raise TransportError(f"integrator failed: {sol.message}", piece_clearance)
            state = sol.y[:, -1]
    return state


def transport(conn: Connection, path: PiecewisePath, tol: float = 1e-10) -> np.ndarray:
    """Path-ordered exponential: F at the path end with F(start) = I."""
    if path.dimension != conn.ambient:
        raise ValueError(f"path in C^{path.dimension} vs connection on C^{conn.ambient}")
    d = conn.dim

    def rhs_for(seg):
        def rhs(t, y):
            a = conn.contract(seg.at(t), seg.velocity(t))
            return (a @ y.reshape(d, d)).reshape(-1)

        return rhs

    out = integrate_along(path, rhs_for, np.eye(d, dtype=complex).reshape(-1), tol, conn.divisor)
    return out.reshape(d, d)


@dataclass(frozen=True)
class MonodromyRepresentation:
    """Monodromy matrices of a loop system, one per generator label."""

    labels: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]
    basepoint: np.ndarray

    def __post_init__(self):
        mats = tuple(as_square_matrix(m) for m in self.matrices)
        if len(self.labels) != len(mats):
            raise ValueError("one label per matrix required")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "basepoint", np.atleast_1d(np.asarray(self.basepoint, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def product_defect(self) -> float:
        """||M_1 M_2 ... M_m - I||_F, the presentation-relation residual."""
        prod = np.eye(self.dim, dtype=complex)
        for m in self.matrices:
            prod = prod @ m
        return frobenius(prod - np.eye(self.dim))


def monodromy_representation(conn: Connection, loops, tol: float = 1e-10,
                             labels=None) -> MonodromyRepresentation:
    """Transport each loop; all loops must share the basepoint."""
    loops = list(loops)
    if not loops:
        raise ValueError("no loops given")
    base = loops[0].start
    for p in loops[1:]:
        if float(np.linalg.norm(p.start - base)) > 1e-9:
            raise ValueError("loops do not share a basepoint")
    if labels is None:
        labels = tuple(f"gamma_{k+1}" for k in range(len(loops)))
    mats = tuple(transport(conn, p, tol) for p in loops)
    return MonodromyRepresentation(tuple(labels), mats, base)


def x4_generator_loops(punctures, basepoint: complex, radius: float) -> list[PiecewisePath]:
    """Standard generator loops on CP^1 minus four (or m) punctures.

    Punctures are sorted by increasing real part before loop construction;
    with the basepoint below the real axis this ordering makes the transport
    matrices satisfy M1 M2 ... Mm = I whenever the residues sum to zero
    (regularity at infinity kills the loop around all punctures).
    """
    ordered = sorted((complex(s) for s in punctures), key=lambda s: s.real)
    return puncture_loops(ordered, basepoint, radius)


# ---------------------------------------------------------------------------
# Matrix logarithms and the Chern index.
# ---------------------------------------------------------------------------

def _eigensystem(m: np.ndarray):
    """Eigen-decomposition preferring a unitary one for normal matrices."""
    scale = max(frobenius(m), 1.0)
    normal_defect = frobenius(m @ m.conj().T - m.conj().T @ m)
    if normal_defect <= 1e-12 * scale:
        t, q = schur(m, output="complex")
        offdiag = frobenius(t - np.diag(np.diag(t)))
        if offdiag <= 1e-10 * scale:
            return np.diag(t), q, q.conj().T
    w, v = np.linalg.eig(m)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e8:
        raise DefectiveMatrixError(
            "matrix is defective within tolerance: eigenvector condition "
            f"{cond:.2e}, eigenvalues {np.round(w, 6)}"
        )
    return w, v, np.linalg.inv(v)


def residue_log(m, branch_start: float = 0.0) -> np.ndarray:
    """E with e^{2 pi i E} = M, eigenvalue arguments in [branch_start, branch_start + 2 pi).

    Hermitian-unitary input gives Hermitian E.  Eigenvalues sitting just below
    the branch cut are rejected (their exponent would be unstable); shift the
    window instead.
    """
    m = as_square_matrix(m)
    w, v, vinv = _eigensystem(m)
    if np.min(np.abs(w)) < 1e-300:
        raise ValueError("matrix is singular; no logarithm")
    args = np.angle(w)
    frac = np.mod(args - branch_start, 2 * np.pi)
    if np.any(frac > 2 * np.pi - 1e-10):
        raise BranchCutError(
            "an eigenvalue argument sits on the branch-cut boundary; "
            "retry with a shifted window (branch_start)"
        )
    logs = np.log(np.abs(w)) + 1j * (branch_start + frac)
    e = (v * (logs / (2j * np.pi))) @ vinv
    return e


def chern_index(rep: MonodromyRepresentation, branch_start: float = 0.0,
                residual_tol: float = 1e-6) -> tuple[int, float]:
    """Sum of traces of the residue logarithms, rounded to the nearest integer.

    Returns (index, pre-rounding residual); raises if the branch choices are
    inconsistent with an integer class.
    """
    total = sum(complex(np.trace(residue_log(m, branch_start))) for m in rep.matrices)
    index = int(round(total.real))
    residual = abs(total - index)
    if residual > residual_tol:
        raise BranchCutError(
            f"trace sum {total:.8f} is not an integer (residual {residual:.3e}); "
            "branch choices are inconsistent"
        )
    return index, residual


# ---------------------------------------------------------------------------
# Flatness.
# ---------------------------------------------------------------------------

def curvature_residual(conn: Connection, point, u, v) -> float:
    """||Omega(u) Omega(v) - Omega(v) Omega(u)||_F at the point.

    d Omega = 0 holds identically for logarithmic forms, so this commutator
    is the whole curvature obstruction.
    """
    point = np.atleast_1d(np.asarray(point, dtype=complex))
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if conn.divisor.point_distance(point) <= MIN_CLEARANCE:
        raise DivisorContactError(conn.divisor.point_distance(point))
    a = conn.contract(point, u)
    b = conn.contract(point, v)
    return frobenius(a @ b - b @ a)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Violations of the infinitesimal braid relations, largest first."""

    max_violation: float
    violations: tuple

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_violation <= tol


def integrability_check(conn: ConfigurationConnection) -> IntegrabilityReport:
    """Check [O_ij, O_ik + O_jk] = 0, [O_ik, O_ij + O_jk] = 0 for i<j<k and
    [O_ij, O_kl] = 0 for disjoint pairs; report the worst violation."""
    if not isinstance(conn, ConfigurationConnection):
        raise ValueError("integrability check applies to configuration-space connections")
    n = conn.n
    records = []

    def comm(a, b):
        return frobenius(a @ b - b @ a)

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                o_ij, o_ik, o_jk = conn.matrix(i, j), conn.matrix(i, k), conn.matrix(j, k)
                records.append((f"[O_{i+1}{j+1}, O_{i+1}{k+1} + O_{j+1}{k+1}]", comm(o_ij, o_ik + o_jk)))
                records.append((f"[O_{i+1}{k+1}, O_{i+1}{j+1} + O_{j+1}{k+1}]", comm(o_ik, o_ij + o_jk)))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                for l in range(k + 1, n):
                    if len({i, j, k, l}) == 4 and (i, j) < (k, l):
                        records.append(
                            (f"[O_{i+1}{j+1}, O_{k+1}{l+1}]", comm(conn.matrix(i, j), conn.matrix(k, l)))
                        )
    records.sort(key=lambda r: -r[1])
    worst = records[0][1] if records else 0.0
    return IntegrabilityReport(worst, tuple(records))


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------

def connection_to_json(conn: Connection) -> dict:
    if isinstance(conn, PointsConnection):
        return {
            "variant": "points",
            "poles": [complex_to_json(s) for s in conn.poles],
            "residues": [matrix_to_json(a) for a in conn.residues],
            "regular_at_infinity": conn.regular_at_infinity,
        }
    if isinstance(conn, DifferencesConnection):
        return {
            "variant": "differences",
            "points": [complex_to_json(a) for a in conn.points],
            "reference": None if conn.reference is None else complex_to_json(conn.reference),
            "coefficients": [matrix_to_json(u) for u in conn.coefficients],
        }
    if isinstance(conn, ConfigurationConnection):
        return {
            "variant": "configuration",
            "n": conn.n,
            "terms": [
                {"i": i + 1, "j": j + 1, "matrix": matrix_to_json(m)}
                for (i, j), m in sorted(conn.terms.items())
            ],
        }
    raise ValueError(f"unknown connection type {type(conn).__name__}")


def connection_from_json(obj) -> Connection:
    variant = obj.get("variant")
    if variant == "points":
        return PointsConnection(
            tuple(complex_from_json(s) for s in obj["poles"]),
            tuple(matrix_from_json(a) for a in obj["residues"]),
            regular_at_infinity=bool(obj.get("regular_at_infinity", False)),
        )
    if variant == "differences":
        ref = obj.get("reference")
        return DifferencesConnection(
            tuple(complex_from_json(a) for a in obj["points"]),
            tuple(matrix_from_json(u) for u in obj["coefficients"]),
            reference=None if ref is None else complex_from_json(ref),
        )
    if variant == "configuration":
        terms = {
            (t["i"] - 1, t["j"] - 1): matrix_from_json(t["matrix"]) for t in obj["terms"]
        }
        return ConfigurationConnection(obj["n"], terms)
    raise ValueError(f"unknown connection variant {variant!r}")
