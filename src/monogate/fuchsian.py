"""Parallel transport and monodromy of logarithmic connections.

A connection here is a matrix-valued 1-form with first-order poles,
Omega = sum_k C_k omega_k: a fixed system of m scalar logarithmic forms
omega_k against one (m, d, d) stack of coefficients C_k, evaluated as
(weights of the forms) @ (stack).  There is one connection type,
`Connection(forms, coefficients)`, and two form systems:
`DifferenceForms`, dz/(z - a_j) minus the same at a reference point (at
infinity for simple poles, as in a Fuchsian system), and
`ConfigurationForms`, d log(z_i - z_j) on the configuration space of n
points (as in the KZ connection).  Both are sums of d log(linear function),
so their periods along lines and arcs are closed-form log increments
(`periods`).  `PointsConnection(poles, residues)` is a `Connection` on the
simple-pole forms that can also check that the residues sum to zero.  The
wire format names three variants, `points`, `differences` and
`configuration`, after the form system.

Every ODE in the package is one call of `_solve`: it drives a batch of
column blocks Y of dY = Omega(gamma(t)) gamma'(t) Y dt, one along each of B
path pieces or sub-pieces, by one adaptive embedded Runge-Kutta run
(DOP853) on the stacked (B, d, c) state.  Omega does not depend on Y, so
each step attempt evaluates it at all 12 of its stage times in one
contraction (`_LinearDOP853`), with scipy's steps, error rule and counters.
A batch whose connection holds at most W = SMALL_STATE complex entries
(B d^2) is stepped in real form, [Re Y; Im Y] under [[Re Omega, -Im Omega],
[Im Omega, Re Omega]], which numpy multiplies about three times faster in
stacks of tiny matrices.  The step is capped by the smallest of the members'
own distances from the divisor, and the local tolerances are divided by
sqrt(B), so every member keeps the error bound a solve of it alone would
accept until a tolerance floor binds (see `_solve`).  One schedule feeds
that solve (`_piece_ends`): every piece of every path starts from one given
block.  Transport is multiplicative along a path (Chen), so while the
batch's connection stays within W entries and B_floor = (tol / 1e-11)^2
members every piece is first cut into ceil(length / clearance) equal
sub-pieces, which take a few wide steps side by side instead of many narrow
ones in turn.  `transports` multiplies each path's piece propagators from I,
and `integrate_along` is a path's transport times a given block.  Jets and
Chen integrals are transports of nilpotent block connections over the same
forms (`lappo_danilevski`); a jet's connection is block-Toeplitz, so its
pieces carry thin first block columns, composed by truncated series
products.  A segment is one piece while its length is at most ASPECT = 8
times its clearance; a longer one is halved until every piece is, so a path
that passes a pole at distance h, inside a segment or at its end, costs
O(log(1/h)) pieces of a few steps each rather than O(1/h) steps.

Composition convention: loops act on solution columns, so traversing gamma
then delta gives M(delta) @ M(gamma).  The X_4 relation M1 M2 M3 M4 = I holds
for loops around punctures enumerated left to right along the real axis with
the basepoint below it (see `x4_generator_loops`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.linalg import schur

from .matrices import (
    as_square_matrix,
    complex_from_json,
    complex_to_json,
    frobenius,
    matrix_from_json,
    matrix_to_json,
)
from .paths import (
    ArcSegment,
    DiagonalDivisor,
    PiecewisePath,
    PointsDivisor,
    puncture_loops,
    segment_log_increment,
)

__all__ = [
    "NumericsError",
    "DivisorContactError",
    "TransportError",
    "DefectiveMatrixError",
    "BranchCutError",
    "DifferenceForms",
    "ConfigurationForms",
    "Connection",
    "PointsConnection",
    "MonodromyRepresentation",
    "integrate_along",
    "transports",
    "transport",
    "monodromy_representation",
    "residue_log",
    "integrability_check",
    "IntegrabilityReport",
    "x4_generator_loops",
    "connection_to_json",
    "connection_from_json",
]

MIN_CLEARANCE = 1e-9
# Transport solves a piece whole when its length is at most ASPECT times its
# clearance, and halves it otherwise (`_graded_pieces`).  Circles around their
# own pole (2 pi) and the standard approach lines (up to about 7.7 at radius
# 0.25, basepoint 1.5 below the axis) stay whole at 8; at 4 or 6 the lines
# split and standard results move, and at 16 near-pole pieces run longer
# (4,644 Omega evaluations per `monodromy` benchmark cycle against 4,584).
ASPECT = 8
# W: a batch whose connection holds at most this many complex entries, B d^2,
# is stepped in real form (`_solve`), and `_piece_ends` cuts its pieces to
# their clearance only while the cut batch stays within it.  (A jet's state
# is a thin column, but a step stacks 12 of its square Omega.)  Measured on one
# `transports` call of four standard loops (12 pieces, 84 when cut; d x d
# residues, tol 1e-10, 2-core Xeon VM, one BLAS thread), median ms of
# whole complex / whole real / cut complex / cut real:
#   d = 1:  12.2 / 13.1 /   5.2 /   6.4     d = 8:   21.4 /  16.6 /  20.0 /  17.3
#   d = 2:  17.8 / 13.2 /  12.7 /   7.2     d = 16:  37.6 /  29.9 /  63.6 /  82.9
#   d = 4:  17.5 / 12.6 /  13.3 /   8.9     d = 32: 153.9 / 134.6 / 280.6 / 339.2
# Cutting pays up to d = 4 (1,344 entries) and not from d = 8 (5,376).  Past
# W batches stay complex for memory: the n = 9 KZ gate path (8 x 126^2
# entries) peaks at 449 MB RSS in real form against 251 MB.
SMALL_STATE = 4096


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

class _LogForms:
    """Forms that are d log of linear functions: their integrals along lines
    and arcs are log increments in closed form."""

    def periods(self, path: PiecewisePath) -> np.ndarray:
        """Integrals of all m forms along the path, summed per segment from
        `segment_log_increment`; no ODE is solved.  Raises
        `DivisorContactError` where the path comes within MIN_CLEARANCE of
        the divisor, as transport does."""
        if path.dimension != self.ambient:
            raise ValueError(f"path in C^{path.dimension} vs forms on C^{self.ambient}")
        total = np.zeros(self.count, dtype=complex)
        for seg in path.segments:
            clearance = self.divisor.segment_distance(seg)
            if clearance <= MIN_CLEARANCE:
                raise DivisorContactError(clearance)
            total += self._increments(seg)
        return total


@dataclass(frozen=True)
class DifferenceForms(_LogForms):
    """omega_j = dz/(z - a_j) - dz/(z - a_ref) on a punctured line.

    reference=None puts the reference puncture at infinity (plain dlog forms).
    """

    points: tuple[complex, ...]
    reference: complex | None = None
    _point_vector: np.ndarray = field(init=False, repr=False, compare=False)
    # The punctures, the reference included; rejects coincident ones.
    divisor: PointsDivisor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(a) for a in self.points))
        if self.reference is not None:
            object.__setattr__(self, "reference", complex(self.reference))
        object.__setattr__(self, "_point_vector", np.array(self.points, dtype=complex))
        extra = () if self.reference is None else (self.reference,)
        object.__setattr__(self, "divisor", PointsDivisor(self.points + extra))

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def ambient(self) -> int:
        return 1

    def weights(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All form values omega_j(z)(v): an (m,) vector at one point, or
        (B, m) for a stack of B points (z and v of shape (B, 1))."""
        z0, v0 = z[..., :1], v[..., :1]
        w = v0 / (z0 - self._point_vector)
        if self.reference is not None:
            w = w - v0 / (z0 - self.reference)
        return w

    def _increments(self, seg) -> np.ndarray:
        logs = np.array([segment_log_increment(seg, a) for a in self.points], dtype=complex)
        if self.reference is not None:
            logs -= segment_log_increment(seg, self.reference)
        return logs


@dataclass(frozen=True)
class ConfigurationForms(_LogForms):
    """The forms d log(z_i - z_j) on the configuration space of n points,
    indexed by the lexicographic list of pairs i < j."""

    n: int
    # First and second index of every pair, for `weights`.
    _left: np.ndarray = field(init=False, repr=False, compare=False)
    _right: np.ndarray = field(init=False, repr=False, compare=False)
    divisor: DiagonalDivisor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        left, right = np.triu_indices(self.n, k=1)
        object.__setattr__(self, "_left", left)
        object.__setattr__(self, "_right", right)
        object.__setattr__(self, "divisor", DiagonalDivisor(self.n))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._left.tolist(), self._right.tolist()))

    @property
    def count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def ambient(self) -> int:
        return self.n

    def weights(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """All form values d log(z_i - z_j)(v) in `pairs` order: an (m,)
        vector at one point, or (B, m) for a stack of B points (z and v of
        shape (B, n))."""
        i, j = self._left, self._right
        return (v[..., i] - v[..., j]) / (z[..., i] - z[..., j])

    def _increments(self, seg) -> np.ndarray:
        """z_i - z_j traces a line, an arc or a point in C."""
        return np.array(
            [segment_log_increment(seg.difference_curve(i, j), 0.0) for i, j in self.pairs],
            dtype=complex,
        )


# ---------------------------------------------------------------------------
# Connections.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Connection:
    """Omega = sum_k C_k omega_k: the forms of a form system against one
    coefficient stack.

    `coefficients` is the read-only (m, d, d) array of C_k, one matrix per
    form in the order of `forms`; `contract` reads it through an (m, d*d)
    view.
    """

    forms: DifferenceForms | ConfigurationForms
    coefficients: np.ndarray
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mats = [as_square_matrix(c) for c in self.coefficients]
        if len(mats) != self.forms.count:
            raise ValueError(
                f"one coefficient matrix per form required: {self.forms.count} forms, {len(mats)} matrices"
            )
        if any(m.shape != mats[0].shape for m in mats):
            raise ValueError("all coefficient matrices must share one dimension")
        d = mats[0].shape[0] if mats else 1
        stack = np.array(mats, dtype=complex).reshape(len(mats), d, d)
        stack.setflags(write=False)
        object.__setattr__(self, "coefficients", stack)
        object.__setattr__(self, "_stack", stack.reshape(len(mats), d * d))

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def ambient(self) -> int:
        return self.forms.ambient

    @property
    def divisor(self):
        return self.forms.divisor

    def contract(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Omega(z)(v): a (d, d) matrix at one point, or (B, d, d) for a
        stack of B points."""
        w = self.forms.weights(z, v)
        return (w @ self._stack).reshape(*w.shape[:-1], self.dim, self.dim)

    @cached_property
    def _real_stack(self) -> np.ndarray:
        """The (2m, 4 d^2) real form of the stack: R(C_k) for every k, then
        R(i C_k), with R(X) = [[Re X, -Im X], [Im X, Re X]].  R is real-linear,
        so R(Omega) = sum_k Re w_k R(C_k) + Im w_k R(i C_k)."""
        re, im = self.coefficients.real, self.coefficients.imag
        stack = np.concatenate([np.block([[re, -im], [im, re]]), np.block([[-im, -re], [re, -im]])])
        return stack.reshape(2 * len(re), -1)

    def contract_real(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """R(Omega(z)(v)) = [[Re Omega, -Im Omega], [Im Omega, Re Omega]], which
        acts on [Re Y; Im Y] as Omega on Y: one real product of the weights
        [Re w | Im w] with the real form of the stack; (2d, 2d) at one point, or
        (B, 2d, 2d) for a stack of B points."""
        w = self.forms.weights(z, v)
        flat = np.concatenate([w.real, w.imag], axis=-1) @ self._real_stack
        return flat.reshape(*w.shape[:-1], 2 * self.dim, 2 * self.dim)


class PointsConnection(Connection):
    """Omega = sum_j A_j dz / (z - s_j) on C minus the poles; with
    regular_at_infinity the residues must sum to zero."""

    def __init__(self, poles, residues, regular_at_infinity: bool = False):
        super().__init__(DifferenceForms(poles), residues)
        if regular_at_infinity:
            total = frobenius(self.coefficients.sum(axis=0))
            if total > 1e-12:
                raise ValueError(f"residues do not sum to zero (norm {total:.3e})")


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

    A piece whose length is at most ASPECT times its clearance is kept, and
    one step cap fits all of it; any other piece is halved.  Arcs around
    their own pole, the standard approach lines and braid half-twists stay
    whole.  Toward a close approach at distance h, whether inside a piece or
    at its end, the kept pieces shrink geometrically to about their distance
    from the divisor, so there are O(log(1/h)) of them, of a few steps each.
    """
    pieces = []
    stack = [(0.0, 1.0, seg, clearance)]
    while stack:
        t0, t1, piece, c = stack.pop()
        if piece.max_speed() <= ASPECT * c:
            pieces.append((piece, c))
            continue
        tm = 0.5 * (t0 + t1)
        left, right = seg.piece(t0, tm), seg.piece(tm, t1)
        stack.append((tm, t1, right, divisor.segment_distance(right)))
        stack.append((t0, tm, left, divisor.segment_distance(left)))
    return pieces


def _plan(conn: Connection, paths, tol: float) -> list[list]:
    """The (piece, clearance) pairs of every path, in order.

    Checks the tolerance and every segment's clearance before anything is
    solved; segments that do not move are left out."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    plans = []
    for path in paths:
        if path.dimension != conn.ambient:
            raise ValueError(f"path in C^{path.dimension} vs connection on C^{conn.ambient}")
        plan = []
        for seg in path.segments:
            clearance = conn.divisor.segment_distance(seg)
            if clearance <= MIN_CLEARANCE:
                raise DivisorContactError(clearance)
            if seg.max_speed() != 0.0:
                plan.extend(_graded_pieces(seg, clearance, conn.divisor))
        plans.append(plan)
    return plans


class _LinearDOP853(DOP853):
    """scipy's DOP853 for a linear system y' = Omega(t) y: Omega at the 12
    times of a step attempt (its stages after the first, then t + h) comes
    from one call omegas(times) -> (12, B, d, d); y is the flattened (B, d, c)
    state of the given `shape`.  Step control is scipy's
    `RungeKutta._step_impl` with the same arithmetic, and `nfev` counts Omega
    evaluations, so the steps, the counters and the results are those of the
    stock stepper."""

    # Stage times after t, in units of h.
    NODES = np.append(DOP853.C[1:], 1.0)

    def __init__(self, fun, t0, y0, t_bound, omegas, shape, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.omegas, self.shape = omegas, shape

    def _stages(self, t, y, h):
        """scipy's `rk_step`, Omega first: (y_new, f_new), stages in self.K."""
        omega = self.omegas(t + self.NODES * h)
        self.nfev += len(omega)
        K = self.K
        K[0] = self.f
        for s, (a, w) in enumerate(zip(self.A[1:], omega), start=1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = np.matmul(w, (y + dy).reshape(self.shape)).reshape(-1)
        y_new = y + h * np.dot(K[:-1].T, self.B)
        f_new = np.matmul(omega[-1], y_new.reshape(self.shape)).reshape(-1)
        K[-1] = f_new
        return y_new, f_new

    def _step_impl(self):
        if not math.isfinite(self.h_abs):
            # scipy's start-up step from a NaN rate; no attempt would end
            return False, "the first step is not finite"
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = self._stages(t, y, h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(self.K, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
            step_rejected = True
        factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm ** self.error_exponent)
        if step_rejected:
            factor = min(1, factor)
        self.h_previous, self.y_old = h, y
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs * factor, f_new
        return True, None


def _solve(conn: Connection, pieces, starts: np.ndarray, tol: float, cuts) -> np.ndarray:
    """Drive B column blocks of dY = Omega Y, one along each member, in one solve.

    pieces holds (piece, clearance) pairs, each piece parametrized on [0, 1];
    the k-th piece is cut into cuts[k] equal sub-pieces, which are members in
    order, by scaling the geometry below (no segment is built).  starts is
    the (B, d, c) stack of start blocks, one per member, and the stack at
    t = 1 is returned.
    `omegas(ts)` evaluates all B members at every time in ts at once:
    z = S + tD on lines and C + A e^{i theta(t)} on arcs, then one
    contraction (len(ts), B, m) @ (m, d*d), or (len(ts), B, 2m) @ (2m, 4d^2)
    in real form (below).  A step attempt takes one
    `omegas` call for its 12 stage times, then its stages are batched matmuls
    with the state (`_LinearDOP853`); `rhs(t, y)` serves only scipy's two
    start-up evaluations.  The steps, the error rule, the step cap, the
    floors below and `nfev` (Omega evaluations) are those of scipy's own
    DOP853.  A TransportError is raised before the first step when Omega at
    t = 0 or scipy's first step is not finite.

    Real form: a batch whose connection holds at most SMALL_STATE (W)
    complex entries, B d^2, is carried as the real (B, 2d, c) stack
    [Re Y; Im Y] under R(Omega) = [[Re Omega, -Im Omega], [Im Omega, Re Omega]]
    (`Connection.contract_real`, one real product), since stacks of tiny
    complex matrices cost ~3x their real equivalent per matmul.  Larger
    batches stay complex.

    Step cap: the smallest of the members' caps, 0.5 x (the piece's own
    clearance from the divisor) / speed, so no member's step can skip a pole;
    a sub-piece has 1/cuts of its piece's speed and at least its clearance.

    Error rule: the local tolerances sit two orders below `tol` for one
    member and are divided by sqrt(B) for a batch of B members, sub-pieces
    counted (floors 3e-14 and 1e-14).  scipy accepts a step when the RMS of
    err / scale over all state entries is at most 1; with scale / sqrt(B)
    that RMS is the 2-norm of the members' own RMS values, at least the
    largest of them, so every member keeps the local error bound a solve of
    it alone would accept, until a floor binds: for B > B_floor =
    (tol / 1e-11)^2 (atol) or (tol / 3e-12)^2 (rtol), 100 and 1,111 members
    at tol 1e-10, a member's local error may exceed that bound by up to
    sqrt(B / B_floor).  `_piece_ends` cuts pieces only while B stays within
    the smaller floor, (tol / 1e-11)^2.  In real form the RMS runs over the
    real and imaginary parts with a scale each, so a member's complex RMS may
    reach sqrt(2) times its bound.  (DOP853 multiplies that RMS by one damping factor <= 1
    from its third-order estimate, which a batch takes over all members
    rather than per member.)
    """
    if len(pieces) == 0:
        return starts
    origin = np.zeros((len(pieces), conn.ambient), dtype=complex)
    drift = np.zeros_like(origin)
    amplitude = np.zeros_like(origin)
    theta0, sweep = np.zeros(len(pieces)), np.zeros(len(pieces))
    for k, (piece, _) in enumerate(pieces):
        if isinstance(piece, ArcSegment):
            origin[k], amplitude[k] = piece.center, piece.amplitude
            theta0[k], sweep[k] = piece.theta0, piece.theta1 - piece.theta0
        else:
            origin[k], drift[k] = piece.start_point, piece.end_point - piece.start_point
    # sub-piece j of a piece cut in n runs over [j / n, (j + 1) / n]
    cut = np.asarray(cuts)
    of = np.repeat(np.arange(len(pieces)), cut)
    n = cut[of]
    lead = (np.arange(len(of)) - np.repeat(np.cumsum(cut) - cut, cut)) / n
    origin, drift = origin[of] + lead[:, None] * drift[of], drift[of] / n[:, None]
    amplitude = amplitude[of]
    theta0, sweep = theta0[of] + lead * sweep[of], sweep[of] / n
    spin = 1j * sweep[:, None]
    d = conn.dim
    real = len(starts) * d * d <= SMALL_STATE
    contract = conn.contract_real if real else conn.contract
    state = np.concatenate([starts.real, starts.imag], axis=1) if real else starts
    shape = state.shape
    closest = min(c for _, c in pieces)

    def omegas(ts):
        """Omega of every member at every time in ts: (len(ts), B, d, d), or
        its real form (len(ts), B, 2d, 2d)."""
        ts = np.asarray(ts)[:, None, None]
        turn = amplitude * np.exp(1j * (theta0 + ts[..., 0] * sweep))[..., None]
        return contract(origin + ts * drift + turn, drift + spin * turn)

    def rhs(t, y):
        return np.matmul(omegas([t])[0], y.reshape(shape)).reshape(-1)

    if not np.isfinite(omegas(np.zeros(1))).all():
        raise TransportError("Omega is not finite at the start of a piece", closest)
    root_b = np.sqrt(len(state))
    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        state.reshape(-1),
        method=_LinearDOP853,
        rtol=max(tol * 1e-2 / root_b, 3e-14),
        atol=max(tol * 1e-3 / root_b, 1e-14),
        max_step=min(_segment_step_cap(piece, c * k) for (piece, c), k in zip(pieces, cuts)),
        omegas=omegas,
        shape=shape,
    )
    if not sol.success:
        raise TransportError(f"integrator failed: {sol.message}", closest)
    end = sol.y[:, -1].reshape(shape)
    return end[:, :d] + 1j * end[:, d:] if real else end


def _piece_ends(conn: Connection, paths, tol: float, start: np.ndarray) -> list[np.ndarray]:
    """Every piece of every path transported from `start` (conn.dim rows) in
    one `_solve`: per path, the stack of its pieces' ends in order.  Each
    piece is cut into ceil(length / clearance) equal sub-pieces, so every
    member is short against its distance from the divisor, while the cut
    batch's connection stays within SMALL_STATE (W) complex entries, B d^2,
    and within B_floor = (tol / 1e-11)^2 members, where no tolerance floor of
    `_solve` binds (100 at tol 1e-10); otherwise every piece stays whole."""
    plans = _plan(conn, paths, tol)
    d = conn.dim
    counts = [[max(1, math.ceil(piece.max_speed() / c)) for piece, c in plan] for plan in plans]
    members = sum(map(sum, counts))
    if members * d * d > SMALL_STATE or members > (tol / 1e-11) ** 2:
        counts = [[1] * len(plan) for plan in plans]
        members = sum(map(len, plans))
    flat = [pair for plan in plans for pair in plan]
    cuts = [k for plan in counts for k in plan]
    ends = _solve(conn, flat, np.broadcast_to(start, (members, *start.shape)), tol, cuts)
    bounds = np.cumsum([0] + [sum(plan) for plan in counts])
    return [ends[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def transports(conn: Connection, paths, tol: float = 1e-10) -> list[np.ndarray]:
    """Path-ordered exponentials: F at each path end with F(start) = I, the
    product F_P ... F_1 of its pieces' transports from I (`_piece_ends`)."""
    eye = np.eye(conn.dim, dtype=complex)
    return [reduce(lambda f, end: end @ f, ends, eye) for ends in _piece_ends(conn, paths, tol, eye)]


def integrate_along(paths, conn: Connection, y0s, tol: float) -> list[np.ndarray]:
    """Given blocks (conn.dim rows) carried along paths, one per path: each
    path's transport times its block, in the block's shape."""
    paths, y0s = list(paths), [np.asarray(y0, dtype=complex) for y0 in y0s]
    if len(y0s) != len(paths):
        raise ValueError(f"{len(paths)} paths but {len(y0s)} start blocks")
    return [(f @ y0.reshape(conn.dim, -1)).reshape(y0.shape)
            for f, y0 in zip(transports(conn, paths, tol), y0s)]


def transport(conn: Connection, path: PiecewisePath, tol: float = 1e-10) -> np.ndarray:
    """Path-ordered exponential: F at the path end with F(start) = I."""
    return transports(conn, [path], tol)[0]


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


def monodromy_representation(conn: Connection, loops,
                             tol: float = 1e-10) -> MonodromyRepresentation:
    """Transport each loop; all loops must be closed and share the basepoint."""
    loops = list(loops)
    if not loops:
        raise ValueError("no loops given")
    base = loops[0].start
    for p in loops[1:]:
        if float(np.linalg.norm(p.start - base)) > 1e-9:
            raise ValueError("loops do not share a basepoint")
    labels = tuple(f"gamma_{k+1}" for k in range(len(loops)))
    for label, p in zip(labels, loops):
        if not p.is_closed:
            raise ValueError(f"{label} is not a closed loop")
    mats = tuple(transports(conn, loops, tol))
    return MonodromyRepresentation(labels, mats, base)


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
# Matrix logarithms.
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


# ---------------------------------------------------------------------------
# Flatness.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrabilityReport:
    """The worst violation of the infinitesimal braid relations."""

    max_violation: float


def integrability_check(conn: Connection) -> IntegrabilityReport:
    """Check [O_ij, O_ik + O_jk] = 0, [O_ik, O_ij + O_jk] = 0 for i<j<k and
    [O_ij, O_kl] = 0 for disjoint pairs; report the worst violation."""
    if not isinstance(conn.forms, ConfigurationForms):
        raise ValueError("integrability check applies to configuration-space connections")
    o = dict(zip(conn.forms.pairs, conn.coefficients))

    def comm(a, b):
        return frobenius(a @ b - b @ a)

    worst = 0.0
    for i, j, k in combinations(range(conn.forms.n), 3):
        o_ij, o_ik, o_jk = o[i, j], o[i, k], o[j, k]
        worst = max(worst, comm(o_ij, o_ik + o_jk), comm(o_ik, o_ij + o_jk))
    for (i, j), (k, l) in combinations(conn.forms.pairs, 2):
        if len({i, j, k, l}) == 4:
            worst = max(worst, comm(o[i, j], o[k, l]))
    return IntegrabilityReport(worst)


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------

def connection_to_json(conn: Connection) -> dict:
    forms = conn.forms
    if isinstance(forms, ConfigurationForms):
        return {
            "variant": "configuration",
            "n": forms.n,
            "terms": [
                {"i": i + 1, "j": j + 1, "matrix": matrix_to_json(m)}
                for (i, j), m in zip(forms.pairs, conn.coefficients)
            ],
        }
    if forms.reference is None:
        return {
            "variant": "points",
            "poles": [complex_to_json(s) for s in forms.points],
            "residues": [matrix_to_json(a) for a in conn.coefficients],
        }
    return {
        "variant": "differences",
        "points": [complex_to_json(a) for a in forms.points],
        "reference": complex_to_json(forms.reference),
        "coefficients": [matrix_to_json(u) for u in conn.coefficients],
    }


def connection_from_json(obj) -> Connection:
    variant = obj.get("variant")
    if variant == "points":
        return PointsConnection(
            [complex_from_json(s) for s in obj["poles"]],
            [matrix_from_json(a) for a in obj["residues"]],
            regular_at_infinity=bool(obj.get("regular_at_infinity", False)),
        )
    if variant == "differences":
        ref = obj.get("reference")
        forms = DifferenceForms(
            tuple(complex_from_json(a) for a in obj["points"]),
            reference=None if ref is None else complex_from_json(ref),
        )
        return Connection(forms, [matrix_from_json(u) for u in obj["coefficients"]])
    if variant == "configuration":
        forms = ConfigurationForms(obj["n"])
        terms = {}
        for t in obj["terms"]:
            if not 1 <= t["i"] < t["j"] <= forms.n:
                raise ValueError(f"bad index pair ({t['i']}, {t['j']}) for n={forms.n}")
            terms[t["i"] - 1, t["j"] - 1] = matrix_from_json(t["matrix"])
        d = next(iter(terms.values())).shape[0] if terms else 1
        zero = np.zeros((d, d), dtype=complex)
        return Connection(forms, [terms.get(pair, zero) for pair in forms.pairs])
    raise ValueError(f"unknown connection variant {variant!r}")
