"""The Knizhnik-Zamolodchikov connection from sl2 representation data.

Two-site coupling operators come from the Casimir element: with an orthogonal
sl2 basis {I_a} normalized so that the spin-1/2 pair operator is exactly
P - I/2 (P the swap), the coupling is O = sum_a I_a (x) I_a, realized on spin
modules as twice the dot product of spin operator triples.  O_ij is that
two-site operator on tensor factors i and j; it and the global J+ and J- act
on column blocks by one tensor-axis contraction (`_on_sites`), none stored.
The connection (1/lambda) sum O_ij d log(z_i - z_j) is flat, and transporting
along a braid half-twist followed by the flip of factors i and i+1 yields
quantum gates on V^{(x) n}.  The product basis is a weight basis, so the
isotypic decomposition under the global sl2 action is read off it directly.

Braid gates are made once, as blocks on the highest-weight vectors.  Every
O_ij commutes with the diagonal sl2 action, so the transport F maps the space
of spin-j highest-weight vectors to itself, and as it also commutes with J-
it acts on every level of the spin-j towers by one mu_j x mu_j matrix F_j:
F = Q (+)_j (I_{2j+1} (x) F_j) Q^H with Q the unitary tower frame.  One solve
of the connection restricted to the highest-weight vectors, of dimension
sum_j mu_j (C(n, floor(n/2)) for spin 1/2), gives every block of every
generator's half-twist at once (`_gate_blocks`).  The factor flip commutes
with sl2 as well; its blocks are the highest-weight vectors with two tensor
axes swapped, so no operator on the tensor product is formed.  The
unitarization and the full twists of `kz verify` work on these blocks, and a
product-basis gate is assembled in closed form only where a caller asks for
one (`braid_matrices`).  The frame and the flip blocks are computed once per
system.

For n = 2 the clockwise half-twist with the flip divided out equals
e^{-pi i O / lambda} in closed form; the orientation-free anchor
(half-twist)^2 = full pure-braid twist is what the tests pin down, since the
sign in the exponent is a convention choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy.linalg import block_diag, expm

from .fuchsian import (
    ConfigurationForms,
    Connection,
    NumericsError,
    integrate_along,
    integrability_check,
    transports,
)
from .matrices import as_square_matrix, frobenius, unitarity_defect
from .paths import PiecewisePath, braid_word_path

__all__ = [
    "SpinModule",
    "KZSystem",
    "casimir_omega",
    "build_kz",
    "two_point_transport_factor",
    "braid_matrix",
    "braid_matrices",
    "unitarize_kz",
    "UnitarizationResult",
    "verify_braid_relations",
    "BraidRelationReport",
]

SL2_COMMUTATOR_TOL = 1e-12
# Largest three-site braid-relation violation `build_kz` accepts.
FLATNESS_TOL = 1e-10
# Eigenvalues of a block's invariant form at or below this are its radical.
RANK_CUT = 1e-7


@dataclass(frozen=True)
class SpinModule:
    """Irreducible sl2 module of spin j (dim 2j + 1) in the weight basis.

    Basis vectors are ordered by decreasing weight m = j, j-1, ..., -j.
    """

    spin: float

    def __post_init__(self):
        twice = round(2 * self.spin)
        if twice < 0 or abs(2 * self.spin - twice) > 1e-12:
            raise ValueError(f"spin must be a nonnegative half-integer, got {self.spin}")
        object.__setattr__(self, "spin", twice / 2.0)

    @property
    def dim(self) -> int:
        return round(2 * self.spin) + 1

    @property
    def sz(self) -> np.ndarray:
        j = self.spin
        return np.diag([j - i for i in range(self.dim)]).astype(complex)

    @property
    def sp(self) -> np.ndarray:
        j, m = self.spin, self.spin - np.arange(1, self.dim)  # m: source weights
        return np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), 1).astype(complex)

    @property
    def sm(self) -> np.ndarray:
        return self.sp.conj().T

    @property
    def sx(self) -> np.ndarray:
        return (self.sp + self.sm) / 2.0

    @property
    def sy(self) -> np.ndarray:
        return (self.sp - self.sm) / 2j

    def spin_triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.sx, self.sy, self.sz

    def commutator_defect(self) -> float:
        """Worst violation of the sl2 relations by the stored matrices."""
        sx, sy, sz = self.spin_triple()
        return max(
            frobenius(sx @ sy - sy @ sx - 1j * sz),
            frobenius(sy @ sz - sz @ sy - 1j * sx),
            frobenius(sz @ sx - sx @ sz - 1j * sy),
        )


def casimir_omega(vi: SpinModule, vj: SpinModule) -> np.ndarray:
    """Two-site coupling 2 (sx (x) sx + sy (x) sy + sz (x) sz) on Vi (x) Vj.

    Normalization: for spin-1/2 (x) spin-1/2 this is exactly P - I/2.
    """
    out = np.zeros((vi.dim * vj.dim, vi.dim * vj.dim), dtype=complex)
    for a, b in zip(vi.spin_triple(), vj.spin_triple()):
        out += 2.0 * np.kron(a, b)
    return out


def _on_sites(op: np.ndarray, sites, dims, cols: np.ndarray) -> np.ndarray:
    """op acting on the tensor factors `sites` (0-based, in op's own factor
    order) of every column of the dim x c block `cols`: move those axes to
    the front, one matmul, move them back."""
    k = len(sites)
    t = np.moveaxis(cols.reshape(tuple(dims) + (-1,)), sites, range(k))
    out = (op @ t.reshape(op.shape[1], -1)).reshape(t.shape)
    return np.moveaxis(out, range(k), sites).reshape(cols.shape)


@dataclass(frozen=True)
class KZSystem:
    """n marked points with spin modules and coupling lambda; the operators
    O_ij are applied to column blocks (`_coupling`), never stored."""

    modules: tuple[SpinModule, ...]
    lam: complex

    @property
    def n(self) -> int:
        return len(self.modules)

    @property
    def dim(self) -> int:
        return int(np.prod([m.dim for m in self.modules]))

    def _coupling(self, i: int, j: int, cols: np.ndarray) -> np.ndarray:
        """O_ij (0-based factors) applied to the columns of `cols`."""
        op = casimir_omega(self.modules[i], self.modules[j])
        return _on_sites(op, (i, j), [m.dim for m in self.modules], cols)

    def connection(self) -> Connection:
        """The full-space flat connection, residues O_ij / lambda, built once when asked."""
        return self._connection

    @cached_property
    def _connection(self) -> Connection:
        forms, eye = ConfigurationForms(self.n), np.eye(self.dim, dtype=complex)
        return Connection(forms, [self._coupling(i, j, eye) / self.lam for i, j in forms.pairs])

    @cached_property
    def _towers(self) -> list:
        """`_isotypic_towers` of this system, computed once."""
        return _isotypic_towers(self)

    @cached_property
    def _hw(self) -> np.ndarray:
        """dim x sum_j mu_j: the highest-weight vectors of every spin, side by side."""
        return np.hstack([towers[0] for _, towers in self._towers])

    @cached_property
    def _hw_connection(self) -> Connection:
        """The connection restricted to the highest-weight vectors, residues
        hw^H (O_ij / lambda) hw; block diagonal over the spins, since O_ij
        preserves the weight and maps highest-weight vectors to such."""
        forms, hw = ConfigurationForms(self.n), self._hw
        return Connection(forms, [hw.conj().T @ self._coupling(i, j, hw) / self.lam for i, j in forms.pairs])

    @cached_property
    def _flips(self) -> list:
        """hw^H P_i hw for i = 1, ..., n-1, P_i the flip of tensor factors i
        and i+1: the hw columns with tensor axes i-1 and i swapped, projected
        back.  Needs identical modules."""
        hw = self._hw
        cols = hw.reshape((self.modules[0].dim,) * self.n + (-1,))
        return [hw.conj().T @ cols.swapaxes(i - 1, i).reshape(hw.shape) for i in range(1, self.n)]


def build_kz(modules, lam: complex) -> KZSystem:
    """The KZ system of these modules at coupling lambda; verifies sl2
    relations and flatness, the latter on each distinct triple of modules."""
    modules = tuple(modules)
    if len(modules) < 2:
        raise ValueError("KZ system needs n >= 2 marked points")
    if lam == 0:
        raise ValueError("coupling lambda must be nonzero")
    for m in modules:
        defect = m.commutator_defect()
        if defect > SL2_COMMUTATOR_TOL:
            raise ValueError(f"spin module {m.spin} violates sl2 relations by {defect:.3e}")
    sys = KZSystem(modules, complex(lam))
    # O_ij is one two-site operator acting on factors i and j, so pairs on
    # disjoint factors commute by construction, and each three-site relation
    # is its value on V_i (x) V_j (x) V_k tensored with the identity: its
    # Frobenius norm grows by sqrt(dim of the other factors).
    violation = max(
        (
            integrability_check(KZSystem(triple, sys.lam).connection()).max_violation
            * math.sqrt(sys.dim / math.prod(m.dim for m in triple))
            for triple in set(combinations(modules, 3))
        ),
        default=0.0,
    )
    if violation > FLATNESS_TOL:
        raise ValueError(f"KZ connection is not flat: violation {violation:.3e}")
    return sys


# ---------------------------------------------------------------------------
# The closed-form two-point system.
# ---------------------------------------------------------------------------

def two_point_transport_factor(omega, lam: complex, path: PiecewisePath) -> np.ndarray:
    """Exact transport matrix of the n=2 system along a path: e^{(dlog/lambda) Omega}."""
    omega = as_square_matrix(omega)
    dlog = ConfigurationForms(2).periods(path)[0]
    return expm((dlog / lam) * omega)


# ---------------------------------------------------------------------------
# Braid-group gates.
# ---------------------------------------------------------------------------

def _spin_blocks(sys: KZSystem):
    """(towers, slice of the spin's mu_j rows in sum_j mu_j) in tower order."""
    start = 0
    for _, towers in sys._towers:
        mu = towers[0].shape[1]
        yield towers, slice(start, start + mu)
        start += mu


def _from_hw_blocks(sys: KZSystem, blocks: np.ndarray) -> np.ndarray:
    """Q (+)_j (I_{2j+1} (x) B_j) Q^H on the tensor product: the operator
    commuting with sl2 that acts on every level of the spin-j towers by the
    diagonal block B_j of the sum_j mu_j square `blocks`."""
    out = np.zeros((sys.dim, sys.dim), dtype=complex)
    for towers, rows in _spin_blocks(sys):
        b = blocks[rows, rows]
        for w in towers:
            out += w @ b @ w.conj().T
    return out


def _gate_blocks(sys: KZSystem, generators, tol: float) -> list[np.ndarray]:
    """The gates of sigma_i, i in `generators`, on the highest-weight
    vectors: the flip block after the counterclockwise half-twist.  Requires
    identical modules.  All half-twists are one `transports` call of the
    connection restricted to the highest-weight vectors."""
    if len({m.spin for m in sys.modules}) != 1:
        raise ValueError("the braid extension needs identical modules V1 = ... = Vn")
    generators = list(generators)
    for i in generators:
        if not 1 <= i <= sys.n - 1:
            raise ValueError(f"factor index {i} out of range for n={sys.n}")
    halves = transports(sys._hw_connection, [braid_word_path(sys.n, [i]) for i in generators], tol)
    return [sys._flips[i - 1] @ half for i, half in zip(generators, halves)]


def braid_matrices(sys: KZSystem, generators, tol: float = 1e-10) -> list[np.ndarray]:
    """Monodromy gates of the braid generators sigma_i, i in `generators`, on
    the tensor product: the `_gate_blocks` assembled in the tower frame."""
    return [_from_hw_blocks(sys, b) for b in _gate_blocks(sys, generators, tol)]


def braid_matrix(sys: KZSystem, i: int, tol: float = 1e-10) -> np.ndarray:
    """Monodromy gate of the braid generator sigma_i (`braid_matrices`)."""
    return braid_matrices(sys, [i], tol)[0]


def _full_twists(sys: KZSystem, blocks, tol: float) -> list[np.ndarray]:
    """Transports along `braid_word_path(n, [i, i])` for i = 1, 2, ..., given
    the gate blocks `_gate_blocks(sys, [1, 2, ...], tol)`.  The first arc is
    the half-twist, the flip block times the gate block, so only the second
    arcs are solved, from there, in one `integrate_along` call."""
    firsts, seconds = [], []
    for i, b in enumerate(blocks, start=1):
        firsts.append(sys._flips[i - 1] @ b)
        seconds.append(PiecewisePath(braid_word_path(sys.n, [i, i]).segments[1:]))
    return [_from_hw_blocks(sys, y) for y in integrate_along(seconds, sys._hw_connection, firsts, tol)]


@dataclass(frozen=True)
class UnitarizationResult:
    """Invariant positive semidefinite form H and the unitarized rep.

    The monodromy matrices live in the frame of the fundamental solution at
    the basepoint, which is not orthonormal for the invariant inner product;
    they satisfy B† H B = H.  Each multiplicity block of the KZ gates has one
    invariant Hermitian form up to scale, so H is that form per block, signed
    so its largest eigenvalue is 1 (blocks whose form is indefinite die and
    contribute 0).  When H is definite, `matrices` are the conjugates
    H^{1/2} B H^{-1/2} and `radical_dim` is 0.  At special couplings
    (integer-level points such as lambda = 3 for spin 1/2) the form
    degenerates; its radical is an invariant subspace, and `matrices` then act
    unitarily on the quotient of dimension dim - radical_dim.  `defect` is the
    worst unitarity defect afterwards: the numerical witness that the
    representation is unitarizable.
    """

    form: np.ndarray
    matrices: tuple[np.ndarray, ...]
    defect: float
    radical_dim: int = 0


def _unitarize_block(mats):
    """Unitarize one multiplicity block: returns (form, kept matrices, radical).

    A multiplicity block carries one invariant Hermitian form up to scale
    (Schur's lemma).  The solutions of B^H H B = H for all B are the null
    space of one stacked SVD; it is closed under H -> H^H, so its complex
    dimension is the number of independent Hermitian forms, and more than
    one raises `NumericsError`.  With exactly one, the null vector is a
    complex multiple of the form, and the larger of its Hermitian part and
    its anti-Hermitian part over i is the form.  The form is signed and
    scaled so that its eigenvalue of largest magnitude is 1, and the block
    is quotiented by the eigenvectors with eigenvalue <= RANK_CUT.  A block
    whose form is indefinite, or which has no invariant form, dies whole
    (kept matrices None, radical = block size, zero form).
    """
    mu = mats[0].shape[0]
    stacked = np.vstack([np.kron(b.T, b.conj().T) - np.eye(mu * mu) for b in mats])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    null_count = int(np.sum(s <= max(s[0], 1.0) * 1e-10))
    if null_count > 1:
        raise NumericsError(
            f"a {mu}-dimensional block has {null_count} invariant Hermitian forms, not one"
        )
    if null_count == 0:
        return np.zeros((mu, mu), dtype=complex), None, mu
    a = vh[-1].reshape(mu, mu, order="F")
    h = max((a + a.conj().T) / 2.0, (a - a.conj().T) / 2j, key=frobenius)
    evals = np.linalg.eigvalsh(h)
    h = h / evals[np.argmax(np.abs(evals))]
    evals, vecs = np.linalg.eigh(h)
    if evals[0] < -RANK_CUT:
        return np.zeros((mu, mu), dtype=complex), None, mu
    keep = evals > RANK_CUT
    v_keep = vecs[:, keep]
    d_root = np.sqrt(evals[keep])
    kept = tuple((v_keep * d_root).conj().T @ b @ (v_keep / d_root) for b in mats)
    return h, kept, int(np.sum(~keep))


def _isotypic_towers(sys: KZSystem):
    """Decompose the tensor product under the global sl2 action.

    Returns (j, towers) in ascending j; towers[p] is an orthonormal dim x mult
    block of weight (j - p) vectors in the spin-j isotypic component, all
    sharing one multiplicity frame (towers[p] = normalized J-^p towers[0]).
    A product vector's twice-weight is the sum of its factors', so spin j has
    multiplicity #(weight j) - #(weight j+1), and its highest-weight vectors
    are the kernel of J+ on the weight-j coordinates.  J+ and J- are applied
    to column blocks by one contraction per site, never formed."""
    dims = [m.dim for m in sys.modules]
    sps, sms = [m.sp for m in sys.modules], [m.sm for m in sys.modules]

    def total(ops, cols):
        return sum(_on_sites(op, (k,), dims, cols) for k, op in enumerate(ops))

    twice = sum(np.ix_(*[round(2 * m.spin) - 2 * np.arange(m.dim) for m in sys.modules])).ravel()
    out = []
    for tj in range(twice.max() % 2, twice.max() + 1, 2):
        at, up = np.flatnonzero(twice == tj), np.flatnonzero(twice == tj + 2)
        mult = at.size - up.size
        if mult == 0:
            continue
        units = np.zeros((sys.dim, at.size), dtype=complex)
        units[at, np.arange(at.size)] = 1.0
        _, s, vh = np.linalg.svd(total(sps, units)[up])
        rank = int(np.sum(s > 1e-10))  # nonzero singular values here are >= sqrt(2)
        if at.size - rank != mult:
            raise ValueError("isotypic decomposition failed; check the modules")
        hw = np.zeros((sys.dim, mult), dtype=complex)
        hw[at] = vh[rank:].conj().T
        towers = [hw]
        for _ in range(tj):
            nxt = total(sms, towers[-1])
            towers.append(nxt / np.linalg.norm(nxt[:, 0]))
        out.append((tj / 2, towers))
    return out


def unitarize_kz(sys: KZSystem, mats=None, tol: float = 1e-10) -> UnitarizationResult:
    """Unitarizability witness for KZ braid gates: unitarize blockwise.

    The braid gates commute with the global sl2 action, so they split into
    multiplicity blocks over the isotypic components.  Each block carries a
    unique invariant Hermitian form up to scale (Schur's lemma), read off
    one null vector of B^H H B = H (`_unitarize_block`); no optimization is
    involved, and a block with more than one form raises `NumericsError`.
    A block whose form is indefinite dies whole; one whose form degenerates
    (integer levels, e.g. lambda = 3 for spin 1/2 where null vectors appear)
    is quotiented by the form's radical.  The gates are the `_gate_blocks` of
    sigma_1, ..., sigma_{n-1}, solved at `tol`, or, given product-basis
    `mats`, their projections hw^H M hw.  Returns the assembled quotient rep,
    block diagonal in `_isotypic_towers` order, the positive semidefinite form
    on the original space, the worst unitarity defect, and the radical
    dimension."""
    if mats is None:
        blocks = _gate_blocks(sys, range(1, sys.n), tol)
    else:
        hw = sys._hw
        blocks = [hw.conj().T @ as_square_matrix(m) @ hw for m in mats]
    kept_blocks = []  # per surviving block: its kept gates, one per generator
    forms = []  # per block: its invariant form
    radical_total = 0
    for towers, rows in _spin_blocks(sys):
        h_block, kept, radical = _unitarize_block([b[rows, rows] for b in blocks])
        radical_total += radical * len(towers)
        forms.append(h_block)
        if kept is not None:
            kept_blocks.append([np.kron(np.eye(len(towers), dtype=complex), bq) for bq in kept])
    if not kept_blocks:
        raise ValueError("every isotypic block died; representation has no unitary quotient")
    assembled = [block_diag(*blocks) for blocks in zip(*kept_blocks)]
    defect = max(unitarity_defect(b) for b in assembled)
    form_full = _from_hw_blocks(sys, block_diag(*forms))
    return UnitarizationResult(form_full, tuple(assembled), defect, radical_total)


@dataclass(frozen=True)
class BraidRelationReport:
    """Deviations from the braid-group relations."""

    braid_deviations: tuple[float, ...]
    commutation_deviations: tuple[float, ...]

    @property
    def max_braid_deviation(self) -> float:
        return max(self.braid_deviations, default=0.0)

    @property
    def max_commutation_deviation(self) -> float:
        return max(self.commutation_deviations, default=0.0)

    @property
    def max_deviation(self) -> float:
        return max(self.max_braid_deviation, self.max_commutation_deviation)


def verify_braid_relations(mats, n: int) -> BraidRelationReport:
    """Check sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1} and
    far commutation on candidate generator matrices."""
    mats = [as_square_matrix(m) for m in mats]
    if len(mats) != n - 1:
        raise ValueError(f"expected {n-1} generator matrices for n={n}")
    braid = []
    for i in range(len(mats) - 1):
        a, b = mats[i], mats[i + 1]
        braid.append(frobenius(a @ b @ a - b @ a @ b))
    commutation = []
    for i in range(len(mats)):
        for j in range(i + 2, len(mats)):
            commutation.append(frobenius(mats[i] @ mats[j] - mats[j] @ mats[i]))
    return BraidRelationReport(tuple(braid), tuple(commutation))
