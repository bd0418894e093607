"""The Knizhnik-Zamolodchikov connection from sl2 representation data.

Two-site coupling operators come from the Casimir element: with an orthogonal
sl2 basis {I_a} normalized so that the spin-1/2 pair operator is exactly
P - I/2 (P the swap), the coupling is O = sum_a I_a (x) I_a, realized on spin
modules as twice the dot product of spin operator triples.  The connection
(1/lambda) sum O_ij d log(z_i - z_j) is flat, and transporting along a braid
half-twist followed by the factor flip yields quantum gates on V^{(x) n}.

For n = 2 the clockwise half-twist with the flip divided out equals
e^{-pi i O / lambda} in closed form; the orientation-free anchor
(half-twist)^2 = full pure-braid twist is what the tests pin down, since the
sign in the exponent is a convention choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import expm

from .fuchsian import ConfigurationConnection, integrability_check, transport
from .matrices import as_square_matrix, frobenius, unitarity_defect
from .paths import PiecewisePath, braid_word_path, pure_braid_word, segment_log_increment

__all__ = [
    "SpinModule",
    "KZSystem",
    "casimir_omega",
    "build_kz",
    "log_increment",
    "two_point_transport_factor",
    "flip_operator",
    "braid_matrix",
    "braid_word_matrix",
    "unitarize_representation",
    "unitarize_kz",
    "total_spin_operators",
    "UnitarizationResult",
    "verify_braid_relations",
    "BraidRelationReport",
]

SL2_COMMUTATOR_TOL = 1e-12


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
        j = self.spin
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(1, self.dim):
            mm = j - i  # weight of the source vector
            m[i - 1, i] = np.sqrt(j * (j + 1) - mm * (mm + 1))
        return m

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

    def casimir_value(self) -> float:
        """Scalar of c = 2(sx^2 + sy^2 + sz^2) on this module: 2 j (j + 1)."""
        return 2.0 * self.spin * (self.spin + 1.0)

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


def _embed(op: np.ndarray, site: int, dims: list[int]) -> np.ndarray:
    """op acting on tensor factor `site` (0-based), identity elsewhere."""
    m = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        m = np.kron(m, op if k == site else np.eye(d, dtype=complex))
    return m


@dataclass(frozen=True)
class KZSystem:
    """n marked points with spin modules, coupling lambda and operators O_ij."""

    modules: tuple[SpinModule, ...]
    lam: complex
    omegas: dict  # {(i, j) 0-based, i < j: operator on the full tensor product}

    @property
    def n(self) -> int:
        return len(self.modules)

    @property
    def dim(self) -> int:
        out = 1
        for m in self.modules:
            out *= m.dim
        return out

    def omega(self, i: int, j: int) -> np.ndarray:
        if i > j:
            i, j = j, i
        return self.omegas[(i, j)]

    def connection(self) -> ConfigurationConnection:
        """The flat connection with residues O_ij / lambda."""
        terms = {pair: m / self.lam for pair, m in self.omegas.items()}
        return ConfigurationConnection(self.n, terms)


def build_kz(modules, lam: complex, flatness_tol: float = 1e-10) -> KZSystem:
    """Assemble the KZ system; verifies sl2 relations and flatness."""
    modules = tuple(modules)
    if len(modules) < 2:
        raise ValueError("KZ system needs n >= 2 marked points")
    if lam == 0:
        raise ValueError("coupling lambda must be nonzero")
    for m in modules:
        defect = m.commutator_defect()
        if defect > SL2_COMMUTATOR_TOL:
            raise ValueError(f"spin module {m.spin} violates sl2 relations by {defect:.3e}")
    dims = [m.dim for m in modules]
    omegas = {}
    for i in range(len(modules)):
        for j in range(i + 1, len(modules)):
            op = np.zeros((int(np.prod(dims)), int(np.prod(dims))), dtype=complex)
            for a, b in zip(modules[i].spin_triple(), modules[j].spin_triple()):
                op += 2.0 * _embed(a, i, dims) @ _embed(b, j, dims)
            omegas[(i, j)] = op
    sys = KZSystem(modules, complex(lam), omegas)
    report = integrability_check(sys.connection())
    if report.max_violation > flatness_tol:
        raise ValueError(f"KZ connection is not flat: violation {report.max_violation:.3e}")
    return sys


# ---------------------------------------------------------------------------
# The closed-form two-point system.
# ---------------------------------------------------------------------------

def log_increment(path: PiecewisePath, i: int = 0, j: int = 1) -> complex:
    """Continuous increment of log(z_i - z_j) along a configuration path,
    exact per segment: z_i - z_j traces a line, an arc or a point."""
    return sum(
        (segment_log_increment(seg.difference_curve(i, j), 0.0) for seg in path.segments), 0j
    )


def two_point_transport_factor(omega, lam: complex, path: PiecewisePath) -> np.ndarray:
    """Exact transport matrix of the n=2 system along a path: e^{(dlog/lambda) Omega}."""
    omega = as_square_matrix(omega)
    if path.dimension != 2:
        raise ValueError("two-point transport needs paths in C^2")
    dlog = log_increment(path, 0, 1)
    return expm((dlog / lam) * omega)


# ---------------------------------------------------------------------------
# Braid-group gates.
# ---------------------------------------------------------------------------

def flip_operator(n: int, d: int, i: int) -> np.ndarray:
    """Permutation operator exchanging tensor factors i and i+1 (1-based)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"factor index {i} out of range for n={n}")
    dim = d**n
    p = np.zeros((dim, dim), dtype=complex)
    for idx in product(range(d), repeat=n):
        jdx = list(idx)
        jdx[i - 1], jdx[i] = jdx[i], jdx[i - 1]
        p[int(np.ravel_multi_index(jdx, (d,) * n)), int(np.ravel_multi_index(idx, (d,) * n))] = 1.0
    return p


def braid_matrix(sys: KZSystem, i: int, tol: float = 1e-10,
                 orientation: str = "ccw") -> np.ndarray:
    """Monodromy gate of the braid generator sigma_i: flip after half-twist
    transport.  Requires identical modules; `orientation` picks the sense of
    the half-twist ('ccw' default, 'cw' for the inverse sense)."""
    if len({m.spin for m in sys.modules}) != 1:
        raise ValueError("the braid extension needs identical modules V1 = ... = Vn")
    if orientation not in ("ccw", "cw"):
        raise ValueError("orientation must be 'ccw' or 'cw'")
    letter = i if orientation == "ccw" else -i
    path = braid_word_path(sys.n, [letter])
    t = transport(sys.connection(), path, tol)
    return flip_operator(sys.n, sys.modules[0].dim, i) @ t


def braid_word_matrix(mats, word) -> np.ndarray:
    """Evaluate a braid word on generator matrices, first letter acting first."""
    dim = mats[0].shape[0]
    out = np.eye(dim, dtype=complex)
    for letter in word:
        b = mats[abs(letter) - 1]
        out = (b if letter > 0 else np.linalg.inv(b)) @ out
    return out


@dataclass(frozen=True)
class UnitarizationResult:
    """Invariant positive semidefinite form H and the unitarized rep.

    The monodromy matrices live in the frame of the fundamental solution at
    the basepoint, which is not orthonormal for the invariant inner product;
    they satisfy B† H B = H.  When H is definite, `matrices` are the
    conjugates H^{1/2} B H^{-1/2} and `radical_dim` is 0.  At special
    couplings (integer-level points such as lambda = 3 for spin 1/2) the
    maximal invariant form degenerates; its radical is an invariant subspace,
    and `matrices` then act unitarily on the quotient of dimension
    dim - radical_dim.  `defect` is the worst unitarity defect afterwards:
    the numerical witness that the representation is unitarizable.
    """

    form: np.ndarray
    matrices: tuple[np.ndarray, ...]
    defect: float
    radical_dim: int = 0


def _hermitian_kernel_basis(mats) -> list[np.ndarray]:
    """Orthonormal basis of the Hermitian solutions of B† H B = H for all B."""
    dim = mats[0].shape[0]
    blocks = [np.kron(b.T, b.conj().T) - np.eye(dim * dim) for b in mats]
    _, s, vh = np.linalg.svd(np.vstack(blocks))
    null_count = int(np.sum(s <= max(s[0], 1.0) * 1e-10))
    if null_count == 0:
        raise ValueError("no invariant sesquilinear form exists within tolerance")
    candidates = []
    for row in vh[-null_count:]:
        a = row.reshape(dim, dim, order="F")
        candidates.append((a + a.conj().T) / 2.0)
        candidates.append((a - a.conj().T) / 2j)
    stacked = np.stack([c.reshape(-1) for c in candidates])
    # the kernel is conjugation-stable, so Hermitian parts span its Hermitian slice
    u, sv, _ = np.linalg.svd(stacked.T, full_matrices=False)
    keep = sv > max(sv[0], 1.0) * 1e-10
    return [u[:, k].reshape(dim, dim) for k in range(len(sv)) if keep[k]]


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


def _psd_form_in_span(basis, h_start: np.ndarray) -> np.ndarray | None:
    """Alternating projections between the form subspace and the PSD cone.

    Returns None when the intersection is {0} (only indefinite forms exist).
    """
    span = np.stack([b.reshape(-1) for b in basis])
    evals, vecs = np.linalg.eigh(h_start)
    h = (vecs * np.clip(evals, 0.0, None)) @ vecs.conj().T
    for _ in range(2000):
        coeffs = (span.conj() @ h.reshape(-1)).real
        h_proj = sum(c * b for c, b in zip(coeffs, basis))
        h_proj = (h_proj + h_proj.conj().T) / 2.0
        evals, vecs = np.linalg.eigh(h_proj)
        h_next = (vecs * np.clip(evals, 0.0, None)) @ vecs.conj().T
        done = frobenius(h_next - h) < 1e-15 * max(frobenius(h), 1e-30)
        h = h_next
        if done:
            break
    norm = np.linalg.eigvalsh(h)[-1]
    if norm < 1e-10:
        return None
    return h / norm


def _unitarize_block(mats, rank_cut: float):
    """Unitarize one multiplicity block: returns (form, kept matrices, radical).

    A block with no nonzero positive semidefinite invariant form dies whole
    (kept matrices None, radical = block size, zero form).
    """
    mu = mats[0].shape[0]
    try:
        basis = _hermitian_kernel_basis(mats)
    except ValueError:
        return np.zeros((mu, mu), dtype=complex), None, mu
    h, lam_min = _most_definite_form(basis, mu)
    h = h / np.linalg.eigvalsh(h)[-1]
    if lam_min <= rank_cut:
        h = _psd_form_in_span(basis, h)
        if h is None:
            return np.zeros((mu, mu), dtype=complex), None, mu
    evals, vecs = np.linalg.eigh(h)
    keep = evals > rank_cut
    radical = int(np.sum(~keep))
    if not np.any(keep):
        return h, None, mu
    v_keep = vecs[:, keep]
    d_root = np.sqrt(evals[keep])
    kept = tuple((v_keep * d_root).conj().T @ b @ (v_keep / d_root) for b in mats)
    return h, kept, radical


def unitarize_representation(mats, rank_cut: float = 1e-7) -> UnitarizationResult:
    """Conjugate a unitarizable representation into a unitary frame.

    Generic entry point: finds the most definite invariant Hermitian form and
    conjugates by its square root.  Raises when only a degenerate form exists;
    for KZ braid gates use `unitarize_kz`, which resolves those couplings by
    quotienting per isotypic block."""
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


def total_spin_operators(sys: KZSystem) -> tuple[np.ndarray, np.ndarray]:
    """Global raising operator J+ and weight operator Jz on the tensor product."""
    dims = [m.dim for m in sys.modules]
    jp = sum(_embed(m.sp, k, dims) for k, m in enumerate(sys.modules))
    jz = sum(_embed(m.sz, k, dims) for k, m in enumerate(sys.modules))
    return jp, jz


def _isotypic_towers(sys: KZSystem):
    """Decompose the tensor product under the global sl2 action.

    Yields (j, towers) where towers[p] is an orthonormal dim x mult block of
    weight (j - p) vectors in the spin-j isotypic component, all sharing one
    multiplicity frame (towers[p] = normalized J-^p towers[0])."""
    jp, jz = total_spin_operators(sys)
    jm = jp.conj().T
    j2 = jp @ jm + jz @ jz - jz
    evals, vecs = np.linalg.eigh(j2)
    out = []
    rounded = np.round(2 * (-1 + np.sqrt(1 + 4 * np.clip(evals, 0, None))) / 2) / 2
    for j in sorted(set(rounded.tolist())):
        cols = vecs[:, np.abs(rounded - j) < 0.25]
        mult = round(cols.shape[1] / (2 * j + 1))
        # highest-weight slice: weight-j vectors inside the isotypic component
        wz = cols.conj().T @ jz @ cols
        ww, vv = np.linalg.eigh(wz)
        hw = cols @ vv[:, np.abs(ww - j) < 0.25]
        if hw.shape[1] != mult:
            raise ValueError("isotypic decomposition failed; check the modules")
        towers = [hw]
        for _ in range(round(2 * j)):
            nxt = jm @ towers[-1]
            towers.append(nxt / np.linalg.norm(nxt[:, 0]))
        out.append((j, towers))
    return out


def unitarize_kz(sys: KZSystem, mats=None, tol: float = 1e-10,
                 rank_cut: float = 1e-7) -> UnitarizationResult:
    """Unitarizability witness for KZ braid gates: unitarize blockwise.

    The braid matrices commute with the global sl2 action, so they split into
    multiplicity blocks over the isotypic components.  Each small block gets
    its own invariant form; blocks whose maximal form degenerates (integer
    levels, e.g. lambda = 3 for spin 1/2 where null vectors appear) are
    quotiented by the form's radical.  Returns the assembled quotient rep,
    the positive semidefinite form on the original space, the worst unitarity
    defect, and the radical dimension."""
    if mats is None:
        mats = [braid_matrix(sys, i, tol) for i in range(1, sys.n)]
    mats = [as_square_matrix(m) for m in mats]
    kept_blocks: list[list[np.ndarray]] = [[] for _ in mats]
    form_full = np.zeros((sys.dim, sys.dim), dtype=complex)
    radical_total = 0
    for j, towers in _isotypic_towers(sys):
        hw = towers[0]
        blocks = [hw.conj().T @ b @ hw for b in mats]
        h_block, kept, radical = _unitarize_block(blocks, rank_cut)
        radical_total += radical * len(towers)
        for w in towers:
            form_full += w @ h_block @ w.conj().T
        if kept is None:
            continue
        for i, bq in enumerate(kept):
            kept_blocks[i].append(np.kron(np.eye(len(towers), dtype=complex), bq))
    if all(not blocks for blocks in kept_blocks):
        raise ValueError("every isotypic block died; representation has no unitary quotient")
    assembled = []
    for blocks in kept_blocks:
        dim_q = sum(b.shape[0] for b in blocks)
        m = np.zeros((dim_q, dim_q), dtype=complex)
        at = 0
        for b in blocks:
            m[at : at + b.shape[0], at : at + b.shape[0]] = b
            at += b.shape[0]
        assembled.append(m)
    defect = max(unitarity_defect(b) for b in assembled)
    return UnitarizationResult(form_full, tuple(assembled), defect, radical_total)


@dataclass(frozen=True)
class BraidRelationReport:
    """Deviations from the braid-group relations and pure-braid unitarity."""

    braid_deviations: tuple[float, ...]
    commutation_deviations: tuple[float, ...]
    pure_braid_unitarity: tuple[float, ...]

    @property
    def max_braid_deviation(self) -> float:
        return max(self.braid_deviations, default=0.0)

    @property
    def max_commutation_deviation(self) -> float:
        return max(self.commutation_deviations, default=0.0)

    @property
    def max_deviation(self) -> float:
        return max(self.max_braid_deviation, self.max_commutation_deviation)

    def passed(self, tol: float) -> bool:
        return self.max_deviation <= tol

    def as_dict(self) -> dict:
        return {
            "braid_deviations": list(self.braid_deviations),
            "commutation_deviations": list(self.commutation_deviations),
            "pure_braid_unitarity": list(self.pure_braid_unitarity),
            "max_deviation": self.max_deviation,
        }


def verify_braid_relations(mats, n: int, tol: float = 1e-6) -> BraidRelationReport:
    """Check sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1} and
    far commutation on candidate generator matrices; also report how far the
    induced pure-braid matrices tau_ij are from unitary."""
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
    pure = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            tau = braid_word_matrix(mats, pure_braid_word(n, i, j))
            pure.append(unitarity_defect(tau))
    return BraidRelationReport(tuple(braid), tuple(commutation), tuple(pure))
