"""Independent reference implementations used only by the tests.

Each oracle computes something the library also computes, by a different
and slower route, so tests can compare the two:

* `compositions` and `composition_synthesize`: the Lappo-Danilevski recursion
  as an explicit sum over integer compositions, one matrix Chen integral (a
  ladder connection with the orders' coefficient stacks as letters) per
  composition, 2^(k-1) - 1 solves per generator at order k, against the
  library's single block-Toeplitz jet solve per order.
* `toeplitz_jets`: the jets of a family as the first block column of the
  full (K + 1) d square propagator of the block-Toeplitz jet connection
  (`transports`), against `jet_monodromy`'s thin first block column per
  piece composed by truncated Cauchy products.
* `casimir_omega_via_coproduct`: the two-site Casimir coupling from the
  coproduct of the Casimir element.
* `two_point_solution`: the closed-form solution of the n = 2 KZ system.
* `sample_path`: dense point samples of a path, against analytic clearance.
* `unitarize_representation`: the most definite invariant Hermitian form of
  any representation by supergradient ascent over the space of forms,
  against `unitarize_kz`'s unique form per multiplicity block.
* `full_space_braid_matrix`: the KZ braid gate from the transport of the
  full dim x dim fundamental solution, against `kz.braid_matrix`'s transport
  in the highest-weight multiplicity spaces.
* `flip_operator`: the flip of two tensor factors as a dim x dim
  permutation, against the flip blocks `kz` makes by swapping two axes of
  the highest-weight vectors.
* `dense_on_sites`: an operator on chosen tensor factors as a dim x dim
  matrix (kron with the identity, then one transpose), against
  `kz._on_sites`'s contraction with a column block; `total_spin_operators`
  builds the global J+ and Jz with it.
* `jimbo_braid_rep`: Jimbo's R-matrix representation of the braid group,
  which by Drinfeld-Kohno has the same braid-word traces as the spin-1/2 KZ
  gates at q = e^{pi i / lambda}, with no transport at all.
* `sequential_integrate`: the column-block transport of one path with one
  DOP853 solve per graded piece, each started from the last one's end,
  against `fuchsian`'s batched solves (`transports`, `integrate_along`).
* `numpy_point_to_segment_distance` and `numpy_point_to_arc_distance`: the
  clearance formulas of lines and arcs through numpy's scalar functions,
  against `paths`'s plain-Python ones.
* `closure_levels_reference`: the breadth-first projective closure with one
  matmul, one `dedup_key` and one set probe per product, against
  `universality._closure_levels`'s stacked products and keys per frontier
  slice.

The rest are helpers that only tests call, kept here rather than in the
library:

* braids: `braid_word_matrix` (a braid word evaluated on generator
  matrices) and `pure_braid_unitarity` (the unitarity defects of the
  induced pure-braid matrices tau_ij);

* paths: `invert` (the reversed contour), `winding_number` (from the exact
  per-segment log increments), `min_divisor_distance` (analytic clearance of
  a whole path) and `permutation_of_word` (the permutation under a braid
  word);
* connections: `as_points_connection` (the simple-pole form of a
  `Connection` on difference forms), `curvature_residual` (the commutator
  [Omega(u), Omega(v)] at a point), `chern_index` (the integer trace sum
  of the residue logarithms of a monodromy representation) and
  `levelt_pair` (the residues at 0 and 1 of a hypergeometric connection,
  whose monodromy Levelt's theorem gives in closed form);
* synthesis: `series_residuals`, the per-order deviations of a synthesized
  family from its targets;
* spin modules: `casimir_value`, the Casimir scalar 2 j (j + 1);
* gates and matrices: `tensor`, `pauli_coefficients`, `projective_distance`,
  `random_unitary` and `random_traceless_hermitian_unitary`.
"""

from functools import reduce
from itertools import combinations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from monogate.fuchsian import (
    MIN_CLEARANCE,
    BranchCutError,
    Connection,
    DivisorContactError,
    PointsConnection,
    TransportError,
    _graded_pieces,
    _segment_step_cap,
    residue_log,
    transport,
    transports,
)
from monogate.gate_core import QuantumGate
from monogate.kz import UnitarizationResult
from monogate.lappo_danilevski import ConnectionFamily, jet_monodromy, matrix_chen_integral
from monogate.matrices import as_square_matrix, frobenius, unitarity_defect
from monogate.paths import (
    ArcSegment,
    LineSegment,
    PiecewisePath,
    braid_word_path,
    pure_braid_word,
    segment_log_increment,
)
from monogate.universality import DEDUP_TOL

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
    for k in range(1, order + 1):
        # Omega_p as its (forms, d, d) coefficient stack
        omegas = {p: np.array([gen[p - 1] for gen in series]) for p in range(1, k)}
        for j in range(targets.generators):
            correction = np.zeros((dim, dim), dtype=complex)
            for q in range(2, k + 1):
                for parts in compositions(k, q):
                    words = [omegas[p] for p in parts]
                    correction += matrix_chen_integral(forms, words, loops[j], tol)
            series[j].append((targets.coefficients[j][k - 1] - correction) / TWO_PI_I)
    return ConnectionFamily(forms, tuple(tuple(gen) for gen in series))


def toeplitz_jets(family, paths, order: int, tol: float = 1e-10) -> list[list[np.ndarray]]:
    """[F_1(1), ..., F_order(1)] of the family along each path, read off the
    first block column of the transport of the block-Toeplitz connection
    with Omega_s on the blocks (r, r - s), solved as a full square."""
    series = np.array(family.coefficients, dtype=complex)[:, :order]
    m, d = series.shape[0], family.dim
    blocks = np.zeros((m, order + 1, d, order + 1, d), dtype=complex)
    for s in range(1, order + 1):
        for r in range(s, order + 1):
            blocks[:, r, :, r - s] = series[:, s - 1]
    n = (order + 1) * d
    conn = Connection(family.forms, blocks.reshape(m, n, n))
    return [list(f[:, :d].reshape(order + 1, d, d)[1:]) for f in transports(conn, paths, tol)]


def casimir_omega_via_coproduct(vi, vj) -> np.ndarray:
    """The coupling from (Delta c - c (x) 1 - 1 (x) c) / 2."""
    dim = vi.dim * vj.dim
    delta_c = np.zeros((dim, dim), dtype=complex)
    for a, b in zip(vi.spin_triple(), vj.spin_triple()):
        # images of the orthonormal basis elements are sqrt(2) * spin matrices
        da = np.sqrt(2.0) * (np.kron(a, np.eye(vj.dim)) + np.kron(np.eye(vi.dim), b))
        delta_c += da @ da
    c_left = casimir_value(vi) * np.eye(dim)
    c_right = casimir_value(vj) * np.eye(dim)
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


def _hermitian_kernel_basis(mats) -> list[np.ndarray]:
    """Orthonormal basis of the Hermitian solutions of B† H B = H for all B."""
    dim = mats[0].shape[0]
    blocks = [np.kron(b.T, b.conj().T) - np.eye(dim * dim) for b in mats]
    _, s, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    null_count = int(np.sum(s <= max(s[0], 1.0) * 1e-10))
    if null_count == 0:
        raise ValueError("no invariant sesquilinear form exists within tolerance")
    candidates = []
    for row in vh[-null_count:]:
        a = row.reshape(dim, dim, order="F")
        candidates.append((a + a.conj().T) / 2.0)
        candidates.append((a - a.conj().T) / 2j)
    # the kernel is conjugation-stable, so Hermitian parts span its Hermitian
    # slice; a real SVD of their real and imaginary parts keeps the basis Hermitian
    stacked = np.stack([c.reshape(-1) for c in candidates]).view(float)
    _, sv, vh = np.linalg.svd(stacked, full_matrices=False)
    keep = sv > max(sv[0], 1.0) * 1e-10
    return [vh[k].view(complex).reshape(dim, dim) for k in range(len(sv)) if keep[k]]


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


def dedup_key(u: np.ndarray) -> bytes:
    """Projective grid key of one element, by the rule of
    `universality._dedup_keys`: the first entry within DEDUP_TOL of the
    largest magnitude is rotated to real positive, then entries are rounded
    on a 1/DEDUP_TOL grid."""
    flat = u.reshape(-1)
    mags = np.abs(flat)
    k = int(np.argmax(mags >= mags.max() - DEDUP_TOL))
    v = flat / (flat[k] / mags[k])
    return np.rint(v.view(float) * (1 / DEDUP_TOL)).astype(np.int64).tobytes()


def closure_levels_reference(gs, maxlen: int, node_budget: int):
    """Breadth-first closure product by product; returns (elements, levels,
    saturated, budget_exhausted) with elements as a list."""
    alphabet = list(gs.generators) + [g.conj().T for g in gs.generators]
    eye = np.eye(gs.dim, dtype=complex)
    seen = {dedup_key(eye)}
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
                key = dedup_key(v)
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


def flip_operator(n: int, d: int, i: int) -> np.ndarray:
    """Permutation operator exchanging tensor factors i and i+1 (1-based):
    the identity on (C^d)^{(x) n} with its output axes i-1 and i swapped."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"factor index {i} out of range for n={n}")
    eye = np.eye(d**n, dtype=complex).reshape((d,) * (2 * n))
    return eye.swapaxes(i - 1, i).reshape(d**n, d**n)


def dense_on_sites(op: np.ndarray, sites, dims) -> np.ndarray:
    """op acting on the tensor factors `sites` (0-based, in op's own factor
    order), identity elsewhere: kron with the identity, then one transpose."""
    n, dim = len(dims), int(np.prod(dims))
    order = list(sites) + [k for k in range(n) if k not in sites]
    full = np.kron(op, np.eye(dim // op.shape[0], dtype=complex))
    back = np.argsort(order).tolist()
    shape = [dims[k] for k in order] * 2
    return full.reshape(shape).transpose(back + [n + k for k in back]).reshape(dim, dim)


def total_spin_operators(sys) -> tuple[np.ndarray, np.ndarray]:
    """Global raising operator J+ and weight operator Jz on the tensor product."""
    dims = [m.dim for m in sys.modules]
    jp = sum(dense_on_sites(m.sp, (k,), dims) for k, m in enumerate(sys.modules))
    jz = sum(dense_on_sites(m.sz, (k,), dims) for k, m in enumerate(sys.modules))
    return jp, jz


def full_space_braid_matrix(sys, i: int, tol: float = 1e-10) -> np.ndarray:
    """The gate of sigma_i as the flip after the half-twist transport of the
    whole connection on the tensor product, a dim^2-entry solve."""
    t = transport(sys.connection(), braid_word_path(sys.n, [i]), tol)
    return flip_operator(sys.n, sys.modules[0].dim, i) @ t


def jimbo_braid_rep(n: int, q: complex) -> list[np.ndarray]:
    """Jimbo's R-matrix representation of B_n on (C^2)^{(x) n}.

    sigma_i acts on factors i, i+1 by R = q^{-1/2} [[q, 0, 0, 0], [0, 0, 1, 0],
    [0, 1, q - q^{-1}, 0], [0, 0, 0, q]] in the basis (++, +-, -+, --).  By
    Drinfeld-Kohno it is equivalent to the spin-1/2 KZ braid gates at
    q = e^{pi i / lambda}."""
    q = complex(q)
    r = q**-0.5 * np.array(
        [[q, 0, 0, 0], [0, 0, 1, 0], [0, 1, q - 1 / q, 0], [0, 0, 0, q]], dtype=complex
    )
    return [np.kron(np.kron(np.eye(2 ** (i - 1)), r), np.eye(2 ** (n - i - 1))) for i in range(1, n)]


def braid_word_matrix(mats, word) -> np.ndarray:
    """Evaluate a braid word on generator matrices, first letter acting first."""
    dim = mats[0].shape[0]
    out = np.eye(dim, dtype=complex)
    for letter in word:
        b = mats[abs(letter) - 1]
        out = (b if letter > 0 else np.linalg.inv(b)) @ out
    return out


def levelt_pair(alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    """Residues (A_0, A_1) at 0 and 1 of a hypergeometric connection with
    local exponents alphas at 0 and -betas at infinity.

    A_0 = diag(alpha) and A_1 = u v^T with u = 1 and v_k = -prod_l (alpha_k -
    beta_l) / prod_{l != k} (alpha_k - alpha_l), the partial-fraction weights
    of prod (t - beta_l) / prod (t - alpha_l), so eig(A_0 + A_1) = beta.  The
    alphas must be distinct."""
    a = np.asarray(alphas, dtype=complex)
    b = np.asarray(betas, dtype=complex)
    v = np.array([
        -np.prod(ak - b) / np.prod(np.delete(ak - a, k)) for k, ak in enumerate(a)
    ])
    return np.diag(a), np.outer(np.ones(len(a)), v)


def pure_braid_unitarity(mats, n: int) -> list[float]:
    """Unitarity defects of the pure-braid matrices tau_ij, i < j, that the
    generator matrices induce."""
    return [
        unitarity_defect(braid_word_matrix(mats, pure_braid_word(n, i, j)))
        for i, j in combinations(range(1, n + 1), 2)
    ]


# ---------------------------------------------------------------------------
# Helpers only tests call.
# ---------------------------------------------------------------------------

def invert(path: PiecewisePath) -> PiecewisePath:
    """The same contour with orientation reversed."""

    def back(seg):
        if isinstance(seg, LineSegment):
            return LineSegment(seg.end_point, seg.start_point)
        return ArcSegment(seg.center, seg.amplitude, seg.theta1, seg.theta0)

    return PiecewisePath(tuple(back(seg) for seg in reversed(path.segments)))


def winding_number(path: PiecewisePath, point: complex) -> float:
    """(1/2 pi) times the total argument increment of z - point along the
    path, exact per segment (`segment_log_increment`)."""
    if path.dimension != 1:
        raise ValueError("winding number is defined for paths in C")
    return sum(segment_log_increment(seg, point).imag for seg in path.segments) / (2 * np.pi)


def min_divisor_distance(path: PiecewisePath, divisor) -> float:
    """Analytic minimum distance from the path to the divisor."""
    return min(divisor.segment_distance(seg) for seg in path.segments)


def permutation_of_word(n: int, word) -> list[int]:
    """Image of (1..n) under the word's underlying permutation."""
    v = list(range(1, n + 1))
    for letter in word:
        i = abs(letter)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {letter} out of range for n={n}")
        a = v.index(i)
        b = v.index(i + 1)
        v[a], v[b] = v[b], v[a]
    return v


def as_points_connection(conn) -> PointsConnection:
    """The simple-pole form of a `Connection` on `DifferenceForms` (adds the
    reference pole, if finite, with minus the sum of the coefficients)."""
    forms = conn.forms
    if forms.reference is None:
        return PointsConnection(forms.points, conn.coefficients)
    total = -conn.coefficients.sum(axis=0)
    return PointsConnection(
        forms.points + (forms.reference,),
        [*conn.coefficients, total],
        regular_at_infinity=True,
    )


def curvature_residual(conn, point, u, v) -> float:
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


def chern_index(rep, branch_start: float = 0.0, residual_tol: float = 1e-6) -> tuple[int, float]:
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


def series_residuals(family, targets, loops, tol: float = 1e-10) -> list[list[float]]:
    """Per-order deviations ||F_k(1) - M_k^j||_F of the synthesized family."""
    jets = jet_monodromy(family, loops, family.order, tol)
    return [
        [frobenius(f - m) for f, m in zip(loop_jets, targets.coefficients[j])]
        for j, loop_jets in enumerate(jets)
    ]


def casimir_value(module) -> float:
    """Scalar of c = 2(sx^2 + sy^2 + sz^2) on a spin module: 2 j (j + 1)."""
    return 2.0 * module.spin * (module.spin + 1.0)


def tensor(gates) -> QuantumGate:
    """Kronecker product in list order; qubit counts add."""
    return QuantumGate(reduce(np.kron, [g.matrix for g in gates]), sum(g.qubits for g in gates))


def pauli_coefficients(u) -> tuple[float, float, float]:
    """Solve U = x sx + y sy + z sz for a traceless Hermitian unitary U."""
    u = as_square_matrix(u)
    return float(u[1, 0].real), float(u[1, 0].imag), float(u[0, 0].real)


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


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_traceless_hermitian_unitary(rng: np.random.Generator) -> np.ndarray:
    """Random point on the sphere x sx + y sy + z sz, x^2+y^2+z^2 = 1."""
    v = rng.standard_normal(3)
    x, y, z = v / np.linalg.norm(v)
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]])


def sequential_integrate(path, conn, y0, tol: float) -> np.ndarray:
    """Drive a column block Y of dY = Omega Y along a path, piece by piece.

    Omega = `conn.contract(z, v)`; Y starts at y0 (conn.dim rows, any
    number of columns) and is returned at the path end in y0's shape.  The
    local solver tolerance sits two orders below `tol`.  Each piece is one
    solve whose step is capped at 0.5 x (the piece's own clearance from the
    divisor) / speed, so no step can skip a pole.  Segments that pass close
    to a pole in their interior are cut into pieces graded by clearance
    (`_graded_pieces`), so their cost grows like log(1/h) in the closest
    approach h, not like 1/h.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if path.dimension != conn.ambient:
        raise ValueError(f"path in C^{path.dimension} vs connection on C^{conn.ambient}")
    rtol = max(tol * 1e-2, 3e-14)
    atol = max(tol * 1e-3, 1e-14)
    d = conn.dim
    y0 = np.asarray(y0, dtype=complex)
    state = y0.reshape(-1)
    for seg in path.segments:
        clearance = conn.divisor.segment_distance(seg)
        if clearance <= MIN_CLEARANCE:
            raise DivisorContactError(clearance)
        if seg.max_speed() == 0.0:
            continue
        for piece, piece_clearance in _graded_pieces(seg, clearance, conn.divisor):
            def rhs(t, y):
                if isinstance(piece, ArcSegment):
                    sweep = piece.theta1 - piece.theta0
                    velocity = 1j * sweep * piece.amplitude * np.exp(1j * (piece.theta0 + t * sweep))
                else:
                    velocity = piece.end_point - piece.start_point
                return (conn.contract(piece.at(t), velocity) @ y.reshape(d, -1)).reshape(-1)

            sol = solve_ivp(
                rhs,
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
    return state.reshape(y0.shape)


def numpy_point_to_segment_distance(a: complex, b: complex, s: complex) -> float:
    """Distance from s to the straight segment [a, b] in C."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(a - s)
    t = np.clip(((s - a) * np.conj(d)).real / L2, 0.0, 1.0)
    return abs(a + t * d - s)


def numpy_point_to_arc_distance(c: complex, rho: complex, t0: float, t1: float, s: complex) -> float:
    """Distance from s to the arc c + rho * e^{i theta}, theta from t0 to t1."""
    r = abs(rho)
    if r == 0.0:
        return abs(c - s)
    w = s - c
    if abs(w) > 0.0:
        theta_star = float(np.angle(w / rho))
        lo, hi = min(t0, t1), max(t0, t1)
        k_min = np.ceil((lo - theta_star) / (2 * np.pi))
        if theta_star + 2 * np.pi * k_min <= hi + 1e-15:
            return abs(abs(w) - r)
    else:
        return r
    e0 = c + rho * np.exp(1j * t0)
    e1 = c + rho * np.exp(1j * t1)
    return min(abs(e0 - s), abs(e1 - s))
