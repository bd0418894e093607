"""Inverse monodromy via the Lappo-Danilevski series.

Given an analytic family of target monodromies rho_lambda(gamma_j) =
1 + lambda M_1^j + lambda^2 M_2^j + ..., recover the coefficients U_k^j of a
connection family Omega(lambda) = sum_k lambda^k sum_j U_k^j omega_j whose
monodromy matches order by order.

The monodromy of dF = Omega(lambda) F along gamma_j expands as
F(1) = I + sum_k lambda^k F_k(1).  The order-k term is 2 pi i U_k^j plus Chen
iterated integrals of the lower orders, by the loop normalization: the
integral of omega_k over gamma_j is 2 pi i when j = k and 0 otherwise, which
is checked in closed form from the periods of the forms (`forms.periods`,
exact log increments).  So

    U_1^j = M_1^j / (2 pi i),
    U_k^j = (M_k^j - F_k(1)|_{U_k = 0}) / (2 pi i),

where F_k(1)|_{U_k = 0} is the jet of the partial family (orders below k,
with U_k = 0 appended) around gamma_j: one jet transport per order, all
loops carried together.

Nothing here has an ODE of its own (Chen, Bull. AMS 83, 1977): every
iterated integral is a block of the transport of a nilpotent connection over
the same forms.  The jet F_0 = I, F_r' = sum_{s<=r} Omega_s F_{r-s} is the
block-Toeplitz connection with Omega_s on the blocks (r, r - s)
(`jet_monodromy`); its propagator along a piece is block-Toeplitz too, fixed
by its thin first block column [I; F_1; ...], and a piece G after F
composes by the truncated product (G F)_r = sum_{s<=r} G_s F_{r-s}.  A word
W_1 ... W_q is the ladder with its letters on the sub-diagonal blocks
(`matrix_chen_integral`), and a scalar word is the ladder of 1 x 1 one-hot
letters (`chen_integral`).  Time ordering follows the Picard expansion of
dF = Omega F: in a word the leftmost form is evaluated at the latest time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fuchsian import ConfigurationForms, Connection, DifferenceForms, _piece_ends, transports
from .matrices import (
    as_square_matrix,
    complex_from_json,
    complex_to_json,
    frobenius,
    matrix_from_json,
    matrix_to_json,
)
from .paths import PiecewisePath

__all__ = [
    "DifferenceForms",
    "ConfigurationForms",
    "RepresentationFamily",
    "ConnectionFamily",
    "chen_integral",
    "matrix_chen_integral",
    "synthesize",
    "evaluate_at",
    "jet_monodromy",
    "verify_match",
    "SynthesisVerification",
    "family_to_json",
    "family_from_json",
    "connection_family_to_json",
    "connection_family_from_json",
]

TWO_PI_I = 2j * np.pi
SMALL_LAMBDA = 0.1
NORMALIZATION_TOL = 1e-6


# ---------------------------------------------------------------------------
# Chen iterated integrals as transports of nilpotent connections.
# ---------------------------------------------------------------------------

def chen_integral(forms, word, path: PiecewisePath, tol: float = 1e-10) -> complex:
    """Iterated integral of the scalar forms omega_{word[0]} ... omega_{word[-1]}.

    The leftmost index is attached to the latest time along the path.  It is
    `matrix_chen_integral` with 1 x 1 letters, form j's letter one-hot at j.
    """
    word = list(word)
    if not word:
        raise ValueError("empty form word")
    if any(not 0 <= j < forms.count for j in word):
        raise ValueError(f"form index out of range in {word}")
    letters = np.eye(forms.count)[word].reshape(len(word), forms.count, 1, 1)
    return complex(matrix_chen_integral(forms, letters, path, tol)[0, 0])


def matrix_chen_integral(forms, words, path: PiecewisePath, tol: float) -> np.ndarray:
    """Iterated integral of the matrix forms W_1 ... W_q (leftmost latest).

    Each letter is an (m, d, d) coefficient stack over `forms`: words[0]
    holds W_1 = sum_j words[0][j] omega_j, and so on.  Chen's ladder: the
    nilpotent connection with W_q, ..., W_1 on the sub-diagonal blocks (q+1
    block rows, W_1 at the bottom) transports [I; 0; ...; 0] to the integrals
    of the suffixes W_q, W_{q-1} W_q, ..., the last being the whole word.
    """
    words = np.asarray(words, dtype=complex)
    q, m, d = words.shape[:3]
    blocks = np.zeros((m, q + 1, d, q + 1, d), dtype=complex)
    for r, letter in enumerate(words[::-1], start=1):
        blocks[:, r, :, r - 1] = letter
    ladder = Connection(forms, blocks.reshape(m, (q + 1) * d, (q + 1) * d))
    return transports(ladder, [path], tol)[0][-d:, :d]


# ---------------------------------------------------------------------------
# Families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentationFamily:
    """Truncated analytic family: per generator j the coefficients M_k^j,
    k = 1..K, of rho_lambda(gamma_j) = 1 + sum lambda^k M_k^j."""

    coefficients: tuple[tuple[np.ndarray, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        coeffs = tuple(tuple(as_square_matrix(m) for m in gen) for gen in self.coefficients)
        if not coeffs or not coeffs[0]:
            raise ValueError("family needs at least one generator and one order")
        order = len(coeffs[0])
        dim = coeffs[0][0].shape[0]
        for gen in coeffs:
            if len(gen) != order:
                raise ValueError("all generators must be truncated at one order")
            if any(m.shape[0] != dim for m in gen):
                raise ValueError("all coefficients must share one dimension")
        labels = self.labels or tuple(f"gamma_{j+1}" for j in range(len(coeffs)))
        if len(labels) != len(coeffs):
            raise ValueError("one label per generator required")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def generators(self) -> int:
        return len(self.coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients[0])

    @property
    def dim(self) -> int:
        return self.coefficients[0][0].shape[0]

    def evaluate(self, j: int, lam: complex) -> np.ndarray:
        """rho_lambda(gamma_j) truncated at the family's order."""
        acc = np.eye(self.dim, dtype=complex)
        for k, m in enumerate(self.coefficients[j], start=1):
            acc = acc + (lam**k) * m
        return acc

    @classmethod
    def exponential_targets(cls, hamiltonians, order: int) -> "RepresentationFamily":
        """Targets M^j(lambda) = exp(2 pi i lambda H_j), truncated at `order`."""
        coeffs = []
        for h in hamiltonians:
            h = as_square_matrix(h)
            term = np.eye(h.shape[0], dtype=complex)
            gen = []
            for k in range(1, order + 1):
                term = term @ (TWO_PI_I * h) / k
                gen.append(term)
            coeffs.append(tuple(gen))
        return cls(tuple(coeffs))


@dataclass(frozen=True)
class ConnectionFamily:
    """Synthesized coefficients U_k^j over a fixed scalar form system."""

    forms: DifferenceForms | ConfigurationForms
    coefficients: tuple[tuple[np.ndarray, ...], ...]  # [generator][k-1]

    def __post_init__(self):
        coeffs = tuple(tuple(as_square_matrix(m) for m in gen) for gen in self.coefficients)
        if len(coeffs) != self.forms.count:
            raise ValueError("one coefficient series per form required")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients[0])

    @property
    def dim(self) -> int:
        return self.coefficients[0][0].shape[0]

    def radius_estimate(self) -> float:
        """Ratio-test estimate of the convergence radius in lambda."""
        ratios = []
        for gen in self.coefficients:
            norms = [frobenius(m) for m in gen]
            for a, b in zip(norms, norms[1:]):
                if b > 1e-14:
                    ratios.append(a / b)
        return float(min(ratios)) if ratios else np.inf


def evaluate_at(family: ConnectionFamily, lam: complex) -> Connection:
    """Sum the truncated series into a concrete logarithmic connection."""
    radius = family.radius_estimate()
    if np.isfinite(radius) and abs(lam) > radius:
        warnings.warn(
            f"|lambda| = {abs(lam):.3g} exceeds the estimated radius {radius:.3g}",
            stacklevel=2,
        )
    zero = np.zeros((family.dim, family.dim), dtype=complex)
    residues = [sum((lam**k * m for k, m in enumerate(gen, start=1)), zero) for gen in family.coefficients]
    return Connection(family.forms, residues)


def _check_loop_normalization(forms, loops):
    """Require the integral of omega_k over loop j to be 2 pi i delta_jk,
    taking the periods of the forms in closed form."""
    for j, loop in enumerate(loops):
        got = forms.periods(loop)
        want = TWO_PI_I * np.eye(forms.count)[j]
        bad = np.flatnonzero(np.abs(got - want) > NORMALIZATION_TOL)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"loop {j+1} is not dual to form {k+1}: "
                f"integral {got[k]:.6f}, expected {want[k]:.6f}"
            )


def synthesize(targets: RepresentationFamily, forms, loops, order: int,
               tol: float = 1e-10) -> ConnectionFamily:
    """Solve for U_k^j order by order up to `order`.

    `loops` must be the generator loops dual to `forms` (integral of omega_k
    over loop j equal to 2 pi i delta_jk); this is checked in closed form
    (`forms.periods`) before the recursion starts.  Order k >= 2 then costs
    one `jet_monodromy` call over all loops: the last jet of the partial
    family, with U_k = 0, is each loop's correction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    loops = list(loops)
    if len(loops) != targets.generators or targets.generators != forms.count:
        raise ValueError("need one loop and one form per target generator")
    if targets.order < order:
        raise ValueError(f"targets truncated at {targets.order} < requested order {order}")
    _check_loop_normalization(forms, loops)
    for j in range(targets.generators):
        lead = frobenius(targets.coefficients[j][0])
        if lead > 1.0 + 1e-9:
            warnings.warn(
                f"first-order target M_1^{j+1} has norm {lead:.3g} > 1; "
                "the series may converge slowly",
                stacklevel=2,
            )

    zero = np.zeros((targets.dim, targets.dim), dtype=complex)
    series: list[list[np.ndarray]] = [[] for _ in range(targets.generators)]
    for k in range(1, order + 1):
        partial = ConnectionFamily(forms, tuple(tuple(gen) + (zero,) for gen in series))
        jets = jet_monodromy(partial, loops, k, tol) if k > 1 else [[zero]] * targets.generators
        for j, loop_jets in enumerate(jets):
            series[j].append((targets.coefficients[j][k - 1] - loop_jets[-1]) / TWO_PI_I)
    return ConnectionFamily(forms, tuple(tuple(gen) for gen in series))


def jet_monodromy(family: ConnectionFamily, loops, order: int,
                  tol: float = 1e-10) -> list[list[np.ndarray]]:
    """Order-by-order monodromy of the family along each loop.

    The truncated jet of dF = Omega(lambda) F, F_0 = I and F_r' = sum_{s<=r}
    Omega_s F_{r-s}, is the first block column of the transport of one
    block-Toeplitz connection: Omega_s on the blocks (r, r - s) of an
    (order + 1)-block matrix.  Every piece of every loop carries that column
    from [I; 0; ...; 0] in one solve (`_piece_ends`); a loop's columns fold
    by the truncated series product, one gather and one contraction per
    piece.  Returns [F_1(1), ..., F_order(1)] per loop.
    """
    if order > family.order:
        raise ValueError("family is truncated below the requested order")
    shifts = np.array([np.eye(order + 1, k=-s) for s in range(1, order + 1)])
    series = np.array(family.coefficients, dtype=complex)[:, :order]
    m, d, n = len(series), family.dim, (order + 1) * family.dim
    conn = Connection(family.forms, np.einsum("src,jsab->jracb", shifts, series).reshape(m, n, n))
    # block (r, s) of a piece's propagator is block r - s of its column, 0 above the diagonal
    lag = np.subtract.outer(np.arange(order + 1), np.arange(order + 1))
    lag[lag < 0] = order + 1
    zero = np.zeros((1, d, d), dtype=complex)
    start = np.eye(n, d, dtype=complex)
    out = []
    for ends in _piece_ends(conn, list(loops), tol, start):
        column = start.reshape(order + 1, d, d)
        for end in ends:
            later = np.concatenate([end.reshape(order + 1, d, d), zero])[lag]
            column = np.einsum("rsab,sbc->rac", later, column)
        out.append(list(column[1:]))
    return out


@dataclass(frozen=True)
class SynthesisVerification:
    """Forward-transport check of a synthesized family at a concrete lambda."""

    lam: complex
    order: int
    deviations: tuple[float, ...]
    radius_estimate: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)

    def as_dict(self) -> dict:
        return {
            "lambda": complex_to_json(self.lam),
            "order": self.order,
            "deviations": list(self.deviations),
            "max_deviation": self.max_deviation,
            "radius_estimate": self.radius_estimate if np.isfinite(self.radius_estimate) else None,
        }


def verify_match(targets: RepresentationFamily, family: ConnectionFamily, lam: complex,
                 loops, tol: float = 1e-10) -> SynthesisVerification:
    """Transport the evaluated connection around each loop and compare with
    the truncated targets; the deviation is O(|lambda|^{K+1})."""
    if abs(lam) > SMALL_LAMBDA:
        warnings.warn(
            f"|lambda| = {abs(lam):.3g} > {SMALL_LAMBDA}; synthesis is only "
            "guaranteed near the identity",
            stacklevel=2,
        )
    numeric = transports(evaluate_at(family, lam), loops, tol)
    devs = [frobenius(m - targets.evaluate(j, lam)) for j, m in enumerate(numeric)]
    return SynthesisVerification(
        lam=complex(lam),
        order=family.order,
        deviations=tuple(devs),
        radius_estimate=family.radius_estimate(),
    )


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------

def family_to_json(fam: RepresentationFamily) -> dict:
    return {
        "labels": list(fam.labels),
        "order": fam.order,
        "coefficients": [[matrix_to_json(m) for m in gen] for gen in fam.coefficients],
    }


def family_from_json(obj) -> RepresentationFamily:
    coeffs = tuple(
        tuple(matrix_from_json(m) for m in gen) for gen in obj["coefficients"]
    )
    return RepresentationFamily(coeffs, labels=tuple(obj.get("labels", ())))


def connection_family_to_json(fam: ConnectionFamily) -> dict:
    if not isinstance(fam.forms, DifferenceForms):
        raise ValueError("only difference-form families have a file format")
    return {
        "points": [complex_to_json(a) for a in fam.forms.points],
        "reference": None if fam.forms.reference is None else complex_to_json(fam.forms.reference),
        "order": fam.order,
        "coefficients": [[matrix_to_json(m) for m in gen] for gen in fam.coefficients],
    }


def connection_family_from_json(obj) -> ConnectionFamily:
    ref = obj.get("reference")
    forms = DifferenceForms(
        tuple(complex_from_json(a) for a in obj["points"]),
        reference=None if ref is None else complex_from_json(ref),
    )
    coeffs = tuple(
        tuple(matrix_from_json(m) for m in gen) for gen in obj["coefficients"]
    )
    return ConnectionFamily(forms, coeffs)
