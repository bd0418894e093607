"""Inverse monodromy via the Lappo-Danilevski series.

Given an analytic family of target monodromies rho_lambda(gamma_j) =
1 + lambda M_1^j + lambda^2 M_2^j + ..., recover the coefficients U_k^j of a
connection family Omega(lambda) = sum_k lambda^k sum_j U_k^j omega_j whose
monodromy matches order by order.

The monodromy of dF = Omega(lambda) F along gamma_j expands as
F(1) = I + sum_k lambda^k F_k(1), and its truncated jet F_0 = I,
F_r' = sum_{s<=r} Omega_s F_{r-s} is one linear ODE (`jet_monodromy`).  The
order-k term is 2 pi i U_k^j plus Chen iterated integrals of the lower
orders, by the loop normalization: the integral of omega_k over gamma_j is
2 pi i when j = k and 0 otherwise.  So

    U_1^j = M_1^j / (2 pi i),
    U_k^j = (M_k^j - F_k(1)|_{U_k = 0}) / (2 pi i),

where F_k(1)|_{U_k = 0} is the jet of the partial family (orders below k,
with U_k = 0 appended) around gamma_j: one jet solve per order and loop.

Iterated-integral time ordering follows the Picard expansion of dF = Omega F:
in a word the leftmost form is evaluated at the latest time.  Every solve
goes through the adaptive integrator of the forward transport.  A connection
family is one stacked (forms, orders, d*d) coefficient tensor, contracted
with the vector of scalar form weights in one matmul.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fuchsian import ConfigurationForms, DifferenceForms, integrate_along, transport
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
    "series_residuals",
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
# Chen iterated integrals by triangular ODE augmentation.
# ---------------------------------------------------------------------------

def chen_integral(forms, word, path: PiecewisePath, tol: float = 1e-10) -> complex:
    """Iterated integral of the scalar forms omega_{word[0]} ... omega_{word[-1]}.

    The leftmost index is attached to the latest time along the path.
    """
    word = list(word)
    if not word:
        raise ValueError("empty form word")
    if any(not 0 <= j < forms.count for j in word):
        raise ValueError(f"form index out of range in {word}")
    rev = word[::-1]
    k = len(word)

    def rhs_for(seg):
        def rhs(t, y):
            vals = forms.weights(seg.at(t), seg.velocity(t))[rev]
            dy = np.empty(k, dtype=complex)
            dy[0] = vals[0]
            dy[1:] = vals[1:] * y[:-1]
            return dy

        return rhs

    out = integrate_along(path, rhs_for, np.zeros(k, dtype=complex), tol, forms.divisor)
    return complex(out[-1])


def matrix_chen_integral(evaluators, path: PiecewisePath, tol: float, divisor, dim: int) -> np.ndarray:
    """Iterated integral of matrix-valued forms W_1 ... W_q (leftmost latest).

    Each evaluator maps (z, v) to a dim x dim matrix.  The companion system
    stacks the q prefix integrals; only the innermost slot feeds the identity.
    """
    evaluators = list(evaluators)
    q = len(evaluators)
    rev = evaluators[::-1]
    eye = np.eye(dim, dtype=complex)

    def rhs_for(seg):
        def rhs(t, y):
            z, v = seg.at(t), seg.velocity(t)
            mats = [w(z, v) for w in rev]
            blocks = y.reshape(q, dim, dim)
            out = np.empty_like(blocks)
            out[0] = mats[0] @ eye
            for r in range(1, q):
                out[r] = mats[r] @ blocks[r - 1]
            return out.reshape(-1)

        return rhs

    y0 = np.zeros(q * dim * dim, dtype=complex)
    out = integrate_along(path, rhs_for, y0, tol, divisor)
    return out.reshape(q, dim, dim)[-1]


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
    def exponential_targets(cls, hamiltonians, order: int, labels=()) -> "RepresentationFamily":
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
        return cls(tuple(coeffs), labels=tuple(labels))

    @classmethod
    def zero_targets(cls, generators: int, dim: int, order: int) -> "RepresentationFamily":
        z = np.zeros((dim, dim), dtype=complex)
        return cls(tuple(tuple(z for _ in range(order)) for _ in range(generators)))


@dataclass(frozen=True)
class ConnectionFamily:
    """Synthesized coefficients U_k^j over a fixed scalar form system."""

    forms: DifferenceForms | ConfigurationForms
    coefficients: tuple[tuple[np.ndarray, ...], ...]  # [generator][k-1]
    # The coefficients as one (forms, orders, d*d) tensor, for `jet_monodromy`.
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(tuple(as_square_matrix(m) for m in gen) for gen in self.coefficients)
        if len(coeffs) != self.forms.count:
            raise ValueError("one coefficient series per form required")
        object.__setattr__(self, "coefficients", coeffs)
        stack = np.array(coeffs, dtype=complex)
        object.__setattr__(self, "_stack", stack.reshape(stack.shape[0], stack.shape[1], -1))

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


def evaluate_at(family: ConnectionFamily, lam: complex):
    """Sum the truncated series into a concrete logarithmic connection."""
    radius = family.radius_estimate()
    if np.isfinite(radius) and abs(lam) > radius:
        warnings.warn(
            f"|lambda| = {abs(lam):.3g} exceeds the estimated radius {radius:.3g}",
            stacklevel=2,
        )
    zero = np.zeros((family.dim, family.dim), dtype=complex)
    residues = [sum((lam**k * m for k, m in enumerate(gen, start=1)), zero) for gen in family.coefficients]
    return family.forms.connection(residues)


def _check_loop_normalization(forms, loops, tol):
    """Integrate all forms over each loop at once (one vector ODE per loop)
    and require the integral of omega_k over loop j to be 2 pi i delta_jk."""

    def rhs_for(seg):
        return lambda t, y: forms.weights(seg.at(t), seg.velocity(t))

    for j, loop in enumerate(loops):
        got = integrate_along(loop, rhs_for, np.zeros(forms.count, dtype=complex), tol, forms.divisor)
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
    over loop j equal to 2 pi i delta_jk); this is verified numerically
    before the recursion starts.  Order k then costs one jet solve per loop:
    the last jet of the partial family, with U_k = 0, is the correction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    loops = list(loops)
    if len(loops) != targets.generators or targets.generators != forms.count:
        raise ValueError("need one loop and one form per target generator")
    if targets.order < order:
        raise ValueError(f"targets truncated at {targets.order} < requested order {order}")
    _check_loop_normalization(forms, loops, tol)
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
        for j in range(targets.generators):
            correction = jet_monodromy(partial, loops[j], k, tol)[-1] if k > 1 else zero
            series[j].append((targets.coefficients[j][k - 1] - correction) / TWO_PI_I)
    return ConnectionFamily(forms, tuple(tuple(gen) for gen in series))


def jet_monodromy(family: ConnectionFamily, loop: PiecewisePath, order: int,
                  tol: float = 1e-10) -> list[np.ndarray]:
    """Order-by-order monodromy of the family along one loop.

    Integrates the truncated jet of dF = Omega(lambda) F: F_0 = I and
    F_r' = sum_{s<=r} Omega_s F_{r-s}.  Returns [F_1(1), ..., F_order(1)].
    """
    if order > family.order:
        raise ValueError("family is truncated below the requested order")
    dim = family.dim
    stack = family._stack[:, :order].reshape(family.forms.count, -1)

    def rhs_for(seg):
        def rhs(t, y):
            omegas = (family.forms.weights(seg.at(t), seg.velocity(t)) @ stack).reshape(order, dim, dim)
            blocks = y.reshape(order, dim, dim)
            out = omegas.copy()
            for r in range(1, order):
                out[r] += (omegas[:r] @ blocks[r - 1::-1]).sum(axis=0)
            return out.reshape(-1)

        return rhs

    y0 = np.zeros(order * dim * dim, dtype=complex)
    out = integrate_along(loop, rhs_for, y0, tol, family.forms.divisor)
    return list(out.reshape(order, dim, dim))


def series_residuals(family: ConnectionFamily, targets: RepresentationFamily, loops,
                     tol: float = 1e-10) -> list[list[float]]:
    """Per-order deviations ||F_k(1) - M_k^j||_F of the synthesized family."""
    out = []
    for j, loop in enumerate(loops):
        jets = jet_monodromy(family, loop, family.order, tol)
        out.append(
            [frobenius(f - m) for f, m in zip(jets, targets.coefficients[j])]
        )
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
    conn = evaluate_at(family, lam)
    devs = []
    for j, loop in enumerate(loops):
        numeric = transport(conn, loop, tol)
        devs.append(frobenius(numeric - targets.evaluate(j, lam)))
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
