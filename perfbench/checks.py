"""Reference checks for the benchmark's jobs.

Every check reads a parsed CLI report and compares it with a truth that does
not come from `monogate`: closed forms (e^{2 pi i a}, the two-point KZ gate
P e^{i pi Omega / lambda}), conservation laws (det M = e^{2 pi i tr A}, the
product relation of standard loops), the free group generated by a
Haar-random pair, and known finite groups (Pauli, Clifford, and the B_3
images of Jones 1986 / Freedman-Larsen-Wang 2002).  Only numpy is used.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import numpy as np

UNITARITY_TOL = 1e-8
SPECTRUM_TOL = 1e-6
RELATION_TOL = 1e-6
MONODROMY_TOL = 1e-8
PRODUCT_TOL = 1e-7

# Projective orders of finite images: the Klein four-group for <X, Z>, the
# octahedral group for the Clifford pair <H, S> and for the B_3 image at
# lambda = 4, the tetrahedral group at lambda = 6, the icosahedral group at
# lambda = 10.  At lambda = 5 and 7 the image is dense.
KNOWN_ORDERS = {"pauli": 4, "clifford": 24, "kz4": 24, "kz6": 12, "kz10": 60}


def matrix(obj) -> np.ndarray:
    """Decode the CLI's matrix wire format without the package."""
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in obj["entries"]])


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "entries": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m],
    }


def unitarity_defect(u) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


# ---------------------------------------------------------------------------
# synth: pipeline jobs.
# ---------------------------------------------------------------------------

def check_pipeline(report, verify_tol: float) -> list[str]:
    problems = []
    if report.get("verdict") != "consistent":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'consistent'")
    devs = report.get("deviations", {}).get("deviations", [])
    worst = max(devs) if devs else float("inf")
    if not worst <= verify_tol:
        problems.append(f"forward deviation {worst:.3e} > verify-tol {verify_tol:.1e}")
    return problems


# ---------------------------------------------------------------------------
# braid: kz braid / kz verify jobs.
# ---------------------------------------------------------------------------

def two_point_gate(lam: float) -> np.ndarray:
    """P e^{i pi Omega / lambda} on C^2 (x) C^2 with Omega = P - I/2."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    omega = swap - np.eye(4) / 2
    w, v = np.linalg.eigh(omega)
    return swap @ (v * np.exp(1j * np.pi * w / lam)) @ v.conj().T


def exchange_eigenvalues(lam: float) -> np.ndarray:
    """Spectrum of a spin-1/2 braid generator: -e^{-3 i pi/(2 lam)} on the
    singlet and e^{i pi/(2 lam)} on the triplet."""
    return np.array([-np.exp(-1.5j * np.pi / lam), np.exp(0.5j * np.pi / lam)])


def _sorted_spectrum(m) -> np.ndarray:
    w = np.linalg.eigvals(m)
    return w[np.lexsort((np.round(w.imag, 8), np.round(w.real, 8)))]


def check_kz_braid(report, n: int, lam: float) -> list[str]:
    gates = [matrix(g["matrix"]) for g in report.get("gates", [])]
    if len(gates) != n - 1:
        return [f"{len(gates)} gates, expected {n - 1}"]
    problems = []
    worst_u = max(unitarity_defect(g) for g in gates)
    if worst_u > UNITARITY_TOL:
        problems.append(f"unitarity defect {worst_u:.2e}")
    if n == 2:
        want = _sorted_spectrum(two_point_gate(lam))
        got = _sorted_spectrum(gates[0])
        if got.shape != want.shape or np.max(np.abs(got - want)) > SPECTRUM_TOL:
            problems.append("n=2 gate does not match P exp(i pi Omega / lambda)")
        return problems
    allowed = exchange_eigenvalues(lam)
    spec = max(
        float(np.min(np.abs(e - allowed))) for g in gates for e in np.linalg.eigvals(g)
    )
    if spec > SPECTRUM_TOL:
        problems.append(f"generator eigenvalue off the exchange spectrum by {spec:.2e}")
    for a, b in zip(gates, gates[1:]):
        dev = float(np.linalg.norm(a @ b @ a - b @ a @ b))
        if dev > RELATION_TOL:
            problems.append(f"braid relation violated by {dev:.2e}")
    for i in range(len(gates)):
        for j in range(i + 2, len(gates)):
            dev = float(np.linalg.norm(gates[i] @ gates[j] - gates[j] @ gates[i]))
            if dev > RELATION_TOL:
                problems.append(f"far commutation violated by {dev:.2e}")
    return problems


def check_kz_verify(report, relation_tol: float = RELATION_TOL) -> list[str]:
    problems = []
    if report.get("verdict") != "verified":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'verified'")
    devs = report.get("deviations", {})
    defect = devs.get("unitarized_defect", float("inf"))
    if not defect <= UNITARITY_TOL:
        problems.append(f"unitarized defect {defect:.2e} > {UNITARITY_TOL:.0e}")
    for key in ("braid_relations", "far_commutation", "half_twist_squared"):
        worst = max(devs.get(key, []), default=0.0)
        if not worst <= relation_tol:
            problems.append(f"{key} deviation {worst:.2e} > {relation_tol:.0e}")
    return problems


# ---------------------------------------------------------------------------
# screen: universality screen / coverage jobs.
# ---------------------------------------------------------------------------

def free_levels(maxlen: int) -> list[int]:
    """New elements per word length in the free group on two generators."""
    return [1] + [4 * 3 ** (k - 1) for k in range(1, maxlen + 1)]


def projective_closure(gens, cap: int = 200) -> list[np.ndarray]:
    """Elements of the projective group generated by 2x2 unitaries.

    Two elements are equal when |tr(U^dagger V)| = 2; the enumeration stops
    at `cap` elements, so a dense set returns exactly `cap` of them.
    """
    alphabet = list(gens) + [g.conj().T for g in gens]
    elems = [np.eye(2, dtype=complex)]
    frontier = list(elems)
    while frontier and len(elems) < cap:
        new = []
        for w in frontier:
            for a in alphabet:
                v = a @ w
                stack = np.stack(elems + new)
                overlap = np.abs(np.einsum("kij,ij->k", stack.conj(), v))
                if np.all(np.abs(overlap - 2.0) > 1e-8):
                    new.append(v)
        elems += new
        frontier = new
    return elems[:cap]


def haar_targets(count: int, seed: int) -> np.ndarray:
    """Haar SU(2) targets as unit quaternions from numpy's default_rng(seed),
    the sampler the coverage command documents."""
    q = np.random.default_rng(seed).standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q.T
    out = np.empty((count, 2, 2), dtype=complex)
    out[:, 0, 0] = a + 1j * b
    out[:, 0, 1] = c + 1j * d
    out[:, 1, 0] = -c + 1j * d
    out[:, 1, 1] = a - 1j * b
    return out


def coverage_of(elements, targets, eps: float) -> float:
    stack = np.stack(elements)
    overlaps = np.abs(np.einsum("wij,nij->wn", stack.conj(), targets))
    dist = np.sqrt(np.clip(4.0 - 2.0 * overlaps.max(axis=0), 0.0, None))
    return float(np.mean(dist <= eps))


def check_screen(report, expect: dict) -> list[str]:
    """expect: {"kind": "finite", "order": N} or {"kind": "dense", "free": bool,
    "budget": B}."""
    problems = []
    sizes = report.get("closure_sizes", [])
    verdict = report.get("verdict")
    if expect["kind"] == "finite":
        if verdict != "finite-suspect":
            problems.append(f"verdict {verdict!r} for a finite group")
        if sum(sizes) != expect["order"]:
            problems.append(f"closure of {sum(sizes)} elements, projective order is {expect['order']}")
        return problems
    if verdict != "dense-likely":
        problems.append(f"verdict {verdict!r} for a dense set")
    if expect.get("free"):
        full = free_levels(len(sizes) - 1)
        if sizes[:-1] != full[:-1] or sizes[-1] > full[-1]:
            problems.append("closure levels differ from the free group's")
        if sum(sizes) != expect["budget"] + 1:
            problems.append(f"closure stopped at {sum(sizes)}, node budget is {expect['budget']}")
    return problems


def check_coverage(report, expect: dict) -> list[str]:
    """expect: {"kind": "finite", "order": N, "elements": [...]} or
    {"kind": "dense", "maxlen": L}; both carry "eps", "samples", "seed"."""
    problems = []
    words = report.get("words")
    coverage = report.get("coverage", -1.0)
    if not 0.0 <= coverage <= 1.0:
        problems.append(f"coverage {coverage} outside [0, 1]")
    if expect["kind"] == "finite":
        if words != expect["order"]:
            problems.append(f"{words} words, projective order is {expect['order']}")
        want = coverage_of(expect["elements"], haar_targets(expect["samples"], expect["seed"]), expect["eps"])
        if abs(coverage - want) > 1.5 / expect["samples"]:
            problems.append(f"coverage {coverage:.3f}, reference {want:.3f}")
    else:
        want = sum(free_levels(expect["maxlen"]))
        if words != want:
            problems.append(f"{words} words, the free group has {want} up to length {expect['maxlen']}")
    return problems


# ---------------------------------------------------------------------------
# monodromy: fuchsian monodromy jobs.
# ---------------------------------------------------------------------------

def check_monodromy(report, residues, standard: bool) -> list[str]:
    """residues: one matrix per loop, the residue of the pole it encircles."""
    mats = [matrix(m) for m in report.get("matrices", [])]
    if len(mats) != len(residues):
        return [f"{len(mats)} monodromy matrices, expected {len(residues)}"]
    problems = []
    for k, (m, a) in enumerate(zip(mats, residues)):
        want = np.exp(2j * np.pi * np.trace(a))
        got = np.linalg.det(m)
        if abs(got - want) > MONODROMY_TOL * max(1.0, abs(want)):
            problems.append(f"loop {k + 1}: det M off e^(2 pi i tr A) by {abs(got - want):.2e}")
        if a.shape == (1, 1):
            err = abs(m[0, 0] - np.exp(2j * np.pi * a[0, 0]))
            if err > MONODROMY_TOL:
                problems.append(f"loop {k + 1}: scalar monodromy off e^(2 pi i a) by {err:.2e}")
    if standard:
        prod = np.eye(mats[0].shape[0], dtype=complex)
        for m in mats:
            prod = prod @ m
        scale = float(np.prod([max(1.0, np.linalg.norm(m, 2)) for m in mats]))
        defect = float(np.linalg.norm(prod - np.eye(prod.shape[0])))
        if defect > PRODUCT_TOL * scale:
            problems.append(f"product M1...M4 differs from I by {defect:.2e}")
    return problems
