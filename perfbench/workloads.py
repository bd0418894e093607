"""The four workloads: seeded inputs, the job cycle and each job's check.

A workload's `build_<name>(seed, workdir, run_cli, tiny)` returns one cycle
of jobs and a warm-up job; `run_cli(argv)` gives the CLI's exit code and
report, for inputs that the program itself produces.  The cycle fixes the mix
of job sizes, so every run and every seed does the same kind of work and only
the numbers in the inputs change; a run repeats the cycle.  Each job is one
`monogate` CLI invocation on generated inputs, with a reference check from
`checks`.
"""

from __future__ import annotations

import functools
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

VERIFY_TOL = 1e-4


@dataclass
class Job:
    label: str
    argv: list
    check: Callable[[dict], list]
    bucket: str = ""
    defect: str | None = None  # known-defect ledger id, if the seed gets this wrong


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _num(x: float) -> str:
    return repr(float(x))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# synth: pipeline jobs (synthesis, forward verification, density screen).
# ---------------------------------------------------------------------------

SYNTH_CLASSES = ((3, 2, 2), (3, 2, 4), (3, 3, 2), (3, 3, 4), (4, 2, 2), (4, 2, 4), (5, 2, 2))
SYNTH_BUDGET = 2000


def synth_lambda(order: int, dim: int, fraction: float) -> float:
    """lambda whose first dropped series term is fraction * verify-tol / 100."""
    term = 1e-2 * VERIFY_TOL * fraction
    return float((term * np.prod(np.arange(1, order + 2)) / np.sqrt(dim)) ** (1.0 / (order + 1)) / (2 * np.pi))


def build_synth(seed: int, workdir: Path, run_cli, tiny: bool = False):
    rng = _rng(seed, "synth")
    classes = ((2, 2, 2), (3, 2, 2)) if tiny else SYNTH_CLASSES
    jobs = []
    for order, gens, dim in classes:
        lam = synth_lambda(order, dim, rng.uniform(0.1, 1.0))
        argv = [
            "pipeline", "--seed", str(int(rng.integers(1, 2**31))), "--generators", str(gens),
            "--dim", str(dim), "--order", str(order), "--lambda", _num(lam),
            "--budget", str(200 if tiny else SYNTH_BUDGET), "--verify-tol", _num(VERIFY_TOL),
        ]
        jobs.append(Job(f"pipeline K{order} m{gens} d{dim}", argv,
                        lambda r: checks.check_pipeline(r, VERIFY_TOL), bucket=f"K{order}"))
    return jobs, jobs[0]


# ---------------------------------------------------------------------------
# braid: KZ braid gates (with unitarization) and braid-relation verification.
# ---------------------------------------------------------------------------

INTEGER_LEVEL = 3.0


def build_braid(seed: int, workdir: Path, run_cli, tiny: bool = False):
    rng = _rng(seed, "braid")
    top = 3 if tiny else 7

    def coupling(integer: bool) -> float:
        # Non-integer couplings sit between 7 and 9, away from the levels.
        return INTEGER_LEVEL if integer else float(rng.choice([7.0, 8.0]) + rng.uniform(0.2, 0.8))

    # Integer level for odd n in braid jobs and even n in verify jobs; n = 6
    # runs at both kinds of coupling.  kz verify at n = 7 costs ~8 s, over a
    # third of a run, and is left out.
    slots = [("braid", n, n % 2 == 1) for n in range(2, top + 1)]
    slots += [("verify", n, n % 2 == 0) for n in range(2, min(top, 6) + 1)]
    if not tiny:
        slots += [("braid", 6, True), ("verify", 6, False)]
    jobs = []
    for kind, n, integer in slots:
        lam = coupling(integer)
        if kind == "braid":
            argv = ["kz", "braid", "--n", str(n), "--lambda", _num(lam), "--unitarize"]
            check = functools.partial(checks.check_kz_braid, n=n, lam=lam)
        else:
            argv = ["kz", "verify", "--n", str(n), "--lambda", _num(lam)]
            check = checks.check_kz_verify
        level = "level" if integer else "generic"
        jobs.append(Job(f"kz {kind} n{n} {level}", argv, check, bucket=f"n{n}"))
    order = rng.permutation(len(jobs))
    jobs = [jobs[k] for k in order]
    warm_n = 3 if tiny else 5
    warm = Job("kz braid warm-up", ["kz", "braid", "--n", str(warm_n), "--lambda", "7.5", "--unitarize"],
               lambda r: checks.check_kz_braid(r, warm_n, 7.5), bucket=f"n{warm_n}")
    return jobs, warm


# ---------------------------------------------------------------------------
# screen: density screen and coverage over random and known gate sets.
# ---------------------------------------------------------------------------

SCREEN_BUDGET = 20000
COVERAGE_MAXLEN = 8
HAAR_PAIRS = 5
FINITE_MAXLEN = 10
KZ_LEVELS = (4, 5, 6, 7, 10)
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex))
CLIFFORD = (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), np.diag([1.0, 1j]))


def _haar_su2(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _gate_file(path: Path, mats, labels) -> str:
    return _write(path, {"gates": [{"label": lab, "matrix": checks.matrix_json(m)}
                                   for lab, m in zip(labels, mats)]})


def kz_block_gates(lam: float, run_cli) -> list:
    """Spin-1/2 multiplicity block of the unitarized n = 3 KZ gates.

    The unitarized gates are block diagonal with the 2x2 block first; the
    radical must be 0 so that the block is the whole spin-1/2 image.
    """
    rc, report = run_cli(["kz", "braid", "--n", "3", "--lambda", _num(lam), "--unitarize"])
    if rc != 0 or report.get("radical_dim") != 0:
        raise RuntimeError(f"kz braid n=3 lambda={lam}: exit {rc}, radical {report.get('radical_dim')}")
    blocks = []
    for g in report["gates"]:
        m = checks.matrix(g["matrix"])
        if np.linalg.norm(m[:2, 2:]) + np.linalg.norm(m[2:, :2]) > 1e-10:
            raise RuntimeError(f"lambda={lam}: unitarized gate is not block diagonal")
        if checks.unitarity_defect(m[:2, :2]) > 1e-10:
            raise RuntimeError(f"lambda={lam}: spin-1/2 block is not unitary")
        blocks.append(m[:2, :2])
    return blocks


def build_screen(seed: int, workdir: Path, run_cli, tiny: bool = False):
    rng = _rng(seed, "screen")
    budget = 500 if tiny else SCREEN_BUDGET
    cov_len = 3 if tiny else COVERAGE_MAXLEN
    samples = 100
    jobs = []

    def screen_job(label, source, expect, defect=None):
        argv = ["universality", "screen", *source, "--budget", str(budget)]
        jobs.append(Job(f"screen {label}", argv, lambda r: checks.check_screen(r, expect), defect=defect))

    def coverage_job(label, source, expect, maxlen, defect=None):
        cov_seed = int(rng.integers(0, 2**31))
        expect = dict(expect, eps=0.5, samples=samples, seed=cov_seed, maxlen=maxlen)
        argv = ["universality", "coverage", *source, "--maxlen", str(maxlen), "--eps", "0.5",
                "--samples", str(samples), "--seed", str(cov_seed)]
        jobs.append(Job(f"coverage {label}", argv, lambda r: checks.check_coverage(r, expect), defect=defect))

    for k in range(2 if tiny else HAAR_PAIRS):
        pair = (_haar_su2(rng), _haar_su2(rng))
        src = ["--gates", _gate_file(workdir / f"haar{k}.json", pair, ("u", "v"))]
        screen_job(f"haar{k}", src, {"kind": "dense", "free": True, "budget": budget}, defect="dedup-haar")
        coverage_job(f"haar{k}", src, {"kind": "dense"}, cov_len, defect="dedup-haar")

    finite = [("pauli", ["--names", "X,Z"], PAULI), ("clifford", ["--names", "H_std,PHASE:0.5"], CLIFFORD)]
    levels = (4, 5) if tiny else KZ_LEVELS
    dense_kz = []
    for lam in levels:
        gates = kz_block_gates(lam, run_cli)
        src = ["--gates", _gate_file(workdir / f"kz{lam}.json", gates, ("s1", "s2"))]
        if f"kz{lam}" in checks.KNOWN_ORDERS:
            finite.append((f"kz{lam}", src, gates))
        else:
            dense_kz.append((f"kz{lam}", src))
    for name, src, gens in finite:
        order = checks.KNOWN_ORDERS[name]
        elements = checks.projective_closure(gens, cap=4 * order)
        if len(elements) != order:
            raise RuntimeError(f"{name}: reference enumeration found {len(elements)} elements, not {order}")
        screen_job(name, src, {"kind": "finite", "order": order}, defect=f"dedup-{name}")
        coverage_job(name, src, {"kind": "finite", "order": order, "elements": elements},
                     FINITE_MAXLEN, defect=f"dedup-{name}")
    for name, src in dense_kz:
        screen_job(name, src, {"kind": "dense"})
    order = rng.permutation(len(jobs))
    jobs = [jobs[k] for k in order]
    warm = next(j for j in jobs if j.label == "coverage haar0")
    return jobs, warm


# ---------------------------------------------------------------------------
# monodromy: transport around poles of a logarithmic connection.
# ---------------------------------------------------------------------------

RADIUS = 0.25
APPROACH = 1.4  # beyond the next pole (spacing <= 1.1), short of the one after
DIMS = (1, 2, 4)
STANDARD_JOBS = 24
NEAR_JOBS = 12
H_RANGE = (1e-3, 1e-1)


def near_pole_clearances(rng, count: int) -> list:
    """Log-uniform clearances in H_RANGE, one per quantile stratum.

    Each value sits at its stratum's midpoint with a seeded jitter of 5% of
    the stratum width; transport cost grows like 1/h, so a free draw would
    make the run's total cost depend on the seed through a handful of
    values.
    """
    lo, hi = np.log10(H_RANGE[0]), np.log10(H_RANGE[1])
    u = (np.arange(count) + 0.5 + rng.uniform(-0.05, 0.05, count)) / count
    return [float(10 ** (lo + (hi - lo) * x)) for x in u]


def _connection(rng, dim: int):
    poles = np.arange(4.0) + rng.uniform(-0.05, 0.05, 4)
    if dim == 1:
        res = [np.array([[rng.uniform(-0.45, 0.45)]], dtype=complex) for _ in range(3)]
    else:
        res = []
        for _ in range(3):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            res.append(0.3 * g / np.linalg.norm(g))
    res.append(-(res[0] + res[1] + res[2]))
    obj = {
        "variant": "points",
        "poles": [{"re": float(p), "im": 0.0} for p in poles],
        "residues": [checks.matrix_json(a) for a in res],
        "regular_at_infinity": True,
    }
    return poles, res, obj


def near_pole_loop(p: float, q: float, h: float) -> dict:
    """Loop around pole p whose approach line passes pole q > p at distance h.

    The basepoint lies below the real axis, APPROACH from p along a ray
    tilted so that its distance to q is h; the loop goes to the circle of
    radius RADIUS around p, once round it counterclockwise, and back.  The
    fixed approach length keeps the step count, which grows like length / h,
    the same for every seed.
    """
    base = p + APPROACH * np.exp(-1j * np.arcsin(h / (q - p)))
    phi = float(np.angle(base - p))
    foot = p + RADIUS * np.exp(1j * phi)

    def pt(z):
        return [{"re": float(z.real), "im": float(z.imag)}]

    segs = [
        {"kind": "line", "start": pt(base), "end": pt(foot)},
        {"kind": "arc", "center": pt(complex(p)), "amplitude": pt(complex(RADIUS)),
         "theta0": phi, "theta1": phi + 2 * np.pi},
        {"kind": "line", "start": pt(foot), "end": pt(base)},
    ]
    return {"paths": [{"dimension": 1, "closed": True, "segments": segs}]}


def build_monodromy(seed: int, workdir: Path, run_cli, tiny: bool = False):
    rng = _rng(seed, "monodromy")
    n_std = 3 if tiny else STANDARD_JOBS
    clearances = [0.05] if tiny else near_pole_clearances(rng, NEAR_JOBS)
    jobs = []
    for k in range(n_std):
        dim = DIMS[k % len(DIMS)]
        poles, res, obj = _connection(rng, dim)
        conn = _write(workdir / f"conn_std{k}.json", obj)
        loops = str(workdir / f"loops_std{k}.json")
        base = f"{poles.mean():.6f}-1.5j"
        rc, _ = run_cli(["paths", "loops", "--punctures", *[_num(p) for p in poles],
                         "--basepoint", base, "--radius", _num(RADIUS), "--out", loops])
        if rc != 0:
            raise RuntimeError(f"paths loops failed with exit {rc}")
        jobs.append(Job(f"monodromy std d{dim}", ["fuchsian", "monodromy", "--conn", conn, "--loops", loops],
                        lambda r, res=res: checks.check_monodromy(r, res, standard=True), bucket="std"))
    for k, h in enumerate(clearances):
        dim = DIMS[k % len(DIMS)]
        poles, res, obj = _connection(rng, dim)
        j = int(rng.integers(0, 3))
        conn = _write(workdir / f"conn_near{k}.json", obj)
        loops = _write(workdir / f"loops_near{k}.json", near_pole_loop(poles[j], poles[j + 1], h))
        bucket = "h1e-3" if h < 1e-2 else "h1e-2"
        jobs.append(Job(f"monodromy h={h:.1e} d{dim}", ["fuchsian", "monodromy", "--conn", conn, "--loops", loops],
                        lambda r, a=res[j]: checks.check_monodromy(r, [a], standard=False), bucket=bucket))
    order = rng.permutation(len(jobs))
    jobs = [jobs[k] for k in order]
    warm = next(j for j in jobs if j.bucket == "std")
    return jobs, warm
