"""monogate benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
process, one client, closed loop: each job is a call of
`monogate.cli.main(argv)` on inputs generated from the seed, and the next job
starts when the previous one returns.  A run repeats its workload's job cycle
(see `workloads.py`) as many times as take `--seconds` on the reference
machine, so every run does the same whole cycles.  Every output is checked
against an independent reference (`checks.py`).

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run (`tracing.py`): spans and counters per cycle, counters split
by the workload's growth axis.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give the same numbers for reading, the environment, and the known defects
met.  A full record, spans included, goes to `perfbench/results/`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("synth", "braid", "screen", "monodromy")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# A run does ceil(seconds / NOMINAL_CYCLE_S) whole cycles, so every run of a
# workload does the same jobs and its order statistics are comparable across
# runs and commits; every cycle takes about this long on a 2-core Xeon virtual machine.
# The host's speed drifts by +-25% over minutes, so a time-based stop would
# change the job count from run to run.  No cycle starts after
# DEADLINE_FACTOR * seconds, which bounds a run on a slow machine.
NOMINAL_CYCLE_S = 8.0
DEADLINE_FACTOR = 1.25


def _cap_blas_threads() -> None:
    """No more BLAS threads than CPUs this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))


_cap_blas_threads()

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# --------------------------------------------------------------------------
# Metric catalogue (BENCHMARK.json lists the same names).
# --------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("right_frac", "frac"),
)

SPAN_METRICS = {
    "fuchsian.solve": "fuchsian.solve_s",
    "fuchsian.transport": "fuchsian.transport_s",
    "paths.clearance": "paths.clearance_s",
    "paths.build": "paths.build_s",
    "lappo_danilevski.synthesize": "lappo_danilevski.synthesize_s",
    "lappo_danilevski.normalization": "lappo_danilevski.normalization_s",
    "lappo_danilevski.verify": "lappo_danilevski.verify_s",
    "kz.build": "kz.build_s",
    "kz.braid": "kz.braid_s",
    "kz.unitarize": "kz.unitarize_s",
    "kz.relations": "kz.relations_s",
    "universality.screen": "universality.screen_s",
    "universality.coverage": "universality.coverage_s",
}
COUNT_METRICS = (
    "fuchsian.ode_solves", "fuchsian.rhs_evals", "fuchsian.steps", "fuchsian.solve_failures",
    "fuchsian.transport_calls", "paths.clearance_calls", "lappo_danilevski.chen_solves",
    "universality.closure_nodes", "universality.budget_exhausted", "cli.report_bytes",
)
ODE_COUNTERS = ("fuchsian.ode_solves", "fuchsian.rhs_evals", "fuchsian.steps", "paths.clearance_calls")
# Growth axis per workload: series order K, strands n, clearance decade of h.
SPLITS = (
    [(f"K{k}", tracing.DETERMINISTIC) for k in (3, 4, 5)]
    + [(f"n{n}", ODE_COUNTERS) for n in range(2, 8)]
    + [(b, ODE_COUNTERS) for b in ("std", "h1e-3", "h1e-2")]
)


def per_layer_catalogue() -> list:
    out = [(m, "bytes" if m == "cli.report_bytes" else "count") for m in COUNT_METRICS]
    out += [(m, "s") for m in SPAN_METRICS.values()]
    out += [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
    out += [(f"{m}.{bucket}", "count") for bucket, ms in SPLITS for m in ms]
    return out


# --------------------------------------------------------------------------
# Running jobs.
# --------------------------------------------------------------------------

def load_program():
    """Import monogate from this checkout's src/, or return None."""
    if not (SRC / "monogate" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import monogate.cli

    if Path(monogate.cli.__file__).resolve().parent != SRC / "monogate":
        return None
    return monogate.cli


class Runner:
    """Calls the CLI in-process, captures the report, applies the check."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None

    def cli_report(self, argv):
        """(exit code, parsed report or None) without timing; used in setup."""
        rc, out, _ = self._call(argv)
        try:
            return rc, json.loads(out)
        except json.JSONDecodeError:
            return rc, None

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.main(list(argv))
            wall = time.perf_counter() - t0
        return rc, out.getvalue(), wall

    def run(self, job, job_id) -> dict:
        if self.tracer is not None:
            self.tracer.job, self.tracer.bucket = job_id, job.bucket
        rec = {"label": job.label, "bucket": job.bucket, "failed": False, "wrong": False, "problems": []}
        try:
            rc, out, wall = self._call(job.argv)
        except Exception as exc:  # a crash counts as a failed job, not a benchmark error
            rec.update(failed=True, wall=float("nan"), problems=[f"raised {type(exc).__name__}: {exc}"])
            return rec
        rec.update(wall=wall, rc=rc, bytes=len(out.encode()))
        if self.tracer is not None:
            self.tracer.count("cli.report_bytes", rec["bytes"])
        if rc != 0:
            rec.update(failed=True, problems=[f"exit code {rc}"])
            return rec
        try:
            problems = job.check(json.loads(out))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
        rec.update(wrong=bool(problems), problems=problems,
                   known_defect=job.defect if problems else None)
        return rec


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cycles(runner, jobs, records, count, deadline) -> list:
    """`count` whole cycles; no new cycle starts after the perf_counter time
    `deadline`.

    Returns one {"wall", "cpu", "jobs", "failed"} per cycle; CPU is the
    process's user plus system time, BLAS threads included.
    """
    cycles = []
    while len(cycles) < count and (not cycles or time.perf_counter() < deadline):
        t0, c0, first = time.perf_counter(), _cpu_seconds(), len(records)
        for job in jobs:
            records.append(runner.run(job, len(records)))
        done = records[first:]
        cycles.append({"wall": time.perf_counter() - t0, "cpu": _cpu_seconds() - c0,
                       "jobs": len(done), "failed": sum(r["failed"] for r in done)})
    return cycles


# --------------------------------------------------------------------------
# Metrics.
# --------------------------------------------------------------------------

def tail(walls):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(records, cycles, setup_s) -> tuple[dict, dict]:
    """Rates are medians over cycles; job times are order statistics over
    every job of the run."""
    walls = [r["wall"] for r in records if not r["failed"]] or [float("nan")]
    n = len(records)
    failed = sum(r["failed"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    tail_value, pct, count = tail(walls)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median((c["jobs"] - c["failed"]) / c["wall"] for c in cycles),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "cpu_s_per_job": statistics.median(c["cpu"] / c["jobs"] for c in cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / n,
        "right_frac": 1.0 - wrong / n,
    }
    extra = {"failed_frac": failed / n, "wrong_frac": wrong / n,
             "job_tail_percentile": pct, "job_count": count}
    return values, extra


def per_layer(tracer, first_cycle_counts, cycles) -> dict:
    values = {}
    for metric in COUNT_METRICS:
        values[metric] = sum(v for (m, _), v in first_cycle_counts.items() if m == metric)
    spans = tracer.span_seconds()
    for span, metric in SPAN_METRICS.items():
        values[metric] = spans.get(span, 0.0) / cycles
    for layer, secs in tracer.self_seconds().items():
        values[f"{layer}.self_s"] = secs / cycles
    for bucket, metrics in SPLITS:
        for metric in metrics:
            values[f"{metric}.{bucket}"] = first_cycle_counts.get((metric, bucket), 0)
    return values


# --------------------------------------------------------------------------
# Environment record.
# --------------------------------------------------------------------------

def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(ref[5:]):
                return line.split()[0]
    return None


def _blas_in_use() -> dict:
    """OpenBLAS version and thread count, asked of the loaded libraries."""
    import ctypes

    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info[Path(lib).name] = {"threads": int(fn())}
                break
    return info


def environment(args) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "monogate").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_in_use(),
        "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --------------------------------------------------------------------------
# Main.
# --------------------------------------------------------------------------

def run(args, cli, tiny=False) -> dict:
    """One run of one workload; returns the full record."""
    import_s = time.perf_counter() - T_START
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli)
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            build = getattr(workloads, f"build_{args.workload}")
            jobs, warm = build(args.seed, workdir, runner.cli_report, tiny)
            rec = runner.run(warm, -1)
            setup_walls.append(time.perf_counter() - t0)
            if rec["failed"] or (rec["wrong"] and not rec.get("known_defect")):
                raise RuntimeError(f"warm-up job {warm.label} failed: {rec['problems']}")
        setup_s = import_s + statistics.median(setup_walls)

        records = []
        count = max(1, math.ceil(args.seconds / NOMINAL_CYCLE_S))
        deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
        if args.trace:
            # Traced, untraced, traced...: the first timed cycle runs slower
            # than later ones, so the overhead compares the later cycles only.
            tracer = tracing.Tracer()
            try:
                runner.tracer = tracer.install()
                traced = run_cycles(runner, jobs, records, 1, deadline)
                first_counts = Counter(tracer.counts)
                tracer.uninstall()
                runner.tracer = None
                untraced = run_cycles(runner, jobs, records, 1, deadline)[0]["wall"]
                runner.tracer = tracer.install()
                traced += run_cycles(runner, jobs, records, count - 2, deadline)
            finally:
                tracer.uninstall()
            repeat = all(v * len(traced) == tracer.counts[k] for k, v in first_counts.items())
            traced_cycle = statistics.median(c["wall"] for c in traced[1:] or traced)
            overhead = {"untraced_cycle_s": untraced, "traced_cycle_s": traced_cycle,
                        "overhead_s": traced_cycle - untraced,
                        "overhead_frac": traced_cycle / untraced - 1.0,
                        "counters_repeat_every_cycle": repeat}
            metrics = per_layer(tracer, first_counts, len(traced))
            units = dict(per_layer_catalogue())
            extra = {"tracing": overhead}
            spans = tracer.dump()
        else:
            cycles = run_cycles(runner, jobs, records, count, deadline)
            metrics, extra = end_to_end(records, cycles, setup_s)
            extra.update(cycles=cycles, import_s=import_s, setup_repeats_s=setup_walls)
            units = dict(END_TO_END)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    failed = sum(r["failed"] for r in records)
    unexpected = [r for r in records if r["wrong"] and not r.get("known_defect")]
    defects = Counter(r["known_defect"] for r in records if r.get("known_defect"))
    return {
        "result": {
            "correct": not unexpected and failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "extra": extra,
        "known_defects_met": dict(defects),
        "problems": sorted({f"{r['label']}: {p}" for r in records for p in r["problems"]}),
        "jobs": [{k: r[k] for k in ("label", "bucket", "wall", "failed", "wrong")} for r in records],
        "spans": spans,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(out: dict, args) -> None:
    """Print the run for reading, then the result object as the last line."""
    res = out["result"]
    print("environment: " + json.dumps(out.get("environment"), sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{args.workload:10s} {name:40s} {m['value']:.6g} {m['unit']}")
    extra = out["extra"]
    if "failed_frac" in extra:
        print(f"{args.workload:10s} {'failed_frac':40s} {extra['failed_frac']:.6g} frac")
        print(f"{args.workload:10s} {'wrong_frac':40s} {extra['wrong_frac']:.6g} frac")
        print(f"job_tail_s is p{extra['job_tail_percentile']:.1f} of {extra['job_count']} jobs")
    else:
        print("tracing: " + json.dumps(extra["tracing"]))
    if out["known_defects_met"]:
        print("known defects met (see perfbench/ledger.json): " + json.dumps(out["known_defects_met"]))
    for line in out["problems"][:20]:
        print("problem: " + line)
    print(json.dumps(res))


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    if cli is None:
        print(f"no monogate sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    out = run(args, cli)
    out["environment"] = environment(args)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(out, default=float), encoding="utf-8")
    emit(out, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
