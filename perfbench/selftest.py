"""Self-test of the benchmark at tiny sizes; tests the benchmark, not the program.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that two traced runs with one seed give identical counters, that each
reference check accepts a right output and rejects a perturbed one (flipped
verdict, scaled matrix, wrong count), and that the tracer counts the ODE
work of `pipeline --order 4 --seed 7` as 84 solves and 25,944 right-hand-side
evaluations.  Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import run  # sets the BLAS thread cap before numpy loads

import checks
import tracing
import workloads

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def scaled(report, key_path, factor=1.01):
    """Copy of a report with every matrix under key_path scaled by factor."""
    out = copy.deepcopy(report)
    node = out
    for key in key_path[:-1]:
        node = node[key]
    for item in node[key_path[-1]]:
        m = item["matrix"] if "matrix" in item else item
        for row in m["entries"]:
            for z in row:
                z["re"] *= factor
                z["im"] *= factor
    return out


def rejects(check, good, bad, what) -> None:
    expect(check(good) == [], f"{what}: right output accepted")
    expect(check(bad) != [], f"{what}: perturbed output rejected")


def test_checkers(cli) -> None:
    runner = run.Runner(cli)

    _, rep = runner.cli_report(["pipeline", "--order", "2", "--lambda", "0.01", "--budget", "100"])
    flipped = dict(rep, verdict="deviation-above-tolerance")
    rejects(lambda r: checks.check_pipeline(r, 1e-4), rep, flipped, "pipeline verdict")
    big = copy.deepcopy(rep)
    big["deviations"]["deviations"] = [1.0 for _ in big["deviations"]["deviations"]]
    rejects(lambda r: checks.check_pipeline(r, 1e-4), rep, big, "pipeline deviation")

    for n, lam in ((2, 7.5), (3, 3.0)):
        _, rep = runner.cli_report(["kz", "braid", "--n", str(n), "--lambda", str(lam), "--unitarize"])
        rejects(lambda r, n=n, lam=lam: checks.check_kz_braid(r, n, lam), rep,
                scaled(rep, ["gates"]), f"kz braid n={n} scaled gate")
    _, rep = runner.cli_report(["kz", "verify", "--n", "3", "--lambda", "7.5"])
    rejects(checks.check_kz_verify, rep, dict(rep, verdict="deviation-above-tolerance"), "kz verify verdict")

    pauli = {"verdict": "finite-suspect", "closure_sizes": [1, 2, 1]}
    rejects(lambda r: checks.check_screen(r, {"kind": "finite", "order": 4}), pauli,
            dict(pauli, verdict="dense-likely"), "screen finite verdict")
    rejects(lambda r: checks.check_screen(r, {"kind": "finite", "order": 4}), pauli,
            dict(pauli, closure_sizes=[1, 4, 11]), "screen finite order")
    free = {"verdict": "dense-likely", "closure_sizes": checks.free_levels(3) + [20]}
    budget = sum(free["closure_sizes"]) - 1
    dense = {"kind": "dense", "free": True, "budget": budget}
    rejects(lambda r: checks.check_screen(r, dense), free, dict(free, verdict="finite-suspect"),
            "screen dense verdict")
    rejects(lambda r: checks.check_screen(r, dense), free,
            dict(free, closure_sizes=[1, 4, 16, 32, 20]), "screen free levels")

    elements = checks.projective_closure(workloads.PAULI)
    want = checks.coverage_of(elements, checks.haar_targets(50, 3), 0.5)
    spec = {"kind": "finite", "order": 4, "elements": elements, "eps": 0.5, "samples": 50, "seed": 3}
    good = {"coverage": want, "words": 4}
    rejects(lambda r: checks.check_coverage(r, spec), good, dict(good, words=16), "coverage words")
    rejects(lambda r: checks.check_coverage(r, spec), good, dict(good, coverage=want + 0.1), "coverage value")

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        jobs, _ = workloads.build_monodromy(5, Path(tmp), runner.cli_report, tiny=True)
        for job in (next(j for j in jobs if j.bucket == "std"), next(j for j in jobs if j.bucket != "std")):
            _, rep = runner.cli_report(job.argv)
            rejects(job.check, rep, scaled(rep, ["matrices"]), f"{job.label} scaled monodromy")


def tiny_run(cli, workload, trace):
    args = Namespace(workload=workload, seed=11, seconds=0.0, trace=trace)
    return args, run.run(args, cli, tiny=True)


def test_metrics_printed(cli, spec) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            args, out = tiny_run(cli, workload, trace)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run.emit(out, args)
            lines = buf.getvalue().splitlines()
            last = json.loads(lines[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: every {key} metric with its unit")
            shown = all(any(f" {name} " in line and line.endswith(f" {unit}") for line in lines)
                        for name, unit in wanted.items())
            expect(shown, f"{workload} trace={trace}: every metric printed by name and unit")
            expect(last["correct"] and last["failed"] == 0, f"{workload} trace={trace}: tiny run correct")


def test_counters_repeat(cli) -> None:
    counters = [m for m, unit in run.per_layer_catalogue() if unit in ("count", "bytes")]
    for workload in run.WORKLOADS:
        a = tiny_run(cli, workload, 1)[1]["result"]["metrics"]
        b = tiny_run(cli, workload, 1)[1]["result"]["metrics"]
        same = all(a[m]["value"] == b[m]["value"] for m in counters)
        expect(same, f"{workload}: counters identical across two traced runs")


def test_pipeline_counts(cli) -> None:
    tracer = tracing.Tracer().install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["pipeline", "--order", "4", "--seed", "7"])
    finally:
        tracer.uninstall()
    solves, evals = tracer.totals("fuchsian.ode_solves"), tracer.totals("fuchsian.rhs_evals")
    expect(rc == 0 and (solves, evals) == (84, 25944),
           f"pipeline --order 4 --seed 7 traces to 84 solves / 25944 evaluations (got {solves} / {evals})")


def test_ledger_lists_defects(cli) -> None:
    ledger = json.loads((run.HERE / "ledger.json").read_text())
    listed = {d["id"] for d in ledger["shown"]}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        jobs, _ = workloads.build_screen(1, Path(tmp), run.Runner(cli).cli_report)
    used = {j.defect for j in jobs if j.defect}
    expect(used == listed, f"ledger lists exactly the defects the jobs expect ({sorted(used ^ listed)} differ)")
    expect(set(ledger["seed_values"]) == set(run.WORKLOADS), "ledger records seed fractions per workload")


def main() -> int:
    cli = run.load_program()
    if cli is None:
        print("no monogate sources to test against", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    test_ledger_lists_defects(cli)
    test_checkers(cli)
    test_metrics_printed(cli, spec)
    test_counters_repeat(cli)
    test_pipeline_counts(cli)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
