"""The benchmark drives the program from outside; these tests keep it able to.

`perfbench/tracing.py` replaces the functions it lists by timing wrappers; a
name that is renamed or removed makes the traced run raise before any job
runs.  `perfbench/workloads.py` builds each workload's job cycle through the
CLI (the screen workload reads the layout of `kz braid --unitarize`), and
`perfbench/checks.py` checks every job's report against a truth from outside
the program.  The tests here install the tracer on the current sources and
run every job of each workload's tiny cycle.  The benchmark's modules are
only read and executed, never imported, so no bytecode lands in `perfbench/`.
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

import monogate.cli
from monogate.paths import DiagonalDivisor, PointsDivisor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """Execute perfbench/<name>.py as the module `name`, the name under which
    the benchmark imports it; monkeypatch removes it after the test."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_tracer_wraps_every_name_it_lists(monkeypatch):
    tracing = load_perfbench("tracing", monkeypatch)
    fuchsian = sys.modules["monogate.fuchsian"]
    wrapped = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _ in tracing.WRAPPED}
    solver = fuchsian.solve_ivp
    distances = {cls: cls.__dict__["segment_distance"] for cls in (PointsDivisor, DiagonalDivisor)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), original in wrapped.items():
            assert getattr(sys.modules[mod], attr) is not original, f"{mod}.{attr} not wrapped"
        assert fuchsian.solve_ivp is not solver
        for cls, original in distances.items():
            assert cls.__dict__["segment_distance"] is not original, cls.__name__
    finally:
        tracer.uninstall()
    for (mod, attr), original in wrapped.items():
        assert getattr(sys.modules[mod], attr) is original
    assert fuchsian.solve_ivp is solver
    for cls, original in distances.items():
        assert cls.__dict__["segment_distance"] is original


def run_cli(argv):
    """(exit code, parsed report or None), as the benchmark's runner gives them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = monogate.cli.main(list(argv))
    try:
        return rc, json.loads(out.getvalue())
    except json.JSONDecodeError:
        return rc, None


@pytest.mark.parametrize("workload", ["synth", "braid", "screen", "monodromy"])
def test_tiny_cycle_runs_and_checks(workload, tmp_path, monkeypatch):
    load_perfbench("checks", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    jobs, _ = getattr(workloads, f"build_{workload}")(1, tmp_path, run_cli, tiny=True)
    assert jobs
    for job in jobs:
        rc, report = run_cli(job.argv)
        assert rc == 0, f"{job.label}: exit {rc}"
        assert job.check(report) == [], job.label
