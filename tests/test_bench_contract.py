"""The traced benchmark run wraps names of the program from outside.

`perfbench/tracing.py` replaces the functions it lists by timing wrappers; a
name that is renamed or removed makes the traced run raise before any job
runs.  These tests install the tracer on the current sources, check that
every name it needs was replaced, and restore them.  The tracer module is
only read, never changed.
"""

import sys
import types
from pathlib import Path

import monogate.cli  # noqa: F401  (imports every module the tracer wraps)
from monogate.paths import DiagonalDivisor, PointsDivisor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_wraps_every_name_it_lists():
    tracing = load_tracing()
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
