"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces public functions of the `monogate` modules by
timing wrappers.  A function imported into another module with
`from .x import f` is a second binding of the same object, so every module
attribute bound to the original is replaced; otherwise the time would be
charged to the importing layer.  `solve_ivp` is wrapped where `fuchsian`
binds it, which yields the ODE counters (calls, right-hand-side evaluations,
accepted steps, failures).  Nothing in `src/` changes.

A span keeps name, start, end, parent and job id in memory; the layer of a
span is the text before the first dot of its name.  A layer's self time is
the time of its spans minus the time their child spans cover.  `gate_core`
and `matrices` get no spans: they are leaf helpers, counted in their
callers' self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name).  Several attributes may share a span name;
# a call nested in a span of the same name opens no second span.
WRAPPED = (
    ("monogate.cli", "main", "cli.main"),
    ("monogate.fuchsian", "transport", "fuchsian.transport"),
    ("monogate.fuchsian", "integrate_along", "fuchsian.integrate_along"),
    ("monogate.fuchsian", "monodromy_representation", "fuchsian.monodromy_representation"),
    ("monogate.paths", "puncture_loops", "paths.build"),
    ("monogate.paths", "generator_loop", "paths.build"),
    ("monogate.paths", "braid_word_path", "paths.build"),
    ("monogate.paths", "loops_from_json", "paths.build"),
    ("monogate.lappo_danilevski", "synthesize", "lappo_danilevski.synthesize"),
    ("monogate.lappo_danilevski", "_check_loop_normalization", "lappo_danilevski.normalization"),
    ("monogate.lappo_danilevski", "verify_match", "lappo_danilevski.verify"),
    ("monogate.lappo_danilevski", "chen_integral", "lappo_danilevski.chen"),
    ("monogate.lappo_danilevski", "matrix_chen_integral", "lappo_danilevski.chen"),
    ("monogate.kz", "build_kz", "kz.build"),
    ("monogate.kz", "braid_matrix", "kz.braid"),
    ("monogate.kz", "unitarize_kz", "kz.unitarize"),
    ("monogate.kz", "verify_braid_relations", "kz.relations"),
    ("monogate.universality", "density_screen", "universality.screen"),
    ("monogate.universality", "epsilon_net_coverage", "universality.coverage"),
)
CLEARANCE_CLASSES = (("monogate.paths", "PointsDivisor"), ("monogate.paths", "DiagonalDivisor"))
LAYERS = ("cli", "fuchsian", "paths", "lappo_danilevski", "kz", "universality")

# Counters that repeat exactly for a fixed seed; reported per growth bucket.
DETERMINISTIC = (
    "fuchsian.ode_solves",
    "fuchsian.rhs_evals",
    "fuchsian.steps",
    "lappo_danilevski.chen_solves",
    "universality.closure_nodes",
    "paths.clearance_calls",
)


class Tracer:
    """In-memory spans and counters; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, job)
        self.counts: Counter = Counter()  # (metric, bucket) -> count
        self.job = None
        self.bucket = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, metric: str, value: int = 1) -> None:
        self.counts[(metric, self.bucket)] += value

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("monogate"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        after = {
            "lappo_danilevski.chen": lambda _: self.count("lappo_danilevski.chen_solves"),
            "universality.screen": self._after_screen,
            "universality.coverage": self._after_coverage,
            "fuchsian.transport": lambda _: self.count("fuchsian.transport_calls"),
        }
        for modname, attr, name in WRAPPED:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.span(name, original, after.get(name)))
        fuchsian = sys.modules["monogate.fuchsian"]
        self._replace_everywhere(fuchsian.solve_ivp, self._wrap_solver(fuchsian.solve_ivp))
        for modname, cls_name in CLEARANCE_CLASSES:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__["segment_distance"]
            self._saved.append((cls, "segment_distance", original))
            setattr(cls, "segment_distance", self.span(
                "paths.clearance", original, lambda _: self.count("paths.clearance_calls")))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap_solver(self, solve_ivp):
        def after(sol):
            self.count("fuchsian.ode_solves")
            self.count("fuchsian.rhs_evals", int(sol.nfev))
            self.count("fuchsian.steps", len(sol.t) - 1)
            if sol.status != 0:
                self.count("fuchsian.solve_failures")

        return self.span("fuchsian.solve", solve_ivp, after)

    def _after_screen(self, report) -> None:
        self.count("universality.closure_nodes", int(sum(report.closure_sizes)))
        self.count("universality.budget_exhausted", int(report.budget_exhausted))

    def _after_coverage(self, report) -> None:
        self.count("universality.closure_nodes", int(report.words))
        self.count("universality.budget_exhausted", int(report.partial))

    # -- summaries ---------------------------------------------------------

    def totals(self, metric: str) -> int:
        return sum(v for (m, _), v in self.counts.items() if m == metric)

    def span_seconds(self) -> dict:
        """Inclusive seconds per span name."""
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_seconds(self) -> dict:
        """Self seconds per layer: span time minus child span time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter({layer: 0.0 for layer in LAYERS})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[k]
        return out

    def dump(self) -> list:
        return [list(s) for s in self.spans]
