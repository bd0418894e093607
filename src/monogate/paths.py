"""Piecewise contours in C and C^n avoiding a divisor.

Paths are chains of line and circular-arc segments; loops are closed chains
with a basepoint.  Arcs carry one complex amplitude per coordinate so that a
single segment can rotate several coordinates in lock step (a braid move
rotates z_i and z_{i+1} simultaneously about their midpoint; rotating one at
a time would collide with the diagonal).  Every construction here is a
polygon/circle composite, which keeps distance-to-divisor bounds analytic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matrices import complex_from_json, complex_to_json

__all__ = [
    "LineSegment",
    "ArcSegment",
    "PiecewisePath",
    "PointsDivisor",
    "DiagonalDivisor",
    "generator_loop",
    "puncture_loops",
    "segment_log_increment",
    "braid_word_path",
    "pure_braid_word",
    "path_to_json",
    "path_from_json",
    "loops_to_json",
    "loops_from_json",
]

JOINT_TOL = 1e-12
CLOSURE_TOL = 1e-9


def _as_point(z) -> np.ndarray:
    p = np.atleast_1d(np.asarray(z, dtype=complex))
    if p.ndim != 1:
        raise ValueError("a point must be a scalar or a 1-d coordinate vector")
    return p


def _point_to_segment_distance(a: complex, b: complex, s: complex) -> float:
    """Distance from s to the straight segment [a, b] in C."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(a - s)
    t = min(max(((s - a) * d.conjugate()).real / L2, 0.0), 1.0)
    return abs(a + t * d - s)


def _point_to_arc_distance(c: complex, rho: complex, t0: float, t1: float, s: complex) -> float:
    """Distance from s to the arc c + rho * e^{i theta}, theta from t0 to t1."""
    r = abs(rho)
    if r == 0.0:
        return abs(c - s)
    w = s - c
    if abs(w) > 0.0:
        # Angle of the closest point on the full circle.
        theta_star = cmath.phase(w / rho)
        lo, hi = min(t0, t1), max(t0, t1)
        # Is theta_star + 2 pi k inside the sweep for some integer k?
        k_min = math.ceil((lo - theta_star) / (2 * math.pi))
        if theta_star + 2 * math.pi * k_min <= hi + 1e-15:
            return abs(abs(w) - r)
    else:
        return r
    e0 = c + rho * cmath.exp(1j * t0)
    e1 = c + rho * cmath.exp(1j * t1)
    return min(abs(e0 - s), abs(e1 - s))


@dataclass(frozen=True)
class LineSegment:
    """Straight segment between two points of C^n."""

    start_point: np.ndarray
    end_point: np.ndarray

    def __post_init__(self):
        a = _as_point(self.start_point)
        b = _as_point(self.end_point)
        if a.shape != b.shape:
            raise ValueError("segment endpoints live in different spaces")
        if not (np.all(np.isfinite(a.view(float))) and np.all(np.isfinite(b.view(float)))):
            raise ValueError("segment endpoints must be finite")
        object.__setattr__(self, "start_point", a)
        object.__setattr__(self, "end_point", b)

    @property
    def dimension(self) -> int:
        return self.start_point.size

    def at(self, t: float) -> np.ndarray:
        return self.start_point + t * (self.end_point - self.start_point)

    def max_speed(self) -> float:
        return float(np.linalg.norm(self.end_point - self.start_point))

    def piece(self, t0: float, t1: float) -> "LineSegment":
        """The sub-segment traced for t in [t0, t1], reparametrized to [0, 1]."""
        return LineSegment(self.at(t0), self.at(t1))

    def min_distance_to_point(self, s: complex) -> float:
        if self.dimension != 1:
            raise ValueError("point distance is defined for paths in C")
        return _point_to_segment_distance(complex(self.start_point[0]), complex(self.end_point[0]), complex(s))

    def difference_curve(self, i: int, j: int) -> "LineSegment":
        """The segment traced by z_i - z_j in C."""
        return LineSegment(
            np.array([self.start_point[i] - self.start_point[j]]),
            np.array([self.end_point[i] - self.end_point[j]]),
        )


@dataclass(frozen=True)
class ArcSegment:
    """Arc z_k(theta) = center_k + amplitude_k * e^{i theta}, common sweep.

    Coordinates with zero amplitude stay fixed; at least one amplitude must be
    nonzero.  A plain circle in C is the 1-d case.
    """

    center: np.ndarray
    amplitude: np.ndarray
    theta0: float
    theta1: float

    def __post_init__(self):
        c = _as_point(self.center)
        a = _as_point(self.amplitude)
        if c.shape != a.shape:
            raise ValueError("center and amplitude live in different spaces")
        if not all(np.all(np.isfinite(v)) for v in (c, a, self.theta0, self.theta1)):
            raise ValueError("arc center, amplitude and angles must be finite")
        if np.max(np.abs(a)) <= 0.0:
            raise ValueError("arc radius must be positive")
        if self.theta0 == self.theta1:
            raise ValueError("arc sweep is empty")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "amplitude", a)

    @property
    def dimension(self) -> int:
        return self.center.size

    @property
    def start_point(self) -> np.ndarray:
        return self.at(0.0)

    @property
    def end_point(self) -> np.ndarray:
        return self.at(1.0)

    def _theta(self, t: float) -> float:
        return self.theta0 + t * (self.theta1 - self.theta0)

    def at(self, t: float) -> np.ndarray:
        return self.center + self.amplitude * np.exp(1j * self._theta(t))

    def max_speed(self) -> float:
        return float(abs(self.theta1 - self.theta0) * np.linalg.norm(self.amplitude))

    def piece(self, t0: float, t1: float) -> "ArcSegment":
        """The sub-arc traced for t in [t0, t1], reparametrized to [0, 1]."""
        return ArcSegment(self.center, self.amplitude, self._theta(t0), self._theta(t1))

    def min_distance_to_point(self, s: complex) -> float:
        if self.dimension != 1:
            raise ValueError("point distance is defined for paths in C")
        return _point_to_arc_distance(
            complex(self.center[0]), complex(self.amplitude[0]), self.theta0, self.theta1, complex(s)
        )

    def difference_curve(self, i: int, j: int):
        """The curve traced by z_i - z_j: again an arc (or a point)."""
        c = np.array([self.center[i] - self.center[j]])
        a = np.array([self.amplitude[i] - self.amplitude[j]])
        if abs(a[0]) == 0.0:
            return LineSegment(c, c)
        return ArcSegment(c, a, self.theta0, self.theta1)


Segment = LineSegment | ArcSegment


@dataclass(frozen=True)
class PiecewisePath:
    """Continuous chain of segments; a loop if end returns to start."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("path needs at least one segment")
        dim = segs[0].dimension
        for prev, nxt in zip(segs, segs[1:]):
            if nxt.dimension != dim:
                raise ValueError("all segments must share one ambient dimension")
            gap = float(np.linalg.norm(prev.end_point - nxt.start_point))
            if gap > JOINT_TOL:
                raise ValueError(f"segments do not join: gap {gap:.3e} > {JOINT_TOL}")
        object.__setattr__(self, "segments", segs)

    @property
    def dimension(self) -> int:
        return self.segments[0].dimension

    @property
    def start(self) -> np.ndarray:
        return self.segments[0].start_point

    @property
    def end(self) -> np.ndarray:
        return self.segments[-1].end_point

    @property
    def is_closed(self) -> bool:
        return float(np.linalg.norm(self.end - self.start)) <= CLOSURE_TOL


# ---------------------------------------------------------------------------
# Divisors and clearance.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointsDivisor:
    """Finitely many punctures s_1..s_m in C."""

    points: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(s) for s in self.points)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if abs(pts[a] - pts[b]) <= 1e-9:
                    raise ValueError(f"divisor points {a} and {b} are not separated")
        object.__setattr__(self, "points", pts)

    def segment_distance(self, seg: Segment) -> float:
        if not self.points:
            return np.inf
        return min(seg.min_distance_to_point(s) for s in self.points)


@dataclass(frozen=True)
class DiagonalDivisor:
    """The arrangement {z_i = z_j} in C^n; distance is min |z_i - z_j|."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("diagonal divisor needs n >= 2")

    def segment_distance(self, seg: Segment) -> float:
        best = np.inf
        for i in range(self.n):
            for j in range(i + 1, self.n):
                d = seg.difference_curve(i, j).min_distance_to_point(0.0)
                best = min(best, d)
        return best


# ---------------------------------------------------------------------------
# Standard puncture generators.
# ---------------------------------------------------------------------------

def generator_loop(basepoint: complex, puncture: complex, radius: float,
                   avoid: tuple[complex, ...] = ()) -> PiecewisePath:
    """Loop with winding +1 around one puncture: approach, circle, return.

    The straight approach runs from the basepoint toward the puncture and
    stops on the circle; the circle is traversed counterclockwise.
    """
    basepoint = complex(basepoint)
    puncture = complex(puncture)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if abs(basepoint - puncture) <= radius:
        raise ValueError("basepoint lies inside the circle around the puncture")
    for other in avoid:
        if 2 * radius >= abs(complex(other) - puncture):
            raise ValueError(
                f"radius {radius} too large: would approach the puncture at {other}"
            )
    direction = (basepoint - puncture) / abs(basepoint - puncture)
    foot = puncture + radius * direction
    phi = float(np.angle(direction))
    approach = LineSegment(np.array([basepoint]), np.array([foot]))
    circle = ArcSegment(np.array([puncture]), np.array([radius + 0j]), phi, phi + 2 * np.pi)
    back = LineSegment(np.array([foot]), np.array([basepoint]))
    return PiecewisePath((approach, circle, back))


def puncture_loops(punctures, basepoint: complex, radius: float) -> list[PiecewisePath]:
    """One generator loop per puncture, all based at the same point."""
    punctures = tuple(complex(s) for s in punctures)
    return [
        generator_loop(basepoint, s, radius, avoid=punctures[:k] + punctures[k + 1:])
        for k, s in enumerate(punctures)
    ]


def segment_log_increment(seg: Segment, point: complex) -> complex:
    """Continuous increment of log(z - point) along a segment in C, in closed form.

    A line a -> b turns by less than pi about a point off it, so the increment
    is the principal log of (b - p)/(a - p).  On an arc c + rho e^{i theta},
    z - p = rho e^{i theta} (1 + w e^{-i theta}) with w = (c - p)/rho when p
    is inside the circle, and (c - p)(1 + u e^{i theta}) with u = rho/(c - p)
    otherwise.  |w| < 1 keeps the principal log continuous, and so does
    |u| <= 1: on the circle itself 1 + u e^{i theta} stays in the closed right
    half-plane, and its zero is the point, which the swept part avoids.
    """
    if seg.dimension != 1:
        raise ValueError("log increments are defined for segments in C")
    p = complex(point)
    if seg.min_distance_to_point(p) == 0.0:
        raise ValueError("path passes through the point")
    if isinstance(seg, LineSegment):
        return complex(np.log((seg.end_point[0] - p) / (seg.start_point[0] - p)))
    c, rho = complex(seg.center[0]) - p, complex(seg.amplitude[0])
    turns = np.exp(1j * np.array([seg.theta0, seg.theta1]))
    if abs(c) < abs(rho):
        logs = np.log(1.0 + (c / rho) / turns)
        return complex(1j * (seg.theta1 - seg.theta0) + logs[1] - logs[0])
    logs = np.log(1.0 + (rho / c) * turns)
    return complex(logs[1] - logs[0])


# ---------------------------------------------------------------------------
# Braid and pure-braid paths in configuration space.
# ---------------------------------------------------------------------------

def braid_word_path(n: int, word) -> PiecewisePath:
    """Configuration-space path realizing a braid word, one arc per letter.

    Each letter +/-i performs a half-twist of the two strands currently at
    slots i and i+1: both rotate about the slot midpoint, counterclockwise
    for sigma_i and clockwise for its inverse.  The basepoint is
    (1, 2, ..., n).
    """
    if n < 2:
        raise ValueError("braids need n >= 2 strands")
    slots = tuple(float(k) for k in range(1, n + 1))
    if not word:
        raise ValueError("empty braid word")
    # occupant[k] = slot index currently holding coordinate k
    occupant = list(range(n))
    segments = []
    position = np.array(slots, dtype=complex)
    for letter in word:
        i = abs(letter)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {letter} out of range for n={n}")
        a = occupant.index(i - 1)
        b = occupant.index(i)
        mid = (slots[i - 1] + slots[i]) / 2.0
        amplitude = np.zeros(n, dtype=complex)
        amplitude[a] = position[a] - mid
        amplitude[b] = position[b] - mid
        center = position.copy()
        center[a] = mid
        center[b] = mid
        sweep = np.pi if letter > 0 else -np.pi
        segments.append(ArcSegment(center, amplitude, 0.0, sweep))
        occupant[a], occupant[b] = occupant[b], occupant[a]
        position = segments[-1].end_point
    return PiecewisePath(tuple(segments))


def pure_braid_word(n: int, i: int, j: int) -> list[int]:
    """Generator word for the pure braid tau_ij.

    Convention: tau_ij = (sigma_{j-1} ... sigma_{i+1}) sigma_i^2
    (sigma_{i+1}^{-1} ... sigma_{j-1}^{-1}), so tau_{i,i+1} = sigma_i^2.
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    prefix = list(range(j - 1, i, -1))
    return prefix + [i, i] + [-k for k in reversed(prefix)]


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------

def _vector_to_json(v: np.ndarray) -> list:
    return [complex_to_json(z) for z in v]


def _vector_from_json(obj) -> np.ndarray:
    return np.array([complex_from_json(z) for z in obj], dtype=complex)


def _segment_to_json(seg: Segment) -> dict:
    if isinstance(seg, LineSegment):
        return {
            "kind": "line",
            "start": _vector_to_json(seg.start_point),
            "end": _vector_to_json(seg.end_point),
        }
    return {
        "kind": "arc",
        "center": _vector_to_json(seg.center),
        "amplitude": _vector_to_json(seg.amplitude),
        "theta0": seg.theta0,
        "theta1": seg.theta1,
    }


def _segment_from_json(obj) -> Segment:
    if obj["kind"] == "line":
        return LineSegment(_vector_from_json(obj["start"]), _vector_from_json(obj["end"]))
    if obj["kind"] == "arc":
        return ArcSegment(
            _vector_from_json(obj["center"]),
            _vector_from_json(obj["amplitude"]),
            float(obj["theta0"]),
            float(obj["theta1"]),
        )
    raise ValueError(f"unknown segment kind {obj.get('kind')!r}")


def path_to_json(path: PiecewisePath) -> dict:
    return {
        "dimension": path.dimension,
        "closed": path.is_closed,
        "segments": [_segment_to_json(s) for s in path.segments],
    }


def path_from_json(obj) -> PiecewisePath:
    path = PiecewisePath(tuple(_segment_from_json(s) for s in obj["segments"]))
    if "dimension" in obj and path.dimension != obj["dimension"]:
        raise ValueError("declared dimension does not match segments")
    if obj.get("closed") and not path.is_closed:
        raise ValueError("path flagged closed but endpoints differ")
    return path


def loops_to_json(loops) -> dict:
    return {"paths": [path_to_json(p) for p in loops]}


def loops_from_json(obj) -> list[PiecewisePath]:
    return [path_from_json(p) for p in obj["paths"]]
