"""Piecewise contours in C and C^n avoiding a divisor.

Paths are chains of line and circular-arc segments; loops are closed chains
with a basepoint.  Arcs carry one complex amplitude per coordinate so that a
single segment can rotate several coordinates in lock step (a braid move
rotates z_i and z_{i+1} simultaneously about their midpoint; rotating one at
a time would collide with the diagonal).  Every construction here is a
polygon/circle composite, which keeps distance-to-divisor bounds analytic.
"""

from __future__ import annotations

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
    "concat",
    "invert",
    "winding_number",
    "braid_generator_path",
    "braid_word_path",
    "pure_braid_word",
    "permutation_of_word",
    "min_divisor_distance",
    "path_to_json",
    "path_from_json",
    "loops_to_json",
    "loops_from_json",
]

JOINT_TOL = 1e-12
CLOSURE_TOL = 1e-9
DEFAULT_CLEARANCE = 0.05
ORACLE_SAMPLES = 2048


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
    t = np.clip(((s - a) * np.conj(d)).real / L2, 0.0, 1.0)
    return abs(a + t * d - s)


def _point_to_arc_distance(c: complex, rho: complex, t0: float, t1: float, s: complex) -> float:
    """Distance from s to the arc c + rho * e^{i theta}, theta from t0 to t1."""
    r = abs(rho)
    if r == 0.0:
        return abs(c - s)
    w = s - c
    if abs(w) > 0.0:
        # Angle of the closest point on the full circle.
        theta_star = float(np.angle(w / rho))
        lo, hi = min(t0, t1), max(t0, t1)
        # Is theta_star + 2 pi k inside the sweep for some integer k?
        k_min = np.ceil((lo - theta_star) / (2 * np.pi))
        if theta_star + 2 * np.pi * k_min <= hi + 1e-15:
            return abs(abs(w) - r)
    else:
        return r
    e0 = c + rho * np.exp(1j * t0)
    e1 = c + rho * np.exp(1j * t1)
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

    def velocity(self, t: float) -> np.ndarray:
        return self.end_point - self.start_point

    def max_speed(self) -> float:
        return float(np.linalg.norm(self.end_point - self.start_point))

    def reversed(self) -> "LineSegment":
        return LineSegment(self.end_point, self.start_point)

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

    def velocity(self, t: float) -> np.ndarray:
        dtheta = self.theta1 - self.theta0
        return 1j * dtheta * self.amplitude * np.exp(1j * self._theta(t))

    def max_speed(self) -> float:
        return float(abs(self.theta1 - self.theta0) * np.linalg.norm(self.amplitude))

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.amplitude, self.theta1, self.theta0)

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

    def sample(self, per_segment: int = ORACLE_SAMPLES) -> np.ndarray:
        """Dense point samples along the whole path, shape (N, dim)."""
        ts = np.linspace(0.0, 1.0, per_segment)
        blocks = [np.stack([seg.at(t) for t in ts]) for seg in self.segments]
        return np.concatenate(blocks)


def concat(p: PiecewisePath, q: PiecewisePath) -> PiecewisePath:
    """Composite path traversing p first, then q."""
    gap = float(np.linalg.norm(p.end - q.start))
    if gap > JOINT_TOL:
        raise ValueError(f"cannot concatenate: q starts {gap:.3e} away from the end of p")
    return PiecewisePath(p.segments + q.segments)


def invert(p: PiecewisePath) -> PiecewisePath:
    """The same contour with orientation reversed."""
    return PiecewisePath(tuple(seg.reversed() for seg in reversed(p.segments)))


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

    def point_distance(self, z) -> float:
        z = _as_point(z)
        if z.size != 1:
            raise ValueError("points divisor lives in C")
        if not self.points:
            return np.inf
        return min(abs(complex(z[0]) - s) for s in self.points)


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

    def point_distance(self, z) -> float:
        z = _as_point(z)
        if z.size != self.n:
            raise ValueError(f"expected a point of C^{self.n}")
        diffs = [abs(z[i] - z[j]) for i in range(self.n) for j in range(i + 1, self.n)]
        return min(diffs)


def min_divisor_distance(path: PiecewisePath, divisor) -> float:
    """Analytic minimum distance from the path to the divisor."""
    return min(divisor.segment_distance(seg) for seg in path.segments)


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
    punctures = [complex(s) for s in punctures]
    return [
        generator_loop(basepoint, s, radius, avoid=tuple(t for t in punctures if t != s))
        for s in punctures
    ]


def winding_number(path: PiecewisePath, point: complex,
                   samples_per_segment: int = ORACLE_SAMPLES) -> float:
    """(1/2 pi) times the total argument increment of z - point along the path.

    Dense sampling keeps every increment below pi, so the sum is exact up to
    floating point; for a closed path the result is an integer up to ~1e-6.
    """
    if path.dimension != 1:
        raise ValueError("winding number is defined for paths in C")
    total = 0.0
    for seg in path.segments:
        ts = np.linspace(0.0, 1.0, samples_per_segment + 1)
        zs = np.array([complex(seg.at(t)[0]) for t in ts]) - complex(point)
        if np.min(np.abs(zs)) == 0.0:
            raise ValueError("path passes through the point")
        total += float(np.sum(np.angle(zs[1:] / zs[:-1])))
    return total / (2 * np.pi)


# ---------------------------------------------------------------------------
# Braid and pure-braid paths in configuration space.
# ---------------------------------------------------------------------------

def _standard_basepoint(n: int) -> tuple[float, ...]:
    return tuple(float(k) for k in range(1, n + 1))


def permutation_of_word(n: int, word) -> list[int]:
    """Image of (1..n) under the word's underlying permutation."""
    v = list(range(1, n + 1))
    for letter in word:
        i = abs(letter)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {letter} out of range for n={n}")
        a = v.index(i)
        b = v.index(i + 1)
        v[a], v[b] = v[b], v[a]
    return v


def braid_word_path(n: int, word, basepoint=None) -> PiecewisePath:
    """Configuration-space path realizing a braid word, one arc per letter.

    Each letter +/-i performs a half-twist of the two strands currently at
    slots i and i+1: both rotate about the slot midpoint, counterclockwise
    for sigma_i and clockwise for its inverse.  The basepoint defaults to
    (1, 2, ..., n).
    """
    if n < 2:
        raise ValueError("braids need n >= 2 strands")
    slots = _standard_basepoint(n) if basepoint is None else tuple(float(x) for x in basepoint)
    if len(slots) != n or any(b <= a for a, b in zip(slots, slots[1:])):
        raise ValueError("basepoint must be n strictly increasing reals")
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


def braid_generator_path(n: int, i: int, basepoint=None) -> PiecewisePath:
    """The path of the braid generator sigma_i from the standard basepoint."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return braid_word_path(n, [i], basepoint=basepoint)


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
