import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monogate.paths import (
    ArcSegment,
    DiagonalDivisor,
    LineSegment,
    PiecewisePath,
    PointsDivisor,
    braid_word_path,
    generator_loop,
    loops_from_json,
    loops_to_json,
    path_from_json,
    path_to_json,
    puncture_loops,
    pure_braid_word,
    segment_log_increment,
)
from monogate.paths import _point_to_arc_distance, _point_to_segment_distance
from oracles import (
    invert,
    min_divisor_distance,
    numpy_point_to_arc_distance,
    numpy_point_to_segment_distance,
    permutation_of_word,
    point_distance,
    sample_path,
    winding_number,
)


def sampled_divisor_distance(path, divisor, per_segment=2000):
    pts = sample_path(path, per_segment)
    return min(point_distance(divisor, p) for p in pts)


# ---------------------------------------------------------------------------
# Generator loops and winding numbers.
# ---------------------------------------------------------------------------

def test_generator_loop_winding():
    loop = generator_loop(2.0, 0.0, 0.5)
    assert loop.is_closed
    assert abs(winding_number(loop, 0.0) - 1.0) < 1e-6
    assert abs(winding_number(loop, 1e3)) < 1e-6


def test_generator_loop_winding_oracle_far_point():
    loop = generator_loop(2.0 + 1.0j, 0.5j, 0.4)
    assert abs(winding_number(loop, 0.5j) - 1.0) < 1e-6
    assert abs(winding_number(loop, 10.0)) < 1e-6


def test_inverse_loop_winds_backwards():
    loop = generator_loop(2.0, 0.0, 0.5)
    assert abs(winding_number(invert(loop), 0.0) + 1.0) < 1e-6


def test_winding_numbers_are_near_integers():
    rng = np.random.default_rng(5)
    for _ in range(5):
        base = complex(rng.uniform(1.5, 3), rng.uniform(-1, 1))
        loop = generator_loop(base, 0.0, rng.uniform(0.2, 0.8))
        w = winding_number(loop, 0.0)
        assert abs(w - round(w)) < 1e-6


def test_winding_number_exact_next_to_the_arc():
    # 1e-7 inside or outside the unit circle, between the arc and any
    # 2048-sample polygon inscribed in it
    circle = PiecewisePath((ArcSegment(np.array([0.0]), np.array([1.0 + 0j]), 0.0, 2 * np.pi),))
    tilt = np.exp(1j * np.pi / 2048)
    assert winding_number(circle, (1 - 1e-7) * tilt) == pytest.approx(1.0, abs=1e-12)
    assert winding_number(circle, (1 + 1e-7) * tilt) == pytest.approx(0.0, abs=1e-12)


def test_segment_log_increment_closed_forms():
    line = LineSegment(np.array([2.0 + 0j]), np.array([1j]))
    assert segment_log_increment(line, 0.0) == pytest.approx(np.log(0.5) + 0.5j * np.pi, abs=1e-15)
    arc = ArcSegment(np.array([1.0 + 0j]), np.array([0.5 + 0j]), 0.0, 3 * np.pi)
    assert segment_log_increment(arc, 1.2) == pytest.approx(np.log(0.7 / 0.3) + 3j * np.pi, abs=1e-13)
    assert segment_log_increment(arc, 5.0).real == pytest.approx(np.log(4.5 / 3.5), abs=1e-15)
    assert segment_log_increment(arc, 5.0).imag == pytest.approx(0.0, abs=1e-15)
    point = LineSegment(np.array([1.0 + 1j]), np.array([1.0 + 1j]))
    assert segment_log_increment(point, 0.0) == 0.0
    with pytest.raises(ValueError):
        segment_log_increment(arc, 1.5)  # on the arc
    with pytest.raises(ValueError):
        segment_log_increment(line, 2.0)  # at an end


def test_log_increment_on_an_arc_whose_circle_meets_the_point():
    # the circle |z - 1| = 0.5 passes through 0.5, the sweep [0, pi/2] does not
    arc = ArcSegment(np.array([1.0 + 0j]), np.array([0.5 + 0j]), 0.0, np.pi / 2)
    assert segment_log_increment(arc, 0.5) == pytest.approx(np.log(0.5 + 0.5j), abs=1e-15)
    # the unit circle from pi/4 to 7 pi/4, closed by its chord, meets 1 only on its circle
    sweep = ArcSegment(np.array([0j]), np.array([1 + 0j]), np.pi / 4, 7 * np.pi / 4)
    loop = PiecewisePath((sweep, LineSegment(sweep.end_point, sweep.start_point)))
    assert winding_number(loop, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert winding_number(loop, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_concat_with_inverse_has_zero_winding():
    loop = generator_loop(2.0, 0.0, 0.5)
    both = PiecewisePath(loop.segments + invert(loop).segments)
    assert both.is_closed
    assert abs(winding_number(both, 0.0)) < 1e-6


def test_concat_of_four_generator_loops_winds_once_each():
    punctures = [0.0, 1.0, 2.0, 3.0]
    loops = puncture_loops(punctures, 1.5 - 2.0j, 0.3)
    total = PiecewisePath(sum((p.segments for p in loops), ()))
    for s in punctures:
        assert abs(winding_number(total, s) - 1.0) < 1e-6


def test_puncture_loops_reject_coincident_punctures():
    # each loop avoids the other punctures by position, so a repeated value
    # is one the loop must avoid, not one it may leave out; no radius
    # separates it, so the message names the coincidence, not the radius
    with pytest.raises(ValueError, match="the puncture at 0j coincides with one it must avoid"):
        puncture_loops([0.0, 0.0], 0.5 - 1j, 0.3)


def test_double_invert_restores_segments():
    loop = generator_loop(2.0, 0.0, 0.5)
    again = invert(invert(loop))
    for a, b in zip(loop.segments, again.segments):
        assert np.allclose(a.start_point, b.start_point, atol=1e-12)
        assert np.allclose(a.end_point, b.end_point, atol=1e-12)


def test_generator_loop_validation():
    with pytest.raises(ValueError):
        generator_loop(0.4, 0.0, 0.5)  # basepoint inside the circle
    with pytest.raises(ValueError):
        generator_loop(2.0, 0.0, 0.6, avoid=(1.0,))  # would crowd the next puncture


def test_concat_endpoint_mismatch():
    a = generator_loop(2.0, 0.0, 0.5)
    b = generator_loop(3.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="do not join"):
        PiecewisePath(a.segments + b.segments)


def test_path_continuity_enforced():
    s1 = LineSegment(np.array([0.0]), np.array([1.0]))
    s2 = LineSegment(np.array([1.0 + 1e-6]), np.array([2.0]))
    with pytest.raises(ValueError):
        PiecewisePath((s1, s2))


def test_arc_requires_positive_radius():
    with pytest.raises(ValueError):
        ArcSegment(np.array([0.0]), np.array([0.0]), 0.0, np.pi)


@pytest.mark.parametrize("field", ["center", "amplitude", "theta0", "theta1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_arc_requires_finite_data(field, bad):
    args = {"center": np.array([0.0]), "amplitude": np.array([1.0]), "theta0": 0.0, "theta1": np.pi}
    args[field] = np.array([bad]) if field in ("center", "amplitude") else bad
    with pytest.raises(ValueError, match="finite"):
        ArcSegment(**args)


def test_loop_file_with_nan_angle_rejected():
    obj = path_to_json(generator_loop(0j, 1.0 + 0j, 0.5))
    next(seg for seg in obj["segments"] if seg["kind"] == "arc")["theta1"] = float("nan")
    text = json.dumps(obj)  # json writes and reads NaN
    with pytest.raises(ValueError, match="finite"):
        path_from_json(json.loads(text))


# ---------------------------------------------------------------------------
# Divisor clearance.
# ---------------------------------------------------------------------------

def test_loop_clearance_analytic_matches_sampled():
    loop = generator_loop(2.0, 0.0, 0.5)
    divisor = PointsDivisor((0.0, 3.0 + 1.0j))
    analytic = min_divisor_distance(loop, divisor)
    sampled = sampled_divisor_distance(loop, divisor)
    assert analytic <= sampled + 1e-9
    assert abs(analytic - sampled) < 1e-3
    assert analytic >= 0.05  # default clearance


coordinates = st.floats(-4.0, 4.0, allow_subnormal=False)
points = st.builds(complex, coordinates, coordinates)
angles = st.floats(-4 * np.pi, 4 * np.pi, allow_subnormal=False)


def within_an_ulp(got: float, want: float) -> bool:
    return abs(got - want) <= math.ulp(want)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(a=points, b=points, s=points)
def test_segment_clearance_matches_the_numpy_formula(a, b, s):
    assert within_an_ulp(_point_to_segment_distance(a, b, s), numpy_point_to_segment_distance(a, b, s))
    assert within_an_ulp(_point_to_segment_distance(a, a, s), numpy_point_to_segment_distance(a, a, s))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(c=points, rho=points, t0=angles, t1=angles, s=points)
def test_arc_clearance_matches_the_numpy_formula(c, rho, t0, t1, s):
    for centre, point in ((c, s), (c, c)):
        got = _point_to_arc_distance(centre, rho, t0, t1, point)
        assert within_an_ulp(got, numpy_point_to_arc_distance(centre, rho, t0, t1, point))


def test_braid_clearance_analytic_matches_sampled():
    path = braid_word_path(4, [2, -1, 3, 2])
    divisor = DiagonalDivisor(4)
    analytic = min_divisor_distance(path, divisor)
    sampled = sampled_divisor_distance(path, divisor)
    assert abs(analytic - sampled) < 1e-3
    assert analytic >= 0.1


# ---------------------------------------------------------------------------
# Braid paths.
# ---------------------------------------------------------------------------

def test_pieces_are_exact_subsegments():
    line = LineSegment(np.array([-1.0 - 1.0j]), np.array([2.0 + 0.5j]))
    arc = ArcSegment(np.array([0.5j]), np.array([0.7 + 0j]), 0.3, 0.3 + 2 * np.pi)
    divisor = PointsDivisor((0.0, 1.0 + 0.2j))
    for seg in (line, arc):
        left, right = seg.piece(0.0, 0.4), seg.piece(0.4, 1.0)
        assert np.allclose(left.start_point, seg.at(0.0), atol=1e-15)
        assert np.allclose(left.end_point, seg.at(0.4), atol=1e-15)
        assert np.allclose(right.start_point, seg.at(0.4), atol=1e-15)
        assert np.allclose(right.end_point, seg.at(1.0), atol=1e-15)
        assert np.allclose(left.at(0.5), seg.at(0.2), atol=1e-15)
        assert abs(left.max_speed() + right.max_speed() - seg.max_speed()) < 1e-12
        both = min(divisor.segment_distance(left), divisor.segment_distance(right))
        assert abs(both - divisor.segment_distance(seg)) < 1e-15


def test_braid_generator_swaps_endpoints():
    path = braid_word_path(2, [1])
    assert np.allclose(path.start, [1.0, 2.0])
    assert np.allclose(path.end, [2.0, 1.0])


def test_braid_pair_separation_is_one():
    # the two half-circles stay diametrically opposite
    path = braid_word_path(2, [1])
    seps = [abs(p[0] - p[1]) for p in sample_path(path, 500)]
    assert abs(min(seps) - 1.0) < 1e-12
    assert abs(max(seps) - 1.0) < 1e-12


def test_braid_spectator_coordinate_constant():
    path = braid_word_path(3, [1])
    assert all(abs(p[2] - 3.0) < 1e-12 for p in sample_path(path, 200))


def test_braid_square_closes():
    path = braid_word_path(3, [1, 1])
    assert path.is_closed


def test_braid_index_validation():
    with pytest.raises(ValueError):
        braid_word_path(3, [3])
    with pytest.raises(ValueError):
        braid_word_path(2, [])


def test_pure_braid_words():
    assert pure_braid_word(2, 1, 2) == [1, 1]
    assert pure_braid_word(3, 1, 3) == [2, 1, 1, -2]
    assert pure_braid_word(4, 1, 4) == [3, 2, 1, 1, -2, -3]


def test_pure_braid_exponent_sum_two():
    for n, i, j in ((3, 1, 2), (3, 2, 3), (4, 1, 4), (5, 2, 4)):
        word = pure_braid_word(n, i, j)
        assert sum(np.sign(w) for w in word) == 2


def test_pure_braid_paths_close():
    for n, i, j in ((2, 1, 2), (3, 1, 3), (4, 2, 4), (4, 1, 3)):
        word = pure_braid_word(n, i, j)
        assert permutation_of_word(n, word) == list(range(1, n + 1))
        path = braid_word_path(n, word)
        assert np.linalg.norm(path.end - path.start) <= 1e-9


def test_pure_braid_index_validation():
    with pytest.raises(ValueError):
        pure_braid_word(3, 2, 2)
    with pytest.raises(ValueError):
        pure_braid_word(3, 1, 4)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_path_json_roundtrip():
    path = braid_word_path(3, [1, -2, 1])
    obj = path_to_json(path)
    again = path_from_json(obj)
    for a, b in zip(path.segments, again.segments):
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(a.at(t), b.at(t), atol=1e-15)


def test_loop_json_roundtrip():
    loops = puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3)
    again = loops_from_json(loops_to_json(loops))
    assert len(again) == 2
    assert all(p.is_closed for p in again)


def test_closed_flag_validated():
    path = braid_word_path(2, [1])  # open path
    obj = path_to_json(path)
    obj["closed"] = True
    with pytest.raises(ValueError):
        path_from_json(obj)
