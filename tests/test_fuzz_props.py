"""Generator sanity and cross-instance property sweeps."""
import random
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from cwpoly import Vec2, det, polygon_area
from cwpoly.core import angle_less
from cwpoly.fuzz import _angle_key, random_centered_ball, random_convex_polygon, random_cw_plane


def test_random_polygons_strictly_convex():
    rng = random.Random(1)
    for _ in range(60):
        poly = random_convex_polygon(rng, rng.randint(3, 9))
        v = poly.vertices
        k = len(v)
        assert polygon_area(v) > 0
        for i in range(k):
            e1 = v[(i + 1) % k] - v[i]
            e2 = v[(i + 2) % k] - v[(i + 1) % k]
            assert det(e1, e2) > 0


def test_random_balls_validate():
    rng = random.Random(2)
    for _ in range(60):
        ball = random_centered_ball(rng, rng.randint(2, 8))
        ball.validate()
        m = 2 * ball.n
        for i in range(ball.n):
            assert ball.vertices[i + ball.n] == -ball.vertices[i]
        assert all(det(ball.vertices[i], ball.vertices[(i + 1) % m]) > 0 for i in range(m))


def test_random_planes_in_range_and_reproducible():
    a = [p.P.vertices for p in (random_cw_plane(random.Random(77)) for _ in range(5))]
    b = [p.P.vertices for p in (random_cw_plane(random.Random(77)) for _ in range(5))]
    assert a == b
    rng = random.Random(3)
    for _ in range(30):
        plane = random_cw_plane(rng, n_min=3, n_max=8)
        assert 3 <= plane.n <= 8
        assert plane.a == F(1, 2)


_direction = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda v: v != (0, 0))


@given(st.lists(st.tuples(_direction, st.integers(1, 3)), max_size=24))
def test_angle_key_sorts_by_angle_less(vectors):
    # the generators sort edge vectors with this key: in the sorted list no
    # vector comes before an earlier one in the full-circle angle order,
    # over all four quadrants, with multiples of one direction side by side
    vecs = [Vec2(x * k, y * k) for (x, y), k in vectors]
    out = sorted(vecs, key=_angle_key)
    assert not any(angle_less(out[j], out[i])
                   for i in range(len(out)) for j in range(i + 1, len(out)))
