"""Direct checks of the enclosures and the branch and bound of
``swingcert.interval``: every value at seeded points of seeded boxes,
computed exactly with fractions, lies within the enclosure."""

from fractions import Fraction

import numpy as np
import pytest

from swingcert import interval

BOXES = 12
POINTS = 12


def _boxes(rng):
    """Seeded boxes ``mid +- rad`` over several orders of magnitude."""
    mid = rng.standard_normal((BOXES, 4)) * 10.0 ** rng.integers(-3, 4, (BOXES, 1))
    rad = np.abs(rng.standard_normal((BOXES, 4))) * 10.0 ** rng.integers(-6, 1, (BOXES, 1))
    return mid, rad


def _exact(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def _points(rng, mid, rad):
    """Exact points of the box: its corners and seeded points inside."""
    t = rng.uniform(-1.0, 1.0, (POINTS, 4))
    t[:2] = np.sign(t[:2])
    return [_exact(mid) + _exact(s) * _exact(rad) for s in t]


def _within(value, centre, radius) -> bool:
    return abs(value - Fraction(centre)) <= Fraction(radius)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_linear_encloses_every_matrix_within_its_error(seed):
    rng = np.random.default_rng(seed)
    mid, rad = _boxes(rng)
    A = rng.standard_normal((4, 4))
    err = 1e-9 * np.abs(rng.standard_normal((4, 4)))
    centre, radius = interval.linear(mid, rad, A, err)
    for row in range(BOXES):
        for z in _points(rng, mid[row], rad[row]):
            A_x = _exact(A) + _exact(rng.uniform(-1.0, 1.0, (4, 4))) * _exact(err)
            assert all(_within(v, c, r) for v, c, r in zip(A_x.dot(z), centre[row],
                                                               radius[row]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quadratic_encloses_every_symmetric_matrix_within_its_error(seed):
    rng = np.random.default_rng(seed)
    mid, rad = _boxes(rng)
    M = rng.standard_normal((4, 4))
    M = M + M.T
    M_err = 1e-9 * np.abs(rng.standard_normal((4, 4)))
    M_err = M_err + M_err.T
    centre, radius = interval.quadratic(mid, rad, M, M_err)
    for row in range(BOXES):
        for z in _points(rng, mid[row], rad[row]):
            S = rng.uniform(-1.0, 1.0, (4, 4))
            M_x = _exact(M) + _exact(np.triu(S) + np.triu(S, 1).T) * _exact(M_err)
            assert _within(z.dot(M_x.dot(z)), centre[row], radius[row])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_product_and_magnitude_enclose_every_point(seed):
    rng = np.random.default_rng(seed)
    mid, rad = _boxes(rng)
    (ma, mb), (ra, rb) = mid[:, :2].T, rad[:, :2].T
    centre, radius = interval.product((ma, ra), (mb, rb))
    top_a, top_ab = interval.magnitude((ma, ra)), interval.magnitude((centre, radius))
    for row in range(BOXES):
        for s, t in rng.uniform(-1.0, 1.0, (POINTS, 2)).tolist() + [[1, -1], [-1, -1]]:
            x = Fraction(ma[row]) + Fraction(s) * Fraction(ra[row])
            y = Fraction(mb[row]) + Fraction(t) * Fraction(rb[row])
            assert _within(x * y, centre[row], radius[row])
            assert abs(x) <= Fraction(top_a[row]) and abs(x * y) <= Fraction(top_ab[row])


def test_rounding_is_outward():
    v = np.array([1.0, -3.0, 1e-300, 0.0])
    assert np.all(interval.up(v) > v) and np.all(interval.down(v) < v)


@pytest.mark.parametrize("seed", [1, 2])
def test_face_minimum_meets_sampled_minimum_of_a_toy_bound(seed):
    # A quadratic form z^T M z over the faces of |z|_inf = 1, with a
    # positive definite M known within M_err: the proven bound holds for
    # every such matrix, so it is never above the sampled minimum for M
    # itself, and it comes within the settle share of it.
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((4, 4))
    M = B @ B.T + 0.5 * np.eye(4)
    M_err = np.full((4, 4), 1e-6)

    def bounds(mid, rad):
        q, q_r = interval.quadratic(mid, rad, M, M_err)
        return interval.down(q - q_r), q

    proven, boxes = interval.face_minimum(bounds)
    u = rng.standard_normal((100_000, 4))
    u /= np.max(np.abs(u), axis=1)[:, None]
    sampled = float(np.min(np.einsum("ni,ij,nj->n", u, M, u)))
    assert 0.9 * sampled <= proven <= sampled
    assert 8 < boxes <= interval._BNB_MAX_BOXES
