"""Interval enclosures with outward rounding, and a branch and bound over
the faces of the cube ``|z|_inf = 1`` (Tucker, Validated Numerics, 2011;
Moore, Kearfott & Cloud, Introduction to Interval Analysis, 2009).

An enclosure is a pair ``(centre, radius)`` of float arrays, one box
``mid +- rad`` per row: every value over the box lies within the radius
of the centre, the float error of computing the centre included.
"""

import numpy as np

# Relative allowance added to every enclosure.  Each is built by a few
# float sums and products of at most four terms, whose rounding stays
# below 20 unit roundoffs (4.4e-15) of the magnitudes involved, and a
# matrix known only to within rounding carries its own error bound.
ROUND = 1e-12

# A box of the branch and bound is settled once its lower bound is at least
# this share of the smallest value met at a box centre.  The boxes still
# open are all settled, at their lower bounds, after _BNB_GENERATIONS
# rounds of bisection or when the next round would take the count past
# _BNB_MAX_BOXES; they are bounded _BNB_CHUNK at a time.
_BNB_SETTLE = 0.95
_BNB_GENERATIONS = 60
_BNB_MAX_BOXES = 200_000
_BNB_CHUNK = 1024


def up(v):
    return np.nextafter(v, np.inf)


def down(v):
    return np.nextafter(v, -np.inf)


def linear(mid, rad, A, err):
    """Enclosure ``(centre, radius)`` of ``z -> A' z`` over the boxes
    ``mid +- rad`` (one per row), for every A' within ``err`` of A."""
    bound = np.abs(A) + err
    centre = mid @ A.T
    r = rad @ bound.T + np.abs(mid) @ err.T
    return centre, up(r + ROUND * ((np.abs(mid) + rad) @ bound.T))


def quadratic(mid, rad, M, M_err):
    """Enclosure ``(centre, radius)`` of ``z -> z^T M' z`` over the boxes
    ``mid +- rad``, for every symmetric M' within ``M_err`` of the
    symmetric M: ``z^T M' z = c^T M' c + 2 (M' c) . d + d^T M' d``."""
    Mc = mid @ M.T
    a = np.abs(mid)
    bound = np.abs(M) + M_err
    spread = np.sum(a * (a @ M_err.T) + 2.0 * rad * (np.abs(Mc) + a @ M_err.T)
                    + rad * (rad @ bound.T), axis=1)
    size = np.sum((a + rad) * ((a + rad) @ bound.T), axis=1)
    return np.sum(mid * Mc, axis=1), up(spread + ROUND * size)


def product(a, b):
    (ma, ra), (mb, rb) = a, b
    centre = ma * mb
    r = np.abs(ma) * rb + ra * (np.abs(mb) + rb)
    return centre, up(r + ROUND * (np.abs(centre) + r))


def magnitude(a):
    return up(np.abs(a[0]) + a[1])


def face_minimum(bounds):
    """Lower bound on a function over the faces of the cube ``|z|_inf = 1``
    in four dimensions, and the number of boxes bounded.

    ``bounds(mid, rad)`` gives a lower bound on the function over each box
    ``mid +- rad`` (one per row) and its value at the box centre.  Each face
    box is bisected along its widest side until it is settled.
    """
    mid = np.zeros((8, 4))
    mid[np.arange(8), np.arange(8) % 4] = np.repeat([1.0, -1.0], 4)
    rad = 1.0 - np.abs(mid)
    best = proven = np.inf
    boxes = 0
    for generation in range(_BNB_GENERATIONS):
        boxes += len(mid)
        low, at_centre = (np.concatenate(parts) for parts in zip(*(
            bounds(mid[i:i + _BNB_CHUNK], rad[i:i + _BNB_CHUNK])
            for i in range(0, len(mid), _BNB_CHUNK))))
        best = min(best, float(np.min(at_centre)))
        settled = low >= _BNB_SETTLE * best
        if (generation == _BNB_GENERATIONS - 1
                or boxes + 2 * np.count_nonzero(~settled) > _BNB_MAX_BOXES):
            settled[:] = True
        proven = min(proven, float(np.min(low[settled], initial=np.inf)))
        mid, rad = mid[~settled], rad[~settled]
        if not len(mid):
            break
        rows, k = np.arange(len(mid)), np.argmax(rad, axis=1)
        rad[rows, k] *= 0.5
        step = np.zeros_like(mid)
        step[rows, k] = rad[rows, k]
        mid, rad = np.concatenate([mid - step, mid + step]), np.concatenate([rad, rad])
    return proven, boxes
