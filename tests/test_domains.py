"""Array membership against the exact `domains.contains` oracle."""

from fractions import Fraction as F

import numpy as np
import pytest

from lcaframes import domains
from lcaframes.domains import Ball, CosetUnion, HalfOpenBox, IntegerInterval
from lcaframes.groups import cyclic_group, dual_group, euclidean_group, integer_group, point_array, torus_group

R2 = dual_group(euclidean_group(2))
R1 = dual_group(euclidean_group(1))

CASES = [
    # closed balls: rational points exactly on the sphere, and just off it
    (
        "ball boundary",
        Ball(F(1)),
        R2,
        [(F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)), (F(1), F(0)), (F(0), F(-1)),
         (F(3, 5), F(4, 5) + F(1, 10**6)), (F(1, 3), F(2, 3))],
    ),
    (
        "ball boundary, radius 1/2",
        Ball(F(1, 2)),
        R2,
        [(F(3, 10), F(2, 5)), (F(-3, 10), F(-2, 5)), (F(7, 50), F(12, 25)), (F(1, 2), F(1, 10**6))],
    ),
    # half-open boxes: lower faces are in, upper faces are out
    (
        "dyadic box faces",
        HalfOpenBox((F(-1, 2), F(-1, 4)), (F(1, 2), F(3, 4))),
        R2,
        [(F(-1, 2), F(0)), (F(1, 2), F(0)), (F(0), F(-1, 4)), (F(0), F(3, 4)), (F(-1, 2), F(-1, 4))],
    ),
    (
        "box faces with a factor 3",
        HalfOpenBox((F(-1, 3), F(0)), (F(2, 3), F(1, 6))),
        R2,
        [(F(-1, 3), F(1, 12)), (F(2, 3), F(1, 12)), (F(1, 3), F(1, 6)), (F(1, 3), F(0)), (F(-1, 3), F(1, 6))],
    ),
    # coset unions: points on the seam between two shifted copies
    (
        "coset seam on R",
        CosetUnion(HalfOpenBox((F(-3, 2),), (F(3, 2),)), ((0,), (3,))),
        R1,
        [(F(3, 2),), (F(9, 2),), (F(-3, 2),), (F(3),), (F(-2),)],
    ),
    (
        "coset seam on T",
        CosetUnion(HalfOpenBox((F(0),), (F(1, 6),)), (F(0), F(1, 6))),
        dual_group(integer_group()),
        [F(1, 6), F(1, 3), F(0), F(5, 6), F(1, 12)],
    ),
    (
        "coset seam on Z_8",
        CosetUnion(IntegerInterval(0, 1), (0, 2, 6)),
        dual_group(cyclic_group(8)),
        [1, 2, 3, 4, 5, 6, 7, 0],
    ),
    (
        "coset seam on Z",
        CosetUnion(IntegerInterval(-3, 2), (0, 6)),
        dual_group(torus_group()),
        [-4, -3, 2, 3, 8, 9],
    ),
]


@pytest.mark.parametrize("name, dom, group, points", CASES, ids=[c[0] for c in CASES])
def test_array_membership_matches_exact(name, dom, group, points):
    got = domains.contains_many(dom, point_array(points, group), group)
    want = [domains.contains(dom, p, group) for p in points]
    assert got.tolist() == want
    assert any(want) and not all(want)


def test_point_array_shapes():
    assert point_array(F(1, 4), dual_group(integer_group())).shape == (1,)
    assert point_array([1, 2, 3], dual_group(cyclic_group(8))).dtype == np.int64
    assert point_array((F(1, 2), 0.25), R2).shape == (1, 2)
    assert point_array([(0, 1), (2, 3), (4, 5)], R2).shape == (3, 2)
