"""Self-similar tile iteration, exact dedup, box-count measure."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lcaframes.exceptions import DomainParameterError, ResourceLimitError
from lcaframes.tiles import (
    TileSpec,
    measure_estimate,
    scaled_points,
    scaled_points_digits,
    selfsimilarity_holds,
    tile_points,
)

TWIN = TileSpec(((1, -1), (1, 1)), (1, 0))
ROT = TileSpec(((0, 2), (-1, 0)), (1, 0))
HALF = Fraction(1, 2)


def test_spec_validation():
    with pytest.raises(DomainParameterError, match="determinant"):
        TileSpec(((1, 0), (0, 1)), (1, 0))
    with pytest.raises(DomainParameterError, match="unit circle"):
        TileSpec(((1, 1), (0, 2)), (1, 0))  # eigenvalue 1
    with pytest.raises(DomainParameterError, match="A Z"):
        TileSpec(((1, -1), (1, 1)), (1, 1))  # (1,1) = A(1,0)
    with pytest.raises(DomainParameterError, match="integer"):
        TileSpec(((1.5, -1), (1, 1)), (1, 0))


def test_dual_map_is_transpose_inverse():
    b = TWIN.doubled_dual_map() / 2
    a_t = np.array(TWIN.matrix, dtype=float).T
    assert np.allclose(a_t @ b, np.eye(2))


def test_base_case_and_first_iterations():
    assert tile_points(TWIN, 0) == [(0, 0)]
    assert tile_points(TWIN, 1) == [(0, 0), (HALF, HALF)]
    assert tile_points(TWIN, 2) == [(0, 0), (0, HALF), (HALF, HALF), (HALF, 1)]


def test_points_count_doubles_without_collision():
    for r in range(0, 13):
        assert len(scaled_points(TWIN, r)) == 2**r


def test_digit_expansion_matches_recursion():
    for r in range(0, 10):
        assert np.array_equal(scaled_points(TWIN, r), scaled_points_digits(TWIN, r))
        assert np.array_equal(scaled_points(ROT, r), scaled_points_digits(ROT, r))


@pytest.mark.parametrize("spec", [TWIN, ROT], ids=["twin", "rotation"])
def test_selfsimilarity(spec):
    for r in (1, 2, 5, 10):
        assert selfsimilarity_holds(spec, r)


def test_selfsimilarity_detects_corruption():
    pts = scaled_points_digits(TWIN, 5).copy()
    pts[3] += 1  # one perturbed point
    assert not selfsimilarity_holds(TWIN, 5, claimed=pts)


def test_selfsimilarity_needs_positive_r():
    with pytest.raises(DomainParameterError):
        selfsimilarity_holds(TWIN, 0)


def test_iteration_cap():
    with pytest.raises(ResourceLimitError):
        tile_points(TWIN, 25)
    with pytest.raises(DomainParameterError):
        tile_points(TWIN, -1)


def test_measure_estimate_degenerate_cases():
    with pytest.raises(DomainParameterError):
        measure_estimate(TWIN, 4, Fraction(3, 10))  # 10/3 cells per unit
    with pytest.raises(DomainParameterError):
        measure_estimate(TWIN, 4, Fraction(0))
    est, _ = measure_estimate(TWIN, 0, Fraction(1, 64))
    assert est == pytest.approx((1 / 64) ** 2)  # a single point hits one cell


@pytest.mark.parametrize("spec", [TWIN, ROT], ids=["twin", "rotation"])
def test_measure_estimate_near_one(spec):
    est, overlap = measure_estimate(spec, 14, Fraction(1, 32))
    assert abs(est - 1) <= 0.15
    assert 0 <= overlap <= 1


def test_points_stay_inside_geometric_bound():
    # ||digit|| * sum_{j>=1} ||B^j|| with ||B|| = 1/sqrt(2) for the twin dragon
    bound = 1 + math.sqrt(2)
    for p in tile_points(TWIN, 10):
        assert math.hypot(float(p[0]), float(p[1])) <= bound + 1e-12


def test_rotation_spec_digit_valid():
    # (1,0) is a genuine coset representative for the second matrix too
    assert ROT.det == 2
    assert tile_points(ROT, 1) == [(0, -1), (0, 0)]
