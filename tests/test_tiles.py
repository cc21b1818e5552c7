"""Self-similar tile iteration, exact dedup, box-count measure."""

import itertools
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


def test_measure_estimate_fine_cells_past_int64():
    # at h = 2^-60 each of the 256 points of Q(8) has a cell of its own; a scaled point times 2^60 passes
    # int64, which once wrapped them into one cell
    pts = scaled_points(TWIN, 8)
    assert len(pts) == 256 and int(np.abs(pts).max()) * 2**60 >= 2**63
    est, overlap = measure_estimate(TWIN, 8, Fraction(1, 2**60))
    assert (est, overlap) == (256 * 2.0**-120, 0.0)


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


def test_expansive_check_is_exact_and_agrees_with_the_eigenvalues():
    # every integer matrix with entries in -3..3 and |det| = 2: the integer test against the float eigenvalues
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if abs(a * d - b * c) != 2:
            continue
        expansive = np.min(np.abs(np.linalg.eigvals(np.array([[a, b], [c, d]], dtype=float)))) > 1 + 1e-9
        try:
            TileSpec(((a, b), (c, d)), (1, 0))
            accepted = True
        except DomainParameterError as exc:
            accepted = "A Z" in str(exc)  # a digit in A Z^2 is refused after the eigenvalue check
        assert accepted == expansive, (a, b, c, d)


def _exact_tile(spec: TileSpec, r: int) -> list:
    """Q(r) by the rational recursion Q(j + 1) = B Q(j) u B (digit + Q(j)), B = (A^T)^{-1}, in Fractions."""
    (a, b), (c, d) = spec.matrix
    det = Fraction(spec.det)
    B = ((d / det, -c / det), (-b / det, a / det))
    pts = {(Fraction(0), Fraction(0))}
    for _ in range(r):
        moved = pts | {(x + spec.digit[0], y + spec.digit[1]) for x, y in pts}
        pts = {(B[0][0] * x + B[0][1] * y, B[1][0] * x + B[1][1] * y) for x, y in moved}
    return sorted(pts)


@pytest.mark.parametrize(
    "spec, r",
    [(TileSpec(((1, -1), (1, 1)), (99999999999999999999, 0)), 12), (TileSpec(((1, 1), (-1, 1)), (2**62 + 1, 0)), 3)],
    ids=["digit-1e20", "digit-2^62"],
)
def test_points_that_could_leave_int64_are_refused_before_any_array(spec, r, monkeypatch):
    monkeypatch.setattr(np, "array", lambda *a, **k: pytest.fail("an array was built"))
    for run in (tile_points, scaled_points, scaled_points_digits, selfsimilarity_holds):
        with pytest.raises(ResourceLimitError, match="int64"):
            run(spec, r)


def test_large_digit_below_the_cap_matches_the_exact_recursion():
    # 24 (2^58 + 1) < 2^63 bounds the r = 3 points, so the int64 recursion holds them exactly
    spec = TileSpec(((1, 1), (-1, 1)), (2**58 + 1, 0))
    assert tile_points(spec, 3) == _exact_tile(spec, 3)
    assert tile_points(TWIN, 6) == _exact_tile(TWIN, 6)
