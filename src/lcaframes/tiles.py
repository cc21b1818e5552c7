"""Self-similar planar tiles from 2x2 integer dilations of determinant +-2.

The attractor Q of the map pair x |-> Bx, x |-> B(digit + x), with
B = (A^T)^{-1}, is approximated by the point sets

    Q(0) = {0},   Q(r+1) = B Q(r)  u  B (digit + Q(r)).

Because |det A| = 2, every point of Q(r) is an exact dyadic rational with
denominator 2^r; internally points are kept as integer pairs scaled by 2^r,
so deduplication, set equality and the self-similarity recursion are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import LcaError

MAX_ITERATIONS = 24


@dataclass(frozen=True)
class TileSpec:
    matrix: tuple  # ((a, b), (c, d)) integer entries, |det| = 2, expansive
    digit: tuple  # coset representative of Z^2 / A Z^2, not in A Z^2

    def __post_init__(self):
        m = self.matrix
        if any(not isinstance(x, int) for row in m for x in row):
            raise LcaError("dilation matrix must have integer entries")
        det, trace = self.det, m[0][0] + m[1][1]
        if abs(det) != 2:
            raise LcaError(f"determinant must be +-2, got {det}")
        # the roots of x^2 - trace x + det lie outside the unit circle exactly when they are complex of
        # modulus sqrt 2 (det 2, |trace| <= 2) or +-sqrt 2 (det -2, trace 0); decided in integers
        if not (abs(trace) <= 2 if det == 2 else trace == 0):
            raise LcaError("all eigenvalues must lie outside the unit circle")
        if not (isinstance(self.digit, tuple) and len(self.digit) == 2):
            raise LcaError("digit must be an integer pair")
        if _in_image(m, self.digit, det):
            raise LcaError(f"digit {self.digit} lies in A Z^2")

    @property
    def det(self) -> int:
        m = self.matrix
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    def doubled_dual_map(self) -> np.ndarray:
        """2B = 2 (A^T)^{-1}, an integer matrix."""
        m, d = self.matrix, self.det
        sign = 2 // d  # +-1
        # inv([[a, c], [b, d]]) = [[d, -c], [-b, a]] / det
        return sign * np.array([[m[1][1], -m[1][0]], [-m[0][1], m[0][0]]], dtype=np.int64)


def _in_image(m, v, det: int) -> bool:
    """v in A Z^2, solved exactly over the rationals (det is A's determinant)."""
    x = Fraction(m[1][1] * v[0] - m[0][1] * v[1], det)
    y = Fraction(-m[1][0] * v[0] + m[0][0] * v[1], det)
    return x.denominator == 1 and y.denominator == 1


def _check_r(spec: TileSpec, r: int):
    """Refuse an iteration count out of range, or one at which a scaled point could leave int64.

    With c the largest row sum of |A| (that of 2B) and e the largest digit coordinate, step j maps points of
    size b to at most c (b + e 2^j): every int64 value of the recursions is at most max(c, e, b_r), checked
    in integers before any array is built.
    """
    if r < 0:
        raise LcaError("iteration count must be nonnegative")
    if r > MAX_ITERATIONS:
        raise LcaError(f"iteration count {r} exceeds the cap {MAX_ITERATIONS}")
    c, e = max(abs(a) + abs(b) for a, b in spec.matrix), max(map(abs, spec.digit))
    if max(c, e, sum(c**i * e << (r - i) for i in range(1, r + 1))) >= 2**63:
        raise LcaError(f"tile points at r = {r} of this matrix and digit could leave int64 (desk-scale cap)")


def scaled_points(spec: TileSpec, r: int) -> np.ndarray:
    """Q(r) * 2^r as deduplicated integer pairs, by the contraction recursion."""
    _check_r(spec, r)
    c = spec.doubled_dual_map()
    eta = np.array(spec.digit, dtype=np.int64)
    pts = np.zeros((1, 2), dtype=np.int64)
    for j in range(r):
        shifted = pts + (eta << j)
        pts = np.unique(np.concatenate([pts, shifted]) @ c.T, axis=0)
    return pts


def scaled_points_digits(spec: TileSpec, r: int) -> np.ndarray:
    """Q(r) * 2^r through digit expansions, appending the highest digit last.

    Built in the opposite order from scaled_points: translate by
    2^{r-j} (2B)^j digit for j = 1..r.
    """
    _check_r(spec, r)
    c = spec.doubled_dual_map()
    eta = np.array(spec.digit, dtype=np.int64)
    pts = np.zeros((1, 2), dtype=np.int64)
    v = eta.copy()
    for j in range(1, r + 1):
        v = c @ v  # (2B)^j digit, denominator folded into the 2^{r-j} scale
        u = v << (r - j)
        pts = np.unique(np.concatenate([pts, pts + u]), axis=0)
    return pts


def tile_points(spec: TileSpec, r: int) -> list:
    """The points of Q(r) as exact dyadic rationals, sorted."""
    pts = scaled_points(spec, r)
    scale = Fraction(1, 2**r)
    return [(int(x) * scale, int(y) * scale) for x, y in pts]


def selfsimilarity_holds(spec: TileSpec, r: int, claimed: np.ndarray | None = None) -> bool:
    """Exact set equality Q(r) = B Q(r-1) u B (digit + Q(r-1)).

    One side comes from the digit expansion (or from `claimed`, integer pairs
    scaled by 2^r), the other from one contraction step applied to Q(r-1), so
    the check is not vacuous.
    """
    if r < 1:
        raise LcaError("self-similarity needs r >= 1")
    _check_r(spec, r)
    c = spec.doubled_dual_map()
    eta = np.array(spec.digit, dtype=np.int64)
    prev = scaled_points(spec, r - 1)  # scaled by 2^{r-1}
    step = np.unique(np.concatenate([prev, prev + (eta << (r - 1))]) @ c.T, axis=0)
    other = scaled_points_digits(spec, r) if claimed is None else np.unique(np.asarray(claimed), axis=0)
    return step.shape == other.shape and bool(np.array_equal(step, other))


def measure_estimate(spec: TileSpec, r: int, h: Fraction) -> tuple[float, float]:
    """Box-count estimate of the tile area and the tiling-overlap fraction.

    Points are binned into h-cells and the cells folded modulo Z^2.  Returns
    (#distinct folded cells) * h^2 as the area estimate, plus the fraction of
    folded cells claimed by more than one integer translate.  Cells are counted
    in Python integers, since a scaled point times 1/h can pass int64.
    """
    h = Fraction(h)
    if h <= 0 or h > 1 or (1 / h).denominator != 1:
        raise LcaError(f"cell size must divide 1 exactly, got {h}")
    per_unit, denom = int(1 / h), 2**r
    keyed = {}
    for x, y in scaled_points(spec, r).tolist():
        cx, cy = x * per_unit // denom, y * per_unit // denom
        keyed.setdefault((cx % per_unit, cy % per_unit), set()).add((cx // per_unit, cy // per_unit))
    estimate = len(keyed) * float(h) ** 2
    overlap = sum(1 for o in keyed.values() if len(o) > 1) / max(len(keyed), 1)
    return estimate, overlap
