"""Fundamental-domain descriptors and their exact set operations.

Variants: IntegerInterval (inclusive endpoints, discrete groups), HalfOpenBox
(per-axis [lo, hi), continuous groups), CosetUnion (union of shifted copies
of a base domain) and Ball (Euclidean, closed).  `contains` is exact on
rational coordinates; the half-open convention resolves boundaries.
`contains_many` is its array form over the point arrays of
`groups.point_array`, which the float evaluation path runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import to_float
from .exceptions import DomainParameterError, SchemaError, require_int, require_object
from .groups import GroupSpec, check_element, element_add, element_neg, point_array

#: relative slack of the closed-ball test: a rational point on the sphere
#: rounds to floats whose squared norm can exceed the radius by a few ulps
_BALL_SLACK = 1 + 4 * np.finfo(float).eps


@dataclass(frozen=True)
class IntegerInterval:
    lo: int
    hi: int  # inclusive

    def __post_init__(self):
        if self.hi < self.lo:
            raise DomainParameterError(f"empty integer interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class HalfOpenBox:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(a >= b for a, b in zip(self.lo, self.hi)):
            lo, hi = (", ".join(map(str, c)) for c in (self.lo, self.hi))
            raise DomainParameterError(f"degenerate box [{lo}] .. [{hi}]")


def interval(lo, hi) -> HalfOpenBox:
    """One-dimensional half-open interval [lo, hi)."""
    return HalfOpenBox((Fraction(lo),), (Fraction(hi),))


@dataclass(frozen=True)
class CosetUnion:
    base: object
    shifts: tuple


@dataclass(frozen=True)
class Ball:
    radius: Fraction  # closed ball around 0

    def __post_init__(self):
        if self.radius < 0:
            raise DomainParameterError("ball radius must be nonnegative")


def contains(dom, p, group: GroupSpec) -> bool:
    """Exact membership of p in dom inside the given group."""
    if isinstance(dom, IntegerInterval):
        return isinstance(p, int) and dom.lo <= p <= dom.hi
    if isinstance(dom, HalfOpenBox):
        return all(a <= x < b for x, a, b in zip(group.coords(p), dom.lo, dom.hi))
    if isinstance(dom, Ball):
        sq = sum(Fraction(x) ** 2 if isinstance(x, (int, Fraction)) else float(x) ** 2 for x in group.coords(p))
        return sq <= dom.radius**2
    if isinstance(dom, CosetUnion):
        return any(contains(dom.base, element_add(group, p, element_neg(group, s)), group) for s in dom.shifts)
    raise DomainParameterError(f"unknown domain {dom!r}")


def shift_points(pts: np.ndarray, shift, group: GroupSpec) -> np.ndarray:
    """pts + shift in the group, each coordinate reduced by the group's period."""
    out = pts + point_array(shift, group)[0]
    return out if group.period is None else out % group.period


def contains_many(dom, pts: np.ndarray, group: GroupSpec) -> np.ndarray:
    """Membership of every row of a `point_array` in dom, as a bool array."""
    x = pts.reshape(len(pts), -1)
    if isinstance(dom, IntegerInterval):
        return (dom.lo <= pts) & (pts <= dom.hi)
    if isinstance(dom, HalfOpenBox):
        lo = np.array([float(a) for a in dom.lo])
        hi = np.array([float(b) for b in dom.hi])
        return np.all((lo <= x) & (x < hi), axis=1)
    if isinstance(dom, Ball):
        return np.sum(x * x, axis=1) <= to_float(dom.radius**2) * _BALL_SLACK
    if isinstance(dom, CosetUnion):
        out = np.zeros(len(pts), dtype=bool)
        for s in dom.shifts:
            out |= contains_many(dom.base, shift_points(pts, element_neg(group, s), group), group)
        return out
    raise DomainParameterError(f"unknown domain {dom!r}")


def measure(dom, group: GroupSpec) -> Fraction:
    """Exact Haar measure of dom under the group's normalization."""
    if isinstance(dom, IntegerInterval):
        if not group.is_discrete:
            raise DomainParameterError("integer interval needs a discrete group")
        return (dom.hi - dom.lo + 1) * group.point_mass
    if isinstance(dom, HalfOpenBox):
        if group.is_discrete:
            raise DomainParameterError("half-open box needs a continuous group")
        out = Fraction(1)
        for a, b in zip(dom.lo, dom.hi):
            out *= Fraction(b) - Fraction(a)
        return out
    if isinstance(dom, CosetUnion):
        # valid under the pairwise-disjointness the chain constructions certify
        return len(dom.shifts) * measure(dom.base, group)
    raise DomainParameterError(f"no exact measure for {dom!r}")


def iter_points(dom, group: GroupSpec):
    """Enumerate a discrete domain in deterministic order."""
    if isinstance(dom, IntegerInterval):
        yield from range(dom.lo, dom.hi + 1)
        return
    if isinstance(dom, CosetUnion):
        for s in dom.shifts:
            for p in iter_points(dom.base, group):
                yield element_add(group, p, s)
        return
    raise DomainParameterError(f"{dom!r} is not enumerable")


def bounds(dom, group: GroupSpec) -> tuple[tuple, tuple]:
    """Inclusive rational bounding box (lo, hi)."""
    if isinstance(dom, IntegerInterval):
        return (Fraction(dom.lo),), (Fraction(dom.hi),)
    if isinstance(dom, HalfOpenBox):
        return tuple(map(Fraction, dom.lo)), tuple(map(Fraction, dom.hi))
    if isinstance(dom, Ball):
        return (-dom.radius,), (dom.radius,)
    if isinstance(dom, CosetUnion):
        blo, bhi = bounds(dom.base, group)
        slo = [tuple(map(Fraction, group.coords(s))) for s in dom.shifts]
        dims = range(len(blo))
        return (
            tuple(blo[i] + min(s[i] for s in slo) for i in dims),
            tuple(bhi[i] + max(s[i] for s in slo) for i in dims),
        )
    raise DomainParameterError(f"no bounds for {dom!r}")


def is_subset(a, b, group: GroupSpec) -> bool:
    """Structural subset test for the descriptor combinations in scope."""
    if isinstance(a, IntegerInterval) and isinstance(b, IntegerInterval):
        return b.lo <= a.lo and a.hi <= b.hi
    if isinstance(a, HalfOpenBox) and isinstance(b, HalfOpenBox):
        return all(bl <= al and ah <= bh for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi))
    if isinstance(a, Ball) and isinstance(b, Ball):
        return a.radius <= b.radius
    if isinstance(a, Ball) and isinstance(b, HalfOpenBox):
        # closed ball fits in the half-open box iff radius < every half-width
        return all(bl <= -a.radius and a.radius < bh for bl, bh in zip(b.lo, b.hi))
    raise DomainParameterError(f"no subset test for {type(a).__name__} in {type(b).__name__}")


def grid_points(dom, total: int, group: GroupSpec) -> np.ndarray:
    """About `total` grid points covering a box-like domain, one row of coordinates each.

    Each coordinate is the float nearest to its rational grid value.
    """
    lo, hi = bounds(dom, group)
    s = len(lo)
    per_axis = max(2, round(total ** (1.0 / s)))
    if per_axis**s < total:
        per_axis += 1
    axes = []
    for a, b in zip(lo, hi):
        # a + j (b - a) / per_axis as one correctly rounded integer division
        den = math.lcm(a.denominator, b.denominator)
        num = int(a * den) * per_axis + int((b - a) * den) * np.arange(per_axis)
        axes.append(num / (den * per_axis))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, s)


def domain_to_json(dom) -> dict:
    if isinstance(dom, IntegerInterval):
        return {"kind": "integer_interval", "lo": dom.lo, "hi": dom.hi}
    if isinstance(dom, HalfOpenBox):
        return {"kind": "box", "lo": [str(a) for a in dom.lo], "hi": [str(b) for b in dom.hi]}
    if isinstance(dom, Ball):
        return {"kind": "ball", "radius": str(dom.radius)}
    if isinstance(dom, CosetUnion):
        return {
            "kind": "coset_union",
            "base": domain_to_json(dom.base),
            "shifts": [_point_json(s) for s in dom.shifts],
        }
    raise DomainParameterError(f"unserializable domain {dom!r}")


_DOMAIN_KEYS = {"integer_interval": ("lo", "hi"), "box": ("lo", "hi"), "ball": ("radius",), "coset_union": ("base", "shifts")}


def domain_from_json(data: dict, group: GroupSpec, path: str = "domain"):
    """A serialized domain in `group`, at `path` in its file; every coset-union shift must be an element of it.

    A key that the domain's kind does not read is refused, with its path.
    """
    kind = data["kind"]
    require_object(data, path, ("kind", *_DOMAIN_KEYS.get(kind, ())))
    if kind == "integer_interval":
        return IntegerInterval(require_int(data["lo"], "interval lo"), require_int(data["hi"], "interval hi"))
    if kind == "box":
        return HalfOpenBox(tuple(Fraction(a) for a in data["lo"]), tuple(Fraction(b) for b in data["hi"]))
    if kind == "ball":
        return Ball(Fraction(data["radius"]))
    if kind == "coset_union":
        shifts = tuple(_point_from_json(s) for s in data["shifts"])
        for s in shifts:
            check_element(group, s, "coset shift")
        return CosetUnion(domain_from_json(data["base"], group, f"{path}.base"), shifts)
    raise SchemaError(f"{path}: unknown domain kind {kind!r}")


def _point_json(p):
    if isinstance(p, tuple):
        return [_point_json(x) for x in p]
    if isinstance(p, (int, float)):
        return p
    return str(p)  # Fraction


def _point_from_json(v):
    if isinstance(v, list):
        return tuple(_point_from_json(x) for x in v)
    if isinstance(v, str):
        f = Fraction(v)
        return int(f) if f.denominator == 1 else f
    return v
