"""Exact arithmetic helpers: unit values at quarter turns and quadratic radicals.

The finite-group verification paths must not depend on float tolerances.
`cis_many` evaluates e^{2 pi i t} over an array of phases and returns exactly
1, i, -1 and -i at quarter turns; the character `groups.pairing` feeds it
phases reduced in integers.  Scalars of the form
(rational + i*rational)*sqrt(square-free integer) are kept exact as `Radical`
so that Gram identities on finite groups come out as literal zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: desk-scale cap on a radicand read from an artifact: `_square_split` of the
#: product of two such radicands takes at most MAX_RADICAND trial divisions
MAX_RADICAND = 2**20


def cis_many(t) -> np.ndarray:
    """e^{2 pi i t} over an array of phases t in turns.

    4t is split exactly into a whole number of quarter turns and a rest in
    [-1/2, 1/2], so cos and sin only see angles up to pi/4 and quarter turns
    come out exact.
    """
    u = 4 * np.asarray(t, dtype=float)
    q = np.round(u)
    angle = (np.pi / 2) * (u - q)
    z = np.cos(angle) + 1j * np.sin(angle)
    return z * np.array([1, 1j, -1, -1j])[q.astype(np.int64) % 4]


def _square_split(n: int) -> tuple[int, int]:
    """n = s*s*f with f square-free; returns (s, f). Requires n >= 0."""
    if n in (0, 1):
        return 1, n
    s, f, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    return s, f * n


@dataclass(frozen=True)
class Radical:
    """(re + i*im) * sqrt(rad) with rational re, im and square-free int rad."""

    re: Fraction
    im: Fraction
    rad: int

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conj(self) -> "Radical":
        return Radical(self.re, -self.im, self.rad)

    def __neg__(self) -> "Radical":
        return Radical(-self.re, -self.im, self.rad)

    def turn(self, q: int) -> "Radical":
        """self * i^q: q quarter turns, a rotation of (re, im)."""
        re, im = ((self.re, self.im), (-self.im, self.re), (-self.re, -self.im), (self.im, -self.re))[q % 4]
        return Radical(re, im, self.rad)

    def mul(self, other: "Radical") -> "Radical":
        """Exact product: sqrt(a) sqrt(b) = g sqrt((a/g)(b/g)) for square-free a, b and g = gcd(a, b)."""
        g = math.gcd(self.rad, other.rad)
        re = (self.re * other.re - self.im * other.im) * g
        im = (self.re * other.im + self.im * other.re) * g
        return _normal(re, im, (self.rad // g) * (other.rad // g))

    def add(self, other: "Radical") -> "Radical | None":
        """Exact sum, or None when the radicands are incompatible."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.rad != other.rad:
            return None
        return _normal(self.re + other.re, self.im + other.im, self.rad)

    def abs2(self) -> Fraction:
        return (self.re * self.re + self.im * self.im) * self.rad

    def __complex__(self) -> complex:
        root = math.sqrt(self.rad)
        return complex(float(self.re) * root, float(self.im) * root)


def _normal(re: Fraction, im: Fraction, rad: int) -> Radical:
    """Radical with an already square-free radicand; zero gets rad 1."""
    return Radical(re, im, rad if re or im else 1)


def radical(re, im=0, rad: int | Fraction = 1) -> Radical:
    """Normalized Radical: integer square-free radicand, zero gets rad 1."""
    re, im = Fraction(re), Fraction(im)
    rad = Fraction(rad)
    if rad < 0:
        raise ValueError("radicand must be nonnegative")
    if rad == 0 or (re == 0 and im == 0):
        return Radical(Fraction(0), Fraction(0), 1)
    # sqrt(p/q) = sqrt(p*q)/q, then pull out the square part of p*q
    p, q = rad.numerator, rad.denominator
    s, f = _square_split(p * q)
    c = Fraction(s, q)
    return Radical(re * c, im * c, f)


ZERO = radical(0)


def sqrt_rational(x) -> Radical:
    """sqrt(x) for nonnegative rational x, as an exact Radical."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of negative rational")
    return radical(1, 0, x)
