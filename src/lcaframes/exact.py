"""Exact arithmetic helpers: unit values at quarter turns and quadratic radicals.

The finite-group verification paths must not depend on float tolerances.
`cis_many` evaluates e^{2 pi i t} over an array of phases and returns exactly
1, i, -1 and -i at quarter turns; the character `groups.pairing` feeds it
phases reduced in integers.  Scalars of the form
(rational + i*rational)*sqrt(square-free integer) are kept exact as `Radical`
so that Gram identities on finite groups come out as literal zeros.

A `Radical` is (a + i*b)/den * sqrt(rad) in Python integers, with one common
denominator and gcd(a, b, den) = 1.  Its products and sums are then a few
integer operations and one gcd, where two `Fraction` parts would normalize
every product and sum of parts on its own; this arithmetic is the whole cost
of an exact Gram identity.  The form is unique, so equality and hashing
compare the integers, and the rational parts `re` and `im` are built on
demand.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exceptions import SchemaError

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


class Radical:
    """(a + i*b)/den * sqrt(rad): Python ints with den > 0, gcd(a, b, den) = 1 and square-free rad.

    The fields are a normal form, so equality and hashing compare them; zero
    is 0/1 * sqrt(1).  `Radical(re, im, rad)` takes rational parts and an
    already square-free radicand (`radical` normalizes any radicand).
    Instances are immutable by convention.
    """

    __slots__ = ("a", "b", "den", "rad")

    def __init__(self, re, im, rad: int):
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)  # gcd(a, b, den) = 1 already
        self.a, self.b, self.den = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den
        self.rad = int(rad) if self.a or self.b else 1

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.den)

    def __eq__(self, other):
        if not isinstance(other, Radical):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den and self.rad == other.rad

    def __hash__(self):
        return hash((self.a, self.b, self.den, self.rad))

    def __repr__(self):
        return f"Radical(re={self.re!r}, im={self.im!r}, rad={self.rad})"

    def conj(self) -> "Radical":
        return _make(self.a, -self.b, self.den, self.rad)

    def __neg__(self) -> "Radical":
        return _make(-self.a, -self.b, self.den, self.rad)

    def turn(self, q: int) -> "Radical":
        """self * i^q: q quarter turns, a rotation of (a, b)."""
        a, b = ((self.a, self.b), (-self.b, self.a), (-self.a, -self.b), (self.b, -self.a))[q % 4]
        return _make(a, b, self.den, self.rad)

    def mul(self, other: "Radical") -> "Radical":
        """Exact product: sqrt(x) sqrt(y) = g sqrt((x/g)(y/g)) for square-free x, y and g = gcd(x, y)."""
        g = math.gcd(self.rad, other.rad)
        a = (self.a * other.a - self.b * other.b) * g
        b = (self.a * other.b + self.b * other.a) * g
        return _reduced(a, b, self.den * other.den, (self.rad // g) * (other.rad // g))

    def add(self, other: "Radical") -> "Radical | None":
        """Exact sum, or None when the radicands are incompatible."""
        if not (self.a or self.b):
            return other
        if not (other.a or other.b):
            return self
        if self.rad != other.rad:
            return None
        if self.den == other.den:
            return _reduced(self.a + other.a, self.b + other.b, self.den, self.rad)
        a, b = self.a * other.den + other.a * self.den, self.b * other.den + other.b * self.den
        return _reduced(a, b, self.den * other.den, self.rad)

    def abs2(self) -> Fraction:
        return Fraction((self.a * self.a + self.b * self.b) * self.rad, self.den * self.den)

    def __complex__(self) -> complex:
        # int / int rounds once, as float(Fraction) does, and overflows the same way
        root = math.sqrt(self.rad)
        return complex(self.a / self.den * root, self.b / self.den * root)


def _make(a: int, b: int, den: int, rad: int) -> Radical:
    """A Radical from fields already in normal form."""
    out = object.__new__(Radical)
    out.a, out.b, out.den, out.rad = a, b, den, rad
    return out


def _reduced(a: int, b: int, den: int, rad: int) -> Radical:
    """A Radical with an already square-free radicand, divided by gcd(a, b, den); zero gets rad 1."""
    g = math.gcd(a, b, den)
    if g != 1:
        a, b, den = a // g, b // g, den // g
    return _make(a, b, den, rad if a or b else 1)


def radical(re, im=0, rad: int | Fraction = 1) -> Radical:
    """Normalized Radical: integer square-free radicand, zero gets rad 1."""
    re, im = Fraction(re), Fraction(im)
    rad = Fraction(rad)
    if rad < 0:
        raise SchemaError("radicand must be nonnegative")
    if rad == 0 or (re == 0 and im == 0):
        return ZERO
    # sqrt(p/q) = sqrt(p*q)/q, then pull out the square part of p*q
    p, q = rad.numerator, rad.denominator
    s, f = _square_split(p * q)
    c = Fraction(s, q)
    return Radical(re * c, im * c, f)


ZERO = _make(0, 0, 1, 1)


def to_float(q: Fraction) -> float:
    """q as a float, or a signed inf where the rational lies beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def sqrt_rational(x) -> Radical:
    """sqrt(x) for nonnegative rational x, as an exact Radical."""
    x = Fraction(x)
    if x < 0:
        raise SchemaError("square root of negative rational")
    return radical(1, 0, x)
