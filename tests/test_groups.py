"""Character pairings, duals and Haar normalizations."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcaframes.exact import MAX_RADICAND, ZERO, Radical, _square_split, cis_many, radical, sqrt_rational
from lcaframes.exceptions import LcaError, SchemaError
from lcaframes.groups import (
    cyclic_group,
    dual_group,
    euclidean_group,
    integer_group,
    pairing,
    torus_group,
)
from oracles import cis, fraction_radical, pairing_exact, pairing_phase

Z = integer_group()
T = torus_group()
Z8 = cyclic_group(8)


def test_pairing_identity_element():
    assert pairing(Z, 0, [0.37, 0.5]).tolist() == [1, 1]


def test_pairing_half_turn_is_exactly_minus_one():
    # e^{2 pi i 16/32} = -1, exactly in the quarter-turn fast path
    assert pairing(Z, 16, Fraction(1, 32)).tolist() == [-1]


def test_pairing_cyclic():
    # e^{2 pi i * 4 / 8} = -1; every quarter turn of Z_8 is exact
    assert pairing(Z8, 2, 2).tolist() == [-1]
    assert pairing(Z8, 1, [0, 2, 4, 6, 10]).tolist() == [1, 1j, -1, -1j, 1j]


def test_pairing_euclidean_dot_product():
    r2 = euclidean_group(2)
    assert pairing(r2, (Fraction(1, 2), 0), (1, 0)).tolist() == [-1]
    assert abs(abs(pairing(r2, (0.3, 0.4), [(1.7, -2.2), (0.1, 0.2)])) - 1).max() < 1e-15


def test_pairing_torus_both_ways():
    assert pairing(T, Fraction(1, 4), [1, 2, 3, -1]).tolist() == [1j, -1, -1j, -1j]
    assert pairing(Z, 3, Fraction(1, 2)).tolist() == [-1]


@pytest.mark.parametrize(
    "group, x, gammas",
    [
        (Z8, 3, range(-8, 16)),
        (T, Fraction(5, 12), range(-12, 24)),
        (T, 0.3, range(-5, 5)),
        (Z, -7, [Fraction(j, 24) for j in range(-24, 24)] + [0.123, 0.9]),
        (euclidean_group(2), (Fraction(1, 2), Fraction(-3, 4)), [(1, 2), (3, 1), (Fraction(2, 3), 0.25)]),
    ],
    ids=["cyclic", "torus", "torus-float", "integers", "euclidean"],
)
def test_pairing_matches_scalar_oracle(group, x, gammas):
    # exactly equal where the oracle's phase is a quarter turn, within rounding elsewhere
    got = pairing(group, x, list(gammas))
    for z, gamma in zip(got, gammas):
        want = cis(pairing_phase(group, x, gamma))
        exact = pairing_exact(group, x, gamma) is not None
        assert z == want if exact else abs(z - want) < 1e-14


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-2, max_value=2),
)
def test_pairing_is_a_character(x, y, gamma):
    lhs = pairing(Z, x + y, gamma)
    rhs = pairing(Z, x, gamma) * pairing(Z, y, gamma)
    assert abs(lhs - rhs) < 1e-12
    assert abs(abs(lhs) - 1) < 1e-12


def test_variant_mismatch():
    with pytest.raises(SchemaError, match="group element of Z must be an integer, got 0.5"):
        pairing(Z, 0.5, 0.3)  # non-integer element of Z
    with pytest.raises(SchemaError, match="group element of R\\^2 must be a 2-tuple of finite reals"):
        pairing(euclidean_group(2), (1.0,), (0.0, 0.0))  # wrong dimension


def test_dual_round_trip_and_masses():
    assert dual_group(Z) == T
    assert dual_group(T) == Z
    d8 = dual_group(Z8)
    assert d8.modulus == 8 and d8.point_mass == Fraction(1, 8)
    assert dual_group(euclidean_group(3)) == euclidean_group(3)


def test_group_validation():
    with pytest.raises(LcaError, match="cyclic modulus must be an integer >= 2, got 1"):
        cyclic_group(1)
    with pytest.raises(LcaError, match="euclidean dimension must be a positive integer, got 0"):
        euclidean_group(0)


def test_cis_quarter_turns_exact():
    assert cis_many([0.5, 0.25, 0.75, 5, -0.25, 2.5]).tolist() == [-1, 1j, -1j, 1, -1j, -1]


def test_pairing_exact_detects_quarter_turns():
    v = pairing_exact(Z, 16, Fraction(1, 32))
    assert isinstance(v, Radical) and complex(v) == -1
    assert pairing_exact(Z, 1, Fraction(1, 3)) is None


@given(
    st.fractions(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4),
    st.sampled_from([1, 2, 3, 6]),
)
def test_radical_algebra_matches_complex(a, b, rad):
    u = radical(a, b, rad)
    v = radical(b, a, rad)
    assert abs(complex(u.mul(v)) - complex(u) * complex(v)) < 1e-10
    s = u.add(v)
    assert s is not None and abs(complex(s) - (complex(u) + complex(v))) < 1e-10
    assert abs(float(u.abs2()) - abs(complex(u)) ** 2) < 1e-10


def test_radical_normalization_pulls_out_squares():
    # sqrt(12) = 2 sqrt(3), sqrt(4) = 2
    assert radical(1, 0, 12) == Radical(Fraction(2), Fraction(0), 3)
    assert radical(1, 0, 4) == Radical(Fraction(2), Fraction(0), 1)
    assert sqrt_rational(Fraction(1, 2)) == Radical(Fraction(1, 2), Fraction(0), 2)


_square_free = st.integers(1, MAX_RADICAND).map(lambda n: _square_split(n)[1])
_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@settings(deadline=None, max_examples=60)
@given(_rationals, _rationals, _square_free, _rationals, _rationals, _square_free)
def test_radical_mul_add_keep_normal_form(re1, im1, ra, re2, im2, rb):
    # the gcd shortcut in mul and the shared radicand in add give radical()'s normal form
    u, v = radical(re1, im1, ra), radical(re2, im2, rb)
    assert u.mul(v) == radical(u.re * v.re - u.im * v.im, u.re * v.im + u.im * v.re, ra * rb)
    w = radical(re2, im2, ra)
    assert u.add(w) == radical(u.re + w.re, u.im + w.im, ra)
    assert u.add(-u) == ZERO
    assert u.mul(ZERO) == ZERO


def test_radical_add_incompatible_is_none():
    assert radical(1, 0, 2).add(radical(1, 0, 3)) is None
    # zero is compatible with everything
    assert radical(0).add(radical(1, 0, 3)) == radical(1, 0, 3)


_big_rationals = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80))
_radicands = st.one_of(st.integers(0, MAX_RADICAND), st.builds(Fraction, st.integers(0, MAX_RADICAND), st.integers(1, 64)))


def _same(got, want) -> bool:
    return isinstance(got.re, Fraction) and (got.re, got.im, got.rad) == (want.re, want.im, want.rad)


@settings(deadline=None, max_examples=200)
@given(_big_rationals, _big_rationals, _radicands, _big_rationals, _big_rationals, _radicands, st.integers(-5, 5))
@example(Fraction(0), Fraction(0), 12, Fraction(1), Fraction(-1), 12, 1)  # zero, and a square factor
@example(Fraction(3, 2**70), Fraction(2**90), 2**20, Fraction(-(2**66), 7), Fraction(1), MAX_RADICAND - 1, 3)
def test_integer_radical_matches_the_fraction_reference(re1, im1, ra, re2, im2, rb, q):
    # numerators and denominators beyond 2^64 and radicands up to MAX_RADICAND, against `Fraction` arithmetic
    u, fu = radical(re1, im1, ra), fraction_radical(re1, im1, ra)
    v, fv = radical(re2, im2, rb), fraction_radical(re2, im2, rb)
    assert _same(u, fu) and _same(v, fv)  # normalization: zero gets rad 1, squares leave the radicand
    assert _same(u.mul(v), fu.mul(fv)) and _same(v.mul(u), fu.mul(fv))
    s, fs = u.add(v), fu.add(fv)
    assert (s is None) == (fs is None) and (s is None or _same(s, fs))  # None for incompatible radicands
    w, fw = radical(re2, im2, ra), fraction_radical(re2, im2, ra)
    assert _same(u.add(w), fu.add(fw)) and _same(u.add(-u), fraction_radical(0))
    assert _same(u.turn(q), fu.turn(q)) and _same(u.conj(), fu.conj()) and _same(-u, -fu)
    assert u.abs2() == fu.abs2() and complex(u) == complex(fu) and complex(u.mul(v)) == complex(fu.mul(fv))
    assert u == radical(u.re, u.im, u.rad) and hash(u) == hash(radical(u.re, u.im, u.rad))
