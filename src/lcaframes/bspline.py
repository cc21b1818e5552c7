"""Spline generators on LCA groups and their two-scale filter algebra.

The order-N generator at level k is the N-fold self-convolution of the
indicator of Q_k, scaled by measure(Q_k)^{-N+1/2} so no renormalization is
needed later.  On Z and Z_N the time-domain values come from repeated
convolution of the indicator, in floats; on T and R^s the generator is
available through closed-form evaluation of its Fourier transform (and a
piecewise-polynomial time side).

Consecutive levels are linked by a binomial lowpass mask whenever the chain
has index-2 nesting and the fundamental-domain splitting
Q_k = Q_{k+1} u (eta_k + Q_{k+1}) holds; highpass masks ship for order 1 and
all even orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import domains
from .chains import LatticeChain
from .domains import HalfOpenBox, IntegerInterval
from .exact import cis_many, radical
from .exceptions import (
    ResourceLimitError,
    SplittingError,
    UnsupportedIndexError,
    UnsupportedOrderError,
    UnsupportedRepresentationError,
    require_int,
)
from .filters import SamplingPlan, TrigPolynomial, worst_residual
from .functions import DiscreteFunction
from .groups import point_array


MAX_ORDER = 16  # desk-scale cap on the spline order


def require_order(order: int):
    """Raise unless 1 <= order <= MAX_ORDER.

    Checked before any convolution or mask is built: the order-N spline takes
    N - 1 convolutions, the even-order family has N masks of N + 1 terms, and
    their exact coefficients carry radicands up to 2 C(N, N/2).
    """
    if require_int(order, "order") < 1:
        raise UnsupportedOrderError(f"order must be an integer >= 1, got {order!r}")
    if order > MAX_ORDER:
        raise ResourceLimitError(f"order {order} exceeds {MAX_ORDER} (desk-scale cap)")


@dataclass(frozen=True)
class BSplineGenerator:
    chain: LatticeChain
    k: int
    order: int
    time: DiscreteFunction | None  # explicit values on Z / Z_N, None otherwise


def _require_index_two(chain: LatticeChain, k: int):
    if chain.index(k) != 2:
        raise UnsupportedIndexError(
            f"spline filters need index-2 lattice nesting, level {k} has d={chain.index(k)}"
        )


def check_refinement_splitting(chain: LatticeChain, k: int):
    """Verify Q_k = Q_{k+1} u (eta_k + Q_{k+1}) exactly; raise with a witness."""
    _require_index_two(chain, k)
    eta = chain.splitter(k)
    qk, qk1 = chain.level(k).domain_q, chain.level(k + 1).domain_q
    if isinstance(qk, IntegerInterval):
        big = set(domains.iter_points(qk, chain.group))
        small = list(domains.iter_points(qk1, chain.group))
        shifted = domains.shift_points(np.array(small), eta, chain.group).tolist()
        union = set(small) | set(shifted)
        if set(small) & set(shifted):
            raise SplittingError(f"overlap witness {sorted(set(small) & set(shifted))[0]}")
        if union != big:
            witness = sorted(big ^ union)[0]
            raise SplittingError(f"splitting fails at point {witness}")
        return
    if isinstance(qk, HalfOpenBox):
        ecs = chain.group.coords(eta)
        for axis, (lo, hi, lo1, hi1, e) in enumerate(zip(qk.lo, qk.hi, qk1.lo, qk1.hi, ecs)):
            width = Fraction(hi1) - Fraction(lo1)
            if not (Fraction(lo) == Fraction(lo1) and Fraction(e) == width and Fraction(hi) == Fraction(lo1) + 2 * width):
                raise SplittingError(f"splitting fails on axis {axis} at offset {e}")
        return
    raise SplittingError(f"no splitting check for domain {type(qk).__name__}")


def bspline_time(chain: LatticeChain, k: int, order: int) -> BSplineGenerator:
    """Order-`order` generator at level k, with time values on Z / Z_N."""
    require_order(order)
    group = chain.group
    q = chain.level(k).domain_q
    if not group.is_discrete:
        return BSplineGenerator(chain, k, order, None)
    pts = list(domains.iter_points(q, group))
    base = np.ones(len(pts))  # float: int64 wraps once |Q_k|^(order-1) passes 2^63
    conv = base
    for _ in range(order - 1):
        conv = np.convolve(conv, base)
    scale = float(chain.density(k)) ** (-order + 0.5)
    if group.is_finite:
        n = group.modulus
        full = np.zeros(n, dtype=complex)
        np.add.at(full, (pts[0] * order + np.arange(len(conv))) % n, conv)
        fn = DiscreteFunction(group, 0, full * scale)
    else:
        fn = DiscreteFunction(group, pts[0] * order, conv * scale)
    return BSplineGenerator(chain, k, order, fn)


def _dirichlet(q: IntegerInterval, t: np.ndarray) -> np.ndarray:
    """sum over x in q of e^{-2 pi i x t}, for t in [-1/2, 1/2).

    The Dirichlet kernel e^{-pi i (2 lo + n - 1) t} sin(pi n t) / sin(pi t),
    with its limit n at t = 0.  Each phase goes through `cis_many` on its own;
    n t is exact when n is a power of two, as on the dyadic chains.
    """
    n = q.hi - q.lo + 1
    half = cis_many(n * t / 2)  # e^{pi i n t}
    s = cis_many(t / 2).imag  # sin(pi t)
    # below the smallest normal float, s has lost digits; the ratio is n to O(t^2)
    ratio = np.divide(half.imag, s, out=np.full(t.shape, float(n)), where=np.abs(s) >= np.finfo(float).tiny)
    return cis_many((0.5 - q.lo) * t) * half.conj() * ratio


def _interval_integral(a: Fraction, b: Fraction, g: np.ndarray) -> np.ndarray:
    """integral over [a, b) of e^{-2 pi i x g} dx = (b-a) e^{-pi i (a+b) g} sinc((b-a) g)."""
    w, c = float(b - a), float(a + b)
    return w * cis_many(-c * g / 2) * np.sinc(w * g)


def bspline_hat(chain: LatticeChain, k: int, order: int, gammas) -> np.ndarray:
    """Fourier transform of the order-N generator at an array of dual points.

    measure(Q_k)^{-N+1/2} * (integral over Q_k of (-x, gamma) dx)^N.  On Z and
    Z_N the integral is a finite character sum, taken in closed form as the
    Dirichlet kernel; on T and R^s it is a product of interval integrals.
    """
    group = chain.group
    q = chain.level(k).domain_q
    pts = point_array(gammas, chain.dual)
    if group.is_discrete:
        p = chain.dual.period  # Z_N or T: t = r / p, centred on 0 (exact on Z_N)
        r = pts % p
        base = _dirichlet(q, np.where(2 * r >= p, r - p, r) / p)
    else:
        x = pts.reshape(len(pts), -1)
        base = np.ones(len(pts), dtype=complex)
        for r, (a, b) in enumerate(zip(q.lo, q.hi)):
            base *= _interval_integral(a, b, x[:, r])
    return float(chain.density(k)) ** (-order + 0.5) * base**order


def refinement_filter(chain: LatticeChain, k: int, order: int) -> TrigPolynomial:
    """Binomial lowpass mask 2^{-(N-1/2)} (1 + (-eta_k, .))^N as a trig filter."""
    require_order(order)
    _require_index_two(chain, k)
    eta = chain.splitter(k)
    coeffs = tuple(
        radical(Fraction(math.comb(order, j), 2**order), 0, 2) for j in range(order + 1)
    )
    return TrigPolynomial(chain.group, eta, tuple(range(order + 1)), coeffs, chain.level(k + 1).annihilator)


def first_order_wavelet_filter(chain: LatticeChain, k: int) -> TrigPolynomial:
    """Highpass mask (1 - (-eta_k, .)) / sqrt(2)."""
    _require_index_two(chain, k)
    eta = chain.splitter(k)
    half_rt2 = radical(Fraction(1, 2), 0, 2)
    return TrigPolynomial(
        chain.group, eta, (0, 1), (half_rt2, -half_rt2), chain.level(k + 1).annihilator
    )


def even_order_wavelet_filters(chain: LatticeChain, k: int, half_order: int) -> list:
    """The 2M highpass masks sqrt(C(2M,m)) 2^{-(2M-1/2)} (1+z)^{2M-m} (1-z)^m."""
    require_order(2 * half_order)
    _require_index_two(chain, k)
    eta = chain.splitter(k)
    n = 2 * half_order
    lattice = chain.level(k + 1).annihilator
    out = []
    for m in range(1, n + 1):
        poly = np.array([1], dtype=object)
        for _ in range(n - m):
            poly = np.convolve(poly, np.array([1, 1], dtype=object))
        for _ in range(m):
            poly = np.convolve(poly, np.array([1, -1], dtype=object))
        rad = 2 * math.comb(n, m)
        coeffs = tuple(radical(Fraction(int(c), 2**n), 0, rad) for c in poly)
        out.append(TrigPolynomial(chain.group, eta, tuple(range(n + 1)), coeffs, lattice))
    return out


def wavelet_filters(chain: LatticeChain, k: int, order: int) -> list:
    """Wavelet masks paired with the order-N lowpass; orders 1 and even only."""
    if order == 1:
        return [first_order_wavelet_filter(chain, k)]
    if order >= 2 and order % 2 == 0:
        return even_order_wavelet_filters(chain, k, order // 2)
    raise UnsupportedOrderError(f"no wavelet masks for odd order {order}")


def refinement_residual(chain: LatticeChain, k: int, order: int, plan: SamplingPlan, h=None) -> float:
    """max over the plan of |Phi_k - H_{k+1} Phi_{k+1}| for the spline family.

    h defaults to the family's binomial lowpass mask.
    """
    check_refinement_splitting(chain, k)
    if h is None:
        h = refinement_filter(chain, k, order)
    lhs = bspline_hat(chain, k, order, plan.points)
    rhs = h.eval_many(plan.points) * bspline_hat(chain, k + 1, order, plan.points)
    return worst_residual(np.abs(lhs - rhs))[0]


def wavelet_time(chain: LatticeChain, k: int, filt: TrigPolynomial, phi: DiscreteFunction | None) -> DiscreteFunction:
    """Time-domain wavelet sum_j c_j phi(. - j eta_k) on Z / Z_N.

    phi is the time side of the level-(k+1) scaling generator (`bspline_time`).
    """
    if not chain.level(k + 1).lattice.contains(filt.step):
        raise UnsupportedRepresentationError(
            f"mask step {filt.step!r} is not a level-{k + 1} lattice point"
        )
    if phi is None:
        raise UnsupportedRepresentationError("time-domain wavelets need Z or Z_N")
    offsets = [j * filt.step for j in filt.shifts]
    if chain.group.is_finite:
        terms = [complex(c) * np.roll(phi.array, o) for o, c in zip(offsets, filt.coeffs)]
        return DiscreteFunction(chain.group, 0, sum(terms[1:], terms[0]))
    lo = min(offsets)
    acc = np.zeros(len(phi.values) + max(offsets) - lo, dtype=complex)
    for o, c in zip(offsets, filt.coeffs):
        acc[o - lo : o - lo + len(phi.values)] += complex(c) * phi.array
    return DiscreteFunction(chain.group, phi.start + lo, acc)
