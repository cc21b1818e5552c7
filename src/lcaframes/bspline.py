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
all even orders, all from one binomial formula (Ron and Shen's UEP family).
The lowpass mask refines the spline, so any lowpass h is checked against it
coefficient by coefficient (`refinement_bound`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import domains
from .chains import MAX_POINTS, LatticeChain
from .domains import HalfOpenBox, IntegerInterval
from .exact import Radical, cis_many, radical
from .exceptions import (
    ResourceLimitError,
    SplittingError,
    UnsupportedIndexError,
    UnsupportedOrderError,
    UnsupportedRepresentationError,
    require_int,
)
from .filters import SamplingPlan, TrigPolynomial, coefficient_grid, worst_residual
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


def bspline_time(chain: LatticeChain, k: int, order: int) -> DiscreteFunction | None:
    """Time values of the order-`order` generator at level k on Z / Z_N; None elsewhere, as in `frame.Generator`."""
    require_order(order)
    group = chain.group
    q = chain.level(k).domain_q
    if not group.is_discrete:
        return None
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
        return DiscreteFunction(group, 0, full * scale)
    return DiscreteFunction(group, pts[0] * order, conv * scale)


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


def _binomial_masks(chain: LatticeChain, k: int, order: int, ms) -> list:
    """The masks sqrt(C(N,m)) 2^{-(N-1/2)} (1+z)^{N-m} (1-z)^m, z = (-eta_k, .), for m in ms, as trig filters.

    m = 0 is the binomial lowpass and m = 1..N the highpass masks of Ron and
    Shen's UEP family (N = 1 or even).  Each mask's root sqrt(2 C(N,m)) / 2^N
    is normalized once and scaled by the nonzero integer coefficients of the product, on ascending shifts.
    """
    require_order(order)
    _require_index_two(chain, k)
    eta, lattice = chain.splitter(k), chain.level(k + 1).annihilator
    out = []
    for m in ms:
        poly = [1]
        for sign in [1] * (order - m) + [-1] * m:  # times (1 + sign z)
            poly = [a + sign * b for a, b in zip([*poly, 0], [0, *poly])]
        root = radical(Fraction(1, 2**order), 0, 2 * math.comb(order, m))
        shifts = tuple(j for j, c in enumerate(poly) if c)
        coeffs = tuple(Radical(poly[j] * root.re, 0, root.rad) for j in shifts)
        out.append(TrigPolynomial(chain.group, eta, shifts, coeffs, lattice))
    return out


def refinement_filter(chain: LatticeChain, k: int, order: int) -> TrigPolynomial:
    """Binomial lowpass mask 2^{-(N-1/2)} (1 + (-eta_k, .))^N as a trig filter (mask m = 0)."""
    return _binomial_masks(chain, k, order, [0])[0]


def wavelet_filters(chain: LatticeChain, k: int, order: int) -> list:
    """The N highpass masks m = 1..N paired with the order-N lowpass; orders 1 and even only."""
    require_order(order)
    if order > 1 and order % 2:
        raise UnsupportedOrderError(f"no wavelet masks for odd order {order}")
    return _binomial_masks(chain, k, order, range(1, order + 1))


def refinement_bound(chain: LatticeChain, k: int, order: int, h) -> float | None:
    """sum_x |h_x - b_x| mu(Q_{k+1})^{1/2} >= |Phi_k - H_{k+1} Phi_{k+1}| at every gamma; None without a grid.

    b is the binomial mask, which refines the spline: the residual is (B - H) Phi_{k+1}, and
    |Phi_{k+1}| <= Phi_{k+1}(0) = mu(Q_{k+1})^{1/2}.
    """
    check_refinement_splitting(chain, k)
    grid = coefficient_grid((h, refinement_filter(chain, k, order)), chain.level(k + 1).lattice)
    with np.errstate(invalid="ignore", over="ignore"):
        return None if grid is None else float(np.abs(grid[0] - grid[1]).sum()) * float(chain.density(k + 1)) ** 0.5


def refinement_residual(chain: LatticeChain, k: int, order: int, plan: SamplingPlan, h=None) -> float:
    """max over the plan of |Phi_k - H_{k+1} Phi_{k+1}| for the spline family.

    h defaults to the family's binomial lowpass mask.  The reference for `refinement_bound`.
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
    coeffs = np.array([complex(c) for c in filt.coeffs])
    if chain.group.is_finite:  # phi(x - o) for every offset o in one gather, then one contraction with the c_j
        n = chain.group.modulus
        rolled = phi.array[(np.arange(n) - np.array([o % n for o in offsets])[:, None]) % n]
        return DiscreteFunction(chain.group, 0, np.einsum("j,jx->x", coeffs, rolled))
    lo = min(offsets)
    if max(offsets) - lo > MAX_ORDER * MAX_POINTS:  # a built system's masks span at most order * 2^M
        raise ResourceLimitError(f"wavelet time side spans more than {MAX_ORDER * MAX_POINTS} points (desk-scale cap)")
    acc = np.zeros(len(phi.values) + max(offsets) - lo, dtype=complex)
    for o, c in zip(offsets, coeffs):
        acc[o - lo : o - lo + len(phi.values)] += c * phi.array
    return DiscreteFunction(chain.group, phi.start + lo, acc)
