"""Reference implementations and corruption helpers shared by the tests.

The per-point loops here are the straightforward forms of the library's
batched and keyed checks; tests compare the two on every input they share.
The exact values are computed point by point from the phase of each
character value and exact membership in each piece, not from value keys.
The phase is the scalar `pairing_phase` below, in `Fraction` arithmetic, so
the oracle shares no phase or exact evaluation code with the library.
`FractionRadical` is the reference form of `exact.Radical`, with `Fraction`
parts in place of the library's integer fields.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lcaframes import domains
from lcaframes.charfun import indicator_generator, indicator_refinement_filter
from lcaframes.exact import Radical, _square_split, radical
from lcaframes.exceptions import FilterVariantError
from lcaframes.filters import CosetPiecewise, TrigPolynomial, UepMatrix, pointwise_residuals, worst_residual
from lcaframes.frame import _fiber_sides
from lcaframes.functions import uniform
from lcaframes.groups import CYCLIC, EUCLIDEAN, element_add, element_scale

@dataclass(frozen=True)
class FractionRadical:
    """(re + i*im) * sqrt(rad) with Fraction re, im and square-free int rad: the reference for `exact.Radical`."""

    re: Fraction
    im: Fraction
    rad: int

    def conj(self) -> "FractionRadical":
        return FractionRadical(self.re, -self.im, self.rad)

    def __neg__(self) -> "FractionRadical":
        return FractionRadical(-self.re, -self.im, self.rad)

    def turn(self, q: int) -> "FractionRadical":
        re, im = ((self.re, self.im), (-self.im, self.re), (-self.re, -self.im), (self.im, -self.re))[q % 4]
        return FractionRadical(re, im, self.rad)

    def mul(self, other: "FractionRadical") -> "FractionRadical":
        g = math.gcd(self.rad, other.rad)
        re = (self.re * other.re - self.im * other.im) * g
        im = (self.re * other.im + self.im * other.re) * g
        return _fraction_normal(re, im, (self.rad // g) * (other.rad // g))

    def add(self, other: "FractionRadical") -> "FractionRadical | None":
        if self.re == 0 and self.im == 0:
            return other
        if other.re == 0 and other.im == 0:
            return self
        if self.rad != other.rad:
            return None
        return _fraction_normal(self.re + other.re, self.im + other.im, self.rad)

    def abs2(self) -> Fraction:
        return (self.re * self.re + self.im * self.im) * self.rad

    def __complex__(self) -> complex:
        root = math.sqrt(self.rad)
        return complex(float(self.re) * root, float(self.im) * root)


def _fraction_normal(re: Fraction, im: Fraction, rad: int) -> FractionRadical:
    return FractionRadical(re, im, rad if re or im else 1)


def fraction_radical(re, im=0, rad=1) -> FractionRadical:
    """Normalized FractionRadical: sqrt(p/q) = sqrt(p q)/q with the square part of p q pulled out; zero gets rad 1."""
    re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
    if rad == 0 or (re == 0 and im == 0):
        return FractionRadical(Fraction(0), Fraction(0), 1)
    p, q = rad.numerator, rad.denominator
    s, f = _square_split(p * q)
    c = Fraction(s, q)
    return FractionRadical(re * c, im * c, f)


#: e^{2 pi i t} at the quarter turns t, as (re, im)
QUARTER_TURNS = {Fraction(0): (1, 0), Fraction(1, 4): (0, 1), Fraction(1, 2): (-1, 0), Fraction(3, 4): (0, -1)}


def _product(a, b):
    """a * b, as a Fraction when both are rational."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) * Fraction(b)
    return float(a) * float(b)


def pairing_phase(group, x, gamma):
    """The phase t with (x, gamma) = e^{2 pi i t}; a Fraction when x and gamma are rational."""
    if group.kind == CYCLIC:
        return Fraction(x * gamma, group.modulus)
    if group.kind == EUCLIDEAN:
        return sum(_product(a, b) for a, b in zip(x, gamma))
    return _product(x, gamma)  # Z x T and T x Z


def cis(t) -> complex:
    """e^{2 pi i t}; exactly 1, i, -1 or -i at a rational quarter turn, which is reduced mod 1 exactly."""
    if isinstance(t, (int, Fraction)):
        t = Fraction(t) % 1
        q = QUARTER_TURNS.get(t)
        if q is not None:
            return complex(*q)
    t = float(t) % 1.0
    return complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))


def value_at(f, x: int) -> complex:
    """The value of a DiscreteFunction at x: periodic on Z_N, zero off the support on Z."""
    if f.group.kind == CYCLIC:
        return complex(f.values[x % f.group.modulus])
    if f.start <= x < f.stop:
        return complex(f.values[x - f.start])
    return 0j


def function_hat(f, gamma) -> complex:
    """Fourier transform sum_x f(x) (-x, gamma) of a DiscreteFunction, under its group weight."""
    return f.weight * sum(value_at(f, x) * cis(-pairing_phase(f.group, x, gamma)) for x in range(f.start, f.stop))


def pairing_exact(group, x, gamma) -> Radical | None:
    """Character value (x, gamma) as a Radical when its phase is a quarter turn."""
    t = pairing_phase(group, x, gamma)
    q = QUARTER_TURNS.get(t % 1) if isinstance(t, (int, Fraction)) else None
    return None if q is None else radical(*q)


def filter_exact(f, gamma) -> Radical | None:
    """Exact filter value at one point of a discrete dual, or None."""
    if isinstance(f, TrigPolynomial):
        total = radical(0)
        for j, c in zip(f.shifts, f.coeffs):
            z = pairing_exact(f.group, element_scale(f.group, -j, f.step), gamma)
            if z is None or not isinstance(c, Radical):
                return None
            total = total.add(c.mul(z))
            if total is None:
                return None
        return total
    # reduce into the fundamental domain by exact floor division, then the first piece wins
    (lo,), (step,) = domains.bounds(f.domain, f.dual)[0], f.lattice.step
    g, step = Fraction(gamma), Fraction(step)
    rep = int(g - (g - lo) // step * step)
    for dom, v in f.pieces:
        if domains.contains(dom, rep, f.dual):
            return v if isinstance(v, Radical) else None
    return radical(0)


def indicator_hat_exact(gen, gamma) -> Radical:
    """Exact value of an indicator generator: its scale on Omega_k, 0 elsewhere."""
    inside = domains.contains(gen.band.omega(gen.k), gamma, gen.band.chain.dual)
    return gen.scale if inside else radical(0)


def uep_values_exact(P: UepMatrix, gamma) -> list:
    """The UEP matrix at one point as rows of Radicals (None: no exact value)."""
    dual = P.chain.dual
    return [[filter_exact(f, element_add(dual, gamma, nu)) for nu in P.nu] for f in P.rows]


def gram_residual_exact(P: UepMatrix, gamma) -> Fraction | None:
    """max |(P*P - d I)_{l,l'}|^2 at one point as an exact rational, or None."""
    cols = list(zip(*uep_values_exact(P, gamma)))
    if any(v is None for col in cols for v in col):
        return None
    worst = Fraction(0)
    for l, a in enumerate(cols):
        for lp, b in enumerate(cols):
            acc = radical(0)
            for x, y in zip(a, b):
                acc = acc.add(x.conj().mul(y))
                if acc is None:
                    return None
            if l == lp:
                acc = acc.add(radical(-P.d))
                if acc is None:
                    return None
            worst = max(worst, acc.abs2())
    return worst


def refinement_exact(band, k: int, h, gamma) -> Radical | None:
    """Phi_k - H_{k+1} Phi_{k+1} at one point, exactly, or None."""
    hv = filter_exact(h, gamma)
    if hv is None:
        return None
    phi_k = indicator_hat_exact(indicator_generator(band, k), gamma)
    return phi_k.add(-hv.mul(indicator_hat_exact(indicator_generator(band, k + 1), gamma)))


def band_refinement_at(band, k: int, h, gamma) -> float:
    """|Phi_k - H_{k+1} Phi_{k+1}| at one point: exact where the radicands allow, else from the exact values."""
    diff = refinement_exact(band, k, h, gamma)
    if diff is not None:
        return float(diff.abs2()) ** 0.5
    phi_k, phi_k1 = (complex(indicator_hat_exact(indicator_generator(band, j), gamma)) for j in (k, k + 1))
    return abs(phi_k - complex(filter_exact(h, gamma)) * phi_k1)


def scale_filter(f, factor: complex):
    """Same filter with every value scaled; used for corruption controls."""
    if isinstance(f, TrigPolynomial):
        coeffs = tuple(complex(c) * factor for c in f.coeffs)
        return TrigPolynomial(f.group, f.step, f.shifts, coeffs, f.lattice)
    if isinstance(f, CosetPiecewise):
        pieces = tuple((d, complex(v) * factor) for d, v in f.pieces)
        return CosetPiecewise(f.dual, pieces, f.domain, f.lattice)
    raise FilterVariantError(f"cannot scale {type(f).__name__}")


def trig_values(P: UepMatrix, gamma) -> np.ndarray:
    """The matrix of trig rows at one point, entry by entry: sum_j c_j e^{2 pi i t}.

    t is -j times the scalar phase of (eta, gamma + nu_l), so no element
    -j eta is formed and no filter is evaluated.
    """
    cols = [element_add(P.chain.dual, gamma, nu) for nu in P.nu]
    return np.array([[trig_value(f, g) for g in cols] for f in P.rows])


def trig_value(f, gamma) -> complex:
    """A trig filter at one point, term by term: sum_j c_j e^{2 pi i t} with t = -j times the phase of (eta, gamma)."""
    return sum(complex(c) * cis(-j * pairing_phase(f.group, f.step, gamma)) for j, c in zip(f.shifts, f.coeffs))


def gram_residual(P: UepMatrix, gamma) -> float:
    """max |(P*P - d I)_{l,l'}| at one point: exact where every value is, else from the trig rows term by term."""
    w2 = gram_residual_exact(P, gamma)
    if w2 is not None:
        return math.sqrt(w2)
    V = trig_values(P, gamma)
    return float(np.max(np.abs(V.conj().T @ V - P.d * np.eye(P.d))))


def spline_refinement_at(system, k: int, h, gamma) -> float:
    """|Phi_k - H_{k+1} Phi_{k+1}| at one point, each Phi the Fourier transform of a scaling generator's time values."""
    phi_k, phi_k1 = system.scaling(k).time, system.scaling(k + 1).time
    return abs(function_hat(phi_k, gamma) - trig_value(h, gamma) * function_hat(phi_k1, gamma))


def gram_entry(P: UepMatrix, gamma, l: int, lp: int) -> complex:
    """Entrywise form of the Gram identity: row-by-row conjugated products."""
    dual = P.chain.dual
    a = element_add(dual, gamma, P.nu[l])
    b = element_add(dual, gamma, P.nu[lp])
    return sum(f.eval(a).conjugate() * f.eval(b) for f in P.rows)


def entrywise_residual(P: UepMatrix, gamma) -> float:
    d = P.d
    return max(
        abs(gram_entry(P, gamma, l, lp) - (d if l == lp else 0))
        for l in range(d)
        for lp in range(d)
    )


def uep_per_point(P: UepMatrix, plan) -> tuple[np.ndarray, bool]:
    """Residual at every plan point, exact wherever the filter values allow.

    On a discrete dual the exact Gram residual is evaluated again at each
    point; the flag is true only if every point had one.
    """
    res = pointwise_residuals(P, plan.points)
    exact = P.chain.dual.is_discrete
    if exact:
        for i, g in enumerate(plan.points.tolist()):
            w2 = gram_residual_exact(P, g)
            if w2 is None:
                exact = False
            else:
                res[i] = math.sqrt(w2)
    return res, exact


def indicator_refinement_per_point(band, k: int, plan, h=None) -> tuple[np.ndarray, bool]:
    """|Phi_k - H_{k+1} Phi_{k+1}| at every plan point, exact where all values are."""
    h = indicator_refinement_filter(band, k) if h is None else h
    gk, gk1 = indicator_generator(band, k), indicator_generator(band, k + 1)
    pts = plan.points
    res = np.abs(gk.hat_many(pts) - h.eval_many(pts) * gk1.hat_many(pts))
    exact = band.chain.dual.is_discrete
    if exact:
        for i, g in enumerate(pts.tolist()):
            diff = refinement_exact(band, k, h, g)
            if diff is None:
                exact = False
            else:
                res[i] = float(diff.abs2()) ** 0.5
    return res, exact


FIBER_TRIALS = 50  # seeded (level, F, Phi) trials of the fiber oracle


def fiber_suite(chain, seed) -> float:
    """Worst fiber-identity residual over seeded trials on Z_N: levels, then F and Phi as blocks, grouped by level.

    The sampled reference of `verify`'s exact fiber decision: the identity holds
    for every F and Phi iff each V_k is a fundamental domain of the annihilator.
    """
    rng = random.Random(seed)
    ks = [rng.randrange(chain.k0, chain.k1 + 1) for _ in range(FIBER_TRIALS)]
    F, Phi = uniform(rng, (2, FIBER_TRIALS, chain.group.modulus, 2)).view(complex)[..., 0]  # as in `random_test_function`
    residuals = []
    for k in sorted(set(ks)):
        t = [i for i in range(FIBER_TRIALS) if ks[i] == k]
        lhs, rhs = _fiber_sides(chain.level(k).lattice, chain.level(k).domain_v, chain.dual, F[t] * Phi[t].conj())
        residuals.append(np.abs(lhs - rhs) / (1 + np.abs(lhs)))
    return worst_residual(np.concatenate(residuals))[0]
