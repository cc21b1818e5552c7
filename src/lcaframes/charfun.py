"""Bandlimited generators: scaled indicators of nested dual-side sets.

A band chain attaches to each level k a set Omega_k inside the dual cell V_k,
nested upward, with the top-level set declared as the exhaustion target.  The
generator is measure(V_k)^{-1/2} * indicator(Omega_k); its refinement filter
takes the value sqrt(d_k) on Omega_k and 0 on the rest of the refined cell.

Two wavelet-mask families ship: the compactly-supported family (one filter
per coset, needs Omega_k properly inside V_k) and the orthonormal family
(d_k - 1 filters, needs Omega_k = V_k with nested cells).

Bands take a built chain and their bounds: dyadic on Z_{2^M}, product on T,
boxes and balls on R^s (each refusing a chain on another group), and the full
band on any chain, all checked by `_validate`.  `band_chain`, the one place
that knows the construction labels, maps a label and bounds to a band, which
keeps the descriptor fields it is built from: its bounds L, and its shape on R^s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import domains
from .chains import LatticeChain, refined_dual_domain
from .domains import Ball, CosetUnion, HalfOpenBox, IntegerInterval
from .exact import ZERO, Radical, sqrt_rational
from .exceptions import LcaError, SchemaError, _malformed, require_int
from .filters import CosetPiecewise, SamplingPlan, exact_residuals, worst_residual
from .functions import DiscreteFunction
from .groups import euclidean_group, point_array, torus_group


@dataclass(frozen=True)
class OmegaChain:
    chain: LatticeChain
    omegas: tuple  # one band set per level, omegas[i] for level k0 + i
    params: dict  # the descriptor's charfun fields but the mode: {"L": ...}, with "shape" on R^s ({} for the full band)

    def omega(self, k: int):
        self.chain.level(k)
        return self.omegas[k - self.chain.k0]

    def is_proper(self, k: int) -> bool:
        return self.omega(k) != self.chain.level(k).domain_v

    @property
    def exhaustion_target(self):
        return self.omegas[-1]


def _validate(chain: LatticeChain, omegas, params) -> OmegaChain:
    """The band with these sets, after checking one a level, each inside its dual cell and nested in the next."""
    if len(omegas) != len(chain.levels):
        raise LcaError(f"need {len(chain.levels)} band bounds, got {len(omegas)}")
    for i, om in enumerate(omegas):
        k = chain.k0 + i
        v = chain.level(k).domain_v
        if not domains.is_subset(om, v, chain.dual):
            raise LcaError(f"band set at level {k} is not inside the dual cell")
        if i + 1 < len(omegas) and not domains.is_subset(om, omegas[i + 1], chain.dual):
            raise LcaError(f"band sets fail to nest between levels {k} and {k + 1}")
    return OmegaChain(chain, tuple(omegas), params)


def _require_group(chain: LatticeChain, fits: bool, label: str):
    if not fits:
        raise SchemaError(f"a {label} band does not fit a chain on {chain.group.describe()}")


def band_chain_cyclic(chain: LatticeChain, bounds: list[int]) -> OmegaChain:
    """Band sets {0..L_k} on the Z_{2^M} chain.

    Needs integer L with the sets inside their dual cells and nested
    (`_validate`), and the top level exhausting the dual group
    (L_M = 2^M - 1).
    """
    _require_group(chain, chain.group.is_finite, "cyclic")
    for L in bounds:
        require_int(L, "band bound")
    if not bounds or bounds[-1] != chain.group.modulus - 1:
        raise LcaError(f"top band bound must exhaust the dual group ({chain.group.modulus - 1})")
    omegas = [IntegerInterval(0, L) for L in bounds]
    return _validate(chain, omegas, {"L": list(bounds)})


def band_chain_torus(chain: LatticeChain, bounds: list[int]) -> OmegaChain:
    """Symmetric band sets {-L_k..L_k} on the torus chain.

    Needs strictly increasing integer L with the sets inside their dual
    cells (`_validate`).
    """
    _require_group(chain, chain.group == torus_group(), "torus")
    for k, L in enumerate(bounds):
        require_int(L, f"band bound at level {k}")
    for k, L in enumerate(bounds):
        if k and L <= bounds[k - 1]:
            raise LcaError(f"band bounds must strictly increase at level {k}")
    omegas = [IntegerInterval(-L, L) for L in bounds]
    return _validate(chain, omegas, {"L": list(bounds)})


def band_chain_boxes(chain: LatticeChain, bound_table: list[list]) -> OmegaChain:
    """Separable bands prod_r [-L_{k,r}, L_{k,r}) on the R^s chain, one row of L per axis.

    Bounds are read through their string form, so a float 0.1 is 1/10.  The
    boxes must lie inside their dual cells and nest (`_validate`).
    """
    _require_group(chain, chain.group == euclidean_group(chain.group.dimension), "boxes")
    table = [[Fraction(str(x)) for x in row] for row in bound_table]
    if len(table) != chain.group.dimension or any(len(row) != len(chain.levels) for row in table):
        raise LcaError("band bound table must match the factor table shape")
    omegas = [HalfOpenBox(tuple(-L for L in ls), ls) for ls in zip(*table)]
    return _validate(chain, omegas, {"L": [[str(x) for x in row] for row in table], "shape": "boxes"})


def band_chain_balls(chain: LatticeChain, bounds: list) -> OmegaChain:
    """Euclidean balls ||gamma|| <= L_k, radii read as the boxes' bounds, inside their dual cells and nested (`_validate`)."""
    _require_group(chain, chain.group == euclidean_group(chain.group.dimension), "balls")
    radii = [Fraction(str(b)) for b in bounds]
    return _validate(chain, [Ball(r) for r in radii], {"L": [str(r) for r in radii], "shape": "balls"})


def full_band_chain(chain: LatticeChain) -> OmegaChain:
    """Omega_k = V_k at every level (the orthonormal-family setting), on any chain whose dual cells nest."""
    return _validate(chain, [lvl.domain_v for lvl in chain.levels], {})


_BANDS = {"cyclic": band_chain_cyclic, "torus": band_chain_torus, "boxes": band_chain_boxes, "balls": band_chain_balls}


def band_chain(label: str, chain: LatticeChain, bounds) -> OmegaChain:
    """The band of a construction label (cyclic, torus, boxes or balls) on a built chain, from its bounds L."""
    with _malformed(f"{label} band parameters"):
        return _BANDS[label](chain, bounds)


@dataclass(frozen=True)
class IndicatorGenerator:
    band: OmegaChain
    k: int

    @cached_property
    def scale(self) -> Radical:
        return sqrt_rational(1 / Fraction(self.band.chain.dual_cell_measure(self.k)))

    def hat(self, gamma) -> complex:
        return complex(self.hat_many(gamma)[0])

    def hat_many(self, gammas) -> np.ndarray:
        dual = self.band.chain.dual
        inside = domains.contains_many(self.band.omega(self.k), point_array(gammas, dual), dual)
        return np.where(inside, complex(self.scale), 0j)

    def freq_function(self) -> DiscreteFunction:
        """The generator as a finitely-supported function on a discrete dual."""
        dual = self.band.chain.dual
        if not dual.is_discrete:
            raise LcaError("frequency-side values need a discrete dual")
        pts = np.fromiter(domains.iter_points(self.band.omega(self.k), dual), dtype=np.int64)
        # one full period on Z_N, the smallest window holding the band on Z
        lo, size = (0, dual.modulus) if dual.is_finite else (int(pts.min()), int(np.ptp(pts)) + 1)
        vals = np.zeros(size, dtype=complex)
        vals[(pts - lo) % size] = complex(self.scale)
        return DiscreteFunction(dual, lo, vals)


def indicator_generator(band: OmegaChain, k: int) -> IndicatorGenerator:
    band.chain.level(k)
    return IndicatorGenerator(band, k)


def indicator_refinement_filter(band: OmegaChain, k: int) -> CosetPiecewise:
    """sqrt(d_k) on Omega_k, 0 on the rest of the refined dual cell."""
    chain = band.chain
    d = chain.index(k)
    dom = refined_dual_domain(chain, k)
    pieces = ((band.omega(k), sqrt_rational(d)),)
    return CosetPiecewise(chain.dual, pieces, dom, chain.level(k + 1).annihilator)


def bandlimited_wavelet_filters(band: OmegaChain, k: int) -> list:
    """The d_k compactly-supported wavelet masks at a properly banded level.

    Mask m (1 <= m <= d_k - 1) takes sqrt(d_k) on nu_{m+1} + Omega_k and on
    nu_m + (V_k - Omega_k); mask d_k takes sqrt(d_k) on nu_{d_k} + (V_k -
    Omega_k) only.  Together with the refinement filter the coset-evaluation
    matrix has exactly one sqrt(d_k) per column.
    """
    chain = band.chain
    d = chain.index(k)
    if not band.is_proper(k):
        raise LcaError(f"level {k} band set equals the dual cell; no proper masks")
    nu = chain.cosets(k)
    v = chain.level(k).domain_v
    om = band.omega(k)
    dom = refined_dual_domain(chain, k)
    ann = chain.level(k + 1).annihilator
    rt = sqrt_rational(d)
    out = []
    for m in range(1, d):
        pieces = (
            (CosetUnion(om, (nu[m],)), rt),
            (CosetUnion(om, (nu[m - 1],)), ZERO),
            (CosetUnion(v, (nu[m - 1],)), rt),
        )
        out.append(CosetPiecewise(chain.dual, pieces, dom, ann))
    pieces = (
        (CosetUnion(om, (nu[d - 1],)), ZERO),
        (CosetUnion(v, (nu[d - 1],)), rt),
    )
    out.append(CosetPiecewise(chain.dual, pieces, dom, ann))
    return out


def orthonormal_wavelet_filters(band: OmegaChain, k: int) -> list:
    """The d_k - 1 masks making the coset matrix sqrt(d_k) I (full bands)."""
    chain = band.chain
    d = chain.index(k)
    if band.is_proper(k):  # Omega_k = V_k then nests in Omega_{k+1}, inside V_{k+1} (`_validate`)
        raise LcaError(f"level {k} band set must equal the dual cell")
    nu = chain.cosets(k)
    v = chain.level(k).domain_v
    dom = refined_dual_domain(chain, k)
    ann = chain.level(k + 1).annihilator
    rt = sqrt_rational(d)
    return [
        CosetPiecewise(chain.dual, ((CosetUnion(v, (nu[m],)), rt),), dom, ann)
        for m in range(1, d)
    ]


def indicator_refinement_residual(band: OmegaChain, k: int, plan: SamplingPlan, h=None) -> float:
    """max over the plan of |Phi_k - H_{k+1} Phi_{k+1}| for the band family.

    h defaults to the family's refinement filter.  On a discrete dual the
    residual is taken in exact arithmetic once per distinct key: the keys of
    h and membership in Omega_k and Omega_{k+1}, which pick the generator's
    scale or 0.  On a continuous dual, or where any point has no exact value,
    every point is sampled in floats.
    """
    if h is None:
        h = indicator_refinement_filter(band, k)
    gk, gk1 = indicator_generator(band, k), indicator_generator(band, k + 1)
    pts = plan.points
    hat_k, hat_k1 = gk.hat_many(pts), gk1.hat_many(pts)
    res = None
    if band.chain.dual.is_discrete and (keys := h.exact_keys(pts)) is not None:

        def abs2_of(key):
            diff = _refinement_exact(h, gk, gk1, key)
            return None if diff is None else diff.abs2()

        res = exact_residuals(np.column_stack([keys, hat_k != 0, hat_k1 != 0]), abs2_of)
    if res is None:
        res = np.abs(hat_k - h.eval_many(pts) * hat_k1)
    return worst_residual(res)[0]


def _refinement_exact(h, gk: IndicatorGenerator, gk1: IndicatorGenerator, key) -> Radical | None:
    """Phi_k - H_{k+1} Phi_{k+1} at a point with this key row, or None.

    The row is h's keys, then membership in Omega_k and in Omega_{k+1}, which
    pick each generator's scale or 0.
    """
    hv = h.eval_exact(key[:-2])
    if hv is None:
        return None
    in_k, in_k1 = key[-2:]
    return (gk.scale if in_k else ZERO).add(-hv.mul(gk1.scale if in_k1 else ZERO))
