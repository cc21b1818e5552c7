"""Reference implementations and corruption helpers shared by the tests.

The per-point loops here are the straightforward forms of the library's
batched and keyed checks; tests compare the two on every input they share.
"""

import math

import numpy as np

from lcaframes.charfun import indicator_generator, indicator_refinement_filter
from lcaframes.exceptions import FilterVariantError
from lcaframes.filters import (
    CosetPiecewise,
    TrigPolynomial,
    UepMatrix,
    _gram_residual_exact,
    pointwise_residuals,
)
from lcaframes.groups import element_add


def scale_filter(f, factor: complex):
    """Same filter with every value scaled; used for corruption controls."""
    if isinstance(f, TrigPolynomial):
        coeffs = tuple(complex(c) * factor for c in f.coeffs)
        return TrigPolynomial(f.group, f.step, f.shifts, coeffs, f.lattice)
    if isinstance(f, CosetPiecewise):
        pieces = tuple((d, complex(v) * factor) for d, v in f.pieces)
        return CosetPiecewise(f.dual, pieces, f.domain, f.lattice)
    raise FilterVariantError(f"cannot scale {type(f).__name__}")


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

    The exact Gram residual is evaluated again at each point of an exhaustive
    plan; the flag is true only if every point had one.
    """
    res = pointwise_residuals(P, plan.points)
    exact = plan.exact
    if plan.exact:
        for i, g in enumerate(plan.points.tolist()):
            w2 = _gram_residual_exact(P, g)
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
    exact = plan.exact
    if plan.exact:
        for i, g in enumerate(pts.tolist()):
            he = h.eval_exact(g)
            diff = None if he is None else gk.hat_exact(g).add(-he.mul(gk1.hat_exact(g)))
            if diff is None:
                exact = False
            else:
                res[i] = float(diff.abs2()) ** 0.5
    return res, exact
