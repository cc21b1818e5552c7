"""Verification suites: every certified condition of a frame system as a report entry.

`run_verification` runs the requested suite and returns one entry per check.
Each entry names the condition it certifies and carries its status (`pass`,
`fail` or `skip`), and, where the check measures one, the residual and the
tolerance it was held to.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import charfun as cf
from . import domains
from . import frame as fr
from .bspline import bspline_hat, refinement_residual
from .domains import Ball, IntegerInterval
from .exceptions import UncertifiedLevelError
from .filters import dual_sampling_plan, verify_uep, worst_residual
from .functions import random_test_function
from .groups import CYCLIC, EUCLIDEAN, INTEGERS, TORUS

COND_UEP = "uep-gram-identity"
COND_REFINE = "refinement-transfer"
COND_FIBER = "fiber-sum-identity"
COND_TELESCOPE = "level-telescoping"
COND_PARSEVAL = "parseval-bound-one"
COND_LIMIT = "limit-normalization"
COND_DISJOINT = "translate-disjointness"

ALL_CONDITIONS = (
    COND_UEP,
    COND_REFINE,
    COND_FIBER,
    COND_TELESCOPE,
    COND_PARSEVAL,
    COND_LIMIT,
    COND_DISJOINT,
)

SUITES = ("uep", "refinement", "fiber", "telescope", "parseval", "all")


def _entry(cond, status, *, level=None, residual=None, tolerance=None, detail=None, **extra):
    out = {"condition": cond, "status": status}
    if level is not None:
        out["level"] = level
    if residual is not None:
        out["residual"] = residual
    if tolerance is not None:
        out["tolerance"] = tolerance
    if detail:
        out["detail"] = detail
    out.update(extra)
    return out


def _measured(cond, residual: float, tol: float, **extra) -> dict:
    """An entry that passes when the residual is within the tolerance; a NaN fails."""
    status = "pass" if residual <= tol else "fail"
    return _entry(cond, status, residual=residual, tolerance=tol, **extra)


def run_verification(system: fr.FrameSystem, suite: str, samples: int, trials: int | None, seed: int, tol: float):
    """All requested checks; each entry names the condition it certifies."""
    entries = []
    chain = system.chain
    kind = chain.group.kind
    n_random = min(1024, max(16, samples // 4))
    plans = {}
    if suite in ("uep", "refinement", "all"):
        for lf in system.level_filters:
            plans[lf.k] = dual_sampling_plan(chain, lf.k, grid=samples, random=n_random, seed=seed)
    if suite in ("uep", "all"):
        for lf in system.level_filters:
            rep = verify_uep(system.uep_matrix(lf.k), plans[lf.k])
            entries.append(
                _measured(
                    COND_UEP,
                    rep.residual,
                    tol,
                    level=lf.k,
                    exact=rep.exact,
                    samples=rep.samples,
                    worst_point=repr(rep.worst_point),
                )
            )
    if suite in ("refinement", "all"):
        for lf in system.level_filters:
            if system.family["type"] == "bspline":
                res = refinement_residual(chain, lf.k, system.family["order"], plans[lf.k])
            else:
                res = cf.indicator_refinement_residual(system.band, lf.k, plans[lf.k])
            entries.append(_measured(COND_REFINE, res, tol, level=lf.k))
    if suite in ("fiber", "all"):
        if kind == CYCLIC:
            entries.append(_measured(COND_FIBER, _fiber_suite(system, seed), tol))
        else:
            entries.append(_entry(COND_FIBER, "skip", detail="fiber oracle runs on finite groups"))
    if suite in ("telescope", "all"):
        if kind in (INTEGERS, CYCLIC) or (kind == TORUS and system.family["type"] == "charfun"):
            try:
                res = _telescope_suite(system, 20 if trials is None else trials, seed)
                entries.append(_measured(COND_TELESCOPE, res, tol))
            except UncertifiedLevelError as exc:
                entries.append(_entry(COND_TELESCOPE, "fail", detail=str(exc)))
        else:
            entries.append(_entry(COND_TELESCOPE, "skip", detail="out of desk-scale scope for this group"))
    if suite in ("parseval", "all"):
        entries.extend(_parseval_suite(system, 100 if trials is None else trials, seed, tol))
    if suite == "all":
        entries.extend(_condition_suite(system, samples, seed, tol))
    status = "fail" if any(e["status"] == "fail" for e in entries) else "pass"
    return entries, status


def _fiber_suite(system, seed, count: int = 50) -> float:
    rng = np.random.default_rng(seed)
    chain = system.chain
    n = chain.group.modulus
    residuals = []
    for _ in range(count):
        k = int(rng.integers(chain.k0, chain.k1 + 1))
        lat = chain.level(k).lattice
        F = random_test_function(chain.dual, (0, n - 1), rng)
        Phi = random_test_function(chain.dual, (0, n - 1), rng)
        lhs, rhs = fr.fiber_identity_sides(lat, chain.level(k).domain_v, F, Phi)
        residuals.append(abs(lhs - rhs) / (1 + abs(lhs)))
    return worst_residual(residuals)[0]


def _test_window(system) -> tuple[int, int]:
    chain = system.chain
    if chain.group.kind == CYCLIC:
        return (0, chain.group.modulus - 1)
    if chain.group.kind == INTEGERS:
        return (0, 20)
    lo, hi = system.band.exhaustion_target.lo, system.band.exhaustion_target.hi
    return (int(lo), int(hi))


def _telescope_suite(system, trials: int, seed: int) -> float:
    """Worst telescoping gap over seeded trials; each level is certified once."""
    for lf in system.level_filters:
        fr.ensure_certified(system, lf.k)
    rng = np.random.default_rng(seed)
    group = system.chain.group if system.chain.group.kind != TORUS else system.chain.dual
    window = _test_window(system)
    gaps = []
    for _ in range(trials):
        f = random_test_function(group, window, rng)
        gaps.extend(fr._energy_gap(system, lf.k, f) for lf in system.level_filters)
    return worst_residual(gaps)[0]


def _parseval_suite(system, trials: int, seed: int, tol: float) -> list:
    chain = system.chain
    kind = chain.group.kind
    if kind == EUCLIDEAN:
        return [_entry(COND_PARSEVAL, "skip", detail="out of desk-scale scope for Euclidean groups")]
    if kind == TORUS and system.family["type"] != "charfun":
        return [
            _entry(
                COND_PARSEVAL,
                "skip",
                detail="out of desk-scale scope: no finitely supported transform side",
            )
        ]
    rng = np.random.default_rng(seed)
    group = chain.group if kind != TORUS else chain.dual
    window = _test_window(system)
    residuals = [fr.parseval_residual(system, random_test_function(group, window, rng)) for _ in range(trials)]
    entries = [_measured(COND_PARSEVAL, worst_residual(residuals)[0], tol, trials=trials)]
    if kind == CYCLIC:
        S = fr.frame_operator(system)
        dev = float(np.max(np.abs(S - np.eye(S.shape[0]))))
        entries.append(_measured(COND_PARSEVAL, dev, tol, detail="frame operator vs identity"))
    return entries


def _condition_suite(system, samples: int, seed: int, tol: float) -> list:
    """Deep-level normalization and translate-disjointness spot checks."""
    chain = system.chain
    entries = []
    K = system.k1
    mu_v = float(chain.dual_cell_measure(K))
    plan = dual_sampling_plan(chain, K, grid=min(samples, 512), random=128, seed=seed)
    if system.family["type"] == "charfun":
        pts = plan.points[domains.contains_many(system.band.exhaustion_target, plan.points, chain.dual)]
        values = cf.indicator_generator(system.band, K).hat_many(pts)
        worst = worst_residual(np.abs(mu_v * np.abs(values) ** 2 - 1))[0]
        entries.append(_measured(COND_LIMIT, worst, tol, level=K))
    elif chain.group.kind in (INTEGERS, CYCLIC):
        # the deep-level window is a single point, so the spectrum is flat
        values = bspline_hat(chain, K, system.family["order"], plan.points)
        worst = worst_residual(np.abs(mu_v * np.abs(values) ** 2 - 1))[0]
        entries.append(_measured(COND_LIMIT, worst, tol, level=K))
    else:
        entries.append(
            _entry(
                COND_LIMIT,
                "skip",
                detail="holds only in the infinite-depth limit for splines on this group",
            )
        )
    ann = chain.level(K).annihilator
    if system.family["type"] == "charfun":
        s_dom = system.band.exhaustion_target
    else:
        s_dom = chain.level(K).domain_v
    overlap = _translate_overlap(s_dom, ann, chain.dual)
    entries.append(
        _entry(
            COND_DISJOINT,
            "pass" if not overlap else "fail",
            level=K,
            detail="windowed annihilator translates of the deep-level support are disjoint",
        )
    )
    return entries


def _translate_overlap(s_dom, ann, dual) -> bool:
    """Whether any nonzero windowed annihilator translate of s_dom meets it."""
    if ann.is_finite:
        shifts = [w for w in ann.points() if domains.coords(w) != tuple(0 for _ in ann.step)]
    else:
        shifts = []
        for js in itertools.product(range(-2, 3), repeat=len(ann.step)):
            if all(j == 0 for j in js):
                continue
            w = tuple(j * Fraction(s) for j, s in zip(js, ann.step))
            shifts.append(w if len(w) > 1 else w[0])
    lo, hi = domains.bounds(s_dom)
    for w in shifts:
        cs = [Fraction(c) for c in domains.coords(w)]
        if isinstance(s_dom, Ball):
            if sum(c * c for c in cs) <= 4 * s_dom.radius**2:
                return True
        elif isinstance(s_dom, IntegerInterval):
            if abs(cs[0]) <= hi[0] - lo[0]:
                return True
        else:  # half-open boxes: positive-measure overlap
            if all(abs(c) < b - a for c, a, b in zip(cs, lo, hi)):
                return True
    return False
