"""Verification suites: every certified condition of a frame system as a report entry.

`run_verification` runs the requested suite and returns one entry per check.
Each entry names the condition it certifies and carries its status (`pass`,
`fail` or `skip`), and, where the check measures one, the residual and the
tolerance it was held to.

A run builds each shared input when a check first reads it, and no other:
each level's sampling plan (band refinement at level k reads level k+1's on
every dual), the UEP reports of every level (the UEP entries, and the telescope
reads them as its certification) and one energy table (telescope and parseval).
"""

from __future__ import annotations

from functools import cache, partial
from random import Random

import numpy as np

from . import charfun as cf
from . import domains
from . import frame as fr
from .bspline import refinement_bound, refinement_residual
from .chains import MAX_POINTS
from .filters import dual_sampling_plan, verify_uep, worst_residual
from .functions import uniform
from .lattices import cyclic_annihilator

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
    selected = SUITES[:-1] if suite == "all" else (suite,)
    # telescope and parseval need a side where every generator has finite values
    side = fr._default_side(system)
    no_side = "out of desk-scale scope: no side where every generator is finite"
    n_tel, n_par = (20, 100) if trials is None else (trials, trials)

    @cache
    def plan(k):
        n_random = min(1024, max(16, samples // 4))
        return dual_sampling_plan(chain, k, grid=samples, random=n_random, seed=seed)

    @cache
    def reports():
        return {lf.k: verify_uep(system.uep_matrix(lf.k), partial(plan, lf.k)) for lf in system.level_filters}

    @cache
    def energies():  # (worst Parseval residual, worst relative telescope gap); the telescope reads the first trials
        tel_rows = n_tel if "telescope" in selected else 0
        parseval, gaps, done = [], [], 0
        for start, F in _test_functions(system, side, n_par if "parseval" in selected else n_tel, seed):
            rows = max(0, tel_rows - done)
            E, n2 = fr._energy_table(system, side, start, F, scaling_rows=rows)
            parseval.append(fr._parseval_of(system, E, n2))
            gaps += [fr._gaps_of(system, lf.k, E[:rows], n2) for lf in system.level_filters]
            done += len(F)
        return worst_residual(np.concatenate(parseval))[0], worst_residual(np.concatenate(gaps))[0]

    if "uep" in selected:
        for k, rep in reports().items():
            entry = rep.to_json()
            entries.append(_measured(COND_UEP, entry.pop("residual"), tol, level=k, **entry))
    if "refinement" in selected:
        for lf in system.level_filters:
            if system.family["type"] == "charfun":  # over V_{k+1}, the period of h, not only its coset V_k
                res, how = cf.indicator_refinement_residual(system.band, lf.k, plan(lf.k + 1), lf.h), {}
            elif (res := refinement_bound(chain, lf.k, system.family["order"], lf.h)) is not None:
                how = {"method": "coefficients"}
            else:
                res, how = refinement_residual(chain, lf.k, system.family["order"], plan(lf.k), lf.h), {}
            entries.append(_measured(COND_REFINE, res, tol, level=lf.k, **how))
    if "fiber" in selected:
        if chain.group.is_finite:
            entries.append(_fiber_entry(chain))
        else:
            entries.append(_entry(COND_FIBER, "skip", detail="fiber oracle runs on finite groups"))
    if "telescope" in selected:
        if side is None:
            entries.append(_entry(COND_TELESCOPE, "skip", detail=no_side))
        else:
            failures = [fr.certification_failure(k, rep, tol) for k, rep in reports().items()]
            if any(failures):
                entries.append(_entry(COND_TELESCOPE, "fail", detail=next(filter(None, failures))))
            else:
                entries.append(_measured(COND_TELESCOPE, energies()[1], tol))
    if "parseval" in selected:
        if side is None:
            entries.append(_entry(COND_PARSEVAL, "skip", detail=no_side))
        else:
            entries.append(_measured(COND_PARSEVAL, energies()[0], tol, trials=n_par))
            if chain.group.is_finite:  # ||S - I||_F >= max |S - I| for the frame operator S
                detail = "frame operator vs identity: Frobenius norm from Fourier blocks"
                entries.append(_measured(COND_PARSEVAL, fr._frame_residual(system), tol, detail=detail))
    if suite == "all":
        entries.extend(_condition_suite(system))
    status = "fail" if any(e["status"] == "fail" for e in entries) else "pass"
    return entries, status


def _fiber_entry(chain) -> dict:
    """The fiber-sum identity on Z_N, decided exactly at every level, with no seed or trial.

    It holds for every F and Phi iff V_k holds one point of each residue modulo the annihilator's step.
    """
    broken = []
    for lvl in chain.levels:
        step = int(cyclic_annihilator(lvl.lattice).step[0])
        pts = np.fromiter(domains.iter_points(lvl.domain_v, chain.dual), dtype=np.int64)
        if not np.all(np.bincount(pts % step, minlength=step) == 1):
            broken.append(lvl.k)
    if broken:
        detail = f"V_k not a fundamental domain of the annihilator at levels {', '.join(map(str, broken))}"
        return _entry(COND_FIBER, "fail", method="exact-domain", detail=detail)
    detail = f"V_k a fundamental domain of the annihilator at levels {chain.k0}..{chain.k1}"
    return _entry(COND_FIBER, "pass", method="exact-domain", detail=detail)


def _test_window(system) -> tuple[int, int]:
    chain = system.chain
    if chain.group.is_finite:
        return (0, chain.group.modulus - 1)
    if chain.group.is_discrete:
        return (0, 20)
    lo, hi = system.band.exhaustion_target.lo, system.band.exhaustion_target.hi
    return (int(lo), int(hi))


def _test_functions(system, side: str, trials: int, seed: int):
    """(start, F) blocks of seeded test functions on the analysis side, one per row of F.

    The rows are drawn in order from one generator, and each block holds at
    most `chains.MAX_POINTS` complex entries (at least one row), so memory
    does not grow with the number of trials.
    """
    rng = Random(seed)
    lo, hi = _test_window(system)
    width = hi - lo + 1
    rows = max(1, MAX_POINTS // width)
    for first in range(0, trials, rows):
        yield lo, uniform(rng, (min(rows, trials - first), width, 2)).view(complex)[..., 0]


def _condition_suite(system) -> list:
    """Deep-level normalization and translate-disjointness, both decided exactly.

    Phi_K is flat, of modulus scale_K, on a target inside Omega_K (bands) or
    when Q_K is one point (splines on Z and Z_N), and normalized iff mu(V_K)
    scale_K^2 = 1.  Annihilator translates of a set inside V_K are disjoint.
    """
    chain, K = system.chain, system.k1
    s_dom = system.band.exhaustion_target if system.family["type"] == "charfun" else chain.level(K).domain_v
    inside = domains.is_subset(s_dom, chain.level(K).domain_v, chain.dual)
    detail = "deep-level support inside V_K, a fundamental domain of the annihilator"
    disjoint = _entry(COND_DISJOINT, "pass" if inside else "fail", level=K, detail=detail)
    if system.family["type"] == "charfun":
        fact, flat = "target inside Omega_K", domains.is_subset(s_dom, system.band.omega(K), chain.dual)
        scale2 = cf.indicator_generator(system.band, K).scale.abs2()
    elif chain.group.is_discrete:
        fact, flat = "Q_K one point", chain.density(K) == chain.group.point_mass
        scale2 = chain.density(K) ** (1 - 2 * system.family["order"])
    else:
        return [_entry(COND_LIMIT, "skip", detail="holds only in the infinite-depth limit for splines on this group"), disjoint]
    unit = chain.dual_cell_measure(K) * scale2 == 1
    detail = f"{fact}: {flat}; mu(V_K) scale_K^2 = 1: {unit}"
    return [_entry(COND_LIMIT, "pass" if flat and unit else "fail", level=K, detail=detail), disjoint]
