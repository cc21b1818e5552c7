"""Exact certificates read from value keys, against the per-point oracles."""

import dataclasses
import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lcaframes import charfun, filters
from lcaframes.bspline import refinement_filter
from lcaframes.chains import cyclic_chain, euclidean_chain, torus_chain
from lcaframes.charfun import (
    band_chain_balls,
    band_chain_cyclic,
    band_chain_torus,
    full_band_chain,
    indicator_generator,
    indicator_refinement_filter,
    indicator_refinement_residual,
)
from lcaframes.cli import main
from lcaframes.exact import radical
from lcaframes.filters import (
    NO_EXACT,
    SamplingPlan,
    assemble_uep,
    dual_sampling_plan,
    exact_residuals,
    verify_uep,
    worst_residual,
)
from lcaframes.frame import build_bspline_system, build_charfun_system
from oracles import indicator_refinement_per_point, refinement_exact, uep_per_point, uep_values_exact

SYSTEMS = {
    "z8-shannon": lambda: build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon"),
    "z8-band": lambda: build_charfun_system(band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7]), "proper", k0=1),
    "z64-band": lambda: build_charfun_system(band_chain_cyclic(cyclic_chain(6), [0, 1, 2, 3, 4, 5, 63]), "proper", k0=2),
    "t-shannon": lambda: build_charfun_system(full_band_chain(torus_chain([2, 3, 2, 2])), "shannon"),
    "t-band": lambda: build_charfun_system(band_chain_torus(torus_chain([2, 3, 2]), [0, 1, 3]), "proper"),
    "z16-spline-1": lambda: build_bspline_system(cyclic_chain(4), 1),
    "z16-spline-2": lambda: build_bspline_system(cyclic_chain(4), 2),
    "z256-spline-4": lambda: build_bspline_system(cyclic_chain(8), 4),
    "t-spline-2": lambda: build_bspline_system(torus_chain([2, 2, 2]), 2),
}

# exact Gram evaluations in `verify --suite all` on the benchmark's discrete-dual systems
GRAM_CALLS = {"z256-spline": 3, "z64-band": 8, "t-shannon": 3}
MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "manifest.json").read_text())


def assert_uep_matches_oracle(P, plan):
    assert_values_match_oracle(P, plan)
    report = verify_uep(P, plan)
    res, exact = uep_per_point(P, plan)
    worst, i = worst_residual(res)
    assert report.exact == exact
    if exact:
        assert report.residual == worst and report.worst_point == plan.point(i)
        keyed = exact_residuals(P.exact_keys(plan.points), partial(filters._gram_residual_exact, P))
        assert keyed.tolist() == res.tolist()  # point by point, not only the worst
    elif report.samples:  # sampled in floats at every point, where the oracle mixes in exact values
        assert report.residual == pytest.approx(worst, rel=1e-12, abs=1e-15)
    else:  # a coefficient bound holds at every point, up to float rounding
        assert report.residual + 1e-12 >= worst
    return report


def assert_refinement_matches_oracle(band, k, plan, h=None):
    assert_refinement_values_match_oracle(band, k, plan, indicator_refinement_filter(band, k) if h is None else h)
    res, _ = indicator_refinement_per_point(band, k, plan, h)
    got = indicator_refinement_residual(band, k, plan, h)
    assert got == worst_residual(res)[0]
    return got


def assert_values_match_oracle(P, plan):
    """The matrix read from each point's key equals the oracle's, entry by entry, not only the residuals."""
    keys = P.exact_keys(plan.points)
    assert keys is not None and len(keys) == len(plan.points)
    for key, gamma in zip(keys, plan.points.tolist()):
        assert P.exact_values(key) == uep_values_exact(P, gamma)


def assert_refinement_values_match_oracle(band, k, plan, h):
    """Phi_k - H Phi_{k+1} read from each point's key equals the oracle's."""
    gk, gk1 = indicator_generator(band, k), indicator_generator(band, k + 1)
    pts = plan.points
    keys = np.column_stack([h.exact_keys(pts), gk.hat_many(pts) != 0, gk1.hat_many(pts) != 0])
    for key, gamma in zip(keys, pts.tolist()):
        assert charfun._refinement_exact(h, gk, gk1, key) == refinement_exact(band, k, h, gamma)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_keyed_pass_matches_per_point_oracle(name):
    system = SYSTEMS[name]()
    for lf in system.level_filters:
        plan = dual_sampling_plan(system.chain, lf.k)
        assert_uep_matches_oracle(system.uep_matrix(lf.k), plan)
        if system.band is not None:
            assert assert_refinement_matches_oracle(system.band, lf.k, plan) == 0.0


def test_keyed_pass_matches_oracle_on_duplicate_row():
    chain = cyclic_chain(3)
    h = refinement_filter(chain, 0, 1)
    report = assert_uep_matches_oracle(assemble_uep(chain, 0, h, [h]), SamplingPlan((0,), "origin"))
    assert report.exact and report.residual == pytest.approx(2.0, abs=1e-12)


def _with_piece_value(f, i, value):
    pieces = list(f.pieces)
    pieces[i] = (pieces[i][0], value)
    return dataclasses.replace(f, pieces=tuple(pieces))


@pytest.mark.parametrize(
    "value, exact", [(radical(1), True), (1 + 0j, False)], ids=["radical", "float"]
)
def test_keyed_pass_matches_oracle_on_corrupted_piece_value(value, exact):
    band = band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7])
    system = build_charfun_system(band, "proper", k0=1)
    lf = system.filters_at(1)
    plan = dual_sampling_plan(system.chain, 1)
    broken = assemble_uep(system.chain, 1, lf.h, [_with_piece_value(lf.gs[0], 0, value), *lf.gs[1:]])
    report = assert_uep_matches_oracle(broken, plan)
    assert report.exact == exact and report.residual > 0.1
    h = _with_piece_value(indicator_refinement_filter(band, 1), 0, value)
    assert assert_refinement_matches_oracle(band, 1, plan, h) > 0.1


def test_refinement_keys_see_band_membership():
    # a lowpass from another band is constant where Omega_1 is not
    band = band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7])
    h = indicator_refinement_filter(band_chain_cyclic(cyclic_chain(3), [0, 1, 1, 7]), 1)
    plan = dual_sampling_plan(band.chain, 1)
    assert h.exact_keys(plan.points).ravel().tolist() == [0, 0]
    assert assert_refinement_matches_oracle(band, 1, plan, h) > 0.1


def test_keyed_pass_matches_oracle_on_corrupted_coefficient():
    # residuals differ from point to point, so a key that drops a quarter turn shows
    system = build_bspline_system(cyclic_chain(4), 2)
    for lf in system.level_filters:
        h = dataclasses.replace(lf.h, coeffs=(radical(Fraction(1, 2), 0, 2), *lf.h.coeffs[1:]))
        plan = dual_sampling_plan(system.chain, lf.k)
        report = assert_uep_matches_oracle(assemble_uep(system.chain, lf.k, h, lf.gs), plan)
        assert report.residual > 0.1


def test_one_non_quarter_turn_point_bounds_the_level_from_coefficients():
    system = build_bspline_system(cyclic_chain(4), 2)
    P = system.uep_matrix(2)
    assert verify_uep(P, SamplingPlan((0,), "quarter turns")).exact
    keys = P.exact_keys([0, 1])
    assert not (keys[0] == NO_EXACT).any() and (keys[1] == NO_EXACT).any()
    report = verify_uep(P, SamplingPlan((0, 1), "one point off the quarter turns"))
    assert not report.exact and report.samples == 0 and report.residual <= 1e-12


def test_piecewise_keys_mark_values_without_exact_form():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    h = indicator_refinement_filter(band, 1)
    assert h.exact_keys([0, 1, 2, 3]).ravel().tolist() == [0, 0, -1, -1]
    assert _with_piece_value(h, 0, 1.0).exact_keys([0, 2]).ravel().tolist() == [NO_EXACT, -1]
    # exactness comes from the dual: on a continuous one the keys are not tried
    balls = build_charfun_system(band_chain_balls(euclidean_chain([[2, 2], [2, 2]]), ["1/4", "1/2"]), "proper")
    report = verify_uep(balls.uep_matrix(0), dual_sampling_plan(balls.chain, 0, grid=64, random=16))
    assert not report.exact and report.residual <= 1e-12


@pytest.mark.parametrize("name", sorted(GRAM_CALLS))
def test_exact_gram_runs_once_per_distinct_key(tmp_path, monkeypatch, name):
    dpath, spath = tmp_path / "desc.json", tmp_path / "system.json"
    dpath.write_text(json.dumps(MANIFEST[name]["descriptor"]))
    assert main(["construct", "--descriptor", str(dpath), "--out", str(spath)]) == 0
    calls = []
    gram = filters._gram_residual_exact
    monkeypatch.setattr(filters, "_gram_residual_exact", lambda *a: calls.append(a) or gram(*a))
    assert main(["verify", str(spath), "--suite", "all"]) == 0
    assert len(calls) == GRAM_CALLS[name]
