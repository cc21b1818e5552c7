"""Periodic filters, the coset-evaluation matrix, and its verification."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcaframes.bspline import refinement_filter, wavelet_filters
from lcaframes.chains import cyclic_chain, euclidean_chain, integer_chain, torus_chain
from lcaframes.charfun import (
    band_chain_cyclic,
    bandlimited_wavelet_filters,
    full_band_chain,
    indicator_refinement_filter,
    orthonormal_wavelet_filters,
)
from lcaframes.domains import shift_points
from lcaframes.exact import radical
from lcaframes.exceptions import EmptySamplingPlanError, PeriodicityMismatchError
from lcaframes.filters import (
    SamplingPlan,
    TrigPolynomial,
    assemble_uep,
    coefficient_residual,
    dual_sampling_plan,
    filter_from_json,
    filter_to_json,
    pointwise_residuals,
    verify_uep,
)
from lcaframes.frame import build_bspline_system
from lcaframes.groups import element_scale
from lcaframes.verify import run_verification
from oracles import entrywise_residual, scale_filter, trig_values

RT2 = math.sqrt(2)


@pytest.fixture
def zchain():
    return integer_chain(3)


@pytest.fixture
def z8chain():
    return cyclic_chain(3)


def haar_pair(chain, k):
    return refinement_filter(chain, k, 1), wavelet_filters(chain, k, 1)


def test_trig_sum_of_coefficients(zchain):
    h = refinement_filter(zchain, 0, 1)
    assert abs(h.eval(0) - RT2) < 1e-15


def test_trig_periodicity(zchain):
    h = refinement_filter(zchain, 1, 2)
    # periodicity lattice of level 2 is steps of 1/2
    for gamma in (0.1, 0.37, Fraction(3, 16)):
        for j in (1, 2, 5):
            omega = Fraction(j, 2)
            assert abs(h.eval(gamma + omega) - h.eval(gamma)) < 1e-12


def test_piecewise_value_on_band(z8chain):
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    h = indicator_refinement_filter(band, 1)
    assert h.eval(0) == RT2 and h.eval(1) == RT2
    assert h.eval(2) == 0 and h.eval(3) == 0
    # periodic extension beyond the refined cell
    assert h.eval(4) == RT2 and h.eval(6) == 0


def test_mask_coefficients_round_trip(zchain):
    h = refinement_filter(zchain, 0, 2)
    assert h.step == zchain.splitter(0)
    assert h.shifts == (0, 1, 2)
    assert np.allclose([complex(c) for c in h.coeffs], [2**-1.5, 2**-0.5, 2**-1.5])
    g1, g2 = wavelet_filters(zchain, 0, 2)
    assert g1.shifts == (0, 2) and np.allclose([complex(c) for c in g1.coeffs], [0.5, -0.5])
    assert np.allclose([complex(c) for c in g2.coeffs], [2**-1.5, -(2**-0.5), 2**-1.5])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False), min_size=1, max_size=5))
def test_mask_rebuild_matches_eval(coeffs):
    chain = integer_chain(3)
    lattice = chain.level(1).annihilator
    f = TrigPolynomial(chain.group, chain.splitter(0), tuple(range(len(coeffs))), tuple(coeffs), lattice)
    rebuilt = TrigPolynomial(chain.group, f.step, f.shifts, tuple(complex(c) for c in f.coeffs), lattice)
    rng = np.random.default_rng(7)
    for gamma in rng.random(20):
        assert abs(f.eval(gamma) - rebuilt.eval(gamma)) < 1e-12


def test_assemble_haar_matrix_at_zero(zchain):
    h, gs = haar_pair(zchain, 0)
    P = assemble_uep(zchain, 0, h, gs)
    assert np.allclose(P.eval_many(0)[0], RT2 * np.eye(2))


def test_assemble_checks_periodicity(zchain):
    h, gs = haar_pair(zchain, 0)
    with pytest.raises(PeriodicityMismatchError):
        assemble_uep(zchain, 1, h, gs)  # level-0 filters bound at level 1
    with pytest.raises(PeriodicityMismatchError):
        assemble_uep(zchain, 0, h, [])


def test_shannon_matrix_is_scaled_identity(z8chain):
    band = full_band_chain(z8chain)
    for k in range(3):
        P = assemble_uep(
            z8chain, k, indicator_refinement_filter(band, k), orthonormal_wavelet_filters(band, k)
        )
        mats = P.eval_many(np.arange(2**k))
        assert mats.shape == (2**k, 2, 2)
        for m in mats:
            assert np.array_equal(m, RT2 * np.eye(2))


def test_verify_uep_haar_grid(zchain):
    h, gs = haar_pair(zchain, 0)
    P = assemble_uep(zchain, 0, h, gs)
    plan = dual_sampling_plan(zchain, 0, grid=4096, random=1024)
    report = verify_uep(P, plan)
    assert report.residual <= 1e-12
    assert not report.exact
    # bounded from the coefficients, so no plan point is evaluated
    assert report.samples == 0 and report.to_json() == {"residual": report.residual, "exact": False, "method": "coefficients"}


def test_verify_uep_shannon_exact_zero(z8chain):
    band = full_band_chain(z8chain)
    P = assemble_uep(
        z8chain, 1, indicator_refinement_filter(band, 1), orthonormal_wavelet_filters(band, 1)
    )
    report = verify_uep(P, dual_sampling_plan(z8chain, 1))
    assert report.residual == 0.0
    assert report.exact


def test_verify_uep_invalid_duplicate_row(z8chain):
    h, _ = haar_pair(z8chain, 0)
    P = assemble_uep(z8chain, 0, h, [h])
    plan = SamplingPlan((0,), "origin")
    report = verify_uep(P, plan)
    assert report.exact and report.residual == pytest.approx(2.0, abs=1e-12)


def test_verify_uep_empty_plan():
    with pytest.raises(EmptySamplingPlanError):
        SamplingPlan((), "empty")


def test_entrywise_matches_matrix_residual(zchain):
    # the batched Gram residual against the entrywise oracle, point by point
    rng = np.random.default_rng(3)
    gammas = rng.random(50)
    for order in (1, 2):
        P = assemble_uep(zchain, 1, refinement_filter(zchain, 1, order), wavelet_filters(zchain, 1, order))
        for dead in (False, True):  # a broken wavelet row gives large residuals
            if dead:
                P = assemble_uep(zchain, 1, P.rows[0], [scale_filter(g, 0.5) for g in P.rows[1:]])
            batched = pointwise_residuals(P, gammas)
            oracle = np.array([entrywise_residual(P, g) for g in gammas])
            assert np.max(np.abs(batched - oracle)) < 1e-12


def _residuals_periodic(P, shifts, plan, tol=1e-12) -> bool:
    """Gram residuals agree at gamma and gamma + shift for level-k annihilator shifts."""
    ann = P.chain.level(P.k).annihilator
    base = pointwise_residuals(P, plan.points)
    for shift in shifts:
        assert ann.contains(shift)
        moved = pointwise_residuals(P, shift_points(plan.points, shift, P.chain.dual))
        if np.max(np.abs(base - moved)) > tol:
            return False
    return True


def test_periodic_extension_haar(zchain):
    h, gs = haar_pair(zchain, 0)
    P = assemble_uep(zchain, 0, h, gs)
    plan = dual_sampling_plan(zchain, 0, grid=128, random=32)
    nu = zchain.cosets(0)[1]
    assert _residuals_periodic(P, [nu, Fraction(0)], plan)
    # shifts from the coarser annihilator are also fine
    assert _residuals_periodic(P, [Fraction(2, 8)], plan)


def test_periodic_extension_cyclic(z8chain):
    band = full_band_chain(z8chain)
    P = assemble_uep(
        z8chain, 1, indicator_refinement_filter(band, 1), orthonormal_wavelet_filters(band, 1)
    )
    plan = dual_sampling_plan(z8chain, 1)
    assert _residuals_periodic(P, [2, 4, 6], plan)
    assert not P.chain.level(1).annihilator.contains(1)


@pytest.mark.parametrize("order", [1, 2, 4])
def test_built_filters_are_periodic(zchain, order):
    # sample-based periodicity sweep for the spline masks
    h = refinement_filter(zchain, 1, order)
    rng = np.random.default_rng(11)
    gammas = rng.random(2500)
    step = zchain.level(2).annihilator.step[0]
    for j in (1, 3, 5, 7, 2, 4, 6, 8):
        omega = float(j * step)
        base = h.eval_many(gammas)
        moved = h.eval_many(gammas + omega)
        assert np.max(np.abs(base - moved)) <= 1e-12


def test_piecewise_filter_periodicity_exhaustive(z8chain):
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    h = indicator_refinement_filter(band, 1)
    for gamma in range(8):
        for omega in (4,):  # level-2 annihilator of Z_8
            assert h.eval((gamma + omega) % 8) == h.eval(gamma)


def test_filter_json_round_trip(zchain, z8chain):
    h = refinement_filter(zchain, 0, 2)
    data = filter_to_json(h)
    back = filter_from_json(data, zchain, 0)
    assert back == h
    band = full_band_chain(z8chain)
    hc = indicator_refinement_filter(band, 1)
    back2 = filter_from_json(filter_to_json(hc), z8chain, 1)
    assert back2 == hc


def _exact(re, rad="1"):
    return {"exact": {"re": re, "im": "0", "rad": rad}}


def _interval(lo, hi, shifts=None):
    box = {"kind": "integer_interval", "lo": lo, "hi": hi}
    return box if shifts is None else {"kind": "coset_union", "base": box, "shifts": shifts}


def test_filter_json_states_each_value_once():
    # a Radical is stored in its exact form only, any other value as floats only
    h = refinement_filter(integer_chain(2), 0, 2)
    assert filter_to_json(h) == {
        "kind": "trig", "eta": 2, "shifts": [0, 1, 2], "coeffs": [_exact("1/4", "2"), _exact("1/2", "2"), _exact("1/4", "2")],
    }
    assert filter_to_json(scale_filter(h, 0.5))["coeffs"][1] == {"re": 0.5 * RT2 / 2, "im": 0.0}
    g = bandlimited_wavelet_filters(band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7]), 1)[0]
    assert filter_to_json(g) == {
        "kind": "piecewise",
        "pieces": [
            {"domain": _interval(0, 0, [2]), "value": _exact("1", "2")},
            {"domain": _interval(0, 0, [0]), "value": _exact("0")},
            {"domain": _interval(0, 1, [0]), "value": _exact("1", "2")},
        ],
    }


def test_scale_filter_zeroes(zchain):
    h, gs = haar_pair(zchain, 0)
    dead = scale_filter(gs[0], 0.0)
    assert dead.eval(0.3) == 0


def test_exact_values_survive_json(z8chain):
    band = full_band_chain(z8chain)
    h = indicator_refinement_filter(band, 1)
    back = filter_from_json(filter_to_json(h), z8chain, 1)
    got = back.eval_exact(back.exact_keys(np.array([0]))[0])
    assert got == radical(1, 0, 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_verify_uep_reports_non_finite_residual(bad):
    # a corrupted refinement filter must never certify as a 0.0 residual
    chain = integer_chain(4)
    h = scale_filter(refinement_filter(chain, 1, 2), bad)
    P = assemble_uep(chain, 1, h, wavelet_filters(chain, 1, 2))
    report = verify_uep(P, dual_sampling_plan(chain, 1, grid=256, random=64))
    assert not math.isfinite(report.residual)
    assert not report.residual <= 1e-12


# one float-sampled spline level per group: Z, Z_N off the quarter turns, T (rational steps) and R^1
SPLINE_LEVELS = {
    "z10-spline": (lambda: build_bspline_system(integer_chain(10), 2), 3),
    "z256-spline": (lambda: build_bspline_system(cyclic_chain(8), 4), 4),
    "t-spline": (lambda: build_bspline_system(torus_chain([2, 2, 2, 2]), 2), 1),
    "r1-spline": (lambda: build_bspline_system(euclidean_chain([[2, 2, 2]]), 2), 1),
}


def _mixed_steps(P):
    """P with rows of different steps and shift sets, negative shifts among them."""
    h = P.rows[0]
    tripled = TrigPolynomial(h.group, element_scale(h.group, 3, h.step), (-1, 4), (0.5 + 0.25j, -0.75), h.lattice)
    spread = TrigPolynomial(h.group, h.step, (-3, -1, 0, 2), (1j, 0.5, -0.25, 0.125 - 1j), h.lattice)
    return assemble_uep(P.chain, P.k, h, [tripled, spread])


@pytest.mark.parametrize("edit", [None, _mixed_steps], ids=["built", "mixed-steps"])
@pytest.mark.parametrize("name", sorted(SPLINE_LEVELS))
def test_uep_values_match_per_character_oracle(name, edit):
    # the shared character table against sum_j c_j e^{2 pi i t_j}, one scalar phase per entry
    build, k = SPLINE_LEVELS[name]
    system = build()
    P = system.uep_matrix(k) if edit is None else edit(system.uep_matrix(k))
    plan = dual_sampling_plan(system.chain, k, grid=64, random=16)
    values = P.eval_many(plan.points)
    rows = np.stack([f.eval_many(plan.points) for f in P.rows], axis=1)  # the one-row case, at nu_0 = 0
    assert P.nu[0] in (0, (0,))
    for i in range(len(plan.points)):
        want = trig_values(P, plan.point(i))
        assert np.max(np.abs(values[i] - want)) <= 1e-12
        assert np.max(np.abs(rows[i] - want[:, 0])) <= 1e-12


def _oracle_gram_residual(P, gamma) -> float:
    """max |V*V - d I| at one point, V from the per-character oracle."""
    V = trig_values(P, gamma)
    return float(np.max(np.abs(V.conj().T @ V - P.d * np.eye(P.d))))


@pytest.mark.parametrize("edit", [None, _mixed_steps], ids=["built", "mixed-steps"])
@pytest.mark.parametrize("name", sorted(SPLINE_LEVELS))
def test_coefficient_bound_holds_at_every_plan_point(name, edit):
    # the bound sums |E_z| over the lags, so it is at least |P*P - d I| at any gamma
    build, k = SPLINE_LEVELS[name]
    system = build()
    P = system.uep_matrix(k) if edit is None else edit(system.uep_matrix(k))
    plan = dual_sampling_plan(system.chain, k, grid=1024, random=256)
    worst = max(_oracle_gram_residual(P, plan.point(i)) for i in range(len(plan.points)))
    report = verify_uep(P, plan)
    assert report.samples == 0 and not report.exact and report.residual == coefficient_residual(P)
    assert report.residual + 1e-12 >= worst
    if edit is None:
        assert report.residual <= 1e-12
    else:  # a broken identity, so the two are not compared at rounding level only
        assert worst > 0.1


@pytest.mark.parametrize("name", ["z256-spline", "t-spline"])
def test_coefficient_bound_groups_shifts_by_element(name):
    # on a finite lattice j and j + ord(eta) name one character; grouped by j they would not cancel
    build, k = SPLINE_LEVELS[name]
    P = build().uep_matrix(k)
    (order,) = P.chain.level(k + 1).lattice.order  # eta_k is the lattice step, of this order
    g = P.rows[1]
    aliased = dataclasses.replace(g, shifts=(g.shifts[0] - 3 * order, *g.shifts[1:-1], g.shifts[-1] + order))
    Q = assemble_uep(P.chain, k, P.rows[0], [aliased, *P.rows[2:]])
    plan = dual_sampling_plan(P.chain, k, grid=64, random=16)
    assert np.max(np.abs(Q.eval_many(plan.points) - P.eval_many(plan.points))) <= 1e-12
    assert coefficient_residual(Q) == coefficient_residual(P) <= 1e-12
    # a row times the character of -(ord/2) eta, a point of Lambda_k, keeps the identity; its cells wrap
    # around the centred window, so its lags cancel the other rows' only once folded mod the order
    moved = dataclasses.replace(g, shifts=tuple(j + order // 2 for j in g.shifts))
    R = assemble_uep(P.chain, k, P.rows[0], [moved, *P.rows[2:]])
    assert max(_oracle_gram_residual(R, plan.point(i)) for i in range(len(plan.points))) <= 1e-12
    assert coefficient_residual(R) <= 1e-12


@pytest.mark.parametrize("name", sorted(SPLINE_LEVELS))
def test_coefficient_bound_fails_a_corrupted_coefficient(name):
    build, k = SPLINE_LEVELS[name]
    system = build()
    P = system.uep_matrix(k)
    plan = dual_sampling_plan(system.chain, k, grid=64, random=16)
    for r, f in enumerate(P.rows):
        for bad in (complex(f.coeffs[0]) + 1e-7, complex("nan")):
            rows = list(P.rows)
            rows[r] = dataclasses.replace(f, coeffs=(bad, *f.coeffs[1:]))
            report = verify_uep(assemble_uep(system.chain, k, rows[0], rows[1:]), plan)
            assert report.samples == 0 and not report.residual <= 1e-10
            assert math.isfinite(report.residual) == (bad == bad)


def test_mixed_rows_match_each_row_at_shifted_points(z8chain):
    # a trig and a piecewise row in one matrix: values and keys per coset column as each filter alone
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    P = assemble_uep(z8chain, 1, refinement_filter(z8chain, 1, 1), [indicator_refinement_filter(band, 1)])
    pts = np.arange(8)
    cols = [shift_points(pts, nu, z8chain.dual) for nu in P.nu]
    want = np.stack([np.stack([f.eval_many(c) for c in cols], axis=-1) for f in P.rows], axis=1)
    assert np.array_equal(P.eval_many(pts), want)
    keys = np.concatenate([f.exact_keys(c) for f in P.rows for c in cols], axis=1)
    assert np.array_equal(P.exact_keys(pts), keys)


def _wrap_shift(f, i, order, m):
    """f with its i-th shift j replaced by j + m ord(eta): the same filter."""
    shifts = list(f.shifts)
    shifts[i] += m * order
    return dataclasses.replace(f, shifts=tuple(shifts))


@pytest.mark.parametrize("group", ["torus", "cyclic"])
def test_shift_beyond_int64_gives_the_same_values(group):
    # j gamma for the wrapped shift is beyond 2^63: only exactly reduced -j eta keeps the values
    if group == "torus":  # step 1/6 of order 6; its characters are the rows of a 3-point DFT
        chain, k, order = torus_chain([2, 3, 2]), 0, 6
        lattice = chain.level(1).annihilator
        rows = [TrigPolynomial(chain.group, Fraction(1, 6), (m,), (1 + 0j,), lattice) for m in range(3)]
        wrapped = [rows[0], _wrap_shift(rows[1], 0, order, 2**59), *rows[2:]]
        assert wrapped[1].shifts == (6 * 2**59 + 1,)
        plan = SamplingPlan(np.arange(-64, 64), "wide")
    else:  # a Z_256 spline level off the quarter turns, with float coefficients
        system = build_bspline_system(cyclic_chain(8), 4)
        chain, k = system.chain, 4
        lf = system.filters_at(k)
        rows = [dataclasses.replace(f, coeffs=tuple(complex(c) for c in f.coeffs)) for f in (lf.h, *lf.gs)]
        order = 256 // math.gcd(rows[0].step, 256)
        wrapped = [_wrap_shift(rows[0], 1, order, 2**59), *rows[1:]]
        plan = SamplingPlan(np.arange(256), "all of Z_256")
    for f, g in zip(rows, wrapped):
        assert np.array_equal(g.eval_many(plan.points), f.eval_many(plan.points))
    base = verify_uep(assemble_uep(chain, k, rows[0], rows[1:]), plan)
    report = verify_uep(assemble_uep(chain, k, wrapped[0], wrapped[1:]), plan)
    assert not report.exact and base.residual <= 1e-12
    assert report.residual == base.residual


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_coefficient_fails_its_level_and_the_telescope(bad):
    system = build_bspline_system(cyclic_chain(4), 2)
    h = system.filters_at(2).h
    h = dataclasses.replace(h, coeffs=(complex(bad, 0), *h.coeffs[1:]))
    level_filters = tuple(dataclasses.replace(lf, h=h) if lf.k == 2 else lf for lf in system.level_filters)
    entries, status = run_verification(dataclasses.replace(system, level_filters=level_filters), "all", 64, 4, 1, 1e-10)
    uep = {e["level"]: e for e in entries if e["condition"] == "uep-gram-identity"}
    assert uep[2]["status"] == "fail" and not uep[2]["exact"] and not math.isfinite(uep[2]["residual"])
    assert all(e["status"] == "pass" for k, e in uep.items() if k != 2)
    (telescope,) = [e for e in entries if e["condition"] == "level-telescoping"]
    assert telescope["status"] == "fail" and "level 2 matrix identity fails" in telescope["detail"]
    assert status == "fail"
