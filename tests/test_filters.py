"""Periodic filters, the coset-evaluation matrix, and its verification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcaframes.bspline import refinement_filter, wavelet_filters
from lcaframes.chains import cyclic_chain, integer_chain
from lcaframes.charfun import (
    band_chain_cyclic,
    full_band_chain,
    indicator_refinement_filter,
    orthonormal_wavelet_filters,
)
from lcaframes.domains import IntegerInterval, shift_points
from lcaframes.exact import radical
from lcaframes.exceptions import EmptySamplingPlanError, PeriodicityMismatchError
from lcaframes.filters import (
    CosetPiecewise,
    SamplingPlan,
    TrigPolynomial,
    assemble_uep,
    dual_sampling_plan,
    filter_from_json,
    filter_to_json,
    pointwise_residuals,
    verify_uep,
)
from oracles import entrywise_residual, scale_filter

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
    band = band_chain_cyclic(3, [0, 1, 3, 7])
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
    assert np.allclose([complex(c) for c in g1.coeffs], [0.5, 0.0, -0.5])
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
    assert report.samples == len(plan.points)


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
    band = band_chain_cyclic(3, [0, 1, 3, 7])
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


def test_piecewise_domain_must_be_one_lattice_step(z8chain):
    from lcaframes.domains import CosetUnion

    lattice = z8chain.level(2).annihilator  # step 4 in Z_8
    with pytest.raises(PeriodicityMismatchError):
        CosetPiecewise(z8chain.dual, (), IntegerInterval(0, 2), lattice)
    with pytest.raises(PeriodicityMismatchError):  # right width, but a gap inside
        CosetPiecewise(z8chain.dual, (), CosetUnion(IntegerInterval(0, 0), (0, 3)), lattice)
