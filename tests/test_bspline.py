"""Spline generators, two-scale masks and refinement."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcaframes import bspline
from lcaframes.bspline import (
    bspline_hat,
    bspline_time,
    check_refinement_splitting,
    refinement_bound,
    refinement_filter,
    refinement_residual,
    wavelet_filters,
    wavelet_time,
)
from lcaframes.chains import cyclic_chain, euclidean_chain, integer_chain, torus_chain
from lcaframes.exceptions import LcaError
from lcaframes.filters import dual_sampling_plan
from lcaframes.frame import build_bspline_system, system_from_json, system_to_json
from lcaframes.groups import element_scale
from lcaframes.verify import run_verification

from oracles import function_hat

RT2 = math.sqrt(2)


def test_time_values_first_order():
    ch = integer_chain(2)
    g = bspline_time(ch, 1, 1)
    assert g.start == 0
    assert np.allclose(np.asarray(g.values), [2**-0.5, 2**-0.5])


def test_time_values_second_order():
    # self-convolution of the indicator of {0,1,2,3}, scaled by 4^{-3/2}
    ch = integer_chain(2)
    g = bspline_time(ch, 0, 2)
    expected = np.array([1, 2, 3, 4, 3, 2, 1]) * 4.0**-1.5
    assert g.start == 0
    assert np.allclose(np.asarray(g.values), expected)


def _exact_bspline_counts(n: int, order: int) -> list:
    """The order-fold self-convolution of n ones, in Python integers (running sums)."""
    conv = [1] * n
    for _ in range(order - 1):
        prefix = [0, *itertools.accumulate(conv)]
        conv = [prefix[min(i + 1, len(conv))] - prefix[max(i + 1 - n, 0)] for i in range(len(conv) + n - 1)]
    return conv


@pytest.mark.parametrize("order", [8, 16])
def test_time_values_beyond_int64(order):
    # on Z with M = 10, the level-0 counts are far past 2^63
    ch = integer_chain(10)
    for k in (0, 3):
        exact = _exact_bspline_counts(2 ** (10 - k), order)
        assert k > 0 or max(exact) > 2**63
        scale = float(ch.density(k)) ** (-order + 0.5)
        want = np.array([float(c) for c in exact]) * scale
        got = bspline_time(ch, k, order).array
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / want) <= 1e-14


def test_time_top_level_is_delta():
    ch = integer_chain(2)
    for order in (1, 2, 3):
        g = bspline_time(ch, 2, order)
        assert np.allclose(np.asarray(g.values), [1.0])
        assert g.start == 0


def test_time_values_only_on_discrete_groups():
    # on T and R^s the generator has no finite time values, as in frame.Generator.time
    for ch in (torus_chain([2, 2]), euclidean_chain([[2, 2]])):
        assert bspline_time(ch, 0, 2) is None


def test_hat_at_zero():
    ch = integer_chain(2)
    for order in (1, 2, 4):
        assert abs(bspline_hat(ch, 1, order, 0) - RT2) < 1e-14


def test_hat_zero_at_half_turn():
    # Q = {0, 1}: the factor 1 + e^{-pi i} vanishes
    ch = integer_chain(2)
    assert abs(bspline_hat(ch, 1, 1, Fraction(1, 2))) < 1e-15


@pytest.mark.parametrize(
    "chain", [integer_chain(3), cyclic_chain(3), torus_chain([2, 3]), euclidean_chain([[2, 2]])],
    ids=["integer", "cyclic", "torus", "euclidean"],
)
def test_hat_normalization_identity(chain):
    # dual-cell measure times squared transform at zero equals one
    gamma0 = 0 if chain.kind != "euclidean" else (0,)
    for k in range(chain.k0, chain.k1 + 1):
        for order in (1, 2, 3):
            mu_v = float(chain.dual_cell_measure(k))
            assert abs(mu_v * abs(bspline_hat(chain, k, order, gamma0)) ** 2 - 1) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 4])
def test_hat_matches_time_transform(order):
    ch = integer_chain(3)
    g = bspline_time(ch, 1, order)
    rng = np.random.default_rng(5)
    for gamma in rng.random(40):
        direct = function_hat(g, gamma)
        closed = bspline_hat(ch, 1, order, gamma)
        assert abs(direct - closed) < 1e-12


def test_hat_matches_time_transform_cyclic():
    ch = cyclic_chain(3)
    g = bspline_time(ch, 1, 2)
    for gamma in range(8):
        assert abs(function_hat(g, gamma) - bspline_hat(ch, 1, 2, gamma)) < 1e-12


def test_hat_many_matches_scalar():
    # the array transform against the direct sum over the time-domain values
    for ch, gammas in (
        (integer_chain(4), np.linspace(0, 1, 37, endpoint=False)),
        (cyclic_chain(4), np.arange(16)),
    ):
        g = bspline_time(ch, 1, 2)
        many = bspline_hat(ch, 1, 2, gammas)
        assert many.shape == gammas.shape
        each = np.array([function_hat(g, int(x) if ch.kind == "cyclic" else x) for x in gammas])
        assert np.max(np.abs(many - each)) < 1e-12


def _direct_character_sum(chain, k, gamma) -> complex:
    """sum over x in Q_k of (-x, gamma), one exponential per point."""
    q = chain.level(k).domain_q
    xs = np.arange(q.lo, q.hi + 1)
    t = gamma / chain.group.modulus if chain.kind == "cyclic" else gamma
    return complex(np.exp(-2j * np.pi * ((xs * t) % 1.0)).sum())


@settings(max_examples=150, deadline=None)
@given(
    M=st.integers(1, 8),
    level=st.integers(0, 8),
    m=st.integers(-2, 2),
    offset=st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-0.5, 0.5)),
)
@example(M=1, level=0, m=0, offset=2.2250738585e-313)  # sin(pi gamma) subnormal
@example(M=3, level=0, m=0, offset=-1e-310)
def test_dirichlet_kernel_matches_direct_sum_on_z(M, level, m, offset):
    # conditioning near sin(pi gamma) = 0: gamma at and within 1e-12 of an integer
    ch, k = integer_chain(M), min(level, M)
    gamma = m + offset
    n = 2 ** (M - k)
    closed = bspline_hat(ch, k, 1, gamma)[0] * n**0.5
    assert abs(closed - _direct_character_sum(ch, k, gamma)) <= 1e-12 * n


@settings(max_examples=100, deadline=None)
@given(M=st.integers(1, 8), level=st.integers(0, 8), gamma=st.integers(-600, 600))
def test_dirichlet_kernel_matches_direct_sum_on_zn(M, level, gamma):
    ch, k = cyclic_chain(M), min(level, M)
    n = 2 ** (M - k)
    closed = bspline_hat(ch, k, 1, gamma)[0] * n**0.5
    assert abs(closed - _direct_character_sum(ch, k, gamma)) <= 1e-12 * n


def test_lowpass_filter_values():
    ch = integer_chain(3)
    for order in (1, 2, 3, 4):
        h = refinement_filter(ch, 0, order)
        assert abs(h.eval(0) - RT2) < 1e-15
        nu = ch.cosets(0)[1]
        assert abs(h.eval(nu)) < 1e-15
    coeffs = [complex(c) for c in refinement_filter(ch, 0, 1).coeffs]
    assert np.allclose(coeffs, [2**-0.5, 2**-0.5])


def test_lowpass_needs_index_two():
    tch = torus_chain([2, 3])
    with pytest.raises(LcaError, match="index-2 lattice nesting, level 0 has d=3"):
        refinement_filter(tch, 0, 1)  # d_0 = 3


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("M", [2, 3])
def test_refinement_residual_integer(M, order):
    ch = integer_chain(M)
    for k in range(M - 1):
        plan = dual_sampling_plan(ch, k, grid=4096, random=512)
        assert refinement_residual(ch, k, order, plan) <= 1e-12


def test_refinement_exhaustive_rationals():
    ch = integer_chain(2)
    from lcaframes.filters import SamplingPlan

    plan = SamplingPlan(tuple(Fraction(j, 16) for j in range(16)), "rationals j/16")
    assert refinement_residual(ch, 1, 1, plan) <= 1e-15


def test_refinement_residual_cyclic():
    ch = cyclic_chain(3)
    for k in range(3):
        plan = dual_sampling_plan(ch, k)
        assert refinement_residual(ch, k, 2, plan) <= 1e-12


REFINE_CHAINS = {
    "z": lambda: integer_chain(4),
    "zn": lambda: cyclic_chain(4),
    "t": lambda: torus_chain([2, 2, 2]),
    "r1": lambda: euclidean_chain([[2, 2, 2]]),
}


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(REFINE_CHAINS))
def test_refinement_bound_is_zero_on_constructed_systems(name, order):
    system = build_bspline_system(REFINE_CHAINS[name](), order)
    entries, status = run_verification(system, "refinement", 64, None, 1, 1e-10)
    assert [(e["level"], e["residual"], e["method"]) for e in entries] == [
        (lf.k, 0.0, "coefficients") for lf in system.level_filters
    ]
    assert status == "pass"


def _negated(h):
    return dataclasses.replace(h, coeffs=tuple(-complex(c) for c in h.coeffs))


def _nudged(h):
    return dataclasses.replace(h, coeffs=(complex(h.coeffs[0]) + 1e-7, *h.coeffs[1:]))


def _doubled_step(h):
    return dataclasses.replace(h, step=element_scale(h.group, 2, h.step))  # still a level-(k+1) lattice point


@pytest.mark.parametrize("edit", [_negated, _nudged, _doubled_step], ids=["negated", "nudged", "doubled-step"])
@pytest.mark.parametrize("name", sorted(REFINE_CHAINS))
def test_refinement_bound_covers_the_per_point_residual(name, edit):
    chain = REFINE_CHAINS[name]()
    system = build_bspline_system(chain, 2)
    broken = dataclasses.replace(
        system, level_filters=tuple(dataclasses.replace(lf, h=edit(lf.h)) for lf in system.level_filters)
    )
    entries, status = run_verification(broken, "refinement", 64, None, 1, 1e-10)
    for lf, entry in zip(broken.level_filters, entries):
        # V_{k+1} is a whole period of h; V_k alone is one coset of it, and on Z_16 at level 0 the
        # doubled step agrees with the mask there
        plan = dual_sampling_plan(chain, lf.k, grid=1024, random=256, domain=chain.level(lf.k + 1).domain_v)
        per_point = refinement_residual(chain, lf.k, 2, plan, lf.h)
        assert entry["status"] == "fail" and entry["method"] == "coefficients"
        assert entry["residual"] == refinement_bound(chain, lf.k, 2, lf.h)
        assert entry["residual"] + 1e-12 >= per_point > 1e-10
    assert status == "fail"


def test_refinement_splitting_witness():
    ch = integer_chain(2)
    bad_level = dataclasses.replace(ch.levels[0], splitter=1)  # true splitter is 2
    bad = dataclasses.replace(ch, levels=(bad_level,) + ch.levels[1:])
    with pytest.raises(LcaError, match="overlap witness 1"):
        check_refinement_splitting(bad, 0)


def test_first_order_wavelet_values():
    ch = integer_chain(3)
    (g,) = wavelet_filters(ch, 0, 1)
    assert abs(g.eval(0)) < 1e-15
    nu = ch.cosets(0)[1]
    assert abs(g.eval(nu) - RT2) < 1e-15
    h = refinement_filter(ch, 0, 1)
    rng = np.random.default_rng(9)
    for gamma in rng.random(1000):
        total = abs(h.eval(gamma)) ** 2 + abs(g.eval(gamma)) ** 2
        assert abs(total - 2) < 1e-12


def test_even_order_wavelet_masks():
    ch = integer_chain(3)
    g1, g2 = wavelet_filters(ch, 0, 2)
    assert g1.shifts == (0, 2) and np.allclose([complex(c) for c in g1.coeffs], [0.5, -0.5])  # no zero term
    assert np.allclose([complex(c) for c in g2.coeffs], [2**-1.5, -(2**-0.5), 2**-1.5])
    for m, g in enumerate((g1, g2), start=1):
        assert abs(g.eval(0)) < 1e-15
    h = refinement_filter(ch, 0, 2)
    total = abs(h.eval(0)) ** 2 + abs(g1.eval(0)) ** 2 + abs(g2.eval(0)) ** 2
    assert abs(total - 2) < 1e-12


@pytest.mark.parametrize("order", [2, 4, 6])
def test_even_order_energy_identity(order):
    ch = integer_chain(3)
    h = refinement_filter(ch, 1, order)
    gs = wavelet_filters(ch, 1, order)
    rng = np.random.default_rng(13)
    for gamma in rng.random(300):
        total = abs(h.eval(gamma)) ** 2 + sum(abs(g.eval(gamma)) ** 2 for g in gs)
        assert abs(total - 2) < 1e-11


def test_odd_orders_have_no_masks():
    ch = integer_chain(3)
    with pytest.raises(LcaError, match="no wavelet masks for odd order 3"):
        wavelet_filters(ch, 0, 3)
    with pytest.raises(LcaError, match="order must be an integer >= 1, got 0"):
        wavelet_filters(ch, 0, 0)
    # lowpass side still exists for odd orders
    assert refinement_filter(ch, 0, 3) is not None


def test_wavelet_time_haar():
    ch = integer_chain(2)
    psi = wavelet_time(ch, 1, wavelet_filters(ch, 1, 1)[0], bspline_time(ch, 2, 1))
    assert psi.start == 0
    assert np.allclose(np.asarray(psi.values), [2**-0.5, -(2**-0.5)])


def test_wavelet_time_norm_one_first_order():
    for M in (2, 4, 6):
        ch = integer_chain(M)
        for k in range(M):
            psi = wavelet_time(ch, k, wavelet_filters(ch, k, 1)[0], bspline_time(ch, k + 1, 1))
            assert abs(psi.norm2() - 1) < 1e-12
            phi = bspline_time(ch, k, 1)
            assert abs(phi.norm2() - 1) < 1e-12


def test_wavelet_zeroth_moment_vanishes():
    ch = integer_chain(4)
    for order in (1, 2, 4):
        for m, g in enumerate(wavelet_filters(ch, 1, order), start=1):
            psi = wavelet_time(ch, 1, g, bspline_time(ch, 2, order))
            assert abs(psi.array.sum()) < 1e-12


def test_wavelet_transform_matches_filter_product():
    ch = integer_chain(3)
    order = 2
    g = wavelet_filters(ch, 1, order)[0]
    psi = wavelet_time(ch, 1, g, bspline_time(ch, 2, order))
    rng = np.random.default_rng(17)
    for gamma in rng.random(1000):
        product = g.eval(gamma) * bspline_hat(ch, 2, order, gamma)
        assert abs(function_hat(psi, gamma) - product) < 1e-12


def test_wavelet_support_arithmetic():
    # support extent N (|Q_{k+1}| - 1) + N eta_k + 1 on the integer chain
    for M, k, order in [(3, 0, 2), (3, 1, 2), (4, 1, 4), (4, 2, 1)]:
        ch = integer_chain(M)
        for g in wavelet_filters(ch, k, order):
            psi = wavelet_time(ch, k, g, bspline_time(ch, k + 1, order))
            lo, hi = psi.support()
            q1 = 2 ** (M - k - 1)
            assert lo == 0
            assert hi - lo + 1 == order * (q1 - 1) + order * ch.splitter(k) + 1


def test_wavelet_time_step_must_be_lattice_point():
    ch = integer_chain(2)
    fine = wavelet_filters(ch, 1, 1)[0]  # step 1
    with pytest.raises(LcaError, match="mask step 1 is not a level-1 lattice point"):
        wavelet_time(ch, 0, fine, bspline_time(ch, 1, 1))  # level-1 lattice is 2Z; step 1 not in it


def test_artifact_load_builds_each_spline_generator_once(monkeypatch):
    # Z_256, order 4: 9 scaling generators; the 32 wavelets reuse the next level's
    data = json.loads(json.dumps(system_to_json(build_bspline_system(cyclic_chain(8), 4))))
    calls = []
    build = bspline.bspline_time
    monkeypatch.setattr(bspline, "bspline_time", lambda *a: calls.append(a[1]) or build(*a))
    system = system_from_json(data)
    assert len(system.wavelets) == 32
    assert sorted(calls) == list(range(9))


def test_moment_annihilation_is_exact():
    # the (1-z)^m factor kills discrete monomials below degree m
    ch = integer_chain(4)
    for order in (2, 4):
        for m, g in enumerate(wavelet_filters(ch, 1, order), start=1):
            for p in range(m):
                total = Fraction(0)
                for j, c in zip(g.shifts, g.coeffs):
                    total += c.re * Fraction(j) ** p  # all coeffs are real radicals
                assert total == 0


def test_euclidean_hat_is_separable():
    ech = euclidean_chain([[2, 2], [2, 2]])
    g = (0.3, -0.7)
    val = bspline_hat(ech, 0, 2, g)
    one_d = euclidean_chain([[2, 2]])
    prod = bspline_hat(one_d, 0, 2, (0.3,)) * bspline_hat(one_d, 0, 2, (-0.7,))
    assert abs(val - prod) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 4])
def test_uep_certificate_cyclic_chain(order):
    # spline masks satisfy the Gram identity on every index-2 chain in scope;
    # low levels even evaluate exactly (quarter-turn characters)
    from lcaframes.filters import assemble_uep, dual_sampling_plan, verify_uep

    ch = cyclic_chain(3)
    for k in range(3):
        P = assemble_uep(ch, k, refinement_filter(ch, k, order), wavelet_filters(ch, k, order))
        rep = verify_uep(P, dual_sampling_plan(ch, k))
        assert rep.residual <= 1e-12
        if k < 2:
            assert rep.exact and rep.residual == 0.0


@pytest.mark.parametrize(
    "chain",
    [euclidean_chain([[2, 2, 2]]), torus_chain([2, 2, 2])],
    ids=["euclidean", "torus"],
)
def test_uep_certificate_dyadic_chains(chain):
    from lcaframes.filters import assemble_uep, dual_sampling_plan, verify_uep

    for k in range(chain.k0, chain.k1):
        P = assemble_uep(chain, k, refinement_filter(chain, k, 2), wavelet_filters(chain, k, 2))
        plan = dual_sampling_plan(chain, k, grid=512, random=128)
        assert verify_uep(P, plan).residual <= 1e-12
        assert refinement_residual(chain, k, 2, plan) <= 1e-12
