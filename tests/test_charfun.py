"""Bandlimited generator families and their wavelet masks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lcaframes import domains
from lcaframes.chains import cyclic_chain, euclidean_chain, torus_chain
from lcaframes.charfun import (
    band_chain_balls,
    band_chain_boxes,
    band_chain_cyclic,
    band_chain_torus,
    bandlimited_wavelet_filters,
    full_band_chain,
    indicator_generator,
    indicator_refinement_filter,
    indicator_refinement_residual,
    orthonormal_wavelet_filters,
)
from lcaframes.domains import Ball, IntegerInterval
from lcaframes.exceptions import LcaError, SchemaError
from lcaframes.filters import assemble_uep, dual_sampling_plan, verify_uep
from lcaframes.groups import pairing
from oracles import indicator_hat_exact, value_at

RT2 = math.sqrt(2)
RT3 = math.sqrt(3)


def test_cyclic_band_sets():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    assert band.omega(0) == IntegerInterval(0, 0)
    assert band.omega(1) == IntegerInterval(0, 1)
    assert band.omega(2) == IntegerInterval(0, 3)
    assert band.omega(3) == IntegerInterval(0, 7)  # exhausts the dual group
    assert not band.is_proper(3)


def test_cyclic_band_validation():
    with pytest.raises(LcaError, match="band set at level 1 is not inside the dual cell"):
        band_chain_cyclic(cyclic_chain(3), [0, 2, 3, 7])  # L_1 > 2^1 - 1
    with pytest.raises(LcaError, match="band sets fail to nest between levels 1 and 2"):
        band_chain_cyclic(cyclic_chain(3), [0, 1, 0, 7])  # decreasing
    with pytest.raises(LcaError, match="top band bound must exhaust the dual group"):
        band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 6])
    # non-strict repeats are fine on the cyclic chain
    assert band_chain_cyclic(cyclic_chain(3), [0, 0, 0, 7]) is not None


def test_torus_band_sets():
    band = band_chain_torus(torus_chain([2, 3]), [0, 2])
    assert band.omega(0) == IntegerInterval(0, 0)
    assert band.omega(1) == IntegerInterval(-2, 2)
    assert band.chain.level(1).domain_v == IntegerInterval(-3, 2)


def test_torus_band_strictly_increasing():
    with pytest.raises(LcaError, match="band bounds must strictly increase at level 1"):
        band_chain_torus(torus_chain([2, 3]), [0, 0])
    with pytest.raises(LcaError, match="band set at level 1 is not inside the dual cell"):
        band_chain_torus(torus_chain([2, 3]), [0, 3])


def test_ball_band_rejects_large_radius():
    with pytest.raises(LcaError, match="band set at level 0 is not inside the dual cell"):
        band_chain_balls(euclidean_chain([[2, 2], [2, 2]]), [Fraction(1), Fraction(3, 2)])  # radius = min N/2
    band = band_chain_balls(euclidean_chain([[2, 2], [2, 2]]), [Fraction(9, 10), Fraction(19, 10)])
    assert band.omega(0) == Ball(Fraction(9, 10))


def test_box_band_validation():
    with pytest.raises(LcaError, match=r"degenerate box \[0\] \.\. \[0\]"):
        band_chain_boxes(euclidean_chain([[2, 2]]), [[0, 1]])
    with pytest.raises(LcaError, match="band set at level 0 is not inside the dual cell"):
        band_chain_boxes(euclidean_chain([[2, 2]]), [[Fraction(3, 2), 2]])


def test_indicator_generator_values():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    gen = indicator_generator(band, 1)
    # dual-cell measure is 2/8, so the indicator is scaled by 2
    assert gen.hat(0) == 2 and gen.hat(1) == 2
    assert gen.hat(2) == 0 and gen.hat(7) == 0
    mu_v = float(band.chain.dual_cell_measure(1))
    for gamma in (0, 1):
        assert mu_v * abs(gen.hat(gamma)) ** 2 == pytest.approx(1, abs=1e-15)


def test_refinement_filter_values_and_first_row():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    h = indicator_refinement_filter(band, 1)
    assert [round(h.eval(g).real, 12) for g in range(4)] == pytest.approx(
        [RT2, RT2, 0, 0]
    )
    # first row of the coset matrix on V_k is (H, 0, ..., 0)
    band2 = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    h2 = indicator_refinement_filter(band2, 2)
    P = assemble_uep(band2.chain, 2, h2, bandlimited_wavelet_filters(band2, 2))
    for gamma, m in enumerate(P.eval_many(np.arange(4))):
        assert m[0, 0] == h2.eval(gamma)
        assert m[0, 1] == 0


def test_refinement_identity_exact_everywhere():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    for k in range(3):
        h = indicator_refinement_filter(band, k)
        gk = indicator_generator(band, k)
        gk1 = indicator_generator(band, k + 1)
        for gamma in range(8):
            assert gk.hat(gamma) == pytest.approx(h.eval(gamma) * gk1.hat(gamma), abs=1e-15)


@pytest.mark.parametrize("bounds", [[0, 1, 3, 7], [0, 1, 2, 7]])
def test_refinement_residual_exactly_zero(bounds):
    band = band_chain_cyclic(cyclic_chain(3), bounds)
    for k in range(3):
        assert indicator_refinement_residual(band, k, dual_sampling_plan(band.chain, k)) == 0.0


def test_torus_refinement_residual_zero():
    band = band_chain_torus(torus_chain([2, 3, 2]), [0, 1, 3])
    for k in range(2):
        assert indicator_refinement_residual(band, k, dual_sampling_plan(band.chain, k)) == 0.0


def test_box_and_ball_refinement_residual():
    for band in (
        band_chain_boxes(euclidean_chain([[2, 2], [2, 2]]), [[Fraction(3, 4), Fraction(3, 2)]] * 2),
        band_chain_balls(euclidean_chain([[2, 2], [2, 2]]), [Fraction(9, 10), Fraction(19, 10)]),
    ):
        plan = dual_sampling_plan(band.chain, 0, grid=256, random=64)
        assert indicator_refinement_residual(band, 0, plan) == 0.0


def test_proper_masks_values_on_cyclic():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    g1, g2 = bandlimited_wavelet_filters(band, 2)
    # level 2: Omega = {0,1,2} inside V = {0..3}, nu = (0, 4)
    assert [round(g1.eval(g).real, 12) for g in range(8)] == pytest.approx(
        [0, 0, 0, RT2, RT2, RT2, RT2, 0]
    )
    assert [round(g2.eval(g).real, 12) for g in range(8)] == pytest.approx(
        [0, 0, 0, 0, 0, 0, 0, RT2]
    )


def test_proper_masks_gram_identity_both_cases():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    P = assemble_uep(
        band.chain, 2, indicator_refinement_filter(band, 2), bandlimited_wavelet_filters(band, 2)
    )
    # in-band point and out-of-band point both give the scaled identity
    for m in P.eval_many(np.array([0, 1, 2, 3])):
        assert np.allclose(m.conj().T @ m, 2 * np.eye(2), atol=1e-15)
    report = verify_uep(P, dual_sampling_plan(band.chain, 2))
    assert report.residual == 0.0 and report.exact


def test_proper_masks_refuse_full_band():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    with pytest.raises(LcaError, match="level 1 band set equals the dual cell; no proper masks"):
        bandlimited_wavelet_filters(band, 1)  # Omega_1 = {0,1} = V_1


def test_orthonormal_masks_scaled_identity():
    chain = cyclic_chain(3)
    band = full_band_chain(chain)
    for k in range(3):
        P = assemble_uep(
            chain, k, indicator_refinement_filter(band, k), orthonormal_wavelet_filters(band, k)
        )
        for m in P.eval_many(np.arange(2**k)):
            assert np.array_equal(m, RT2 * np.eye(2))
        assert verify_uep(P, dual_sampling_plan(chain, k)).residual == 0.0


def test_orthonormal_masks_need_full_band():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    with pytest.raises(LcaError, match="level 2 band set must equal the dual cell"):
        orthonormal_wavelet_filters(band, 2)


def test_orthonormal_masks_on_torus():
    chain = torus_chain([2, 3])
    band = full_band_chain(chain)
    gs = orthonormal_wavelet_filters(band, 0)
    assert len(gs) == 2  # d_0 = 3
    # mask m is supported on the coset nu_{m+1} + V_0 = (2m) + {-1, 0}
    assert gs[0].eval(2) == RT3 and gs[0].eval(1) == RT3
    assert gs[0].eval(0) == 0 and gs[0].eval(4) == 0
    assert gs[1].eval(4) == RT3 and gs[1].eval(3) == RT3
    assert gs[1].eval(2) == 0


def test_proper_masks_on_torus_gram():
    band = band_chain_torus(torus_chain([2, 3, 2]), [0, 1, 3])
    for k in range(2):
        P = assemble_uep(
            band.chain,
            k,
            indicator_refinement_filter(band, k),
            bandlimited_wavelet_filters(band, k),
        )
        report = verify_uep(P, dual_sampling_plan(band.chain, k))
        assert report.residual == 0.0 and report.exact
        assert len(P.rows) - 1 == band.chain.index(k)


def test_euclidean_boxes_and_balls_gram():
    for band in (
        band_chain_boxes(euclidean_chain([[2, 2], [2, 2]]), [[Fraction(3, 4), Fraction(3, 2)]] * 2),
        band_chain_balls(euclidean_chain([[2, 2], [2, 2]]), [Fraction(9, 10), Fraction(19, 10)]),
    ):
        P = assemble_uep(
            band.chain,
            0,
            indicator_refinement_filter(band, 0),
            bandlimited_wavelet_filters(band, 0),
        )
        plan = dual_sampling_plan(band.chain, 0, grid=256, random=128)
        assert verify_uep(P, plan).residual == 0.0


def test_wavelet_support_inside_next_band():
    # supp Psi_k^(m) stays inside Omega_{k+1}
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    from lcaframes.frame import build_charfun_system

    system = build_charfun_system(band, "proper", k0=2)
    om3 = band.omega(3)
    for gen in system.wavelets:
        lo, hi = gen.freq.support()
        for gamma in range(lo, hi + 1):
            if value_at(gen.freq, gamma) != 0:
                assert domains.contains(om3, gamma, band.chain.dual)


def test_deep_level_normalization_and_disjointness():
    # at the exhaustion level the normalized energy is exactly 1 on the target
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    gen = indicator_generator(band, 3)
    mu_v = band.chain.dual_cell_measure(3)
    for gamma in range(8):
        assert mu_v * Fraction(indicator_hat_exact(gen, gamma).abs2()) == 1
    # deep-level annihilator is trivial, so translates of the target cannot meet
    assert band.chain.level(3).annihilator.points() == [0]


def test_torus_deep_level_translate_disjointness():
    band = band_chain_torus(torus_chain([2, 3]), [0, 2])
    target = band.exhaustion_target  # {-2..2}
    ann = band.chain.level(1).annihilator  # 6Z
    pts = set(range(-2, 3))
    for j in (1, -1, 2, -2):
        shift = j * int(ann.step[0])
        assert not (pts & {p + shift for p in pts})


def test_band_mismatch_lengths():
    with pytest.raises(LcaError, match="need 4 band bounds, got 3"):
        band_chain_cyclic(cyclic_chain(3), [0, 1, 7])
    with pytest.raises(LcaError, match="need 2 band bounds, got 1"):
        band_chain_torus(torus_chain([2, 3]), [0])
    with pytest.raises(LcaError, match="need 2 band bounds, got 3"):
        band_chain_balls(euclidean_chain([[2, 2]]), [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])


def test_band_refuses_a_chain_on_another_group():
    with pytest.raises(SchemaError, match="a torus band does not fit a chain on Z_8"):
        band_chain_torus(cyclic_chain(3), [0, 1, 3])
    with pytest.raises(SchemaError, match="a cyclic band does not fit a chain on T"):
        band_chain_cyclic(torus_chain([2, 2, 2]), [0, 1, 7])
    with pytest.raises(SchemaError, match="a balls band does not fit a chain on T"):
        band_chain_balls(torus_chain([2, 2]), ["1/2", "1"])
