"""System-level identities: analysis, Parseval, fiber sums, telescoping."""

import dataclasses
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lcaframes import frame, verify
from lcaframes.chains import cyclic_chain, euclidean_chain, integer_chain, torus_chain
from lcaframes.charfun import band_chain_balls, band_chain_cyclic, band_chain_torus, full_band_chain
from lcaframes.exceptions import (
    DomainParameterError,
    LcaError,
    ProperSubsetError,
    UncertifiedLevelError,
    UnsupportedVerificationError,
)
from lcaframes.frame import (
    _coefficients,
    _energy_table,
    _frame_residual,
    _gaps_of,
    _parseval_of,
    _translates,
    analysis,
    build_bspline_system,
    build_charfun_system,
    fiber_identity_sides,
    frame_operator,
    parseval_residual,
    system_from_json,
    system_to_json,
    telescoping_residual,
)
from lcaframes.domains import IntegerInterval, iter_points
from lcaframes.filters import worst_residual
from lcaframes.functions import DiscreteFunction, delta, random_test_function, uniform
from lcaframes.groups import INTEGERS, TORUS, cyclic_group, dual_group, integer_group
from lcaframes.lattices import cyclic_annihilator
from lcaframes.verify import COND_PARSEVAL, _measured, _test_window, run_verification

from oracles import cis, fiber_suite, pairing_phase, value_at

SEED = 0x5EED


def _energy(system, f) -> float:
    """Sum of the squared frame coefficients of f, from `analysis`."""
    return sum(abs(c) ** 2 for c in analysis(system, f).values())


def test_analysis_haar_delta():
    system = build_bspline_system(integer_chain(1), 1)
    coeffs = analysis(system, delta(integer_group(), 0))
    assert set(coeffs) == {("phi[0]", 0), ("psi[0][1]", 0)}
    for v in coeffs.values():
        assert abs(abs(v) - 2**-0.5) < 1e-15


def test_analysis_zero_function_empty():
    system = build_bspline_system(integer_chain(1), 1)
    zero = DiscreteFunction(integer_group(), 0, (0j, 0j))
    assert analysis(system, zero) == {}


def test_analysis_shannon_basis_vector():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    e3 = delta(cyclic_group(8), 3)
    coeffs = analysis(system, e3)
    assert sum(abs(v) ** 2 for v in coeffs.values()) == pytest.approx(1.0, abs=1e-14)


def test_parseval_haar_delta():
    system = build_bspline_system(integer_chain(3), 1)
    assert parseval_residual(system, delta(integer_group(), 5)) <= 1e-12


def test_parseval_bspline_seeded():
    system = build_bspline_system(integer_chain(3), 2)
    rng = random.Random(SEED)
    for _ in range(100):
        f = random_test_function(integer_group(), (0, 20), rng)
        assert parseval_residual(system, f) <= 1e-10


def test_parseval_zero_function_rejected():
    system = build_bspline_system(integer_chain(2), 1)
    with pytest.raises(DomainParameterError):
        parseval_residual(system, DiscreteFunction(integer_group(), 0, (0j,)))


def test_parseval_shannon_all_basis_vectors():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    for x in range(8):
        assert parseval_residual(system, delta(cyclic_group(8), x)) <= 1e-14


def test_frame_operator_shannon_identity():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    S = frame_operator(system)
    assert np.max(np.abs(S - np.eye(8))) <= 1e-12
    assert np.allclose(S, S.conj().T)


def test_frame_operator_proper_identity():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    system = build_charfun_system(band, "proper", k0=2)
    S = frame_operator(system)
    assert np.max(np.abs(S - np.eye(8))) <= 1e-12


def test_frame_operator_missing_family_far_from_identity():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    pruned = system.__class__(
        system.chain,
        system.family,
        system.k0,
        system.k1,
        system.level_filters,
        system.scalings,
        system.wavelets[:-1],  # drop one wavelet family
        system.band,
    )
    S = frame_operator(pruned)
    assert np.max(np.abs(S - np.eye(8))) > 0.1


def test_frame_operator_needs_finite_group():
    system = build_bspline_system(integer_chain(2), 1)
    with pytest.raises(UnsupportedVerificationError):
        frame_operator(system)


def test_fiber_identity_seeded_triples():
    rng = random.Random(SEED)
    for M in (3, 4):
        chain = cyclic_chain(M)
        n = chain.group.modulus
        for _ in range(50):
            k = rng.randrange(0, M + 1)
            F = random_test_function(chain.dual, (0, n - 1), rng)
            Phi = random_test_function(chain.dual, (0, n - 1), rng)
            lhs, rhs = fiber_identity_sides(chain.level(k).lattice, chain.level(k).domain_v, F, Phi)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_fiber_identity_zero_generator():
    chain = cyclic_chain(3)
    zero = DiscreteFunction(chain.dual, 0, (0j,) * 8)
    F = delta(chain.dual, 1)
    lhs, rhs = fiber_identity_sides(chain.level(1).lattice, chain.level(1).domain_v, F, zero)
    assert lhs == 0 and rhs == 0


def test_fiber_identity_single_fiber():
    # F supported on one annihilator fiber: both sides collapse to one term
    chain = cyclic_chain(3)
    lat = chain.level(1).lattice  # {0, 4}, annihilator {0,2,4,6}, V = {0,1}
    vals = [0j] * 8
    vals[1] = 2.0  # gamma = 1 fiber
    F = DiscreteFunction(chain.dual, 0, tuple(vals))
    Phi = DiscreteFunction(chain.dual, 0, tuple([1 + 0j] * 8))
    lhs, rhs = fiber_identity_sides(lat, chain.level(1).domain_v, F, Phi)
    weight = 1 / 8
    fiber_sum = abs(2.0 * 1.0) ** 2
    expected = (2 / 8) * weight * fiber_sum
    assert lhs == pytest.approx(expected, abs=1e-15)
    assert rhs == pytest.approx(expected, abs=1e-15)


def test_telescoping_bspline():
    system = build_bspline_system(integer_chain(3), 2)
    assert telescoping_residual(system, 1, delta(integer_group(), 0)) <= 1e-12
    zero = DiscreteFunction(integer_group(), 0, (0j,))
    assert telescoping_residual(system, 1, zero) == 0.0


def test_telescoping_shannon_seeded():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    rng = random.Random(SEED)
    f = random_test_function(cyclic_group(8), (0, 7), rng)
    assert telescoping_residual(system, 1, f) <= 1e-14


def test_telescoping_uncertified_level():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    from oracles import scale_filter
    from lcaframes.frame import LevelFilters

    lf = system.level_filters[1]
    broken = LevelFilters(lf.k, lf.h, tuple(scale_filter(g, 0.0) for g in lf.gs))
    corrupted = system.__class__(
        system.chain,
        system.family,
        system.k0,
        system.k1,
        (system.level_filters[0], broken, system.level_filters[2]),
        system.scalings,
        system.wavelets,
        system.band,
    )
    with pytest.raises(UncertifiedLevelError):
        telescoping_residual(corrupted, 1, delta(cyclic_group(8), 0))


def test_telescoping_composes_to_full_analysis():
    # summing the level splits from k0 to k1 reproduces the deep-level energy
    system = build_bspline_system(integer_chain(3), 2)
    rng = random.Random(SEED)
    f = random_test_function(integer_group(), (0, 10), rng)
    E, _ = _energy_table(system, "time", f.start, f.array[None])
    deep = E[0, system.k1 - system.k0]
    total = E[0, 0] + E[0, len(system.scalings) :].sum()
    assert abs(deep - total) <= 1e-12
    assert abs(_energy(system, f) - deep) <= 1e-12


def _scaling_energy(system, k, f) -> float:
    """Sum of the squared coefficients of f against the level-k scaling translates."""
    return float(_energy_table(system, "time", f.start, f.array[None])[0][0, k - system.k0])


def test_energy_bounds_cyclic_band():
    # the scaling translates alone keep the energy of f at the top level
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    system = build_charfun_system(band, "proper", k0=2)
    rng = random.Random(SEED)
    f = random_test_function(cyclic_group(8), (0, 7), rng)
    assert abs(_scaling_energy(system, system.k1, f) - f.norm2()) <= 1e-12


def test_energy_bounds_bspline_top_level():
    system = build_bspline_system(integer_chain(3), 2)
    rng = random.Random(SEED)
    f = random_test_function(integer_group(), (0, 9), rng)
    assert abs(_scaling_energy(system, system.k1, f) - f.norm2()) <= 1e-12


def test_parseval_and_operator_verdicts_agree():
    # on T the parseval half runs through the frequency-side fold; the operator half is Z_N only
    for chain in (cyclic_chain(3), torus_chain([2, 3, 2, 2])):
        good = build_charfun_system(full_band_chain(chain), "shannon")
        data = system_to_json(good)
        # corrupt one wavelet filter in the artifact
        for piece in data["filters"][1]["g"][0]["pieces"]:
            piece["value"] = {"re": 0.0, "im": 0.0}
        bad = system_from_json(data)
        group = chain.dual if chain.group.kind == TORUS else chain.group
        rng = random.Random(SEED)
        for system, expect_pass in ((good, True), (bad, False)):
            worst = max(
                parseval_residual(system, random_test_function(group, _test_window(system), rng))
                for _ in range(5)
            )
            assert (worst <= 1e-10) == expect_pass
            if chain.group.kind != TORUS:
                op_dev = float(np.max(np.abs(frame_operator(system) - np.eye(8))))
                assert (op_dev <= 1e-12) == expect_pass


def test_translation_modulation_equivalence_cyclic():
    # the same coefficient energies on both sides of the transform
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    rng = random.Random(SEED)
    f = random_test_function(cyclic_group(8), (0, 7), rng)
    dual = dual_group(cyclic_group(8))
    fhat = DiscreteFunction(
        dual,
        0,
        tuple(
            sum(value_at(f, x) * cis(Fraction(-x * g, 8)) for x in range(8)) for g in range(8)
        ),
    )
    assert abs(f.norm2() - fhat.norm2()) < 1e-12  # Plancherel under these weights
    e_time = _energy(system, f)  # translates on Z_8
    e_freq = _energy(system, fhat)  # modulates on its dual
    assert abs(e_time - e_freq) < 1e-12


def test_torus_system_parseval_inside_target():
    band = band_chain_torus(torus_chain([2, 3, 2]), [0, 1, 3])
    system = build_charfun_system(band, "proper")
    rng = random.Random(SEED)
    for _ in range(20):
        f = random_test_function(integer_group(), (-3, 3), rng)
        assert parseval_residual(system, f) <= 1e-12
        for k in (0, 1):
            assert telescoping_residual(system, k, f) <= 1e-12


def test_haar_windowed_gram_identity():
    M = 6
    system = build_bspline_system(integer_chain(M), 1)
    n = 2**M
    vectors = []
    for gen in system.system_generators():
        g = gen.time
        step = int(system.chain.level(gen.level).lattice.step[0])
        lam = 0
        while lam + g.stop <= n:
            vec = np.zeros(n, dtype=complex)
            vec[lam + g.start : lam + g.stop] = g.array
            vectors.append(vec)
            lam += step
    basis = np.array(vectors)
    assert basis.shape == (n, n)
    gram = basis.conj() @ basis.T
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_shannon_norms_and_gram():
    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    for gen in system.system_generators():
        assert abs(gen.freq.norm2() - 1) <= 1e-12
        assert abs(gen.time.norm2() - 1) <= 1e-12
    vectors = []
    for gen in system.system_generators():
        for lam in system.chain.level(gen.level).lattice.points():
            vectors.append(gen.time.translate(lam).array)
    basis = np.array(vectors)
    assert basis.shape == (8, 8)
    gram = basis.conj() @ basis.T
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12


def test_proper_mode_refuses_full_band_level():
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7])
    with pytest.raises(ProperSubsetError):
        build_charfun_system(band, "proper", k0=0)  # level 0 band equals the cell


def test_shannon_mode_needs_the_full_band():
    # a shannon artifact states its mode alone and loads the full band, so a band with bounds is refused, even
    # one whose sets fill every dual cell
    band = band_chain_cyclic(cyclic_chain(3), [0, 1, 3, 7])
    with pytest.raises(DomainParameterError, match="full band"):
        build_charfun_system(band, "shannon")
    shannon = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    assert system_from_json(system_to_json(shannon)) == shannon


def test_euclidean_system_is_matrix_condition_only():
    ech = euclidean_chain([[2, 2]])
    system = build_bspline_system(ech, 2)
    with pytest.raises(UnsupportedVerificationError):
        analysis(system, delta(integer_group(), 0))


def test_torus_bspline_has_no_finite_side():
    system = build_bspline_system(torus_chain([2, 2]), 2)
    f = DiscreteFunction(integer_group(), 0, (1 + 0j,))
    with pytest.raises(UnsupportedVerificationError):
        analysis(system, f)


def test_system_json_round_trip_preserves_verification():
    system = build_bspline_system(integer_chain(3), 2)
    back = system_from_json(system_to_json(system))
    f = delta(integer_group(), 3)
    assert abs(parseval_residual(system, f) - parseval_residual(back, f)) < 1e-15
    assert [g.label for g in back.system_generators()] == [
        g.label for g in system.system_generators()
    ]


STORED_PARTS_SYSTEMS = {
    "z16-spline": lambda: build_bspline_system(cyclic_chain(4), 2),
    "z8-band": lambda: build_charfun_system(band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7]), "proper", k0=1),
    "t-band": lambda: build_charfun_system(band_chain_torus(torus_chain([2, 3, 2]), [0, 1, 3]), "proper"),
    "r2-balls": lambda: build_charfun_system(
        band_chain_balls(euclidean_chain([[2, 2, 2], [2, 3, 2]]), ["1/4", "1/2", "1"]), "proper"
    ),
}


def _leaves(node, skip=("kind",)):
    """(container, key) of every number or string below node, except below the keys in skip."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if key not in skip:
            yield from _leaves(child, skip) if isinstance(child, (dict, list)) else [(node, key)]


@pytest.mark.parametrize("name", sorted(STORED_PARTS_SYSTEMS))
def test_every_stored_filter_value_and_band_bound_is_read(name):
    # each leaf of each filter (step, shift, coefficient, piece domain and value) and each band bound,
    # changed alone: the load must give another system or refuse the file, so no part is a copy that the
    # loader ignores; only the kind of a filter or domain, which selects its reader, is skipped
    system = STORED_PARTS_SYSTEMS[name]()
    data = system_to_json(system)
    assert system_from_json(data) == system
    bounds = data["descriptor"]["family"].get("charfun", {}).get("L", [])
    parts = [bounds, *(f for entry in data["filters"] for f in (entry["h"], *entry["g"]))]
    leaves = [leaf for part in parts for leaf in _leaves(part)]
    assert len(leaves) >= 30
    for container, key in leaves:
        old = container[key]
        container[key] = str(Fraction(old) + 1) if isinstance(old, str) else old + 1
        try:
            loaded = system_from_json(data)
        except LcaError:
            loaded = None
        container[key] = old
        assert loaded != system, f"{key}: {old!r} changed, and the loaded system is the same"


def test_artifact_dict_shares_no_value_with_the_system():
    system = build_charfun_system(band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7]), "proper", k0=1)
    data = system_to_json(system)
    data["descriptor"]["family"]["charfun"]["L"][0] = 5
    assert system.band.params == {"L": [0, 0, 1, 7]}
    torus = build_charfun_system(band_chain_torus(torus_chain([2, 3, 2]), [0, 1, 3]), "proper")
    data = system_to_json(torus)
    data["descriptor"]["chain"]["M_seq"][0] = 4
    assert torus.chain.params["chain"] == {"M_seq": [2, 3, 2]}


def test_loaded_system_shares_no_value_with_its_artifact():
    system = build_charfun_system(band_chain_cyclic(cyclic_chain(3), [0, 0, 1, 7]), "proper", k0=1)
    data = system_to_json(system)
    loaded = system_from_json(data)
    data["descriptor"]["family"]["charfun"]["mode"] = "edited"
    data["descriptor"]["family"]["charfun"]["L"][0] = 5
    assert loaded == system and loaded.family == {"type": "charfun", "mode": "proper"}


def test_build_counts():
    system = build_bspline_system(integer_chain(10), 2)
    assert len(system.wavelets) == 2 * 10
    assert len(system.system_generators()) == 1 + 20
    shannon = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    assert len(shannon.system_generators()) == 1 + 3


def test_cyclic_parseval_seeded_deep():
    rng = random.Random(SEED)
    full = build_charfun_system(full_band_chain(cyclic_chain(6)), "shannon")
    from lcaframes.charfun import band_chain_cyclic as bcc

    proper = build_charfun_system(bcc(cyclic_chain(6), [0, 1, 2, 3, 4, 5, 63]), "proper", k0=2)
    for system in (full, proper):
        worst = 0.0
        for _ in range(100):
            f = random_test_function(cyclic_group(64), (0, 63), rng)
            worst = max(worst, parseval_residual(system, f))
        assert worst <= 1e-10


def test_uep_report_serialization():
    from lcaframes.filters import dual_sampling_plan, verify_uep

    system = build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")
    rep = verify_uep(system.uep_matrix(0), dual_sampling_plan(system.chain, 0))
    data = rep.to_json()
    assert {"residual", "exact", "worst_point", "samples", "sampling"} <= set(data)
    assert data["residual"] == 0.0 and data["exact"] is True


# The per-translate sums below are the definitions the array paths in
# lcaframes.frame are checked against: one inner product per lattice point,
# one outer product per system element, one loop per fiber.


def _oracle_coefficients(system, gen, f, side):
    """lambda -> <f, translate (time) or modulate (freq) of gen>, one lattice point at a time."""
    chain = system.chain
    lat = chain.level(gen.level).lattice
    if side == "time":
        g = gen.time
        if lat.is_finite:
            lams = lat.points()
        else:
            step = int(lat.step[0])
            lams = [j * step for j in range(-((g.stop - 1 - f.start) // step), (f.stop - 1 - g.start) // step + 1)]
        return {lam: f.inner(g.translate(lam)) for lam in lams}
    g = gen.freq
    xs = range(max(f.start, g.start), min(f.stop, g.stop))
    return {
        lam: f.weight
        * sum(value_at(f, x) * value_at(g, x).conjugate() * cis(-pairing_phase(chain.group, lam, x)) for x in xs)
        for lam in lat.points()
    }


def _oracle_analysis(system, f, side):
    return {
        (gen.label, lam): c
        for gen in system.system_generators()
        for lam, c in _oracle_coefficients(system, gen, f, side).items()
    }


def _oracle_frame_operator(system):
    n = system.chain.group.modulus
    S = np.zeros((n, n), dtype=complex)
    for gen in system.system_generators():
        for lam in system.chain.level(gen.level).lattice.points():
            v = gen.time.translate(lam).array
            S += np.outer(v, v.conj())
    return S


def _oracle_fiber_sides(lat, v_domain, F, Phi):
    n = lat.group.modulus
    weight = float(F.group.point_mass)
    lhs = 0.0
    for lam in lat.points():
        mod_phi = np.array([cis(Fraction(lam * g, n)) for g in range(n)]) * Phi.array
        lhs += abs(weight * complex(np.vdot(mod_phi, F.array))) ** 2
    ann = cyclic_annihilator(lat)
    cell = list(iter_points(v_domain, F.group))
    rhs = 0.0
    for gamma in cell:
        fiber = sum(value_at(F, w + gamma) * value_at(Phi, w + gamma).conjugate() for w in ann.points())
        rhs += weight * abs(fiber) ** 2
    return lhs, len(cell) * weight * rhs


def _pruned(system):
    """The system without its last wavelet family: not tight."""
    return dataclasses.replace(system, wavelets=system.wavelets[:-1])


ORACLE_SYSTEMS = {
    "z-spline": lambda: build_bspline_system(integer_chain(4), 2),
    "zn-spline": lambda: build_bspline_system(cyclic_chain(5), 4),
    "zn-band": lambda: build_charfun_system(band_chain_cyclic(cyclic_chain(6), [0, 1, 2, 3, 4, 5, 63]), "proper", k0=2),
    "zn-shannon": lambda: build_charfun_system(full_band_chain(cyclic_chain(4)), "shannon"),
    "zn-shannon-pruned": lambda: _pruned(build_charfun_system(full_band_chain(cyclic_chain(4)), "shannon")),
    "t-shannon": lambda: build_charfun_system(full_band_chain(torus_chain([2, 3, 2, 2])), "shannon"),
}


def _test_functions(system, rng, count=3):
    """Seeded random test functions on the analysis side, then deltas across the window."""
    group = system.chain.dual if system.chain.group.kind == TORUS else system.chain.group
    lo, hi = _test_window(system)
    if group.kind == INTEGERS:
        lo, hi = lo - 5, hi + 5  # reach past the supports on both sides
    randoms = [random_test_function(group, (lo, hi), rng) for _ in range(count)]
    return randoms, [delta(group, x) for x in range(lo, hi + 1, max(1, (hi - lo) // 7))]


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_analysis_matches_per_translate_oracle(name):
    system = ORACLE_SYSTEMS[name]()
    side = "freq" if system.chain.group.kind == TORUS else "time"
    randoms, deltas = _test_functions(system, random.Random(SEED))
    for f in randoms + deltas:
        want = _oracle_analysis(system, f, side)
        got = analysis(system, f)
        assert set(got) == {key for key, c in want.items() if c != 0}
        scale = max(abs(c) for c in want.values())
        assert max(abs(got.get(key, 0) - c) for key, c in want.items()) <= 1e-13 * scale
        energy = sum(abs(c) ** 2 for c in want.values())
        assert abs(_energy(system, f) - energy) <= 1e-13 * energy


def test_cyclic_modulation_side_matches_oracle():
    system = ORACLE_SYSTEMS["zn-band"]()
    rng = random.Random(SEED)
    F = random_test_function(system.chain.dual, (0, 63), rng)
    want = _oracle_analysis(system, F, "freq")
    got = analysis(system, F)
    assert set(got) == {key for key, c in want.items() if c != 0}
    scale = max(abs(c) for c in want.values())
    assert max(abs(got.get(key, 0) - c) for key, c in want.items()) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["zn-spline", "zn-band", "zn-shannon", "zn-shannon-pruned"])
def test_frame_operator_matches_outer_product_oracle(name):
    system = ORACLE_SYSTEMS[name]()
    want = _oracle_frame_operator(system)
    assert np.max(np.abs(frame_operator(system) - want)) <= 1e-13 * np.max(np.abs(want))


def test_fiber_sides_match_loop_oracle():
    rng = random.Random(SEED)
    chain = cyclic_chain(5)
    n = chain.group.modulus
    for k in range(chain.k0, chain.k1 + 1):
        lvl = chain.level(k)
        F = random_test_function(chain.dual, (0, n - 1), rng)
        Phi = random_test_function(chain.dual, (0, n - 1), rng)
        got = fiber_identity_sides(lvl.lattice, lvl.domain_v, F, Phi)
        want = _oracle_fiber_sides(lvl.lattice, lvl.domain_v, F, Phi)
        for g, w in zip(got, want):  # each side on its own
            assert abs(g - w) <= 1e-13 * abs(w)


def test_nan_test_function_fails_parseval():
    system = ORACLE_SYSTEMS["zn-spline"]()
    f = random_test_function(cyclic_group(32), (0, 31), random.Random(SEED))
    vals = list(f.values)
    vals[5] = complex(float("nan"), 0.0)
    res = parseval_residual(system, DiscreteFunction(f.group, 0, tuple(vals)))
    assert math.isnan(res)
    entry = _measured(COND_PARSEVAL, worst_residual([0.0, res, 1e-16])[0], 1e-10)
    assert entry["status"] == "fail"


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_batched_coefficients_match_oracle_row_by_row(name, count):
    system = ORACLE_SYSTEMS[name]()
    side = "freq" if system.chain.group.kind == TORUS else "time"
    fs, _ = _test_functions(system, random.Random(SEED), count)
    F = np.array([f.array for f in fs])
    for gen in system.system_generators():
        j0, C = _coefficients(system, gen, side, fs[0].start, F)
        assert C.shape[0] == count
        lat = system.chain.level(gen.level).lattice
        step = int(lat.step[0])
        lams = lat.points() if lat.is_finite else [(j0 + i) * step for i in range(C.shape[1])]
        for f, row in zip(fs, C):
            want = _oracle_coefficients(system, gen, f, side)
            got = dict(zip(lams, row))
            assert set(got) == set(want)
            scale = max(abs(c) for c in want.values())
            assert max(abs(got[lam] - c) for lam, c in want.items()) <= 1e-13 * scale
        # the energy comes from the fiber fold on finite lattices, the gather on Z
        energies = _energy_table(system, side, fs[0].start, F)[0][:, (*system.scalings, *system.wavelets).index(gen)]
        for f, energy in zip(fs, energies):
            want = sum(abs(c) ** 2 for c in _oracle_coefficients(system, gen, f, side).values())
            assert abs(energy - want) <= 1e-13 * want


@pytest.mark.parametrize("name", ["z-spline", "zn-spline", "zn-band", "t-shannon"])
@pytest.mark.parametrize("suite", ["parseval", "telescope"])
def test_energies_fold_on_finite_lattices_and_gather_on_z(name, suite, monkeypatch):
    def gather(*args):
        raise AssertionError("coefficients gathered")

    system = ORACLE_SYSTEMS[name]()
    monkeypatch.setattr(frame, "_coefficients", gather)
    if system.chain.group.kind == INTEGERS:
        with pytest.raises(AssertionError, match="coefficients gathered"):
            run_verification(system, suite, 64, 5, 1, 1e-10)
    else:
        entries, status = run_verification(system, suite, 64, 5, 1, 1e-10)
        assert status == "pass" and entries


def test_translate_rows_are_views_of_one_base_array():
    for name in ("z-spline", "zn-spline"):
        system = ORACLE_SYSTEMS[name]()
        for gen in system.system_generators():
            lo, hi = -40, 60
            if system.chain.group.kind != INTEGERS:
                lo, hi = 0, system.chain.group.modulus
            rows = _translates(system, gen, lo, hi)[1]
            base = rows
            while base.base is not None:
                base = base.base
            assert np.shares_memory(rows, base)
            assert base.size <= 2 * (hi - lo) + len(gen.time.values)


def test_nan_in_one_stacked_trial_fails_the_suite_entry():
    system = ORACLE_SYSTEMS["zn-spline"]()
    fs, _ = _test_functions(system, random.Random(SEED), 7)
    F = np.array([f.array for f in fs])
    F[3, 5] = complex(float("nan"), 0.0)
    res = _parseval_of(system, *_energy_table(system, "time", 0, F))
    assert math.isnan(res[3])
    assert np.all(np.delete(res, 3) <= 1e-10)
    assert _measured(COND_PARSEVAL, worst_residual(res)[0], 1e-10)["status"] == "fail"


def test_parseval_long_test_function_on_z_stays_small():
    # the translates are a strided view, so memory grows with len(f), not its square
    system = build_bspline_system(integer_chain(3), 2)
    f = random_test_function(integer_group(), (0, 1999), random.Random(SEED))
    tracemalloc.start()
    try:
        res = parseval_residual(system, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    energy = sum(
        abs(c) ** 2 for gen in system.system_generators() for c in _oracle_coefficients(system, gen, f, "time").values()
    )
    assert abs(_energy(system, f) - energy) <= 1e-13 * energy
    assert abs(res - abs(energy - f.norm2()) / f.norm2()) <= 1e-13
    assert res <= 1e-10


@pytest.mark.parametrize("suite, trials", [("parseval", 1000), ("telescope", 250)])
def test_suite_memory_does_not_grow_with_trials(suite, trials):
    # test functions are drawn and reduced in blocks of at most MAX_POINTS entries
    system = build_bspline_system(cyclic_chain(8), 2)
    run_verification(system, suite, 64, 1, 1, 1e-10)  # first-call allocations stay out of the peaks
    peaks = []
    for count in (trials, 4 * trials):
        tracemalloc.start()
        try:
            run_verification(system, suite, 64, count, 1, 1e-10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_discrete_function_values_are_a_read_only_array():
    vals = np.arange(4, dtype=complex)
    f = DiscreteFunction(integer_group(), 2, vals)
    vals[0] = 9  # the function keeps its own copy
    assert f.array is f.values and f.values[0] == 0
    with pytest.raises(ValueError):
        f.values[1] = 5
    assert f == DiscreteFunction(integer_group(), 2, (0, 1, 2, 3))
    assert f != DiscreteFunction(integer_group(), 3, (0, 1, 2, 3))
    assert f != DiscreteFunction(integer_group(), 2, (0, 1, 2, 4))
    assert f != DiscreteFunction(integer_group(), 2, (0, 1, 2))
    system = ORACLE_SYSTEMS["zn-spline"]()
    assert system == ORACLE_SYSTEMS["zn-spline"]()
    assert system.wavelets[0] != system.wavelets[1]


# The Z_N end-to-end suites read one table of generator spectra: the frame
# operator from Fourier blocks, the energies of parseval and telescope from
# one table per block of test functions, the fiber trials in blocks per level.
# Each is checked here against the dense or per-function path it replaced.


def _corrupt_wavelet(system, level, scale=1 + 1e-6):
    """The system with one time value of the first level-`level` wavelet changed by the relative `scale` - 1."""
    i = next(i for i, w in enumerate(system.wavelets) if w.level == level)
    w = system.wavelets[i]
    vals = w.time.array.copy()
    vals[int(np.argmax(np.abs(vals)))] *= scale
    bad = dataclasses.replace(w, time=DiscreteFunction(w.time.group, 0, vals))
    return dataclasses.replace(system, wavelets=(*system.wavelets[:i], bad, *system.wavelets[i + 1 :]))


FOURIER_BLOCK_SYSTEMS = {
    "z8-shannon": lambda: build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon"),
    "z8-proper": lambda: build_charfun_system(band_chain_cyclic(cyclic_chain(3), [0, 1, 2, 7]), "proper", k0=2),
    "z64-band": ORACLE_SYSTEMS["zn-band"],
    "z256-spline": lambda: build_bspline_system(cyclic_chain(8), 4),
    "z8-shannon-pruned": lambda: _pruned(build_charfun_system(full_band_chain(cyclic_chain(3)), "shannon")),
    "z256-level-3": lambda: _corrupt_wavelet(build_bspline_system(cyclic_chain(8), 4), 3),
    "z256-level-7": lambda: _corrupt_wavelet(build_bspline_system(cyclic_chain(8), 4), 7),
    "z1024-spline": lambda: build_bspline_system(cyclic_chain(10), 2),  # 64 blocks of 16 rows
}


@pytest.mark.parametrize("name", sorted(FOURIER_BLOCK_SYSTEMS))
def test_frame_residual_is_the_frobenius_norm_of_the_dense_operator(name):
    system = FOURIER_BLOCK_SYSTEMS[name]()
    S = frame_operator(system)
    n = S.shape[0]
    U = np.fft.fft(np.eye(n)) / math.sqrt(n)  # the unitary DFT
    want = float(np.linalg.norm(U @ S @ U.conj().T - np.eye(n)))
    got = _frame_residual(system)
    assert abs(got - want) <= 1e-12 * float(np.linalg.norm(S))
    assert got >= float(np.max(np.abs(S - np.eye(n))))
    if "level" in name or "pruned" in name:
        assert got > 1e-12  # the entry fails
    else:
        assert got <= 1e-12


def test_fiber_suite_matches_per_trial_sides():
    system = build_bspline_system(cyclic_chain(5), 4)
    chain, n = system.chain, 32
    rng = random.Random(SEED)
    ks = [rng.randrange(chain.k0, chain.k1 + 1) for _ in range(50)]
    # the suite draws F and Phi as blocks, each row as `random_test_function` draws it
    Fs, Phis = ([random_test_function(chain.dual, (0, n - 1), rng) for _ in range(50)] for _ in range(2))
    worst = 0.0
    for k, F, Phi in zip(ks, Fs, Phis):
        lhs, rhs = fiber_identity_sides(chain.level(k).lattice, chain.level(k).domain_v, F, Phi)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    assert len(set(ks)) > 3
    assert abs(fiber_suite(chain, SEED) - worst) <= 1e-16


def _with_cells(chain, cells):
    """The chain with V_k replaced at the levels k that `cells` maps to a new domain."""
    levels = tuple(dataclasses.replace(lvl, domain_v=cells.get(lvl.k, lvl.domain_v)) for lvl in chain.levels)
    return dataclasses.replace(chain, levels=levels)


@pytest.mark.parametrize(
    "cells, broken",
    [
        ({k: IntegerInterval(0, 2**k - 2) for k in (1, 3, 5)}, [1, 3, 5]),  # V_k misses the coset of 2^k - 1
        ({k: IntegerInterval(1, 2**k) for k in range(7)}, []),  # V_k moved by one point: still one per coset
    ],
    ids=["missing-coset", "shifted"],
)
def test_fiber_entry_decides_the_domain_as_the_trial_oracle_does(cells, broken):
    system = build_bspline_system(cyclic_chain(6), 2)
    system = dataclasses.replace(system, chain=_with_cells(system.chain, cells))
    [entry] = run_verification(system, "fiber", 4096, None, SEED, 1e-10)[0]
    assert entry["method"] == "exact-domain" and "residual" not in entry
    assert entry["status"] == ("fail" if broken else "pass")
    if broken:
        assert entry["detail"].endswith(f"at levels {', '.join(map(str, broken))}")
        assert fiber_suite(system.chain, SEED) > 1e-3
    else:
        assert fiber_suite(system.chain, SEED) <= 1e-14
    assert all(run_verification(system, "fiber", 4096, None, seed, 1e-10)[0] == [entry] for seed in (0, 1, 0xABC))


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_energy_table_matches_per_function_residuals(name):
    system = ORACLE_SYSTEMS[name]()
    side = frame._default_side(system)
    [(start, F)] = list(verify._test_functions(system, side, 7, SEED))
    group = frame._side_group(system, side)
    E, n2 = _energy_table(system, side, start, F)
    fs = [DiscreteFunction(group, start, row) if not group.is_finite else DiscreteFunction(group, 0, row) for row in F]
    parseval = _parseval_of(system, E, n2)
    for f, res in zip(fs, parseval):
        assert abs(res - parseval_residual(system, f)) <= 1e-15
    for lf in system.level_filters:
        for f, gap in zip(fs, _gaps_of(system, lf.k, E, n2)):
            assert abs(gap - telescoping_residual(system, lf.k, f)) <= 1e-12
    # a block longer than its telescope rows: the scalings past the first are computed for those rows only
    ns, part = len(system.scalings), _energy_table(system, side, start, F, scaling_rows=3)
    assert np.array_equal(part[1], n2) and np.array_equal(part[0][:3], E[:3])
    assert np.array_equal(np.delete(part[0], range(1, ns), axis=1), np.delete(E, range(1, ns), axis=1))
    assert np.isnan(part[0][3:, 1:ns]).all()
    if name == "zn-spline":  # the Z_N fold at lattice sizes 1, 2 and N
        assert {1, 2, 32} <= {system.chain.level(k).lattice.size for k in range(system.k0, system.k1 + 1)}


SUITE_CONDITIONS = {
    "uep": verify.COND_UEP,
    "refinement": verify.COND_REFINE,
    "fiber": verify.COND_FIBER,
    "telescope": verify.COND_TELESCOPE,
    "parseval": verify.COND_PARSEVAL,
}


@pytest.mark.parametrize("suite", sorted(SUITE_CONDITIONS))
@pytest.mark.parametrize("name", ["z-spline", "zn-spline", "zn-band", "t-shannon"])
def test_each_suite_alone_reports_its_entries_of_suite_all(name, suite):
    # a suite run alone builds only the inputs it reads, and reads them as a run of every suite does
    system = ORACLE_SYSTEMS[name]()
    alone = run_verification(system, suite, 64, None, SEED, 1e-12)[0]
    every = run_verification(system, "all", 64, None, SEED, 1e-12)[0]
    assert alone == [e for e in every if e["condition"] == SUITE_CONDITIONS[suite]]


def test_parseval_suite_memory_on_z2048_stays_small():
    # the frame operator is checked in blocks of rows, never as an N x N matrix (64 MB at N = 2048)
    system = build_bspline_system(cyclic_chain(11), 2)
    tracemalloc.start()
    try:
        entries, status = run_verification(system, "parseval", 64, None, SEED, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "pass" and len(entries) == 2
    assert peak < 64 * 2**20


def test_seeded_stream_is_pinned():
    # reports reproduce across interpreters only while these draws do
    rng = random.Random(SEED)
    assert uniform(rng, (4,)).tolist() == [0.8551568233272426, 0.40765144341003223, 0.5844569469792935, 0.8199796464447038]
    assert random.Random(SEED).randrange(0, 9) == 2
    f = random_test_function(cyclic_group(4), (0, 1), random.Random(SEED))
    assert f.values.tolist() == [0.8551568233272426 + 0.40765144341003223j, 0.5844569469792935 + 0.8199796464447038j, 0j, 0j]
