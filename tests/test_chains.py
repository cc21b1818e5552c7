"""Lattice chains: construction data, coset splittings, measures."""

from fractions import Fraction

import numpy as np
import pytest

from lcaframes import domains
from lcaframes.chains import (
    cyclic_chain,
    euclidean_chain,
    integer_chain,
    refined_dual_domain,
    torus_chain,
)
from lcaframes.domains import HalfOpenBox, IntegerInterval, interval
from lcaframes.charfun import band_chain_cyclic
from lcaframes.exceptions import LcaError
from lcaframes.groups import pairing


def test_integer_chain_level_data():
    ch = integer_chain(10)
    assert ch.splitter(5) == 16
    assert ch.cosets(5) == (0, Fraction(1, 32))
    assert ch.index(5) == 2


def test_integer_chain_domains():
    ch = integer_chain(2)
    assert ch.level(0).domain_q == IntegerInterval(0, 3)
    assert ch.level(1).domain_q == IntegerInterval(0, 1)
    assert ch.level(2).domain_q == IntegerInterval(0, 0)
    assert ch.level(0).domain_v == interval(0, Fraction(1, 4))


def test_integer_chain_depth_one_splitting():
    ch = integer_chain(1)
    # Q_0 = {0,1} splits as Q_1 u (eta_0 + Q_1) with eta_0 = 1
    q1 = set(domains.iter_points(ch.level(1).domain_q, ch.group))
    eta = ch.splitter(0)
    assert q1 | {x + eta for x in q1} == set(domains.iter_points(ch.level(0).domain_q, ch.group))
    assert q1 & {x + eta for x in q1} == set()


def test_cyclic_chain_lattices():
    ch = cyclic_chain(3)
    assert ch.level(1).lattice.points() == [0, 4]
    assert ch.level(1).annihilator.points() == [0, 2, 4, 6]
    assert ch.level(1).domain_v == IntegerInterval(0, 1)
    assert ch.level(0).lattice.points() == [0]
    assert ch.level(3).lattice.points() == list(range(8))
    assert cyclic_chain(1).index(0) == 2


def test_torus_chain_level_data():
    ch = torus_chain([2, 3])
    assert ch.level(1).domain_v == IntegerInterval(-3, 2)
    assert ch.index(0) == 3
    assert ch.cosets(0) == (0, 2, 4)
    ch2 = torus_chain([2])
    assert ch2.level(0).annihilator.step == (Fraction(2),)
    assert ch2.level(0).domain_v == IntegerInterval(-1, 0)
    ch3 = torus_chain([4, 2, 2])
    assert ch3.index(0) == 2 and ch3.index(1) == 2


def test_torus_chain_validation():
    with pytest.raises(LcaError, match="the first chain factor must be even, got 3"):
        torus_chain([3, 2])  # odd leading factor
    with pytest.raises(LcaError, match=r"all chain factors must be integers >= 2, got \[2, 1\]"):
        torus_chain([2, 1])


def test_euclidean_chain_cosets():
    ch = euclidean_chain([[2, 2], [2, 2]])
    assert ch.index(0) == 4
    assert set(ch.cosets(0)) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert ch.cosets(0)[0] == (0, 0)


def test_euclidean_chain_one_dimensional_is_dyadic():
    ch = euclidean_chain([[2, 2]])
    assert ch.index(0) == 2
    assert ch.splitter(0) == (Fraction(1, 4),)
    assert ch.level(0).lattice.step == (Fraction(1, 2),)


def test_euclidean_cell_measure():
    ch = euclidean_chain([[2, 2], [4, 2]])
    v0 = ch.level(0).domain_v
    assert v0 == HalfOpenBox((Fraction(-1), Fraction(-2)), (Fraction(1), Fraction(2)))
    assert domains.measure(v0, ch.dual) == 8


def test_chain_depth_validation():
    for builder in (integer_chain, cyclic_chain):
        with pytest.raises(LcaError, match="depth M must be a positive integer, got 0"):
            builder(0)


def test_refined_dual_domain_integer():
    ch = integer_chain(2)
    dom = refined_dual_domain(ch, 0)
    assert domains.measure(dom, ch.dual) == Fraction(1, 2)
    assert domains.measure(dom, ch.dual) == ch.index(0) * ch.dual_cell_measure(0)
    # behaves like [0, 1/2)
    assert domains.contains(dom, Fraction(3, 8), ch.dual)
    assert not domains.contains(dom, Fraction(1, 2), ch.dual)


def test_refined_dual_domain_cyclic():
    ch = cyclic_chain(3)
    dom = refined_dual_domain(ch, 1)
    assert sorted(domains.iter_points(dom, ch.dual)) == [0, 1, 2, 3]


def test_refined_dual_domain_index_error():
    ch = integer_chain(2)
    with pytest.raises(LcaError, match=r"level 2 has no successor in 0\.\.2"):
        refined_dual_domain(ch, 2)


def test_lattice_points_examples():
    zch = cyclic_chain(3)
    assert zch.level(3).lattice.points() == list(range(8))
    tch = torus_chain([2, 3])
    assert tch.level(1).lattice.points() == [Fraction(j, 6) for j in range(6)]


def test_lattice_points_unbounded_window():
    ch = integer_chain(2)
    with pytest.raises(LcaError, match="an infinite lattice has no finite point list"):
        ch.level(0).lattice.points()


@pytest.mark.parametrize(
    "chain",
    [integer_chain(4), cyclic_chain(4), torus_chain([2, 3, 2]), euclidean_chain([[2, 3], [2, 2]])],
    ids=["integer", "cyclic", "torus", "euclidean"],
)
def test_index_equals_density_ratio(chain):
    # coset count between consecutive lattices vs fundamental-domain measures
    for k in range(chain.k0, chain.k1):
        assert chain.index(k) == chain.density(k) / chain.density(k + 1)
        assert chain.index(k) == chain.dual_cell_measure(k + 1) / chain.dual_cell_measure(k)
        assert len(chain.cosets(k)) == chain.index(k)


@pytest.mark.parametrize("chain", [integer_chain(3), cyclic_chain(3)], ids=["integer", "cyclic"])
def test_translates_tile_with_multiplicity_one(chain):
    # every point of a window is covered by exactly one lattice translate of Q_k
    for k in range(chain.k0, chain.k1 + 1):
        q = list(domains.iter_points(chain.level(k).domain_q, chain.group))
        if chain.group.modulus is None:
            window = range(0, 64)
            step = int(chain.level(k).lattice.step[0])
            lams = range(-len(q) // step * step, 64 + len(q) + 1, step)
        else:
            window = range(chain.group.modulus)
            lams = chain.level(k).lattice.points()
        counts = {x: 0 for x in window}
        for lam in lams:
            for x in q:
                y = (lam + x) % chain.group.modulus if chain.group.modulus else lam + x
                if y in counts:
                    counts[y] += 1
        assert all(c == 1 for c in counts.values())


@pytest.mark.parametrize(
    "chain",
    [integer_chain(4), cyclic_chain(4), torus_chain([2, 2, 2])],
    ids=["integer", "cyclic", "torus"],
)
def test_splitter_pairs_to_minus_one(chain):
    for k in range(chain.k0, chain.k1):
        if chain.index(k) != 2:
            continue
        eta, nu = chain.splitter(k), chain.cosets(k)[1]
        assert pairing(chain.group, eta, nu).tolist() == [-1]


@pytest.mark.parametrize(
    "chain",
    [integer_chain(3), cyclic_chain(3), torus_chain([2, 3]), euclidean_chain([[2, 2]])],
    ids=["integer", "cyclic", "torus", "euclidean"],
)
def test_annihilator_pairs_to_one(chain):
    for k in range(chain.k0, chain.k1 + 1):
        lvl = chain.level(k)
        lams = _lattice_points(lvl.lattice)
        omegas = _lattice_points(lvl.annihilator)
        for lam in lams:
            vals = pairing(chain.group, lam, omegas)
            if chain.group.modulus is not None:
                assert vals.tolist() == [1] * len(omegas)
            else:
                assert np.max(np.abs(vals - 1)) < 1e-12


def _lattice_points(lat, count: int = 8) -> list:
    """The first `count` points of a finite lattice, or j * step for j = -4..3 on an infinite one."""
    if lat.is_finite:
        return lat.points()[:count]
    return [lat._point((j,) * len(lat.step)) for j in range(-count // 2, count // 2)]


def test_level_outside_index_set():
    ch = integer_chain(2)
    with pytest.raises(LcaError, match=r"level 3 outside index set 0\.\.2"):
        ch.level(3)
    with pytest.raises(LcaError, match=r"level 2 has no successor in 0\.\.2"):
        ch.index(2)  # top level has no successor


@pytest.mark.parametrize(
    "build",
    [
        lambda: integer_chain(200),
        lambda: cyclic_chain(10**9),
        lambda: torus_chain([2] * 200),
        lambda: band_chain_cyclic(cyclic_chain(200), list(range(201))),
    ],
    ids=["integer", "cyclic", "torus", "cyclic-band"],
)
def test_chains_above_desk_scale_raise_before_enumerating(build):
    with pytest.raises(LcaError, match="points to enumerate \\(desk-scale cap\\)"):
        build()
