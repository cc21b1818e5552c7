"""Nested lattice chains with fundamental domains and coset data.

A chain fixes, per level k in a finite index set {k0..k1}: the lattice
Lambda_k in G with fundamental domain Q_k, its annihilator in the dual group
with fundamental domain V_k, and for consecutive levels the index d_k, the
dual coset representatives nu_{k,l} (nu_{k,1} = 0) and, when d_k = 2, the
group-side splitter eta_k with Q_k = Q_{k+1} u (eta_k + Q_{k+1}).

Four constructions are shipped: the dyadic chain on Z, the dyadic chain on
Z_{2^M}, product chains on T, and diagonally scaled chains on R^s, each kept
with the descriptor objects it is built from (`chain_from_params`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from . import domains
from .domains import CosetUnion, HalfOpenBox, IntegerInterval, interval
from .exceptions import LcaError, _malformed, require, require_int, require_object
from .groups import (
    GroupSpec,
    cyclic_group,
    dual_group,
    euclidean_group,
    integer_group,
    torus_group,
)
from .lattices import ScaledLattice

MAX_POINTS = 2**16  # desk-scale cap on the point sets a system enumerates


def require_desk_scale(factors, what: str):
    """Raise LcaError when the product of the chain factors exceeds MAX_POINTS.

    The product is the largest point set a system on the chain enumerates:
    Q_0 on Z, the group itself on Z_N, the top dual cell on T (on R^s, per
    axis: the top dual cell's grid lines).  It is formed
    factor by factor, so a huge depth fails before anything is built.
    """
    count = 1
    for m in factors:
        count *= m
        if count > MAX_POINTS:
            raise LcaError(f"{what}: more than {MAX_POINTS} points to enumerate (desk-scale cap)")


@dataclass(frozen=True)
class ChainLevel:
    k: int
    lattice: ScaledLattice  # Lambda_k in G
    annihilator: ScaledLattice  # its annihilator in the dual
    domain_q: object  # fundamental domain of Lambda_k in G
    domain_v: object  # fundamental domain of the annihilator in the dual
    index: int | None = None  # d_k (None at the top level)
    cosets: tuple | None = None  # nu_{k,l}, l = 1..d_k, cosets[0] = 0
    splitter: object | None = None  # eta_k when d_k = 2


@dataclass(frozen=True)
class LatticeChain:
    group: GroupSpec
    dual: GroupSpec
    kind: str  # the descriptor's group variant
    params: dict  # the descriptor's "group" and "chain" objects, normalized, which `chain_from_params` reads
    levels: tuple

    @property
    def k0(self) -> int:
        return self.levels[0].k

    @property
    def k1(self) -> int:
        return self.levels[-1].k

    def level(self, k: int) -> ChainLevel:
        if not self.k0 <= k <= self.k1:
            raise LcaError(f"level {k} outside index set {self.k0}..{self.k1}")
        return self.levels[k - self.k0]

    def index(self, k: int) -> int:
        d = self.level(k).index
        if d is None:
            raise LcaError(f"level {k} has no successor in {self.k0}..{self.k1}")
        return d

    def cosets(self, k: int) -> tuple:
        self.index(k)
        return self.level(k).cosets

    def splitter(self, k: int):
        return self.level(k).splitter

    def density(self, k: int) -> Fraction:
        """s(Lambda_k) = Haar measure of Q_k."""
        return domains.measure(self.level(k).domain_q, self.group)

    def dual_cell_measure(self, k: int) -> Fraction:
        """Haar measure of V_k in the dual group."""
        return domains.measure(self.level(k).domain_v, self.dual)


def integer_chain(M: int) -> LatticeChain:
    """Dyadic chain on Z: Lambda_k = 2^{M-k} Z for k = 0..M."""
    if require_int(M, "depth M") < 1:
        raise LcaError(f"depth M must be a positive integer, got {M}")
    require_desk_scale((2 for _ in range(M)), f"integer chain of depth {M}")
    G, Gd = integer_group(), torus_group()
    levels = []
    for k in range(M + 1):
        step = 2 ** (M - k)
        lat = ScaledLattice(G, (Fraction(step),))
        ann = ScaledLattice(Gd, (Fraction(1, step),), (step,))
        q = IntegerInterval(0, step - 1)
        v = interval(0, Fraction(1, step))
        levels.append(ChainLevel(k, lat, ann, q, v))
    return _described(G, Gd, "integers", {}, {"M": M}, levels)


def cyclic_chain(M: int) -> LatticeChain:
    """Dyadic chain on Z_{2^M}: Lambda_k = 2^{M-k} Z_{2^k} for k = 0..M."""
    if require_int(M, "depth M") < 1:
        raise LcaError(f"depth M must be a positive integer, got {M}")
    require_desk_scale((2 for _ in range(M)), f"cyclic chain of depth {M}")
    n = 2**M
    G = cyclic_group(n)
    Gd = dual_group(G)
    levels = []
    for k in range(M + 1):
        step = 2 ** (M - k)
        lat = ScaledLattice(G, (Fraction(step),), (2**k,))
        ann = ScaledLattice(Gd, (Fraction(2**k),), (step,))
        q = IntegerInterval(0, step - 1)
        v = IntegerInterval(0, 2**k - 1)
        levels.append(ChainLevel(k, lat, ann, q, v))
    return _described(G, Gd, "cyclic", {"modulus": n}, {"M": M}, levels)


def torus_chain(m_factors: list[int]) -> LatticeChain:
    """Product chain on T: Lambda_k = (1/N_k) Z_{N_k}, N_k = m_0 * ... * m_k.

    m_0 must be even (so the symmetric dual cells have integer endpoints) and
    every factor at least 2.
    """
    if min([require_int(m, "chain factor") for m in m_factors] or [0]) < 2:
        raise LcaError(f"all chain factors must be integers >= 2, got {m_factors}")
    if m_factors[0] % 2:
        raise LcaError(f"the first chain factor must be even, got {m_factors[0]}")
    require_desk_scale(m_factors, "torus chain factors")
    G, Gd = torus_group(), integer_group()
    levels = []
    n = 1
    sizes = []
    for m in m_factors:
        n *= m
        sizes.append(n)
    for k, nk in enumerate(sizes):
        lat = ScaledLattice(G, (Fraction(1, nk),), (nk,))
        ann = ScaledLattice(Gd, (Fraction(nk),))
        q = interval(0, Fraction(1, nk))
        v = IntegerInterval(-nk // 2, nk // 2 - 1)
        levels.append(ChainLevel(k, lat, ann, q, v))
    return _described(G, Gd, "torus", {}, {"M_seq": list(m_factors)}, levels)


def euclidean_chain(m_table: list[list[int]]) -> LatticeChain:
    """Diagonal chain on R^s: Lambda_k = prod_r (1/N_{k,r}) Z.

    m_table[r] is the factor sequence along axis r; all axes share one depth
    and every factor is at least 2.
    """
    if min(map(len, m_table), default=0) == 0:
        raise LcaError("factor table must be non-empty per axis")
    depth = len(m_table[0])
    if any(len(row) != depth for row in m_table):
        raise LcaError("all axes need the same number of factors")
    if min([require_int(m, "chain factor") for row in m_table for m in row]) < 2:
        raise LcaError(f"all chain factors must be integers >= 2, got {m_table}")
    for r, row in enumerate(m_table):
        require_desk_scale(row, f"euclidean chain factors of axis {r}")
    s = len(m_table)
    G = euclidean_group(s)
    Gd = dual_group(G)
    sizes = []  # sizes[k][r] = N_{k,r}
    acc = [1] * s
    for k in range(depth):
        acc = [acc[r] * m_table[r][k] for r in range(s)]
        sizes.append(tuple(acc))
    levels = []
    for k in range(depth):
        nk = sizes[k]
        lat = ScaledLattice(G, tuple(Fraction(1, n) for n in nk))
        ann = ScaledLattice(Gd, tuple(Fraction(n) for n in nk))
        q = HalfOpenBox(tuple(Fraction(0) for _ in nk), tuple(Fraction(1, n) for n in nk))
        v = HalfOpenBox(
            tuple(Fraction(-n, 2) for n in nk),
            tuple(Fraction(n, 2) for n in nk),
        )
        levels.append(ChainLevel(k, lat, ann, q, v))
    return _described(G, Gd, "euclidean", {"dimension": s}, {"M_table": [list(r) for r in m_table]}, levels)


def _described(G, Gd, variant: str, group_params: dict, chain_params: dict, levels: list) -> LatticeChain:
    """The chain of these levels, its params the descriptor objects it is built from."""
    params = {"group": {"variant": variant, "params": group_params}, "chain": chain_params}
    return LatticeChain(G, Gd, variant, params, _with_cosets(levels))


def _with_cosets(levels: list) -> tuple:
    """The levels with their coset data derived from the lattices.

    d_k is the product of the per-axis step ratios of Lambda_k over
    Lambda_{k+1}; nu_{k,l} are the multiples of the level-k annihilator steps
    below those ratios, zero first; eta_k is the level-(k+1) point with all
    j = 1 when d_k = 2.
    """
    out = list(levels)
    for i, (lvl, finer) in enumerate(zip(levels, levels[1:])):
        ratios = [int(a / b) for a, b in zip(lvl.lattice.step, finer.lattice.step)]
        nu = tuple(map(lvl.annihilator._point, itertools.product(*map(range, ratios))))
        eta = finer.lattice._point([1] * len(ratios)) if len(nu) == 2 else None
        out[i] = replace(lvl, index=len(nu), cosets=nu, splitter=eta)
    return tuple(out)


def refined_dual_domain(chain: LatticeChain, k: int) -> CosetUnion:
    """The coset-union fundamental domain for the level-(k+1) annihilator.

    Union of nu_{k,l} + V_k over l; pairwise disjoint with total measure
    d_k * measure(V_k).
    """
    return CosetUnion(chain.level(k).domain_v, chain.cosets(k))


# variant -> (keys of group.params, the key of chain, its builder): the parts `chain_from_params` reads
_VARIANTS = {
    "integers": ((), "M", integer_chain),
    "cyclic": (("modulus",), "M", cyclic_chain),
    "torus": ((), "M_seq", torus_chain),
    "euclidean": (("dimension",), "M_table", euclidean_chain),
}


def chain_from_params(group: dict, chain: dict) -> LatticeChain:
    """The chain of a descriptor's `group` and `chain` objects; a SchemaError names the descriptor path.

    Every key is read, and any other refused: the variant, the modulus on Z_N, a power of two, the dimension
    on R^s (optional), and the depth M on Z (optional on Z_N), the factors M_seq on T or M_table on R^s.
    """
    variant = require_object(group, "group", ("variant", "params")).get("variant")
    require(isinstance(variant, str) and variant in _VARIANTS, "group.variant", f"unknown variant {variant!r}")
    keys, key, build = _VARIANTS[variant]
    params = require_object(group.get("params", {}), "group.params", keys)
    require_object(chain, "chain", (key,))
    if variant == "cyclic":  # the depth follows from the modulus
        n = params.get("modulus")
        require(type(n) is int and n >= 2 and n & (n - 1) == 0, "group.params.modulus", "need a power of two >= 2")
        m = n.bit_length() - 1
        chain = {key: m, **chain}
        require(chain[key] == m, "chain.M", f"depth must be {m} for modulus {n}")
    with _malformed(f"chain.{key}"):
        built = build(chain[key])
    dim = params.get("dimension", built.group.dimension)
    require(type(dim) is int and dim == built.group.dimension, "group.params.dimension", "one M_table row per axis")
    return built
