"""Periodic filters on the dual group, the UEP matrix, and its verification.

A filter is a function on the dual group, periodic with respect to the
level-(k+1) annihilator lattice.  Two representations are supported:

* TrigPolynomial  -- gamma |-> sum_j c_j * (-j*eta, gamma), automatically
  periodic when the step eta lies in Lambda_{k+1};
* CosetPiecewise  -- constant on each piece of a fundamental domain, extended
  periodically (first matching piece wins, pieces are listed disjointly).

Both evaluate in floats over point arrays (`eval_many`); `eval` is the
one-point case of it.  Exact values are read from value keys: `exact_keys`
gives, over a point array, small integers that fix each value (the quarter
turn of each character value, or the piece index), and `eval_exact` turns one
key into a Radical (sum_j c_j i^{q_j}, or the piece's value).  A point with a
given key has that value by construction; no phase is reduced per point.

The UEP matrix P_k stacks the refinement filter over the wavelet filters and
evaluates column l at gamma + nu_{k,l}.  Verification measures the largest
entry of P*P - d_k I over a sampling plan.  On discrete duals the plan is
exhaustive and the arithmetic exact, evaluated once per distinct key row, so
a true identity reports residual 0; a level with any point that has no exact
value, and every level on a continuous dual, is sampled in floats instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import domains
from .chains import MAX_POINTS, LatticeChain
from .exact import MAX_RADICAND, ZERO, Radical, radical
from .exceptions import (
    EmptySamplingPlanError,
    FilterVariantError,
    PeriodicityMismatchError,
    ResourceLimitError,
    SchemaError,
)
from .groups import EUCLIDEAN, GroupSpec, dual_group, element_scale, pairing, point_array, residue
from .lattices import ScaledLattice

DEFAULT_SEED = 0x5EED

#: `exact_keys` mark for a point where a filter value has no exact form
NO_EXACT = -2


def worst_residual(residuals) -> tuple[float, int]:
    """Largest residual and its index; a NaN anywhere is the worst.

    Comparisons such as `x > worst` and `max(worst, x)` drop a NaN, so every
    check reduces its residuals here.  np.argmax returns the first NaN.  An
    empty input gives (0.0, -1).
    """
    res = np.asarray(residuals, dtype=float).reshape(-1)
    if res.size == 0:
        return 0.0, -1
    i = int(np.argmax(res))
    return float(res[i]), i


@dataclass(frozen=True)
class TrigPolynomial:
    group: GroupSpec  # primal group of the step element
    step: object  # eta in Lambda_{k+1}
    shifts: tuple  # integer j's
    coeffs: tuple  # complex or Radical per shift
    lattice: ScaledLattice  # periodicity lattice (annihilator of level k+1)

    def eval(self, gamma) -> complex:
        return complex(self.eval_many(gamma)[0])

    def eval_many(self, gammas) -> np.ndarray:
        pts = point_array(gammas, dual_group(self.group))
        out = np.zeros(len(pts), dtype=complex)
        for j, c in zip(self.shifts, self.coeffs):
            out += complex(c) * pairing(self.group, element_scale(self.group, -j, self.step), pts)
        return out

    @property
    def key_width(self) -> int:
        return len(self.shifts)

    def exact_keys(self, pts: np.ndarray) -> np.ndarray | None:
        """Quarter turn 0-3 of each character value at the points of a discrete dual.

        Shape (points, shifts); NO_EXACT where a value is not a quarter turn.
        None unless every coefficient is a Radical.
        """
        if not all(isinstance(c, Radical) for c in self.coeffs):
            return None
        keys = np.empty((len(pts), len(self.shifts)), dtype=np.int64)
        for col, j in enumerate(self.shifts):
            r, d = residue(self.group, element_scale(self.group, -j, self.step), pts)
            keys[:, col] = np.where(4 * r % d == 0, 4 * r // d, NO_EXACT)
        return keys

    def eval_exact(self, key) -> Radical | None:
        """sum_j c_j i^{q_j} for one key row of quarter turns q_j.

        None where a q_j is NO_EXACT or the radicands of the sum differ.
        """
        total = ZERO
        for c, q in zip(self.coeffs, key):
            total = None if q == NO_EXACT else total.add(c.turn(q))
            if total is None:
                return None
        return total


@dataclass(frozen=True)
class CosetPiecewise:
    dual: GroupSpec  # dual group the filter lives on
    pieces: tuple  # ((domain, value), ...); first match wins, uncovered points are 0
    domain: object  # fundamental domain of the periodicity lattice: a box one step wide
    lattice: ScaledLattice
    key_width = 1  # one piece index per point

    def __post_init__(self):
        # points reduce into the domain by per-axis floor arithmetic, which
        # needs the domain to fill a box exactly one lattice step wide
        lo, hi = domains.bounds(self.domain)
        unit = 1 if self.dual.is_discrete else 0  # integer bounds are inclusive
        widths = [b - a + unit for a, b in zip(lo, hi)]
        box = math.prod(widths) * (self.dual.point_mass or 1)
        if widths != [Fraction(s) for s in self.lattice.step] or (
            domains.measure(self.domain, self.dual) != box
        ):
            raise PeriodicityMismatchError(
                f"filter domain {self.domain!r} is not a box of the lattice steps {self.lattice.step}"
            )

    def _piece_index(self, gammas) -> np.ndarray:
        """Index of the piece holding each point's representative (-1: none)."""
        pts = point_array(gammas, self.dual)
        lo = point_array(domains.bounds(self.domain)[0], self.dual)
        step = point_array(self.lattice.step, self.dual)
        rep = pts - (pts - lo) // step * step
        idx = np.full(len(pts), -1)
        for i in reversed(range(len(self.pieces))):  # the first match wins
            idx[domains.contains_many(self.pieces[i][0], rep, self.dual)] = i
        return idx

    def eval(self, gamma) -> complex:
        return complex(self.eval_many(gamma)[0])

    def eval_many(self, gammas) -> np.ndarray:
        values = np.array([complex(v) for _, v in self.pieces] + [0j])
        return values[self._piece_index(gammas)]

    def exact_keys(self, pts: np.ndarray) -> np.ndarray:
        """Piece index of each point of a discrete dual (-1: no piece, value 0), shape (points, 1).

        NO_EXACT where the piece value is not a Radical.
        """
        idx = self._piece_index(pts)
        exact = np.array([isinstance(v, Radical) for _, v in self.pieces] + [True])
        return np.where(exact[idx], idx, NO_EXACT)[:, None]

    def eval_exact(self, key) -> Radical | None:
        """The value of the piece a key names; 0 for index -1, None for NO_EXACT."""
        i = key[0]
        return None if i == NO_EXACT else ZERO if i < 0 else self.pieces[i][1]


@dataclass(frozen=True)
class UepMatrix:
    """The (rho_k + 1) x d_k coset-evaluation matrix at one chain level."""

    chain: LatticeChain
    k: int
    rows: tuple  # refinement filter first, wavelet filters after

    @property
    def d(self) -> int:
        return self.chain.index(self.k)

    @property
    def nu(self) -> tuple:
        return self.chain.cosets(self.k)

    def _columns(self, gammas) -> list:
        """The coset columns: the points gamma + nu_{k,l}, one array per l."""
        dual = self.chain.dual
        pts = point_array(gammas, dual)
        return [domains.shift_points(pts, nu, dual) for nu in self.nu]

    def eval_many(self, gammas) -> np.ndarray:
        """The matrix at every point, as an array of shape (points, rows, d_k)."""
        cols = self._columns(gammas)
        return np.stack([np.stack([f.eval_many(c) for c in cols], axis=-1) for f in self.rows], axis=1)

    def exact_keys(self, gammas) -> np.ndarray | None:
        """Value keys of every row at every coset column, one key row per point.

        Points with equal key rows have equal exact matrices.  None where a row
        has no keys.  Keys are defined on discrete duals only.
        """
        cols = self._columns(gammas)
        keys = [f.exact_keys(c) for f in self.rows for c in cols]
        return None if any(k is None for k in keys) else np.concatenate(keys, axis=1)

    def exact_values(self, key) -> list:
        """The matrix at a point with this key row, as rows of Radicals (None: no exact value).

        The row splits into one slice per (row, coset column), in the order of
        `exact_keys`, each as wide as that filter's keys.
        """
        widths = [f.key_width for f in self.rows for _ in self.nu]
        slices = iter(np.split(key, np.cumsum(widths)[:-1]))
        return [[f.eval_exact(next(slices)) for _ in self.nu] for f in self.rows]


def assemble_uep(chain: LatticeChain, k: int, h, g_list) -> UepMatrix:
    """Stack the refinement filter over the wavelet filters at level k."""
    if not g_list:
        raise PeriodicityMismatchError("at least one wavelet filter is required")
    target = chain.level(k + 1).annihilator
    for f in (h, *g_list):
        if f.lattice != target:
            raise PeriodicityMismatchError(
                f"filter periodicity {f.lattice} does not match level {k + 1} annihilator"
            )
    return UepMatrix(chain, k, (h, *g_list))


@dataclass(frozen=True)
class SamplingPlan:
    points: np.ndarray  # shape (n,), or (n, s) on R^s; integers on discrete duals
    label: str

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points))
        if len(self.points) == 0:
            raise EmptySamplingPlanError("sampling plan has no points")

    def point(self, i: int):
        """Point i as a plain number, or a tuple on R^s."""
        p = self.points[i : i + 1].tolist()[0]
        return tuple(p) if isinstance(p, list) else p


def dual_sampling_plan(
    chain: LatticeChain,
    k: int,
    grid: int = 4096,
    random: int = 1024,
    seed: int = DEFAULT_SEED,
    domain=None,
) -> SamplingPlan:
    """Sampling plan covering V_k: exhaustive on discrete duals, grid+random else."""
    dom = domain if domain is not None else chain.level(k).domain_v
    if chain.dual.is_discrete:
        pts = np.fromiter(domains.iter_points(dom, chain.dual), dtype=np.int64)
        return SamplingPlan(pts, f"exhaustive V_{k} ({len(pts)} points)")
    rng = np.random.default_rng(seed)
    scalar = chain.dual.kind != EUCLIDEAN
    pts = np.concatenate(
        [domains.grid_points(dom, grid, scalar), domains.random_points(dom, random, rng, scalar)]
    )
    return SamplingPlan(pts, f"grid+random V_{k} ({len(pts)} points, seed {seed:#x})")


@dataclass(frozen=True)
class UepReport:
    residual: float
    exact: bool
    worst_point: object
    samples: int
    label: str

    def to_json(self) -> dict:
        return {
            "residual": self.residual,
            "exact": self.exact,
            "worst_point": repr(self.worst_point),
            "samples": self.samples,
            "sampling": self.label,
        }


def _gram_residual_exact(P: UepMatrix, key) -> Fraction | None:
    """max |(P*P - d I)_{l,l'}|^2 as an exact rational at a key row, or None."""
    vals = P.exact_values(key)
    if any(v is None for row in vals for v in row):
        return None
    d = P.d
    worst = Fraction(0)
    for l in range(d):
        for lp in range(d):
            acc = radical(-d if l == lp else 0)  # diagonal products |v|^2 are rational, like d
            for row in vals:
                acc = acc.add(row[l].conj().mul(row[lp]))
                if acc is None:
                    return None
            worst = max(worst, acc.abs2())
    return worst


def exact_residuals(keys: np.ndarray | None, abs2_of) -> np.ndarray | None:
    """Exact residual at every point, computed once per distinct key row.

    keys has one row per point; abs2_of(row) is the exact squared residual at
    a point with that key row, a Fraction, or None.  It is evaluated once per
    distinct row and scattered to the points.  None when keys is None, when
    any point is marked NO_EXACT, or when abs2_of gives None.
    """
    if keys is None or (keys == NO_EXACT).any():
        return None
    rows, inverse = np.unique(keys, axis=0, return_inverse=True)
    abs2 = [abs2_of(row) for row in rows]
    if any(w is None for w in abs2):
        return None
    return np.array([math.sqrt(w) for w in abs2])[inverse.reshape(-1)]


def pointwise_residuals(P: UepMatrix, points) -> np.ndarray:
    """Largest entry of |P*P - d I| at each point, one batched Gram product."""
    m = P.eval_many(points)
    gram = np.einsum("nrl,nrm->nlm", m.conj(), m) - P.d * np.eye(P.d)
    return np.max(np.abs(gram), axis=(1, 2))


def verify_uep(P: UepMatrix, plan: SamplingPlan) -> UepReport:
    """Largest deviation of P*P from d_k I over the plan.

    On a discrete dual the Gram matrix is evaluated in exact arithmetic once
    per distinct key row (`UepMatrix.exact_keys`), from values read off the
    key (`UepMatrix.exact_values`), so every point with that key has that
    residual by construction; the report is flagged exact.  A level with any
    point that has no exact value, and any plan on a continuous dual, is
    sampled in floats at every point.
    """
    res = None
    if P.chain.dual.is_discrete:
        res = exact_residuals(P.exact_keys(plan.points), partial(_gram_residual_exact, P))
    exact = res is not None
    if not exact:
        res = pointwise_residuals(P, plan.points)
    worst, i = worst_residual(res)
    return UepReport(worst, exact, plan.point(i), len(res), plan.label)


def _value_json(v) -> dict:
    c = complex(v)
    out = {"re": c.real, "im": c.imag}
    if isinstance(v, Radical):
        out["exact"] = {"re": str(v.re), "im": str(v.im), "rad": str(v.rad)}
    return out


def _value_from_json(data) -> object:
    if "exact" in data:
        e = data["exact"]
        rad = int(e["rad"])
        if rad < 1:
            raise SchemaError(f"radicand must be positive, got {rad}")
        if rad > MAX_RADICAND:
            raise ResourceLimitError(f"radicand {rad} exceeds {MAX_RADICAND} (desk-scale cap)")
        return radical(e["re"], e["im"], rad)  # square-free, as Radical.mul needs
    return complex(data["re"], data["im"])


def filter_to_json(f) -> dict:
    if isinstance(f, TrigPolynomial):
        return {
            "kind": "trig",
            "eta": domains._point_json(f.step),
            "shifts": list(f.shifts),
            "coeffs": [[complex(c).real, complex(c).imag] for c in f.coeffs],
            "coeffs_exact": [_value_json(c) for c in f.coeffs],
        }
    if isinstance(f, CosetPiecewise):
        return {
            "kind": "piecewise",
            "domain": domains.domain_to_json(f.domain),
            "pieces": [
                {"domain": domains.domain_to_json(d), "value": _value_json(v)} for d, v in f.pieces
            ],
        }
    raise FilterVariantError(f"cannot serialize {type(f).__name__}")


def filter_from_json(data: dict, chain: LatticeChain, k: int):
    """Rebind a serialized filter to level k of the chain (periodicity k+1)."""
    lattice = chain.level(k + 1).annihilator
    if data["kind"] == "trig":
        step = domains._point_from_json(data["eta"])
        shifts = data["shifts"]
        if not (
            shifts
            and len(data["coeffs"]) == len(shifts)
            and all(type(j) is int for j in shifts)
            and chain.level(k + 1).lattice.contains(step)
        ):
            raise PeriodicityMismatchError(
                f"trig filter needs integer shifts, one coefficient each, and a level-{k + 1} lattice step"
            )
        if max(shifts) - min(shifts) >= MAX_POINTS:
            raise ResourceLimitError(f"trig filter shifts span more than {MAX_POINTS} points (desk-scale cap)")
        coeffs = []
        for i, pair in enumerate(data["coeffs"]):
            exact = data.get("coeffs_exact")
            if exact is not None and "exact" in exact[i]:
                coeffs.append(_value_from_json(exact[i]))
            else:
                coeffs.append(complex(pair[0], pair[1]))
        return TrigPolynomial(
            chain.group,
            step,
            tuple(shifts),
            tuple(coeffs),
            lattice,
        )
    if data["kind"] == "piecewise":
        pieces = tuple(
            (domains.domain_from_json(p["domain"], chain.dual), _value_from_json(p["value"]))
            for p in data["pieces"]
        )
        return CosetPiecewise(chain.dual, pieces, domains.domain_from_json(data["domain"], chain.dual), lattice)
    raise SchemaError(f"unknown filter kind {data['kind']!r}")
