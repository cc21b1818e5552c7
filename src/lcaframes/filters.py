"""Periodic filters on the dual group, the UEP matrix, and its verification.

A filter is a function on the dual group, periodic with respect to the
level-(k+1) annihilator lattice.  Two representations are supported:

* TrigPolynomial  -- gamma |-> sum_j c_j * (-j*eta, gamma), automatically
  periodic when the step eta lies in Lambda_{k+1};
* CosetPiecewise  -- constant on each piece of a fundamental domain, extended
  periodically (first matching piece wins, pieces are listed disjointly).

Rows of filters are evaluated together at gamma + nu_l, for every point gamma
and coset column l: in floats (`_row_values`), or as value keys (`_row_keys`),
small integers that fix each value (the quarter turn of a character value, or
a piece index).  A filter's `eval_many` and `exact_keys` are the one-row case
at nu = 0; `eval` is one point and `eval_exact` turns one key into a Radical.
Trig rows share one character table per evaluation, from one character per
step: eta is paired once with the points and the nu_l together, and each shift
x_j = -j eta follows as (eta, .)^(-j), in integer residues on discrete duals;
the columns follow from (x, gamma + nu) = (x, gamma)(x, nu), and a row is the
table times its coefficients.  Piecewise rows that share a fundamental domain
reduce each column into it once.

The UEP matrix P_k stacks the refinement filter over the wavelet filters and
evaluates column l at gamma + nu_{k,l}.  Verification measures the largest
entry of P*P - d_k I.  On discrete duals the plan is exhaustive and the
arithmetic exact, once per distinct key row, so a true identity reports 0;
elsewhere a level of trig rows is bounded at every gamma from its
coefficients, and any other level is sampled in floats.

An artifact stores only what decides a filter, each value in one form
(`_value_json`), exact for a Radical and floats otherwise: a trig filter's
nonzero terms on ascending shifts, a piecewise filter's pieces.  The lattice
and the pieces' fundamental domain come from the chain, and
`filter_from_json` reads all of it and refuses any key it does not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from random import Random

import numpy as np

from . import domains
from .chains import MAX_POINTS, LatticeChain, refined_dual_domain
from .exact import MAX_RADICAND, ZERO, Radical, cis_many, radical, to_float
from .exceptions import (
    EmptySamplingPlanError, FilterVariantError, PeriodicityMismatchError, ResourceLimitError, SchemaError, require,
    require_object,
)
from .functions import uniform
from .groups import GroupSpec, dual_group, element_scale, phase, point_array, residue
from .lattices import ScaledLattice

DEFAULT_SEED = 0x5EED

#: `exact_keys` mark for a point where a filter value has no exact form
NO_EXACT = -2

#: desk-scale caps on an artifact's trig shift size (a float holds every integer below) and on grid entries
MAX_SHIFT, MAX_GRID = 2**53, 2**20


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
        return _row_values((self,), gammas, dual_group(self.group))[:, 0, 0]

    @property
    def key_width(self) -> int:
        return len(self.shifts)

    def exact_keys(self, pts) -> np.ndarray | None:
        """Quarter turn 0-3 of each character value, shape (points, shifts), as in `_row_keys`."""
        keys = _row_keys((self,), pts, dual_group(self.group))
        return None if keys is None else keys[0]

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
    domain: object  # fundamental domain of the lattice, `chains.refined_dual_domain`: a box one step wide
    lattice: ScaledLattice
    key_width = 1  # one piece index per point

    def eval(self, gamma) -> complex:
        return complex(self.eval_many(gamma)[0])

    def eval_many(self, gammas) -> np.ndarray:
        return _row_values((self,), gammas, self.dual)[:, 0, 0]

    def exact_keys(self, pts) -> np.ndarray:
        """Piece index of each point, shape (points, 1), as in `_row_keys`."""
        return _row_keys((self,), pts, self.dual)[0]

    def eval_exact(self, key) -> Radical | None:
        """The value of the piece a key names; 0 for index -1, None for NO_EXACT."""
        i = key[0]
        return None if i == NO_EXACT else ZERO if i < 0 else self.pieces[i][1]


def _step_characters(group: GroupSpec, step, js, both: np.ndarray, exact: bool):
    """(-j step, .) at the points `both`, one row per j, from one character of the step: (step, .)^(-j).

    exact: the integer residues (R, D) with R = -j r mod D for `residue`'s (r, D).  Else the values: from
    those residues where `phase` gives them, so quarter turns stay exact, and from the float phases -j t
    elsewhere.
    """
    r, d = residue(group, element_scale(group, 1, step), both) if exact else phase(group, step, both)
    if d is None:
        return cis_many(np.multiply.outer(np.array([-j for j in js], dtype=float), r))
    R = np.multiply.outer(np.array([-j % d for j in js], dtype=np.int64), r) % d  # j reduced exactly first
    return (R, d) if exact else cis_many(R / d)


def _row_tables(rows, gammas, dual, nus, exact: bool) -> tuple:
    """(n, columns, xs, table, at, pieces): what rows at gamma + nu_l share, for n points and each column l.

    xs are the distinct (step, j) of the trig rows, standing for x = -j step; table[i] is the character of
    xs[i] at the points, then at the nu_l (one column, nu = 0, by default), as `_step_characters` gives it
    (residues when exact), with one character per step; at[r] lists row r's shifts as indices into xs.
    pieces[r, l] is the index of the piece holding each point + nu_l (-1: none);
    rows that share a fundamental domain reduce each column into it once.
    """
    pts, nus = point_array(gammas, dual), nus or (dual.element([0] * dual.dimension),)
    both = np.concatenate([pts, point_array(nus, dual)])
    steps = {}  # step -> (group, {j: None}): the distinct shifts of each step, in order
    for f in rows:
        if isinstance(f, TrigPolynomial):
            steps.setdefault(f.step, (f.group, {}))[1].update(dict.fromkeys(f.shifts))
    xs, table = [], []
    for step, (group, js) in steps.items():
        chars = _step_characters(group, step, list(js), both, exact)
        xs += [(step, j) for j in js]
        table += [(R, chars[1]) for R in chars[0]] if exact else list(chars)
    index = {x: i for i, x in enumerate(xs)}
    pieces, reps = {}, {}
    for r, f in enumerate(rows):
        if not isinstance(f, CosetPiecewise):
            continue
        if f.domain not in reps:  # points + nu_l reduced into the domain, once for the rows that share it
            lo, step = point_array(domains.bounds(f.domain, dual)[0], dual), point_array(f.lattice.step, dual)
            reps[f.domain] = [c - (c - lo) // step * step for c in (domains.shift_points(pts, nu, dual) for nu in nus)]
        for l, rep in enumerate(reps[f.domain]):
            idx = pieces[r, l] = np.full(len(pts), -1)
            for i in reversed(range(len(f.pieces))):  # the first match wins
                idx[domains.contains_many(f.pieces[i][0], rep, dual)] = i
    return len(pts), len(nus), xs, table, [[index[f.step, j] for j in getattr(f, "shifts", ())] for f in rows], pieces


def _row_values(rows, gammas, dual, nus=None) -> np.ndarray:
    """Every row at gamma + nu_l in floats, shape (points, rows, columns): a trig row is table times coefficients."""
    n, cols, _, table, at, pieces = _row_tables(rows, gammas, dual, nus, False)
    coef = np.zeros((len(table), len(rows)), dtype=complex)
    for r, f in enumerate(rows):
        for i, c in zip(at[r], getattr(f, "coeffs", ())):
            coef[i, r] += complex(c)
    out = np.zeros((len(rows), cols, n), dtype=complex)  # points innermost, so each product runs over them
    with np.errstate(invalid="ignore", over="ignore"):
        for chars, c in zip(table, coef):
            out += np.multiply.outer(np.multiply.outer(c, chars[n:]), chars[:n])
    for (r, l), idx in pieces.items():
        out[r, l] = np.array([complex(v) for _, v in rows[r].pieces] + [0j])[idx]
    return out.transpose(2, 0, 1)


def _row_keys(rows, gammas, dual, nus=None) -> list | None:
    """Value keys of every row at gamma + nu_l on a discrete dual, a (points, width) array per row and column.

    A trig key is the quarter turn 0-3 of each character value, from the
    residues of (x_j, gamma) and (x_j, nu_l) added mod D; a piecewise key is
    the piece index (-1: no piece, value 0).  NO_EXACT marks a value with no
    exact form.  None unless every trig coefficient is a Radical.
    """
    if not all(isinstance(c, Radical) for f in rows for c in getattr(f, "coeffs", ())):
        return None
    n, cols, _, table, at, pieces = _row_tables(rows, gammas, dual, nus, True)
    turns = np.empty((len(table), n, cols), dtype=np.int64)
    for i, (r, d) in enumerate(table):
        s = (r[:n, None] + r[n:]) % d
        turns[i] = np.where(4 * s % d == 0, 4 * s // d, NO_EXACT)
    for (r, l), idx in pieces.items():
        exact = np.array([isinstance(v, Radical) for _, v in rows[r].pieces] + [True])
        pieces[r, l] = np.where(exact[idx], idx, NO_EXACT)[:, None]
    return [pieces.get((r, l), turns[at[r], :, l].T) for r in range(len(rows)) for l in range(cols)]


def coefficient_grid(rows, lattice: ScaledLattice, nus=None) -> np.ndarray | None:
    """c_{r,x} (x, nu_l) per trig row r and column l at the cell of each x = -j eta, shape (rows, columns, *span).

    A cell is x over the lattice step, -j times `ScaledLattice.coordinates` of eta, centred, so j and
    j + ord(eta) share one.  None for a row that is not trig, or past MAX_GRID rows x columns x
    prod(2 span - 1), before allocating.
    """
    if not all(isinstance(f, TrigPolynomial) for f in rows):
        return None
    _, cols, xs, table, at, _ = _row_tables(rows, (), dual_group(lattice.group), nus, False)
    coords = {step: lattice.coordinates(step) for step in dict.fromkeys(step for step, _ in xs)}
    if None in coords.values():
        raise PeriodicityMismatchError(f"a trig filter shift is off the lattice of steps {lattice.step}")
    cells = [lattice.centred([-j * c for c in coords[step]]) for step, j in xs]
    lo = [min(c) for c in zip(*cells)]
    cells = [[j - a for j, a in zip(js, lo)] for js in cells]
    span = [max(c) + 1 for c in zip(*cells)]
    if len(rows) * cols * math.prod(2 * s - 1 for s in span) > MAX_GRID:
        return None
    terms = [(r, i, complex(c)) for r, f in enumerate(rows) for i, c in zip(at[r], f.coeffs)]
    r, i, c = (np.array(v) for v in zip(*terms))
    grid = np.zeros((len(rows), cols, *span), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # one scatter; shifts that share a cell add in order
        np.add.at(grid, (r[:, None], np.arange(cols), *np.array(cells)[i].T[..., None]), c[:, None] * np.array(table)[i])
    return grid


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

    def eval_many(self, gammas) -> np.ndarray:
        """The matrix at every point, as an array of shape (points, rows, d_k)."""
        return _row_values(self.rows, gammas, self.chain.dual, self.nu)

    def exact_keys(self, gammas) -> np.ndarray | None:
        """Value keys of every row at every coset column, one key row per point.

        Points with equal key rows have equal exact matrices.  None where a row
        has no keys.  Keys are defined on discrete duals only.
        """
        keys = _row_keys(self.rows, gammas, self.chain.dual, self.nu)
        return None if keys is None else np.concatenate(keys, axis=1)

    @property
    def keyable(self) -> bool:
        """Whether every trig shift x_j has a character of order dividing 4, so that keys can fix the values.

        x_j lies in Lambda_{k+1}, so (x_j, .) takes all its values on V_{k+1}, the points gamma + nu_l of an
        exhaustive plan: a value that is no quarter turn marks a point NO_EXACT there.
        """
        trig = (f for f in self.rows if isinstance(f, TrigPolynomial))
        return not any(any(f.group.coords(element_scale(f.group, 4 * j, f.step))) for f in trig for j in f.shifts)

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
            raise PeriodicityMismatchError(f"filter periodicity {f.lattice} does not match level {k + 1} annihilator")
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
    chain: LatticeChain, k: int, grid: int = 4096, random: int = 1024, seed: int = DEFAULT_SEED, domain=None
) -> SamplingPlan:
    """Sampling plan covering V_k: exhaustive on discrete duals, grid+random else."""
    dom = domain if domain is not None else chain.level(k).domain_v
    if chain.dual.is_discrete:
        pts = np.fromiter(domains.iter_points(dom, chain.dual), dtype=np.int64)
        return SamplingPlan(pts, f"exhaustive V_{k} ({len(pts)} points)")
    lo, hi = (np.array([float(a) for a in v]) for v in domains.bounds(dom, chain.dual))  # uniform in the bounding box
    rows = [domains.grid_points(dom, grid, chain.dual), lo + uniform(Random(seed), (random, len(lo))) * (hi - lo)]
    pts = point_array(np.concatenate(rows), chain.dual)
    return SamplingPlan(pts, f"grid+random V_{k} ({len(pts)} points, seed {seed:#x})")


@dataclass(frozen=True)
class UepReport:
    residual: float
    exact: bool
    worst_point: object
    samples: int  # plan points; 0 for a coefficient bound, which holds over the whole dual
    label: str

    def to_json(self) -> dict:
        out = {"residual": self.residual, "exact": self.exact}
        if not self.samples:  # a coefficient bound names its method in place of a plan
            return {**out, "method": "coefficients"}
        return {**out, "worst_point": repr(self.worst_point), "samples": self.samples, "sampling": self.label}


def _gram_residual_exact(P: UepMatrix, key) -> Fraction | None:
    """max |(P*P - d I)_{l,l'}|^2 as an exact rational at a key row, or None."""
    vals = P.exact_values(key)
    if any(v is None for row in vals for v in row):
        return None
    worst, diagonal = Fraction(0), Radical(-P.d, 0, 1)
    for l, lp in combinations_with_replacement(range(P.d), 2):  # |(P*P)_{l',l}| = |(P*P)_{l,l'}|
        acc = diagonal if l == lp else ZERO  # diagonal products |v|^2 are rational, like d
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
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()  # one bytes object a row
    first = {}  # a key row's bytes -> its first point
    at = [first.setdefault(row, i) for i, row in enumerate(rows)]
    abs2 = {i: abs2_of(keys[i]) for i in first.values()}
    if None in abs2.values():
        return None
    res = {i: math.sqrt(to_float(w)) for i, w in abs2.items()}
    return np.array([res[i] for i in at])


def pointwise_residuals(P: UepMatrix, points) -> np.ndarray:
    """Largest entry of |P*P - d I| per point over its d(d+1)/2 upper-triangle entries; np.maximum keeps a NaN."""
    m = P.eval_many(points).transpose(1, 2, 0)  # (rows, d, points)
    worst = np.zeros(m.shape[-1])
    for l, lp in combinations_with_replacement(range(P.d), 2):
        entry = (m[:, l].conj() * m[:, lp]).sum(axis=0) - (P.d if l == lp else 0)
        worst = np.maximum(worst, np.abs(entry))
    return worst


def coefficient_residual(P: UepMatrix) -> float | None:
    """A bound on |P*P - d I| over the whole dual from the rows' coefficients; None where `coefficient_grid` is.

    (P*P - d I)_{l,l'} = sum_z E_{l,l',z} (z, .) - d delta_{ll'}, E_{l,l'} the correlation over the rows of
    grid columns l and l', so the largest sum_z |E_{l,l',z} - d delta_{ll'} delta_{z0}| bounds it at every
    gamma.  It is circular over 2 span - 1 lags per axis, or the order if fewer: z and z + ord are one character.
    """
    lattice = P.chain.level(P.k + 1).lattice
    grid = coefficient_grid(P.rows, lattice, P.nu)
    if grid is None:
        return None
    orders = lattice.order or [None] * grid.ndim
    lengths = [2 * s - 1 if o is None else min(2 * s - 1, o) for s, o in zip(grid.shape[2:], orders)]
    with np.errstate(invalid="ignore", over="ignore"):
        F = np.fft.fftn(grid, lengths, axes=range(2, grid.ndim))
        # E at lag z sits at index z mod the length; d delta_{z0} transforms to d at every frequency
        pairs = combinations_with_replacement(range(P.d), 2)
        G = [(F[:, l].conj() * F[:, lp]).sum(0) - P.d * (l == lp) for l, lp in pairs]
        E = np.fft.ifftn(G, axes=range(1, grid.ndim - 1))  # the d(d+1)/2 pairs in one call
        return worst_residual(np.abs(E).reshape(len(E), -1).sum(axis=1))[0]


def verify_uep(P: UepMatrix, plan) -> UepReport:
    """Largest deviation of P*P from d_k I.

    On a discrete dual the Gram matrix is first evaluated in exact arithmetic once per distinct key row
    (`UepMatrix.exact_keys`), from values read off the key (`UepMatrix.exact_values`), so every point with
    that key has that residual by construction; the report is flagged exact.  Otherwise a level of trig
    rows reports the `coefficient_residual` bound, with 0 samples; any other is sampled at every plan point.
    plan is a SamplingPlan, or a function of no arguments that builds one, called only where points are read;
    on a discrete dual the plan it builds is exhaustive (`dual_sampling_plan`), so a level that cannot key
    there (`UepMatrix.keyable`) builds neither that plan nor its keys.
    """
    res = None
    if P.chain.dual.is_discrete and (P.keyable or not callable(plan)):
        plan = plan() if callable(plan) else plan
        res = exact_residuals(P.exact_keys(plan.points), partial(_gram_residual_exact, P))
    if res is None and (bound := coefficient_residual(P)) is not None:
        return UepReport(bound, False, None, 0, "coefficients")
    exact = res is not None
    if not exact:
        plan = plan() if callable(plan) else plan
        res = pointwise_residuals(P, plan.points)
    worst, i = worst_residual(res)
    return UepReport(worst, exact, plan.point(i), len(res), plan.label)


def _value_json(v) -> dict:
    """A filter value's one stored form: {"exact": {"re", "im", "rad"}} for a Radical, floats {"re", "im"} for any other."""
    if isinstance(v, Radical):
        return {"exact": {"re": str(v.re), "im": str(v.im), "rad": str(v.rad)}}
    c = complex(v)
    return {"re": c.real, "im": c.imag}


def _value_from_json(data, parsed: dict, path: str) -> object:
    """A filter value in the form `_value_json` writes; any other form is refused, with the value's path.

    Floats must be JSON numbers.  Exact parts are read through their string form, so a JSON bool or 2.7
    radicand is refused, and the radicand must be the value's own, so that each part changes the value.
    parsed maps the string forms already read, within one load, to their values, so each distinct exact
    value is parsed once.
    """
    if set(data) != {"exact"}:
        if set(data) != {"re", "im"} or not all(type(data[part]) in (int, float) for part in ("re", "im")):
            raise SchemaError(f"{path}: a filter value is an exact form or the numbers re and im, got {data!r}")
        return complex(data["re"], data["im"])
    e = require_object(data["exact"], f"{path}.exact", ("re", "im", "rad"))
    key = (str(e["re"]), str(e["im"]), str(e["rad"]))
    if key not in parsed:
        rad = int(key[2])
        if rad > MAX_RADICAND:
            raise ResourceLimitError(f"radicand {rad} exceeds {MAX_RADICAND} (desk-scale cap)")
        value = radical(key[0], key[1], rad)  # refuses a negative radicand
        if value.rad != rad:  # square-free, as Radical.mul needs, and positive
            raise SchemaError(f"{path}: radicand {rad} is not the value's own: square-free, and 1 for zero")
        complex(value)  # the float paths need it: OverflowError beyond the float range
        parsed[key] = value
    return parsed[key]


def filter_to_json(f) -> dict:
    if isinstance(f, TrigPolynomial):
        return {
            "kind": "trig",
            "eta": domains._point_json(f.step),
            "shifts": list(f.shifts),
            "coeffs": [_value_json(c) for c in f.coeffs],
        }
    if isinstance(f, CosetPiecewise):
        return {
            "kind": "piecewise",
            "pieces": [{"domain": domains.domain_to_json(d), "value": _value_json(v)} for d, v in f.pieces],
        }
    raise FilterVariantError(f"cannot serialize {type(f).__name__}")


_FILTER_KEYS = {"trig": ("eta", "shifts", "coeffs"), "piecewise": ("pieces",)}


def filter_from_json(data: dict, chain: LatticeChain, k: int, parsed: dict | None = None, path: str = "filter"):
    """Rebind a serialized filter to level k of the chain (periodicity k+1); a key it does not read is refused.

    A trig filter's shifts strictly ascend, one nonzero coefficient each; a piecewise filter's fundamental
    domain is `refined_dual_domain(chain, k)`.  parsed holds the exact values read so far by the same load
    (`_value_from_json`); a fresh one by default.  path names the filter in error messages.
    """
    parsed = {} if parsed is None else parsed
    lattice = chain.level(k + 1).annihilator
    require_object(data, path, ("kind", *_FILTER_KEYS.get(data["kind"], ())))
    if data["kind"] == "trig":
        step, shifts = domains._point_from_json(data["eta"]), data["shifts"]
        ascending = all(type(j) is int for j in shifts) and all(a < b for a, b in zip(shifts, shifts[1:]))
        well_formed = shifts and ascending and len(data["coeffs"]) == len(shifts)
        require(well_formed and chain.level(k + 1).lattice.contains(step), path, "a trig filter needs strictly "
                f"ascending integer shifts, one coefficient each, and a level-{k + 1} lattice step")
        if shifts[-1] - shifts[0] >= MAX_POINTS or max(map(abs, (*shifts, *chain.group.coords(step)))) >= MAX_SHIFT:
            raise ResourceLimitError(f"trig filter shifts span {MAX_POINTS} points, or shifts or step reach {MAX_SHIFT} (desk-scale cap)")
        coeffs = tuple(_value_from_json(c, parsed, f"{path}.coeffs[{i}]") for i, c in enumerate(data["coeffs"]))
        require(not any(c in (0, ZERO) for c in coeffs), f"{path}.coeffs", "a zero coefficient is not stored")
        return TrigPolynomial(chain.group, step, tuple(shifts), coeffs, lattice)
    if data["kind"] == "piecewise":
        pieces = []
        for i, p in enumerate(data["pieces"]):
            at = f"{path}.pieces[{i}]"
            require_object(p, at, ("domain", "value"))
            domain = domains.domain_from_json(p["domain"], chain.dual, f"{at}.domain")
            pieces.append((domain, _value_from_json(p["value"], parsed, f"{at}.value")))
        return CosetPiecewise(chain.dual, tuple(pieces), refined_dual_domain(chain, k), lattice)
    raise SchemaError(f"{path}: unknown filter kind {data['kind']!r}")
