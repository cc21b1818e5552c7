"""Frame systems, analysis coefficients, and the core verification identities.

A frame system bundles one scaling generator per level and the wavelet
generators defined through the level filters.  The system elements are the
lattice translates of the base-level scaling generator plus the lattice
translates of every wavelet (equivalently, on the Fourier side, modulations).

Verification entry points:

* analysis / parseval_residual  -- coefficient energy against the norm;
* frame_operator                -- N x N operator on Z_N (the dense reference of `_frame_residual`);
* fiber_identity_sides          -- coefficient sum vs dual-cell fiber integral;
* telescoping_residual          -- one-level energy split through the filters, relative to ||f||^2.

A test function is analysed on the side it lives on: by translates on the
chain's group (Z and Z_N), by modulates on its dual (band systems on T, whose
dual is discrete, and on Z_N), with energies from fiber folds on finite
lattices, one contraction per generator over whole periods.  The suites use
the first side where every generator has finite values.  Systems with no
such side (splines on T, all on R^s) are matrix-condition only and rejected
here.  On Z_N the energies and the frame operator read one table of
generator spectra, `FrameSystem.spectra`.  An energy table computes the
columns of the scalings past the first, which only the telescope reads, for
the telescope's rows alone.

An artifact (`system_to_json`, sharing no value with the system) is the
system's normalized descriptor and its filters, each fact once.  Construct and
load read the descriptor alike (`read_descriptor`): the chain once, the band on
it; construct builds the masks, and `system_from_json` reads them from the file.
A filter entry's level is its position, and what the chain fixes (the
periodicity lattice, a piecewise filter's fundamental domain) is not stored.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import bspline as bsp
from . import charfun as cf
from . import domains
from .chains import LatticeChain, chain_from_params
from .exceptions import (
    DomainParameterError,
    ProperSubsetError,
    SchemaError,
    UncertifiedLevelError,
    UnsupportedVerificationError,
    _malformed,
    require,
    require_object,
)
from .filters import (
    DEFAULT_SEED,
    TrigPolynomial,
    UepMatrix,
    assemble_uep,
    dual_sampling_plan,
    filter_from_json,
    filter_to_json,
    verify_uep,
)
from .functions import DiscreteFunction
from .groups import pairing
from .lattices import cyclic_annihilator

BLOCK_ENTRIES = 2**14  # entries of U S U* - I that `_frame_residual` holds at once
FORMAT = "lcaframes/4"  # the artifact form `system_to_json` writes and `system_from_json` reads


@dataclass(frozen=True)
class Generator:
    label: str
    level: int  # lattice level indexing its translates / modulations
    m: int | None
    time: DiscreteFunction | None  # on G, when finitely supported there
    freq: DiscreteFunction | None  # on the dual, when finitely supported there


@dataclass(frozen=True)
class LevelFilters:
    k: int
    h: object
    gs: tuple


@dataclass(frozen=True)
class FrameSystem:
    chain: LatticeChain
    family: dict
    k0: int
    k1: int
    level_filters: tuple
    scalings: tuple  # one scaling generator per level k0..k1
    wavelets: tuple  # wavelet generators, ordered by (level, m)
    band: cf.OmegaChain | None = None

    def scaling(self, k: int) -> Generator:
        return self.scalings[k - self.k0]

    def filters_at(self, k: int) -> LevelFilters:
        return self.level_filters[k - self.k0]

    def system_generators(self) -> list:
        """The generators whose translates form the frame."""
        return [self.scaling(self.k0), *self.wavelets]

    def uep_matrix(self, k: int) -> UepMatrix:
        lf = self.filters_at(k)
        return assemble_uep(self.chain, k, lf.h, lf.gs)

    @cached_property
    def spectra(self) -> np.ndarray:
        """FFT of each generator of (*scalings, *wavelets) on Z_N, one row each: computed on first use, not on build."""
        return np.fft.fft([g.time.array for g in (*self.scalings, *self.wavelets)])


def _levels(chain: LatticeChain, k0, k1) -> tuple[int, int]:
    k0 = chain.k0 if k0 is None else k0
    k1 = chain.k1 if k1 is None else k1
    if not chain.k0 <= k0 < k1 <= chain.k1:
        raise DomainParameterError(f"need k0 < k1 within {chain.k0}..{chain.k1}")
    return k0, k1


def build_bspline_system(chain: LatticeChain, order: int, k0=None, k1=None) -> FrameSystem:
    """Spline family: binomial lowpass plus order-matched wavelet masks."""
    k0, k1 = _levels(chain, k0, k1)
    level_filters = []
    for k in range(k0, k1):
        bsp.check_refinement_splitting(chain, k)
        h = bsp.refinement_filter(chain, k, order)
        level_filters.append(LevelFilters(k, h, tuple(bsp.wavelet_filters(chain, k, order))))
    return _assemble(chain, {"type": "bspline", "order": order}, k0, k1, level_filters, None)


def build_charfun_system(band: cf.OmegaChain, mode: str, k0=None, k1=None) -> FrameSystem:
    """Band family: indicator scaling functions with piecewise wavelet masks."""
    chain = band.chain
    k0, k1 = _levels(chain, k0, k1)
    if mode not in ("proper", "shannon"):
        raise DomainParameterError(f"unknown band mode {mode!r}")
    if mode == "shannon" and band.params:  # its artifact states the mode alone, and loads the full band
        raise DomainParameterError("a shannon system is built on the full band, `full_band_chain`")
    level_filters = []
    for k in range(k0, k1):
        if mode == "proper" and not band.is_proper(k):
            raise ProperSubsetError(
                f"level {k} band set equals the dual cell; start the system higher"
            )
        h = cf.indicator_refinement_filter(band, k)
        gs = (
            cf.bandlimited_wavelet_filters(band, k)
            if mode == "proper"
            else cf.orthonormal_wavelet_filters(band, k)
        )
        level_filters.append(LevelFilters(k, h, tuple(gs)))
    return _assemble(chain, {"type": "charfun", "mode": mode}, k0, k1, level_filters, band)


def _assemble(chain: LatticeChain, family: dict, k0: int, k1: int, level_filters, band) -> FrameSystem:
    """The system on levels k0..k1 with the given filters: its generators.

    Spline generators get exact time values on Z and Z_N.  Band generators
    get values on a discrete dual, and their wavelets are filter times
    next-level scaling there; on Z_N both also get the inverse transform.
    Elsewhere a generator has no finite representation and is certified
    through the matrix condition only.
    """
    scalings, wavelets = [], []
    if family["type"] == "bspline":
        for k in range(k0, k1 + 1):
            scalings.append(Generator(f"phi[{k}]", k, None, bsp.bspline_time(chain, k, family["order"]), None))
        for lf in level_filters:
            phi_next = scalings[lf.k + 1 - k0].time
            for m, g in enumerate(lf.gs, start=1):
                wt = None if phi_next is None else bsp.wavelet_time(chain, lf.k, g, phi_next)
                wavelets.append(Generator(f"psi[{lf.k}][{m}]", lf.k, m, wt, None))
    else:
        for k in range(k0, k1 + 1):
            freq = cf.indicator_generator(band, k).freq_function() if chain.dual.is_discrete else None
            scalings.append(Generator(f"phi[{k}]", k, None, _time_side(freq, chain), freq))
        for lf in level_filters:
            phi_next = scalings[lf.k + 1 - k0].freq
            for m, g in enumerate(lf.gs, start=1):
                freq = None
                if phi_next is not None:
                    vals = g.eval_many(np.arange(phi_next.start, phi_next.stop))
                    freq = DiscreteFunction(chain.dual, phi_next.start, vals * phi_next.array)
                wavelets.append(
                    Generator(f"psi[{lf.k}][{m}]", lf.k, m, _time_side(freq, chain), freq)
                )
    return FrameSystem(
        chain, family, k0, k1, tuple(level_filters), tuple(scalings), tuple(wavelets), band
    )


def _time_side(freq: DiscreteFunction | None, chain: LatticeChain) -> DiscreteFunction | None:
    """Inverse Fourier transform Z_N-dual -> Z_N (weight 1/N); None off Z_N."""
    if not chain.group.is_finite:
        return None
    return DiscreteFunction(chain.group, 0, np.fft.ifft(freq.array))


def _default_side(system: FrameSystem) -> str | None:
    """The first of time and freq on which every generator has finite values, or None."""
    gens = (*system.scalings, *system.wavelets)
    return next((side for side in ("time", "freq") if all(getattr(g, side) is not None for g in gens)), None)


def _generator_function(system, gen: Generator, side: str) -> DiscreteFunction:
    fn = gen.time if side == "time" else gen.freq
    if fn is None:
        raise UnsupportedVerificationError(
            f"{gen.label} has no finite {side}-side representation on {system.chain.group.describe()}"
        )
    return fn


def _translates(system: FrameSystem, gen: Generator, start: int, stop: int) -> tuple[int, np.ndarray]:
    """(j0, rows): row i is g(x - lambda) on [start, stop) for lambda = (j0 + i) s.

    The rows are equally spaced windows of one array, returned as a strided
    view: on Z_N ([start, stop) is one period) all N / s translates, windows
    of two periods of g; on Z those meeting the window, windows of g padded by zeros.
    """
    chain = system.chain
    g = _generator_function(system, gen, "time")
    lat = chain.level(gen.level).lattice
    step = int(lat.step[0])
    n = stop - start
    if chain.group.is_finite:
        j0, count, first = 0, lat.order[0], n
        ext = np.tile(g.array, 2)  # ext[n - lambda + x] = g(x - lambda mod N)
    else:
        j0 = -((g.stop - 1 - start) // step)  # ceil((start - g.stop + 1) / step)
        count = (stop - 1 - g.start) // step - j0 + 1
        pad = np.zeros(n)
        ext = np.concatenate([pad, g.array, pad])  # ext[n - g.start + y] = g(y), 0 off the support
        first = n - g.start + start - j0 * step
    return j0, np.lib.stride_tricks.sliding_window_view(ext, n)[first::-step][:count]


def _side_group(system: FrameSystem, side: str):
    return system.chain.group if side == "time" else system.chain.dual


def _coefficients(system: FrameSystem, gen: Generator, side: str, start: int, F: np.ndarray) -> tuple[int, np.ndarray]:
    """(j0, C): C[t, i] = <F[t], translate (time) or modulate (freq) of gen by (j0 + i) s>.

    F stacks test functions on one window [start, start + F.shape[1]), one per
    row.  The conjugate stays on F, so the strided translate view is never
    copied.  The modulation side is one DFT over the common support, with
    the conjugate characters (j s, x) of the lattice points as its matrix.
    """
    # products go through einsum, not BLAS: threaded BLAS calls stall when the host is busy
    weight = float(_side_group(system, side).point_mass)
    stop = start + F.shape[1]
    if side == "time":
        j0, rows = _translates(system, gen, start, stop)
        return j0, weight * np.einsum("jx,tx->tj", rows, F.conj()).conj()
    chain = system.chain
    g = _generator_function(system, gen, side)
    lo = max(start, g.start)
    hi = max(lo, min(stop, g.stop))
    prod = F[:, lo - start : hi - start] * g.array[lo - g.start : hi - g.start].conj()
    lat = chain.level(gen.level).lattice
    step = lat.step[0]  # s, the generator of the lattice {j s}
    step = int(step) if step.denominator == 1 else step
    # (j s, x) = (s, j x): the characters of all lattice points in one call
    chars = pairing(chain.group, step, np.outer(np.arange(lat.size), np.arange(lo, hi)))
    return 0, weight * np.einsum("jx,tx->tj", chars.reshape(lat.size, hi - lo).conj(), prod)


def _energy_table(
    system: FrameSystem, side: str, start: int, F: np.ndarray, scaling_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(E, ||F[t]||^2): E[t, i] sums the squared coefficients of F[t] against generator i of (*scalings, *wavelets).

    On a finite lattice of r points, Plancherel on the quotient by x mod r gives
    sum_j |c_j|^2 = weight^2 r sum_{a mod r} |sum_{x = a mod r} F(x) conj g(x)|^2 for modulates, one
    contraction of F and conj g over whole periods; translates on Z_N are modulates after one FFT of the
    block (weight point_mass / N), against `system.spectra`.  On Z, whose lattices are infinite, the
    coefficients come from translates.  The scalings past the first are not system generators and only the
    telescope reads them: their columns are computed for the first `scaling_rows` rows (all by default)
    and are NaN below.
    """
    group, gens = _side_group(system, side), (*system.scalings, *system.wavelets)
    weight, fourier = float(group.point_mass), side == "time" and group.is_finite
    E, n2 = np.full((len(F), len(gens)), np.nan), weight * np.sum(F.real**2 + F.imag**2, axis=1)
    if fourier:
        F, weight = np.fft.fft(F), weight / group.modulus
    for i, gen in enumerate(gens):
        rows = F[:scaling_rows] if 0 < i < len(system.scalings) else F
        if not len(rows):
            continue
        lat = system.chain.level(gen.level).lattice
        if lat.is_finite:
            g, r = _generator_function(system, gen, side), lat.size
            lo, hi = max(start, g.start), max(start, g.start, min(start + F.shape[1], g.stop))
            gv = (system.spectra[i] if fourier else g.array)[lo - g.start : hi - g.start].conj()
            rows = rows[:, lo - start : hi - start]
            pad = (lo % r, -(hi - lo + lo % r) % r)  # to whole periods from lo - lo % r
            if any(pad):
                rows, gv = np.pad(rows, ((0, 0), pad)), np.pad(gv, pad)
            c, w2 = np.einsum("tqa,qa->ta", rows.reshape(len(rows), -1, r), gv.reshape(-1, r)), weight**2 * r
        else:
            c, w2 = _coefficients(system, gen, side, start, rows)[1], 1.0
        E[: len(c), i] = w2 * np.sum(c.real**2 + c.imag**2, axis=1)
    return E, n2


def _parseval_of(system: FrameSystem, E: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Per row of an energy table, |energy of the system generators - ||f||^2| / ||f||^2."""
    return np.abs(E[:, 0] + E[:, len(system.scalings) :].sum(axis=1) - n2) / n2


def _gaps_of(system: FrameSystem, k: int, E: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Per row of an energy table, |energy at level k+1 - (energy at level k + wavelet energies at k)| / ||f||^2.

    The gap is relative, as Parseval's is, since both energies grow with ||f||^2; a zero f has gap 0, and a
    NaN stays NaN.
    """
    i, ns = k - system.k0, len(system.scalings)
    gaps = np.abs(E[:, i + 1] - E[:, [i, *(ns + j for j, w in enumerate(system.wavelets) if w.level == k)]].sum(axis=1))
    return np.divide(gaps, n2[: len(E)], out=np.zeros(len(E)), where=n2[: len(E)] != 0)


def _stack_of_one(system: FrameSystem, f: DiscreteFunction) -> tuple[str, int, np.ndarray]:
    """(side, start, F): f as a stack of one on the side it lives on, time on the chain's group and freq on its dual."""
    chain = system.chain
    side = next((side for side in ("time", "freq") if f.group == _side_group(system, side)), None)
    if side is None:
        raise UnsupportedVerificationError(
            f"test function lives on {f.group.describe()}, "
            f"expected {chain.group.describe()} or its dual {chain.dual.describe()}"
        )
    return side, f.start, f.array[None]


def analysis(system: FrameSystem, f: DiscreteFunction) -> dict:
    """All nonzero frame coefficients of f, keyed (generator label, lattice point)."""
    side, start, F = _stack_of_one(system, f)
    out = {}
    for gen in system.system_generators():
        lat = system.chain.level(gen.level).lattice
        j0, coeffs = _coefficients(system, gen, side, start, F)
        s = int(lat.step[0])
        lams = lat.points() if lat.is_finite else range(j0 * s, (j0 + coeffs.shape[1]) * s, s)
        for lam, c in zip(lams, coeffs[0].tolist()):
            if c != 0:
                out[(gen.label, lam)] = c
    return out


def parseval_residual(system: FrameSystem, f: DiscreteFunction) -> float:
    """|sum of squared coefficients - ||f||^2| / ||f||^2."""
    if f.norm2() == 0:
        raise DomainParameterError("zero test function")
    return float(_parseval_of(system, *_energy_table(system, *_stack_of_one(system, f), scaling_rows=0))[0])


def frame_operator(system: FrameSystem) -> np.ndarray:
    """Sum of rank-one projectors of all system elements on a cyclic group (dense; `_frame_residual` is the check).

    A generator's term S_g commutes with its step-s translates,
    S_g[x + s, y + s] = S_g[x, y], so its first s columns are one product
    and block column q is those columns rolled down by q s.  The first
    columns of consecutive generators with one step are summed, then every
    block column is placed by one gather.
    """
    chain = system.chain
    if not chain.group.is_finite:
        raise UnsupportedVerificationError("brute-force frame operator needs a finite group")
    n = chain.group.modulus
    S = np.zeros((n, n), dtype=complex)
    x = np.arange(n)
    for s, gens in itertools.groupby(system.system_generators(), lambda g: int(chain.level(g.level).lattice.step[0])):
        first = np.zeros((n, s), dtype=complex)
        for gen in gens:
            rows = _translates(system, gen, 0, n)[1]
            first += np.einsum("jx,jr->xr", rows, rows[:, :s].conj())
        S.reshape(n, n // s, s)[...] += first[(x[:, None] - np.arange(0, n, s)) % n]  # [x, q, r] = S[x, q s + r]
    return S


def _frame_residual(system: FrameSystem) -> float:
    """||S - I||_F >= max |S - I| for the frame operator S on Z_N, from Fourier blocks, without forming S.

    With U the unitary DFT, which keeps the norm, (U S U*)[xi, eta] = sum over g with r_g | xi - eta of
    (r_g / N) g^(xi) conj g^(eta), for g with r_g translates (the tq-equations).  The Hermitian U S U* - I
    is summed in blocks of BLOCK_ENTRIES entries (a row when N is larger), from the diagonal on.
    """
    n, by_size = system.chain.group.modulus, {}  # r -> spectra of the system generators with r translates
    for gen, gh in zip(system.system_generators(), system.spectra[[0, *range(len(system.scalings), len(system.spectra))]]):
        by_size.setdefault(system.chain.level(gen.level).lattice.size, []).append(gh)
    b = min(n, max(1, BLOCK_ENTRIES // n))
    assert all(r & (r - 1) == 0 for r in by_size) and b & (b - 1) == 0, "dyadic: a block meets residues mod r in slices"
    groups = [(r, (r / n) ** 0.5 * np.array(ghs)) for r, ghs in by_size.items()]
    total, D = 0.0, np.empty((b, n), dtype=complex)
    for a in range(0, n, b):
        D[...] = 0
        D.reshape(-1)[a :: n + 1] = -1  # -I on rows a..a+b-1
        for r, gh in groups:
            u, off, q0 = min(r, b), a % r, a // r  # row a + p u + c meets columns q r + off + c, from q0 on right of a
            rows = gh[:, a : a + b].conj().reshape(len(gh), b // u, u)  # D is the conjugate, of equal norm
            diag = np.einsum("pcqc->pcq", D[:, q0 * r :].reshape(b // u, u, n // r - q0, r)[..., off : off + u])
            diag += np.einsum("gpc,gqc->pcq", rows, gh.reshape(len(gh), n // r, r)[:, q0:, off : off + u])
        sq = D[:, a:].real ** 2 + D[:, a:].imag ** 2  # right of the diagonal block, each entry stands for its mirror too
        total += float(sq[:, :b].sum() + 2 * sq[:, b:].sum())
    return total**0.5


def fiber_identity_sides(lat, v_domain, F: DiscreteFunction, Phi: DiscreteFunction):
    """Both sides of the coefficient-sum / fiber-integral identity on Z_N.

    Left: sum over lattice points of |<F, modulation Phi>|^2, one FFT of
    F conj(Phi) at the lattice points.  Right: dual-cell measure times the
    integral over the cell of the squared annihilator-fiber sums, one gather.
    """
    if not lat.group.is_finite:
        raise UnsupportedVerificationError("fiber identity oracle runs on Z_N")
    return tuple(float(side[0]) for side in _fiber_sides(lat, v_domain, F.group, (F.array * Phi.array.conj())[None]))


def _fiber_sides(lat, v_domain, dual, prod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fiber_identity_sides` of each row of prod = F conj(Phi), with one FFT and one gather for all rows."""
    n, weight = lat.group.modulus, float(dual.point_mass)
    lhs = np.sum(np.abs(weight * np.fft.fft(prod, axis=1)[:, :: int(lat.step[0])]) ** 2, axis=1)
    ann = cyclic_annihilator(lat)
    gammas = np.fromiter(domains.iter_points(v_domain, dual), dtype=np.int64)
    fibers = prod[:, (gammas[:, None] + int(ann.step[0]) * np.arange(ann.order[0])) % n].sum(axis=2)
    return lhs, len(gammas) * weight * weight * np.sum(np.abs(fibers) ** 2, axis=1)


def ensure_certified(system: FrameSystem, k: int, tol: float = 1e-9):
    """Re-verify the level-k matrix identity before use, on a small plan where it reads one."""
    plan = partial(dual_sampling_plan, system.chain, k, grid=256, random=64)
    _require_certified(k, verify_uep(system.uep_matrix(k), plan), tol)


def _require_certified(k: int, report, tol: float):
    """Raise UncertifiedLevelError unless the level-k UEP report is within tol; a NaN fails."""
    if not report.residual <= tol:
        raise UncertifiedLevelError(
            f"level {k} matrix identity fails (residual {report.residual:.3e})"
        )


def telescoping_residual(system: FrameSystem, k: int, f: DiscreteFunction) -> float:
    """|energy at level k+1 - (energy at level k + wavelet energies at k)| / ||f||^2.

    Certifies level k first; `verify.run_verification` certifies each level
    once from its own UEP reports and then reads the gaps from its energy table.
    """
    if not system.k0 <= k < system.k1:
        raise DomainParameterError(f"need a level with a successor, got {k}")
    ensure_certified(system, k)
    return float(_gaps_of(system, k, *_energy_table(system, *_stack_of_one(system, f)))[0])


def parse_seed(value) -> int:
    """A seed given as a nonnegative int or a hex string, DEFAULT_SEED for None; SchemaError otherwise."""
    if value is None:
        return DEFAULT_SEED
    try:
        seed = value if type(value) is int else int(value, 16)
    except (TypeError, ValueError):
        seed = -1
    require(seed >= 0, "seed", f"need a nonnegative integer or hex string, got {value!r}")
    return seed


def read_descriptor(desc) -> tuple:
    """(chain, family, band, k0, k1) of a descriptor, the one reader of construct and load.

    Every key is read, and any other refused with its path: `group` and `chain` (`chain_from_params`), the
    family, the levels k0 and k1 (the chain's by default) and the seed.  A spline family is its order, a band
    family its mode, then its bounds L and, on R^s, its shape; shannon is the mode alone, of the full band.
    """
    require_object(desc, "$", ("group", "chain", "family", "k0", "k1", "seed"))
    chain = chain_from_params(desc.get("group"), desc.get("chain", {}))
    family = require_object(desc.get("family"), "family", ("bspline", "charfun"))
    require(len(family) == 1, "family", "need one of 'bspline' or 'charfun'")
    for key in ("k0", "k1"):
        require(desc.get(key) is None or type(desc[key]) is int, key, "must be an integer")
    parse_seed(desc.get("seed"))
    k0, k1 = _levels(chain, desc.get("k0"), desc.get("k1"))
    if "bspline" in family:
        order = require_object(family["bspline"], "family.bspline", ("order",)).get("order")
        require(type(order) is int and order >= 1, "family.bspline.order", "need order >= 1")
        return chain, {"type": "bspline", "order": order}, None, k0, k1
    variant = desc["group"]["variant"]  # a known one, since the chain is built
    keys = ("mode", "L", "shape") if variant == "euclidean" else ("mode", "L")
    spec = require_object(family["charfun"], "family.charfun", keys)
    mode = spec.get("mode")
    require(mode in ("proper", "shannon"), "family.charfun.mode", f"unknown mode {mode!r}")
    if mode == "shannon":
        require(list(spec) == ["mode"], "family.charfun", "a shannon band is the full band, with no bounds L or shape")
        return chain, {"type": "charfun", "mode": mode}, cf.full_band_chain(chain), k0, k1
    L = spec.get("L")
    require(isinstance(L, list), "family.charfun.L", "proper mode needs a list of band bounds L")
    require(variant != "integers", "family.charfun", "integer-group chains have no band instantiation")
    label = variant
    if variant == "euclidean":
        label = spec.get("shape", "boxes")
        require(label in ("boxes", "balls"), "family.charfun.shape", "boxes or balls")
    return chain, {"type": "charfun", "mode": mode}, cf.band_chain(label, chain, L), k0, k1


def build_from_descriptor(desc) -> FrameSystem:
    """Validate a descriptor and construct the described system: masks built on the parts `read_descriptor` gives."""
    chain, family, band, k0, k1 = read_descriptor(desc)
    if band is None:
        return build_bspline_system(chain, family["order"], k0, k1)
    return build_charfun_system(band, family["mode"], k0, k1)


def system_to_json(system: FrameSystem, seed: int = DEFAULT_SEED) -> dict:
    """The artifact of a system, sharing no value with it: the normalized descriptor of the system, and its filters.

    The descriptor states the levels and the seed, and construct on it writes the same artifact again.
    """
    fam = system.family
    spec = {"order": fam["order"]} if system.band is None else {"mode": fam["mode"], **system.band.params}
    descriptor = {**system.chain.params, "family": {fam["type"]: spec}, "k0": system.k0, "k1": system.k1, "seed": seed}
    return {
        "format": FORMAT,
        "descriptor": copy.deepcopy(descriptor),
        "filters": [
            {"h": filter_to_json(lf.h), "g": [filter_to_json(g) for g in lf.gs]} for lf in system.level_filters
        ],
    }


def system_from_json(data: dict) -> FrameSystem:
    """Rebuild a system from its artifact: the descriptor read as construct reads it, the filters from the file.

    An artifact is format, descriptor and filters, nothing else, and another format is refused.  The filters
    are one entry {h, g} per level k0..k1-1 in order, g a nonempty list, trig for a spline family; any key not read
    is refused.
    """
    with _malformed("malformed system artifact"):
        if data["format"] != FORMAT:
            raise SchemaError(f"artifact format {data['format']!r} is not {FORMAT!r}; run construct again on its embedded descriptor")
        require_object(data, "$", ("format", "descriptor", "filters"))
        with _malformed("descriptor"):
            chain, family, band, k0, k1 = read_descriptor(data["descriptor"])
        require(len(data["filters"]) == k1 - k0, "filters", f"need one entry per level {k0}..{k1 - 1}")
        parsed, level_filters = {}, []  # each distinct exact value of the artifact is parsed once
        for k, entry in enumerate(data["filters"], start=k0):
            path = f"filters[{k - k0}]"
            require_object(entry, path, ("h", "g"))
            require(isinstance(entry["g"], list) and entry["g"], f"{path}.g", "need a nonempty list of wavelet filters")
            h = filter_from_json(entry["h"], chain, k, parsed, f"{path}.h")
            gs = tuple(filter_from_json(g, chain, k, parsed, f"{path}.g[{i}]") for i, g in enumerate(entry["g"]))
            level_filters.append(LevelFilters(k, h, gs))
        trig = all(isinstance(f, TrigPolynomial) for lf in level_filters for f in (lf.h, *lf.gs))
        require(band is not None or trig, "filters", "a spline family's filters are trig polynomials")
    return _assemble(chain, family, k0, k1, level_filters, band)
