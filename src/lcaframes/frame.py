"""Frame systems, analysis coefficients, and the core verification identities.

A frame system bundles one scaling generator per level and the wavelet
generators defined through the level filters.  The system elements are the
lattice translates of the base-level scaling generator plus the lattice
translates of every wavelet (equivalently, on the Fourier side, modulations).

Verification entry points:

* analysis / parseval_residual  -- coefficient energy against the norm;
* frame_operator                -- N x N operator on Z_N from all translates;
* fiber_identity_sides          -- coefficient sum vs dual-cell fiber integral;
* telescoping_residual          -- one-level energy split through the filters.

A system is analysed on the first of its time and frequency sides where
every generator has finite values: by translates on Z and Z_N, by modulates
for band systems on T (their dual is discrete), with energies from fiber folds
on finite lattices.  Systems with no such side (splines on T, all on R^s) are
matrix-condition only and rejected here.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bspline as bsp
from . import charfun as cf
from . import domains
from .chains import LatticeChain, chain_from_params
from .exceptions import (
    DomainParameterError,
    LcaError,
    PeriodicityMismatchError,
    ProperSubsetError,
    SchemaError,
    UncertifiedLevelError,
    UnsupportedVerificationError,
    VariantMismatchError,
    require_int,
)
from .filters import (
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
    family = {"type": "charfun", "mode": mode, "band": band.label, "band_params": band.params}
    return _assemble(chain, family, k0, k1, level_filters, band)


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
        order = family["order"]
        discrete = chain.group.is_discrete
        for k in range(k0, k1 + 1):
            time = bsp.bspline_time(chain, k, order).time if discrete else None
            scalings.append(Generator(f"phi[{k}]", k, None, time, None))
        for lf in level_filters:
            phi_next = scalings[lf.k + 1 - k0].time
            for m, g in enumerate(lf.gs, start=1):
                wt = bsp.wavelet_time(chain, lf.k, g, phi_next) if discrete else None
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


def _energies(system: FrameSystem, gens, side: str, start: int, F: np.ndarray) -> np.ndarray:
    """Per stacked test function, the sum over gens of its squared coefficients.

    On a finite lattice of r points, Plancherel on the quotient by x mod r gives
    sum_j |c_j|^2 = weight^2 r sum_{a mod r} |sum_{x = a mod r} F(x) conj g(x)|^2
    for modulates; translates on Z_N are modulates after one FFT (weight point_mass / N).
    On Z, whose lattices are infinite, the coefficients come from translates.
    """
    group = _side_group(system, side)
    weight, fourier = float(group.point_mass), side == "time" and group.is_finite
    if fourier:
        F, weight = np.fft.fft(F), weight / group.modulus
    total = np.zeros(len(F))
    for gen in gens:
        lat = system.chain.level(gen.level).lattice
        if lat.is_finite:
            g, r = _generator_function(system, gen, side), lat.size
            lo, hi = max(start, g.start), max(start, g.start, min(start + F.shape[1], g.stop))
            gv = (np.fft.fft(g.array) if fourier else g.array)[lo - g.start : hi - g.start]
            prod = np.zeros((len(F), -(-(hi - lo + lo % r) // r) * r), dtype=complex)  # whole periods from lo - lo % r
            np.multiply(F[:, lo - start : hi - start], gv.conj(), out=prod[:, lo % r : hi - lo + lo % r])
            c, w2 = prod.reshape(len(F), -1, r).sum(axis=1), weight**2 * r
        else:
            c, w2 = _coefficients(system, gen, side, start, F)[1], 1.0
        total += w2 * np.sum(c.real**2 + c.imag**2, axis=1)
    return total


def _stack_of_one(system: FrameSystem, f: DiscreteFunction, side: str | None) -> tuple[str, int, np.ndarray]:
    """(side, start, F): f as a stack of one on its analysis side, after checking that f lives there."""
    side = side or _default_side(system)
    if side is None:
        raise UnsupportedVerificationError(
            f"no side where every generator has finite values on {system.chain.group.describe()}; "
            "the system is certified through the matrix condition only"
        )
    want = _side_group(system, side)
    if f.group != want:
        raise UnsupportedVerificationError(f"test function lives on {f.group.describe()}, expected {want.describe()}")
    return side, f.start, f.array[None]


def analysis(system: FrameSystem, f: DiscreteFunction, side: str | None = None) -> dict:
    """All nonzero frame coefficients of f, keyed (generator label, lattice point)."""
    side, start, F = _stack_of_one(system, f, side)
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


def parseval_residual(system: FrameSystem, f: DiscreteFunction, side: str | None = None) -> float:
    """|sum of squared coefficients - ||f||^2| / ||f||^2."""
    if f.norm2() == 0:
        raise DomainParameterError("zero test function")
    return float(_parseval_residuals(system, *_stack_of_one(system, f, side))[0])


def _parseval_residuals(system: FrameSystem, side: str, start: int, F: np.ndarray) -> np.ndarray:
    """parseval_residual of each stacked test function."""
    n2 = float(_side_group(system, side).point_mass) * np.sum(F.real**2 + F.imag**2, axis=1)
    return np.abs(_energies(system, system.system_generators(), side, start, F) - n2) / n2


def frame_operator(system: FrameSystem) -> np.ndarray:
    """Sum of rank-one projectors of all system elements on a cyclic group.

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


def fiber_identity_sides(lat, v_domain, F: DiscreteFunction, Phi: DiscreteFunction):
    """Both sides of the coefficient-sum / fiber-integral identity on Z_N.

    Left: sum over lattice points of |<F, modulation Phi>|^2, one FFT of
    F conj(Phi) at the lattice points.  Right: dual-cell measure times the
    integral over the cell of the squared annihilator-fiber sums, one gather.
    """
    if not lat.group.is_finite:
        raise UnsupportedVerificationError("fiber identity oracle runs on Z_N")
    n = lat.group.modulus
    weight = float(F.group.point_mass)
    prod = F.array * Phi.array.conj()
    lhs = float(np.sum(np.abs(weight * np.fft.fft(prod)[:: int(lat.step[0])]) ** 2))
    ann = cyclic_annihilator(lat)
    gammas = np.fromiter(domains.iter_points(v_domain, F.group), dtype=np.int64)
    fibers = prod[(gammas[:, None] + int(ann.step[0]) * np.arange(ann.order[0])) % n].sum(axis=1)
    rhs = len(gammas) * weight * weight * float(np.sum(np.abs(fibers) ** 2))
    return lhs, rhs


def ensure_certified(system: FrameSystem, k: int, tol: float = 1e-9):
    """Re-verify the level-k matrix identity on a small plan before use."""
    plan = dual_sampling_plan(system.chain, k, grid=256, random=64)
    _require_certified(k, verify_uep(system.uep_matrix(k), plan), tol)


def _require_certified(k: int, report, tol: float = 1e-9):
    """Raise UncertifiedLevelError unless the level-k UEP report is within tol; a NaN fails."""
    if not report.residual <= tol:
        raise UncertifiedLevelError(
            f"level {k} matrix identity fails (residual {report.residual:.3e})"
        )


def telescoping_residual(
    system: FrameSystem, k: int, f: DiscreteFunction, side: str | None = None
) -> float:
    """|energy at level k+1 - (energy at level k + wavelet energies at k)|.

    Certifies level k first; `verify.run_verification` certifies each level
    once from its own UEP reports and then uses `_energy_gaps`.
    """
    if not system.k0 <= k < system.k1:
        raise DomainParameterError(f"need a level with a successor, got {k}")
    ensure_certified(system, k)
    return float(_energy_gaps(system, k, *_stack_of_one(system, f, side))[0])


def _energy_gaps(system: FrameSystem, k: int, side: str, start: int, F: np.ndarray) -> np.ndarray:
    """The telescoping gap at level k of each stacked test function."""
    lhs = _energies(system, [system.scaling(k + 1)], side, start, F)
    rhs = _energies(system, [system.scaling(k), *(w for w in system.wavelets if w.level == k)], side, start, F)
    return np.abs(lhs - rhs)


def system_to_json(system: FrameSystem, seed: int | None = None) -> dict:
    data = {
        "format": "lcaframes/1",
        "chain": {"kind": system.chain.kind, "params": system.chain.params},
        "family": system.family,
        "k0": system.k0,
        "k1": system.k1,
        "filters": [
            {"k": lf.k, "h": filter_to_json(lf.h), "g": [filter_to_json(g) for g in lf.gs]}
            for lf in system.level_filters
        ],
    }
    if seed is not None:
        data["seed"] = seed
    return data


def system_from_json(data: dict) -> FrameSystem:
    """Rebuild a system from its artifact; filters are taken from the file."""
    with _malformed("malformed system artifact"):
        chain = chain_from_params(data["chain"]["kind"], data["chain"]["params"])
        family = data["family"]
        k0, k1 = require_int(data["k0"], "k0"), require_int(data["k1"], "k1")
        ks = [require_int(entry["k"], "filter level k") for entry in data["filters"]]
        if not (chain.k0 <= k0 < k1 <= chain.k1 and ks == list(range(k0, k1))):
            raise SchemaError(f"filters must be levels {k0}..{k1 - 1} of the chain in order, got {ks}")
        band = None
        if family["type"] == "charfun":
            band = _band_from_params(family["band"], family["band_params"])
        elif family["type"] != "bspline" or type(family["order"]) is not int:
            raise SchemaError(f"need a charfun band or an integer bspline order, got family {family!r}")
        level_filters = [
            LevelFilters(
                entry["k"],
                filter_from_json(entry["h"], chain, entry["k"]),
                tuple(filter_from_json(g, chain, entry["k"]) for g in entry["g"]),
            )
            for entry in data["filters"]
        ]
    return _assemble(chain, family, k0, k1, level_filters, band)


def _band_from_params(label: str, params: dict) -> cf.OmegaChain:
    """The band chain of a construction label and its parameters.

    Rational bounds are read through their string form, so a JSON 0.1 is 1/10.
    """
    with _malformed(f"{label} band parameters"):
        if label == "cyclic":
            return cf.band_chain_cyclic(params["M"], params["L"])
        if label == "torus":
            return cf.band_chain_torus(params["m_factors"], params["L"])
        if label == "boxes":
            return cf.band_chain_boxes(params["m_table"], [[Fraction(str(x)) for x in r] for r in params["L"]])
        if label == "balls":
            return cf.band_chain_balls(params["m_table"], [Fraction(str(x)) for x in params["L"]])
        if label == "full":
            return cf.full_band_chain(chain_from_params(params["kind"], params["chain_params"]))
    raise SchemaError(f"unknown band construction {label!r}")


@contextmanager
def _malformed(what: str):
    """Report the errors a malformed JSON value raises as SchemaError, prefixed by `what`.

    Other library errors pass through with their own meaning; a filter
    periodicity that does not fit the chain, a value that is not an element
    of its group, or one beyond the float range, is a schema error too.
    """
    try:
        yield
    except (SchemaError, PeriodicityMismatchError, VariantMismatchError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    except LcaError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"{what}: {exc!r}") from exc
