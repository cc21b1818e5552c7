"""Each UEP and refinement entry agrees with the exhaustive per-point truth, on corrupted artifacts.

On a discrete dual the truth of every per-level entry is decidable by brute force: the oracles in
`oracles.py` evaluate the Gram residual and the refinement residual point by point over every point
where the level's identity can fail.  A hypothesis search corrupts one stored filter value or piece of a
small artifact, loads it and holds every UEP and refinement entry of `verify` to that truth:

- a `pass` must be true: the oracle residual is within the tolerance;
- a `fail` must be true too, except for a `method: coefficients` bound, which may fail conservatively.

An oracle residual within a factor of 10 of the tolerance is skipped: float roundoff on either side may
put it on either side of the tolerance.  An edit that changes nothing (scaling a zero value, moving a
bound under an earlier piece) passes on both sides, and an edit the loader refuses decides nothing here.
"""

import copy
from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from lcaframes import domains
from lcaframes.exceptions import LcaError
from lcaframes.frame import build_from_descriptor, system_from_json, system_to_json
from lcaframes.verify import run_verification

from oracles import band_refinement_at, gram_residual, spline_refinement_at

TOL = 1e-10
SEED = 0x5EED

SYSTEMS = {
    "z16-spline": {"group": {"variant": "cyclic", "params": {"modulus": 16}}, "chain": {"M": 4},
                   "family": {"bspline": {"order": 2}}},
    "z8-band": {"group": {"variant": "cyclic", "params": {"modulus": 8}}, "chain": {"M": 3},
                "family": {"charfun": {"mode": "proper", "L": [0, 0, 1, 7]}}, "k0": 1},
    "z16-band": {"group": {"variant": "cyclic", "params": {"modulus": 16}}, "chain": {"M": 4},
                 "family": {"charfun": {"mode": "proper", "L": [0, 1, 2, 3, 15]}}, "k0": 2},
    "t-band": {"group": {"variant": "torus", "params": {}}, "chain": {"M_seq": [2, 2, 2]},
               "family": {"charfun": {"mode": "proper", "L": [0, 1, 3]}}},
}
EPSILONS = [Fraction(1), Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6), Fraction(-1, 2), Fraction(-1, 10**4)]
PIECE_VALUES = ["1", "0", "-1/2", "3"]


@cache
def _artifact(name: str) -> dict:
    return system_to_json(build_from_descriptor(SYSTEMS[name]), SEED)


def _sites(artifact: dict):
    """The stored values, the integer piece bounds (dict, key) and the piece lists of every filter."""
    values, bounds, pieces = [], [], []
    for level in artifact["filters"]:
        for f in (level["h"], *level["g"]):
            if f["kind"] == "trig":
                values += f["coeffs"]
                continue
            pieces.append(f["pieces"])
            for piece in f["pieces"]:
                values.append(piece["value"])
                dom = piece["domain"].get("base", piece["domain"])
                bounds += [(dom, "lo"), (dom, "hi")]
    return values, bounds, pieces


def _corrupt(data, artifact: dict) -> None:
    """One corruption drawn by hypothesis: scale a value by 1 + eps, move a piece bound by 1, or prepend a piece."""
    values, bounds, pieces = _sites(artifact)
    kinds = ["scale"] + (["bound", "prepend"] if pieces else [])
    kind = data.draw(st.sampled_from(kinds), label="corruption")
    if kind == "scale":
        exact = data.draw(st.sampled_from(values), label="value")["exact"]
        factor = 1 + data.draw(st.sampled_from(EPSILONS), label="eps")
        exact.update({part: str(Fraction(exact[part]) * factor) for part in ("re", "im")})
    elif kind == "bound":
        dom, key = data.draw(st.sampled_from(bounds), label="bound")
        dom[key] += data.draw(st.sampled_from([-1, 1]), label="move")
    else:
        lo, width = data.draw(st.integers(-8, 15), label="lo"), data.draw(st.integers(0, 3), label="width")
        value = {"exact": {"re": data.draw(st.sampled_from(PIECE_VALUES), label="piece value"), "im": "0", "rad": "1"}}
        data.draw(st.sampled_from(pieces), label="filter").insert(
            0, {"domain": {"kind": "integer_interval", "lo": lo, "hi": lo + width}, "value": value}
        )


def _points(system, k: int) -> list:
    """Every point where a level-k identity can fail.

    On Z_N that is the whole dual.  On Z, the dual of T, the Gram matrix is periodic with the period
    V_{k+1} of the filters, and the refinement identity reads 0 on both sides outside Omega_k and
    Omega_{k+1}, so the window spans V_{k+1} and both supports.
    """
    chain = system.chain
    if chain.group.is_finite:
        return list(range(chain.dual.modulus))
    doms = [chain.level(k + 1).domain_v, system.band.omega(k), system.band.omega(k + 1)]
    lo = min(domains.bounds(d, chain.dual)[0][0] for d in doms)
    hi = max(domains.bounds(d, chain.dual)[1][0] for d in doms)
    return list(range(int(lo), int(hi) + 1))


def _truth(system, condition: str, k: int) -> float:
    """The oracle's worst residual of one level's entry over every point where it can fail."""
    lf = system.filters_at(k)
    if condition == "uep-gram-identity":
        P = system.uep_matrix(k)
        return max(gram_residual(P, g) for g in _points(system, k))
    if system.family["type"] == "bspline":
        return max(spline_refinement_at(system, k, lf.h, g) for g in _points(system, k))
    return max(band_refinement_at(system.band, k, lf.h, g) for g in _points(system, k))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data())
def test_every_uep_and_refinement_entry_is_true_on_a_corrupted_artifact(data):
    name = data.draw(st.sampled_from(sorted(SYSTEMS)), label="system")
    artifact = copy.deepcopy(_artifact(name))
    _corrupt(data, artifact)
    try:
        system = system_from_json(artifact)
    except LcaError:
        return  # refused at load
    for suite in ("uep", "refinement"):
        for entry in run_verification(system, suite, 4096, None, SEED, TOL)[0]:
            truth = _truth(system, entry["condition"], entry["level"])
            if TOL / 10 < truth < 10 * TOL:
                continue
            where = (name, entry, truth)
            if entry["status"] == "pass":
                assert truth <= TOL, where
            elif entry.get("method") != "coefficients":
                assert truth > TOL, where
