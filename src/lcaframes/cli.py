"""Command-line front end: construct systems, run verifications, emit data.

Exit codes: 0 pass (skips count as pass), 1 verification failure, 2 input or
schema error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import charfun as cf
from . import frame as fr
from . import tiles
from .chains import cyclic_chain, euclidean_chain, integer_chain, require_desk_scale, torus_chain
from .exceptions import LcaError, PeriodicityMismatchError, SchemaError, UncertifiedLevelError
from .filters import DEFAULT_SEED, dual_sampling_plan, verify_uep, worst_residual
from .functions import random_test_function
from .groups import CYCLIC, EUCLIDEAN, INTEGERS, TORUS

COND_UEP = "uep-gram-identity"
COND_REFINE = "refinement-transfer"
COND_FIBER = "fiber-sum-identity"
COND_TELESCOPE = "level-telescoping"
COND_PARSEVAL = "parseval-bound-one"
COND_LIMIT = "limit-normalization"
COND_DISJOINT = "translate-disjointness"

ALL_CONDITIONS = (
    COND_UEP,
    COND_REFINE,
    COND_FIBER,
    COND_TELESCOPE,
    COND_PARSEVAL,
    COND_LIMIT,
    COND_DISJOINT,
)

SUITES = ("uep", "refinement", "fiber", "telescope", "parseval", "all")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _descriptor_hash(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def build_from_descriptor(desc: dict) -> fr.FrameSystem:
    """Validate a descriptor and construct the described system."""
    _require(isinstance(desc, dict), "$", "descriptor must be a JSON object")
    group = desc.get("group")
    _require(isinstance(group, dict), "group", "missing group object")
    variant = group.get("variant")
    _require(
        variant in ("integers", "cyclic", "torus", "euclidean"),
        "group.variant",
        f"unknown variant {variant!r}",
    )
    params = group.get("params", {})
    chain_params = desc.get("chain", {})
    _require(isinstance(chain_params, dict), "chain", "chain parameters must be an object")
    if variant == "integers":
        _require(isinstance(chain_params.get("M"), int), "chain.M", "missing integer depth M")
        require_desk_scale(itertools.repeat(2, chain_params["M"]), "chain.M")
        chain = integer_chain(chain_params["M"])
    elif variant == "cyclic":
        modulus = params.get("modulus")
        _require(isinstance(modulus, int) and modulus >= 2, "group.params.modulus", "need modulus >= 2")
        m = modulus.bit_length() - 1
        _require(2**m == modulus, "group.params.modulus", "modulus must be a power of two")
        if "M" in chain_params:
            _require(chain_params["M"] == m, "chain.M", f"depth must be {m} for modulus {modulus}")
        require_desk_scale([modulus], "group.params.modulus")
        chain = cyclic_chain(m)
    elif variant == "torus":
        seq = chain_params.get("M_seq")
        _require(isinstance(seq, list) and seq, "chain.M_seq", "missing factor list")
        if all(isinstance(m, int) for m in seq):
            require_desk_scale(seq, "chain.M_seq")
        chain = torus_chain(seq)
    else:
        table = chain_params.get("M_table")
        _require(isinstance(table, list) and table, "chain.M_table", "missing factor table")
        chain = euclidean_chain(table)

    family = desc.get("family")
    _require(isinstance(family, dict), "family", "missing family object")
    k0 = desc.get("k0")
    k1 = desc.get("k1")
    _require(k0 is None or isinstance(k0, int), "k0", "must be an integer")
    _require(k1 is None or isinstance(k1, int), "k1", "must be an integer")

    if "bspline" in family:
        order = family["bspline"].get("order")
        _require(isinstance(order, int) and order >= 1, "family.bspline.order", "need order >= 1")
        return fr.build_bspline_system(chain, order, k0, k1)
    if "charfun" in family:
        spec = family["charfun"]
        mode = spec.get("mode")
        _require(mode in ("proper", "shannon"), "family.charfun.mode", f"unknown mode {mode!r}")
        if mode == "shannon":
            band = cf.full_band_chain(chain)
        else:
            L = spec.get("L")
            _require(L is not None, "family.charfun.L", "proper mode needs band bounds L")
            if variant == "cyclic":
                band = cf.band_chain_cyclic(chain.params["M"], L)
            elif variant == "torus":
                band = cf.band_chain_torus(chain.params["m_factors"], L)
            elif variant == "euclidean":
                shape = spec.get("shape", "boxes")
                _require(shape in ("boxes", "balls"), "family.charfun.shape", "boxes or balls")
                if shape == "boxes":
                    band = cf.band_chain_boxes(chain.params["m_table"], [[Fraction(str(x)) for x in r] for r in L])
                else:
                    band = cf.band_chain_balls(chain.params["m_table"], [Fraction(str(x)) for x in L])
            else:
                raise SchemaError("family.charfun: integer-group chains have no band instantiation")
        return fr.build_charfun_system(band, mode, k0, k1)
    raise SchemaError("family: need one of 'bspline' or 'charfun'")


def cmd_construct(args) -> int:
    try:
        desc = json.loads(Path(args.descriptor).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read descriptor: {exc}")
    try:
        system = build_from_descriptor(desc)
        seed = _parse_seed(desc.get("seed"))
    except (SchemaError, PeriodicityMismatchError) as exc:
        return _fail(2, str(exc))
    except LcaError as exc:
        return _fail(3, f"precondition violated: {exc}")
    artifact = fr.system_to_json(system, seed=seed)
    artifact["descriptor"] = desc
    artifact["descriptor_hash"] = _descriptor_hash(desc)
    Path(args.out).write_text(json.dumps(artifact, sort_keys=True, indent=1) + "\n")
    chain = system.chain
    print(f"system: {chain.group.describe()} family={system.family['type']} levels {system.k0}..{system.k1}")
    for lf in system.level_filters:
        print(f"  level {lf.k}: d={chain.index(lf.k)} wavelet-filters={len(lf.gs)}")
    for gen in system.system_generators():
        fn = gen.time or gen.freq
        if fn is None:
            print(f"  {gen.label}: matrix-condition only (no finite representation)")
        elif not np.any(np.abs(fn.array) > 0):
            print(f"  {gen.label}: identically zero (band misses its coset)")
        else:
            lo, hi = fn.support()
            print(f"  {gen.label}: support [{lo}, {hi}]")
    print(f"wrote {args.out}")
    return 0


def _parse_seed(value) -> int:
    """A seed given as a nonnegative int or a hex string; SchemaError otherwise."""
    if value is None:
        return DEFAULT_SEED
    try:
        seed = value if type(value) is int else int(value, 16)
    except (TypeError, ValueError):
        seed = -1
    if seed < 0:
        raise SchemaError(f"seed: need a nonnegative integer or hex string, got {value!r}")
    return seed


def _load_system(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read system artifact: {exc}") from exc
    return fr.system_from_json(data), data


def _entry(cond, status, *, level=None, residual=None, tolerance=None, detail=None, **extra):
    out = {"condition": cond, "status": status}
    if level is not None:
        out["level"] = level
    if residual is not None:
        out["residual"] = residual
    if tolerance is not None:
        out["tolerance"] = tolerance
    if detail:
        out["detail"] = detail
    out.update(extra)
    return out


def run_verification(system: fr.FrameSystem, suite: str, samples: int, trials: int | None, seed: int, tol: float):
    """All requested checks; each entry names the condition it certifies."""
    entries = []
    chain = system.chain
    kind = chain.group.kind
    n_random = min(1024, max(16, samples // 4))
    plans = {}
    if suite in ("uep", "refinement", "all"):
        for lf in system.level_filters:
            plans[lf.k] = dual_sampling_plan(chain, lf.k, grid=samples, random=n_random, seed=seed)
    if suite in ("uep", "all"):
        for lf in system.level_filters:
            rep = verify_uep(system.uep_matrix(lf.k), plans[lf.k])
            entries.append(
                _entry(
                    COND_UEP,
                    "pass" if rep.residual <= tol else "fail",
                    level=lf.k,
                    residual=rep.residual,
                    tolerance=tol,
                    exact=rep.exact,
                    samples=rep.samples,
                    worst_point=repr(rep.worst_point),
                )
            )
    if suite in ("refinement", "all"):
        for lf in system.level_filters:
            if system.family["type"] == "bspline":
                from .bspline import refinement_residual

                res = refinement_residual(chain, lf.k, system.family["order"], plans[lf.k])
            else:
                res = cf.indicator_refinement_residual(system.band, lf.k, plans[lf.k])
            entries.append(
                _entry(
                    COND_REFINE,
                    "pass" if res <= tol else "fail",
                    level=lf.k,
                    residual=res,
                    tolerance=tol,
                )
            )
    if suite in ("fiber", "all"):
        if kind == CYCLIC:
            res = _fiber_suite(system, seed)
            entries.append(_entry(COND_FIBER, "pass" if res <= tol else "fail", residual=res, tolerance=tol))
        else:
            entries.append(_entry(COND_FIBER, "skip", detail="fiber oracle runs on finite groups"))
    if suite in ("telescope", "all"):
        if kind in (INTEGERS, CYCLIC) or (kind == TORUS and system.family["type"] == "charfun"):
            try:
                res = _telescope_suite(system, 20 if trials is None else trials, seed)
                entries.append(
                    _entry(COND_TELESCOPE, "pass" if res <= tol else "fail", residual=res, tolerance=tol)
                )
            except UncertifiedLevelError as exc:
                entries.append(_entry(COND_TELESCOPE, "fail", detail=str(exc)))
        else:
            entries.append(_entry(COND_TELESCOPE, "skip", detail="out of desk-scale scope for this group"))
    if suite in ("parseval", "all"):
        entries.extend(_parseval_suite(system, 100 if trials is None else trials, seed, tol))
    if suite == "all":
        entries.extend(_condition_suite(system, samples, seed, tol))
    status = "fail" if any(e["status"] == "fail" for e in entries) else "pass"
    return entries, status


def _fiber_suite(system, seed, count: int = 50) -> float:
    rng = np.random.default_rng(seed)
    chain = system.chain
    n = chain.group.modulus
    residuals = []
    for _ in range(count):
        k = int(rng.integers(chain.k0, chain.k1 + 1))
        lat = chain.level(k).lattice
        F = random_test_function(chain.dual, (0, n - 1), rng)
        Phi = random_test_function(chain.dual, (0, n - 1), rng)
        lhs, rhs = fr.fiber_identity_sides(lat, chain.level(k).domain_v, F, Phi)
        residuals.append(abs(lhs - rhs) / (1 + abs(lhs)))
    return worst_residual(residuals)[0]


def _test_window(system) -> tuple[int, int]:
    chain = system.chain
    if chain.group.kind == CYCLIC:
        return (0, chain.group.modulus - 1)
    if chain.group.kind == INTEGERS:
        return (0, 20)
    lo, hi = system.band.exhaustion_target.lo, system.band.exhaustion_target.hi
    return (int(lo), int(hi))


def _telescope_suite(system, trials: int, seed: int) -> float:
    """Worst telescoping gap over seeded trials; each level is certified once."""
    for lf in system.level_filters:
        fr.ensure_certified(system, lf.k)
    rng = np.random.default_rng(seed)
    group = system.chain.group if system.chain.group.kind != TORUS else system.chain.dual
    window = _test_window(system)
    gaps = []
    for _ in range(trials):
        f = random_test_function(group, window, rng)
        gaps.extend(fr._energy_gap(system, lf.k, f) for lf in system.level_filters)
    return worst_residual(gaps)[0]


def _parseval_suite(system, trials: int, seed: int, tol: float) -> list:
    chain = system.chain
    kind = chain.group.kind
    if kind == EUCLIDEAN:
        return [_entry(COND_PARSEVAL, "skip", detail="out of desk-scale scope for Euclidean groups")]
    if kind == TORUS and system.family["type"] != "charfun":
        return [
            _entry(
                COND_PARSEVAL,
                "skip",
                detail="out of desk-scale scope: no finitely supported transform side",
            )
        ]
    rng = np.random.default_rng(seed)
    group = chain.group if kind != TORUS else chain.dual
    window = _test_window(system)
    residuals = [fr.parseval_residual(system, random_test_function(group, window, rng)) for _ in range(trials)]
    worst = worst_residual(residuals)[0]
    entries = [
        _entry(
            COND_PARSEVAL,
            "pass" if worst <= tol else "fail",
            residual=worst,
            tolerance=tol,
            trials=trials,
        )
    ]
    if kind == CYCLIC:
        S = fr.frame_operator(system)
        dev = float(np.max(np.abs(S - np.eye(S.shape[0]))))
        entries.append(
            _entry(
                COND_PARSEVAL,
                "pass" if dev <= tol else "fail",
                residual=dev,
                tolerance=tol,
                detail="frame operator vs identity",
            )
        )
    return entries


def _condition_suite(system, samples: int, seed: int, tol: float) -> list:
    """Deep-level normalization and translate-disjointness spot checks."""
    from . import domains

    chain = system.chain
    entries = []
    K = system.k1
    mu_v = float(chain.dual_cell_measure(K))
    plan = dual_sampling_plan(chain, K, grid=min(samples, 512), random=128, seed=seed)
    if system.family["type"] == "charfun":
        pts = plan.points[domains.contains_many(system.band.exhaustion_target, plan.points, chain.dual)]
        values = cf.indicator_generator(system.band, K).hat_many(pts)
        worst = worst_residual(np.abs(mu_v * np.abs(values) ** 2 - 1))[0]
        entries.append(
            _entry(COND_LIMIT, "pass" if worst <= tol else "fail", level=K, residual=worst, tolerance=tol)
        )
    elif chain.group.kind in (INTEGERS, CYCLIC):
        # the deep-level window is a single point, so the spectrum is flat
        from .bspline import bspline_hat

        values = bspline_hat(chain, K, system.family["order"], plan.points)
        worst = worst_residual(np.abs(mu_v * np.abs(values) ** 2 - 1))[0]
        entries.append(
            _entry(COND_LIMIT, "pass" if worst <= tol else "fail", level=K, residual=worst, tolerance=tol)
        )
    else:
        entries.append(
            _entry(
                COND_LIMIT,
                "skip",
                detail="holds only in the infinite-depth limit for splines on this group",
            )
        )
    ann = chain.level(K).annihilator
    if system.family["type"] == "charfun":
        s_dom = system.band.exhaustion_target
    else:
        s_dom = chain.level(K).domain_v
    overlap = _translate_overlap(s_dom, ann, chain.dual)
    entries.append(
        _entry(
            COND_DISJOINT,
            "pass" if not overlap else "fail",
            level=K,
            detail="windowed annihilator translates of the deep-level support are disjoint",
        )
    )
    return entries


def _translate_overlap(s_dom, ann, dual) -> bool:
    """Whether any nonzero windowed annihilator translate of s_dom meets it."""
    import itertools

    from . import domains
    from .domains import Ball, IntegerInterval

    if ann.is_finite:
        shifts = [w for w in ann.points() if domains.coords(w) != tuple(0 for _ in ann.step)]
    else:
        shifts = []
        for js in itertools.product(range(-2, 3), repeat=len(ann.step)):
            if all(j == 0 for j in js):
                continue
            w = tuple(j * Fraction(s) for j, s in zip(js, ann.step))
            shifts.append(w if len(w) > 1 else w[0])
    lo, hi = domains.bounds(s_dom)
    for w in shifts:
        cs = [Fraction(c) for c in domains.coords(w)]
        if isinstance(s_dom, Ball):
            if sum(c * c for c in cs) <= 4 * s_dom.radius**2:
                return True
        elif isinstance(s_dom, IntegerInterval):
            if abs(cs[0]) <= hi[0] - lo[0]:
                return True
        else:  # half-open boxes: positive-measure overlap
            if all(abs(c) < b - a for c, a, b in zip(cs, lo, hi)):
                return True
    return False


def cmd_verify(args) -> int:
    if args.samples < 1:
        return _fail(2, f"--samples must be positive, got {args.samples}")
    if args.trials is not None and args.trials < 1:
        return _fail(2, f"--trials must be positive, got {args.trials}")
    try:
        system, data = _load_system(args.system)
    except SchemaError as exc:
        return _fail(2, str(exc))
    except LcaError as exc:
        return _fail(3, f"precondition violated: {exc}")
    try:
        seed = _parse_seed(args.seed if args.seed is not None else data.get("seed"))
    except SchemaError as exc:
        return _fail(2, str(exc))
    try:
        entries, status = run_verification(
            system, args.suite, args.samples, args.trials, seed, args.tolerance
        )
    except LcaError as exc:
        return _fail(3, f"precondition violated: {exc}")
    report = {
        "suite": args.suite,
        "system": args.system,
        "seed": seed,
        "tolerance": args.tolerance,
        "checks": entries,
        "status": status,
    }
    for e in entries:
        line = f"{e['status'].upper():4s} {e['condition']}"
        if "level" in e:
            line += f" level={e['level']}"
        if "residual" in e:
            line += f" residual={e['residual']:.3e} (tol {e.get('tolerance', args.tolerance):.1e})"
        if "detail" in e:
            line += f" [{e['detail']}]"
        print(line)
    print(f"overall: {status.upper()}")
    if args.report:
        Path(args.report).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0 if status == "pass" else 1


def _write_csv(path: Path, header: str, rows: list[str]):
    path.write_text("\n".join([f"# {header}", *rows]) + "\n")


def cmd_emit(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.what == "tile":
        try:
            m = [int(x) for x in args.matrix.split(",")]
            eta = tuple(int(x) for x in args.eta.split(","))
        except (AttributeError, ValueError, IndexError) as exc:
            return _fail(2, f"bad tile parameters: {exc}")
        try:
            spec = tiles.TileSpec(((m[0], m[1]), (m[2], m[3])), eta)
            pts = tiles.tile_points(spec, args.r)
        except IndexError as exc:
            return _fail(2, f"bad tile parameters: {exc}")
        except LcaError as exc:
            return _fail(3, str(exc))
        path = out_dir / "tile.csv"
        tiles.tile_to_csv(pts, path, header=f"matrix={args.matrix} eta={args.eta} r={args.r}")
        print(f"wrote {path} ({len(pts)} points)")
        return 0
    if not args.system:
        return _fail(2, "generators/figure1 emission needs a system artifact")
    try:
        system, data = _load_system(args.system)
    except SchemaError as exc:
        return _fail(2, str(exc))
    except LcaError as exc:
        return _fail(3, f"precondition violated: {exc}")
    tag = f"system={data.get('descriptor_hash', 'unknown')} seed={data.get('seed', DEFAULT_SEED)}"
    if args.what == "generators":
        count = 0
        for gen in system.system_generators():
            fn = gen.time or gen.freq
            if fn is None:
                return _fail(3, f"{gen.label} has no finite representation to emit")
            rows = []
            for i, v in enumerate(fn.values):
                z = complex(v)
                rows.append(f"{fn.start + i},{z.real:.17g},{z.imag:.17g}")
            name = gen.label.replace("[", "_").replace("]", "").replace("__", "_")
            _write_csv(out_dir / f"{name}.csv", f"{tag} generator={gen.label}", ["index,re,im", *rows])
            count += 1
        print(f"wrote {count} generator files to {out_dir}")
        return 0
    if args.what == "figure1":
        fam = system.family
        if not (
            system.chain.kind == "integer"
            and fam.get("type") == "bspline"
            and fam.get("order") == 2
            and system.chain.params.get("M") == 10
            and system.k0 <= 5 < system.k1
        ):
            return _fail(3, "figure1 needs the integer-chain order-2 system with depth 10")
        emitted = []
        for gen in system.wavelets:
            if gen.level == 5:
                rows = [
                    f"{gen.time.start + i},{complex(v).real:.17g}"
                    for i, v in enumerate(gen.time.values)
                ]
                path = out_dir / f"psi_5_{gen.m}.csv"
                _write_csv(path, f"{tag} generator={gen.label}", ["index,value", *rows])
                emitted.append(path)
        print(f"wrote {len(emitted)} wavelet files to {out_dir}")
        return 0
    return _fail(2, f"unknown emission target {args.what!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lcaframes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a frame system from a JSON descriptor")
    c.add_argument("--descriptor", required=True)
    c.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run verification suites on a system artifact")
    v.add_argument("system")
    v.add_argument("--suite", default="all", choices=SUITES)
    v.add_argument("--samples", type=int, default=4096)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", default=None, help="hex RNG seed")
    v.add_argument("--tolerance", type=float, default=1e-10)
    v.add_argument("--report", default=None, help="write the JSON report here")

    e = sub.add_parser("emit", help="emit generator / plot / tile CSV data")
    e.add_argument("system", nargs="?")
    e.add_argument("--what", required=True, choices=["generators", "figure1", "tile"])
    e.add_argument("--out", required=True)
    e.add_argument("--matrix", help="tile dilation, row-major a,b,c,d")
    e.add_argument("--eta", help="tile digit x,y")
    e.add_argument("--r", type=int, default=12, help="tile iteration count")

    args = parser.parse_args(argv)
    if args.command == "construct":
        return cmd_construct(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_emit(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
