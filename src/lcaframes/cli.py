"""Command-line front end: construct systems, run verifications, emit data.

Exit codes: 0 pass (skips count as pass), 1 verification failure, 2 input or
schema error (including an input or output file that cannot be read or
written), 3 precondition violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import charfun as cf
from . import frame as fr
from . import tiles
from . import verify
from .chains import MAX_POINTS, cyclic_chain, euclidean_chain, integer_chain, torus_chain
from .exceptions import LcaError, PeriodicityMismatchError, SchemaError
from .filters import DEFAULT_SEED
from .groups import integer_group


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
    _require(isinstance(params, dict), "group.params", "group parameters must be an object")
    chain_params = desc.get("chain", {})
    _require(isinstance(chain_params, dict), "chain", "chain parameters must be an object")
    if variant == "integers":
        _require(type(chain_params.get("M")) is int, "chain.M", "missing integer depth M")
        chain = integer_chain(chain_params["M"])
    elif variant == "cyclic":
        modulus = params.get("modulus")
        _require(type(modulus) is int and modulus >= 2, "group.params.modulus", "need modulus >= 2")
        m = modulus.bit_length() - 1
        _require(2**m == modulus, "group.params.modulus", "modulus must be a power of two")
        depth = chain_params.get("M", m)
        _require(type(depth) is int and depth == m, "chain.M", f"depth must be {m} for modulus {modulus}")
        chain = cyclic_chain(m)
    elif variant == "torus":
        seq = chain_params.get("M_seq")
        _require(isinstance(seq, list) and seq, "chain.M_seq", "missing factor list")
        chain = torus_chain(seq)
    else:
        table = chain_params.get("M_table")
        _require(
            isinstance(table, list) and table and all(isinstance(row, list) for row in table),
            "chain.M_table",
            "need one factor list per axis",
        )
        if "dimension" in params:
            dim = params["dimension"]
            _require(type(dim) is int and dim == len(table), "group.params.dimension", "need one M_table row per axis")
        chain = euclidean_chain(table)

    family = desc.get("family")
    _require(isinstance(family, dict), "family", "missing family object")
    k0 = desc.get("k0")
    k1 = desc.get("k1")
    _require(k0 is None or type(k0) is int, "k0", "must be an integer")
    _require(k1 is None or type(k1) is int, "k1", "must be an integer")

    if "bspline" in family:
        spec = family["bspline"]
        _require(isinstance(spec, dict), "family.bspline", "must be an object")
        order = spec.get("order")
        _require(type(order) is int and order >= 1, "family.bspline.order", "need order >= 1")
        return fr.build_bspline_system(chain, order, k0, k1)
    if "charfun" in family:
        spec = family["charfun"]
        _require(isinstance(spec, dict), "family.charfun", "must be an object")
        mode = spec.get("mode")
        _require(mode in ("proper", "shannon"), "family.charfun.mode", f"unknown mode {mode!r}")
        if mode == "shannon":
            band = cf.full_band_chain(chain)
        else:
            L = spec.get("L")
            _require(isinstance(L, list), "family.charfun.L", "proper mode needs a list of band bounds L")
            _require(variant != "integers", "family.charfun", "integer-group chains have no band instantiation")
            shape = spec.get("shape", "boxes")
            _require(variant != "euclidean" or shape in ("boxes", "balls"), "family.charfun.shape", "boxes or balls")
            band = fr._band_from_params(shape if variant == "euclidean" else variant, {**chain.params, "L": L})
        return fr.build_charfun_system(band, mode, k0, k1)
    raise SchemaError("family: need one of 'bspline' or 'charfun'")


def _read_json(path: str, what: str):
    """The JSON document in a file; SchemaError when it cannot be read or decoded."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc


def cmd_construct(args) -> int:
    desc = _read_json(args.descriptor, "descriptor")
    system = build_from_descriptor(desc)
    seed = _parse_seed(desc.get("seed"))
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
            print(f"  {gen.label}: identically zero")
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
    data = _read_json(path, "system artifact")
    return fr.system_from_json(data), data


def cmd_verify(args) -> int:
    for flag, count in (("--samples", args.samples), ("--trials", args.trials)):
        if count is not None and not 1 <= count <= MAX_POINTS:
            return _fail(2, f"{flag} must lie in 1..{MAX_POINTS}, got {count}")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        return _fail(2, f"--tolerance must be finite and nonnegative, got {args.tolerance}")
    system, data = _load_system(args.system)
    seed = _parse_seed(args.seed if args.seed is not None else data.get("seed"))
    entries, status = verify.run_verification(system, args.suite, args.samples, args.trials, seed, args.tolerance)
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


def _int_list(text: str | None, flag: str, count: int) -> list[int]:
    """`count` comma-separated integers given to a flag; SchemaError otherwise."""
    parts = (text or "").split(",")
    try:
        values = [int(x) for x in parts]
    except ValueError:
        values = []
    if len(values) != count:
        raise SchemaError(f"bad tile parameters: {flag} needs {count} comma-separated integers, got {text!r}")
    return values


def _write_csv(path: Path, header: str, rows: list[str]):
    path.write_text("\n".join([f"# {header}", *rows]) + "\n")


def cmd_emit(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.what == "tile":
        m, eta = _int_list(args.matrix, "--matrix", 4), _int_list(args.eta, "--eta", 2)
        pts = tiles.tile_points(tiles.TileSpec(((m[0], m[1]), (m[2], m[3])), tuple(eta)), args.r)
        path = out_dir / "tile.csv"
        rows = [f"{float(x):.17g},{float(y):.17g}" for x, y in pts]
        _write_csv(path, f"matrix={args.matrix} eta={args.eta} r={args.r}", ["x,y", *rows])
        print(f"wrote {path} ({len(pts)} points)")
        return 0
    if not args.system:
        return _fail(2, "generators/figure1 emission needs a system artifact")
    system, data = _load_system(args.system)
    tag = f"system={data.get('descriptor_hash', 'unknown')} seed={data.get('seed', DEFAULT_SEED)}"
    if args.what == "generators":
        count = 0
        for gen in system.system_generators():
            fn = gen.time or gen.freq
            if fn is None:
                return _fail(3, f"{gen.label} has no finite representation to emit")
            rows = [f"{fn.start + i},{z.real:.17g},{z.imag:.17g}" for i, z in enumerate(fn.values)]
            name = gen.label.replace("[", "_").replace("]", "").replace("__", "_")
            _write_csv(out_dir / f"{name}.csv", f"{tag} generator={gen.label}", ["index,re,im", *rows])
            count += 1
        print(f"wrote {count} generator files to {out_dir}")
        return 0
    if args.what == "figure1":
        fam = system.family
        if not (
            system.chain.group == integer_group()
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
                    f"{gen.time.start + i},{v.real:.17g}"
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
    v.add_argument("--suite", default="all", choices=verify.SUITES)
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
    command = {"construct": cmd_construct, "verify": cmd_verify, "emit": cmd_emit}[args.command]
    try:
        return command(args)
    except (SchemaError, PeriodicityMismatchError) as exc:
        return _fail(2, str(exc))
    except LcaError as exc:
        return _fail(3, f"precondition violated: {exc}")
    except OSError as exc:
        return _fail(2, f"cannot write output: {exc}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
