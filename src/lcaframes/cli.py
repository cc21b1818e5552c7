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

from . import frame as fr
from . import tiles
from . import verify
from .chains import MAX_POINTS
from .exceptions import LcaError, SchemaError
from .frame import build_from_descriptor, parse_seed
from .groups import integer_group


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_json(path: str, what: str):
    """The JSON document in a file; SchemaError when it cannot be read or decoded."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc


def cmd_construct(args) -> int:
    desc = _read_json(args.descriptor, "descriptor")
    system = build_from_descriptor(desc)
    artifact = fr.system_to_json(system, parse_seed(desc.get("seed")))
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


def _load_system(path: str):
    data = _read_json(path, "system artifact")
    return fr.system_from_json(data), data["descriptor"]


def cmd_verify(args) -> int:
    for flag, count in (("--samples", args.samples), ("--trials", args.trials)):
        if count is not None and not 1 <= count <= MAX_POINTS:
            raise SchemaError(f"{flag} must lie in 1..{MAX_POINTS}, got {count}")
    if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise SchemaError(f"--tolerance must be finite and nonnegative, got {args.tolerance}")
    system, desc = _load_system(args.system)
    seed = parse_seed(args.seed if args.seed is not None else desc.get("seed"))
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
            line += f" residual={e['residual']:.3e} (tol {e['tolerance']:.1e})"
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
    """One CSV file; its directory is made with the first file, so a refused emit leaves none behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([f"# {header}", *rows]) + "\n")


def cmd_emit(args) -> int:
    out_dir = Path(args.out)
    if args.what == "tile":
        m, eta = _int_list(args.matrix, "--matrix", 4), _int_list(args.eta, "--eta", 2)
        pts = tiles.tile_points(tiles.TileSpec(((m[0], m[1]), (m[2], m[3])), tuple(eta)), args.r)
        path = out_dir / "tile.csv"
        rows = [f"{float(x):.17g},{float(y):.17g}" for x, y in pts]
        _write_csv(path, f"matrix={args.matrix} eta={args.eta} r={args.r}", ["x,y", *rows])
        print(f"wrote {path} ({len(pts)} points)")
        return 0
    if not args.system:
        raise SchemaError("generators/figure1 emission needs a system artifact")
    system, desc = _load_system(args.system)
    digest = hashlib.sha256(Path(args.system).read_bytes()).hexdigest()[:16]  # so an edit to the filters changes it
    tag = f"system={digest} seed={parse_seed(desc.get('seed'))}"
    if args.what == "generators":
        gens = system.system_generators()
        for gen in gens:
            if (gen.time or gen.freq) is None:
                raise LcaError(f"{gen.label} has no finite representation to emit")
        for gen in gens:
            fn = gen.time or gen.freq
            rows = [f"{fn.start + i},{z.real:.17g},{z.imag:.17g}" for i, z in enumerate(fn.values)]
            name = gen.label.replace("[", "_").replace("]", "").replace("__", "_")
            _write_csv(out_dir / f"{name}.csv", f"{tag} generator={gen.label}", ["index,re,im", *rows])
        print(f"wrote {len(gens)} generator files to {out_dir}")
        return 0
    fam = system.family
    if not (
        system.chain.group == integer_group()
        and fam.get("type") == "bspline"
        and fam.get("order") == 2
        and system.chain.k1 == 10
        and system.k0 <= 5 < system.k1
    ):
        raise LcaError("figure1 needs the integer-chain order-2 system with depth 10")
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
    v.add_argument("--tolerance", type=float, default=None, help="one tolerance for every check in place of its own")
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
    except SchemaError as exc:
        return _fail(2, str(exc))
    except LcaError as exc:
        return _fail(3, f"precondition violated: {exc}")
    except OSError as exc:
        return _fail(2, f"cannot write output: {exc}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
