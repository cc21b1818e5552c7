"""Rewrite the golden reports: `PYTHONPATH=src python tests/golden/rewrite.py`, from the repository root.

Each golden file `<name>.json` is the `verify --suite all` report of one reference system, written as the
CLI writes it but without its `system` path.  The systems are the five of the benchmark manifest, with
their verify arguments, and the five the CI workflow builds.  `tests/test_golden.py` rebuilds each system
through `report` and compares the result with its file.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from lcaframes.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent.parent / "perfbench" / "manifest.json").read_text())
CI_SYSTEMS = {
    "t-band": ({"group": {"variant": "torus", "params": {}}, "chain": {"M_seq": [2, 2, 2]},
                "family": {"charfun": {"mode": "proper", "L": [0, 1, 3]}}}, []),
    "r2-boxes": ({"group": {"variant": "euclidean", "params": {"dimension": 2}}, "chain": {"M_table": [[2, 2], [2, 2]]},
                  "family": {"charfun": {"mode": "proper", "L": [["3/4", "3/2"], ["3/4", "3/2"]], "shape": "boxes"}}}, []),
    "torus-spline": ({"group": {"variant": "torus"}, "chain": {"M_seq": [2, 2, 2, 2]},
                      "family": {"bspline": {"order": 2}}}, []),
    "r1-spline": ({"group": {"variant": "euclidean", "params": {"dimension": 1}}, "chain": {"M_table": [[2, 2, 2]]},
                   "family": {"bspline": {"order": 4}}}, []),
    "z4096-spline": ({"group": {"variant": "cyclic", "params": {"modulus": 4096}}, "chain": {"M": 12},
                      "family": {"bspline": {"order": 2}}}, ["--tolerance", "1e-12"]),
}
SYSTEMS = {**{name: (s["descriptor"], s["verify_args"]) for name, s in MANIFEST.items()}, **CI_SYSTEMS}


def report(name: str, workdir: Path) -> tuple[int, dict]:
    """(exit code, report without `system`) of `verify --suite all` on the system `name`, built in workdir."""
    desc, verify_args = SYSTEMS[name]
    dpath, spath, rpath = workdir / "descriptor.json", workdir / "system.json", workdir / "report.json"
    dpath.write_text(json.dumps(desc))
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["construct", "--descriptor", str(dpath), "--out", str(spath)]) != 0:
            raise RuntimeError(f"construct failed on {name}")
        code = main(["verify", str(spath), "--suite", "all", *verify_args, "--report", str(rpath)])
    data = json.loads(rpath.read_text())
    del data["system"]
    return code, data


def golden_text(data: dict) -> str:
    """A report in the CLI's own serialization."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def rewrite():
    for name in SYSTEMS:
        with tempfile.TemporaryDirectory() as tmp:
            _, data = report(name, Path(tmp))
        (HERE / f"{name}.json").write_text(golden_text(data))
        print(f"wrote {HERE / name}.json", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
