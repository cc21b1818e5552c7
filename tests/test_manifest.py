"""Every benchmark reference system verifies with the statuses and exact flags its manifest pins.

The manifest and its checker live in perfbench/; this test only reads them,
so a status or `exact` flip fails here and not only in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from lcaframes.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MANIFEST = json.loads((PERFBENCH / "manifest.json").read_text())


def _certificate():
    spec = importlib.util.spec_from_file_location("perfbench_certificate", PERFBENCH / "certificate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_reference_system_matches_manifest(tmp_path, name):
    system = MANIFEST[name]
    dpath, spath, rpath = tmp_path / "descriptor.json", tmp_path / "system.json", tmp_path / "report.json"
    dpath.write_text(json.dumps(system["descriptor"]))
    assert main(["construct", "--descriptor", str(dpath), "--out", str(spath)]) == 0
    code = main(["verify", str(spath), "--suite", "all", *system["verify_args"], "--report", str(rpath)])
    assert _certificate().check_report(system["expected"], code, rpath.read_bytes()) == []
