"""Each reference system's `verify --suite all` report equals its golden file under tests/golden/.

Every field is compared exactly, with one exception: the float `residual` of an entry that is not
`exact: true` (a coefficient bound, a sampled plan, an energy or operator norm) may differ from its golden
value by RESIDUAL_BAND.  Those residuals are roundoff of sums of O(1) doubles, and the order numpy sums
them in (SIMD width, FFT plan) is its own.  Rebuilding the golden set with numpy's SIMD dispatch disabled
(NPY_DISABLE_CPU_FEATURES naming every extension past the x86-64-v2 baseline) moved such residuals by up
to 5.7e-16 (a spline coefficient bound, 6.6e-16 to 1.24e-15) and no other field.  The band is 1e-14, over
17 times that, and still below a residual that moves from 0.0 to 1e-13.  It was measured on Python 3.11
with numpy 2.4 only: the CI legs on Python 3.10 and 3.12, with the numpy pip resolves there, cannot be
run offline, so a wider move there shows as a failure of this test.  An exact entry's residual is an
exact rational's float and is compared exactly.

After a change that alters a report on purpose, `PYTHONPATH=src python tests/golden/rewrite.py` rewrites
the files, and the change names each changed entry.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
RESIDUAL_BAND = 1e-14


def _rewrite_module():
    spec = importlib.util.spec_from_file_location("golden_rewrite", GOLDEN / "rewrite.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REWRITE = _rewrite_module()


def _split_residual(entry: dict) -> tuple[dict, float | None]:
    """(entry without its residual, the residual) for an inexact entry; (entry, None) otherwise."""
    if entry.get("exact") is True or "residual" not in entry:
        return entry, None
    rest = dict(entry)
    return rest, rest.pop("residual")


@pytest.mark.parametrize("name", sorted(REWRITE.SYSTEMS))
def test_report_matches_golden(tmp_path, name):
    code, got = REWRITE.report(name, tmp_path)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert code == (0 if want["status"] == "pass" else 1)
    assert {k: v for k, v in got.items() if k != "checks"} == {k: v for k, v in want.items() if k != "checks"}
    assert len(got["checks"]) == len(want["checks"])
    for g, w in zip(got["checks"], want["checks"]):
        (g_rest, g_res), (w_rest, w_res) = _split_residual(g), _split_residual(w)
        assert g_rest == w_rest
        if w_res is not None:
            assert abs(g_res - w_res) <= RESIDUAL_BAND, (g["condition"], g.get("level"), g_res, w_res)


def test_golden_files_are_the_cli_serialization():
    """The files hold exactly the systems rewrite.py knows, each as `golden_text` writes it."""
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(REWRITE.SYSTEMS)
    for name in REWRITE.SYSTEMS:
        text = (GOLDEN / f"{name}.json").read_text()
        assert REWRITE.golden_text(json.loads(text)) == text
