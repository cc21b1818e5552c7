"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import certificate  # noqa: E402
import tracer  # noqa: E402

MANIFEST = json.loads((BENCH / "manifest.json").read_text())
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def report_for(expected, tweak=None):
    checks = []
    for condition, level, status, exact in expected:
        check = {"condition": condition, "status": status}
        if level is not None:
            check["level"] = level
        if exact is not None:
            check["exact"] = exact
        if status != "skip":
            check.update(residual=1e-15, tolerance=1e-10)
        checks.append(check)
    if tweak:
        tweak(checks)
    return json.dumps({"checks": checks, "status": "pass"}).encode()


@pytest.mark.parametrize("system", sorted(MANIFEST))
def test_checker_accepts_the_manifest_itself(system):
    expected = MANIFEST[system]["expected"]
    assert certificate.check_report(expected, 0, report_for(expected)) == []


def flip_status(checks):
    checks[0]["status"] = "fail"


def drop_level(checks):
    del checks[1]


def flip_exact(checks):
    checks[0]["exact"] = False


def nan_residual(checks):
    checks[2]["residual"] = float("nan")


def over_tolerance(checks):
    checks[2]["residual"] = 1e-9


def extra_check(checks):
    checks.append(dict(checks[0], level=99))


@pytest.mark.parametrize("tweak", [flip_status, drop_level, flip_exact, nan_residual, over_tolerance, extra_check])
def test_checker_rejects_one_broken_check(tweak):
    expected = MANIFEST["z64-band"]["expected"]
    assert len(certificate.check_report(expected, 0, report_for(expected, tweak))) == 1


def test_checker_fails_every_check_on_nonzero_exit_or_missing_report():
    expected = MANIFEST["z64-band"]["expected"]
    assert len(certificate.check_report(expected, 1, report_for(expected))) == len(expected)
    assert len(certificate.check_report(expected, 0, None)) == len(expected)
    assert len(certificate.check_report(expected, 0, b"{not json")) == len(expected)


def run_bench(trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "continuous-dual", "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = run_bench(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_every_workload_and_tracer_metric():
    import run

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.metric_units()
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS


@pytest.fixture
def fake_package():
    """fakepkg.core with nested, recursive and generator functions; fakepkg.user copies one."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def leaf():
        spin(0.002)

    def middle():
        spin(0.001)
        core.leaf()
        return sum(core.walk(3))

    def outer():
        spin(0.001)
        core.middle()
        core.leaf()
        return core.depth(3)

    def depth(n):
        spin(0.001)
        return n if n == 0 else core.depth(n - 1)

    def walk(n):
        for i in range(n):
            spin(0.001)
            yield i

    for fn in (leaf, middle, outer, depth, walk):
        setattr(core, fn.__name__, fn)
    user.leaf = core.leaf  # as `from .core import leaf` leaves it
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield core, user
    for name in modules:
        sys.modules.pop(name, None)


SPAN = ("calls", "s", "self_s")
FAKE_BOUNDARIES = (
    ("core.outer", "span", SPAN),
    ("core.middle", "span", SPAN),
    ("core.leaf", "span", SPAN),
    ("core.depth", "span", SPAN),
    ("core.walk", "span", SPAN),
    ("core.gone", "span", SPAN),
)


def traced_metrics(tmp_path, t):
    summary = t.save(tmp_path / "spans.npz", sample=1)
    with np.load(tmp_path / "spans.npz") as spans:
        return tracer.layer_metrics(spans, summary, FAKE_BOUNDARIES, {}), summary


def test_self_times_of_nested_calls_sum_to_the_parent_span(tmp_path, fake_package):
    core, user = fake_package
    t = tracer.Tracer("fakepkg", FAKE_BOUNDARIES, {})
    assert t.install() == ["core.gone"]
    core.outer()
    m, summary = traced_metrics(tmp_path, t)

    self_total = sum(m[f"core.{n}.self_s"] for n in ("outer", "middle", "leaf", "depth", "walk"))
    assert self_total == pytest.approx(m["core.outer.s"], rel=1e-9)
    assert m["core.outer.s"] >= 0.013
    assert m["core.depth.calls"] == 4
    assert m["core.depth.s"] == pytest.approx(m["core.depth.self_s"], rel=1e-9)  # recursion counted once
    assert m["core.walk.calls"] == 1 and m["core.walk.s"] >= 0.003  # busy time across resumptions
    assert "core.gone.calls" not in m and summary["absent"] == ["core.gone"]


def test_copies_imported_by_name_are_rebound(tmp_path, fake_package):
    core, user = fake_package
    t = tracer.Tracer("fakepkg", FAKE_BOUNDARIES, {})
    t.install()
    user.leaf()
    m, _ = traced_metrics(tmp_path, t)
    assert m["core.leaf.calls"] == 1


def test_exceptions_crossing_a_boundary_count_as_layer_errors(tmp_path, fake_package):
    core, _ = fake_package

    def leaf():
        raise ValueError("broken")

    core.leaf = leaf
    t = tracer.Tracer("fakepkg", FAKE_BOUNDARIES, {})
    t.install()
    with pytest.raises(ValueError):
        core.middle()
    m, _ = traced_metrics(tmp_path, t)
    assert m["core.errors"] == 2  # leaf, then middle
    assert m["core.middle.calls"] == 1
