"""Cold-process certificate benchmark for lcaframes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed sample is a fresh worker process (perfbench/worker.py) that runs
`cli.main(["construct", ...])` and then `cli.main(["verify", ..., "--suite",
"all", "--seed", <N in hex>])` on the workload's reference systems. Workers
run one at a time, so no two samples compete for the machine's CPUs, and no
number comes from an in-process repeat: the library's module-level memo
caches would make repeats several times faster than any user's first call.

Each report is checked against perfbench/manifest.json and against the first
report of the run for the same system, byte for byte. Every mismatch is a
failed operation; nothing aborts silently.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
medians over samples of verify and construct wall time and of peak resident
memory, and the share of expected checks that passed. Construct also runs in
a few set-up-only workers, so set-up time is a median of several cold
set-ups even when a verify takes most of the run.

With --trace 1 the run alternates untraced and traced samples. The traced
ones wrap the library's layer boundaries from perfbench/tracer.py and give
the per-layer metrics (medians over traced samples). trace.overhead_ratio is
the median traced wall time over the median untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Work files go to .perfbench_work/ at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
import certificate  # noqa: E402
import tracer  # noqa: E402

# Reference systems of each workload, as named in manifest.json; every sample
# constructs and verifies all of them, in this order. The split is by the kind
# of dual: exhaustive exact plans and frame analysis on discrete duals, sampled
# float plans and the memo caches on continuous ones. Two long workloads rather
# than one per system, because on a shared 2-CPU host a 30 s run (what four
# workloads allow) left run-to-run spreads of 0.08-0.20 of the median, while
# a 60 s run about halves that. Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "discrete-dual": ("z256-spline", "z64-band", "t-shannon"),
    "continuous-dual": ("r2-balls", "z10-spline"),
}

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "check_pass_ratio": "ratio"}

SETUP_ONLY_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must exit within 180 s whatever the workers do


def stamp() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (no git)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
    }


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    if n < 20:
        return f"max {max(values):.6g}"
    q = int(100 * (1 - 10 / n))
    return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        manifest = json.loads((BENCH / "manifest.json").read_text())
        self.systems = [dict(manifest[name], name=name) for name in WORKLOADS[workload]]
        self.seed_hex = format(seed, "x")
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for system in self.systems:
            stem = self.work.relative_to(ROOT) / system["name"]
            system["paths"] = {
                "descriptor": f"{stem}.descriptor.json",
                "artifact": f"{stem}.system.json",
                "report": f"{stem}.report.json",
            }
            (ROOT / system["paths"]["descriptor"]).write_text(json.dumps(system["descriptor"]))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.expected_checks = 0
        self.exact_checks = 0
        self.problems = []
        self.first_report = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, setup_only: bool = False, trace: bool = False):
        """Run one cold sample; return (wall seconds, worker result or None)."""
        self.samples += 1
        spec = {
            "systems": [dict(s["paths"], verify_args=s["verify_args"]) for s in self.systems],
            "seed": self.seed_hex,
            "setup_only": setup_only,
            "trace": trace,
            "spans": str(self.work / f"spans-{self.samples}.npz"),
            "sample": self.samples,
        }
        spec_path = self.work / f"spec-{self.samples}.json"
        spec_path.write_text(json.dumps(spec))
        for system in self.systems:
            (ROOT / system["paths"]["report"]).unlink(missing_ok=True)
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"sample {self.samples}: worker timed out after {timeout:.0f} s")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.problems.append(f"sample {self.samples}: worker exited {proc.returncode}: {proc.stderr[-400:]!r}")
            return wall, None
        return wall, json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, result) -> None:
        """Count the sample's checks against the manifest and the run's first reports."""
        for i, system in enumerate(self.systems):
            expected = system["expected"]
            self.attempted += len(expected)
            self.expected_checks += len(expected)
            if result is None:
                self.failed += len(expected)
                continue
            if result["construct"][i] != 0:
                self.failed += len(expected)
                self.problems.append(f"{system['name']}: construct exited {result['construct'][i]}")
                continue
            path = ROOT / system["paths"]["report"]
            report = path.read_bytes() if path.is_file() else None
            problems = certificate.check_report(expected, result["verify"][i], report)
            if report is not None:
                digest = hashlib.sha256(report).hexdigest()
                if self.first_report.setdefault(system["name"], digest) != digest:
                    problems = [f"report differs from the run's first one for seed {self.seed_hex}"] * len(expected)
            self.failed += len(problems)
            self.problems.extend(f"{system['name']}: {p}" for p in problems)
            if report is not None and not problems:
                self.exact_checks += sum(1 for c in json.loads(report)["checks"] if c.get("exact") is True)

    def setup_failed(self, result) -> bool:
        """Count a set-up-only sample as one operation; True when it failed."""
        self.attempted += 1
        if result is not None and all(code == 0 for code in result["construct"]):
            return False
        self.failed += 1
        self.problems.append(f"sample {self.samples}: set-up-only construct failed")
        return True

    def fits(self, estimate: float) -> bool:
        return self.elapsed() + estimate <= self.seconds

    def end_to_end(self) -> tuple[dict, list]:
        setups, samples = [], []
        for _ in range(SETUP_ONLY_SAMPLES):
            _, result = self.worker(setup_only=True)
            if not self.setup_failed(result):
                setups.append(result["setup_s"])
        walls = []
        while not walls or self.fits(max(walls)):
            wall, result = self.worker()
            walls.append(wall)
            self.check(result)
            if result is not None:
                samples.append(result)
                setups.append(result["setup_s"])
        if not samples or not setups:
            return {}, []
        values = {
            "verify_s": [s["verify_s"] for s in samples],
            "setup_s": setups,
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        }
        metrics = {name: statistics.median(v) for name, v in values.items()}
        metrics["check_pass_ratio"] = 1.0 - self.failed / self.attempted
        lines = [f"{name}: median {metrics[name]:.6g} {END_TO_END_UNITS[name]}, {tail(v)} (n={len(v)})"
                 for name, v in values.items()]
        lines.append(f"check_fail_ratio: {self.failed / self.attempted:.6g} ratio "
                     f"({self.failed} failed of {self.attempted} operations)")
        lines.append(f"exact_check_share: {self.exact_checks / self.expected_checks:.6g} ratio "
                     f"({self.exact_checks} exact of {self.expected_checks} expected checks)")
        return metrics, lines

    def per_layer(self) -> tuple[dict, list]:
        import numpy as np

        plain, traced, layers, absent = [], [], [], set()
        pair = None
        while pair is None or self.fits(pair):
            t0 = time.perf_counter()
            for trace in (False, True):
                _, result = self.worker(trace=trace)
                self.check(result)
                if result is None:
                    continue
                (traced if trace else plain).append(result["setup_s"] + result["verify_s"])
                if trace:
                    with np.load(self.work / f"spans-{self.samples}.npz") as spans:
                        layers.append(tracer.layer_metrics(spans, result["trace"]))
                    absent.update(result["trace"]["absent"])
            pair = time.perf_counter() - t0
        if not plain or not layers:
            return {}, []
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        lines = [f"traced samples: {len(layers)}, untraced samples: {len(plain)}",
                 f"trace.overhead_ratio: {metrics['trace.overhead_ratio']:.4f}"]
        lines += [f"absent boundary: {name}" for name in sorted(absent)]
        return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "lcaframes" / "cli.py").is_file():
        print(f"error: no lcaframes source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    if args.trace:
        metrics, lines = run.per_layer()
        units = tracer.metric_units()
    else:
        metrics, lines = run.end_to_end()
        units = END_TO_END_UNITS
    for problem, count in list(Counter(run.problems).items())[:20]:
        print(f"check: {problem}" + (f" (x{count})" if count > 1 else ""))
    if not metrics:
        print("error: no sample completed", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    out = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
