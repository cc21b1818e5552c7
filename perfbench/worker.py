"""One cold benchmark sample, run in a fresh process by run.py.

Usage: python3 perfbench/worker.py <spec.json>

The spec names the systems of the sample, each with its descriptor, artifact
and report paths and its verify arguments. The worker imports lcaframes
first, so import time is outside every timing, then runs
`cli.main(["construct", ...])` for every system and, unless the spec asks for
set-up only, `cli.main(["verify", ...])` for every system. With "trace" set,
the tracer is installed before the first call and the spans are written to
the spec's "spans" path after the last. The last line of standard output is
one JSON object with the timings and exit codes.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from lcaframes import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"construct": [], "verify": [], "setup_s": 0.0, "verify_s": 0.0}
    clock = time.perf_counter
    with contextlib.redirect_stdout(io.StringIO()):
        for system in spec["systems"]:
            t0 = clock()
            code = cli.main(["construct", "--descriptor", system["descriptor"], "--out", system["artifact"]])
            result["setup_s"] += clock() - t0
            result["construct"].append(code)
        if not spec["setup_only"]:
            for system in spec["systems"]:
                argv = ["verify", system["artifact"], "--suite", "all", "--seed", spec["seed"]]
                argv += [*system["verify_args"], "--report", system["report"]]
                t0 = clock()
                code = cli.main(argv)
                result["verify_s"] += clock() - t0
                result["verify"].append(code)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.save(spec["spans"], spec["sample"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
