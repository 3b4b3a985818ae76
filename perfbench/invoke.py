"""One poisson-chaos CLI invocation in a fresh interpreter.

    python3 perfbench/invoke.py RESULT.json TRACE SPOOL_DIR CPU CLI_ARGS...

run.py starts this from the repository root.  The script imports
poisson_chaos.cli before anything else and stamps the moment it is ready,
so run.py can measure set-up from process start.  It then calls
cli.main(CLI_ARGS) in-process, which tells an uncaught exception apart from
a FAIL verdict (both exit with status 1 from the shell), and writes timings,
the exit status or the traceback, and (TRACE=1) per-layer metrics to
RESULT.json.
"""

import os
import sys
import time

if sys.argv[4] != "-":   # pin to one vCPU, before numpy starts its threads
    os.sched_setaffinity(0, {int(sys.argv[4])})
sys.path.insert(0, "src")
import poisson_chaos.cli as cli  # noqa: E402  (the set-up every CLI call pays)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402


def main() -> None:
    result_path, trace, spool, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[5:]
    core = tracing.CoreTimer()
    core.install()
    tracer = None
    if trace:
        tracer = tracing.Tracer(spool)
        tracer.install()
    sampler = hostspeed.Sampler()
    status, error = None, None
    sampler.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                status = cli.main(argv)
            else:
                status = tracer.wrap("cli", cli.main)(argv)
    except Exception:  # the benchmark counts the crash as a failed invocation
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    probe_s = sampler.stop()
    result = {
        "ready": READY,
        "status": status,
        "error": error,
        "run_s": run_s,
        "core_s": core.seconds,
        "units": core.units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_s": probe_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.absorb_spool()
        result["layers"] = tracing.layer_metrics(tracer.spans, core.units)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
