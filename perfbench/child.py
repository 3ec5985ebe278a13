"""One benchmark child: import forward_yield, optionally trace it, run cli.main.

Usage: python3 perfbench/child.py '<json request>'

The request holds ``result`` (where to write the JSON result), ``argv`` (the
CLI arguments, or null to stop after the import) and ``trace`` (a span file
path, or null for an untraced run).  The parent puts the package on
PYTHONPATH and pins the thread counts in the environment.
"""

import json
import resource
import sys
import time


def main() -> int:
    request = json.loads(sys.argv[1])
    import forward_yield.cli as cli

    ready = time.monotonic()  # system-wide clock, compared with the parent's spawn time
    result = {"ready": ready, "module": cli.__file__}
    if request["argv"] is not None:
        tracer = None
        if request["trace"]:
            from tracer import ROOT, Tracer, layer_metrics

            tracer = Tracer(run=request["run"])
            result["missing"] = tracer.install()
            tracer.begin(ROOT)
        start = time.perf_counter()
        try:
            rc = cli.main(request["argv"])
        finally:
            if tracer:
                tracer.end()
        result["run_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer:
            result["layers"] = layer_metrics(tracer.spans, tracer.counters)
            with open(request["trace"], "w") as fh:
                json.dump({"run": tracer.run, "spans": tracer.records()}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
