"""One workload job in a fresh interpreter.

Reads ``{"workload", "mode", "check", "inputs", "spawned"}`` as JSON on
stdin, builds the inputs (the end of set-up), runs the job unless the
mode is ``setup``, and prints one JSON result line.  ``spawned`` is the
wall clock of run.py just before it started this interpreter, so
``setup_s`` counts interpreter start-up, ``import whitmod`` and building
the inputs.

Modes: ``setup`` stops after set-up; ``job`` times the job with nothing
traced; ``spans`` times it with every layer span recorded; ``count``
counts Scalar arithmetic.  With ``check`` the outputs are compared with
the references after the timed section.
"""

import hashlib
import json
import resource
import sys
import time

import source
import tracer


def run_job(workload, built, mode, check):
    """Run (and optionally check) one job on built inputs; returns the result."""
    result = {}
    before = tracer.act_cache_info()
    if mode == "spans":
        with tracer.SpanTracer() as spans:
            start = time.perf_counter()
            outputs = workload.job(built)
            result["job_s"] = time.perf_counter() - start
        result["layers"] = spans.metrics()
        result["top_level_s"] = spans.top_level_s
        result["self_total_s"] = spans.self_total()
        result["missing_spans"] = spans.missing(workload.spans)
    elif mode == "count":
        with tracer.ScalarCounter() as counter:
            outputs = workload.job(built)
        result["layers"] = counter.metrics()
    else:
        start = time.perf_counter()
        outputs = workload.job(built)
        result["job_s"] = time.perf_counter() - start
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = tracer.act_cache_info()
    if before is not None and after is not None:
        result["act_cache"] = [after[0] - before[0], after[1] - before[1], after[2]]
    # one short digest per case, to compare repeated jobs
    result["digests"] = [hashlib.sha256(workload.render(o).encode()).hexdigest()[:16]
                         for o in outputs]
    if check:
        result["checked"], result["failures"] = workload.check(built, outputs)
    return result


def main():
    try:
        source.use_checkout()
    except source.WrongSource as exc:
        print("worker: %s" % exc, file=sys.stderr)
        return 2
    import workloads  # imports whitmod, so only once src/ is on the path

    request = json.load(sys.stdin)
    workload = workloads.WORKLOADS[request["workload"]]
    built = workload.build(request["inputs"])
    setup_s = time.time() - request["spawned"]
    result = {}
    if request["mode"] != "setup":
        result = run_job(workload, built, request["mode"], request["check"])
    result["setup_s"] = setup_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
