"""Benchmark of the whitmod calculator.

    python3 perfbench/run.py --workload classify|ideal|cli --seed N \
        --seconds S --trace 0|1

Run from a checkout: the library is imported from its ``src/``, never
from an installed copy.  Every job runs in a fresh single-threaded
interpreter, so the library's caches start cold, as they do for a user
of ``whit`` or a one-shot script; jobs run one after another (a closed
loop with one client).

``--trace 0`` repeats the job for about ``--seconds`` of timed work
and reports the medians of the end-to-end metrics:

* ``job_s``: wall seconds of the timed job;
* ``setup_s``: from starting a fresh interpreter, through ``import
  whitmod``, to the workload's inputs being built (median of at least
  fifteen start-ups spread over the run);
* ``peak_rss_mb``: peak resident memory of the job's process.

The share of cases that raised, exited non-zero or disagreed with the
reference (``fail_ratio``) is printed too, and carried as ``failed`` over
``attempted`` in the result line.  Outputs of the first job are checked
against references outside the timed section; later jobs must give the
same outputs.

``--trace 1`` runs one untraced job, one with every layer span recorded
and one counting Scalar arithmetic, and reports the per-layer metrics.

The last line of standard output is the result as one JSON object.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import source

WORKER = os.path.join(source.ROOT, "perfbench", "worker.py")
SETUP_PER_JOB = 4
SETUP_SAMPLES = 15
# A run must end within 180 seconds; workers get what is left of this.
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, inputs, mode, check, deadline):
    """Run worker.py once and return its result."""
    # -S: the interpreter's site hooks belong to the machine, not to the
    # library, and the worker needs nothing outside the standard library.
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, "-S", WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=source.ROOT,
                            env=dict(os.environ, PYTHONHASHSEED="0"))
    request = {"workload": workload, "mode": mode, "check": check, "inputs": inputs,
               "spawned": spawned}
    try:
        out, _ = proc.communicate(json.dumps(request),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed("%s worker ran out of time" % mode)
    except BaseException:  # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerFailed("%s worker exited with code %s" % (mode, proc.returncode))
    return json.loads(out.splitlines()[-1])


def _compare(first, other, label, problems):
    """Count the cases of ``other`` whose output differs from ``first``."""
    bad = sum(1 for a, b in zip(first["digests"], other["digests"]) if a != b)
    bad += abs(len(first["digests"]) - len(other["digests"]))
    if bad:
        problems.append("%s: %d case(s) differ from the checked job" % (label, bad))
    return bad


def measure(name, inputs, seconds, deadline):
    """Repeat the job for ``seconds`` of timed work; the end-to-end run.

    A job is started only while the run is expected to end nearer to
    ``seconds`` with it than without it, so long jobs do not overshoot.
    Set-up is sampled by every job and by set-up-only workers started
    between the jobs, so the samples spread over the whole run.
    """
    jobs, setups, problems = [], [], []
    attempted = failed = 0
    try:
        while not jobs or (sum(j["job_s"] for j in jobs)
                           + statistics.median(j["job_s"] for j in jobs) / 2 < seconds):
            for _ in range(SETUP_PER_JOB if len(setups) < SETUP_SAMPLES else 0):
                setups.append(spawn(name, inputs, "setup", False, deadline)["setup_s"])
            job = spawn(name, inputs, "job", not jobs, deadline)
            if not jobs:
                attempted += job["checked"]
                failed += len(job["failures"])
                problems += job["failures"]
            else:
                attempted += len(job["digests"])
                failed += _compare(jobs[0], job, "job %d" % (len(jobs) + 1), problems)
            jobs.append(job)
            setups.append(job["setup_s"])
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(name, inputs, "setup", False, deadline)["setup_s"])
    except WorkerFailed as exc:
        problems.append(str(exc))
        attempted += 1
        failed += 1
        if not jobs:
            return None, attempted, failed, problems
    metrics = {
        "job_s": (statistics.median(j["job_s"] for j in jobs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in jobs), "MB"),
    }
    print("%s: %d job(s), job_s %s, %d set-up sample(s)"
          % (name, len(jobs), " ".join("%.3f" % j["job_s"] for j in jobs), len(setups)))
    return metrics, attempted, failed, problems


def trace(name, inputs, deadline):
    """One untraced, one span-traced and one counting job; the per-layer run."""
    problems = []
    try:
        plain = spawn(name, inputs, "job", True, deadline)
        spans = spawn(name, inputs, "spans", False, deadline)
        counted = spawn(name, inputs, "count", False, deadline)
    except WorkerFailed as exc:
        return None, 1, 1, [str(exc)]
    attempted = plain["checked"] + 2 * len(plain["digests"])
    failed = len(plain["failures"])
    problems += plain["failures"]
    failed += _compare(plain, spans, "traced job", problems)
    failed += _compare(plain, counted, "counting job", problems)
    if spans["missing_spans"]:
        problems.append("expected spans never fired: %s" % ", ".join(spans["missing_spans"]))
        failed += 1
    # Self times add up to the time inside outermost spans, unless a span
    # was left open or closed twice.
    if abs(spans["self_total_s"] - spans["top_level_s"]) > 1e-6 * max(1.0, spans["job_s"]):
        problems.append("span self times sum to %.6f s, outermost spans cover %.6f s"
                        % (spans["self_total_s"], spans["top_level_s"]))
        failed += 1
    metrics = {k: tuple(v) for k, v in spans["layers"].items()}
    metrics.update({k: tuple(v) for k, v in counted["layers"].items()})
    hits, misses, size = spans.get("act_cache", (0, 0, 0))
    metrics["wmod.act_cache.hits"] = (hits, "count")
    metrics["wmod.act_cache.misses"] = (misses, "count")
    metrics["wmod.act_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                           "ratio")
    metrics["wmod.act_cache.size"] = (size, "count")
    metrics["trace.job_s"] = (spans["job_s"], "s")
    metrics["trace.outside_s"] = (spans["job_s"] - spans["top_level_s"], "s")
    metrics["trace.overhead_s"] = (spans["job_s"] - plain["job_s"], "s")
    return metrics, attempted, failed, problems


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=source.ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(source.ROOT) else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed):
    """What produced a result: code, seed and machine."""
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(source.PACKAGE, "*.py"))):
        with open(path, "rb") as f:
            sources.update(os.path.basename(path).encode() + b"\0" + f.read())
    return {
        "whitmod": source.PACKAGE,
        "git_commit": _git_commit(),
        "sources_sha256": sources.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify", "ideal", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs in seconds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the worker it waits for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        source.use_checkout()
    except source.WrongSource as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2
    import workloads  # imports whitmod, so only once src/ is on the path

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    if args.trace:
        metrics, attempted, failed, problems = trace(args.workload, inputs, deadline)
    else:
        metrics, attempted, failed, problems = measure(
            args.workload, inputs, args.seconds, deadline)
    for problem in problems:
        print("FAIL %s" % problem)
    for key, (value, unit) in sorted((metrics or {}).items()):
        print("%-44s %14.6g %s" % (key, value, unit))
    print("%-44s %14.6g (%d of %d cases)" % ("fail_ratio", failed / attempted, failed, attempted))
    print("provenance " + json.dumps(provenance(args.seed)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
