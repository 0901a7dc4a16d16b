"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import source  # noqa: E402

whitmod = source.use_checkout()

import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(name, trace, section):
    result = _run("--workload", name, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.job_s"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# One wrong reference answer per workload.
CORRUPTIONS = {
    "classify": ("expected_space",
                 lambda rmax: {whitmod.basis_vector(r=r) for r in range(rmax + 2)}),
    "ideal": ("pure_ideal", lambda gen, trunc, spec: [1, 1]),
    "cli": ("poly_times_w", lambda coeffs: whitmod.basis_vector(r=len(coeffs) + 1)),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_reference_makes_cases_fail(name, monkeypatch):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, 3, "tiny")
    attr, wrong = CORRUPTIONS[name]
    monkeypatch.setattr(reference, attr, wrong)
    result = worker.run_job(workload, workload.build(inputs), "job", True)
    assert result["checked"] >= 1
    assert 0 < len(result["failures"]) <= result["checked"]


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_sees_names_bound_before_it_starts(monkeypatch):
    import types

    import tracer

    early = types.ModuleType("early_binding")
    early.act = whitmod.act
    early.whittaker_space = whitmod.whittaker_space
    monkeypatch.setitem(sys.modules, early.__name__, early)
    with tracer.SpanTracer() as spans:
        early.act(whitmod.d(2, (0, 2)), whitmod.w_vector())
    assert spans.stats["wmod.act"].calls == 1
    assert spans.missing(["wmod.act", "solver.whittaker_space"]) == ["solver.whittaker_space"]
    assert early.act is whitmod.act and early.whittaker_space is whitmod.whittaker_space


def test_refused_command_line_is_a_failed_case():
    # argparse ends a refused command line with SystemExit, which must count
    # as one failed case, not end the worker.
    workload = workloads.WORKLOADS["cli"]
    inputs = workloads.make_inputs("cli", 3, "tiny")
    inputs["texts"][0] = "-" + inputs["texts"][0]
    result = worker.run_job(workload, workload.build(inputs), "job", True)
    assert len(result["failures"]) == 1 and result["failures"][0].startswith("reduce")
