"""Smoke check of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

- every workload: one cycle of jobs, untraced and traced, passes the
  correctness check, gives the same digests both ways, and the tracer
  puts every wrapped function back;
- the traced metrics are exactly the ``per_layer`` names of
  BENCHMARK.json, and their counts repeat on a second traced pass;
- a short end-to-end run and a traced run print a last line with the
  schema BENCHMARK.json asks for;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import run
import workloads
from layers import layer_metrics
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(condition, message):
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def package_globals():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name.startswith("autqm.")
        for key, value in vars(module).items()
    }


def traced_pass(workload, lib, ctx, jobs):
    tracer = Tracer()
    check(tracer.install() > 0, "the tracer found no layer boundaries")
    try:
        _, outputs = run.run_pass(
            workload, jobs, tracer.api(lib, workloads.HELPER_LAYERS), ctx, tracer
        )
    finally:
        tracer.restore()
    tallies = Counter()
    for job, out in zip(jobs, outputs):
        tally = workload.kinds[job.kind].tally
        if tally:
            tallies.update(tally(job.args, out))
    metrics = layer_metrics(tracer, tallies, [1.0], 1.0, 1.0)
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    return outputs, metrics, counts


def check_workloads():
    lib = run.load_library()
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for workload in workloads.WORKLOADS.values():
        ctx = workload.warm_up(lib, 0)
        jobs = list(itertools.islice(workload.jobs(0, lib, ctx), len(workload.cycle)))
        reference = run.load_reference(workload.name, 0)
        before = package_globals()
        _, plain = run.run_pass(workload, jobs, lib, ctx)
        traced, metrics, counts = traced_pass(workload, lib, ctx, jobs)
        check(package_globals() == before, f"{workload.name}: the tracer left a wrapper behind")
        _, _, again = traced_pass(workload, lib, ctx, jobs)
        check(counts == again, f"{workload.name}: traced counts differ between two passes")
        check(list(metrics) == per_layer, f"{workload.name}: traced metrics differ from per_layer")
        for job, a, b in zip(jobs, plain, traced):
            for out in (a, b):
                problem = run.verify(workload, lib, ctx, job, out, reference)
                check(problem is None, f"{workload.name} job {job.index}: {problem}")
            canon = workload.kinds[job.kind].canon
            check(
                run.digest(canon(job.args, a)) == run.digest(canon(job.args, b)),
                f"{workload.name} job {job.index}: traced output differs",
            )
        print(f"smoke: {workload.name}: {len(jobs)} jobs correct, traced and untraced")


def last_json(command, cwd):
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_schema():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = last_json(
            [sys.executable, "perfbench/run.py", "--workload", "graphprod", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            run.ROOT,
        )
        check(code == 0 and result is not None, f"trace {trace}: no result line")
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, "result")
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == expected, f"trace {trace}: metrics differ from {section}")
        print(f"smoke: trace {trace}: result line matches BENCHMARK.json {section}")


def check_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, result = last_json(
            [sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            bare,
        )
    finally:
        shutil.rmtree(bare)
    check(code != 0 and result is None, "a checkout without sources printed a result")
    print("smoke: without sources the benchmark exits", code, "and prints no result")


if __name__ == "__main__":
    check_workloads()
    check_schema()
    check_bare_directory()
    print("smoke: ok")
