"""The autqm benchmark.

    python3 perfbench/run.py --workload orbit --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15
    python3 perfbench/run.py --compare OLD.json NEW.json

Each workload is a closed loop with one client: it sends a job, waits
for the answer, then sends the next.  With ``--trace 0`` it runs that
loop in five fresh worker processes, one after another, for
``--seconds`` seconds of job time in all, and reports the end-to-end
metrics with times calibrated to a reference machine speed.  With
``--trace 1`` it runs a fixed list of jobs untraced, traced and untraced
again in one process, and reports the per-layer metrics.  Every output
is checked outside the timed region.  Results and spans are written under ``.perfbench/``; the
last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"
WORKERS = 5
MIN_CYCLES = 2  # per worker: at least 120 jobs in a run
WORKER_TIMEOUT_S = 150
# Reported times are scaled to a machine on which calibrate() takes this long.
CALIBRATION_MS = 1.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import autqm from this checkout's sources, and nowhere else."""
    package = SRC / "autqm"
    if not (package / "__init__.py").is_file():
        fail(f"no autqm sources at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import autqm.cli  # noqa: F401  (the import users pay for; the tracer sees it too)

    if Path(autqm.__file__).resolve().parent != package.resolve():
        fail(f"autqm was imported from {autqm.__file__}, not from this checkout")
    import workloads

    return workloads.library()


def spawn(workload: str, seed: int, start: int, seconds: float) -> tuple[float, dict]:
    """Run one worker: a fresh interpreter that sets up, then runs jobs
    from index ``start`` for ``seconds`` of job time.

    Returns the worker's set-up wall time, from launch until it reports
    ready, and its final report.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--worker", "--workload", workload,
        "--seed", str(seed), "--start", str(start), "--seconds", str(seconds),
    ]
    launched = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - launched
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or not ready.startswith("{"):
        fail(f"a worker exited with code {proc.returncode}")
    report = json.loads(rest.strip().splitlines()[-1])
    report.update(json.loads(ready))
    return setup_s, report


def digest(content) -> str:
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_reference(workload: str, seed: int) -> list[str]:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return []
    return json.loads(path.read_text())["seeds"].get(str(seed), "").split()


def run_job(kind, api, ctx, job):
    """Run one job; an error is an outcome, recorded for the check."""
    try:
        return kind.run(api, ctx, job.args)
    except Exception as exc:  # the loop must go on; the check counts it
        return exc


def verify(workload, lib, ctx, job, out, reference) -> str | None:
    """None if the output is correct, else why not."""
    from workloads import CheckFailed

    if isinstance(out, Exception):
        return "raised " + "".join(traceback.format_exception_only(type(out), out)).strip()
    kind = workload.kinds[job.kind]
    try:
        kind.check(lib, ctx, job.args, out)
        got = digest(kind.canon(job.args, out))
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a malformed output can break the check itself
        return f"check raised {type(exc).__name__}: {exc}"
    if job.index < len(reference) and got != reference[job.index]:
        return f"output digest {got} differs from the reference {reference[job.index]}"
    return None


def input_stats(workload, jobs) -> dict:
    """Summary of the generated inputs; jobs are (kind, rank, size)."""
    sizes = [size for _, _, size in jobs]
    return {
        "jobs": len(jobs),
        "kinds": dict(sorted(Counter(kind for kind, _, _ in jobs).items())),
        ("vertices" if workload.size_unit == "syllables" else "ranks"): dict(
            sorted(Counter(str(rank) for _, rank, _ in jobs).items())
        ),
        workload.size_unit: {
            "min": min(sizes, default=0),
            "max": max(sizes, default=0),
            "total": sum(sizes),
        },
    }


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def calibrate(word, images) -> float:
    """Milliseconds for a fixed piece of pure-Python work of the kind the
    library does (substitution, free reduction, least rotation), done by
    the benchmark's own code, so no change to autqm can move it."""
    start = time.perf_counter()
    oracle.cyclic_core(oracle.substitute(images, word))
    return 1000 * (time.perf_counter() - start)


def worker(workload, seed: int, start: int, seconds: float) -> None:
    """The body of one worker process: set up, report ready, then run
    the closed loop from job ``start`` for ``seconds`` of job time,
    checking each output outside the timed region."""
    began = time.perf_counter()
    lib = load_library()
    import_ms = 1000 * (time.perf_counter() - began)
    ctx = workload.warm_up(lib, seed)
    print(json.dumps({"import_ms": import_ms}), flush=True)

    reference = load_reference(workload.name, seed)
    jobs, times, failures, speed = [], [], [], []
    rng = random.Random("calibration")
    probe = oracle.random_word(rng, 3, 60), oracle.random_automorphism(rng, 3, 3)
    busy = 0.0
    deadline = time.perf_counter() + 2 * seconds + 30
    for job in itertools.islice(workload.jobs(seed, lib, ctx), start, None):
        # Stop only after whole cycles, so every run has the same job mix,
        # and after at least MIN_CYCLES, so the p90 has enough jobs beyond it.
        at_boundary = job.index % len(workload.cycle) == 0
        enough = len(times) >= MIN_CYCLES * len(workload.cycle) or not seconds
        if (busy >= seconds and at_boundary and enough) or time.perf_counter() > deadline:
            break
        kind = workload.kinds[job.kind]
        speed.append(calibrate(*probe))
        t0 = time.perf_counter()
        out = run_job(kind, lib, ctx, job)
        elapsed = time.perf_counter() - t0
        busy += elapsed
        times.append(1000 * elapsed)
        jobs.append((job.kind, job.rank, job.size))
        problem = verify(workload, lib, ctx, job, out, reference)
        if problem:
            failures.append({"job": job.index, "kind": job.kind, "problem": problem})
    print(
        json.dumps(
            {
                "times_ms": times,
                "calibration_ms": statistics.median(speed) if speed else None,
                "jobs": jobs,
                "failures": failures,
                "reference_checked": max(0, min(len(reference) - start, len(times))),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    )


def kind_medians(jobs, times) -> dict:
    by_kind = {}
    for (kind, _, _), t in zip(jobs, times):
        by_kind.setdefault(kind, []).append(t)
    return {kind: statistics.median(ts) for kind, ts in sorted(by_kind.items())}


def timing_metrics(times, setups) -> dict:
    return {
        "jobs_per_s": metric(1000 * len(times) / sum(times), "1/s"),
        "job_p50_ms": metric(statistics.median(times), "ms"),
        "job_p90_ms": metric(statistics.quantiles(times, n=10)[8], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, untraced, pooled over WORKERS fresh processes.

    Each worker continues the job stream where the previous one stopped,
    so the run sees the same inputs as one long loop.  Each worker's
    times are scaled by CALIBRATION_MS over the median of its own
    calibrate() timings, which removes most of the drift in machine
    speed between processes and over minutes; the raw figures stay in
    the result file.
    """
    env = environment()
    raw_setups, raw_times, setups, times = [], [], [], []
    jobs, failures, rss, calibration, checked = [], [], [], [], 0
    for _ in range(WORKERS):
        setup_s, report = spawn(workload.name, seed, len(times), seconds / WORKERS)
        scale = CALIBRATION_MS / report["calibration_ms"]
        raw_setups.append(setup_s)
        raw_times += report["times_ms"]
        setups.append(setup_s * scale)
        times += [t * scale for t in report["times_ms"]]
        calibration.append(report["calibration_ms"])
        jobs += report["jobs"]
        failures += report["failures"]
        rss.append(report["peak_rss_mib"])
        checked += report["reference_checked"]
    if len(times) < 100:
        print(f"perfbench: only {len(times)} jobs; p90 has fewer than 10 beyond it", file=sys.stderr)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "env": env,
        "inputs": input_stats(workload, jobs),
        "reference_checked": checked,
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            **timing_metrics(times, setups),
            "peak_rss_mib": metric(max(rss), "MiB"),
        },
        "extra": {
            "fail_frac": metric(len(failures) / len(times), "ratio"),
            "calibration_ms": calibration,
            "raw": timing_metrics(raw_times, raw_setups),
            "kind_p50_ms": kind_medians(jobs, times),
        },
    }


def run_pass(workload, jobs, api, ctx, tracer=None):
    """Run a fixed job list once; wall seconds and outputs."""
    outputs = []
    start = time.perf_counter()
    for job in jobs:
        kind = workload.kinds[job.kind]
        if tracer is None:
            outputs.append(run_job(kind, api, ctx, job))
        else:
            with tracer.job(job.index, job.kind):
                outputs.append(run_job(kind, api, ctx, job))
    return time.perf_counter() - start, outputs


def traced(workload, seed: int) -> dict:
    """The traced run: per-layer metrics from a fixed job list."""
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import HELPER_LAYERS

    env = environment()
    imports = [spawn(workload.name, seed, 0, 0)[1]["import_ms"] for _ in range(WORKERS)]
    lib = load_library()
    ctx = workload.warm_up(lib, seed)
    reference = load_reference(workload.name, seed)
    jobs = list(itertools.islice(workload.jobs(seed, lib, ctx), workload.trace_jobs))

    # Untraced passes before and after the traced one cancel a steady drift
    # in machine speed out of trace.overhead_frac.
    before_s, before_out = run_pass(workload, jobs, lib, ctx)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_out = run_pass(workload, jobs, tracer.api(lib, HELPER_LAYERS), ctx, tracer)
    finally:
        tracer.restore()
    after_s, after_out = run_pass(workload, jobs, lib, ctx)
    plain_s = (before_s + after_s) / 2

    failures, tallies = [], Counter()
    for job, out in itertools.chain(*(zip(jobs, o) for o in (before_out, traced_out, after_out))):
        problem = verify(workload, lib, ctx, job, out, reference)
        if problem:
            failures.append({"job": job.index, "kind": job.kind, "problem": problem})
    for job, out in zip(jobs, traced_out):
        tally = workload.kinds[job.kind].tally
        if tally and not isinstance(out, Exception):
            tallies.update(tally(job.args, out))

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    spans.write_text("".join(json.dumps(s) + "\n" for s in tracer.span_records()))
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "env": env,
        "inputs": input_stats(workload, [(j.kind, j.rank, j.size) for j in jobs]),
        "attempted": 3 * len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": layer_metrics(tracer, tallies, imports, traced_s, plain_s),
        "extra": {
            "self_ms": {layer: 1000 * s for layer, s in sorted(tracer.self_time.items())},
            "busy_ms": {layer: 1000 * s for layer, s in sorted(tracer.busy.items())},
            "spans": str(spans.relative_to(ROOT)),
        },
    }


def print_result(result: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"jobs {result['attempted']}  failed {result['failed']}"
    )
    rows = list(result["metrics"].items())
    rows += [(k, v) for k, v in result["extra"].items() if isinstance(v, dict) and "unit" in v]
    rows += [(f"{k} (raw wall time)", v) for k, v in result["extra"].get("raw", {}).items()]
    for name, m in rows:
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if result["trace"]:
        print(f"  {'layer self time':34s} {'self_ms':>14s} {'busy_ms':>14s}")
        for layer, s in result["extra"]["self_ms"].items():
            print(f"  {layer:34s} {s:14.3f} {result['extra']['busy_ms'].get(layer, 0):14.3f}")
    for f in result["failures"]:
        print(f"  FAILED job {f['job']} ({f['kind']}): {f['problem']}", file=sys.stderr)


def compare(old_path: str, new_path: str) -> None:
    """One row per workload and metric, with the ratio new/old; flags an
    end-to-end metric that got worse by more than its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old = {(r["workload"], r["trace"]): r for r in json.loads(Path(old_path).read_text())["runs"]}
    new = {(r["workload"], r["trace"]): r for r in json.loads(Path(new_path).read_text())["runs"]}
    print(f"{'workload':10s} {'metric':34s} {'old':>12s} {'new':>12s} {'new/old':>8s}")
    for key in sorted(old.keys() & new.keys()):
        for name, m in new[key]["metrics"].items():
            before = old[key]["metrics"].get(name, {}).get("value")
            if before is None:
                continue
            ratio = m["value"] / before if before else float("nan")
            flag = ""
            if name in bounds:
                lower = bounds[name]["better"] == "lower"
                worse = ratio - 1 if lower else 1 - ratio
                flag = "  WORSE beyond bound" if worse > bounds[name]["bound"] else ""
            print(f"{key[0]:10s} {name:34s} {before:12.6g} {m['value']:12.6g} {ratio:8.3f}{flag}")


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default under .perfbench/)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.worker:
        worker(workloads.WORKLOADS[args.workload], args.seed, args.start, args.seconds)
        return
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        w = workloads.WORKLOADS[name]
        result = traced(w, args.seed) if args.trace else measure(w, args.seed, args.seconds)
        print_result(result)
        runs.append(result)

    out = Path(args.out) if args.out else OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=1, default=str))
    print(f"result written to {out}")

    prefix = (lambda r, k: f"{r['workload']}.{k}") if len(runs) > 1 else (lambda r, k: k)
    failed = sum(r["failed"] for r in runs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": failed,
                "metrics": {prefix(r, k): v for r in runs for k, v in r["metrics"].items()},
            }
        )
    )


if __name__ == "__main__":
    main()
