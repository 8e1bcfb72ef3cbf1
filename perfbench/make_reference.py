"""Regenerate reference/<workload>.json: the output digest of each of the
first jobs of every reference seed, as the library computes them now.

    python3 perfbench/make_reference.py [--workload NAME]

Every output must pass the correctness check first.  Regenerate only
when the library's outputs are meant to change, and say why in
CHANGES.md: a changed digest is a changed answer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import run
import workloads

# Jobs per seed with a reference digest: what one run of BENCHMARK.json's
# length reaches today, with room to spare except for graphprod.  Later
# jobs are checked by the oracles and witness replays alone.
HORIZON = {"orbit": 300, "counting": 700, "witness": 350, "graphprod": 1500}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    lib = run.load_library()
    for name in [args.workload] if args.workload else sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        seeds = {}
        for seed in workloads.REFERENCE_SEEDS:
            ctx = workload.warm_up(lib, seed)
            digests = []
            for job in itertools.islice(workload.jobs(seed, lib, ctx), HORIZON[name]):
                out = run.run_job(workload.kinds[job.kind], lib, ctx, job)
                problem = run.verify(workload, lib, ctx, job, out, [])
                if problem:
                    sys.exit(f"{name} seed {seed} job {job.index}: {problem}")
                digests.append(run.digest(workload.kinds[job.kind].canon(job.args, out)))
            seeds[str(seed)] = " ".join(digests)
        path = run.REFERENCE / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"horizon": HORIZON[name], "seeds": seeds}, indent=1) + "\n")
        print(f"{path.relative_to(run.ROOT)}: {len(seeds)} seeds x {HORIZON[name]} jobs")


if __name__ == "__main__":
    main()
