"""Regenerate the stored references in refs/ for the default seed.

    python3 perfbench/make_refs.py [workload ...]

Run from the root of a checkout whose outputs are known good. Each job runs
once through the CLI; its output must pass the reference-free invariants
before its compact form is stored.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(argv) -> int:
    root = os.getcwd()
    work = os.path.join(HERE, "_work", f"refs-{os.getpid()}")
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    status = 0
    try:
        for workload in argv or WORKLOADS:
            info = inputs.generate(workload, DEFAULT_SEED, os.path.join(work, workload))
            stored = {}
            for job in jobs.workload_jobs(workload, info):
                r = jobs.run_job(job, root, work)
                form, problems = checks.check(job.kind, r.stdout, job.facts)
                if r.returncode != 0 or problems:
                    print(f"{workload}/{job.name}: exit {r.returncode} {problems[:3]}",
                          file=sys.stderr)
                    status = 1
                    continue
                stored[job.name] = form
            path = os.path.join(HERE, "refs", f"{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"seed": DEFAULT_SEED, "jobs": stored}, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(f"{workload}: {len(stored)} references, digest {checks.digest(stored)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
