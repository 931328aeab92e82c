"""preflattice benchmark: four seeded workloads through the real CLI.

    python3 perfbench/run.py --workload culture-ring --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. With ``--trace 0`` every job is its own
``python -m preflattice.cli`` child, run one at a time; passes over the
workload's job list repeat until ``--seconds`` is used up, every output is
checked, and the end-to-end metrics are medians over passes. With
``--trace 1`` the jobs are replayed in process with spans around the calls
into each layer (see spans.py), once per workload and repeatedly for the
named one, and the per-layer metrics of all four workloads are reported.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402

# The reasons for each workload are in BENCHMARK.json and README.md.
WORKLOADS = ("culture-grid", "culture-ring", "choice", "newsgroup")
DEFAULT_SEED = 0  # the seed whose outputs are stored in refs/
MIN_PASSES = 3
SETUP_PER_PASS = 3
SETUP_ARGS = ("-c", "import preflattice.cli")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_refs(workload: str, seed: int):
    """Stored compact outputs for the default seed ({} when none are stored,
    so every job fails its reference check); None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(os.path.join(HERE, "refs", f"{workload}.json"), encoding="utf-8") as fh:
            return json.load(fh)["jobs"]
    except FileNotFoundError:
        return {}


class Verifier:
    """Checks each job's first output in full (invariants, and references
    on the default seed); later passes must reproduce it byte for byte,
    as the CLI promises for identical inputs."""

    def __init__(self, refs):
        self.refs = refs
        self.first = {}  # job name -> (sha of stdout, problems of the first check)
        self.compacts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def __call__(self, job, rc, stdout, stderr=b"", timed_out=False) -> bool:
        self.attempted += 1
        bad = []
        if timed_out:
            bad.append("timed out")
        elif rc != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            bad.append(f"exit {rc} {tail}")
        elif job.name not in self.first:
            ref = self.refs.get(job.name) if self.refs is not None else None
            if self.refs is not None and ref is None:
                bad.append("no stored reference")
            form, issues = checks.check(job.kind, stdout, job.facts, ref)
            self.compacts[job.name] = form
            self.first[job.name] = (_sha(stdout), issues)
            bad += issues
        else:
            sha, issues = self.first[job.name]
            if _sha(stdout) != sha:
                bad.append("output differs from the first pass")
            bad += issues
        if bad:
            self.failed += 1
            self.problems.append(f"{job.name}: {'; '.join(bad)}")
        return not bad


def work_units(workload, info, job_list):
    """(unit name, amount, job names whose wall time it is divided by)."""
    if workload in ("culture-grid", "culture-ring"):
        return "periods_per_s", info["periods"], {"simulate"}
    if workload == "newsgroup":
        return "events_per_s", info["n_events"], {"scenario-newsgroup"}
    return "jobs_per_s", len(job_list), {j.name for j in job_list}


def describe(samples, unit):
    t = layers.tail(samples)
    tail = f"p{t[0]:g}={t[1]:.6g}" if t else "no tail (too few samples)"
    return f"median={statistics.median(samples):.6g} {unit} {tail} n={len(samples)}"


def measured_run(workload, seed, seconds, root, work):
    info = inputs.generate(workload, seed, os.path.join(work, "inputs"))
    job_list = jobs.workload_jobs(workload, info)
    verify = Verifier(load_refs(workload, seed))
    unit_name, units, unit_jobs = work_units(workload, info, job_list)
    setup_cmd = [sys.executable, *SETUP_ARGS]
    null = os.path.join(work, "setup.out")

    jobs.launch(setup_cmd, root, null, null)  # compile bytecode, warm the file cache
    setup, passes = [], []
    t0 = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_PASS):
            wall, _, _, rc, _ = jobs.launch(setup_cmd, root, null, null)
            if rc != 0:
                raise SystemExit(f"perfbench: importing preflattice.cli failed (exit {rc})")
            setup.append(wall)
        results = [jobs.run_job(j, root, work) for j in job_list]
        for r in results:
            verify(r.job, r.returncode, r.stdout, r.stderr, r.timed_out)
        passes.append(results)
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break

    # Sums of per-job medians: one slow pass of one job moves them less
    # than a median of per-pass sums would.
    job_walls = {j.name: [r.wall_s for p in passes for r in p if r.job is j] for j in job_list}
    job_median = {name: statistics.median(w) for name, w in job_walls.items()}
    wall = sum(job_median.values())
    rate = units / sum(job_median[name] for name in unit_jobs)
    rss = [max(r.maxrss_kb for r in p) / 1024 for p in passes]
    fail_ratio = verify.failed / verify.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (rate, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
    }

    out_path = os.path.join(HERE, "_work", f"outputs-{workload}-s{seed}.json")
    dig = checks.digest(verify.compacts)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"digest": dig, "jobs": verify.compacts}, fh, sort_keys=True)
    print(f"perfbench {workload} seed={seed} passes={len(passes)} digest={dig}")
    print(f"  setup_s      {describe(setup, 's')}")
    print(f"  wall_s       {wall:.6g} s (sum of per-job medians)")
    print(f"  work_per_s   {rate:.6g} 1/s ({unit_name})")
    print(f"  peak_rss_mb  {describe(rss, 'MB')}")
    print(f"  fail_ratio   {fail_ratio:.6g} ratio ({verify.failed} of {verify.attempted} jobs)")
    for name, walls in job_walls.items():
        print(f"  job {name:24s} {describe(walls, 's')}")
    for msg in verify.problems[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    return verify, metrics


def traced_run(workload, seed, seconds, root, work):
    # Imported here, not at the top: spans imports numpy, and a child's
    # max RSS counts the parent's pages it started from, so the measuring
    # process must stay smaller than the smallest job.
    import spans

    sys.path.insert(0, os.path.join(root, "src"))
    order = [w for w in WORKLOADS if w != workload] + [workload]
    metrics, all_spans, verifiers = {}, [], []
    t0 = time.perf_counter()
    for w in order:
        info = inputs.generate(w, seed, os.path.join(work, w))
        job_list = jobs.workload_jobs(w, info)
        verify = Verifier(load_refs(w, seed))
        verifiers.append(verify)
        passes = []
        while True:
            # Each job runs untraced and then traced, back to back, so the
            # overhead compares the two under the same machine load.
            tracer = spans.Tracer()
            untraced_s = 0.0
            for job in job_list:
                _, plain, wall, _ = spans.call_cli(job.args)
                untraced_s += wall
                with spans.instrumented(tracer) as missing:
                    rc, out, _, _ = spans.traced_call(tracer, job)
                if verify(job, rc, out) and out != plain:
                    verify.failed += 1
                    verify.problems.append(f"{job.name}: output changes under tracing")
            passes.append(layers.PassTrace(
                tracer.spans, spans.self_times(tracer.spans), untraced_s))
            all_spans.append((w, len(passes) - 1, tracer.spans))
            if w != workload or time.perf_counter() - t0 >= seconds:
                break
        for name in missing:
            print(f"perfbench: {name} not found, its span is missing", file=sys.stderr)
        metrics.update(layers.layer_metrics(w, passes))
        untraced = [p.untraced_s for p in passes]
        print(f"perfbench trace {w} seed={seed} passes={len(passes)} "
              f"untraced={statistics.median(untraced):.4f}s")
        for name, share in layers.shares(w, passes).items():
            print(f"  share {name} = {share:.3f}")
        for name, _ in layers.names(w):
            unit, value, samples = metrics[name]
            line = describe(samples, unit) if unit == "ms" and samples else f"{value:.6g} {unit}"
            print(f"  {name:58s} {line}")

    trace_path = os.path.join(HERE, "_work", f"trace-{workload}-s{seed}.jsonl")
    spans.write_jsonl(trace_path, all_spans)
    print(f"perfbench: spans written to {os.path.relpath(trace_path, root)}")

    merged = Verifier(None)
    for v in verifiers:
        merged.attempted += v.attempted
        merged.failed += v.failed
        merged.problems += v.problems
    for msg in merged.problems[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    return merged, {name: (value, unit) for name, (unit, value, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "preflattice", "cli.py")):
        print(f"perfbench: no src/preflattice/cli.py under {root}; "
              "run from the root of a preflattice checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        run = traced_run if args.trace else measured_run
        verify, metrics = run(args.workload, args.seed, args.seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
