"""The CLI jobs of each workload and the launcher that times them.

Every job is one ``python -m preflattice.cli`` child with ``PYTHONPATH``
pointing at the checkout's ``src``, so the benchmark needs no installed
console script. Children run one at a time from this process; the machine
the workloads were sized on has two cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

JOB_TIMEOUT_S = 60.0  # the slowest job takes about 4 s; a run must end within 180 s


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple  # CLI arguments after ``python -m preflattice.cli``
    kind: str  # output format, selects the parser and checks in checks.py
    facts: dict = field(default_factory=dict)  # expected sizes for the checks


@dataclass(frozen=True)
class JobResult:
    job: Job
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int  # negative when killed by a signal
    timed_out: bool
    stdout: bytes
    stderr: bytes


def workload_jobs(workload: str, info: dict) -> list:
    """The ordered job list of a workload, over files written by
    inputs.generate."""
    if workload in ("culture-grid", "culture-ring"):
        return [Job("simulate", ("simulate", info["config"]), "simulate",
                    {"periods": info["periods"], "agents": info["agents"]})]
    if workload == "newsgroup":
        return [Job(
            "scenario-newsgroup",
            ("scenario-newsgroup", info["events"], "--interests", info["interests"],
             "--grants", info["grants"]),
            "newsgroup",
            {"events": info["n_events"], "interests": info["n_interests"]},
        )]
    if workload != "choice":
        raise ValueError(f"unknown workload {workload!r}")
    k, kx, kc = info["k"], info["k_exact"], info["k_consensus"]
    jobs = []
    for tag, size in (("distinct", k), ("repeated", k)):
        jobs.append(Job(f"entropy-topo-{tag}", ("entropy", "--mode", "topo", info[tag]),
                        "entropy-topo", {"policies": size}))
        jobs.append(Job(f"entropy-markov-{tag}", ("entropy", "--mode", "markov", info[tag]),
                        "entropy-markov", {"policies": size, "exact": False}))
    jobs.append(Job("entropy-markov-exact", ("entropy", "--mode", "markov", info["exact"]),
                    "entropy-markov", {"policies": kx, "exact": True}))
    jobs.append(Job("entropy-topo-consensus", ("entropy", "--mode", "topo", info["consensus"]),
                    "entropy-topo", {"policies": kc}))
    jobs.append(Job("aggregate", ("aggregate", info["distinct"]), "aggregate",
                    {"policies": k, "voters": info["voters"]}))
    jobs.append(Job("borda-averaged", ("borda", "--averaged", info["distinct"]), "borda",
                    {"policies": k}))
    jobs.append(Job("mlorder-subbigraph",
                    ("mlorder", info["comparisons"], "--mode", "subbigraph"),
                    "mlorder", {"labels": info["ml_labels"], "mode": "subbigraph"}))
    jobs.append(Job("mlorder-all-weak",
                    ("mlorder", info["comparisons"], "--mode", "all-weak"),
                    "mlorder", {"labels": info["ml_labels"], "mode": "all-weak"}))
    jobs.append(Job("antichain", ("antichain", info["poset"]), "antichain",
                    {"elements": info["poset_size"]}))
    jobs.append(Job("tg-check",
                    ("tg-check", info["tg"], "--from", info["tg_from"], "--to", info["tg_to"]),
                    "tg-check", {"from": info["tg_from"], "to": info["tg_to"]}))
    jobs.append(Job("enumerate-orders", ("enumerate-orders", *info["enum_labels"]),
                    "enumerate-orders", {"labels": len(info["enum_labels"])}))
    return jobs


def child_env(root: str) -> dict:
    """The caller's environment with the checkout's src first on
    PYTHONPATH. Bytecode caching is left on, as for an installed package,
    so start-up time does not depend on whether the caller disabled it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(args) -> list:
    return [sys.executable, "-m", "preflattice.cli", *args]


def launch(argv, root: str, out_path: str, err_path: str, timeout=JOB_TIMEOUT_S):
    """Run argv from root with stdout and stderr sent to files; return
    (wall_s, cpu_s, maxrss_kb, returncode, timed_out). The child is reaped
    with wait4 so its own resource usage is read, and killed if it
    outlives the timeout."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode, killed.is_set())


def run_job(job: Job, root: str, scratch: str) -> JobResult:
    out_path = os.path.join(scratch, f"{job.name}.out")
    err_path = os.path.join(scratch, f"{job.name}.err")
    wall, cpu, rss, rc, timed_out = launch(cli_command(job.args), root, out_path, err_path)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return JobResult(job, wall, cpu, rss, rc, timed_out, stdout, stderr)
