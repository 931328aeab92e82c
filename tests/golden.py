"""Golden byte-identity check of the command line.

Runs ``preflattice.cli.main`` in process on every job of the benchmark's
four workloads (inputs from ``perfbench/inputs.py``, job lists from
``perfbench/jobs.py``, both used unchanged) and on the README calls: the
library quick start, one example per subcommand and the documented error
cases. Each case's exit code and the sha256 of its stdout and stderr are
compared with ``tests/golden.json``.

    PYTHONPATH=src python3 tests/golden.py --check    # seeds 0-3
    PYTHONPATH=src python3 tests/golden.py --write

A change that moves output on purpose rewrites the file with ``--write``
and names every moved case. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
SEEDS = (0, 1, 2, 3)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402
import jobs  # noqa: E402
from run import WORKLOADS  # noqa: E402

PROFILE = {  # the quick start's electorate
    "policies": ["w", "x", "y", "z"],
    "voters": [
        {"id": "v1", "ranking": [["w"], ["x"], ["y"], ["z"]]},
        {"id": "v2", "ranking": [["w"], ["x"], ["y"], ["z"]]},
        {"id": "v3", "ranking": [["y"], ["z"], ["x"], ["w"]]},
    ],
}
COMPARISONS = "i,j,outcome\na,b,>\na,b,>\na,b,=\nb,c,>\nb,c,<\nb,c,>\na,c,=\na,c,>\n"
POSET = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["a", "c"], ["c", "d"]]}
TAKE_GRANT = {
    "vertices": [{"id": "s1", "kind": "subject"}, {"id": "o1", "kind": "object"}],
    "edges": [{"from": "s1", "to": "o1", "label": "take"}],
}
SIM_CONFIG = {
    "n_features": 5, "traits_per_feature": 10,
    "topology": {"kind": "square", "rows": 10, "cols": 10},
    "behavior": "Egoistic", "seed": 0,
    "stasis_window": 25, "max_periods": 1000,
}
EVENTS = ("t,subscriber,thread,kind,parent\n1,alice,m1,initiate,\n2,bob,m1,followup,1\n"
          "3,alice,m1,ack,2\n4,carol,m2,initiate,\n5,alice,m2,followup,4\n"
          "6,carol,m2,ack,5\n7,bob,m3,initiate,\n")
INTERESTS = {"threads": {"m1": "a", "m2": "b", "m3": "a"}, "interests": ["a", "b"]}
MANY_POLICIES = {"policies": [f"p{i}" for i in range(101)],
                 "voters": [{"id": "v", "ranking": [[f"p{i}" for i in range(101)]]}]}
ONE_CELL = {**SIM_CONFIG, "topology": {"kind": "square", "rows": 1, "cols": 1}}

FILES = {
    "profile.json": PROFILE, "comparisons.csv": COMPARISONS, "poset.json": POSET,
    "tg.json": TAKE_GRANT, "config.json": SIM_CONFIG, "events.csv": EVENTS,
    "interests.json": INTERESTS, "many.json": MANY_POLICIES, "one-cell.json": ONE_CELL,
}

# (case name, CLI arguments); "@name" stands for the path of FILES[name]
README_CALLS = (
    ("count-orders", ("count-orders", "4")),
    ("enumerate-orders", ("enumerate-orders", "A", "B", "C")),
    ("entropy-topo", ("entropy", "--mode", "topo", "@profile.json")),
    ("entropy-markov", ("entropy", "--mode", "markov", "@profile.json")),
    ("aggregate", ("aggregate", "@profile.json")),
    ("borda", ("borda", "@profile.json")),
    ("borda-averaged", ("borda", "--averaged", "@profile.json")),
    ("mlorder", ("mlorder", "@comparisons.csv")),
    ("mlorder-all-weak", ("mlorder", "@comparisons.csv", "--mode", "all-weak")),
    ("antichain", ("antichain", "@poset.json")),
    ("tg-check", ("tg-check", "@tg.json", "--from", "s1", "--to", "o1")),
    ("simulate", ("simulate", "@config.json")),
    ("scenario-newsgroup", ("scenario-newsgroup", "@events.csv", "--interests", "@interests.json")),
    ("error-ambiguous-label", ("enumerate-orders", "a>b", "c")),
    ("error-count-cap", ("count-orders", "1001")),
    ("error-markov-cap", ("entropy", "--mode", "markov", "@many.json")),
    ("error-simulate-config", ("simulate", "@one-cell.json")),
)


def _digest(rc, out: bytes, err: bytes) -> dict:
    return {"rc": rc, "stdout": hashlib.sha256(out).hexdigest(),
            "stderr": hashlib.sha256(err).hexdigest()}


def run_cli(args) -> dict:
    """cli.main in process, with the enumeration-cap variable unset."""
    from preflattice import cli

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("PREFLATTICE_MAX_VERTICES", None)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(args))
    finally:
        if saved is not None:
            os.environ["PREFLATTICE_MAX_VERTICES"] = saved
    return _digest(rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))


def quick_start() -> dict:
    """The README's library quick start, run as printed there."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    return _digest(0, out.getvalue().encode("utf-8"), b"")


def cases(seeds, work_dir) -> dict:
    """Case name -> digest, for the given benchmark seeds and the README calls."""
    found = {"readme/quick-start": quick_start()}
    for name, obj in FILES.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    for name, args in README_CALLS:
        args = [os.path.join(work_dir, a[1:]) if a.startswith("@") else a for a in args]
        found[f"readme/{name}"] = run_cli(args)
    for seed in seeds:
        for workload in WORKLOADS:
            info = inputs.generate(workload, seed, os.path.join(work_dir, f"{workload}-{seed}"))
            for job in jobs.workload_jobs(workload, info):
                found[f"{workload}/{seed}/{job.name}"] = run_cli(job.args)
    return found


def check(seeds=SEEDS) -> list:
    """The cases whose digest differs from the golden file's, or that one
    of the two lacks, for the given seeds and the README calls."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    wanted = {name: d for name, d in golden.items()
              if name.startswith("readme/") or int(name.split("/")[1]) in seeds}
    with tempfile.TemporaryDirectory() as work_dir:
        found = cases(seeds, work_dir)
    return sorted(name for name in wanted.keys() | found.keys()
                  if wanted.get(name) != found.get(name))


def write() -> int:
    with tempfile.TemporaryDirectory() as work_dir:
        found = cases(SEEDS, work_dir)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(found, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return len(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with golden.json")
    mode.add_argument("--write", action="store_true", help="rewrite golden.json (all seeds)")
    args = parser.parse_args(argv)
    if args.write:
        print(f"wrote {write()} cases to {os.path.relpath(GOLDEN)}")
        return 0
    moved = check(SEEDS)
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(moved)} case(s) moved" if moved else "all cases match")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
