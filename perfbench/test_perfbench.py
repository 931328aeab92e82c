"""Self-tests of the benchmark: generator determinism, output checks,
self-time arithmetic and how jobs are launched.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import Span, self_times  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    inputs.generate(workload, 7, str(tmp_path / "a"))
    inputs.generate(workload, 7, str(tmp_path / "b"))
    inputs.generate(workload, 8, str(tmp_path / "c"))
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


SIM_CSV = (
    "t,eta,s_v,s_c,varieties\n"
    "1,0.25,0.9876543210987654,0.7123456789012345,40\n"
    "2,0.125,0.9,0.7,39\n"
)


def _sim(text):
    return checks.compact("simulate", checks.parse("simulate", text.encode()))


def test_check_accepts_one_ulp_change_to_s_c():
    ref = _sim(SIM_CSV)
    s_c = 0.7123456789012345
    moved = SIM_CSV.replace(repr(s_c), repr(math.nextafter(s_c, 1.0)))
    assert moved != SIM_CSV
    assert checks.compare(ref, _sim(moved)) == []


def test_check_rejects_changed_varieties():
    ref = _sim(SIM_CSV)
    assert checks.compare(ref, _sim(SIM_CSV.replace(",39\n", ",38\n")))


def test_check_rejects_float_change_beyond_tolerance():
    ref = _sim(SIM_CSV)
    assert checks.compare(ref, _sim(SIM_CSV.replace("0.9,0.7,", "0.9,0.7000001,")))


def _ml_output(orders_weights):
    pairs = {"a,b": [0.5, 0.25, 0.25]}
    return json.dumps({"candidates": [
        {"order": o, "u_total": w / 10, "weighted": w, "log_likelihood": -w, "pairs": pairs}
        for o, w in orders_weights
    ]}).encode()


def test_check_rejects_reordered_ml_candidates():
    facts = {"labels": 2, "mode": "subbigraph"}
    ref, problems = checks.check("mlorder", _ml_output([("a>b", 1.0), ("b>a", 1.0)]), facts)
    assert problems == []
    ref = json.loads(json.dumps(ref))
    _, same = checks.check("mlorder", _ml_output([("a>b", 1.0), ("b>a", 1.0)]), facts, ref)
    _, swapped = checks.check("mlorder", _ml_output([("b>a", 1.0), ("a>b", 1.0)]), facts, ref)
    assert same == []
    assert swapped


def test_invariants_catch_shares_not_summing_to_one():
    out = {"stationary": {"x": "1/3", "y": "1/3"}, "entropy": 0.5, "order": "x=y"}
    assert checks.invariants("entropy-markov", out, {"policies": 2, "exact": True})


def test_ordered_bell_numbers():
    assert [checks.ordered_bell(n) for n in range(1, 8)] == [1, 3, 13, 75, 541, 4683, 47293]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, "cli.main", 0.0, 10.0, None, "j"),
        Span(1, "entropy.a", 1.0, 3.0, 0, "j"),
        Span(2, "entropy.b", 2.0, 4.0, 0, "j"),  # overlaps span 1: counted once
        Span(3, "core.c", 1.5, 2.0, 1, "j"),
        Span(4, "entropy.d", 9.0, 12.0, 0, "j"),  # clipped at the parent's end
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got[1] == pytest.approx(2.0 - 0.5)
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(0.5)


def test_tail_needs_ten_samples_beyond_it():
    assert layers.tail(list(range(20))) is None
    assert layers.tail(list(range(100))) == (90.0, 89)
    assert layers.tail(list(range(1000))) == (99.0, 989)


def test_jobs_launch_as_module_with_src_on_pythonpath(tmp_path):
    cmd = jobs.cli_command(("count-orders", "3"))
    assert cmd[:3] == [sys.executable, "-m", "preflattice.cli"]
    env = jobs.child_env(ROOT)
    assert env["PYTHONPATH"].split(os.pathsep)[0] == os.path.join(ROOT, "src")
    job = jobs.Job("count", ("count-orders", "3"), "none")
    r = jobs.run_job(job, ROOT, str(tmp_path))
    assert (r.returncode, r.stdout.strip(), r.timed_out) == (0, b"13", False)
    assert r.wall_s > 0 and r.maxrss_kb > 0
