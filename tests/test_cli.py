import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from preflattice import cli
from preflattice.cli import main
from worked_example import (
    BORDA4,
    BORDA4_SHANNON,
    PARADOX,
    PARADOX_TOPO_ENTROPY,
    WORKED_COUNTS,
    WORKED_TOTALS,
)


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_worked_csv(path):
    lines = ["i,j,outcome"]
    for (a, b), (s_ab, s_ba, ties) in sorted(WORKED_COUNTS.items()):
        lines.extend([f"{a},{b},>"] * s_ab)
        lines.extend([f"{a},{b},<"] * s_ba)
        lines.extend([f"{a},{b},="] * ties)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


SIM_CONFIG = {
    "n_features": 4,
    "traits_per_feature": 2,
    "topology": {"kind": "square", "rows": 4, "cols": 4},
    "behavior": "Egoistic",
    "seed": 7,
    "stasis_window": 10,
    "max_periods": 40,
}


def test_count_orders(capsys):
    rc, out, _ = run_cli(["count-orders", "4"], capsys)
    assert rc == 0
    assert out == "75\n"


def test_count_orders_rejects_nonpositive(capsys):
    rc, _, err = run_cli(["count-orders", "0"], capsys)
    assert rc == 2
    record = json.loads(err)
    assert record["error"] == "InputError"


def test_count_orders_refuses_past_the_cap_before_computing(capsys):
    rc, out, err = run_cli(["count-orders", "1600"], capsys)
    assert rc == 3
    assert out == ""
    assert json.loads(err)["error"] == "CapExceeded"


def test_enumerate_orders(capsys):
    rc, out, _ = run_cli(["enumerate-orders", "a", "b"], capsys)
    assert rc == 0
    assert set(out.splitlines()) == {"a>b", "b>a", "a=b"}


def test_enumerate_orders_cap(capsys):
    labels = list("abcdefgh")
    rc, _, err = run_cli(["enumerate-orders"] + labels, capsys)
    assert rc == 3
    assert json.loads(err)["error"] == "CapExceeded"


def test_entropy_topo(tmp_path, capsys):
    path = write_json(tmp_path / "paradox.json", PARADOX)
    rc, out, _ = run_cli(["entropy", "--mode", "topo", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["base"] == 3
    assert data["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert data["entropy"] == pytest.approx(PARADOX_TOPO_ENTROPY, abs=1e-9)


def test_entropy_markov(tmp_path, capsys):
    path = write_json(tmp_path / "borda4.json", BORDA4)
    rc, out, _ = run_cli(["entropy", "--mode", "markov", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["stationary"] == {"w": "12/23", "x": "6/23", "y": "3/23", "z": "2/23"}
    assert data["entropy"] == pytest.approx(BORDA4_SHANNON, rel=1e-12)
    assert data["order"] == "w>x>y>z"


def test_aggregate(tmp_path, capsys):
    path = write_json(tmp_path / "borda4.json", BORDA4)
    rc, out, _ = run_cli(["aggregate", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["n_voters"] == 3
    assert data["unanimities"] == [{"pair": ["y", "z"], "class": "simple"}]
    assert data["sources"] == [] and data["sinks"] == []
    assert data["cycles"] == []
    blocks = data["condensed"]["blocks"]
    assert blocks[2] == {"members": ["y", "z"], "rule": "simple-unanimity"}
    assert sorted(data["condensed"]["edges"]) == [[0, 1], [0, 2], [1, 2]]


def test_aggregate_paradox_cycle(tmp_path, capsys):
    path = write_json(tmp_path / "paradox.json", PARADOX)
    rc, out, _ = run_cli(["aggregate", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["unanimities"] == []
    assert len(data["cycles"]) == 1
    assert data["cycles"][0]["kind"] == "complete"
    assert sorted(data["cycles"][0]["members"]) == ["x", "y", "z"]


def test_borda(tmp_path, capsys):
    path = write_json(tmp_path / "borda4.json", BORDA4)
    rc, out, _ = run_cli(["borda", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["scores"] == {"w": 9, "x": 8, "y": 8, "z": 5}
    assert data["ranking"] == "w>x=y>z"


def test_borda_averaged(tmp_path, capsys):
    profile = {
        "policies": ["a", "b", "c"],
        "voters": [{"id": "v", "ranking": [["a", "b"], ["c"]]}],
    }
    path = write_json(tmp_path / "tied.json", profile)
    rc, out, _ = run_cli(["borda", path, "--averaged"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["scores"] == {"a": "5/2", "b": "5/2", "c": 1}
    assert data["ranking"] == "a=b>c"


def test_mlorder_subbigraph(tmp_path, capsys):
    path = write_worked_csv(tmp_path / "worked.csv")
    rc, out, _ = run_cli(["mlorder", path], capsys)
    assert rc == 0
    data = json.loads(out)
    candidates = data["candidates"]
    assert len(candidates) == 6
    assert candidates[0]["order"] == "1=4>2=3"
    assert candidates[0]["u_total"] == pytest.approx(
        WORKED_TOTALS["1=4>2=3"], rel=1e-12
    )
    assert candidates[0]["weighted"] == pytest.approx(
        6 * WORKED_TOTALS["1=4>2=3"], rel=1e-12
    )
    assert candidates[0]["log_likelihood"] == -candidates[0]["weighted"]
    totals = [c["u_total"] for c in candidates]
    assert totals == sorted(totals)
    probs = candidates[0]["pairs"]["1,2"]
    assert len(probs) == 3
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_mlorder_explicit_candidates(tmp_path, capsys):
    csv_path = write_worked_csv(tmp_path / "worked.csv")
    cand_path = write_json(
        tmp_path / "cands.json",
        [[["1", "4"], ["2", "3"]], [["1"], ["3", "4"], ["2"]]],
    )
    rc, out, _ = run_cli(["mlorder", csv_path, "--candidates", cand_path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert len(data["candidates"]) == 2
    assert data["candidates"][0]["order"] == "1=4>2=3"


def test_mlorder_all_weak(tmp_path, capsys):
    path = tmp_path / "small.csv"
    path.write_text("a,b,>\na,c,>\nb,c,=\n", encoding="utf-8")
    rc, out, _ = run_cli(["mlorder", str(path), "--mode", "all-weak"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert len(data["candidates"]) == 13


def test_antichain(tmp_path, capsys):
    path = write_json(
        tmp_path / "poset.json",
        {
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
        },
    )
    rc, out, _ = run_cli(["antichain", path], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["size"] == 2
    assert sorted(data["antichain"]) == ["b", "c"]
    assert len(data["chains"]) == 2


def test_antichain_rejects_malformed(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"vertices": ["a"]})
    rc, _, err = run_cli(["antichain", path], capsys)
    assert rc == 2
    assert json.loads(err)["error"] == "InputError"


TG_GRAPH = {
    "vertices": [
        {"id": "s1", "kind": "subject"},
        {"id": "o1", "kind": "object"},
        {"id": "s2", "kind": "subject"},
        {"id": "o2", "kind": "object"},
    ],
    "edges": [
        {"from": "s1", "to": "o1", "label": "take"},
        {"from": "s2", "to": "o1", "label": "grant"},
        {"from": "s2", "to": "o2", "label": "read"},
    ],
}


def test_tg_check(tmp_path, capsys):
    path = write_json(tmp_path / "tg.json", TG_GRAPH)
    rc, out, _ = run_cli(["tg-check", path, "--from", "s1", "--to", "s2"], capsys)
    assert rc == 0
    assert json.loads(out) == {"connected": True, "path": ["s1", "o1", "s2"]}
    rc, out, _ = run_cli(["tg-check", path, "--from", "s1", "--to", "o2"], capsys)
    assert rc == 0
    assert json.loads(out) == {"connected": False, "path": None}


def test_missing_file_exits_two(capsys):
    rc, _, err = run_cli(["entropy", "/nonexistent/profile.json"], capsys)
    assert rc == 2
    record = json.loads(err)
    assert record["error"] == "FileNotFoundError"


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    rc, _, err = run_cli(["entropy", str(path)], capsys)
    assert rc == 2
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_undecodable_file_exits_two(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    rc, out, err = run_cli(["entropy", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "UnicodeDecodeError"


def test_usage_error_exits_two(capsys):
    rc, _, _ = run_cli(["count-orders"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["count-orders"], ["count-orders", "x"], ["frobnicate"], [],
    ["simulate", "c.json", "--replicates", "two"],
])
def test_usage_error_is_one_json_line(capsys, argv):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("profile", [
    {"policies": [1, 2], "voters": [{"id": "v", "ranking": [[1], [2]]}]},
    {"policies": ["a", "b"], "voters": [{"id": "v", "ranking": "ab"}]},
    {"policies": ["a", "b"], "voters": [{"id": "v", "ranking": [["a"], "b"]}]},
    {"policies": "ab", "voters": [{"id": "v", "ranking": [["a"], ["b"]]}]},
    {"policies": ["a", "b"], "voters": [{"id": ["v"], "ranking": [["a"], ["b"]]}]},
], ids=["numeric-labels", "string-ranking", "string-group", "string-policies", "list-id"])
@pytest.mark.parametrize("command", [["aggregate"], ["borda"], ["entropy", "--mode", "markov"]])
def test_profile_commands_reject_non_string_labels(tmp_path, capsys, profile, command):
    path = write_json(tmp_path / "profile.json", profile)
    rc, out, err = run_cli([*command, path], capsys)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "InputError"


def test_simulate_deterministic(tmp_path, capsys):
    path = write_json(tmp_path / "config.json", SIM_CONFIG)
    rc, first, _ = run_cli(["simulate", path], capsys)
    assert rc == 0
    rc, second, _ = run_cli(["simulate", path], capsys)
    assert rc == 0
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "t,eta,s_v,s_c,varieties"
    assert len(lines) > 1


def test_simulate_replicates_and_report(tmp_path, capsys):
    path = write_json(tmp_path / "config.json", SIM_CONFIG)
    report = tmp_path / "report.json"
    rc, out, _ = run_cli(
        ["simulate", path, "--replicates", "2", "--report", str(report)], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "seed,t,eta,s_v,s_c,varieties"
    last_row = {}  # seed -> its last CSV row
    for line in lines[1:]:
        last_row[line.split(",")[0]] = line.split(",")
    assert set(last_row) == {"7", "8"}
    summary = json.loads(report.read_text(encoding="utf-8"))
    assert [r["seed"] for r in summary["runs"]] == [7, 8]
    for r in summary["runs"]:
        assert r["status"] in ("static", "limit")
        assert r["periods"] >= 1
        assert r["varieties"] >= 1
        assert r["interactions"] + sum(r["rejections"].values()) == r["selections"]
        # the report's final figures are those of the seed's last CSV row
        row = last_row[str(r["seed"])]
        assert (r["periods"], r["varieties"]) == (int(row[1]), int(row[-1]))


def test_simulate_snapshots(tmp_path, capsys):
    path = write_json(tmp_path / "config.json", SIM_CONFIG)
    snap_dir = tmp_path / "snaps"
    rc, _, _ = run_cli(
        [
            "simulate", path,
            "--snapshot-every", "5",
            "--snapshot-dir", str(snap_dir),
        ],
        capsys,
    )
    assert rc == 0
    files = sorted(snap_dir.glob("snapshot_7_*.csv"))
    assert files
    header = files[0].read_text(encoding="utf-8").splitlines()[0]
    assert header == "x,y,h,hhat,variety_id"


@pytest.mark.parametrize("case", ["snapshot-dir-under-a-file", "snapshot-name-taken",
                                  "report-is-a-directory"])
def test_simulate_fails_before_any_output(tmp_path, capsys, case):
    path = write_json(tmp_path / "config.json", SIM_CONFIG)
    snap_dir = tmp_path / "snaps"
    argv = ["simulate", path, "--replicates", "2",
            "--snapshot-every", "5", "--snapshot-dir", str(snap_dir)]
    if case == "snapshot-dir-under-a-file":
        argv[-1] = os.path.join(path, "snaps")
    elif case == "snapshot-name-taken":
        # the second replicate's first snapshot, after the first one's rows
        (snap_dir / "snapshot_8_000005.csv").mkdir(parents=True)
    else:
        argv += ["--report", str(tmp_path)]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert set(json.loads(err)) == {"error", "message"}


def sim_config(**overrides):
    return {**SIM_CONFIG, **overrides}


@pytest.mark.parametrize("config, extra", [
    (sim_config(n_features="3"), []),
    (sim_config(topology={"kind": "square", "rows": 4}), []),
    (sim_config(topology={"kind": "square", "rows": 2.7, "cols": 3}), []),
    (sim_config(topology={"kind": "square", "rows": 1, "cols": 1}), []),
    (sim_config(topology={"kind": "subset-tree", "features": 1}), []),
    (sim_config(topology={"kind": "square", "rows": 0, "cols": 10**12}), []),
    (sim_config(selections_per_period=-5), []),
    (SIM_CONFIG, ["--replicates", "0"]),
    (SIM_CONFIG, ["--snapshot-every", "-1"]),
    (sim_config(k=float("nan")), []),
    (sim_config(k=float("inf")), []),
], ids=["string-features", "missing-cols", "fractional-rows", "lone-agent-square",
        "lone-agent-subset-tree", "empty-square-past-the-cap", "negative-selections",
        "zero-replicates", "negative-snapshot-every", "nan-k", "infinite-k"])
def test_simulate_rejects_bad_input(tmp_path, capsys, config, extra):
    path = write_json(tmp_path / "config.json", config)
    rc, out, err = run_cli(["simulate", path, *extra], capsys)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("topology", [
    {"kind": "square", "rows": 100_000, "cols": 100_000},
    {"kind": "subset-tree", "features": 20},
    {"kind": "mobian-circle", "agents": 1_000_001, "turn": 3},
], ids=["square", "subset-tree", "mobian-circle"])
def test_simulate_refuses_topologies_past_the_agent_cap(tmp_path, capsys, monkeypatch, topology):
    # the enumeration-cap variable does not lift the agent cap
    monkeypatch.setenv("PREFLATTICE_MAX_VERTICES", "10000000000")
    path = write_json(tmp_path / "config.json", sim_config(topology=topology))
    start = time.perf_counter()
    rc, out, err = run_cli(["simulate", path], capsys)
    assert time.perf_counter() - start < 1
    assert rc == 3
    assert out == ""
    assert json.loads(err)["error"] == "CapExceeded"


@pytest.mark.parametrize("text, error", [
    ("[" * 100_000 + "]" * 100_000, "InputError"),
    ("-" + "9" * 5000, "InputError"),
    ('{"policies": [', "JSONDecodeError"),
], ids=["deep-nesting", "long-integer", "truncated"])
def test_unreadable_json_exits_2_with_one_record(tmp_path, capsys, text, error):
    path = tmp_path / "profile.json"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run_cli(["aggregate", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == error


SCENARIO_EVENTS = """t,subscriber,thread,kind,parent
1,alice,m1,initiate,
2,bob,m1,followup,1
3,alice,m1,ack,2
4,carol,m2,initiate,
5,alice,m2,followup,4
6,carol,m2,ack,5
7,bob,m3,initiate,
"""


def test_scenario_newsgroup(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(SCENARIO_EVENTS, encoding="utf-8")
    interests = write_json(
        tmp_path / "interests.json",
        {"threads": {"m1": "a", "m2": "b", "m3": "c"}, "interests": ["a", "b", "c"]},
    )
    grants = write_json(
        tmp_path / "grants.json", [["u1", "C"], ["u1", "D"], ["u2", "C"]]
    )
    rc, out, _ = run_cli(
        [
            "scenario-newsgroup", str(events),
            "--interests", interests,
            "--grants", grants,
        ],
        capsys,
    )
    assert rc == 0
    data = json.loads(out)
    assert data["counted"] == 4
    assert data["uncounted"] == {"unanswered-initiation": 1}
    assert data["groups"] == {"a": ["bob"], "a+b": ["alice"], "b": ["carol"]}
    assert data["managers"] == data["groups"]
    assert data["group_order"] == "a=b>c"
    assert len(data["topology_edges"]) == 12
    assert data["precedents"] == {
        "rules": [{"antecedent": "D", "consequent": "C"}],
        "role_order": [["C", "D"]],
        "merges": [],
    }


SCENARIO_THREADS = {"m1": "a", "m2": "b", "m3": "c"}


@pytest.mark.parametrize("interests, extra", [
    ({"threads": ["m1"]}, []),
    ({"threads": SCENARIO_THREADS, "interests": 5}, []),
    ({"threads": {**SCENARIO_THREADS, "m1": "z"}, "interests": ["a", "b", "c"]}, []),
    ({"threads": SCENARIO_THREADS}, ["--manager-fraction", "nan"]),
    ({"threads": SCENARIO_THREADS}, ["--manager-fraction", "inf"]),
    ({"threads": {**SCENARIO_THREADS, "m3": "entry"}}, []),
    ({"threads": {**SCENARIO_THREADS, "m3": ""}}, []),
    ({"threads": {**SCENARIO_THREADS, "m3": "b+c"}}, []),
    ({"threads": SCENARIO_THREADS, "interests": ["a", "b", "c", "entry"]}, []),
], ids=["thread-list", "interest-count", "interest-not-listed", "nan-fraction",
        "inf-fraction", "entry-interest", "empty-interest", "plus-interest",
        "listed-entry-interest"])
def test_scenario_newsgroup_rejects_bad_input(tmp_path, capsys, interests, extra):
    events = tmp_path / "events.csv"
    events.write_text(SCENARIO_EVENTS, encoding="utf-8")
    path = write_json(tmp_path / "interests.json", interests)
    rc, out, err = run_cli(
        ["scenario-newsgroup", str(events), "--interests", path, *extra], capsys
    )
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InputError"


def test_scenario_newsgroup_names_the_bad_event_line(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(SCENARIO_EVENTS + "8,bob,m1,shout,1\n", encoding="utf-8")
    path = write_json(tmp_path / "interests.json", {"threads": SCENARIO_THREADS})
    rc, out, err = run_cli(["scenario-newsgroup", str(events), "--interests", path], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "InputError",
        "message": "line 9: event kind 'shout' not in ('initiate', 'followup', 'ack')",
    }


def test_entropy_markov_refuses_many_policies_before_the_chain(tmp_path, capsys, monkeypatch):
    def no_chain(*_):
        raise AssertionError("markov_aggregate called before the state cap")

    monkeypatch.setattr(cli, "markov_aggregate", no_chain)
    policies = [f"p{i}" for i in range(1000)]
    path = write_json(tmp_path / "profile.json",
                      {"policies": policies, "voters": [{"id": "v", "ranking": [policies]}]})
    start = time.perf_counter()
    rc, out, err = run_cli(["entropy", "--mode", "markov", path], capsys)
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": "stationary distribution needs at most 100 states, got 1000",
    }


def test_scenario_newsgroup_refuses_many_interests_before_the_topology(
    tmp_path, capsys, monkeypatch
):
    def no_topology(*_):
        raise AssertionError("group_topology called before the candidate cap")

    monkeypatch.setattr(cli, "group_topology", no_topology)
    events = tmp_path / "events.csv"
    events.write_text(SCENARIO_EVENTS, encoding="utf-8")
    path = write_json(
        tmp_path / "interests.json",
        {"threads": SCENARIO_THREADS, "interests": list("abcdefg")},
    )
    rc, out, err = run_cli(["scenario-newsgroup", str(events), "--interests", path], capsys)
    assert (rc, out) == (3, "")
    assert json.loads(err) == {
        "error": "CapExceeded",
        "message": "candidate generation over 7 labels exceeds the cap of 6",
    }


ONE_INTEREST = {"m1": "a", "m2": "a", "m3": "a"}


@pytest.mark.parametrize("log, interests", [
    ("", {"threads": {}}),
    ("", {"threads": {}, "interests": ["a"]}),
    ("", {"threads": ONE_INTEREST}),
    (SCENARIO_EVENTS, {"threads": ONE_INTEREST}),
], ids=["no-events-none", "no-events-one-listed", "no-events-one-mapped", "one-mapped"])
def test_scenario_newsgroup_needs_two_interests_first(tmp_path, capsys, log, interests):
    # with no events the group order would fail too, on its empty tallies
    events = tmp_path / "events.csv"
    events.write_text(log or "t,subscriber,thread,kind,parent\n", encoding="utf-8")
    path = write_json(tmp_path / "interests.json", interests)
    rc, out, err = run_cli(["scenario-newsgroup", str(events), "--interests", path], capsys)
    assert (rc, out) == (2, "")
    assert err == '{"error": "InputError", "message": "need at least two interests"}\n'


def test_console_script_smoke(tmp_path):
    # Build the console script that an install would generate from
    # [project.scripts], so the command under test is this tree's entry
    # point rather than whatever `preflattice` happens to be on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["preflattice"]
    module, attr = entry.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "preflattice"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    proc = subprocess.run(
        ["preflattice", "count-orders", "4"],
        capture_output=True, text=True, check=False, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "75"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "preflattice.cli", "count-orders", "3"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "13"


def python_under_hash_seed(args, seed):
    """(exit code, stdout, stderr) of ``python *args`` on this tree's
    sources with PYTHONHASHSEED set, which fixes the iteration order of
    sets and frozensets of strings."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, check=False, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def cli_under_hash_seed(argv, seed):
    return python_under_hash_seed(["-m", "preflattice.cli", *argv], seed)


TWO_CYCLES = {"vertices": list("abcdef"),
              "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "f"], ["f", "d"]]}
# bob is counted on t2 and t3
UNMAPPED_EVENTS = """t,subscriber,thread,kind,parent
1,alice,t2,initiate,
2,bob,t2,followup,1
3,alice,t2,ack,2
4,alice,t3,initiate,
5,bob,t3,followup,4
6,alice,t3,ack,5
"""


def test_antichain_names_one_distinct_cycle_pair_under_every_hash_seed(tmp_path):
    path = write_json(tmp_path / "cyclic.json", TWO_CYCLES)
    record = {"error": "CyclicRelation", "message": "'a' and 'b' are mutually below each other"}
    for seed in range(6):
        assert cli_under_hash_seed(["antichain", path], seed) == (
            2, "", json.dumps(record) + "\n"), seed


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    events = tmp_path / "events.csv"
    events.write_text(UNMAPPED_EVENTS, encoding="utf-8")
    bad_names = write_json(tmp_path / "bad.json", {
        "threads": {"t2": "a+b"}, "interests": ["a+b", "entry", "x+y"]})
    unmapped = write_json(tmp_path / "unmapped.json", {"threads": {"t1": "a", "t4": "b"}})
    calls = [
        ["aggregate", write_json(tmp_path / "paradox.json", PARADOX)],
        ["mlorder", write_worked_csv(tmp_path / "worked.csv")],
        ["antichain", write_json(tmp_path / "cyclic.json", TWO_CYCLES)],
        ["scenario-newsgroup", str(events), "--interests", bad_names],
        ["scenario-newsgroup", str(events), "--interests", unmapped],
    ]
    for argv in calls:
        runs = [cli_under_hash_seed(argv, seed) for seed in range(4)]
        assert runs[1:] == runs[:1] * 3, argv


# bad library inputs with two offenders each; each prints (type, message)
BAD_LIBRARY_INPUTS = """
from preflattice.core import Bigraph
from preflattice.graphalg import digraph
pairs = frozenset({frozenset("ab"), frozenset("cd")})
cases = [
    lambda: Bigraph(tuple("abcd"), frozenset({("a", "b"), ("d", "c")}), pairs),
    lambda: Bigraph(tuple("ab"), frozenset(), frozenset({frozenset("yb"), frozenset("xa")})),
    lambda: Bigraph(tuple("a"), frozenset({("a", "c"), ("a", "b")}), frozenset()),
    lambda: digraph(["a"], [("a", "b"), ("a", "c"), ("d", "a")]),
]
for make in cases:
    try:
        make()
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_library_messages_do_not_depend_on_the_hash_seed():
    runs = [python_under_hash_seed(["-c", BAD_LIBRARY_INPUTS], seed) for seed in range(4)]
    assert runs[1:] == runs[:1] * 3
    assert runs[0] == (0, "InputError pair ('a', 'b') is in both C and D\n"
                          "UnknownLabel C edge ('a', 'x') uses unknown vertex\n"
                          "UnknownLabel edge ('a','b') uses unknown vertex\n"
                          "UnknownVertex edge ('a','b') uses unknown vertex\n", "")


def cli_child(args, **kwargs):
    """``python -m preflattice.cli`` on this tree's sources, with stdout
    block-buffered as it is by default on a pipe."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, "-m", "preflattice.cli", *args],
                            stderr=subprocess.PIPE, env=env, **kwargs)


def test_closed_stdout_exits_1_silently():
    # seven labels print about 700 kB, far more than a pipe buffer holds
    proc = cli_child(["enumerate-orders", *"abcdefg"], stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"a=b=c=d=e=f=g\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1


def test_stdout_closed_before_the_first_write_exits_1_silently():
    # output small enough to sit in the buffer until the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_child(["count-orders", "4"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1


# Runs each argv list through main in one fresh interpreter in which numpy
# cannot be imported, and reports the exit code and stdout of each call.
MAIN_IN_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from preflattice.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    results.append([rc, out.getvalue()])
print(json.dumps(results))
"""


def main_in_child(argvs):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_IN_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout)


def test_no_subcommand_loads_numpy(tmp_path, capsys):
    profile = write_json(tmp_path / "borda4.json", BORDA4)
    consensus = write_json(tmp_path / "consensus.json", {
        "policies": ["a", "b", "c"],
        "voters": [{"id": v, "ranking": [["a"], ["b"], ["c"]]} for v in ("v1", "v2")],
    })
    labels = [f"p{i:02d}" for i in range(13)]
    thirteen = write_json(tmp_path / "thirteen.json", {
        "policies": labels,
        "voters": [{"id": f"v{i}", "ranking": [labels[i:i + 3], labels[i + 3:] + labels[:i]]}
                   for i in range(0, 9, 2)],
    })
    comparisons = write_worked_csv(tmp_path / "worked.csv")
    poset_path = write_json(tmp_path / "poset.json", {
        "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"]]})
    tg = write_json(tmp_path / "tg.json", TG_GRAPH)
    events = tmp_path / "events.csv"
    events.write_text(SCENARIO_EVENTS, encoding="utf-8")
    interests = write_json(tmp_path / "interests.json", {"threads": SCENARIO_THREADS})
    # 400 agents over 10^5 trait vectors: well over 144 varieties per period
    wide = dict(SIM_CONFIG, n_features=5, traits_per_feature=10, max_periods=2,
                topology={"kind": "square", "rows": 20, "cols": 20})
    argvs = [
        ["count-orders", "5"],
        ["enumerate-orders", "a", "b", "c"],
        ["aggregate", profile],
        ["borda", "--averaged", profile],
        ["entropy", "--mode", "markov", profile],
        ["entropy", "--mode", "markov", thirteen],  # floats printed above 12 policies
        ["entropy", "--mode", "topo", consensus],  # one-vertex blocks only
        ["entropy", "--mode", "topo", write_json(tmp_path / "paradox.json", PARADOX)],
        ["mlorder", comparisons],
        ["mlorder", comparisons, "--mode", "all-weak"],
        ["antichain", poset_path],
        ["tg-check", tg, "--from", "s1", "--to", "s2"],
        ["scenario-newsgroup", str(events), "--interests", interests],
        ["simulate", write_json(tmp_path / "config.json", SIM_CONFIG)],
        ["simulate", write_json(tmp_path / "wide.json", wide)],
    ]
    results = main_in_child(argvs)
    for argv, (rc, out) in zip(argvs, results):
        assert rc == 0 and out, argv
        assert run_cli(argv, capsys) == (rc, out, ""), argv
    varieties = [int(row.split(",")[-1]) for row in results[-1][1].splitlines()[1:]]
    assert min(varieties) > 144
