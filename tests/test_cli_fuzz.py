"""Fuzz the CLI contract in process: for random JSON, CSV and flag inputs
every subcommand exits 0, 2 or 3, a failure leaves exactly one JSON line
on stderr and nothing on stdout, and no exception escapes ``main``.

Each input is drawn well formed and then, one time in three, damaged at
one random spot, so both the work paths and the refusals are reached.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from preflattice.cli import main


def case(*argv, **files):
    """(argv, files): an argv item naming a file is replaced by its path
    when run; "TMP/x" names a path x in the run's scratch directory."""
    return tuple(argv), tuple(sorted(files.items()))


def call(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files:
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(content)
        argv = [paths.get(a, a) for a in argv]
        argv = [os.path.join(tmp, a[4:]) if a.startswith("TMP/") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_contract(argv, files):
    rc, out, err = call(argv, files)
    assert rc in (0, 2, 3), (rc, err)
    if rc:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert out == ""
    else:
        assert err == ""
    return rc


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JUNK,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
LABELS = ["a", "b", "c", "d", "e"]


def _damage(draw, value):
    """value with one randomly chosen part replaced or removed."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        keys = list(range(len(value))) if isinstance(value, list) else sorted(value)
        key = draw(st.sampled_from(keys))
        copy = list(value) if isinstance(value, list) else dict(value)
        if draw(st.integers(0, 4)):
            copy[key] = _damage(draw, value[key])
        else:
            del copy[key]
        return copy
    return draw(JSON_VALUES)


@st.composite
def damaged(draw, valid):
    value = draw(valid)
    return _damage(draw, value) if draw(st.integers(0, 2)) == 0 else value


@st.composite
def weak_orders(draw, labels, partial=False):
    """Tie-groups best first over a shuffle of labels (a prefix if partial)."""
    order = draw(st.permutations(labels))
    if partial:
        order = order[:draw(st.integers(0, len(order)))]
    groups = []
    for label in order:
        if groups and draw(st.booleans()):
            groups[-1].append(label)
        else:
            groups.append([label])
    return groups


@st.composite
def profiles(draw):
    policies = draw(st.permutations(LABELS[:draw(st.integers(1, 5))]))
    voters = [{"id": f"v{i}", "ranking": draw(weak_orders(policies, partial=True))}
              for i in range(draw(st.integers(1, 4)))]
    return {"policies": policies, "voters": voters}


profile_cases = st.builds(
    lambda cmd, profile: case(*cmd, "p.json", **{"p.json": json.dumps(profile)}),
    st.sampled_from([["entropy"], ["entropy", "--mode", "markov"], ["aggregate"],
                     ["borda"], ["borda", "--averaged"]]),
    damaged(profiles()),
)

count_cases = st.builds(
    lambda n: case("count-orders", n),
    st.one_of(st.integers(-3, 40).map(str), st.integers(1001, 10**9).map(str),
              st.text(max_size=4)),
)

enumerate_cases = st.builds(
    lambda labels: case("enumerate-orders", *labels),
    st.one_of(st.lists(st.sampled_from(LABELS + ["", "-x", "a=b"]), max_size=4),
              st.just(list("abcdefgh"))),
)

BARE_CELL = st.one_of(st.sampled_from(["1", "2", ">", "<", "=", "", "x"]), st.text(max_size=2))
# padded and quoted cells too: a plain posting log is parsed in blocks, any
# other log row by row, and the fuzz should reach both
CSV_CELL = st.one_of(
    BARE_CELL,
    st.tuples(st.sampled_from([" ", "\t", "\xa0"]), BARE_CELL).map("".join),
    BARE_CELL.map(lambda c: '"' + c.replace('"', '""') + '"'),
)


@st.composite
def csv_text(draw, valid_rows, header):
    """CSV lines from valid rows, one time in three with a row replaced
    by random cells."""
    rows = list(valid_rows)
    if rows and draw(st.integers(0, 2)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(CSV_CELL, max_size=6))
    lines = ([header] if draw(st.booleans()) else []) + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


@st.composite
def mlorder_cases(draw):
    labels = ["1", "2", "3", "4"][:draw(st.integers(2, 4))]
    rows = draw(st.lists(st.tuples(st.permutations(labels), st.sampled_from(">=<")).map(
        lambda t: [t[0][0], t[0][1], t[1]]), max_size=15))
    argv = ["mlorder", "c.csv", "--mode", draw(st.sampled_from(["subbigraph", "all-weak"]))]
    files = {"c.csv": draw(csv_text(rows, "i,j,outcome"))}
    if draw(st.booleans()):
        argv += ["--candidates", "k.json"]
        files["k.json"] = json.dumps(draw(damaged(st.lists(weak_orders(labels), max_size=3))))
    return case(*argv, **files)


@st.composite
def posets(draw):
    order = draw(st.permutations(LABELS[:draw(st.integers(0, 5))]))
    pairs = [[u, v] for i, u in enumerate(order) for v in order[i:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    return {"vertices": draw(st.permutations(order)), "edges": edges}


antichain_cases = st.builds(
    lambda data: case("antichain", "g.json", **{"g.json": json.dumps(data)}),
    damaged(posets()),
)


@st.composite
def tg_cases(draw):
    ids = LABELS[:draw(st.integers(1, 5))]
    vertices = [{"id": v, "kind": draw(st.sampled_from(["subject", "object"]))} for v in ids]
    edges = [{"from": draw(st.sampled_from(ids)), "to": draw(st.sampled_from(ids)),
              "label": draw(st.sampled_from(["take", "grant", "read", "write"]))}
             for _ in range(draw(st.integers(0, 6)))]
    data = draw(damaged(st.just({"vertices": vertices, "edges": edges})))
    ends = st.sampled_from(ids + ["z"])
    return case("tg-check", "g.json", "--from", draw(ends), "--to", draw(ends),
                **{"g.json": json.dumps(data)})


@st.composite
def culture_configs(draw):
    topology = draw(st.sampled_from([
        {"kind": "square", "rows": 3, "cols": 3},
        {"kind": "mobian-circle", "agents": 8, "turn": 3},
        {"kind": "subset-tree", "features": 3},
    ]))
    config = {"n_features": draw(st.integers(1, 4)), "traits_per_feature": draw(st.integers(1, 4)),
              "topology": topology, "max_periods": draw(st.integers(1, 6)),
              "stasis_window": draw(st.integers(1, 4))}
    optional = {
        "behavior": st.sampled_from(["Egoistic", "PeerPossible"]),
        "k": st.floats(0.05, 2), "epsilon": st.floats(0, 1), "seed": st.integers(0, 99),
        "selections_per_period": st.integers(1, 20),
        "init": st.just("dice-mix"), "init_fraction": st.floats(0, 1),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), max_size=4, unique=True)):
        config[key] = draw(optional[key])
    if config.get("init") == "dice-mix":
        config["traits_per_feature"] = 11
    return config


@st.composite
def simulate_cases(draw):
    flags = draw(st.lists(st.sampled_from([
        ["--replicates", "2"], ["--replicates", "0"], ["--replicates", "x"],
        ["--snapshot-every", "2", "--snapshot-dir", "TMP/snaps"],
        ["--snapshot-every", "-1"], ["--report", "TMP/report.json"],
    ]), max_size=2))
    return case("simulate", "s.json", *[f for pair in flags for f in pair],
                **{"s.json": json.dumps(draw(damaged(culture_configs())))})


@st.composite
def newsgroup_cases(draw):
    """A protocol-following posting log: each thread an initiation, maybe
    a followup by someone else, maybe the initiator's ack of it."""
    subscribers = ["u1", "u2", "u3"]
    threads = ["m1", "m2", "m3"]
    rows, t = [], 0
    for thread in threads[:draw(st.integers(1, 3))]:
        author = draw(st.sampled_from(subscribers))
        t += 1
        rows.append([str(t), author, thread, "initiate", ""])
        if draw(st.booleans()):
            t += 1
            replier = draw(st.sampled_from([s for s in subscribers if s != author]))
            rows.append([str(t), replier, thread, "followup", str(t - 1)])
            if draw(st.booleans()):
                t += 1
                rows.append([str(t), author, thread, "ack", str(t - 1)])
    names = st.sampled_from(["a", "b", "c"] * 6 + ["entry", "", "a+b", "∅"])
    interests = {"threads": {th: draw(names) for th in threads}}
    if draw(st.booleans()):
        interests["interests"] = sorted(set(interests["threads"].values()) | {"d"})
    argv = ["scenario-newsgroup", "e.csv", "--interests", "i.json",
            "--topology-mode", draw(st.sampled_from(["subset-lattice", "binary-tree"])),
            "--manager-fraction", draw(st.sampled_from(["0.05", "0.5", "1", "0", "nan", "x"]))]
    files = {"e.csv": draw(csv_text(rows, "t,subscriber,thread,kind,parent")),
             "i.json": json.dumps(draw(damaged(st.just(interests))))}
    if draw(st.booleans()):
        grants = [[draw(st.sampled_from(subscribers)), draw(st.sampled_from("CDE"))]
                  for _ in range(draw(st.integers(0, 5)))]
        argv += ["--grants", "g.json"]
        files["g.json"] = json.dumps(draw(damaged(st.just(grants))))
    return case(*argv, **files)


@st.composite
def noisy_cases(draw):
    """A case with stray flags or arguments appended."""
    argv, files = draw(st.one_of(profile_cases, count_cases, enumerate_cases))
    noise = draw(st.lists(st.sampled_from(["--mode", "-h", "--bogus", "--", "x", "-1"]),
                          min_size=1, max_size=2))
    return argv + tuple(noise), files


# Explicit examples: contract breaks mended alongside these tests, each
# with the exit code it must give.
BIG_COUNT = case("count-orders", "1600")
NUMERIC_LABELS = case("aggregate", "p.json", **{"p.json": json.dumps(
    {"policies": [1, 2], "voters": [{"id": "v", "ranking": [[1], [2]]}]})})
STRING_RANKING = case("borda", "p.json", **{"p.json": json.dumps(
    {"policies": ["a", "b"], "voters": [{"id": "v", "ranking": "ab"}]})})
EVENTS = "t,subscriber,thread,kind,parent\n1,u1,m1,initiate,\n2,u2,m1,followup,1\n3,u1,m1,ack,2\n"


def interest_case(name):
    return case("scenario-newsgroup", "e.csv", "--interests", "i.json", **{
        "e.csv": EVENTS,
        "i.json": json.dumps({"threads": {"m1": name}, "interests": [name, "b"]})})


def k_case(k):
    return case("simulate", "s.json", **{"s.json": json.dumps({
        "n_features": 3, "traits_per_feature": 3, "k": k,
        "topology": {"kind": "square", "rows": 3, "cols": 3}})})


COMPARISONS = "i,j,outcome\n1,2,>\n"
WIDE = [f"p{i}" for i in range(101)]
WIDER = [f"p{i}" for i in range(1000)]
BIG_FIELD = '"' + "x" * 140_000 + '"'
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT_JSON = "1" * 5000

PINNED = [
    (BIG_COUNT, 3),
    (NUMERIC_LABELS, 2),
    (STRING_RANKING, 2),
    (interest_case("entry"), 2),
    (interest_case(""), 2),
    (interest_case("a+b"), 2),
    (k_case(float("nan")), 2),
    (k_case(float("inf")), 2),
    # an integer k is taken as a float: past the float range it is refused,
    # and within it the thresholds k * d overflow to infinity, not to an error
    (k_case(10**400), 2),
    (k_case(10**308), 0),
    # a run is capped at MAX_SELECTIONS selections in all
    (case("simulate", "s.json", **{"s.json": json.dumps({
        "n_features": 2, "traits_per_feature": 2,
        "topology": {"kind": "square", "rows": 3, "cols": 3},
        "selections_per_period": 10**12, "max_periods": 1})}), 3),
    # the exact stationary solve is capped at 100 policies, checked before
    # the chain is built
    *[(case("entropy", "--mode", "markov", "p.json", **{"p.json": json.dumps(
        {"policies": wide, "voters": [{"id": "v", "ranking": [wide]}]})}), 3)
      for wide in (WIDE, WIDER)],
    # found by the fuzz tests below
    (case("antichain", "g.json", **{"g.json": json.dumps({"vertices": [], "edges": [[]]})}), 2),
    (case("mlorder", "c.csv", "--candidates", "k.json",
          **{"c.csv": COMPARISONS, "k.json": json.dumps([None])}), 2),
    (case("tg-check", "g.json", "--from", "a", "--to", "a", **{"g.json": json.dumps({
        "vertices": [{"id": "a", "kind": "subject"}],
        "edges": [{"from": ["a"], "to": "a", "label": "take"}]})}), 2),
    (case("scenario-newsgroup", "e.csv", "--interests", "i.json", "--grants", "g.json", **{
        "e.csv": EVENTS, "i.json": json.dumps({"threads": {"m1": "a"}, "interests": ["a", "b"]}),
        "g.json": json.dumps([None])}), 2),
    # the comparisons header is recognised on the first non-blank row only
    (case("mlorder", "c.csv", **{"c.csv": "\n" + COMPARISONS}), 0),
    (case("mlorder", "c.csv", **{"c.csv": "1,2,>\n" + COMPARISONS}), 2),
    # labels that would make a printed order ambiguous
    (case("enumerate-orders", "a=b", "a", "b"), 2),
    (case("enumerate-orders", "", "a"), 2),
    (case("enumerate-orders", "a>b", "c"), 2),
    (case("borda", "p.json", **{"p.json": json.dumps({
        "policies": ["x>y", "z"], "voters": [{"id": "v", "ranking": [["z"], ["x>y"]]}]})}), 2),
    (case("mlorder", "c.csv", "--mode", "all-weak", **{"c.csv": "a=b,a,>\na,b,<\n"}), 2),
    # a comma in a label would make two pairs print the same "a,b,c" key
    (case("mlorder", "c.csv", **{"c.csv": '"a,b",c,>\na,"b,c",<\na,c,=\n'}), 2),
    # a field over csv.field_size_limit() exits 2 rather than with a traceback
    (case("mlorder", "c.csv", **{"c.csv": COMPARISONS + f"{BIG_FIELD},2,>\n"}), 2),
    (case("scenario-newsgroup", "e.csv", "--interests", "i.json", **{
        "e.csv": EVENTS + f"4,{BIG_FIELD},m1,initiate,\n",
        "i.json": json.dumps({"threads": {"m1": "a"}})}), 2),
    # JSON nested past the recursion limit, or an integer past the digit limit
    *[(case(*argv, **{"f.json": text, "c.csv": COMPARISONS}), 2)
      for text in (DEEP_JSON, LONG_INT_JSON)
      for argv in (["entropy", "f.json"], ["aggregate", "f.json"], ["borda", "f.json"],
                   ["antichain", "f.json"], ["tg-check", "f.json", "--from", "a", "--to", "a"],
                   ["simulate", "f.json"], ["mlorder", "c.csv", "--candidates", "f.json"])],
]


def test_pinned_contract_breaks_exit_as_documented():
    for (argv, files), expected in PINNED:
        assert check_contract(argv, files) == expected, argv


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.one_of(profile_cases, count_cases, enumerate_cases, noisy_cases()))
def test_fuzz_choice_commands(argv_files):
    check_contract(*argv_files)


@FUZZ
@given(st.one_of(mlorder_cases(), antichain_cases, tg_cases()))
def test_fuzz_graph_and_comparison_commands(argv_files):
    check_contract(*argv_files)


@FUZZ
@given(simulate_cases())
def test_fuzz_simulate(argv_files):
    check_contract(*argv_files)


@FUZZ
@given(newsgroup_cases())
def test_fuzz_scenario_newsgroup(argv_files):
    check_contract(*argv_files)
