"""End-to-end acceptance checks, one test per criterion.

Each test pins the numbers the package promises, at the tolerance stated
next to the assertion. The frozen expectations in worked_example.py were
derived twice before being committed here: once by this library and once
by an independent script using exact rational arithmetic wherever the
quantity is rational. Where a historically circulated figure disagrees
with its own defining data, the test says so and pins the recomputation.

The terminal summary prints a per-criterion verdict table after the run
(see conftest.py).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from preflattice.aggregate import aggregate_reach, classify_cycles
from preflattice.cli import main
from preflattice.core import (
    count_weak_orders,
    enumerate_weak_orders,
    make_order,
    profile_from_dict,
)
from preflattice.culture import (
    CultureConfig,
    Field,
    build_topology,
    run,
    variety_entropy,
    variety_table,
)
from preflattice.entropy import (
    markov_aggregate,
    markov_order,
    shannon_entropy,
    stationary_distribution,
    topological_entropy,
)
from preflattice.errors import SelfFollowup
from preflattice.graphalg import digraph, max_antichain, poset
from preflattice.mlorder import (
    max_likelihood_order,
    restrict_estimates,
    uncertainty,
)
from preflattice.selforg import (
    APATHY,
    PostingEvent,
    derive_precedents,
    partition_subscribers,
    validate_protocol,
)
from oracles import count_hamiltonian_paths, similarity
from test_graphalg import _brute_max_antichain
import worked_example as wx


def test_criterion_1_weak_order_counts(capsys):
    """Weak-order counts for one to six policies are exact, and the
    enumerator produces exactly that many distinct orders."""
    expected = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}
    labels = ["p1", "p2", "p3", "p4", "p5", "p6"]
    for n, want in expected.items():
        assert count_weak_orders(n) == want
        orders = list(enumerate_weak_orders(labels[:n]))
        assert len(orders) == want
        assert len(set(orders)) == want
    assert main(["count-orders", "6"]) == 0
    assert capsys.readouterr().out == "4683\n"


def test_criterion_2_borda_fixture_reproduction(borda4, borda3):
    """The four-option Borda fixture: exact stationary shares, normalized
    Shannon entropy within 5e-4 of 0.843 (1e-5 of 0.905619 for the
    three-option restriction), the stationary ranking, and the winner's
    share strictly above the third option's in both."""
    sr4 = stationary_distribution(markov_aggregate(borda4))
    assert sr4.labels == ("w", "x", "y", "z")
    assert tuple(sr4.distribution) == wx.BORDA4_STATIONARY  # exact rationals
    assert shannon_entropy(sr4.distribution, base=4).value == pytest.approx(
        0.843, abs=5e-4
    )
    sr3 = stationary_distribution(markov_aggregate(borda3))
    assert sr3.labels == ("w", "y", "z")
    assert tuple(sr3.distribution) == wx.BORDA3_STATIONARY  # exact rationals
    assert shannon_entropy(sr3.distribution, base=3).value == pytest.approx(
        0.905619, abs=1e-5
    )
    assert str(markov_order(sr4)) == "w>x>y>z"
    assert str(markov_order(sr3)) == "w>y>z"
    d4 = dict(zip(sr4.labels, sr4.distribution))
    d3 = dict(zip(sr3.labels, sr3.distribution))
    assert d4["w"] > d4["y"]
    assert d3["w"] > d3["y"]


def test_criterion_3_voting_paradox(paradox):
    """The cyclic three-voter profile: exactly uniform stationary shares,
    no unanimities, and one cycle classified as complete."""
    sr = stationary_distribution(markov_aggregate(paradox))
    assert tuple(sr.distribution) == (Fr(1, 3), Fr(1, 3), Fr(1, 3))  # exact
    agg, report = aggregate_reach(paradox)
    assert set(report.unanimities) == set()
    cycles = classify_cycles(agg)
    assert len(cycles) == 1
    assert cycles[0].kind == "complete"
    assert set(cycles[0].members) == {"x", "y", "z"}


def test_criterion_4_topological_entropy(paradox):
    """Mean preference-matrix entropy on the canonical small profiles.

    A historically circulated figure of 0.690759 for the cyclic profile is
    not reproducible from the profile itself: the cyclic mean matrix has
    spectral radius exactly 2, so the base-3 entropy is log_3 2 = 0.630930,
    and the independent recomputation agrees. The derived value is pinned
    and the circulated one treated as unreproducible.
    """
    strict = profile_from_dict({
        "policies": ["x", "y", "z"],
        "voters": [{"id": "v", "ranking": [["x"], ["y"], ["z"]]}],
    })
    assert topological_entropy(strict).value == 0.0
    tied = profile_from_dict({
        "policies": ["x", "y", "z"],
        "voters": [{"id": "v", "ranking": [["x"], ["y", "z"]]}],
    })
    assert topological_entropy(tied).value == pytest.approx(0.63093, abs=1e-4)
    indifferent = profile_from_dict({
        "policies": ["x", "y", "z"],
        "voters": [{"id": "v", "ranking": [["x", "y", "z"]]}],
    })
    assert topological_entropy(indifferent).value == 1.0  # exactly
    assert topological_entropy(paradox).value == pytest.approx(0.63093, abs=1e-4)


def test_criterion_5_most_likely_orders(worked_tally):
    """Maximum-likelihood ranking on the four-policy comparison fixture.

    Exactly six candidate orders arise; their per-order uncertainty totals
    reproduce the frozen recomputation to 1e-12 and the double-tie order
    ranks first. The six published row uncertainties are pinned at 1e-4,
    except the fourth: the published 2.234382 is inconsistent with its own
    published pair shares, which give 2.324433 on recomputation (twice,
    once in exact arithmetic). That recomputed value is pinned tightly and
    the published figure asserted to be the outlier.
    """
    ranked = max_likelihood_order(worked_tally)
    assert len(ranked) == 6
    totals = {str(order): rep.total for order, rep in ranked}
    assert set(totals) == set(wx.WORKED_TOTALS)
    for name, frozen in wx.WORKED_TOTALS.items():
        assert totals[name] == pytest.approx(frozen, rel=1e-12)
    assert str(ranked[0][0]) == "1=4>2=3"  # least uncertainty ranks first

    for name in ("pi1", "pi2", "pi3", "pi5", "pi6"):
        point = wx.estimate_point(wx.printed_row_estimates(name))
        u = uncertainty(point, worked_tally).total
        assert u == pytest.approx(wx.PRINTED_U[name], abs=1e-4)
    u4 = uncertainty(
        wx.estimate_point(wx.printed_row_estimates("pi4")), worked_tally
    ).total
    assert u4 == pytest.approx(wx.PI4_RECOMPUTED, rel=1e-12)
    assert abs(u4 - wx.PRINTED_U["pi4"]) > 5e-2  # the published total is off

    # spot restriction identities on single pairs
    e = wx.estimate_point({("1", "2"): (Fr(1, 3), Fr(1, 2), Fr(1, 6))})
    r = restrict_estimates(e, make_order(["1", "2"], [["1"], ["2"]]))
    assert r.estimates[("1", "2")] == (Fr(5, 12), Fr(5, 12), Fr(1, 6))
    e = wx.estimate_point({("1", "4"): (Fr(0), Fr(1, 3), Fr(2, 3))})
    r = restrict_estimates(e, make_order(["1", "4"], [["4"], ["1"]]))
    assert r.estimates[("1", "4")] == (Fr(0), Fr(1, 2), Fr(1, 2))


def test_criterion_6_graph_regularities():
    """Random structure checks: every tournament on up to eight vertices
    has an odd number of spanning paths (120 draws), and the maximum
    antichain matches a brute-force search on random posets (120 draws)."""
    rng = random.Random(20260816)
    for _ in range(120):
        n = rng.randint(2, 8)
        labels = [f"v{i}" for i in range(n)]
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.add((labels[i], labels[j]))
                else:
                    edges.add((labels[j], labels[i]))
        g = digraph(labels, edges)
        assert count_hamiltonian_paths(g) % 2 == 1

    for _ in range(120):
        n = rng.randint(1, 8)
        labels = [f"e{i}" for i in range(n)]
        pairs = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        p = poset(labels, pairs)
        size, antichain, chains = max_antichain(p)
        assert size == _brute_max_antichain(p)
        assert size == len(chains)


def test_criterion_7_unanimity_regression(borda4):
    """The four-option fixture has exactly one unanimity, (y, z), and it
    is a simple one."""
    _, report = aggregate_reach(borda4)
    assert set(report.unanimities) == {("y", "z")}
    assert report.classes["y"] == report.classes["z"] == "simple"


def test_criterion_8a_simulator_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output across
    separate processes."""
    import json

    config = {
        "n_features": 4,
        "traits_per_feature": 8,
        "topology": {"kind": "square", "rows": 6, "cols": 6},
        "behavior": "Egoistic",
        "seed": 2026,
        "stasis_window": 30,
        "max_periods": 120,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    cmd = [
        sys.executable, "-m", "preflattice.cli",
        "simulate", str(path), "--replicates", "2",
    ]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout
    assert first.stdout == second.stdout


def test_criterion_8b_single_trait_world_is_inert():
    """With one trait per feature no pair can interact: activity stays at
    zero every period and the run goes static exactly at the stasis
    window."""
    cfg = CultureConfig(
        n_features=4,
        traits_per_feature=1,
        topology={"kind": "square", "rows": 5, "cols": 5},
        behavior="Egoistic",
        seed=11,
        stasis_window=25,
        max_periods=500,
    )
    res = run(cfg)
    assert all(m.eta == 0.0 for m in res.series)
    assert res.status == "static"
    assert res.periods == 25


def test_criterion_8c_variety_entropy_zero_iff_monoculture():
    """Variety entropy vanishes exactly when one variety remains."""
    cfg = CultureConfig(
        n_features=3,
        traits_per_feature=4,
        topology={"kind": "square", "rows": 4, "cols": 4},
        behavior="Egoistic",
        seed=3,
    )
    topo = build_topology(cfg.topology)
    mono = Field(cfg, topo, [[1, 2, 3] for _ in range(topo.size)])
    assert variety_entropy(mono) == 0.0
    for k in range(1, topo.size):
        agents = [[1, 2, 3] for _ in range(topo.size)]
        for i in range(k):
            agents[i] = [0, 0, 0]
        assert variety_entropy(Field(cfg, topo, agents)) > 0.0
    # a live run's final sample agrees with its variety table
    res = run(CultureConfig(
        n_features=3,
        traits_per_feature=2,
        topology={"kind": "square", "rows": 4, "cols": 4},
        behavior="Egoistic",
        seed=9,
        stasis_window=50,
        max_periods=400,
    ))
    assert (res.series[-1].s_v == 0.0) == (len(variety_table(res.field)) == 1)


def _absorbing(field):
    """No live boundary: every adjacent pair identical or sharing nothing."""
    agents = field.agents
    for i, nbrs in enumerate(field.topology.neighbors):
        for j in nbrs:
            s = similarity(agents[i], agents[j])
            if 0 < s < field.n:
                return False
    return True


def test_criterion_8d_termination_and_boundary_incompatibility():
    """Twenty seeded hundred-agent runs all terminate within ten thousand
    periods; a static end means no live boundary remains.

    "Final varieties pairwise incompatible" is asserted at the boundary:
    every pair of adjacent agents is either identical or fully
    incompatible, which is exactly the condition that ends a run and the
    only form the dynamics can guarantee. Spatially separated regions can
    hold mutually compatible varieties forever, since no interaction ever
    brings them together, so a global pairwise reading is not a promise
    this model can make (piloted: it fails in most seeds while the
    boundary reading holds in all). Runs that never go quiet are declared
    limit cycles and carry their final-window variety trace.
    """
    for seed in range(20):
        cfg = CultureConfig(
            n_features=5,
            traits_per_feature=10,
            topology={"kind": "square", "rows": 10, "cols": 10},
            behavior="Egoistic",
            seed=seed,
            max_periods=10_000,
            stasis_window=200,
        )
        res = run(cfg)
        assert res.periods <= 10_000
        assert res.status in ("static", "limit")
        if res.status == "static":
            assert _absorbing(res.field)
        else:
            assert len(res.variety_trace) > 0


def _activity_fraction(cfg):
    res = run(cfg)
    return res.interactions_total / res.selections_total


def test_criterion_8e_activity_trend_sign_tests():
    """Interaction activity rises with feature count and neighborhood
    size and falls with trait count: paired one-sided sign tests over
    twenty seeds each, passing at fifteen or more wins (the fifteen-of-
    twenty binomial tail is about 0.021)."""
    seeds = range(20)
    sq49 = {"kind": "square", "rows": 7, "cols": 7}

    def batch(**kw):
        return [
            _activity_fraction(CultureConfig(
                seed=s, max_periods=300, stasis_window=50, **kw
            ))
            for s in seeds
        ]

    lo_n = batch(n_features=3, traits_per_feature=10, topology=sq49,
                 behavior="Egoistic")
    hi_n = batch(n_features=8, traits_per_feature=10, topology=sq49,
                 behavior="Egoistic")
    assert sum(h > l for h, l in zip(hi_n, lo_n)) >= 15

    lo_q = batch(n_features=5, traits_per_feature=5, topology=sq49,
                 behavior="Egoistic")
    hi_q = batch(n_features=5, traits_per_feature=30, topology=sq49,
                 behavior="Egoistic")
    assert sum(l > h for l, h in zip(lo_q, hi_q)) >= 15

    # subset-tree on six features: 63 agents at mean degree 5.9, against
    # an 8x8 square's 64 agents at mean degree 3.5
    tree = batch(n_features=5, traits_per_feature=10,
                 topology={"kind": "subset-tree", "features": 6},
                 behavior="Egoistic")
    square = batch(n_features=5, traits_per_feature=10,
                   topology={"kind": "square", "rows": 8, "cols": 8},
                   behavior="Egoistic")
    assert sum(t > s for t, s in zip(tree, square)) >= 15


def test_criterion_8f_biased_start_collapses_to_few_varieties():
    """Seconder-gated copying on the 144-agent twisted ring, seeded with
    three quarters of the agents biased toward central traits, ends with
    at most four varieties in at least fourteen of twenty seeds, inside a
    generous wall-clock budget (piloted at about 150 s; asserted under
    600 s so slow machines do not flake)."""
    t0 = time.perf_counter()
    few = 0
    for seed in range(20):
        cfg = CultureConfig(
            n_features=12,
            traits_per_feature=12,
            topology={"kind": "mobian-circle", "agents": 144, "turn": 12},
            behavior="PeerPossible",
            seed=seed,
            max_periods=5000,
            stasis_window=100,
            init="dice-mix",
            init_fraction=0.75,
        )
        res = run(cfg)
        few += len(variety_table(res.field)) <= 4
    elapsed = time.perf_counter() - t0
    assert few >= 14
    assert elapsed < 600.0


def test_criterion_9_newsgroup_group_bounds_and_precedents():
    """Interest-subset grouping stays within its combinatorial bounds,
    the posting protocol rejects self-followups outright, and the grant
    log derives the merge-then-split precedent narrative.

    The six-interest fixture gives every proper nonempty interest subset
    to exactly one subscriber and no subscriber every interest (a
    subscriber counted on all six would occupy a sixty-third,
    all-interest group), so the populated count meets the bound of 62
    with equality.
    """
    labels3 = ["a", "b", "c"]
    prefs3 = {}
    subsets3 = [c for k in range(1, 4) for c in combinations(labels3, k)]
    for i, top in enumerate(subsets3):
        rest = sorted((set(labels3) | {APATHY}) - set(top))
        prefs3[f"s{i}"] = make_order(labels3 + [APATHY], [sorted(top), rest])
    a3 = partition_subscribers(prefs3, interests=labels3)
    assert a3.populated == 7
    assert a3.populated <= 7

    labels6 = list("abcdef")
    prefs6 = {}
    proper = [c for k in range(1, 6) for c in combinations(labels6, k)]
    assert len(proper) == 62
    for i, top in enumerate(proper):
        rest = sorted((set(labels6) | {APATHY}) - set(top))
        prefs6[f"u{i:02d}"] = make_order(labels6 + [APATHY], [sorted(top), rest])
    a6 = partition_subscribers(prefs6, interests=labels6)
    assert a6.populated == 62
    assert a6.populated <= 62

    with pytest.raises(SelfFollowup):
        validate_protocol([
            PostingEvent(t=1, subscriber="eve", thread="m", kind="initiate"),
            PostingEvent(t=2, subscriber="eve", thread="m", kind="followup",
                         parent=1),
        ])

    rules, ordering, merges = derive_precedents([("u1", "C"), ("u1", "D")])
    assert merges == (("C", "D"),)
    assert rules == [] and ordering == ()
    rules, ordering, merges = derive_precedents(
        [("u1", "C"), ("u1", "D"), ("u2", "C")]
    )
    assert merges == ()
    assert [(r.antecedent, r.consequent) for r in rules] == [("D", "C")]
    assert ordering == (("C", "D"),)
