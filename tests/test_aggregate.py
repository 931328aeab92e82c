from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice.aggregate import (
    _label_pairs,
    _majority,
    _unanimity_components,
    aggregate_reach,
    borda_scores,
    classify_cycles,
    common_indifferences,
    condense,
    position_counts,
)
from preflattice.core import preference_matrix, profile_from_dict, strict_counts
from preflattice.entropy import mean_preference_matrix
from preflattice.errors import WeakOrderUnsupported

from oracles import (
    _classify_unanimity_components,
    label_classify_cycles,
    label_condense,
    mean_matrix_by_ballot,
    pairwise_common_indifferences,
    per_voter_aggregate_reach,
)


def test_reach_counts_borda4(borda4):
    agg, report = aggregate_reach(borda4)
    assert agg.n_voters == 3
    assert agg.q.labels == ("w", "x", "y", "z")
    assert agg.q.entry("w", "x") == 2
    assert agg.q.entry("x", "w") == 1
    assert agg.q.entry("y", "z") == 3
    assert agg.q.entry("z", "y") == 0
    assert report.weights[("w", "x")] == (2, 1)


def test_unanimity_borda4(borda4):
    _, report = aggregate_reach(borda4)
    assert report.unanimities == frozenset({("y", "z")})
    assert report.classification == {("y", "z"): "simple"}
    assert report.sources == ()
    assert report.sinks == ()


def test_unanimity_source_and_sink():
    p = profile_from_dict(
        {
            "policies": ["a", "b", "c"],
            "voters": [
                {"id": "v1", "ranking": [["a"], ["b"], ["c"]]},
                {"id": "v2", "ranking": [["a"], ["c"], ["b"]]},
            ],
        }
    )
    _, report = aggregate_reach(p)
    assert report.sources == ("a",)
    assert report.sinks == ()
    assert ("a", "b") in report.unanimities and ("a", "c") in report.unanimities


def test_common_indifference_merges_block():
    p = profile_from_dict(
        {
            "policies": ["a", "b", "c"],
            "voters": [
                {"id": "v1", "ranking": [["a", "b"], ["c"]]},
                {"id": "v2", "ranking": [["c"], ["a", "b"]]},
            ],
        }
    )
    assert common_indifferences(p) == frozenset({frozenset({"a", "b"})})
    agg, _ = aggregate_reach(p)
    assert agg.q.labels == ("a=b", "c")
    assert agg.blocks == (("a", "b"), ("c",))
    assert agg.q.entry("a=b", "c") == 1
    assert agg.q.entry("c", "a=b") == 1


def test_paradox_cycle_classification(paradox):
    agg, report = aggregate_reach(paradox)
    assert report.unanimities == frozenset()
    cycles = classify_cycles(agg)
    assert len(cycles) == 1
    info = cycles[0]
    assert info.kind == "complete"
    assert sorted(info.members) == ["x", "y", "z"]


def test_dominated_cycle():
    # everyone puts d on top; the rest chase each other
    p = profile_from_dict(
        {
            "policies": ["a", "b", "c", "d"],
            "voters": [
                {"id": "v1", "ranking": [["d"], ["a"], ["b"], ["c"]]},
                {"id": "v2", "ranking": [["d"], ["c"], ["a"], ["b"]]},
                {"id": "v3", "ranking": [["d"], ["b"], ["c"], ["a"]]},
            ],
        }
    )
    agg, _ = aggregate_reach(p)
    cycles = classify_cycles(agg)
    assert len(cycles) == 1
    info = cycles[0]
    assert info.kind == "dominated"
    assert info.dominators == ("d",)
    assert sorted(info.members) == ["a", "b", "c"]


def test_majority_digraph_threshold(paradox):
    agg, _ = aggregate_reach(paradox)
    assert set(_label_pairs(agg.q.labels, _majority(agg))) == {("x", "y"), ("y", "z"), ("z", "x")}
    # a above b for two of four voters: an exact tie at half, so no edge
    tie = profile_from_dict({
        "policies": ["a", "b"],
        "voters": [{"id": f"v{i}", "ranking": r} for i, r in
                   enumerate([[["a"], ["b"]], [["a"], ["b"]], [["b"], ["a"]], [["b"], ["a"]]])],
    })
    agg, _ = aggregate_reach(tie)
    assert agg.q.entry("a", "b") == agg.q.entry("b", "a") == 2
    assert frozenset(_label_pairs(agg.q.labels, _majority(agg))) == frozenset()


def test_condense_borda4(borda4):
    agg, _ = aggregate_reach(borda4)
    cg = condense(agg)
    assert cg.blocks == (("w",), ("x",), ("y", "z"))
    assert cg.rules[2] == "simple-unanimity"
    assert cg.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert cg.mapping["z"] == 2


def test_condense_merges_dominated_cycle():
    p = profile_from_dict(
        {
            "policies": ["a", "b", "c", "d"],
            "voters": [
                {"id": "v1", "ranking": [["d"], ["a"], ["b"], ["c"]]},
                {"id": "v2", "ranking": [["d"], ["c"], ["a"], ["b"]]},
                {"id": "v3", "ranking": [["d"], ["b"], ["c"], ["a"]]},
            ],
        }
    )
    agg, _ = aggregate_reach(p)
    cg = condense(agg)
    assert ("a", "b", "c") in cg.blocks
    i_cycle = cg.blocks.index(("a", "b", "c"))
    assert cg.rules[i_cycle] == "dominated-cycle"
    i_d = cg.blocks.index(("d",))
    assert (i_d, i_cycle) in cg.edges


def test_condense_leaves_complete_cycle(paradox):
    agg, _ = aggregate_reach(paradox)
    cg = condense(agg)
    assert cg.blocks == (("x",), ("y",), ("z",))
    assert cg.rules == ("singleton",) * 3
    # the majority circle survives at the block level
    assert cg.edges == frozenset({(0, 1), (1, 2), (2, 0)})


def test_condense_reports_each_blocked_component_once():
    # d, a, b, c: the cycle a > b > c > a sits unanimously under d and
    # merges first; d and the merged block stay a unanimity component that
    # the cycle block blocks on every later round
    p = profile_from_dict({
        "policies": list("abcdef"),
        "voters": [{"id": f"v{i}", "ranking": [[x] for x in r]}
                   for i, r in enumerate(["efdabc", "dbcaef", "dcabef"])],
    })
    agg, _ = aggregate_reach(p)
    cg = condense(agg)
    assert cg.blocks == (("a", "b", "c"), ("d",), ("e", "f"))
    assert cg.rules == ("dominated-cycle", "singleton", "simple-unanimity")
    assert cg.overlaps == ((("a", "b", "c", "d"), "unanimity-blocked-by-cycle-block"),)


def test_condense_keeps_a_dominating_cycle_block_out_of_unanimity_merges():
    # the cycle a..f sits unanimously above g and merges first; it and g
    # then form a simple unanimity component that the cycle block blocks
    p = profile_from_dict({
        "policies": list("abcdefg"),
        "voters": [{"id": f"v{i}", "ranking": [[x] for x in r]}
                   for i, r in enumerate(["eabcdfg", "afcbdeg", "dbeafcg"])],
    })
    agg, _ = aggregate_reach(p)
    cg = condense(agg)
    assert cg.blocks == (tuple("abcdef"), ("g",))
    assert cg.rules == ("dominating-cycle", "singleton")
    assert cg.overlaps == ((tuple("abcdefg"), "unanimity-blocked-by-cycle-block"),)


def test_borda_scores(borda4, borda3):
    assert borda_scores(borda4) == {"w": 9, "x": 8, "y": 8, "z": 5}
    assert borda_scores(borda3) == {"w": 7, "y": 7, "z": 4}


def test_borda_scores_averaged_ties():
    p = profile_from_dict(
        {
            "policies": ["a", "b", "c"],
            "voters": [{"id": "v", "ranking": [["a", "b"], ["c"]]}],
        }
    )
    plain = borda_scores(p)
    assert plain == {"a": 3, "b": 3, "c": 2}
    avg = borda_scores(p, averaged=True)
    assert avg == {"a": Fraction(5, 2), "b": Fraction(5, 2), "c": Fraction(1)}


def test_position_counts_first_order(borda4):
    counts = position_counts(borda4)
    assert counts[(1, "w")] == 2
    assert counts[(1, "y")] == 1
    assert counts[(4, "z")] == 2
    assert counts[(4, "w")] == 1
    assert (1, "z") not in counts


def test_position_counts_second_order(borda4):
    counts = position_counts(borda4, order_depth=2)
    # v1 and v2 put (w, x) on positions (1, 2); v3 puts them on (3, 4)
    assert counts[((1, 2), ("w", "x"))] == 2
    assert counts[((3, 4), ("w", "x"))] == 1


def test_position_counts_reject_ties():
    p = profile_from_dict(
        {
            "policies": ["a", "b"],
            "voters": [{"id": "v", "ranking": [["a", "b"]]}],
        }
    )
    with pytest.raises(WeakOrderUnsupported):
        position_counts(p)


@st.composite
def small_profile(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    policies = [chr(ord("a") + i) for i in range(n)]
    n_voters = draw(st.integers(min_value=1, max_value=5))
    voters = []
    for v in range(n_voters):
        perm = draw(st.permutations(policies))
        cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        ranking = [[perm[0]]]
        for p, new_group in zip(perm[1:], cuts):
            if new_group:
                ranking.append([p])
            else:
                ranking[-1].append(p)
        voters.append({"id": f"v{v}", "ranking": ranking})
    return profile_from_dict({"policies": policies, "voters": voters})


@settings(max_examples=60, deadline=None)
@given(small_profile())
def test_reach_counts_bounded_by_voters(profile):
    agg, report = aggregate_reach(profile)
    k = len(agg.q.labels)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            a, b = agg.q.labels[i], agg.q.labels[j]
            up, down = agg.q.entry(a, b), agg.q.entry(b, a)
            assert 0 <= up <= profile.n_voters
            assert up + down <= profile.n_voters
    for u, v in report.unanimities:
        assert agg.q.entry(u, v) >= 1
        assert agg.q.entry(v, u) == 0


@settings(max_examples=40, deadline=None)
@given(small_profile())
def test_condense_is_a_partition(profile):
    agg, _ = aggregate_reach(profile)
    cg = condense(agg)
    merged = sorted(p for block in cg.blocks for p in block)
    original = sorted(p for block in agg.blocks for p in block)
    assert merged == original
    for p, bi in cg.mapping.items():
        assert p in cg.blocks[bi]


def _indifference_blocks(profile):
    """Components of the common-indifference pairs by depth-first search,
    in order of first appearance in the policy list, members sorted."""
    adj = {p: set() for p in profile.policies}
    for pair in common_indifferences(profile):
        u, v = tuple(pair)
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    blocks = []
    for p in profile.policies:
        if p in seen:
            continue
        comp = {p}
        stack = [p]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        blocks.append(tuple(sorted(comp)))
    return blocks


@st.composite
def tied_profiles(draw):
    """Voters with many ties over a policy list in shuffled order, so
    common indifferences are frequent and blocks do not follow label order."""
    labels = "abcdefg"[:draw(st.integers(1, 7))]
    voters = []
    for i in range(draw(st.integers(1, 3))):
        groups = []
        for label in draw(st.permutations(labels)):
            if groups and draw(st.integers(0, 2)):
                groups[-1].append(label)
            else:
                groups.append([label])
        voters.append({"id": f"v{i}", "ranking": groups})
    return profile_from_dict({"policies": draw(st.permutations(labels)), "voters": voters})


@settings(max_examples=150, deadline=None)
@given(tied_profiles())
def test_blocks_are_indifference_components_in_policy_order(profile):
    agg, _ = aggregate_reach(profile)
    blocks = _indifference_blocks(profile)
    assert agg.blocks == tuple(blocks)
    assert agg.q.labels == tuple("=".join(b) for b in blocks)


@st.composite
def ballot_profiles(draw):
    """1-7 policies in shuffled order; a few distinct ballots with ties,
    some cut short so the profile completes them into one bottom group,
    each cast by one to three voters. Pinning one policy to the top or the
    bottom of every ballot makes dominated and dominating cycles common."""
    labels = "abcdefg"[:draw(st.integers(1, 7))]
    pin = draw(st.sampled_from([None, "top", "bottom"]))
    voters = []
    for _ in range(draw(st.integers(1, 6))):
        perm = list(draw(st.permutations(labels)))
        if pin:
            perm.remove(labels[0])
            perm = [labels[0], *perm] if pin == "top" else [*perm, labels[0]]
        groups = []
        for label in perm:
            if groups and draw(st.integers(0, 4)) == 0:
                groups[-1].append(label)
            else:
                groups.append([label])
        if draw(st.integers(0, 3)) == 0:
            groups = groups[:draw(st.integers(0, len(groups)))]
        for _ in range(draw(st.integers(1, 3))):
            voters.append({"id": f"v{len(voters)}", "ranking": groups})
    return profile_from_dict({"policies": draw(st.permutations(labels)), "voters": voters})


@settings(max_examples=200, deadline=None)
@given(ballot_profiles())
def test_counts_and_indifferences_match_per_voter_oracles(profile):
    c = strict_counts(profile)
    ranks = [order.ranks() for order in profile.orders()]
    for i, u in enumerate(profile.policies):
        for j, v in enumerate(profile.policies):
            assert c[i][j] == sum(r[u] < r[v] for r in ranks)
    assert common_indifferences(profile) == pairwise_common_indifferences(profile)
    f = mean_preference_matrix(profile)
    oracle = mean_matrix_by_ballot(profile, preference_matrix)
    assert f.labels == oracle.labels
    assert f.rows == oracle.rows
    assert all(type(x) is Fraction for row in f.rows for x in row)


@settings(max_examples=300, deadline=None)
@given(ballot_profiles())
def test_aggregation_matches_label_keyed_oracles(profile):
    agg, report = aggregate_reach(profile)
    oracle_agg, oracle_report = per_voter_aggregate_reach(profile)
    assert agg == oracle_agg
    assert report == oracle_report
    assert classify_cycles(agg) == label_classify_cycles(agg)
    cg, oracle = condense(agg), label_condense(agg)
    assert (cg.blocks, cg.rules, cg.mapping) == (oracle.blocks, oracle.rules, oracle.mapping)
    assert list(cg.edges) == list(oracle.edges)
    assert cg.overlaps == tuple(dict.fromkeys(oracle.overlaps))


def table_of(n, pairs):
    """The transitive closure of the pairs as an n x n boolean table."""
    rel = [[False] * n for _ in range(n)]
    for i, j in pairs:
        rel[i][j] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                rel[i] = [a or b for a, b in zip(rel[i], rel[k])]
    return rel


def components_by_oracle(rel):
    """(members, class) per component from the label-digraph classifier,
    in order of least member."""
    n = len(rel)
    pairs = [(i, j) for i in range(n) for j in range(n) if rel[i][j]]
    _, comp_of = _classify_unanimity_components(range(n), pairs)
    return sorted({(tuple(sorted(m)), cls) for m, cls in comp_of.values()})


@pytest.mark.parametrize("n, pairs, expected", [
    (0, [], []),
    (3, [], []),  # antichain
    (2, [(0, 1)], [((0, 1), "simple")]),
    (4, [(0, 1), (1, 2), (2, 3)], [((0, 1, 2, 3), "compound-simple")]),
    (3, [(0, 1), (0, 2)], [((0, 1, 2), "complex")]),  # V
    (3, [(1, 0), (2, 0)], [((0, 1, 2), "complex")]),  # Λ
    (4, [(0, 1), (0, 2), (1, 3), (2, 3)], [((0, 1, 2, 3), "complex")]),  # diamond
    (4, [(0, 2), (1, 3)], [((0, 2), "simple"), ((1, 3), "simple")]),  # interleaved members
    (6, [(4, 3), (3, 2), (1, 0)], [((0, 1), "simple"), ((2, 3, 4), "compound-simple")]),
])
def test_unanimity_components_shapes(n, pairs, expected):
    rel = table_of(n, pairs)
    assert _unanimity_components(rel) == expected
    assert components_by_oracle(rel) == expected


@st.composite
def strict_partial_orders(draw):
    """Transitive closures of random DAGs on up to 8 vertices: a shuffle
    of the vertices orders them, and each edge runs forward in it."""
    order = draw(st.permutations(range(draw(st.integers(0, 8)))))
    forward = [(u, v) for a, u in enumerate(order) for v in order[a + 1:]]
    edges = draw(st.lists(st.sampled_from(forward), max_size=12)) if forward else []
    return table_of(len(order), edges)


@settings(max_examples=300, deadline=None)
@given(strict_partial_orders())
def test_unanimity_components_match_transitive_reduction_oracle(rel):
    assert _unanimity_components(rel) == components_by_oracle(rel)
