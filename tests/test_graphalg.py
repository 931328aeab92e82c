from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice.errors import (
    CapExceeded,
    CyclicRelation,
    InputError,
    UnknownVertex,
)
from preflattice.graphalg import (
    digraph,
    hamiltonian_paths,
    max_antichain,
    maximal_circuit_free_subbigraphs,
    poset,
    strongly_connected_components,
    subset_lattice,
    tg_graph_from_dict,
    tg_connected,
)

import worked_example as wx
from oracles import (
    bigraph,
    completed_bigraph_subbigraphs,
    count_hamiltonian_paths,
    has_circuit,
    label_hamiltonian_paths,
    label_poset,
    label_strongly_connected_components,
    successor_lists,
    transitive_closure,
    transitive_reduction,
)
from preflattice.mlorder import induced_bigraph, raw_estimates


def test_digraph_validation():
    with pytest.raises(UnknownVertex):
        digraph(["a"], [("a", "b")])
    g = digraph("abc", [("a", "b"), ("b", "c")])
    assert ("a", "c") in transitive_closure(g).edges


def test_transitive_reduction_inverts_closure():
    g = digraph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d")])
    red = transitive_reduction(g)
    assert set(red.edges) == {("a", "b"), ("b", "c"), ("c", "d")}


def test_max_antichain_on_a_crown_past_the_recursion_limit():
    # a_i < b_i and a_i < b_(i+1 mod n), the b's listed in reverse: the
    # augmenting paths grow to about n left vertices
    n = 1000
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    p = poset(a + b[::-1], [(a[i], b[i]) for i in range(n)]
              + [(a[i], b[(i + 1) % n]) for i in range(n)])
    size, antichain, chains = max_antichain(p)
    assert size == len(antichain) == len(chains) == n
    assert not any((u, v) in p.below for u in antichain for v in antichain)
    assert all(len(c) == 2 and tuple(c) in p.below for c in chains)


def test_hamiltonian_paths_transitive_tournament():
    g = digraph("xyz", [("x", "y"), ("x", "z"), ("y", "z")])
    assert hamiltonian_paths(successor_lists(g)) == [(0, 1, 2)]
    assert count_hamiltonian_paths(g) == 1


def test_hamiltonian_paths_cyclic_tournament():
    g = digraph("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
    assert count_hamiltonian_paths(g) == 3
    assert hamiltonian_paths(successor_lists(g)) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_hamiltonian_cap():
    with pytest.raises(CapExceeded):
        hamiltonian_paths([list(range(i + 1, 13)) for i in range(13)])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_tournament_path_count_is_odd(n, rng):
    labels = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((labels[i], labels[j]))
            else:
                edges.append((labels[j], labels[i]))
    g = digraph(labels, edges)
    count = count_hamiltonian_paths(g)
    assert count % 2 == 1
    assert count == len(hamiltonian_paths(successor_lists(g)))


def test_poset_rejects_cycles():
    with pytest.raises(CyclicRelation):
        poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    # the first mutual pair in element order, never one element twice
    with pytest.raises(CyclicRelation, match="^'b' and 'c' are mutually below"):
        poset("abcd", [("d", "c"), ("c", "b"), ("b", "d")])
    with pytest.raises(UnknownVertex):
        poset("ab", [("a", "q")])


def _brute_max_antichain(p):
    """Largest subset with no comparable pair, by exhaustive search."""
    elems = list(p.elements)
    best = 0
    for r in range(len(elems), 0, -1):
        for sub in combinations(elems, r):
            ok = all(
                (u, v) not in p.below and (v, u) not in p.below
                for u, v in combinations(sub, 2)
            )
            if ok:
                return r
        if best:
            break
    return 1 if elems else 0


def test_antichain_diamond():
    p = poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    size, antichain, chains = max_antichain(p)
    assert size == 2
    assert set(antichain) == {"b", "c"}
    assert len(chains) == 2
    covered = [e for chain in chains for e in chain]
    assert sorted(covered) == list("abcd")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_antichain_equals_brute_force(n, rng):
    labels = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                pairs.append((labels[i], labels[j]))
    p = poset(labels, pairs)
    size, antichain, chains = max_antichain(p)
    assert size == _brute_max_antichain(p)
    assert size == len(chains)
    for u, v in combinations(antichain, 2):
        assert (u, v) not in p.below and (v, u) not in p.below


def test_worked_bigraph_structure(worked_tally):
    big = induced_bigraph(raw_estimates(worked_tally))
    assert set(big.d_edges) == {("2", "1"), ("1", "3"), ("3", "4"), ("4", "2")}
    assert set(big.c_edges) == {frozenset({"1", "4"}), frozenset({"2", "3"})}
    assert has_circuit(big)


def test_worked_bigraph_candidates(worked_tally):
    big = induced_bigraph(raw_estimates(worked_tally))
    results = maximal_circuit_free_subbigraphs(big)
    orders = {str(order) for _, order in results}
    assert orders == set(wx.WORKED_TOTALS)
    for sub, _ in results:
        assert not has_circuit(sub)


def test_circuit_detection_mixed_edges():
    # directed path closed by an undirected edge
    b = bigraph("abc", d_edges=[("a", "b"), ("b", "c")], c_edges=[("a", "c")])
    assert has_circuit(b)
    b2 = bigraph("abc", d_edges=[("a", "b"), ("b", "c")])
    assert not has_circuit(b2)


def test_bigraph_refuses_a_pair_in_d_both_ways():
    # the sub-bigraph walk reads a D pair as one arc against it
    with pytest.raises(InputError, match="both ways"):
        bigraph("abc", d_edges=[("a", "b"), ("b", "a")])


@st.composite
def bigraphs(draw):
    """Up to 6 vertices; each pair left out, in C, or in D either way."""
    verts = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=6)))]
    d_edges, c_edges = [], []
    for u, v in combinations(verts, 2):
        kind = draw(st.sampled_from(["none", "c", "uv", "vu"]))
        if kind == "c":
            c_edges.append((u, v))
        elif kind != "none":
            d_edges.append((u, v) if kind == "uv" else (v, u))
    return bigraph(draw(st.permutations(verts)), d_edges, c_edges)


@settings(max_examples=150, deadline=None)
@given(bigraphs())
def test_subbigraphs_match_the_completed_bigraph_walk(b):
    assert maximal_circuit_free_subbigraphs(b) == completed_bigraph_subbigraphs(b)


def test_subset_lattice_order():
    assert subset_lattice(1) == [0b1]
    assert subset_lattice(3) == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    for n in range(1, 8):
        masks = subset_lattice(n)
        assert sorted(masks) == list(range(1, 1 << n))
        keys = [(m.bit_count(), [e for e in range(n) if m >> e & 1]) for m in masks]
        assert keys == sorted(keys)


def test_strongly_connected_components():
    # a <-> b -> c -> d: components complete deepest first, members in
    # the order they were reached
    assert strongly_connected_components([[1], [0, 2], [3], []]) == [(3,), (2,), (0, 1)]


@st.composite
def label_digraphs(draw, max_vertices):
    """Up to max_vertices labels declared in any order, any arc set, self
    loops included."""
    labels = draw(st.permutations([f"v{i}" for i in range(draw(st.integers(0, max_vertices)))]))
    arcs = draw(st.sets(st.tuples(st.sampled_from(labels), st.sampled_from(labels)))
                if labels else st.just(set()))
    return digraph(labels, arcs)


@settings(max_examples=200, deadline=None)
@given(label_digraphs(9))
def test_components_match_the_label_tarjan(g):
    # the label version tries successors in label order
    succ = [sorted(s, key=g.vertices.__getitem__) for s in successor_lists(g)]
    comps = [tuple(sorted(g.vertices[v] for v in c)) for c in strongly_connected_components(succ)]
    assert comps == label_strongly_connected_components(g)


@settings(max_examples=150, deadline=None)
@given(label_digraphs(6))
def test_hamiltonian_paths_match_the_label_walk(g):
    paths = [tuple(g.vertices[v] for v in p) for p in hamiltonian_paths(successor_lists(g))]
    assert paths == label_hamiltonian_paths(g)


@settings(max_examples=200, deadline=None)
@given(label_digraphs(12))
def test_poset_closure_matches_the_label_closure(g):
    try:
        expected = label_poset(g.vertices, g.edges)
    except CyclicRelation:
        with pytest.raises(CyclicRelation):
            poset(g.vertices, g.edges)
    else:
        assert poset(g.vertices, g.edges) == expected


TG_FIXTURE = {
    "vertices": [
        {"id": "s1", "kind": "subject"},
        {"id": "s2", "kind": "subject"},
        {"id": "o1", "kind": "object"},
        {"id": "o2", "kind": "object"},
    ],
    "edges": [
        {"from": "s1", "to": "o1", "label": "take"},
        {"from": "s2", "to": "o1", "label": "grant"},
        {"from": "s2", "to": "o2", "label": "read"},
    ],
}


def test_tg_connected_path_and_negative():
    g = tg_graph_from_dict(TG_FIXTURE)
    ok, path = tg_connected(g, "s1", "s2")
    assert ok and path == ["s1", "o1", "s2"]
    # read edges do not carry tg-connectivity
    ok2, path2 = tg_connected(g, "s1", "o2")
    assert not ok2 and path2 is None
    with pytest.raises(UnknownVertex):
        tg_connected(g, "s1", "nope")


def test_tg_graph_validation():
    bad = {"vertices": [{"id": "a", "kind": "thing"}], "edges": []}
    with pytest.raises(InputError):
        tg_graph_from_dict(bad)
