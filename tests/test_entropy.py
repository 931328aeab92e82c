from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice.core import LabeledMatrix, profile_from_dict
from preflattice.core import preference_matrix, transition_matrix
from preflattice.entropy import (
    markov_aggregate,
    markov_order,
    mean_preference_matrix,
    shannon_entropy,
    spectral_radius,
    stationary_distribution,
    topological_entropy,
)
from preflattice.errors import NotADistribution

import worked_example as wx
from oracles import cesaro_exact, cesaro_absorbing


def one_voter(policies, groups):
    return profile_from_dict(
        {"policies": list(policies),
         "voters": [{"id": "v", "ranking": groups}]}
    )


def test_spectral_radius_triangular():
    m = LabeledMatrix(("a", "b"), ((2, 1), (0, 3)))
    assert spectral_radius(m) == pytest.approx(3.0, abs=1e-9)


def test_topological_entropy_strict_order_is_zero():
    p = one_voter("xyz", [["x"], ["y"], ["z"]])
    assert topological_entropy(p).value == 0.0


def test_topological_entropy_single_tie():
    p = one_voter("xyz", [["x"], ["y", "z"]])
    ev = topological_entropy(p)
    assert ev.base == 3
    assert ev.value == pytest.approx(wx.PARADOX_TOPO_ENTROPY, abs=1e-9)


def test_topological_entropy_total_indifference_exact():
    p = one_voter("xyz", [["x", "y", "z"]])
    assert topological_entropy(p).value == 1.0


def test_topological_entropy_paradox(paradox):
    ev = topological_entropy(paradox)
    assert ev.value == pytest.approx(wx.PARADOX_TOPO_ENTROPY, abs=1e-9)
    assert spectral_radius(mean_preference_matrix(paradox)) == pytest.approx(
        2.0, abs=1e-9
    )


def test_stationary_borda_exact(borda4):
    sr = stationary_distribution(markov_aggregate(borda4))
    assert sr.labels == ("w", "x", "y", "z")
    assert sr.distribution == wx.BORDA4_STATIONARY


def test_stationary_restricted_exact(borda3):
    sr = stationary_distribution(markov_aggregate(borda3))
    assert sr.distribution == wx.BORDA3_STATIONARY


def test_stationary_paradox_uniform(paradox):
    sr = stationary_distribution(markov_aggregate(paradox))
    assert sr.distribution == (Fraction(1, 3),) * 3


def test_stationary_periodic_chain():
    m = LabeledMatrix(("a", "b"), ((Fraction(0), Fraction(1)),
                                   (Fraction(1), Fraction(0))))
    sr = stationary_distribution(m)
    assert sr.distribution == (Fraction(1, 2), Fraction(1, 2))


def test_stationary_reducible_absorbing():
    m = LabeledMatrix(
        ("a", "b", "c"),
        (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        ),
    )
    sr = stationary_distribution(m)
    assert sr.distribution == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_stationary_large_matrix_is_exact():
    n = 13
    labels = tuple(f"s{i}" for i in range(n))
    rows = tuple(
        tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n)
    )
    sr = stationary_distribution(LabeledMatrix(labels, rows))
    assert sr.distribution == (Fraction(1, n),) * n


def test_stationary_float_rows_are_divided_by_their_exact_sums():
    # 0.1 + 0.2 + 0.7 is 1.0 in floats but not over the rationals
    rows = ((0.1, 0.2, 0.7), (0.5, 0.5, 0.0), (0.0, 0.25, 0.75))
    y = stationary_distribution(LabeledMatrix(("a", "b", "c"), rows)).distribution
    assert sum(y) == 1
    assert [float(x) for x in y] == pytest.approx(cesaro_absorbing(rows), rel=1e-12)


def test_stationary_rejects_bad_rows():
    with pytest.raises(NotADistribution):
        stationary_distribution(LabeledMatrix(("a", "b"), ((1, 1), (0, 1))))
    with pytest.raises(NotADistribution):
        stationary_distribution(
            LabeledMatrix(("a", "b"), ((Fraction(3, 2), Fraction(-1, 2)), (0, 1)))
        )


def test_shannon_entropy_fixtures():
    assert shannon_entropy(wx.BORDA4_STATIONARY, base=4).value == pytest.approx(
        wx.BORDA4_SHANNON, abs=1e-12
    )
    assert shannon_entropy(wx.BORDA3_STATIONARY, base=3).value == pytest.approx(
        wx.BORDA3_SHANNON, abs=1e-12
    )
    assert shannon_entropy((1, 0, 0), base=3).value == 0.0
    with pytest.raises(NotADistribution):
        shannon_entropy((0.7, 0.7), base=2)


def test_markov_order_groups_ties(borda4, paradox):
    assert str(markov_order(stationary_distribution(markov_aggregate(borda4)))) == "w>x>y>z"
    assert str(markov_order(stationary_distribution(markov_aggregate(paradox)))) == "x=y=z"


@st.composite
def stochastic_matrix(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = []
    for _ in range(n):
        weights = draw(
            st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)
            .filter(lambda w: sum(w) > 0)
        )
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    labels = tuple(f"s{i}" for i in range(n))
    return LabeledMatrix(labels, tuple(rows))


@settings(max_examples=60, deadline=None)
@given(stochastic_matrix())
def test_stationary_is_invariant_distribution(m):
    y = stationary_distribution(m).distribution
    assert all(isinstance(x, Fraction) for x in y)
    assert sum(y) == 1
    assert all(x >= 0 for x in y)
    n = len(y)
    for j in range(n):
        assert sum(y[i] * m.rows[i][j] for i in range(n)) == y[j]


@st.composite
def layered_profile(draw, max_voters=6, min_k=2, max_k=8):
    """Profiles over min_k-max_k policies split into consecutive layers that
    every voter ranks in the same order, each voter drawing any weak order
    inside each layer: unanimous orderings between tied blocks make the mean
    preference matrix reducible, and often defective."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    labels = [f"p{i}" for i in range(k)]
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=k - 1))))
    layers = [labels[a:b] for a, b in zip([0] + cuts, cuts + [k])]
    n = draw(st.integers(min_value=1, max_value=max_voters))
    pool = draw(st.integers(min_value=1, max_value=n))  # few distinct ballots repeat
    ballots = []
    for _ in range(pool):
        ranking = []
        for layer in layers:
            ranks = draw(st.lists(st.integers(0, len(layer) - 1),
                                  min_size=len(layer), max_size=len(layer)))
            ranking += [[p for p, r in zip(layer, ranks) if r == g] for g in sorted(set(ranks))]
        ballots.append(ranking)
    picks = draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))
    return profile_from_dict({
        "policies": labels,
        "voters": [{"id": f"v{i}", "ranking": ballots[b]} for i, b in enumerate(picks)],
    })


@st.composite
def sparse_chain(draw, min_n, max_n):
    """Chains with a few successors per state: each state follows a random
    permutation (periodic cycles), stays put (absorbing), or follows it and
    adds up to two weighted successors, so closed classes, transient states
    and periods all occur."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(("cycle", "absorb", "mix")))
        weights = [0] * n
        weights[i if kind == "absorb" else perm[i]] = 1
        if kind == "mix":
            for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
                weights[j] += draw(st.integers(1, 9))
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return LabeledMatrix(tuple(f"s{i}" for i in range(n)), tuple(rows))


@settings(max_examples=150, deadline=None)
@given(st.one_of(stochastic_matrix(), sparse_chain(1, 12),
                 layered_profile(max_k=12).map(markov_aggregate)))
def test_stationary_matches_rational_projector_up_to_12(m):
    assert stationary_distribution(m).distribution == tuple(cesaro_exact(m.rows))


@settings(max_examples=40, deadline=None)
@given(st.one_of(stochastic_matrix(13, 20), sparse_chain(13, 40),
                 layered_profile(min_k=13, max_k=40).map(markov_aggregate)))
def test_stationary_matches_least_squares_from_13_to_40(m):
    y = stationary_distribution(m).distribution
    assert [float(x) for x in y] == pytest.approx(cesaro_absorbing(m.rows), rel=1e-12)


def oracle_spectral_radius(rows):
    """Largest |eigenvalue| over the SCC blocks of the support, the blocks
    found by boolean transitive closure."""
    a = np.array([[float(x) for x in row] for row in rows])
    n = len(a)
    reach = (a != 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    radius = 0.0
    for i in range(n):
        block = [j for j in range(n) if reach[i, j] and reach[j, i]]
        radius = max(radius, float(max(abs(np.linalg.eigvals(a[np.ix_(block, block)])))))
    return radius


@settings(max_examples=200, deadline=None)
@given(layered_profile())
def test_spectral_radius_matches_block_eigenvalue_oracle(profile):
    f = mean_preference_matrix(profile)
    assert spectral_radius(f) == pytest.approx(oracle_spectral_radius(f.rows), rel=1e-9)


def test_spectral_radius_strict_order_is_exactly_one():
    labels = [f"p{i}" for i in range(10)]
    p = one_voter(labels, [[x] for x in labels])
    assert spectral_radius(mean_preference_matrix(p)) == 1.0


def test_spectral_radius_defective_tied_blocks():
    # two tied pairs, one unanimously above the other: a defective root 2
    p = one_voter("abcd", [["a", "b"], ["c", "d"]])
    assert spectral_radius(mean_preference_matrix(p)) == 2.0


def summed_oracle(profile, matrix_of):
    """Per-voter summation of matrix_of(order), aligned by label lookup."""
    labels = profile.policies
    acc = [[Fraction(0)] * len(labels) for _ in labels]
    for order in profile.orders():
        m = matrix_of(order)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                acc[i][j] += m.entry(a, b)
    return tuple(tuple(x / profile.n_voters for x in row) for row in acc)


@settings(max_examples=100, deadline=None)
@given(layered_profile())
def test_mean_matrices_equal_per_voter_sums(profile):
    f = mean_preference_matrix(profile)
    assert f.labels == profile.policies
    assert f.rows == summed_oracle(profile, preference_matrix)
    for mode in ("climb-one-rung", "jump-to-top"):
        m = markov_aggregate(profile, mode)
        assert m.labels == profile.policies
        assert m.rows == summed_oracle(profile, lambda o: transition_matrix(o, mode))


def test_spectral_radius_does_not_stop_on_a_repeated_growth():
    # From the uniform start the growth of A + I reads 4.125 on the first
    # two steps, while the Perron root is 3.1262...
    block = [[1, 1, 0.75, 0.5], [0.75, 1, 0.75, 0.5],
             [0.75, 1, 1, 0.5], [0.75, 0.75, 0.5, 1]]
    expected = max(abs(np.linalg.eigvals(np.array(block))))
    m = LabeledMatrix(tuple("abcd"), tuple(map(tuple, block)))
    assert spectral_radius(m) == pytest.approx(expected, rel=1e-9)


def test_spectral_radius_does_not_stop_on_a_turning_growth():
    # The growth of A + I falls towards the root, overshoots it and turns
    # back: two steps 2.5e-12 apart while it is still 3.3e-9 off.
    ballots = [[["p0"], ["p1", "p4"], ["p5"], ["p3"], ["p2"]]] * 3 + [
        [["p0"], ["p1", "p3"], ["p5"], ["p4"], ["p2"]],
        [["p0"], ["p1"], ["p5"], ["p2", "p3"], ["p4"]],
        [["p0"], ["p1"], ["p5"], ["p2", "p3"], ["p4"]],
    ]
    profile = profile_from_dict({
        "policies": [f"p{i}" for i in range(6)],
        "voters": [{"id": f"v{i}", "ranking": r} for i, r in enumerate(ballots)],
    })
    f = mean_preference_matrix(profile)
    assert spectral_radius(f) == pytest.approx(oracle_spectral_radius(f.rows), rel=1e-12)
