import io
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice.core import enumerate_weak_orders, make_order
from preflattice.errors import (
    CapExceeded,
    InputError,
    MismatchedPairs,
    MissingLabel,
    SelfComparison,
)
from preflattice.graphalg import maximal_circuit_free_subbigraphs
from preflattice.mlorder import (
    ComparisonTally,
    induced_bigraph,
    max_likelihood_order,
    raw_estimates,
    read_comparisons_csv,
    restrict_estimates,
    tally,
    uncertainty,
)

import worked_example as wx


def test_tally_worked_counts(worked_tally):
    assert worked_tally.counts == wx.WORKED_COUNTS
    assert worked_tally.labels() == ("1", "2", "3", "4")
    assert all(worked_tally.n(pair) == 6 for pair in worked_tally.pairs())


def test_tally_orientation():
    t = tally([("b", "a", ">"), ("a", "b", ">"), ("b", "a", "=")])
    assert t.counts == {("a", "b"): (1, 1, 1)}


def test_tally_validation():
    with pytest.raises(SelfComparison):
        tally([("a", "a", ">")])
    with pytest.raises(InputError):
        tally([("a", "b", ">=")])


def test_read_comparisons_csv_skips_header():
    text = "i,j,outcome\na,b,>\n\na,b,=\n"
    assert read_comparisons_csv(io.StringIO(text)) == [
        ("a", "b", ">"), ("a", "b", "=")
    ]
    with pytest.raises(InputError):
        read_comparisons_csv(io.StringIO("a,b\n"))


def test_read_comparisons_csv_header_after_blank_lines():
    text = "\n , ,\ni,j,outcome\na,b,>\n"
    assert read_comparisons_csv(io.StringIO(text)) == [("a", "b", ">")]
    # only the first non-blank row may be the header
    rows = read_comparisons_csv(io.StringIO("a,b,>\ni,j,outcome\n"))
    with pytest.raises(InputError, match="outcome 'outcome'"):
        tally(rows)


def test_read_comparisons_csv_reports_the_physical_line():
    # the quoted cell spans lines 2-3, so the short row is on line 4
    text = 'i,j,outcome\n"a\nb",c,>\nx,y\n'
    with pytest.raises(InputError, match="^line 4: expected 3 columns, got 2$"):
        read_comparisons_csv(io.StringIO(text))


def test_raw_estimates_exact(worked_tally):
    est = raw_estimates(worked_tally)
    assert est.estimates == wx.WORKED_RAW


def test_estimate_point_validation():
    with pytest.raises(SelfComparison):
        wx.estimate_point({("a", "a"): (1, 0, 0)})
    with pytest.raises(InputError):
        wx.estimate_point({("a", "b"): (Fr(1, 2), Fr(1, 2), Fr(1, 2))})
    with pytest.raises(InputError):
        wx.estimate_point({("a", "b"): (Fr(3, 2), Fr(-1, 2), Fr(0))})
    # reversed pairs are normalised onto sorted keys
    e = wx.estimate_point({("b", "a"): (Fr(1, 2), Fr(1, 3), Fr(1, 6))})
    assert e.estimates == {("a", "b"): (Fr(1, 3), Fr(1, 2), Fr(1, 6))}


def test_induced_bigraph_worked(worked_tally):
    big = induced_bigraph(raw_estimates(worked_tally))
    assert set(big.d_edges) == {("2", "1"), ("1", "3"), ("3", "4"), ("4", "2")}
    assert set(big.c_edges) == {frozenset({"1", "4"}), frozenset({"2", "3"})}


def test_induced_bigraph_draws_no_edge_on_a_tied_maximum():
    # pi_ab ties gamma, pi_ba ties gamma, pi_ab ties pi_ba, and all three
    # tie: no share is a strict maximum, so no pair gets an edge
    e = wx.estimate_point({
        ("a", "b"): (Fr(2, 5), Fr(1, 5), Fr(2, 5)),
        ("c", "d"): (Fr(1, 5), Fr(2, 5), Fr(2, 5)),
        ("e", "f"): (Fr(2, 5), Fr(2, 5), Fr(1, 5)),
        ("g", "h"): (Fr(1, 3), Fr(1, 3), Fr(1, 3)),
    })
    big = induced_bigraph(e)
    assert big.vertices == tuple("abcdefgh")
    assert big.d_edges == frozenset()
    assert big.c_edges == frozenset()


def test_restrict_single_pair_spot_checks():
    # a strict preference pools the tie mass in as needed
    e = wx.estimate_point({("1", "2"): (Fr(1, 3), Fr(1, 2), Fr(1, 6))})
    above = make_order(["1", "2"], [["1"], ["2"]])
    r = restrict_estimates(e, above)
    assert r.estimates[("1", "2")] == (Fr(5, 12), Fr(5, 12), Fr(1, 6))

    e2 = wx.estimate_point({("1", "4"): (Fr(0), Fr(1, 3), Fr(2, 3))})
    below = make_order(["1", "4"], [["4"], ["1"]])
    r2 = restrict_estimates(e2, below)
    assert r2.estimates[("1", "4")] == (Fr(0), Fr(1, 2), Fr(1, 2))


def test_restrict_requires_covering_order(worked_tally):
    est = raw_estimates(worked_tally)
    with pytest.raises(MissingLabel):
        restrict_estimates(est, make_order(["1", "2"], [["1"], ["2"]]))


def test_worked_ranking_totals(worked_tally):
    ranked = max_likelihood_order(worked_tally)
    assert len(ranked) == 6
    got = {str(order): report for order, report in ranked}
    assert set(got) == set(wx.WORKED_TOTALS)
    for name, expected in wx.WORKED_TOTALS.items():
        report = got[name]
        assert report.total == pytest.approx(expected, abs=1e-12)
        assert report.weighted == pytest.approx(6 * expected, rel=1e-12)
        assert report.log_likelihood == -report.weighted
    # ranked ascending by weighted uncertainty; the double tie heads it
    totals = [rep.weighted for _, rep in ranked]
    assert totals == sorted(totals)
    assert str(ranked[0][0]) == "1=4>2=3"


def test_uncertainty_requires_matching_pairs(worked_tally):
    est = wx.estimate_point({("1", "2"): (Fr(1, 3), Fr(1, 2), Fr(1, 6))})
    with pytest.raises(MismatchedPairs):
        uncertainty(est, worked_tally)


def test_weak_orders_mode_small():
    t = tally([("a", "b", ">")] * 3 + [("a", "b", "<")] * 1 +
              [("b", "c", ">")] * 2 + [("b", "c", "=")] * 2 +
              [("a", "c", ">")] * 4)
    ranked = max_likelihood_order(t, mode="all-weak")
    assert len(ranked) == 13
    best_order, best = ranked[0]
    assert all(best.weighted <= rep.weighted for _, rep in ranked)
    assert str(best_order) == "a>b=c"
    with pytest.raises(InputError):
        max_likelihood_order(t, mode="sideways")


def test_candidate_generation_cap(monkeypatch):
    labels = [f"p{i}" for i in range(7)]
    rows = []
    for i in range(7):
        for j in range(i + 1, 7):
            rows.append((labels[i], labels[j], ">"))
    t = tally(rows)
    with pytest.raises(CapExceeded):
        max_likelihood_order(t)
    monkeypatch.setenv("PREFLATTICE_MAX_VERTICES", "7")
    ranked = max_likelihood_order(t)
    assert str(ranked[0][0]) == ">".join(labels)


@st.composite
def random_tally(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    labels = [chr(ord("a") + i) for i in range(n)]
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            triple = (
                draw(st.integers(min_value=0, max_value=4)),
                draw(st.integers(min_value=0, max_value=4)),
                draw(st.integers(min_value=0, max_value=4)),
            )
            if sum(triple) == 0:
                triple = (1, 0, 0)
            counts[(labels[i], labels[j])] = triple
    rows = []
    for (a, b), (s_ab, s_ba, ties) in counts.items():
        rows += [(a, b, ">")] * s_ab + [(a, b, "<")] * s_ba + [(a, b, "=")] * ties
    return tally(rows)


@settings(max_examples=40, deadline=None)
@given(random_tally())
def test_restriction_properties(t):
    raw = raw_estimates(t)
    for triple in raw.estimates.values():
        assert sum(triple) == 1
    for order in enumerate_weak_orders(t.labels()):
        restricted = restrict_estimates(raw, order)
        rank = order.ranks()
        for (a, b), (pab, pba, gamma) in restricted.estimates.items():
            assert pab + pba + gamma == 1
            assert min(pab, pba, gamma) >= 0
            if rank[a] < rank[b]:
                required = pab
            elif rank[a] > rank[b]:
                required = pba
            else:
                required = gamma
            assert required == max(pab, pba, gamma)
        # idempotence: restricting a consistent point changes nothing
        again = restrict_estimates(restricted, order)
        assert again.estimates == restricted.estimates
        rep = uncertainty(restricted, t)
        assert rep.total >= 0
        assert rep.weighted >= rep.total or t.pairs() == []


def reference_ranking(t, candidates):
    """The per-candidate path: restrict the raw estimates to each order,
    score the restriction, sort as max_likelihood_order does."""
    raw = raw_estimates(t)
    ranked = [(order, uncertainty(restrict_estimates(raw, order), t)) for order in candidates]
    ranked.sort(key=lambda item: (item[1].weighted, str(item[0])))
    return ranked


def assert_same_ranking(got, want):
    assert [str(order) for order, _ in got] == [str(order) for order, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g.total == w.total
        assert g.weighted == w.weighted
        assert g.log_likelihood == w.log_likelihood
        assert list(g.u_per_pair.items()) == list(w.u_per_pair.items())
        assert list(g.estimates.estimates.items()) == list(w.estimates.estimates.items())


@st.composite
def tie_prone_tally(draw):
    """Up to 5 labels, some pairs never compared, counts of 0-2 per
    outcome so that equally large violators are common."""
    n = draw(st.integers(min_value=2, max_value=5))
    labels = [chr(ord("a") + i) for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for a, b in draw(st.permutations(pairs)):
        if draw(st.integers(0, 5)) == 0:
            continue
        s_ab, s_ba, ties = (draw(st.integers(0, 2)) for _ in range(3))
        if s_ab + s_ba + ties == 0:
            ties = 1
        records = [(a, b, ">")] * s_ab + [(b, a, ">")] * s_ba + [(a, b, "=")] * ties
        rows += draw(st.permutations(records))
    if not rows:
        rows = [(labels[0], labels[1], "=")]
    return tally(rows)


@settings(max_examples=40, deadline=None)
@given(tie_prone_tally())
def test_weak_orders_mode_matches_per_candidate_reference(t):
    got = max_likelihood_order(t, mode="all-weak")
    assert_same_ranking(got, reference_ranking(t, list(enumerate_weak_orders(t.labels()))))


@settings(max_examples=60, deadline=None)
@given(tie_prone_tally())
def test_subbigraph_mode_matches_per_candidate_reference(t):
    big = induced_bigraph(raw_estimates(t))
    candidates = [order for _, order in maximal_circuit_free_subbigraphs(big)]
    assert_same_ranking(max_likelihood_order(t), reference_ranking(t, candidates))


@settings(max_examples=60, deadline=None)
@given(tie_prone_tally(), st.data())
def test_explicit_candidates_match_per_candidate_reference(t, data):
    orders = list(enumerate_weak_orders(t.labels()))
    picked = data.draw(st.lists(st.sampled_from(orders), max_size=8))
    got = max_likelihood_order(t, candidates=picked)
    assert_same_ranking(got, reference_ranking(t, picked))


def test_zero_trial_pair_raises_mismatched_pairs():
    t = ComparisonTally({("a", "b"): (2, 1, 0), ("a", "c"): (0, 0, 0), ("b", "c"): (1, 1, 1)})
    for mode in ("all-weak", "subbigraph"):
        with pytest.raises(MismatchedPairs):
            max_likelihood_order(t, mode=mode)
    order = make_order(["a", "b", "c"], [["a"], ["b", "c"]])
    with pytest.raises(MismatchedPairs):
        max_likelihood_order(t, candidates=[order])
    with pytest.raises(MismatchedPairs):
        uncertainty(restrict_estimates(raw_estimates(t), order), t)


def test_uncovered_pair_named_in_tally_order():
    t = tally([("a", "b", ">"), ("b", "c", ">"), ("a", "c", ">")])
    partial = make_order(["a", "b"], [["a"], ["b"]])
    message = r"does not cover pair \('b','c'\)"
    with pytest.raises(MissingLabel, match=message):
        max_likelihood_order(t, candidates=[partial])
    with pytest.raises(MissingLabel, match=message):
        restrict_estimates(raw_estimates(t), partial)
