import io
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice.core import (
    Order,
    Profile,
    count_weak_orders,
    enumerate_weak_orders,
    make_order,
    preference_matrix,
    profile_from_dict,
    transition_matrix,
)
from preflattice.errors import (
    AmbiguousLabel,
    CapExceeded,
    DuplicateLabel,
    EmptyGroup,
    InputError,
    MissingLabel,
    UnknownLabel,
)
from preflattice.mlorder import read_comparisons_csv, tally
from preflattice.selforg import read_postings_csv

ORDERED_BELL = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


def test_count_weak_orders_known_values():
    for n, expected in ORDERED_BELL.items():
        assert count_weak_orders(n) == expected


def ordered_bell_by_recurrence(n_max):
    """a(0..n_max) from a(m) = sum over k of C(m, k) a(m - k): the
    reference for the closed-form series."""
    a = [1]
    for m in range(1, n_max + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a


def test_count_weak_orders_matches_recurrence():
    a = ordered_bell_by_recurrence(300)
    for n in list(range(1, 61)) + [99, 100, 101, 127, 128, 200, 256, 299, 300]:
        assert count_weak_orders(n) == a[n], n


def test_count_weak_orders_rejects_nonpositive():
    with pytest.raises(InputError):
        count_weak_orders(0)


def test_enumeration_matches_count_and_is_distinct():
    labels = ["a", "b", "c", "d"]
    orders = list(enumerate_weak_orders(labels))
    assert len(orders) == 75
    assert len({str(o) for o in orders}) == 75
    for o in orders:
        assert sorted(o.policies) == labels


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_weak_orders("abcdefgh"))


def test_enumeration_cap_override(monkeypatch):
    monkeypatch.setenv("PREFLATTICE_MAX_VERTICES", "3")
    with pytest.raises(CapExceeded):
        list(enumerate_weak_orders("abcd"))
    monkeypatch.setenv("PREFLATTICE_MAX_VERTICES", "junk")
    with pytest.raises(InputError):
        list(enumerate_weak_orders("ab"))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_enumeration_count_property(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    orders = list(enumerate_weak_orders(labels))
    assert len(orders) == count_weak_orders(n)
    assert len(set(orders)) == len(orders)


def enumerate_weak_orders_recursive(labels):
    """The enumerator as one generator per label, each delegating to the
    next: the reference for the single-stack version."""
    labels = list(labels)

    def build(i, groups):
        if i == len(labels):
            yield Order(tuple(tuple(sorted(g)) for g in groups))
            return
        lab = labels[i]
        for gi in range(len(groups)):
            yield from build(i + 1, groups[:gi] + [groups[gi] + [lab]] + groups[gi + 1:])
        for gi in range(len(groups) + 1):
            yield from build(i + 1, groups[:gi] + [[lab]] + groups[gi:])

    yield from build(1, [[labels[0]]])


def test_enumeration_matches_recursive_reference():
    rng = random.Random(7)
    for n in range(1, 8):
        labels = [f"x{i}" for i in range(n)]
        for order in (labels, rng.sample(labels, n)):
            assert list(enumerate_weak_orders(order)) == list(
                enumerate_weak_orders_recursive(order)
            ), order


def test_enumeration_is_lazy(monkeypatch):
    monkeypatch.setenv("PREFLATTICE_MAX_VERTICES", "10")
    labels = [f"x{i}" for i in range(10)]
    start = time.perf_counter()
    first = next(enumerate_weak_orders(labels))
    assert time.perf_counter() - start < 1.0
    assert first == Order((tuple(sorted(labels)),))


@pytest.mark.parametrize("labels", [["a=b", "a", "b"], ["a", ""], ["a>b", "c"]],
                         ids=["tie-sign", "empty", "rank-sign"])
def test_ambiguous_labels_are_refused(labels):
    with pytest.raises(AmbiguousLabel):
        next(enumerate_weak_orders(labels))
    with pytest.raises(AmbiguousLabel):
        make_order(labels, [labels])


def test_make_order_canonicalizes_and_prints():
    o = make_order(["w", "x", "y", "z"], [["x", "w"], ["z"], ["y"]])
    assert o.groups == (("w", "x"), ("z",), ("y",))
    assert str(o) == "w=x>z>y"
    assert o.ranks() == {"w": 0, "x": 0, "z": 1, "y": 2}
    assert not o.is_strong()
    assert make_order("ab", [["a"], ["b"]]).is_strong()


def test_make_order_validation():
    with pytest.raises(EmptyGroup):
        make_order([], [])
    with pytest.raises(EmptyGroup):
        make_order("ab", [["a"], [], ["b"]])
    with pytest.raises(DuplicateLabel):
        make_order(["a", "a"], [["a"]])
    with pytest.raises(DuplicateLabel):
        make_order("ab", [["a", "b"], ["a"]])
    with pytest.raises(UnknownLabel):
        make_order("ab", [["a", "c"], ["b"]])
    with pytest.raises(MissingLabel):
        make_order("abc", [["a"], ["b"]])


def test_profile_validation():
    good = make_order("ab", [["a"], ["b"]])
    with pytest.raises(InputError):
        Profile(("a", "b"), ())
    with pytest.raises(DuplicateLabel):
        Profile(("a", "b"), (("v", good), ("v", good)))
    short = make_order("a", [["a"]])
    with pytest.raises(MissingLabel):
        Profile(("a", "b"), (("v", short),))


def test_profile_from_dict_completes_partial_ballots():
    p = profile_from_dict(
        {
            "policies": ["a", "b", "c"],
            "voters": [
                {"id": "v1", "ranking": [["b"]]},
                {"id": "v2", "ranking": [["a"], ["b"], ["c"]]},
            ],
        }
    )
    assert p.completed == ("v1",)
    order = dict(p.voters)["v1"]
    assert order.groups == (("b",), ("a", "c"))


def test_preference_matrix_tie_structure():
    o = make_order("xyz", [["x"], ["y", "z"]])
    m = preference_matrix(o)
    assert m.labels == ("x", "y", "z")
    assert m.rows == ((1, 1, 1), (0, 1, 1), (0, 1, 1))


def test_transition_matrix_rows_are_exact_distributions():
    o = make_order("wxyz", [["w"], ["x"], ["y", "z"]])
    m = transition_matrix(o)
    for row in m.rows:
        assert sum(row) == 1
        assert all(isinstance(x, Fraction) for x in row)
    # top group loops on itself, each lower group climbs one rung
    assert m.entry("w", "w") == 1
    assert m.entry("x", "w") == 1
    assert m.entry("y", "x") == 1
    assert m.entry("z", "x") == 1


def test_transition_matrix_jump_mode_and_validation():
    o = make_order("abc", [["a", "b"], ["c"]])
    m = transition_matrix(o, mode="jump-to-top")
    assert m.entry("c", "a") == Fraction(1, 2)
    assert m.entry("c", "b") == Fraction(1, 2)
    with pytest.raises(InputError):
        transition_matrix(o, mode="sideways")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_transition_rows_stochastic_property(n, rng):
    labels = [chr(ord("a") + i) for i in range(n)]
    rng.shuffle(labels)
    # random tie-group split
    groups = []
    for lab in labels:
        if groups and rng.random() < 0.4:
            groups[-1].append(lab)
        else:
            groups.append([lab])
    o = make_order(sorted(labels), groups)
    for mode in ("climb-one-rung", "jump-to-top"):
        m = transition_matrix(o, mode=mode)
        assert all(sum(row) == 1 for row in m.rows)


# Both CSV readers go through core.csv_rows; each is paired with what
# refuses a stray header row read as data (the tally refuses the outcome
# "outcome", the postings reader the time "t").
CSV_READERS = {
    "comparisons": ("i,j,outcome", "a,b,>", lambda fh: tally(read_comparisons_csv(fh)).counts),
    "postings": ("t,subscriber,thread,kind,parent", "1,alice,m1,initiate,", read_postings_csv),
}


@pytest.mark.parametrize("name", sorted(CSV_READERS))
def test_csv_readers_share_row_rules(name):
    header, row, parse = CSV_READERS[name]

    def read(text):
        return parse(io.StringIO(text))

    columns = len(header.split(","))
    # line numbers count the blank rows
    with pytest.raises(InputError, match=f"^line 5: expected {columns} columns, got 2$"):
        read(f"\n{header}\n\n{row}\nx,y\n")
    # the header is skipped when blank rows come first
    assert read(f"\n{',' * (columns - 1)}\n{header}\n{row}\n") == read(f"{row}\n")
    # but not after data
    with pytest.raises(InputError):
        read(f"{row}\n{header}\n")
