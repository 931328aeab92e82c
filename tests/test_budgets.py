"""Each enumeration and solve cap at its edge: an input exactly at the cap
runs, and one just past it raises CapExceeded before any of the capped
work starts. Through the command line the just-past input exits 3 with
empty stdout and one JSON line on stderr.

The at-cap inputs are the cheapest shapes of their size; on a shared
2-core host the 100-state cycle takes about 0.12 s, the count at 1000
about 0.6 s and the 47,293 orders on 7 labels about 0.05 s.
"""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from preflattice import mlorder
from preflattice.cli import main
from preflattice.core import (
    COUNT_CAP,
    ENUMERATION_CAP,
    LabeledMatrix,
    count_weak_orders,
    enumerate_weak_orders,
)
from preflattice.entropy import STATIONARY_MAX_DIM, stationary_distribution
from preflattice.errors import CapExceeded
from preflattice.graphalg import HAMILTONIAN_CAP, hamiltonian_paths
from preflattice.mlorder import CANDIDATE_CAP, max_likelihood_order, tally


@pytest.fixture(autouse=True)
def default_caps(monkeypatch):
    monkeypatch.delenv("PREFLATTICE_MAX_VERTICES", raising=False)


class Unread:
    """A sequence of n items that fails the test when any item is read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError("an item was read before the cap was checked")

    def __iter__(self):
        raise AssertionError("the items were read before the cap was checked")


def cycle_chain(n):
    """The n-state chain that steps from each state to the next, mod n."""
    return LabeledMatrix(tuple(f"s{i}" for i in range(n)),
                         tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n)))


def linear_tally(n):
    """Paired comparisons of n labels, each pair once, the first label winning."""
    labels = [f"m{i}" for i in range(n)]
    return tally([(a, b, ">") for i, a in enumerate(labels) for b in labels[i + 1:]])


def test_stationary_distribution_at_and_past_the_state_cap():
    assert STATIONARY_MAX_DIM == 100
    sr = stationary_distribution(cycle_chain(100))
    assert list(sr.distribution) == [Fraction(1, 100)] * 100
    with pytest.raises(CapExceeded):
        stationary_distribution(SimpleNamespace(labels=None, rows=Unread(101)))


def test_hamiltonian_paths_at_and_past_the_vertex_cap():
    assert HAMILTONIAN_CAP == 10
    assert hamiltonian_paths([[v + 1] for v in range(9)] + [[]]) == [tuple(range(10))]
    with pytest.raises(CapExceeded):
        hamiltonian_paths(Unread(11))


def test_count_weak_orders_at_and_past_the_count_cap():
    assert COUNT_CAP == 1000
    assert len(str(count_weak_orders(1000))) == 2727
    with pytest.raises(CapExceeded):
        count_weak_orders(1001)


def test_candidate_generation_at_and_past_the_label_cap(monkeypatch):
    assert CANDIDATE_CAP == 6
    for mode in ("subbigraph", "all-weak"):
        ranked = max_likelihood_order(linear_tally(6), mode=mode)
        assert str(ranked[0][0]) == "m0>m1>m2>m3>m4>m5"

    def no_candidates(*_):
        raise AssertionError("candidates generated past the cap")

    monkeypatch.setattr(mlorder, "maximal_circuit_free_subbigraphs", no_candidates)
    monkeypatch.setattr(mlorder, "enumerate_weak_orders", no_candidates)
    for mode in ("subbigraph", "all-weak"):
        with pytest.raises(CapExceeded):
            max_likelihood_order(linear_tally(7), mode=mode)


def test_enumeration_at_and_past_the_label_cap():
    assert ENUMERATION_CAP == 7
    assert sum(1 for _ in enumerate_weak_orders("abcdefg")) == count_weak_orders(7) == 47293
    with pytest.raises(CapExceeded):
        next(enumerate_weak_orders("abcdefgh"))


def test_cli_just_past_each_cap_exits_3_with_one_json_line(tmp_path, capsys):
    policies = [f"p{i}" for i in range(101)]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"policies": policies,
                                   "voters": [{"id": "v", "ranking": [policies]}]}))
    comparisons = tmp_path / "comparisons.csv"
    comparisons.write_text("".join(f"{a},{b},>\n" for a, b in linear_tally(7).pairs()))
    cases = [
        (["count-orders", "1001"], "counting weak orders on 1001 policies exceeds the cap of 1000"),
        (["enumerate-orders", *"abcdefgh"], "enumeration over 8 policies exceeds the cap of 7"),
        (["entropy", "--mode", "markov", str(profile)],
         "stationary distribution needs at most 100 states, got 101"),
        (["mlorder", str(comparisons)], "candidate generation over 7 labels exceeds the cap of 6"),
    ]
    for argv, message in cases:
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (3, ""), argv
        assert json.loads(err) == {"error": "CapExceeded", "message": message}, argv
