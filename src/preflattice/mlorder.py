"""Maximum-likelihood preference orders from paired-comparison data.

Pairwise tallies, multinomial estimates, the bigraph the estimates induce,
order-constrained (restricted) estimates, per-pair uncertainty, and the
ranking of candidate orders by total uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Bigraph, Order, check_labels, csv_rows, enumerate_weak_orders
from .errors import (
    CapExceeded,
    InputError,
    MismatchedPairs,
    MissingLabel,
    SelfComparison,
    vertex_cap,
)
from .graphalg import maximal_circuit_free_subbigraphs

CANDIDATE_CAP = 6

OUTCOMES = (">", "<", "=")


@dataclass(frozen=True)
class ComparisonTally:
    """Counts per unordered pair: wins of the smaller label, wins of the
    larger, ties. Pairs with no trials are absent."""

    counts: dict  # (a, b) sorted -> (s_ab, s_ba, t_ab)

    def pairs(self):
        return sorted(self.counts)

    def n(self, pair):
        return sum(self.counts[pair])

    def labels(self):
        out = set()
        for a, b in self.counts:
            out.add(a)
            out.add(b)
        return tuple(sorted(out))


@dataclass(frozen=True)
class EstimatePoint:
    """Per pair (a, b) sorted: (pi_ab, pi_ba, gamma) as exact rationals
    summing to 1."""

    estimates: dict  # (a, b) -> (Fraction, Fraction, Fraction)


@dataclass
class UncertaintyReport:
    """Uncertainty of one candidate order against a tally.

    ``total`` is the unweighted sum of per-pair uncertainties (the
    table-compatible figure); ``weighted`` multiplies each pair by its
    trial count, and ``log_likelihood`` is its negation.
    """

    estimates: EstimatePoint
    u_per_pair: dict  # (a, b) -> float
    total: float
    weighted: float
    log_likelihood: float


def tally(comparisons) -> ComparisonTally:
    """Accumulate (i, j, outcome) records; outcome '>' means i beat j,
    '<' means j beat i, '=' a tie."""
    counts = {}
    for i, j, outcome in comparisons:
        if i == j:
            raise SelfComparison(f"comparison of {i!r} with itself")
        if outcome not in OUTCOMES:
            raise InputError(f"outcome {outcome!r} is not one of >, <, =")
        key = (i, j) if i < j else (j, i)
        s_ab, s_ba, t_ab = counts.get(key, (0, 0, 0))
        first_won = (outcome == ">") == (key == (i, j))
        if outcome == "=":
            t_ab += 1
        elif first_won:
            s_ab += 1
        else:
            s_ba += 1
        counts[key] = (s_ab, s_ba, t_ab)
    return ComparisonTally(counts)


def read_comparisons_csv(fileobj):
    """Rows ``i,j,outcome``; a header row with those names is skipped when
    it is the first non-blank row."""
    return [cells for _, cells in csv_rows(fileobj, ("i", "j", "outcome"))]


def raw_estimates(t: ComparisonTally) -> EstimatePoint:
    """Sample shares s/n, s'/n, t/n per pair, exact."""
    out = {}
    for pair, (s_ab, s_ba, t_ab) in t.counts.items():
        n = s_ab + s_ba + t_ab
        if n == 0:
            continue
        out[pair] = (Fraction(s_ab, n), Fraction(s_ba, n), Fraction(t_ab, n))
    return EstimatePoint(out)


def induced_bigraph(e: EstimatePoint) -> Bigraph:
    """Directed edge a -> b when pi_ab strictly beats both alternatives;
    undirected edge when gamma does; no edge without a strict maximum."""
    verts = set()
    for a, b in e.estimates:
        verts.add(a)
        verts.add(b)
    d_edges = set()
    c_edges = set()
    for (a, b), (pab, pba, g) in e.estimates.items():
        if pab > max(pba, g):
            d_edges.add((a, b))
        elif pba > max(pab, g):
            d_edges.add((b, a))
        elif g > max(pab, pba):
            c_edges.add(frozenset((a, b)))
    return Bigraph(tuple(sorted(verts)), frozenset(d_edges), frozenset(c_edges))


def _relations(rank, pairs):
    """Per pair (a, b), how the ranks relate a and b: 0 for a above b, 1
    for b above a, 2 for a tie. The first pair the ranks do not cover
    raises MissingLabel."""
    rels = []
    for a, b in pairs:
        if a not in rank or b not in rank:
            raise MissingLabel(f"target order does not cover pair ({a!r},{b!r})")
        ra, rb = rank[a], rank[b]
        rels.append(0 if ra < rb else 1 if ra > rb else 2)
    return rels


def _pool(triple, required):
    """Pool the required category with its largest violator, both taking
    the mean, until it is weakly maximal."""
    vals = list(triple)
    while vals[required] < max(v for k, v in enumerate(vals) if k != required):
        k = min((k for k in range(3) if k != required), key=lambda k: (-vals[k], k))
        pooled = (vals[required] + vals[k]) / 2
        vals[required] = pooled
        vals[k] = pooled
    return tuple(vals)


def _pair_term(pair, shares, n):
    """(pair, U, n * U) with U = -(sum of share * log10 share), zero shares
    contributing nothing."""
    u = -sum(float(x) * math.log10(float(x)) for x in shares if x > 0)
    u = max(u, 0.0)
    return pair, u, n * u


def _report(restricted: EstimatePoint, terms) -> UncertaintyReport:
    """Sum per-pair terms, given in sorted-pair order, into a report."""
    u_per_pair = {}
    total = 0.0
    weighted = 0.0
    for pair, u, nu in terms:
        u_per_pair[pair] = u
        total += u
        weighted += nu
    return UncertaintyReport(
        estimates=restricted,
        u_per_pair=u_per_pair,
        total=total,
        weighted=weighted,
        log_likelihood=-weighted,
    )


def restrict_estimates(e: EstimatePoint, target: Order) -> EstimatePoint:
    """Force each pair's estimates to be consistent with the target order.

    The category the target requires dominant (pi_ab for a above b, gamma
    for a tie) is pooled with its largest violator, both taking the mean,
    until it is weakly maximal. Pools are exact; among equally large
    violators the strict-preference category is pooled before the tie
    category.
    """
    rels = _relations(target.ranks(), e.estimates)
    return EstimatePoint({
        pair: _pool(triple, rel)
        for (pair, triple), rel in zip(e.estimates.items(), rels)
    })


def uncertainty(restricted: EstimatePoint, t: ComparisonTally) -> UncertaintyReport:
    """Per-pair U = -(sum of share * log10 share), zero shares contributing
    nothing, plus the unweighted and trial-weighted totals."""
    if set(restricted.estimates) != set(t.counts):
        raise MismatchedPairs(
            "estimates and tally cover different comparison pairs"
        )
    return _report(restricted, [
        _pair_term(pair, restricted.estimates[pair], t.n(pair))
        for pair in sorted(restricted.estimates)
    ])


class _RestrictionTable:
    """Every restriction of the raw estimates, scored once per pair.

    A pair's restricted triple depends only on how the order relates its
    two labels, so each pair keeps one (restricted triple, term) entry per
    relation code of ``_relations``. Scoring an order is then a lookup,
    summed in sorted-pair order as ``uncertainty`` sums, so every figure
    equals ``uncertainty(restrict_estimates(raw, order), t)`` bit for bit,
    errors included.
    """

    def __init__(self, raw: EstimatePoint, t: ComparisonTally):
        self.pairs = list(raw.estimates)  # raw order: MissingLabel names the same pair
        self.sorted_idx = sorted(range(len(self.pairs)), key=self.pairs.__getitem__)
        self.matches_tally = set(raw.estimates) == set(t.counts)
        self.rows = []
        for pair, triple in raw.estimates.items():
            pooled = [_pool(triple, rel) for rel in range(3)]
            self.rows.append([(p, _pair_term(pair, p, t.n(pair))) for p in pooled])

    def score(self, order: Order) -> UncertaintyReport:
        rels = _relations(order.ranks(), self.pairs)
        if not self.matches_tally:
            raise MismatchedPairs(
                "estimates and tally cover different comparison pairs"
            )
        entries = [row[rel] for row, rel in zip(self.rows, rels)]
        return _report(
            EstimatePoint({p: e[0] for p, e in zip(self.pairs, entries)}),
            [entries[i][1] for i in self.sorted_idx],
        )


def max_likelihood_order(t: ComparisonTally, candidates=None, mode: str = "subbigraph"):
    """Rank candidate orders by uncertainty, most likely (smallest
    trial-weighted total) first; equal totals sit adjacent.

    Without explicit candidates the label count is capped (default 6) and
    candidates come from the maximal circuit-free sub-bigraphs of the raw
    estimates' induced bigraph, or from full weak-order enumeration with
    mode="all-weak". Every candidate is scored through one restriction
    table of the raw estimates. Near-ties are broken by the printed order,
    so labels must keep it unambiguous (see check_labels).
    """
    labels = t.labels()
    check_labels(labels)
    raw = raw_estimates(t)
    if candidates is None:
        cap = vertex_cap(CANDIDATE_CAP)
        if len(labels) > cap:
            raise CapExceeded(
                f"candidate generation over {len(labels)} labels exceeds the cap of {cap}"
            )
        if mode == "subbigraph":
            big = induced_bigraph(raw)
            candidates = [order for _, order in maximal_circuit_free_subbigraphs(big)]
        elif mode == "all-weak":
            candidates = enumerate_weak_orders(labels)
        else:
            raise InputError(f"unknown candidate mode {mode!r}")
    table = _RestrictionTable(raw, t)
    ranked = [(order, table.score(order)) for order in candidates]
    ranked.sort(key=lambda item: (item[1].weighted, str(item[0])))
    return ranked
