"""Canonical preference representations.

A weak order is a ranked partition of the policy set: tie-groups listed
best first. Strong orders are the tie-free special case. Profiles collect
one order per voter over a shared policy set. Bigraphs hold directed
preference edges D and undirected indifference edges C over the same
labels. Counting and enumeration of weak orders (ordered Bell numbers)
live here too, since everything downstream leans on them, and so does
the row reader that the comparisons and posting-event CSV readers share.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AmbiguousLabel,
    CapExceeded,
    DuplicateLabel,
    EmptyGroup,
    InputError,
    MissingLabel,
    UnknownLabel,
    vertex_cap,
)

ENUMERATION_CAP = 7
COUNT_CAP = 1000  # the count at 1000 has 2727 digits, within int-to-str's default 4300


@dataclass(frozen=True)
class Order:
    """A weak preference order: tie-groups of labels, best first."""

    groups: tuple[tuple[str, ...], ...]

    @property
    def policies(self) -> tuple[str, ...]:
        return tuple(p for g in self.groups for p in g)

    def is_strong(self) -> bool:
        return all(len(g) == 1 for g in self.groups)

    def ranks(self) -> dict[str, int]:
        """Label -> tie-group index (0 is best)."""
        return {p: i for i, g in enumerate(self.groups) for p in g}

    def __str__(self) -> str:
        return ">".join(map("=".join, self.groups))


def check_labels(labels) -> None:
    """Refuse a label that would make a printed order ambiguous: an empty
    one, or one holding the ``>`` or ``=`` that join groups and labels."""
    for p in labels:
        if not p or ">" in p or "=" in p:
            raise AmbiguousLabel(f"label {p!r} is empty or contains '>' or '='")


def make_order(policies, groups) -> Order:
    """Validate tie-groups against a policy set and build an Order.

    Groups must be non-empty, disjoint, and cover the policy set exactly.
    Labels inside a group are stored sorted so equal orders compare equal.
    """
    labels = list(policies)
    if not labels:
        raise EmptyGroup("policy set is empty")
    known = set()
    for p in labels:
        if p in known:
            raise DuplicateLabel(f"duplicate policy label {p!r}")
        known.add(p)
    check_labels(labels)

    seen = set()
    canonical = []
    for g in groups:
        g = list(g)
        if not g:
            raise EmptyGroup("empty tie-group")
        for p in g:
            if p not in known:
                raise UnknownLabel(f"label {p!r} is not in the policy set")
            if p in seen:
                raise DuplicateLabel(f"label {p!r} appears in more than one group")
            seen.add(p)
        canonical.append(tuple(sorted(g)))
    if seen != known:
        missing = sorted(known - seen)
        raise MissingLabel(f"order does not cover: {', '.join(missing)}")
    return Order(tuple(canonical))


@dataclass(frozen=True)
class Profile:
    """One weak order per voter, all over the same policy set."""

    policies: tuple[str, ...]
    voters: tuple[tuple[str, Order], ...]
    completed: tuple[str, ...] = ()  # voter ids whose ballots were padded

    def __post_init__(self):
        if not self.voters:
            raise InputError("profile needs at least one voter")
        ids = set()
        pol = set(self.policies)
        for vid, order in self.voters:
            if vid in ids:
                raise DuplicateLabel(f"duplicate voter id {vid!r}")
            ids.add(vid)
            if set(order.policies) != pol:
                raise MissingLabel(f"voter {vid!r} does not cover the policy set")

    @property
    def n_voters(self) -> int:
        return len(self.voters)

    def orders(self):
        return [order for _, order in self.voters]


def strict_counts(profile: Profile) -> list[list[int]]:
    """c[i][j] = number of voters ranking policy i strictly above policy j,
    over ``profile.policies``. Each distinct ballot is walked once from
    its bottom group, weighted by how many voters cast it.

    Every pairwise rule reads these counts: i and j are tied by every voter
    when c[i][j] = c[j][i] = 0, and the mean preference matrix is
    (n - c[j][i]) / n.
    """
    pos = {p: i for i, p in enumerate(profile.policies)}
    c = [[0] * len(pos) for _ in pos]
    for order, count in Counter(profile.orders()).items():
        below = []  # positions of the policies under the current group
        for group in reversed(order.groups):
            members = [pos[p] for p in group]
            for i in members:
                row = c[i]
                for j in below:
                    row[j] += count
            below += members
    return c


def profile_from_dict(data) -> Profile:
    """Parse the profile JSON schema.

    ``{"policies": [...], "voters": [{"id": ..., "ranking": [[...], ...]}]}``
    where ranking lists tie-groups best first. Partial rankings are
    completed by appending one bottom tie-group of the unranked policies;
    such voters are flagged in ``completed``. Labels are strings.
    """
    try:
        policies = data["policies"]
        voters_raw = list(data["voters"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"profile JSON needs 'policies' and 'voters': {exc}") from None
    if not is_str_list(policies):
        raise InputError("profile 'policies' must be a list of strings")
    pol_set = set(policies)
    if len(pol_set) != len(policies):
        raise DuplicateLabel("duplicate policy label in profile")
    voters = []
    completed = []
    for entry in voters_raw:
        try:
            vid = entry["id"]
            ranking = entry["ranking"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"voter entry needs 'id' and 'ranking': {exc}") from None
        if not isinstance(vid, (str, int, float)):
            raise InputError(f"voter id must be a string or a number, got {vid!r}")
        if not is_tie_groups(ranking):
            raise InputError(f"voter {vid!r}: ranking must be a list of lists of strings")
        ranking = [list(g) for g in ranking]
        ranked = [p for g in ranking for p in g]
        leftover = sorted(pol_set - set(ranked))
        if leftover:
            ranking.append(leftover)
            completed.append(vid)
        voters.append((vid, make_order(policies, ranking)))
    return Profile(tuple(policies), tuple(voters), tuple(completed))


def csv_rows(fileobj, header):
    """Yield (line number, stripped cells) for each non-blank CSV row.

    Every row must have one cell per header name; a row equal to the
    header is skipped when it is the first non-blank row. A row's line
    number is the physical line its record starts on, so blank lines and
    quoted cells holding newlines count too. A record the csv module
    refuses (a field over ``csv.field_size_limit()``) is an error on the
    line it starts on.
    """
    first = True
    reader = csv.reader(fileobj)
    start = 1  # the physical line the next record starts on
    try:
        for row in reader:
            lineno, start = start, reader.line_num + 1
            cells = tuple(map(str.strip, row))
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise InputError(f"line {lineno}: expected {len(header)} columns, got {len(cells)}")
            if first:
                first = False
                if cells == header:
                    continue
            yield lineno, cells
    except csv.Error as exc:
        raise InputError(f"line {start}: {exc}") from None


def is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def is_tie_groups(value) -> bool:
    """A JSON list of lists of labels, the shape of an order's groups."""
    return isinstance(value, list) and all(map(is_str_list, value))


@dataclass(frozen=True)
class Bigraph:
    """Directed preference edges D plus undirected indifference edges C."""

    vertices: tuple[str, ...]
    d_edges: frozenset  # of (u, v) pairs
    c_edges: frozenset  # of frozenset({u, v}) pairs

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise DuplicateLabel("duplicate bigraph vertex")
        # edges are checked in sorted order, so a message names the least offender
        unordered_d = set()  # of sorted pairs
        for u, v in sorted(self.d_edges):
            if u == v:
                raise InputError(f"self-loop {u!r} in D")
            if u not in known or v not in known:
                raise UnknownLabel(f"edge ({u!r},{v!r}) uses unknown vertex")
            if (v, u) in self.d_edges:
                raise InputError(f"D joins {u!r} and {v!r} both ways")
            unordered_d.add(tuple(sorted((u, v))))
        for pair in sorted(tuple(sorted(p)) for p in self.c_edges):
            if len(pair) != 2:
                raise InputError("C edges join two distinct vertices")
            if not known.issuperset(pair):
                raise UnknownLabel(f"C edge {pair!r} uses unknown vertex")
            if pair in unordered_d:
                raise InputError(f"pair {pair!r} is in both C and D")


@dataclass(frozen=True)
class LabeledMatrix:
    """A square matrix with row/column labels; entries stay exact when possible."""

    labels: tuple[str, ...]
    rows: tuple[tuple, ...]
    index: dict = field(init=False, repr=False, compare=False)  # label -> position

    def __post_init__(self):
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise InputError("matrix shape does not match its labels")
        object.__setattr__(self, "index", {lab: i for i, lab in enumerate(self.labels)})

    def entry(self, u, v):
        return self.rows[self.index[u]][self.index[v]]


def preference_matrix(order: Order) -> LabeledMatrix:
    """0/1 adjacency of a weak order.

    M[i][j] = 1 iff i = j, i is strictly preferred to j, or i is tied
    with j. Indifference therefore contributes edges both ways, and the
    strict part is transitively closed by construction.
    """
    labels = order.policies
    rank = order.ranks()
    rows = tuple(
        tuple(1 if rank[a] <= rank[b] else 0 for b in labels) for a in labels
    )
    return LabeledMatrix(labels, rows)


def transition_matrix(order: Order, mode: str = "climb-one-rung") -> LabeledMatrix:
    """Row-stochastic matrix of the hill-climbing walk a voter's order induces.

    climb-one-rung (default): from a policy in group g, move uniformly over
    the members of group g-1; the top group moves uniformly over itself.
    jump-to-top: every policy moves uniformly over the top group.
    """
    if mode not in ("climb-one-rung", "jump-to-top"):
        raise InputError(f"unknown transition mode {mode!r}")
    labels = order.policies
    idx = {p: i for i, p in enumerate(labels)}
    n = len(labels)
    rows = [[Fraction(0)] * n for _ in labels]
    for gi, group in enumerate(order.groups):
        if mode == "jump-to-top" or gi == 0:
            target = order.groups[0]
        else:
            target = order.groups[gi - 1]
        share = Fraction(1, len(target))
        for p in group:
            for q in target:
                rows[idx[p]][idx[q]] = share
    return LabeledMatrix(labels, tuple(tuple(r) for r in rows))


def count_weak_orders(n: int) -> int:
    """Number of weak orders on n policies (ordered Bell numbers), for
    1 <= n <= COUNT_CAP.

    Uses the series a(n) = sum over k >= 1 of k^n / 2^(k+1), cut after a
    term K and rounded: a(n) = round(sum_{k<=K} k^n 2^(K-k) / 2^(K+1)),
    all in integers. The tail bound that fixes K: for k >= 2n the ratio of
    consecutive terms, (1 + 1/k)^n / 2, is at most e^(1/2) / 2 < 0.825, so
    the tail after K is below 5.8 times the term at K + 1. Choosing the
    least K >= 2n with 12 (K+1)^n < 2^(K+2) puts that term under 1/12 and
    the tail under 1/2, so rounding the cut sum gives a(n) exactly.
    """
    if n < 1:
        raise InputError("need at least one policy")
    if n > COUNT_CAP:
        raise CapExceeded(f"counting weak orders on {n} policies exceeds the cap of {COUNT_CAP}")
    k_max = 2 * n
    # a float search finds the neighbourhood; the integer test decides
    while n * math.log2(k_max + 1) + math.log2(12) >= k_max + 2:
        k_max += 1
    while 12 * (k_max + 1) ** n >= 1 << (k_max + 2):
        k_max += 1
    total = 0
    for k in range(1, k_max + 1):
        total = (total << 1) + k ** n
    return (total + (1 << k_max)) >> (k_max + 1)


def enumerate_weak_orders(policies):
    """Yield every weak order over the policies exactly once.

    Deterministic order: each label is inserted, in input order, either
    into an existing tie-group or as a new group at every possible rank,
    depth first. Capped (default 7 policies) because the count grows like
    n!/(2 ln2^(n+1)).
    """
    labels = list(policies)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("duplicate policy label")
    if not labels:
        raise EmptyGroup("policy set is empty")
    check_labels(labels)
    cap = vertex_cap(ENUMERATION_CAP)
    if len(labels) > cap:
        raise CapExceeded(
            f"enumeration over {len(labels)} policies exceeds the cap of {cap}"
        )

    last = len(labels) - 1
    # (index of the next label to insert, groups so far), each group kept
    # sorted so a finished order is already canonical; children are
    # pushed last-first so they pop in insertion-rank order
    stack = [(0, ())]
    while stack:
        i, groups = stack.pop()
        lab = labels[i]
        k = len(groups)
        children = [groups[:g] + (tuple(sorted(groups[g] + (lab,))),) + groups[g + 1:]
                    for g in range(k)]
        children += [groups[:g] + ((lab,),) + groups[g:] for g in range(k + 1)]
        if i == last:
            yield from map(Order, children)
        else:
            stack.extend((i + 1, child) for child in reversed(children))
