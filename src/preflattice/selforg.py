"""Self-organizing newsgroup scenario.

A posting protocol decides which contributions count; counted interests
become two-ply preference orders; subscribers partition into interest-set
groups that elect managers, order themselves by cross-posting likelihood,
gate postings by topological adjacency, and derive precedent rules from
grant logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import Order, csv_rows, make_order
from .errors import (
    EmptyGroup,
    InputError,
    SelfFollowup,
    UnknownGroup,
    UnknownLabel,
    UnknownParent,
    UnmappedThread,
)
from .graphalg import Digraph, digraph
from .mlorder import max_likelihood_order, tally

KINDS = ("initiate", "followup", "ack")
APATHY = "∅"
ENTRY = "entry"


@dataclass(frozen=True, slots=True)
class PostingEvent:
    t: int
    subscriber: str
    thread: str
    kind: str
    parent: int | None = None  # t of the referenced event, same thread

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"event kind {self.kind!r} not in {KINDS}")
        if self.kind == "initiate" and self.parent is not None:
            raise InputError("initiations do not reference a parent")
        if self.kind != "initiate" and self.parent is None:
            raise InputError(f"{self.kind} events need a parent reference")


@dataclass
class ThreadLedger:
    """Events in arrival order, the subset that counts as contributions,
    and a flag per uncounted or rule-breaking event naming the rule."""

    events: tuple
    counted: tuple
    flags: dict  # PostingEvent -> flag string
    _by_subscriber: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # built here rather than lazily, so dataclasses.replace rebuilds it
        self._by_subscriber = {}
        for e in self.counted:
            self._by_subscriber.setdefault(e.subscriber, []).append(e)

    def counted_threads(self, subscriber) -> set:
        return {e.thread for e in self._by_subscriber.get(subscriber, ())}

    def subscribers(self) -> tuple:
        return tuple(sorted({e.subscriber for e in self.events}))

    def activity(self, subscriber) -> int:
        return len(self._by_subscriber.get(subscriber, ()))

    def earliest_counted(self, subscriber):
        counted = self._by_subscriber.get(subscriber)
        return min(e.t for e in counted) if counted else None


def read_postings_csv(fileobj):
    """Rows ``t,subscriber,thread,kind,parent`` (parent empty for
    initiations); a header row with those names is skipped when it is
    the first non-blank row."""
    header = ("t", "subscriber", "thread", "kind", "parent")
    events = []
    for lineno, (t, subscriber, thread, kind, parent) in csv_rows(fileobj, header):
        try:
            t_val = int(t)
            parent_val = int(parent) if parent else None
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        events.append(PostingEvent(t_val, subscriber, thread, kind, parent_val))
    return events


def _resolve_parent(event, earlier_by_t):
    """The one earlier event of the thread at ``event.parent``;
    ``earlier_by_t`` maps t to the thread's events seen so far."""
    matches = earlier_by_t.get(event.parent, ())
    if not matches:
        raise UnknownParent(
            f"event t={event.t} references t={event.parent}, which has no "
            f"earlier match in thread {event.thread!r}"
        )
    if len(matches) > 1:
        raise InputError(
            f"thread {event.thread!r} has multiple events at t={event.parent}"
        )
    return matches[0]


def validate_protocol(events) -> ThreadLedger:
    """Apply the posting protocol and produce the counted-contribution
    ledger.

    An initiation counts once somebody follows it up; a followup counts
    once it receives a valid acknowledgment, which must come from the
    author of the event the followup replied to. Rule-breaking events
    that can be attributed (acks of non-followups, acks by the wrong
    subscriber, repeat initiations of a thread) are flagged and never
    counted; following yourself up or referencing a missing parent is an
    error.
    """
    events = sorted(events, key=lambda e: e.t)
    by_thread = {}  # thread -> {t: [events seen so far]}
    first_initiate = {}
    duplicate_initiations = set()
    parents = {}  # followup/ack event -> resolved parent event
    for event in events:
        seen = by_thread.setdefault(event.thread, {})
        if event.kind == "initiate":
            if event.thread in first_initiate:
                duplicate_initiations.add(event)
            else:
                first_initiate[event.thread] = event
        else:
            parent = _resolve_parent(event, seen)
            parents[event] = parent
            if event.kind == "followup":
                if parent.subscriber == event.subscriber:
                    raise SelfFollowup(
                        f"{event.subscriber!r} followed up their own post "
                        f"(t={parent.t}) in thread {event.thread!r}"
                    )
                if parent.kind == "ack":
                    raise InputError(
                        f"followup t={event.t} references an acknowledgment"
                    )
        seen.setdefault(event.t, []).append(event)

    followups_of = {}
    for event, parent in parents.items():
        if event.kind == "followup":
            followups_of.setdefault(parent, []).append(event)

    flags = {}
    valid_ack_of = {}  # followup -> first valid ack
    for event, parent in parents.items():
        if event.kind != "ack":
            continue
        if parent.kind != "followup":
            flags[event] = "ack-of-non-followup"
            continue
        replied_to = parents[parent]
        if event.subscriber != replied_to.subscriber:
            flags[event] = "ack-by-non-recipient"
            continue
        valid_ack_of.setdefault(parent, event)

    counted = []
    for event in events:
        if event.kind == "initiate":
            if event in duplicate_initiations:
                flags[event] = "duplicate-initiation"
            elif followups_of.get(event):
                counted.append(event)
            else:
                flags[event] = "unanswered-initiation"
        elif event.kind == "followup":
            if event in valid_ack_of:
                counted.append(event)
            else:
                flags[event] = "unacknowledged-followup"
    return ThreadLedger(events=tuple(events), counted=tuple(counted), flags=flags)


def extract_prefs(ledger: ThreadLedger, thread_map, interests=None) -> dict:
    """Two-ply preference order per subscriber.

    Interests the subscriber was counted on form the top tie-group; every
    other interest plus the apathy element forms the bottom. A subscriber
    counted nowhere is fully apathetic (a single tie-group). ``thread_map``
    sends thread ids to interests; ``interests`` widens the universe beyond
    the mapping's values when given.
    """
    universe = set(thread_map.values())
    if interests is not None:
        universe |= set(interests)
    universe = check_interest_names(universe)
    labels = universe + [APATHY]
    prefs = {}
    for sub in ledger.subscribers():
        top = set()
        for thread in ledger.counted_threads(sub):
            if thread not in thread_map:
                raise UnmappedThread(f"thread {thread!r} is not mapped to an interest")
            top.add(thread_map[thread])
        rest = sorted(set(labels) - top)
        if top:
            prefs[sub] = make_order(labels, [sorted(top), rest])
        else:
            prefs[sub] = make_order(labels, [rest])
    return prefs


@dataclass
class GroupAssignment:
    interests: tuple
    groups: dict  # label "a+b" -> tuple of member ids
    entry: tuple  # every subscriber
    primary: dict  # subscriber -> group label (ENTRY when apathetic)

    @property
    def populated(self) -> int:
        return len(self.groups)


def group_label(subset) -> str:
    return "+".join(sorted(subset))


def check_interest_names(names) -> list:
    """The names sorted, once each is known to make distinct group labels:
    non-empty, free of the "+" that joins them, and neither the entry
    group's label nor the apathy element."""
    for name in names:
        if not name:
            raise InputError("interest names must not be empty")
        if "+" in name:
            raise InputError(f"interest name {name!r} contains '+', which joins group labels")
        if name in (ENTRY, APATHY):
            raise InputError(f"interest name {name!r} is reserved")
    return sorted(names)


def partition_subscribers(prefs: dict, interests=None) -> GroupAssignment:
    """Assign each subscriber to the group named by their top interest
    set; the apathetic go to the entry group only. Everyone is also an
    entry-group member."""
    if interests is None:
        universe = set()
        for order in prefs.values():
            universe |= {p for p in order.policies if p != APATHY}
        interests = sorted(universe)
    else:
        interests = sorted(interests)
    groups = {}
    primary = {}
    for sub in sorted(prefs):
        order = prefs[sub]
        top = [p for p in order.groups[0] if p != APATHY]
        if len(order.groups) == 1 or not top:
            primary[sub] = ENTRY
            continue
        label = group_label(top)
        groups.setdefault(label, []).append(sub)
        primary[sub] = label
    return GroupAssignment(
        interests=tuple(interests),
        groups={k: tuple(v) for k, v in sorted(groups.items())},
        entry=tuple(sorted(prefs)),
        primary=primary,
    )


def elect_managers(assignment: GroupAssignment, ledger: ThreadLedger, fraction=0.05) -> dict:
    """Top ceil(fraction * members) contributors per group, ranked by
    counted activity, then earliest counted contribution, then id."""
    bad_fraction = "manager fraction must lie in (0, 1]"
    try:
        frac = Fraction(str(fraction))
    except ValueError:  # nan and inf have no exact value
        raise InputError(bad_fraction) from None
    if not 0 < frac <= 1:
        raise InputError(bad_fraction)

    def rank(s):
        earliest = ledger.earliest_counted(s)
        return (-ledger.activity(s), math.inf if earliest is None else earliest, s)

    managers = {}
    for label, members in assignment.groups.items():
        if not members:
            raise EmptyGroup(f"group {label!r} has no members")
        k = math.ceil(frac * len(members))
        managers[label] = tuple(sorted(members, key=rank)[:k])
    return managers


def group_topology(interests, mode: str = "subset-lattice") -> Digraph:
    """Adjacency of the 2^n - 1 groups over n >= 2 interest names, as a
    symmetric digraph.

    subset-lattice joins any two groups where one interest set strictly
    contains the other (for three interests: single-interest groups have
    three neighbors, the center six). binary-tree keeps only covers, sets
    differing by exactly one interest (two, three and three neighbors).
    """
    names = check_interest_names(set(interests))
    if len(names) < 2:
        raise InputError("need at least two interests")
    subsets = [
        frozenset(c)
        for k in range(1, len(names) + 1)
        for c in combinations(names, k)
    ]
    labels = {s: group_label(s) for s in subsets}
    edges = set()
    for a, b in combinations(subsets, 2):
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        if not small < big:
            continue
        if mode == "subset-lattice":
            joined = True
        elif mode == "binary-tree":
            joined = len(big) == len(small) + 1
        else:
            raise InputError(f"unknown topology mode {mode!r}")
        if joined:
            edges.add((labels[a], labels[b]))
            edges.add((labels[b], labels[a]))
    return digraph(sorted(labels.values()), edges)


def group_order(cross_activity: dict) -> Order:
    """Most likely order over groups from per-subscriber visit tallies.

    Each subscriber compares every group pair: more posts wins, equal
    counts (zero included) tie. The comparisons feed the maximum
    likelihood procedure and the top-ranked order is returned.
    """
    groups = set()
    for tallies in cross_activity.values():
        groups |= set(tallies)
    groups = sorted(groups)
    if not groups:
        raise InputError("no groups in the activity tallies")
    comparisons = []
    for sub in sorted(cross_activity):
        tallies = cross_activity[sub]
        for a, b in combinations(groups, 2):
            na, nb = tallies.get(a, 0), tallies.get(b, 0)
            outcome = ">" if na > nb else "<" if nb > na else "="
            comparisons.append((a, b, outcome))
    ranked = max_likelihood_order(tally(comparisons))
    return ranked[0][0]


def _topology_neighbors(topology: Digraph, label):
    out = set()
    for u, v in topology.edges:
        if u == label:
            out.add(v)
        elif v == label:
            out.add(u)
    return out


def referral_check(poster, target_group, topology: Digraph, assignment: GroupAssignment):
    """(allow, reason) for a poster trying to post into a group: allowed
    into the entry group, their own group, or any topology neighbor of a
    group they belong to."""
    if poster not in assignment.primary:
        raise UnknownLabel(f"unknown subscriber {poster!r}")
    if target_group == ENTRY:
        return True, "entry-group posting"
    if target_group not in set(topology.vertices):
        raise UnknownGroup(f"unknown group {target_group!r}")
    member_groups = {ENTRY, assignment.primary[poster]}
    if target_group in member_groups:
        return True, "member of target group"
    if member_groups & _topology_neighbors(topology, target_group):
        return True, "member of an adjacent group"
    return False, "not a member of the target group or any adjacent group"


@dataclass(frozen=True)
class PrecedentRule:
    """antecedent(x) implies consequent(x): every holder of the antecedent
    role also holds the consequent role."""

    antecedent: str
    consequent: str
    provenance: tuple  # (accessor, consequent-role grant) witnesses


def derive_precedents(grants):
    """Rules, role ordering, and merges implied by a grant log.

    Grants are (accessor, role) pairs or {"accessor","role"} mappings.
    Roles with identical member sets merge under a combined label. A rule
    antecedent => consequent is emitted when the antecedent's members are
    a strict subset of the consequent's; the reverse strict-superset
    relation is the role ordering (broader role ranks higher).
    """
    if not isinstance(grants, (list, tuple)):
        raise InputError("grants must be a list of (accessor, role) pairs or records")
    pairs = []
    for g in grants:
        if isinstance(g, dict):
            try:
                g = (g["accessor"], g["role"])
            except KeyError as exc:
                raise InputError(f"grant record missing {exc}") from None
        if not (isinstance(g, (list, tuple)) and len(g) == 2
                and all(isinstance(x, str) for x in g)):
            raise InputError(f"grant {g!r} is not an (accessor, role) pair of strings")
        pairs.append(tuple(g))
    members = {}
    for accessor, role in pairs:
        members.setdefault(role, set()).add(accessor)

    by_member_set = {}
    for role in sorted(members):
        by_member_set.setdefault(frozenset(members[role]), []).append(role)
    merges = tuple(
        tuple(roles) for roles in by_member_set.values() if len(roles) > 1
    )
    merged_members = {
        "=".join(roles): member_set for member_set, roles in by_member_set.items()
    }

    rules = []
    ordering = []
    labels = sorted(merged_members)
    for a in labels:
        for b in labels:
            if a == b:
                continue
            if merged_members[a] < merged_members[b]:
                provenance = tuple(
                    (acc, role)
                    for acc, role in pairs
                    if acc in merged_members[a] and role in b.split("=")
                )
                rules.append(
                    PrecedentRule(antecedent=a, consequent=b, provenance=provenance)
                )
                ordering.append((b, a))  # broader role outranks narrower
    return rules, tuple(sorted(ordering)), merges
