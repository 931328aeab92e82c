"""Self-organizing newsgroup scenario.

A posting protocol decides which contributions count; counted interests
become two-ply preference orders; subscribers partition into interest-set
groups that elect managers, order themselves by cross-posting likelihood,
gate postings by topological adjacency, and derive precedent rules from
grant logs.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, repeat
from operator import eq, itemgetter, not_

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
from .graphalg import Digraph, digraph, subset_lattice
from .mlorder import ComparisonTally, max_likelihood_order

KINDS = ("initiate", "followup", "ack")
APATHY = "∅"
ENTRY = "entry"
# characters of whole lines the posting-log reader splits at once;
# splitting the whole text at once holds every cell of the log together
_BLOCK = 1 << 16


class PostingEvent(namedtuple("PostingEvent", "t subscriber thread kind parent")):
    """One posting; ``parent`` is the t of the referenced event in the
    same thread. A tuple of its five fields, checked on construction."""

    __slots__ = ()

    def __new__(cls, t, subscriber, thread, kind, parent=None):
        if kind not in KINDS:
            raise InputError(f"event kind {kind!r} not in {KINDS}")
        if kind == "initiate" and parent is not None:
            raise InputError("initiations do not reference a parent")
        if kind != "initiate" and parent is None:
            raise InputError(f"{kind} events need a parent reference")
        return tuple.__new__(cls, (t, subscriber, thread, kind, parent))


@dataclass
class ThreadLedger:
    """Events in arrival order, the subset that counts as contributions,
    and a flag per uncounted or rule-breaking event naming the rule."""

    events: tuple
    counted: tuple
    flags: dict  # PostingEvent -> flag string
    _by_subscriber: dict = field(init=False, repr=False, compare=False)
    _subscribers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # built here rather than lazily, so dataclasses.replace rebuilds them
        self._by_subscriber = {}
        for e in self.counted:
            self._by_subscriber.setdefault(e.subscriber, []).append(e)
        self._subscribers = tuple(sorted({e.subscriber for e in self.events}))

    def counted_threads(self, subscriber) -> set:
        return {e.thread for e in self._by_subscriber.get(subscriber, ())}

    def subscribers(self) -> tuple:
        return self._subscribers

    def activity(self, subscriber) -> int:
        return len(self._by_subscriber.get(subscriber, ()))

    def earliest_counted(self, subscriber):
        counted = self._by_subscriber.get(subscriber)
        return min(e.t for e in counted) if counted else None


def read_postings_csv(fileobj):
    """Rows ``t,subscriber,thread,kind,parent`` (parent empty for
    initiations); a header row with those names is skipped when it is
    the first non-blank row. A bad row's error names its line.

    A plain log, one valid event per line and nothing to unquote, is
    parsed a block of lines at a time; any other log is read row by row,
    which is also what names a bad row's line."""
    text = fileobj.read()
    events = _postings_by_block(text)
    return _postings_by_row(text) if events is None else events


def _postings_by_block(text):
    """The events of a plain log, or None unless every row of the text,
    after an optional exact header line, holds five cells that make a
    valid event. Cells are stripped as the row reader strips them, and
    the events share one str per distinct name."""
    header = ",".join(PostingEvent._fields) + "\n"
    if '"' in text or "\r" in text:
        return None
    pos = len(header) if text.startswith(header) else 0
    end = len(text) - text.endswith("\n")
    name = {}.setdefault
    events = []
    while pos < end:
        stop = text.find("\n", pos + _BLOCK, end)
        if stop < 0:
            stop = end
        block = text[pos:stop]
        pos = stop + 1
        rows = block.split("\n")
        # a block over the field limit may hold a field the row reader refuses
        if len(block) > csv.field_size_limit() or set(map(str.count, rows, repeat(","))) != {4}:
            return None
        cells = list(map(str.strip, block.replace("\n", ",").split(",")))
        kinds, parents = cells[3::5], cells[4::5]
        # the checks PostingEvent makes, so its tuple is built directly
        if not set(kinds).issubset(KINDS):
            return None
        if list(map(eq, kinds, repeat("initiate"))) != list(map(not_, parents)):
            return None
        try:
            ts = list(map(int, cells[0::5]))
            refs = [int(p) if p else None for p in parents]
        except ValueError:
            return None
        subs, threads = cells[1::5], cells[2::5]
        events += map(tuple.__new__, repeat(PostingEvent), zip(
            ts, map(name, subs, subs), map(name, threads, threads),
            map(name, kinds, kinds), refs,
        ))
    return events


def _postings_by_row(text):
    """The events of any log, read through ``csv_rows``; the oracle of
    the block parse."""
    events = []
    rows = csv_rows(io.StringIO(text, newline=""), PostingEvent._fields)
    for lineno, (t, subscriber, thread, kind, parent) in rows:
        try:
            events.append(PostingEvent(
                int(t), subscriber, thread, kind, int(parent) if parent else None
            ))
        except (ValueError, InputError) as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return events


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

    One pass over the events sorted by t resolves each parent as the one
    earlier event of its thread at that t and keeps every event's state
    by its position in that order.
    """
    events = sorted(events, key=itemgetter(0))
    n = len(events)
    answered = [False] * n  # somebody followed the event up (read for initiations)
    acked = [False] * n  # a followup with a valid acknowledgment
    duplicate = [False] * n  # a repeat initiation of its thread
    replied_to = [None] * n  # the author a followup answers
    at = {}  # thread -> {t: position, or -1 once the thread has two events at t}
    shared = {}  # (thread, t) -> positions, for each t a thread has two events at
    flags = {}
    for i, event in enumerate(events):
        t, sub, thread, kind, ref = event
        seen = at.get(thread)
        if seen is None:
            seen = at[thread] = {}
        if kind == "initiate":
            # a thread's first event is an initiation (any other kind has
            # no parent to find), so an earlier event makes this a repeat
            duplicate[i] = bool(seen)
        else:
            p = seen.get(ref)
            if p is None:
                raise UnknownParent(
                    f"event t={t} references t={ref}, which has no "
                    f"earlier match in thread {thread!r}"
                )
            if p < 0:
                raise InputError(f"thread {thread!r} has multiple events at t={ref}")
            _, p_sub, _, p_kind, _ = events[p]
            if kind == "followup":
                if p_sub == sub:
                    raise SelfFollowup(
                        f"{sub!r} followed up their own post "
                        f"(t={ref}) in thread {thread!r}"
                    )
                if p_kind == "ack":
                    raise InputError(f"followup t={t} references an acknowledgment")
                answered[p] = True
                replied_to[i] = p_sub
            elif p_kind != "followup":
                flags[event] = "ack-of-non-followup"
            elif sub != replied_to[p]:
                flags[event] = "ack-by-non-recipient"
            else:
                acked[p] = True
        j = seen.setdefault(t, i)
        if j != i:
            seen[t] = -1
            shared.setdefault((thread, t), [j] if j >= 0 else []).append(i)
    for positions in shared.values():
        # flags key events by value, so identical events share one state
        copies = {}
        for i in positions:
            copies.setdefault(events[i], []).append(i)
        for same in copies.values():
            for state in (answered, acked, duplicate):
                value = any(state[i] for i in same)
                for i in same:
                    state[i] = value

    counted = []
    for i, event in enumerate(events):
        kind = event.kind
        if kind == "initiate":
            if duplicate[i]:
                flags[event] = "duplicate-initiation"
            elif answered[i]:
                counted.append(event)
            else:
                flags[event] = "unanswered-initiation"
        elif kind == "followup":
            if acked[i]:
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
    order_of = {}  # top interest set -> its two-ply order
    for sub in ledger.subscribers():
        top = set()
        for thread in ledger.counted_threads(sub):
            if thread not in thread_map:
                least = min(ledger.counted_threads(sub) - thread_map.keys())
                raise UnmappedThread(f"thread {least!r} is not mapped to an interest")
            top.add(thread_map[thread])
        key = frozenset(top)
        order = order_of.get(key)
        if order is None:
            rest = sorted(set(labels) - top)
            order = order_of[key] = make_order(
                labels, [sorted(top), rest] if top else [rest]
            )
        prefs[sub] = order
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
    group's label nor the apathy element. The first bad name in sorted
    order is reported."""
    names = sorted(names)
    for name in names:
        if not name:
            raise InputError("interest names must not be empty")
        if "+" in name:
            raise InputError(f"interest name {name!r} contains '+', which joins group labels")
        if name in (ENTRY, APATHY):
            raise InputError(f"interest name {name!r} is reserved")
    return names


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
    n = len(names)
    if n < 2:
        raise InputError("need at least two interests")
    if mode not in ("subset-lattice", "binary-tree"):
        raise InputError(f"unknown topology mode {mode!r}")
    labels = {
        m: group_label(names[e] for e in range(n) if m >> e & 1) for m in subset_lattice(n)
    }
    edges = []
    for m, label in labels.items():
        if mode == "binary-tree":  # the nonempty sets one interest smaller
            below = [m ^ 1 << e for e in range(n) if m >> e & 1 and m != 1 << e]
        else:  # every nonempty proper submask, stepping s -> (s - 1) & m
            below, s = [], m
            while s := s - 1 & m:
                below.append(s)
        for s in below:
            edges += [(labels[s], label), (label, labels[s])]
    return digraph(sorted(labels.values()), edges)


def _group_tally(cross_activity: dict) -> ComparisonTally:
    """Each subscriber's comparison of every group pair: more posts wins,
    equal counts (zero included) tie. Subscribers with the same visit
    counts make the same comparisons, so each distinct vector of counts
    is compared once and weighs in by how many subscribers have it."""
    groups = set()
    for tallies in cross_activity.values():
        groups |= set(tallies)
    groups = sorted(groups)
    if not groups:
        raise InputError("no groups in the activity tallies")
    vectors = Counter(
        tuple(tallies.get(g, 0) for g in groups) for tallies in cross_activity.values()
    )
    counts = {}
    for (i, a), (j, b) in combinations(enumerate(groups), 2):
        s_ab = s_ba = t_ab = 0
        for vector, m in vectors.items():
            if vector[i] > vector[j]:
                s_ab += m
            elif vector[j] > vector[i]:
                s_ba += m
            else:
                t_ab += m
        counts[(a, b)] = (s_ab, s_ba, t_ab)
    return ComparisonTally(counts)


def group_order(cross_activity: dict) -> Order:
    """Most likely order over groups from per-subscriber visit tallies:
    the comparisons of ``_group_tally`` feed the maximum likelihood
    procedure and the top-ranked order is returned. A single group has no
    pair to compare and one order."""
    ranked = max_likelihood_order(_group_tally(cross_activity))
    if ranked:
        return ranked[0][0]
    (group,) = {g for tallies in cross_activity.values() for g in tallies}
    return Order(((group,),))


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
    if any(
        (g, target_group) in topology.edges or (target_group, g) in topology.edges
        for g in member_groups
    ):
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
