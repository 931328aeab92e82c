"""Aggregation of individual preference orders.

Common indifferences, the aggregate for/against count matrix, unanimity
and cycle classification, condensation into super-vertices, Borda
scores, and positional count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import LabeledMatrix, Profile
from .errors import InputError, WeakOrderUnsupported
from .graphalg import (
    digraph,
    strongly_connected_components,
    transitive_reduction,
    weak_components,
)


@dataclass(frozen=True)
class AggregateReach:
    """Aggregate count matrix: q_uv = number of voters ranking u strictly
    above v, over vertices with commonly-indifferent policies merged."""

    q: LabeledMatrix
    n_voters: int
    blocks: tuple[tuple[str, ...], ...]  # original policies behind each label


@dataclass
class UnanimityReport:
    unanimities: frozenset  # ordered pairs (u, v)
    classification: dict  # pair -> "simple" | "compound-simple" | "complex"
    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    weights: dict  # ordered pair -> (for_count, against_count)


@dataclass
class CycleInfo:
    members: tuple[str, ...]
    kind: str  # "complete" | "dominated" | "dominating" | "plain"
    dominators: tuple[str, ...]
    dominees: tuple[str, ...]


@dataclass
class CondensedGraph:
    """Partition of the original policy set into super-vertices.

    ``rules`` records what produced each block; ``edges`` are index pairs
    into ``blocks`` carrying the block-level majority relation (present only
    when every cross pair of policies has a majority).
    """

    blocks: tuple[tuple[str, ...], ...]
    rules: tuple[str, ...]
    edges: frozenset  # of (i, j) block indices
    mapping: dict  # original policy -> block index
    overlaps: tuple  # of (members, reason) for structures left unmerged


def common_indifferences(profile: Profile) -> frozenset:
    """Unordered pairs indifferent for every voter."""
    common = None
    for order in profile.orders():
        pairs = set()
        for group in order.groups:
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    pairs.add(frozenset((u, v)))
        common = pairs if common is None else common & pairs
    return frozenset(common)


def _unanimity_pairs(q: LabeledMatrix):
    labs = q.labels
    return frozenset(
        (u, v)
        for u in labs
        for v in labs
        if u != v and q.entry(u, v) >= 1 and q.entry(v, u) == 0
    )


def _classify_unanimity_components(labels, unanimities):
    """Class per unanimous pair, determined by the shape of its weak
    component in the transitive reduction of the unanimity digraph:
    one edge = simple, a single path = compound-simple, anything with
    branching = complex. Closure pairs inherit their component's class.
    """
    g = digraph(labels, unanimities)
    red = transitive_reduction(g)
    classification = {}
    comp_of = {}
    for comp in weak_components(red):
        if len(comp) < 2:
            continue
        members = set(comp)
        red_edges = [(u, v) for u, v in red.edges if u in members]
        if len(red_edges) == 1:
            cls = "simple"
        else:
            out_deg = {}
            in_deg = {}
            for u, v in red_edges:
                out_deg[u] = out_deg.get(u, 0) + 1
                in_deg[v] = in_deg.get(v, 0) + 1
            is_path = all(d <= 1 for d in out_deg.values()) and all(
                d <= 1 for d in in_deg.values()
            )
            cls = "compound-simple" if is_path else "complex"
        for u in comp:
            comp_of[u] = (frozenset(members), cls)
    for u, v in unanimities:
        classification[(u, v)] = comp_of[u][1]
    return classification, comp_of


def aggregate_reach(profile: Profile):
    """Aggregate count matrix plus the unanimity report.

    Commonly-indifferent policies are merged into single vertices first:
    the weak components of the common-indifference pairs, in order of
    first appearance in the policy list, labelled by their sorted members
    joined with '='. q_uv then counts the voters ranking u's block
    strictly above v's.
    A pair is unanimous when its against-count is zero and its for-count
    positive; a source has an all-zero column (nobody is ranked above it
    by any voter) and a sink an all-zero row.
    """
    pairs = map(tuple, common_indifferences(profile))
    blocks = weak_components(digraph(profile.policies, pairs))
    labels = tuple("=".join(b) for b in blocks)
    reps = [b[0] for b in blocks]
    k = len(blocks)
    counts = [[0] * k for _ in range(k)]
    for order in profile.orders():
        rank = order.ranks()
        for i in range(k):
            for j in range(k):
                if i != j and rank[reps[i]] < rank[reps[j]]:
                    counts[i][j] += 1
    q = LabeledMatrix(labels, tuple(tuple(r) for r in counts))
    agg = AggregateReach(q=q, n_voters=profile.n_voters, blocks=tuple(blocks))

    unan = _unanimity_pairs(q)
    classification, _ = _classify_unanimity_components(labels, unan)
    sources = tuple(
        labels[j] for j in range(k) if all(counts[i][j] == 0 for i in range(k))
    )
    sinks = tuple(
        labels[i] for i in range(k) if all(counts[i][j] == 0 for j in range(k))
    )
    weights = {
        (labels[i], labels[j]): (counts[i][j], counts[j][i])
        for i in range(k)
        for j in range(k)
        if i != j
    }
    report = UnanimityReport(
        unanimities=unan,
        classification=classification,
        sources=sources,
        sinks=sinks,
        weights=weights,
    )
    return agg, report


def majority_digraph(agg: AggregateReach):
    """Edge u -> v iff q_uv strictly exceeds half the voters, so exact ties
    produce no edge."""
    thr = Fraction(agg.n_voters, 2)
    labs = agg.q.labels
    edges = [
        (u, v)
        for u in labs
        for v in labs
        if u != v and agg.q.entry(u, v) > thr
    ]
    return digraph(labs, edges)


def classify_cycles(agg: AggregateReach) -> list:
    """CycleInfo per strongly-connected component (size >= 2) of the
    majority digraph.

    A cycle spanning every vertex is complete. Otherwise it is dominated
    when some outside vertex is unanimously above all members, dominating
    when some outside vertex is unanimously below all members, and plain
    when neither witness exists. A cycle that is both dominated and
    dominating is tagged dominated; both witness lists are reported.
    """
    g = majority_digraph(agg)
    unan = _unanimity_pairs(agg.q)
    labs = agg.q.labels
    cycles = []
    for comp in strongly_connected_components(g):
        if len(comp) < 2:
            continue
        members = set(comp)
        outside = [u for u in labs if u not in members]
        dominators = tuple(
            d for d in outside if all((d, u) in unan for u in comp)
        )
        dominees = tuple(
            d for d in outside if all((u, d) in unan for u in comp)
        )
        if not outside:
            kind = "complete"
        elif dominators:
            kind = "dominated"
        elif dominees:
            kind = "dominating"
        else:
            kind = "plain"
        cycles.append(
            CycleInfo(members=tuple(comp), kind=kind, dominators=dominators, dominees=dominees)
        )
    return cycles


def _lift_unanimous(agg, block_a, block_b):
    return all(
        agg.q.entry(a, b) >= 1 and agg.q.entry(b, a) == 0
        for a in block_a
        for b in block_b
    )


def _lift_majority(agg, thr, block_a, block_b):
    return all(agg.q.entry(a, b) > thr for a in block_a for b in block_b)


def condense(agg: AggregateReach) -> CondensedGraph:
    """Merge condensable structures into super-vertices until fixpoint.

    Each round first merges dominated and dominating majority cycles
    (complete cycles stay), then merges simple and compound-simple
    unanimity components. Cycle-produced super-vertices never take part
    in later unanimity merges, and complex unanimity components are never
    merged; both situations are reported in ``overlaps`` when they block
    a merge. All lifts are universal: a block-level relation holds only
    when every cross pair of original vertices has it. Majority means more
    than half the voters, as in majority_digraph.
    """
    thr = Fraction(agg.n_voters, 2)
    labs = agg.q.labels
    partition = [frozenset((u,)) for u in labs]
    rules = {frozenset((u,)): "singleton" for u in labs}
    frozen = set()
    overlaps = []

    def merge(blocks_to_join, rule):
        nonlocal partition
        merged = frozenset().union(*blocks_to_join)
        partition = [b for b in partition if b not in blocks_to_join]
        partition.append(merged)
        for b in blocks_to_join:
            rules.pop(b, None)
        rules[merged] = rule
        return merged

    changed = True
    while changed:
        changed = False

        # majority cycles over current blocks
        names = {b: min(b) for b in partition}
        block_g = digraph(
            [names[b] for b in partition],
            [
                (names[a], names[b])
                for a in partition
                for b in partition
                if a != b and _lift_majority(agg, thr, a, b)
            ],
        )
        by_name = {names[b]: b for b in partition}
        for comp in strongly_connected_components(block_g):
            if len(comp) < 2:
                continue
            comp_blocks = [by_name[n] for n in comp]
            if len(comp_blocks) == len(partition):
                continue  # complete cycles are never condensed
            outside = [b for b in partition if b not in comp_blocks]
            dominated = any(
                all(_lift_unanimous(agg, d, m) for m in comp_blocks) for d in outside
            )
            dominating = any(
                all(_lift_unanimous(agg, m, d) for m in comp_blocks) for d in outside
            )
            if dominated or dominating:
                rule = "dominated-cycle" if dominated else "dominating-cycle"
                frozen.add(merge(comp_blocks, rule))
                changed = True
                break  # partition changed; rebuild the block graph
        if changed:
            continue

        # unanimity components over current blocks
        names = {b: min(b) for b in partition}
        by_name = {names[b]: b for b in partition}
        unan_edges = [
            (names[a], names[b])
            for a in partition
            for b in partition
            if a != b and _lift_unanimous(agg, a, b)
        ]
        classification, comp_of = _classify_unanimity_components(
            tuple(names[b] for b in partition), frozenset(unan_edges)
        )
        handled = set()
        for name, (members, cls) in comp_of.items():
            if members in handled:
                continue
            handled.add(members)
            comp_blocks = [by_name[n] for n in members]
            blocked = [b for b in comp_blocks if b in frozen]
            flat = tuple(sorted(x for b in comp_blocks for x in b))
            if cls == "complex":
                if blocked:
                    overlaps.append((flat, "complex-unanimity-overlaps-cycle"))
                continue
            if blocked:
                overlaps.append((flat, "unanimity-blocked-by-cycle-block"))
                continue
            merge(comp_blocks, f"{cls}-unanimity")
            changed = True
            break
        # loop again on any change; otherwise fall through with fixpoint

    # expand block labels to original policies and build the edge set
    label_members = dict(zip(agg.q.labels, agg.blocks))
    final_blocks = []
    final_rules = []
    for b in sorted(partition, key=lambda b: min(b)):
        originals = tuple(sorted(x for lab in b for x in label_members[lab]))
        rule = rules[b]
        if rule == "singleton" and len(originals) > 1:
            rule = "merged-indifference"
        final_blocks.append(originals)
        final_rules.append(rule)
    mapping = {
        orig: i for i, blk in enumerate(final_blocks) for orig in blk
    }
    ordered_partition = sorted(partition, key=lambda b: min(b))
    edges = frozenset(
        (i, j)
        for i, a in enumerate(ordered_partition)
        for j, b in enumerate(ordered_partition)
        if i != j and _lift_majority(agg, thr, a, b)
    )
    return CondensedGraph(
        blocks=tuple(final_blocks),
        rules=tuple(final_rules),
        edges=edges,
        mapping=mapping,
        overlaps=tuple(overlaps),
    )


def borda_scores(profile: Profile, averaged: bool = False) -> dict:
    """Points per policy: the top group earns m points per member, the next
    m-1, and so on; tied policies share their group's value.

    With ``averaged`` the tied policies instead split the positions their
    group occupies (values may be fractional).
    """
    m = len(profile.policies)
    scores = {p: Fraction(0) for p in profile.policies}
    for order in profile.orders():
        pos = 1
        for gi, group in enumerate(order.groups):
            if averaged:
                width = len(group)
                value = Fraction(
                    sum(m - (pos + k) + 1 for k in range(width)), width
                )
                pos += width
            else:
                value = Fraction(m - gi)
            for p in group:
                scores[p] += value
    if averaged:
        return scores
    return {p: int(v) for p, v in scores.items()}


def position_counts(profile: Profile, order_depth: int = 1) -> dict:
    """Positional count tables over strong orders.

    Depth 1: (position, policy) -> number of voters placing the policy at
    that 1-based position. Depth 2: (position pair, policy pair), both
    sorted tuples -> number of voters placing that unordered policy pair
    on that unordered position pair.
    """
    if order_depth not in (1, 2):
        raise InputError("order depth must be 1 or 2")
    for vid, order in profile.voters:
        if not order.is_strong():
            raise WeakOrderUnsupported(
                f"voter {vid!r} has ties; positional counts need strong orders"
            )
    counts = {}
    for order in profile.orders():
        placed = {p: i + 1 for i, g in enumerate(order.groups) for p in g}
        if order_depth == 1:
            for p, pos in placed.items():
                key = (pos, p)
                counts[key] = counts.get(key, 0) + 1
        else:
            pols = sorted(placed)
            for i, a in enumerate(pols):
                for b in pols[i + 1:]:
                    key = (tuple(sorted((placed[a], placed[b]))), (a, b))
                    counts[key] = counts.get(key, 0) + 1
    return counts
