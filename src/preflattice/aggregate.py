"""Aggregation of individual preference orders.

Common indifferences, the aggregate for/against count matrix, unanimity
and cycle classification, condensation into super-vertices, Borda
scores, and positional count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import LabeledMatrix, Profile, strict_counts
from .errors import InputError, WeakOrderUnsupported
from .graphalg import strongly_connected_components


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


def _indifference_blocks(policies, c):
    """Policies every voter ties, as blocks of sorted members in order of
    first appearance in the policy list. Ties of every voter are an
    equivalence, so a block is the class of its first policy: the j with
    c[i][j] = c[j][i] = 0."""
    blocks = []
    placed = set()
    for i, p in enumerate(policies):
        if p not in placed:
            block = tuple(sorted(
                v for j, v in enumerate(policies) if c[i][j] == c[j][i] == 0
            ))
            placed.update(block)
            blocks.append(block)
    return blocks


def common_indifferences(profile: Profile) -> frozenset:
    """Unordered pairs indifferent for every voter."""
    blocks = _indifference_blocks(profile.policies, strict_counts(profile))
    return frozenset(frozenset(pair) for b in blocks for pair in combinations(b, 2))


def _unanimous(agg: AggregateReach):
    """Unanimity as a boolean table on label indices: u is unanimously
    above v when some voter ranks u above v and none ranks v above u."""
    rows = agg.q.rows
    return [[x >= 1 and rows[j][i] == 0 for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def _majority(agg: AggregateReach):
    """Majority as a boolean table on label indices: u beats v when more
    than half the voters rank u above v, so an exact tie gives no direction."""
    return [[2 * x > agg.n_voters for x in row] for row in agg.q.rows]


def _lift(relation, blocks):
    """The relation between distinct blocks as a boolean table: block i
    relates to block j when every member of i relates to every member of j."""
    table = []
    for i, a in enumerate(blocks):
        # the labels every member of block a relates to
        common = [all(col) for col in zip(*(relation[x] for x in a))]
        table.append([i != j and all(map(common.__getitem__, b)) for j, b in enumerate(blocks)])
    return table


def _label_pairs(labels, table):
    """The pairs of labels a boolean table holds, row-major."""
    return [(labels[i], labels[j]) for i, row in enumerate(table) for j, x in enumerate(row) if x]


def _unanimity_components(rel):
    """(members, class) for each weak component of two or more vertices of
    a strict partial order given as a boolean table, in order of least
    member, members ascending. The class reads the component's covers,
    the pairs with nothing between them (its transitive reduction): one
    cover is simple, covers with distinct heads and distinct tails (a
    chain) compound-simple, anything that branches complex.
    """
    comp = list(range(len(rel)))  # each vertex's component, named by its least member
    for i, row in enumerate(rel):
        for j, x in enumerate(row):
            if x and comp[i] != comp[j]:
                keep, drop = sorted((comp[i], comp[j]))
                comp = [keep if c == drop else c for c in comp]
    components = []
    for least in sorted(set(comp)):
        members = tuple(v for v, c in enumerate(comp) if c == least)
        if len(members) < 2:
            continue
        covers = [(i, j) for i in members for j in members
                  if rel[i][j] and not any(rel[i][w] and rel[w][j] for w in members)]
        tails, heads = map(set, zip(*covers))
        cls = ("simple" if len(covers) == 1
               else "compound-simple" if len(tails) == len(heads) == len(covers)
               else "complex")
        components.append((members, cls))
    return components


def aggregate_reach(profile: Profile):
    """Aggregate count matrix plus the unanimity report.

    Commonly-indifferent policies are merged into single vertices first:
    the classes of the policies every voter ties, in order of first
    appearance in the policy list, labelled by their sorted members
    joined with '='. q_uv then counts the voters ranking u's block
    strictly above v's, read off the strict-preference counts at one
    member of each block (every voter ties the others with it).
    A pair is unanimous when its against-count is zero and its for-count
    positive; a source has an all-zero column (nobody is ranked above it
    by any voter) and a sink an all-zero row.
    """
    c = strict_counts(profile)
    blocks = _indifference_blocks(profile.policies, c)
    labels = tuple("=".join(b) for b in blocks)
    pos = {p: i for i, p in enumerate(profile.policies)}
    reps = [pos[b[0]] for b in blocks]
    counts = [[c[i][j] for j in reps] for i in reps]
    k = len(blocks)
    q = LabeledMatrix(labels, tuple(tuple(r) for r in counts))
    agg = AggregateReach(q=q, n_voters=profile.n_voters, blocks=tuple(blocks))

    table = _unanimous(agg)
    unan = frozenset(_label_pairs(labels, table))
    class_of = {labels[x]: cls for members, cls in _unanimity_components(table) for x in members}
    classification = {(u, v): class_of[u] for u, v in unan}
    sources = tuple(
        labels[j] for j in range(k) if all(counts[i][j] == 0 for i in range(k))
    )
    sinks = tuple(
        labels[i] for i in range(k) if all(counts[i][j] == 0 for j in range(k))
    )
    report = UnanimityReport(
        unanimities=unan,
        classification=classification,
        sources=sources,
        sinks=sinks,
    )
    return agg, report


def _cycles(majority, unanimous, names):
    """(members, kind, dominators, dominees) as vertex indices for each
    strongly connected component of two or more vertices of a majority
    table, given the unanimity table and the vertex names. Successors are
    tried in name order and members listed in it; witnesses follow the
    indices.

    A cycle spanning every vertex is complete. Otherwise it is dominated
    when some outside vertex is unanimously above all members, dominating
    when some outside vertex is unanimously below all members, and plain
    when neither witness exists. A cycle that is both dominated and
    dominating is tagged dominated; both witness lists are reported.
    """
    by_name = sorted(range(len(names)), key=names.__getitem__)
    cycles = []
    for comp in strongly_connected_components([[j for j in by_name if row[j]] for row in majority]):
        if len(comp) < 2:
            continue
        outside = [d for d in range(len(names)) if d not in comp]
        dominators = tuple(d for d in outside if all(unanimous[d][u] for u in comp))
        dominees = tuple(d for d in outside if all(unanimous[u][d] for u in comp))
        if not outside:
            kind = "complete"
        elif dominators:
            kind = "dominated"
        elif dominees:
            kind = "dominating"
        else:
            kind = "plain"
        cycles.append((sorted(comp, key=names.__getitem__), kind, dominators, dominees))
    return cycles


def classify_cycles(agg: AggregateReach) -> list:
    """The cycles of the majority relation over single vertices; see _cycles."""
    labs = agg.q.labels
    cycles = _cycles(_majority(agg), _unanimous(agg), labs)
    return [CycleInfo(tuple(labs[v] for v in members), kind,
                      tuple(labs[v] for v in dominators), tuple(labs[v] for v in dominees))
            for members, kind, dominators, dominees in cycles]


def condense(agg: AggregateReach) -> CondensedGraph:
    """Merge condensable structures into super-vertices until fixpoint.

    Each round merges the first dominated or dominating majority cycle
    (complete cycles stay) or, when there is none, the first simple or
    compound-simple unanimity component. A block made by a cycle (its
    rule ends in "-cycle") never takes part in a later unanimity merge,
    and complex unanimity components are never merged; both situations
    are reported once each in ``overlaps`` when they block a merge. A
    merged block replaces its members at the end of the block list. All
    lifts are universal: a block-level relation holds only when every
    cross pair of original vertices has it. Majority means more than half
    the voters, so an exact tie gives no direction.
    """
    labs = agg.q.labels
    unanimous, majority = _unanimous(agg), _majority(agg)
    blocks = [((i,), "singleton") for i in range(len(labs))]  # (label indices, rule)
    overlaps = {}  # (members, reason) -> None, in order of first report
    while True:
        # the block relations of this round; a block is named by its least label
        names = [min(labs[x] for x in b) for b, _ in blocks]
        majority_table = _lift(majority, [b for b, _ in blocks])
        unan_table = _lift(unanimous, [b for b, _ in blocks])
        merge = next(((members, f"{kind}-cycle")
                      for members, kind, *_ in _cycles(majority_table, unan_table, names)
                      if kind in ("dominated", "dominating")), None)
        if merge is None:
            for members, cls in _unanimity_components(unan_table):
                if any(blocks[i][1].endswith("-cycle") for i in members):
                    flat = tuple(sorted(labs[x] for i in members for x in blocks[i][0]))
                    reason = ("complex-unanimity-overlaps-cycle" if cls == "complex"
                              else "unanimity-blocked-by-cycle-block")
                    overlaps[(flat, reason)] = None
                elif cls != "complex":
                    merge = (members, f"{cls}-unanimity")
                    break
        if merge is None:
            break
        members, rule = merge
        joined = tuple(x for i in members for x in blocks[i][0])
        blocks = [blk for i, blk in enumerate(blocks) if i not in members] + [(joined, rule)]

    # blocks in order of their least label, expanded to original policies;
    # sorting the re-indexed pairs lists the edges row-major
    order = sorted(range(len(blocks)), key=names.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    final_blocks = []
    final_rules = []
    for i in order:
        members, rule = blocks[i]
        originals = tuple(sorted(x for lab in members for x in agg.blocks[lab]))
        if rule == "singleton" and len(originals) > 1:
            rule = "merged-indifference"
        final_blocks.append(originals)
        final_rules.append(rule)
    mapping = {
        orig: i for i, blk in enumerate(final_blocks) for orig in blk
    }
    return CondensedGraph(
        blocks=tuple(final_blocks),
        rules=tuple(final_rules),
        edges=frozenset(sorted(_label_pairs(rank, majority_table))),
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
