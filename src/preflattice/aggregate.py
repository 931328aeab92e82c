"""Aggregation of individual preference orders.

Common indifferences, the aggregate for/against count matrix, unanimity
and cycle classification, condensation into super-vertices, Borda
scores, and positional count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_, or_

from .core import LabeledMatrix, Profile, strict_counts
from .errors import InputError, WeakOrderUnsupported
from .graphalg import bits, strongly_connected_components


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
    classes: dict  # label -> "simple" | "compound-simple" | "complex", per component of 2+
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
    """Unanimity as one int row per label index, bit j of row i set when
    some voter ranks i above j and none ranks j above i."""
    rows = agg.q.rows
    return [sum(1 << j for j, x in enumerate(row) if x and not rows[j][i])
            for i, row in enumerate(rows)]


def _majority(agg: AggregateReach):
    """Majority as one int row per label index, bit j of row i set when more
    than half the voters rank i above j (an exact tie gives no direction)."""
    return [sum(1 << j for j, x in enumerate(row) if 2 * x > agg.n_voters) for row in agg.q.rows]


def _lift(rows, blocks):
    """The relation between distinct blocks as int rows: block i relates
    to block j when every member of i relates to every member of j."""
    masks = [sum(1 << x for x in b) for b in blocks]
    lifted = []
    for i, a in enumerate(blocks):
        common = reduce(and_, (rows[x] for x in a))  # what every member of a relates to
        lifted.append(sum(1 << j for j, m in enumerate(masks) if i != j and common & m == m))
    return lifted


def _label_pairs(labels, rows):
    """The pairs of labels int rows hold, row-major."""
    return [(labels[i], labels[j]) for i, row in enumerate(rows) for j in bits(row)]


def _unanimity_components(rows):
    """(members, class) for each weak component of two or more vertices of
    a strict partial order given as int rows, in order of least member,
    members ascending. The class reads the component's covers, its
    transitive reduction: the bits of i's row that no row i reaches holds.
    One cover is simple, covers with distinct heads and distinct tails (a
    chain) compound-simple, anything that branches complex.
    """
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    covers = [row & ~reduce(or_, (rows[w] for w in bits(row)), 0) for row in rows]
    components = []
    unseen = (1 << len(rows)) - 1
    while unseen:
        comp, frontier = 0, unseen & -unseen  # grown from the least unseen vertex
        while frontier:
            comp |= frontier
            frontier = reduce(or_, (rows[v] | cols[v] for v in bits(frontier))) & ~comp
        unseen &= ~comp
        if comp & comp - 1:  # two or more members
            members = tuple(bits(comp))
            n_covers = sum(covers[v].bit_count() for v in members)
            tails = sum(1 for v in members if covers[v])
            heads = reduce(or_, (covers[v] for v in members)).bit_count()
            cls = ("simple" if n_covers == 1
                   else "compound-simple" if tails == heads == n_covers
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
    q = LabeledMatrix(labels, tuple(tuple(r) for r in counts))
    agg = AggregateReach(q=q, n_voters=profile.n_voters, blocks=tuple(blocks))

    rows = _unanimous(agg)
    report = UnanimityReport(
        unanimities=frozenset(_label_pairs(labels, rows)),
        classes={labels[x]: cls for members, cls in _unanimity_components(rows) for x in members},
        sources=tuple(labels[j] for j, col in enumerate(zip(*counts)) if not any(col)),
        sinks=tuple(labels[i] for i, row in enumerate(counts) if not any(row)),
    )
    return agg, report


def _cycles(succ, unanimous, names):
    """(members, kind, dominators, dominees) as vertex indices for each
    strongly connected component of two or more vertices of the majority
    relation, given as successor lists in name order, the unanimity rows
    and the vertex names. Members are listed in name order; witnesses
    follow the indices.

    A cycle spanning every vertex is complete. Otherwise it is dominated
    when some outside vertex is unanimously above all members, dominating
    when some outside vertex is unanimously below all members, and plain
    when neither witness exists. A cycle that is both dominated and
    dominating is tagged dominated; both witness lists are reported.
    """
    cycles = []
    for comp in strongly_connected_components(succ):
        if len(comp) < 2:
            continue
        # no vertex is unanimously above or below itself, so no member is a witness
        mask = sum(1 << u for u in comp)
        dominators = tuple(d for d, row in enumerate(unanimous) if row & mask == mask)
        dominees = tuple(bits(reduce(and_, (unanimous[u] for u in comp))))
        if len(comp) == len(names):
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
    by_name = sorted(range(len(labs)), key=labs.__getitem__)
    half = agg.n_voters // 2  # 2x > n when x > n // 2
    succ = [[j for j in by_name if row[j] > half] for row in agg.q.rows]  # off the counts
    cycles = _cycles(succ, _unanimous(agg), labs)
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
        majority_rows = _lift(majority, [b for b, _ in blocks])
        unan_rows = _lift(unanimous, [b for b, _ in blocks])
        succ = [sorted(bits(row), key=names.__getitem__) for row in majority_rows]
        cycles = _cycles(succ, unan_rows, names)
        merge = next(((members, f"{kind}-cycle") for members, kind, *_ in cycles
                      if kind in ("dominated", "dominating")), None)
        if merge is None:
            for members, cls in _unanimity_components(unan_rows):
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
        edges=frozenset(sorted(_label_pairs(rank, majority_rows))),
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
