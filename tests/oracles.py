"""Reference implementations the tests compare the library against.

Each one computes what a library path computes, by a different or more
direct route: the graph algorithms on label digraphs keyed by dict and set
(Tarjan's components, the Hamiltonian walk, the transitive closure and the
poset built on it), the poset expanded into label pairs with its
antichain and chains found over successor lists built from them, a
subset-DP path count for the Hamiltonian
enumeration, a reachability test for circuit-freeness of sub-bigraphs, the
sub-bigraphs found through the completed bigraph, the subset tree over
frozensets and the group topology by testing every pair of interest sets,
the pass test of one selection for the simulator's fused sweep, the
packed sweep with one two-case mask test per neighbor and no distance-1
branch, the compatibility entropy in 40-digit decimals with one term per
compatible pair, and the Cesàro limit of a Markov chain for the stationary
distribution, by projector equations over the rationals and by
absorbing-chain solves in floats. For the newsgroup scenario: the posting
protocol over dicts keyed by event, one two-ply order built per
subscriber, and group comparisons recorded one per subscriber and group
pair. For aggregation: common indifferences as the intersection of each
voter's tied pairs, the count matrix by one rank lookup per voter and
vertex pair, mean matrices summed one ballot matrix at a time, and cycles
and condensation by label-keyed lifts that test every cross pair against
the count matrix. Unanimity components are classed on the label digraph,
by the weak components of its transitive reduction and the degrees within
each.
"""

from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from preflattice.aggregate import (
    AggregateReach,
    CondensedGraph,
    CycleInfo,
    UnanimityReport,
)
from preflattice.core import Bigraph, LabeledMatrix, Order, make_order
from preflattice.culture import Topology
from preflattice.errors import (
    CyclicRelation,
    InputError,
    SelfFollowup,
    UnknownParent,
    UnmappedThread,
)
from preflattice.graphalg import _compatible_subbigraph, digraph
from preflattice.mlorder import max_likelihood_order, tally
from preflattice.selforg import APATHY, check_interest_names, group_label


def _adjacency(g):
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
    return adj


def transitive_closure(g):
    """Edge (u,v) present iff a directed path u -> v exists in g."""
    adj = _adjacency(g)
    order = list(g.vertices)
    reach = {v: set(adj[v]) for v in order}
    for k in order:
        rk = reach[k]
        for u in order:
            if k in reach[u]:
                reach[u] |= rk
    return digraph(g.vertices, [(u, v) for u in order for v in reach[u]])


def label_poset(elements, pairs):
    """``poset`` by the label-keyed closure: its strict pairs (u, v), u
    below v, or CyclicRelation when the closure relates two distinct
    elements both ways."""
    elems = tuple(elements)
    closed = transitive_closure(digraph(elems, [(u, v) for u, v in pairs if u != v]))
    if any(u != v and (v, u) in closed.edges for u, v in closed.edges):
        raise CyclicRelation("cyclic relation")
    return closed.edges


def poset_pairs(p):
    """The strict pairs (u, v), u below v, of a Poset, read off its reach
    rows."""
    e = p.elements
    return frozenset(
        (e[i], e[j]) for i, r in enumerate(p.reach)
        for j, x in enumerate(bin(r)[:1:-1]) if x == "1"
    )


def pair_poset(elements, pairs):
    """``poset`` with its closure expanded into label pairs: the strict
    pairs (u, v), u below v, scanned in element order, so that the first
    pair found both ways names the CyclicRelation."""
    elems = tuple(elements)
    pos = {e: i for i, e in enumerate(elems)}
    reach = [0] * len(elems)  # bit j of reach[i]: element i is below element j
    for u, v in pairs:
        if u != v:
            reach[pos[u]] |= 1 << pos[v]
    for k, rk in enumerate(reach):
        bit = 1 << k
        for i, r in enumerate(reach):
            if r & bit:
                reach[i] = r | rk
    below = []
    for i, r in enumerate(reach):
        for j, x in enumerate(bin(r)[:1:-1]):
            if x == "1" and j != i:
                if reach[j] >> i & 1:
                    raise CyclicRelation(
                        f"{elems[i]!r} and {elems[j]!r} are mutually below each other"
                    )
                below.append((elems[i], elems[j]))
    return frozenset(below)


def pair_max_antichain(elements, below):
    """``max_antichain`` over the strict pairs of a poset: ascending index
    successor lists built from the pairs, the augmenting paths searched
    with one successor iterator per left vertex on the path, and Koenig's
    alternation breadth-first over the lists."""
    elems = list(elements)
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    succ = [[] for _ in range(n)]
    for u, v in below:
        succ[idx[u]].append(idx[v])
    for s in succ:
        s.sort()

    match_right = [None] * n
    match_left = [None] * n
    for root in range(n):
        visited = [False] * n
        frames = [(root, iter(succ[root]))]
        taken = []
        while frames:
            for v in frames[-1][1]:
                if not visited[v]:
                    visited[v] = True
                    break
            else:
                frames.pop()
                if taken:
                    taken.pop()
                continue
            taken.append(v)
            w = match_right[v]
            if w is None:
                for (u, _), v in zip(frames, taken):
                    match_right[v] = u
                    match_left[u] = v
                break
            frames.append((w, iter(succ[w])))

    chains = []
    for h in [v for v in range(n) if match_right[v] is None]:
        chain = [h]
        while match_left[chain[-1]] is not None:
            chain.append(match_left[chain[-1]])
        chains.append([elems[i] for i in chain])

    reached_left = [False] * n
    reached_right = [False] * n
    frontier = [u for u in range(n) if match_left[u] is None]
    for u in frontier:
        reached_left[u] = True
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if not reached_right[v]:
                    reached_right[v] = True
                    w = match_right[v]
                    if w is not None and not reached_left[w]:
                        reached_left[w] = True
                        nxt.append(w)
        frontier = nxt
    antichain = [elems[i] for i in range(n) if reached_left[i] and not reached_right[i]]
    return len(antichain), antichain, chains


def label_hamiltonian_paths(g):
    """All directed Hamiltonian paths of a label digraph; start vertices
    and extensions follow the declared vertex order."""
    adj = _adjacency(g)
    verts = list(g.vertices)
    paths = []
    path = []
    used = set()

    def extend(v):
        path.append(v)
        used.add(v)
        if len(path) == len(verts):
            paths.append(tuple(path))
        else:
            for w in verts:
                if w not in used and w in adj[v]:
                    extend(w)
        path.pop()
        used.remove(v)

    for s in verts:
        extend(s)
    return paths


def label_strongly_connected_components(g):
    """Tarjan's algorithm on a label digraph, iterative: roots in declared
    vertex order, successors in label order, components in completion
    order with sorted members."""
    adj = _adjacency(g)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]

    for root in g.vertices:
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
    return comps


def successor_lists(g):
    """A label digraph as successor lists over the positions of its
    declared vertices, each list in declared order."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    adj = _adjacency(g)
    return [sorted(pos[w] for w in adj[v]) for v in g.vertices]


def count_hamiltonian_paths(g) -> int:
    """Subset-DP count of the directed Hamiltonian paths of a digraph."""
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    succ = [0] * n
    for u, v in g.edges:
        succ[idx[u]] |= 1 << idx[v]
    # dp[mask][v] = number of paths covering mask and ending at v
    dp = [dict() for _ in range(1 << n)]
    for v in range(n):
        dp[1 << v][v] = 1
    total = 0
    full = (1 << n) - 1
    for mask in range(1 << n):
        for v, cnt in dp[mask].items():
            if mask == full:
                total += cnt
                continue
            nxt = succ[v] & ~mask
            while nxt:
                low = nxt & -nxt
                w = low.bit_length() - 1
                m2 = mask | low
                dp[m2][w] = dp[m2].get(w, 0) + cnt
                nxt ^= low
    return total if n > 0 else 0


def _mixed_reachable(adj, start, goal):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def bigraph(vertices, d_edges=(), c_edges=()) -> Bigraph:
    """A Bigraph from any iterables of D pairs and C pairs."""
    return Bigraph(
        tuple(vertices),
        frozenset((u, v) for u, v in d_edges),
        frozenset(frozenset(p) for p in c_edges),
    )


def _mixed_adjacency(b: Bigraph):
    """Directed view of C u D: C edges are traversable both ways."""
    adj = {v: set() for v in b.vertices}
    for u, v in b.d_edges:
        adj[u].add(v)
    for pair in b.c_edges:
        u, v = tuple(pair)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def has_circuit(b) -> bool:
    """A circuit is a closed walk on distinct vertices using at least one
    directed edge, with C edges traversable in both directions.

    One exists iff some D edge (u,v) has u reachable from v in the mixed
    graph: the return walk plus the edge closes a circuit, and any closed
    walk through a D edge contains such a configuration.
    """
    adj = _mixed_adjacency(b)
    return any(_mixed_reachable(adj, v, u) for u, v in b.d_edges)


def completed_bigraph(b: Bigraph) -> tuple[Bigraph, frozenset]:
    """Add filler C edges so every vertex pair is joined; returns the filled
    bigraph and the set of filler pairs (they carry no preference data)."""
    have = {frozenset((u, v)) for u, v in b.d_edges} | set(b.c_edges)
    fillers = set()
    verts = list(b.vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            pair = frozenset((u, v))
            if pair not in have:
                fillers.add(pair)
    return (
        bigraph(b.vertices, b.d_edges, set(b.c_edges) | fillers),
        frozenset(fillers),
    )


def _path_to_order(path, c_pairs) -> Order:
    """Collapse maximal runs of C steps along a path into tie-groups."""
    groups = [[path[0]]]
    for a, z in zip(path, path[1:]):
        if frozenset((a, z)) in c_pairs:
            groups[-1].append(z)
        else:
            groups.append([z])
    return Order(tuple(tuple(sorted(g)) for g in groups))


def completed_bigraph_subbigraphs(b: Bigraph):
    """maximal_circuit_free_subbigraphs by way of the completed bigraph:
    its mixed adjacency, turned into an edge list and a label digraph."""
    filled, _ = completed_bigraph(b)
    adj = _mixed_adjacency(filled)
    walk = digraph(filled.vertices, [(u, v) for u in adj for v in adj[u]])
    seen = {}
    for p in label_hamiltonian_paths(walk):
        order = _path_to_order(p, filled.c_edges)
        if order not in seen:
            seen[order] = _compatible_subbigraph(b, order)
    return [(sub, order) for order, sub in seen.items()]


def frozenset_subset_tree_topology(n_features: int) -> Topology:
    """subset_tree_topology over frozensets of features, one cover at a
    time by adding each missing feature."""
    if n_features < 1:
        raise InputError("subset tree needs at least one feature")
    levels = [list(combinations(range(n_features), k)) for k in range(1, n_features + 1)]
    subsets = [frozenset(c) for level in levels for c in level]
    index = {s: i for i, s in enumerate(subsets)}
    neighbors = [[] for _ in subsets]
    for s, i in index.items():
        for extra in range(n_features):
            if extra not in s:
                t = s | {extra}
                j = index[t]
                neighbors[i].append(j)
                neighbors[j].append(i)
    return Topology(
        "subset-tree",
        tuple(tuple(sorted(n)) for n in neighbors),
        tuple((len(c), pos) for level in levels for pos, c in enumerate(level)),
    )


def pairwise_group_topology(interests, mode: str = "subset-lattice"):
    """group_topology by testing every pair of interest sets for strict
    containment, the mode checked inside the loop."""
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


def similarity(x, y) -> int:
    """Number of features on which two agents hold the same trait."""
    return sum(a == b for a, b in zip(x, y, strict=True))


def interaction_allowed(x, y, cfg, draw: float) -> bool:
    """Pass test: at least one shared and one differing feature, and the
    scaled distance (k*d + epsilon) falls below the chance draw."""
    s = similarity(x, y)
    if not 1 <= s <= cfg.n_features - 1:
        return False
    d = cfg.n_features - s
    return cfg.k_effective * d + cfg.epsilon < draw


def packed_sweep(codes, hoods, selections, thr, peer, rng, codec, rejected):
    """One period of selections on the packed agents, in place; returns
    (interactions, passed selections without a seconder) and adds each
    pass-test refusal to ``rejected[d]``. ``hoods`` holds, per agent, its
    neighbors, their count and the count's bit length.

    Each selection draws an agent, one of its neighbors and a chance
    ``draw``; it passes when ``thr[d] < draw`` for the pair's distance d
    (``thr`` is infinite at d = 0 and d = n, which need at least one shared
    and one differing feature). A pass draws the differing feature to copy,
    the j-th in feature order. Under PeerPossible the copy also needs a
    seconder among the agent's other neighbors, checked before the copy:

    (a) the seconder already holds the candidate trait on the chosen
        feature and differs from the donor on some feature the agent and
        donor share, or
    (b) the seconder shares at least one trait with the donor while
        lacking the candidate trait.

    Without one, no copy happens and the selection is not an interaction.
    Every test is one mask operation on the codes (see TraitCodec).
    Bounded draws repeat ``Random.randrange``: ``getrandbits`` of the
    bound's bit length, redrawn while out of range, so the stream is the
    one a per-selection ``randrange`` loop consumes.
    """
    getrandbits = rng.getrandbits
    chance = rng.random
    size = len(codes)
    size_bits = size.bit_length()
    ones, guards, bits = codec.ones, codec.guards, codec.bits
    refused_before = sum(rejected)
    interactions = no_seconder = 0
    for _ in range(selections):
        x_idx = getrandbits(size_bits)
        while x_idx >= size:
            x_idx = getrandbits(size_bits)
        nbrs, m, nbits = hoods[x_idx]
        j = getrandbits(nbits)
        while j >= m:
            j = getrandbits(nbits)
        z_idx = nbrs[j]
        draw = chance()
        x = codes[x_idx]
        z = codes[z_idx]
        if x == z:
            continue  # an identical pair (d = 0), tallied after the loop
        differ = (x ^ z) + ones & guards
        d = differ.bit_count()
        if not thr[d] < draw:
            rejected[d] += 1
            continue
        nbits = d.bit_length()
        j = getrandbits(nbits)
        while j >= d:
            j = getrandbits(nbits)
        rest = differ
        for _ in range(j):
            rest &= rest - 1
        guard = rest & -rest
        trait_bits = guard - (guard >> bits)  # the chosen feature's field
        if peer:
            shared = guards ^ differ
            for y_idx in nbrs:
                if y_idx == z_idx:
                    continue
                yz = codes[y_idx] ^ z
                if yz & trait_bits:
                    if yz + ones & guards != guards:
                        break
                elif yz + ones & shared:
                    break
            else:
                no_seconder += 1
                continue
        codes[x_idx] = x ^ (x ^ z) & trait_bits
        interactions += 1
    refused = sum(rejected) - refused_before
    rejected[0] += selections - interactions - no_seconder - refused
    return interactions, no_seconder


def compatibility_entropy_decimal(agents) -> float:
    """Compatibility entropy of a population of trait vectors, computed in
    40-digit decimals: one probability term per pair of distinct varieties
    sharing a trait, renormalized, and its entropy scaled by ln C(N, 2).
    Equal probabilities share one evaluation of their log."""
    if len(agents) < 3:
        return 0.0
    counts = Counter(map(tuple, agents))
    with localcontext() as ctx:
        ctx.prec = 40
        n = Decimal(len(agents))
        probs = [
            nu / n * (nv / (n - nu)) + nv / n * (nu / (n - nv))
            for (u, nu), (v, nv) in combinations(counts.items(), 2)
            if similarity(u, v) > 0
        ]
        if not probs:
            return 0.0
        total = sum(probs)
        logs = {}
        for p in probs:
            if p not in logs:
                logs[p] = (p / total).ln()
        entropy = -sum(p / total * logs[p] for p in probs)
        return float(entropy / (n * (n - 1) / 2).ln())


def frac_solve(m, rhs):
    """Any exact solution x of m x = rhs over the rationals.

    The system may be underdetermined; free variables are set to zero.
    Raises ValueError if the system is inconsistent.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    aug = [list(m[i]) + [rhs[i]] for i in range(n_rows)]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            raise ValueError("inconsistent system")
    x = [Fraction(0)] * n_cols
    for i, c in pivots:
        x[c] = aug[i][n_cols]
    return x


def cesaro_exact(f):
    """Exact Cesàro limit y of the uniform start under row-stochastic f.

    With A = F - I, the limit satisfies y = x0 - uA where u solves
    uA² = x0 A; the eigenvalue 1 of a stochastic matrix is semisimple, so
    the system is consistent and the construction is exact.
    """
    n = len(f)
    f = [[Fraction(x) for x in row] for row in f]
    a = [[f[i][j] - (i == j) for j in range(n)] for i in range(n)]
    a2 = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    x0 = [Fraction(1, n)] * n
    b = [sum(x0[i] * a[i][j] for i in range(n)) for j in range(n)]
    a2t = [[a2[i][j] for i in range(n)] for j in range(n)]
    u = frac_solve(a2t, b)
    ua = [sum(u[i] * a[i][j] for i in range(n)) for j in range(n)]
    return [x0[j] - ua[j] for j in range(n)]


def cesaro_absorbing(f):
    """The same Cesàro limit in floats, by the absorbing-chain solves of
    Kemeny and Snell: closed classes from a boolean reachability closure,
    each class's own distribution by least squares on π(F_CC - I) = 0 with
    Σπ = 1, and the mass the transient states send it through the
    nonsingular (I - F_TT) b = F_TC 1. Least squares on the projector
    equations uA² = x0 A instead squares their conditioning, and missed
    some drawn chains of 13 to 40 states by more than 1e-12."""
    n = len(f)
    f = np.array([[float(x) for x in row] for row in f])
    reach = (f > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    closed = []
    for i in range(n):
        members = [j for j in range(n) if reach[i, j] and reach[j, i]]
        if members not in closed and all(reach[j, i] for j in range(n) if reach[i, j]):
            closed.append(members)
    transient = [i for i in range(n) if not any(i in c for c in closed)]
    leave = np.eye(len(transient)) - f[np.ix_(transient, transient)]
    y = np.zeros(n)
    for c in closed:
        k = len(c)
        a = np.vstack([(f[np.ix_(c, c)] - np.eye(k)).T, np.ones(k)])
        pi, *_ = np.linalg.lstsq(a, np.r_[np.zeros(k), 1.0], rcond=None)
        inflow = np.linalg.solve(leave, f[np.ix_(transient, c)].sum(axis=1)).sum() if transient else 0.0
        y[c] = pi * (k + inflow) / n
    return [float(v) for v in y]


def dict_keyed_protocol(events):
    """(events, counted, flags) of the posting protocol, each parent
    resolved through a per-thread {t: events seen so far} map and every
    state kept in dicts and sets keyed by event."""
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
            matches = seen.get(event.parent, ())
            if not matches:
                raise UnknownParent(
                    f"event t={event.t} references t={event.parent}, which has no "
                    f"earlier match in thread {event.thread!r}"
                )
            if len(matches) > 1:
                raise InputError(
                    f"thread {event.thread!r} has multiple events at t={event.parent}"
                )
            parent = parents[event] = matches[0]
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
    return tuple(events), tuple(counted), flags


def per_subscriber_prefs(ledger, thread_map, interests=None) -> dict:
    """One two-ply order built per subscriber: counted interests on top,
    every other interest and the apathy element below."""
    universe = set(thread_map.values()) | set(interests or ())
    labels = check_interest_names(universe) + [APATHY]
    prefs = {}
    for sub in ledger.subscribers():
        top = set()
        for thread in ledger.counted_threads(sub):
            if thread not in thread_map:
                raise UnmappedThread(f"thread {thread!r} is not mapped to an interest")
            top.add(thread_map[thread])
        rest = sorted(set(labels) - top)
        prefs[sub] = make_order(labels, [sorted(top), rest] if top else [rest])
    return prefs


def per_subscriber_group_tally(cross_activity):
    """One comparison record per subscriber and group pair (more posts
    wins, equal counts tie), accumulated by ``tally``."""
    groups = sorted({g for tallies in cross_activity.values() for g in tallies})
    comparisons = []
    for sub in sorted(cross_activity):
        tallies = cross_activity[sub]
        for a, b in combinations(groups, 2):
            na, nb = tallies.get(a, 0), tallies.get(b, 0)
            comparisons.append((a, b, ">" if na > nb else "<" if nb > na else "="))
    return tally(comparisons)


def per_subscriber_group_order(cross_activity):
    """The top order of the maximum likelihood procedure on
    ``per_subscriber_group_tally``."""
    return max_likelihood_order(per_subscriber_group_tally(cross_activity))[0][0]


def pairwise_common_indifferences(profile) -> frozenset:
    """Unordered pairs indifferent for every voter: the intersection of
    each voter's set of tied pairs."""
    common = None
    for order in profile.orders():
        pairs = set()
        for group in order.groups:
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    pairs.add(frozenset((u, v)))
        common = pairs if common is None else common & pairs
    return frozenset(common)


def weak_components(g):
    """Connected components with edge directions ignored; sorted members."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for s in g.vertices:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def transitive_reduction(g):
    """Smallest edge set with the same reachability; requires g acyclic."""
    closed = transitive_closure(g)
    for u, v in closed.edges:
        if (v, u) in closed.edges:
            raise CyclicRelation("transitive reduction needs an acyclic digraph")
    reach = _adjacency(closed)
    kept = set()
    for u, v in g.edges:
        if u == v:
            continue
        if not any(v in reach[w] for w in reach[u] if w != v):
            kept.add((u, v))
    return digraph(g.vertices, kept)


def _classify_unanimity_components(labels, unanimities):
    """Class per unanimous pair, determined by the shape of its weak
    component in the transitive reduction of the unanimity digraph:
    one edge = simple, a single path = compound-simple, anything with
    branching = complex. Closure pairs inherit their component's class.
    Also returns each vertex's (component members, class).
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


def _label_unanimities(q):
    labs = q.labels
    return frozenset(
        (u, v)
        for u in labs
        for v in labs
        if u != v and q.entry(u, v) >= 1 and q.entry(v, u) == 0
    )


def per_voter_aggregate_reach(profile):
    """``aggregate_reach`` with the blocks taken as weak components of the
    common-indifference pairs and each count found by comparing the ranks
    of two block representatives on every voter's ballot."""
    pairs = map(tuple, pairwise_common_indifferences(profile))
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
    unan = _label_unanimities(q)
    classification, _ = _classify_unanimity_components(labels, unan)
    report = UnanimityReport(
        unanimities=unan,
        classification=classification,
        sources=tuple(labels[j] for j in range(k) if all(counts[i][j] == 0 for i in range(k))),
        sinks=tuple(labels[i] for i in range(k) if all(counts[i][j] == 0 for j in range(k))),
    )
    return agg, report


def mean_matrix_by_ballot(profile, matrix_of):
    """Exact mean over the voters of matrix_of(order), aligned to the
    profile's policy order: each distinct ballot's matrix is summed once,
    weighted by its count, and the total divided by the voter count."""
    labels = profile.policies
    pos = {lab: i for i, lab in enumerate(labels)}
    acc = [[0] * len(labels) for _ in labels]
    for order, count in Counter(profile.orders()).items():
        m = matrix_of(order)
        for a, row in zip(m.labels, m.rows):
            target = acc[pos[a]]
            for b, x in zip(m.labels, row):
                if x:
                    target[pos[b]] += count * x
    share = Fraction(1, profile.n_voters)
    return LabeledMatrix(labels, tuple(tuple(x * share for x in row) for row in acc))


def label_classify_cycles(agg):
    """CycleInfo per strongly connected component (size >= 2) of the
    label-level majority digraph, with witnesses found by label pairs."""
    thr = Fraction(agg.n_voters, 2)
    labs = agg.q.labels
    g = digraph(labs, [(u, v) for u in labs for v in labs
                       if u != v and agg.q.entry(u, v) > thr])
    unan = _label_unanimities(agg.q)
    cycles = []
    for comp in label_strongly_connected_components(g):
        if len(comp) < 2:
            continue
        outside = [u for u in labs if u not in comp]
        dominators = tuple(d for d in outside if all((d, u) in unan for u in comp))
        dominees = tuple(d for d in outside if all((u, d) in unan for u in comp))
        if not outside:
            kind = "complete"
        elif dominators:
            kind = "dominated"
        elif dominees:
            kind = "dominating"
        else:
            kind = "plain"
        cycles.append(CycleInfo(members=comp, kind=kind, dominators=dominators, dominees=dominees))
    return cycles


def label_condense(agg):
    """``condense`` over blocks of labels, each block-level relation tested
    pair by pair against the count matrix and the block graphs rebuilt
    for each phase of a round. Overlaps are recorded on every round that
    meets them, so one can repeat."""
    thr = Fraction(agg.n_voters, 2)
    labs = agg.q.labels

    def unanimous(block_a, block_b):
        return all(agg.q.entry(a, b) >= 1 and agg.q.entry(b, a) == 0
                   for a in block_a for b in block_b)

    def majority(block_a, block_b):
        return all(agg.q.entry(a, b) > thr for a in block_a for b in block_b)

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
        names = {b: min(b) for b in partition}
        block_g = digraph(
            [names[b] for b in partition],
            [(names[a], names[b]) for a in partition for b in partition
             if a != b and majority(a, b)],
        )
        by_name = {names[b]: b for b in partition}
        for comp in label_strongly_connected_components(block_g):
            if len(comp) < 2:
                continue
            comp_blocks = [by_name[n] for n in comp]
            if len(comp_blocks) == len(partition):
                continue
            outside = [b for b in partition if b not in comp_blocks]
            dominated = any(all(unanimous(d, m) for m in comp_blocks) for d in outside)
            dominating = any(all(unanimous(m, d) for m in comp_blocks) for d in outside)
            if dominated or dominating:
                rule = "dominated-cycle" if dominated else "dominating-cycle"
                frozen.add(merge(comp_blocks, rule))
                changed = True
                break
        if changed:
            continue

        names = {b: min(b) for b in partition}
        by_name = {names[b]: b for b in partition}
        unan_edges = [(names[a], names[b]) for a in partition for b in partition
                      if a != b and unanimous(a, b)]
        _, comp_of = _classify_unanimity_components(
            tuple(names[b] for b in partition), frozenset(unan_edges)
        )
        handled = set()
        for members, cls in comp_of.values():
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

    label_members = dict(zip(labs, agg.blocks))
    ordered = sorted(partition, key=min)
    final_blocks = []
    final_rules = []
    for b in ordered:
        originals = tuple(sorted(x for lab in b for x in label_members[lab]))
        rule = rules[b]
        if rule == "singleton" and len(originals) > 1:
            rule = "merged-indifference"
        final_blocks.append(originals)
        final_rules.append(rule)
    return CondensedGraph(
        blocks=tuple(final_blocks),
        rules=tuple(final_rules),
        edges=frozenset((i, j) for i, a in enumerate(ordered) for j, b in enumerate(ordered)
                        if i != j and majority(a, b)),
        mapping={orig: i for i, blk in enumerate(final_blocks) for orig in blk},
        overlaps=tuple(overlaps),
    )
