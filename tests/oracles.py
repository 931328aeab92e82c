"""Reference implementations the tests compare the library against.

Each one computes what a library path computes, by a different or more
direct route: a subset-DP path count for the Hamiltonian enumeration, a
reachability test for circuit-freeness of sub-bigraphs, the pass test of
one selection for the simulator's fused sweep, the compatibility entropy in
40-digit decimals with one term per compatible pair, and two projector
solves of the Cesàro limit of a Markov chain, one over the rationals and
one by least squares, for the stationary distribution. For the newsgroup
scenario: the posting protocol over dicts keyed by event, one two-ply
order built per subscriber, and group comparisons recorded one per
subscriber and group pair.
"""

from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from preflattice.core import make_order
from preflattice.errors import InputError, SelfFollowup, UnknownParent, UnmappedThread
from preflattice.mlorder import max_likelihood_order, tally
from preflattice.selforg import APATHY, check_interest_names


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


def has_circuit(b) -> bool:
    """A circuit is a closed walk on distinct vertices using at least one
    directed edge, with C edges traversable in both directions.

    One exists iff some D edge (u,v) has u reachable from v in the mixed
    graph: the return walk plus the edge closes a circuit, and any closed
    walk through a D edge contains such a configuration.
    """
    adj = {v: set() for v in b.vertices}
    for u, v in b.d_edges:
        adj[u].add(v)
    for pair in b.c_edges:
        u, v = tuple(pair)
        adj[u].add(v)
        adj[v].add(u)
    return any(_mixed_reachable(adj, v, u) for u, v in b.d_edges)


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


def cesaro_lstsq(f):
    """The same projector equations solved in floats by least squares."""
    n = len(f)
    f = np.array([[float(x) for x in row] for row in f])
    a = f - np.eye(n)
    x0 = np.full(n, 1.0 / n)
    u, *_ = np.linalg.lstsq((a @ a).T, x0 @ a, rcond=None)
    y = np.maximum(x0 - u @ a, 0.0)
    return [float(v) for v in y / y.sum()]


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
