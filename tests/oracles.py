"""Reference implementations the tests compare the library against.

Each one computes what a library path computes, by a different or more
direct route: a subset-DP path count for the Hamiltonian enumeration, a
reachability test for circuit-freeness of sub-bigraphs, and the pass test
of one selection for the simulator's fused sweep.
"""


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
