"""Graph and poset algorithms shared by the analysis modules.

Hamiltonian path enumeration, the subset lattice, maximal circuit-free
sub-bigraphs, strongly connected components, closure and antichain/chain
decomposition of posets, and take-grant connectivity. The digraph
algorithms take successor lists over the vertices 0..n-1 (succ[v] lists
the heads of v's arcs), so callers pass the tables they already hold;
``Digraph`` is the label type at the API edge.
Everything here is desk-scale and exact; enumeration routines carry caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Bigraph, Order
from .errors import (
    CapExceeded,
    CyclicRelation,
    DuplicateLabel,
    InputError,
    UnknownVertex,
    vertex_cap,
)

HAMILTONIAN_CAP = 10


@dataclass(frozen=True)
class Digraph:
    vertices: tuple[str, ...]
    edges: frozenset  # of (u, v)

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise InputError("duplicate digraph vertex")
        for u, v in sorted(self.edges):  # sorted, so the message names the least offender
            if u not in known or v not in known:
                raise UnknownVertex(f"edge ({u!r},{v!r}) uses unknown vertex")


def digraph(vertices, edges) -> Digraph:
    return Digraph(tuple(vertices), frozenset((u, v) for u, v in edges))


def hamiltonian_paths(succ):
    """All directed paths visiting every vertex exactly once.

    Deterministic: start vertices follow index order and extensions the
    order of each successor list. Capped (default 10 vertices).
    """
    n = len(succ)
    cap = vertex_cap(HAMILTONIAN_CAP)
    if n > cap:
        raise CapExceeded(
            f"hamiltonian path search over {n} vertices exceeds the cap of {cap}"
        )
    paths = []
    path = []
    used = [False] * n

    def extend(v):
        path.append(v)
        used[v] = True
        if len(path) == n:
            paths.append(tuple(path))
        else:
            for w in succ[v]:
                if not used[w]:
                    extend(w)
        path.pop()
        used[v] = False

    for s in range(n):
        extend(s)
    return paths


def bits(mask):
    """The indices of the set bits of an int, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


# ---------------------------------------------------------------------------
# subsets: the lattice both subset topologies stand on

def subset_lattice(n: int) -> list:
    """The nonempty subsets of range(n) as bitmasks (bit e for element e),
    in (size, sorted members) order; a subset's covers are m ^ 1 << e."""
    return [sum(1 << e for e in c) for k in range(1, n + 1) for c in combinations(range(n), k)]


# ---------------------------------------------------------------------------
# bigraphs: maximal circuit-free sub-bigraphs

def _compatible_subbigraph(b: Bigraph, order: Order) -> Bigraph:
    rank = order.ranks()
    d_keep = {(u, v) for u, v in b.d_edges if rank[u] < rank[v]}
    c_keep = {p for p in b.c_edges if len({rank[x] for x in p}) == 1}
    return Bigraph(b.vertices, frozenset(d_keep), frozenset(c_keep))


def maximal_circuit_free_subbigraphs(b: Bigraph):
    """Enumerate the maximal circuit-free sub-bigraphs of b.

    Each corresponds to a Hamiltonian path of the walk digraph: every
    ordered pair of vertices except one against a D edge, so D edges run
    one way and every pair D does not join (its C pairs, and missing pairs
    filled in as indifference for the traversal only) both ways. Maximal
    runs of C steps, those whose reverse arc exists, are the tie-groups of
    the path's order. Paths that induce the same weak order describe the same
    sub-bigraph, so the result is deduplicated by order: a list of
    (sub-bigraph, order) pairs, where the sub-bigraph keeps exactly the
    original edges compatible with the order.
    """
    verts = b.vertices
    pos = {v: i for i, v in enumerate(verts)}
    arc = [[i != j for j in range(len(verts))] for i in range(len(verts))]
    for u, v in b.d_edges:
        arc[pos[v]][pos[u]] = False
    seen = {}
    for path in hamiltonian_paths([[j for j, x in enumerate(row) if x] for row in arc]):
        groups = [[verts[path[0]]]]
        for a, z in zip(path, path[1:]):
            if arc[z][a]:
                groups[-1].append(verts[z])
            else:
                groups.append([verts[z]])
        order = Order(tuple(tuple(sorted(g)) for g in groups))
        if order not in seen:
            seen[order] = _compatible_subbigraph(b, order)
    return [(sub, order) for order, sub in seen.items()]


def strongly_connected_components(succ):
    """Tarjan's algorithm, iterative, over successor lists on the vertices
    0..n-1. Roots are tried in index order and each vertex's successors
    in the order listed; the components come in completion order, each a
    tuple of its vertices in the order they were reached."""
    n = len(succ)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    work = []  # (vertex, its untried successors, stack depth below it)
    comps = []
    counter = 0

    def reach(v):
        nonlocal counter
        index[v] = low[v] = counter
        counter += 1
        work.append((v, iter(succ[v]), len(stack)))
        stack.append(v)
        on_stack[v] = True

    for root in range(n):
        if index[root] is None:
            reach(root)
        while work:
            v, untried, depth = work[-1]
            for w in untried:
                if index[w] is None:
                    reach(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = stack[depth:]
                    del stack[depth:]
                    for w in comp:
                        on_stack[w] = False
                    comps.append(tuple(comp))
    return comps


# ---------------------------------------------------------------------------
# posets: Dilworth decomposition

@dataclass(frozen=True)
class Poset:
    """A finite partial order: bit j of ``reach[i]`` is set when element i
    is strictly below element j."""

    elements: tuple[str, ...]
    reach: tuple[int, ...]


def poset(elements, pairs) -> Poset:
    """Build a poset from comparabilities (u <= v), closing transitively
    (Warshall's, on one bitmask per element) and rejecting a cycle by the
    first pair (u, v) in element order with u != v and each below the other.
    """
    elems = tuple(elements)
    pos = {e: i for i, e in enumerate(elems)}
    if len(pos) != len(elems):
        raise InputError("duplicate poset element")
    reach = [0] * len(elems)
    for u, v in pairs:
        if u not in pos or v not in pos:
            raise UnknownVertex(f"pair ({u!r},{v!r}) uses unknown element")
        if u != v:
            reach[pos[u]] |= 1 << pos[v]
    for k, rk in enumerate(reach):
        bit = 1 << k
        for i, r in enumerate(reach):
            if r & bit:
                reach[i] = r | rk
    # self-pairs were dropped, so an element below itself lies on a cycle
    for i, r in enumerate(reach):
        if r >> i & 1:
            j = next(j for j, s in enumerate(reach) if j != i and r >> j & 1 and s >> i & 1)
            raise CyclicRelation(
                f"{elems[i]!r} and {elems[j]!r} are mutually below each other"
            )
    return Poset(elems, tuple(reach))


def max_antichain(p: Poset):
    """Largest antichain and a minimum chain partition (they have equal size).

    Uses the matching construction: elements are split into left/right
    copies, comparabilities become bipartite edges, and a maximum matching
    yields n - |matching| chains; the complement of a minimum vertex cover
    gives an antichain of the same size.
    """
    elems, reach = p.elements, p.reach
    n = len(elems)
    match_right = [None] * n  # right vertex -> matched left vertex
    match_left = [None] * n

    # augmenting paths by depth-first search, iterative so that a long path
    # cannot overflow the stack: the left vertices on the path, and the
    # right vertex each has taken; a left vertex's next successor is the
    # lowest bit of its reach row not yet visited
    for root in range(n):
        visited = 0
        path = [root]
        taken = []
        while path:
            free = reach[path[-1]] & ~visited
            if not free:
                path.pop()
                if taken:
                    taken.pop()
                continue
            v = (free & -free).bit_length() - 1
            visited |= 1 << v
            taken.append(v)
            w = match_right[v]
            if w is None:
                for u, v in zip(path, taken):
                    match_right[v] = u
                    match_left[u] = v
                break
            path.append(w)

    # chains: follow matched successors from chain heads
    heads = [v for v in range(n) if match_right[v] is None]
    chains = []
    for h in heads:
        chain = [h]
        while match_left[chain[-1]] is not None:
            chain.append(match_left[chain[-1]])
        chains.append([elems[i] for i in chain])

    # Koenig: alternate from unmatched left vertices; cover = (L not reached) + (R reached).
    # Each right vertex is reached once, so its matched left vertex is too.
    frontier = [u for u in range(n) if match_left[u] is None]
    reached_left = [w is None for w in match_left]
    reached_right = 0
    while frontier:
        u = frontier.pop()
        new = reach[u] & ~reached_right
        reached_right |= new
        for v in bits(new):
            w = match_right[v]
            if w is not None:
                reached_left[w] = True
                frontier.append(w)
    antichain = [
        elems[i] for i in range(n) if reached_left[i] and not reached_right >> i & 1
    ]

    assert len(antichain) == len(chains), "matching construction out of step"
    return len(antichain), antichain, chains


# ---------------------------------------------------------------------------
# take-grant connectivity

TG_LABELS = ("take", "grant", "read", "write")
TG_KINDS = ("subject", "object")


@dataclass(frozen=True)
class TgGraph:
    kinds: dict  # vertex -> "subject" | "object"
    edges: tuple  # of (u, v, label)

    def __post_init__(self):
        for v, kind in self.kinds.items():
            if kind not in TG_KINDS:
                raise InputError(f"vertex {v!r} has unknown kind {kind!r}")
        for u, v, label in self.edges:
            if label not in TG_LABELS:
                raise InputError(f"edge label {label!r} not in {TG_LABELS}")
            if u not in self.kinds or v not in self.kinds:
                raise UnknownVertex(f"edge ({u!r},{v!r}) uses unknown vertex")


def tg_graph_from_dict(data) -> TgGraph:
    """``{"vertices": [{"id": ..., "kind": "subject"|"object"}, ...],
    "edges": [{"from": ..., "to": ..., "label": "take"|...}, ...]}``"""
    try:
        kinds = {v["id"]: v["kind"] for v in data["vertices"]}
        edges = tuple((e["from"], e["to"], e["label"]) for e in data["edges"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"take-grant JSON malformed: {exc}") from None
    if not all(isinstance(v, str) for v in kinds) or not all(
        isinstance(u, str) and isinstance(v, str) for u, v, _ in edges
    ):
        raise InputError("take-grant vertex ids must be strings")
    if len(kinds) != len(data["vertices"]):
        raise DuplicateLabel("duplicate take-grant vertex id")
    return TgGraph(kinds, edges)


def tg_connected(g: TgGraph, s, o):
    """True iff a path joins s and o using only take/grant edges, directions
    ignored; returns the witness vertex path when one exists."""
    if s not in g.kinds:
        raise UnknownVertex(f"unknown vertex {s!r}")
    if o not in g.kinds:
        raise UnknownVertex(f"unknown vertex {o!r}")
    adj = {v: set() for v in g.kinds}
    for u, v, label in g.edges:
        if label in ("take", "grant"):
            adj[u].add(v)
            adj[v].add(u)
    prev = {s: None}
    queue = [s]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == o:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return True, path[::-1]
        for w in sorted(adj[v]):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    return False, None
