"""Cultural evolution on a topology of agents.

Agents carry trait vectors, each held as one packed int (TraitCodec);
each selection picks an agent, one of its neighbors, and a chance draw, and
on a pass the agent copies one differing trait from the neighbor (Egoistic)
or does so only with a seconding neighbor (PeerPossible). An agent one
feature from its donor takes the donor's code whole, and a neighbor whose
code equals the agent's seconds without a mask test. Activity, variety
entropy, and compatibility entropy are sampled per period until stasis or a
period limit. Compatibility entropy counts the compatible variety pairs per
pair of population classes, testing one code against a whole class packed
into one int, and takes one log per class pair.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import MISSING, dataclass, fields, replace

from .errors import CapExceeded, InputError, LengthMismatch, SeriesTooShort
from .graphalg import subset_lattice

BEHAVIORS = ("Egoistic", "PeerPossible")
INIT_MODES = ("uniform", "dice-mix")
MAX_AGENTS = 1_000_000  # a 1000 x 1000 square: about 1.7 s and 333 MB to build on a 2-core host
# selections per run: MAX_AGENTS agents for the default 1000 periods
MAX_SELECTIONS = 10**9


@dataclass(frozen=True)
class Topology:
    kind: str
    neighbors: tuple  # per agent, sorted tuple of neighbor indices
    coords: tuple  # per agent, a (row, column) style pair for snapshots

    @property
    def size(self) -> int:
        return len(self.neighbors)


def _cap_agents(what, agents):
    """Refuse a topology of more than MAX_AGENTS agents before building it."""
    if agents > MAX_AGENTS:
        raise CapExceeded(f"{what} has more than the {MAX_AGENTS} agents a topology may have")


def square_topology(rows: int, cols: int) -> Topology:
    """Von Neumann 4-neighborhood with hard edges: corners have 2
    neighbors, edge agents 3, interior agents 4."""
    if rows < 1 or cols < 1:
        raise InputError("square topology needs positive dimensions")
    _cap_agents(f"a {rows} x {cols} square", rows * cols)
    def idx(r, c):
        return r * cols + c
    neighbors = []
    coords = []
    for r in range(rows):
        for c in range(cols):
            nbrs = []
            if r > 0:
                nbrs.append(idx(r - 1, c))
            if r < rows - 1:
                nbrs.append(idx(r + 1, c))
            if c > 0:
                nbrs.append(idx(r, c - 1))
            if c < cols - 1:
                nbrs.append(idx(r, c + 1))
            neighbors.append(tuple(sorted(nbrs)))
            coords.append((r, c))
    return Topology("square", tuple(neighbors), tuple(coords))


def mobian_circle_topology(n_agents: int, turn: int) -> Topology:
    """Spiral of agents with the two ends joined.

    Agent i neighbors i-1 and i+1 along the strand (wrapping, which joins
    the ends) and i-turn / i+turn across turns (no wrap), so the outermost
    turns have degree 3 and interior agents degree 4.
    """
    if n_agents < 3 or turn < 1 or turn >= n_agents:
        raise InputError("mobian circle needs 3+ agents and 1 <= turn < agents")
    _cap_agents(f"a mobian circle of {n_agents} agents", n_agents)
    neighbors = []
    coords = []
    for i in range(n_agents):
        nbrs = {(i - 1) % n_agents, (i + 1) % n_agents}
        if i - turn >= 0:
            nbrs.add(i - turn)
        if i + turn < n_agents:
            nbrs.add(i + turn)
        nbrs.discard(i)
        neighbors.append(tuple(sorted(nbrs)))
        coords.append((i // turn, i % turn))
    return Topology("mobian-circle", tuple(neighbors), tuple(coords))


def subset_tree_topology(n_features: int) -> Topology:
    """One agent per nonempty subset of the feature set (2^n - 1 agents),
    adjacent when one subset covers the other (differs by one element).
    Agents follow (size, sorted members) order, and an agent's coordinates
    are its size and its position among the subsets of that size."""
    if n_features < 1:
        raise InputError("subset tree needs at least one feature")
    # 2^n - 1 agents, with n clamped first so that a huge n builds no huge int
    _cap_agents(f"a subset tree of {n_features} features",
                (1 << min(n_features, MAX_AGENTS.bit_length() + 1)) - 1)
    masks = subset_lattice(n_features)
    index = {m: i for i, m in enumerate(masks)}
    first = {}  # size -> index of the first subset of that size
    return Topology(
        "subset-tree",
        tuple(tuple(sorted(index[m ^ 1 << e] for e in range(n_features) if m ^ 1 << e))
              for m in masks),
        tuple((m.bit_count(), i - first.setdefault(m.bit_count(), i))
              for i, m in enumerate(masks)),
    )


# kind -> (builder, the spec keys it takes in order)
TOPOLOGY_KINDS = {
    "square": (square_topology, ("rows", "cols")),
    "mobian-circle": (mobian_circle_topology, ("agents", "turn")),
    "subset-tree": (subset_tree_topology, ("features",)),
}


def build_topology(spec) -> Topology:
    """Resolve a topology from a spec dict (or pass a Topology through);
    every agent must have a neighbor to select."""
    if not isinstance(spec, Topology):
        try:
            kind = spec["kind"]
        except (TypeError, KeyError):
            raise InputError("topology spec needs a 'kind'") from None
        if not isinstance(kind, str) or kind not in TOPOLOGY_KINDS:
            raise InputError(f"unknown topology kind {kind!r}")
        builder, keys = TOPOLOGY_KINDS[kind]
        sizes = [spec.get(key) for key in keys]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in sizes):
            raise InputError(f"{kind} topology needs integer {' and '.join(keys)}")
        spec = builder(*sizes)
    if not all(spec.neighbors):
        raise InputError("topology has an agent without neighbors")
    return spec


# numeric config fields: name -> (accepted types, whether None is allowed)
NUMERIC_FIELDS = {
    "n_features": (int, False),
    "traits_per_feature": (int, False),
    "seed": (int, False),
    "stasis_window": (int, False),
    "max_periods": (int, False),
    "selections_per_period": (int, True),
    "k": ((int, float), True),
    "epsilon": ((int, float), False),
    "init_fraction": ((int, float), False),
}


@dataclass(frozen=True)
class CultureConfig:
    """Parameters of one simulation run.

    ``k`` defaults to 1/n_features, making the pass rule the classic
    similarity fraction. ``init`` is "uniform" (every trait drawn uniformly)
    or "dice-mix": a share ``init_fraction`` of agents get two-dice-sum
    traits (range 0..10, centered on 5) on the first half of their
    features, the rest on the second half, which needs q >= 11.
    """

    n_features: int
    traits_per_feature: int
    topology: object  # spec dict or Topology
    behavior: str = "Egoistic"
    k: float | None = None
    epsilon: float = 0.0
    seed: int = 0
    stasis_window: int = 25
    max_periods: int = 1000
    selections_per_period: int | None = None
    init: str = "uniform"
    init_fraction: float = 0.0

    def __post_init__(self):
        for name, (kinds, optional) in NUMERIC_FIELDS.items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is int else "a number"
                raise InputError(f"{name} must be {what}, got {value!r}")
        if self.n_features < 1:
            raise InputError("need at least one feature")
        if self.traits_per_feature < 1:
            raise InputError("need at least one trait per feature")
        if self.behavior not in BEHAVIORS:
            raise InputError(f"behavior must be one of {BEHAVIORS}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InputError("epsilon must lie in [0, 1]")
        if self.k is not None and not 0 < self.k <= sys.float_info.max:
            raise InputError("k must be a positive finite number")
        if self.init not in INIT_MODES:
            raise InputError(f"init must be one of {INIT_MODES}")
        if self.init == "dice-mix" and self.traits_per_feature < 11:
            raise InputError("dice-mix initialization needs at least 11 traits")
        if not 0.0 <= self.init_fraction <= 1.0:
            raise InputError("init_fraction must lie in [0, 1]")
        if self.stasis_window < 1 or self.max_periods < 1:
            raise InputError("stasis window and period limit must be positive")
        if self.selections_per_period is not None and self.selections_per_period < 1:
            raise InputError("selections_per_period must be positive")

    @property
    def k_effective(self) -> float:
        return float(self.k) if self.k is not None else 1.0 / self.n_features


def config_from_dict(data) -> CultureConfig:
    """A CultureConfig from a JSON object whose keys are its field names;
    the fields without a default are required."""
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    known = fields(CultureConfig)
    extra = set(data) - {f.name for f in known}
    if extra:
        raise InputError(f"unknown config keys: {', '.join(sorted(extra))}")
    missing = {f.name for f in known if f.default is MISSING} - set(data)
    if missing:
        raise InputError(f"config missing keys: {', '.join(sorted(missing))}")
    return CultureConfig(**data)


class TraitCodec:
    """One int per trait vector: feature f's trait sits in bits
    [f*w, f*w + B) with B = max(1, (q-1).bit_length()) and w = B + 1, and
    bit f*w + B is a guard that stays 0 in every code.

    ``ones`` holds 2^B - 1 in every field and ``guards`` every guard bit.
    Adding ``ones`` to ``x ^ z`` carries into the guard of each field where
    the two codes differ and past no guard, so ``(x ^ z) + ones & guards``
    marks the differing features and its bit count is the pair's distance
    (a broadword field test, Knuth TAOCP 4A, 7.1.3). Codes of different
    vectors differ, and ``Counter`` of codes counts varieties.
    """

    __slots__ = ("n", "bits", "width", "ones", "guards")

    def __init__(self, n: int, q: int):
        self.n = n
        self.bits = max(1, (q - 1).bit_length())
        self.width = self.bits + 1
        self.ones = sum(((1 << self.bits) - 1) << f * self.width for f in range(n))
        self.guards = sum(1 << (f * self.width + self.bits) for f in range(n))

    def pack(self, vec) -> int:
        width = self.width
        code = 0
        for trait in reversed(vec):
            code = code << width | trait
        return code

    def unpack(self, code: int) -> tuple:
        mask = (1 << self.bits) - 1
        return tuple(code >> f * self.width & mask for f in range(self.n))


class Field:
    """A mutable population on a topology, built from one trait vector per
    agent and held as one packed code per agent (see TraitCodec)."""

    def __init__(self, config: CultureConfig, topology: Topology, agents):
        self.config = config
        self.topology = topology
        self.codec = TraitCodec(config.n_features, config.traits_per_feature)
        for vec in agents:
            if len(vec) != config.n_features:
                raise LengthMismatch("initial agent has wrong feature count")
            if min(vec) < 0 or max(vec) >= config.traits_per_feature:
                raise InputError("initial trait out of range")
        self.codes = list(map(self.codec.pack, agents))

    @property
    def agents(self) -> tuple:
        """The trait vectors, unpacked afresh on each read: a read-only
        tuple of tuples."""
        return tuple(map(self.codec.unpack, self.codes))

    @property
    def size(self) -> int:
        return len(self.codes)

    @property
    def n(self) -> int:
        return self.config.n_features

    @property
    def q(self) -> int:
        return self.config.traits_per_feature


@dataclass(frozen=True)
class MetricsSample:
    t: int
    eta: float
    s_v: float
    s_c: float
    varieties: int


@dataclass(frozen=True)
class VarietyRow:
    order: int
    identity: str
    count: int
    compatible_with: tuple  # orders of compatible varieties


@dataclass
class RunResult:
    series: list
    periods: int
    status: str  # "static" | "limit"
    variety_trace: tuple  # variety counts over the final window
    field: Field
    interactions_total: int
    selections_total: int
    rejected: tuple  # selections refused by the pass test, by distance d = 0..n
    no_seconder: int  # passed selections that found no seconder

    @property
    def rejections(self) -> dict:
        """Selections that did not interact, by reason: an identical pair
        (d = 0), no shared trait (d = n), a draw at or above ``thr[d]``,
        and no seconder under PeerPossible."""
        return {
            "identical_pair": self.rejected[0],
            "no_shared_trait": self.rejected[-1],
            "draw_at_or_above_threshold": sum(self.rejected[1:-1]),
            "no_seconder": self.no_seconder,
        }


def _sweep(codes, hoods, selections, thr, peer, rng, codec, rejected):
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
    Every test is one mask operation on the codes (see TraitCodec). At
    d = 1 the one differing feature is the copied one, so the agent takes
    the donor's code. A neighbor whose code equals the agent's always
    seconds by (b), since d < n, and is taken before its mask is built.
    The donor is scanned with the rest: it meets neither rule.
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
        z = codes[nbrs[j]]
        draw = chance()
        x = codes[x_idx]
        if x == z:
            continue  # an identical pair (d = 0), tallied after the loop
        xz = x ^ z
        differ = xz + ones & guards
        d = differ.bit_count()
        if not thr[d] < draw:
            rejected[d] += 1
            continue
        if d == 1:
            while getrandbits(1):  # randrange(1), redrawn while it reads 1
                pass
            guard = differ
            new = z
        else:
            nbits = d.bit_length()
            k = getrandbits(nbits)
            while k >= d:
                k = getrandbits(nbits)
            guard = differ
            while k:
                guard &= guard - 1
                k -= 1
            guard &= -guard  # the chosen feature's guard bit
            new = x ^ xz & guard - (guard >> bits)
        if peer:
            # y_differ marks the features y differs from the donor on: (b) y
            # lacks the candidate trait and shares some trait, (a) y holds
            # it and differs on a shared feature
            shared = guards ^ differ
            for y_idx in nbrs:
                y = codes[y_idx]
                if y == x:
                    break
                y_differ = (y ^ z) + ones & guards
                if y_differ & guard:
                    if y_differ != guards:
                        break
                elif y_differ & shared:
                    break
            else:
                no_seconder += 1
                continue
        codes[x_idx] = new
        interactions += 1
    refused = sum(rejected) - refused_before
    rejected[0] += selections - interactions - no_seconder - refused
    return interactions, no_seconder


def identity_metric(agent, q: int):
    """Base-q encoding h of the trait vector and its log scale hhat
    (ln h / ln q, zero when h <= 1 or q <= 1)."""
    h = sum(trait * q**i for i, trait in enumerate(agent))
    if h <= 1 or q <= 1:
        return h, 0.0
    return h, math.log(h) / math.log(q)


def _variety_counts(fieldstate: Field) -> Counter:
    """Agents per distinct code (trait vector), in order of first
    appearance."""
    return Counter(fieldstate.codes)


def variety_entropy(fieldstate: Field, *, counts=None) -> float:
    """Entropy of the variety distribution, normalized by ln N. ``counts``
    is the field's ``_variety_counts``, when the caller already has it."""
    n_agents = fieldstate.size
    if n_agents <= 1:
        return 0.0
    if counts is None:
        counts = _variety_counts(fieldstate)
    if len(counts) <= 1:
        return 0.0
    total = -sum(
        (c / n_agents) * math.log(c / n_agents) for c in counts.values()
    )
    return total / math.log(n_agents)


def _compatible_variety_pairs(varieties, codec: TraitCodec):
    """Index pairs (a, b), a < b in row-major order, of distinct variety
    codes sharing at least one trait; distinct varieties always differ
    somewhere, so sharing is the whole compatibility test. Each pair is
    tested on the codes: it shares a trait when not every guard of their
    difference is set.
    """
    v = len(varieties)
    ones, guards = codec.ones, codec.guards
    return [(a, b) for a, u in enumerate(varieties) for b in range(a + 1, v)
            if (u ^ varieties[b]) + ones & guards != guards]


def _compatible_class_pairs(counts, codec: TraitCodec) -> dict:
    """{(i, j): m}, i <= j: the number m of compatible variety pairs whose
    populations are i and j, for each pair of population classes with m > 0.

    Each class's codes are packed into one int P, one slot of s = n*w + 1
    bits per code (the top bit of a slot stays 0), and R holds 1 at the
    base of every slot. For a code u, ``(u*R ^ P) + K*R & H*R`` marks in
    each slot the features where u and that code differ (the TraitCodec
    test, run on every slot at once, no carry crossing a slot); adding
    T - H to a slot (T = 2^(n*w)) carries into its top bit exactly when
    every guard is set, so the bit count of ``& T*R`` counts the codes u
    shares no trait with. Classes are taken largest first and each code of
    a class runs against every class packed so far, its own included, so
    the loop always runs over the smaller class; within a class u also
    meets itself, so the count loses the class size and is halved. A class
    of one code is its own P, with R = 1.
    """
    classes = {}
    for code, k in counts.items():
        classes.setdefault(k, []).append(code)
    slot = codec.n * codec.width + 1
    top = 1 << slot - 1
    fmt = f"0{slot}b"
    ones, guards = codec.ones, codec.guards
    spare = top - guards
    base = (1 << slot) - 1
    pairs = {}
    packed = []  # (population, slots, P, R, K*R, H*R, (T - H)*R, T*R)
    for codes in sorted(classes.values(), key=len, reverse=True):
        k, size = counts[codes[0]], len(codes)
        if size == 1:
            packed.append((k, 1, codes[0], 1, ones, guards, spare, top))
        else:
            r = ((1 << size * slot) - 1) // base
            packed.append((k, size, int("".join([format(c, fmt) for c in codes]), 2),
                           r, ones * r, guards * r, spare * r, top * r))
        for j, slots, p, r, kr, hr, mr, tr in packed:
            disjoint = 0
            for u in codes:
                disjoint += (((u * r ^ p) + kr & hr) + mr & tr).bit_count()
            m = size * slots - disjoint
            if j == k:
                m = (m - size) // 2
            if m:
                pairs[(j, k) if j < k else (k, j)] = m
    return pairs


def compatibility_entropy(fieldstate: Field, *, counts=None) -> float:
    """Entropy over joint appearance probabilities of mutually compatible
    variety pairs, renormalized to a distribution and scaled by
    ln C(N, 2). ``counts`` is the field's ``_variety_counts``, when the
    caller already has it.

    A pair's probability depends only on the two populations i and j:
    p_ij = (i/N)(j/(N-i)) + (j/N)(i/(N-j)). So the m_ij compatible pairs
    of each class pair are counted (``_compatible_class_pairs``) and each
    class pair takes one log: with S = sum m*p, the entropy is
    -sum m*(p/S)*ln(p/S), both sums taken with ``math.fsum``.
    """
    n_agents = fieldstate.size
    if n_agents < 3:
        return 0.0  # ln C(N,2) vanishes or pairs cannot exist
    if counts is None:
        counts = _variety_counts(fieldstate)
    events = [
        (m, (i / n_agents) * (j / (n_agents - i)) + (j / n_agents) * (i / (n_agents - j)))
        for (i, j), m in _compatible_class_pairs(counts, fieldstate.codec).items()
    ]
    if not events:
        return 0.0
    total = math.fsum([m * p for m, p in events])
    entropy = -math.fsum([m * (p / total) * math.log(p / total) for m, p in events])
    return entropy / math.log(n_agents * (n_agents - 1) / 2)


def _ranked_varieties(fieldstate: Field) -> list:
    """(code, identity string, count) per variety, by descending count,
    ties by identity string: the rows of the variety table in order."""
    unpack = fieldstate.codec.unpack
    ranked = [(v, ",".join(map(str, unpack(v))), c)
              for v, c in _variety_counts(fieldstate).items()]
    ranked.sort(key=lambda row: (-row[2], row[1]))
    return ranked


def variety_table(fieldstate: Field) -> tuple:
    """VarietyRow per variety, by descending population (ties by identity
    string), each with the ranks of the varieties it could interact with."""
    ranked = _ranked_varieties(fieldstate)
    compat = [[] for _ in ranked]
    # pairs come in row-major order of rank, so each list fills ascending
    for a, b in _compatible_variety_pairs([v for v, _, _ in ranked], fieldstate.codec):
        compat[a].append(b + 1)
        compat[b].append(a + 1)
    return tuple(
        VarietyRow(order=i + 1, identity=identity, count=c, compatible_with=tuple(compat[i]))
        for i, (_, identity, c) in enumerate(ranked)
    )


def snapshot(fieldstate: Field):
    """Per agent: coordinates, identity encoding, log identity, and the
    rank of its variety in the current variety table."""
    rank_of = {v: i + 1 for i, (v, _, _) in enumerate(_ranked_varieties(fieldstate))}
    out = []
    for (x, y), code, agent in zip(fieldstate.topology.coords, fieldstate.codes,
                                   fieldstate.agents):
        h, hhat = identity_metric(agent, fieldstate.q)
        out.append((x, y, h, hhat, rank_of[code]))
    return out


def _initial_agents(cfg: CultureConfig, topo: Topology, rng: random.Random):
    n, q = cfg.n_features, cfg.traits_per_feature
    agents = []
    if cfg.init == "uniform":
        for _ in range(topo.size):
            agents.append([rng.randrange(q) for _ in range(n)])
        return agents
    biased_span = (n + 1) // 2
    for _ in range(topo.size):
        lower = rng.random() < cfg.init_fraction
        vec = []
        for f in range(n):
            in_biased_half = f < biased_span if lower else f >= biased_span
            if in_biased_half:
                vec.append(rng.randrange(1, 7) + rng.randrange(1, 7) - 2)
            else:
                vec.append(rng.randrange(q))
        agents.append(vec)
    return agents


def make_field(cfg: CultureConfig, rng: random.Random, initial=None) -> Field:
    topo = build_topology(cfg.topology)
    if initial is None:
        agents = _initial_agents(cfg, topo, rng)
    else:
        agents = list(initial)
        if len(agents) != topo.size:
            raise LengthMismatch(
                f"initial field has {len(agents)} agents, topology needs {topo.size}"
            )
    return Field(cfg, topo, agents)


def run(cfg: CultureConfig, initial=None, observer=None) -> RunResult:
    """Run one seeded simulation to stasis or the period limit.

    A period is selections_per_period attempts (default: one per agent);
    a run of more than MAX_SELECTIONS attempts in all is refused before
    its first period.
    Stasis means a full window of periods with zero interactions and an
    unchanged variety count; otherwise the run stops at max_periods with
    status "limit" and the final window's variety counts attached.
    """
    rng = random.Random(cfg.seed)
    fieldstate = make_field(cfg, rng, initial)
    codes = fieldstate.codes
    hoods = [(nbrs, len(nbrs), len(nbrs).bit_length())
             for nbrs in fieldstate.topology.neighbors]
    k, epsilon = cfg.k_effective, cfg.epsilon
    # pass threshold by distance; d = 0 and d = n never pass
    thr = [math.inf] + [k * d + epsilon for d in range(1, cfg.n_features)] + [math.inf]
    peer = cfg.behavior == "PeerPossible"
    selections = cfg.selections_per_period or fieldstate.size
    if selections * cfg.max_periods > MAX_SELECTIONS:
        raise CapExceeded(f"a run of up to {selections * cfg.max_periods} selections "
                          f"exceeds the cap of {MAX_SELECTIONS}")
    window = cfg.stasis_window
    rejected = [0] * (cfg.n_features + 1)
    no_seconder_total = 0

    series = []
    prev_varieties = len(_variety_counts(fieldstate))
    streak = 0
    interactions_total = 0
    status = "limit"

    for t in range(1, cfg.max_periods + 1):
        interactions, no_seconder = _sweep(
            codes, hoods, selections, thr, peer, rng, fieldstate.codec, rejected
        )
        interactions_total += interactions
        no_seconder_total += no_seconder
        counts = _variety_counts(fieldstate)
        varieties = len(counts)
        series.append(
            MetricsSample(
                t=t,
                eta=interactions / selections,
                s_v=variety_entropy(fieldstate, counts=counts),
                s_c=compatibility_entropy(fieldstate, counts=counts),
                varieties=varieties,
            )
        )
        if interactions == 0 and varieties == prev_varieties:
            streak += 1
        else:
            streak = 0
        prev_varieties = varieties
        if observer is not None:
            observer(t, fieldstate)
        if streak >= window:
            status = "static"
            break
    return RunResult(
        series=series,
        periods=t,
        status=status,
        variety_trace=tuple(s.varieties for s in series[-window:]),
        field=fieldstate,
        interactions_total=interactions_total,
        selections_total=t * selections,
        rejected=tuple(rejected),
        no_seconder=no_seconder_total,
    )


def run_replicates(cfg: CultureConfig, replicates: int, observer=None):
    """Serial replicate runs seeded cfg.seed, cfg.seed+1, ...; the observer
    sees every replicate's periods and can tell them apart by
    ``fieldstate.config.seed``."""
    if replicates < 1:
        raise InputError("need at least one replicate")
    return [
        run(replace(cfg, seed=cfg.seed + r), observer=observer)
        for r in range(replicates)
    ]


def _smooth(values):
    """Mean over each value and its neighbors, two at the ends."""
    out = []
    for i in range(len(values)):
        lo = max(0, i - 1)
        hi = min(len(values), i + 2)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


SLOPE_TOL = 1e-9  # smallest per-period entropy change read as a trend


def classify_epochs(series):
    """Advisory epoch labels over a metrics series.

    Zero activity reads as authoritarianism; rising compatibility entropy
    as collectivism; falling variety entropy under activity as oligarchy;
    anything else as anarchy. Entropies are smoothed over three periods
    and consecutive equal labels merge into (label, (first_t, last_t)).
    """
    if len(series) < 4:
        raise SeriesTooShort("epoch classification needs at least 4 periods")
    s_v = _smooth([m.s_v for m in series])
    s_c = _smooth([m.s_c for m in series])
    labels = []
    for i, m in enumerate(series):
        j = max(1, i)
        dv = s_v[j] - s_v[j - 1]
        dc = s_c[j] - s_c[j - 1]
        if m.eta == 0.0:
            labels.append("authoritarianism")
        elif dc > SLOPE_TOL:
            labels.append("collectivism")
        elif dv < -SLOPE_TOL:
            labels.append("oligarchy")
        else:
            labels.append("anarchy")
    merged = []
    for label, m in zip(labels, series):
        if merged and merged[-1][0] == label:
            merged[-1] = (label, (merged[-1][1][0], m.t))
        else:
            merged.append((label, (m.t, m.t)))
    return merged
