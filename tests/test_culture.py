import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflattice import culture
from preflattice.culture import (
    CultureConfig,
    Field,
    MetricsSample,
    Topology,
    TraitCodec,
    _compatible_class_pairs,
    _compatible_variety_pairs,
    build_topology,
    classify_epochs,
    compatibility_entropy,
    config_from_dict,
    identity_metric,
    make_field,
    mobian_circle_topology,
    run,
    run_replicates,
    snapshot,
    square_topology,
    subset_tree_topology,
    variety_entropy,
    variety_table,
)
from preflattice.errors import CapExceeded, InputError, SeriesTooShort

from oracles import (
    compatibility_entropy_decimal,
    frozenset_subset_tree_topology,
    interaction_allowed,
    packed_sweep,
    similarity,
)


def small_cfg(**overrides):
    base = dict(
        n_features=3,
        traits_per_feature=4,
        topology={"kind": "square", "rows": 4, "cols": 4},
        behavior="Egoistic",
        seed=11,
        max_periods=200,
        stasis_window=10,
    )
    base.update(overrides)
    return CultureConfig(**base)


def test_square_topology_degrees():
    t = square_topology(3, 4)
    assert t.size == 12
    degrees = sorted(len(nb) for nb in t.neighbors)
    assert degrees.count(2) == 4  # corners
    # symmetry
    for i, nbrs in enumerate(t.neighbors):
        for j in nbrs:
            assert i in t.neighbors[j]


def test_mobian_topology_shape():
    t = mobian_circle_topology(144, 12)
    assert t.size == 144
    degs = [len(nb) for nb in t.neighbors]
    assert degs.count(3) == 24  # two outer turns
    assert degs.count(4) == 120
    # the joined ends see each other
    assert 143 in t.neighbors[0] and 0 in t.neighbors[143]
    for i, nbrs in enumerate(t.neighbors):
        for j in nbrs:
            assert i in t.neighbors[j]


def test_subset_tree_topology_size():
    t = subset_tree_topology(4)
    assert t.size == 2**4 - 1
    for i, nbrs in enumerate(t.neighbors):
        for j in nbrs:
            assert i in t.neighbors[j]


@pytest.mark.parametrize("n", range(1, 10))
def test_subset_tree_topology_matches_the_frozenset_build(n):
    assert subset_tree_topology(n) == frozenset_subset_tree_topology(n)


def test_build_topology_validation():
    with pytest.raises(InputError):
        build_topology({"kind": "donut"})
    with pytest.raises(InputError):
        build_topology({"rows": 3})


def test_agent_cap_is_checked_before_building(monkeypatch):
    monkeypatch.setattr(culture, "MAX_AGENTS", 12)
    assert square_topology(3, 4).size == 12
    assert mobian_circle_topology(12, 3).size == 12
    assert subset_tree_topology(3).size == 7
    for build, sizes in [(square_topology, (3, 5)), (mobian_circle_topology, (13, 3)),
                         (subset_tree_topology, (4,)), (subset_tree_topology, (10**9,))]:
        with pytest.raises(CapExceeded):
            build(*sizes)


def test_selection_cap_is_checked_before_the_first_period(monkeypatch):
    seen = []
    with pytest.raises(CapExceeded):
        run(small_cfg(topology={"kind": "square", "rows": 3, "cols": 3},
                      selections_per_period=10**12, max_periods=1),
            observer=lambda t, f: seen.append(t))
    # 16 agents make 16 selections a period by default; the vertex cap
    # does not lift the selection cap
    monkeypatch.setattr(culture, "MAX_SELECTIONS", 16 * 200)
    monkeypatch.setenv("PREFLATTICE_MAX_VERTICES", str(10**12))
    assert run(small_cfg(stasis_window=10**6)).selections_total == 16 * 200
    for cfg in [small_cfg(max_periods=201), small_cfg(selections_per_period=17)]:
        with pytest.raises(CapExceeded):
            run(cfg, observer=lambda t, f: seen.append(t))
    assert seen == []


def test_interaction_needs_partial_overlap():
    cfg = small_cfg()
    assert not interaction_allowed([1, 1, 1], [1, 1, 1], cfg, draw=0.99)
    assert not interaction_allowed([1, 1, 1], [2, 2, 2], cfg, draw=0.99)
    # one shared of three: k*d = 2/3, passes only on a high draw
    assert interaction_allowed([1, 1, 1], [1, 2, 2], cfg, draw=0.9)
    assert not interaction_allowed([1, 1, 1], [1, 2, 2], cfg, draw=0.5)


def test_config_validation():
    with pytest.raises(InputError):
        small_cfg(behavior="Selfless")
    with pytest.raises(InputError):
        small_cfg(n_features=0)
    with pytest.raises(InputError):
        small_cfg(init="dice-mix")  # q < 11
    with pytest.raises(InputError):
        small_cfg(epsilon=2.0)
    with pytest.raises(InputError, match=r"^config missing keys: topology, traits_per_feature$"):
        config_from_dict({"n_features": 3})
    with pytest.raises(InputError, match=r"^unknown config keys: mystery, zeta$"):
        config_from_dict({"n_features": 3, "traits_per_feature": 4,
                          "topology": {"kind": "square", "rows": 2, "cols": 2},
                          "zeta": 0, "mystery": 1})


def test_run_is_deterministic():
    a = run(small_cfg())
    b = run(small_cfg())
    assert a.status == b.status and a.periods == b.periods
    assert [tuple(v) for v in a.field.agents] == [tuple(v) for v in b.field.agents]
    assert a.series == b.series


def test_run_replicates_advances_seed():
    results = run_replicates(small_cfg(max_periods=5, stasis_window=3), 3)
    assert len(results) == 3
    first = [tuple(a) for a in results[0].field.agents]
    second = [tuple(a) for a in results[1].field.agents]
    assert first != second  # different seeds, different fields
    with pytest.raises(InputError):
        run_replicates(small_cfg(), 0)


def test_single_trait_world_is_inert():
    cfg = small_cfg(traits_per_feature=1, stasis_window=7, max_periods=50)
    res = run(cfg)
    assert res.status == "static"
    assert res.periods == 7  # the stasis window itself
    assert all(m.eta == 0.0 for m in res.series)
    assert len(variety_table(res.field)) == 1


def test_variety_entropy_zero_iff_single_variety():
    cfg = small_cfg()
    topo = build_topology(cfg.topology)
    same = Field(cfg, topo, [[1, 2, 3] for _ in range(topo.size)])
    assert variety_entropy(same) == 0.0
    mixed_agents = [[1, 2, 3] for _ in range(topo.size)]
    mixed_agents[0] = [0, 0, 0]
    mixed = Field(cfg, topo, mixed_agents)
    assert variety_entropy(mixed) > 0.0


def test_variety_table_compatibility():
    cfg = small_cfg()
    topo = build_topology(cfg.topology)
    agents = [[0, 0, 0]] * 8 + [[0, 1, 1]] * 4 + [[2, 2, 2]] * 4
    field = Field(cfg, topo, [list(a) for a in agents])
    table = variety_table(field)
    assert len(table) == 3
    by_id = {row.identity: row for row in table}
    assert by_id["0,0,0"].count == 8
    assert by_id["0,0,0"].order == 1  # largest population ranks first
    # (0,0,0) and (0,1,1) share the first trait; (2,2,2) shares nothing
    assert by_id["0,1,1"].order in by_id["0,0,0"].compatible_with
    assert by_id["2,2,2"].compatible_with == ()


def test_identity_metric_base_q():
    h, hhat = identity_metric([3, 0, 2], 4)
    assert h == 3 + 2 * 16
    assert hhat == pytest.approx(math.log(35) / math.log(4))
    assert identity_metric([0, 0], 4) == (0, 0.0)


def test_initial_field_uniform_range():
    cfg = small_cfg(seed=5)
    field = make_field(cfg, random.Random(cfg.seed))
    assert len(field.agents) == 16
    for vec in field.agents:
        assert len(vec) == 3
        assert all(0 <= x < 4 for x in vec)


def test_dice_mix_initialization_bias():
    cfg = CultureConfig(
        n_features=4,
        traits_per_feature=12,
        topology={"kind": "square", "rows": 10, "cols": 10},
        seed=3,
        init="dice-mix",
        init_fraction=1.0,
    )
    field = make_field(cfg, random.Random(cfg.seed))
    # with fraction 1 every agent is biased on the lower half
    for vec in field.agents:
        assert all(0 <= x <= 10 for x in vec[:2])
        assert all(0 <= x < 12 for x in vec)
    lower = [x for vec in field.agents for x in vec[:2]]
    upper = [x for vec in field.agents for x in vec[2:]]
    mean_lower = sum(lower) / len(lower)
    mean_upper = sum(upper) / len(upper)
    # two-dice traits concentrate near 5; uniform ones average 5.5 over 0..11
    assert abs(mean_lower - 5.0) < 0.5
    assert mean_upper > mean_lower - 0.5
    spread = lambda xs, m: sum((x - m) ** 2 for x in xs) / len(xs)
    assert spread(lower, mean_lower) < spread(upper, mean_upper)


def test_explicit_initial_agents_roundtrip():
    cfg = small_cfg(max_periods=1, stasis_window=1)
    initial = [[0, 0, 0]] * 16
    res = run(cfg, initial=initial)
    assert res.status == "static"
    assert [tuple(a) for a in res.field.agents] == [(0, 0, 0)] * 16
    with pytest.raises(InputError):
        run(cfg, initial=[[0, 0]] * 16)  # wrong width
    with pytest.raises(InputError):
        run(cfg, initial=[[0, 0, 0]] * 3)  # wrong count


def test_snapshot_rows_follow_coordinates():
    cfg = small_cfg()
    topo = build_topology(cfg.topology)
    field = Field(cfg, topo, [[1, 0, 0] for _ in range(topo.size)])
    rows = snapshot(field)
    assert len(rows) == topo.size
    x, y, h, hhat, rank = rows[0]
    assert (x, y) == topo.coords[0]
    assert h == 1
    assert rank == 1  # a single variety ranks first everywhere
    assert len({r[4] for r in rows}) == 1


def test_observer_sees_every_period():
    seen = []
    res = run(small_cfg(max_periods=6, stasis_window=50),
              observer=lambda t, f: seen.append(t))
    assert seen == list(range(1, res.periods + 1))


@pytest.mark.parametrize("window", [3, 2**63])
def test_variety_trace_holds_the_last_window_of_periods(window):
    # a window longer than the run, even one past a deque's maxlen, keeps
    # every period
    res = run(small_cfg(max_periods=6, stasis_window=window))
    assert len(res.variety_trace) == min(window, res.periods)
    assert res.variety_trace == tuple(m.varieties for m in res.series)[-window:]


def test_classify_epochs_labels():
    res = run(small_cfg())
    epochs = classify_epochs(res.series)
    labels = {label for label, _ in epochs}
    assert labels <= {"anarchy", "collectivism", "oligarchy", "authoritarianism"}
    # spans tile the series in order
    assert epochs[0][1][0] == 1
    assert epochs[-1][1][1] == res.periods
    if res.status == "static":
        assert epochs[-1][0] == "authoritarianism"
    with pytest.raises(SeriesTooShort):
        classify_epochs(res.series[:2])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_eta_bounded_and_counts_consistent(seed):
    res = run(small_cfg(seed=seed, max_periods=30, stasis_window=8))
    for m in res.series:
        assert 0.0 <= m.eta <= 1.0
        assert 0.0 <= m.s_v <= 1.0
        assert m.varieties >= 1
    assert res.selections_total == res.periods * 16
    assert sum(row.count for row in variety_table(res.field)) == 16


# Per-selection reference for the packed sweep in ``run``: the selection,
# pass test and seconder search written out one selection at a time with
# ``rng.randrange`` on the reference's own trait lists, and the period loop
# around them.

REASONS = ("identical_pair", "no_shared_trait", "draw_at_or_above_threshold", "no_seconder")


def reference_step(agents, neighbors, cfg, rng, peer):
    """One selection on the trait lists; returns "interaction" when the
    agent copied a trait, else the reason it did not (one of REASONS)."""
    x_idx = rng.randrange(len(agents))
    nbrs = neighbors[x_idx]
    z_idx = nbrs[rng.randrange(len(nbrs))]
    draw = rng.random()
    x, z = agents[x_idx], agents[z_idx]
    n = len(x)
    if not interaction_allowed(x, z, cfg, draw):
        shared = similarity(x, z)
        if shared == n:
            return "identical_pair"
        return "no_shared_trait" if shared == 0 else "draw_at_or_above_threshold"
    differing = [i for i in range(n) if x[i] != z[i]]
    f = differing[rng.randrange(len(differing))]
    if peer:
        for y_idx in nbrs:
            if y_idx == z_idx:
                continue
            y = agents[y_idx]
            if y[f] == z[f] and any(x[i] == z[i] and y[i] != z[i] for i in range(n)):
                break
            if y[f] != z[f] and any(y[i] == z[i] for i in range(n)):
                break
        else:
            return "no_seconder"
    x[f] = z[f]
    return "interaction"


def reference_run(cfg, initial=None):
    """(series, final trait lists, Counter of selection outcomes, status)
    of the run."""
    rng = random.Random(cfg.seed)
    fieldstate = make_field(cfg, rng, initial)
    topo = fieldstate.topology
    agents = [list(a) for a in fieldstate.agents]
    peer = cfg.behavior == "PeerPossible"
    selections = cfg.selections_per_period or len(agents)
    series = []
    prev = len({tuple(a) for a in agents})
    streak = 0
    outcomes = Counter()
    for t in range(1, cfg.max_periods + 1):
        period = Counter(reference_step(agents, topo.neighbors, cfg, rng, peer)
                         for _ in range(selections))
        outcomes += period
        interactions = period["interaction"]
        varieties = len({tuple(a) for a in agents})
        now = Field(cfg, topo, agents)
        series.append(MetricsSample(t, interactions / selections, variety_entropy(now),
                                    compatibility_entropy(now), varieties))
        streak = streak + 1 if interactions == 0 and varieties == prev else 0
        prev = varieties
        if streak >= cfg.stasis_window:
            return series, agents, outcomes, "static"
    return series, agents, outcomes, "limit"


def assert_run_matches_reference(cfg, initial=None):
    res = run(cfg, initial)
    series, agents, outcomes, status = reference_run(cfg, initial)
    assert res.series == series
    assert [list(a) for a in res.field.agents] == agents
    assert res.interactions_total == outcomes["interaction"]
    assert res.rejections == {reason: outcomes[reason] for reason in REASONS}
    assert res.status == status and res.periods == len(series)
    return res


TOPOLOGIES = st.one_of(
    st.builds(lambda r, c: {"kind": "square", "rows": r, "cols": c},
              st.integers(1, 5), st.integers(2, 5)),
    st.builds(lambda n, t: {"kind": "mobian-circle", "agents": n, "turn": t},
              st.integers(3, 24), st.integers(1, 6)).filter(lambda s: s["turn"] < s["agents"]),
    st.builds(lambda f: {"kind": "subset-tree", "features": f}, st.integers(2, 4)),
)


@settings(max_examples=120, deadline=None)
@given(
    n_features=st.integers(1, 6),
    traits=st.integers(1, 5),
    topology=TOPOLOGIES,
    behavior=st.sampled_from(["Egoistic", "PeerPossible"]),
    k=st.one_of(st.none(), st.floats(0.01, 1.5), st.integers(1, 2)),
    epsilon=st.one_of(st.floats(0.0, 1.0), st.just(0)),
    seed=st.integers(0, 2**40),
    selections=st.one_of(st.none(), st.integers(1, 60)),
    periods=st.integers(1, 25),
    window=st.integers(1, 6),
)
def test_run_matches_per_selection_reference(n_features, traits, topology, behavior, k,
                                             epsilon, seed, selections, periods, window):
    cfg = CultureConfig(n_features=n_features, traits_per_feature=traits,
                        topology=topology, behavior=behavior, k=k, epsilon=epsilon,
                        seed=seed, selections_per_period=selections,
                        max_periods=periods, stasis_window=window)
    assert_run_matches_reference(cfg)


def test_run_matches_reference_on_the_biased_ring():
    cfg = CultureConfig(n_features=12, traits_per_feature=12,
                        topology={"kind": "mobian-circle", "agents": 144, "turn": 12},
                        behavior="PeerPossible", init="dice-mix", init_fraction=0.75,
                        seed=3, max_periods=30, stasis_window=30)
    res = assert_run_matches_reference(cfg)
    assert res.interactions_total > 0
    assert all(res.rejections.values())


@pytest.mark.parametrize("q", [16, 17])
@pytest.mark.parametrize("behavior", ["Egoistic", "PeerPossible"])
def test_run_matches_reference_at_the_bit_width_edges(q, behavior):
    # q = 16 fills four trait bits; q = 17 is the first to need five
    cfg = CultureConfig(n_features=3, traits_per_feature=q,
                        topology={"kind": "mobian-circle", "agents": 40, "turn": 5},
                        behavior=behavior, k=0.1, seed=q, max_periods=40, stasis_window=40)
    # few distinct traits, so neighbors often share some, the top one included
    rng = random.Random(q)
    initial = [[rng.choice((0, 1, q - 2, q - 1)) for _ in range(3)] for _ in range(40)]
    assert max(map(max, initial)) == q - 1
    res = assert_run_matches_reference(cfg, initial)
    assert res.interactions_total > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_matches_reference_with_two_varieties_a_feature_apart(seed):
    # every pass is at d = 1, and a neighbor seconds only when its code is
    # the agent's: the other variety is the donor's
    cfg = CultureConfig(n_features=4, traits_per_feature=3,
                        topology={"kind": "mobian-circle", "agents": 24, "turn": 4},
                        behavior="PeerPossible", seed=seed, max_periods=20, stasis_window=20)
    rng = random.Random(seed)
    initial = [rng.choice(([0, 1, 2, 0], [0, 1, 2, 1])) for _ in range(24)]
    res = assert_run_matches_reference(cfg, initial)
    assert res.interactions_total > 0 and res.no_seconder > 0
    assert res.rejected[2:] == (0, 0, 0)


# a hand-built topology in which neighbors repeat: agent 2 lists both others
# twice, and agents 0 and 1 list it twice, so a donor's copy is scanned for a
# seconder
REPEATED = Topology("repeated", ((1, 2, 2), (0, 2, 2), (0, 0, 1, 1)), ((0, 0), (0, 1), (0, 2)))
SWEEP_TOPOLOGIES = st.sampled_from([
    square_topology(1, 2),  # the donor is the only neighbor, and it never seconds
    square_topology(3, 3),
    mobian_circle_topology(12, 3),
    subset_tree_topology(3),
    REPEATED,
])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    q=st.sampled_from([2, 12, 16, 17]),
    topo=SWEEP_TOPOLOGIES,
    peer=st.booleans(),
    k=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    seed=st.integers(0, 2**32),
    selections=st.integers(1, 300),
    data=st.data(),
)
def test_sweep_draws_the_stream_of_the_packed_oracle(n, q, topo, peer, k, seed, selections,
                                                      data):
    # 2-4 codes, each taking every feature from one of two vectors that
    # differ on every feature, so that distance-1 pairs and seconders equal
    # to the agent are common
    base = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    shift = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    alt = [(b + s) % q for b, s in zip(base, shift)]
    picks = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=2,
                               max_size=min(4, 2 ** n), unique=True))
    codec = TraitCodec(n, q)
    pool = [codec.pack([alt[f] if pick >> f & 1 else base[f] for f in range(n)])
            for pick in picks]
    # every agent holds one of them, and the first two are both held
    held = [0, 1] + data.draw(st.lists(st.integers(0, len(pool) - 1),
                                       min_size=topo.size - 2, max_size=topo.size - 2))
    codes = [pool[held[i]] for i in data.draw(st.permutations(range(topo.size)))]
    thr = [math.inf] + [k * d for d in range(1, n)] + [math.inf]
    old_codes, old_rejected, old_rng = list(codes), [0] * (n + 1), random.Random(seed)
    new_codes, new_rejected, new_rng = list(codes), [0] * (n + 1), random.Random(seed)
    hoods = [(nbrs, len(nbrs), len(nbrs).bit_length()) for nbrs in topo.neighbors]
    old = packed_sweep(old_codes, hoods, selections, thr, peer, old_rng, codec, old_rejected)
    new = culture._sweep(new_codes, hoods, selections, thr, peer, new_rng, codec, new_rejected)
    assert new == old
    assert new_codes == old_codes
    assert new_rejected == old_rejected
    assert new_rng.getstate() == old_rng.getstate()


def bucket_pairs(counts):
    """Compatible variety pairs by bucketing on (feature, trait)."""
    varieties = list(counts)
    if not varieties:
        return []
    buckets = {}
    for vi, v in enumerate(varieties):
        for i in range(len(v)):
            buckets.setdefault((i, v[i]), []).append(vi)
    pairs = set()
    for members in buckets.values():
        pairs.update(combinations(members, 2))
    return [(varieties[a], varieties[b]) for a, b in sorted(pairs)]


def bucket_compatibility_entropy(fieldstate):
    n_agents = fieldstate.size
    if n_agents < 3:
        return 0.0
    counts = {}
    for agent in fieldstate.agents:
        counts[tuple(agent)] = counts.get(tuple(agent), 0) + 1
    events = []
    for u, v in bucket_pairs(counts):
        nu, nv = counts[u], counts[v]
        p = (nu / n_agents) * (nv / (n_agents - nu)) + (nv / n_agents) * (
            nu / (n_agents - nv)
        )
        if p > 0.0:
            events.append(p)
    if not events:
        return 0.0
    total = sum(events)
    entropy = -sum((p / total) * math.log(p / total) for p in events)
    return entropy / math.log(n_agents * (n_agents - 1) / 2)


FIELDS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=200),
))


def found_pairs(varieties, n, q):
    """Compatible pairs of trait tuples, found by the library on codes."""
    codec = TraitCodec(n, q)
    codes = [codec.pack(v) for v in varieties]
    return [(varieties[a], varieties[b]) for a, b in _compatible_variety_pairs(codes, codec)]


def class_pair_histogram(counts, codec):
    """{(i, j): m} from the pair list: the compatible pairs found one by one,
    keyed by their two populations."""
    sizes = list(counts.values())
    out = Counter()
    for a, b in _compatible_variety_pairs(list(counts), codec):
        out[tuple(sorted((sizes[a], sizes[b])))] += 1
    return dict(out)


def assert_entropy_matches_oracles(n, q, agents):
    """Class-pair counts equal the pair list's histogram; the entropy is
    within 1e-14 of the 40-digit oracle."""
    cfg = small_cfg(n_features=n, traits_per_feature=q,
                    topology={"kind": "mobian-circle", "agents": max(3, len(agents)), "turn": 1})
    fieldstate = Field(cfg, build_topology(cfg.topology), [list(a) for a in agents])
    counts = Counter(fieldstate.codes)
    assert _compatible_class_pairs(counts, fieldstate.codec) == class_pair_histogram(
        counts, fieldstate.codec)
    value = compatibility_entropy(fieldstate)
    assert math.isclose(value, compatibility_entropy_decimal(agents), rel_tol=1e-14)
    return fieldstate, value


@settings(max_examples=200, deadline=None)
@given(FIELDS)
def test_compatible_pairs_and_entropy_match_bucket_method(field_spec):
    n, agents = field_spec
    counts = {}
    for agent in agents:
        counts[tuple(agent)] = counts.get(tuple(agent), 0) + 1
    assert found_pairs(list(counts), n, 6) == bucket_pairs(counts)
    fieldstate, value = assert_entropy_matches_oracles(n, 6, agents)
    # the bucket oracle sums with plain floats and is itself off by up to 1e-11
    assert value == pytest.approx(bucket_compatibility_entropy(fieldstate), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(FIELDS)
def test_variety_table_and_snapshot_ranks(field_spec):
    n, agents = field_spec
    cfg = small_cfg(n_features=n, traits_per_feature=6,
                    topology={"kind": "mobian-circle", "agents": max(3, len(agents)), "turn": 1})
    agents = agents + agents[:1] * (max(3, len(agents)) - len(agents))
    fieldstate = Field(cfg, build_topology(cfg.topology), [list(a) for a in agents])
    table = variety_table(fieldstate)
    counts = Counter(",".join(map(str, a)) for a in agents)
    assert [(row.identity, row.count) for row in table] == sorted(
        counts.items(), key=lambda kv: (-kv[1], kv[0]))
    traits = {row.identity: list(map(int, row.identity.split(","))) for row in table}
    for row in table:
        assert row.compatible_with == tuple(
            other.order for other in table
            if other is not row and similarity(traits[row.identity], traits[other.identity]) > 0
        )
    rank_of = {row.identity: row.order for row in table}
    assert [r[4] for r in snapshot(fieldstate)] == [
        rank_of[",".join(map(str, a))] for a in agents
    ]


@pytest.mark.parametrize("n_agents", [60, 150])
def test_compatible_pairs_match_bucket_method_on_wide_fields(n_agents):
    rng = random.Random(n_agents)
    agents = [[rng.randrange(6) for _ in range(5)] for _ in range(n_agents)]
    counts = {}
    for agent in agents:
        counts[tuple(agent)] = counts.get(tuple(agent), 0) + 1
    assert found_pairs(list(counts), 5, 6) == bucket_pairs(counts)
    fieldstate, value = assert_entropy_matches_oracles(5, 6, agents)
    assert value == pytest.approx(bucket_compatibility_entropy(fieldstate), rel=1e-9)


def _drawn(n, q, size, traits, seed):
    rng = random.Random(seed)
    return [[rng.choice(traits) for _ in range(n)] for _ in range(size)]


def _classes(populations, seed):
    """Distinct 4-feature varieties over 5 traits, the i-th repeated
    populations[i] times."""
    rng = random.Random(seed)
    varieties = rng.sample([[a, b, c, d] for a in range(5) for b in range(5)
                            for c in range(5) for d in range(5)], len(populations))
    return [v for v, k in zip(varieties, populations) for _ in range(k)]


EDGE_FIELDS = {
    "q=1": (3, 1, [[0, 0, 0]] * 5),
    "q=2": (4, 2, _drawn(4, 2, 30, (0, 1), 2)),
    "q=16": (3, 16, _drawn(3, 16, 40, (0, 1, 14, 15), 16)),
    "q=17": (3, 17, _drawn(3, 17, 40, (0, 1, 15, 16), 17)),
    "n=1": (1, 5, _drawn(1, 5, 30, range(5), 1)),  # distinct varieties share nothing
    "n=20, q=1000": (20, 1000, _drawn(20, 1000, 100, range(1000), 20)),
    "no compatible pair": (3, 4, [[t, t, t] for t in range(4)] * 2),
    "two agents": (3, 4, [[0, 1, 2], [0, 1, 3]]),
    "one variety": (3, 4, [[1, 2, 3]] * 7),
    "population classes": (4, 5, _classes([1, 1, 1, 2, 2, 3, 3, 3, 5, 8, 13, 40], 4)),
}


@pytest.mark.parametrize("name", list(EDGE_FIELDS))
def test_compatibility_entropy_edge_fields(name):
    n, q, agents = EDGE_FIELDS[name]
    _, value = assert_entropy_matches_oracles(n, q, agents)
    if name in ("q=1", "n=1", "no compatible pair", "two agents", "one variety"):
        assert value == 0.0
    else:
        assert value > 0.0


# Packed codes: one int per trait vector (see TraitCodec).

def trait_pairs(n, q):
    """Two trait vectors of length n over q traits; the second keeps some
    of the first's traits, so shared and differing features both occur."""
    vec = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    keep = st.lists(st.booleans(), min_size=n, max_size=n)
    return st.tuples(st.just(q), vec, vec, keep).map(
        lambda t: (t[0], t[1], [a if k else b for a, b, k in zip(t[1], t[2], t[3])]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.integers(1, 300).flatmap(lambda q: trait_pairs(n, q))))
def test_codec_round_trip_and_mask_tests_match_per_feature_counts(spec):
    q, x, z = spec
    codec = TraitCodec(len(x), q)
    cx, cz = codec.pack(x), codec.pack(z)
    assert codec.unpack(cx) == tuple(x) and codec.unpack(cz) == tuple(z)
    assert cx & codec.guards == 0 and cz & codec.guards == 0
    differ = (cx ^ cz) + codec.ones & codec.guards
    assert differ.bit_count() == len(x) - similarity(x, z)
    assert (differ != codec.guards) == (similarity(x, z) > 0)
    assert (cx == cz) == (x == z)


@pytest.mark.parametrize("n, q, bits", [(3, 1, 1), (3, 2, 1), (3, 16, 4), (3, 17, 5),
                                         (24, 17, 5)])  # the last spans 144 bits
def test_codec_bit_width_edges(n, q, bits):
    codec = TraitCodec(n, q)
    assert (codec.bits, codec.width) == (bits, bits + 1)
    assert codec.guards.bit_count() == n and codec.ones.bit_count() == n * bits
    top = [q - 1] * n
    low = [f % 2 * (q - 1) for f in range(n)]
    for vec in (top, low):
        assert codec.unpack(codec.pack(vec)) == tuple(vec)
        assert codec.pack(vec) & codec.guards == 0
    differ = (codec.pack(top) ^ codec.pack(low)) + codec.ones & codec.guards
    assert differ.bit_count() == n - similarity(top, low)


def test_field_agents_is_an_unpacked_view():
    cfg = small_cfg()
    topo = build_topology(cfg.topology)
    field = Field(cfg, topo, [[f, 3 - f, 1] for f in range(4)] * 4)
    assert field.agents == tuple((f, 3 - f, 1) for f in range(4)) * 4
    assert field.size == 16 and len(set(field.codes)) == 4
    with pytest.raises(InputError):
        Field(cfg, topo, [[4, 0, 0]] * 16)  # trait beyond q - 1 would overflow its field

