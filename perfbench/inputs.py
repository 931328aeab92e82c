"""Seeded input generator for the four benchmark workloads.

Every file is a pure function of (workload, seed): each file draws from its
own ``random.Random`` stream seeded by a string, so adding or resizing one
file leaves the others byte-identical. JSON is written with sorted keys and
fixed separators so the same seed gives byte-identical files.

Sizes are fixed here, not on the command line: a benchmark that measures a
change must see the same amount of work on both commits.
"""

from __future__ import annotations

import json
import os
import random

# culture-grid: 30x30 square (N = 900), Egoistic, n = 5, q = 10. The period
# limit is far short of stasis and the stasis window equals it, so every
# seed simulates the same number of periods; compatibility entropy over
# ~900 varieties dominates each one.
GRID = {"rows": 30, "cols": 30, "n_features": 5, "traits": 10, "periods": 12}

# culture-ring: the 144-agent twisted ring of criterion 8f (PeerPossible,
# n = q = 12, dice-mix at 0.75) at ten sweeps per period, so selections and
# seconder search dominate and metrics over few varieties are cheap.
RING = {"agents": 144, "turn": 12, "features": 12, "traits": 12,
        "sweeps": 10, "periods": 600}

# choice: collective-choice subcommands over profiles, comparisons, a poset
# and a take-grant graph.
CHOICE = {
    "k": 40, "voters": 200, "repeated_distinct": 20,
    "k_exact": 12, "voters_exact": 60,
    "k_consensus": 10, "voters_consensus": 30,
    "ml_labels": 6, "ml_trials": 12,
    "poset_layers": 15, "poset_width": 20, "poset_p": 0.12,
    "tg_vertices": 400, "tg_edges": 900,
    "enum_labels": 7,
}

# newsgroup: ~40k events from 5k subscribers over 400 threads of about 100
# events each, six interests.
NEWSGROUP = {"subscribers": 5000, "threads": 400, "events_per_thread": 100,
             "interests": "abcdef", "accessors": 40, "roles": 10}

# Pair relations of the comparisons bigraph, over label positions 0..5:
# ">" strict majority for the first label, "=" tie majority, None no strict
# maximum. Fixed so the sub-bigraph candidate count is the same on every
# seed; the seed permutes labels and draws the counts.
ML_STRUCTURE = {
    (0, 1): ">", (0, 2): "=", (0, 3): ">", (0, 4): None, (0, 5): ">",
    (1, 2): None, (1, 3): "=", (1, 4): ">", (1, 5): None,
    (2, 3): ">", (2, 4): "=", (2, 5): None,
    (3, 4): None, (3, 5): ">",
    (4, 5): "=",
}


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{name}")


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _weak_order(rng: random.Random, labels, cut_p: float):
    """A random weak order: shuffle, then cut between neighbours with
    probability cut_p."""
    perm = list(labels)
    rng.shuffle(perm)
    groups = [[perm[0]]]
    for lab in perm[1:]:
        if rng.random() < cut_p:
            groups.append([lab])
        else:
            groups[-1].append(lab)
    return [sorted(g) for g in groups]


def _profile(policies, ballots):
    return {
        "policies": list(policies),
        "voters": [{"id": f"v{i:04d}", "ranking": b} for i, b in enumerate(ballots)],
    }


def distinct_profile(seed: int, k: int, voters: int):
    rng = _rng(seed, f"distinct-{k}-{voters}")
    policies = [f"p{i:02d}" for i in range(k)]
    seen = set()
    ballots = []
    while len(ballots) < voters:
        b = _weak_order(rng, policies, 0.7)
        key = tuple(tuple(g) for g in b)
        if key not in seen:
            seen.add(key)
            ballots.append(b)
    return _profile(policies, ballots)


def repeated_profile(seed: int, k: int, voters: int, distinct: int):
    rng = _rng(seed, f"repeated-{k}-{voters}-{distinct}")
    policies = [f"p{i:02d}" for i in range(k)]
    pool = [_weak_order(rng, policies, 0.7) for _ in range(distinct)]
    # every pool ballot appears at least once, the rest drawn at random
    ballots = pool + [rng.choice(pool) for _ in range(voters - distinct)]
    rng.shuffle(ballots)
    return _profile(policies, ballots)


def consensus_profile(seed: int, k: int, voters: int):
    rng = _rng(seed, f"consensus-{k}-{voters}")
    policies = [f"c{i:02d}" for i in range(k)]
    order = list(policies)
    rng.shuffle(order)
    return _profile(policies, [[[p] for p in order] for _ in range(voters)])


def comparisons_csv(seed: int, n_labels: int, trials: int) -> str:
    """Paired comparisons whose induced bigraph is ML_STRUCTURE under a
    seeded relabelling: the designated outcome always has a strict
    majority, pairs marked None split evenly between the two strict
    outcomes."""
    rng = _rng(seed, f"comparisons-{n_labels}-{trials}")
    labels = [f"m{i}" for i in range(n_labels)]
    rng.shuffle(labels)
    rows = ["i,j,outcome"]
    for (a, b), rel in sorted(ML_STRUCTURE.items()):
        i, j = labels[a], labels[b]
        if rel is None:
            half = trials // 2 - rng.randrange(2)
            outcomes = [">"] * half + ["<"] * half + ["="] * (trials - 2 * half)
        else:
            lead = trials // 2 + 1 + rng.randrange(trials // 4)
            rest = trials - lead
            other = [o for o in (">", "<", "=") if o != rel]
            first = rng.randrange(rest + 1)
            outcomes = [rel] * lead + [other[0]] * first + [other[1]] * (rest - first)
        rng.shuffle(outcomes)
        rows.extend(f"{i},{j},{o}" for o in outcomes)
    return "\n".join(rows) + "\n"


def layered_poset(seed: int, layers: int, width: int, p: float):
    rng = _rng(seed, f"poset-{layers}-{width}-{p}")
    names = [[f"e{l:02d}_{w:02d}" for w in range(width)] for l in range(layers)]
    edges = []
    for lo, hi in zip(names, names[1:]):
        for u in lo:
            for v in hi:
                if rng.random() < p:
                    edges.append([u, v])
    vertices = [v for layer in names for v in layer]
    rng.shuffle(vertices)
    return {"vertices": vertices, "edges": edges}


def take_grant_graph(seed: int, n_vertices: int, n_edges: int):
    """A random take-grant graph with a take/grant path planted from s0 to
    the last vertex, so the query is always connected."""
    rng = _rng(seed, f"tg-{n_vertices}-{n_edges}")
    ids = [f"s{i}" if i % 3 else f"o{i}" for i in range(n_vertices)]
    ids[0] = "s0"
    vertices = [{"id": v, "kind": "subject" if v.startswith("s") else "object"} for v in ids]
    edges = []
    path = [ids[0]] + rng.sample(ids[1:-1], 12) + [ids[-1]]
    for u, v in zip(path, path[1:]):
        edges.append({"from": u, "to": v, "label": rng.choice(("take", "grant"))})
    while len(edges) < n_edges:
        u, v = rng.sample(ids, 2)
        edges.append({"from": u, "to": v,
                      "label": rng.choice(("take", "grant", "read", "write", "read"))})
    return {"vertices": vertices, "edges": edges}, ids[0], ids[-1]


def newsgroup_inputs(seed: int):
    """Posting events that follow the protocol (no self-followups, no
    followups of acknowledgments), with a few rule breakers the protocol
    flags: repeat initiations, acks by the wrong subscriber, acks of
    non-followups. Threads interleave in time."""
    rng = _rng(seed, "newsgroup")
    cfg = NEWSGROUP
    subs = [f"u{i:04d}" for i in range(cfg["subscribers"])]
    interests = list(cfg["interests"])
    # each subscriber favours one to three interests; activity is skewed
    favour = {s: rng.sample(interests, rng.choice((1, 1, 2, 3))) for s in subs}
    weight = [1.0 / (1 + i) ** 0.6 for i in range(len(subs))]
    rng.shuffle(weight)
    by_interest = {x: [] for x in interests}
    for s, w in zip(subs, weight):
        for x in favour[s]:
            by_interest[x].append((s, w))
    pickers = {}
    for x, members in by_interest.items():
        cum, total = [], 0.0
        for _, w in members:
            total += w
            cum.append(total)
        pickers[x] = ([s for s, _ in members], cum)

    threads = [f"m{i:03d}" for i in range(cfg["threads"])]
    thread_interest = {t: rng.choice(interests) for t in threads}

    def poster(thread, exclude=None):
        pool, cum = pickers[thread_interest[thread]]
        while True:
            s = rng.choices(pool, cum_weights=cum)[0]
            if s != exclude:
                return s

    state = {t: {"posts": [], "followups": []} for t in threads}
    remaining = {t: cfg["events_per_thread"] + rng.randrange(-10, 11) for t in threads}
    open_threads = list(threads)
    rows = []
    t_now = 0
    while open_threads:
        th = rng.choice(open_threads)
        st = state[th]
        t_now += 1
        if not st["posts"]:
            ev = (t_now, poster(th), th, "initiate", None)
            st["posts"].append(ev)
        else:
            r = rng.random()
            if r < 0.01:
                ev = (t_now, poster(th), th, "initiate", None)
            elif r < 0.55 or not st["followups"]:
                parent = rng.choice(st["posts"][-8:])
                ev = (t_now, poster(th, exclude=parent[1]), th, "followup", parent[0])
                st["posts"].append(ev)
                st["followups"].append((ev, parent))
            elif r < 0.57:
                parent = st["posts"][0]
                ev = (t_now, poster(th), th, "ack", parent[0])
            else:
                fu, replied_to = rng.choice(st["followups"][-8:])
                who = replied_to[1] if rng.random() < 0.95 else poster(th)
                ev = (t_now, who, th, "ack", fu[0])
        rows.append(ev)
        remaining[th] -= 1
        if remaining[th] <= 0:
            open_threads.remove(th)

    lines = ["t,subscriber,thread,kind,parent"]
    lines.extend(
        f"{t},{s},{th},{kind},{'' if parent is None else parent}"
        for t, s, th, kind, parent in rows
    )
    events_csv = "\n".join(lines) + "\n"
    interests_json = {"threads": thread_interest, "interests": interests}

    accessors = [f"acc{i:02d}" for i in range(cfg["accessors"])]
    roles = [f"role{i}" for i in range(cfg["roles"])]
    grants = []
    # nested role memberships make precedent rules; a duplicated role merges
    for r_i, role in enumerate(roles):
        members = accessors[: max(2, len(accessors) - 4 * r_i)]
        grants.extend({"accessor": a, "role": role} for a in members if rng.random() < 0.9)
    grants.extend({"accessor": g["accessor"], "role": "role-copy"}
                  for g in grants if g["role"] == roles[-1])
    return events_csv, interests_json, grants, len(rows)


def culture_config(seed: int, workload: str):
    if workload == "culture-grid":
        g = GRID
        return {
            "n_features": g["n_features"], "traits_per_feature": g["traits"],
            "topology": {"kind": "square", "rows": g["rows"], "cols": g["cols"]},
            "behavior": "Egoistic", "seed": seed,
            "stasis_window": g["periods"], "max_periods": g["periods"],
        }
    r = RING
    return {
        "n_features": r["features"], "traits_per_feature": r["traits"],
        "topology": {"kind": "mobian-circle", "agents": r["agents"], "turn": r["turn"]},
        "behavior": "PeerPossible", "seed": seed,
        "init": "dice-mix", "init_fraction": 0.75,
        "selections_per_period": r["sweeps"] * r["agents"],
        "stasis_window": r["periods"], "max_periods": r["periods"],
    }


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input files into out_dir and return facts the
    job list and the checks need (file names, query endpoints, sizes)."""
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    if workload in ("culture-grid", "culture-ring"):
        cfg = culture_config(seed, workload)
        _dump(path("config.json"), cfg)
        return {"config": path("config.json"), "periods": cfg["max_periods"],
                "agents": (GRID["rows"] * GRID["cols"] if workload == "culture-grid"
                           else RING["agents"])}

    if workload == "choice":
        c = CHOICE
        _dump(path("distinct.json"), distinct_profile(seed, c["k"], c["voters"]))
        _dump(path("repeated.json"),
              repeated_profile(seed, c["k"], c["voters"], c["repeated_distinct"]))
        _dump(path("exact.json"), distinct_profile(seed, c["k_exact"], c["voters_exact"]))
        _dump(path("consensus.json"),
              consensus_profile(seed, c["k_consensus"], c["voters_consensus"]))
        with open(path("comparisons.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(comparisons_csv(seed, c["ml_labels"], c["ml_trials"]))
        _dump(path("poset.json"),
              layered_poset(seed, c["poset_layers"], c["poset_width"], c["poset_p"]))
        graph, src, dst = take_grant_graph(seed, c["tg_vertices"], c["tg_edges"])
        _dump(path("tg.json"), graph)
        enum_labels = [f"x{i}" for i in range(c["enum_labels"])]
        _rng(seed, "enum").shuffle(enum_labels)
        return {
            "distinct": path("distinct.json"), "repeated": path("repeated.json"),
            "exact": path("exact.json"), "consensus": path("consensus.json"),
            "comparisons": path("comparisons.csv"), "poset": path("poset.json"),
            "tg": path("tg.json"), "tg_from": src, "tg_to": dst,
            "enum_labels": enum_labels,
            "k": c["k"], "voters": c["voters"], "k_exact": c["k_exact"],
            "k_consensus": c["k_consensus"], "ml_labels": c["ml_labels"],
            "poset_size": c["poset_layers"] * c["poset_width"],
        }

    if workload == "newsgroup":
        events_csv, interests_json, grants, n_events = newsgroup_inputs(seed)
        with open(path("events.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(events_csv)
        _dump(path("interests.json"), interests_json)
        _dump(path("grants.json"), grants)
        return {"events": path("events.csv"), "interests": path("interests.json"),
                "grants": path("grants.json"), "n_events": n_events,
                "n_interests": len(interests_json["interests"])}

    raise ValueError(f"unknown workload {workload!r}")

