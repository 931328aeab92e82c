"""Command line interface.

One subcommand per capability; structured results go to stdout as JSON
(keys sorted, two-space indent), time series and grids as CSV. Input
errors exit 2, enumeration caps and convergence failures exit 3, and
either prints a one-line JSON error record on stderr. Identical inputs
and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .aggregate import aggregate_reach, borda_scores, classify_cycles, condense
from .core import (
    count_weak_orders,
    enumerate_weak_orders,
    is_str_list,
    is_tie_groups,
    make_order,
    profile_from_dict,
)
from .culture import build_topology, config_from_dict, run_replicates, snapshot
from .entropy import (
    _cap_states,
    markov_aggregate,
    markov_order,
    shannon_entropy,
    stationary_distribution,
    topological_entropy,
)
from .errors import AmbiguousLabel, InputError, ResourceError
from .graphalg import max_antichain, poset, tg_connected, tg_graph_from_dict
from .mlorder import max_likelihood_order, read_comparisons_csv, tally
from .selforg import (
    derive_precedents,
    elect_managers,
    extract_prefs,
    group_order,
    group_topology,
    partition_subscribers,
    read_postings_csv,
    validate_protocol,
)

PROFILE_SCHEMA = (
    'profile JSON: {"policies": [...], "voters": '
    '[{"id": ..., "ranking": [["w"], ["x", "y"], ...]}]} (tie-groups best first)'
)
GRAPH_SCHEMA = 'graph JSON: {"vertices": [...], "edges": [["a", "b"], ...]}'
TG_SCHEMA = (
    'graph JSON: {"vertices": [{"id": ..., "kind": "subject"|"object"}], '
    '"edges": [{"from": ..., "to": ..., "label": "take"|"grant"|"read"|"write"}]}'
)
EXACT_SHARES_MAX = 12  # more policies print their stationary shares as floats


def _load_json(path):
    """The JSON value in a file; nesting past the recursion limit and an
    integer past Python's digit limit are bad input as well."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise InputError("JSON nested deeper than the recursion limit") from None
    except ValueError:  # int() refuses a literal past the digit limit
        raise InputError(f"JSON integer over {sys.get_int_max_str_digits()} digits") from None


_SCALARS = (str, int, float, type(None))  # bool is an int


def _emit(obj) -> int:
    """Print exactly what json.dumps(obj, sort_keys=True, indent=2) prints.

    With indent set, json runs its pure-Python encoder. Here a container
    of scalars goes through the C encoder instead, with an item separator
    that carries its depth's newline and indent, and is rendered once per
    (object, depth): results repeat the same list many times over.
    """
    print(_render(obj, 0, defaultdict(dict)))
    return 0


def _render(obj, depth, memo) -> str:
    """obj as indented JSON at this depth. memo[depth] maps id() to the
    text of each scalar container rendered there; obj keeps them alive."""
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            text = json.dumps(obj, sort_keys=True, indent=2)
            return text.replace("\n", "\n" + "  " * depth)
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    elif type(obj) is float and math.isfinite(obj):
        return repr(obj)  # what json prints, without setting up an encoder
    else:
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    pad = "\n" + "  " * (depth + 1)
    if all(isinstance(v, _SCALARS) for v in values):
        flat = json.dumps(obj, sort_keys=True, separators=("," + pad, ": "))
        text = memo[depth][id(obj)] = flat[0] + pad + flat[1:-1] + pad[:-2] + flat[-1]
        return text
    seen = memo[depth + 1]
    if isinstance(obj, dict):
        items = [f"{_quote(k)}: {seen.get(id(v)) or _render(v, depth + 1, memo)}"
                 for k, v in sorted(obj.items())]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    items = [seen.get(id(v)) or _render(v, depth + 1, memo) for v in obj]
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _num(x):
    """JSON-friendly number: exact integers stay integers, other exact
    rationals become 'p/q' strings, floats pass through."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, int):
        return x
    return float(x)


def cmd_count_orders(args) -> int:
    print(count_weak_orders(args.n))
    return 0


def cmd_enumerate_orders(args) -> int:
    sys.stdout.writelines(f"{order}\n" for order in enumerate_weak_orders(args.labels))
    return 0


def cmd_entropy(args) -> int:
    profile = profile_from_dict(_load_json(args.profile))
    if args.mode == "topo":
        ev = topological_entropy(profile)
        return _emit({"lambda": ev.radius, "entropy": ev.value, "base": ev.base})
    _cap_states(len(profile.policies))  # before the k x k chain is built
    chain = markov_aggregate(profile)
    sr = stationary_distribution(chain)
    h = shannon_entropy(sr.distribution, base=len(sr.labels))
    share = _num if len(sr.labels) <= EXACT_SHARES_MAX else float
    return _emit({
        "stationary": {p: share(x) for p, x in zip(sr.labels, sr.distribution)},
        "entropy": h.value,
        "order": str(markov_order(sr)),
    })


def cmd_aggregate(args) -> int:
    profile = profile_from_dict(_load_json(args.profile))
    agg, report = aggregate_reach(profile)
    cycles = classify_cycles(agg)
    condensed = condense(agg)
    return _emit({
        "vertices": list(agg.q.labels),
        "n_voters": agg.n_voters,
        "q": [[int(x) for x in row] for row in agg.q.rows],
        "unanimities": [
            {"pair": [u, v], "class": report.classification[(u, v)]}
            for u, v in sorted(report.unanimities)
        ],
        "sources": list(report.sources),
        "sinks": list(report.sinks),
        "cycles": [
            {
                "members": list(c.members),
                "kind": c.kind,
                "dominators": list(c.dominators),
                "dominees": list(c.dominees),
            }
            for c in cycles
        ],
        "condensed": {
            "blocks": [
                {"members": list(members), "rule": rule}
                for members, rule in zip(condensed.blocks, condensed.rules)
            ],
            "edges": [list(e) for e in condensed.edges],
        },
    })


def cmd_borda(args) -> int:
    profile = profile_from_dict(_load_json(args.profile))
    scores = borda_scores(profile, averaged=args.averaged)
    by_score = {}
    for p, s in scores.items():
        by_score.setdefault(s, []).append(p)
    groups = [by_score[s] for s in sorted(by_score, reverse=True)]
    ranking = make_order(profile.policies, groups)
    return _emit({
        "scores": {p: _num(s) for p, s in scores.items()},
        "ranking": str(ranking),
    })


def cmd_mlorder(args) -> int:
    with open(args.comparisons, newline="", encoding="utf-8") as fh:
        t = tally(read_comparisons_csv(fh))
    for label in t.labels():
        if "," in label:
            raise AmbiguousLabel(f"label {label!r} contains ',', which joins a pair key")
    # every candidate's estimates cover exactly the tally's pairs
    keyed_pairs = [(f"{a},{b}", (a, b)) for a, b in t.pairs()]
    candidates = None
    if args.candidates:
        data = _load_json(args.candidates)
        if not isinstance(data, list) or not all(map(is_tie_groups, data)):
            raise InputError("candidates JSON must be a list of orders, each a list of tie-groups")
        candidates = [make_order(t.labels(), groups) for groups in data]
    ranked = max_likelihood_order(t, candidates, mode=args.mode)
    floats = {}  # id(triple) -> (triple, its floats); candidates share triples

    def shares(triple):
        hit = floats.get(id(triple))
        if hit is None:
            hit = floats[id(triple)] = (triple, [float(x) for x in triple])
        return hit[1]

    return _emit({
        "candidates": [
            {
                "order": str(order),
                "u_total": report.total,
                "weighted": report.weighted,
                "log_likelihood": report.log_likelihood,
                "pairs": {
                    key: shares(report.estimates.estimates[pair])
                    for key, pair in keyed_pairs
                },
            }
            for order, report in ranked
        ],
    })


def cmd_antichain(args) -> int:
    data = _load_json(args.poset)
    try:
        vertices, edges = data["vertices"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"poset JSON needs 'vertices' and 'edges': {exc}") from None
    if not is_str_list(vertices) or not isinstance(edges, list) or not all(
        is_str_list(e) and len(e) == 2 for e in edges
    ):
        raise InputError("poset JSON needs string vertices and [u, v] string edges")
    p = poset(vertices, [tuple(e) for e in edges])
    size, antichain, chains = max_antichain(p)
    return _emit({
        "size": size,
        "antichain": list(antichain),
        "chains": [list(c) for c in chains],
    })


def cmd_tg_check(args) -> int:
    g = tg_graph_from_dict(_load_json(args.graph))
    connected, path = tg_connected(g, args.src, args.dst)
    return _emit({"connected": connected, "path": list(path) if path else None})


def cmd_simulate(args) -> int:
    cfg = config_from_dict(_load_json(args.config))
    if args.replicates < 1:
        raise InputError("--replicates must be at least 1")
    if args.snapshot_every < 0:
        raise InputError("--snapshot-every must not be negative")
    # resolve the topology once, so a bad one fails before any run
    cfg = replace(cfg, topology=build_topology(cfg.topology))
    observer = None
    if args.snapshot_every:
        os.makedirs(args.snapshot_dir, exist_ok=True)

        def observer(t, fieldstate):
            if t % args.snapshot_every:
                return
            name = f"snapshot_{fieldstate.config.seed}_{t:06d}.csv"
            with open(os.path.join(args.snapshot_dir, name), "w",
                      newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["x", "y", "h", "hhat", "variety_id"])
                w.writerows(snapshot(fieldstate))

    # every run and file write finishes before stdout, so a failure prints nothing
    results = run_replicates(cfg, args.replicates, observer=observer)
    if args.report:
        summary = {
            "runs": [
                {
                    "seed": res.field.config.seed,
                    "status": res.status,
                    "periods": res.periods,
                    "interactions": res.interactions_total,
                    "selections": res.selections_total,
                    "varieties": res.series[-1].varieties,
                    "rejections": res.rejections,
                }
                for res in results
            ],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["t", "eta", "s_v", "s_c", "varieties"]
    seeded = args.replicates > 1
    writer.writerow(["seed"] + header if seeded else header)
    for res in results:
        for sample in res.series:
            row = [sample.t, sample.eta, sample.s_v, sample.s_c, sample.varieties]
            writer.writerow([res.field.config.seed] + row if seeded else row)
    return 0


def cmd_scenario_newsgroup(args) -> int:
    with open(args.events, newline="", encoding="utf-8") as fh:
        events = read_postings_csv(fh)
    ledger = validate_protocol(events)
    data = _load_json(args.interests)
    schema = (
        'interests JSON needs {"threads": {thread: interest}, '
        '"interests": [...] (optional)}'
    )
    if not isinstance(data, dict) or "threads" not in data:
        raise InputError(schema)
    thread_map = data["threads"]
    interests = data.get("interests")
    if not isinstance(thread_map, dict) or not all(
        isinstance(i, str) for i in thread_map.values()
    ):
        raise InputError(schema + ", with string interests")
    if interests is not None:
        if not isinstance(interests, list) or not all(
            isinstance(i, str) for i in interests
        ):
            raise InputError(schema + ", with string interests")
        missing = sorted(set(thread_map.values()) - set(interests))
        if missing:
            raise InputError(
                f"threads map to interests missing from the interests list: {missing}"
            )
    prefs = extract_prefs(ledger, thread_map, interests)
    assignment = partition_subscribers(prefs, interests)
    managers = elect_managers(assignment, ledger, fraction=args.manager_fraction)
    cross = {
        sub: {interest: 0 for interest in assignment.interests}
        for sub in ledger.subscribers()
    }
    for event in ledger.counted:
        cross[event.subscriber][thread_map[event.thread]] += 1
    # the order's candidate cap refuses many interests before the 2^n - 1
    # groups are built; under two interests the topology's error comes first
    order = group_order(cross) if len(set(assignment.interests)) > 1 else None
    topo = group_topology(assignment.interests, args.topology_mode)
    uncounted = {}
    for flag in ledger.flags.values():
        uncounted[flag] = uncounted.get(flag, 0) + 1
    out = {
        "counted": len(ledger.counted),
        "uncounted": uncounted,
        "groups": {label: list(members) for label, members in assignment.groups.items()},
        "managers": {label: list(m) for label, m in managers.items()},
        "group_order": str(order),
        "topology_edges": sorted([u, v] for u, v in topo.edges if u < v),
    }
    if args.grants:
        rules, role_order, merges = derive_precedents(_load_json(args.grants))
        out["precedents"] = {
            "rules": [
                {"antecedent": r.antecedent, "consequent": r.consequent}
                for r in rules
            ],
            "role_order": [list(pair) for pair in role_order],
            "merges": [list(m) for m in merges],
        }
    return _emit(out)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so it leaves one JSON line."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="preflattice",
        description="Collective choice analysis and cultural evolution simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count-orders", help="number of weak orders on N policies")
    p.add_argument("n", type=int, help="policy count, at least 1")
    p.set_defaults(func=cmd_count_orders)

    p = sub.add_parser(
        "enumerate-orders",
        help="print every weak order over the given labels, one per line",
    )
    p.add_argument("labels", nargs="+", help="policy labels")
    p.set_defaults(func=cmd_enumerate_orders)

    p = sub.add_parser(
        "entropy",
        help="profile entropy",
        description=PROFILE_SCHEMA,
    )
    p.add_argument("--mode", choices=["topo", "markov"], default="topo")
    p.add_argument("profile", help="profile JSON path")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser(
        "aggregate",
        help="unanimity, cycle, and condensation report",
        description=PROFILE_SCHEMA,
    )
    p.add_argument("profile", help="profile JSON path")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser(
        "borda",
        help="Borda scores and ranking",
        description=PROFILE_SCHEMA,
    )
    p.add_argument("profile", help="profile JSON path")
    p.add_argument(
        "--averaged", action="store_true",
        help="tied policies split the positions they occupy",
    )
    p.set_defaults(func=cmd_borda)

    p = sub.add_parser(
        "mlorder",
        help="maximum likelihood order from paired comparisons",
        description=(
            "comparisons CSV: rows i,j,outcome with outcome in {>, <, =}; "
            "candidates JSON (optional): a list of orders, each a list of "
            "tie-groups, e.g. [[[\"1\"], [\"3\", \"4\"], [\"2\"]]]"
        ),
    )
    p.add_argument("comparisons", help="comparisons CSV path")
    p.add_argument("--candidates", help="candidate orders JSON path")
    p.add_argument("--mode", choices=["subbigraph", "all-weak"], default="subbigraph")
    p.set_defaults(func=cmd_mlorder)

    p = sub.add_parser(
        "antichain",
        help="maximum antichain and minimum chain cover",
        description=GRAPH_SCHEMA + "; edges are below-relations u <= v",
    )
    p.add_argument("poset", help="poset JSON path")
    p.set_defaults(func=cmd_antichain)

    p = sub.add_parser(
        "tg-check",
        help="take-grant connectivity between two vertices",
        description=TG_SCHEMA,
    )
    p.add_argument("graph", help="take-grant graph JSON path")
    p.add_argument("--from", dest="src", required=True, help="source vertex")
    p.add_argument("--to", dest="dst", required=True, help="target vertex")
    p.set_defaults(func=cmd_tg_check)

    p = sub.add_parser(
        "simulate",
        help="run the culture simulator, metrics CSV on stdout",
        description=(
            'config JSON keys: n_features, traits_per_feature, topology '
            '({"kind": "square", "rows": R, "cols": C} | '
            '{"kind": "mobian-circle", "agents": N, "turn": T} | '
            '{"kind": "subset-tree", "features": N}), behavior '
            '(Egoistic | PeerPossible), k, epsilon, seed, stasis_window, '
            'max_periods, selections_per_period, init (uniform | dice-mix), '
            'init_fraction'
        ),
    )
    p.add_argument("config", help="config JSON path")
    p.add_argument("--replicates", type=int, default=1, help="serial seeded runs")
    p.add_argument("--report", help="write a run summary JSON to this path")
    p.add_argument(
        "--snapshot-every", type=int, default=0, metavar="K",
        help="write a field snapshot CSV every K periods",
    )
    p.add_argument(
        "--snapshot-dir", default=".",
        help="directory for snapshot_{seed}_{t}.csv files",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "scenario-newsgroup",
        help="posting protocol, groups, managers, and group order",
        description=(
            "events CSV: rows t,subscriber,thread,kind,parent with kind in "
            "{initiate, followup, ack} and parent empty for initiations; "
            'interests JSON: {"threads": {thread: interest}, "interests": '
            '[...] (optional)}; grants JSON: a list of '
            '{"accessor": ..., "role": ...} records'
        ),
    )
    p.add_argument("events", help="posting events CSV path")
    p.add_argument("--interests", required=True, help="interest map JSON path")
    p.add_argument("--grants", help="grant log JSON path for precedent rules")
    p.add_argument(
        "--topology-mode", choices=["subset-lattice", "binary-tree"],
        default="subset-lattice",
    )
    p.add_argument("--manager-fraction", type=float, default=0.05)
    p.set_defaults(func=cmd_scenario_newsgroup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not after main returns
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader has gone: not bad input, and nobody is left to tell.
        # Output still buffered goes to devnull so the flush at exit cannot
        # fail again; exit 1, as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceError as exc:
        _error_line(exc)
        return 3
    except (InputError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _error_line(exc)
        return 2


def _error_line(exc) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
