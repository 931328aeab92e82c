"""Per-layer metrics derived from the traced passes of one workload.

Every metric is the median of a list of samples: per call for the timings
of single functions, per period for the simulator, per pass for sums and
counters. The printed report adds, for each timing, the highest
percentile that has at least ten samples beyond it, and the sample count.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_LADDER = (999, 990, 950, 900, 750)  # per mille


@dataclass
class PassTrace:
    spans: list
    self_s: dict  # span id -> self time in seconds
    untraced_s: float  # wall time of the same jobs called without tracing


def tail(samples):
    """(percentile, value) for the highest ladder percentile with at least
    ten samples above its rank, or None when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for pm in TAIL_LADDER:
        rank = -(-pm * n // 1000)  # ceil(pm/1000 * n), 1-based
        if rank >= 1 and n - rank >= 10:
            return pm / 10, ordered[rank - 1]
    return None


def _calls(passes, name, jobs=None, self_time=False):
    out = []
    for pt in passes:
        for sp in pt.spans:
            if sp.name == name and (jobs is None or sp.job in jobs):
                out.append(1e3 * (pt.self_s[sp.id] if self_time else sp.duration))
    return out


def _per_pass(passes, fn):
    return [fn(pt) for pt in passes]


def _layer_self_ms(layer):
    def fn(pt):
        return 1e3 * sum(pt.self_s[sp.id] for sp in pt.spans if sp.layer == layer)
    return fn


def _main_sum(key):
    def fn(pt):
        mains = [sp for sp in pt.spans if sp.name == "cli.main"]
        if key == "main_ms":
            return 1e3 * sum(sp.duration for sp in mains)
        if key == "self_ms":
            return 1e3 * sum(pt.self_s[sp.id] for sp in mains)
        return sum(sp.attrs.get(key, 0) for sp in mains)
    return fn


def _overhead_ms(pt):
    traced = sum(sp.duration for sp in pt.spans if sp.name == "cli.main")
    return 1e3 * (traced - pt.untraced_s)


def _attr_sum(name, attr, jobs=None):
    def fn(pt):
        return sum(sp.attrs.get(attr, 0) for sp in pt.spans
                   if sp.name == name and (jobs is None or sp.job in jobs))
    return fn


def _common(layers):
    spec = [(f"{layer}.self_ms", "ms", lambda p, l=layer: _per_pass(p, _layer_self_ms(l)))
            for layer in layers]
    spec += [
        ("cli.main_ms", "ms", lambda p: _per_pass(p, _main_sum("main_ms"))),
        ("cli.self_ms", "ms", lambda p: _per_pass(p, _main_sum("self_ms"))),
        ("cli.stdout_bytes", "bytes", lambda p: _per_pass(p, _main_sum("stdout_bytes"))),
        ("cli.cpu_s", "s", lambda p: _per_pass(p, _main_sum("cpu_s"))),
        ("trace.overhead_ms", "ms", lambda p: _per_pass(p, _overhead_ms)),
    ]
    return spec


def _period_rate(passes):
    """Selections per second of selection time, one sample per period."""
    out = []
    for pt in passes:
        runs = {sp.id: sp for sp in pt.spans if sp.name == "culture.run"}
        for sp in pt.spans:
            if sp.name == "culture.period":
                run = runs[sp.parent]
                per_period = run.attrs["selections"] / run.attrs["periods"]
                out.append(per_period / max(pt.self_s[sp.id], 1e-12))
    return out


def _final_period(attr):
    def fn(pt):
        periods = [sp for sp in pt.spans if sp.name == "culture.period"]
        return periods[-1].attrs[attr] if periods else 0
    return fn


def _pass_ratio(pt):
    runs = [sp for sp in pt.spans if sp.name == "culture.run"]
    sel = sum(sp.attrs["selections"] for sp in runs)
    return sum(sp.attrs["interactions"] for sp in runs) / sel if sel else 0.0


CULTURE = [
    ("culture.period_ms", "ms", lambda p: _calls(p, "culture.period")),
    ("culture.selections_ms", "ms", lambda p: _calls(p, "culture.period", self_time=True)),
    ("culture.compatibility_entropy_ms", "ms", lambda p: _calls(p, "culture.compatibility_entropy")),
    ("culture.variety_entropy_ms", "ms", lambda p: _calls(p, "culture.variety_entropy")),
    ("culture.variety_table_ms", "ms", lambda p: _calls(p, "culture.variety_table")),
    ("culture.make_field_ms", "ms", lambda p: _calls(p, "culture.make_field")),
    ("culture.selections_per_s", "1/s", _period_rate),
    ("culture.pass_ratio", "ratio", lambda p: _per_pass(p, _pass_ratio)),
    ("culture.compatible_pairs", "count", lambda p: _per_pass(p, _final_period("compatible_pairs"))),
    ("culture.varieties", "count", lambda p: _per_pass(p, _final_period("varieties"))),
] + _common(["culture"])


def _ml_rate(pt):
    mls = [sp for sp in pt.spans if sp.name == "mlorder.max_likelihood_order"]
    busy = sum(sp.duration for sp in mls)
    return sum(sp.attrs.get("candidates", 0) for sp in mls) / busy if busy else 0.0


TOPO = ("entropy-topo-distinct", "entropy-topo-repeated")
MARKOV = ("entropy-markov-distinct", "entropy-markov-repeated")

CHOICE = [
    ("entropy.mean_preference_matrix_ms.distinct", "ms",
     lambda p: _calls(p, "entropy.mean_preference_matrix", {"entropy-topo-distinct"})),
    ("entropy.mean_preference_matrix_ms.repeated", "ms",
     lambda p: _calls(p, "entropy.mean_preference_matrix", {"entropy-topo-repeated"})),
    ("entropy.markov_aggregate_ms.distinct", "ms",
     lambda p: _calls(p, "entropy.markov_aggregate", {"entropy-markov-distinct"})),
    ("entropy.markov_aggregate_ms.repeated", "ms",
     lambda p: _calls(p, "entropy.markov_aggregate", {"entropy-markov-repeated"})),
    ("entropy.spectral_radius_ms.mixed", "ms",
     lambda p: _calls(p, "entropy.spectral_radius", set(TOPO))),
    ("entropy.spectral_radius_ms.consensus", "ms",
     lambda p: _calls(p, "entropy.spectral_radius", {"entropy-topo-consensus"})),
    ("entropy.stationary_distribution_ms.exact", "ms",
     lambda p: _calls(p, "entropy.stationary_distribution", {"entropy-markov-exact"})),
    ("entropy.stationary_distribution_ms.float", "ms",
     lambda p: _calls(p, "entropy.stationary_distribution", set(MARKOV))),
    ("mlorder.tally_ms", "ms", lambda p: _calls(p, "mlorder.tally")),
    ("mlorder.max_likelihood_order_ms.subbigraph", "ms",
     lambda p: _calls(p, "mlorder.max_likelihood_order", {"mlorder-subbigraph"})),
    ("mlorder.max_likelihood_order_ms.all-weak", "ms",
     lambda p: _calls(p, "mlorder.max_likelihood_order", {"mlorder-all-weak"})),
    ("mlorder.candidates_scored", "count",
     lambda p: _per_pass(p, _attr_sum("mlorder.max_likelihood_order", "candidates"))),
    ("mlorder.candidates_per_s", "1/s", lambda p: _per_pass(p, _ml_rate)),
    ("graphalg.maximal_circuit_free_subbigraphs_ms", "ms",
     lambda p: _calls(p, "graphalg.maximal_circuit_free_subbigraphs")),
    ("graphalg.max_antichain_ms", "ms", lambda p: _calls(p, "graphalg.max_antichain")),
    ("graphalg.tg_connected_ms", "ms", lambda p: _calls(p, "graphalg.tg_connected")),
    ("aggregate.aggregate_reach_ms", "ms", lambda p: _calls(p, "aggregate.aggregate_reach")),
    ("aggregate.classify_cycles_ms", "ms", lambda p: _calls(p, "aggregate.classify_cycles")),
    ("aggregate.condense_ms", "ms", lambda p: _calls(p, "aggregate.condense")),
    ("aggregate.borda_scores_ms", "ms", lambda p: _calls(p, "aggregate.borda_scores")),
    ("core.profile_from_dict_ms", "ms", lambda p: _calls(p, "core.profile_from_dict")),
    ("core.enumerate_weak_orders_ms", "ms",
     lambda p: _calls(p, "core.enumerate_weak_orders", {"enumerate-orders"})),
    ("core.orders_enumerated", "count",
     lambda p: _per_pass(p, _attr_sum("core.enumerate_weak_orders", "count", {"enumerate-orders"}))),
] + _common(["core", "graphalg", "aggregate", "entropy", "mlorder"])


def _counted_ratio(pt):
    vs = [sp for sp in pt.spans if sp.name == "selforg.validate_protocol"]
    events = sum(sp.attrs.get("events", 0) for sp in vs)
    return sum(sp.attrs.get("counted", 0) for sp in vs) / events if events else 0.0


SELFORG_FUNCS = ("read_postings_csv", "validate_protocol", "extract_prefs",
                 "partition_subscribers", "elect_managers", "group_topology",
                 "group_order", "derive_precedents")

NEWSGROUP = [
    (f"selforg.{f}_ms", "ms", lambda p, f=f: _calls(p, f"selforg.{f}")) for f in SELFORG_FUNCS
] + [
    ("selforg.events", "count",
     lambda p: _per_pass(p, _attr_sum("selforg.read_postings_csv", "events"))),
    ("selforg.subscribers", "count",
     lambda p: _per_pass(p, _attr_sum("selforg.extract_prefs", "subscribers"))),
    ("selforg.counted_ratio", "ratio", lambda p: _per_pass(p, _counted_ratio)),
    ("mlorder.max_likelihood_order_ms", "ms", lambda p: _calls(p, "mlorder.max_likelihood_order")),
] + _common(["selforg", "mlorder"])

SPECS = {"culture-grid": CULTURE, "culture-ring": CULTURE, "choice": CHOICE,
         "newsgroup": NEWSGROUP}


def names(workload):
    """(metric name, unit) in report order, prefixed with the workload."""
    return [(f"{workload}.{name}", unit) for name, unit, _ in SPECS[workload]]


def layer_metrics(workload, passes):
    """Metric name -> (unit, median, samples) for one workload."""
    out = {}
    for name, unit, fn in SPECS[workload]:
        samples = fn(passes)
        value = statistics.median(samples) if samples else 0.0
        out[f"{workload}.{name}"] = (unit, value, samples)
    return out


def shares(workload, passes):
    """The time shares that justify each workload, from the traced spans."""
    def total(name, jobs=None):
        return sum(_calls(passes, name, jobs))

    if workload in ("culture-grid", "culture-ring"):
        period = total("culture.period")
        if not period:
            return {}
        return {
            "compatibility_entropy/period": total("culture.compatibility_entropy") / period,
            "selections/period": sum(_calls(passes, "culture.period", self_time=True)) / period,
        }
    if workload == "newsgroup":
        main = total("cli.main")
        if not main:
            return {}
        return {"(extract_prefs+elect_managers)/main":
                (total("selforg.extract_prefs") + total("selforg.elect_managers")) / main}
    main = total("cli.main")
    if not main:
        return {}
    return {f"{layer}/main": sum(_per_pass(passes, _layer_self_ms(layer))) / main
            for layer in ("cli", "core", "graphalg", "aggregate", "entropy", "mlorder")}
