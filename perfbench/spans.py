"""In-process tracing for the per-layer run.

The traced run calls ``preflattice.cli.main`` in this process with the
public functions of each library module wrapped in spans, so it replays
exactly the calls the CLI command makes. A span has a name, start, end,
parent and job id; spans stay in memory and are written as JSON lines
when the run ends. Self time is a span's duration minus the part of its
interval that its child spans cover.

The simulator is stamped once per period through ``run(..., observer=...)``.
The observer reads the field but never touches it or the RNG; its own
time is excluded from the next period, and the simulate CSV must be
identical with and without it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

# layer -> public functions wrapped in a span. Every module binding of the
# function is patched, so calls from the CLI and from other layers are seen.
LAYER_FUNCS = {
    "core": ("profile_from_dict", "enumerate_weak_orders"),
    "graphalg": ("maximal_circuit_free_subbigraphs", "poset", "max_antichain",
                 "tg_graph_from_dict", "tg_connected"),
    "aggregate": ("aggregate_reach", "classify_cycles", "condense", "borda_scores"),
    "entropy": ("topological_entropy", "mean_preference_matrix", "matrix_entropy",
                "spectral_radius", "markov_aggregate", "stationary_distribution",
                "shannon_entropy", "markov_order"),
    "mlorder": ("read_comparisons_csv", "tally", "max_likelihood_order"),
    "culture": ("config_from_dict", "run", "make_field", "compatibility_entropy",
                "variety_entropy", "variety_table"),
    "selforg": ("read_postings_csv", "validate_protocol", "extract_prefs",
                "partition_subscribers", "elect_managers", "group_topology",
                "group_order", "derive_precedents"),
}
MODULES = ("cli",) + tuple(LAYER_FUNCS)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one pass; ``job`` tags every span opened while
    it is set."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def add(self, name, start, end, parent, **attrs) -> Span:
        sp = Span(len(self.spans), name, start, end, parent, self.job, attrs)
        self.spans.append(sp)
        return sp

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = self.add(name, time.perf_counter(), 0.0, parent, **attrs)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for a, b in sorted(children.get(sp.id, ())):
            a, b = max(a, reach), min(b, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out[sp.id] = sp.duration - covered
    return out


def _count_pairs(agents) -> tuple:
    """(varieties, compatible variety pairs): distinct trait vectors, and
    pairs of them sharing at least one trait. Computed here, not with the
    library's helpers, so the count does not depend on the code measured."""
    arr = np.array(sorted({tuple(a) for a in agents}), dtype=np.int64)
    v = len(arr)
    shared = 0
    for lo in range(0, v, 256):
        block = arr[lo:lo + 256]
        shared += int((block[:, None, :] == arr[None, :, :]).any(axis=2).sum())
    return v, (shared - v) // 2


class PeriodObserver:
    """Stamps each simulated period as a span under the run span and moves
    the metric spans opened inside the period under it."""

    def __init__(self, tracer: Tracer, run_span: Span):
        self.tracer = tracer
        self.run_span = run_span
        self.first_open = len(tracer.spans)
        self.period_start = None

    def __call__(self, t, fieldstate):
        now = time.perf_counter()
        tr = self.tracer
        if self.period_start is None:
            made = [s for s in tr.spans[self.first_open:] if s.name == "culture.make_field"]
            self.period_start = made[-1].end if made else self.run_span.start
        inner = tr.spans[self.first_open:]
        period = tr.add("culture.period", self.period_start, now, self.run_span.id, t=t)
        for sp in inner:
            if sp.parent == self.run_span.id and sp.start >= self.period_start:
                sp.parent = period.id
        varieties, pairs = _count_pairs(fieldstate.agents)
        period.attrs.update(varieties=varieties, compatible_pairs=pairs)
        self.first_open = len(tr.spans)
        self.period_start = time.perf_counter()


def _result_attrs(name, result) -> dict:
    """Counters read from a wrapped call's result."""
    if name == "mlorder.max_likelihood_order":
        return {"candidates": len(result)}
    if name == "selforg.read_postings_csv":
        return {"events": len(result)}
    if name == "selforg.validate_protocol":
        return {"events": len(result.events), "counted": len(result.counted)}
    if name == "selforg.extract_prefs":
        return {"subscribers": len(result)}
    if name == "culture.run":
        return {"periods": result.periods, "interactions": result.interactions_total,
                "selections": result.selections_total}
    return {}


def _wrap(tracer: Tracer, fn, name):
    if name == "core.enumerate_weak_orders":
        # A generator: materialise inside the span so the span covers the
        # enumeration, not just the creation of the generator object.
        @functools.wraps(fn)
        def enumerate_wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                items = list(fn(*args, **kwargs))
                sp.attrs["count"] = len(items)
            return iter(items)
        return enumerate_wrapper

    if name == "culture.run":
        @functools.wraps(fn)
        def run_wrapper(cfg, initial=None, observer=None):
            with tracer.span(name) as sp:
                stamp = PeriodObserver(tracer, sp)

                def both(t, fieldstate):
                    stamp(t, fieldstate)
                    if observer is not None:
                        observer(t, fieldstate)

                result = fn(cfg, initial=initial, observer=both)
                sp.attrs.update(_result_attrs(name, result))
            return result
        return run_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            try:
                sp.attrs.update(_result_attrs(name, result))
            except (AttributeError, TypeError):
                pass
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every module binding of the listed functions with a span
    wrapper for the duration of the block; yields the names not found."""
    mods = {m: importlib.import_module(f"preflattice.{m}") for m in MODULES}
    patches = []
    missing = []
    for layer, names in LAYER_FUNCS.items():
        for fname in names:
            orig = getattr(mods[layer], fname, None)
            if orig is None:
                missing.append(f"{layer}.{fname}")
                continue
            wrapped = _wrap(tracer, orig, f"{layer}.{fname}")
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
    try:
        yield missing
    finally:
        for mod, attr, orig in reversed(patches):
            setattr(mod, attr, orig)


def call_cli(args) -> tuple:
    """Run ``preflattice.cli.main`` in process; returns (rc, stdout bytes,
    wall s, cpu s)."""
    from preflattice import cli

    gc.collect()  # garbage left by the previous job is not this job's cost
    buf = io.StringIO()
    with redirect_stdout(buf):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = cli.main(list(args))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return rc, buf.getvalue().encode("utf-8"), wall, cpu


def traced_call(tracer: Tracer, job) -> tuple:
    """call_cli inside a cli.main span tagged with the job name."""
    tracer.job = job.name
    with tracer.span("cli.main") as sp:
        rc, out, wall, cpu = call_cli(job.args)
    sp.attrs.update(rc=rc, stdout_bytes=len(out), cpu_s=cpu)
    tracer.job = None
    return rc, out, wall, cpu


def write_jsonl(path, passes) -> None:
    """passes: list of (workload, pass index, spans)."""
    with open(path, "w", encoding="utf-8") as fh:
        for workload, index, spans in passes:
            for sp in spans:
                fh.write(json.dumps({
                    "workload": workload, "pass": index, "id": sp.id, "name": sp.name,
                    "start": sp.start, "end": sp.end, "parent": sp.parent,
                    "job": sp.job, "attrs": sp.attrs,
                }, sort_keys=True) + "\n")
