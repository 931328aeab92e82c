"""Output checks: parse each job's stdout, test reference-free invariants,
and compare a compact canonical form against stored references.

Floats may move in their last digits when a change reorders arithmetic, so
they are compared with a relative tolerance of 1e-9. Everything that encodes
behaviour is compared exactly: integers, strings, ``p/q`` fractions, orders,
candidate order lists, simulated ``t``, ``eta`` and ``varieties``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from itertools import combinations

REL_TOL = 1e-9
ABS_TOL = 1e-15  # only absorbs rounding noise around an exact zero
DIGEST_DIGITS = 9


def ordered_bell(n: int) -> int:
    """Number of weak orders on n labels, by the Fubini recurrence."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def subset_lattice_edges(n: int) -> int:
    """Undirected edges of the strict-containment graph over the nonempty
    subsets of n interests."""
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    return sum(1 for a, b in combinations(subsets, 2) if a < b or b < a)


def _sha(obj) -> str:
    if isinstance(obj, (bytes, str)):
        data = obj.encode() if isinstance(obj, str) else obj
    else:
        data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def parse(kind: str, stdout: bytes):
    text = stdout.decode("utf-8")
    if kind == "simulate":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["t", "eta", "s_v", "s_c", "varieties"]:
            raise ValueError(f"unexpected simulate header {rows[:1]}")
        return [
            {"t": int(t), "eta": eta, "s_v": float(sv), "s_c": float(sc), "varieties": int(v)}
            for t, eta, sv, sc, v in rows[1:]
        ]
    if kind == "enumerate-orders":
        return text.splitlines()
    return json.loads(text)


def _order_labels(order: str):
    return sorted(x for group in order.split(">") for x in group.split("="))


def invariants(kind: str, out, facts: dict) -> list:
    """Reference-free properties every seed must satisfy; returns the list
    of violations."""
    bad = []

    def need(cond, msg):
        if not cond:
            bad.append(msg)

    if kind == "simulate":
        need(len(out) == facts["periods"], f"{len(out)} rows, expected {facts['periods']}")
        need([r["t"] for r in out] == list(range(1, len(out) + 1)), "t is not 1..periods")
        for r in out:
            eta = float(r["eta"])
            need(0.0 <= eta <= 1.0, f"eta {eta} outside [0, 1] at t={r['t']}")
            need(-ABS_TOL <= r["s_v"] <= 1.0 + REL_TOL, f"s_v {r['s_v']} outside [0, 1]")
            need(-ABS_TOL <= r["s_c"] <= 1.0 + REL_TOL, f"s_c {r['s_c']} outside [0, 1]")
            need(1 <= r["varieties"] <= facts["agents"], f"{r['varieties']} varieties at t={r['t']}")
    elif kind == "entropy-topo":
        need(out["base"] == facts["policies"], f"base {out['base']} != {facts['policies']}")
        need(-ABS_TOL <= out["entropy"] <= 1.0 + REL_TOL, f"entropy {out['entropy']}")
        if out["lambda"] > 1.0:
            want = math.log(out["lambda"]) / math.log(out["base"])
            need(math.isclose(out["entropy"], want, rel_tol=1e-9), "entropy != log(lambda)/log(base)")
    elif kind == "entropy-markov":
        st = out["stationary"]
        need(len(st) == facts["policies"], f"{len(st)} stationary shares")
        need(_order_labels(out["order"]) == sorted(st), "order does not cover the policies")
        if facts["exact"]:
            need(all(isinstance(v, (int, str)) for v in st.values()), "exact shares are not rationals")
            shares = [Fraction(v) for v in st.values()]
            need(sum(shares) == 1, "exact shares do not sum to 1")
        else:
            shares = [float(v) for v in st.values()]
            need(abs(math.fsum(shares) - 1.0) <= 1e-9, "shares do not sum to 1")
        need(all(v >= 0 for v in shares), "negative stationary share")
        need(-ABS_TOL <= out["entropy"] <= 1.0 + REL_TOL, f"entropy {out['entropy']}")
    elif kind == "aggregate":
        k = facts["policies"]
        need(len(out["vertices"]) == k, "vertex count")
        need(out["n_voters"] == facts["voters"], "voter count")
        need(len(out["q"]) == k and all(len(r) == k for r in out["q"]), "q is not k x k")
        members = {m for c in out["cycles"] for m in c["members"]}
        need(members <= set(out["vertices"]), "cycle member outside the vertices")
        blocks = [m for b in out["condensed"]["blocks"] for m in b["members"]]
        need(sorted(blocks) == sorted(out["vertices"]), "condensed blocks do not partition")
    elif kind == "borda":
        need(len(out["scores"]) == facts["policies"], "score count")
        need(_order_labels(out["ranking"]) == sorted(out["scores"]), "ranking coverage")
    elif kind == "mlorder":
        cands = out["candidates"]
        need(len(cands) >= 1, "no candidates")
        if facts["mode"] == "all-weak":
            want = ordered_bell(facts["labels"])
            need(len(cands) == want, f"{len(cands)} candidates, expected {want}")
        weighted = [c["weighted"] for c in cands]
        need(weighted == sorted(weighted), "candidates not ranked by weighted uncertainty")
        n_pairs = math.comb(facts["labels"], 2)
        for c in cands:
            need(len(c["pairs"]) == n_pairs, f"{c['order']}: {len(c['pairs'])} pairs")
            need(c["log_likelihood"] == -c["weighted"], f"{c['order']}: log_likelihood")
            need(all(abs(math.fsum(v) - 1.0) <= 1e-9 for v in c["pairs"].values()),
                 f"{c['order']}: restricted shares do not sum to 1")
        need(len({c["order"] for c in cands}) == len(cands), "duplicate candidate orders")
    elif kind == "antichain":
        need(out["size"] == len(out["antichain"]) == len(out["chains"]), "Dilworth sizes differ")
        elems = [e for c in out["chains"] for e in c]
        need(len(elems) == len(set(elems)) == facts["elements"], "chains do not partition")
    elif kind == "tg-check":
        need(out["connected"] is True, "planted path not found")
        path = out["path"] or []
        need(path[:1] == [facts["from"]] and path[-1:] == [facts["to"]], "path endpoints")
    elif kind == "enumerate-orders":
        want = ordered_bell(facts["labels"])
        need(len(out) == want, f"{len(out)} orders, expected {want}")
        need(len(set(out)) == len(out), "duplicate orders")
    elif kind == "newsgroup":
        uncounted = sum(out["uncounted"].values())
        need(out["counted"] + uncounted <= facts["events"], "more outcomes than events")
        seen = set()
        for label, members in out["groups"].items():
            need(not (seen & set(members)), f"group {label} overlaps another")
            seen |= set(members)
            managers = out["managers"][label]
            # the CLI's default manager fraction is 0.05: ceil(members / 20)
            need(len(managers) == -(-len(members) // 20), f"{label}: manager count")
            need(set(managers) <= set(members), f"{label}: manager outside the group")
        need(len(_order_labels(out["group_order"])) == facts["interests"], "group order coverage")
        need(len(out["topology_edges"]) == subset_lattice_edges(facts["interests"]),
             "topology edge count")
    else:
        bad.append(f"unknown kind {kind!r}")
    return bad


def compact(kind: str, out):
    """The canonical form compared against references: floats stay floats
    (compared with tolerance), exact content is kept verbatim or hashed
    when large."""
    if kind == "simulate":
        return {key: [r[key] for r in out] for key in ("t", "eta", "s_v", "s_c", "varieties")}
    if kind in ("entropy-topo", "entropy-markov", "borda", "tg-check"):
        return out
    if kind == "mlorder":
        cands = out["candidates"]
        return {
            "n": len(cands),
            "orders_sha256": _sha("\n".join(c["order"] for c in cands)),
            "orders_head": [c["order"] for c in cands[:10]],
            "weighted_head": [c["weighted"] for c in cands[:20]],
            "u_total_sum": math.fsum(c["u_total"] for c in cands),
            "weighted_sum": math.fsum(c["weighted"] for c in cands),
            "top": cands[:3],
        }
    if kind == "enumerate-orders":
        return {"n": len(out), "sha256": _sha("\n".join(out))}
    if kind == "antichain":
        return {"size": out["size"], "sha256": _sha(out)}
    if kind == "aggregate":
        return {"cycles": len(out["cycles"]), "sha256": _sha(out)}
    if kind == "newsgroup":
        return {"counted": out["counted"], "uncounted": out["uncounted"],
                "group_order": out["group_order"], "sha256": _sha(out)}
    raise ValueError(f"unknown kind {kind!r}")


def compare(ref, got, path="") -> list:
    """Differences between a reference and a compact form: exact on every
    type except float against float, which uses REL_TOL."""
    if isinstance(ref, float) and isinstance(got, float):
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got):
        return [f"{path}: type {type(got).__name__} != {type(ref).__name__}"]
    if isinstance(ref, dict):
        if sorted(ref) != sorted(got):
            return [f"{path}: keys {sorted(got)[:5]} != {sorted(ref)[:5]}"]
        return [d for k in sorted(ref) for d in compare(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def _rounded(obj):
    if isinstance(obj, float):
        return format(obj, f".{DIGEST_DIGITS}g")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def digest(compacts: dict) -> str:
    """One hash over every job's compact form with floats rounded to nine
    significant digits, for comparing two commits on a fresh seed. Equal
    digests mean equal exact fields and floats equal to nine digits;
    unequal ones call for compare() on the saved compact forms, since a
    float on a rounding boundary can flip its rounded digits."""
    return _sha(_rounded(compacts))[:16]


def check(kind: str, stdout: bytes, facts: dict, reference=None):
    """Parse, test invariants and, when a reference is given, compare.
    Returns (compact form or None, list of problems)."""
    try:
        out = parse(kind, stdout)
        problems = invariants(kind, out, facts)
        form = compact(kind, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return None, [f"unparseable output: {type(exc).__name__}: {exc}"]
    if reference is not None:
        problems += compare(reference, json.loads(json.dumps(form)))[:5]
    return form, problems
