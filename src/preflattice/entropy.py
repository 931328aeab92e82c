"""Entropy measures for aggregated choice.

Spectral-radius (topological) entropy of mean preference matrices, the
stationary distribution of the mean hill-climbing walk, Shannon entropy of
that distribution, and the ranking it induces.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import LabeledMatrix, Order, Profile, strict_counts, transition_matrix
from .errors import CapExceeded, NonConvergence, NotADistribution
from .graphalg import strongly_connected_components

POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000
STATIONARY_TOL = 1e-9
STATIONARY_MAX_DIM = 100  # the exact solve takes seconds above this


@dataclass(frozen=True)
class EntropyValue:
    """A dimensionless entropy together with the log base that produced it.

    ``radius`` carries the spectral radius when the value came from a
    matrix, so callers can see the pre-logarithm quantity.
    """

    value: float
    base: float
    radius: float | None = None


@dataclass(frozen=True)
class StationaryResult:
    """Stationary distribution of a row-stochastic matrix, as Fractions."""

    labels: tuple[str, ...]
    distribution: tuple


def _support(rows):
    """Successor lists of a square matrix's off-diagonal nonzero entries."""
    return [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(rows)]


def _perron_root(block) -> float:
    """Perron root of an irreducible nonnegative block, given as rows.

    Power iteration on A + I from the uniform vector: the shift makes the
    block primitive, so the vector converges geometrically, and it moves
    the root by exactly 1. The Collatz-Wielandt bracket min/max (Bx)_i / x_i
    holds the root, and so does the growth of the vector's sum, a weighted
    mean of the same ratios; the iteration stops once the bracket is
    narrower than POWER_TOL relative, which bounds the error of the
    returned growth. The growth alone can stall by coincidence while the
    vector is still far off. Each row product is summed exactly rounded
    (math.fsum).
    """
    n = len(block)
    b = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(block)]
    x = [1.0 / n] * n
    for _ in range(POWER_MAX_ITER):
        y = [math.fsum(map(operator.mul, row, x)) for row in b]
        lam = math.fsum(y)
        ratios = [yi / xi for yi, xi in zip(y, x)]
        width = max(ratios) - min(ratios)
        if width <= POWER_TOL * lam:
            return lam - 1.0
        x = [yi / lam for yi in y]
    raise NonConvergence(
        "spectral radius estimate did not stabilize",
        estimate=lam - 1.0,
        residual=width,
    )


def spectral_radius(m: LabeledMatrix) -> float:
    """Largest eigenvalue magnitude of a nonnegative square matrix.

    The spectrum is the union of the spectra of the irreducible diagonal
    blocks, which are the strongly connected components of the support.
    A one-vertex block contributes its diagonal entry; a larger one its
    Perron root, found by power iteration (tolerance 1e-12, at most 1e5
    steps).
    """
    rows = m.rows
    roots = [
        float(rows[b[0]][b[0]]) if len(b) == 1
        else _perron_root([[float(rows[i][j]) for j in b] for i in b])
        for b in strongly_connected_components(_support(rows))
    ]
    return max(roots, default=0.0)


def matrix_entropy(m: LabeledMatrix) -> EntropyValue:
    """Logarithm of the spectral radius to the base of the dimension.

    Radii at or below 1 report entropy 0 (a single fixed point carries no
    mixing), as does a one-element matrix.
    """
    lam = spectral_radius(m)
    b = len(m.labels)
    if b <= 1 or lam <= 1.0:
        return EntropyValue(0.0, b, radius=lam)
    return EntropyValue(math.log(lam) / math.log(b), b, radius=lam)


def mean_preference_matrix(profile: Profile) -> LabeledMatrix:
    """F = (1/n) sum of the voters' preference matrices, exact: a voter
    puts a 1 at (i, j) unless they rank j strictly above i, so
    F[i][j] = (n - c[j][i]) / n with c the strict-preference counts."""
    n = profile.n_voters
    columns = zip(*strict_counts(profile))
    return LabeledMatrix(profile.policies, tuple(
        tuple(Fraction(n - x, n) for x in col) for col in columns
    ))


def topological_entropy(profile: Profile) -> EntropyValue:
    """Entropy of the profile's mean preference matrix.

    S = log_base(spectral radius), base = number of policies. A profile
    over a single policy reports 0 by convention.
    """
    return matrix_entropy(mean_preference_matrix(profile))


def markov_aggregate(profile: Profile, mode: str = "climb-one-rung") -> LabeledMatrix:
    """Arithmetic mean of the voters' transition matrices, exact and
    row-stochastic, aligned to the profile's policy order: each distinct
    ballot is summed once, weighted by its count, and the total is divided
    by the voter count once."""
    labels = profile.policies
    pos = {lab: i for i, lab in enumerate(labels)}
    acc = [[0] * len(labels) for _ in labels]
    for order, count in Counter(profile.orders()).items():
        m = transition_matrix(order, mode)
        for a, row in zip(m.labels, m.rows):
            target = acc[pos[a]]
            for b, x in zip(m.labels, row):
                if x:
                    target[pos[b]] += count * x
    share = Fraction(1, profile.n_voters)
    return LabeledMatrix(labels, tuple(tuple(x * share for x in row) for row in acc))


def _cap_states(n: int) -> None:
    """Refuse a stationary solve over more than STATIONARY_MAX_DIM states;
    the CLI calls it before building the chain, too."""
    if n > STATIONARY_MAX_DIM:
        raise CapExceeded(
            f"stationary distribution needs at most {STATIONARY_MAX_DIM} states, got {n}"
        )


def _bareiss_solve(a, b):
    """Solve a x = b for a nonsingular integer matrix a and integer vector
    b without leaving the integers: fraction-free Gauss-Jordan elimination
    (Bareiss), in which every division is exact. Returns (det, xs) with
    x = xs / det, det = ±det(a)."""
    n = len(a)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    prev = 1
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        pk = pivot[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = (pk * row[j] - f * pivot[j]) // prev
        prev = pk
    return prev, [row[n] for row in rows]


def stationary_distribution(m: LabeledMatrix) -> StationaryResult:
    """Stationary distribution of a row-stochastic matrix, defined as the
    Cesàro limit (1/T) sum of x0 Fᵗ from the uniform start.

    That limit exists for every stochastic matrix (periodic and reducible
    ones included) and is computed exactly. With the chain scaled to
    integers P = dF and its support split into strongly connected
    components, the mass of x0 ends in the closed classes: a closed class
    C keeps its own |C|/n and gains what the transient states T send it,
    z (P_TC 1) / n with z (dI - P_TT) = 1; inside C it spreads as π_C, the
    solution of π_C (dI - P_CC) = 0 with Σπ_C = 1. Both solves are integer
    (Bareiss) eliminations, and the result is checked in integers: it sums
    to 1, has no negative entry and satisfies yP = dy. A row whose sum is
    not exactly 1 but within STATIONARY_TOL of it (float rows, say) is
    first divided by its exact sum. Entries are Fractions.
    """
    n = len(m.rows)
    _cap_states(n)
    rows = []
    for row in m.rows:
        row = [Fraction(x) for x in row]
        if any(x < 0 for x in row):
            raise NotADistribution("transition matrix has a negative entry")
        total = sum(row)
        if total != 1:
            if abs(float(total) - 1.0) > STATIONARY_TOL:
                raise NotADistribution("matrix rows do not sum to 1")
            row = [x / total for x in row]
        rows.append(row)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    p = [[int(x * d) for x in row] for row in rows]

    comps = [sorted(comp) for comp in strongly_connected_components(_support(p))]
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    closed = [comp for c, comp in enumerate(comps)
              if all(comp_of[j] == c for i in comp for j in range(n) if p[i][j])]
    absorbing = {v for comp in closed for v in comp}
    transient = [v for v in range(n) if v not in absorbing]

    det_t, z = _bareiss_solve(
        [[d * (i == j) - p[j][i] for j in transient] for i in transient],
        [1] * len(transient),
    )
    y = [Fraction(0)] * n
    for comp in closed:
        inflow = sum(zt * sum(p[t][c] for c in comp) for zt, t in zip(z, transient))
        weight = Fraction(det_t * len(comp) + inflow, det_t * n)
        # π_C (dI - P_CC) = 0 with its last equation replaced by Σπ_C = 1
        det_c, pi = _bareiss_solve(
            [[d * (i == j) - p[j][i] for j in comp] for i in comp[:-1]] + [[1] * len(comp)],
            [0] * (len(comp) - 1) + [1],
        )
        for v, num in zip(comp, pi):
            y[v] = weight * Fraction(num, det_c)

    scale = math.lcm(*(x.denominator for x in y))
    ys = [int(x * scale) for x in y]
    if sum(ys) != scale or any(v < 0 for v in ys) or any(
        sum(ys[i] * p[i][j] for i in range(n)) != d * ys[j] for j in range(n)
    ):
        raise NonConvergence("exact stationary solve failed its integer check")
    return StationaryResult(labels=m.labels, distribution=tuple(y))


def shannon_entropy(p, base) -> EntropyValue:
    """-sum p_i log_base p_i, with the usual 0 log 0 = 0 convention."""
    probs = [float(x) for x in p]
    if any(x < -1e-12 for x in probs):
        raise NotADistribution("probability vector has a negative entry")
    if abs(sum(probs) - 1.0) > STATIONARY_TOL:
        raise NotADistribution("probability vector does not sum to 1")
    if base <= 1:
        return EntropyValue(0.0, base)
    h = -sum(x * math.log(x) for x in probs if x > 0.0) / math.log(base)
    return EntropyValue(max(h, 0.0), base)


def markov_order(sr: StationaryResult) -> Order:
    """Policies grouped by descending stationary probability; equal
    probabilities share a group."""
    pairs = sorted(zip(sr.labels, sr.distribution), key=lambda t: (-t[1], t[0]))
    groups = []
    last = None
    for label, prob in pairs:
        if groups and prob == last:
            groups[-1].append(label)
        else:
            groups.append([label])
        last = prob
    return Order(tuple(tuple(sorted(g)) for g in groups))
