"""Entropy measures for aggregated choice.

Spectral-radius (topological) entropy of mean preference matrices, the
stationary distribution of the mean hill-climbing walk, Shannon entropy of
that distribution, and the ranking it induces.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import LabeledMatrix, Order, Profile, preference_matrix, transition_matrix
from .errors import NonConvergence, NotADistribution
from .graphalg import digraph, strongly_connected_components

POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000
BRACKET_TOL = 1e-6  # relative width of the Perron-root bracket at a stop
EXACT_DIM_LIMIT = 12
STATIONARY_TOL = 1e-9


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
    """Stationary distribution of a row-stochastic matrix.

    ``exact`` marks the rational-arithmetic path (entries are Fractions,
    residual is exactly zero); otherwise entries are floats and ``residual``
    is the largest violation of y = yF after the solve.
    """

    labels: tuple[str, ...]
    distribution: tuple
    residual: float
    exact: bool
    method: str


def _perron_root(block) -> float:
    """Perron root of an irreducible nonnegative block, given as rows.

    Power iteration on A + I from the uniform vector: the shift makes the
    block primitive, so the growth of the vector's sum converges
    geometrically, and it moves the root by exactly 1. The growth can
    repeat by coincidence while the vector is still far off, so a stop
    also needs the Collatz-Wielandt bracket min/max (Bx)_i / x_i, which
    holds the root, to be narrow.
    """
    import numpy as np

    a = np.array(block, dtype=float)
    b = a + np.eye(len(a))
    x = np.ones(len(a)) / len(a)
    prev = None
    for _ in range(POWER_MAX_ITER):
        y = b @ x
        lam = float(y.sum())
        if prev is not None and abs(lam - prev) <= POWER_TOL * max(1.0, abs(lam)):
            ratios = y / x
            if ratios.max() - ratios.min() <= BRACKET_TOL * lam:
                return lam - 1.0
        x = y / lam
        prev = lam
    raise NonConvergence(
        "spectral radius estimate did not stabilize",
        estimate=lam - 1.0,
        residual=abs(lam - prev),
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
    n = len(rows)
    support = digraph(range(n), [(i, j) for i in range(n) for j in range(n)
                                 if i != j and rows[i][j] != 0])
    roots = [
        float(rows[b[0]][b[0]]) if len(b) == 1
        else _perron_root([[float(rows[i][j]) for j in b] for i in b])
        for b in strongly_connected_components(support)
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


def _mean_matrix(profile: Profile, matrix_of) -> LabeledMatrix:
    """Exact mean over the voters of matrix_of(order), aligned to the
    profile's policy order: each distinct ballot is summed once, weighted
    by its count, and the total is divided by the voter count once."""
    labels = profile.policies
    pos = {lab: i for i, lab in enumerate(labels)}
    acc = [[0] * len(labels) for _ in labels]
    for order, count in Counter(profile.orders()).items():
        m = matrix_of(order)
        for a, row in zip(m.labels, m.rows):
            target = acc[pos[a]]
            for b, x in zip(m.labels, row):
                if x:
                    target[pos[b]] += count * x
    share = Fraction(1, profile.n_voters)
    return LabeledMatrix(labels, tuple(tuple(x * share for x in row) for row in acc))


def mean_preference_matrix(profile: Profile) -> LabeledMatrix:
    """F = (1/n) sum of the voters' preference matrices, exact."""
    return _mean_matrix(profile, preference_matrix)


def topological_entropy(profile: Profile) -> EntropyValue:
    """Entropy of the profile's mean preference matrix.

    S = log_base(spectral radius), base = number of policies. A profile
    over a single policy reports 0 by convention.
    """
    return matrix_entropy(mean_preference_matrix(profile))


def markov_aggregate(profile: Profile, mode: str = "climb-one-rung") -> LabeledMatrix:
    """Arithmetic mean of the voters' transition matrices, exact and
    row-stochastic."""
    return _mean_matrix(profile, lambda order: transition_matrix(order, mode))


def _frac_solve(m, rhs):
    """Any exact solution x of m x = rhs over the rationals.

    The system may be underdetermined; free variables are set to zero.
    Raises NonConvergence if the system is inconsistent.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    aug = [list(m[i]) + [rhs[i]] for i in range(n_rows)]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            raise NonConvergence("stationary solve hit an inconsistent system")
    x = [Fraction(0)] * n_cols
    for i, c in pivots:
        x[c] = aug[i][n_cols]
    return x


def _cesaro_exact(f):
    """Exact Cesàro limit y of the uniform start under row-stochastic f.

    With A = F - I, the limit satisfies y = x0 - uA where u solves
    uA² = x0 A; the eigenvalue 1 of a stochastic matrix is semisimple, so
    the system is consistent and the construction is exact.
    """
    n = len(f)
    one = Fraction(1)
    a = [[f[i][j] - (one if i == j else 0) for j in range(n)] for i in range(n)]
    a2 = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    x0 = [Fraction(1, n)] * n
    b = [sum(x0[i] * a[i][j] for i in range(n)) for j in range(n)]
    a2t = [[a2[i][j] for i in range(n)] for j in range(n)]
    u = _frac_solve(a2t, b)
    ua = [sum(u[i] * a[i][j] for i in range(n)) for j in range(n)]
    y = [x0[j] - ua[j] for j in range(n)]
    if sum(y) != 1 or any(v < 0 for v in y):
        raise NonConvergence("exact stationary solve left the simplex")
    yf = [sum(y[i] * f[i][j] for i in range(n)) for j in range(n)]
    if yf != y:
        raise NonConvergence("exact stationary solve is not a fixed point")
    return y


def _cesaro_float(rows):
    import numpy as np

    n = len(rows)
    f = np.array([[float(x) for x in row] for row in rows])
    a = f - np.eye(n)
    x0 = np.full(n, 1.0 / n)
    b = x0 @ a
    u, *_ = np.linalg.lstsq((a @ a).T, b, rcond=None)
    y = x0 - u @ a
    y = np.maximum(y, 0.0)
    y = y / y.sum()
    residual = float(np.max(np.abs(y @ f - y)))
    return [float(v) for v in y], residual


def stationary_distribution(m: LabeledMatrix) -> StationaryResult:
    """Stationary distribution of a row-stochastic matrix, defined as the
    Cesàro limit (1/T) sum of x0 Fᵗ from the uniform start.

    That limit exists for every stochastic matrix (periodic and reducible
    ones included) and is computed in closed form: exactly over the
    rationals up to dimension 12, by least squares on the same projector
    equations above that.
    """
    rows = m.rows
    n = len(rows)
    frac_rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    for row in frac_rows:
        if any(x < 0 for x in row):
            raise NotADistribution("transition matrix has a negative entry")
    exactly_stochastic = all(sum(row) == 1 for row in frac_rows)
    if not exactly_stochastic:
        sums = [sum(float(x) for x in row) for row in rows]
        if any(abs(s - 1.0) > STATIONARY_TOL for s in sums):
            raise NotADistribution("matrix rows do not sum to 1")

    if exactly_stochastic and n <= EXACT_DIM_LIMIT:
        y = _cesaro_exact(frac_rows)
        return StationaryResult(
            labels=m.labels,
            distribution=tuple(y),
            residual=0.0,
            exact=True,
            method="rational-projector",
        )

    y, residual = _cesaro_float(rows)
    if residual > STATIONARY_TOL:
        raise NonConvergence(
            "stationary distribution residual too large",
            estimate=tuple(y),
            residual=residual,
        )
    return StationaryResult(
        labels=m.labels,
        distribution=tuple(y),
        residual=residual,
        exact=False,
        method="least-squares",
    )


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
    """Policies grouped by descending stationary probability.

    Exact results group on exact equality; float results group
    probabilities within STATIONARY_TOL of the previous entry.
    """
    pairs = sorted(
        zip(sr.labels, sr.distribution), key=lambda t: (-float(t[1]), t[0])
    )
    groups = []
    last = None
    for label, prob in pairs:
        if groups and (
            prob == last if sr.exact else abs(float(prob) - float(last)) <= STATIONARY_TOL
        ):
            groups[-1].append(label)
        else:
            groups.append([label])
        last = prob
    return Order(tuple(tuple(sorted(g)) for g in groups))
