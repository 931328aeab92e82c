"""Shared regression fixtures.

Two voting profiles (the four-option committee table and its three-option
restriction, plus the rock-paper-scissors electorate) and one paired
comparison data set with every derived figure frozen after independent
recomputation. Tests import from here so the numbers live in one place,
along with ``estimate_point``, which builds estimate points by hand.
"""

from fractions import Fraction as Fr

from preflattice.errors import InputError, SelfComparison
from preflattice.mlorder import EstimatePoint

# Four options, three voters: two rank w>x>y>z, one ranks y>z>x>w.
BORDA4 = {
    "policies": ["w", "x", "y", "z"],
    "voters": [
        {"id": "v1", "ranking": [["w"], ["x"], ["y"], ["z"]]},
        {"id": "v2", "ranking": [["w"], ["x"], ["y"], ["z"]]},
        {"id": "v3", "ranking": [["y"], ["z"], ["x"], ["w"]]},
    ],
}

# The same electorate with x withdrawn.
BORDA3 = {
    "policies": ["w", "y", "z"],
    "voters": [
        {"id": "v1", "ranking": [["w"], ["y"], ["z"]]},
        {"id": "v2", "ranking": [["w"], ["y"], ["z"]]},
        {"id": "v3", "ranking": [["y"], ["z"], ["w"]]},
    ],
}

# Three voters whose majorities chase each other in a circle.
PARADOX = {
    "policies": ["x", "y", "z"],
    "voters": [
        {"id": "v1", "ranking": [["x"], ["y"], ["z"]]},
        {"id": "v2", "ranking": [["z"], ["x"], ["y"]]},
        {"id": "v3", "ranking": [["y"], ["z"], ["x"]]},
    ],
}

BORDA4_STATIONARY = (Fr(12, 23), Fr(6, 23), Fr(3, 23), Fr(2, 23))
BORDA3_STATIONARY = (Fr(6, 11), Fr(3, 11), Fr(2, 11))
BORDA4_SHANNON = 0.8425589668297178  # base 4
BORDA3_SHANNON = 0.9056185178648963  # base 3
PARADOX_TOPO_ENTROPY = 0.6309297535714574  # log base 3 of 2

# Paired comparisons over four items, six trials per pair. Counts are
# (wins of the smaller label, wins of the larger, ties).
WORKED_COUNTS = {
    ("1", "2"): (2, 3, 1),
    ("1", "3"): (4, 1, 1),
    ("1", "4"): (0, 2, 4),
    ("2", "3"): (1, 2, 3),
    ("2", "4"): (1, 3, 2),
    ("3", "4"): (4, 2, 0),
}

# Sample shares per pair: (pi_ab, pi_ba, gamma), exact.
WORKED_RAW = {
    ("1", "2"): (Fr(1, 3), Fr(1, 2), Fr(1, 6)),
    ("1", "3"): (Fr(2, 3), Fr(1, 6), Fr(1, 6)),
    ("1", "4"): (Fr(0), Fr(1, 3), Fr(2, 3)),
    ("2", "3"): (Fr(1, 6), Fr(1, 3), Fr(1, 2)),
    ("2", "4"): (Fr(1, 6), Fr(1, 2), Fr(1, 3)),
    ("3", "4"): (Fr(2, 3), Fr(1, 3), Fr(0)),
}

# Unweighted uncertainty totals of the six candidate orders the induced
# bigraph admits, recomputed by direct log10 evaluation of the pooled
# restrictions and frozen. Keys use the package's order syntax.
WORKED_TOTALS = {
    "1=4>2=3": 2.279271668201241,
    "4>2>1>3": 2.3344537511509307,
    "3>4>2>1": 2.3490283218598513,
    "2=3>1=4": 2.355019595368929,
    "1>3>4>2": 2.4626502126113823,
    "2>1>3>4": 2.52382356907015,
}

# Published restricted-estimate rows for the same six-candidate ranking
# table: (pi_ab, gamma) per pair in the order (12),(13),(14),(23),(24),(34);
# pi_ba is implied. Transcribed digit for digit, slips included, so the
# uncertainty figures printed alongside them can be checked as printed.
PRINTED_ROWS = {
    "pi1": [(Fr(5, 12), Fr(1, 6)), (Fr(2, 3), Fr(1, 6)), (Fr(0), Fr(2, 3)),
            (Fr(1, 6), Fr(1, 2)), (Fr(1, 6), Fr(1, 3)), (Fr(1, 2), Fr(0))],
    "pi2": [(Fr(5, 12), Fr(1, 6)), (Fr(2, 3), Fr(1, 6)), (Fr(0), Fr(1, 2)),
            (Fr(1, 6), Fr(5, 12)), (Fr(1, 6), Fr(1, 3)), (Fr(2, 3), Fr(0))],
    "pi3": [(Fr(1, 3), Fr(1, 6)), (Fr(2, 3), Fr(1, 6)), (Fr(0), Fr(1, 2)),
            (Fr(1, 6), Fr(5, 12)), (Fr(1, 6), Fr(5, 12)), (Fr(2, 3), Fr(0))],
    "pi4": [(Fr(1, 3), Fr(1, 6)), (Fr(5, 12), Fr(1, 6)), (Fr(0), Fr(2, 3)),
            (Fr(1, 6), Fr(1, 2)), (Fr(1, 6), Fr(5, 12)), (Fr(2, 3), Fr(0))],
    "pi5": [(Fr(1, 3), Fr(1, 6)), (Fr(5, 12), Fr(1, 6)), (Fr(0), Fr(1, 2)),
            (Fr(1, 6), Fr(5, 12)), (Fr(1, 6), Fr(1, 3)), (Fr(2, 3), Fr(0))],
    "pi6": [(Fr(1, 3), Fr(1, 6)), (Fr(2, 3), Fr(1, 6)), (Fr(0), Fr(1, 2)),
            (Fr(1, 6), Fr(5, 12)), (Fr(1, 6), Fr(1, 3)), (Fr(1, 2), Fr(0))],
}

# Uncertainty totals printed next to those rows. The pi4 figure does not
# match its own row under direct evaluation (every other row lands within
# 1e-4); the recomputed value is frozen separately below.
PRINTED_U = {"pi1": 2.279224, "pi2": 2.286507, "pi3": 2.286507,
             "pi4": 2.234382, "pi5": 2.348982, "pi6": 2.303824}
PI4_RECOMPUTED = 2.324432917139545

PAIR_KEYS = [("1", "2"), ("1", "3"), ("1", "4"),
             ("2", "3"), ("2", "4"), ("3", "4")]


def worked_comparisons():
    """Expand WORKED_COUNTS into (i, j, outcome) records."""
    rows = []
    for (a, b), (s_ab, s_ba, ties) in sorted(WORKED_COUNTS.items()):
        rows += [(a, b, ">")] * s_ab
        rows += [(a, b, "<")] * s_ba
        rows += [(a, b, "=")] * ties
    return rows


def printed_row_estimates(name):
    """One published row as a pair -> (pi_ab, pi_ba, gamma) mapping."""
    est = {}
    for pair, (pi_ab, gamma) in zip(PAIR_KEYS, PRINTED_ROWS[name]):
        est[pair] = (pi_ab, 1 - pi_ab - gamma, gamma)
    return est


def estimate_point(mapping) -> EstimatePoint:
    """Validate and build an EstimatePoint from pair -> three shares."""
    out = {}
    for pair, vals in mapping.items():
        a, b = pair
        if a == b:
            raise SelfComparison(f"pair ({a!r},{a!r}) compares a label with itself")
        key = (a, b) if a < b else (b, a)
        triple = tuple(Fr(v) for v in vals)
        if len(triple) != 3:
            raise InputError(f"pair {key} needs exactly three shares")
        if any(v < 0 for v in triple):
            raise InputError(f"pair {key} has a negative share")
        if sum(triple) != 1:
            raise InputError(f"pair {key} shares do not sum to 1")
        if key != pair:
            triple = (triple[1], triple[0], triple[2])
        out[key] = triple
    return EstimatePoint(out)
