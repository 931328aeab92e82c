"""Exception hierarchy and the shared enumeration-cap helper.

Two families matter to callers: InputError (bad data, CLI exit code 2)
and ResourceError (caps and convergence failures, CLI exit code 3).
"""

import os

ENV_CAP = "PREFLATTICE_MAX_VERTICES"


class PrefLatticeError(Exception):
    """Base class for every error raised by this package."""


class InputError(PrefLatticeError):
    """Malformed or inconsistent input data."""


class DuplicateLabel(InputError):
    pass


class MissingLabel(InputError):
    pass


class UnknownLabel(InputError):
    pass


class AmbiguousLabel(InputError):
    """A label that would make a printed order ambiguous."""


class EmptyGroup(InputError):
    pass


class UnknownVertex(InputError):
    pass


class CyclicRelation(InputError):
    """A relation offered as a partial order contains a cycle."""


class SelfComparison(InputError):
    pass


class MismatchedPairs(InputError):
    """Estimate table and tally disagree on which pairs exist."""


class NotADistribution(InputError):
    pass


class WeakOrderUnsupported(InputError):
    """Operation defined for strong (tie-free) orders only."""


class LengthMismatch(InputError):
    pass


class SelfFollowup(InputError):
    pass


class UnknownParent(InputError):
    pass


class UnmappedThread(InputError):
    pass


class UnknownGroup(InputError):
    pass


class SeriesTooShort(InputError):
    pass


class ResourceError(PrefLatticeError):
    """Resource caps and numeric non-convergence."""


class CapExceeded(ResourceError):
    pass


class NonConvergence(ResourceError):
    """Iteration failed to converge; carries the best estimate seen."""

    def __init__(self, message, estimate=None, residual=None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


def vertex_cap(default):
    """Effective enumeration cap: PREFLATTICE_MAX_VERTICES if set, else default."""
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{ENV_CAP} must be an integer, got {raw!r}") from None
