"""Exception types shared across the package."""


class StateFormatError(ValueError):
    """A state file is structurally malformed (bad JSON, wrong keys, wrong shape)."""


class PhysicalityError(ValueError):
    """A matrix violates a density-matrix invariant beyond repair tolerance."""


class FilterAnnihilationError(ValueError):
    """A filter triple annihilates the state: normalization at or below tolerance."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed, e.g. an imaginary residue above tolerance."""


class NonMonotonePredicateError(RuntimeError):
    """A grid predicate changed sign more than once, so the threshold search is refused.

    ``brackets`` holds every (p_lo, p_hi) grid interval containing a sign change.
    """

    def __init__(self, message: str, brackets):
        super().__init__(message)
        self.brackets = list(brackets)
