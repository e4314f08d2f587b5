"""Exception types.  A failure is a plain CalibrationError (CLI exit 3)
unless a caller catches it apart: the three subclasses below."""


class CalibrationError(Exception):
    """Base class for all toolkit-specific failures."""


class RankDeficientError(CalibrationError):
    """The sphere fit's points do not determine a sphere: fewer than four,
    or all in one plane."""

    def __init__(self, rank, needed, index=None):
        self.rank = rank
        self.needed = needed
        self.index = index  # which cloud of a batch, when the fit was batched
        where = "" if index is None else f" at index {index}"
        super().__init__(f"system is rank deficient{where}: numeric rank {rank} < {needed}")


class DegenerateSolutionError(CalibrationError):
    """SDP solution has no usable dominant eigenpair."""


class ValidationError(CalibrationError):
    """A file or field failed schema validation."""
