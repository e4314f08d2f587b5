"""Exception types.  A failure is a plain CalibrationError (CLI exit 3)
unless a caller catches it apart: the two subclasses below."""


class CalibrationError(Exception):
    """Base class for all toolkit-specific failures."""


class RankDeficientError(CalibrationError):
    """The sphere fit's points do not determine a sphere: fewer than four,
    or all in one plane."""

    def __init__(self, rank, index):
        self.rank = rank
        self.index = index  # which cloud of the batch
        super().__init__(f"system is rank deficient at index {index}: numeric rank {rank} < 4")


class ValidationError(CalibrationError):
    """A file or field failed schema validation."""
