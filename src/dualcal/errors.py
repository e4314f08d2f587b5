"""Exception types.  A failure is a plain CalibrationError (CLI exit 3)
unless a caller catches it apart: the two subclasses below."""


class CalibrationError(Exception):
    """Base class for all toolkit-specific failures."""


class RankDeficientError(CalibrationError):
    """The sphere fit's points do not determine a sphere: fewer than four,
    all in one plane, or so near one that the fit does not converge (at
    the full rank 4)."""

    def __init__(self, rank, index):
        self.rank = rank
        self.index = index  # which cloud of the batch
        super().__init__(f"cloud {index} does not determine a sphere (numeric rank {rank} of 4)")


class ValidationError(CalibrationError):
    """A file or field failed schema validation."""
