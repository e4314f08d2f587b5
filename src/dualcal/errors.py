"""Exception types shared across the toolkit."""


class CalibrationError(Exception):
    """Base class for all toolkit-specific failures."""


class StructureError(CalibrationError):
    """Input matrix/vector does not have the required structure."""


class NearPiRotationError(CalibrationError):
    """Rotation angle too close to pi for a stable logarithm."""


class RankDeficientError(CalibrationError):
    """The sphere fit's points do not determine a sphere: fewer than four,
    or all in one plane."""

    def __init__(self, rank, needed, index=None):
        self.rank = rank
        self.needed = needed
        self.index = index  # which cloud of a batch, when the fit was batched
        where = "" if index is None else f" at index {index}"
        super().__init__(f"system is rank deficient{where}: numeric rank {rank} < {needed}")


class InfeasibleSamplingError(CalibrationError):
    """Rejection sampling could not satisfy the validity rules."""


class DegenerateSolutionError(CalibrationError):
    """SDP solution has no usable dominant eigenpair."""


class ValidationError(CalibrationError):
    """A file or field failed schema validation."""
