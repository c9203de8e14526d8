"""Exception types shared across the package.

Each type carries the exit code and the label that the command line reports
it with, as ``qlsub: <label>: <message>``.  A package error is a numerical
failure (exit 4) unless its type says otherwise.  The types that stand in
for a ``ValueError`` of a library call also derive from ``ValueError``.
"""


class QlsubError(Exception):
    """Base class for all package errors."""

    exit_code, label = 4, "numerical failure"


class ConfigError(QlsubError, ValueError):
    """Invalid configuration or plan parameters."""

    exit_code, label = 2, "configuration error"


class DataError(QlsubError):
    """Malformed or unreadable input data."""

    exit_code, label = 3, "data error"


class OutOfMemory(QlsubError):
    """The arrays of a run do not fit in memory."""

    exit_code, label = 5, "out of memory"


class NonFiniteValue(QlsubError, ValueError):
    """A linear predictor, weighted score or Newton matrix that is not finite, or a probability outside [0, 1]."""


class EmptySample(QlsubError):
    """A fit was requested on an empty subsample."""


class SingularHessian(QlsubError):
    """The Newton matrix is numerically singular.

    Carries the condition-number estimate that triggered the failure.
    """

    def __init__(self, condition: float, message: str | None = None):
        self.condition = float(condition)
        super().__init__(message or f"singular Newton matrix (cond ~ {condition:.3e})")


class DegenerateScores(QlsubError):
    """Too few positive sampling scores to allocate the requested size."""


class PilotFailed(QlsubError):
    """The pilot stage produced an unusable estimate; raise r0 and retry."""


class PartitionFailed(QlsubError):
    """A partition-level fit failed; carries the partition id."""

    def __init__(self, partition_id: int, message: str | None = None):
        self.partition_id = int(partition_id)
        super().__init__(message or f"partition {partition_id} failed")
