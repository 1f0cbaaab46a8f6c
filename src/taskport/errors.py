"""Exception types shared across the package.

Every error carries a short machine-readable ``kind`` string; the CLI prints
failures as a single ``kind: message`` line and exits nonzero.
"""

from contextlib import contextmanager


class TaskportError(Exception):
    """Base class for all errors raised by this package."""

    kind = "error"

    def __init__(self, message, kind=None):
        super().__init__(message)
        if kind is not None:
            self.kind = kind


class DimensionError(TaskportError):
    kind = "dimension_mismatch"


class NonFiniteError(TaskportError):
    kind = "non_finite"


class ConvergenceError(TaskportError):
    kind = "svd_no_convergence"


class NotPositiveDefiniteError(TaskportError):
    kind = "not_positive_definite"


class FormatError(TaskportError):
    """Malformed binary file. ``kind`` narrows to bad_magic / truncated / bad_format."""

    kind = "bad_format"


class DepthMismatchError(TaskportError):
    kind = "depth_mismatch"


class ConfigError(TaskportError):
    kind = "bad_config"


class TrainingError(TaskportError):
    kind = "training_failure"


@contextmanager
def prefixed(prefix: str):
    """Prefix ``prefix: `` to a TaskportError raised inside, keeping its type and kind."""
    try:
        yield
    except TaskportError as exc:
        raise type(exc)(f"{prefix}: {exc}", kind=exc.kind) from exc
