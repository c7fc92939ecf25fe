"""Exception types shared across the solver modules.

The CLI maps these onto exit codes: ConfigError -> 2, ResourceLimitError
-> 4, every other SolverError (ConvergenceError, BracketError, a mean-field
scan range that overflows) -> 3.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A config document (or model dict) failed validation.

    Carries the dotted path of the offending field so the CLI can point at it.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class SolverError(RuntimeError):
    """Base class for numerical failures.

    ``trace`` records the (n_max, e0) pairs a cutoff sweep measured before
    the failure; converge_cutoff sets it on any SolverError that leaves one
    of its steps.
    """

    def __init__(self, message: str, trace: list[tuple[int, float]] | None = None):
        self.trace = trace or []
        super().__init__(message)


class ConvergenceError(SolverError):
    """An iterative solver stopped before reaching its tolerance.

    ``best_residual`` is the eigensolver's residual when it gave up.
    """

    def __init__(self, message: str, best_residual: float | None = None,
                 trace: list[tuple[int, float]] | None = None):
        self.best_residual = best_residual
        super().__init__(message, trace)


class BracketError(SolverError):
    """A root/transition bracket does not actually straddle a transition."""


class ResourceLimitError(SolverError):
    """A requested computation exceeds the configured size budget."""
