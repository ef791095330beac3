"""Shared exception types for model fitting."""


class FitError(RuntimeError):
    """An optimizer or linear-program solve failed; message carries diagnostics."""


class ExperimentError(RuntimeError):
    """A replication experiment exceeded its failed-fit budget."""


class EmptyTableError(ValueError):
    """A valid design would write a requested table without rows."""
