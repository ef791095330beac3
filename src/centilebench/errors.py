"""Shared exception types: a fit that fails, and a replication study
whose fits fail too often."""


class FitError(RuntimeError):
    """An optimizer or linear-program solve failed; message carries diagnostics."""


class ExperimentError(RuntimeError):
    """A replication experiment exceeded its failed-fit budget."""
