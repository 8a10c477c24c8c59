"""Exception hierarchy for pcmselect.

Every error raised by the library derives from :class:`PcmSelectError` so
callers (in particular the Monte Carlo harness, which must survive failing
replications) can catch one base class.
"""

from __future__ import annotations


class PcmSelectError(Exception):
    """Base class for all pcmselect errors."""


def unwrap(result):
    """One result of a batched call, which returns failures in place of results:
    ``result`` itself, or raised if it is a failure."""
    if isinstance(result, PcmSelectError):
        raise result
    return result


def on_successes(items, batch) -> list:
    """``items`` with each entry that is not a failure replaced by its result of
    ``batch``, which takes their indices and returns their results in order."""
    ok = [i for i, item in enumerate(items) if not isinstance(item, PcmSelectError)]
    out = list(items)
    for i, result in zip(ok, batch(ok) if ok else ()):
        out[i] = result
    return out


class ConstantColumn(PcmSelectError):
    """A data column has zero variance and cannot be standardized."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r} is constant (zero variance)")
        self.name = name


class DecompositionFailure(PcmSelectError):
    """A matrix decomposition (SVD) did not converge."""


class SingularDesign(PcmSelectError):
    """A design matrix that must be invertible is (numerically) singular."""


class MaxIterationsExceeded(PcmSelectError):
    """The L1 solution path took more events than its cap."""

    def __init__(self, events: int):
        super().__init__(f"the L1 solution path did not reach its end within {events} events")
        self.events = events


class UnknownVertex(PcmSelectError):
    """A vertex name is not part of the graph."""

    def __init__(self, name: str):
        super().__init__(f"unknown vertex {name!r}")
        self.name = name


class OverlappingSets(PcmSelectError):
    """Vertex sets that must be disjoint overlap."""


class SearchBudgetExceeded(PcmSelectError):
    """A combinatorial search exceeded its configured evaluation cap."""


class ExplainedVarianceExceedsOne(PcmSelectError):
    """Unit-variance calibration is impossible for a vertex."""

    def __init__(self, vertex: str, value: float):
        super().__init__(
            f"parents of {vertex!r} already explain variance {value:.6f} >= 1"
        )
        self.vertex = vertex
        self.value = value


class EmptyGrid(PcmSelectError):
    """A parameter grid contains no candidates."""


class FoldTooSmall(PcmSelectError):
    """Cross-validation folds cannot be formed from the available rows."""


class EmptyInput(PcmSelectError):
    """An operation that needs at least one value received none."""


class ConfigInvalid(PcmSelectError):
    """An experiment or roles configuration failed validation."""


def check_keys(payload: dict, known, what: str, error: type[Exception] = ConfigInvalid) -> None:
    """Raise ``error`` naming each key of the JSON object ``payload`` outside ``known``."""
    unknown = sorted(map(str, set(payload) - set(known)))
    if unknown:
        raise error(f"unknown key(s) {', '.join(unknown)} in {what}; "
                    f"allowed: {', '.join(known)}")


class DataFormatError(PcmSelectError):
    """A data file could not be parsed; carries row/column context."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column
