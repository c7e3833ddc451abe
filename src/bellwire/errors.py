"""Semantic exception hierarchy for bellwire.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from solver trouble.
"""

from __future__ import annotations


class BellwireError(Exception):
    """Base class for all bellwire errors."""


class LengthMismatch(BellwireError, ValueError):
    """A flat entry sequence has the wrong length for its scenario."""


class NegativeEntry(BellwireError, ValueError):
    """A probability table contains a negative or non-finite entry."""


class ScenarioMismatch(BellwireError, ValueError):
    """Two objects that must share a scenario do not."""


class ParameterOutOfRange(BellwireError, ValueError):
    """A named-construction parameter lies outside its valid range."""


class VertexCapExceeded(BellwireError, ValueError):
    """A scenario's deterministic-vertex count exceeds the configured cap."""


class IndexMismatch(BellwireError, ValueError):
    """Two finite distributions do not share an index set."""


class NotNormalized(BellwireError, ValueError):
    """A finite distribution does not sum to one."""


class NormalizationViolation(NotNormalized):
    """A probability table has a distribution that does not sum to one.

    Carries the conditioning `index` of the worst one (empty for a table
    that is one distribution), its first two entries as `x` and `y` (the
    setting pair of a behavior column; None where the index is shorter)
    and the signed deviation.
    """

    def __init__(self, name: str, index: tuple[int, ...], deviation: float):
        self.index = index
        self.x, self.y = (*index, None, None)[:2]
        self.deviation = deviation
        at = f" at {index}" if index else ""
        super().__init__(f"{name}{at} sums to 1{deviation:+.3e}, beyond tolerance")


class DomainViolation(BellwireError, ValueError):
    """An operation was applied outside its domain (e.g. a signaling
    behavior fed to a communication-assisted wiring)."""


class SolverFailure(BellwireError, RuntimeError):
    """The LP solver terminated abnormally."""

    def __init__(self, status: str):
        self.status = status
        super().__init__(f"solver failure: {status}")


class NoConvergence(BellwireError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching the
    requested optimality gap; carries the gap it did achieve and, from a
    solver that brackets its value, the bracket's ends `lower` and
    `upper` (None otherwise). The bracket is certified though open."""

    def __init__(self, iterations: int, gap: float,
                 lower: float | None = None, upper: float | None = None):
        self.iterations = iterations
        self.gap = gap
        self.lower = lower
        self.upper = upper
        bracket = ""
        if lower is not None and upper is not None:
            bracket = f", bracket [{lower:.9g}, {upper:.9g}]"
        super().__init__(
            f"no convergence after {iterations} iterations (gap {gap:.3e}{bracket})"
        )
