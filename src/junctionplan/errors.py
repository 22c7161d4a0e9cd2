"""Exception types shared across the planner."""

from __future__ import annotations


class PlannerError(Exception):
    """Base class for all planner errors."""


class OutOfRangeError(PlannerError):
    """A query time lies outside the trajectory or segment interval."""


class DegenerateHorizonError(PlannerError):
    """A time horizon is empty or reversed (tf <= t0)."""


class ConditioningError(PlannerError):
    """A linear system is singular or too ill-conditioned to trust."""


class OrderingError(PlannerError):
    """Junction times are not strictly increasing inside the horizon."""


class ScenarioLookupError(PlannerError):
    """An agent or obstacle id is not present in the scenario."""


class SchemaError(PlannerError):
    """A JSON or CSV document does not match the expected schema."""


class GenerationError(PlannerError):
    """Random world generation exhausted its rejection budget."""


class PlanningFailure(PlannerError):
    """Greedy junction discovery could not produce a feasible plan.

    Carries the best iterate so callers can inspect or export it.
    """

    def __init__(self, message, trajectory=None, report=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.report = report


class EncodingError(PlannerError):
    """A trajectory message could not be encoded (plan not converged)."""


class DecodeError(PlannerError):
    """A trajectory message references ids unknown to the scenario, or
    its junctions leave a segment too short to solve."""


class ValidationError(PlannerError):
    """A message or record violates its structural invariants."""


class UnsupportedScenarioError(PlannerError):
    """The scenario breaks an assumption of the negotiation layer."""


class NegotiationError(PlannerError):
    """No conflict-free arrival-time assignment exists within budget."""


class ComparisonError(PlannerError):
    """Oracle and trajectory disagree on horizon or boundary data."""

