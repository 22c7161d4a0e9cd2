"""Energy-optimal trajectory planning for double-integrator agents.

Plans minimum-energy paths through circular obstacle fields by chaining
cubic motion primitives at constraint-activation junctions, coordinates
multiple agents by arrival-time negotiation, and verifies results
against an independent discrete transcription oracle.
"""

from .errors import (
    ComparisonError,
    ConditioningError,
    DecodeError,
    DegenerateHorizonError,
    EncodingError,
    GenerationError,
    NegotiationError,
    OrderingError,
    OutOfRangeError,
    PlannerError,
    PlanningFailure,
    ScenarioLookupError,
    SchemaError,
    UnsupportedScenarioError,
    ValidationError,
)
from .trajectory import (
    CubicSegment,
    KinematicState,
    PiecewiseTrajectory,
    eval_trajectory,
    sample_trajectory,
    solve_boundary,
    trajectory_energy,
)
from .world import (
    AgentSpec,
    Bounds,
    Obstacle,
    Scenario,
    ViolationRecord,
    constraint_value,
    first_violation,
    gen_world,
    inflated_radius,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from .solver import (
    Junction,
    SolveReport,
    contact_point,
    initial_guess,
    plan_agent,
    residuals,
    solve_coefficients,
    solve_junctions,
)
from .game import (
    ConflictRecord,
    Message,
    NegotiatedPlan,
    NegotiationConfig,
    Payoff,
    decode_message,
    detect_conflicts,
    encode_message,
    message_from_json,
    message_int_count,
    message_real_count,
    message_to_json,
    negotiate_arrival_times,
    payoff,
)
from .oracle import (
    DiscretePlan,
    OracleConfig,
    compare,
    discrete_min_energy,
    discrete_min_energy_constrained,
)

__version__ = "0.1.0"
