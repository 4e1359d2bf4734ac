from .invariants import CHECKERS, Violation, check_invariants, verdicts
from .runner import Runner, derive_seed, explore_schedules, run
from .scenario import Scenario, ScenarioError, object_id_for
from .trace import Trace, TraceRecorder

__all__ = [
    "CHECKERS", "Violation", "check_invariants", "verdicts",
    "Runner", "derive_seed", "explore_schedules", "run",
    "Scenario", "ScenarioError", "object_id_for",
    "Trace", "TraceRecorder",
]
