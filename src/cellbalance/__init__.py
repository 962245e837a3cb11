"""Deterministic cellular call-admission simulator.

Compares a plain blocking system (reject everything past the home BSC's
channel pool) against round-robin handover load balancing across neighbor
BSCs, plus the analytical Erlang B machinery to put the measured blocking
rates in context.
"""

from .engine import (
    CallRecord,
    ComparisonReport,
    LbParams,
    SimulationReport,
    compare_systems,
    compute_quantum,
    simulate_load_balanced,
    simulate_normal,
    slice_execution_time,
)
from .teletraffic import (
    BlockingCurvePoint,
    OfferedLoad,
    blocking_sweep,
    erlang_b,
    format_blocking_csv,
)
from .topology import BscId, NetworkTopology
from .traffic import (
    Workload,
    WorkloadParams,
    generate_workload,
    import_workload,
)

__version__ = "0.1.0"

__all__ = [
    "BlockingCurvePoint",
    "BscId",
    "CallRecord",
    "ComparisonReport",
    "LbParams",
    "NetworkTopology",
    "OfferedLoad",
    "SimulationReport",
    "Workload",
    "WorkloadParams",
    "blocking_sweep",
    "compare_systems",
    "compute_quantum",
    "erlang_b",
    "format_blocking_csv",
    "generate_workload",
    "import_workload",
    "simulate_load_balanced",
    "simulate_normal",
    "slice_execution_time",
]
