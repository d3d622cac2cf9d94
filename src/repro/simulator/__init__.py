"""Congestion-aware analytical network simulator (ASTRA-sim-like backend)."""

from repro.simulator.adapters import (
    FlatWorkload,
    algorithm_to_flat_workload,
    schedule_to_flat_workload,
    simulate_algorithm,
    simulate_schedule,
)
from repro.simulator.engine import CongestionAwareSimulator
from repro.simulator.result import SimulationResult
from repro.simulator.schedule import LogicalSchedule, LogicalSend

__all__ = [
    "CongestionAwareSimulator",
    "FlatWorkload",
    "LogicalSchedule",
    "LogicalSend",
    "SimulationResult",
    "algorithm_to_flat_workload",
    "schedule_to_flat_workload",
    "simulate_algorithm",
    "simulate_schedule",
]
