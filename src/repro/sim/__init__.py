"""The Sec 6 I/O performance simulator: engine, policies, results.

The engine evaluates epochs as ``(N, L)`` matrices, priced in row
bands for a whole policy lineup at once, through the pure array kernels
in :mod:`repro.sim.kernels`; see ``docs/performance.md`` for the layout
and the equivalence guarantees.
"""

from . import kernels
from .bounds import policy_lower_bound
from .config import SimulationConfig
from .context import ScenarioContext
from .engine import EpochPlan, EpochTile, Simulator, analytic_lower_bound
from .lockstep import LockstepResult, lockstep_epoch
from .noise import NoiseConfig, SourceBand, apply_noise, apply_noise_matrix
from .policies import (
    DeepIOPolicy,
    DoubleBufferPolicy,
    LBANNPolicy,
    LocalityAwarePolicy,
    NaivePolicy,
    NoPFSPolicy,
    ParallelStagingPolicy,
    PerfectPolicy,
    Policy,
    PolicyCapabilities,
    PreparedPolicy,
    StagingBufferPolicy,
    WorkerLookup,
)
from .result import BatchTimeStats, EpochResult, SimulationResult
from .scalars import PhasePlan, PlanScalars, plan_scalars

__all__ = [
    "SimulationConfig",
    "ScenarioContext",
    "Simulator",
    "EpochPlan",
    "EpochTile",
    "PhasePlan",
    "PlanScalars",
    "plan_scalars",
    "analytic_lower_bound",
    "policy_lower_bound",
    "kernels",
    "LockstepResult",
    "lockstep_epoch",
    "NoiseConfig",
    "SourceBand",
    "apply_noise",
    "apply_noise_matrix",
    "BatchTimeStats",
    "EpochResult",
    "SimulationResult",
    "Policy",
    "PolicyCapabilities",
    "PreparedPolicy",
    "WorkerLookup",
    "PerfectPolicy",
    "NaivePolicy",
    "StagingBufferPolicy",
    "DoubleBufferPolicy",
    "DeepIOPolicy",
    "ParallelStagingPolicy",
    "LBANNPolicy",
    "LocalityAwarePolicy",
    "NoPFSPolicy",
]
