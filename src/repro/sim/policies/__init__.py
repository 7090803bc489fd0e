"""All simulated I/O policies (Sec 6's lineup plus the PyTorch variant).

The figure lineups live in :mod:`repro.api.presets`
(``FIG8_POLICIES`` / ``TABLE1_POLICIES`` and their ``*_lineup()``
builders), which express them as plain registry data.
"""

from .base import Policy, PolicyCapabilities, PreparedPolicy, WorkerLookup
from .deepio import DeepIOPolicy
from .lbann import LBANNPolicy
from .locality_aware import LocalityAwarePolicy
from .naive import NaivePolicy
from .nopfs import NoPFSPolicy
from .parallel_staging import ParallelStagingPolicy
from .perfect import PerfectPolicy
from .staging_buffer import DoubleBufferPolicy, StagingBufferPolicy

__all__ = [
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

