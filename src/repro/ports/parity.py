"""Sim-vs-runtime parity: run both worlds, diff them under tolerances.

The harness (:func:`run_parity`) drives every requested policy through
:class:`~repro.ports.worlds.SimWorld` and
:class:`~repro.ports.worlds.RuntimeWorld` over one shared
:class:`~repro.sim.engine.Simulator` and compares the resulting
:class:`~repro.ports.worlds.WorldReport` pairs:

* **Modelled epochs** (no cache plan, or at/after ``warm_epochs``) must
  match *exactly* — same fetch counts, bytes, seconds and epoch time to
  the last bit. The runtime world prices its observed fetches through
  the engine's own kernels, so any deviation here is a real behavioural
  difference (a sample served from the wrong place), never float drift.
* **Cold epochs** (before ``warm_epochs`` with a plan) diverge by
  design: the simulator applies the paper's warm-up remote-availability
  model while the lockstep runtime's tiers are empty until the warm
  boundary. Tolerance: total fetch counts equal, the runtime at least
  as PFS-heavy as the sim, and the runtime epoch no faster than the
  sim's (scaled by :attr:`ParityTolerance.cold_time_slack`).
* **Unsupported scenarios** must agree: a policy raising
  :class:`~repro.errors.PolicyError` in one world must raise in both.
* **Stall ordering**: when the sim separates two policies' total times
  by more than :attr:`ParityTolerance.ordering_margin`, the runtime
  must rank them the same way.

The report is plain data (:meth:`ParityReport.to_dict` /
:meth:`ParityReport.to_json`) and fully deterministic — no timestamps,
no environment capture — so CI can diff two runs byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..api.presets import FIG8_POLICIES, make_policy
from ..errors import ConfigurationError, PolicyError
from ..sim import NoiseConfig, SimulationConfig, Simulator
from .fakes import fake_dataset_model
from .worlds import RuntimeWorld, SimWorld, WorldReport, parity_system

__all__ = [
    "EpochComparison",
    "ParityReport",
    "ParityTolerance",
    "PolicyParity",
    "compare_reports",
    "default_config",
    "run_parity",
]


@dataclass(frozen=True)
class ParityTolerance:
    """Declared tolerances for the sim-vs-runtime comparison.

    Attributes
    ----------
    modeled_rel:
        Relative tolerance for modelled epochs. The default ``0.0``
        demands bitwise equality (what the shared-kernel pricing
        guarantees); loosen only when comparing across worlds that do
        not share the engine.
    cold_time_slack:
        Cold epochs may not be *faster* in the runtime world than
        ``sim_time * (1 - cold_time_slack)`` — empty tiers mean more
        PFS traffic, never less.
    ordering_margin:
        Two policies whose sim total times differ by more than this
        relative margin must rank identically in the runtime world.
    """

    modeled_rel: float = 0.0
    cold_time_slack: float = 1e-9
    ordering_margin: float = 0.05

    def __post_init__(self) -> None:
        for name in ("modeled_rel", "cold_time_slack", "ordering_margin"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EpochComparison:
    """One epoch's verdict."""

    epoch: int
    kind: str  # "modeled" | "cold"
    ok: bool
    sim_counts: tuple[int, ...]
    runtime_counts: tuple[int, ...]
    sim_time_s: float
    runtime_time_s: float
    issues: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "kind": self.kind,
            "ok": self.ok,
            "sim_counts": list(self.sim_counts),
            "runtime_counts": list(self.runtime_counts),
            "sim_time_s": self.sim_time_s,
            "runtime_time_s": self.runtime_time_s,
            "issues": list(self.issues),
        }


@dataclass(frozen=True)
class PolicyParity:
    """One policy's verdict across both worlds.

    ``status`` is ``"ok"``, ``"mismatch"``, ``"unsupported"`` (both
    worlds rejected the scenario — which counts as agreement), or
    ``"unsupported_sim_only"`` / ``"unsupported_runtime_only"`` (a
    disagreement about supportability, always a failure).
    """

    policy: str
    status: str
    epochs: tuple[EpochComparison, ...] = ()
    issues: tuple[str, ...] = ()
    sim_total_s: float | None = None
    runtime_total_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "unsupported")

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "status": self.status,
            "ok": self.ok,
            "sim_total_s": self.sim_total_s,
            "runtime_total_s": self.runtime_total_s,
            "issues": list(self.issues),
            "epochs": [e.to_dict() for e in self.epochs],
        }


@dataclass(frozen=True)
class ParityReport:
    """The full harness output: per-policy verdicts plus ordering."""

    scenario: dict[str, Any]
    policies: tuple[PolicyParity, ...]
    ordering_issues: tuple[str, ...] = ()
    tolerance: ParityTolerance = field(default_factory=ParityTolerance)

    @property
    def ok(self) -> bool:
        return not self.ordering_issues and all(p.ok for p in self.policies)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "scenario": self.scenario,
            "tolerance": {
                "modeled_rel": self.tolerance.modeled_rel,
                "cold_time_slack": self.tolerance.cold_time_slack,
                "ordering_margin": self.tolerance.ordering_margin,
            },
            "ordering_issues": list(self.ordering_issues),
            "policies": [p.to_dict() for p in self.policies],
        }

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary_lines(self) -> list[str]:
        """Human-readable one-line-per-policy summary (CLI output)."""
        lines = []
        for p in self.policies:
            if p.sim_total_s is None:
                lines.append(f"{p.policy:24s} {p.status}")
            else:
                lines.append(
                    f"{p.policy:24s} {p.status:10s} "
                    f"sim={p.sim_total_s:.6f}s runtime={p.runtime_total_s:.6f}s"
                )
        for issue in self.ordering_issues:
            lines.append(f"ordering: {issue}")
        lines.append("PARITY OK" if self.ok else "PARITY FAILED")
        return lines


# -- comparison ------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    if rel == 0.0:
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-6)


def _compare_modeled(
    epoch: int, sim: Any, runtime: Any, tol: ParityTolerance
) -> EpochComparison:
    issues: list[str] = []
    if sim.fetch_counts != runtime.fetch_counts:
        issues.append(
            f"fetch counts differ: sim={sim.fetch_counts} "
            f"runtime={runtime.fetch_counts}"
        )
    for name in ("fetch_bytes", "fetch_seconds"):
        sv, rv = getattr(sim, name), getattr(runtime, name)
        if not all(_close(s, r, tol.modeled_rel) for s, r in zip(sv, rv)):
            issues.append(f"{name} differ: sim={sv} runtime={rv}")
    for name in ("time_s", "stall_mean_s", "stall_max_s"):
        sv, rv = getattr(sim, name), getattr(runtime, name)
        if not _close(sv, rv, tol.modeled_rel):
            issues.append(f"{name} differs: sim={sv!r} runtime={rv!r}")
    return EpochComparison(
        epoch=epoch,
        kind="modeled",
        ok=not issues,
        sim_counts=sim.fetch_counts,
        runtime_counts=runtime.fetch_counts,
        sim_time_s=sim.time_s,
        runtime_time_s=runtime.time_s,
        issues=tuple(issues),
    )


def _compare_cold(
    epoch: int, sim: Any, runtime: Any, tol: ParityTolerance
) -> EpochComparison:
    issues: list[str] = []
    if sum(sim.fetch_counts) != sum(runtime.fetch_counts):
        issues.append(
            f"total fetch counts differ: sim={sum(sim.fetch_counts)} "
            f"runtime={sum(runtime.fetch_counts)}"
        )
    # Index 0 is Source.PFS; empty runtime tiers can only shift remote
    # fetches onto the PFS, never the reverse.
    if runtime.fetch_counts[0] < sim.fetch_counts[0]:
        issues.append(
            f"runtime less PFS-heavy than sim on a cold epoch: "
            f"sim_pfs={sim.fetch_counts[0]} runtime_pfs={runtime.fetch_counts[0]}"
        )
    if runtime.time_s < sim.time_s * (1.0 - tol.cold_time_slack):
        issues.append(
            f"runtime cold epoch faster than sim: "
            f"sim={sim.time_s!r} runtime={runtime.time_s!r}"
        )
    return EpochComparison(
        epoch=epoch,
        kind="cold",
        ok=not issues,
        sim_counts=sim.fetch_counts,
        runtime_counts=runtime.fetch_counts,
        sim_time_s=sim.time_s,
        runtime_time_s=runtime.time_s,
        issues=tuple(issues),
    )


def compare_reports(
    sim_report: WorldReport,
    runtime_report: WorldReport,
    tolerance: ParityTolerance | None = None,
) -> PolicyParity:
    """Diff one policy's two world reports into a verdict."""
    tol = tolerance if tolerance is not None else ParityTolerance()
    issues: list[str] = []
    if len(sim_report.epochs) != len(runtime_report.epochs):
        issues.append(
            f"epoch counts differ: sim={len(sim_report.epochs)} "
            f"runtime={len(runtime_report.epochs)}"
        )
    if sim_report.cold_epochs != runtime_report.cold_epochs:
        issues.append(
            f"worlds disagree on cold epochs: sim={sim_report.cold_epochs} "
            f"runtime={runtime_report.cold_epochs}"
        )
    if sim_report.prestage_time_s != runtime_report.prestage_time_s:
        issues.append("prestage times differ")

    cold = set(sim_report.cold_epochs)
    epochs = []
    for i, (s, r) in enumerate(zip(sim_report.epochs, runtime_report.epochs)):
        cmp = (_compare_cold if i in cold else _compare_modeled)(i, s, r, tol)
        epochs.append(cmp)
    ok = not issues and all(e.ok for e in epochs)
    return PolicyParity(
        policy=sim_report.policy,
        status="ok" if ok else "mismatch",
        epochs=tuple(epochs),
        issues=tuple(issues),
        sim_total_s=sim_report.total_time_s,
        runtime_total_s=runtime_report.total_time_s,
    )


def _ordering_issues(
    results: list[PolicyParity], margin: float
) -> list[str]:
    """Pairs the sim separates by > margin must rank the same in runtime."""
    issues = []
    timed = [p for p in results if p.sim_total_s is not None]
    for i, a in enumerate(timed):
        for b in timed[i + 1 :]:
            if a.sim_total_s * (1.0 + margin) < b.sim_total_s:
                if a.runtime_total_s > b.runtime_total_s:
                    issues.append(
                        f"sim ranks {a.policy} faster than {b.policy} "
                        f"({a.sim_total_s:.6f} < {b.sim_total_s:.6f}) but the "
                        f"runtime disagrees ({a.runtime_total_s:.6f} > "
                        f"{b.runtime_total_s:.6f})"
                    )
            elif b.sim_total_s * (1.0 + margin) < a.sim_total_s:
                if b.runtime_total_s > a.runtime_total_s:
                    issues.append(
                        f"sim ranks {b.policy} faster than {a.policy} "
                        f"({b.sim_total_s:.6f} < {a.sim_total_s:.6f}) but the "
                        f"runtime disagrees ({b.runtime_total_s:.6f} > "
                        f"{a.runtime_total_s:.6f})"
                    )
    return issues


# -- the harness -----------------------------------------------------------


def default_config(
    profile: str = "tiny",
    num_workers: int = 4,
    batch_size: int = 4,
    num_epochs: int = 3,
) -> SimulationConfig:
    """The standard parity scenario: a fake dataset on the parity system.

    Noise is disabled — both worlds support it identically (they share
    the seeded per-worker generators), but the deterministic fluid model
    is what makes mismatch reports readable.
    """
    return SimulationConfig(
        dataset=fake_dataset_model(profile),
        system=parity_system(num_workers),
        batch_size=batch_size,
        num_epochs=num_epochs,
        noise=NoiseConfig.disabled(),
    )


def run_parity(
    config: SimulationConfig | None = None,
    policies: Sequence[str] = FIG8_POLICIES,
    tolerance: ParityTolerance | None = None,
) -> ParityReport:
    """Run every policy through both worlds and diff the reports.

    Both worlds share one :class:`Simulator` (same cached streams); each
    policy is instantiated and prepared fresh per world, so each world
    plans its own prepared policy and no prepared state leaks across.
    """
    cfg = config if config is not None else default_config()
    tol = tolerance if tolerance is not None else ParityTolerance()
    sim = Simulator(cfg)
    sim_world = SimWorld(cfg, sim=sim)
    runtime_world = RuntimeWorld(cfg, sim=sim)

    results: list[PolicyParity] = []
    for spec in policies:
        sim_error = runtime_error = None
        sim_report = runtime_report = None
        try:
            sim_report = sim_world.run(make_policy(spec))
        except PolicyError as exc:
            sim_error = exc
        try:
            runtime_report = runtime_world.run(make_policy(spec))
        except PolicyError as exc:
            runtime_error = exc

        if sim_error is not None or runtime_error is not None:
            if sim_error is not None and runtime_error is not None:
                status = "unsupported"
            elif sim_error is not None:
                status = "unsupported_sim_only"
            else:
                status = "unsupported_runtime_only"
            results.append(
                PolicyParity(
                    policy=str(spec),
                    status=status,
                    issues=tuple(
                        str(e) for e in (sim_error, runtime_error) if e is not None
                    ),
                )
            )
            continue
        results.append(compare_reports(sim_report, runtime_report, tol))

    ordering = _ordering_issues(results, tol.ordering_margin)
    scenario = {
        "dataset": cfg.dataset.name,
        "system": cfg.system.name,
        "num_workers": cfg.system.num_workers,
        "batch_size": cfg.batch_size,
        "num_epochs": cfg.num_epochs,
        "seed": cfg.seed,
        "policies": [str(p) for p in policies],
    }
    return ParityReport(
        scenario=scenario,
        policies=tuple(results),
        ordering_issues=tuple(ordering),
        tolerance=tol,
    )
