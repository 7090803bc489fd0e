"""`Scenario`: one simulation described entirely as data.

A :class:`Scenario` names its three axes through the registries
(:mod:`repro.api.presets`) — dataset x system x policy — plus the
simulation knobs (batch size, epochs, seed, scale, noise, barrier,
interference). It round-trips through dicts/JSON via
:class:`~repro.config.ConfigMixin`, so a scenario can live in a config
file, cross a process/host boundary, or be handed to the CLI — and it
*materializes* to exactly the :class:`~repro.sim.config.SimulationConfig`
and :class:`~repro.sim.Policy` the pre-API code built by hand, so its
:meth:`Scenario.fingerprint` is byte-for-byte the sweep-cache key the
:class:`~repro.sweep.runner.SweepRunner` has always used. Warm caches
from constructor-era sweeps stay warm.

The axis spec types (:class:`DatasetSpec`, :class:`SystemSpec`,
:class:`PolicySpec`) each accept the registry spec spellings —
``"nopfs"``, ``"deepio:opportunistic"``, ``{"name": ..., "kwargs":
{...}}`` — and :class:`SystemSpec` additionally carries the preset
tweaks the figure modules apply (field overrides, compute factor,
cache-tier capacities), so every grid in the repo is expressible as
pure data.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..config import ConfigMixin
from ..datasets import DatasetModel
from ..errors import ConfigurationError
from ..perfmodel import SystemModel
from ..rng import DEFAULT_SEED
from ..sim import NoiseConfig, Policy, SimulationConfig
from ..sweep.cache import cell_key
from ..sweep.grid import SweepCell
from .presets import DATASETS, POLICIES, SYSTEMS
from .registry import split_spec_mapping

__all__ = [
    "DatasetSpec",
    "PolicySpec",
    "Scenario",
    "SystemSpec",
    "scaled_scenario",
]


def scaled_scenario(
    dataset: DatasetModel,
    system: SystemModel,
    batch_size: int,
    num_epochs: int,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    **config_kwargs: Any,
) -> SimulationConfig:
    """Build a :class:`SimulationConfig`, shrunk by ``scale`` regime-true.

    ``scale`` multiplies the sample count and every cache-tier capacity;
    sample sizes, batch size, worker count, PFS curve and compute rates
    are untouched, so per-batch behaviour and all capacity *ratios* are
    preserved.
    """
    if not 0 < scale <= 1.0:
        raise ConfigurationError("scale must be in (0, 1]")
    ds = dataset if scale == 1.0 else dataset.scaled(scale)
    sys_ = system
    if scale != 1.0 and system.storage_classes:
        sys_ = system.with_class_capacities(
            [c.capacity_mb * scale for c in system.storage_classes]
        )
    return SimulationConfig(
        dataset=ds,
        system=sys_,
        batch_size=batch_size,
        num_epochs=num_epochs,
        seed=seed,
        **config_kwargs,
    )


@dataclass(frozen=True)
class DatasetSpec(ConfigMixin):
    """A dataset axis value: registry name plus factory kwargs."""

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: "DatasetSpec | str | Mapping[str, Any]") -> "DatasetSpec":
        """Coerce any accepted spelling (spec/str/mapping) to a spec."""
        if isinstance(spec, DatasetSpec):
            return spec
        if isinstance(spec, str):
            return cls(name=spec)
        if isinstance(spec, Mapping):
            name, kwargs = split_spec_mapping("dataset", spec)
            return cls(name=name, kwargs=kwargs)
        raise ConfigurationError(f"cannot parse a dataset spec from {type(spec).__name__!r}")

    def build(self, default_seed: int | None = None) -> DatasetModel:
        """Materialize the dataset (``default_seed`` fills a missing seed)."""
        kwargs = dict(self.kwargs)
        if default_seed is not None:
            kwargs.setdefault("seed", default_seed)
        return DATASETS.create(self.name, **kwargs)


@dataclass(frozen=True)
class SystemSpec(ConfigMixin):
    """A system axis value: preset name, factory kwargs, preset tweaks.

    The tweak fields mirror what the experiment harness does to presets,
    applied in this order after the factory call:

    1. ``overrides`` — :meth:`~repro.perfmodel.SystemModel.replace`
       fields (e.g. a calibrated ``compute_mbps``);
    2. ``compute_factor`` —
       :meth:`~repro.perfmodel.SystemModel.with_compute_factor`
       (Fig 9's "5x compute and preprocessing");
    3. ``preprocess_factor`` — scales ``preprocess_mbps`` alone
       (Fig 10's DALI pipeline);
    4. ``class_capacities_mb`` —
       :meth:`~repro.perfmodel.SystemModel.with_class_capacities`
       (Fig 9's RAM x SSD design-space axes).
    """

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    overrides: dict[str, Any] = field(default_factory=dict)
    compute_factor: float | None = None
    preprocess_factor: float | None = None
    class_capacities_mb: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.class_capacities_mb is not None and not isinstance(
            self.class_capacities_mb, tuple
        ):
            # JSON round-trips deliver lists; normalize so round-tripped
            # specs compare equal to their originals.
            object.__setattr__(self, "class_capacities_mb", tuple(self.class_capacities_mb))

    @classmethod
    def parse(cls, spec: "SystemSpec | str | Mapping[str, Any]") -> "SystemSpec":
        """Coerce any accepted spelling (spec/str/mapping) to a spec."""
        if isinstance(spec, SystemSpec):
            return spec
        if isinstance(spec, str):
            return cls(name=spec)
        if isinstance(spec, Mapping):
            data = dict(spec)
            fields = {
                key: data.pop(key)
                for key in (
                    "overrides",
                    "compute_factor",
                    "preprocess_factor",
                    "class_capacities_mb",
                )
                if key in data
            }
            name, kwargs = split_spec_mapping("system", data)
            return cls(name=name, kwargs=kwargs, **fields)
        raise ConfigurationError(f"cannot parse a system spec from {type(spec).__name__!r}")

    def build(self) -> SystemModel:
        """Materialize the system: factory call, then the tweak pipeline."""
        model = SYSTEMS.create(self.name, **self.kwargs)
        if self.overrides:
            model = model.replace(**self.overrides)
        if self.compute_factor is not None:
            model = model.with_compute_factor(self.compute_factor)
        if self.preprocess_factor is not None:
            model = model.replace(preprocess_mbps=model.preprocess_mbps * self.preprocess_factor)
        if self.class_capacities_mb is not None:
            model = model.with_class_capacities(list(self.class_capacities_mb))
        return model


@dataclass(frozen=True)
class PolicySpec(ConfigMixin):
    """A policy axis value: registry name plus constructor kwargs."""

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: "PolicySpec | Policy | str | Mapping[str, Any]") -> "PolicySpec":
        """Coerce any accepted spelling — including a live policy instance."""
        if isinstance(spec, PolicySpec):
            return spec
        if isinstance(spec, Policy):
            return cls.from_policy(spec)
        if isinstance(spec, str):
            return cls(name=spec)
        if isinstance(spec, Mapping):
            name, kwargs = split_spec_mapping("policy", spec)
            return cls(name=name, kwargs=kwargs)
        raise ConfigurationError(f"cannot parse a policy spec from {type(spec).__name__!r}")

    @classmethod
    def from_policy(cls, policy: Policy) -> "PolicySpec":
        """The spec that reconstructs ``policy`` (inverse of :meth:`build`).

        Recovers the registered family name of the policy's class and
        its constructor state (the intersection of ``vars(policy)``
        with the constructor's parameters), then *verifies* the spec
        rebuilds a policy with the identical cache fingerprint —
        constructors that transform their arguments (state not stored
        under the parameter name) are rejected loudly instead of
        silently reconstructing a different policy.
        """
        from ..sweep.cache import policy_fingerprint

        family = POLICIES.family_of(type(policy))
        if family is None:
            raise ConfigurationError(
                f"policy class {type(policy).__qualname__!r} is not registered; "
                "register it with repro.api.POLICIES.register(...) first"
            )
        params = {
            name
            for name, p in inspect.signature(type(policy).__init__).parameters.items()
            if name != "self"
            and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        }
        kwargs = {k: v for k, v in vars(policy).items() if k in params}
        spec = cls(name=family, kwargs=kwargs)
        if policy_fingerprint(spec.build()) != policy_fingerprint(policy):
            raise ConfigurationError(
                f"cannot express {type(policy).__qualname__!r} as a registry spec: "
                "its constructor state is not recoverable from its attributes; "
                "pass an explicit PolicySpec(name=..., kwargs=...) instead"
            )
        return spec

    def build(self) -> Policy:
        """Materialize the policy instance."""
        return POLICIES.create(self.name, **self.kwargs)


@dataclass(frozen=True)
class Scenario(ConfigMixin):
    """Dataset x system x policy x simulation knobs, as plain data.

    The axis fields accept any spec spelling (string, mapping, spec
    object — and a live :class:`~repro.sim.Policy` for ``policy``);
    they are normalized to spec dataclasses on construction, so
    ``Scenario(dataset="mnist", system="sec6_cluster:2",
    policy="nopfs", batch_size=16, num_epochs=2)`` is valid and
    round-trips through :meth:`~repro.config.ConfigMixin.to_dict` /
    :meth:`~repro.config.ConfigMixin.from_dict` unchanged.

    ``noise=None`` means the simulator's default noise model; pass an
    explicit :class:`~repro.sim.NoiseConfig` to pin or disable it.

    The knob fields are type-checked on construction, never coerced:
    ``batch_size``, ``num_epochs`` and ``seed`` take integers (NumPy's
    too, but not ``bool``), ``barrier`` and ``record_batch_times`` take
    ``bool``, and ``scale`` and ``network_interference`` finite real
    numbers (not ``bool``). Anything else raises
    :class:`~repro.errors.ConfigurationError`, so a malformed value from
    JSON or a ``--knob`` flag is rejected before it reaches the engine.
    """

    dataset: DatasetSpec
    system: SystemSpec
    policy: PolicySpec
    batch_size: int
    num_epochs: int
    seed: int = DEFAULT_SEED
    scale: float = 1.0
    noise: NoiseConfig | None = None
    barrier: bool = True
    record_batch_times: bool = False
    network_interference: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset", DatasetSpec.parse(self.dataset))
        object.__setattr__(self, "system", SystemSpec.parse(self.system))
        object.__setattr__(self, "policy", PolicySpec.parse(self.policy))
        # The builtin types lead each isinstance tuple: they match without
        # the slower ABC check that admits NumPy's numbers.
        for name, value in (
            ("batch_size", self.batch_size),
            ("num_epochs", self.num_epochs),
            ("seed", self.seed),
        ):
            if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name, value in (
            ("barrier", self.barrier),
            ("record_batch_times", self.record_batch_times),
        ):
            if not isinstance(value, bool):
                raise ConfigurationError(f"{name} must be true or false, got {value!r}")
        for name, value in (
            ("scale", self.scale),
            ("network_interference", self.network_interference),
        ):
            if (
                isinstance(value, bool)
                or not isinstance(value, (float, int, numbers.Real))
                or not math.isfinite(value)
            ):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.num_epochs <= 0:
            raise ConfigurationError("num_epochs must be positive")
        if not 0 < self.scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]")

    @property
    def label(self) -> str:
        """A short human-readable handle (not necessarily unique)."""
        return (
            f"{self.dataset.name}/{self.system.name}/{self.policy.name}"
            f"/b{self.batch_size}/e{self.num_epochs}/s{self.seed}"
        )

    def build_config(self) -> SimulationConfig:
        """Materialize the :class:`SimulationConfig` this scenario names."""
        config_kwargs: dict[str, Any] = {}
        if self.noise is not None:
            config_kwargs["noise"] = self.noise
        return scaled_scenario(
            self.dataset.build(default_seed=self.seed),
            self.system.build(),
            batch_size=self.batch_size,
            num_epochs=self.num_epochs,
            scale=self.scale,
            seed=self.seed,
            barrier=self.barrier,
            record_batch_times=self.record_batch_times,
            network_interference=self.network_interference,
            **config_kwargs,
        )

    def build_policy(self) -> Policy:
        """Materialize the :class:`~repro.sim.Policy` this scenario names."""
        return self.policy.build()

    def cell(self, tag: Any | None = None) -> SweepCell:
        """This scenario as a sweep cell (``tag`` defaults to the fingerprint)."""
        config = self.build_config()
        policy = self.build_policy()
        if tag is None:
            tag = cell_key(config, policy)
        return SweepCell(tag=tag, config=config, policy=policy)

    def fingerprint(self) -> str:
        """The content hash addressing this scenario in the sweep cache.

        Identical to :func:`repro.sweep.cache.cell_key` over the
        materialized config and policy — the exact key the pre-API
        constructor path produced, so caches interoperate both ways.

        Computed once per instance (a scenario is immutable) and kept
        outside the dataclass fields, so equality, hashing, ``repr`` and
        serialization never see it.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = cell_key(self.build_config(), self.build_policy())
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint
