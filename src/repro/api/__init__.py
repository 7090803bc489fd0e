"""The unified scenario layer: registries, `Scenario`, `Session`.

One import gives callers everything needed to describe and run an
experiment as data::

    from repro.api import Scenario, Session

    scenario = Scenario(
        dataset="mnist", system="sec6_cluster:2", policy="nopfs",
        batch_size=16, num_epochs=2, scale=0.2,
    )
    result = Session(jobs=2, cache_dir=".cache").run(scenario)

* :mod:`repro.api.registry` — the generic string-keyed
  :class:`~repro.api.registry.Registry` (duplicate registration
  raises; unknown names suggest near-misses).
* :mod:`repro.api.presets` — the built-in ``POLICIES`` / ``DATASETS``
  / ``SYSTEMS`` registries and the paper's figure lineups.
* :mod:`repro.api.scenario` — :class:`~repro.api.scenario.Scenario`
  and its axis specs: JSON round-trip, materialization, sweep-cache
  fingerprints identical to the constructor-era path.
* :mod:`repro.api.session` — :class:`~repro.api.session.Session`, the
  run/sweep facade shared by the CLI, the figure modules and future
  services.

``SEARCHERS`` — the :mod:`repro.search` driver registry — is exported
lazily from here too, alongside the other registries.

The consolidated CLI (``python -m repro``) lives in :mod:`repro.cli`.
"""

from .presets import (
    DATASETS,
    FIG8_POLICIES,
    POLICIES,
    SYSTEMS,
    TABLE1_POLICIES,
    fig8_lineup,
    make_dataset,
    make_policy,
    make_system,
    table1_lineup,
)
from .registry import (
    DuplicateNameError,
    Registry,
    RegistryEntry,
    RegistryError,
    UnknownNameError,
)
from .scenario import DatasetSpec, PolicySpec, Scenario, SystemSpec, scaled_scenario
from .session import Session

#: Lazily-resolved exports (PEP 562) — :mod:`repro.search` imports this
#: package's submodules, so its registry must load on first access
#: rather than eagerly here.
_LAZY_EXPORTS = {
    "SEARCHERS": ("repro.search", "SEARCHERS"),
}


def __getattr__(name: str):
    """Resolve a lazy export on first access (PEP 562)."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__() -> list:
    """Advertise lazy exports to introspection alongside real globals."""
    return sorted({*globals(), *_LAZY_EXPORTS})


__all__ = [
    "DATASETS",
    "DatasetSpec",
    "DuplicateNameError",
    "FIG8_POLICIES",
    "POLICIES",
    "PolicySpec",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "SEARCHERS",
    "SYSTEMS",
    "Scenario",
    "Session",
    "SystemSpec",
    "TABLE1_POLICIES",
    "UnknownNameError",
    "fig8_lineup",
    "make_dataset",
    "make_policy",
    "make_system",
    "scaled_scenario",
    "table1_lineup",
]
