"""Output checks for the end-to-end benchmark.

Everything here works on the serialized (``to_dict``) form of a
:class:`~repro.sim.result.SimulationResult`, so the checks need nothing
but the result itself and can be fed hand-made (or deliberately
corrupted) dicts in the self-tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable

#: The one policy that fetches nothing (``PerfectPolicy.name``): its
#: epochs legitimately carry all-zero fetch counts.
IDEAL_POLICY = "perfect"

Outcome = tuple[dict[str, Any] | None, str | None]


def result_problems(result: dict[str, Any]) -> list[str]:
    """Invariant violations of one serialized result; empty when sound.

    * epochs are numbered ``0..E-1`` in order;
    * for every policy but the ideal one, each epoch fetches the same
      number of samples, and that number is positive;
    * every time and stall is finite and non-negative.
    """
    problems: list[str] = []
    epochs = result["epochs"]
    numbers = [e["epoch"] for e in epochs]
    if numbers != list(range(len(epochs))):
        problems.append(f"epochs numbered {numbers}, expected 0..{len(epochs) - 1}")
    if result["policy"] != IDEAL_POLICY:
        fetched = sorted({sum(e["fetch_counts"]) for e in epochs})
        if len(fetched) != 1 or fetched[0] <= 0:
            problems.append(f"per-epoch fetch counts {fetched} are not one positive value")
    times = [result["prestage_time_s"]]
    for e in epochs:
        times += [e["time_s"], e["stall_mean_s"], e["stall_max_s"], *e["fetch_seconds"]]
        times += [v for k, v in e["batch_stats"].items() if k != "count"]
    bad = [t for t in times if not (math.isfinite(t) and t >= 0)]
    if bad:
        problems.append(f"{len(bad)} times are negative or not finite (first: {bad[0]!r})")
    return problems


def canonical(value: Any) -> str:
    """Sorted-key compact JSON, the form every digest hashes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(outcomes: Iterable[Outcome]) -> str:
    """sha256 over the sorted canonical ``{result, error}`` JSON lines.

    Sorting makes the digest independent of grid order and cell tags,
    so two paths that answer the same cells (a cold and a warm run, a
    pool and a serial run) hash alike.
    """
    lines = sorted(canonical({"result": r, "error": e}) for r, e in outcomes)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
