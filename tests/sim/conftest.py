"""Shared fixtures for the engine suites."""

import pytest

from repro.sim import engine as engine_mod


class GatherLog:
    """Every size gather an engine run makes, as its band loop made it.

    ``built`` holds each :class:`~repro.sim.engine.SizeBand` constructed
    and ``tiles`` one ``(epoch, start, stop, shared)`` entry per
    :meth:`~repro.sim.engine.EpochPlan.tile` call, ``shared`` being the
    band the tile used as its sizes (``None`` when it gathered its own).
    """

    def __init__(self) -> None:
        self.built: list = []
        self.tiles: list = []

    def shared(self) -> list[tuple[int, int, int]]:
        """The band loop's shared gathers, ``(epoch, start, stop)`` in order.

        One entry per distinct band a tile used. Every other build is
        a tile's own (a rewritten stream's), so a shared gather no tile
        used fails the count check.
        """
        seen: dict[int, tuple[int, int, int]] = {}
        for epoch, start, stop, shared in self.tiles:
            if shared is not None:
                seen.setdefault(id(shared), (epoch, start, stop))
        own = sum(shared is None for *_, shared in self.tiles)
        assert len(self.built) == own + len(seen)
        return list(seen.values())


@pytest.fixture
def gathers(monkeypatch) -> GatherLog:
    """Record the engine's size gathers by wrapping ``SizeBand`` and ``tile``."""
    log = GatherLog()
    size_band = engine_mod.SizeBand
    tile = engine_mod.EpochPlan.tile

    class Recorded(size_band):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            log.built.append(self)

    def recording(plan, rows, shared=None):
        out = tile(plan, rows, shared)
        log.tiles.append((plan.epoch, rows.start, rows.stop, out.shared))
        return out

    monkeypatch.setattr(engine_mod, "SizeBand", Recorded)
    monkeypatch.setattr(engine_mod.EpochPlan, "tile", recording)
    return log
