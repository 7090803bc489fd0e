"""Shared benchmark fixtures: rendered tables are saved next to timings.

Every benchmark regenerates one of the paper's tables/figures; besides
the pytest-benchmark timing, the rendered rows (measured next to the
paper's published values) are written to ``benchmarks/output/`` and
echoed so ``pytest benchmarks/ --benchmark-only -s`` shows them inline.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture()
def report():
    """Save + echo a regenerated figure/table rendering."""

    def _report(name: str, text: str) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _report


def interleaved_min(
    a: Callable[[], object], b: Callable[[], object], rounds: int
) -> tuple[float, float]:
    """Best wall seconds of ``a`` and ``b`` over alternating rounds.

    Even rounds run ``a`` then ``b``, odd rounds ``b`` then ``a``, so
    host drift during the measurement slows both sides alike instead of
    whichever side was timed in the slower block.
    """
    sides = (a, b)
    best = [float("inf"), float("inf")]
    for round_ in range(rounds):
        for side in ((0, 1), (1, 0))[round_ % 2]:
            start = time.perf_counter()
            sides[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


@pytest.fixture()
def ab_timer():
    """:func:`interleaved_min`, for every in-test speedup assert."""
    return interleaved_min
