"""Table 1: the I/O framework capability matrix, regenerated from code."""

from __future__ import annotations

from dataclasses import dataclass

from ..api.presets import table1_lineup
from . import paper
from .common import format_table

__all__ = ["Table1Result", "run"]

HEADERS = (
    "Framework",
    "System scal.",
    "Dataset scal.",
    "Full rand.",
    "HW indep.",
    "Ease of use",
    "Matches paper",
)


@dataclass(frozen=True)
class Table1Result:
    """The regenerated capability matrix with per-row paper agreement."""

    rows: tuple[tuple[str, ...], ...]

    @property
    def all_match(self) -> bool:
        """Whether every row equals the paper's Table 1."""
        return all(row[-1] == "yes" for row in self.rows)

    def render(self) -> str:
        """Human-readable table."""
        return format_table(HEADERS, self.rows)


def run() -> Table1Result:
    """Regenerate Table 1 from the policies' capability metadata."""
    rows = []
    for policy in table1_lineup():
        marks = policy.capabilities.as_row()
        expected = paper.TABLE1_ROWS[policy.name]
        rows.append(
            (policy.display_name, *marks, "yes" if marks == expected else "no")
        )
    return Table1Result(rows=tuple(rows))
