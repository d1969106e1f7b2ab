"""Report values and their table / CSV renderings.

All cells are pre-rendered exact strings (decimal integers, 'p/q'
rationals, short labels), so the CSV stream can be re-parsed without any
loss.  Warnings are carried separately and belong on the error stream.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Report:
    command: str
    scenario: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    warnings: tuple[str, ...] = field(default=())
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError("row width does not match the header")


def render_table(report: Report) -> str:
    """Human-readable aligned table, prefixed with the command echo."""
    widths = [len(h) for h in report.headers]
    for row in report.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"# command: {report.command}", f"# scenario: {report.scenario}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(report.headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in report.rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """Pure data stream: header row then one row per record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # under a "\n" terminator csv leaves a lone "\r" unquoted, and the
    # reader would take it for a line end; such a row is quoted in full
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in (report.headers, *report.rows):
        (quoted if any("\r" in cell for cell in row) else writer).writerow(row)
    return buf.getvalue()
