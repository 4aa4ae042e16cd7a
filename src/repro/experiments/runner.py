"""Shared experiment helper: the plain-text table renderer.

Figures reach scenarios and draws through :mod:`repro.engine`.
"""

from __future__ import annotations


def format_table(headers, rows, title=None):
    """Plain-text table renderer for experiment output."""
    headers = [str(h) for h in headers]
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
              else len(headers[i]) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell):
    if isinstance(cell, float):
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.2f}"
    return str(cell)
