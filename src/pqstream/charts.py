"""Deterministic rendering of result tables as SVG charts or text tables.

The SVG is emitted directly with fixed-precision coordinates and a fixed
palette; rendering the same table twice produces identical bytes, which the
query layer promises for reproducible reporting.  Supported kinds are
``time_series`` (one polyline per numeric column), ``bar`` (one bar per
numeric cell), ``pie`` (one slice per row of a single non-negative measure)
and ``table`` (aligned plain text).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .query import ResultTable

CHART_KINDS = ("time_series", "bar", "pie", "table")

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

WIDTH = 800
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50


class ChartError(ValueError):
    """Raised when a table does not fit the requested chart kind."""


@dataclass(frozen=True)
class ChartSpec:
    """What to draw: the kind plus an optional title."""

    kind: str
    title: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CHART_KINDS:
            raise ChartError(f"unknown chart kind {self.kind!r}; expected {CHART_KINDS}")


def _fmt(value: float) -> str:
    return format(value, ".2f")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_columns(table: ResultTable) -> list[int]:
    """Indexes of columns whose non-None cells are all numeric."""
    out = []
    for idx in range(len(table.columns)):
        cells = [row[idx] for row in table.rows]
        present = [c for c in cells if c is not None]
        if present and all(_is_number(c) for c in present):
            out.append(idx)
    return out


def format_text_table(table: ResultTable) -> str:
    """Column-aligned plain text rendering, used for stdout and kind=table."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, datetime):
            return value.isoformat(timespec="microseconds")
        if isinstance(value, float):
            return format(value, ".10g")
        return str(value)

    grid = [list(table.columns)] + [[cell(v) for v in row] for row in table.rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(table.columns))]
    lines = []
    for n, row in enumerate(grid):
        lines.append("  ".join(text.ljust(w) for text, w in zip(row, widths)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _svg_header(spec: ChartSpec) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(spec.title)}</text>'
        )
    return parts


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_frame(parts: list[str]) -> None:
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" stroke="#000000"/>'
    )


def _value_span(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) if lo != 0 else 1.0
        return lo - 0.05 * pad, hi + 0.05 * pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _y_ticks(parts: list[str], lo: float, hi: float) -> None:
    x0, y0, y1 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    for k in range(5):
        frac = k / 4.0
        value = lo + frac * (hi - lo)
        y = y0 - frac * (y0 - y1)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{format(value, ".4g")}</text>'
        )


def _render_time_series(table: ResultTable, spec: ChartSpec) -> str:
    if not table.rows:
        raise ChartError("time_series needs at least one row")
    if not all(isinstance(row[0], datetime) for row in table.rows):
        raise ChartError("time_series needs timestamps in the first column")
    numeric = [i for i in _numeric_columns(table) if i != 0]
    if not numeric:
        raise ChartError("time_series needs at least one numeric column")
    times = [row[0] for row in table.rows]
    t0 = times[0]
    xs = [(t - t0).total_seconds() for t in times]
    span_x = xs[-1] - xs[0] or 1.0
    values = [
        float(row[i]) for row in table.rows for i in numeric if row[i] is not None
    ]
    if not values:
        raise ChartError("time_series has no numeric cells to draw")
    lo, hi = _value_span(values)
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts = _svg_header(spec)
    _axis_frame(parts)
    _y_ticks(parts, lo, hi)

    def sx(x: float) -> float:
        return x0 + (x - xs[0]) / span_x * (x1 - x0)

    def sy(v: float) -> float:
        return y0 - (v - lo) / (hi - lo) * (y0 - y1)

    for n, col in enumerate(numeric):
        color = PALETTE[n % len(PALETTE)]
        points = " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(float(row[col])))}"
            for x, row in zip(xs, table.rows)
            if row[col] is not None
        )
        parts.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{x1 - 150}" y="{y1 + 14 + 14 * n}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{_escape(table.columns[col])}</text>'
        )
    parts.append(
        f'<text x="{x0}" y="{y0 + 16}" font-family="sans-serif" font-size="10">'
        f"{times[0].isoformat(timespec='seconds')}</text>"
    )
    parts.append(
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="end" font-family="sans-serif" '
        f'font-size="10">{times[-1].isoformat(timespec="seconds")}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bar_items(table: ResultTable) -> list[tuple[str, float]]:
    numeric = _numeric_columns(table)
    if not numeric:
        raise ChartError("bar chart needs at least one numeric column")
    label_cols = [i for i in range(len(table.columns)) if i not in numeric]
    items: list[tuple[str, float]] = []
    for row in table.rows:
        prefix = " ".join(str(row[i]) for i in label_cols)
        for col in numeric:
            if row[col] is None:
                continue
            name = table.columns[col] if not prefix else f"{prefix} {table.columns[col]}"
            if len(numeric) == 1 and prefix:
                name = prefix
            items.append((name, float(row[col])))
    if not items:
        raise ChartError("bar chart has no numeric cells to draw")
    return items


def _render_bar(table: ResultTable, spec: ChartSpec) -> str:
    items = _bar_items(table)
    values = [v for _, v in items]
    lo, hi = min(0.0, min(values)), max(0.0, max(values))
    if lo == hi:
        hi = lo + 1.0
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts = _svg_header(spec)
    _axis_frame(parts)
    _y_ticks(parts, lo, hi)
    slot = (x1 - x0) / len(items)
    width = 0.6 * slot

    def sy(v: float) -> float:
        return y0 - (v - lo) / (hi - lo) * (y0 - y1)

    for n, (name, value) in enumerate(items):
        color = PALETTE[n % len(PALETTE)]
        left = x0 + n * slot + 0.2 * slot
        top = min(sy(value), sy(0.0))
        height = abs(sy(value) - sy(0.0))
        parts.append(
            f'<rect class="bar" x="{_fmt(left)}" y="{_fmt(top)}" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(left + width / 2)}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(name)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(left + width / 2)}" y="{_fmt(top - 4)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{format(value, ".6g")}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_pie(table: ResultTable, spec: ChartSpec) -> str:
    numeric = _numeric_columns(table)
    if len(numeric) != 1:
        raise ChartError(
            f"pie needs exactly one numeric measure column, table has {len(numeric)}"
        )
    col = numeric[0]
    label_cols = [i for i in range(len(table.columns)) if i != col]
    items = []
    for n, row in enumerate(table.rows):
        value = row[col]
        if value is None:
            continue
        if value < 0:
            raise ChartError(f"pie needs non-negative values, row {n + 1} holds {value}")
        label = " ".join(str(row[i]) for i in label_cols) or f"row {n + 1}"
        items.append((label, float(value)))
    total = sum(v for _, v in items)
    if total <= 0:
        raise ChartError("pie needs a positive total")
    cx, cy, radius = WIDTH / 2.0, (HEIGHT + MARGIN_TOP) / 2.0 - 10, 140.0
    parts = _svg_header(spec)
    angle = -math.pi / 2.0
    for n, (label, value) in enumerate(items):
        frac = value / total
        end = angle + 2.0 * math.pi * frac
        x_start = cx + radius * math.cos(angle)
        y_start = cy + radius * math.sin(angle)
        x_end = cx + radius * math.cos(end)
        y_end = cy + radius * math.sin(end)
        large = 1 if frac > 0.5 else 0
        color = PALETTE[n % len(PALETTE)]
        if frac >= 1.0:
            parts.append(
                f'<circle class="slice" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(radius)}" fill="{color}"/>'
            )
        else:
            parts.append(
                f'<path class="slice" d="M {_fmt(cx)} {_fmt(cy)} '
                f"L {_fmt(x_start)} {_fmt(y_start)} "
                f"A {_fmt(radius)} {_fmt(radius)} 0 {large} 1 {_fmt(x_end)} {_fmt(y_end)} "
                f'Z" fill="{color}"/>'
            )
        mid = (angle + end) / 2.0
        lx = cx + (radius + 30) * math.cos(mid)
        ly = cy + (radius + 30) * math.sin(mid)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">'
            f"{_escape(label)} ({format(100.0 * frac, '.1f')}%)</text>"
        )
        angle = end
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_chart(table: ResultTable, spec: ChartSpec, out_path: Path | str) -> Path:
    """Render ``table`` per ``spec`` into ``out_path``; returns the path.

    Output is a self-contained SVG document, or aligned UTF-8 text for
    ``kind="table"``.  Byte-identical for identical inputs.
    """
    out_path = Path(out_path)
    if spec.kind == "table":
        payload = format_text_table(table) + "\n"
    elif spec.kind == "time_series":
        payload = _render_time_series(table, spec)
    elif spec.kind == "bar":
        payload = _render_bar(table, spec)
    else:
        payload = _render_pie(table, spec)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(payload, encoding="utf-8")
    return out_path
