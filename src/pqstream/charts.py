"""Deterministic rendering of result tables as SVG charts or text tables.

The SVG is emitted directly with fixed-precision coordinates and a fixed
palette; rendering the same table twice produces identical bytes, which the
query layer promises for reproducible reporting.  Supported kinds are
``time_series`` (one polyline per numeric column), ``bar`` (one bar per
numeric cell), ``pie`` (one slice per row of a single non-negative measure)
and ``table`` (aligned plain text).  :func:`write_text_table` is the one
writer of that text, to a stream or a file: it reads its rows twice, once for
the column widths and once to write, so the CLI writes a series a block at a
time, whether it prints it or writes it with ``--chart table``.

A time series is drawn a column at a time from the arrays of a
:class:`~pqstream.query.SeriesTable`, which ``timeseries`` returns; any other
table is refused.  x is the int64 microseconds since the first date over 1e6,
the bits of ``(t - t0).total_seconds()``, and each column is its float64
array, NaN for NULL.  The x coordinates are mapped once as a float64 array
and formatted once, for every polyline to share.
Each column's y coordinates are mapped as one array and formatted by one
vectorized fixed-point formatter, whose bytes equal ``format(v, ".2f")``.
Every check runs before the file is opened, so a refused table leaves no
file; then the header, each polyline and the trailer are written to the file
as they are made, and the document is never joined in memory.  Every
non-NULL cell gets one vertex, with no decimation, a column of NULL cells
draws no polyline, and the same table always gives the same bytes.  A bar or
pie cell that is NaN, infinite or an integer too large for a float has no
coordinate, so those kinds refuse it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime
from itertools import chain
from pathlib import Path
from types import NoneType
from typing import TextIO

import numpy as np

from .query import ResultTable, SeriesTable

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


#: ``"%4d"`` of 0-1000 and ``".%02d"`` of 0-99, NUL for blank, each one
#: little-endian 4-byte word: the text of a value below 1000 is one of each.
_WHOLE = np.frombuffer(b"".join(b"%4d" % i for i in range(1001)).replace(b" ", b"\0"), "<u4")
_CENTS = np.frombuffer(b"".join(b".%02d\0" % i for i in range(100)), "<u4")


def _fixed_point(values: np.ndarray, end: bytes) -> np.ndarray:
    """``format(v, ".2f")`` plus ``end`` of each value, one row of bytes each.

    A row holds NUL bytes, then the text, then the one byte ``end``; its
    width is a multiple of 4.  The digits come from ``q = rint(v * 100)``,
    exact unless ``v * 100`` lies within 1e-6 of a half-cent tie.  A value
    that near a tie, negative (``-0.0`` included) or at least 1000 takes its
    text from ``format`` instead, so every row equals ``format(v, ".2f")``
    byte for byte.
    """
    scaled = values * 100.0
    cents = np.rint(scaled)
    guarded = np.flatnonzero(
        np.signbit(values) | (values >= 1000.0) | (np.abs(np.abs(scaled - cents) - 0.5) < 1e-6)
    )
    texts = [format(v, ".2f").encode("ascii") + end for v in values[guarded].tolist()]
    # whole 4-byte words, two or as many as the longest guarded text needs
    width = max([8, *(4 * -(-len(text) // 4) for text in texts)])
    cents[guarded] = 0.0
    whole, frac = np.divmod(cents.astype(np.int32), 100)
    out = np.zeros((len(values), width), np.uint8)
    words = out.view("<u4")
    words[:, -2] = _WHOLE[whole]
    words[:, -1] = _CENTS[frac] + (ord(end) << 24)
    for i, text in zip(guarded.tolist(), texts):
        out[i] = 0
        out[i, width - len(text) :] = np.frombuffer(text, np.uint8)
    return out


def _numeric_columns(table: ResultTable) -> list[int]:
    """The indices of the columns whose non-None cells are all numbers.

    A column counts as numeric when the set of its cell types, less
    ``NoneType``, is non-empty and every type is an ``int`` or ``float``
    subclass that is not a ``bool`` subclass.  A numeric column holding NaN,
    an infinity or an integer too large for a float raises
    :class:`ChartError` naming it, because no coordinate can be drawn for it.
    """
    names, out = table.columns, []
    for idx, cells in enumerate(zip(*table.rows)):
        kinds = set(map(type, cells)) - {NoneType}
        if not kinds or not all(
            issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds
        ):
            continue
        cells = [c for c in cells if c is not None]
        try:
            values = np.fromiter(cells, np.float64, len(cells))
        except OverflowError:
            raise ChartError(
                f"column {names[idx]!r} holds a number that no float can hold"
            ) from None
        finite = np.isfinite(values)
        if not finite.all():
            raise ChartError(
                f"column {names[idx]!r} holds {values[~finite][0]}, which cannot be drawn"
            )
        out.append(idx)
    return out


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, datetime):
        return value.isoformat(timespec="microseconds")
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_text_table(
    columns: tuple[str, ...], rows: Callable[[], Iterable[tuple]], out: TextIO | Path
) -> None:
    """Write the column-aligned text of ``rows()`` to the stream ``out``, or
    to a UTF-8 file at the path ``out``, a line at a time.

    ``rows`` is called twice and must give the same rows both times: the
    first pass finds each column's widest cell, the second writes the lines.
    So only a line is held, not the table.  Both calls come before a file is
    created, so rows that refuse their arguments on the call leave no file.
    """
    widths = [len(c) for c in columns]
    for row in rows():
        widths = [max(w, len(_cell_text(v))) for w, v in zip(widths, row)]

    def line(texts: Iterable[str]) -> str:
        return "  ".join(text.ljust(w) for text, w in zip(texts, widths)).rstrip() + "\n"

    lines = chain(
        (line(columns), line("-" * w for w in widths)),
        (line(map(_cell_text, row)) for row in rows()),
    )
    if isinstance(out, Path):
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8", newline="\n") as file:
            file.writelines(lines)
    else:
        out.writelines(lines)


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


def _value_span(lo: float, hi: float) -> tuple[float, float]:
    """The y range drawn for values in [lo, hi]: 5 % wider on each side.

    The range is never empty: a constant column pads by 5 % of its value,
    or by 0.05 where that pad underflows (zero, or a subnormal such as
    5e-324).  A range wider than the largest float raises
    :class:`ChartError`, because its ticks and coordinates cannot be drawn.
    """
    pad = 0.05 * (abs(lo) if lo == hi else hi - lo)
    if lo == hi and pad == 0:
        pad = 0.05
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ChartError(f"values from {lo} to {hi} span more than a float can hold")
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


def _render_time_series(table: ResultTable, spec: ChartSpec) -> Iterator[bytes]:
    """Check ``table`` as a time series, then return its SVG as byte chunks.

    Every check runs here, before the first chunk is asked for, so a refused
    table raises :class:`ChartError` before any file is opened.  The chunks
    are the header, each polyline with its legend, and the trailer.
    """
    if not isinstance(table, SeriesTable):
        raise ChartError("time_series draws a SeriesTable, as query.timeseries returns it")
    xs, numeric, first, last = _series_columns(table)
    if not numeric:
        raise ChartError("time_series needs at least one numeric column")
    lo, hi = _value_span(
        float(min(v.min() for v, _ in numeric.values())),
        float(max(v.max() for v, _ in numeric.values())),
    )
    return _time_series_svg(spec, table.columns, xs, numeric, lo, hi, first, last)


def _series_columns(table: SeriesTable):
    """x, the numeric columns and the first and last dates, from the arrays."""
    dates = table.dates
    if not len(dates):
        raise ChartError("time_series needs at least one row")
    # (t - t0).total_seconds() divides int microseconds by 10**6; a float64
    # holds them exactly below 2**53 us (285 years), so there numpy's
    # division gives the same bits
    us = (dates - dates[0]).astype(np.int64)
    xs = us / 1e6 if us[-1] < 2**53 else np.array([u / 10**6 for u in us.tolist()])
    numeric = {}
    for j, column in enumerate(table.values.T, 1):
        present = ~np.isnan(column)
        if present.all():
            numeric[j] = column, None
        elif present.any():
            numeric[j] = column[present], present
    return xs, numeric, dates[0].item(), dates[-1].item()


def _time_series_svg(
    spec: ChartSpec,
    names: tuple[str, ...],
    xs: np.ndarray,
    numeric: dict[int, tuple[np.ndarray, np.ndarray | None]],
    lo: float,
    hi: float,
    first: datetime,
    last: datetime,
) -> Iterator[bytes]:
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts = _svg_header(spec)
    _axis_frame(parts)
    _y_ticks(parts, lo, hi)
    yield ("\n".join(parts) + "\n").encode("utf-8")
    span_x = xs[-1] - xs[0] or 1.0
    # each x is formatted once and shared by every polyline
    xtext = _fixed_point(x0 + (xs - xs[0]) / span_x * (x1 - x0), b",")
    for n, (col, (values, present)) in enumerate(numeric.items()):
        color = PALETTE[n % len(PALETTE)]
        ys = y0 - (values - lo) / (hi - lo) * (y0 - y1)
        # "x,y x,y ...": the rows of both texts side by side, less their NULs
        vertices = np.concatenate(
            (xtext if present is None else xtext[present], _fixed_point(ys, b" ")), axis=1
        )
        vertices[-1, -1] = 0  # no space after the last vertex
        yield (
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="'
        ).encode("utf-8")
        yield vertices.tobytes().translate(None, b"\0")
        yield (
            f'"/>\n<text x="{x1 - 150}" y="{y1 + 14 + 14 * n}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{_escape(names[col])}</text>\n'
        ).encode("utf-8")
    yield (
        f'<text x="{x0}" y="{y0 + 16}" font-family="sans-serif" font-size="10">'
        f"{first.isoformat(timespec='seconds')}</text>\n"
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="end" font-family="sans-serif" '
        f'font-size="10">{last.isoformat(timespec="seconds")}</text>\n'
        "</svg>\n"
    ).encode("utf-8")


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
    ``kind="table"``, written by :func:`write_text_table`.  Byte-identical
    for identical inputs.
    """
    out_path = Path(out_path)
    chunks: Iterable[bytes]
    if spec.kind == "time_series":
        chunks = _render_time_series(table, spec)
    elif spec.kind == "table":
        write_text_table(table.columns, lambda: table.rows, out_path)
        return out_path
    elif spec.kind == "bar":
        chunks = [_render_bar(table, spec).encode("utf-8")]
    else:
        chunks = [_render_pie(table, spec).encode("utf-8")]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("wb") as out:
        out.writelines(chunks)
    return out_path
