"""Read-only access to ingested measurements: time series, event sums, detail.

Queries return a :class:`ResultTable`, a plain column/row container that the
chart renderer and the CLI share, or, for a series, its blocks or rows.
Queries never write to the database; identical inputs yield identical
results (rows are explicitly ordered) so rendered output is reproducible
byte for byte.

Series are read as columnar blocks (:func:`series_blocks`).  Each transfer
file is dated once and its rows are selected on ``(transfer_file_id,
row_index)``, then fetched about :data:`BLOCK_CELLS` cells at a time.  Each
fetch becomes two arrays: the rows' dates as ``datetime64[us]`` (first date
plus index times step) and their values as one float64 array, NaN for NULL.
:func:`timeseries` joins the blocks into a :class:`SeriesTable`, which keeps
the arrays and builds its row tuples only when they are first read; the
time-series chart draws from those arrays, and from nothing else.
:func:`series_rows` yields the same rows a block at a time, merged over
files in time order, so the text the CLI prints or writes with ``--chart
table`` holds a block per file, not the history.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterator
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .analyzer import PARAMETERS
from .events import RawCaptureError, read_raw_capture
from .store import (
    EventStat,
    MeasurementPoint,
    StreamDatabase,
    TransferFile,
    derive_timestamps,
)

#: MeasurementPoint attributes usable as filters and group keys.
POINT_ATTRIBUTES = tuple(f.name for f in fields(MeasurementPoint))

#: EventStat counters usable in aggregations.
STAT_COLUMNS = tuple(f.name for f in fields(EventStat) if f.name != "measurement_point_id")

#: Cells (row index included) that a series read fetches per block.
BLOCK_CELLS = 4096

AGGREGATE_FUNCTIONS = ("sum", "count", "mean", "max", "min")
_SQL_FUNC = {"sum": "SUM", "count": "COUNT", "mean": "AVG", "max": "MAX", "min": "MIN"}

DEFAULT_AGGREGATES = (
    ("sum", "sag_count"),
    ("sum", "swell_count"),
    ("sum", "unbalance_count"),
    ("sum", "event_count"),
)


class QueryError(ValueError):
    """Raised for malformed query specifications."""


class NotFoundError(LookupError):
    """Raised when the referenced point, parameter or event does not exist."""


@dataclass(frozen=True)
class ResultTable:
    """Columns and rows of a query result."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of {len(row)} cells does not match {len(self.columns)} columns"
                )


class SeriesTable(ResultTable):
    """A time series held as arrays, as :func:`timeseries` returns it.

    ``dates`` holds one ``datetime64[us]`` per row, and ``values`` is a
    float64 array of one row per row and one column per value column, NaN
    for NULL.  ``rows`` is built from them when it is first read, and equals
    what the stored rows read back as: a naive datetime, then per cell a
    float, None for NULL, or an int in a value column whose index is in
    ``integer`` (see :func:`_block_rows`).
    """

    dates: np.ndarray
    values: np.ndarray
    integer: tuple[int, ...]

    def __init__(
        self, columns: tuple[str, ...], dates: np.ndarray, values: np.ndarray,
        integer: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "integer", integer)

    @cached_property
    def rows(self) -> tuple[tuple, ...]:  # type: ignore[override]
        return tuple(_block_rows(self.dates, self.values, self.integer))


@dataclass(frozen=True)
class QuerySpec:
    """Event aggregation request over the per-point counters.

    ``filters`` match measurement point attributes exactly; ``group_by``
    names point attributes; ``aggregates`` pairs a function with a counter
    column.  The defaults reproduce the per-load-type event summary.
    """

    filters: tuple[tuple[str, object], ...] = ()
    group_by: tuple[str, ...] = ()
    aggregates: tuple[tuple[str, str], ...] = DEFAULT_AGGREGATES

    def __post_init__(self) -> None:
        for key, _ in self.filters:
            if key not in POINT_ATTRIBUTES:
                raise QueryError(
                    f"unknown filter attribute {key!r}; expected one of {POINT_ATTRIBUTES}"
                )
        for key in self.group_by:
            if key not in POINT_ATTRIBUTES:
                raise QueryError(
                    f"unknown group key {key!r}; expected one of {POINT_ATTRIBUTES}"
                )
        if not self.aggregates:
            raise QueryError("at least one aggregate is required")
        for func, column in self.aggregates:
            if func not in AGGREGATE_FUNCTIONS:
                raise QueryError(
                    f"unknown aggregate {func!r}; expected one of {AGGREGATE_FUNCTIONS}"
                )
            if column not in STAT_COLUMNS:
                raise QueryError(
                    f"unknown counter {column!r}; expected one of {STAT_COLUMNS}"
                )


def series_columns(parameter_type: str) -> tuple[str, ...]:
    """The columns of a series table: ``timestamp``, then the parameter's."""
    if parameter_type not in PARAMETERS:
        raise QueryError(f"parameter type must be one of {tuple(PARAMETERS)}")
    return ("timestamp", *PARAMETERS[parameter_type].columns)


def series_blocks(
    db: StreamDatabase,
    point_id: str,
    parameter_type: str,
    start: datetime | None = None,
    end: datetime | None = None,
) -> list[Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The stored rows of one parameter at one point, as columnar blocks.

    One iterator per transfer file with rows, in ``transfer_file.id`` order;
    each yields, per fetch of ``BLOCK_CELLS // (1 + columns)`` rows, the
    rows' dates (``datetime64[us]``) and their values (float64, one row per
    row, NaN for NULL), in row order.  ``start`` and ``end``, without UTC
    offset, bound the dates inclusively as an index range per file.  The
    arguments are checked here; each file is read when its iterator is.
    """
    columns = series_columns(parameter_type)[1:]
    if any(b is not None and b.utcoffset() is not None for b in (start, end)):
        raise QueryError("time bounds must not carry a UTC offset; stored times have none")
    known = db.conn.execute("SELECT 1 FROM measurement_point WHERE id = ?", (point_id,))
    if known.fetchone() is None:
        raise NotFoundError(f"measurement point {point_id!r} not in the database")
    step = PARAMETERS[parameter_type].interval
    col_sql = ", ".join(f'"{c}"' for c in columns)
    sql = (
        f"SELECT row_index, {col_sql} FROM {parameter_type} WHERE transfer_file_id = ?"
        " AND row_index BETWEEN ? AND ? ORDER BY row_index"
    )
    size = BLOCK_CELLS // (1 + len(columns))
    files = []
    for row in db.conn.execute(
        "SELECT * FROM transfer_file WHERE measurement_point_id = ?"
        " AND parameter_type = ? AND row_count > 0 ORDER BY id",
        (point_id, parameter_type),
    ).fetchall():
        first = derive_timestamps(TransferFile.from_row(row), 0)
        lo = 0 if start is None else -((first - start) // step)
        hi = row["row_count"] - 1 if end is None else (end - first) // step
        files.append(_file_blocks(db, sql, (row["id"], lo, hi), first, step, size))
    return files


def _file_blocks(
    db: StreamDatabase, sql: str, params: tuple, first: datetime, step: timedelta, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    cursor = db.conn.cursor()
    cursor.row_factory = None  # plain tuples
    cursor.execute(sql, params)
    first64, step64 = np.datetime64(first, "us"), np.timedelta64(step)
    while block := cursor.fetchmany(size):
        try:
            cells = np.fromiter(chain.from_iterable(block), np.float64, len(block) * len(block[0]))
        except TypeError:  # a NULL cell, which np.array reads as NaN
            cells = np.array(block, dtype=np.float64)
        cells = cells.reshape(len(block), -1)
        yield first64 + cells[:, 0].astype(np.int64) * step64, cells[:, 1:]


def _integer_cell(value: float) -> float | int | None:
    # INTEGER affinity stores a whole float strictly inside int64 as an int
    if value != value:
        return None
    if value.is_integer() and -(2.0**63) < value < 2.0**63:
        return int(value)
    return value


def _block_rows(
    dates: np.ndarray, values: np.ndarray, integer: tuple[int, ...]
) -> list[tuple]:
    """Row tuples of a block, as sqlite3 reads the stored rows back.

    Every cell the store holds came from a float (ingest parses each cell
    with ``float``), so float64 holds it exactly.  NaN is NULL, read as
    None.  A column in ``integer`` has INTEGER affinity, which stores a
    whole value strictly inside the int64 range as an int.
    """
    columns = values.T.tolist()
    blank = np.isnan(values).any(axis=0)
    for j, column in enumerate(columns):
        if j in integer:
            columns[j] = [_integer_cell(v) for v in column]
        elif blank[j]:
            columns[j] = [None if v != v else v for v in column]
    return list(zip(dates.tolist(), *columns))


def timeseries(
    db: StreamDatabase,
    point_id: str,
    parameter_type: str,
    start: datetime | None = None,
    end: datetime | None = None,
) -> ResultTable:
    """Derived-timestamped rows of one parameter for one point, time ascending.

    ``start`` and ``end``, without UTC offset, bound the derived timestamps
    inclusively; an interval with no rows yields an empty table with the usual columns.
    The table is a :class:`SeriesTable` joined from :func:`series_blocks`;
    rows of equal dates keep ``transfer_file.id`` order.
    """
    files = series_blocks(db, point_id, parameter_type, start, end)
    columns = series_columns(parameter_type)
    blocks = [block for file in files for block in file]
    if len(blocks) == 1:
        dates, values = blocks[0]
    elif blocks:
        dates = np.concatenate([d for d, _ in blocks])
        values = np.concatenate([v for _, v in blocks])
    else:
        dates = np.empty(0, "datetime64[us]")
        values = np.empty((0, len(columns) - 1))
    if len(files) > 1:
        order = np.argsort(dates, kind="stable")
        dates, values = dates[order], values[order]
    return SeriesTable(columns, dates, values, PARAMETERS[parameter_type].integer)


def series_rows(
    db: StreamDatabase,
    point_id: str,
    parameter_type: str,
    start: datetime | None = None,
    end: datetime | None = None,
) -> Iterator[tuple]:
    """The rows :func:`timeseries` returns, read a block per file at a time.

    The files' rows are merged by date with ``heapq.merge``, which keeps
    rows of equal dates in ``transfer_file.id`` order, as the stable sort of
    :func:`timeseries` does.  The arguments are checked on the call, before
    the first row is asked for.
    """
    import heapq  # on first use, so that importing pqstream does not load it

    files = series_blocks(db, point_id, parameter_type, start, end)
    integer = PARAMETERS[parameter_type].integer
    return heapq.merge(
        *(chain.from_iterable(_block_rows(d, v, integer) for d, v in f) for f in files),
        key=itemgetter(0),
    )


def aggregate_events(db: StreamDatabase, spec: QuerySpec = QuerySpec()) -> ResultTable:
    """Sum event counters over points, optionally filtered and grouped.

    Reads only the ``event_stat`` view joined with the point attributes.
    Groups come back ordered ascending by the group key tuple.
    """
    select: list[str] = [f"mp.{k}" for k in spec.group_by]
    headers: list[str] = list(spec.group_by)
    for func, column in spec.aggregates:
        select.append(f"{_SQL_FUNC[func]}(es.{column})")
        headers.append(f"{func}_{column}")
    where: list[str] = []
    params: list[object] = []
    for key, value in spec.filters:
        where.append(f"mp.{key} = ?")
        params.append(value)
    sql = (
        f"SELECT {', '.join(select)} FROM event_stat es"
        " JOIN measurement_point mp ON es.measurement_point_id = mp.id"
    )
    if where:
        sql += " WHERE " + " AND ".join(where)
    if spec.group_by:
        group = ", ".join(f"mp.{k}" for k in spec.group_by)
        sql += f" GROUP BY {group} ORDER BY {group}"
    rows = [tuple(row) for row in db.conn.execute(sql, params)]
    if not spec.group_by and rows == [tuple([None] * len(spec.aggregates))]:
        rows = []  # SQL aggregates over zero rows; report an empty table instead
    return ResultTable(columns=tuple(headers), rows=tuple(rows))


@dataclass(frozen=True)
class StoredEvent:
    """One event row as ingested, with parsed timestamps."""

    measurement_point_id: str
    event_id: int
    event_type: str
    start_time: datetime
    end_time: datetime
    size_in_samples: int
    raw_path: str | None

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "StoredEvent":
        """Rebuild an ``event`` table row, parsing its two dates."""
        values = {f.name: row[f.name] for f in fields(cls)}
        for key in ("start_time", "end_time"):
            values[key] = datetime.fromisoformat(values[key])
        return cls(**values)


def event_detail(
    db: StreamDatabase, event_id: int, point_id: str | None = None
) -> StoredEvent:
    """Fetch one event row; ``point_id`` disambiguates reused event ids."""
    sql = "SELECT * FROM event WHERE event_id = ?"
    params: list[object] = [event_id]
    if point_id is not None:
        sql += " AND measurement_point_id = ?"
        params.append(point_id)
    rows = db.conn.execute(sql, params).fetchall()
    if not rows:
        at = f" at point {point_id!r}" if point_id is not None else ""
        raise NotFoundError(f"no event with id {event_id}{at}")
    if len(rows) > 1:
        points = ", ".join(sorted(r["measurement_point_id"] for r in rows))
        raise QueryError(
            f"event id {event_id} exists at several points ({points}); pass point_id"
        )
    return StoredEvent.from_row(rows[0])


def extract_raw_capture(event: StoredEvent, out_dir: Path | str) -> Path:
    """Decompress an event's raw capture into a CSV next to the caller's output.

    The CSV holds one row per sample: the sample index followed by the six
    channel values (voltage A, B, C then current A, B, C).  The capture is
    read, decoded and written one block at a time, so memory does not grow
    with its length.  Raises :class:`NotFoundError` when the event has no
    stored capture, and :class:`RawCaptureError` (leaving no CSV) when the
    capture does not decode.
    """
    if not event.raw_path:
        raise NotFoundError(
            f"event {event.event_id} has no raw capture stored (write failed or skipped)"
        )
    out_dir = Path(out_dir)
    out_path = out_dir / f"raw_{event.measurement_point_id}_{event.event_id}.csv"
    with Path(event.raw_path).open("rb") as src:
        header, blocks = read_raw_capture(src)
        out_dir.mkdir(parents=True, exist_ok=True)
        first = round(header["start_time"] * header["sample_rate"])
        # one % per block writes the bytes np.savetxt writes, without its per-row calls
        row = "%d" + ",%.17g" * header["channel_count"] + "\n"
        try:
            with out_path.open("w") as out:
                out.write("sample_index,v_a,v_b,v_c,i_a,i_b,i_c\n")
                for block in blocks:
                    m = block.shape[1]
                    cells = np.column_stack((first + np.arange(m), block.T))
                    out.write((row * m) % tuple(cells.ravel().tolist()))
                    first += m
        except RawCaptureError:
            out_path.unlink()
            raise
    return out_path
