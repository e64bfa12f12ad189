"""Transfer-file tree, relational store and the outgoing traffic budget.

Analyzer output is laid down as one CSV per parameter type under
``<root>/<point_id>/<parameter>/``, raw event captures under capitalized
``Sag``/``Swell``/``Unbalance``/``Interruption`` directories, and a point
metadata file.  Data rows carry values only; the trailing
``#last_sample=<iso8601>`` footer dates the final row and every other row's
timestamp is derived by stepping the parameter interval backwards.  Floats
are serialized with 17 significant digits so a write / ingest / query round
trip is bit exact.

Each interval-typed parameter's directory, table, row interval and
columns come from ``analyzer.PARAMETERS``, the one registry of the
cadences, which writing, the schema, ingestion and the traffic budget read.

Ingestion walks such trees into an embedded SQLite database, reading each
file a block at a time and skipping files whose content hash is already
present.  A new file is checked and inserted in one pass under a savepoint,
which a malformed file is rolled back to.  The per-point event counters
are the ``event_stat`` view over the event table, so nothing keeps them in
step.  Raw capture files are never loaded into the database; only their
absolute paths are stored.  The schema carries :data:`SCHEMA_VERSION` in
``PRAGMA user_version``, and a database with another version is refused.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import math
import sqlite3
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .analyzer import PARAMETERS, PHASES, Parameter, PipelineResult, RecordSeries
from .events import EVENT_TYPES, EventRecord
from .siggen import SAMPLE_RATE

POINT_KINDS = ("busbar", "feeder")
LOAD_TYPES = ("Heavy Industry", "Industry+Urban", "Urban Only")

RAW_DIR_NAMES = {t: t.capitalize() for t in EVENT_TYPES}

POINT_METADATA_FILE = "point.json"
ISO_TIMESPEC = "microseconds"


class StoreError(RuntimeError):
    """Raised for unusable trees, rows or store configurations."""


#: The event log is a transfer file without a fixed row interval.
EVENT_LOG = "event"
EVENT_COLUMNS = (
    "event_id",
    "event_type",
    "start_time",
    "end_time",
    "size_in_samples",
    "raw_path",
)

#: Columns of every transfer-file type, in ingestion order.
FILE_COLUMNS: dict[str, tuple[str, ...]] = {
    **{name: p.columns for name, p in PARAMETERS.items()},
    EVENT_LOG: EVENT_COLUMNS,
}


@dataclass(frozen=True)
class MeasurementPoint:
    """Identity and siting of one monitored busbar or feeder.  The id names
    its transfer-tree directory, so it is a string of one path component;
    the name, city and region are strings too, and the voltage level is a
    finite int or float >= 0, held as a float."""

    id: str
    name: str
    point_kind: str
    load_type: str
    city_name: str = ""
    region_name: str = ""
    voltage_level: float = 0.0

    def __post_init__(self) -> None:
        bad_id = not isinstance(self.id, str) or self.id in ("", ".", "..")
        if bad_id or "/" in self.id or "\\" in self.id:
            raise ValueError(f"measurement point id {self.id!r} is not one path component")
        for key in ("name", "city_name", "region_name"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a string, not {getattr(self, key)!r}")
        if self.point_kind not in POINT_KINDS:
            raise ValueError(f"point_kind must be one of {POINT_KINDS}")
        if self.load_type not in LOAD_TYPES:
            raise ValueError(f"load_type must be one of {LOAD_TYPES}")
        level = self.voltage_level
        if type(level) is bool or not isinstance(level, (int, float)) or not math.isfinite(level):
            raise ValueError(f"voltage_level must be a finite number, not {level!r}")
        if level < 0:
            raise ValueError("voltage_level must be >= 0")
        object.__setattr__(self, "voltage_level", float(level))

    @classmethod
    def from_dict(cls, meta: dict) -> "MeasurementPoint":
        """Point from JSON metadata such as ``point.json``.

        ``id`` is required (KeyError without it); ``name`` defaults to the
        id, the point to an "Urban Only" busbar; keys that are not fields,
        such as ``base_time``, are ignored.
        """
        values = {f.name: meta[f.name] for f in fields(cls) if f.name in meta}
        values.setdefault("name", meta["id"])
        values.setdefault("point_kind", "busbar")
        values.setdefault("load_type", "Urban Only")
        return cls(**values)


@dataclass(frozen=True)
class TransferFile:
    """Metadata of one ingested measurement file.

    ``measurement_date`` is the timestamp of the file's last sample, which
    together with ``row_count`` and the parameter interval determines every
    row timestamp.
    """

    id: int
    measurement_point_id: str
    parameter_type: str
    measurement_date: datetime
    transfer_time: datetime
    path: str
    row_count: int
    content_hash: str

    def __post_init__(self) -> None:
        if self.parameter_type not in FILE_COLUMNS:
            raise ValueError(f"unknown parameter_type {self.parameter_type!r}")
        if self.measurement_date > self.transfer_time:
            raise ValueError("measurement_date must not be after transfer_time")
        if self.row_count < 0:
            raise ValueError("row_count must be >= 0")

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "TransferFile":
        """Rebuild a ``transfer_file`` table row, parsing its two dates."""
        values = dict(row)
        for key in ("measurement_date", "transfer_time"):
            values[key] = datetime.fromisoformat(values[key])
        return cls(**values)


@dataclass(frozen=True)
class EventStat:
    """Per-point event counters, as the ``event_stat`` view derives them."""

    measurement_point_id: str
    event_count: int = 0
    sag_count: int = 0
    swell_count: int = 0
    interruption_count: int = 0
    unbalance_count: int = 0

    def __post_init__(self) -> None:
        parts = [getattr(self, f"{t}_count") for t in EVENT_TYPES]
        if any(c < 0 for c in parts) or self.event_count != sum(parts):
            raise ValueError("event_count must equal the sum of the per-type counts")


def parameter_interval(parameter_type: str) -> timedelta:
    """Row spacing for an interval-typed parameter; the event log has none."""
    try:
        return PARAMETERS[parameter_type].interval
    except KeyError:
        raise StoreError(
            f"parameter type {parameter_type!r} has no fixed row interval"
        ) from None


def derive_timestamps(transfer_file: TransferFile, row_index: int) -> datetime:
    """Timestamp of ``row_index`` counted back from the last-sample date."""
    if not 0 <= row_index < transfer_file.row_count:
        raise StoreError(
            f"row index {row_index} outside file of {transfer_file.row_count} rows"
        )
    interval = parameter_interval(transfer_file.parameter_type)
    steps = transfer_file.row_count - 1 - row_index
    return transfer_file.measurement_date - steps * interval


def format_value(value) -> str:
    """Serialize one CSV cell; floats keep 17 significant digits, None is empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _series_chunks(series: RecordSeries) -> Iterator[str]:
    """CSV text of ``series``, one block of its stored rows at a time: the
    cells go through one ``%.17g`` format call, and NaN (None) is left empty."""
    line = ",".join(["%.17g"] * series.columns) + "\n"
    for rows in series.blocks():
        yield ((line * len(rows)) % tuple(rows.ravel().tolist())).replace("nan", "")


class TransferFileWriter:
    """Writes one run's records and raw captures under ``<root>/<point_id>/``.

    Directories appear lazily so an empty run leaves only the metadata
    file.  Pass :meth:`raw_sink` to an event detector so raw captures land
    in the tree while the stream is still being analyzed.
    """

    def __init__(self, out_root: Path | str, point: MeasurementPoint, base_time: datetime) -> None:
        if base_time.utcoffset() is not None:
            raise StoreError(f"base_time {base_time.isoformat()} carries a UTC offset, which"
                             " transfer-file times cannot hold")
        self.out_root = Path(out_root)
        self.point = point
        self.base_time = base_time
        self.point_dir = self.out_root / point.id
        try:
            self.point_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"output root not writable: {exc}") from exc
        self._write_metadata()

    def _write_metadata(self) -> None:
        meta = {
            **asdict(self.point),
            "base_time": self.base_time.isoformat(timespec=ISO_TIMESPEC),
        }
        path = self.point_dir / POINT_METADATA_FILE
        path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def timestamp(self, seconds: float) -> datetime:
        return self.base_time + timedelta(milliseconds=round(seconds * 1000.0))

    def raw_sink(self, event_type: str, event_id: int, blob: bytes) -> str:
        """Store one compressed capture; returns its path relative to the
        point directory, as the event log stores it."""
        directory = RAW_DIR_NAMES[event_type]
        (self.point_dir / directory).mkdir(exist_ok=True)
        path = f"{directory}/raw_{event_id}.pqz"
        (self.point_dir / path).write_bytes(blob)
        return path

    def _write_csv(
        self, parameter_type: str, chunks: Iterable[str], last_sample: datetime, file_seq: int
    ) -> Path:
        """Write the header, the ``chunks`` of whole lines and the footer, or no file."""
        directory = self.point_dir / parameter_type
        directory.mkdir(exist_ok=True)
        path = directory / f"{parameter_type}_{file_seq:03d}.csv"
        try:
            with path.open("w", encoding="utf-8") as f:
                f.write(f"# columns: {','.join(FILE_COLUMNS[parameter_type])}\n")
                for chunk in chunks:
                    f.write(chunk)
                f.write(f"#last_sample={last_sample.isoformat(timespec=ISO_TIMESPEC)}\n")
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        return path

    def write_results(self, result: PipelineResult, file_seq: int = 0) -> list[Path]:
        """Write every non-empty record series plus the event log; returns paths."""
        written: list[Path] = []
        for name in PARAMETERS:
            series = getattr(result, name)
            if not series:
                continue
            last = self.timestamp(series.parameter.end(len(series)))
            written.append(self._write_csv(name, _series_chunks(series), last, file_seq))
        if result.events:
            lines = (",".join(map(format_value, self._event_row(e))) + "\n" for e in result.events)
            last = self.timestamp(max(e.end_time for e in result.events))
            written.append(self._write_csv(EVENT_LOG, lines, last, file_seq))
        return written

    def _event_row(self, event: EventRecord) -> list:
        return [
            event.event_id,
            event.event_type,
            self.timestamp(event.start_time).isoformat(timespec=ISO_TIMESPEC),
            self.timestamp(event.end_time).isoformat(timespec=ISO_TIMESPEC),
            event.size_in_samples,
            event.file_path or "",
        ]


# -- database ---------------------------------------------------------------


#: Bumped whenever a table, view or key changes; files of another version are refused.
SCHEMA_VERSION = 1

_TYPE_COUNTS = "".join(f",\n    SUM(event_type = '{t}') AS {t}_count" for t in EVENT_TYPES)

_SCHEMA_FIXED = f"""
CREATE TABLE IF NOT EXISTS measurement_point (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    point_kind TEXT NOT NULL,
    load_type TEXT NOT NULL,
    city_name TEXT NOT NULL DEFAULT '',
    region_name TEXT NOT NULL DEFAULT '',
    voltage_level REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS transfer_file (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    measurement_point_id TEXT NOT NULL REFERENCES measurement_point(id),
    parameter_type TEXT NOT NULL,
    measurement_date TEXT NOT NULL,
    transfer_time TEXT NOT NULL,
    path TEXT NOT NULL,
    row_count INTEGER NOT NULL,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS event (
    measurement_point_id TEXT NOT NULL REFERENCES measurement_point(id),
    event_id INTEGER NOT NULL,
    event_type TEXT NOT NULL,
    start_time TEXT NOT NULL,
    end_time TEXT NOT NULL,
    size_in_samples INTEGER NOT NULL,
    raw_path TEXT,
    transfer_file_id INTEGER NOT NULL REFERENCES transfer_file(id),
    PRIMARY KEY (measurement_point_id, event_id)
);
CREATE VIEW IF NOT EXISTS event_stat AS
SELECT measurement_point_id, COUNT(*) AS event_count{_TYPE_COUNTS}
FROM event GROUP BY measurement_point_id;
"""


def _series_table_sql(parameter: Parameter) -> str:
    """A bool field's column is INTEGER, every other column REAL."""
    flags = {prefix for prefix, shape in parameter.fields if shape is bool}
    cols = ",\n    ".join(
        f'"{name}" {"INTEGER" if name in flags else "REAL"}' for name in parameter.columns
    )
    return (
        f"CREATE TABLE IF NOT EXISTS {parameter.name} (\n"
        "    measurement_point_id TEXT NOT NULL REFERENCES measurement_point(id),\n"
        "    transfer_file_id INTEGER NOT NULL REFERENCES transfer_file(id),\n"
        "    row_index INTEGER NOT NULL,\n"
        f"    {cols},\n"
        "    PRIMARY KEY (transfer_file_id, row_index)\n"
        ")"
    )


class StreamDatabase:
    """Thin wrapper around the SQLite schema used by ingestion and queries."""

    def __init__(self, path: Path | str, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        try:
            if readonly:
                self.conn = sqlite3.connect(self.path.resolve().as_uri() + "?mode=ro", uri=True)
            else:
                self.conn = sqlite3.connect(self.path)
            try:
                self._check_schema()
            except BaseException:
                self.conn.close()
                raise
        except sqlite3.DatabaseError as exc:
            raise StoreError(f"cannot use database {self.path}: {exc}") from exc
        self.conn.row_factory = sqlite3.Row

    def _check_schema(self) -> None:
        """Create the schema in an empty file; refuse a file of another version."""
        version = self.conn.execute("PRAGMA user_version").fetchone()[0]
        if version == SCHEMA_VERSION:
            return
        if self.readonly or self.conn.execute("SELECT 1 FROM sqlite_master").fetchone():
            raise StoreError(
                f"database {self.path} has schema version {version}, this pqstream"
                f" uses version {SCHEMA_VERSION}; ingest into a new database file"
            )
        series = "".join(f"{_series_table_sql(p)};\n" for p in PARAMETERS.values())
        self.conn.executescript(
            f"BEGIN;\n{_SCHEMA_FIXED}{series}PRAGMA user_version = {SCHEMA_VERSION};\nCOMMIT;"
        )

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "StreamDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- points and stats --------------------------------------------------

    def upsert_point(self, point: MeasurementPoint) -> None:
        names = [f.name for f in fields(MeasurementPoint)]
        updates = ", ".join(f"{n}=excluded.{n}" for n in names if n != "id")
        self.conn.execute(
            f"INSERT INTO measurement_point ({', '.join(names)})"
            f" VALUES ({', '.join('?' for _ in names)})"
            f" ON CONFLICT(id) DO UPDATE SET {updates}",
            tuple(getattr(point, n) for n in names),
        )

    def get_point(self, point_id: str) -> MeasurementPoint | None:
        row = self.conn.execute(
            "SELECT * FROM measurement_point WHERE id = ?", (point_id,)
        ).fetchone()
        return None if row is None else MeasurementPoint(**row)

    def event_stat(self, point_id: str) -> EventStat | None:
        row = self.conn.execute(
            "SELECT * FROM event_stat WHERE measurement_point_id = ?", (point_id,)
        ).fetchone()
        return None if row is None else EventStat(**row)

    def recompute_event_stat(self, point_id: str) -> EventStat:
        """Python reference count of the event table; the view must agree."""
        counts = {t: 0 for t in EVENT_TYPES}
        for row in self.conn.execute(
            "SELECT event_type, COUNT(*) AS n FROM event"
            " WHERE measurement_point_id = ? GROUP BY event_type",
            (point_id,),
        ):
            counts[row["event_type"]] = row["n"]
        return EventStat(
            measurement_point_id=point_id,
            event_count=sum(counts.values()),
            **{f"{t}_count": n for t, n in counts.items()},
        )

    def get_transfer_file(self, transfer_file_id: int) -> TransferFile | None:
        row = self.conn.execute(
            "SELECT * FROM transfer_file WHERE id = ?", (transfer_file_id,)
        ).fetchone()
        return None if row is None else TransferFile.from_row(row)


# -- ingestion ---------------------------------------------------------------


@dataclass
class IngestReport:
    """Outcome of one :func:`ingest_directory` run."""

    points_seen: int = 0
    files_ingested: int = 0
    files_skipped_duplicate: int = 0
    files_malformed: list[tuple[str, str]] = field(default_factory=list)
    rows_inserted: Counter[str] = field(default_factory=Counter)

    @property
    def total_rows_inserted(self) -> int:
        return sum(self.rows_inserted.values())

    def summary(self) -> str:
        lines = [
            f"points: {self.points_seen}",
            f"files ingested: {self.files_ingested}",
            f"files skipped (duplicate): {self.files_skipped_duplicate}",
            f"files malformed: {len(self.files_malformed)}",
        ]
        for path, reason in self.files_malformed:
            lines.append(f"  {path}: {reason}")
        for table in sorted(self.rows_inserted):
            lines.append(f"rows into {table}: {self.rows_inserted[table]}")
        return "\n".join(lines)


#: Bytes read from a transfer file at a time: ingest holds the rows of one
#: such block, whatever the length of the file.
READ_BLOCK = 64 * 1024

#: Every character ``str.splitlines`` breaks a line at.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _line_blocks(f: BinaryIO) -> Iterator[list[str]]:
    """The lines of an open UTF-8 file, a list for each ``READ_BLOCK`` read that ends one.

    A line that runs across a block edge comes whole in the later list, so
    the lines are those of ``str.splitlines`` on the whole text, except that
    a CRLF split by the edge gives one more empty line.  Invalid UTF-8
    raises StoreError with the message that decoding the whole file gives:
    positions count from its start.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry, offset = "", 0
    while True:
        block = f.read(READ_BLOCK)
        try:
            text = carry + decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            # exc counts from the bytes the decoder still held before this block
            shift = offset - len(decoder.getstate()[0])
            start, end = shift + exc.start, shift + exc.end
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                     if end == start + 1 else f"bytes in position {start}-{end - 1}")
            raise StoreError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}") from None
        offset += len(block)
        lines = text.splitlines()
        carry = lines.pop() if block and text and text[-1] not in _LINE_BREAKS else ""
        if lines:
            yield lines
        if not block:
            return


def _file_hash(f: BinaryIO) -> str:
    """SHA-256 hex digest of an open file, read ``READ_BLOCK`` at a time."""
    digest = hashlib.sha256()
    while block := f.read(READ_BLOCK):
        digest.update(block)
    return digest.hexdigest()


def _footer_date(line: str) -> datetime:
    try:
        measurement_date = datetime.fromisoformat(line.split("=", 1)[1])
    except ValueError as exc:
        raise StoreError(f"bad footer timestamp: {exc}") from None
    if measurement_date.tzinfo is not None:
        raise StoreError("bad footer timestamp: it carries a UTC offset")
    return measurement_date


def _checked_blocks(f: BinaryIO, width: int, footers: list[datetime]) -> Iterator[list[list[str]]]:
    """The cells of the data rows of an open transfer file, one list per read
    block, each row checked to hold ``width`` cells; each ``#last_sample=``
    footer's date is appended to ``footers``, so the last one wins.

    After the first bad row or footer no block is yielded, but the file is
    decoded on, as invalid UTF-8 anywhere outranks a structural error before
    it.  That error, or a missing footer, is raised once the file is read.
    """
    rows, error = 0, None
    for lines in _line_blocks(f):
        if error is not None:
            continue  # decode on, for the outranking UTF-8 error
        block = []
        try:
            for line in map(str.strip, lines):
                if not line:
                    continue
                if line[0] == "#":
                    if line.startswith("#last_sample="):
                        footers.append(_footer_date(line))
                    continue
                cells = line.split(",")
                if len(cells) != width:
                    raise StoreError(
                        f"row {rows + len(block) + 1} holds {len(cells)} cells, expected {width}"
                    )
                block.append(cells)
        except StoreError as exc:
            error = exc
            continue
        rows += len(block)
        yield block
    if error is not None:
        raise error
    if not footers:
        raise StoreError("missing #last_sample footer")


def _load_point_metadata(path: Path) -> MeasurementPoint:
    """The point a ``point.json`` describes; a ``base_time`` in it must be an ISO date."""
    meta = json.loads(path.read_text(encoding="utf-8"))
    point = MeasurementPoint.from_dict(meta)
    if "base_time" in meta:
        datetime.fromisoformat(meta["base_time"])
    return point


def _row_to_sql(cells: list[str]) -> list[float | None]:
    """Values of one series row; an empty cell is None (undefined).

    A cell that is not a finite number raises ValueError: SQLite would
    store NaN as NULL, which reads back as undefined, and an infinity is no
    measurement.  Any such cell, an overflowing one too, makes the row's
    sum non-finite; only then are the cells tested one by one, so a finite
    row costs one sum.
    """
    values = [float(c) if c else None for c in cells]
    if not math.isfinite(sum(filter(None, values))):
        for cell, value in zip(cells, values):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"cell {cell!r} is not a finite number")
    return values


def _insert_series_rows(
    db: StreamDatabase,
    point: MeasurementPoint,
    parameter_type: str,
    blocks: Iterable[list[list[str]]],
    transfer_file_id: int,
) -> int:
    """One ``executemany`` per block of rows; returns the rows read."""
    columns = PARAMETERS[parameter_type].columns
    col_sql = ", ".join(f'"{c}"' for c in columns)
    placeholders = ", ".join("?" for _ in range(len(columns) + 3))
    sql = (
        f"INSERT INTO {parameter_type} (measurement_point_id, transfer_file_id,"
        f" row_index, {col_sql}) VALUES ({placeholders})"
    )
    index = 0
    for rows in blocks:
        db.conn.executemany(sql, [[point.id, transfer_file_id, i, *_row_to_sql(cells)]
                                  for i, cells in enumerate(rows, index)])
        index += len(rows)
    return index


def _insert_event_rows(
    db: StreamDatabase,
    point: MeasurementPoint,
    point_dir: Path,
    blocks: Iterable[list[list[str]]],
    transfer_file_id: int,
) -> int:
    """One ``executemany`` per block of events; returns the rows read.  An
    event id or size that is no integer, or an unknown event type, raises
    ValueError."""
    count = 0
    for rows in blocks:
        payload = []
        for event_id, event_type, start, end, size, raw in rows:
            event_id = int(event_id)
            if event_type not in EVENT_TYPES:
                raise ValueError(f"unknown event type {event_type!r}")
            raw_path = str((point_dir / raw).resolve()) if raw else None
            payload.append(
                (point.id, event_id, event_type, start, end, int(size), raw_path, transfer_file_id)
            )
        db.conn.executemany(
            "INSERT OR IGNORE INTO event (measurement_point_id, event_id, event_type,"
            " start_time, end_time, size_in_samples, raw_path, transfer_file_id)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            payload,
        )
        count += len(payload)
    return count


def ingest_directory(root: Path | str, db: StreamDatabase) -> IngestReport:
    """Walk a transfer tree into the database, idempotently.

    A file whose content hash is already present is skipped; malformed
    files are reported by path and skipped without aborting the rest of
    the run.
    """
    root = Path(root)
    if not root.is_dir():
        raise StoreError(f"ingest root {root} is not a directory")
    if db.readonly:
        raise StoreError("cannot ingest into a read-only database")
    report = IngestReport()
    for point_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        meta_path = point_dir / POINT_METADATA_FILE
        if not meta_path.is_file():
            report.files_malformed.append((str(point_dir), "missing point metadata"))
            continue
        try:
            point = _load_point_metadata(meta_path)
        except (ValueError, KeyError, TypeError) as exc:
            report.files_malformed.append((str(meta_path), f"bad metadata: {exc}"))
            continue
        db.upsert_point(point)
        report.points_seen += 1
        for parameter_type in FILE_COLUMNS:
            directory = point_dir / parameter_type
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob(f"{parameter_type}_*.csv")):
                _ingest_one_file(db, report, point, point_dir, parameter_type, path)
        db.conn.commit()
    return report


def _ingest_one_file(
    db: StreamDatabase,
    report: IngestReport,
    point: MeasurementPoint,
    point_dir: Path,
    parameter_type: str,
    path: Path,
) -> None:
    """Ingest one transfer file in up to two passes over one open handle, a
    ``READ_BLOCK`` at a time.  The first hashes it, so a file already ingested
    is a duplicate, however malformed, and is read no further.  The second
    checks a new file's blocks and inserts them under ``SAVEPOINT f``.  A
    structural fault outranks a footer dated after the transfer time, which
    outranks a bad cell; the first two are undone with ``ROLLBACK TO f``."""
    with path.open("rb") as f:
        content_hash = _file_hash(f)
        exists = db.conn.execute(
            "SELECT 1 FROM transfer_file WHERE content_hash = ?", (content_hash,)
        ).fetchone()
        if exists is not None:
            report.files_skipped_duplicate += 1
            return
        f.seek(0)
        footers: list[datetime] = []
        blocks = _checked_blocks(f, len(FILE_COLUMNS[parameter_type]), footers)
        transfer_time = datetime.now(timezone.utc).replace(tzinfo=None)
        if not db.conn.in_transaction:
            db.conn.execute("BEGIN")  # else RELEASE would commit this file on its own
        db.conn.execute("SAVEPOINT f")
        file_id = db.conn.execute(
            "INSERT INTO transfer_file (measurement_point_id, parameter_type,"
            " measurement_date, transfer_time, path, row_count, content_hash)"
            " VALUES (?, ?, '', ?, ?, 0, ?)",
            (point.id, parameter_type, transfer_time.isoformat(timespec=ISO_TIMESPEC),
             str(path.resolve()), content_hash),
        ).lastrowid
        before = db.conn.total_changes
        bad_cell = None
        try:
            try:
                if parameter_type == EVENT_LOG:
                    rows = _insert_event_rows(db, point, point_dir, blocks, file_id)
                else:
                    rows = _insert_series_rows(db, point, parameter_type, blocks, file_id)
            except ValueError as exc:
                bad_cell = exc
                for _ in blocks:  # read on: a structural fault further on outranks it
                    pass
            if footers[-1] > transfer_time:
                # TransferFile would refuse the stored row on every later read
                raise StoreError(f"last sample {footers[-1]} is after the transfer time")
        except StoreError as exc:
            db.conn.execute("ROLLBACK TO f")
            db.conn.execute("RELEASE f")
            report.files_malformed.append((str(path), str(exc)))
            return
    if bad_cell is not None:
        # ROADMAP item 1, fault (b): this also undoes the point and its files before this one
        db.conn.rollback()
        report.files_malformed.append((str(path), str(bad_cell)))
        return
    report.rows_inserted[parameter_type] += db.conn.total_changes - before
    report.files_ingested += 1
    db.conn.execute(
        "UPDATE transfer_file SET measurement_date = ?, row_count = ? WHERE id = ?",
        (footers[-1].isoformat(timespec=ISO_TIMESPEC), rows, file_id),
    )
    db.conn.execute("RELEASE f")


# -- traffic budget -----------------------------------------------------------

SAMPLE_BITS = 64
EVENT_LENGTH_BPS = 4.0
EVENT_TYPE_BPS = 10.0


@dataclass(frozen=True)
class BudgetRow:
    """Average outgoing bit rate of one parameter for a single point."""

    parameter: str
    bits_per_second: float
    raw_event_stream: bool = False


@dataclass(frozen=True)
class TrafficBudget:
    rows: tuple[BudgetRow, ...]

    @property
    def total_with_events(self) -> float:
        return sum(r.bits_per_second for r in self.rows)

    @property
    def total_without_events(self) -> float:
        return sum(r.bits_per_second for r in self.rows if not r.raw_event_stream)


def compute_traffic_budget() -> TrafficBudget:
    """Per-parameter outgoing bit rates and the two campaign totals.

    Every value travels as a ``SAMPLE_BITS`` float; the event length and
    type rows are campaign-average constants rather than cadence-derived
    rates, and the raw event rows assume continuous streaming of all
    samples.  The "without events" total leaves out only the two raw-sample
    streams; the event length and type bookkeeping rates stay in both totals.
    """
    bits = float(SAMPLE_BITS)

    def rate(parameter: str, *prefixes: str) -> float:
        """Bits per second of the values of the fields with these column
        prefixes, sent once per row interval."""
        p = PARAMETERS[parameter]
        values = sum(math.prod(shape) for prefix, shape in p.fields if prefix in prefixes)
        return bits * values / (p.samples / SAMPLE_RATE)

    raw_stream = bits * len(PHASES) * SAMPLE_RATE
    rows = (
        BudgetRow("Active Power", rate("power", "p")),
        BudgetRow("Reactive Power", rate("power", "q")),
        BudgetRow("Apparent Power", rate("power", "s")),
        BudgetRow("Power Factor", rate("power", "pf")),
        BudgetRow("33 Voltage Harmonics", rate("harmonics", "v")),
        BudgetRow("33 Current Harmonics", rate("harmonics", "i")),
        BudgetRow("RMS Voltage and Current", rate("rms", "v", "i")),
        BudgetRow("Event Length", EVENT_LENGTH_BPS),
        BudgetRow("Event Type", EVENT_TYPE_BPS),
        BudgetRow("Event Raw Data (Current)", raw_stream, raw_event_stream=True),
        BudgetRow("Event Raw Data (Voltage)", raw_stream, raw_event_stream=True),
        BudgetRow("Short Term Flicker", rate("flicker_pst", "pst")),
        BudgetRow("Demand", rate("demand", "d")),
        BudgetRow("Frequency", rate("frequency", "frequency")),
    )
    return TrafficBudget(rows=rows)


def _format_rate(value: float) -> str:
    text = f"{value:,.3f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def format_budget_table(budget: TrafficBudget) -> str:
    """Aligned two-column rendering with both campaign totals."""
    name_width = max(len(r.parameter) for r in budget.rows)
    name_width = max(name_width, len("Total (without event raw data)"))
    lines = [f"{'Parameter':<{name_width}}  {'bits/s':>15}"]
    lines.append("-" * (name_width + 17))
    for row in budget.rows:
        lines.append(f"{row.parameter:<{name_width}}  {_format_rate(row.bits_per_second):>15}")
    lines.append("-" * (name_width + 17))
    lines.append(
        f"{'Total (with event raw data)':<{name_width}}  "
        f"{budget.total_with_events:>15,.3f}"
    )
    lines.append(
        f"{'Total (without event raw data)':<{name_width}}  "
        f"{budget.total_without_events:>15,.3f}"
    )
    return "\n".join(lines)
