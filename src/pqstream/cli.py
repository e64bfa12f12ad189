"""Console entry point chaining generation, analysis, ingestion and queries.

The subcommands mirror the campaign workflow: ``gen`` synthesizes a raw
sample stream into a directory, ``analyze`` turns such a directory into a
transfer-file tree (computing every averaged parameter and detecting
events), ``ingest`` loads trees into a SQLite database, and ``budget``,
``query`` and ``event`` report on the results.
"""

from __future__ import annotations

import os

# numpy's BLAS reads its thread count once, when numpy loads, and starts one
# thread per core by default.  pqstream's matrix products are too small to
# gain from more than one, and the extra threads take the cores the capture
# worker runs on, so the console command asks for one before anything
# imports numpy (``import pqstream`` does not).  A value the user set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse
import json
import sys
from dataclasses import dataclass, fields
from datetime import datetime
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .analyzer import HARMONIC_WINDOW, PARAMETERS, PipelineConfig, run_pipeline
from .charts import ChartError, ChartSpec, render_chart, write_text_table
from .events import EventDetector, EventThresholds
from .query import (
    DEFAULT_AGGREGATES,
    NotFoundError,
    QueryError,
    QuerySpec,
    aggregate_events,
    event_detail,
    extract_raw_capture,
    series_columns,
    series_rows,
    timeseries,
)
from .siggen import (
    DisturbanceScript,
    ScriptError,
    SignalConfig,
    WaveformFrame,
    generate_stream,
    parse_script,
)
from .store import (
    MeasurementPoint,
    StoreError,
    StreamDatabase,
    TransferFileWriter,
    compute_traffic_budget,
    format_budget_table,
    ingest_directory,
)

DEFAULT_BASE_TIME = "2000-01-01T00:00:00"
META_FILE = "meta.json"
VOLTAGE_FILE = "voltage.npy"
CURRENT_FILE = "current.npy"
SAMPLE_DTYPE = np.dtype(np.float64)  # of the streams gen writes


def _load_gen_config(path: Path) -> dict:
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise StoreError(f"config {path} is not a JSON object")
    return meta


def _signal_config(meta: dict) -> SignalConfig:
    """The :class:`SignalConfig` of the fields ``meta`` holds, each cast to
    the type of its default; the others keep their defaults.  A value the
    cast refuses is refused, and so is a bool or a number the cast would
    change (a fractional seed, say); a numeric string such as "2.5" is cast."""
    values = {}
    for f in fields(SignalConfig):
        if f.name not in meta:
            continue
        value, kind = meta[f.name], type(f.default)
        try:
            cast = kind(value)
        except (TypeError, ValueError, OverflowError):
            cast = None
        if cast is None or isinstance(value, bool) or (
            isinstance(value, (int, float)) and cast != value
        ):
            raise StoreError(f"{f.name} must be a {kind.__name__}, not {value!r}")
        values[f.name] = cast
    return SignalConfig(**values)


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


@dataclass(frozen=True)
class _SampleFile:
    """A (3, n) ``.npy`` sample file as its header describes it, read one
    block of samples at a time so no more than a block is ever held."""

    path: Path
    dtype: np.dtype
    fortran_order: bool
    samples: int  # per channel
    offset: int   # bytes before the first sample

    @classmethod
    def from_header(cls, path: Path) -> "_SampleFile":
        """Read and check the header: shape (3, n), a real-number dtype, and
        a file long enough to hold every sample it declares."""
        with path.open("rb") as f:
            try:
                version = np.lib.format.read_magic(f)
                read_header = _NPY_HEADER_READERS.get(version)
                if read_header is None:
                    raise StoreError(f"{path}: .npy format version {version} is not supported")
                shape, fortran_order, dtype = read_header(f)
            except ValueError as exc:
                raise StoreError(f"{path}: not a .npy array: {exc}") from exc
            offset = f.tell()
        if len(shape) != 2 or shape[0] != 3:
            raise StoreError(f"{path}: samples must have shape (3, n), not {shape}")
        if dtype.kind not in "biuf":
            raise StoreError(f"{path}: samples of dtype {dtype} are not real numbers")
        if path.stat().st_size < offset + 3 * shape[1] * dtype.itemsize:
            raise StoreError(f"{path}: ends before the {shape[1]} samples per channel it declares")
        return cls(path, dtype, fortran_order, shape[1], offset)

    def read(self, f, start: int, stop: int) -> np.ndarray:
        """Samples ``start:stop`` of the three channels from the open file
        ``f``, as a fresh (3, stop - start) array laid out as ``np.load``'s."""
        size = self.dtype.itemsize
        if self.fortran_order:  # the three channels of one sample lie together
            block = np.empty((stop - start, 3), self.dtype)
            f.seek(self.offset + 3 * start * size)
            _read_into(f, block)
            return block.T
        block = np.empty((3, stop - start), self.dtype)
        for channel, row in enumerate(block):
            f.seek(self.offset + (channel * self.samples + start) * size)
            _read_into(f, row)
        return block


def _read_into(f, out: np.ndarray) -> None:
    if f.readinto(out) != out.nbytes:
        raise StoreError(f"{f.name}: ends before its last sample")


def _read_frames(voltage: _SampleFile, current: _SampleFile) -> Iterator[WaveformFrame]:
    """The stream in frames of one harmonics window, read from both files."""
    with voltage.path.open("rb") as fv, current.path.open("rb") as fc:
        for start in range(0, voltage.samples, HARMONIC_WINDOW):
            stop = min(start + HARMONIC_WINDOW, voltage.samples)
            yield WaveformFrame(start, voltage.read(fv, start, stop), current.read(fc, start, stop))


def _write_frame(f, offset: int, total: int, frame_start: int, samples: np.ndarray) -> None:
    """Write one frame's channel rows in place in a C-order (3, total) float64 ``.npy``."""
    for channel, row in enumerate(samples):
        f.seek(offset + (channel * total + frame_start) * SAMPLE_DTYPE.itemsize)
        f.write(np.ascontiguousarray(row, dtype=SAMPLE_DTYPE))


def cmd_gen(args: argparse.Namespace) -> int:
    meta = _load_gen_config(Path(args.config))
    config = _signal_config(meta)
    script_text = ""
    if args.script:
        script_text = Path(args.script).read_text(encoding="utf-8")
    script = parse_script(script_text) if script_text.strip() else DisturbanceScript()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    total = config.total_samples
    # the header np.save writes for a (3, total) float64 array, then each
    # frame's rows in place, so no more than a frame is ever held
    header = {
        "descr": np.lib.format.dtype_to_descr(SAMPLE_DTYPE),
        "fortran_order": False,
        "shape": (3, total),
    }
    with (out / VOLTAGE_FILE).open("wb") as fv, (out / CURRENT_FILE).open("wb") as fc:
        for f in (fv, fc):
            np.lib.format.write_array_header_1_0(f, header)
        offset = fv.tell()
        for frame in generate_stream(config, script):
            start = frame.start_sample_index
            _write_frame(fv, offset, total, start, frame.voltage_samples)
            _write_frame(fc, offset, total, start, frame.current_samples)
    meta_out = dict(meta)
    meta_out.setdefault("base_time", DEFAULT_BASE_TIME)
    meta_out["script"] = script_text
    meta_out["total_samples"] = total
    (out / META_FILE).write_text(
        json.dumps(meta_out, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"generated {total} samples per channel into {out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    meta = _load_gen_config(in_dir / META_FILE)
    signal = _signal_config(meta)
    nominal_v = signal.nominal_voltage_rms if args.nominal_v is None else args.nominal_v
    config = PipelineConfig(
        nominal_frequency=signal.nominal_frequency,
        nominal_voltage_rms=nominal_v,
        nominal_current_rms=signal.nominal_current_rms,
    )
    voltage = _SampleFile.from_header(in_dir / VOLTAGE_FILE)
    current = _SampleFile.from_header(in_dir / CURRENT_FILE)
    if current.samples != voltage.samples:
        raise StoreError(
            f"{VOLTAGE_FILE} holds {voltage.samples} samples per channel, "
            f"{CURRENT_FILE} {current.samples}"
        )
    point_meta, base_time = meta.get("point", {}), meta.get("base_time", DEFAULT_BASE_TIME)
    if not isinstance(point_meta, dict):
        raise StoreError(f"{META_FILE}: point must be a JSON object, not {point_meta!r}")
    if not isinstance(base_time, str):
        raise StoreError(f"{META_FILE}: base_time must be a string, not {base_time!r}")
    point = MeasurementPoint.from_dict({"id": "MP1", **point_meta})
    writer = TransferFileWriter(args.out, point, datetime.fromisoformat(base_time))
    detector = EventDetector(
        EventThresholds(nominal_voltage_rms=nominal_v),
        measurement_point_id=point.id,
        raw_sink=writer,  # each capture goes to its file as it is compressed
    )
    result = run_pipeline(_read_frames(voltage, current), config, detector=detector)
    written = writer.write_results(result)
    print(f"analyzed {voltage.samples} samples from {in_dir}")
    counts = " ".join(f"{name}={len(getattr(result, name))}" for name in PARAMETERS)
    print(f"records: {counts} events={len(result.events)}")
    discarded = " ".join(f"{k}={v}" for k, v in result.discarded.items())
    print(f"discarded: {discarded or 'none'}")
    print(f"capture write errors: {sum(e.raw_write_error for e in result.events)}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    with StreamDatabase(args.db) as db:
        report = ingest_directory(args.root, db)
    print(report.summary())
    return 0


def cmd_budget(args: argparse.Namespace) -> int:
    budget = compute_traffic_budget()
    if args.with_events:
        print(f"{budget.total_with_events:.3f}")
    elif args.without_events:
        print(f"{budget.total_without_events:.3f}")
    else:
        print(format_budget_table(budget))
    return 0


def _chart_out(args: argparse.Namespace) -> Path | None:
    """The path ``--chart`` writes to, or None to print; refuses either flag
    without the other."""
    if args.chart and not args.out:
        raise ChartError("--chart needs --out to name the output file")
    if args.out is not None and not args.chart:
        raise QueryError("--out needs --chart to say what to write there")
    return Path(args.out) if args.chart else None


def _render_or_print(table, out: Path | None, kind: str, title: str) -> None:
    if out is None:
        write_text_table(table.columns, lambda: table.rows, sys.stdout)
    else:
        print(f"wrote {render_chart(table, ChartSpec(kind=kind, title=title), out)}")


def cmd_query_events(args: argparse.Namespace) -> int:
    out = _chart_out(args)
    filters = []
    for item in args.filter or []:
        if "=" not in item:
            raise QueryError(f"filter {item!r} must look like attribute=value")
        key, value = item.split("=", 1)
        filters.append((key, value))
    group_by = tuple(k for k in (args.group_by or "").split(",") if k)
    # a pie draws one measure: the event total
    aggregates = (("sum", "event_count"),) if args.chart == "pie" else DEFAULT_AGGREGATES
    spec = QuerySpec(filters=tuple(filters), group_by=group_by, aggregates=aggregates)
    with StreamDatabase(args.db, readonly=True) as db:
        table = aggregate_events(db, spec)
    _render_or_print(table, out, args.chart, "Event counts")
    return 0


def cmd_query_series(args: argparse.Namespace) -> int:
    out = _chart_out(args)
    start = datetime.fromisoformat(args.start) if args.start else None
    end = datetime.fromisoformat(args.end) if args.end else None
    with StreamDatabase(args.db, readonly=True) as db:
        if args.chart == "time_series":
            table = timeseries(db, args.point, args.param, start, end)
            _render_or_print(table, out, args.chart, f"{args.param} at {args.point}")
        else:
            # two passes over the blocks, for the widths and then the lines;
            # the arguments are checked on the first, before a file is created
            write_text_table(
                series_columns(args.param),
                lambda: series_rows(db, args.point, args.param, start, end),
                out or sys.stdout,
            )
            if out is not None:
                print(f"wrote {out}")
    return 0


def cmd_event(args: argparse.Namespace) -> int:
    if args.out is not None and not args.raw:
        raise QueryError("--out needs --raw: only an extracted capture is written there")
    with StreamDatabase(args.db, readonly=True) as db:
        event = event_detail(db, args.event_id, point_id=args.point)
    print(
        f"event {event.event_id} at {event.measurement_point_id}: "
        f"{event.event_type} from {event.start_time.isoformat()} "
        f"to {event.end_time.isoformat()} ({event.size_in_samples} samples)"
    )
    if event.raw_path:
        print(f"raw capture: {event.raw_path}")
    else:
        print("raw capture: not available")
    if args.raw:
        out = extract_raw_capture(event, Path(args.out or "."))
        print(f"extracted {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqstream",
        description="Power-quality stream engine: synthesize, analyze, store, query.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a raw sample stream")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--script", help="disturbance script file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="run the analysis pipeline over a stream")
    p.add_argument("--in", dest="in_dir", required=True, help="directory from gen")
    p.add_argument("--out", required=True, help="transfer tree output root")
    p.add_argument("--nominal-v", type=float, help="override the nominal voltage (V)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ingest", help="load a transfer tree into the database")
    p.add_argument("--root", required=True, help="transfer tree root")
    p.add_argument("--db", required=True, help="SQLite database path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("budget", help="print the outgoing traffic budget")
    flags = p.add_mutually_exclusive_group()
    flags.add_argument(
        "--with-events", action="store_true", help="print only the total including raw event data"
    )
    flags.add_argument(
        "--without-events", action="store_true", help="print only the total excluding raw event data"
    )
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("query", help="run read-only queries")
    qsub = p.add_subparsers(dest="query_command", required=True)

    q = qsub.add_parser("events", help="aggregate event counters across points")
    q.add_argument("--db", required=True)
    q.add_argument("--group-by", help="comma-separated point attributes")
    q.add_argument("--filter", action="append", help="attribute=value, repeatable")
    q.add_argument("--chart", choices=("bar", "pie", "table"), help="render instead of printing")
    q.add_argument("--out", help="chart output path")
    q.set_defaults(func=cmd_query_events)

    q = qsub.add_parser("series", help="time series of one parameter at one point")
    q.add_argument("--db", required=True)
    q.add_argument("--point", required=True)
    q.add_argument("--param", required=True)
    q.add_argument("--from", dest="start", help="inclusive ISO-8601 lower bound")
    q.add_argument("--to", dest="end", help="inclusive ISO-8601 upper bound")
    q.add_argument(
        "--chart", choices=("time_series", "table"), help="render instead of printing"
    )
    q.add_argument("--out", help="chart output path")
    q.set_defaults(func=cmd_query_series)

    p = sub.add_parser("event", help="show one event, optionally extracting raw data")
    p.add_argument("event_id", type=int)
    p.add_argument("--db", required=True)
    p.add_argument("--point", help="disambiguate when ids repeat across points")
    p.add_argument("--raw", action="store_true", help="extract the raw capture to CSV")
    p.add_argument("--out", help="directory for the --raw CSV (default: the current one)")
    p.set_defaults(func=cmd_event)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScriptError, StoreError, QueryError, ChartError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
