"""Transfer-file layout, the ingestion database, and the traffic budget."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sqlite3
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from pqstream import store
from pqstream.analyzer import (
    HARMONIC_ORDERS,
    DemandRecord,
    FlickerPltRecord,
    FlickerPstRecord,
    FrequencyRecord,
    HarmonicsRecord,
    PipelineResult,
    PowerRecord,
    RmsRecord,
    run_pipeline,
)
from pqstream.events import EventDetector, EventRecord, EventThresholds
from pqstream.siggen import SAMPLE_RATE, generate_stream, parse_script
from pqstream.query import timeseries
from pqstream.store import (
    FILE_COLUMNS,
    PARAMETERS,
    PHASES,
    READ_BLOCK,
    EventStat,
    IngestReport,
    MeasurementPoint,
    StoreError,
    StreamDatabase,
    TransferFile,
    TransferFileWriter,
    compute_traffic_budget,
    derive_timestamps,
    format_budget_table,
    format_value,
    ingest_directory,
    parameter_interval,
)

from conftest import BASE_TIME, unit_config, unit_pipeline_config


def make_point(point_id="MP1", load_type="Urban Only", kind="busbar"):
    return MeasurementPoint(
        id=point_id,
        name=f"Point {point_id}",
        point_kind=kind,
        load_type=load_type,
        city_name="Granville",
        region_name="North",
        voltage_level=31.5,
    )


def analyze_script(script_text, duration, writer):
    detector = EventDetector(
        EventThresholds(nominal_voltage_rms=1.0),
        measurement_point_id=writer.point.id,
        raw_sink=writer.raw_sink,
    )
    script = parse_script(script_text) if script_text else None
    return run_pipeline(
        generate_stream(unit_config(duration), script),
        unit_pipeline_config(),
        detector=detector,
    )


@pytest.fixture
def written_sag_run(tmp_path):
    """12 s run with one sag, written out under tmp_path/out."""
    out_root = tmp_path / "out"
    writer = TransferFileWriter(out_root, make_point(), BASE_TIME)
    result = analyze_script("sag 4.0 5.0 B 0.7\n", 12.0, writer)
    paths = writer.write_results(result)
    return out_root, result, paths


# -- traffic budget -----------------------------------------------------------


def test_budget_row_values():
    budget = compute_traffic_budget()
    by_name = {r.parameter: r.bits_per_second for r in budget.rows}
    assert by_name["Active Power"] == 192.0
    assert by_name["Reactive Power"] == 192.0
    assert by_name["Apparent Power"] == 192.0
    assert by_name["Power Factor"] == 192.0
    assert by_name["33 Voltage Harmonics"] == 2112.0
    assert by_name["33 Current Harmonics"] == 2112.0
    assert by_name["RMS Voltage and Current"] == 1920.0
    assert by_name["Event Length"] == 4.0
    assert by_name["Event Type"] == 10.0
    assert by_name["Event Raw Data (Current)"] == 614400.0
    assert by_name["Event Raw Data (Voltage)"] == 614400.0
    assert by_name["Short Term Flicker"] == pytest.approx(0.32)
    assert by_name["Demand"] == pytest.approx(192.0 / 900.0)
    assert by_name["Frequency"] == 64.0
    assert len(budget.rows) == 14


def test_budget_totals():
    budget = compute_traffic_budget()
    assert round(budget.total_with_events, 3) == 1235790.533
    assert round(budget.total_without_events, 3) == 6990.533
    # the difference is exactly the two raw streams
    assert budget.total_with_events - budget.total_without_events == 2 * 614400.0


def test_budget_totals_formula():
    budget = compute_traffic_budget()
    expected = (
        4 * 192.0 + 2 * 2112.0 + 1920.0 + 4.0 + 10.0
        + 2 * 64.0 * 3 * SAMPLE_RATE + 192.0 / 600.0 + 192.0 / 900.0 + 64.0
    )
    assert budget.total_with_events == pytest.approx(expected, rel=1e-12)


def test_budget_table_rendering():
    text = format_budget_table(compute_traffic_budget())
    assert "1,235,790.533" in text
    assert "6,990.533" in text
    assert "614,400" in text and "614,400.000" not in text
    assert "0.32" in text and "0.320" not in text
    assert "0.213" in text
    lines = text.splitlines()
    assert lines[0].startswith("Parameter")


# -- point, transfer file, derived timestamps ---------------------------------


def test_measurement_point_validation():
    with pytest.raises(ValueError):
        make_point(kind="transformer")
    with pytest.raises(ValueError):
        make_point(load_type="Rural")
    for point_id in ("", ".", "..", "a/b", "a\\b", 5):
        with pytest.raises(ValueError, match="is not one path component"):
            make_point(point_id=point_id)
    with pytest.raises(ValueError, match="voltage_level must be >= 0"):
        replace(make_point(), voltage_level=-0.4)
    for key, value in (("name", ["x"]), ("city_name", 5), ("region_name", None)):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a string, not {value!r}")):
            replace(make_point(), **{key: value})
    for level in (True, "5", math.nan, math.inf, -math.inf, None):
        match = re.escape(f"voltage_level must be a finite number, not {level!r}")
        with pytest.raises(ValueError, match=match):
            replace(make_point(), voltage_level=level)
        with pytest.raises(ValueError, match=match):
            MeasurementPoint.from_dict({"id": "A", "voltage_level": level})
    assert repr(MeasurementPoint.from_dict({"id": "A", "voltage_level": 11}).voltage_level) == "11.0"


@pytest.mark.parametrize("change, match", [
    ({"parameter_type": "voltage"}, "unknown parameter_type 'voltage'"),
    ({"measurement_date": datetime(2000, 1, 1, 0, 1, 1)}, "must not be after transfer_time"),
    ({"row_count": -1}, "row_count must be >= 0"),
])
def test_transfer_file_invariants(change, match):
    md = datetime(2000, 1, 1, 0, 1, 0)
    fields = dict(
        id=1, measurement_point_id="MP1", parameter_type="rms",
        measurement_date=md, transfer_time=md, path="x", row_count=0, content_hash="h",
    )
    TransferFile(**fields)
    with pytest.raises(ValueError, match=match):
        TransferFile(**{**fields, **change})


def test_event_stat_count_consistency():
    EventStat("MP1", 3, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        EventStat("MP1", 5, 1, 1, 1, 0)


def test_parameter_intervals():
    assert parameter_interval("rms") == timedelta(milliseconds=200)
    assert parameter_interval("power") == timedelta(seconds=1)
    assert parameter_interval("harmonics") == timedelta(seconds=3)
    assert parameter_interval("demand") == timedelta(minutes=15)
    assert parameter_interval("flicker_pst") == timedelta(minutes=10)
    assert parameter_interval("flicker_plt") == timedelta(hours=2)
    with pytest.raises(StoreError):
        parameter_interval("event")


def test_derive_timestamps_from_measurement_date():
    md = datetime(2000, 1, 1, 0, 1, 0)
    tf = TransferFile(
        id=1, measurement_point_id="MP1", parameter_type="rms",
        measurement_date=md, transfer_time=md, path="x", row_count=300,
        content_hash="h",
    )
    assert derive_timestamps(tf, 299) == md
    assert derive_timestamps(tf, 0) == md - 299 * timedelta(milliseconds=200)
    assert derive_timestamps(tf, 150) == md - 149 * timedelta(milliseconds=200)
    with pytest.raises(StoreError):
        derive_timestamps(tf, 300)
    with pytest.raises(StoreError):
        derive_timestamps(tf, -1)


def test_format_value_round_trip():
    for value in (0.1, 1.0 / 3.0, math.pi, 1e-300, -0.0, 123456789.123456789):
        assert float(format_value(value)) == value
    assert format_value(None) == ""
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(42) == "42"


# -- transfer file writer -----------------------------------------------------


#: Reference flattening of each parameter's record into its cells, in column
#: order, written from the documented transfer-file layout.
FLATTEN = {
    "rms": lambda r: (*r.v_rms, *r.i_rms),
    "power": lambda r: (*r.active, *r.reactive, *r.apparent, *r.power_factor),
    "harmonics": lambda r: (
        *(x for row in r.v_harmonics for x in row),
        *(x for row in r.i_harmonics for x in row),
        *r.thd_v,
        *r.thd_i,
    ),
    "frequency": lambda r: (r.frequency, r.held),
    "demand": lambda r: r.demand,
    "flicker_pst": lambda r: r.pst,
    "flicker_plt": lambda r: r.plt,
}


FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNDEFINED_OR_FINITE = st.none() | FINITE


def triples(cells=FINITE):
    return st.tuples(cells, cells, cells)


# 99 cells from a few drawn values, so a list of records stays cheap to draw
ORDERS = st.lists(FINITE, min_size=1, max_size=6).map(
    lambda xs: tuple(tuple(xs[(p + h) % len(xs)] for h in range(HARMONIC_ORDERS)) for p in range(3))
)


def windowed_records(name, record_type, *cells, **size):
    """Lists of ``name`` records, record k ending at window k's end from the stream start."""
    samples = PARAMETERS[name].samples
    return st.lists(st.tuples(*cells), **size).map(lambda rows: [
        record_type((k + 1) * samples / SAMPLE_RATE, *row) for k, row in enumerate(rows)
    ])


#: Lists of records per cadence, as a PipelineResult is built from them.
RECORD_LISTS = {
    "rms": windowed_records("rms", RmsRecord, triples(), triples()),
    "harmonics": windowed_records(
        "harmonics", HarmonicsRecord, ORDERS, ORDERS,
        triples(UNDEFINED_OR_FINITE), triples(UNDEFINED_OR_FINITE), max_size=25,
    ),
    "frequency": windowed_records("frequency", FrequencyRecord, FINITE, st.booleans()),
    "flicker_pst": windowed_records("flicker_pst", FlickerPstRecord, triples(UNDEFINED_OR_FINITE)),
}
EDGE_RECORDS = {
    "rms": [RmsRecord(0.2, (-0.0, 5e-324, 2.2250738585072014e-308), (1e308, -1e308, 0.1))],
    "frequency": [FrequencyRecord(1.0, 50.0, True), FrequencyRecord(2.0, -0.0, False)],
    "flicker_pst": [FlickerPstRecord(600.0, (None, -0.0, None))],
}


@given(result=st.builds(PipelineResult, **RECORD_LISTS))
@example(result=PipelineResult(**EDGE_RECORDS))
@settings(max_examples=200)
def test_csv_lines_equal_the_per_cell_format(tmp_path_factory, result):
    writer = TransferFileWriter(tmp_path_factory.mktemp("csv"), make_point(), BASE_TIME)
    paths = writer.write_results(result)
    assert {path.parent.name for path in paths} == {
        name for name in PARAMETERS if getattr(result, name)
    }
    for path in paths:
        name = path.parent.name
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[1:-2] == [
            ",".join(format_value(v) for v in FLATTEN[name](r)) for r in getattr(result, name)
        ]


def bit_cells(name: str, record) -> list:
    """The values of a ``name`` record, floats by their exact bits and bools kept apart."""
    values = (record.timestamp, *FLATTEN[name](record))
    return [v.hex() if type(v) is float else (type(v), v) for v in values]


@given(lists=st.fixed_dictionaries(RECORD_LISTS))
@example(lists=EDGE_RECORDS)
@settings(max_examples=200)
def test_pipeline_result_rows_give_back_the_records_it_was_built_from(lists):
    result = PipelineResult(**lists)
    for name in PARAMETERS:
        series, records = getattr(result, name), lists.get(name, [])
        assert series == records
        assert [bit_cells(name, r) for r in series] == [bit_cells(name, r) for r in records]
        assert len(series) == len(records)
        assert bool(series) == bool(records)
        if records:  # an empty series is falsy and == [] above
            assert bit_cells(name, series[-1]) == bit_cells(name, records[-1])
            assert series[0] == records[0]


def test_writer_tree_layout(written_sag_run):
    out_root, result, paths = written_sag_run
    point_dir = out_root / "MP1"
    assert (point_dir / "point.json").exists()
    names = sorted(p.relative_to(point_dir).as_posix() for p in paths)
    assert names == [
        "event/event_000.csv",
        "frequency/frequency_000.csv",
        "harmonics/harmonics_000.csv",
        "power/power_000.csv",
        "rms/rms_000.csv",
    ]
    raw_files = list((point_dir / "Sag").glob("raw_*.pqz"))
    assert len(raw_files) == 1


def test_writer_metadata_contents(written_sag_run):
    out_root, _, _ = written_sag_run
    meta = json.loads((out_root / "MP1" / "point.json").read_text())
    assert meta["id"] == "MP1"
    assert meta["point_kind"] == "busbar"
    assert meta["load_type"] == "Urban Only"
    assert meta["base_time"] == BASE_TIME.isoformat(timespec="microseconds")


def test_writer_row_counts_and_footer(written_sag_run):
    out_root, result, _ = written_sag_run
    rms_path = out_root / "MP1" / "rms" / "rms_000.csv"
    lines = rms_path.read_text().splitlines()
    assert lines[0].startswith("# columns:")
    assert lines[-1].startswith("#last_sample=")
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    assert len(data_lines) == len(result.rms) == 60
    footer_time = lines[-1].split("=", 1)[1]
    assert footer_time == (BASE_TIME + timedelta(seconds=12)).isoformat(
        timespec="microseconds"
    )


def test_writer_values_survive_round_trip(written_sag_run):
    out_root, result, _ = written_sag_run
    rms_path = out_root / "MP1" / "rms" / "rms_000.csv"
    data = [
        ln.split(",")
        for ln in rms_path.read_text().splitlines()
        if not ln.startswith("#")
    ]
    for row, record in zip(data, result.rms):
        values = tuple(float(c) for c in row)
        assert values[:3] == record.v_rms
        assert values[3:] == record.i_rms


def test_writer_event_log_contents(written_sag_run):
    out_root, result, _ = written_sag_run
    event_path = out_root / "MP1" / "event" / "event_000.csv"
    rows = [
        ln.split(",")
        for ln in event_path.read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert len(rows) == 1
    event_id, event_type, start, end, size, raw = rows[0]
    assert event_type == "sag"
    assert int(size) == 3200
    assert datetime.fromisoformat(start) == BASE_TIME + timedelta(seconds=4)
    assert datetime.fromisoformat(end) == BASE_TIME + timedelta(seconds=5)
    assert raw.startswith("Sag/raw_") and raw.endswith(".pqz")
    assert (out_root / "MP1" / raw).exists()


def test_raw_sink_returns_the_path_the_event_log_stores(written_sag_run, tmp_path):
    out_root, result, _ = written_sag_run
    (event,) = result.events
    assert event.file_path == f"Sag/raw_{event.event_id}.pqz"
    rows = (out_root / "MP1" / "event" / "event_000.csv").read_text().splitlines()
    assert rows[1].split(",")[-1] == event.file_path
    # a custom sink's path is stored as the sink gave it
    writer = TransferFileWriter(tmp_path / "custom", make_point(), BASE_TIME)
    moved = replace(event, file_path="/elsewhere/capture.pqz")
    (path,) = writer.write_results(PipelineResult(events=[moved]))
    assert path.read_text().splitlines()[1].endswith(",/elsewhere/capture.pqz")


def test_writer_empty_result_writes_metadata_only(tmp_path):
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    result = run_pipeline([], unit_pipeline_config())
    paths = writer.write_results(result)
    assert paths == []
    point_dir = tmp_path / "out" / "MP1"
    assert sorted(p.name for p in point_dir.iterdir()) == ["point.json"]


def test_writer_sequence_number_in_filenames(tmp_path):
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    result = analyze_script(None, 1.0, writer)
    paths = writer.write_results(result, file_seq=7)
    assert {p.name for p in paths} == {"rms_007.csv", "power_007.csv", "frequency_007.csv"}


def test_writer_unwritable_root_raises_store_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file, not a directory")
    with pytest.raises(StoreError, match="not writable"):
        TransferFileWriter(blocker / "out", make_point(), BASE_TIME)


def test_writer_timestamp_millisecond_rounding(tmp_path):
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    assert writer.timestamp(0.2) == BASE_TIME + timedelta(milliseconds=200)
    assert writer.timestamp(0.0001) == BASE_TIME  # sub-ms rounds away
    assert writer.timestamp(600.0) == BASE_TIME + timedelta(minutes=10)


def long_result() -> PipelineResult:
    """Records enough for several write chunks of every file, holding None
    THD and Pst cells, both ``held`` values and a capture that failed."""
    base = hand_built_result()
    repeated = {
        name: [
            replace(rec, timestamp=(k + 1) * PARAMETERS[name].samples / SAMPLE_RATE)
            for k, rec in enumerate(list(getattr(base, name)) * count)
        ]
        for name, count in (("rms", 1500), ("power", 700), ("harmonics", 45), ("frequency", 2100),
                            ("demand", 3), ("flicker_pst", 300), ("flicker_plt", 1))
    }
    events = [
        EventRecord(1, "MP1", "sag", 1.0, 2.5, 4800, "Sag/raw_1.pqz"),
        EventRecord(2, "MP1", "swell", 3.2, 3.4, 640, None, raw_write_error=True),
        EventRecord(3, "MP1", "interruption", 7.0, 9.0, 6400, "Interruption/raw_3.pqz"),
    ]
    return PipelineResult(**repeated, events=events)


def test_writer_output_equals_the_whole_file_join(tmp_path):
    # what the writer wrote when it built every line and joined them once
    def joined(columns, rows, last):
        lines = [f"# columns: {','.join(columns)}"]
        lines += [",".join(format_value(v) for v in row) for row in rows]
        lines.append(f"#last_sample={last.isoformat(timespec='microseconds')}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    result = long_result()
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    paths = writer.write_results(result)
    assert len(paths) == len(PARAMETERS) + 1
    for name, parameter in PARAMETERS.items():
        records = getattr(result, name)
        expected = joined(
            parameter.columns,
            [FLATTEN[name](r) for r in records],
            writer.timestamp(records[-1].timestamp),
        )
        assert (tmp_path / "out" / "MP1" / name / f"{name}_000.csv").read_bytes() == expected
    expected = joined(
        FILE_COLUMNS["event"],
        [writer._event_row(e) for e in result.events],
        writer.timestamp(9.0),
    )
    assert (tmp_path / "out" / "MP1" / "event" / "event_000.csv").read_bytes() == expected
    assert b",,0.25" in (tmp_path / "out" / "MP1" / "harmonics" / "harmonics_000.csv").read_bytes()


def test_writer_memory_does_not_grow_with_the_rows_written(tmp_path):
    # 1500 harmonics rows of 204 seventeen-digit cells: a file of about 6 MB
    rng = random.Random(3)
    def orders():
        return tuple(tuple(rng.random() for _ in range(HARMONIC_ORDERS)) for _ in PHASES)
    result = PipelineResult(harmonics=[
        HarmonicsRecord(
            3.0 * (k + 1), orders(), orders(), orders()[0][:3], (None, 1.5, rng.random())
        )
        for k in range(1500)
    ])
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    tracemalloc.start()
    try:
        (path,) = writer.write_results(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 5_000_000
    assert peak < 0.1 * written, (peak, written)


def test_writer_refuses_records_that_do_not_fill_their_columns(tmp_path):
    # the refusal fires where the records enter their series, before any write
    orders = tuple((1.0,) * HARMONIC_ORDERS for _ in PHASES)
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    for name, records, match in (
        # thd_v holding 33 values instead of 3: 234 cells for 204 columns
        ("harmonics", [HarmonicsRecord(3.0, orders, orders, orders[0], (1.0,) * 3)],
         "harmonics records hold 234 values, expected 204"),
        ("rms", [RmsRecord(0.2, (1.0, 2.0), (3.0, 4.0))],
         "rms records hold 4 values, expected 6"),
        ("rms", [RmsRecord(0.2, (1.0,) * 3, (1.0,) * 3), RmsRecord(0.4, (1.0,) * 3, (1.0,) * 4)],
         "rms records are not rows of numbers"),
    ):
        with pytest.raises(ValueError, match=match):
            writer.write_results(PipelineResult(**{name: records}))
    assert not any(p.is_file() for p in (tmp_path / "out" / "MP1").rglob("*.csv"))


def test_writer_refuses_records_that_do_not_end_at_successive_windows(tmp_path):
    # a row's time is its index, so a repeated or skipped window cannot be stored
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    triple = (1.0, 2.0, 3.0)
    for name, records, match in (
        ("rms", [RmsRecord(0.2, triple, triple), RmsRecord(0.2, triple, triple)],
         r"rms record 1 ends at 0.2 s, not at 0.4 s"),
        ("demand", [DemandRecord(1800.0, triple)],
         r"demand record 0 ends at 1800.0 s, not at 900.0 s"),
        ("power", [PowerRecord(1.0 + 1e-15, triple, triple, triple, triple)], "power record 0"),
    ):
        with pytest.raises(ValueError, match=match):
            writer.write_results(PipelineResult(**{name: records}))
    assert [p.name for p in (tmp_path / "out" / "MP1").rglob("*")] == ["point.json"]


def test_writer_leaves_no_partial_file_when_a_record_is_refused(tmp_path):
    # 700 good records fill more than one chunk before the bad one is reached
    good = [RmsRecord((k + 1) * 640 / SAMPLE_RATE, (1.0,) * 3, (2.0,) * 3) for k in range(700)]
    bad = RmsRecord(140.2, (1.0, 1.0), (2.0,) * 3)
    writer = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME)
    with pytest.raises(ValueError, match="rms records are not rows of numbers"):
        writer.write_results(PipelineResult(rms=good + [bad]))
    assert not any(p.is_file() for p in (tmp_path / "out" / "MP1").rglob("*.csv"))
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(tmp_path / "out", db)
    assert report.files_malformed == []
    assert report.files_ingested == 0


# -- database and ingestion ---------------------------------------------------


@pytest.mark.parametrize("name", ["a#b.sqlite", "c%20d.sqlite", "e?f.sqlite", "g h.sqlite"])
def test_readonly_database_opens_a_path_holding_uri_characters(tmp_path, name):
    path = tmp_path / name
    with StreamDatabase(path) as db:
        db.upsert_point(make_point())
        db.conn.commit()
    before = sorted(p.name for p in tmp_path.iterdir())
    with StreamDatabase(path, readonly=True) as db:
        assert db.get_point("MP1") == make_point()
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            db.upsert_point(make_point("MP2"))
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    with StreamDatabase(path, readonly=True) as db:
        assert db.get_point("MP2") is None


def test_point_upsert_round_trip(tmp_path):
    with StreamDatabase(tmp_path / "pq.db") as db:
        point = make_point()
        db.upsert_point(point)
        assert db.get_point("MP1") == point
        updated = make_point(load_type="Heavy Industry")
        db.upsert_point(updated)
        assert db.get_point("MP1") == updated
        assert db.get_point("nope") is None


def test_event_stat_view_counts_the_event_table(tmp_path):
    scripts = {
        "MP1": "sag 2.0 3.0 A 0.8\nswell 5.0 5.6 B 1.2\nsag 8.0 8.4 C 0.75\n",
        "MP2": "interruption 4.0 5.0 ABC 0.0\n",
        "MP3": "unbalance 2.0 4.0 C 0.93\nsag 7.0 7.6 A 0.8\n",
        "QUIET": "",
    }
    out_root = tmp_path / "out"
    for point_id, script in scripts.items():
        writer = TransferFileWriter(out_root, make_point(point_id), BASE_TIME)
        writer.write_results(analyze_script(script, 12.0, writer))
    expected = {
        "MP1": EventStat("MP1", 3, 2, 1, 0, 0),
        "MP2": EventStat("MP2", 1, 0, 0, 1, 0),
        "MP3": EventStat("MP3", 2, 1, 0, 0, 1),
    }
    with StreamDatabase(tmp_path / "pq.db") as db:
        for _ in range(2):  # the second pass skips every file
            ingest_directory(out_root, db)
            for point_id, stat in expected.items():
                assert db.event_stat(point_id) == stat
                assert db.recompute_event_stat(point_id) == stat
            assert db.event_stat("QUIET") is None
            assert db.event_stat("unknown") is None
        kind = db.conn.execute(
            "SELECT type FROM sqlite_master WHERE name = 'event_stat'"
        ).fetchone()
        assert tuple(kind) == ("view",)


def test_stored_layout_is_the_version_1_layout(tmp_path):
    # a new database's schema and every transfer file's header, as version 1
    # laid them down; a change to either needs a new SCHEMA_VERSION
    data = Path(__file__).parent / "data"
    with StreamDatabase(tmp_path / "pq.db") as db:
        sql = db.conn.execute(
            "SELECT sql FROM sqlite_master WHERE sql IS NOT NULL ORDER BY rowid"
        ).fetchall()
    assert "".join(f"{row[0]};\n" for row in sql) == (data / "schema_v1.sql").read_text()
    result = hand_built_result()
    result.events = [EventRecord(1, "MP1", "sag", 1.0, 2.5, 4800, "Sag/raw_1.pqz")]
    paths = TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME).write_results(result)
    headers = [path.read_text().split("\n", 1)[0] + "\n" for path in paths]
    assert [path.parent.name for path in paths] == [*PARAMETERS, "event"]
    assert "".join(headers) == (data / "headers_v1.txt").read_text()


def test_database_of_another_schema_version_is_refused(tmp_path):
    # the counters were a table before they became a view
    path = tmp_path / "old.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE event (measurement_point_id TEXT, event_id INTEGER, event_type TEXT);"
        "CREATE TABLE event_stat (measurement_point_id TEXT PRIMARY KEY,"
        " event_count INTEGER NOT NULL DEFAULT 0);"
    )
    schema = conn.execute("SELECT * FROM sqlite_master").fetchall()
    conn.close()
    for readonly in (False, True):
        with pytest.raises(StoreError, match="version 0.*version 1.*new database file"):
            StreamDatabase(path, readonly=readonly)
    conn = sqlite3.connect(path)
    assert conn.execute("SELECT * FROM sqlite_master").fetchall() == schema
    assert conn.execute("PRAGMA user_version").fetchone() == (0,)
    conn.close()


def test_ingest_full_chain(written_sag_run, tmp_path):
    out_root, result, _ = written_sag_run
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
        assert report.points_seen == 1
        assert report.files_ingested == 5
        assert report.files_skipped_duplicate == 0
        assert report.files_malformed == []
        assert report.rows_inserted["rms"] == 60
        assert report.rows_inserted["power"] == 12
        assert report.rows_inserted["harmonics"] == 4
        assert report.rows_inserted["frequency"] == 12
        assert report.rows_inserted["event"] == 1
        stat = db.event_stat("MP1")
        assert stat.event_count == 1 and stat.sag_count == 1
        assert db.recompute_event_stat("MP1") == stat


def test_reingest_is_idempotent(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    with StreamDatabase(tmp_path / "pq.db") as db:
        ingest_directory(out_root, db)
        again = ingest_directory(out_root, db)
        assert again.files_ingested == 0
        assert again.files_skipped_duplicate == 5
        assert again.total_rows_inserted == 0
        stat = db.event_stat("MP1")
        assert stat.event_count == 1


def test_reingest_hashes_each_known_file_and_does_not_scan_it(
    written_sag_run, tmp_path, monkeypatch
):
    out_root, _, _ = written_sag_run
    scanned = []
    line_blocks = store._line_blocks

    def counted(f):
        scanned.append(Path(f.name).name)
        return line_blocks(f)

    monkeypatch.setattr(store, "_line_blocks", counted)
    with StreamDatabase(tmp_path / "pq.db") as db:
        assert ingest_directory(out_root, db).files_ingested == 5
        assert len(scanned) == 5
        again = ingest_directory(out_root, db)
    assert (again.files_ingested, again.files_skipped_duplicate) == (0, 5)
    assert len(scanned) == 5


def test_ingest_malformed_file_reported_and_skipped(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    bad = out_root / "MP1" / "power" / "power_000.csv"
    text = bad.read_text().splitlines()
    bad.write_text("\n".join(text[:-1]) + "\n")  # drop the footer line
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
        assert report.files_ingested == 4
        assert len(report.files_malformed) == 1
        path, reason = report.files_malformed[0]
        assert path.endswith("power_000.csv")
        assert reason
        assert "power" not in report.rows_inserted
        assert report.rows_inserted["rms"] == 60


def test_ingest_file_that_is_not_utf8_is_malformed_and_the_rest_ingest(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    bad = out_root / "MP1" / "rms" / "rms_000.csv"
    bad.write_bytes(bad.read_bytes() + b"\xff")
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
        assert report.files_ingested == 4
        assert [path for path, _ in report.files_malformed] == [str(bad)]
        assert "utf-8" in report.files_malformed[0][1]
        assert "rms" not in report.rows_inserted
        assert report.rows_inserted["power"] == 12


def test_ingest_row_of_another_width_and_an_unparsable_footer_are_malformed(
    written_sag_run, tmp_path
):
    out_root, _, _ = written_sag_run
    power = out_root / "MP1" / "power" / "power_000.csv"
    lines = power.read_text().splitlines()
    lines[3] += ",1.5"
    power.write_text("\n".join(lines) + "\n")
    rms = out_root / "MP1" / "rms" / "rms_000.csv"
    lines = rms.read_text().splitlines()
    lines[-1] = "#last_sample=yesterday"
    rms.write_text("\n".join(lines) + "\n")
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
        assert report.files_ingested == 3
        reasons = dict(report.files_malformed)
        assert reasons.keys() == {str(power), str(rms)}
        assert reasons[str(power)] == "row 3 holds 13 cells, expected 12"
        assert reasons[str(rms)].startswith("bad footer timestamp: ")
        assert "power" not in report.rows_inserted and "rms" not in report.rows_inserted
        assert db.conn.execute("SELECT COUNT(*) FROM transfer_file").fetchone()[0] == 3
    summary = report.summary().splitlines()
    assert f"  {power}: row 3 holds 13 cells, expected 12" in summary


def test_ingest_report_summary_lists_each_malformed_file_with_its_reason():
    report = IngestReport(
        points_seen=2,
        files_ingested=3,
        files_skipped_duplicate=1,
        files_malformed=[("A/rms/rms_000.csv", "missing #last_sample footer"),
                         ("B", "missing point metadata")],
        rows_inserted={"rms": 60, "event": 1},
    )
    assert report.summary().splitlines() == [
        "points: 2",
        "files ingested: 3",
        "files skipped (duplicate): 1",
        "files malformed: 2",
        "  A/rms/rms_000.csv: missing #last_sample footer",
        "  B: missing point metadata",
        "rows into event: 1",
        "rows into rms: 60",
    ]


def test_ingest_unknown_event_type_is_malformed_and_stores_no_event(tmp_path):
    root = tmp_path / "tree"
    (root / "EV" / "event").mkdir(parents=True)
    (root / "EV" / "point.json").write_text(json.dumps({"id": "EV"}))
    path = root / "EV" / "event" / "event_000.csv"
    path.write_text(
        f"# columns: {','.join(FILE_COLUMNS['event'])}\n"
        "1,flood,2000-01-01T00:00:01.000000,2000-01-01T00:00:02.000000,3200,\n"
        "#last_sample=2000-01-01T00:00:02.000000\n"
    )
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(root, db)
        assert report.files_malformed == [(str(path), "unknown event type 'flood'")]
        assert db.conn.execute("SELECT COUNT(*) FROM event").fetchone()[0] == 0


def test_ingest_point_directory_without_metadata_is_reported(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    (out_root / "STRAY" / "rms").mkdir(parents=True)
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
    assert (report.points_seen, report.files_ingested) == (1, 5)
    assert report.files_malformed == [(str(out_root / "STRAY"), "missing point metadata")]


def test_ingest_refuses_a_root_that_is_no_directory_and_a_readonly_database(
    written_sag_run, tmp_path
):
    out_root, _, _ = written_sag_run
    db_path = tmp_path / "pq.db"
    with StreamDatabase(db_path) as db:
        for root in (out_root / "MP1" / "point.json", tmp_path / "missing"):
            with pytest.raises(StoreError, match="is not a directory"):
                ingest_directory(root, db)
    with StreamDatabase(db_path, readonly=True) as db:
        with pytest.raises(StoreError, match="read-only"):
            ingest_directory(out_root, db)
        assert db.get_point("MP1") is None


def test_ingest_point_metadata_defaults(tmp_path):
    # a hand-written point.json may omit everything but the id
    root = tmp_path / "tree"
    (root / "HW1").mkdir(parents=True)
    (root / "HW1" / "point.json").write_text(json.dumps({"id": "HW1"}))
    (root / "NOID").mkdir()
    (root / "NOID" / "point.json").write_text(json.dumps({"name": "no id"}))
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(root, db)
        assert db.get_point("HW1") == MeasurementPoint("HW1", "HW1", "busbar", "Urban Only")
    assert report.points_seen == 1
    assert [path for path, _ in report.files_malformed] == [str(root / "NOID" / "point.json")]


@pytest.mark.parametrize(
    "bad_meta",
    [
        [1, 2],
        "A",
        {"id": "A", "base_time": 5},
        {"id": "A", "voltage_level": None},
        {"id": "../A"},
        {"id": "A", "name": ["x"]},
        {"id": "A", "region_name": 5},
        {"id": "A", "voltage_level": True},
        {"id": "A", "voltage_level": "5"},
        {"id": "A", "voltage_level": math.nan},
        {"id": "A", "voltage_level": -math.inf},
    ],
)
def test_ingest_malformed_point_json_skips_only_that_point(tmp_path, bad_meta):
    root = tmp_path / "tree"
    (root / "A").mkdir(parents=True)
    (root / "A" / "point.json").write_text(json.dumps(bad_meta))
    (root / "B").mkdir()
    (root / "B" / "point.json").write_text(json.dumps({"id": "B"}))
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(root, db)
        assert db.get_point("B") == MeasurementPoint("B", "B", "busbar", "Urban Only")
    assert report.points_seen == 1
    assert [path for path, _ in report.files_malformed] == [str(root / "A" / "point.json")]


def test_ingest_future_dated_files_are_malformed_and_store_nothing(tmp_path):
    # a stored file dated after its transfer time could never be read back
    root = tmp_path / "out"
    for point_id, base_time in (("OLD", BASE_TIME), ("NEW", datetime.now() + timedelta(days=365))):
        writer = TransferFileWriter(root, make_point(point_id), base_time)
        writer.write_results(analyze_script("sag 4.0 5.0 B 0.7\n", 12.0, writer))
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(root, db)
        assert report.files_ingested == 5
        assert len(report.files_malformed) == 5
        for path, reason in report.files_malformed:
            assert Path(path).is_relative_to(root / "NEW")
            assert "after the transfer time" in reason
        stored = db.conn.execute(
            "SELECT DISTINCT measurement_point_id FROM transfer_file"
        ).fetchall()
        assert [row[0] for row in stored] == ["OLD"]
        assert len(timeseries(db, "OLD", "rms").rows) == 60
        assert timeseries(db, "NEW", "rms").rows == ()
        assert db.event_stat("NEW") is None


def test_ingest_footer_with_utc_offset_is_malformed(written_sag_run, tmp_path):
    # an aware date cannot be ordered against the naive transfer time
    out_root, _, _ = written_sag_run
    path = out_root / "MP1" / "rms" / "rms_000.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [lines[-1] + "+00:00"]) + "\n")
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
        assert report.files_ingested == 4
        assert [p for p, _ in report.files_malformed] == [str(path)]
        assert timeseries(db, "MP1", "rms").rows == ()


def test_ingest_non_finite_cell_makes_the_file_malformed(tmp_path):
    # SQLite would store NaN as NULL, read back as an undefined value
    root = tmp_path / "tree"
    for point_id, cell in (("GOOD", "1.5"), ("NAN", "nan"), ("INF", "inf"), ("BIG", "1e400")):
        (root / point_id / "rms").mkdir(parents=True)
        (root / point_id / "point.json").write_text(json.dumps({"id": point_id}))
        rows = ["1.0,1.0,1.0,1.0,1.0,1.0", f"1.0,{cell},1.0,1.0,1.0,1.0"]
        footer = f"#last_sample={BASE_TIME.isoformat(timespec='microseconds')}"
        (root / point_id / "rms" / "rms_000.csv").write_text("\n".join(rows + [footer]) + "\n")
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(root, db)
        assert report.files_ingested == 1
        assert report.rows_inserted["rms"] == 2
        assert {Path(path).parts[-3]: reason for path, reason in report.files_malformed} == {
            "NAN": "cell 'nan' is not a finite number",
            "INF": "cell 'inf' is not a finite number",
            "BIG": "cell '1e400' is not a finite number",
        }
        assert timeseries(db, "GOOD", "rms").rows[1][2] == 1.5
        stored = db.conn.execute("SELECT DISTINCT measurement_point_id FROM rms").fetchall()
        assert [row[0] for row in stored] == ["GOOD"]


def hand_built_result() -> PipelineResult:
    """Two records of every parameter, one interval apart, with undefined cells."""
    third = 1.0 / 3.0
    triple = (third, math.pi, 1e-300)
    orders = tuple(
        tuple(third * (p + 1) / (h + 1) for h in range(HARMONIC_ORDERS)) for p in range(3)
    )
    return PipelineResult(
        rms=[RmsRecord(0.2, triple, (2.0, 0.1, 7.0)), RmsRecord(0.4, (0.1, 0.2, 0.3), triple)],
        power=[
            PowerRecord(1.0, triple, (-0.5, 0.0, 0.5), (1.0, 2.0, 3.0), (0.9, 0.8, 0.7)),
            PowerRecord(2.0, (1.5, 2.5, 3.5), triple, triple, (1.0, -1.0, 0.0)),
        ],
        harmonics=[
            HarmonicsRecord(3.0, orders, orders[::-1], (None, 1.5, third), (None, None, 0.25)),
            HarmonicsRecord(6.0, orders[::-1], orders, triple, (0.0, None, 2.0)),
        ],
        frequency=[FrequencyRecord(1.0, 50.01, False), FrequencyRecord(2.0, 49.99, True)],
        demand=[DemandRecord(900.0, triple), DemandRecord(1800.0, (4.0, 5.0, 6.0))],
        flicker_pst=[
            FlickerPstRecord(600.0, (None, 0.5, third)),
            FlickerPstRecord(1200.0, (0.25, None, None)),
        ],
        flicker_plt=[FlickerPltRecord(7200.0, triple), FlickerPltRecord(14400.0, (0.1, 0.2, 0.3))],
    )


def test_round_trip_every_parameter_bit_exact(tmp_path):
    assert set(FLATTEN) == set(PARAMETERS)
    result = hand_built_result()
    TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME).write_results(result)
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(tmp_path / "out", db)
        assert report.files_malformed == []
        assert report.files_ingested == len(PARAMETERS)
        for parameter, flat in FLATTEN.items():
            records = getattr(result, parameter)
            table = timeseries(db, "MP1", parameter)
            assert len(table.rows) == len(records) == 2
            for row, record in zip(table.rows, records):
                assert row[1:] == flat(record)  # bit-exact payload, None stays None
                assert row[0] == BASE_TIME + timedelta(seconds=record.timestamp)


def test_ingest_records_transfer_file_metadata(written_sag_run, tmp_path):
    out_root, result, _ = written_sag_run
    with StreamDatabase(tmp_path / "pq.db") as db:
        ingest_directory(out_root, db)
        tf = db.get_transfer_file(1)
        assert tf is not None
        assert tf.row_count > 0
        # the derived last-row timestamp is the recorded measurement date
        assert derive_timestamps(tf, tf.row_count - 1) == tf.measurement_date
        # content hash matches the bytes on disk
        assert tf.content_hash == hashlib.sha256(Path(tf.path).read_bytes()).hexdigest()


def test_ingest_skips_a_blank_line_inside_a_transfer_file(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    path = out_root / "MP1" / "rms" / "rms_000.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:30] + ["\n", "   \n"] + lines[30:]))
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
    assert report.files_malformed == []
    assert report.files_ingested == 5
    assert report.rows_inserted["rms"] == 60


# -- block-wise ingest against the whole-file parse ----------------------------


def whole_file_outcome(data: bytes, width: int):
    """What ingest made of a transfer file when it decoded and split the whole
    of it at once: the cells of its rows and its footer date, or the reason
    it is malformed."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return str(exc)
    rows, date = [], None
    for line in map(str.strip, lines):
        if line.startswith("#last_sample="):
            try:
                date = datetime.fromisoformat(line.split("=", 1)[1])
            except ValueError as exc:
                return f"bad footer timestamp: {exc}"
            if date.tzinfo is not None:
                return "bad footer timestamp: it carries a UTC offset"
        elif line and not line.startswith("#"):
            cells = line.split(",")
            if len(cells) != width:
                return f"row {len(rows) + 1} holds {len(cells)} cells, expected {width}"
            rows.append(cells)
    if date is None:
        return "missing #last_sample footer"
    for cells in rows:
        try:
            [float(c) for c in cells if c]
        except ValueError as exc:  # a cell that is no number, found as the rows go in
            return str(exc)
    return rows, date


def assert_ingested_as_the_whole_file(root: Path, data: bytes) -> None:
    """Ingest ``data`` as the one rms file of a new point into a new database:
    the report and the stored rows must be what the whole-file parse gives."""
    (root / "P" / "rms").mkdir(parents=True, exist_ok=True)
    (root / "P" / "point.json").write_text(json.dumps({"id": "P"}))
    path = root / "P" / "rms" / "rms_000.csv"
    path.write_bytes(data)
    with StreamDatabase(":memory:") as db:
        report = ingest_directory(root, db)
        stored = db.conn.execute(
            f"SELECT {', '.join(FILE_COLUMNS['rms'])} FROM rms ORDER BY row_index"
        ).fetchall()
        files = db.conn.execute("SELECT id FROM transfer_file").fetchall()
        tf = db.get_transfer_file(files[0][0]) if files else None
    outcome = whole_file_outcome(data, len(FILE_COLUMNS["rms"]))
    if isinstance(outcome, str):
        assert (report.files_ingested, report.files_malformed) == (0, [(str(path), outcome)])
        assert (stored, tf, report.rows_inserted) == ([], None, Counter())
        return
    rows, date = outcome
    assert (report.files_ingested, report.files_malformed) == (1, [])
    assert report.rows_inserted == Counter(rms=len(rows))
    assert [tuple(r) for r in stored] == [tuple(float(c) if c else None for c in r) for r in rows]
    assert (tf.row_count, tf.measurement_date) == (len(rows), date)


def rms_text(rows: int) -> str:
    rng = random.Random(rows)
    lines = [f"# columns: {','.join(FILE_COLUMNS['rms'])}"]
    lines += [
        ",".join("" if rng.random() < 0.05 else format_value(rng.uniform(0, 300)) for _ in range(6))
        for _ in range(rows)
    ]
    lines.append("#last_sample=2000-01-01T00:10:00.000000")
    return "\n".join(lines) + "\n"


def straddling_comment(data: bytes) -> bytes:
    """``data`` with a comment line whose 4-byte character spans the first block edge."""
    start = data.rfind(b"\n", 0, READ_BLOCK - 100) + 1
    comment = b"# " + b"x" * (READ_BLOCK - 2 - start - 2) + "\U0001F600 ☃\n".encode()
    out = data[:start] + comment + data[start:]
    assert out[READ_BLOCK - 2:READ_BLOCK + 2] == "\U0001F600".encode()
    return out


def moved_footer(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:4] + lines[-1:] + lines[4:-1])


def with_spacers(text: str) -> str:
    lines = text.splitlines(keepends=True)
    spacers = ("\n", "   \n", "# note\n", "\t#last_sample\n")  # the last is a comment, no footer
    return "".join(line + spacers[k % 4] for k, line in enumerate(lines))


def widened_row(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[row] = "1," + lines[row]  # line 0 is the header
    return "".join(lines)


def spoiled_cell(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[row] = "x" + lines[row]  # the row's first cell is no number
    return "".join(lines)


LONG = rms_text(2000)


@pytest.mark.parametrize("data", [
    pytest.param(LONG.encode(), id="rows-beyond-one-block"),
    pytest.param(LONG.replace("\n", "\r\n").encode(), id="crlf"),
    pytest.param(LONG.replace("\n", "\r").encode(), id="lone-cr"),
    pytest.param(straddling_comment(LONG.encode()), id="multibyte-across-a-block-edge"),
    pytest.param(straddling_comment(LONG.replace("\n", "\r\n").encode()), id="multibyte-crlf"),
    pytest.param(LONG.encode()[:READ_BLOCK + 99] + b"\xff" + LONG.encode()[READ_BLOCK + 99:],
                 id="invalid-utf8-after-the-first-block"),
    pytest.param(LONG.encode()[:2 * READ_BLOCK - 1] + b"\xe2" + LONG.encode()[2 * READ_BLOCK - 1:],
                 id="invalid-continuation-across-a-block-edge"),
    pytest.param(LONG.encode() + b"\xe2\x98", id="truncated-utf8-at-the-end"),
    pytest.param(with_spacers(LONG).encode(), id="blank-and-comment-lines"),
    pytest.param(moved_footer(LONG).encode(), id="footer-not-on-the-last-line"),
    pytest.param(LONG.replace("\n#last", "\n#last_sample=2000-01-01T00:05:00\n#last").encode(),
                 id="the-last-footer-wins"),
    pytest.param(LONG.encode()[:-41], id="no-footer"),
    pytest.param(widened_row(LONG, 1900).encode(), id="row-of-another-width-late"),
    pytest.param(widened_row(spoiled_cell(LONG, 5), 1900).encode(),
                 id="bad-cell-early-and-row-of-another-width-late"),
    pytest.param(spoiled_cell(LONG, 5).encode()[:-41], id="bad-cell-and-no-footer"),
])
def test_block_wise_ingest_equals_the_whole_file_parse(tmp_path, data):
    assert len(data) > 3 * READ_BLOCK
    assert_ingested_as_the_whole_file(tmp_path, data)


LINE_TEXTS = st.sampled_from([
    "1.5,2,,4e-3,5,6", ",,,,,", "\t7,8,9,10,11,12 ", "1,2,3", "", "   ", "# note ☃\U0001F600",
    "#last_sample=2000-01-01T00:00:01", "#last_sample=2000-01-01T00:00:02+00:00",
    "#last_sample=soon",
])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x85", " ", "\x0c", ""])
STRAY_BYTES = st.sampled_from([b""] * 12 + [b"\xff", b"\xe2\x98", b"\xc3", b"\xed\xa0\x80"])


@given(
    lines=st.lists(st.tuples(LINE_TEXTS, STRAY_BYTES, LINE_ENDS), max_size=25),
    block=st.integers(1, 24),
)
@settings(max_examples=300)
def test_any_block_size_gives_the_whole_file_parse(lines, block):
    data = b"".join(text.encode() + stray + end.encode() for text, stray, end in lines)
    with tempfile.TemporaryDirectory() as root, patch.object(store, "READ_BLOCK", block):
        assert_ingested_as_the_whole_file(Path(root), data)


def test_rms_file_copied_under_power_is_a_duplicate(written_sag_run, tmp_path):
    # the copy is hashed to its end although its rows are too narrow for power
    out_root, _, _ = written_sag_run
    with StreamDatabase(tmp_path / "pq.db") as db:
        ingest_directory(out_root, db)
        point_dir = out_root / "MP1"
        (point_dir / "power" / "power_000.csv").write_bytes(
            (point_dir / "rms" / "rms_000.csv").read_bytes()
        )
        again = ingest_directory(out_root, db)
    assert (again.files_ingested, again.files_skipped_duplicate) == (0, 5)
    assert again.files_malformed == []


def harmonics_tree(root: Path, rows: int) -> Path:
    rng = random.Random(5)
    columns = FILE_COLUMNS["harmonics"]
    distinct = [",".join(format_value(rng.random()) for _ in columns) + "\n" for _ in range(7)]
    (root / "H" / "harmonics").mkdir(parents=True)
    (root / "H" / "point.json").write_text(json.dumps({"id": "H"}))
    with (root / "H" / "harmonics" / "harmonics_000.csv").open("w") as f:
        f.write(f"# columns: {','.join(columns)}\n")
        for k in range(rows):
            f.write(distinct[k % len(distinct)])
        f.write("#last_sample=2000-01-01T01:00:00.000000\n")
    return root


def test_ingest_memory_does_not_grow_with_the_file(tmp_path):
    # rows of 204 seventeen-digit cells: 200 rows are about 0.8 MB, 1600 about 6.5 MB
    def peak(rows: int) -> int:
        root = harmonics_tree(tmp_path / f"tree{rows}", rows)
        with StreamDatabase(tmp_path / f"pq{rows}.db") as db:
            tracemalloc.start()
            try:
                report = ingest_directory(root, db)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert report.rows_inserted == Counter(harmonics=rows)
        return peak

    small, large = peak(200), peak(1600)
    assert abs(large - small) < 1_000_000, (small, large)


def test_malformed_file_is_rolled_back_to_its_savepoint(tmp_path):
    # rows of the bad file go in block by block before its fault is read
    root = tmp_path / "tree"
    (root / "P" / "rms").mkdir(parents=True)
    (root / "P" / "point.json").write_text(json.dumps({"id": "P"}))
    wide = widened_row(LONG, 1900).encode()
    future = spoiled_cell(rms_text(20), 5).replace("2000-01-01", "2999-01-01")
    files = [rms_text(3).encode(), wide, future.encode(), rms_text(4).encode()]
    paths = [root / "P" / "rms" / f"rms_00{k}.csv" for k in range(len(files))]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    assert wide.index(b"\n1,") > READ_BLOCK
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(root, db)
        assert (report.files_ingested, report.rows_inserted) == (2, Counter(rms=7))
        assert report.files_malformed == [
            (str(paths[1]), "row 1900 holds 7 cells, expected 6"),
            (str(paths[2]), "last sample 2999-01-01 00:10:00 is after the transfer time"),
        ]
        assert db.get_point("P") == MeasurementPoint("P", "P", "busbar", "Urban Only")
        kept = db.conn.execute("SELECT id, path, row_count FROM transfer_file")
        assert list(map(tuple, kept)) == [(1, str(paths[0].resolve()), 3),
                                          (2, str(paths[3].resolve()), 4)]
        stored = db.conn.execute("SELECT transfer_file_id, COUNT(*) FROM rms GROUP BY 1")
        assert list(map(tuple, stored)) == [(1, 3), (2, 4)]
        # the first block of the wide file was inserted, then undone
        assert db.conn.total_changes > 7 + wide[:READ_BLOCK].count(b"\n")


def test_each_file_savepoint_opens_inside_a_transaction(tmp_path):
    # outside one, RELEASE would commit each file after a bad cell's rollback on its own
    root = tmp_path / "tree"
    texts = {"A": [spoiled_cell(rms_text(5), 2), rms_text(6), rms_text(7)], "B": [rms_text(8)]}
    for point_id, files in texts.items():
        (root / point_id / "rms").mkdir(parents=True)
        (root / point_id / "point.json").write_text(json.dumps({"id": point_id}))
        for k, text in enumerate(files):
            (root / point_id / "rms" / f"rms_00{k}.csv").write_text(text)
    with StreamDatabase(tmp_path / "pq.db") as db:
        nested = []
        db.conn.set_trace_callback(
            lambda sql: sql == "SAVEPOINT f" and nested.append(db.conn.in_transaction)
        )
        report = ingest_directory(root, db)
        db.conn.set_trace_callback(None)
    assert [path for path, _ in report.files_malformed] == [str(root / "A" / "rms" / "rms_000.csv")]
    assert nested == [True] * 4


def test_ingest_report_summary_lines(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(out_root, db)
    text = report.summary()
    assert "files ingested: 5" in text
    assert "rows into rms: 60" in text


def test_readonly_database_rejects_writes(written_sag_run, tmp_path):
    out_root, _, _ = written_sag_run
    db_path = tmp_path / "pq.db"
    with StreamDatabase(db_path) as db:
        ingest_directory(out_root, db)
    with StreamDatabase(db_path, readonly=True) as db:
        assert db.get_point("MP1") is not None
        with pytest.raises(Exception):
            db.upsert_point(make_point("MP2"))
