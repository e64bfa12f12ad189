"""Transfer-file layout, the ingestion database, and the traffic budget."""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
from pqstream.events import EventDetector, EventThresholds
from pqstream.siggen import SAMPLE_RATE, generate_stream, parse_script
from pqstream.query import timeseries
from pqstream.store import (
    PARAMETERS,
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
    with pytest.raises(ValueError):
        make_point(point_id="")


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


CELLS = st.one_of(
    st.floats(),
    st.booleans(),
    st.none(),
    st.integers(min_value=10**17, max_value=10**30),
)


@given(rows=st.lists(st.one_of(st.lists(st.floats(), max_size=12), st.lists(CELLS, max_size=12))))
@example(rows=[[-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]])
@example(rows=[[1.5, None, True, 10**20], [1.5, 2.5]])
@settings(max_examples=200)
def test_csv_lines_equal_the_per_cell_format(tmp_path_factory, rows):
    writer = TransferFileWriter(tmp_path_factory.mktemp("csv"), make_point(), BASE_TIME)
    path = writer._write_csv("rms", rows, BASE_TIME, 0)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[1:-2] == [",".join(format_value(v) for v in row) for row in rows]


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


# -- database and ingestion ---------------------------------------------------


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
    "bad_meta", [[1, 2], "A", {"id": "A", "base_time": 5}, {"id": "A", "voltage_level": None}]
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
    flatten = {
        "rms": lambda r: r.v_rms + r.i_rms,
        "power": lambda r: r.active + r.reactive + r.apparent + r.power_factor,
        "harmonics": lambda r: (
            sum(r.v_harmonics, ()) + sum(r.i_harmonics, ()) + r.thd_v + r.thd_i
        ),
        "frequency": lambda r: (r.frequency, float(r.held)),
        "demand": lambda r: r.demand,
        "flicker_pst": lambda r: r.pst,
        "flicker_plt": lambda r: r.plt,
    }
    assert set(flatten) == set(PARAMETERS)
    result = hand_built_result()
    TransferFileWriter(tmp_path / "out", make_point(), BASE_TIME).write_results(result)
    with StreamDatabase(tmp_path / "pq.db") as db:
        report = ingest_directory(tmp_path / "out", db)
        assert report.files_malformed == []
        assert report.files_ingested == len(PARAMETERS)
        for parameter, flat in flatten.items():
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
