"""Query layer over the ingested database, plus the chart renderers."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from pqstream.analyzer import run_pipeline
from pqstream.charts import ChartError, ChartSpec, format_text_table, render_chart
from pqstream.events import (
    EventDetector,
    EventThresholds,
    decode_raw_capture,
    encode_raw_capture,
)
from pqstream.query import (
    NotFoundError,
    QueryError,
    QuerySpec,
    ResultTable,
    aggregate_events,
    event_detail,
    extract_raw_capture,
    timeseries,
)
from pqstream.siggen import SAMPLE_RATE, generate_stream, parse_script
from pqstream.store import (
    MeasurementPoint,
    StreamDatabase,
    TransferFileWriter,
    ingest_directory,
)

from conftest import BASE_TIME, unit_config, unit_pipeline_config

POINTS = (
    MeasurementPoint("MP1", "Mill feeder", "feeder", "Heavy Industry"),
    MeasurementPoint("MP2", "East bus", "busbar", "Urban Only"),
    MeasurementPoint("MP3", "West bus", "busbar", "Urban Only"),
)

SCRIPTS = {
    "MP1": "sag 2.0 3.0 A 0.8\nswell 5.0 5.6 B 1.2\nsag 8.0 8.4 C 0.75\n",
    "MP2": "interruption 4.0 5.0 ABC 0.0\n",
    "MP3": "unbalance 2.0 4.0 C 0.93\nsag 7.0 7.6 A 0.8\n",
}


def run_point(out_root, point):
    writer = TransferFileWriter(out_root, point, BASE_TIME)
    detector = EventDetector(
        EventThresholds(nominal_voltage_rms=1.0),
        measurement_point_id=point.id,
        raw_sink=writer.raw_sink,
    )
    result = run_pipeline(
        generate_stream(unit_config(12.0), parse_script(SCRIPTS[point.id])),
        unit_pipeline_config(),
        detector=detector,
    )
    writer.write_results(result)
    return result


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three analyzed points written out and ingested once for all tests."""
    root = tmp_path_factory.mktemp("corpus")
    out_root = root / "transfer"
    results = {p.id: run_point(out_root, p) for p in POINTS}
    db_path = root / "pq.db"
    with StreamDatabase(db_path) as db:
        report = ingest_directory(out_root, db)
        assert not report.files_malformed
    return out_root, db_path, results


@pytest.fixture
def db(corpus):
    _, db_path, _ = corpus
    with StreamDatabase(db_path, readonly=True) as handle:
        yield handle


# -- timeseries ---------------------------------------------------------------


def test_timeseries_values_bit_exact(db, corpus):
    _, _, results = corpus
    table = timeseries(db, "MP1", "rms")
    records = results["MP1"].rms
    assert table.columns == ("timestamp", "v_a", "v_b", "v_c", "i_a", "i_b", "i_c")
    assert len(table.rows) == len(records) == 60
    for row, record in zip(table.rows, records):
        assert row[1:4] == record.v_rms
        assert row[4:7] == record.i_rms


def test_timeseries_timestamps_derived_from_measurement_date(db):
    table = timeseries(db, "MP1", "rms")
    assert table.rows[0][0] == BASE_TIME + timedelta(milliseconds=200)
    assert table.rows[-1][0] == BASE_TIME + timedelta(seconds=12)
    deltas = {b[0] - a[0] for a, b in zip(table.rows, table.rows[1:])}
    assert deltas == {timedelta(milliseconds=200)}


def test_timeseries_inclusive_range_bounds(db):
    start = BASE_TIME + timedelta(seconds=1)
    end = BASE_TIME + timedelta(seconds=2)
    table = timeseries(db, "MP1", "rms", start=start, end=end)
    assert len(table.rows) == 6  # 1.0, 1.2, ..., 2.0 inclusive
    assert table.rows[0][0] == start
    assert table.rows[-1][0] == end


def test_timeseries_empty_range(db):
    table = timeseries(
        db, "MP1", "rms",
        start=BASE_TIME + timedelta(days=1),
        end=BASE_TIME + timedelta(days=2),
    )
    assert table.rows == ()
    assert table.columns[0] == "timestamp"


def test_timeseries_unknown_point(db):
    with pytest.raises(NotFoundError):
        timeseries(db, "nope", "rms")


def test_timeseries_rejects_event_parameter(db):
    with pytest.raises(QueryError):
        timeseries(db, "MP1", "event")
    with pytest.raises(QueryError):
        timeseries(db, "MP1", "bogus")


def test_timeseries_harmonics_column_count(db):
    table = timeseries(db, "MP2", "harmonics")
    assert len(table.columns) == 1 + 33 * 6 + 6
    assert "v_a_h1" in table.columns and "i_c_h33" in table.columns
    assert "thd_v_a" in table.columns


# -- event aggregation --------------------------------------------------------


def brute_force_counts(db, group_key):
    """Recount events straight from the event table, bypassing the counters."""
    groups: dict[str, dict[str, int]] = {}
    for row in db.conn.execute(
        "SELECT e.event_type, mp.{} AS g FROM event e"
        " JOIN measurement_point mp ON e.measurement_point_id = mp.id".format(group_key)
    ):
        bucket = groups.setdefault(row["g"], {"sag": 0, "swell": 0, "unbalance": 0, "all": 0})
        bucket[row["event_type"]] = bucket.get(row["event_type"], 0) + 1
        bucket["all"] += 1
    return groups


def test_aggregate_default_by_load_type_matches_event_scan(db):
    table = aggregate_events(db, QuerySpec(group_by=("load_type",)))
    assert table.columns == (
        "load_type", "sum_sag_count", "sum_swell_count",
        "sum_unbalance_count", "sum_event_count",
    )
    oracle = brute_force_counts(db, "load_type")
    assert len(table.rows) == len(oracle)
    for load_type, sags, swells, unbalances, total in table.rows:
        bucket = oracle[load_type]
        assert sags == bucket["sag"]
        assert swells == bucket["swell"]
        assert unbalances == bucket["unbalance"]
        assert total == bucket["all"]


def test_aggregate_rows_ordered_by_group_key(db):
    table = aggregate_events(db, QuerySpec(group_by=("load_type",)))
    keys = [row[0] for row in table.rows]
    assert keys == sorted(keys)
    assert keys == ["Heavy Industry", "Urban Only"]


def test_aggregate_ungrouped_totals(db):
    table = aggregate_events(db)
    assert len(table.rows) == 1
    # 3 sags + 1 swell + 1 interruption + 1 unbalance across the corpus
    assert table.rows[0][-1] == 6


def test_aggregate_with_filter(db):
    spec = QuerySpec(
        filters=(("point_kind", "busbar"),),
        group_by=("id",),
        aggregates=(("sum", "event_count"),),
    )
    table = aggregate_events(db, spec)
    assert [row[0] for row in table.rows] == ["MP2", "MP3"]


def test_aggregate_count_and_extrema_functions(db):
    spec = QuerySpec(
        aggregates=(("count", "event_count"), ("max", "sag_count"), ("min", "sag_count")),
    )
    table = aggregate_events(db, spec)
    assert table.rows[0] == (3, 2, 0)


def test_aggregate_no_match_yields_empty_table(db):
    spec = QuerySpec(filters=(("city_name", "Atlantis"),))
    table = aggregate_events(db, spec)
    assert table.rows == ()


def test_aggregate_invalid_spec_rejected(db):
    with pytest.raises(QueryError):
        QuerySpec(group_by=("favourite_colour",))
    with pytest.raises(QueryError):
        QuerySpec(aggregates=(("median", "sag_count"),))
    with pytest.raises(QueryError):
        QuerySpec(aggregates=(("sum", "petabytes"),))
    with pytest.raises(QueryError):
        QuerySpec(aggregates=())
    with pytest.raises(QueryError):
        QuerySpec(filters=(("drop table", "x"),))


def test_queries_leave_database_bytes_untouched(corpus):
    _, db_path, _ = corpus
    before = hashlib.sha256(Path(db_path).read_bytes()).hexdigest()
    with StreamDatabase(db_path, readonly=True) as db:
        timeseries(db, "MP1", "power")
        aggregate_events(db, QuerySpec(group_by=("load_type",)))
        event_detail(db, 1, point_id="MP1")
    after = hashlib.sha256(Path(db_path).read_bytes()).hexdigest()
    assert before == after


def test_query_results_are_deterministic(db):
    first = aggregate_events(db, QuerySpec(group_by=("load_type",)))
    second = aggregate_events(db, QuerySpec(group_by=("load_type",)))
    assert first == second
    assert timeseries(db, "MP3", "rms") == timeseries(db, "MP3", "rms")


# -- event detail and raw extraction ------------------------------------------


def test_event_detail_requires_disambiguation(db):
    with pytest.raises(QueryError, match="several points"):
        event_detail(db, 1)
    event = event_detail(db, 1, point_id="MP2")
    assert event.event_type == "interruption"
    assert event.start_time == BASE_TIME + timedelta(seconds=4)
    assert event.end_time == BASE_TIME + timedelta(seconds=5)
    assert event.size_in_samples == 3200


def test_event_detail_not_found(db):
    with pytest.raises(NotFoundError):
        event_detail(db, 999)


def test_extract_raw_capture_row_count(db, tmp_path):
    event = event_detail(db, 1, point_id="MP2")
    assert event.raw_path
    out = extract_raw_capture(event, tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_index,v_a,v_b,v_c,i_a,i_b,i_c"
    # 0.2 s margins around the 1 s interruption
    assert len(lines) - 1 == int(1.4 * SAMPLE_RATE)
    first_index = int(lines[1].split(",")[0])
    assert first_index == int(3.8 * SAMPLE_RATE)
    _, samples = decode_raw_capture(Path(event.raw_path).read_bytes())
    cells = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    assert cells.T.tobytes() == samples.tobytes()  # bit-equal, signs of zero included
    # every cell prints as format(x, ".17g"), extremes included
    block = np.array([[-0.0, 5e-324, 1e300, 1 / 3, -2.5, 0.1]] * 3).T * [1.0, -1.0, 3.0]
    blob_path = tmp_path / "hand.pqz"
    blob_path.write_bytes(encode_raw_capture(7, 100, block))
    out = extract_raw_capture(replace(event, event_id=7, raw_path=str(blob_path)), tmp_path)
    assert out.read_text().splitlines()[1:] == [
        f"{100 + k}," + ",".join(format(x, ".17g") for x in column)
        for k, column in enumerate(block.T)
    ]


def test_extract_raw_capture_missing_blob(tmp_path, db):
    event = event_detail(db, 1, point_id="MP2")
    orphan = type(event)(
        measurement_point_id=event.measurement_point_id,
        event_id=event.event_id,
        event_type=event.event_type,
        start_time=event.start_time,
        end_time=event.end_time,
        size_in_samples=event.size_in_samples,
        raw_path=None,
    )
    with pytest.raises(NotFoundError):
        extract_raw_capture(orphan, tmp_path)


# -- charts -------------------------------------------------------------------


def test_time_series_chart_polyline_per_column(db, tmp_path):
    table = timeseries(db, "MP1", "rms")
    out = render_chart(table, ChartSpec(kind="time_series", title="rms"), tmp_path / "c.svg")
    svg = out.read_text()
    assert svg.count('class="series"') == 6
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_bar_chart_one_bar_per_measure(db, tmp_path):
    table = aggregate_events(db)
    out = render_chart(table, ChartSpec(kind="bar", title="events"), tmp_path / "b.svg")
    svg = out.read_text()
    assert svg.count('class="bar"') == 4


def test_bar_chart_one_bar_per_group(db, tmp_path):
    spec = QuerySpec(group_by=("load_type",), aggregates=(("sum", "event_count"),))
    table = aggregate_events(db, spec)
    out = render_chart(table, ChartSpec(kind="bar"), tmp_path / "g.svg")
    assert out.read_text().count('class="bar"') == 2


def test_pie_chart_slice_per_group(db, tmp_path):
    spec = QuerySpec(group_by=("load_type",), aggregates=(("sum", "event_count"),))
    table = aggregate_events(db, spec)
    out = render_chart(table, ChartSpec(kind="pie"), tmp_path / "p.svg")
    assert out.read_text().count('class="slice"') == 2


def test_pie_chart_rejects_multiple_measures(db, tmp_path):
    table = aggregate_events(db, QuerySpec(group_by=("load_type",)))
    with pytest.raises(ChartError):
        render_chart(table, ChartSpec(kind="pie"), tmp_path / "x.svg")


def test_pie_chart_rejects_negative_values(tmp_path):
    table = ResultTable(columns=("k", "v"), rows=(("a", 1.0), ("b", -2.0)))
    with pytest.raises(ChartError):
        render_chart(table, ChartSpec(kind="pie"), tmp_path / "x.svg")


def test_time_series_chart_requires_time_column(tmp_path):
    table = ResultTable(columns=("k", "v"), rows=(("a", 1.0),))
    with pytest.raises(ChartError):
        render_chart(table, ChartSpec(kind="time_series"), tmp_path / "x.svg")


def test_chart_rendering_is_deterministic(db, tmp_path):
    table = timeseries(db, "MP2", "power")
    spec = ChartSpec(kind="time_series", title="power")
    a = render_chart(table, spec, tmp_path / "a.svg").read_bytes()
    b = render_chart(table, spec, tmp_path / "b.svg").read_bytes()
    assert a == b


def test_table_kind_writes_aligned_text(db, tmp_path):
    table = aggregate_events(db, QuerySpec(group_by=("load_type",)))
    out = render_chart(table, ChartSpec(kind="table"), tmp_path / "t.txt")
    text = out.read_text()
    assert "load_type" in text
    assert "Heavy Industry" in text
    assert text == format_text_table(table) + "\n"


def test_format_text_table_none_and_datetime_cells():
    table = ResultTable(
        columns=("timestamp", "value"),
        rows=((datetime(2000, 1, 1), None), (datetime(2000, 1, 2), 1.5)),
    )
    text = format_text_table(table)
    assert "2000-01-01T00:00:00.000000" in text
    assert "1.5" in text


def test_result_table_row_width_checked():
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "b"), rows=((1,),))
