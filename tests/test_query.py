"""Query layer over the ingested database, plus the chart renderers."""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqstream import charts
from pqstream.analyzer import run_pipeline
from pqstream.charts import ChartError, ChartSpec, format_text_table, render_chart
from pqstream.events import (
    EventDetector,
    EventThresholds,
    RawCaptureError,
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
    PARAMETERS,
    MeasurementPoint,
    StreamDatabase,
    TransferFile,
    TransferFileWriter,
    derive_timestamps,
    ingest_directory,
)

from conftest import (
    BASE_TIME,
    V1_CAPTURE,
    unit_config,
    unit_pipeline_config,
    v1_capture_samples,
)

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
    with pytest.raises(NotFoundError, match=r"^measurement point 'nope' not in the database$"):
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


def test_timeseries_rejects_bounds_with_utc_offset(db):
    aware = datetime.fromisoformat("2000-01-01T00:00:01+00:00")
    with pytest.raises(QueryError, match="UTC offset"):
        timeseries(db, "MP1", "rms", start=aware)
    with pytest.raises(QueryError, match="UTC offset"):
        timeseries(db, "MP1", "rms", end=aware)


def write_series_file(point_dir: Path, parameter: str, seq: int, rows, last_sample) -> None:
    """Lay down one transfer CSV by hand, as the writer formats it."""
    directory = point_dir / parameter
    directory.mkdir(exist_ok=True)
    lines = [f"# columns: {','.join(PARAMETERS[parameter].columns)}"]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    lines.append(f"#last_sample={last_sample.isoformat(timespec='microseconds')}")
    (directory / f"{parameter}_{seq:03d}.csv").write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def overlap_db(tmp_path_factory):
    """Point MP9 measured twice, the second run 5 s after the first.

    The analyzer fills the fast parameters; the slow ones, which a 12 s
    run never reaches, get two overlapping hand-written files each.
    """
    root = tmp_path_factory.mktemp("overlap")
    point = MeasurementPoint("MP9", "Twice", "busbar", "Urban Only")
    for seq, offset in enumerate((0, 5)):
        start = BASE_TIME + timedelta(seconds=offset)
        writer = TransferFileWriter(root / "transfer", point, start)
        script = parse_script(f"sag {offset + 1}.0 {offset + 2}.0 A 0.8\n")
        result = run_pipeline(generate_stream(unit_config(12.0), script), unit_pipeline_config())
        writer.write_results(result, file_seq=seq)
    for name in ("demand", "flicker_pst", "flicker_plt"):
        step = PARAMETERS[name].interval
        width = len(PARAMETERS[name].columns)
        ends = ((7, BASE_TIME + 7 * step), (5, BASE_TIME + 3.5 * step))  # the second is off-grid
        for seq, (count, last) in enumerate(ends):
            rows = [[seq + 0.25 * i + 0.001 * c for c in range(width)] for i in range(count)]
            write_series_file(writer.point_dir, name, seq, rows, last)
    with StreamDatabase(root / "pq.db") as handle:
        assert not ingest_directory(root / "transfer", handle).files_malformed
    with StreamDatabase(root / "pq.db", readonly=True) as handle:
        yield handle


def reference_timeseries(db, point_id, parameter, start, end):
    """Date every stored row on its own, filter, then stable-sort by time."""
    columns = PARAMETERS[parameter].columns
    rows = []
    for data in db.conn.execute(
        f"SELECT * FROM {parameter} WHERE measurement_point_id = ?"
        " ORDER BY transfer_file_id, row_index",
        (point_id,),
    ):
        ts = derive_timestamps(db.get_transfer_file(data["transfer_file_id"]), data["row_index"])
        if (start is None or ts >= start) and (end is None or ts <= end):
            rows.append((ts, *(data[c] for c in columns)))
    return sorted(rows, key=lambda r: r[0])


def bound_cases(db, point_id, parameter):
    """No bounds, bounds on a row, 1 us off it, outside the data, reversed."""
    step = PARAMETERS[parameter].interval
    us = timedelta(microseconds=1)
    files = [
        TransferFile.from_row(r)
        for r in db.conn.execute(
            "SELECT * FROM transfer_file WHERE measurement_point_id = ? AND parameter_type = ?",
            (point_id, parameter),
        )
    ]
    assert len(files) == 2
    first = min(derive_timestamps(f, 0) for f in files)
    last = max(f.measurement_date for f in files)
    on_grid = derive_timestamps(files[0], 2)
    return [
        (None, None),
        (on_grid, None),
        (None, on_grid),
        (on_grid, on_grid + 3 * step),
        (on_grid + us, on_grid + 3 * step - us),
        (on_grid - us, on_grid + 3 * step + us),
        (first - 10 * step, first - step),
        (last + us, last + 10 * step),
        (on_grid + step, on_grid),
    ]


@pytest.mark.parametrize("parameter", list(PARAMETERS))
def test_timeseries_matches_row_by_row_reference(overlap_db, parameter):
    for start, end in bound_cases(overlap_db, "MP9", parameter):
        table = timeseries(overlap_db, "MP9", parameter, start=start, end=end)
        expected = reference_timeseries(overlap_db, "MP9", parameter, start, end)
        assert list(table.rows) == expected, (start, end)
    assert timeseries(overlap_db, "MP9", parameter).rows  # both runs stored rows


def test_ranged_read_cost_does_not_grow_with_history(tmp_path):
    """SQLite VM steps for a 10 s window stay flat from 60 s to 600 s of rms."""
    steps_taken = []
    for seconds in (60, 600):
        root = tmp_path / f"s{seconds}"
        point = MeasurementPoint(f"H{seconds}", "History", "busbar", "Urban Only")
        writer = TransferFileWriter(root / "transfer", point, BASE_TIME)
        count = seconds * 5
        rows = [[1.0 + i * 1e-6] * 6 for i in range(count)]
        write_series_file(writer.point_dir, "rms", 0, rows, BASE_TIME + timedelta(seconds=seconds))
        with StreamDatabase(root / "pq.db") as handle:
            ingest_directory(root / "transfer", handle)
            end = BASE_TIME + timedelta(seconds=seconds // 2)
            ticks = [0]

            def tick():
                ticks[0] += 1
                return 0

            handle.conn.set_progress_handler(tick, 100)
            table = timeseries(handle, point.id, "rms", end - timedelta(seconds=10), end)
            handle.conn.set_progress_handler(None, 100)
        assert len(table.rows) == 51
        steps_taken.append(ticks[0])
    assert max(steps_taken) <= 2 * min(steps_taken), steps_taken


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


def test_event_detail_not_found_names_the_point(db):
    with pytest.raises(NotFoundError, match="'MP3'"):
        event_detail(db, 3, point_id="MP3")


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


def test_extract_raw_capture_same_csv_for_v1_and_v2(db, tmp_path):
    event = replace(event_detail(db, 1, point_id="MP2"), event_id=3, raw_path=str(V1_CAPTURE))
    v1 = extract_raw_capture(event, tmp_path / "v1").read_bytes()
    blob_path = tmp_path / "v2.pqz"
    blob_path.write_bytes(encode_raw_capture(3, 4480, v1_capture_samples()))
    v2 = extract_raw_capture(replace(event, raw_path=str(blob_path)), tmp_path / "v2")
    assert v2.read_bytes() == v1
    # the bytes the whole-capture exporter wrote for this capture
    digest = "b3f2a175343d8ae1757e0cf5471673687852b7f779e3085c4d430b4520531aef"
    assert hashlib.sha256(v1).hexdigest() == digest


def test_extract_raw_capture_leaves_no_csv_for_a_bad_capture(db, tmp_path):
    event = event_detail(db, 1, point_id="MP2")
    blob_path = tmp_path / "cut.pqz"
    # every block decodes and is written before the cut checksum is found
    blob_path.write_bytes(Path(event.raw_path).read_bytes()[:-4])
    with pytest.raises(RawCaptureError):
        extract_raw_capture(replace(event, raw_path=str(blob_path)), tmp_path / "out")
    assert not list((tmp_path / "out").iterdir())


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


def polyline_vertex_counts(path: Path) -> list[int]:
    """Vertices per polyline, counted the way the benchmark's SVG check does."""
    root = ET.parse(path).getroot()
    lines = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polyline"]
    return [len(el.get("points", "").split()) for el in lines]


def test_time_series_chart_polyline_per_column(db, tmp_path):
    table = timeseries(db, "MP1", "rms")
    out = render_chart(table, ChartSpec(kind="time_series", title="rms"), tmp_path / "c.svg")
    svg = out.read_text()
    assert svg.count('class="series"') == 6
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert polyline_vertex_counts(out) == [len(table.rows)] * 6
    # a None cell gets no vertex, and a column of None cells no polyline
    rows = tuple(
        (row[0], None if n % 3 == 0 else row[1], None, *row[3:])
        for n, row in enumerate(table.rows)
    )
    table = ResultTable(columns=table.columns, rows=rows)
    out = render_chart(table, ChartSpec(kind="time_series"), tmp_path / "n.svg")
    assert polyline_vertex_counts(out) == [40, 60, 60, 60, 60]


def _reference_numeric_columns(table: ResultTable) -> list[int]:
    def is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    out = []
    for idx in range(len(table.columns)):
        present = [row[idx] for row in table.rows if row[idx] is not None]
        if present and all(is_number(c) for c in present):
            out.append(idx)
    return out


def reference_time_series(table: ResultTable, spec: ChartSpec) -> str:
    """The per-vertex renderer the column-wise one replaced: it maps and
    formats every vertex on its own, which defines the expected bytes."""
    if not table.rows:
        raise ChartError("time_series needs at least one row")
    if not all(isinstance(row[0], datetime) for row in table.rows):
        raise ChartError("time_series needs timestamps in the first column")
    numeric = [i for i in _reference_numeric_columns(table) if i != 0]
    if not numeric:
        raise ChartError("time_series needs at least one numeric column")
    times = [row[0] for row in table.rows]
    t0 = times[0]
    xs = [(t - t0).total_seconds() for t in times]
    span_x = xs[-1] - xs[0] or 1.0
    values = [float(row[i]) for row in table.rows for i in numeric if row[i] is not None]
    lo, hi = min(values), max(values)
    pad = 0.05 * ((abs(lo) if lo != 0 else 1.0) if lo == hi else hi - lo)
    if pad == 0 and lo == hi:  # 5 % of a subnormal underflows
        pad = 0.05
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise ChartError("span overflows")
    x0, y0 = charts.MARGIN_LEFT, charts.HEIGHT - charts.MARGIN_BOTTOM
    x1, y1 = charts.WIDTH - charts.MARGIN_RIGHT, charts.MARGIN_TOP
    parts = charts._svg_header(spec)
    charts._axis_frame(parts)
    charts._y_ticks(parts, lo, hi)

    def sx(x: float) -> float:
        return x0 + (x - xs[0]) / span_x * (x1 - x0)

    def sy(v: float) -> float:
        return y0 - (v - lo) / (hi - lo) * (y0 - y1)

    for n, col in enumerate(numeric):
        color = charts.PALETTE[n % len(charts.PALETTE)]
        points = " ".join(
            f"{charts._fmt(sx(x))},{charts._fmt(sy(float(row[col])))}"
            for x, row in zip(xs, table.rows)
            if row[col] is not None
        )
        parts.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{x1 - 150}" y="{y1 + 14 + 14 * n}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{charts._escape(table.columns[col])}</text>'
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


def assert_chart_matches_reference(table: ResultTable, out: Path) -> None:
    spec = ChartSpec(kind="time_series", title="ref")
    try:
        expected = reference_time_series(table, spec)
    except ChartError:
        with pytest.raises(ChartError):
            render_chart(table, spec, out)
        return
    assert render_chart(table, spec, out).read_bytes() == expected.encode("utf-8")


@st.composite
def chart_tables(draw) -> ResultTable:
    """1-50 rows under arbitrary timestamps; 1-4 float, int or constant
    columns with None cells, plus at times a bool column, which is not drawn."""
    n = draw(st.integers(min_value=1, max_value=50))
    micros = draw(st.lists(st.integers(min_value=0, max_value=10**11), min_size=n, max_size=n))
    columns = [[BASE_TIME + timedelta(microseconds=us) for us in micros]]
    kinds = draw(st.lists(st.sampled_from(("float", "int", "constant")), min_size=1, max_size=4))
    if draw(st.booleans()):
        kinds.insert(draw(st.integers(min_value=0, max_value=len(kinds))), "bool")
    for kind in kinds:
        cell = {
            "float": st.floats(min_value=-1e9, max_value=1e9),
            "int": st.integers(min_value=-10**6, max_value=10**6),
            "constant": st.just(draw(st.floats(min_value=-1e3, max_value=1e3))),
            "bool": st.booleans(),
        }[kind]
        columns.append(draw(st.lists(st.none() | cell, min_size=n, max_size=n)))
    names = ("timestamp", *(f"{kind}{i}" for i, kind in enumerate(kinds)))
    return ResultTable(columns=names, rows=tuple(zip(*columns)))


@given(table=chart_tables())
# rounding to 0.01 tells apart a reordered x or y mapping only near a tie, as here
@example(
    table=ResultTable(
        columns=("timestamp", "v"),
        rows=tuple(
            (BASE_TIME + timedelta(seconds=s), v) for s, v in ((0, 158), (259, -363), (400, 437))
        ),
    )
)
# a constant subnormal column, whose 5 % pad underflows to 0
@example(table=ResultTable(columns=("timestamp", "v"), rows=((BASE_TIME, 5e-324),) * 2))
# values whose span overflows a float
@example(
    table=ResultTable(
        columns=("timestamp", "v"),
        rows=((BASE_TIME, -1.79e308), (BASE_TIME + timedelta(seconds=1), 1.79e308)),
    )
)
# unsorted timestamps, which put the second vertex left of the plot, at x < 0
@example(
    table=ResultTable(
        columns=("timestamp", "v"),
        rows=tuple((BASE_TIME + timedelta(seconds=s), 1.0 * s) for s in (5, 0, 9)),
    )
)
@settings(max_examples=200, deadline=None)
def test_time_series_chart_bytes_equal_reference(table, tmp_path_factory):
    assert_chart_matches_reference(table, tmp_path_factory.getbasetemp() / "hypothesis.svg")


@pytest.mark.parametrize("parameter", list(PARAMETERS))
def test_time_series_chart_bytes_equal_reference_on_stored_series(
    overlap_db, db, parameter, tmp_path
):
    tables = [timeseries(overlap_db, "MP9", parameter)]
    tables += [timeseries(db, point.id, parameter) for point in POINTS]
    assert tables[0].rows
    for n, table in enumerate(tables):
        assert_chart_matches_reference(table, tmp_path / f"{n}.svg")


def half_cent_ties() -> np.ndarray:
    """Every k + 0.5 cents below 1000, as the nearest floats."""
    return (np.arange(100_000) + 0.5) / 100


@pytest.mark.parametrize(
    "values",
    [
        half_cent_ties(),
        np.nextafter(half_cent_ties(), 0.0),
        np.nextafter(half_cent_ties(), np.inf),
        # ties that floats hold exactly, which round half to even
        np.array([0.125, 0.375, 0.625, 0.875, 12.125, 370.375, 511.625, 999.875]),
        np.array([0.0, -0.0, -0.001, 5e-324, 0.004, 0.005, 9.995, 99.995]),
        np.array([999.99, 999.995, 999.996, 1000.0, 1000.004, 12345.678, 1e20, -817.5]),
        np.random.default_rng(5).uniform(0.0, 1000.0, 10_000),
    ],
    ids=["ties", "ties-1ulp", "ties+1ulp", "binary-ties", "zeros", "1000", "uniform"],
)
def test_fixed_point_text_equals_format(values):
    rows = charts._fixed_point(values, b" ")
    assert rows.dtype == np.uint8 and rows.shape[1] % 4 == 0
    texts = [row.tobytes().lstrip(b"\0") for row in rows]
    assert texts == [format(v, ".2f").encode() + b" " for v in values.tolist()]


@pytest.mark.parametrize("kind", ["time_series", "bar", "pie"])
def test_chart_refuses_a_number_no_float_holds(kind, tmp_path):
    first = BASE_TIME if kind == "time_series" else "a"
    table = ResultTable(("k", "v"), ((first, 10**400),))
    out = tmp_path / "x.svg"
    with pytest.raises(ChartError, match="column 'v' holds a number that no float can hold"):
        render_chart(table, ChartSpec(kind=kind), out)
    assert not out.exists()


def test_time_series_chart_refuses_naive_and_offset_timestamps_together(tmp_path):
    aware = BASE_TIME.replace(tzinfo=timezone.utc)
    out = tmp_path / "x.svg"
    for times in ((BASE_TIME, aware), (aware, BASE_TIME)):
        table = ResultTable(("t", "v"), tuple((t, 1.0) for t in times))
        with pytest.raises(ChartError, match="all carry a UTC offset or all carry none"):
            render_chart(table, ChartSpec(kind="time_series"), out)
    assert not out.exists()
    # timestamps that all carry an offset are dated as before
    table = ResultTable(("t", "v"), ((aware, 1.0), (aware + timedelta(seconds=1), 2.0)))
    assert_chart_matches_reference(table, out)


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


def test_bar_chart_skips_a_none_cell_and_refuses_a_table_without_numbers(tmp_path):
    table = ResultTable(("load_type", "n"), (("Urban Only", 3), ("Heavy Industry", None)))
    out = render_chart(table, ChartSpec(kind="bar"), tmp_path / "n.svg")
    assert out.read_text().count('class="bar"') == 1
    words = ResultTable(("load_type",), (("Urban Only",),))
    with pytest.raises(ChartError, match="bar chart needs at least one numeric column"):
        render_chart(words, ChartSpec(kind="bar"), tmp_path / "w.svg")
    assert not (tmp_path / "w.svg").exists()


def test_chart_spec_refuses_an_unknown_kind():
    with pytest.raises(ChartError, match="unknown chart kind 'donut'"):
        ChartSpec(kind="donut")


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


def test_pie_chart_of_one_non_zero_row_is_a_full_circle(tmp_path):
    table = ResultTable(columns=("k", "v"), rows=(("a", 3.0), ("b", None)))
    svg = render_chart(table, ChartSpec(kind="pie"), tmp_path / "p.svg").read_text()
    assert svg.count('class="slice"') == 1
    assert '<circle class="slice"' in svg
    assert "a (100.0%)" in svg


def test_pie_chart_rejects_an_all_zero_total(tmp_path):
    table = ResultTable(columns=("k", "v"), rows=(("a", 0.0), ("b", 0.0)))
    with pytest.raises(ChartError, match="positive total"):
        render_chart(table, ChartSpec(kind="pie"), tmp_path / "x.svg")


def test_bar_chart_of_all_zero_values_draws(tmp_path):
    table = ResultTable(columns=("k", "v"), rows=(("a", 0.0), ("b", 0.0)))
    svg = render_chart(table, ChartSpec(kind="bar"), tmp_path / "b.svg").read_text()
    assert svg.count('class="bar"') == 2
    ET.fromstring(svg)


@pytest.mark.parametrize(
    "kind, columns, rows",
    [
        ("time_series", ("t", "v", "bad"), ((BASE_TIME, 1.0, 2.0), (BASE_TIME, 1.5, float("inf")))),
        ("bar", ("k", "v", "bad"), (("a", 1.0, 2.0), ("b", 1.5, float("-inf")))),
        ("pie", ("k", "bad", "label"), (("a", 1.0, "x"), ("b", float("nan"), "y"))),
    ],
)
def test_chart_refuses_a_non_finite_cell(kind, columns, rows, tmp_path):
    table = ResultTable(columns=columns, rows=rows)
    with pytest.raises(ChartError, match="column 'bad'"):
        render_chart(table, ChartSpec(kind=kind), tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


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
