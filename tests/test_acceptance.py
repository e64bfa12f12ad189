"""Acceptance gate: eight end-to-end criteria, one test and one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test is self-contained and asserts its own tolerances and
runtime bound.
"""

from __future__ import annotations

import math
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqstream.analyzer import (
    POWER_WINDOW,
    RMS_WINDOW,
    compute_harmonics,
    compute_plt,
    compute_rms,
    run_pipeline,
)
from pqstream.cli import main
from pqstream.events import EventDetector, EventThresholds
from pqstream.query import QuerySpec, aggregate_events, timeseries
from pqstream.siggen import SAMPLE_RATE, SignalConfig, WaveformFrame, generate_stream, parse_script
from pqstream.store import (
    EventStat,
    StreamDatabase,
    TransferFileWriter,
    compute_traffic_budget,
    derive_timestamps,
    format_budget_table,
    ingest_directory,
    parameter_interval,
)

from conftest import BASE_TIME, gather, unit_config, unit_pipeline_config
from test_store import make_point


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def analyze_to_tree(out_root, point, duration, script_text=None):
    writer = TransferFileWriter(out_root, point, BASE_TIME)
    detector = EventDetector(
        EventThresholds(nominal_voltage_rms=1.0),
        measurement_point_id=point.id,
        raw_sink=writer.raw_sink,
    )
    script = parse_script(script_text) if script_text else None
    result = run_pipeline(
        generate_stream(unit_config(duration), script),
        unit_pipeline_config(),
        detector=detector,
    )
    writer.write_results(result)
    return result


def test_criterion_1_traffic_budget_table(capsys):
    t0 = time.perf_counter()
    budget = compute_traffic_budget()
    rates = [round(r.bits_per_second, 3) for r in budget.rows]
    assert rates == [
        192, 192, 192, 192, 2112, 2112, 1920, 4, 10,
        614400, 614400, 0.32, 0.213, 64,
    ]
    assert round(budget.total_with_events, 3) == 1235790.533
    assert round(budget.total_without_events, 3) == 6990.533
    assert main(["budget"]) == 0
    out = capsys.readouterr().out
    assert "1,235,790.533" in out and "6,990.533" in out
    text = format_budget_table(budget)
    for token in ("192", "2,112", "1,920", "614,400", "0.32", "0.213", "64"):
        assert token in text
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"14 rates and both totals match to 3 decimals, {elapsed:.3f}s")


def test_criterion_2_long_term_flicker_formula():
    t0 = time.perf_counter()
    one_hot = [(1.0, 1.0, 1.0)] + [(0.0, 0.0, 0.0)] * 11
    plt = compute_plt(one_hot, timestamp=7200.0).plt[0]
    assert plt == pytest.approx((1.0 / 12.0) ** (1.0 / 3.0), abs=1e-5)
    for c in (1.0, 0.5, 0.25, 2.0, 3.0):
        assert compute_plt([(c, c, c)] * 12, 7200.0).plt == (c, c, c)
    base_values = [(0.1 * (k + 1),) * 3 for k in range(12)]
    doubled = [(0.2 * (k + 1),) * 3 for k in range(12)]
    a = compute_plt(base_values, 7200.0).plt[0]
    b = compute_plt(doubled, 7200.0).plt[0]
    assert b == pytest.approx(2.0 * a, rel=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"one-hot, constant and doubled inputs all match, {elapsed:.3f}s")


def test_criterion_3_scripted_event_census(tmp_path):
    t0 = time.perf_counter()
    script = (
        "sag 30 50 A 0.8\n"
        "sag 120 140 B 0.8\n"
        "sag 200 220 C 0.8\n"
        "swell 280 300 A 1.15\n"
        "swell 350 370 B 1.15\n"
        "interruption 420 440 ABC 0.0\n"
        "unbalance 500 520 C 0.93\n"
    )
    point = make_point("ACC3")
    result = analyze_to_tree(tmp_path / "out", point, 600.0, script)
    by_type: dict[str, int] = {}
    for event in result.events:
        by_type[event.event_type] = by_type.get(event.event_type, 0) + 1
    assert by_type == {"sag": 3, "swell": 2, "interruption": 1, "unbalance": 1}
    # no sag record may overlap the scripted interruption interval
    for event in result.events:
        if event.event_type == "sag":
            assert event.end_time <= 420.0 or event.start_time >= 440.0
    with StreamDatabase(tmp_path / "pq.db") as db:
        ingest_directory(tmp_path / "out", db)
        stat = db.event_stat("ACC3")
        assert stat == EventStat("ACC3", 7, 3, 2, 1, 1)
        assert db.recompute_event_stat("ACC3") == stat
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"EventStat (7, 3, 2, 1, 1) with zero extra sags, {elapsed:.1f}s")


def test_criterion_4_signal_math_identities():
    t0 = time.perf_counter()
    t = np.arange(RMS_WINDOW) / SAMPLE_RATE
    unit = np.vstack([np.sin(2 * np.pi * 50 * t)] * 3)
    record = compute_rms(np.vstack((unit, unit)), 0.2)
    assert record.v_rms[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)

    voltage, _ = gather(unit_config(3.0), parse_script("harmonic 0 3 ABC 0.1 3\n"))
    harmonic = compute_harmonics(np.vstack((voltage, voltage)), 50.0, 3.0)
    for p in range(3):
        assert harmonic.thd_v[p] == pytest.approx(10.0, abs=1e-3)

    lagged = run_pipeline(
        generate_stream(unit_config(60.0, current_lag_deg=60.0)),
        unit_pipeline_config(),
    )
    assert len(lagged.power) == 60
    for record in lagged.power:
        for p in range(3):
            S, P, Q = record.apparent[p], record.active[p], record.reactive[p]
            assert S * S == pytest.approx(P * P + Q * Q, rel=1e-9)
            assert record.power_factor[p] == pytest.approx(0.5, abs=1e-6)
            assert Q > 0  # lagging current is inductive
    elapsed = time.perf_counter() - t0
    report(4, f"RMS, THD, power triangle and PF identities hold, {elapsed:.1f}s")


def test_criterion_5_two_hour_cadence():
    t0 = time.perf_counter()
    result = run_pipeline(generate_stream(unit_config(7200.0)), unit_pipeline_config())
    counts = (
        len(result.rms), len(result.power), len(result.harmonics),
        len(result.frequency), len(result.demand),
        len(result.flicker_pst), len(result.flicker_plt),
    )
    assert counts == (36000, 7200, 2400, 7200, 8, 12, 1)
    assert result.flicker_plt[0].plt[0] is not None
    assert result.flicker_plt[0].timestamp == 7200.0
    elapsed = time.perf_counter() - t0
    report(5, f"7200 s run emitted {counts} records, {elapsed:.1f}s")


def test_criterion_6_round_trip_bit_exact(tmp_path):
    t0 = time.perf_counter()
    point = make_point("ACC6")
    result = analyze_to_tree(tmp_path / "out", point, 12.0, "sag 4.0 5.0 B 0.7\n")
    with StreamDatabase(tmp_path / "pq.db") as db:
        first = ingest_directory(tmp_path / "out", db)
        assert not first.files_malformed
        series = {
            "rms": (result.rms, lambda r: r.v_rms + r.i_rms),
            "power": (result.power, lambda r: r.active + r.reactive + r.apparent + r.power_factor),
            "frequency": (result.frequency, lambda r: (r.frequency, r.held)),
        }
        for parameter, (records, flatten) in series.items():
            table = timeseries(db, "ACC6", parameter)
            assert len(table.rows) == len(records)
            interval = parameter_interval(parameter)
            tf_row = db.conn.execute(
                "SELECT id FROM transfer_file WHERE parameter_type = ?"
                " AND measurement_point_id = 'ACC6'", (parameter,),
            ).fetchone()
            tf = db.get_transfer_file(tf_row["id"])
            for k, (row, record) in enumerate(zip(table.rows, records)):
                expected = tuple(
                    float(v) if isinstance(v, bool) else v for v in flatten(record)
                )
                assert row[1:] == expected  # bit-exact payload
                derived = tf.measurement_date - (tf.row_count - 1 - k) * interval
                assert row[0] == derived
                assert derive_timestamps(tf, k) == derived
        again = ingest_directory(tmp_path / "out", db)
        assert again.total_rows_inserted == 0
        assert again.files_ingested == 0
    elapsed = time.perf_counter() - t0
    report(6, f"values bit-exact, timestamps derived, re-ingest inserted 0 rows, {elapsed:.1f}s")


def test_criterion_7_aggregation_matches_event_scan(tmp_path):
    t0 = time.perf_counter()
    fixtures = (
        ("AGG1", "Heavy Industry", "sag 2 3 A 0.8\nswell 5 5.6 B 1.2\n"),
        ("AGG2", "Urban Only", "interruption 4 5 ABC 0.0\n"),
        ("AGG3", "Urban Only", "unbalance 2 4 C 0.93\nsag 7 7.6 A 0.8\n"),
    )
    for point_id, load_type, script in fixtures:
        analyze_to_tree(tmp_path / "out", make_point(point_id, load_type), 12.0, script)
    with StreamDatabase(tmp_path / "pq.db") as db:
        ingest_directory(tmp_path / "out", db)
        table = aggregate_events(db, QuerySpec(group_by=("load_type",)))
        oracle: dict[str, dict[str, int]] = {}
        for row in db.conn.execute(
            "SELECT e.event_type, mp.load_type FROM event e"
            " JOIN measurement_point mp ON e.measurement_point_id = mp.id"
        ):
            bucket = oracle.setdefault(row["load_type"], {})
            bucket[row["event_type"]] = bucket.get(row["event_type"], 0) + 1
            bucket["all"] = bucket.get("all", 0) + 1
        assert len(table.rows) == len(oracle) == 2
        for load_type, sags, swells, unbalances, total in table.rows:
            bucket = oracle[load_type]
            assert sags == bucket.get("sag", 0)
            assert swells == bucket.get("swell", 0)
            assert unbalances == bucket.get("unbalance", 0)
            assert total == bucket["all"]
    elapsed = time.perf_counter() - t0
    report(7, f"grouped sums equal the raw event scan for {len(table.rows)} groups, {elapsed:.1f}s")


def test_criterion_8_property_suites(tmp_path):
    t0 = time.perf_counter()

    # homogeneity: scaling the waveform scales rms, harmonics and demand
    config = unit_config(6.0)
    frames = list(generate_stream(config))
    scaled = [
        WaveformFrame(f.start_sample_index, 2.5 * f.voltage_samples, 2.5 * f.current_samples)
        for f in frames
    ]
    base = run_pipeline(frames, unit_pipeline_config())
    multiplied = run_pipeline(scaled, unit_pipeline_config())
    for a, b in zip(base.rms, multiplied.rms):
        for x, y in zip(a.v_rms + a.i_rms, b.v_rms + b.i_rms):
            assert y == pytest.approx(2.5 * x, rel=1e-9)
    for a, b in zip(base.harmonics, multiplied.harmonics):
        for p in range(3):
            assert b.v_harmonics[p][0] == pytest.approx(2.5 * a.v_harmonics[p][0], rel=1e-9)

    # chatter immunity: oscillation inside each hysteresis band keeps one event
    for entry, inside, expected in (
        (0.5, 0.86, "sag"),
        (1.2, 1.09, "swell"),
        (0.0, 0.06, "interruption"),
    ):
        detector = EventDetector(EventThresholds(nominal_voltage_rms=1.0))
        ts = 0.2
        for level in [1.0, entry] + [inside, entry] * 8 + [1.0, 1.0]:
            detector.update(ts, (level,) * 3)
            ts += 0.2
        detector.close(ts - 0.2)
        assert [e.event_type for e in detector.records] == [expected]
    detector = EventDetector(EventThresholds(nominal_voltage_rms=1.0))
    ts = 0.2
    for level in [(1.0,) * 3] + [(1.0, 1.0, 0.9), (1.0, 1.0, 0.947)] * 8 + [(1.0,) * 3] * 2:
        detector.update(ts, level)
        ts += 0.2
    detector.close(ts - 0.2)
    assert [e.event_type for e in detector.records] == ["unbalance"]

    # long-term flicker stays inside the power-mean bounds of its inputs
    @given(
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=12, max_size=12)
    )
    @settings(max_examples=100, deadline=None)
    def plt_bounded(values):
        plt = compute_plt([(v, v, v) for v in values], 7200.0).plt[0]
        assert min(values) - 1e-9 <= plt <= max(values) + 1e-9 + 1e-12 * max(values)

    plt_bounded()

    # ingestion idempotence and query determinism over a real tree
    analyze_to_tree(tmp_path / "out", make_point("ACC8"), 8.0, "sag 2 3 A 0.8\n")
    with StreamDatabase(tmp_path / "pq.db") as db:
        ingest_directory(tmp_path / "out", db)
        assert ingest_directory(tmp_path / "out", db).total_rows_inserted == 0
        t1 = timeseries(db, "ACC8", "rms")
        t2 = timeseries(db, "ACC8", "rms")
        assert t1 == t2
        a1 = aggregate_events(db)
        a2 = aggregate_events(db)
        assert a1 == a2
    elapsed = time.perf_counter() - t0
    report(8, f"homogeneity, chatter immunity, bounds, idempotence, determinism, {elapsed:.1f}s")
