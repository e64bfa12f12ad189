"""Command line flows, driven in process through main(argv)."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import pqstream
from pqstream import cli
from pqstream.analyzer import PipelineConfig, PipelineResult, run_pipeline
from pqstream.cli import _signal_config, main
from pqstream.events import EventDetector, EventRecord, EventThresholds
from pqstream.siggen import SignalConfig, WaveformFrame, parse_script
from pqstream.store import PARAMETERS, MeasurementPoint, StoreError, TransferFileWriter

from conftest import gather, polyline_vertex_counts


def run_to(path: Path, argv: list[str]) -> None:
    """``main(argv)``, which must succeed, with what it prints written to ``path``."""
    with path.open("w") as out, contextlib.redirect_stdout(out):
        assert main(argv) == 0


def pipeline_run(root: Path, config: dict, script: str = "") -> Path:
    """gen -> analyze -> ingest in ``root``: the directories ``stream`` and
    ``transfer`` and the database ``pq.db``, with what each command prints
    in ``gen.txt``, ``analyze.txt`` and ``ingest.txt``; ``root``."""
    (root / "config.json").write_text(json.dumps(config))
    gen = ["gen", "--config", str(root / "config.json"), "--out", str(root / "stream")]
    if script:
        (root / "dist.txt").write_text(script)
        gen += ["--script", str(root / "dist.txt")]
    run_to(root / "gen.txt", gen)
    run_to(root / "analyze.txt", [
        "analyze", "--in", str(root / "stream"), "--out", str(root / "transfer"),
    ])
    run_to(root / "ingest.txt", [
        "ingest", "--root", str(root / "transfer"), "--db", str(root / "pq.db"),
    ])
    return root


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """An 8 s stream with a 1 s sag, shared by the query-side tests."""
    config = {
        "nominal_voltage_rms": 1.0,
        "nominal_current_rms": 1.0,
        "duration": 8.0,
        "point": {"id": "CLI1", "name": "CLI point", "load_type": "Urban Only"},
    }
    return pipeline_run(tmp_path_factory.mktemp("cliws"), config, "sag 2.0 3.0 A 0.8\n")


@pytest.fixture(scope="session")
def long_run(tmp_path_factory):
    """A clean 120 s stream at point MP1 and the default nominals."""
    return pipeline_run(tmp_path_factory.mktemp("long"), {"duration": 120.0})


@pytest.fixture(scope="session")
def sagged(tmp_path_factory):
    """A 4 s stream at point MP1 whose sag lasts to the stream's end, so
    closing the stream finishes its capture."""
    return pipeline_run(tmp_path_factory.mktemp("sagged"), {"duration": 4.0}, "sag 1.0 4.0 A 0.5\n")


def test_gen_writes_stream_arrays(workspace):
    voltage = np.load(workspace / "stream" / "voltage.npy")
    current = np.load(workspace / "stream" / "current.npy")
    assert voltage.shape == current.shape == (3, 8 * 3200)
    meta = json.loads((workspace / "stream" / "meta.json").read_text())
    assert meta["total_samples"] == 8 * 3200
    assert meta["script"].startswith("sag")
    assert meta["base_time"] == "2000-01-01T00:00:00"


def test_analyze_writes_transfer_tree(workspace, long_run, sagged, tmp_path):
    point_dir = workspace / "transfer" / "CLI1"
    assert (point_dir / "rms" / "rms_000.csv").exists()
    assert (point_dir / "event" / "event_000.csv").exists()
    assert list((point_dir / "Sag").glob("raw_*.pqz"))
    # the record counts come from len() of each stored series
    assert any(
        line.startswith("records: power=120 rms=600 harmonics=40 frequency=120 ")
        for line in (long_run / "analyze.txt").read_text().splitlines()
    )
    # a capture is renamed when it is finished, also when closing the stream
    # finishes it: no open part is left
    assert list((sagged / "transfer" / "MP1" / "Sag").glob("raw_*.pqz"))
    assert not list((sagged / "transfer").rglob("*.part"))
    # the capture worker thread leaves every byte as it was, .pqz included
    assert main(["analyze", "--in", str(sagged / "stream"), "--out", str(tmp_path / "again")]) == 0
    assert tree_files(tmp_path / "again") == tree_files(sagged / "transfer")


def test_analyze_reports_discards_and_capture_write_errors(workspace, tmp_path, capsys):
    # a file where the Sag directory belongs makes the capture write fail
    (tmp_path / "CLI1").mkdir()
    (tmp_path / "CLI1" / "Sag").write_text("not a directory")
    capsys.readouterr()
    assert main(["analyze", "--in", str(workspace / "stream"), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert (
        "discarded: harmonic_samples_discarded=6400 pst_half_cycles_discarded=800"
        " demand_windows_discarded=1"
    ) in out.splitlines()
    assert "capture write errors: 1\n" in out
    event_log = (tmp_path / "CLI1" / "event" / "event_000.csv").read_text().splitlines()
    assert event_log[1].split(",")[1] == "sag" and event_log[1].endswith(",")


def test_signal_config_takes_the_fields_meta_holds(tmp_path, capsys):
    assert _signal_config({"duration": 3}) == SignalConfig(duration=3.0)
    assert _signal_config(
        {"duration": "2.5", "seed": 7.0, "point": {"id": "X"}}
    ) == SignalConfig(duration=2.5, seed=7)
    (tmp_path / "config.json").write_text(json.dumps({"duration": "long"}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # a bool, or a number the cast would change, is refused rather than cast
    for meta in ({"seed": 2.5, "jitter_pu": 0.01}, {"duration": True}, {"seed": False},
                 {"seed": float("inf")}, {"duration": float("nan")}, {"duration": 10 ** 400},
                 {"duration": 2 ** 53 + 1}):
        (key, value), *_ = meta.items()
        kind = type(getattr(SignalConfig(), key)).__name__
        with pytest.raises(StoreError, match=rf"^{key} must be a {kind}, not {re.escape(repr(value))}$"):
            _signal_config(meta)
    (tmp_path / "config.json").write_text(json.dumps({"seed": 2.5}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: seed must be a int, not 2.5\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["gen", "analyze"])
def test_a_null_config_field_is_named_and_exits_2(tmp_path, capsys, command):
    (tmp_path / "config.json").write_text(json.dumps({"duration": None}))
    (tmp_path / "meta.json").write_text(json.dumps({"duration": None}))
    argv = {
        "gen": ["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")],
        "analyze": ["analyze", "--in", str(tmp_path), "--out", str(tmp_path / "t")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: duration must be a float, not None\n"
    assert not (tmp_path / "s").exists() and not (tmp_path / "t").exists()


@pytest.mark.parametrize("meta, message", [
    ({"point": [1]}, "meta.json: point must be a JSON object, not [1]"),
    ({"base_time": 5}, "meta.json: base_time must be a string, not 5"),
    ({"point": {"id": "A", "name": ["x"]}}, "name must be a string, not ['x']"),
    # ingest would refuse every file of such a tree by its footer
    ({"base_time": "2000-01-01T00:00:00+02:00"},
     "base_time 2000-01-01T00:00:00+02:00 carries a UTC offset,"
     " which transfer-file times cannot hold"),
])
def test_analyze_refuses_badly_typed_meta_fields_before_writing(tmp_path, capsys, meta, message):
    (tmp_path / "meta.json").write_text(json.dumps({"duration": 1.0, **meta}))
    np.save(tmp_path / "voltage.npy", np.zeros((3, 3200)))
    np.save(tmp_path / "current.npy", np.zeros((3, 3200)))
    assert main(["analyze", "--in", str(tmp_path), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "t").exists()


def test_a_config_that_is_not_a_json_object_exits_2(tmp_path, capsys):
    (tmp_path / "config.json").write_text("[1]")
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: config {tmp_path / 'config.json'} is not a JSON object\n"


def test_analyze_nominal_v_overrides_the_stream_nominal(tmp_path, capsys):
    # a clean 230 V stream judged against 200 V is one swell, 1.15 pu throughout
    (tmp_path / "config.json").write_text(json.dumps({"duration": 4.0}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]) == 0
    assert main([
        "analyze", "--in", str(tmp_path / "s"), "--out", str(tmp_path / "t"), "--nominal-v", "200",
    ]) == 0
    rows = (tmp_path / "t" / "MP1" / "event" / "event_000.csv").read_text().splitlines()[1:-1]
    assert rows == [
        "1,swell,2000-01-01T00:00:00.000000,2000-01-01T00:00:04.000000,12800,Swell/raw_1.pqz"
    ]


def test_analyze_refuses_a_nominal_frequency_it_cannot_measure(tmp_path, capsys):
    # at 1 MHz a half-cycle rounds to no sample at all
    (tmp_path / "meta.json").write_text(json.dumps({"nominal_frequency": 1e6}))
    np.save(tmp_path / "voltage.npy", np.zeros((3, 3200)))
    np.save(tmp_path / "current.npy", np.zeros((3, 3200)))
    assert main(["analyze", "--in", str(tmp_path), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("error: nominal_frequency")


@pytest.mark.parametrize("point_id", ["../escaped", "ABS", 5])
def test_analyze_refuses_a_point_id_that_is_not_one_path_component(tmp_path, capsys, point_id):
    point_id = str(tmp_path / "abs") if point_id == "ABS" else point_id
    (tmp_path / "config.json").write_text(json.dumps({"duration": 1.0, "point": {"id": point_id}}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert main(["analyze", "--in", str(tmp_path / "s"), "--out", str(tmp_path / "out" / "t")]) == 2
    assert "is not one path component" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "s"]


def test_ingest_summary_output(workspace, long_run, capsys):
    assert "rows into rms: 600" in (long_run / "ingest.txt").read_text().splitlines()
    assert len(list((workspace / "transfer").rglob("*.csv"))) == 5
    # a second ingest run of the same tree must change nothing: every
    # transfer file is a duplicate
    for run in (workspace, long_run):
        assert main([
            "ingest", "--root", str(run / "transfer"), "--db", str(run / "pq.db"),
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "files ingested: 0" in out
        assert f"files skipped (duplicate): {len(list((run / 'transfer').rglob('*.csv')))}" in out


def test_a_row_after_the_harmonics_footer_rolls_back_that_file_alone(long_run, tmp_path, capsys):
    # a 2-cell row after the footer of the ~185 KB harmonics file: the blocks
    # before it go in under the file's savepoint and roll back with it, while
    # the point's other files stay
    tree = tmp_path / "transfer"
    shutil.copytree(long_run / "transfer", tree)
    with (tree / "MP1" / "harmonics" / "harmonics_000.csv").open("a") as f:
        f.write("1,2\n")
    db = str(tmp_path / "pq.db")
    assert main(["ingest", "--root", str(tree), "--db", db]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert "files malformed: 1" in summary
    assert any(line.endswith(": row 41 holds 2 cells, expected 204") for line in summary)
    assert "rows into rms: 600" in summary
    assert main(["query", "series", "--db", db, "--point", "MP1", "--param", "harmonics"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2  # the header and its rule


def test_budget_table_output(capsys):
    assert main(["budget"]) == 0
    out = capsys.readouterr().out
    assert "1,235,790.533" in out
    assert "6,990.533" in out
    assert "Frequency" in out


def test_budget_single_totals(capsys):
    assert main(["budget", "--with-events"]) == 0
    assert capsys.readouterr().out.strip() == "1235790.533"
    assert main(["budget", "--without-events"]) == 0
    assert capsys.readouterr().out.strip() == "6990.533"


def test_budget_totals_flags_conflict(capsys):
    with pytest.raises(SystemExit):
        main(["budget", "--with-events", "--without-events"])


def test_query_events_text(workspace, long_run, tmp_path, capsys):
    assert main([
        "query", "events", "--db", str(workspace / "pq.db"),
        "--group-by", "load_type",
    ]) == 0
    out = capsys.readouterr().out
    assert "load_type" in out
    assert "Urban Only" in out
    assert "sum_sag_count" in out
    # stdout and the table chart are written by one writer: the same bytes
    argv = ["query", "events", "--db", str(long_run / "pq.db"), "--group-by", "load_type"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--chart", "table", "--out", str(tmp_path / "events.txt")]) == 0
    assert (tmp_path / "events.txt").read_bytes() == printed.encode("utf-8")


def test_query_events_filter_and_chart(workspace, tmp_path, capsys):
    chart = tmp_path / "events.svg"
    assert main([
        "query", "events", "--db", str(workspace / "pq.db"),
        "--filter", "load_type=Urban Only",
        "--chart", "bar", "--out", str(chart),
    ]) == 0
    assert chart.exists()
    assert 'class="bar"' in chart.read_text()


def test_query_events_pie_draws_one_slice_per_group(workspace, tmp_path, capsys):
    # a second point under another load type, in a copy of the database
    config = {
        "nominal_voltage_rms": 1.0,
        "nominal_current_rms": 1.0,
        "duration": 4.0,
        "point": {"id": "CLI2", "name": "second point", "load_type": "Heavy Industry"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "dist.txt").write_text("swell 1.0 2.0 B 1.2\n")
    db = tmp_path / "pq.db"
    shutil.copy(workspace / "pq.db", db)
    assert main([
        "gen", "--config", str(tmp_path / "config.json"),
        "--script", str(tmp_path / "dist.txt"), "--out", str(tmp_path / "stream"),
    ]) == 0
    assert main(["analyze", "--in", str(tmp_path / "stream"), "--out", str(tmp_path / "tree")]) == 0
    assert main(["ingest", "--root", str(tmp_path / "tree"), "--db", str(db)]) == 0
    chart = tmp_path / "events.svg"
    assert main([
        "query", "events", "--db", str(db), "--group-by", "load_type",
        "--chart", "pie", "--out", str(chart),
    ]) == 0
    assert chart.read_text().count('class="slice"') == 2


def test_query_series_with_range(workspace, capsys):
    assert main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--param", "rms",
        "--from", "2000-01-01T00:00:01", "--to", "2000-01-01T00:00:02",
    ]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip() and not ln.startswith("-")]
    assert len(lines) == 7  # header + 6 rows at 0.2 s spacing, inclusive
    assert "2000-01-01T00:00:01.000000" in out


def test_query_series_bound_with_utc_offset_exits_2(workspace, capsys):
    code = main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--param", "rms",
        "--from", "2000-01-01T00:00:01+00:00",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_query_series_text(workspace, long_run, tmp_path, capsys):
    for run, point in ((workspace, "CLI1"), (long_run, "MP1")):
        for param in ("rms", "harmonics", "frequency"):
            argv = ["query", "series", "--db", str(run / "pq.db"), "--point", point, "--param", param]
            assert main(argv) == 0
            printed = capsys.readouterr().out
            # stdout and the table chart are written by one writer, a block
            # at a time in two passes (widths, then lines): the same bytes
            out = tmp_path / f"{point}_{param}.txt"
            assert main([*argv, "--chart", "table", "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"wrote {out}\n"
            assert out.read_bytes() == printed.encode("utf-8")
            # headers from the one parameter registry; held is the one INTEGER column
            header = printed.splitlines()[0]
            if param == "frequency":
                assert re.sub(" +", " ", header) == "timestamp frequency held"
            elif param == "harmonics":
                assert len(header.split()) == 205
    # each stored row is dated by its index from the footer: the header, its
    # rule and 600 rows, the first ending at 0.2 s and the last at 120 s
    lines = (tmp_path / "MP1_rms.txt").read_text().splitlines()
    assert len(lines) == 602
    assert lines[2].split(" ")[0] == "2000-01-01T00:00:00.200000"
    assert lines[-1].split(" ")[0] == "2000-01-01T00:02:00.000000"


def test_query_series_chart(workspace, long_run, tmp_path, capsys):
    chart = tmp_path / "series.svg"
    assert main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--param", "power",
        "--chart", "time_series", "--out", str(chart),
    ]) == 0
    assert chart.read_text().count('class="series"') == 12
    # the same series drawn twice: the same bytes both times, and one
    # polyline of 600 vertices for each of the six RMS columns
    argv = ["query", "series", "--db", str(long_run / "pq.db"), "--point", "MP1", "--param", "rms"]
    for name in ("rms.svg", "rms2.svg"):
        assert main([*argv, "--chart", "time_series", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "rms.svg").read_bytes() == (tmp_path / "rms2.svg").read_bytes()
    assert polyline_vertex_counts(tmp_path / "rms.svg") == [600] * 6


def test_query_series_chart_without_out_exits_2(workspace, capsys):
    code = main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--param", "power", "--chart", "time_series",
    ])
    assert code == 2
    assert "--chart needs --out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, missing",
    [
        (["query", "events"], "--chart"),
        (["query", "series", "--point", "CLI1", "--param", "rms"], "--chart"),
        (["event", "1"], "--raw"),
    ],
    ids=["query-events", "query-series", "event"],
)
def test_out_without_its_flag_exits_2_and_writes_nothing(
    workspace, tmp_path, capsys, command, missing
):
    out = tmp_path / "out"
    assert main([*command, "--db", str(workspace / "pq.db"), "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: --out needs {missing}")
    assert printed.out == ""
    assert not out.exists()


def test_a_refused_series_table_chart_writes_no_file(workspace, tmp_path, capsys):
    out = tmp_path / "table" / "ghost.txt"
    code = main([
        "query", "series", "--db", str(workspace / "pq.db"), "--point", "ghost",
        "--param", "rms", "--chart", "table", "--out", str(out),
    ])
    assert code == 3
    assert "ghost" in capsys.readouterr().err
    assert not (tmp_path / "table").exists()


def test_event_raw_without_out_extracts_into_the_current_directory(
    workspace, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert main(["event", "1", "--db", str(workspace / "pq.db"), "--raw"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "extracted raw_CLI1_1.csv"
    assert (tmp_path / "raw_CLI1_1.csv").is_file()


def test_event_detail_and_extraction(workspace, sagged, tmp_path, capsys):
    assert main([
        "event", "1", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--raw", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "sag" in out
    assert "extracted" in out
    extracted = tmp_path / "raw_CLI1_1.csv"
    assert extracted.exists()
    # 0.2 s margins around the 1 s sag
    assert len(extracted.read_text().splitlines()) == 1 + int(1.4 * 3200)
    # a sag that lasts to the stream's end: the header line plus 0.8 s (the
    # pre-trigger) to the 4 s end at 3200 Hz
    raw = tmp_path / "raw"
    assert main(["event", "1", "--db", str(sagged / "pq.db"), "--raw", "--out", str(raw)]) == 0
    assert len((raw / "raw_MP1_1.csv").read_text().splitlines()) == 10241


def test_event_extraction_of_a_damaged_capture_exits_2(workspace, tmp_path, capsys):
    tree = tmp_path / "transfer"
    shutil.copytree(workspace / "transfer", tree)
    (capture,) = (tree / "CLI1" / "Sag").glob("raw_*.pqz")
    capture.write_bytes(capture.read_bytes()[: capture.stat().st_size // 2])
    db = str(tmp_path / "pq.db")
    assert main(["ingest", "--root", str(tree), "--db", db]) == 0
    out = tmp_path / "out"
    code = main(["event", "1", "--db", db, "--point", "CLI1", "--raw", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(out.glob("*.csv"))


def test_event_without_a_capture_says_so(tmp_path, capsys):
    point = MeasurementPoint("NC1", "NC1", "busbar", "Urban Only")
    writer = TransferFileWriter(tmp_path / "tree", point, datetime(2000, 1, 1))
    event = EventRecord(1, "NC1", "swell", 1.0, 1.4, 1280, None, raw_write_error=True)
    writer.write_results(PipelineResult(events=[event]))
    db = str(tmp_path / "pq.db")
    assert main(["ingest", "--root", str(tmp_path / "tree"), "--db", db]) == 0
    capsys.readouterr()
    assert main(["event", "1", "--db", db]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "raw capture: not available"


def test_a_missing_capture_is_counted_and_its_event_stored_without_it(
    workspace, tmp_path, capsys
):
    tree = tmp_path / "transfer"
    shutil.copytree(workspace / "transfer", tree)
    (capture,) = (tree / "CLI1" / "Sag").glob("raw_*.pqz")
    capture.unlink()
    db = str(tmp_path / "pq.db")
    assert main(["ingest", "--root", str(tree), "--db", db]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert "files malformed: 0" in summary and "captures missing: 1" in summary
    assert main(["event", "1", "--db", db, "--point", "CLI1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "raw capture: not available"
    code = main(["event", "1", "--db", db, "--point", "CLI1", "--raw", "--out", str(tmp_path)])
    assert code == 3
    assert "has no raw capture stored" in capsys.readouterr().err


def test_event_extraction_into_an_existing_file_exits_4(workspace, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main([
        "event", "1", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--raw", "--out", str(blocker),
    ])
    assert code == 4
    assert capsys.readouterr().err.startswith("io error: ")
    assert blocker.read_text() == "a file, not a directory"


def test_unknown_point_exits_3(workspace, capsys):
    code = main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "ghost", "--param", "rms",
    ])
    assert code == 3
    assert "ghost" in capsys.readouterr().err


def test_bad_filter_exits_2(workspace, capsys):
    code = main([
        "query", "events", "--db", str(workspace / "pq.db"),
        "--filter", "no-equals-sign",
    ])
    assert code == 2
    assert "attribute=value" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["query", "events"], ["event", "1"]])
def test_missing_database_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "missing.db"
    assert main([*command, "--db", str(missing)]) == 2
    assert "unable to open database file" in capsys.readouterr().err
    assert not missing.exists()


def test_ingest_into_non_database_file_exits_2(tmp_path, capsys):
    junk = tmp_path / "junk.db"
    junk.write_text("not a database\n" * 100)
    (tmp_path / "tree").mkdir()
    assert main(["ingest", "--root", str(tmp_path / "tree"), "--db", str(junk)]) == 2
    assert "file is not a database" in capsys.readouterr().err


def test_bad_script_exits_2(tmp_path, capsys):
    (tmp_path / "c.json").write_text("{\"duration\": 1.0}")
    (tmp_path / "bad.txt").write_text("sag 0 1 A\n")
    code = main([
        "gen", "--config", str(tmp_path / "c.json"),
        "--script", str(tmp_path / "bad.txt"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, missing, code, prefix",
    [
        ("analyze", "s/meta.json", 2, "error: cannot read config {path}: "),
        ("gen", "nothere.txt", 4, "io error: "),
        ("analyze", "s/current.npy", 4, "io error: "),
    ],
    ids=["analyze-missing-dir", "gen-missing-script", "analyze-missing-current"],
)
def test_a_missing_input_exits_with_its_code_and_writes_nothing(
    tmp_path, capsys, command, missing, code, prefix
):
    # a stream directory without meta.json is refused as a config; a missing
    # script or sample file is an I/O error
    (tmp_path / "config.json").write_text(json.dumps({"duration": 1.0}))
    gen = ["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]
    if missing == "s/current.npy":
        assert main(gen) == 0
        (tmp_path / missing).unlink()
    argv = {
        "gen": [*gen[:-1], str(tmp_path / "out"), "--script", str(tmp_path / missing)],
        "analyze": ["analyze", "--in", str(tmp_path / "s"), "--out", str(tmp_path / "out")],
    }[command]
    capsys.readouterr()
    assert main(argv) == code
    path = tmp_path / missing
    assert capsys.readouterr().err == (
        prefix.format(path=path) + f"[Errno 2] No such file or directory: '{path}'\n"
    )
    assert not (tmp_path / "out").exists()


def test_console_entry_point_runs():
    # from the directory holding the package under test, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "pqstream", "budget", "--without-events"],
        capture_output=True, text=True, timeout=60,
        cwd=Path(pqstream.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6990.533"


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# checks that importing the package loads no numpy, then prints the BLAS
# variables as numpy's import finds them when the CLI loads
_BLAS_PROBE = f"""
import os, sys
import pqstream
assert "numpy" not in sys.modules, "import pqstream loaded numpy"

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(*(os.environ.get(k, "-") for k in {BLAS_VARIABLES!r}))
        return None

sys.meta_path.insert(0, Probe())
import pqstream.cli
from pqstream import *
assert all(name in globals() for name in pqstream.__all__)
"""


@pytest.mark.parametrize("preset, seen", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")])
def test_the_cli_picks_one_blas_thread_before_numpy_loads_unless_the_user_chose(preset, seen):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE],
        capture_output=True, text=True, timeout=60, env={**env, **preset},
        cwd=Path(pqstream.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [seen]


def test_module_entry_point_runs_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pqstream", "budget", "--without-events"])
    monkeypatch.delitem(sys.modules, "pqstream.__main__", raising=False)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("pqstream", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.strip() == "6990.533"


# -- sample files: checked before any output, moved one block at a time ------


def gen_stream(root: Path, duration: float, script: str = "") -> Path:
    config = {
        "duration": duration,
        "current_lag_deg": 15.0,
        "point": {"id": "BLK", "load_type": "Heavy Industry"},
        "base_time": "2003-04-05T06:07:08",
    }
    (root / "config.json").write_text(json.dumps(config))
    (root / "dist.txt").write_text(script)
    argv = ["gen", "--config", str(root / "config.json"), "--out", str(root / "stream")]
    assert main(argv + (["--script", str(root / "dist.txt")] if script else [])) == 0
    return root / "stream"


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def library_tree(out: Path, voltage, current, meta: dict) -> dict[str, bytes]:
    """The tree the library writes from the whole in-memory arrays in one frame."""
    point = MeasurementPoint.from_dict({"id": "MP1", **meta.get("point", {})})
    writer = TransferFileWriter(out, point, datetime.fromisoformat(meta["base_time"]))
    detector = EventDetector(
        EventThresholds(nominal_voltage_rms=meta.get("nominal_voltage_rms", 230.0)),
        measurement_point_id=point.id,
        raw_sink=writer.raw_sink,
    )
    result = run_pipeline([WaveformFrame(0, voltage, current)], PipelineConfig(), detector=detector)
    writer.write_results(result)
    return tree_files(out)


# 9920 samples: a multiple of neither the 640-sample frame nor the 9600-sample block
SCRIPT = "sag 0.5 1.5 AB 0.6\nharmonic 0 3.1 ABC 0.05 5\n"


def test_gen_writes_the_bytes_np_save_writes(tmp_path):
    stream = gen_stream(tmp_path, 3.1, SCRIPT)
    voltage, current = gather(SignalConfig(duration=3.1, current_lag_deg=15.0), parse_script(SCRIPT))
    assert voltage.shape == (3, 9920)
    for name, samples in (("voltage.npy", voltage), ("current.npy", current)):
        saved = io.BytesIO()
        np.save(saved, samples)
        assert (stream / name).read_bytes() == saved.getvalue()


def test_analyze_writes_the_tree_of_the_in_memory_stream(tmp_path):
    stream = gen_stream(tmp_path, 3.1, SCRIPT)
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "cli")]) == 0
    expected = library_tree(
        tmp_path / "lib",
        np.load(stream / "voltage.npy"),
        np.load(stream / "current.npy"),
        json.loads((stream / "meta.json").read_text()),
    )
    assert "BLK/Sag/raw_1.pqz" in expected
    assert tree_files(tmp_path / "cli") == expected


@pytest.mark.parametrize("dtype, fortran", [("<f4", False), (">f8", False), ("<f8", True)])
def test_analyze_passes_the_stored_dtype_and_layout_through(tmp_path, monkeypatch, dtype, fortran):
    # float32, big-endian and column-major streams analyze as np.load reads them
    stream = gen_stream(tmp_path, 3.1, SCRIPT)
    arrays = {}
    for name in ("voltage.npy", "current.npy"):
        samples = np.load(stream / name).astype(dtype)
        arrays[name] = np.asfortranarray(samples) if fortran else samples
        np.save(stream / name, arrays[name])
    seen = set()
    run = cli.run_pipeline

    def spy(frames, *args, **kwargs):
        def frames_seen():
            for frame in frames:
                seen.add((frame.voltage_samples.dtype.str, frame.current_samples.flags.f_contiguous))
                yield frame

        return run(frames_seen(), *args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "cli")]) == 0
    assert seen == {(dtype, fortran)}
    expected = library_tree(
        tmp_path / "lib",
        arrays["voltage.npy"],
        arrays["current.npy"],
        json.loads((stream / "meta.json").read_text()),
    )
    assert tree_files(tmp_path / "cli") == expected


@pytest.mark.parametrize(
    "current, message",
    [
        (np.zeros((3, 9000)), "voltage.npy holds 9920 samples per channel, current.npy 9000"),
        (np.zeros((2, 9920)), "samples must have shape (3, n), not (2, 9920)"),
        (np.zeros(9920), "samples must have shape (3, n), not (9920,)"),
        (np.zeros((3, 9920), dtype=complex), "samples of dtype complex128 are not real numbers"),
    ],
    ids=["sample-counts-differ", "two-channels", "one-dimensional", "complex"],
)
def test_analyze_refuses_unusable_sample_files_before_writing(tmp_path, capsys, current, message):
    stream = gen_stream(tmp_path, 3.1)
    np.save(stream / "current.npy", current)
    capsys.readouterr()
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "t")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_analyze_refuses_a_truncated_sample_file_before_writing(tmp_path, capsys):
    stream = gen_stream(tmp_path, 3.1)
    data = (stream / "voltage.npy").read_bytes()
    (stream / "voltage.npy").write_bytes(data[:-8])
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "t")]) == 2
    assert "ends before the 9920 samples per channel it declares" in capsys.readouterr().err
    (stream / "voltage.npy").write_bytes(b"not an array")
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "t")]) == 2
    assert "not a .npy array" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_analyze_refuses_a_npy_header_of_format_3(tmp_path, capsys):
    stream = gen_stream(tmp_path, 3.1)
    voltage = np.load(stream / "voltage.npy")
    with (stream / "voltage.npy").open("wb") as f:
        np.lib.format.write_array(f, voltage, version=(3, 0))
    capsys.readouterr()
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "t")]) == 2
    assert ".npy format version (3, 0) is not supported" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_analyze_refuses_a_non_finite_sample_and_writes_no_csv(tmp_path, capsys, bad):
    stream = gen_stream(tmp_path, 4.0)
    current = np.load(stream / "current.npy")
    current[2, 10000] = bad
    np.save(stream / "current.npy", current)
    capsys.readouterr()
    assert main(["analyze", "--in", str(stream), "--out", str(tmp_path / "t")]) == 2
    assert "samples 9600 to 12800 are not finite" in capsys.readouterr().err
    assert not list((tmp_path / "t").rglob("*.csv"))


def traced_peak(argv: list[str], held: dict[str, int]) -> int:
    """tracemalloc peak of one ``main(argv)`` call, less the memory that
    :func:`run_pipeline`'s result still holds when it returns (its records).
    A full collection first empties the interpreter's free lists, which a
    collection at some other time would; so every object the call makes is
    traced, whatever ran before it."""
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - held.pop("result", 0)
    finally:
        tracemalloc.stop()


def test_gen_and_analyze_memory_does_not_grow_with_stream_length(tmp_path, monkeypatch):
    # The records are all analyze holds for the whole stream.  Beyond them
    # it holds what its windows need, so a 1200 s stream peaks where a 600 s
    # one does; both hold a full 10 min Pst window.  gen holds one frame.
    held: dict[str, int] = {}
    run = cli.run_pipeline

    def measured(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        result = run(*args, **kwargs)
        held["result"] = tracemalloc.get_traced_memory()[0] - before
        return result

    monkeypatch.setattr(cli, "run_pipeline", measured)
    peaks = {}
    for command, durations in (("gen", (30.0, 300.0)), ("analyze", (600.0, 1200.0))):
        for duration in durations:
            root = tmp_path / f"{command}{duration:.0f}"
            root.mkdir()
            (root / "config.json").write_text(json.dumps({"duration": duration}))
            gen = ["gen", "--config", str(root / "config.json"), "--out", str(root / "s")]
            if command == "gen":
                main(gen[:-1] + [str(root / "warm-up")])  # one-time allocations
                peaks[command, duration] = traced_peak(gen, held)
            else:
                assert main(gen) == 0
                argv = ["analyze", "--in", str(root / "s"), "--out", str(root / "t")]
                peaks[command, duration] = traced_peak(argv, held)
    assert peaks["gen", 300.0] < 1.1 * peaks["gen", 30.0], peaks
    assert peaks["analyze", 1200.0] < 1.1 * peaks["analyze", 600.0], peaks


def rms_history(root: Path, count: int) -> str:
    """A database of ``count`` RMS rows at point H, ingested from one file; its path."""
    base = datetime(2000, 1, 1)
    writer = TransferFileWriter(
        root / "transfer", MeasurementPoint("H", "History", "busbar", "Urban Only"), base
    )
    (writer.point_dir / "rms").mkdir(parents=True)
    values = 230.0 + 1e-4 * np.arange(6 * count).reshape(count, 6)
    last = base + count * PARAMETERS["rms"].interval
    (writer.point_dir / "rms" / "rms_000.csv").write_text(
        f"# columns: {','.join(PARAMETERS['rms'].columns)}\n"
        + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
        + f"#last_sample={last.isoformat(timespec='microseconds')}\n"
    )
    db = str(root / "pq.db")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--root", str(root / "transfer"), "--db", db]) == 0
    return db


def test_query_series_text_memory_does_not_grow_with_history(tmp_path):
    # the text is printed from a block per file at a time, in two passes, so
    # 8x the rows peak where 1x does; a whole table would peak 8x higher
    peaks = {}
    for count in (2000, 16000):
        root = tmp_path / f"h{count}"
        db = rms_history(root, count)
        argv = ["query", "series", "--db", db, "--point", "H", "--param", "rms"]
        with (root / "rms.txt").open("w") as out, contextlib.redirect_stdout(out):
            assert main(argv) == 0  # one-time allocations
            peaks[count] = traced_peak(argv, {})
        assert len((root / "rms.txt").read_text().splitlines()) == 2 * (count + 2)
    assert peaks[16000] < 1.1 * peaks[2000], peaks


def test_query_series_table_chart_memory_does_not_grow_with_history(tmp_path):
    # --chart table writes the text stdout prints, from the same blocks, so
    # 4x the rows peak within 1.25x; a table formatted whole peaks 4x higher
    peaks = {}
    for count in (2000, 8000):
        root = tmp_path / f"h{count}"
        db = rms_history(root, count)
        out = root / "rms.txt"
        argv = ["query", "series", "--db", db, "--point", "H", "--param", "rms",
                "--chart", "table", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # one-time allocations
            peaks[count] = traced_peak(argv, {})
        assert len(out.read_text().splitlines()) == count + 2
    assert peaks[8000] < 1.25 * peaks[2000], peaks
