"""Command line flows, driven in process through main(argv)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqstream
from pqstream.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen -> analyze -> ingest chain shared by the query-side tests."""
    root = tmp_path_factory.mktemp("cliws")
    config = {
        "nominal_voltage_rms": 1.0,
        "nominal_current_rms": 1.0,
        "duration": 8.0,
        "point": {"id": "CLI1", "name": "CLI point", "load_type": "Urban Only"},
    }
    (root / "config.json").write_text(json.dumps(config))
    (root / "dist.txt").write_text("sag 2.0 3.0 A 0.8\n")

    assert main([
        "gen", "--config", str(root / "config.json"),
        "--script", str(root / "dist.txt"),
        "--out", str(root / "stream"),
    ]) == 0
    assert main([
        "analyze", "--in", str(root / "stream"), "--out", str(root / "transfer"),
    ]) == 0
    assert main([
        "ingest", "--root", str(root / "transfer"), "--db", str(root / "pq.db"),
    ]) == 0
    return root


def test_gen_writes_stream_arrays(workspace):
    voltage = np.load(workspace / "stream" / "voltage.npy")
    current = np.load(workspace / "stream" / "current.npy")
    assert voltage.shape == current.shape == (3, 8 * 3200)
    meta = json.loads((workspace / "stream" / "meta.json").read_text())
    assert meta["total_samples"] == 8 * 3200
    assert meta["script"].startswith("sag")
    assert meta["base_time"] == "2000-01-01T00:00:00"


def test_analyze_writes_transfer_tree(workspace):
    point_dir = workspace / "transfer" / "CLI1"
    assert (point_dir / "rms" / "rms_000.csv").exists()
    assert (point_dir / "event" / "event_000.csv").exists()
    assert list((point_dir / "Sag").glob("raw_*.pqz"))


def test_analyze_reports_discards_and_capture_write_errors(workspace, tmp_path, capsys):
    # a file where the Sag directory belongs makes the capture write fail
    (tmp_path / "CLI1").mkdir()
    (tmp_path / "CLI1" / "Sag").write_text("not a directory")
    capsys.readouterr()
    assert main(["analyze", "--in", str(workspace / "stream"), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert (
        "discarded: harmonic_samples_discarded=6400 pst_half_cycles_discarded=800"
        " demand_windows_discarded=1\n"
    ) in out
    assert "capture write errors: 1\n" in out
    event_log = (tmp_path / "CLI1" / "event" / "event_000.csv").read_text().splitlines()
    assert event_log[1].split(",")[1] == "sag" and event_log[1].endswith(",")


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


def test_ingest_summary_output(workspace, capsys):
    # a second ingest run of the same tree must change nothing
    assert main([
        "ingest", "--root", str(workspace / "transfer"), "--db", str(workspace / "pq.db"),
    ]) == 0
    out = capsys.readouterr().out
    assert "files ingested: 0" in out
    assert "files skipped (duplicate): 5" in out


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


def test_query_events_text(workspace, capsys):
    assert main([
        "query", "events", "--db", str(workspace / "pq.db"),
        "--group-by", "load_type",
    ]) == 0
    out = capsys.readouterr().out
    assert "load_type" in out
    assert "Urban Only" in out
    assert "sum_sag_count" in out


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


def test_query_series_chart(workspace, tmp_path, capsys):
    chart = tmp_path / "series.svg"
    assert main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--param", "power",
        "--chart", "time_series", "--out", str(chart),
    ]) == 0
    assert chart.read_text().count('class="series"') == 12


def test_event_detail_and_extraction(workspace, tmp_path, capsys):
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


def test_missing_input_exits_4(tmp_path, capsys):
    code = main([
        "analyze", "--in", str(tmp_path / "nothere"), "--out", str(tmp_path / "o"),
    ])
    assert code in (2, 4)  # surfaced as unreadable config or missing file


def test_console_entry_point_runs():
    # from the directory holding the package under test, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "pqstream", "budget", "--without-events"],
        capture_output=True, text=True, timeout=60,
        cwd=Path(pqstream.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6990.533"
