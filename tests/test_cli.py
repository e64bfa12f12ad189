"""Command line flows, driven in process through main(argv)."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import pqstream
from pqstream import cli
from pqstream.analyzer import PipelineConfig, PipelineResult, run_pipeline
from pqstream.cli import _signal_config, main
from pqstream.events import EventDetector, EventRecord, EventThresholds
from pqstream.siggen import SignalConfig, WaveformFrame, parse_script
from pqstream.store import MeasurementPoint, TransferFileWriter

from conftest import gather


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


def test_signal_config_takes_the_fields_meta_holds(tmp_path, capsys):
    assert _signal_config({"duration": 3}) == SignalConfig(duration=3.0)
    assert _signal_config(
        {"duration": "2.5", "seed": 7.0, "point": {"id": "X"}}
    ) == SignalConfig(duration=2.5, seed=7)
    (tmp_path / "config.json").write_text(json.dumps({"duration": "long"}))
    assert main(["gen", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_query_series_chart_without_out_exits_2(workspace, capsys):
    code = main([
        "query", "series", "--db", str(workspace / "pq.db"),
        "--point", "CLI1", "--param", "power", "--chart", "time_series",
    ])
    assert code == 2
    assert "--chart needs --out" in capsys.readouterr().err


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
    :func:`run_pipeline`'s result still holds when it returns (its records)."""
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
