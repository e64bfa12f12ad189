"""PQStream benchmark: one workload through measure, ingest and query.

    python3 perfbench/run.py --workload steady_2h --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  The run prints every metric by name with its unit, the checks it
attempted and those that failed, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; ``--trace 1`` runs the measuring side
once untraced, then the whole workload traced, and reports the per-layer
metrics of the traced pass with the tracing overhead of the measuring side.

Each phase runs in its own child process (see ``child.py``) with one BLAS
thread.  ``--seconds`` is the time the server side spends repeating ingest
and queries; the measuring side processes the workload's stream once.
Working files live under ``perfbench/.work/`` and are removed at the end;
span files of traced runs are kept under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402 - needs the benchmark directory on sys.path
import workloads  # noqa: E402

SETUP_REPS = 5
CLI_ANALYZE_REPS = 3
RUN_DEADLINE_S = 170.0

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "measure_realtime_x": "x",
    "ingest_rows_per_s": "rows/s",
    "series_chart_p50_ms": "ms",
    "series_range_p50_ms": "ms",
    "raw_export_ksamples_per_s": "ksamples/s",
    "measure_peak_rss_mb": "MB",
    "server_peak_rss_mb": "MB",
    "transfer_bytes_per_stream_s": "bytes/s",
    "db_bytes_per_stream_s": "bytes/s",
}
PER_LAYER = {
    "siggen.busy_s": "s", "siggen.frames": "count",
    "analyzer.self_s": "s", "analyzer.frames": "count", "analyzer.records": "count",
    "events.self_s": "s", "events.updates": "count", "events.detected": "count",
    "events.capture_samples": "count", "events.capture_bytes": "bytes",
    "events.capture_ratio": "ratio",
    "store.write_s": "s", "store.write_files": "count", "store.write_bytes": "bytes",
    "store.ingest_s": "s", "store.ingest_files_seen": "count",
    "store.ingest_files_ingested": "count", "store.ingest_files_duplicate": "count",
    "store.ingest_files_malformed": "count", "store.ingest_rows": "count",
    "store.ingest_statements": "count", "store.ingest_commits": "count",
    "store.reingest_s": "s",
    "query.series_full_ms": "ms", "query.series_range_ms": "ms",
    "query.series_range_rows_returned": "count", "query.series_rows_stored": "count",
    "query.events_agg_ms": "ms", "query.event_detail_ms": "ms",
    "query.raw_export_ms": "ms", "query.raw_export_samples": "count",
    "query.raw_export_bytes": "bytes",
    "charts.render_ms": "ms", "charts.svg_bytes": "bytes",
    "cli.gen_s": "s", "cli.gen_peak_rss_mb": "MB", "cli.analyze_peak_rss_mb": "MB",
    "trace.spans": "count", "trace.measure_overhead_pct": "%",
}


class RunError(RuntimeError):
    pass


def median(values) -> float:
    return float(statistics.median(values))


def measuring_seconds(m: dict, scaled: bool = True) -> float:
    """Time to measure the whole workload, scaled to the reference host speed.

    Library workloads: every frame-processing segment plus each run's fixed
    part (objects, finish and write), each scaled by its own probes.  A CLI
    workload has one process per repeat: the median of their times.
    """
    if "segments" not in m:
        return median(m["scaled_walls"] if scaled else m["walls"])
    col = 2 if scaled else 1
    return sum(seg[col] for seg in m["segments"]) + sum(t[col - 1] for t in m["tails"])


class Runner:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.workload = workloads.build(args.workload, args.seed, args.size)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.phase_s: dict[str, float] = {}
        pythonpath = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def spawn(self, role: str, trace: bool, **extra) -> tuple[float, float]:
        """Run one child to its end; returns (spawn time, wall seconds)."""
        job = {"name": self.args.workload, "seed": self.args.seed, "size": self.args.size,
               "workdir": str(self.work), "trace": trace, "seconds": self.args.seconds, **extra}
        job_path = self.work / f"job-{role}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        log_path = self.work / f"log-{role}.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError(f"no time left to start {role}")
        with log_path.open("wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), role, str(job_path)],
                                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, _ = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        self.phase_s[role] = self.phase_s.get(role, 0.0) + wall
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise RunError(f"{role} exited with {proc.returncode}:\n{tail}")
        return t0, wall

    def result(self, role: str) -> dict:
        return json.loads((self.work / f"{role}.json").read_text(encoding="utf-8"))

    def tree_files(self) -> list[Path]:
        return [p for p in (self.work / "trees").rglob("*") if p.is_file()]

    def damage_in_transit(self) -> None:
        """Turn one numeric cell of one transfer file into text, as a bad link would."""
        if self.workload.damaged_cell is None:
            return
        pid, param, row, col = self.workload.damaged_cell
        run = next(r for r in self.workload.runs if r.point_id == pid)
        path = self.work / "trees" / f"batch{run.batch}" / pid / param / f"{param}_000.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        cells = lines[data[row]].split(",")
        cells[col] = "n/a"
        lines[data[row]] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")

    def corrupt_output(self) -> None:
        """Self-test only: change one stored RMS value by one unit in the last place."""
        run = self.workload.runs[-1]
        path = self.work / "trees" / f"batch{run.batch}" / run.point_id / "rms" / "rms_000.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(",")
        value = float(cells[0])
        cells[0] = repr(value + abs(value) * 2.0 ** -52)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")

    def run_pass(self, trace: bool, serve: bool = True) -> dict:
        """One pass of the workload; returns the raw figures of every child.

        ``serve=False`` stops after the measuring side: the untraced reference
        that a traced run states its overhead against.
        """
        for sub in ("trees", "expect", "server"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        out: dict = {"trace": trace}
        if serve and not trace:
            out["setup_s"], out["setup_scaled_s"] = [], []
            before = pace.probe(3)
            for i in range(SETUP_REPS):
                wall = self.spawn("setup", False, tag=i)[1]
                after = pace.probe(3)
                out["setup_s"].append(wall)
                out["setup_scaled_s"].append(pace.scaled(wall, [before, after]))
                before = after
        if self.workload.mode == "cli":
            out["gen_s"] = self.spawn("cli-gen", trace)[1]
            out["cli-gen"] = self.result("cli-gen")
            reps = 1 if trace else CLI_ANALYZE_REPS
            walls, scaled, rss = [], [], []
            for i in range(reps):
                shutil.rmtree(self.work / "trees", ignore_errors=True)
                last = i == reps - 1
                t0, _ = self.spawn("cli-analyze", trace, tag=i, expect=last)
                res = self.result(f"cli-analyze-{i}")
                walls.append(res["end"] - t0 - res["probe_s"])
                scaled.append(walls[-1] * res["speed"])
                rss.append(res["rss_mb"])
            out["measure"] = dict(res, walls=walls, scaled_walls=scaled, rss_mb=max(rss))
            out["measure_role"] = f"cli-analyze-{reps - 1}"
        else:
            self.spawn("measure", trace)
            out["measure"] = self.result("measure")
            out["measure_role"] = "measure"
        files = self.tree_files()
        out["tree_files"] = len(files)
        out["tree_bytes"] = sum(p.stat().st_size for p in files)
        if not serve:
            return out
        self.damage_in_transit()
        if self.args.corrupt:
            self.corrupt_output()
        self.spawn("server", trace)
        out["server"] = self.result("server")
        if trace:
            for role in (out["measure_role"], "server", "cli-gen"):
                src = self.work / f"spans-{role}.npz"
                if src.exists():
                    dst = HERE / "out" / f"{self.args.workload}-seed{self.args.seed}-{role}.npz"
                    dst.parent.mkdir(exist_ok=True)
                    shutil.copyfile(src, dst)
                    out.setdefault("span_files", {})[role] = dst
        return out


def end_to_end(p: dict, workload, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``scaled=False`` gives the same figures unscaled."""
    stream_s = workload.stream_seconds
    server = p["server"]
    s = server["samples"]
    raw = "" if scaled else "raw_"
    return {
        "setup_s": median(p["setup_scaled_s" if scaled else "setup_s"]),
        "measure_realtime_x": stream_s / measuring_seconds(p["measure"], scaled),
        "ingest_rows_per_s": median(server[f"ingest_{raw}rows_per_s"]),
        "series_chart_p50_ms": median(s[f"chart_{raw}ms"]),
        "series_range_p50_ms": median(s[f"range_{raw}ms"]),
        "raw_export_ksamples_per_s": median(s[f"export_{raw}ksps"]),
        "measure_peak_rss_mb": p["measure"]["rss_mb"],
        "server_peak_rss_mb": server["rss_mb"],
        "transfer_bytes_per_stream_s": p["tree_bytes"] / stream_s,
        "db_bytes_per_stream_s": server["db_bytes"] / stream_s,
    }


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    from spans import load_spans, self_times

    layers: dict[str, dict] = {}
    for path in traced["span_files"].values():
        for name, st in self_times(load_spans(path)).items():
            layers[name] = st

    def self_s(*names):
        return sum(layers[n]["self_s"] for n in names if n in layers)

    def count(name):
        return layers[name]["count"] if name in layers else 0

    m = traced["measure"]
    server = traced["server"]
    s = server["samples"]
    counts = Counter(m.get("trace_counts", {}))
    counts.update(server.get("trace_counts", {}))
    report = server["report"]
    cli = plain.get("cli-gen")
    out = {
        "siggen.busy_s": self_s("siggen.frame"),
        "siggen.frames": count("siggen.frame"),
        "analyzer.self_s": self_s("analyzer.process_frame", "analyzer.finish"),
        "analyzer.frames": count("analyzer.process_frame"),
        "analyzer.records": m["records"],
        "events.self_s": self_s("events.feed_samples", "events.update", "events.close"),
        "events.updates": count("events.update"),
        "events.detected": m["events"],
        "events.capture_samples": counts["events.capture_samples"],
        "events.capture_bytes": counts["events.capture_bytes"],
        "events.capture_ratio": counts["events.capture_bytes"] / max(counts["events.capture_raw_bytes"], 1),
        "store.write_s": self_s("store.write_metadata", "store.write_results", "store.raw_sink"),
        "store.write_files": traced["tree_files"],
        "store.write_bytes": traced["tree_bytes"],
        "store.ingest_s": median(server["ingest_s"]),
        "store.ingest_files_seen": report["files_ingested"] + report["files_duplicate"]
        + report["files_malformed"],
        "store.ingest_files_ingested": report["files_ingested"],
        "store.ingest_files_duplicate": report["files_duplicate"],
        "store.ingest_files_malformed": report["files_malformed"],
        "store.ingest_rows": report["rows"],
        "store.ingest_statements": counts["store.ingest_statements"],
        "store.ingest_commits": counts["store.ingest_commits"],
        "store.reingest_s": median(server["reingest_s"]),
        "query.series_full_ms": median(s["series_full_ms"]),
        "query.series_range_ms": median(s["range_raw_ms"]),
        "query.series_range_rows_returned": median(s["range_rows"]),
        "query.series_rows_stored": median(s["series_rows_stored"]),
        "query.events_agg_ms": median(s["agg_ms"]),
        "query.event_detail_ms": median(s["detail_ms"]),
        "query.raw_export_ms": median(s["export_ms"]),
        "query.raw_export_samples": median(s["export_samples"]),
        "query.raw_export_bytes": median(s["export_bytes"]),
        "charts.render_ms": median(s["render_ms"]),
        "charts.svg_bytes": median(s["svg_bytes"]),
        "cli.gen_s": plain.get("gen_s", 0.0),
        "cli.gen_peak_rss_mb": cli["rss_mb"] if cli else 0.0,
        "cli.analyze_peak_rss_mb": plain["measure"]["rss_mb"] if cli else 0.0,
        "trace.spans": m.get("spans", 0) + server.get("spans", 0)
        + (traced.get("cli-gen") or {}).get("spans", 0),
        "trace.measure_overhead_pct":
            100.0 * (measuring_seconds(traced["measure"]) / measuring_seconds(plain["measure"]) - 1.0),
    }
    return out


def account(p: dict) -> tuple[list[dict], bool]:
    """Every check of the pass, and whether each failure is one of the known faults."""
    items = p["measure"].get("checks", []) + p["server"]["checks"]
    known = all(c["ok"] or c["tags"] for c in items)
    return items, known


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the server side spends repeating ingest and queries")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs every workload in seconds, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: damage one stored RMS value before ingest")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pqstream" / "__init__.py").is_file():
        print(f"error: no pqstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args, work)
    try:
        plain = runner.run_pass(trace=False, serve=not args.trace)
        traced = runner.run_pass(trace=True) if args.trace else None
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced is None:
        metrics, units, checked = end_to_end(plain, runner.workload), END_TO_END, plain
    else:
        metrics, units, checked = per_layer(traced, plain), PER_LAYER, traced
    items, known = account(checked)
    failed = [c for c in items if not c["ok"]]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    raw = end_to_end(plain, runner.workload, scaled=False) if traced is None else {}
    for name, value in metrics.items():
        wall = f"   (raw wall time: {raw[name]:.6g})" if name in raw and raw[name] != value else ""
        print(f"  {name:<34} {value:>16.6g} {units[name]}{wall}")
    print("  child wall s: " + ", ".join(f"{k} {v:.2f}" for k, v in runner.phase_s.items()))
    print(f"  checks attempted {len(items)}, failed {len(failed)}")
    by_fault = Counter((",".join(c["tags"]) or "none", c["name"].split("[")[0]) for c in failed)
    for (fault, name), n in sorted(by_fault.items()):
        print(f"    fault {fault}: {name} x{n}")
    for c in failed:
        if not c["tags"]:
            print(f"    unexpected: {c['name']}: {c['detail']}")
    print(json.dumps({
        "correct": known,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
