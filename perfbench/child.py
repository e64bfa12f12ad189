"""Child processes of the benchmark, one role each.

    python3 child.py <role> <job.json>

Roles: ``setup`` (interpreter start, imports, configs and schema),
``measure`` (the measuring side through the library), ``cli-gen`` and
``cli-analyze`` (the measuring side through the command-line front end)
and ``server`` (ingest, queries, charts and raw export).  Each role except
``setup`` writes ``<workdir>/<role>.json`` with its timings, counters, peak
RSS and check outcomes, and, when tracing, its spans next to it.

The measuring side and the server side run in separate processes so that
each one's peak RSS is its own: ``ru_maxrss`` never goes down within a
process.  Peak RSS is read when the timed work ends, before any check runs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter, defaultdict
from datetime import timedelta
from pathlib import Path

import pace
import workloads
from workloads import NOMINAL_I, NOMINAL_V, RANGE_WINDOW_S

SEGMENT_S = 20.0           # frame processing is timed and probed per 20 s of stream
INGEST_SHARE = 0.35        # of the server's --seconds budget; queries get the rest
MAX_INGEST_REPS = 50
#: Query kind -> (share of the query budget, fewest samples, most samples).
QUERY_PLAN = {
    "chart": (0.30, 5, 400),
    "range": (0.20, 9, 2000),
    "agg": (0.05, 9, 2000),
    "detail": (0.05, 9, 2000),
    "export": (0.40, 2, 400),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Job:
    def __init__(self, path: str) -> None:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
        self.__dict__.update(spec)
        self.work = Path(self.workdir)
        self.workload = workloads.build(self.name, self.seed, self.size)
        self.tracer = None
        if self.trace:
            from spans import Tracer

            self.tracer = Tracer()

    def finish(self, role: str, payload: dict) -> None:
        if self.tracer is not None:
            self.tracer.save(self.work / f"spans-{role}.npz")
            payload["trace_counts"] = dict(self.tracer.counts)
            payload["spans"] = len(self.tracer)
        (self.work / f"{role}.json").write_text(json.dumps(payload), encoding="utf-8")

    def tree(self, batch: int) -> Path:
        return self.work / "trees" / f"batch{batch}"


# -- set-up -------------------------------------------------------------------------


def setup(job: Job) -> None:
    from pqstream import (EventThresholds, MeasurementPoint, PipelineConfig, SignalConfig,
                          StreamDatabase, parse_script)
    from pqstream import charts, cli, query  # noqa: F401 - every layer a run imports

    for run in job.workload.runs:
        SignalConfig(**run.signal_kwargs())
        parse_script(run.script)
        MeasurementPoint(**run.point)
    PipelineConfig(nominal_voltage_rms=NOMINAL_V, nominal_current_rms=NOMINAL_I)
    EventThresholds(nominal_voltage_rms=NOMINAL_V)
    path = job.work / f"setup-{job.tag}.sqlite"
    with StreamDatabase(path):
        pass
    path.unlink()


# -- measuring side ----------------------------------------------------------------


def stream_frames(signal, script):
    """The generator's stream in 640-sample frames, synthesized 3 s at a time.

    Synthesis is elementwise in the sample index, so these frames hold the
    same bits as ``generate_stream`` with its default frame length; the
    larger block only spreads the generator's per-call cost.
    """
    from pqstream.siggen import DEFAULT_FRAME_LENGTH, WaveformFrame, generate_stream

    step = DEFAULT_FRAME_LENGTH
    for block in generate_stream(signal, script, frame_length=15 * step):
        v, c = block.voltage_samples, block.current_samples
        for k in range(0, block.frame_length, step):
            yield WaveformFrame(block.start_sample_index + k, v[:, k:k + step], c[:, k:k + step])


def measure(job: Job) -> None:
    import numpy as np

    from checks import Checks, measure_checks, reference_windows, save_expectations
    from pqstream import (EventDetector, EventThresholds, MeasurementPoint, PipelineConfig,
                          SignalConfig, StreamPipeline, TransferFileWriter, parse_script)

    classes = {"StreamPipeline": StreamPipeline, "EventDetector": EventDetector,
               "TransferFileWriter": TransferFileWriter}
    if job.tracer is not None:
        from tracing import bind, traced_frames

        classes = bind(job.tracer)
    Pipeline, Detector, Writer = (classes[k] for k in
                                  ("StreamPipeline", "EventDetector", "TransferFileWriter"))
    pipeline_config = PipelineConfig(nominal_voltage_rms=NOMINAL_V, nominal_current_rms=NOMINAL_I)
    thresholds = EventThresholds(nominal_voltage_rms=NOMINAL_V)
    prepared = [(run, SignalConfig(**run.signal_kwargs()), parse_script(run.script),
                 MeasurementPoint(**run.point)) for run in job.workload.runs]

    clock = time.perf_counter
    targets = {f"{pid}.{seq}" for pid, seq, _ in job.workload.export_targets}
    checks = Checks()
    # [stream seconds, wall seconds, scaled seconds] of frame processing, per
    # segment; per run, [wall, scaled] of building the objects, finish and write
    segments: list[list[float]] = []
    tails: list[list[float]] = []
    rss = records = events = 0
    for run, signal, script, point in prepared:
        # generator samples kept only where a capture will be exported and compared
        windows = reference_windows(run) if run.key in targets else []
        refs = {lo: np.empty((6, hi - lo)) for lo, hi in windows}
        frames = stream_frames(signal, script)
        if job.tracer is not None:
            frames = traced_frames(job.tracer, frames)
        t0 = clock()
        writer = Writer(job.tree(run.batch), point, run.base_time)
        detector = Detector(thresholds, measurement_point_id=point.id, raw_sink=writer.raw_sink)
        pipeline = Pipeline(pipeline_config, detector=detector)
        tail = clock() - t0
        seg_stream = seg_wall = 0.0
        last = pace.probe()
        for frame in frames:
            for lo, block in refs.items():
                a = max(lo, frame.start_sample_index)
                b = min(lo + block.shape[1], frame.end_sample_index)
                if a < b:
                    s = slice(a - frame.start_sample_index, b - frame.start_sample_index)
                    block[:3, a - lo:b - lo] = frame.voltage_samples[:, s]
                    block[3:, a - lo:b - lo] = frame.current_samples[:, s]
            t0 = clock()
            pipeline.process_frame(frame)
            seg_wall += clock() - t0
            seg_stream += frame.frame_length / signal.sampling_rate
            if seg_stream >= SEGMENT_S - 1e-9:
                now = pace.probe()
                segments.append([seg_stream, seg_wall, pace.scaled(seg_wall, [last, now])])
                seg_stream = seg_wall = 0.0
                last = now
        if seg_stream:
            now = pace.probe()
            segments.append([seg_stream, seg_wall, pace.scaled(seg_wall, [last, now])])
            last = now
        t0 = clock()
        result = pipeline.finish()
        writer.write_results(result, file_seq=run.file_seq)
        tail += clock() - t0
        tails.append([tail, pace.scaled(tail, [last, pace.probe()])])
        rss = max(rss, peak_rss_mb())
        records += _record_count(result)
        events += len(result.events)
        measure_checks(checks, run, result)
        save_expectations(run, result, refs, job.work / "expect" / run.key)
        del result, refs, pipeline, detector
    job.finish("measure", {
        "segments": segments,
        "tails": tails,
        "rss_mb": rss,
        "records": records,
        "events": events,
        "checks": checks.items,
    })


def _record_count(result) -> int:
    return sum(len(getattr(result, k)) for k in
               ("rms", "power", "harmonics", "frequency", "demand", "flicker_pst", "flicker_plt"))


# -- measuring side through the CLI ------------------------------------------------


def cli_gen(job: Job) -> None:
    from pqstream import cli

    run = job.workload.runs[0]
    gen = job.work / "gen"
    gen.mkdir(parents=True, exist_ok=True)
    config = dict(run.signal_kwargs(), point=run.point,
                  base_time=run.base_time.isoformat(timespec="microseconds"))
    (gen / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (gen / "script.txt").write_text(run.script, encoding="utf-8")
    if job.tracer is not None:
        from tracing import traced_frames

        generate = cli.generate_stream
        cli.generate_stream = lambda *a, **k: traced_frames(job.tracer, generate(*a, **k))
    code = cli.main(["gen", "--config", str(gen / "config.json"),
                     "--script", str(gen / "script.txt"), "--out", str(gen / "stream")])
    job.finish("cli-gen", {"code": code, "end": time.monotonic(), "rss_mb": peak_rss_mb()})


def cli_analyze(job: Job) -> None:
    from pqstream import analyzer, cli

    captured = {}
    run_pipeline = cli.run_pipeline

    def keep(*args, **kwargs):
        captured["result"] = run_pipeline(*args, **kwargs)
        return captured["result"]

    cli.run_pipeline = keep
    if job.tracer is not None:
        from tracing import bind

        classes = bind(job.tracer)
        analyzer.StreamPipeline = classes["StreamPipeline"]
        cli.EventDetector = classes["EventDetector"]
        cli.TransferFileWriter = classes["TransferFileWriter"]
    run = job.workload.runs[0]
    stream = job.work / "gen" / "stream"
    argv = ["analyze", "--in", str(stream), "--out", str(job.tree(run.batch))]
    # host speed probed inside the run, except when tracing (no probe in a span)
    code, dt, kernels = pace.timed(cli.main, argv, repeat=3, during=not job.trace)
    end = time.monotonic()
    rss = peak_rss_mb()
    payload = {"code": code, "end": end, "rss_mb": rss, "speed": pace.scaled(1.0, kernels),
               "probe_s": sum(kernels[1:-1])}
    if job.expect:
        import numpy as np

        from checks import Checks, measure_checks, reference_windows, save_expectations

        result = captured["result"]
        voltage = np.load(stream / cli.VOLTAGE_FILE, mmap_mode="r")
        current = np.load(stream / cli.CURRENT_FILE, mmap_mode="r")
        refs = {lo: np.vstack([voltage[:, lo:hi], current[:, lo:hi]])
                for lo, hi in reference_windows(run)}
        checks = Checks()
        measure_checks(checks, run, result)
        save_expectations(run, result, refs, job.work / "expect" / run.key)
        payload.update(records=_record_count(result), events=len(result.events),
                       checks=checks.items)
    job.finish(f"cli-analyze-{job.tag}", payload)


# -- server side -------------------------------------------------------------------


class Server:
    """Ingest, then queries, charts and raw export, each timed from outside."""

    def __init__(self, job: Job) -> None:
        from pqstream.charts import ChartSpec
        from pqstream.query import QuerySpec

        self.job = job
        self.wl = job.workload
        self.tracer = job.tracer
        self.samples: dict[str, list] = defaultdict(list)
        self.out = job.work / "server"
        self.out.mkdir(parents=True, exist_ok=True)
        self.chart_spec = ChartSpec(kind="time_series", title="RMS")
        self.agg_specs = [QuerySpec(group_by=("load_type",)), QuerySpec(group_by=("city_name",)),
                          QuerySpec()]
        firsts = {}
        for run in self.wl.runs:
            firsts.setdefault(run.point_id, run)
        self.windows = {}
        for pid in self.wl.series_targets:
            run = firsts[pid]
            mid = run.base_time + timedelta(seconds=run.duration / 2)
            half = timedelta(seconds=RANGE_WINDOW_S / 2)
            self.windows[pid] = (mid - half, mid + half)
        self.batch_points = defaultdict(set)
        for run in self.wl.runs:
            self.batch_points[run.batch].add(run.point_id)
        self.turn = Counter()
        # the last chart and export of each target, checked after the timed phases
        self.rendered: dict[str, tuple] = {}
        self.exported: dict[tuple, Path] = {}

    def timed(self, name: str, fn, *args, repeat: int = 1, cpu: bool = False):
        """Call one public function; returns (result, seconds, scaled seconds).

        Untraced, the host speed is also probed inside the call; traced, only
        around it, so that no probe lands inside a span.
        """
        if self.tracer is None:
            out, dt, kernels = pace.timed(fn, *args, repeat=repeat, cpu=cpu, during=True)
        else:
            out, dt, kernels = pace.timed(self.tracer.call, name, fn, *args, repeat=repeat, cpu=cpu)
        return out, dt, pace.scaled(dt, kernels)

    def _pick(self, kind: str, items: list):
        if not items:
            return None
        item = items[self.turn[kind] % len(items)]
        self.turn[kind] += 1
        return item

    # one sample of each query kind; False when nothing is stored for it yet
    def chart(self, db, available) -> bool:
        from pqstream.charts import render_chart
        from pqstream.query import timeseries

        pid = self._pick("chart", [p for p in self.wl.series_targets if p in available])
        if pid is None:
            return False
        table, t_query, q_scaled = self.timed("query.timeseries_full", timeseries, db, pid, "rms",
                                              repeat=3)
        path, t_render, r_scaled = self.timed("charts.render_chart", render_chart, table,
                                              self.chart_spec, self.out / f"series-{pid}.svg",
                                              repeat=3)
        self.rendered[pid] = (path, len(table.rows), len(table.columns) - 1)
        s = self.samples
        s["chart_ms"].append(1e3 * (q_scaled + r_scaled))
        s["chart_raw_ms"].append(1e3 * (t_query + t_render))
        s["series_full_ms"].append(1e3 * t_query)
        s["render_ms"].append(1e3 * t_render)
        s["svg_bytes"].append(path.stat().st_size)
        s["series_rows_stored"].append(len(table.rows))
        return True

    def range(self, db, available) -> bool:
        from pqstream.query import timeseries

        pid = self._pick("range", [p for p in self.wl.series_targets if p in available])
        if pid is None:
            return False
        table, dt, scaled = self.timed("query.timeseries_range", timeseries, db, pid, "rms",
                                       *self.windows[pid])
        self.samples["range_ms"].append(1e3 * scaled)
        self.samples["range_raw_ms"].append(1e3 * dt)
        self.samples["range_rows"].append(len(table.rows))
        return True

    def agg(self, db, available) -> bool:
        from pqstream.query import aggregate_events

        spec = self._pick("agg", self.agg_specs)
        _, dt, _ = self.timed("query.aggregate_events", aggregate_events, db, spec)
        self.samples["agg_ms"].append(1e3 * dt)
        return True

    def detail(self, db, available) -> bool:
        from pqstream.query import event_detail

        target = self._pick("detail", [t for t in self.wl.export_targets if t[0] in available])
        if target is None:
            return False
        _, dt, _ = self.timed("query.event_detail", event_detail, db, target[2], target[0])
        self.samples["detail_ms"].append(1e3 * dt)
        return True

    def export(self, db, available) -> bool:
        from pqstream.query import event_detail, extract_raw_capture

        target = self._pick("export", [t for t in self.wl.export_targets if t[0] in available])
        if target is None:
            return False
        event = event_detail(db, target[2], target[0])
        path, dt, scaled = self.timed("query.extract_raw_capture", extract_raw_capture, event,
                                      self.out / "export", repeat=3)
        self.exported[target] = path
        with path.open("rb") as fh:
            n = sum(1 for _ in fh) - 1
        self.samples["export_ksps"].append(n / scaled / 1e3)
        self.samples["export_raw_ksps"].append(n / dt / 1e3)
        self.samples["export_ms"].append(1e3 * dt)
        self.samples["export_samples"].append(n)
        self.samples["export_bytes"].append(path.stat().st_size)
        return True

    def ingest_all(self, rep: int):
        """One delivery sequence into a fresh database.

        Returns the database, the reports, the (CPU, scaled) seconds of
        first deliveries and the CPU seconds of repeated ones.
        """
        from pqstream import StreamDatabase, ingest_directory

        path = self.job.work / f"ingest{rep % 2}.sqlite"
        for stale in (path, path.with_name(path.name + "-journal")):
            stale.unlink(missing_ok=True)
        db = StreamDatabase(path)
        counting = self.tracer is not None and rep == 0
        if counting:
            from tracing import count_statements

            count_statements(self.tracer, db.conn)
        delivered, available = set(), set()
        fresh_s = fresh_scaled = re_s = 0.0
        reports = []
        for batch in self.wl.deliveries:
            again = batch in delivered
            delivered.add(batch)
            # CPU time: fsync latency of a shared disk stays out of the figure,
            # while SQLite keeps the flush settings the program gives it
            report, dt, scaled = self.timed("store.reingest" if again else "store.ingest_directory",
                                            ingest_directory, self.job.tree(batch), db,
                                            repeat=5, cpu=True)
            reports.append((again, report))
            if again:
                re_s += dt
            else:
                fresh_s += dt
                fresh_scaled += scaled
            available |= self.batch_points[batch]
            if len(self.wl.deliveries) > 2:
                # queries between deliveries: reads beside a growing database
                for kind in ("chart", "range", "agg", "detail"):
                    getattr(self, kind)(db, available)
        if counting:
            db.conn.set_trace_callback(None)
        return db, reports, (fresh_s, fresh_scaled), re_s

    def serve(self) -> dict:
        budget = self.job.seconds
        t_start = time.perf_counter()
        rates, raw_rates, fresh, again = [], [], [], []
        rep = 0
        db = None
        while True:
            if db is not None:
                db.close()
            db, reports, fresh_s, re_s = self.ingest_all(rep)
            rows = sum(r.total_rows_inserted for a, r in reports if not a)
            rates.append(rows / fresh_s[1])
            raw_rates.append(rows / fresh_s[0])
            fresh.append(fresh_s[0])
            again.append(re_s)
            rep += 1
            spent = time.perf_counter() - t_start
            if rep >= MAX_INGEST_REPS or (rep >= self.wl.min_ingest_reps
                                          and spent >= INGEST_SHARE * budget):
                break
        available = set(self.wl.points())
        query_budget = budget - (time.perf_counter() - t_start)
        spent, taken = Counter(), Counter()
        # round-robin from the first target, at least once over every target,
        # so the last output for each one comes from this database and is checked
        self.turn.clear()
        fewest_all = max(len(self.wl.series_targets), len(self.wl.export_targets))
        while True:
            progressed = False
            for kind, (share, fewest, most) in QUERY_PLAN.items():
                n = taken[kind]
                if n >= most or (n >= max(fewest, fewest_all) and spent[kind] >= share * query_budget):
                    continue
                t0 = time.perf_counter()
                getattr(self, kind)(db, available)
                spent[kind] += time.perf_counter() - t0
                taken[kind] += 1
                progressed = True
            if not progressed:
                break
        rss = peak_rss_mb()
        db_bytes = db.path.stat().st_size
        checks = self.check(db, reports)
        db.close()
        malformed = sum(len(r.files_malformed) for _, r in reports)
        return {
            "ingest_reps": rep,
            "ingest_rows_per_s": rates,
            "ingest_raw_rows_per_s": raw_rates,
            "ingest_s": fresh,
            "reingest_s": again,
            "report": {
                "files_ingested": sum(r.files_ingested for _, r in reports),
                "files_duplicate": sum(r.files_skipped_duplicate for _, r in reports),
                "files_malformed": malformed,
                "rows": sum(r.total_rows_inserted for _, r in reports),
            },
            "samples": dict(self.samples),
            "rss_mb": rss,
            "db_bytes": db_bytes,
            "checks": checks,
        }

    def check(self, db, reports) -> list[dict]:
        import checks as ck
        from pqstream.query import aggregate_events, event_detail, timeseries

        wl = self.wl
        work = self.job.work
        checks = ck.Checks()
        expected = {r.key: ck.Expected(r, work / "expect" / r.key) for r in wl.runs}
        by_point: dict[str, list] = defaultdict(list)
        for run in wl.runs:
            by_point[run.point_id].append(expected[run.key])
        tags = {pid: frozenset().union(*(e.run.faults for e in exp)) for pid, exp in by_point.items()}
        malformed = [path for _, r in reports for path, _ in r.files_malformed]

        for pid, exp in by_point.items():
            for param in ck.PARAMETERS:
                stamps, values = ck.merged_series(exp, param)
                if not stamps:
                    continue
                if wl.damaged_cell is not None and wl.damaged_cell[:2] == (pid, param):
                    checks.run(f"damaged_file_rejected[{pid}/{param}]", tags[pid],
                               _check_rejected, db, malformed, pid, param)
                    continue
                checks.run(f"stored_rows[{pid}/{param}]", tags[pid],
                           lambda p=pid, q=param, s=stamps, v=values:
                           ck.check_table(timeseries(db, p, q), q, s, v))
            for e in exp:
                for record in e.events:
                    checks.run(f"stored_event[{e.run.key}#{record['event_id']}]", tags[pid],
                               ck.check_stored_event, db, event_detail, e, record)
            checks.run(f"event_stat[{pid}]", tags[pid], _check_event_stat, db, pid,
                       [rec for e in exp for rec in e.events])

        for spec in self.agg_specs:
            groups: dict[tuple, Counter] = defaultdict(Counter)
            members: dict[tuple, set] = defaultdict(set)
            for pid, exp in by_point.items():
                key = tuple(exp[0].run.point[k] for k in spec.group_by)
                members[key].add(pid)
                for e in exp:
                    groups[key].update(rec["event_type"] for rec in e.events)
            table = aggregate_events(db, spec)
            got = {tuple(row[:len(spec.group_by)]): tuple(row[len(spec.group_by):])
                   for row in table.rows}
            for key, counts in sorted(groups.items()):
                if not sum(counts.values()):
                    continue
                want = (counts["sag"], counts["swell"], counts["unbalance"], sum(counts.values()))
                label = "/".join(key) or "all"
                fault_tags = frozenset().union(*(tags[p] for p in members[key]))
                checks.run(f"aggregate[{','.join(spec.group_by) or 'total'}={label}]", fault_tags,
                           lambda g=got.get(key), w=want: (g == w, f"stored {g}, detector {w}"))

        for pid in wl.series_targets:
            stamps, values = ck.merged_series(by_point[pid], "rms")
            lo, hi = self.windows[pid]
            keep = [i for i, s in enumerate(stamps) if lo <= s <= hi]
            checks.run(f"range_query[{pid}]", tags[pid],
                       lambda p=pid, k=keep, s=stamps, v=values:
                       ck.check_table(timeseries(db, p, "rms", lo, hi), "rms",
                                      [s[i] for i in k], v[k]))
            checks.run(f"svg_chart[{pid}]", tags[pid], lambda p=pid: ck.check_svg(*self.rendered[p]))

        for target in wl.export_targets:
            pid, file_seq, event_id = target
            e = expected[f"{pid}.{file_seq}"]
            record = next(r for r in e.events if r["event_id"] == event_id)
            exported = {}

            def export(target=target, e=e, record=record, exported=exported):
                exported["data"] = ck.read_export(self.exported[target])
                return ck.check_export_count(exported["data"], e, record)

            checks.run(f"raw_export_count[{e.run.key}#{event_id}]", e.run.faults, export)
            checks.run(f"raw_export_samples[{e.run.key}#{event_id}]", e.run.faults,
                       lambda e=e, record=record, exported=exported:
                       ck.check_export_samples(exported["data"], e, record))
        return checks.items


def _check_rejected(db, malformed: list[str], pid: str, param: str):
    stored = db.conn.execute(
        "SELECT COUNT(*) FROM transfer_file WHERE measurement_point_id = ? AND parameter_type = ?",
        (pid, param)).fetchone()[0]
    flagged = any(Path(p).parts[-3:-1] == (pid, param) for p in malformed)
    return stored == 0 and flagged, f"reported malformed: {flagged}, files stored: {stored}"


def _check_event_stat(db, pid: str, records: list[dict]):
    want = Counter(r["event_type"] for r in records)
    stat = db.event_stat(pid)
    got = Counter() if stat is None else Counter(
        {"sag": stat.sag_count, "swell": stat.swell_count,
         "interruption": stat.interruption_count, "unbalance": stat.unbalance_count})
    return +got == +want, f"stored {dict(+got)}, detector {dict(+want)}"


def server(job: Job) -> None:
    job.finish("server", Server(job).serve())


ROLES = {"setup": setup, "measure": measure, "cli-gen": cli_gen, "cli-analyze": cli_analyze,
         "server": server}


if __name__ == "__main__":
    role, job_path = sys.argv[1], sys.argv[2]
    ROLES[role](Job(job_path))
