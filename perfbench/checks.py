"""Output checks: each one is an attempted operation that passes or fails.

Expected values come from the workload's disturbance list (closed-form
RMS levels, one event per envelope disturbance) or from what the measuring
side produced in memory (the analyzer's records and the generator's
samples), never from a stored copy of an earlier run's output.  A check
that raises counts as failed; it never stops the run.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from datetime import timedelta
from pathlib import Path

import numpy as np

from workloads import NOMINAL_I, NOMINAL_V, PointRun

SAMPLE_RATE = 3200
RMS_WINDOW_S = 0.2
TRIGGER_SAMPLES = 640  # the detector's default 0.2 s pre and post trigger
RTOL = 1e-9


def _phase(prefix: str) -> list[str]:
    return [f"{prefix}_{p}" for p in "abc"]


def _harmonic(prefix: str) -> list[str]:
    return [f"{prefix}_{p}_h{h}" for p in "abc" for h in range(1, 34)]


#: Parameter -> (stored columns, record -> flat values), written from the
#: documented transfer-file layout rather than taken from the store module.
PARAMETERS = {
    "rms": (_phase("v") + _phase("i"), lambda r: (*r.v_rms, *r.i_rms)),
    "power": (_phase("p") + _phase("q") + _phase("s") + _phase("pf"),
              lambda r: (*r.active, *r.reactive, *r.apparent, *r.power_factor)),
    "harmonics": (_harmonic("v") + _harmonic("i") + _phase("thd_v") + _phase("thd_i"),
                  lambda r: (*(x for row in r.v_harmonics for x in row),
                             *(x for row in r.i_harmonics for x in row), *r.thd_v, *r.thd_i)),
    "frequency": (["frequency", "held"], lambda r: (r.frequency, float(r.held))),
    "demand": (_phase("d"), lambda r: r.demand),
    "flicker_pst": (_phase("pst"), lambda r: r.pst),
    "flicker_plt": (_phase("plt"), lambda r: r.plt),
}


def as_f64(rows) -> np.ndarray:
    """Rows of numbers or None as float64, None read as NaN."""
    if not len(rows):
        return np.empty((0, 0))
    return np.array([[math.nan if v is None else float(v) for v in row] for row in rows],
                    dtype=np.float64).reshape(len(rows), -1)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class Checks:
    """Outcome of every check, tagged with the faults its inputs carry."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def run(self, name: str, tags, fn, *args) -> bool:
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crashing check is a failed check, not a failed run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.items.append({"name": name, "ok": bool(ok), "tags": sorted(tags), "detail": detail})
        return bool(ok)


# -- measuring side ------------------------------------------------------------


def expected_levels(run: PointRun, t_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form per-unit RMS of each 0.2 s window and whether it is wholly inside a level.

    Envelope entries set a phase's fundamental amplitude; harmonic entries
    add an orthogonal component of their own amplitude on top, so the window
    RMS is sqrt(level^2 + sum of squared harmonic amplitudes).
    """
    t0 = t_end - RMS_WINDOW_S
    level = np.ones((len(t_end), 3))
    extra = np.zeros((len(t_end), 3))
    clean = np.ones(len(t_end), dtype=bool)
    eps = 1e-9
    for d in run.disturbances:
        inside = (t0 >= d.start - eps) & (t_end <= d.end + eps)
        touches = (t_end > d.start + eps) & (t0 < d.end - eps)
        clean &= inside | ~touches
        for p, name in enumerate("ABC"):
            if name not in d.phases:
                continue
            if d.is_envelope:
                level[inside, p] = d.magnitude
            elif d.kind == "harmonic":
                extra[inside, p] += d.magnitude ** 2
    return np.sqrt(level ** 2 + extra), clean


def check_rms_levels(run: PointRun, result) -> tuple[bool, str]:
    values = as_f64([PARAMETERS["rms"][1](r) for r in result.rms])
    t_end = np.array([r.timestamp for r in result.rms])
    expected_pu, clean = expected_levels(run, t_end)
    expected = np.hstack([expected_pu * NOMINAL_V, expected_pu * NOMINAL_I])
    want = round(run.duration / RMS_WINDOW_S)
    if len(values) != want:
        return False, f"{len(values)} RMS records, expected {want}"
    close = np.isclose(values[clean], expected[clean], rtol=RTOL, atol=RTOL * NOMINAL_V)
    bad = int((~close).sum())
    return bad == 0, f"{int(clean.sum())} windows inside a level, {bad} cells off the closed form"


def check_event(run: PointRun, events, disturbance) -> tuple[bool, str]:
    hits = [e for e in events if e.event_type == disturbance.kind
            and abs(e.start_time - disturbance.start) <= RMS_WINDOW_S + 1e-9
            and abs(e.end_time - disturbance.end) <= RMS_WINDOW_S + 1e-9]
    return len(hits) == 1, f"{disturbance.line()}: {len(hits)} matching events"


def check_event_count(run: PointRun, events) -> tuple[bool, str]:
    want = len(run.envelope_events)
    return len(events) == want, f"{len(events)} events, script has {want} envelope entries"


def measure_checks(checks: Checks, run: PointRun, result) -> None:
    tags = run.faults
    checks.run(f"rms_closed_form[{run.key}]", tags, check_rms_levels, run, result)
    for i, d in enumerate(run.envelope_events):
        checks.run(f"event_census[{run.key}#{i}]", tags, check_event, run, result.events, d)
    checks.run(f"event_count[{run.key}]", tags, check_event_count, run, result.events)


def save_expectations(run: PointRun, result, refs: dict[int, np.ndarray], out: Path) -> None:
    """What the server side compares against: records, events and input samples."""
    out.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for param, (_, flat) in PARAMETERS.items():
        records = getattr(result, param)
        arrays[f"{param}.t"] = np.array([r.timestamp for r in records], dtype=np.float64)
        arrays[f"{param}.v"] = as_f64([flat(r) for r in records])
    for start, block in refs.items():
        arrays[f"ref.{start}"] = block
    np.savez(out / "expect.npz", **arrays)
    events = [{"event_id": e.event_id, "event_type": e.event_type, "start_time": e.start_time,
               "end_time": e.end_time, "size_in_samples": e.size_in_samples}
              for e in result.events]
    (out / "events.json").write_text(json.dumps(events), encoding="utf-8")


def reference_windows(run: PointRun) -> list[tuple[int, int]]:
    """Sample ranges around each envelope entry that cover its capture."""
    total = round(run.duration * SAMPLE_RATE)
    margin = 2 * TRIGGER_SAMPLES + round(RMS_WINDOW_S * SAMPLE_RATE)
    return [(max(0, round(d.start * SAMPLE_RATE) - margin),
             min(total, round(d.end * SAMPLE_RATE) + margin)) for d in run.envelope_events]


# -- server side -------------------------------------------------------------------


class Expected:
    """The measuring side's records of one point run, loaded back from disk."""

    def __init__(self, run: PointRun, directory: Path) -> None:
        self.run = run
        with np.load(directory / "expect.npz") as data:
            self.arrays = {k: data[k] for k in data.files}
        self.events = json.loads((directory / "events.json").read_text(encoding="utf-8"))

    def stamp(self, seconds: float):
        """Absolute time of a stream-relative time, as the transfer writer dates it."""
        return self.run.base_time + timedelta(milliseconds=round(seconds * 1000.0))

    def series(self, param: str) -> tuple[list, np.ndarray]:
        t = self.arrays[f"{param}.t"]
        return [self.stamp(x) for x in t], self.arrays[f"{param}.v"]

    def reference(self, first: int, count: int) -> np.ndarray | None:
        for key, block in self.arrays.items():
            if key.startswith("ref."):
                start = int(key[4:])
                if start <= first and first + count <= start + block.shape[1]:
                    return block[:, first - start: first - start + count]
        return None


def merged_series(expected: list[Expected], param: str) -> tuple[list, np.ndarray]:
    stamps: list = []
    blocks = []
    for e in expected:
        s, v = e.series(param)
        stamps += s
        blocks.append(v)
    values = np.vstack(blocks) if blocks else np.empty((0, 0))
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return [stamps[i] for i in order], values[order] if len(order) else values


def check_table(table, param: str, stamps: list, values: np.ndarray) -> tuple[bool, str]:
    columns = PARAMETERS[param][0]
    if list(table.columns) != ["timestamp", *columns]:
        return False, f"columns {table.columns[:4]}... differ from the transfer layout"
    got_stamps = [row[0] for row in table.rows]
    if len(table.rows) != len(stamps):
        return False, f"{len(table.rows)} rows, expected {len(stamps)}"
    if got_stamps != stamps:
        first = next(i for i, (a, b) in enumerate(zip(got_stamps, stamps)) if a != b)
        return False, f"timestamp of row {first} is {got_stamps[first]}, expected {stamps[first]}"
    got = as_f64([row[1:] for row in table.rows])
    if len(stamps) and not same_bits(got, values):
        return False, f"{int((got != values).sum())} cells differ in bits"
    return True, f"{len(stamps)} rows equal in count, time and bits"


def check_stored_event(db, event_detail, e: Expected, record: dict) -> tuple[bool, str]:
    stored = event_detail(db, record["event_id"], e.run.point_id)
    want = (record["event_type"], e.stamp(record["start_time"]), e.stamp(record["end_time"]),
            record["size_in_samples"])
    got = (stored.event_type, stored.start_time, stored.end_time, stored.size_in_samples)
    return got == want and stored.raw_path is not None, f"stored {got}, detector {want}"


def expected_capture(e: Expected, record: dict) -> tuple[int, int]:
    total = round(e.run.duration * SAMPLE_RATE)
    start = round(record["start_time"] * SAMPLE_RATE)
    end = start + record["size_in_samples"]
    first = max(0, start - TRIGGER_SAMPLES)
    return first, min(total, end + TRIGGER_SAMPLES) - first


def read_export(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_export_count(data: np.ndarray, e: Expected, record: dict) -> tuple[bool, str]:
    _, count = expected_capture(e, record)
    return data.shape[0] == count, f"{data.shape[0]} samples exported, extent and margins give {count}"


def check_export_samples(data: np.ndarray, e: Expected, record: dict) -> tuple[bool, str]:
    first, count = expected_capture(e, record)
    ref = e.reference(first, count)
    if ref is None:
        return False, "no generator samples kept for this range"
    if data.shape != (count, 7):
        return False, f"export shape {data.shape}, expected ({count}, 7)"
    index_ok = bool(np.array_equal(data[:, 0], np.arange(first, first + count)))
    values_ok = same_bits(np.ascontiguousarray(data[:, 1:].T), np.ascontiguousarray(ref))
    return index_ok and values_ok, f"indices match: {index_ok}, samples equal the input: {values_ok}"


def check_svg(path: Path, rows: int, series: int) -> tuple[bool, str]:
    root = ET.parse(path).getroot()
    lines = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polyline"]
    counts = [len(el.get("points", "").split()) for el in lines]
    ok = len(lines) == series and all(c == rows for c in counts)
    return ok, f"{len(lines)} polylines with {sorted(set(counts))} vertices for {rows} rows"
