"""Seeded inputs of the three benchmark workloads.

Everything here is plain data built with the standard library only: the
parent process reads the shape of a workload without importing pqstream,
and the checks compare the program's outputs against these disturbance
lists rather than against the program's own script parser.

Every envelope disturbance starts and ends on the 0.2 s RMS grid, so the
expected RMS level of every window and the extent of every event follow
from the script alone.  The seed moves timings, depths, phases, harmonic
levels and current lag; it never changes how many points, runs or events a
workload has, so every seed attempts the same checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta

WORKLOADS = ("steady_2h", "long_event", "campaign_fleet")
SIZES = ("full", "tiny")

NOMINAL_V = 230.0
NOMINAL_I = 10.0
BASE_TIME = datetime(2024, 5, 1)
RMS_STEP = 0.2
RANGE_WINDOW_S = 10.0

LOAD_TYPES = ("Heavy Industry", "Industry+Urban", "Urban Only")
CITIES = (("Ankara", "Central Anatolia"), ("Istanbul", "Marmara"),
          ("Izmir", "Aegean"), ("Bursa", "Marmara"))


@dataclass(frozen=True)
class Disturbance:
    kind: str
    start: float
    end: float
    phases: str
    magnitude: float
    order: int | None = None

    def line(self) -> str:
        extra = f" {self.order}" if self.order is not None else ""
        return f"{self.kind} {self.start!r} {self.end!r} {self.phases} {self.magnitude!r}{extra}"

    @property
    def is_envelope(self) -> bool:
        return self.kind in ("sag", "swell", "interruption", "unbalance")


@dataclass(frozen=True)
class PointRun:
    """One measuring run at one point, delivered in one transfer tree."""

    point: dict
    duration: float
    current_lag_deg: float
    disturbances: tuple[Disturbance, ...]
    base_time: datetime = BASE_TIME
    file_seq: int = 0
    batch: int = 0
    faults: frozenset[str] = frozenset()

    @property
    def point_id(self) -> str:
        return self.point["id"]

    @property
    def key(self) -> str:
        return f"{self.point_id}.{self.file_seq}"

    @property
    def script(self) -> str:
        return "".join(d.line() + "\n" for d in self.disturbances)

    @property
    def envelope_events(self) -> list[Disturbance]:
        return [d for d in self.disturbances if d.is_envelope]

    def signal_kwargs(self) -> dict:
        return {
            "duration": self.duration,
            "nominal_voltage_rms": NOMINAL_V,
            "nominal_current_rms": NOMINAL_I,
            "current_lag_deg": self.current_lag_deg,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    mode: str  # "library" or "cli"
    runs: tuple[PointRun, ...]
    #: Batch numbers in delivery order; a repeated number is a re-sent batch.
    deliveries: tuple[int, ...] = (0,)
    #: Points whose whole RMS series is charted and range-queried.
    series_targets: tuple[str, ...] = ()
    #: (point id, file_seq, event id) of the captures exported to CSV.
    export_targets: tuple[tuple[str, int, int], ...] = ()
    #: (point id, parameter, data row, column) of the cell damaged in transit.
    damaged_cell: tuple[str, str, int, int] | None = None
    #: Fewest fresh ingest repetitions per run; the fleet's repetitions also
    #: run queries between deliveries, so fewer of them fill the same time.
    min_ingest_reps: int = 4

    @property
    def stream_seconds(self) -> float:
        return sum(r.duration for r in self.runs)

    def points(self) -> dict[str, dict]:
        return {r.point_id: r.point for r in self.runs}


def _grid(rng: random.Random, lo_s: float, hi_s: float) -> float:
    """A time on the RMS grid, uniformly drawn in [lo_s, hi_s]."""
    return rng.randint(round(lo_s / RMS_STEP), round(hi_s / RMS_STEP)) * RMS_STEP


def _on_grid(t: float) -> float:
    # k / 5 is the float nearest k * 0.2, which is also the float the
    # generator computes for sample 640 * k, so window edges match exactly.
    return round(t / RMS_STEP) / 5


def _point(idx: int, prefix: str) -> dict:
    city, region = CITIES[(idx // 3) % len(CITIES)]
    kind = "busbar" if idx % 2 == 0 else "feeder"
    return {
        "id": f"{prefix}{idx + 1:02d}",
        "name": f"{city} {kind} {idx + 1}",
        "point_kind": kind,
        "load_type": LOAD_TYPES[idx % 3],
        "city_name": city,
        "region_name": region,
        "voltage_level": 154.0 if idx % 2 == 0 else 34.5,
    }


def steady_2h(seed: int, size: str) -> Workload:
    """One point, 2 h at nominal level with a 5th-harmonic background and one short sag."""
    rng = random.Random(f"steady_2h/{seed}")
    duration = 7200.0 if size == "full" else 60.0
    h5 = round(rng.uniform(0.02, 0.04), 4)
    start = _on_grid(_grid(rng, 0.3 * duration, 0.7 * duration))
    run = PointRun(
        point=_point(0, "ST"),
        duration=duration,
        current_lag_deg=round(rng.uniform(10.0, 30.0), 3),
        disturbances=(
            Disturbance("harmonic", 0.0, duration, "ABC", h5, 5),
            Disturbance("sag", start, _on_grid(start + 1.0), rng.choice("ABC"),
                        round(rng.uniform(0.5, 0.8), 3)),
        ),
    )
    return Workload("steady_2h", seed, size, "library", (run,), deliveries=(0, 0),
                    series_targets=(run.point_id,),
                    export_targets=((run.point_id, 0, 1),))


def long_event(seed: int, size: str) -> Workload:
    """One point through the CLI: a few minutes holding a sag that lasts minutes."""
    rng = random.Random(f"long_event/{seed}")
    duration, sag_s = (240.0, 120.0) if size == "full" else (20.0, 5.0)
    start = _on_grid(_grid(rng, 0.2 * duration, 0.3 * duration))
    run = PointRun(
        point=_point(1, "LE"),
        duration=duration,
        current_lag_deg=round(rng.uniform(10.0, 30.0), 3),
        disturbances=(
            Disturbance("harmonic", 0.0, duration, "ABC", round(rng.uniform(0.01, 0.02), 4), 5),
            Disturbance("sag", start, _on_grid(start + sag_s), rng.choice("ABC"),
                        round(rng.uniform(0.4, 0.7), 3)),
        ),
    )
    return Workload("long_event", seed, size, "cli", (run,), deliveries=(0, 0),
                    series_targets=(run.point_id,),
                    export_targets=((run.point_id, 0, 1),))


_FLEET_KINDS = ("sag", "swell", "unbalance", "interruption", "sag")
_FLEET_HARMONIC = {"Heavy Industry": 5, "Industry+Urban": 7, "Urban Only": 3}
SLOT_S = 12.0

#: Fleet layout per size: points, points per batch, and the fixed points
#: that carry faults (a) duplicate quiet streams, (b) a damaged file and
#: (c) a second measuring run.  These never depend on the seed.
_FLEET_LAYOUT = {
    "full": {"points": 36, "per_batch": 9, "slots": 5, "quiet": (5, 14, 32),
             "damaged": 22, "remeasured": (2, 33), "resend": 1,
             "series": (7, 10, 16, 19, 25, 28), "exports": (7, 10, 16, 19, 25, 28)},
    "tiny": {"points": 8, "per_batch": 2, "slots": 2, "quiet": (1, 3),
             "damaged": 5, "remeasured": (0, 6), "resend": 1,
             "series": (2, 7), "exports": (2, 7)},
}


def _fleet_event(rng: random.Random, kind: str, slot_start: float) -> Disturbance:
    start = _on_grid(slot_start + _grid(rng, 1.0, 4.0))
    end = _on_grid(start + _grid(rng, 2.0, 6.0))
    if kind == "interruption":
        return Disturbance(kind, start, end, "ABC", round(rng.uniform(0.0, 0.02), 3))
    if kind == "unbalance":
        level = rng.uniform(0.94, 0.96) if rng.random() < 0.5 else rng.uniform(1.04, 1.06)
        return Disturbance(kind, start, end, rng.choice("ABC"), round(level, 3))
    if kind == "swell":
        return Disturbance(kind, start, end, rng.choice("ABC"), round(rng.uniform(1.15, 1.3), 3))
    phases = rng.choice(("A", "B", "C", "AB", "BC", "AC"))
    return Disturbance(kind, start, end, phases, round(rng.uniform(0.4, 0.8), 3))


def campaign_fleet(seed: int, size: str) -> Workload:
    """Dozens of short point runs with many events, delivered in batches."""
    layout = _FLEET_LAYOUT[size]
    rng = random.Random(f"campaign_fleet/{seed}")
    fixed = random.Random("campaign_fleet/faults")
    duration = layout["slots"] * SLOT_S
    runs: list[PointRun] = []
    for idx in range(layout["points"]):
        point = _point(idx, "FP")
        batch = idx // layout["per_batch"]
        harmonic_order = _FLEET_HARMONIC[point["load_type"]]
        if idx in layout["quiet"]:
            # Undisturbed points with the same settings give byte-identical files.
            runs.append(PointRun(point, duration, 15.0, (), batch=batch,
                                 faults=frozenset({"a"})))
            continue
        faulty = idx == layout["damaged"] or idx in layout["remeasured"]
        source = fixed if faulty else rng
        background = Disturbance("harmonic", 0.0, duration, "ABC",
                                 round(source.uniform(0.005, 0.015), 4), harmonic_order)
        events = tuple(
            _fleet_event(source, _FLEET_KINDS[(idx + s) % len(_FLEET_KINDS)], s * SLOT_S)
            for s in range(layout["slots"])
        )
        lag = round(source.uniform(5.0, 35.0), 3)
        tag = frozenset({"b"}) if idx == layout["damaged"] else frozenset()
        if idx in layout["remeasured"]:
            tag = frozenset({"c"})
        runs.append(PointRun(point, duration, lag, (background, *events), batch=batch, faults=tag))
        if idx in layout["remeasured"]:
            # A second run two hours later: event ids restart at 1 and the
            # event lengths differ, so overwritten captures cannot match.
            again = tuple(
                Disturbance(d.kind, d.start, _on_grid(d.end + 1.0), d.phases, d.magnitude)
                for d in events
            )
            runs.append(PointRun(point, duration, lag, (background, *again),
                                 base_time=BASE_TIME + timedelta(hours=2), file_seq=1,
                                 batch=batch, faults=frozenset({"c"})))
    pid = lambda i: f"FP{i + 1:02d}"  # noqa: E731 - local shorthand
    n_batches = max(r.batch for r in runs) + 1
    return Workload(
        "campaign_fleet", seed, size, "library", tuple(runs),
        deliveries=(*range(n_batches), layout["resend"]),
        series_targets=tuple(pid(i) for i in layout["series"]),
        export_targets=(*((pid(i), 0, 1) for i in layout["exports"]),
                        (pid(layout["remeasured"][0]), 0, 1)),
        damaged_cell=(pid(layout["damaged"]), "frequency", 10 if size == "full" else 2, 0),
        min_ingest_reps=3,
    )


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    return {"steady_2h": steady_2h, "long_event": long_event,
            "campaign_fleet": campaign_fleet}[name](seed, size)
