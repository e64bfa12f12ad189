"""Online computation of averaged power-quality parameters.

Consumes contiguous waveform frames and emits one record per tumbling
window: RMS every 0.2 s, power and frequency every second, 33 harmonics
plus THD every 3 s, demand every 15 minutes, short-term flicker severity
every 10 minutes and long-term flicker severity every 2 hours.  All record
timestamps are seconds since stream start and mark the end of the window
that produced them.  Incomplete windows at stream end are discarded and
tallied in :attr:`PipelineResult.discarded`, never emitted.  Demand, Pst
and Plt intervals are whole 3 s blocks, so each closes at the block end
whose sample index is a multiple of its length.

Every record value is finite, or None where a ratio (THD, Pst) is
undefined: a block whose RMS levels are not all finite (a NaN or infinite
sample, or a square that overflows), or one where a phase's voltage and
current levels multiply past about 1e154 so that S * S overflows, raises
ValueError before any of its rows is stored.

Each cadence of :class:`PipelineResult` is a :class:`RecordSeries`: float64
rows in the column layout of its transfer file, None stored as NaN.  The
pipeline writes each block's levels, estimates and magnitudes straight into
those rows; records are built only when read, and the ``compute_*``
functions return records built from the same rows.

The RMS, power and harmonics kernels take one six-channel block, voltage
phases first and current phases after.  The pipeline analyzes its 3 s
buffer in one step when it is full, and a trailing partial block at
:meth:`StreamPipeline.finish`: one reduction gives the levels of all 15 RMS
windows, one their half-cycle RMS values, and one each the three seconds'
levels, P and S.  The current phasors' magnitudes are the per-second
fundamental currents that demand averages.  So rows, and the detector's
samples and updates, leave at each block end and at ``finish``, not per
frame.  Harmonics and each second's power phasors go through one projector,
:func:`_project`, at the exact frequency estimate on 640-sample sub-blocks;
that basis is rebuilt for every window, not cached, because it is cheap and
the estimate changes in its last bits.

The sampling rate (``SAMPLE_RATE``), the band a frequency estimate must
fall in (``FREQUENCY_BAND``), the THD floor factor (``THD_FLOOR_FACTOR``)
and the Pst calibration (``PST_CALIBRATION``) are fixed module constants,
not configuration.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .siggen import SAMPLE_RATE, WaveformFrame

RMS_WINDOW = 640            # 0.2 s at 3200 Hz
POWER_WINDOW = 3200         # 1 s
HARMONIC_WINDOW = 9600      # 3 s
DEMAND_INTERVAL_S = 900.0   # 15 min of the power step's per-second fundamental currents
PST_INTERVAL_S = 600.0      # 10 min of half-cycle RMS values
PLT_PST_COUNT = 12          # 12 x 10 min = 2 h
HARMONIC_ORDERS = 33
FREQUENCY_BAND = (40.0, 70.0)  # Hz; an estimate outside holds the previous value
THD_FLOOR_FACTOR = 1e-9     # x nominal RMS: fundamental floor below which THD is undefined
PST_CALIBRATION = 1.0
#: Cells of one block of stored record rows, the timestamp not counted: 20
#: harmonics rows, 682 RMS rows.  The transfer writer formats a block per write.
BLOCK_CELLS = 4096

Triple = tuple[float, float, float]
OptionalTriple = tuple[Optional[float], Optional[float], Optional[float]]


class StreamGapError(ValueError):
    """Raised when a frame does not start where the previous one ended."""


@dataclass(frozen=True)
class RmsRecord:
    timestamp: float
    v_rms: Triple
    i_rms: Triple


@dataclass(frozen=True)
class PowerRecord:
    timestamp: float
    active: Triple
    reactive: Triple
    apparent: Triple
    power_factor: Triple


@dataclass(frozen=True)
class HarmonicsRecord:
    """Peak amplitudes of harmonic orders 1..33 per phase plus THD in percent.

    A THD entry is None when the fundamental magnitude sat below the
    configured floor, i.e. the ratio is undefined rather than zero.
    """

    timestamp: float
    v_harmonics: tuple[tuple[float, ...], ...]
    i_harmonics: tuple[tuple[float, ...], ...]
    thd_v: OptionalTriple
    thd_i: OptionalTriple


@dataclass(frozen=True)
class FrequencyRecord:
    timestamp: float
    frequency: float
    held: bool


@dataclass(frozen=True)
class DemandRecord:
    timestamp: float
    demand: Triple


@dataclass(frozen=True)
class FlickerPstRecord:
    timestamp: float
    pst: OptionalTriple


@dataclass(frozen=True)
class FlickerPltRecord:
    timestamp: float
    plt: Triple


#: Per record type, each field after ``timestamp`` as it lies in a stored
#: row: () one number, (3,) a triple, (3, orders) per phase the harmonic
#: orders, ``bool`` one flag.
_ROW_LAYOUT = {
    RmsRecord: ((3,), (3,)),
    PowerRecord: ((3,),) * 4,
    HarmonicsRecord: ((3, HARMONIC_ORDERS),) * 2 + ((3,),) * 2,
    FrequencyRecord: ((), bool),
    DemandRecord: ((3,),),
    FlickerPstRecord: ((3,),),
    FlickerPltRecord: ((3,),),
}


def _record(record_type: type, row: list):
    """The record of one stored row of floats, NaN read as None."""
    values = [None if v != v else v for v in row]
    args, pos = [values[0]], 1
    for shape in _ROW_LAYOUT[record_type]:
        if shape is bool:
            args.append(bool(values[pos]))
            pos += 1
        elif shape == ():
            args.append(values[pos])
            pos += 1
        elif len(shape) == 1:
            args.append(tuple(values[pos : pos + shape[0]]))
            pos += shape[0]
        else:
            phases, orders = shape
            args.append(tuple(
                tuple(values[pos + p * orders : pos + (p + 1) * orders]) for p in range(phases)
            ))
            pos += phases * orders
    return record_type(*args)


@dataclass(frozen=True)
class PipelineConfig:
    """Nominal levels of the monitored supply.

    The nominal RMS levels scale ``THD_FLOOR_FACTOR`` into the fundamental
    magnitude floor below which THD is reported as undefined.
    """

    nominal_frequency: float = 50.0
    nominal_voltage_rms: float = 230.0
    nominal_current_rms: float = 10.0

    def __post_init__(self) -> None:
        if not FREQUENCY_BAND[0] <= self.nominal_frequency <= FREQUENCY_BAND[1]:
            raise ValueError(f"nominal_frequency must lie in {FREQUENCY_BAND} Hz")
        if not (self.nominal_voltage_rms > 0 and self.nominal_current_rms > 0):
            raise ValueError("nominal RMS levels must be positive")

    @property
    def half_cycle_samples(self) -> int:
        return round(SAMPLE_RATE / (2.0 * self.nominal_frequency))


def rms(samples: np.ndarray) -> np.ndarray | float:
    """Root mean square along the last axis."""
    return np.sqrt(np.mean(np.square(samples), axis=-1))


def compute_rms(window: np.ndarray, timestamp: float) -> RmsRecord:
    """RMS of one 0.2 s window (shape (6, 640), voltage rows first) per phase."""
    if window.shape[-1] != RMS_WINDOW:
        raise ValueError(f"RMS window must hold exactly {RMS_WINDOW} samples")
    return _record(RmsRecord, [timestamp, *rms(window).tolist()])


def half_cycle_rms(window: np.ndarray, block: int) -> np.ndarray:
    """RMS over consecutive ``block``-sample groups of the last axis; a
    (..., n) window gives (..., n//block), the last ``n % block`` samples unused."""
    n = window.shape[-1] - window.shape[-1] % block
    grouped = window[..., :n].reshape(*window.shape[:-1], n // block, block)
    return np.sqrt(np.mean(np.square(grouped), axis=-1))


def _basis(fundamental: float, orders: int) -> np.ndarray:
    """Real (2 * orders, RMS_WINDOW) basis of one sub-block: the real parts of
    exp(-2j*pi*h*f*t) for orders h = 1..orders, then their imaginary parts."""
    base = np.exp(-2j * np.pi * fundamental / SAMPLE_RATE * np.arange(RMS_WINDOW))
    sub = np.empty((orders, RMS_WINDOW), dtype=np.complex128)
    sub[0] = base
    for h in range(1, orders):
        np.multiply(sub[h - 1], base, out=sub[h])
    return np.concatenate((sub.real, sub.imag))


def _project(x: np.ndarray, fundamental: float, orders: int) -> np.ndarray:
    """Complex (channels, orders) projections of (channels, n) samples.

    Entry (c, h-1) projects channel c onto order h of ``fundamental``,
    scaled so a sinusoid of amplitude A has magnitude A.  ``n`` must be a
    multiple of ``RMS_WINDOW``: all sub-blocks of that length go through
    one real matrix product with :func:`_basis`, and the twiddle
    exp(-2j*pi*h*f*RMS_WINDOW*k/fs) moves sub-block k to the window start.
    """
    channels, n = x.shape
    blocks, rest = divmod(n, RMS_WINDOW)
    if rest or not blocks:
        raise ValueError(f"projection length must be a positive multiple of {RMS_WINDOW}")
    parts = x.reshape(channels * blocks, RMS_WINDOW) @ _basis(fundamental, orders).T
    sums = (parts[:, :orders] + 1j * parts[:, orders:]).reshape(channels, blocks, orders)
    step = -2j * np.pi * fundamental / SAMPLE_RATE
    twiddle = np.exp(step * RMS_WINDOW * np.outer(np.arange(blocks), np.arange(1, orders + 1)))
    return (2.0 / n) * np.einsum("cbh,bh->ch", sums, twiddle)


def harmonic_magnitudes(samples: np.ndarray, fundamental: float) -> np.ndarray:
    """Peak amplitudes at orders 1..33 times ``fundamental``.

    ``samples`` is (n,) or (channels, n) with n a multiple of ``RMS_WINDOW``,
    projected by :func:`_project`.
    """
    x = np.asarray(samples, dtype=np.float64)
    mags = np.abs(_project(np.atleast_2d(x), fundamental, HARMONIC_ORDERS))
    return mags if x.ndim > 1 else mags[0]


def compute_thd(magnitudes: Sequence[float], floor: float = 0.0) -> float | None:
    """Total harmonic distortion in percent of the fundamental.

    Returns None (undefined) when the fundamental magnitude does not exceed
    ``floor``; a dead channel has no meaningful distortion ratio.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.ndim != 1 or len(mags) < 2:
        raise ValueError("need the fundamental plus at least one harmonic")
    if mags[0] <= floor:
        return None
    return 100.0 * math.sqrt(float(np.sum(np.square(mags[1:])))) / float(mags[0])


def compute_harmonics(
    window: np.ndarray,
    fundamental: float,
    timestamp: float,
    v_floor: float = 0.0,
    i_floor: float = 0.0,
) -> HarmonicsRecord:
    """Harmonic magnitudes for orders 1..33 plus THD of one 3 s window (6, 9600)."""
    if window.shape[-1] != HARMONIC_WINDOW:
        raise ValueError(f"harmonics window must hold exactly {HARMONIC_WINDOW} samples")
    row = _harmonics_row(window, fundamental, timestamp, v_floor, i_floor)
    return _record(HarmonicsRecord, row.tolist())


def _harmonics_row(
    window: np.ndarray, fundamental: float, timestamp: float, v_floor: float, i_floor: float
) -> np.ndarray:
    """The stored row of :func:`compute_harmonics`: the timestamp, the six
    channels' magnitudes, then their THD, NaN where undefined."""
    mags = harmonic_magnitudes(window, fundamental)
    thd = [compute_thd(row, floor) for row, floor in zip(mags, (v_floor,) * 3 + (i_floor,) * 3)]
    return np.hstack((timestamp, mags.ravel(), np.array(thd, dtype=np.float64)))


def compute_power(window: np.ndarray, fundamental: float, timestamp: float) -> PowerRecord:
    """Per-phase P, Q, S and power factor over one 1 s window (6, 3200).

    P is the sample mean of v*i, S the product of the RMS values, and
    Q = sign(phi) * sqrt(max(S^2 - P^2, 0)) where phi is the fundamental
    lag of current behind voltage, making Q positive for inductive load; a
    zero Q is always +0, whatever the sign of the rounding noise in phi.
    The power factor is P/S, defined as 0 for a dead window.  A window
    whose S * S overflows raises ValueError.
    """
    if window.shape[-1] != POWER_WINDOW:
        raise ValueError(f"power window must hold exactly {POWER_WINDOW} samples")
    return _record(PowerRecord, _power_rows(window, 0, [fundamental], [timestamp])[0][0].tolist())


def _power_rows(
    block: np.ndarray,
    first_sample: int,
    fundamentals: Sequence[float],
    timestamps: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """The stored rows of :func:`compute_power` for each consecutive second
    of a (6, m * 3200) block, second s at ``fundamentals[s]``, and each
    second's three fundamental current magnitudes, shape (m, 3): one
    reduction per quantity and one :func:`_project` per second.  An S * S
    that overflows raises ValueError naming the block's samples, from
    ``first_sample``, before any row is made."""
    m = len(fundamentals)
    seconds = block.reshape(6, m, POWER_WINDOW)
    with np.errstate(over="ignore"):
        levels = rms(seconds)
        apparent = (levels[:3] * levels[3:]).T
        if not np.isfinite(np.square(apparent)).all():
            end = first_sample + m * POWER_WINDOW
            raise ValueError(f"samples {first_sample} to {end}: apparent power squared overflows")
    active = np.mean(seconds[:3] * seconds[3:], axis=-1).T
    phasors = np.array(
        [_project(seconds[:, s], f, 1)[:, 0] for s, f in enumerate(fundamentals)]
    ).reshape(m, 6)
    magnitudes, angles = np.abs(phasors), np.angle(phasors)
    live = (apparent > 0.0) & (magnitudes[:, :3] > 0.0) & (magnitudes[:, 3:] > 0.0)
    phi = (angles[:, :3] - angles[:, 3:] + math.pi) % (2.0 * math.pi) - math.pi
    sign = np.where(live, np.sign(phi), 0.0)
    reactive = sign * np.sqrt(np.maximum(apparent * apparent - active * active, 0.0)) + 0.0
    # P <= S holds mathematically (Cauchy-Schwarz); clamp float rounding.
    ratio = np.divide(active, apparent, out=np.zeros_like(active), where=apparent > 0.0)
    factor = np.clip(ratio, -1.0, 1.0)
    rows = np.column_stack((timestamps, active, reactive, apparent, factor))
    return rows, magnitudes[:, 3:]


def estimate_frequency(
    samples: np.ndarray, previous: float, timestamp: float
) -> FrequencyRecord:
    """Fundamental frequency from interpolated positive-going zero crossings.

    With k crossings at interpolated times t_1..t_k the estimate is
    (k - 1) / (t_k - t_1).  Fewer than two crossings, or an estimate
    outside ``FREQUENCY_BAND``, holds ``previous`` and flags the record.
    """
    return FrequencyRecord(timestamp, *_frequency(samples, previous))


def _frequency(samples: np.ndarray, previous: float) -> tuple[float, bool]:
    """The estimate of :func:`estimate_frequency` and whether it is held."""
    x = np.asarray(samples, dtype=np.float64)
    idx = np.nonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))[0]
    if len(idx) < 2:
        return previous, True
    frac = x[idx] / (x[idx] - x[idx + 1])
    crossings = (idx + frac) / SAMPLE_RATE
    freq = (len(crossings) - 1) / (crossings[-1] - crossings[0])
    if not FREQUENCY_BAND[0] <= freq <= FREQUENCY_BAND[1]:
        return previous, True
    return float(freq), False


def _phase_series(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] != 3 or series.shape[1] == 0:
        raise ValueError("series must have shape (3, n) with n >= 1")
    return series


def compute_demand(series: np.ndarray, timestamp: float) -> DemandRecord:
    """Mean of the per-second fundamental current magnitudes, per phase.

    ``series`` has shape (3, n); the cadence expects n = 900 (15 minutes)
    but any non-empty series is averaged so callers can test directly.
    """
    return _record(DemandRecord, [timestamp, *np.mean(_phase_series(series), axis=-1).tolist()])


def compute_pst(series: np.ndarray, timestamp: float) -> FlickerPstRecord:
    """Short-term flicker severity estimate from half-cycle RMS values.

    Per phase, with r the half-cycle RMS series and m its mean, the
    estimator is ``PST_CALIBRATION`` times the 95th percentile of
    ``|r - m| / m``.  It is zero for an unmodulated waveform, scales
    linearly with modulation depth and is None (undefined) for a dead
    phase where m = 0.
    """
    return _record(FlickerPstRecord, [timestamp, *_pst(series).tolist()])


def _pst(series: np.ndarray) -> np.ndarray:
    """The three values of :func:`compute_pst`, NaN where undefined."""
    values = []
    for row in _phase_series(series):
        m = float(np.mean(row))
        if m == 0.0:
            values.append(math.nan)
            continue
        deviation = np.abs(row - m) / m
        values.append(PST_CALIBRATION * float(np.percentile(deviation, 95.0)))
    return np.array(values)


def compute_plt(
    pst_values: Sequence[Triple], timestamp: float
) -> FlickerPltRecord:
    """Long-term flicker severity: cube root of the mean cubed Pst.

    Requires exactly 12 defined short-term values per phase (12 x 10 min
    covering the 2 h window).
    """
    if len(pst_values) != PLT_PST_COUNT:
        raise ValueError(f"need exactly {PLT_PST_COUNT} Pst values, got {len(pst_values)}")
    arr = np.asarray(pst_values, dtype=np.float64)  # (12, 3)
    if np.any(np.isnan(arr)):
        raise ValueError("undefined Pst value in Plt input")
    return _record(FlickerPltRecord, [timestamp, *_plt(arr).tolist()])


def _plt(pst_values: np.ndarray) -> np.ndarray:
    """The three values of :func:`compute_plt` from a (12, 3) array."""
    return np.cbrt(np.mean(pst_values**3, axis=0))


class RecordSeries(Sequence):
    """One cadence's records, held as float64 rows.

    A row is the record's timestamp, then each field after it with nested
    tuples flattened in order: the columns of its transfer file.  None is
    stored as NaN and a bool as 1.0 or 0.0.  Rows live in blocks of
    ``BLOCK_CELLS // columns`` rows, each started at 16 rows and doubled as
    it fills, so memory follows the rows held.  Records are built only when
    read: iteration, indexing and ``==`` against a list of records or
    another series all go through them.  ``name`` is the cadence's
    :class:`PipelineResult` attribute.
    """

    def __init__(self, name: str, record_type: type, records: Iterable = ()) -> None:
        self.name = name
        self.record_type = record_type
        self.columns = sum(1 if s is bool else math.prod(s) for s in _ROW_LAYOUT[record_type])
        self.block_rows = max(1, BLOCK_CELLS // self.columns)
        self._blocks: list[np.ndarray] = []
        self._len = 0
        self.extend(records)

    def extend(self, records: Iterable) -> None:
        """Append records, a block of them at a time.  A block whose records
        do not fill the columns raises ValueError, and so does the series'
        construction from it."""
        names = [f.name for f in fields(self.record_type)]
        it = iter(records)
        while chunk := list(islice(it, self.block_rows)):
            n = len(chunk)
            try:
                rows = np.hstack([
                    np.array([getattr(r, name) for r in chunk], np.float64).reshape(n, -1)
                    for name in names
                ])
            except ValueError as exc:
                raise ValueError(f"{self.name} records are not rows of numbers: {exc}") from None
            if rows.shape[1] != 1 + self.columns:
                raise ValueError(
                    f"{self.name} records hold {rows.shape[1] - 1} values, expected {self.columns}"
                )
            self.append_rows(rows)

    def append_rows(self, rows: np.ndarray) -> None:
        """Append stored rows: (n, 1 + columns) floats, or one row of them."""
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 1 + self.columns)
        done = 0
        while done < len(rows):
            used = self._len - (len(self._blocks) - 1) * self.block_rows
            if not self._blocks or used == self.block_rows:
                size = min(self.block_rows, max(16, len(rows) - done))
                self._blocks.append(np.empty((size, 1 + self.columns)))
                used = 0
            elif used == len(self._blocks[-1]):
                grown = np.empty((min(self.block_rows, 2 * used), 1 + self.columns))
                grown[:used] = self._blocks[-1]
                self._blocks[-1] = grown
            block = self._blocks[-1]
            take = min(len(block) - used, len(rows) - done)
            block[used : used + take] = rows[done : done + take]
            done += take
            self._len += take

    def blocks(self) -> Iterator[np.ndarray]:
        """The stored rows, a block at a time."""
        for k, block in enumerate(self._blocks):
            yield block[: self._len - k * self.block_rows]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        for rows in self.blocks():
            for row in rows.tolist():
                yield _record(self.record_type, row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self._len))]
        k = operator.index(index)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError(f"{self.name} record index {index} out of range")
        block, row = divmod(k, self.block_rows)
        return _record(self.record_type, self._blocks[block][row].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RecordSeries, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"RecordSeries({self.name!r}, {self.record_type.__name__}, {self._len} rows)"


#: Each cadence's :class:`PipelineResult` attribute and record type.
CADENCES = {
    "rms": RmsRecord,
    "power": PowerRecord,
    "harmonics": HarmonicsRecord,
    "frequency": FrequencyRecord,
    "demand": DemandRecord,
    "flicker_pst": FlickerPstRecord,
    "flicker_plt": FlickerPltRecord,
}


@dataclass
class PipelineResult:
    """Records of each cadence, the detector's events, and ``discarded``:
    per kind, the inputs that could not contribute to a full window, a kind
    present only when its count is positive.

    Each cadence is a :class:`RecordSeries`; one given as a list of records
    is stored as one, so records that do not fill their columns are refused
    here.
    """

    rms: RecordSeries = ()
    power: RecordSeries = ()
    harmonics: RecordSeries = ()
    frequency: RecordSeries = ()
    demand: RecordSeries = ()
    flicker_pst: RecordSeries = ()
    flicker_plt: RecordSeries = ()
    events: list = field(default_factory=list)
    discarded: Counter[str] = field(default_factory=Counter)

    def __post_init__(self) -> None:
        for name, record_type in CADENCES.items():
            records = getattr(self, name)
            if not isinstance(records, RecordSeries):
                setattr(self, name, RecordSeries(name, record_type, records))


class StreamPipeline:
    """Tumbling-window state machine over a contiguous frame stream.

    Keeps at most one 3 s raw-sample block plus per-second and half-cycle
    aggregates; raw samples are never retained beyond the harmonics window
    (the events module owns its own capture buffer).  Frames are copied into
    the block buffer; the rows of a block, and the detector's samples and
    then its updates (one per RMS window, in order), leave when the block is
    full, those of a trailing partial block at :meth:`finish`.  Feed frames
    with :meth:`process_frame` and collect records with :meth:`finish`.
    """

    def __init__(self, config: PipelineConfig, detector=None) -> None:
        self.config = config
        self.detector = detector
        self.result = PipelineResult()
        self._buf = np.empty((6, HARMONIC_WINDOW))  # voltage phases, then current phases
        self._fill = 0               # samples currently in the buffer
        self._buf_base = 0           # absolute index of buffer start
        self._prev_frequency = config.nominal_frequency
        self._half_block = config.half_cycle_samples
        pst_len = round(PST_INTERVAL_S * SAMPLE_RATE / RMS_WINDOW) * (RMS_WINDOW // self._half_block)
        self._pst_series = np.empty((3, pst_len))
        self._pst_fill = 0
        self._plt_window: list[np.ndarray] = []  # Pst triples of the open Plt window
        self._currents: list[list[float]] = []  # per second of the open demand window
        self._finished = False

    # -- frame intake ---------------------------------------------------

    def process_frame(self, frame: WaveformFrame) -> None:
        if self._finished:
            raise RuntimeError("pipeline already finished")
        expected = self._buf_base + self._fill
        if frame.start_sample_index != expected:
            raise StreamGapError(
                f"frame starts at sample {frame.start_sample_index}, expected {expected}"
            )
        pos = 0
        n = frame.frame_length
        while pos < n:
            take = min(HARMONIC_WINDOW - self._fill, n - pos)
            self._buf[:3, self._fill : self._fill + take] = frame.voltage_samples[:, pos : pos + take]
            self._buf[3:, self._fill : self._fill + take] = frame.current_samples[:, pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == HARMONIC_WINDOW:
                self._analyze_block()
                self._buf_base += HARMONIC_WINDOW
                self._fill = 0

    def _analyze_block(self) -> None:
        """Rows of every full window in the buffer, a full block or the
        partial one at :meth:`finish`; the detector gets the windows' samples
        and then each window's triple."""
        windows = self._fill // RMS_WINDOW
        seconds = self._fill // POWER_WINDOW
        base = self._buf_base
        block = self._buf[:, : windows * RMS_WINDOW].reshape(6, windows, RMS_WINDOW)
        stamps = [(base + RMS_WINDOW * k) / SAMPLE_RATE for k in range(1, windows + 1)]
        with np.errstate(over="ignore"):  # an overflowing square is refused below
            levels = rms(block)
        if not np.isfinite(levels).all():
            # refused before any row is stored or the detector fed, as
            # _power_rows refuses an overflowing S * S: a stored NaN reads as None
            raise ValueError(
                f"samples {base} to {base + windows * RMS_WINDOW} are not finite"
                " or overflow their RMS"
            )
        ends = range(POWER_WINDOW, seconds * POWER_WINDOW + 1, POWER_WINDOW)
        freqs = np.empty((seconds, 3))  # timestamp, estimate, held
        for s, end in enumerate(ends):
            self._prev_frequency, held = _frequency(
                self._buf[0, end - POWER_WINDOW : end], self._prev_frequency
            )
            freqs[s] = ((base + end) / SAMPLE_RATE, self._prev_frequency, held)
        power, currents = _power_rows(
            self._buf[:, : seconds * POWER_WINDOW], base, freqs[:, 1], freqs[:, 0]
        )
        self.result.rms.append_rows(np.column_stack((stamps, levels.T)))
        if self.detector is not None:
            self._feed_detector(0, windows * RMS_WINDOW)
            for ts, v in zip(stamps, levels[:3].T.tolist()):
                self.detector.update(ts, tuple(v))
        self.result.frequency.append_rows(freqs)
        self.result.power.append_rows(power)
        self._currents.extend(currents.tolist())

        # grouped per RMS window, so a half-cycle never spans two windows
        hc = half_cycle_rms(block[:3], self._half_block).reshape(3, -1)
        self._pst_series[:, self._pst_fill : self._pst_fill + hc.shape[1]] = hc
        self._pst_fill += hc.shape[1]
        if self._fill < HARMONIC_WINDOW:
            return
        block_end = base + HARMONIC_WINDOW
        stamp = block_end / SAMPLE_RATE
        self.result.harmonics.append_rows(_harmonics_row(
            self._buf,
            self._prev_frequency,
            stamp,
            v_floor=THD_FLOOR_FACTOR * self.config.nominal_voltage_rms,
            i_floor=THD_FLOOR_FACTOR * self.config.nominal_current_rms,
        ))
        # Pst, Plt and demand intervals are whole blocks, so they close on a block end
        if block_end % round(PST_INTERVAL_S * SAMPLE_RATE) == 0:
            pst = _pst(self._pst_series[:, : self._pst_fill])
            self.result.flicker_pst.append_rows(np.hstack((stamp, pst)))
            self._pst_fill = 0
            self._plt_window.append(pst)
        if block_end % round(PLT_PST_COUNT * PST_INTERVAL_S * SAMPLE_RATE) == 0:
            window, self._plt_window = np.array(self._plt_window), []
            if np.isnan(window).any():
                self.result.discarded["plt_windows_with_undefined_pst"] += 1
            else:
                self.result.flicker_plt.append_rows(np.hstack((stamp, _plt(window))))
        if block_end % round(DEMAND_INTERVAL_S * SAMPLE_RATE) == 0:
            demand = np.mean(np.array(self._currents).T, axis=-1)
            self.result.demand.append_rows(np.hstack((stamp, demand)))
            self._currents = []

    def _feed_detector(self, lo: int, hi: int) -> None:
        self.detector.feed_samples(self._buf_base + lo, self._buf[:3, lo:hi], self._buf[3:, lo:hi])

    # -- completion ------------------------------------------------------

    def finish(self) -> PipelineResult:
        if self._finished:
            return self.result
        self._finished = True
        if self._fill >= RMS_WINDOW:
            self._analyze_block()
        end_abs = self._buf_base + self._fill
        counts = {
            "rms_samples_discarded": end_abs % RMS_WINDOW,
            "power_samples_discarded": end_abs % POWER_WINDOW,
            "harmonic_samples_discarded": end_abs % HARMONIC_WINDOW,
            # each RMS window's samples after its last whole half-cycle never reach Pst
            "half_cycle_samples_skipped": end_abs // RMS_WINDOW * (RMS_WINDOW % self._half_block),
            "pst_half_cycles_discarded": self._pst_fill,
            "plt_pst_records_discarded": len(self._plt_window),
            "demand_windows_discarded": int(bool(self._currents)),
        }
        self.result.discarded.update({k: n for k, n in counts.items() if n})
        if self.detector is not None:
            self._feed_detector(self._fill - self._fill % RMS_WINDOW, self._fill)
            self.detector.close(end_abs / SAMPLE_RATE)
            self.result.events = list(self.detector.records)
        return self.result


def run_pipeline(
    frames: Iterable[WaveformFrame], config: PipelineConfig, detector=None
) -> PipelineResult:
    """Feed every frame through a :class:`StreamPipeline` and finish it."""
    pipeline = StreamPipeline(config, detector=detector)
    for frame in frames:
        pipeline.process_frame(frame)
    return pipeline.finish()
