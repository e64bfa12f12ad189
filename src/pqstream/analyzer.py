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
ValueError before any of its records is made.

The RMS, power and harmonics kernels take one six-channel block, voltage
phases first and current phases after.  The pipeline analyzes its 3 s
buffer in one step when it is full, and a trailing partial block at
:meth:`StreamPipeline.finish`: one reduction gives the levels of all 15 RMS
windows, one their half-cycle RMS values, and one each the three seconds'
levels, P and S.  The current phasors' magnitudes are the per-second
fundamental currents that demand averages.  So records, and the detector's
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
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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
    values = rms(window).tolist()
    return RmsRecord(timestamp=timestamp, v_rms=tuple(values[:3]), i_rms=tuple(values[3:]))


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
    mags = harmonic_magnitudes(window, fundamental)
    thd = [compute_thd(row, floor) for row, floor in zip(mags, (v_floor,) * 3 + (i_floor,) * 3)]
    return HarmonicsRecord(
        timestamp=timestamp,
        v_harmonics=tuple(map(tuple, mags[:3].tolist())),
        i_harmonics=tuple(map(tuple, mags[3:].tolist())),
        thd_v=tuple(thd[:3]),
        thd_i=tuple(thd[3:]),
    )


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


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
    return _power_records(window, 0, [fundamental], [timestamp])[0][0]


def _power_records(
    block: np.ndarray,
    first_sample: int,
    fundamentals: Sequence[float],
    timestamps: Sequence[float],
) -> tuple[list[PowerRecord], list[list[float]]]:
    """:func:`compute_power` of each consecutive second of a (6, m * 3200)
    block, second s at ``fundamentals[s]``, and each second's three
    fundamental current magnitudes: one reduction per quantity and one
    :func:`_project` per second.  An S * S that overflows raises ValueError
    naming the block's samples, from ``first_sample``, before any record."""
    m = len(fundamentals)
    seconds = block.reshape(6, m, POWER_WINDOW)
    with np.errstate(over="ignore"):
        levels = rms(seconds)
        apparent = levels[:3] * levels[3:]
        if not np.isfinite(np.square(apparent)).all():
            end = first_sample + m * POWER_WINDOW
            raise ValueError(f"samples {first_sample} to {end}: apparent power squared overflows")
    active = np.mean(seconds[:3] * seconds[3:], axis=-1).T.tolist()
    apparent = apparent.T.tolist()
    phasors = np.array([_project(seconds[:, s], f, 1)[:, 0] for s, f in enumerate(fundamentals)])
    magnitudes, angles = np.abs(phasors).tolist(), np.angle(phasors).tolist()
    records = []
    for ts, P3, S3, magnitude, angle in zip(timestamps, active, apparent, magnitudes, angles):
        q_out, pf_out = [], []
        for p in range(3):
            P, S = P3[p], S3[p]
            if S > 0.0 and magnitude[p] > 0.0 and magnitude[p + 3] > 0.0:
                phi = _wrap_angle(angle[p] - angle[p + 3])
                sign = math.copysign(1.0, phi) if phi != 0.0 else 0.0
            else:
                sign = 0.0
            q_out.append(sign * math.sqrt(max(S * S - P * P, 0.0)) + 0.0)
            # P <= S holds mathematically (Cauchy-Schwarz); clamp float rounding.
            pf_out.append(min(1.0, max(-1.0, P / S)) if S > 0.0 else 0.0)
        records.append(PowerRecord(ts, tuple(P3), tuple(q_out), tuple(S3), tuple(pf_out)))
    return records, [magnitude[3:] for magnitude in magnitudes]


def estimate_frequency(
    samples: np.ndarray, previous: float, timestamp: float
) -> FrequencyRecord:
    """Fundamental frequency from interpolated positive-going zero crossings.

    With k crossings at interpolated times t_1..t_k the estimate is
    (k - 1) / (t_k - t_1).  Fewer than two crossings, or an estimate
    outside ``FREQUENCY_BAND``, holds ``previous`` and flags the record.
    """
    x = np.asarray(samples, dtype=np.float64)
    idx = np.nonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))[0]
    if len(idx) < 2:
        return FrequencyRecord(timestamp=timestamp, frequency=previous, held=True)
    frac = x[idx] / (x[idx] - x[idx + 1])
    crossings = (idx + frac) / SAMPLE_RATE
    freq = (len(crossings) - 1) / (crossings[-1] - crossings[0])
    if not FREQUENCY_BAND[0] <= freq <= FREQUENCY_BAND[1]:
        return FrequencyRecord(timestamp=timestamp, frequency=previous, held=True)
    return FrequencyRecord(timestamp=timestamp, frequency=float(freq), held=False)


def compute_demand(series: np.ndarray, timestamp: float) -> DemandRecord:
    """Mean of the per-second fundamental current magnitudes, per phase.

    ``series`` has shape (3, n); the cadence expects n = 900 (15 minutes)
    but any non-empty series is averaged so callers can test directly.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] != 3 or series.shape[1] == 0:
        raise ValueError("series must have shape (3, n) with n >= 1")
    return DemandRecord(
        timestamp=timestamp,
        demand=tuple(float(x) for x in np.mean(series, axis=-1)),
    )


def compute_pst(series: np.ndarray, timestamp: float) -> FlickerPstRecord:
    """Short-term flicker severity estimate from half-cycle RMS values.

    Per phase, with r the half-cycle RMS series and m its mean, the
    estimator is ``PST_CALIBRATION`` times the 95th percentile of
    ``|r - m| / m``.  It is zero for an unmodulated waveform, scales
    linearly with modulation depth and is None (undefined) for a dead
    phase where m = 0.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] != 3 or series.shape[1] == 0:
        raise ValueError("series must have shape (3, n) with n >= 1")
    values: list[float | None] = []
    for row in series:
        m = float(np.mean(row))
        if m == 0.0:
            values.append(None)
            continue
        deviation = np.abs(row - m) / m
        values.append(PST_CALIBRATION * float(np.percentile(deviation, 95.0)))
    return FlickerPstRecord(timestamp=timestamp, pst=tuple(values))


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
    plt = np.cbrt(np.mean(arr**3, axis=0))
    return FlickerPltRecord(timestamp=timestamp, plt=tuple(float(x) for x in plt))


@dataclass
class PipelineResult:
    """Records of each cadence, the detector's events, and ``discarded``:
    per kind, the inputs that could not contribute to a full window, a kind
    present only when its count is positive."""

    rms: list[RmsRecord] = field(default_factory=list)
    power: list[PowerRecord] = field(default_factory=list)
    harmonics: list[HarmonicsRecord] = field(default_factory=list)
    frequency: list[FrequencyRecord] = field(default_factory=list)
    demand: list[DemandRecord] = field(default_factory=list)
    flicker_pst: list[FlickerPstRecord] = field(default_factory=list)
    flicker_plt: list[FlickerPltRecord] = field(default_factory=list)
    events: list = field(default_factory=list)
    discarded: Counter[str] = field(default_factory=Counter)


class StreamPipeline:
    """Tumbling-window state machine over a contiguous frame stream.

    Keeps at most one 3 s raw-sample block plus per-second and half-cycle
    aggregates; raw samples are never retained beyond the harmonics window
    (the events module owns its own capture buffer).  Frames are copied into
    the block buffer; the records of a block, and the detector's samples and
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
        self._plt_window: list[OptionalTriple] = []  # Pst triples of the open Plt window
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
        """Records of every full window in the buffer, a full block or the
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
            # refused before any record is made or the detector fed, as
            # _power_records refuses an overflowing S * S: the writer reads
            # NaN as None
            raise ValueError(
                f"samples {base} to {base + windows * RMS_WINDOW} are not finite"
                " or overflow their RMS"
            )
        freqs = []
        for end in range(POWER_WINDOW, seconds * POWER_WINDOW + 1, POWER_WINDOW):
            freq = estimate_frequency(
                self._buf[0, end - POWER_WINDOW : end],
                previous=self._prev_frequency,
                timestamp=(base + end) / SAMPLE_RATE,
            )
            self._prev_frequency = freq.frequency
            freqs.append(freq)
        power, currents = _power_records(
            self._buf[:, : seconds * POWER_WINDOW],
            base,
            [f.frequency for f in freqs],
            [f.timestamp for f in freqs],
        )
        levels = levels.T.tolist()
        records = [RmsRecord(ts, tuple(v[:3]), tuple(v[3:])) for ts, v in zip(stamps, levels)]
        self.result.rms.extend(records)
        if self.detector is not None:
            self._feed_detector(0, windows * RMS_WINDOW)
            for rec in records:
                self.detector.update(rec.timestamp, rec.v_rms)
        self.result.frequency.extend(freqs)
        self.result.power.extend(power)
        self._currents.extend(currents)

        # grouped per RMS window, so a half-cycle never spans two windows
        hc = half_cycle_rms(block[:3], self._half_block).reshape(3, -1)
        self._pst_series[:, self._pst_fill : self._pst_fill + hc.shape[1]] = hc
        self._pst_fill += hc.shape[1]
        if self._fill < HARMONIC_WINDOW:
            return
        block_end = base + HARMONIC_WINDOW
        self.result.harmonics.append(compute_harmonics(
            self._buf,
            self._prev_frequency,
            block_end / SAMPLE_RATE,
            v_floor=THD_FLOOR_FACTOR * self.config.nominal_voltage_rms,
            i_floor=THD_FLOOR_FACTOR * self.config.nominal_current_rms,
        ))
        # Pst, Plt and demand intervals are whole blocks, so they close on a block end
        if block_end % round(PST_INTERVAL_S * SAMPLE_RATE) == 0:
            rec = compute_pst(self._pst_series[:, : self._pst_fill], block_end / SAMPLE_RATE)
            self.result.flicker_pst.append(rec)
            self._pst_fill = 0
            self._plt_window.append(rec.pst)
        if block_end % round(PLT_PST_COUNT * PST_INTERVAL_S * SAMPLE_RATE) == 0:
            window, self._plt_window = self._plt_window, []
            if any(v is None for pst in window for v in pst):
                self.result.discarded["plt_windows_with_undefined_pst"] += 1
            else:
                self.result.flicker_plt.append(compute_plt(window, block_end / SAMPLE_RATE))
        if block_end % round(DEMAND_INTERVAL_S * SAMPLE_RATE) == 0:
            series = np.array(self._currents).T
            self.result.demand.append(compute_demand(series, block_end / SAMPLE_RATE))
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
