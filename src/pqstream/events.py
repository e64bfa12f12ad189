"""Voltage event detection with hysteresis and raw-sample capture.

Four per-type state machines run over the 0.2 s RMS cadence: sag (any
phase below 0.85 pu), swell (any phase above 1.10 pu), interruption (all
phases below 0.05 pu) and amplitude unbalance.  Exits require clearing the
threshold by a hysteresis margin on every phase, so a trace chattering
inside the band produces exactly one event.  While an interruption is
active, sag transitions are suppressed (an interruption entry absorbs an
already-open sag without emitting it), and unbalance entries are deferred
while any amplitude event is active so a one-phase dip is not double
reported as unbalance.

Each finalized event yields a record plus a compressed raw capture of all
six channels spanning the event with a pre and post trigger margin.  The
sampling rate (``SAMPLE_RATE``), the RMS interval the machines step by
(``RMS_INTERVAL_S``, one analyzer RMS window) and the trigger margins
(``PRE_TRIGGER_SAMPLES``, ``POST_TRIGGER_SAMPLES``) are fixed module constants, not
detector options.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analyzer import RMS_WINDOW
from .siggen import SAMPLE_RATE

EVENT_TYPES = ("sag", "swell", "interruption", "unbalance")

RMS_INTERVAL_S = RMS_WINDOW / SAMPLE_RATE
PRE_TRIGGER_SAMPLES = round(0.2 * SAMPLE_RATE)   # captured before an event's start
POST_TRIGGER_SAMPLES = round(0.2 * SAMPLE_RATE)  # captured after its end

RAW_MAGIC = b"PQZ1"
RAW_VERSION = 1
RAW_CHANNELS = 6
_RAW_HEADER = struct.Struct("<4sIQIIdQ")


class RawCaptureError(RuntimeError):
    """Raised when a raw capture blob cannot be decoded."""


@dataclass(frozen=True)
class EventThresholds:
    """Per-unit thresholds and hysteresis margins for event detection."""

    nominal_voltage_rms: float
    sag_threshold: float = 0.85
    swell_threshold: float = 1.10
    interruption_threshold: float = 0.05
    hysteresis: float = 0.02
    unbalance_threshold: float = 0.02
    unbalance_hysteresis: float = 0.005

    def __post_init__(self) -> None:
        if self.nominal_voltage_rms <= 0:
            raise ValueError("nominal_voltage_rms must be positive")
        if not 0 < self.interruption_threshold < self.sag_threshold < 1 < self.swell_threshold:
            raise ValueError(
                "need 0 < interruption < sag < 1 < swell threshold ordering"
            )
        if self.hysteresis < 0 or self.unbalance_hysteresis < 0:
            raise ValueError("hysteresis margins must be >= 0")
        if self.sag_threshold + self.hysteresis >= self.swell_threshold - self.hysteresis:
            raise ValueError("hysteresis margin overlaps sag and swell bands")
        if self.unbalance_hysteresis >= self.unbalance_threshold:
            raise ValueError("unbalance hysteresis must stay below its threshold")


def compute_unbalance(v_rms) -> float | None:
    """Amplitude unbalance factor: max deviation from the phase mean over the mean.

    Returns None when the mean is zero (a dead bus has no meaningful
    unbalance; the interruption machine governs that state).
    """
    a, b, c = (float(x) for x in v_rms)
    mean = (a + b + c) / 3
    if mean == 0.0:
        return None
    return max(abs(a - mean), abs(b - mean), abs(c - mean)) / mean


@dataclass(frozen=True)
class EventRecord:
    """One finalized voltage event.

    Times are seconds since stream start; ``file_path`` points at the
    compressed raw capture and is None when writing failed or no sink was
    attached (``raw_write_error`` tells the two apart).
    """

    event_id: int
    measurement_point_id: str
    event_type: str
    start_time: float
    end_time: float
    size_in_samples: int
    file_path: Optional[str] = None
    raw_write_error: bool = False


class Transition(NamedTuple):
    event_type: str
    change: str  # "start" or "end"
    timestamp: float


def encode_raw_capture(
    event_id: int,
    start_sample: int,
    samples: np.ndarray,
    sample_rate: int = SAMPLE_RATE,
) -> bytes:
    """Serialize a (6, n) channel block to the compressed capture format.

    Layout before compression: a fixed header (magic, version, event id,
    channel count, sample rate, capture start time in seconds, sample
    count) followed by channel-major little-endian float64 samples.  The
    whole stream is zlib compressed.
    """
    data = np.ascontiguousarray(samples, dtype="<f8")
    if data.ndim != 2 or data.shape[0] != RAW_CHANNELS:
        raise ValueError(f"capture must have shape ({RAW_CHANNELS}, n)")
    header = _RAW_HEADER.pack(
        RAW_MAGIC,
        RAW_VERSION,
        event_id,
        RAW_CHANNELS,
        sample_rate,
        start_sample / sample_rate,
        data.shape[1],
    )
    return zlib.compress(header + data.tobytes(), 6)


def decode_raw_capture(blob: bytes) -> tuple[dict, np.ndarray]:
    """Inverse of :func:`encode_raw_capture`; returns (header dict, samples)."""
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise RawCaptureError(f"not a valid capture stream: {exc}") from exc
    if len(raw) < _RAW_HEADER.size:
        raise RawCaptureError("capture truncated before header end")
    magic, version, event_id, channels, rate, start_time, count = _RAW_HEADER.unpack_from(raw)
    if magic != RAW_MAGIC:
        raise RawCaptureError(f"bad magic {magic!r}")
    if version != RAW_VERSION:
        raise RawCaptureError(f"unsupported capture version {version}")
    payload = raw[_RAW_HEADER.size :]
    expected = channels * count * 8
    if len(payload) != expected:
        raise RawCaptureError(f"payload holds {len(payload)} bytes, expected {expected}")
    samples = np.frombuffer(payload, dtype="<f8").reshape(channels, count)
    header = {
        "event_id": event_id,
        "channel_count": channels,
        "sample_rate": rate,
        "start_time": start_time,
        "sample_count": count,
    }
    return header, samples


class CaptureBuffer:
    """Rolling store of recent raw samples for event capture extraction.

    Frames are retained from the earliest sample any active event still
    needs (its start minus the pre-trigger) up to the present; idle
    retention is just the pre-trigger horizon.
    """

    def __init__(self) -> None:
        self._chunks: list[tuple[int, np.ndarray]] = []
        self._next = 0

    @property
    def next_sample(self) -> int:
        return self._next

    @property
    def first_sample(self) -> int:
        return self._chunks[0][0] if self._chunks else self._next

    def feed(self, start_index: int, voltage: np.ndarray, current: np.ndarray) -> None:
        if start_index != self._next:
            raise ValueError(
                f"capture feed at sample {start_index}, expected {self._next}"
            )
        block = np.vstack([voltage, current])
        self._chunks.append((start_index, block))
        self._next = start_index + block.shape[1]

    def trim(self, keep_from: int) -> None:
        while self._chunks:
            start, block = self._chunks[0]
            if start + block.shape[1] > keep_from:
                break
            self._chunks.pop(0)

    def extract(self, start_sample: int, end_sample: int) -> tuple[int, np.ndarray]:
        """Samples in [start_sample, end_sample), clamped to what is retained."""
        start = max(start_sample, self.first_sample)
        end = min(end_sample, self._next)
        if end <= start:
            return start, np.empty((RAW_CHANNELS, 0))
        parts = []
        for chunk_start, block in self._chunks:
            chunk_end = chunk_start + block.shape[1]
            if chunk_end <= start or chunk_start >= end:
                continue
            lo = max(start, chunk_start) - chunk_start
            hi = min(end, chunk_end) - chunk_start
            parts.append(block[:, lo:hi])
        return start, np.concatenate(parts, axis=1)


@dataclass
class _ActiveEvent:
    event_type: str
    start_time: float
    start_sample: int


RawSink = Callable[[str, int, bytes], str]


class EventDetector:
    """Runs the four event state machines over successive RMS points.

    ``raw_sink`` is called as ``sink(event_type, event_id, blob)`` at
    finalization and must return the path it stored the capture under; a
    sink failure is absorbed into the record's ``raw_write_error`` flag so
    raw data loss never loses the event row.  With no sink attached the
    capture is skipped entirely.  Captures span the event plus the trigger
    margins, clamped to the samples seen so far, so a post trigger longer
    than one RMS interval is truncated at the stream position where the
    exit was observed.
    """

    def __init__(
        self,
        thresholds: EventThresholds,
        measurement_point_id: str = "MP1",
        raw_sink: RawSink | None = None,
    ) -> None:
        self.thresholds = thresholds
        self.measurement_point_id = measurement_point_id
        self.raw_sink = raw_sink
        self.records: list[EventRecord] = []
        self.capture = CaptureBuffer()
        self._active: dict[str, _ActiveEvent | None] = {t: None for t in EVENT_TYPES}
        self._last_timestamp: float | None = None
        self._next_event_id = 1

    # -- raw sample intake ------------------------------------------------

    def feed_samples(
        self, start_index: int, voltage: np.ndarray, current: np.ndarray
    ) -> None:
        self.capture.feed(start_index, voltage, current)

    # -- state machine ------------------------------------------------------

    def update(self, timestamp: float, v_rms) -> list[Transition]:
        """Advance every machine with one RMS triple (tuple or array); returns the transitions."""
        if self._last_timestamp is not None and timestamp <= self._last_timestamp:
            raise ValueError(
                f"RMS timestamps must increase strictly: {timestamp} after "
                f"{self._last_timestamp}"
            )
        self._last_timestamp = timestamp
        thr = self.thresholds
        a, b, c = (float(x) / thr.nominal_voltage_rms for x in v_rms)
        transitions: list[Transition] = []

        # Interruption first: it governs sag behaviour at this point.  Sag
        # transitions stay suppressed through the interruption's exit window
        # too, so a staircase recovery that lingers in the sag band for one
        # point does not spawn a spurious sag on the way back up.
        inter_was_active = self._active["interruption"] is not None
        if not inter_was_active:
            low = thr.interruption_threshold
            if a < low and b < low and c < low:
                if self._active["sag"] is not None:
                    # The collapse already tripped the sag machine on the way
                    # down; the interruption absorbs it without a record.
                    self._active["sag"] = None
                transitions.append(self._enter("interruption", timestamp))
        else:
            clear = thr.interruption_threshold + thr.hysteresis
            if a >= clear or b >= clear or c >= clear:
                transitions.append(self._exit("interruption", timestamp))

        if self._active["interruption"] is None and not inter_was_active:
            if self._active["sag"] is None:
                low = thr.sag_threshold
                if a < low or b < low or c < low:
                    transitions.append(self._enter("sag", timestamp))
            else:
                clear = thr.sag_threshold + thr.hysteresis
                if a >= clear and b >= clear and c >= clear:
                    transitions.append(self._exit("sag", timestamp))

        if self._active["swell"] is None:
            high = thr.swell_threshold
            if a > high or b > high or c > high:
                transitions.append(self._enter("swell", timestamp))
        else:
            clear = thr.swell_threshold - thr.hysteresis
            if a <= clear and b <= clear and c <= clear:
                transitions.append(self._exit("swell", timestamp))

        factor = compute_unbalance(v_rms)
        if self._active["unbalance"] is None:
            amplitude_event_active = any(
                self._active[t] is not None for t in ("sag", "swell", "interruption")
            )
            if (
                factor is not None
                and factor > thr.unbalance_threshold
                and not amplitude_event_active
            ):
                transitions.append(self._enter("unbalance", timestamp))
        elif factor is not None and factor <= thr.unbalance_threshold - thr.unbalance_hysteresis:
            transitions.append(self._exit("unbalance", timestamp))

        self._trim_capture()
        return transitions

    def _enter(self, event_type: str, timestamp: float) -> Transition:
        start_time = timestamp - RMS_INTERVAL_S
        self._active[event_type] = _ActiveEvent(
            event_type=event_type,
            start_time=start_time,
            start_sample=round(start_time * SAMPLE_RATE),
        )
        return Transition(event_type, "start", start_time)

    def _exit(self, event_type: str, timestamp: float) -> Transition:
        active = self._active[event_type]
        assert active is not None
        self._active[event_type] = None
        end_time = timestamp - RMS_INTERVAL_S
        self._finalize(active, end_time)
        return Transition(event_type, "end", end_time)

    def _trim_capture(self) -> None:
        keep_from = self.capture.next_sample - PRE_TRIGGER_SAMPLES
        for active in self._active.values():
            if active is not None:
                keep_from = min(keep_from, active.start_sample - PRE_TRIGGER_SAMPLES)
        self.capture.trim(max(keep_from, 0))

    def _finalize(self, active: _ActiveEvent, end_time: float) -> None:
        end_sample = round(end_time * SAMPLE_RATE)
        size = end_sample - active.start_sample
        event_id = self._next_event_id
        self._next_event_id += 1
        path: str | None = None
        failed = False
        if self.raw_sink is not None:
            first, samples = self.capture.extract(
                active.start_sample - PRE_TRIGGER_SAMPLES, end_sample + POST_TRIGGER_SAMPLES
            )
            blob = encode_raw_capture(event_id, first, samples)
            try:
                path = self.raw_sink(active.event_type, event_id, blob)
            except OSError:
                failed = True
        self.records.append(
            EventRecord(
                event_id=event_id,
                measurement_point_id=self.measurement_point_id,
                event_type=active.event_type,
                start_time=active.start_time,
                end_time=end_time,
                size_in_samples=size,
                file_path=path,
                raw_write_error=failed,
            )
        )

    def close(self, end_timestamp: float | None = None) -> None:
        """Finalize events still open at stream end at the last known time."""
        if end_timestamp is None:
            end_timestamp = self._last_timestamp if self._last_timestamp is not None else 0.0
        for event_type in EVENT_TYPES:
            active = self._active[event_type]
            if active is not None:
                self._active[event_type] = None
                self._finalize(active, end_timestamp)
        self.records.sort(key=lambda r: r.event_id)
