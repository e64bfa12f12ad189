"""Voltage event detection with hysteresis and raw-sample capture.

Four per-type state machines run over the 0.2 s RMS cadence.  As in IEC
61000-4-30 (5.4, 5.5), each amplitude machine judges a triple by one
channel, its lowest per-unit phase ``low`` or its highest ``high``: sag
(``low < 0.85``), swell (``high > 1.10``) and interruption (``high <
0.05``).  Amplitude unbalance enters above a factor of 0.02.  Exits require
clearing the threshold by a hysteresis margin (0.02 pu, or 0.005 for
unbalance), so a trace chattering inside the band produces exactly one
event.  The sag machine is not consulted while an interruption is open, nor
on the point that closes it (an interruption entry absorbs an already-open
sag without emitting it), and unbalance entries are deferred while any
amplitude event is open so a one-phase dip is not double reported as
unbalance.  A triple holding NaN or an infinity is refused.

Each finalized event yields a record plus a compressed raw capture of all
six channels spanning the event with a pre and post trigger margin.  An
open event's capture is compressed one second at a time as the windows that
cover it are judged (:class:`CaptureEncoder`), and each compressed second
goes to the capture's output as it is collected: a :class:`CaptureSink`,
such as the transfer-file writer, puts it in the capture's file, so an open
event holds neither samples nor compressed bytes, while a plain raw sink is
handed the blob whole when the event ends.  One worker thread, made on first
use, compresses every capture's seconds in the order they were pushed while
the caller goes on with the analysis; each capture holds at most ``SECONDS_IN_FLIGHT`` copied
seconds that the worker has yet to compress.  Raw samples are kept from the
RMS window last judged minus the pre-trigger, or, if earlier, from the
first sample an open capture has not pushed yet: at most one second behind.  With no sink attached no
capture is made and an open event holds no samples.  The analyzer hands
over each 3 s block's samples at the block end, before judging its RMS
windows, so the capture buffer holds at most the pre-trigger, or the second
an open capture has yet to push, plus one block.  A capture is a
``.pqz`` blob, version 2: one zlib stream holding a 40-byte header, then
the samples in one-second blocks, each channel of a block stored as the
eight byte planes of its float64 samples (the shuffle filter of HDF5 and
Blosc), which compresses better and about ten times faster than plain
samples at level 6.  The header, which carries the sample count, is written
last, into a stored deflate block ahead of the level-1 compressed blocks;
the decompressed bytes are those of one level-1 stream over header and
blocks, so no decoder needs to know.  Version 1 captures (one channel-major
block of plain samples) still decode, and both versions are read one block
at a time, so a raw export holds one second of samples.  The
detector keeps time in samples: an event starts and ends at the first sample
of the RMS window (``RMS_WINDOW``) that shows the change, or at the stream
end, and its record's times are those samples over ``SAMPLE_RATE``.  The
thresholds, hysteresis and trigger margins (``PRE_TRIGGER_SAMPLES``,
``POST_TRIGGER_SAMPLES``) are fixed module constants; only the nominal
voltage they are relative to is set per measurement point.
"""

from __future__ import annotations

import io
import math
import os
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, Optional, Protocol

import numpy as np

from .analyzer import RMS_WINDOW
from .siggen import SAMPLE_RATE

EVENT_TYPES = ("sag", "swell", "interruption", "unbalance")

PRE_TRIGGER_SAMPLES = round(0.2 * SAMPLE_RATE)   # captured before an event's start
POST_TRIGGER_SAMPLES = round(0.2 * SAMPLE_RATE)  # captured after its end

# per unit of the nominal voltage, except the unbalance factor's
SAG_THRESHOLD = 0.85
SWELL_THRESHOLD = 1.10
INTERRUPTION_THRESHOLD = 0.05
HYSTERESIS = 0.02
UNBALANCE_THRESHOLD = 0.02
UNBALANCE_HYSTERESIS = 0.005

RAW_MAGIC = b"PQZ1"
RAW_VERSION = 2
RAW_CHANNELS = 6
_RAW_HEADER = struct.Struct("<4sIQIIdQ")
_READ_CHUNK = 1 << 16  # compressed bytes read from a capture at a time
_ZLIB_HEADER = b"\x78\x01"  # deflate, 32 KiB window, fastest level
_STORED_BLOCK = struct.Struct("<BHH")  # not final, stored; length, its complement
_PREFIX_SIZE = len(_ZLIB_HEADER) + _STORED_BLOCK.size + _RAW_HEADER.size
_ADLER_BASE = 65521

#: Seconds of one capture copied but not yet compressed: a push that leaves
#: more waits for the oldest, so a capture holds a bounded number of samples
#: whatever the worker's speed.  The analyzer's 3 s block pushes up to three
#: seconds at once, which are then compressed while it analyzes the block.
SECONDS_IN_FLIGHT = 3

_worker = None  # the executor whose one thread compresses captures
_worker_lock = threading.Lock()


def _compressor():
    """The process's capture worker: one thread, so jobs run in the order
    they were submitted.  Made on first use, so importing this module
    starts no thread."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(1, thread_name_prefix="pqstream-capture")
        return _worker


def _forget_worker() -> None:
    # a forked child holds the parent's executor but not its thread, and
    # the lock as it was at the fork
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


class RawCaptureError(ValueError):
    """Raised when a raw capture blob cannot be decoded."""


@dataclass(frozen=True)
class EventThresholds:
    """The nominal voltage the per-unit thresholds are relative to."""

    nominal_voltage_rms: float

    def __post_init__(self) -> None:
        if self.nominal_voltage_rms <= 0:
            raise ValueError("nominal_voltage_rms must be positive")


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

    Times are seconds since stream start; ``file_path`` is the path the raw
    sink returned for the compressed capture (relative to the point
    directory for a transfer-file writer) and is None when writing failed or
    no sink was attached (``raw_write_error`` tells the two apart).
    """

    event_id: int
    measurement_point_id: str
    event_type: str
    start_time: float
    end_time: float
    size_in_samples: int
    file_path: Optional[str] = None
    raw_write_error: bool = False


RawSink = Callable[[str, int, bytes], str]


class CaptureSink(Protocol):
    """A raw sink that takes a capture's compressed pieces as they are made."""

    def open_capture(self, event_type: str) -> CaptureOutput: ...


def adler32_combine(adler1: int, adler2: int, len2: int) -> int:
    """Adler-32 of ``a + b`` from ``adler32(a)``, ``adler32(b)`` and ``len(b)``,
    as zlib's ``adler32_combine`` computes it."""
    a1, b1 = adler1 & 0xFFFF, adler1 >> 16
    a2, b2 = adler2 & 0xFFFF, adler2 >> 16
    # every byte of b also adds the (a1 - 1) that b's own sum started without
    a = (a1 + a2 - 1) % _ADLER_BASE
    b = (b1 + b2 + len2 % _ADLER_BASE * (a1 - 1)) % _ADLER_BASE
    return b << 16 | a


class CaptureOutput(Protocol):
    """Where a :class:`CaptureEncoder` puts a capture's compressed bytes.

    :meth:`write` takes the pieces in order: first zero bytes that keep room
    for the prefix, then the compressed seconds, then the deflate flush and
    the Adler-32.  :meth:`finish` writes ``prefix`` (the zlib header, the
    stored block and the 40-byte raw header) over that room and returns
    where the capture went; :meth:`abort` drops whatever was written and
    must not raise.
    """

    def write(self, piece: bytes) -> None: ...

    def finish(self, event_id: int, prefix: bytes): ...

    def abort(self) -> None: ...


class BlobCapture:
    """A capture output that grows the blob in one ``bytearray``.

    :meth:`finish` writes the prefix into the room kept for it and returns
    ``raw_sink(event_type, event_id, blob)``, or the blob itself when no
    sink is given; the blob is handed over as it is, never copied.
    """

    def __init__(self, raw_sink: RawSink | None = None, event_type: str = "") -> None:
        self._sink = raw_sink
        self._event_type = event_type
        self._blob = bytearray()

    def write(self, piece: bytes) -> None:
        self._blob += piece

    def finish(self, event_id: int, prefix: bytes):
        blob, self._blob = self._blob, bytearray()
        blob[: len(prefix)] = prefix
        return blob if self._sink is None else self._sink(self._event_type, event_id, blob)

    def abort(self) -> None:
        self._blob = bytearray()


class CaptureEncoder:
    """One capture compressed as its samples arrive, a second at a time.

    :meth:`push` takes the next samples from ``start_sample`` on and copies
    each second of them, since the caller's array may change once push
    returns.  The capture worker turns each copy into its byte planes, which
    go through a raw deflate stream (level 1) and a running Adler-32; the
    compressed pieces are collected in order on the caller's thread, in push
    and :meth:`finish`, and written to ``output`` (by default a
    :class:`BlobCapture`), so the encoder holds at most
    ``SECONDS_IN_FLIGHT`` copied seconds and no compressed bytes.  Every
    push but the last must hold whole seconds.  An error in the worker is
    raised by the push that waits for that second, or by :meth:`finish`; an
    error of the output, by the push or finish that writes to it.
    :meth:`finish` waits for every second, writes the deflate flush and the
    Adler-32, then hands the output the prefix as :func:`encode_raw_capture`
    documents it: the header that carries the sample count, known only
    then, in a stored deflate block ahead of the compressed planes.  It
    returns what the output's finish returns: the blob, for the default
    output.  An encoder with seconds in flight when the process forks cannot
    be finished in the child.
    """

    def __init__(self, start_sample: int, output: CaptureOutput | None = None) -> None:
        self.start_sample = start_sample
        self.count = 0
        self.output = BlobCapture() if output is None else output
        self.output.write(bytes(_PREFIX_SIZE))  # room for the prefix, known at finish
        self._deflate = zlib.compressobj(1, zlib.DEFLATED, -15)
        self._adler = zlib.adler32(b"")
        self._pending: deque = deque()  # futures of the compressed seconds, oldest first

    def push(self, samples: np.ndarray) -> None:
        """Append a (6, m) channel block, a strided view too."""
        if self.count % SAMPLE_RATE:
            raise ValueError("the capture's last, partial second is already pushed")
        pending = self._pending
        for lo in range(0, samples.shape[1], SAMPLE_RATE):
            block = np.array(samples[:, lo : lo + SAMPLE_RATE], dtype="<f8", order="C")
            pending.append(_compressor().submit(self._compress, block))
            self.count += block.shape[1]
            while pending and (len(pending) > SECONDS_IN_FLIGHT or pending[0].done()):
                self.output.write(pending.popleft().result())

    def _compress(self, block: np.ndarray) -> bytes:
        """One second's compressed byte planes; runs on the capture worker."""
        planes = block.view(np.uint8).reshape(RAW_CHANNELS, -1, 8).transpose(0, 2, 1)
        planes = np.ascontiguousarray(planes)
        self._adler = zlib.adler32(planes, self._adler)
        return self._deflate.compress(planes)

    def finish(self, event_id: int):
        """Complete the capture in its output; the encoder takes no more samples."""
        while self._pending:
            self.output.write(self._pending.popleft().result())
        header = _RAW_HEADER.pack(
            RAW_MAGIC,
            RAW_VERSION,
            event_id,
            RAW_CHANNELS,
            SAMPLE_RATE,
            self.start_sample / SAMPLE_RATE,
            self.count,
        )
        stored = _STORED_BLOCK.pack(0, len(header), 0xFFFF ^ len(header))
        payload_bytes = RAW_CHANNELS * 8 * self.count
        check = adler32_combine(zlib.adler32(header), self._adler, payload_bytes)
        self.output.write(self._deflate.flush() + struct.pack(">I", check))
        return self.output.finish(event_id, _ZLIB_HEADER + stored + header)

    def abort(self) -> None:
        """Drop the capture: seconds the worker has not begun are cancelled,
        and the output drops what it holds."""
        while self._pending:
            self._pending.popleft().cancel()
        self.output.abort()


def encode_raw_capture(event_id: int, start_sample: int, samples: np.ndarray) -> bytes:
    """Serialize a (6, n) channel block to the compressed capture format.

    Layout before compression, version 2: a fixed 40-byte header (magic
    ``PQZ1``, version, event id, channel count, sample rate, capture start
    time in seconds, sample count), then the samples in consecutive blocks of
    ``SAMPLE_RATE`` samples (one second; the last block may be shorter).  A
    block holds the six channels in turn, and each channel as 8 byte planes
    of its little-endian float64 samples: byte 0 of every sample, then byte
    1, up to byte 7.  One zlib stream covers the header and every block: the
    header in a stored (uncompressed) deflate block, the blocks' planes
    compressed at level 1, so the blob can be built one second at a time
    (:class:`CaptureEncoder`) and still inflates with any zlib decoder to
    the same bytes as before.  Version 1 captures, whose payload is one
    channel-major block of plain samples, still decode.  Any (6, n) array
    will do, a strided view too; one second is copied at a time.
    """
    if samples.ndim != 2 or samples.shape[0] != RAW_CHANNELS:
        raise ValueError(f"capture must have shape ({RAW_CHANNELS}, n)")
    encoder = CaptureEncoder(start_sample)
    encoder.push(samples)
    return bytes(encoder.finish(event_id))


class _Inflater:
    """Decompressed bytes of a zlib stream read from a binary file, handed
    out a bounded number at a time."""

    def __init__(self, source: BinaryIO) -> None:
        self._source = source
        self._stream = zlib.decompressobj()

    def read(self, n: int) -> bytes:
        """Up to ``n`` bytes; fewer only where the stream or its input ends."""
        parts = []
        while n > 0 and not self._stream.eof:
            data = self._stream.unconsumed_tail or self._source.read(_READ_CHUNK)
            try:
                part = self._stream.decompress(data, n)
            except zlib.error as exc:
                raise RawCaptureError(f"not a valid capture stream: {exc}") from exc
            if not part and not data:
                break
            parts.append(part)
            n -= len(part)
        return b"".join(parts)

    def finish(self) -> None:
        """Refuse decompressed bytes left over, and a stream cut short."""
        if self.read(1):
            raise RawCaptureError("payload holds bytes after its last block")
        if not self._stream.eof:
            raise RawCaptureError("capture stream truncated")


def read_raw_capture(source: BinaryIO) -> tuple[dict, Iterator[np.ndarray]]:
    """Header dict and (channels, m) sample blocks of a capture, either version.

    ``source`` is the compressed blob opened as a binary file.  The header is
    read at once; the blocks are read and decompressed as they are iterated,
    so memory holds one block: one second of samples for version 2, the
    whole capture for version 1, whose payload is a single channel-major
    block.  A bad header raises :class:`RawCaptureError` here, a bad payload
    while iterating.
    """
    stream = _Inflater(source)
    head = stream.read(_RAW_HEADER.size)
    if len(head) < _RAW_HEADER.size:
        raise RawCaptureError("capture truncated before header end")
    magic, version, event_id, channels, rate, start_time, count = _RAW_HEADER.unpack(head)
    if magic != RAW_MAGIC:
        raise RawCaptureError(f"bad magic {magic!r}")
    if version not in (1, 2):
        raise RawCaptureError(f"unsupported capture version {version}")
    if version == 2 and rate == 0:
        raise RawCaptureError("capture header gives a sample rate of 0")
    header = {
        "event_id": event_id,
        "channel_count": channels,
        "sample_rate": rate,
        "start_time": start_time,
        "sample_count": count,
    }
    return header, _capture_blocks(stream, version, channels, rate, count)


def _capture_blocks(
    stream: _Inflater, version: int, channels: int, rate: int, count: int
) -> Iterator[np.ndarray]:
    block_len = count if version == 1 else rate
    done = 0
    while done < count:
        m = min(block_len, count - done)
        raw = stream.read(channels * m * 8)
        if len(raw) != channels * m * 8:
            raise RawCaptureError(
                f"payload ends inside the block of samples {done}-{done + m - 1}"
                f" of {count}"
            )
        cells = np.frombuffer(raw, dtype=np.uint8)
        if version == 1:
            cells = cells.reshape(channels, m, 8)
        else:
            cells = cells.reshape(channels, 8, m).transpose(0, 2, 1)
        yield np.ascontiguousarray(cells).view("<f8").reshape(channels, m)
        done += m
    stream.finish()


def decode_raw_capture(blob: bytes) -> tuple[dict, np.ndarray]:
    """Inverse of :func:`encode_raw_capture`; returns (header dict, samples).

    Decodes version 1 and version 2 captures alike.
    """
    header, blocks = read_raw_capture(io.BytesIO(blob))
    samples = np.concatenate([np.empty((header["channel_count"], 0)), *blocks], axis=1)
    return header, samples


class CaptureBuffer:
    """Samples ``first_sample`` to ``next_sample`` of all six channels, in one
    (6, capacity) array whose column 0 is absolute sample ``_base``.

    :meth:`feed` writes in place, moving the retained samples to the front at
    the array's end and doubling it only when they do not fit; :meth:`trim`
    only moves ``first_sample``, which the detector sets to the window it last
    judged minus the pre-trigger, or to the first sample an open capture has
    not pushed yet, if earlier.
    """

    def __init__(self) -> None:
        self._data = np.empty((RAW_CHANNELS, SAMPLE_RATE))
        self._base = 0
        self.first_sample = 0
        self.next_sample = 0

    def feed(self, start_index: int, voltage: np.ndarray, current: np.ndarray) -> None:
        if start_index != self.next_sample:
            raise ValueError(
                f"capture feed at sample {start_index}, expected {self.next_sample}"
            )
        n = voltage.shape[1]
        lo, hi = self.first_sample - self._base, self.next_sample - self._base
        capacity = self._data.shape[1]
        if hi + n > capacity:
            kept = self._data[:, lo:hi]
            if hi - lo + n > capacity:
                self._data = np.empty((RAW_CHANNELS, max(2 * capacity, hi - lo + n)))
            self._data[:, : hi - lo] = kept
            self._base, hi = self.first_sample, hi - lo
        self._data[:3, hi : hi + n] = voltage
        self._data[3:, hi : hi + n] = current
        self.next_sample += n

    def trim(self, keep_from: int) -> None:
        """Drop the samples before ``keep_from``, never past the newest one."""
        self.first_sample = max(self.first_sample, min(keep_from, self.next_sample))

    def extract(self, start_sample: int, end_sample: int) -> tuple[int, np.ndarray]:
        """Samples in [start_sample, end_sample), clamped to what is retained,
        as a view valid until the next :meth:`feed`."""
        start = max(start_sample, self.first_sample)
        end = max(start, min(end_sample, self.next_sample))
        return start, self._data[:, start - self._base : end - self._base]


class EventDetector:
    """Runs the four event state machines over successive RMS points.

    ``raw_sink`` takes the captures, in one of two kinds:

    - a callable, called as ``sink(event_type, event_id, blob)`` at
      finalization with the whole blob as a ``bytearray``, so it is never
      copied, that returns the path it stored the capture under;
    - a :class:`CaptureSink` such as ``TransferFileWriter``, whose
      ``open_capture(event_type)`` is called when an event opens and returns
      a :class:`CaptureOutput`; the capture's compressed pieces are written
      to it as they are collected, and its ``finish`` returns the path.  So
      an open event holds no compressed bytes either.

    An ``OSError`` of the sink, at open, at a write or at finish, aborts the
    output and is absorbed into the record's ``raw_write_error`` flag, so
    raw data loss never loses the event row; a sag an interruption absorbs
    aborts its output, which leaves nothing.  With no sink attached the
    capture is skipped entirely.  Captures span the event plus the trigger
    margins, clamped to the samples seen so far, so a post trigger longer
    than one RMS interval is truncated at the stream position where the
    exit was observed.  Whatever the frame length, samples are kept from the
    window just judged minus the pre-trigger, or from the first sample an
    open capture has not pushed yet.  An open event is held as its start
    sample and, with a sink, its :class:`CaptureEncoder`, which takes each
    whole second below the last judged window's end.  The one clock is ``_end``,
    the sample where the last judged window ends (0 before any update): an
    update whose window starts before it, and a ``close`` at an end before
    it, raise ``ValueError`` and change nothing.
    """

    def __init__(
        self,
        thresholds: EventThresholds,
        measurement_point_id: str = "MP1",
        raw_sink: RawSink | CaptureSink | None = None,
    ) -> None:
        self.thresholds = thresholds
        self.measurement_point_id = measurement_point_id
        self.raw_sink = raw_sink
        self.records: list[EventRecord] = []
        self.capture = CaptureBuffer()
        # an open event's start sample, None when that type has no open event
        self._active: dict[str, int | None] = {t: None for t in EVENT_TYPES}
        # an open event's capture, compressed so far, when a sink is attached
        self._encoders: dict[str, CaptureEncoder] = {}
        self._failed: set[str] = set()  # open events whose capture could not be written
        self._end = 0  # the sample where the last judged window ends
        self._next_event_id = 1

    # -- raw sample intake ------------------------------------------------

    def feed_samples(
        self, start_index: int, voltage: np.ndarray, current: np.ndarray
    ) -> None:
        self.capture.feed(start_index, voltage, current)

    # -- state machine ------------------------------------------------------

    def update(self, timestamp: float, v_rms) -> None:
        """Advance every machine with one RMS triple (tuple or array).

        With ``low`` and ``high`` the triple's lowest and highest per-unit
        phase: an interruption enters at ``high < 0.05`` and exits at
        ``high >= 0.07``; a sag enters at ``low < 0.85`` and exits at ``low
        >= 0.87``; a swell enters at ``high > 1.10`` and exits at ``high <=
        1.08``; unbalance enters at a factor above 0.02 and exits at or
        below 0.015.  A triple whose RMS window, the one ending at
        ``timestamp``, starts before ``_end``, or that holds NaN or an
        infinity, raises ``ValueError`` before any state changes.
        """
        # events start, and end, where the window that shows the change starts
        end = round(timestamp * SAMPLE_RATE)
        edge = end - RMS_WINDOW
        if edge < self._end:
            raise ValueError(f"RMS window from sample {edge} starts before sample {self._end}")
        values = [float(x) for x in v_rms]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"RMS triple must be finite, got {values}")
        factor = compute_unbalance(values)
        self._end = end
        nominal = self.thresholds.nominal_voltage_rms
        low, high = min(values) / nominal, max(values) / nominal
        active = self._active

        # Interruption first: it governs the sag machine at this point.  Sag
        # stays unconsulted through the interruption's exit window too, so a
        # staircase recovery that lingers in the sag band for one point does
        # not spawn a spurious sag on the way back up.
        if active["interruption"] is not None:
            if high >= INTERRUPTION_THRESHOLD + HYSTERESIS:
                self._exit("interruption", edge)
        elif high < INTERRUPTION_THRESHOLD:
            # a sag the collapse opened on the way down is absorbed without
            # a record
            active["sag"] = None
            self._drop_capture("sag")
            self._enter("interruption", edge)
        elif active["sag"] is None:
            if low < SAG_THRESHOLD:
                self._enter("sag", edge)
        elif low >= SAG_THRESHOLD + HYSTERESIS:
            self._exit("sag", edge)

        if active["swell"] is None:
            if high > SWELL_THRESHOLD:
                self._enter("swell", edge)
        elif high <= SWELL_THRESHOLD - HYSTERESIS:
            self._exit("swell", edge)

        if active["unbalance"] is None:
            if (
                factor is not None
                and factor > UNBALANCE_THRESHOLD
                and all(active[t] is None for t in ("sag", "swell", "interruption"))
            ):
                self._enter("unbalance", edge)
        elif factor is not None and factor <= UNBALANCE_THRESHOLD - UNBALANCE_HYSTERESIS:
            self._exit("unbalance", edge)

        self._trim_capture(end)

    def _enter(self, event_type: str, start_sample: int) -> None:
        self._active[event_type] = start_sample
        sink = self.raw_sink
        if sink is not None:
            first = max(start_sample - PRE_TRIGGER_SAMPLES, self.capture.first_sample)
            output = None
            try:
                output = (BlobCapture(sink, event_type) if callable(sink)
                          else sink.open_capture(event_type))
                self._encoders[event_type] = CaptureEncoder(first, output)
            except OSError:
                if output is not None:
                    output.abort()
                self._failed.add(event_type)

    def _drop_capture(self, event_type: str) -> None:
        """Abort the open ``event_type`` event's capture, if it has one."""
        self._failed.discard(event_type)
        encoder = self._encoders.pop(event_type, None)
        if encoder is not None:
            encoder.abort()

    def _exit(self, event_type: str, end_sample: int) -> None:
        """End the open ``event_type`` event at ``end_sample`` and record it."""
        start_sample = self._active[event_type]
        self._active[event_type] = None
        event_id = self._next_event_id
        self._next_event_id += 1
        path: str | None = None
        failed = event_type in self._failed
        self._failed.discard(event_type)
        encoder = self._encoders.pop(event_type, None)
        if encoder is not None:
            try:
                self._push(encoder, min(end_sample + POST_TRIGGER_SAMPLES, self.capture.next_sample))
                path = encoder.finish(event_id)
            except OSError:
                encoder.abort()
                failed = True
        self.records.append(
            EventRecord(
                event_id=event_id,
                measurement_point_id=self.measurement_point_id,
                event_type=event_type,
                start_time=start_sample / SAMPLE_RATE,
                end_time=end_sample / SAMPLE_RATE,
                size_in_samples=end_sample - start_sample,
                file_path=path,
                raw_write_error=failed,
            )
        )

    def _push(self, encoder: CaptureEncoder, stop: int) -> None:
        """Push the samples from where ``encoder`` stands up to ``stop``."""
        _, samples = self.capture.extract(encoder.start_sample + encoder.count, stop)
        encoder.push(samples)

    def _trim_capture(self, end_sample: int) -> None:
        # an event the next window opens starts where this window ends, and
        # an open event's capture needs what it has not pushed yet
        keep_from = end_sample - PRE_TRIGGER_SAMPLES
        judged = min(end_sample, self.capture.next_sample)
        for event_type, encoder in list(self._encoders.items()):
            pushed = encoder.start_sample + encoder.count
            if judged - pushed >= SAMPLE_RATE:
                try:
                    self._push(encoder, judged - (judged - pushed) % SAMPLE_RATE)
                except OSError:
                    self._drop_capture(event_type)
                    self._failed.add(event_type)
                    continue
            keep_from = min(keep_from, encoder.start_sample + encoder.count)
        self.capture.trim(max(keep_from, 0))

    def close(self, end_timestamp: float | None = None) -> None:
        """Finalize events still open at ``end_timestamp``, by default where
        the last judged window ends, and let go of the raw samples, which no
        later event can use.  An end before that window's end raises
        ``ValueError`` and changes nothing."""
        end_sample = self._end if end_timestamp is None else round(end_timestamp * SAMPLE_RATE)
        if end_sample < self._end:
            raise ValueError(f"close at sample {end_sample}, before sample {self._end}")
        for event_type, start_sample in self._active.items():
            if start_sample is not None:
                self._exit(event_type, end_sample)
        self.capture = CaptureBuffer()
