"""Spans around calls into pqstream's public functions and classes.

The wrapper classes below subclass the program's public classes and open
a span around each public method on a :class:`spans.Tracer`; nothing inside
the program is changed.

With tracing off the same wrappers are not used at all: the untraced run
calls the program's own classes, so its timings carry no tracing cost.
"""

from __future__ import annotations

import struct
import zlib

from pqstream.analyzer import StreamPipeline
from pqstream.events import RAW_MAGIC, EventDetector
from pqstream.store import TransferFileWriter
from spans import Tracer

#: Span names whose self time is bookkeeping of the tracer, not of a layer.
BOOKKEEPING = "trace.bookkeeping"

# Header of a raw capture as documented in ``encode_raw_capture``: magic,
# version, event id, channel count, sample rate, start time, sample count.
_CAPTURE_HEADER = struct.Struct("<4sIQIIdQ")


def traced_frames(tracer: Tracer, frames):
    """Yield the generator's frames with one ``siggen.frame`` span per frame."""
    it = iter(frames)
    while True:
        idx = tracer.begin("siggen.frame")
        try:
            frame = next(it)
        except StopIteration:
            tracer.drop_last(idx)
            return
        tracer.end(idx)
        yield frame


class TracedPipeline(StreamPipeline):
    tracer: Tracer

    def process_frame(self, frame) -> None:
        idx = self.tracer.begin("analyzer.process_frame")
        try:
            super().process_frame(frame)
        finally:
            self.tracer.end(idx)

    def finish(self):
        idx = self.tracer.begin("analyzer.finish")
        try:
            return super().finish()
        finally:
            self.tracer.end(idx)


class TracedDetector(EventDetector):
    tracer: Tracer

    def feed_samples(self, start_index, voltage, current) -> None:
        idx = self.tracer.begin("events.feed_samples")
        try:
            super().feed_samples(start_index, voltage, current)
        finally:
            self.tracer.end(idx)

    def update(self, timestamp, v_rms):
        idx = self.tracer.begin("events.update")
        try:
            return super().update(timestamp, v_rms)
        finally:
            self.tracer.end(idx)

    def close(self, end_timestamp=None) -> None:
        idx = self.tracer.begin("events.close")
        try:
            super().close(end_timestamp)
        finally:
            self.tracer.end(idx)


class TracedWriter(TransferFileWriter):
    tracer: Tracer

    def __init__(self, *args, **kwargs) -> None:
        idx = self.tracer.begin("store.write_metadata")
        try:
            super().__init__(*args, **kwargs)
        finally:
            self.tracer.end(idx)

    def raw_sink(self, event_type: str, event_id: int, blob: bytes) -> str:
        idx = self.tracer.begin("store.raw_sink")
        try:
            path = super().raw_sink(event_type, event_id, blob)
        finally:
            self.tracer.end(idx)
        book = self.tracer.begin(BOOKKEEPING)
        header = zlib.decompressobj().decompress(blob, _CAPTURE_HEADER.size)
        magic, _, _, channels, _, _, count = _CAPTURE_HEADER.unpack(header)
        if magic == RAW_MAGIC:
            self.tracer.counts["events.capture_samples"] += count
            self.tracer.counts["events.capture_raw_bytes"] += _CAPTURE_HEADER.size + 8 * channels * count
        self.tracer.counts["events.capture_bytes"] += len(blob)
        self.tracer.end(book)
        return path

    def write_results(self, result, file_seq: int = 0):
        idx = self.tracer.begin("store.write_results")
        try:
            return super().write_results(result, file_seq)
        finally:
            self.tracer.end(idx)


def bind(tracer: Tracer) -> dict[str, type]:
    """Traced subclasses bound to ``tracer``, keyed by the class they replace."""
    return {
        base.__name__: type(cls.__name__, (cls,), {"tracer": tracer})
        for base, cls in ((StreamPipeline, TracedPipeline), (EventDetector, TracedDetector),
                          (TransferFileWriter, TracedWriter))
    }


def count_statements(tracer: Tracer, conn) -> None:
    """Count SQL statements and commits issued on ``conn`` through sqlite3's trace hook."""

    def hook(statement: str) -> None:
        tracer.counts["store.ingest_statements"] += 1
        if statement.lstrip()[:6].upper() == "COMMIT":
            tracer.counts["store.ingest_commits"] += 1

    conn.set_trace_callback(hook)
