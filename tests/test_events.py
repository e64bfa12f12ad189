"""Event state machines, raw capture extraction, and the .pqz container."""

from __future__ import annotations

import copy
import io
import math
import os
import select
import signal
import struct
import sys
import threading
import time
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqstream.events import (
    EVENT_TYPES,
    HYSTERESIS,
    INTERRUPTION_THRESHOLD,
    POST_TRIGGER_SAMPLES,
    PRE_TRIGGER_SAMPLES,
    SAG_THRESHOLD,
    SECONDS_IN_FLIGHT,
    SWELL_THRESHOLD,
    UNBALANCE_HYSTERESIS,
    UNBALANCE_THRESHOLD,
    CaptureBuffer,
    CaptureEncoder,
    EventDetector,
    EventThresholds,
    RawCaptureError,
    adler32_combine,
    compute_unbalance,
    decode_raw_capture,
    encode_raw_capture,
    read_raw_capture,
)
from pqstream.analyzer import HARMONIC_WINDOW, RMS_WINDOW, StreamPipeline, run_pipeline
from pqstream.siggen import SAMPLE_RATE, generate_stream, parse_script

from conftest import V1_CAPTURE, unit_config, unit_pipeline_config, v1_capture_samples

_HEADER_PROBE = 16  # cuts inside the fixed header
NOMINAL = 1.0  # the generator scales amplitude so nominal rms is 1.0


def make_detector(**kwargs):
    thresholds = EventThresholds(nominal_voltage_rms=1.0)
    return EventDetector(thresholds, **kwargs)


def drive(detector, levels, start=0.2, step=0.2):
    """Feed a list of per-window rms triples (or scalars, applied to all)."""
    ts = start
    for level in levels:
        triple = (level,) * 3 if np.isscalar(level) else tuple(level)
        detector.update(ts, triple)
        ts += step
    return ts


def run_script(script_text, duration, raw_sink=None, **det_kwargs):
    config = unit_config(duration)
    pipeline_config = unit_pipeline_config()
    thresholds = EventThresholds(nominal_voltage_rms=1.0)
    detector = EventDetector(
        thresholds, raw_sink=raw_sink, **det_kwargs
    )
    result = run_pipeline(
        generate_stream(config, parse_script(script_text)),
        pipeline_config,
        detector=detector,
    )
    return result.events


# -- unbalance factor ---------------------------------------------------------


def test_unbalance_factor_values():
    assert compute_unbalance((1.0, 1.0, 1.0)) == 0.0
    value = compute_unbalance((1.0, 1.0, 0.9))
    mean = (1.0 + 1.0 + 0.9) / 3.0
    assert value == pytest.approx((mean - 0.9) / mean, rel=1e-12)
    assert value == pytest.approx(0.06896551724137934, rel=1e-9)


def test_unbalance_factor_undefined_for_dead_bus():
    assert compute_unbalance((0.0, 0.0, 0.0)) is None


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_unbalance_factor_scale_invariant(scale):
    base = (1.0, 0.95, 1.02)
    scaled = tuple(scale * v for v in base)
    assert compute_unbalance(scaled) == pytest.approx(compute_unbalance(base), rel=1e-9)


def numpy_unbalance(v_rms):
    """The array formula the scalar factor must reproduce bit for bit."""
    v = np.asarray(v_rms, dtype=np.float64)
    mean = float(np.mean(v))
    if mean == 0.0:
        return None
    return float(np.max(np.abs(v - mean)) / mean)


_level = st.floats(min_value=0.0, max_value=1e6)
_triples = (
    st.tuples(_level, _level, _level)
    | st.just((0.0, 0.0, 0.0))
    | st.tuples(_level, _level, _level, st.integers(0, 2)).map(  # one dead phase
        lambda t: tuple(0.0 if p == t[3] else t[p] for p in range(3))
    )
)


@given(_triples)
def test_unbalance_scalar_matches_numpy_formula_bit_for_bit(triple):
    expected = numpy_unbalance(triple)
    for given_as in (triple, np.asarray(triple)):
        value = compute_unbalance(given_as)
        if expected is None:
            assert value is None
        else:
            assert type(value) is float
            assert value.hex() == expected.hex()


_pu_levels = st.sampled_from(
    [0.0, 0.03, 0.06, 0.08, 0.5, 0.84, 0.86, 0.88, 0.95, 0.97, 1.0, 1.03, 1.07, 1.09, 1.11, 1.2]
)


@given(st.lists(st.tuples(_pu_levels, _pu_levels, _pu_levels), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_detector_same_for_tuples_and_arrays(levels):
    as_tuples, as_arrays = make_detector(), make_detector()
    for k, triple in enumerate(levels):
        ts = 0.2 * (k + 1)
        as_tuples.update(ts, triple)
        as_arrays.update(ts, np.asarray(triple))
    as_tuples.close()
    as_arrays.close()
    assert as_tuples.records == as_arrays.records


# -- thresholds ---------------------------------------------------------------


def test_threshold_validation():
    with pytest.raises(ValueError):
        EventThresholds(nominal_voltage_rms=0.0)


def test_threshold_constants_are_ordered_and_bands_do_not_overlap():
    assert 0 < INTERRUPTION_THRESHOLD < SAG_THRESHOLD < 1 < SWELL_THRESHOLD
    assert 0 <= HYSTERESIS and 0 <= UNBALANCE_HYSTERESIS
    assert SAG_THRESHOLD + HYSTERESIS < SWELL_THRESHOLD - HYSTERESIS
    assert UNBALANCE_HYSTERESIS < UNBALANCE_THRESHOLD


# -- state machine transitions on synthetic rms sequences ----------------------


def test_sag_entry_exit_and_size():
    detector = make_detector()
    drive(detector, [NOMINAL] * 5 + [0.8 * NOMINAL] * 5 + [NOMINAL] * 5)
    detector.close(3.0)
    records = detector.records
    assert len(records) == 1
    event = records[0]
    assert event.event_type == "sag"
    assert event.start_time == pytest.approx(1.0)
    assert event.end_time == pytest.approx(2.0)
    assert event.size_in_samples == 5 * 640


def test_sag_hysteresis_holds_in_the_band():
    # recovery into [0.85, 0.87) must not close the event
    detector = make_detector()
    drive(detector, [NOMINAL, 0.8, 0.86, 0.86, 0.8, NOMINAL], start=0.2)
    detector.close(1.2)
    records = detector.records
    assert len(records) == 1
    assert records[0].size_in_samples == 4 * 640


def test_swell_entry_exit():
    detector = make_detector()
    drive(detector, [NOMINAL] * 3 + [(1.2, NOMINAL, NOMINAL)] * 4 + [NOMINAL] * 3)
    detector.close(2.0)
    records = detector.records
    assert [e.event_type for e in records] == ["swell"]
    assert records[0].size_in_samples == 4 * 640


def test_interruption_requires_all_phases():
    detector = make_detector()
    # one dead phase is a sag, not an interruption
    drive(detector, [NOMINAL] * 2 + [(0.0, NOMINAL, NOMINAL)] * 3 + [NOMINAL] * 2)
    detector.close(1.4)
    assert [e.event_type for e in detector.records] == ["sag"]


def test_interruption_all_phases_dead():
    detector = make_detector()
    drive(detector, [NOMINAL] * 2 + [0.0] * 3 + [NOMINAL] * 2)
    detector.close(1.4)
    records = detector.records
    assert [e.event_type for e in records] == ["interruption"]
    assert records[0].size_in_samples == 3 * 640


def test_interruption_entry_cancels_active_sag():
    detector = make_detector()
    drive(detector, [NOMINAL] * 2 + [0.5] * 2 + [0.0] * 3 + [NOMINAL] * 2)
    detector.close(1.8)
    records = detector.records
    # the sag that led into the collapse is absorbed, only the interruption remains
    assert [e.event_type for e in records] == ["interruption"]


def test_sag_not_started_during_interruption():
    detector = make_detector()
    # recovery passes through the sag region while the interruption is closing
    drive(detector, [NOMINAL, 0.0, 0.0, (0.5, NOMINAL, NOMINAL), NOMINAL])
    detector.close(1.0)
    types = [e.event_type for e in detector.records]
    assert types.count("interruption") == 1
    assert "sag" not in types


def test_unbalance_event_on_spread_phases():
    detector = make_detector()
    drive(detector, [NOMINAL] * 2 + [(NOMINAL, NOMINAL, 0.9 * NOMINAL)] * 4 + [NOMINAL] * 2)
    detector.close(1.6)
    records = detector.records
    assert [e.event_type for e in records] == ["unbalance"]
    assert records[0].size_in_samples == 4 * 640


def test_unbalance_entry_suppressed_during_sag():
    detector = make_detector()
    # a one-phase sag also skews the unbalance factor; only the sag may fire
    drive(detector, [NOMINAL] * 2 + [(0.5 * NOMINAL, NOMINAL, NOMINAL)] * 3 + [NOMINAL] * 2)
    detector.close(1.4)
    assert [e.event_type for e in detector.records] == ["sag"]


def test_unbalance_before_sag_keeps_both():
    detector = make_detector()
    levels = (
        [NOMINAL] * 2
        + [(NOMINAL, NOMINAL, 0.92 * NOMINAL)] * 2  # unbalance enters first
        + [(0.5 * NOMINAL, NOMINAL, 0.92 * NOMINAL)] * 2  # then a sag on A
        + [NOMINAL] * 2
    )
    drive(detector, levels)
    detector.close(1.6)
    types = sorted(e.event_type for e in detector.records)
    assert types == ["sag", "unbalance"]


def test_no_zero_length_events():
    # entry and immediate exit on the next window still spans one window
    detector = make_detector()
    drive(detector, [NOMINAL, 0.5, NOMINAL, NOMINAL])
    detector.close(0.8)
    records = detector.records
    assert len(records) == 1
    assert records[0].size_in_samples == 640
    assert records[0].end_time > records[0].start_time


def test_stream_end_closes_open_events():
    detector = make_detector()
    end = drive(detector, [NOMINAL, NOMINAL, 0.5, 0.5])
    detector.close(end - 0.2)
    records = detector.records
    assert len(records) == 1
    assert records[0].end_time == pytest.approx(0.8)
    assert records[0].size_in_samples == 2 * 640


def test_timestamps_must_increase():
    detector = make_detector()
    detector.update(0.2, (NOMINAL,) * 3)
    with pytest.raises(ValueError):
        detector.update(0.2, (NOMINAL,) * 3)


def test_update_refuses_a_window_before_the_stream_start_or_the_previous_window_end():
    # off the 0.2 s grid, 0.1 s would place an edge at -0.1 s and 0.25 s one
    # at 0.05 s, inside the window judged at 0.2 s
    detector = make_detector()
    with pytest.raises(ValueError, match="starts before sample 0"):
        detector.update(0.1, (0.5,) * 3)
    assert _state(detector) == _state(make_detector())
    detector.update(0.2, (0.5,) * 3)
    before = _state(detector)
    with pytest.raises(ValueError, match="starts before sample 640"):
        detector.update(0.25, (NOMINAL,) * 3)
    assert _state(detector) == before
    detector.update(0.4, (NOMINAL,) * 3)
    assert [(e.start_time, e.end_time) for e in detector.records] == [(0.0, 0.2)]


def test_close_refuses_an_end_before_the_last_judged_window_end():
    detector = make_detector()
    drive(detector, [NOMINAL] * 5 + [0.5])  # a sag opens at 1.0 s
    with pytest.raises(ValueError, match="before sample 3840"):
        detector.close(0.4)
    assert detector.records == []
    detector.close()
    assert [(e.start_time, e.end_time, e.size_in_samples) for e in detector.records] == [
        (1.0, 1.2, 640)
    ]


@pytest.mark.parametrize(
    "entry_level,event_type",
    [(0.5, "sag"), (1.2, "swell"), (0.0, "interruption")],
)
def test_chatter_inside_hysteresis_band_is_one_event(entry_level, event_type):
    if event_type == "sag":
        inside = (SAG_THRESHOLD + 0.01, entry_level)
    elif event_type == "swell":
        inside = (SWELL_THRESHOLD - 0.01, entry_level)
    else:
        inside = (INTERRUPTION_THRESHOLD + 0.01, entry_level)
    detector = make_detector()
    levels = [NOMINAL, entry_level] + list(inside) * 8 + [NOMINAL] * 2
    drive(detector, levels)
    detector.close(len(levels) * 0.2)
    records = [e for e in detector.records if e.event_type == event_type]
    assert len(records) == 1


def test_unbalance_chatter_is_one_event():
    enter = (NOMINAL, NOMINAL, 0.9 * NOMINAL)      # u ~ 0.034
    inside = (NOMINAL, NOMINAL, 0.947 * NOMINAL)   # u ~ 0.018, inside [0.015, 0.02]
    detector = make_detector()
    levels = [NOMINAL, enter] + [inside, enter] * 6 + [NOMINAL] * 2
    drive(detector, levels)
    detector.close(len(levels) * 0.2)
    assert [e.event_type for e in detector.records] == ["unbalance"]


# -- the lowest/highest-phase rules against the per-phase ones -----------------


class PerPhaseDetector(EventDetector):
    """``update`` as it stood when each machine tested every phase in turn,
    kept as the reference the lowest/highest-phase rules must match on
    finite triples."""

    def update(self, timestamp, v_rms):
        end = round(timestamp * SAMPLE_RATE)
        edge = end - RMS_WINDOW
        if edge < self._end:
            raise ValueError("RMS window starts before the previous one ends")
        self._end = end
        nominal = self.thresholds.nominal_voltage_rms
        a, b, c = (float(x) / nominal for x in v_rms)

        inter_was_active = self._active["interruption"] is not None
        if not inter_was_active:
            low = INTERRUPTION_THRESHOLD
            if a < low and b < low and c < low:
                if self._active["sag"] is not None:
                    self._active["sag"] = None
                self._enter("interruption", edge)
        else:
            clear = INTERRUPTION_THRESHOLD + HYSTERESIS
            if a >= clear or b >= clear or c >= clear:
                self._exit("interruption", edge)

        if self._active["interruption"] is None and not inter_was_active:
            if self._active["sag"] is None:
                low = SAG_THRESHOLD
                if a < low or b < low or c < low:
                    self._enter("sag", edge)
            else:
                clear = SAG_THRESHOLD + HYSTERESIS
                if a >= clear and b >= clear and c >= clear:
                    self._exit("sag", edge)

        if self._active["swell"] is None:
            high = SWELL_THRESHOLD
            if a > high or b > high or c > high:
                self._enter("swell", edge)
        else:
            clear = SWELL_THRESHOLD - HYSTERESIS
            if a <= clear and b <= clear and c <= clear:
                self._exit("swell", edge)

        factor = compute_unbalance(v_rms)
        if self._active["unbalance"] is None:
            amplitude_event_active = any(
                self._active[t] is not None for t in ("sag", "swell", "interruption")
            )
            if (
                factor is not None
                and factor > UNBALANCE_THRESHOLD
                and not amplitude_event_active
            ):
                self._enter("unbalance", edge)
        elif factor is not None and factor <= UNBALANCE_THRESHOLD - UNBALANCE_HYSTERESIS:
            self._exit("unbalance", edge)

        self._trim_capture(end)


# every threshold and hysteresis edge, and the third phase of (1, 1, x) whose
# unbalance factor (2 - 2x) / (2 + x) sits at the unbalance entry and exit
_EDGES = [
    INTERRUPTION_THRESHOLD,
    INTERRUPTION_THRESHOLD + HYSTERESIS,
    SAG_THRESHOLD,
    SAG_THRESHOLD + HYSTERESIS,
    SWELL_THRESHOLD,
    SWELL_THRESHOLD - HYSTERESIS,
    (2 - 2 * UNBALANCE_THRESHOLD) / (2 + UNBALANCE_THRESHOLD),
    (2 - 2 * (UNBALANCE_THRESHOLD - UNBALANCE_HYSTERESIS))
    / (2 + UNBALANCE_THRESHOLD - UNBALANCE_HYSTERESIS),
]
_edge_levels = st.sampled_from(
    [0.0, 1.0]
    + [v for e in _EDGES for v in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]
)
_finite_level = _edge_levels | st.floats(min_value=0.0, max_value=1.3)
# all three phases alike too, or an interruption would hardly ever open
_finite_triples = st.tuples(_finite_level, _finite_level, _finite_level) | _finite_level.map(
    lambda v: (v, v, v)
)


@given(st.lists(_finite_triples, max_size=60))
@settings(max_examples=300, deadline=None)
def test_lowest_and_highest_phase_rules_match_the_per_phase_rules(levels):
    reference, detector = PerPhaseDetector(EventThresholds(1.0)), make_detector()
    for k, triple in enumerate(levels):
        ts = 0.2 * (k + 1)
        reference.update(ts, triple)
        detector.update(ts, triple)
        assert detector.records == reference.records
    reference.close()
    detector.close()
    assert detector.records == reference.records


def _state(detector):
    return copy.deepcopy(
        (
            detector._active,
            detector._end,
            detector._next_event_id,
            detector.records,
            detector.capture.first_sample,
        )
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_triple_is_refused_and_changes_nothing(bad):
    detector = make_detector()
    drive(detector, [NOMINAL, 0.5, 1.2, (NOMINAL, NOMINAL, 0.9)])
    before = _state(detector)
    for triple in ((bad, NOMINAL, NOMINAL), (0.5, bad, 0.5), np.array([1.2, 1.2, bad])):
        with pytest.raises(ValueError, match="finite"):
            detector.update(1.0, triple)
        assert _state(detector) == before


def test_nan_phase_is_refused_rather_than_holding_a_sag_open():
    # A sag on B opens at 0.6 s, and B recovers in the window ending at 1.4 s
    # while phase A reads NaN there and for nine more windows.  Judged phase
    # by phase, NaN failed every exit test, so the sag ran on to 3.2 s; now
    # the stream stops at the first NaN and the sag ends at the last window
    # accepted.
    detector = make_detector()
    ts = drive(detector, [NOMINAL] * 3 + [(NOMINAL, 0.5, NOMINAL)] * 3)
    with pytest.raises(ValueError, match="finite"):
        detector.update(ts, (math.nan, NOMINAL, NOMINAL))
    detector.close()
    [sag] = detector.records
    assert sag.event_type == "sag"
    assert (sag.start_time, sag.end_time) == (pytest.approx(0.6), pytest.approx(1.2))


# -- raw capture container ----------------------------------------------------


def test_raw_capture_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    block = rng.normal(size=(6, 1000))
    blob = encode_raw_capture(7, 4480, block)
    header, out = decode_raw_capture(blob)
    assert header["event_id"] == 7
    assert header["sample_rate"] == SAMPLE_RATE
    assert header["sample_count"] == 1000
    assert header["channel_count"] == 6
    assert header["start_time"] == 4480 / SAMPLE_RATE
    assert np.array_equal(out, block)


def test_raw_capture_rejects_corrupt_blob():
    blob = encode_raw_capture(1, 0, np.zeros((6, 4)))
    with pytest.raises(RawCaptureError):
        decode_raw_capture(zlib.compress(zlib.decompress(blob)[: _HEADER_PROBE]))
    with pytest.raises(RawCaptureError):
        decode_raw_capture(b"not a capture")
    mangled = zlib.decompress(blob)
    mangled = b"XXXX" + mangled[4:]
    with pytest.raises(RawCaptureError):
        decode_raw_capture(zlib.compress(mangled))


@pytest.mark.parametrize(
    "n", [0, 1, SAMPLE_RATE - 1, SAMPLE_RATE, SAMPLE_RATE + 1, 2 * SAMPLE_RATE + 17]
)
def test_raw_capture_round_trip_bit_exact_across_blocks(n):
    rng = np.random.default_rng(n)
    phase = np.arange(n) / 10.0 + np.arange(6)[:, None]
    block = 325.0 * np.sin(phase) + rng.normal(scale=1e-3, size=(6, n))
    if n:
        block[:, 0] = (-0.0, 5e-324, 1e300, 1e300, 5e-324, -0.0)
        block[:, -1] = (5e-324, 1e300, -0.0, -0.0, 1e300, 5e-324)
    header, out = decode_raw_capture(encode_raw_capture(2, 640, block))
    assert header["sample_count"] == n
    assert out.shape == (6, n) and out.dtype == np.float64
    assert out.tobytes() == block.tobytes()  # signs of zero and subnormals included


class ShortReads(io.BytesIO):
    """A binary file whose reads return at most ``size`` bytes, like a pipe."""

    def __init__(self, blob: bytes, size: int) -> None:
        super().__init__(blob)
        self.size = size

    def read(self, n: int = -1) -> bytes:
        return super().read(self.size if n < 0 else min(n, self.size))


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_read_raw_capture_blocks_whatever_the_read_size(size):
    block = np.sin(np.arange(6 * (SAMPLE_RATE + 1)) / 9.0).reshape(6, -1)
    for blob, lengths in (
        (encode_raw_capture(1, 0, block), [SAMPLE_RATE, 1]),
        (V1_CAPTURE.read_bytes(), [700]),  # version 1 is one channel-major block
    ):
        header, blocks = read_raw_capture(ShortReads(blob, size))
        blocks = list(blocks)
        assert [b.shape for b in blocks] == [(6, n) for n in lengths]
        expected = block if header["event_id"] == 1 else v1_capture_samples()
        assert np.concatenate(blocks, axis=1).tobytes() == expected.tobytes()


def test_raw_capture_v2_refuses_a_bad_payload():
    blob = encode_raw_capture(1, 0, np.arange(6.0 * (SAMPLE_RATE + 1)).reshape(6, -1))
    raw = zlib.decompress(blob)
    for short in (raw[:-1], raw[: -8 * 6]):
        with pytest.raises(RawCaptureError, match="payload ends inside"):
            decode_raw_capture(zlib.compress(short))
    for long in (raw + b"\0", raw + bytes(8 * 6)):
        with pytest.raises(RawCaptureError, match="after its last block"):
            decode_raw_capture(zlib.compress(long))
    with pytest.raises(RawCaptureError, match="version 3"):
        decode_raw_capture(zlib.compress(raw[:4] + struct.pack("<I", 3) + raw[8:]))
    with pytest.raises(RawCaptureError, match="sample rate of 0"):
        decode_raw_capture(zlib.compress(raw[:20] + struct.pack("<I", 0) + raw[24:]))
    with pytest.raises(RawCaptureError, match="stream truncated"):
        decode_raw_capture(blob[:-4])  # every sample there, the checksum cut
    with pytest.raises(RawCaptureError, match="payload ends inside"):
        decode_raw_capture(blob[: len(blob) // 2])


def test_raw_capture_v2_header_reads_with_the_v1_struct():
    # tools that count capture samples (perfbench/tracing.py) read only the
    # first 40 decompressed bytes, laid out as in version 1
    n = 2 * SAMPLE_RATE + 17
    blob = encode_raw_capture(9, 640, np.zeros((6, n)))
    head = zlib.decompressobj().decompress(blob, 40)
    assert struct.Struct("<4sIQIIdQ").unpack(head) == (
        b"PQZ1", 2, 9, 6, SAMPLE_RATE, 640 / SAMPLE_RATE, n
    )


def test_v1_capture_decodes_bit_exact():
    blob = V1_CAPTURE.read_bytes()
    assert zlib.decompress(blob)[:8] == b"PQZ1" + struct.pack("<I", 1)
    header, samples = decode_raw_capture(blob)
    assert header == {
        "event_id": 3,
        "channel_count": 6,
        "sample_rate": SAMPLE_RATE,
        "start_time": 4480 / SAMPLE_RATE,
        "sample_count": 700,
    }
    assert samples.tobytes() == v1_capture_samples().tobytes()


def test_capture_buffer_extract_and_trim():
    buffer = CaptureBuffer()
    for k in range(5):
        chunk = np.full((3, 10), float(k))
        buffer.feed(k * 10, chunk, chunk + 100.0)
    start, block = buffer.extract(15, 35)
    assert start == 15
    assert block.shape == (6, 20)
    assert block[0, 0] == 1.0 and block[0, -1] == 3.0
    assert block[3, 0] == 101.0  # current channels stacked below voltage
    buffer.trim(30)
    start2, block2 = buffer.extract(0, 50)
    assert start2 == 30
    assert block2.shape == (6, 20)


def test_capture_buffer_matches_the_stream_through_growth_and_moves():
    rng = np.random.default_rng(5)
    frames = rng.integers(1, 3 * SAMPLE_RATE, size=25)
    stream = rng.normal(size=(6, frames.sum()))
    buffer = CaptureBuffer()
    pos = 0
    for n in frames:
        buffer.feed(pos, stream[:3, pos : pos + n], stream[3:, pos : pos + n])
        pos += n
        # hold back up to 8 s, as an open event does
        buffer.trim(pos - int(rng.integers(0, 8 * SAMPLE_RATE)))
        lo = int(rng.integers(0, pos))
        start, block = buffer.extract(lo, pos + 5)
        assert start == max(lo, buffer.first_sample)
        assert np.array_equal(block, stream[:, start:pos])


def test_capture_buffer_refuses_a_feed_off_its_next_sample():
    buffer = CaptureBuffer()
    chunk = np.ones((3, 10))
    buffer.feed(0, chunk, chunk)
    for start in (0, 9, 11):
        with pytest.raises(ValueError, match=f"capture feed at sample {start}, expected 10"):
            buffer.feed(start, chunk, chunk)
    assert buffer.next_sample == 10


@pytest.mark.parametrize("shape", [(5, 10), (7, 10), (60,), (6, 10, 1)])
def test_raw_capture_refuses_an_array_that_is_not_six_channels(shape):
    with pytest.raises(ValueError, match=r"shape \(6, n\)"):
        encode_raw_capture(1, 0, np.zeros(shape))


def test_capture_buffer_trim_never_moves_back_or_past_the_newest_sample():
    buffer = CaptureBuffer()
    chunk = np.ones((3, 10))
    buffer.feed(0, chunk, chunk)
    buffer.trim(8)
    buffer.trim(3)
    assert buffer.first_sample == 8
    buffer.trim(50)
    assert buffer.first_sample == buffer.next_sample == 10
    start, block = buffer.extract(0, 50)
    assert (start, block.shape) == (10, (6, 0))


@pytest.mark.parametrize("order", ["strided", "fortran"])
def test_raw_capture_of_a_view_equals_that_of_its_copy(order):
    rng = np.random.default_rng(11)
    n = SAMPLE_RATE + 123
    if order == "strided":
        samples = rng.normal(size=(12, 2 * n))[::2, ::2]
    else:
        samples = np.asfortranarray(rng.normal(size=(6, n)))
    assert not samples.flags.c_contiguous
    assert encode_raw_capture(4, 640, samples) == encode_raw_capture(
        4, 640, np.ascontiguousarray(samples)
    )


# pieces around zlib's 5552-byte and 65521-byte (the modulus) boundaries
_adler_pieces = st.binary(max_size=70_000) | st.integers(0, 3).flatmap(
    lambda k: st.builds(
        bytes.__mul__,
        st.binary(min_size=1, max_size=4),
        st.sampled_from([5552, 65521 // 2, 65521, 65521 * 2 + 7]).map(lambda n: n + k),
    )
)


@given(_adler_pieces, _adler_pieces)
@settings(max_examples=200, deadline=None)
def test_adler32_combine_equals_the_adler32_of_the_joined_bytes(a, b):
    assert adler32_combine(zlib.adler32(a), zlib.adler32(b), len(b)) == zlib.adler32(a + b)


def test_adler32_combine_of_empty_pieces():
    for a in (b"", b"x", bytes(65521), b"\xff" * 70_000):
        assert adler32_combine(zlib.adler32(a), zlib.adler32(b""), 0) == zlib.adler32(a)
        assert adler32_combine(zlib.adler32(b""), zlib.adler32(a), len(a)) == zlib.adler32(a)


@pytest.mark.parametrize(
    "n", [0, 1, SAMPLE_RATE - 1, SAMPLE_RATE, SAMPLE_RATE + 1, 2 * SAMPLE_RATE + 17]
)
def test_capture_pushed_by_seconds_inflates_to_the_whole_array_encoding(n):
    samples = np.random.default_rng(n).normal(size=(6, n))
    encoder = CaptureEncoder(640)
    for lo in range(0, n, SAMPLE_RATE):
        encoder.push(samples[:, lo : lo + SAMPLE_RATE])
    blob = bytes(encoder.finish(5))
    assert blob[:2] == b"\x78\x01"
    assert zlib.decompress(blob) == zlib.decompress(encode_raw_capture(5, 640, samples))
    header, out = decode_raw_capture(blob)
    assert (header["sample_count"], header["start_time"]) == (n, 640 / SAMPLE_RATE)
    assert out.tobytes() == samples.tobytes()


def test_capture_encoder_refuses_samples_after_a_partial_second():
    encoder = CaptureEncoder(0)
    encoder.push(np.zeros((6, SAMPLE_RATE + 1)))
    with pytest.raises(ValueError, match="partial second"):
        encoder.push(np.zeros((6, 1)))
    assert encoder.count == SAMPLE_RATE + 1


def synchronous_capture(event_id: int, start_sample: int, samples: np.ndarray) -> bytes:
    """The blob as deflating each second on the caller's thread made it."""
    deflate = zlib.compressobj(1, zlib.DEFLATED, -15)
    adler, body = zlib.adler32(b""), b""
    for lo in range(0, samples.shape[1], SAMPLE_RATE):
        block = np.ascontiguousarray(samples[:, lo : lo + SAMPLE_RATE], dtype="<f8")
        planes = block.view(np.uint8).reshape(6, -1, 8).transpose(0, 2, 1).tobytes()
        adler = zlib.adler32(planes, adler)
        body += deflate.compress(planes)
    count = samples.shape[1]
    header = struct.pack(
        "<4sIQIIdQ", b"PQZ1", 2, event_id, 6, SAMPLE_RATE, start_sample / SAMPLE_RATE, count
    )
    stored = struct.pack("<BHH", 0, len(header), 0xFFFF ^ len(header))
    check = adler32_combine(zlib.adler32(header), adler, 48 * count)
    return b"\x78\x01" + stored + header + body + deflate.flush() + struct.pack(">I", check)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_interleaved_threaded_captures_equal_the_synchronous_deflate(data):
    # each capture's push sizes in samples: whole seconds, then a last,
    # possibly partial push; capture -1 is dropped unfinished, like a sag an
    # interruption absorbs
    whole = st.integers(0, 2).map(lambda n: n * SAMPLE_RATE)
    plans = {
        k: data.draw(st.lists(whole, max_size=3)) + [data.draw(st.integers(0, 4000))]
        for k in range(data.draw(st.integers(1, 3)))
    }
    plans[-1] = data.draw(st.lists(whole, min_size=1, max_size=3))
    order = data.draw(st.permutations([k for k, plan in plans.items() for _ in plan]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    streams = {k: np.round(rng.normal(size=(6, sum(plan))), 3) for k, plan in plans.items()}
    encoders = {k: CaptureEncoder(100 * k + 100) for k in plans}
    pushes = dict.fromkeys(plans, 0)
    reused = np.empty((6, 2 * SAMPLE_RATE + 4000))  # every push's array, as a capture buffer's
    blobs = {}
    for k in order:
        lo = sum(plans[k][: pushes[k]])
        m = plans[k][pushes[k]]
        reused[:, :m] = streams[k][:, lo : lo + m]
        encoders[k].push(reused[:, :m])
        reused.fill(np.nan)
        pushes[k] += 1
        if k >= 0 and pushes[k] == len(plans[k]):
            blobs[k] = bytes(encoders[k].finish(k + 1))
    del encoders[-1], streams[-1]
    for k, samples in streams.items():
        assert blobs[k] == synchronous_capture(k + 1, 100 * k + 100, samples)
        assert decode_raw_capture(blobs[k])[1].tobytes() == samples.tobytes()


def test_captures_encoded_on_many_threads_at_once_equal_the_synchronous_deflate():
    # more caller threads than cores, switching as often as the interpreter
    # allows, all sharing the one capture worker
    rng = np.random.default_rng(8)
    streams = [np.round(rng.normal(size=(6, k * SAMPLE_RATE + 77)), 2) for k in range(1, 7)]
    blobs: dict[int, bytes] = {}

    def encode(k: int) -> None:
        encoder = CaptureEncoder(k)
        for lo in range(0, streams[k].shape[1], SAMPLE_RATE):
            encoder.push(streams[k][:, lo : lo + SAMPLE_RATE])
        blobs[k] = bytes(encoder.finish(k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(k,)) for k in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, samples in enumerate(streams):
        assert blobs[k] == synchronous_capture(k, k, samples)

def test_capture_encoder_holds_a_bounded_number_of_seconds(monkeypatch):
    # a worker slower than the pushes: without the cap every pushed second
    # would wait in memory for it
    compress = CaptureEncoder._compress

    def slow(self, block):
        time.sleep(0.002)
        return compress(self, block)

    monkeypatch.setattr(CaptureEncoder, "_compress", slow)
    second = np.broadcast_to(np.arange(6.0)[:, None], (6, SAMPLE_RATE))  # holds 6 floats

    def held(seconds: int) -> int:
        """Peak traced bytes while pushing and finishing, less the blob's."""
        tracemalloc.start()
        try:
            encoder = CaptureEncoder(0)
            for _ in range(seconds):
                encoder.push(second)
            blob = encoder.finish(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decode_raw_capture(bytes(blob))[0]["sample_count"] == seconds * SAMPLE_RATE
        return peak - len(blob)

    held(1)  # the worker thread, and its imports, are made before this count
    short, long = held(30), held(300)
    assert long - short < SECONDS_IN_FLIGHT * second.size * 8, (short, long)


@pytest.mark.parametrize("seconds", [1, SECONDS_IN_FLIGHT + 3])
def test_an_error_in_the_capture_worker_is_raised_by_push_or_finish(monkeypatch, seconds):
    def failing(self, block):
        raise RuntimeError("deflate failed")

    monkeypatch.setattr(CaptureEncoder, "_compress", failing)
    encoder = CaptureEncoder(0)
    with pytest.raises(RuntimeError, match="deflate failed"):
        for _ in range(seconds):
            encoder.push(np.zeros((6, SAMPLE_RATE)))
        encoder.finish(1)


def _read_child(fd: int, pid: int, timeout: float) -> bytes:
    """All a forked child writes to ``fd`` before it exits; the child is
    killed if it takes longer than ``timeout`` seconds."""
    deadline, parts = time.monotonic() + timeout, []
    with os.fdopen(fd, "rb", buffering=0) as pipe:
        while select.select([pipe], [], [], max(deadline - time.monotonic(), 0))[0]:
            part = pipe.read(1 << 16)
            if not part:
                break
            parts.append(part)
        else:
            os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, "the child hung or failed"
    return b"".join(parts)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing on this platform")
def test_a_child_forked_after_a_capture_encodes_the_same_bytes():
    samples = np.random.default_rng(3).normal(size=(6, 3 * SAMPLE_RATE + 7))
    blob = encode_raw_capture(9, 640, samples)  # the worker thread now runs
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns when a process that runs threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(encode_raw_capture(9, 640, samples))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    assert _read_child(read_fd, pid, timeout=20) == blob


# -- end-to-end detection through the pipeline --------------------------------


def capture_run(script_text, duration, frame_length):
    """Capture blob of each event of a scripted stream cut into frames of
    ``frame_length`` samples, and the detector's capture buffer at stream end."""
    blobs = {}

    def sink(event_type, event_id, blob):
        blobs[event_id] = blob
        return f"raw_{event_id}.pqz"

    detector = make_detector(raw_sink=sink)
    pipeline = StreamPipeline(unit_pipeline_config(), detector=detector)
    for frame in generate_stream(unit_config(duration), parse_script(script_text), frame_length):
        pipeline.process_frame(frame)
    capture = detector.capture
    pipeline.finish()
    return blobs, capture


def test_capture_blobs_do_not_depend_on_the_frame_length():
    # a 1000-sample frame straddles RMS windows: the capture must still reach
    # back a full pre-trigger before each event, as with 640-sample frames
    script = "sag 1.0 2.4 A 0.6\nswell 3.0 3.6 B 1.2\nsag 3.4 5.0 C 0.7\n"
    reference, _ = capture_run(script, 8.0, 640)
    header, _ = decode_raw_capture(reference[1])
    assert (header["start_time"], header["sample_count"]) == (0.8, 5760)
    for frame_length in (1000, 3200, 9600):
        blobs, _ = capture_run(script, 8.0, frame_length)
        assert blobs == reference, frame_length


def test_capture_buffer_falls_back_after_a_long_sag():
    frame_length = 1000
    blobs, capture = capture_run("sag 1.0 121.0 A 0.5\n", 124.0, frame_length)
    header, _ = decode_raw_capture(blobs[1])
    assert header["sample_count"] == round(120.4 * SAMPLE_RATE)
    assert capture.next_sample - capture.first_sample <= PRE_TRIGGER_SAMPLES + frame_length


def held_capture_spans(script_text, duration, raw_sink):
    """Per frame, the detector's (retained samples, capture array bytes)."""
    detector = make_detector(raw_sink=raw_sink)
    pipeline = StreamPipeline(unit_pipeline_config(), detector=detector)
    spans = []
    for frame in generate_stream(unit_config(duration), parse_script(script_text)):
        pipeline.process_frame(frame)
        capture = detector.capture
        spans.append((capture.next_sample - capture.first_sample, capture._data.nbytes))
    pipeline.finish()
    return detector.records, spans


def test_open_event_capture_array_stays_bounded():
    # a 100 s sag once grew the array to 19.7 MB, and kept it to the end
    blobs = {}

    def sink(event_type, event_id, blob):
        blobs[event_id] = blob
        return f"raw_{event_id}.pqz"

    records, spans = held_capture_spans("sag 10.0 110.0 A 0.5\n", 400.0, sink)
    assert [r.event_type for r in records] == ["sag"]
    assert max(nbytes for _, nbytes in spans) < 1 << 20
    # the second a capture has yet to compress, plus one block
    assert max(held for held, _ in spans) < SAMPLE_RATE + HARMONIC_WINDOW
    header, _ = decode_raw_capture(blobs[1])
    assert (header["start_time"], header["sample_count"]) == (9.8, round(100.4 * SAMPLE_RATE))


def test_open_event_without_a_sink_holds_no_samples():
    records, spans = held_capture_spans("sag 10.0 110.0 A 0.5\n", 120.0, None)
    assert [(r.start_time, r.end_time) for r in records] == [(10.0, 110.0)]
    assert max(held for held, _ in spans) <= PRE_TRIGGER_SAMPLES + HARMONIC_WINDOW


# RMS triples that open every kind of event, and let them overlap: a sag
# beside a swell, an interruption that absorbs an open sag, unbalance
_LEVELS = [
    (1.0, 1.0, 1.0),
    (0.5, 1.0, 1.0),
    (1.0, 1.0, 1.2),
    (0.5, 1.0, 1.2),
    (0.0, 0.0, 0.0),
    (1.0, 1.0, 0.95),
]


def test_streamed_captures_equal_the_stream_slices_of_random_event_sequences():
    rng = np.random.default_rng(20)
    max_windows = 20
    # every sample tells its channel and index apart
    stream = np.arange(6)[:, None] * 1e6 + np.arange(max_windows * RMS_WINDOW + RMS_WINDOW)
    kinds, absorbed, longest = set(), 0, 0
    for _ in range(3000):
        length = int(rng.integers(1, max_windows + 1))
        levels = []
        while len(levels) < length:
            levels += [_LEVELS[rng.integers(len(_LEVELS))]] * int(rng.integers(1, 9))
        levels = levels[:length]
        total = len(levels) * RMS_WINDOW + int(rng.integers(0, RMS_WINDOW))
        blobs = {}

        def sink(event_type, event_id, blob):
            blobs[event_id] = (blob, detector.capture.next_sample)
            return "x.pqz"

        detector = make_detector(raw_sink=sink)
        fed = 0
        for k, triple in enumerate(levels):
            while fed < (k + 1) * RMS_WINDOW:  # fed ahead by up to 15 windows
                n = min(int(rng.integers(1, 16)) * RMS_WINDOW, len(levels) * RMS_WINDOW - fed)
                detector.feed_samples(fed, stream[:3, fed : fed + n], stream[3:, fed : fed + n])
                fed += n
            absorbed += detector._active["sag"] is not None and max(triple) == 0.0
            detector.update((k + 1) * RMS_WINDOW / SAMPLE_RATE, triple)
        detector.feed_samples(fed, stream[:3, fed:total], stream[3:, fed:total])
        detector.close(total / SAMPLE_RATE)

        assert sorted(blobs) == [r.event_id for r in detector.records]
        for record in detector.records:
            kinds.add(record.event_type)
            blob, fed_at_exit = blobs[record.event_id]
            start = round(record.start_time * SAMPLE_RATE)
            end = round(record.end_time * SAMPLE_RATE)
            lo = max(start - PRE_TRIGGER_SAMPLES, 0)
            hi = min(end + POST_TRIGGER_SAMPLES, fed_at_exit)
            header, samples = decode_raw_capture(blob)
            assert header["start_time"] == lo / SAMPLE_RATE
            assert samples.tobytes() == stream[:, lo:hi].tobytes()
            longest = max(longest, hi - lo)
    assert kinds == set(EVENT_TYPES)
    assert absorbed > 100 and longest > 3 * SAMPLE_RATE


def test_closed_detector_holds_no_samples():
    detector = make_detector(raw_sink=lambda event_type, event_id, blob: "x.pqz")
    run_pipeline(
        generate_stream(unit_config(3.0), parse_script("sag 1.0 3.0 A 0.5\n")),
        unit_pipeline_config(),
        detector=detector,
    )
    assert len(detector.records) == 1
    assert detector.capture.next_sample - detector.capture.first_sample == 0


def test_scripted_sag_exact_extent():
    events = run_script("sag 2.0 3.0 A 0.8\n", 6.0)
    assert len(events) == 1
    event = events[0]
    assert event.event_type == "sag"
    assert event.start_time == pytest.approx(2.0)
    assert event.end_time == pytest.approx(3.0)
    assert event.size_in_samples == 3200


def test_event_times_are_sample_indices_over_the_sample_rate():
    # edges at 2.2 s, 11.6 s and 10.6 s read 2.1999999999999997,
    # 11.600000000000001 and 10.600000000000001 when rebuilt from float seconds
    script = (
        "sag 2.2 3.4 A 0.6\nswell 5.0 6.2 B 1.2\ninterruption 7.4 10.6 ABC 0\n"
        "unbalance 11.6 13.0 C 0.95\nsag 14.2 15.0 AB 0.5\n"
    )
    events = run_script(script, 15.6)
    assert [e.event_type for e in events] == [
        "sag", "swell", "interruption", "unbalance", "sag"
    ]
    for event in events:
        start, end = (round(t * SAMPLE_RATE) for t in (event.start_time, event.end_time))
        assert (event.start_time, event.end_time) == (start / SAMPLE_RATE, end / SAMPLE_RATE)
        assert event.size_in_samples == end - start
    assert [(e.start_time, e.end_time) for e in events] == [
        (2.2, 3.4), (5.0, 6.2), (7.4, 10.6), (11.6, 13.0), (14.2, 15.0)
    ]
    # driven directly, with timestamps summed in float steps of 0.2 s
    detector = make_detector()
    drive(detector, [NOMINAL] * 10 + [0.5] * 48 + [NOMINAL] * 2)
    detector.close()
    [sag] = detector.records
    assert (sag.start_time, sag.end_time, sag.size_in_samples) == (2.0, 11.6, 30720)


def test_scripted_interruption_exact_extent():
    events = run_script("interruption 2.0 4.0 ABC 0.0\n", 8.0)
    assert len(events) == 1
    assert events[0].event_type == "interruption"
    assert events[0].size_in_samples == 2 * 3200


def test_capture_blob_spans_pre_and_post_trigger():
    captured = {}

    def sink(event_type, event_id, blob):
        captured[event_id] = (event_type, blob)
        return f"/tmp/raw_{event_id}.pqz"

    events = run_script("sag 2.0 2.6 B 0.7\n", 6.0, raw_sink=sink)
    assert len(events) == 1
    event = events[0]
    assert event.file_path == f"/tmp/raw_{event.event_id}.pqz"
    header, block = decode_raw_capture(captured[event.event_id][1])
    # 0.2 s on either side of the 0.6 s event
    assert header["sample_count"] == 3200
    assert block.shape == (6, 3200)
    assert header["start_time"] == pytest.approx(1.8)
    # pre-trigger contains healthy rms, the core contains the sag
    pre = math.sqrt(float(np.mean(block[1, :640] ** 2)))
    core = math.sqrt(float(np.mean(block[1, 640:1280] ** 2)))
    assert pre == pytest.approx(NOMINAL, rel=1e-6)
    assert core == pytest.approx(0.7 * NOMINAL, rel=1e-3)


def test_capture_clamped_at_stream_start():
    captured = {}

    def sink(event_type, event_id, blob):
        captured[event_id] = blob
        return "x.pqz"

    events = run_script("sag 0.0 0.6 A 0.5\n", 2.0, raw_sink=sink)
    assert len(events) == 1
    header, _block = decode_raw_capture(captured[events[0].event_id])
    # nothing exists before t=0, so the pre-trigger clamps away
    assert header["start_time"] == pytest.approx(0.0)
    assert header["sample_count"] == int(0.8 * SAMPLE_RATE)


def test_raw_sink_failure_recorded_not_raised():
    def sink(event_type, event_id, blob):
        raise OSError("disk full")

    events = run_script("sag 2.0 2.4 A 0.7\n", 4.0, raw_sink=sink)
    assert len(events) == 1
    assert events[0].file_path is None
    assert events[0].raw_write_error


def test_event_ids_are_sequential_per_detector():
    events = run_script("sag 1.0 1.4 A 0.8\nswell 2.0 2.4 B 1.2\nsag 3.0 3.4 C 0.8\n", 5.0)
    assert [e.event_id for e in events] == [1, 2, 3]
    types = [e.event_type for e in events]
    assert types == ["sag", "swell", "sag"]
