"""Event state machines, raw capture extraction, and the .pqz container."""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqstream.events import (
    HYSTERESIS,
    INTERRUPTION_THRESHOLD,
    SAG_THRESHOLD,
    SWELL_THRESHOLD,
    UNBALANCE_HYSTERESIS,
    UNBALANCE_THRESHOLD,
    CaptureBuffer,
    EventDetector,
    EventThresholds,
    RawCaptureError,
    compute_unbalance,
    decode_raw_capture,
    encode_raw_capture,
)
from pqstream.analyzer import run_pipeline
from pqstream.siggen import SAMPLE_RATE, generate_stream, parse_script

from conftest import unit_config, unit_pipeline_config

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


# -- end-to-end detection through the pipeline --------------------------------


def test_scripted_sag_exact_extent():
    events = run_script("sag 2.0 3.0 A 0.8\n", 6.0)
    assert len(events) == 1
    event = events[0]
    assert event.event_type == "sag"
    assert event.start_time == pytest.approx(2.0)
    assert event.end_time == pytest.approx(3.0)
    assert event.size_in_samples == 3200


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
