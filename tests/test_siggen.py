"""Waveform synthesis: sample math, script grammar, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqstream.siggen import (
    DEFAULT_FRAME_LENGTH,
    PHASE_ANGLES_DEG,
    SAMPLE_RATE,
    DisturbanceScript,
    DisturbanceSpec,
    ScriptError,
    SignalConfig,
    WaveformFrame,
    generate_stream,
    parse_script,
    serialize_script,
)

from conftest import gather, unit_config


def test_clean_stream_matches_closed_form():
    config = SignalConfig(duration=1.0, nominal_voltage_rms=230.0, nominal_current_rms=5.0)
    voltage, current = gather(config)
    assert voltage.shape == (3, 3200)
    t = np.arange(3200) / SAMPLE_RATE
    for p, angle in enumerate(PHASE_ANGLES_DEG):
        expected = 230.0 * math.sqrt(2) * np.sin(
            2 * np.pi * 50.0 * t + math.radians(angle)
        )
        assert np.allclose(voltage[p], expected, atol=1e-9)
        # current is the scaled copy at zero lag
        assert np.allclose(current[p], expected * (5.0 / 230.0), atol=1e-9)


def test_sample_count_is_rounded_duration():
    config = unit_config(0.5004)
    voltage, _ = gather(config)
    assert voltage.shape[1] == round(0.5004 * SAMPLE_RATE)


def test_frames_are_contiguous_and_partial_at_end():
    config = unit_config(0.25)  # 800 samples: 640 + 160
    frames = list(generate_stream(config))
    assert [f.start_sample_index for f in frames] == [0, 640]
    assert [f.frame_length for f in frames] == [640, 160]
    assert frames[0].frame_length == DEFAULT_FRAME_LENGTH


def test_sag_interval_rms_oracle():
    # Independent summation oracle: RMS over the scripted interval only.
    script = parse_script("sag 0.2 0.5 A 0.8\n")
    config = unit_config(1.0)
    voltage, _ = gather(config, script)
    segment = voltage[0, 640:1600]  # exactly [0.2 s, 0.5 s)
    measured = math.sqrt(sum(x * x for x in segment.tolist()) / len(segment))
    assert measured == pytest.approx(0.8, rel=1e-3)
    untouched = voltage[1, 640:1600]
    assert math.sqrt(np.mean(untouched**2)) == pytest.approx(1.0, rel=1e-3)


def test_swell_and_interruption_envelopes():
    script = parse_script("swell 0.0 0.5 B 1.2\ninterruption 0.5 1.0 ABC 0.0\n")
    voltage, _ = gather(unit_config(1.0), script)
    assert math.sqrt(np.mean(voltage[1, :1600] ** 2)) == pytest.approx(1.2, rel=1e-9)
    assert np.all(voltage[:, 1600:] == 0.0)


def test_harmonic_injection_dft_ratio_oracle():
    # Full-DFT oracle: bin magnitude at 150 Hz over bin at 50 Hz.
    script = parse_script("harmonic 0 3 ABC 0.1 3\n")
    voltage, _ = gather(unit_config(3.0), script)
    spectrum = np.abs(np.fft.rfft(voltage[0]))
    assert spectrum[450] / spectrum[150] == pytest.approx(0.1, abs=1e-6)


def test_flicker_modulation_envelope():
    script = parse_script("flicker_modulation 0 1 A 0.1 5\n")
    voltage, _ = gather(unit_config(1.0), script)
    t = np.arange(3200) / SAMPLE_RATE
    carrier = math.sqrt(2) * np.sin(2 * np.pi * 50.0 * t)
    envelope = 1.0 + 0.1 * np.sin(2 * np.pi * 5.0 * t)
    assert np.allclose(voltage[0], envelope * carrier, atol=1e-12)


def test_frequency_drift_is_phase_continuous():
    script = parse_script("frequency_drift 0.5 1.5 ABC 5\n")
    voltage, _ = gather(unit_config(2.0), script)
    # A phase jump would show as a sample-to-sample step larger than the
    # steepest slope of the final 55 Hz sinusoid allows.
    max_step = np.max(np.abs(np.diff(voltage[0])))
    assert max_step < math.sqrt(2) * 2 * np.pi * 55.0 / SAMPLE_RATE * 1.05


def test_current_lag_shifts_current_only():
    config = unit_config(1.0, current_lag_deg=90.0)
    voltage, current = gather(config)
    t = np.arange(3200) / SAMPLE_RATE
    expected = math.sqrt(2) * np.sin(2 * np.pi * 50.0 * t - np.pi / 2)
    assert np.allclose(current[0], expected, atol=1e-9)
    assert np.allclose(voltage[0], math.sqrt(2) * np.sin(2 * np.pi * 50.0 * t), atol=1e-9)


def test_generation_is_deterministic_with_jitter():
    config = unit_config(0.6, jitter_pu=0.01, seed=42)
    v1, c1 = gather(config)
    v2, c2 = gather(config)
    assert np.array_equal(v1, v2)
    assert np.array_equal(c1, c2)
    v3, _ = gather(unit_config(0.6, jitter_pu=0.01, seed=43))
    assert not np.array_equal(v1, v3)


def test_jittered_stream_does_not_depend_on_frame_length():
    config = unit_config(0.6, jitter_pu=0.01, seed=42)
    streams = []
    for frame_length in (640, 1000, 9600):
        frames = list(generate_stream(config, frame_length=frame_length))
        streams.append(np.hstack([np.vstack((f.voltage_samples, f.current_samples)) for f in frames]))
    assert np.array_equal(streams[0], streams[1])
    assert np.array_equal(streams[0], streams[2])


def test_unbalance_kind_scales_selected_phase():
    script = parse_script("unbalance 0 1 C 0.9\n")
    voltage, _ = gather(unit_config(1.0), script)
    assert math.sqrt(np.mean(voltage[2] ** 2)) == pytest.approx(0.9, rel=1e-3)
    assert math.sqrt(np.mean(voltage[0] ** 2)) == pytest.approx(1.0, rel=1e-3)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_rms_scales_linearly_with_amplitude(scale):
    base = np.sin(2 * np.pi * 50.0 * np.arange(640) / SAMPLE_RATE)
    r1 = math.sqrt(np.mean(base**2))
    r2 = math.sqrt(np.mean((scale * base) ** 2))
    assert r2 == pytest.approx(scale * r1, rel=1e-9)


# -- script grammar ----------------------------------------------------------


def test_parse_empty_and_comments():
    assert parse_script("").specs == ()
    assert parse_script("# nothing here\n\n   \n").specs == ()


def test_parse_single_line_with_comment():
    script = parse_script("sag 1.0 2.0 AB 0.7  # one-phase dip\n")
    (spec,) = script.specs
    assert spec.kind == "sag"
    assert spec.phases == ("A", "B")
    assert spec.magnitude == 0.7
    assert spec.source_line == 1


def test_parse_reports_line_numbers():
    with pytest.raises(ScriptError, match="line 2"):
        parse_script("sag 1 2 A 0.8\nswell 3 2 B 1.2\n")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ScriptError, match="unknown disturbance kind"):
        parse_script("dip 0 1 A 0.5\n")


def test_parse_rejects_bad_phase():
    with pytest.raises(ScriptError, match="unknown phase"):
        parse_script("sag 0 1 D 0.5\n")


def test_parse_rejects_harmonic_order_out_of_range():
    with pytest.raises(ScriptError, match="order"):
        parse_script("harmonic 0 1 A 0.1 34\n")
    with pytest.raises(ScriptError, match="order"):
        parse_script("harmonic 0 1 A 0.1 1\n")


def test_parse_rejects_missing_extra_field():
    with pytest.raises(ScriptError, match="harmonic"):
        parse_script("harmonic 0 1 A 0.1\n")
    with pytest.raises(ScriptError, match="modulation"):
        parse_script("flicker_modulation 0 1 A 0.1\n")


def test_overlap_same_kind_same_phase_names_both_lines():
    text = "sag 0 2 A 0.8\n# spacer\nsag 1 3 AB 0.7\n"
    with pytest.raises(ScriptError) as err:
        parse_script(text)
    message = str(err.value)
    assert "line 1" in message and "line 3" in message and "phase A" in message


def test_overlap_allowed_on_disjoint_phases_or_kinds():
    parse_script("sag 0 2 A 0.8\nsag 1 3 B 0.7\n")
    parse_script("sag 0 2 A 0.8\nswell 1 3 A 1.2\n")


def test_overlap_allowed_for_composable_kinds():
    # harmonics add and flicker envelopes multiply, so stacking them on one
    # phase over the same interval is well defined
    parse_script("harmonic 0 3 A 0.03 5\nharmonic 0 3 A 0.04 7\n")
    parse_script("flicker_modulation 0 10 A 0.02 8.8\nflicker_modulation 5 15 A 0.01 4.0\n")


def test_script_duration_bound_checked_at_generation():
    script = parse_script("sag 0.5 2.0 A 0.8\n")
    config = unit_config(1.0)
    with pytest.raises(ScriptError, match="duration"):
        list(generate_stream(config, script))


def test_serialize_round_trip():
    text = (
        "sag 0.25 1.5 AB 0.80000000000000004\n"
        "harmonic 0 3 ABC 0.1 7\n"
        "flicker_modulation 2 4 C 0.02 8.8\n"
    )
    script = parse_script(text)
    again = parse_script(serialize_script(script))
    assert [
        (s.kind, s.start_time, s.end_time, s.phases, s.magnitude, s.harmonic_order, s.modulation_frequency)
        for s in again.specs
    ] == [
        (s.kind, s.start_time, s.end_time, s.phases, s.magnitude, s.harmonic_order, s.modulation_frequency)
        for s in script.specs
    ]


def test_spec_validation_direct_construction():
    with pytest.raises(ScriptError):
        DisturbanceSpec(kind="sag", start_time=1.0, end_time=1.0, phases=("A",), magnitude=0.5)
    with pytest.raises(ScriptError):
        DisturbanceSpec(kind="sag", start_time=0.0, end_time=1.0, phases=("A",), magnitude=-0.1)
    with pytest.raises(ScriptError):
        DisturbanceSpec(
            kind="frequency_drift", start_time=0.0, end_time=1.0, phases=("A",), magnitude=1.0
        )


@pytest.mark.parametrize("text, match", [
    ("sag x 1 A 0.5\n", "line 1: bad start time 'x'"),
    ("sag 0 1 A half\n", "line 1: bad magnitude 'half'"),
    ("harmonic 0 1 A 0.1 five\n", "line 1: bad harmonic order 'five'"),
    ("\nsag 0 1 A 0.5 7\n", "line 2: sag takes exactly five fields"),
])
def test_parse_rejects_bad_fields(text, match):
    with pytest.raises(ScriptError, match=match):
        parse_script(text)


@pytest.mark.parametrize("kind, phases, times, extra, match", [
    ("dip", ("A",), (0.0, 1.0), {}, "unknown disturbance kind 'dip'"),
    ("sag", (), (0.0, 1.0), {}, "no phases given"),
    ("sag", ("D",), (0.0, 1.0), {}, "unknown phase 'D'"),
    ("sag", ("A", "A"), (0.0, 1.0), {}, "duplicate phase in 'AA'"),
    ("sag", ("A",), (2.0, 1.0), {}, "must be before end time"),
    ("sag", ("A",), (-1.0, 1.0), {}, "start time must be >= 0"),
    ("harmonic", ("A",), (0.0, 1.0), {}, "harmonic needs an order"),
    ("harmonic", ("A",), (0.0, 1.0), {"harmonic_order": 40}, r"outside \[2, 33\]"),
    ("sag", ("A",), (0.0, 1.0), {"harmonic_order": 5}, "sag takes no harmonic order"),
    ("flicker_modulation", ("A",), (0.0, 1.0), {}, "needs a modulation frequency"),
    ("flicker_modulation", ("A",), (0.0, 1.0), {"modulation_frequency": 0.0},
     "modulation frequency must be positive"),
    ("swell", ("A",), (0.0, 1.0), {"modulation_frequency": 8.8},
     "swell takes no modulation frequency"),
    ("frequency_drift", ("A", "B"), (0.0, 1.0), {}, "frequency_drift applies to all phases"),
])
def test_spec_refusals_when_built_directly(kind, phases, times, extra, match):
    with pytest.raises(ScriptError, match=match):
        DisturbanceSpec(kind, *times, phases, 0.5, **extra)


def test_frame_refuses_samples_that_are_not_three_channels_alike():
    with pytest.raises(ValueError, match="shapes differ"):
        WaveformFrame(0, np.zeros((3, 10)), np.zeros((3, 9)))
    with pytest.raises(ValueError, match=r"shape \(3, n\)"):
        WaveformFrame(0, np.zeros((2, 10)), np.zeros((2, 10)))
    with pytest.raises(ValueError, match=r"shape \(3, n\)"):
        WaveformFrame(0, np.zeros(30), np.zeros(30))


def test_generate_stream_refuses_a_frame_length_of_zero():
    with pytest.raises(ValueError, match="frame_length must be positive"):
        next(generate_stream(unit_config(1.0), frame_length=0))


def test_config_validation():
    with pytest.raises(ValueError):
        SignalConfig(duration=0.0)
    with pytest.raises(ValueError):
        SignalConfig(nominal_voltage_rms=-1.0)
    with pytest.raises(ValueError, match="nominal_frequency must be positive"):
        SignalConfig(nominal_frequency=0.0)
    with pytest.raises(ValueError, match="jitter_pu must be >= 0"):
        SignalConfig(jitter_pu=-0.01)
