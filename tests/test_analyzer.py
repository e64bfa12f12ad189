"""Analyzer math and the windowed pipeline, checked against independent oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqstream.analyzer import (
    BLOCK_CELLS,
    FREQUENCY_BAND,
    HARMONIC_ORDERS,
    HARMONIC_WINDOW,
    PARAMETERS,
    PLT_PST_COUNT,
    POWER_WINDOW,
    RMS_WINDOW,
    THD_FLOOR_FACTOR,
    PipelineConfig,
    PipelineResult,
    RecordSeries,
    RmsRecord,
    StreamGapError,
    StreamPipeline,
    _project,
    compute_demand,
    compute_harmonics,
    compute_plt,
    compute_power,
    compute_pst,
    compute_rms,
    compute_thd,
    estimate_frequency,
    half_cycle_rms,
    harmonic_magnitudes,
    rms,
    run_pipeline,
)
from pqstream.events import EventDetector, EventThresholds
from pqstream.siggen import SAMPLE_RATE, SignalConfig, WaveformFrame, generate_stream, parse_script

from conftest import gather, unit_config, unit_pipeline_config

# Frozen on the estimator's first run: flicker_modulation depth 0.02 at
# 8.8 Hz on phase A over one full 10 minute window (see test_pst_golden).
PST_GOLDEN_DEPTH_002_88HZ = 0.019824323123315866


def sine_window(n: int, freq: float = 50.0, amplitude: float = 1.0, phase: float = 0.0):
    t = np.arange(n) / SAMPLE_RATE
    wave = amplitude * np.sin(2 * np.pi * freq * t + phase)
    return np.vstack([wave, wave, wave])


# -- RMS ----------------------------------------------------------------------


def test_rms_of_unit_sine_is_inverse_sqrt2():
    window = sine_window(RMS_WINDOW)
    record = compute_rms(np.vstack((window, window)), timestamp=0.2)
    for value in record.v_rms:
        assert value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)


def test_rms_of_zero_window_is_zero():
    window = np.zeros((3, RMS_WINDOW))
    record = compute_rms(np.vstack((window, window)), timestamp=0.2)
    assert record.v_rms == (0.0, 0.0, 0.0)


def test_rms_offgrid_frequency_matches_summation_oracle():
    window = sine_window(RMS_WINDOW, freq=49.5)
    record = compute_rms(np.vstack((window, window)), timestamp=0.2)
    oracle = math.sqrt(sum(x * x for x in window[0].tolist()) / RMS_WINDOW)
    assert record.v_rms[0] == pytest.approx(oracle, rel=1e-12)


def test_rms_rejects_wrong_window_length():
    with pytest.raises(ValueError):
        compute_rms(np.zeros((6, 100)), 0.2)


# -- THD and harmonics --------------------------------------------------------


def test_thd_pure_fundamental_is_zero():
    assert compute_thd([1.0] + [0.0] * 32) == 0.0


def test_thd_equal_single_harmonic_is_hundred():
    assert compute_thd([1.0, 1.0] + [0.0] * 31) == pytest.approx(100.0, rel=1e-12)


def test_thd_mixed_magnitudes():
    mags = [2.0, 0.2, 0.2] + [0.0] * 30
    expected = 100.0 * math.sqrt(0.2**2 + 0.2**2) / 2.0
    assert compute_thd(mags) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(14.142, abs=1e-3)


def test_thd_undefined_below_floor():
    assert compute_thd([0.0, 1.0], floor=0.0) is None
    assert compute_thd([1e-12, 1.0], floor=1e-9) is None
    assert compute_thd([1.0, 0.1], floor=1e-9) is not None


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_thd_invariant_under_scaling(scale):
    mags = np.array([1.0, 0.05, 0.03, 0.02] + [0.0] * 29)
    assert compute_thd(mags * scale) == pytest.approx(compute_thd(mags), rel=1e-9)


def test_harmonic_magnitudes_pure_tone():
    window = sine_window(HARMONIC_WINDOW, amplitude=3.0)
    mags = harmonic_magnitudes(window[0], 50.0)
    assert mags[0] == pytest.approx(3.0, rel=1e-9)
    assert np.all(mags[1:] < 1e-9)


def unsplit_projection(x: np.ndarray, fundamental: float, order: int) -> np.ndarray:
    """Reference: one full-length exp(-2j*pi*h*f*k/fs) basis, no sub-blocks."""
    k = np.arange(x.shape[-1])
    return (2.0 / x.shape[-1]) * (x @ np.exp(-2j * np.pi * order * fundamental * k / SAMPLE_RATE))


def six_channel_block(fundamental: float, n: int):
    """Voltages and currents with their own amplitude and phase, plus orders 3, 5 and 7."""
    t = np.arange(n) / SAMPLE_RATE
    amplitudes = np.array([325.0, 320.0, 330.0, 14.1, 12.0, 15.5])
    x = np.empty((6, n))
    for c, amp in enumerate(amplitudes):
        phase = 0.7 * c
        x[c] = amp * (
            np.sin(2 * np.pi * fundamental * t + phase)
            + 0.05 * np.sin(2 * np.pi * 3 * fundamental * t + 2 * phase)
            + 0.03 * np.sin(2 * np.pi * 5 * fundamental * t - phase)
            + 0.02 * np.sin(2 * np.pi * 7 * fundamental * t + 1.0)
        )
    return x, amplitudes


@pytest.mark.parametrize("fundamental", [49.5, 50.5])
def test_projector_matches_unsplit_reference(fundamental):
    x, amplitudes = six_channel_block(fundamental, HARMONIC_WINDOW)
    projected = _project(x, fundamental, HARMONIC_ORDERS)
    assert projected.shape == (6, HARMONIC_ORDERS)
    for h in range(1, HARMONIC_ORDERS + 1):
        reference = unsplit_projection(x, fundamental, h)
        assert np.all(np.abs(projected[:, h - 1] - reference) <= 1e-9 * amplitudes)
    mags = harmonic_magnitudes(x, fundamental)
    for h, level in ((1, 1.0), (3, 0.05), (5, 0.03), (7, 0.02)):
        # off-grid leakage of the other orders stays well below a percent
        assert np.allclose(mags[:, h - 1], level * amplitudes, rtol=1e-2)


@pytest.mark.parametrize("fundamental", [49.5, 50.5])
def test_projector_one_order_power_phasor(fundamental):
    x, _ = six_channel_block(fundamental, POWER_WINDOW)
    phasor = _project(x, fundamental, 1)[:, 0]
    reference = unsplit_projection(x, fundamental, 1)
    assert np.allclose(np.abs(phasor), np.abs(reference), rtol=1e-12, atol=0.0)
    angle_error = np.angle(phasor * np.conj(reference))
    assert np.all(np.abs(angle_error) <= 1e-9)


@pytest.mark.parametrize("n", [0, 639, 1000, HARMONIC_WINDOW + 1])
def test_projector_rejects_length_off_the_rms_grid(n):
    with pytest.raises(ValueError):
        _project(np.ones((6, n)), 50.0, 1)
    with pytest.raises(ValueError):
        harmonic_magnitudes(np.ones(n), 50.0)


def test_harmonics_third_order_ratio_with_fft_oracle():
    script = parse_script("harmonic 0 3 ABC 0.1 3\n")
    voltage, current = gather(unit_config(3.0), script)
    record = compute_harmonics(np.vstack((voltage, current)), 50.0, timestamp=3.0)
    ratio = record.v_harmonics[0][2] / record.v_harmonics[0][0]
    assert ratio == pytest.approx(0.1, abs=1e-9)
    assert record.thd_v[0] == pytest.approx(10.0, abs=1e-3)
    # independent spectrum oracle over the same samples
    spectrum = np.abs(np.fft.rfft(voltage[0]))
    assert ratio == pytest.approx(spectrum[450] / spectrum[150], abs=1e-9)


def test_harmonics_two_component_thd():
    script = parse_script("harmonic 0 3 A 0.03 5\nharmonic 0 3 A 0.04 7\n")
    voltage, current = gather(unit_config(3.0), script)
    record = compute_harmonics(np.vstack((voltage, current)), 50.0, timestamp=3.0)
    assert record.thd_v[0] == pytest.approx(100.0 * math.sqrt(0.03**2 + 0.04**2), abs=1e-3)
    assert record.thd_v[1] == pytest.approx(0.0, abs=1e-6)


def test_harmonics_dead_channel_thd_is_undefined():
    voltage = np.zeros((3, HARMONIC_WINDOW))
    record = compute_harmonics(np.vstack((voltage, voltage)), 50.0, timestamp=3.0, v_floor=1e-9, i_floor=1e-9)
    assert record.thd_v == (None, None, None)
    assert record.thd_i == (None, None, None)


# -- power --------------------------------------------------------------------


def test_power_in_phase_unit_signals():
    v = sine_window(POWER_WINDOW)
    record = compute_power(np.vstack((v, v)), 50.0, timestamp=1.0)
    for p in range(3):
        assert record.active[p] == pytest.approx(0.5, rel=1e-9)
        assert record.apparent[p] == pytest.approx(0.5, rel=1e-9)
        assert abs(record.reactive[p]) < 1e-9
        assert record.power_factor[p] == pytest.approx(1.0, rel=1e-9)


def test_power_quarter_cycle_lag_all_reactive():
    t = np.arange(POWER_WINDOW) / SAMPLE_RATE
    v = np.vstack([np.sin(2 * np.pi * 50 * t)] * 3)
    i = np.vstack([np.sin(2 * np.pi * 50 * t - np.pi / 2)] * 3)
    record = compute_power(np.vstack((v, i)), 50.0, timestamp=1.0)
    for p in range(3):
        assert abs(record.active[p]) < 1e-9
        assert record.reactive[p] == pytest.approx(record.apparent[p], rel=1e-9)
        assert record.reactive[p] > 0  # lagging current, inductive sign
        assert abs(record.power_factor[p]) < 1e-6


def test_power_sixty_degree_lag_power_factor_half():
    phi = math.radians(60.0)
    t = np.arange(POWER_WINDOW) / SAMPLE_RATE
    v = np.vstack([np.sin(2 * np.pi * 50 * t)] * 3)
    i = np.vstack([np.sin(2 * np.pi * 50 * t - phi)] * 3)
    record = compute_power(np.vstack((v, i)), 50.0, timestamp=1.0)
    assert record.power_factor[0] == pytest.approx(0.5, abs=1e-6)
    assert record.reactive[0] > 0


def test_power_leading_current_negative_reactive():
    t = np.arange(POWER_WINDOW) / SAMPLE_RATE
    v = np.vstack([np.sin(2 * np.pi * 50 * t)] * 3)
    i = np.vstack([np.sin(2 * np.pi * 50 * t + np.pi / 3)] * 3)
    record = compute_power(np.vstack((v, i)), 50.0, timestamp=1.0)
    assert record.reactive[0] < 0


def test_power_triangle_identity_and_quadrature_oracle():
    phi = math.radians(37.0)
    t = np.arange(POWER_WINDOW) / SAMPLE_RATE
    v = np.vstack([2.0 * np.sin(2 * np.pi * 50 * t)] * 3)
    i = np.vstack([0.7 * np.sin(2 * np.pi * 50 * t - phi)] * 3)
    record = compute_power(np.vstack((v, i)), 50.0, timestamp=1.0)
    for p in range(3):
        S, P, Q = record.apparent[p], record.active[p], record.reactive[p]
        assert S * S == pytest.approx(P * P + Q * Q, rel=1e-9)
        # quadrature-projection oracle: Q = Vrms * Irms * sin(phi)
        assert Q == pytest.approx((2.0 / math.sqrt(2)) * (0.7 / math.sqrt(2)) * math.sin(phi), rel=1e-6)


def test_power_dead_window_power_factor_zero():
    z = np.zeros((3, POWER_WINDOW))
    record = compute_power(np.vstack((z, z)), 50.0, timestamp=1.0)
    assert record.power_factor == (0.0, 0.0, 0.0)
    assert record.reactive == (0.0, 0.0, 0.0)


def test_power_in_phase_zero_reactive_is_never_negative_zero():
    # In phase, the sign of phi is rounding noise; a zero Q used to print as -0
    # (here at t = 10 s on phase C, among others).
    config = SignalConfig(nominal_frequency=49.5, duration=10.0)
    result = run_pipeline(generate_stream(config), PipelineConfig(nominal_frequency=49.5))
    zeros = [q for rec in result.power for q in rec.reactive if q == 0.0]
    assert zeros
    assert all(math.copysign(1.0, q) > 0 for q in zeros)


def per_phase_power(window: np.ndarray, fundamental: float) -> list[float]:
    """Q and power factor phase by phase in Python floats, the loop the
    vectorized power step replaced, from the same P, S and phasors."""
    P = np.mean(window[:3] * window[3:], axis=-1).tolist()
    levels = rms(window).tolist()
    phasors = _project(window, fundamental, 1)[:, 0]
    magnitude, angle = np.abs(phasors).tolist(), np.angle(phasors).tolist()
    q_out, pf_out = [], []
    for p in range(3):
        S = levels[p] * levels[p + 3]
        sign = 0.0
        if S > 0.0 and magnitude[p] > 0.0 and magnitude[p + 3] > 0.0:
            phi = (angle[p] - angle[p + 3] + math.pi) % (2.0 * math.pi) - math.pi
            sign = math.copysign(1.0, phi) if phi != 0.0 else 0.0
        q_out.append(sign * math.sqrt(max(S * S - P[p] * P[p], 0.0)) + 0.0)
        pf_out.append(min(1.0, max(-1.0, P[p] / S)) if S > 0.0 else 0.0)
    return q_out + pf_out


@given(
    st.lists(st.sampled_from([0.0, -0.0, 1e-300, 1.0, 325.0]), min_size=6, max_size=6),
    st.lists(st.sampled_from([0.0, 1e-17, -1e-17, 0.5, -2.0, math.pi]), min_size=3, max_size=3),
    st.floats(45.0, 55.0),
)
@settings(max_examples=200)
def test_power_q_and_power_factor_equal_the_per_phase_loop_bit_for_bit(amplitudes, lags, f):
    t = np.arange(POWER_WINDOW) / SAMPLE_RATE
    window = np.array([
        amplitudes[c] * np.sin(2 * np.pi * f * t + c - (lags[c - 3] if c >= 3 else 0.0))
        for c in range(6)
    ])
    record = compute_power(window, f, timestamp=1.0)
    got = [x.hex() for x in record.reactive + record.power_factor]
    assert got == [x.hex() for x in per_phase_power(window, f)]


# -- frequency ----------------------------------------------------------------


def test_frequency_of_nominal_sine():
    window = sine_window(POWER_WINDOW)[0]
    record = estimate_frequency(window, previous=50.0, timestamp=1.0)
    assert record.frequency == pytest.approx(50.0, abs=1e-3)
    assert not record.held


def test_frequency_offgrid_value():
    window = sine_window(POWER_WINDOW, freq=49.5)[0]
    record = estimate_frequency(window, previous=50.0, timestamp=1.0)
    assert record.frequency == pytest.approx(49.5, abs=2e-3)
    assert not record.held


def test_frequency_zero_window_holds_previous():
    record = estimate_frequency(np.zeros(POWER_WINDOW), previous=50.0, timestamp=2.0)
    assert record.frequency == 50.0
    assert record.held


def test_frequency_out_of_band_holds_previous():
    window = sine_window(POWER_WINDOW, freq=120.0)[0]
    record = estimate_frequency(window, previous=49.9, timestamp=2.0)
    assert record.frequency == 49.9
    assert record.held


def test_frequency_with_an_infinite_sample_at_a_crossing_holds_previous():
    # the crossing's interpolation reads -inf / -inf, so the estimate is NaN
    # and the band check holds the previous value
    window = sine_window(POWER_WINDOW)[0]
    window[64] = -math.inf
    with np.errstate(invalid="ignore"):
        record = estimate_frequency(window, previous=49.9, timestamp=2.0)
    assert (record.frequency, record.held) == (49.9, True)


# -- demand -------------------------------------------------------------------


def test_demand_constant_series():
    series = np.full((3, 900), 10.0)
    record = compute_demand(series, timestamp=900.0)
    assert record.demand == (10.0, 10.0, 10.0)


def test_demand_step_series_mean():
    series = np.hstack([np.full((3, 450), 10.0), np.full((3, 450), 20.0)])
    record = compute_demand(series, timestamp=900.0)
    assert record.demand[0] == pytest.approx(15.0, rel=1e-12)


def test_demand_rejects_empty_series():
    with pytest.raises(ValueError):
        compute_demand(np.empty((3, 0)), timestamp=900.0)


# -- flicker ------------------------------------------------------------------


def test_pst_unmodulated_is_zero():
    series = np.full((3, 60000), 0.707)
    record = compute_pst(series, timestamp=600.0)
    for value in record.pst:
        assert value == pytest.approx(0.0, abs=1e-6)


def test_pst_dead_phase_is_undefined():
    series = np.vstack([np.zeros(100), np.ones(100), np.ones(100)])
    record = compute_pst(series, timestamp=600.0)
    assert record.pst[0] is None
    assert record.pst[1] == pytest.approx(0.0, abs=1e-9)


def test_pst_scales_with_modulation_depth():
    rng_t = np.arange(60000) / 100.0
    base = 0.707 * (1.0 + 0.02 * np.sin(2 * np.pi * 1.0 * rng_t))
    doubled = 0.707 * (1.0 + 0.04 * np.sin(2 * np.pi * 1.0 * rng_t))
    r1 = compute_pst(np.vstack([base] * 3), 600.0).pst[0]
    r2 = compute_pst(np.vstack([doubled] * 3), 600.0).pst[0]
    assert r2 / r1 == pytest.approx(2.0, rel=0.01)


def test_pst_homogeneous_under_series_scaling():
    rng = np.random.default_rng(7)
    series = np.abs(rng.normal(1.0, 0.05, size=(3, 1000))) + 0.1
    r1 = compute_pst(series, 600.0).pst
    r2 = compute_pst(5.0 * series, 600.0).pst
    for a, b in zip(r1, r2):
        assert b == pytest.approx(a, rel=1e-9)


def test_pst_golden_full_window():
    script = parse_script("flicker_modulation 0 600 ABC 0.02 8.8\n")
    result = run_pipeline(
        generate_stream(unit_config(600.0), script), unit_pipeline_config()
    )
    assert len(result.flicker_pst) == 1
    assert result.flicker_pst[0].pst[0] == pytest.approx(PST_GOLDEN_DEPTH_002_88HZ, rel=1e-9)


def test_plt_single_active_window():
    values = [(1.0, 1.0, 1.0)] + [(0.0, 0.0, 0.0)] * 11
    record = compute_plt(values, timestamp=7200.0)
    expected = (1.0 / 12.0) ** (1.0 / 3.0)
    for value in record.plt:
        assert value == pytest.approx(expected, abs=1e-5)
    assert expected == pytest.approx(0.43679, abs=1e-5)


def test_plt_constant_input_is_exact():
    for c in (1.0, 0.5, 0.25, 2.0):
        record = compute_plt([(c, c, c)] * 12, timestamp=7200.0)
        assert record.plt == (c, c, c)


def test_plt_doubles_with_input():
    values = [(0.1 * (k + 1),) * 3 for k in range(12)]
    doubled = [(0.2 * (k + 1),) * 3 for k in range(12)]
    r1 = compute_plt(values, 7200.0)
    r2 = compute_plt(doubled, 7200.0)
    for a, b in zip(r1.plt, r2.plt):
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_plt_requires_twelve_values():
    with pytest.raises(ValueError):
        compute_plt([(1.0, 1.0, 1.0)] * 11, timestamp=7200.0)


def test_plt_of_a_phase_with_an_undefined_pst_is_undefined():
    # each phase's Plt comes from that phase's own 12 Pst values
    for undefined in (math.nan, None):
        values = [(1.0, 1.0, 1.0)] * (PLT_PST_COUNT - 1) + [(1.0, undefined, 0.5)]
        record = compute_plt(values, timestamp=7200.0)
        assert record.plt[0] == 1.0 and record.plt[1] is None
        assert record.plt[2] == pytest.approx(((11 + 0.125) / 12) ** (1 / 3), rel=1e-15)


@pytest.mark.parametrize("call, match", [
    (lambda: compute_thd([1.0]), "fundamental plus at least one harmonic"),
    (lambda: compute_thd(np.ones((2, 3))), "fundamental plus at least one harmonic"),
    (lambda: compute_harmonics(np.ones((6, POWER_WINDOW)), 50.0, 3.0), "exactly 9600"),
    (lambda: compute_power(np.ones((6, HARMONIC_WINDOW)), 50.0, 1.0), "exactly 3200"),
    (lambda: compute_pst(np.ones((2, 10)), 600.0), r"shape \(3, n\)"),
    (lambda: compute_pst(np.ones((3, 0)), 600.0), r"shape \(3, n\)"),
], ids=["thd-one-value", "thd-2d", "harmonics-1s", "power-3s", "pst-two-rows", "pst-empty"])
def test_kernels_refuse_windows_of_another_shape(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0),
        min_size=PLT_PST_COUNT,
        max_size=PLT_PST_COUNT,
    )
)
@settings(max_examples=200)
def test_plt_power_mean_bounds(values):
    record = compute_plt([(v, v, v) for v in values], timestamp=7200.0)
    low, high = min(values), max(values)
    assert low - 1e-12 <= record.plt[0] <= high + max(1e-12, 1e-12 * high)


# -- pipeline -----------------------------------------------------------------


def test_pipeline_cadence_sixty_seconds():
    result = run_pipeline(generate_stream(unit_config(60.0)), unit_pipeline_config())
    assert len(result.rms) == 300
    assert len(result.power) == 60
    assert len(result.harmonics) == 20
    assert len(result.frequency) == 60
    assert len(result.demand) == 0
    assert len(result.flicker_pst) == 0
    assert result.rms[0].timestamp == pytest.approx(0.2)
    assert result.rms[-1].timestamp == pytest.approx(60.0)
    assert result.harmonics[0].timestamp == pytest.approx(3.0)


def test_pipeline_zero_duration_like_stream():
    result = run_pipeline([], unit_pipeline_config())
    assert result.rms == [] and result.power == []


def test_pipeline_partial_windows_discarded_and_tallied():
    result = run_pipeline(generate_stream(unit_config(1.3)), unit_pipeline_config())
    assert len(result.rms) == 6  # floor(1.3 / 0.2)
    assert len(result.power) == 1
    assert len(result.harmonics) == 0
    assert result.discarded["power_samples_discarded"] == 4160 % 3200
    assert result.discarded["harmonic_samples_discarded"] == 4160


def test_pipeline_gap_detection():
    frames = list(generate_stream(unit_config(0.6)))
    with pytest.raises(StreamGapError):
        run_pipeline([frames[0], frames[2]], unit_pipeline_config())


def test_pipeline_online_equals_batch():
    config = unit_config(6.0)
    block = np.vstack(gather(config))  # voltage rows, then current rows
    streamed = run_pipeline(generate_stream(config), unit_pipeline_config())
    # batch recomputation straight from the concatenated arrays
    for k, record in enumerate(streamed.rms):
        window = slice(k * RMS_WINDOW, (k + 1) * RMS_WINDOW)
        batch = compute_rms(block[:, window], record.timestamp)
        assert batch.v_rms == record.v_rms
        assert batch.i_rms == record.i_rms
    for k, record in enumerate(streamed.power):
        window = slice(k * POWER_WINDOW, (k + 1) * POWER_WINDOW)
        batch = compute_power(block[:, window], streamed.frequency[k].frequency, record.timestamp)
        assert batch.active == record.active
        assert batch.apparent == record.apparent
    for k, record in enumerate(streamed.harmonics):
        window = slice(k * HARMONIC_WINDOW, (k + 1) * HARMONIC_WINDOW)
        fundamental = streamed.frequency[3 * k + 2].frequency
        batch = compute_harmonics(block[:, window], fundamental, record.timestamp)
        for p in range(3):
            assert np.allclose(batch.v_harmonics[p], record.v_harmonics[p], rtol=1e-9, atol=1e-12)


def test_pipeline_demand_is_the_mean_of_per_second_fundamental_currents():
    # A 0.5 Hz load modulation lifts the fundamental current by 0.05 * 2 / pi
    # in even seconds and lowers it as much in odd ones, so the mean of the
    # 900 per-second magnitudes is the unmodulated 10 * sqrt(2) A.  A 3 s
    # window holds 1.5 modulation periods: a mean read from 3 s records
    # misses it by 2.4e-5.
    config = SignalConfig(duration=900.0, current_lag_deg=20.0)
    script = parse_script("flicker_modulation 0 900 ABC 0.05 0.5\n")
    result = run_pipeline(generate_stream(config, script, frame_length=9600), PipelineConfig())
    assert [r.timestamp for r in result.demand] == [900.0]
    for p in range(3):
        assert result.demand[0].demand[p] == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-9)
    assert "demand_windows_discarded" not in result.discarded


def test_demand_window_open_at_stream_end_is_tallied():
    # the open window holds one second and no 3 s block
    result = run_pipeline(
        generate_stream(unit_config(901.0), frame_length=9600), unit_pipeline_config()
    )
    assert [r.timestamp for r in result.demand] == [900.0]
    assert result.discarded["demand_windows_discarded"] == 1


def test_pipeline_homogeneity_under_input_scaling():
    config = unit_config(6.0)
    frames = list(generate_stream(config))
    scale = 3.5
    scaled_frames = [
        WaveformFrame(
            f.start_sample_index,
            scale * f.voltage_samples,
            scale * f.current_samples,
        )
        for f in frames
    ]
    base = run_pipeline(frames, unit_pipeline_config())
    scaled = run_pipeline(scaled_frames, unit_pipeline_config())
    for a, b in zip(base.rms, scaled.rms):
        for x, y in zip(a.v_rms, b.v_rms):
            assert y == pytest.approx(scale * x, rel=1e-9)
    for a, b in zip(base.harmonics, scaled.harmonics):
        for p in range(3):
            assert b.v_harmonics[p][0] == pytest.approx(scale * a.v_harmonics[p][0], rel=1e-9)
            # THD is a ratio and must not move
            assert b.thd_v[p] == pytest.approx(a.thd_v[p], abs=1e-9)
    for a, b in zip(base.frequency, scaled.frequency):
        assert b.frequency == pytest.approx(a.frequency, abs=1e-9)


def test_half_cycle_rms_shape_and_value():
    window = sine_window(RMS_WINDOW)
    blocks = half_cycle_rms(window, 32)
    assert blocks.shape == (3, 20)
    assert np.allclose(blocks, 1.0 / math.sqrt(2.0), rtol=1e-9)


def test_pipeline_config_validation():
    for refused in (
        {"nominal_frequency": -1.0},
        {"nominal_frequency": 2.0},  # no half-cycle fits in an RMS window
        {"nominal_frequency": 1e6},  # a half-cycle rounds to no sample
        {"nominal_frequency": math.nan},
        {"nominal_voltage_rms": 0.0},
        {"nominal_current_rms": -10.0},  # a negative THD floor
    ):
        with pytest.raises(ValueError):
            PipelineConfig(**refused)
    PipelineConfig(nominal_frequency=FREQUENCY_BAND[0])
    PipelineConfig(nominal_frequency=FREQUENCY_BAND[1])


# -- the 3 s block step against the per-window computation -----------------------


def frames_of(voltage, current, length):
    for start in range(0, voltage.shape[1], length):
        end = start + length
        yield WaveformFrame(start, voltage[:, start:end], current[:, start:end])


def capturing_detector():
    """Detector whose sink keeps each capture blob by event id."""
    blobs = {}

    def sink(event_type, event_id, blob):
        blobs[event_id] = blob
        return f"raw_{event_id}.pqz"

    return EventDetector(EventThresholds(nominal_voltage_rms=1.0), raw_sink=sink), blobs


def per_window_reference(voltage, current, config):
    """Records, events and capture blobs of a stream computed one window at a
    time with the public kernels, the detector fed and updated once per RMS
    window: the pipeline's results before it analyzed whole 3 s blocks."""
    block = np.vstack((voltage, current))
    n = block.shape[1]
    detector, blobs = capturing_detector()
    rms_records = []
    for end in range(RMS_WINDOW, n + 1, RMS_WINDOW):
        window = block[:, end - RMS_WINDOW : end]
        detector.feed_samples(end - RMS_WINDOW, window[:3], window[3:])
        rms_records.append(compute_rms(window, end / SAMPLE_RATE))
        detector.update(rms_records[-1].timestamp, rms_records[-1].v_rms)
    if n % RMS_WINDOW:
        detector.feed_samples(n - n % RMS_WINDOW, voltage[:, n - n % RMS_WINDOW :],
                              current[:, n - n % RMS_WINDOW :])
    detector.close(n / SAMPLE_RATE)
    frequency, power, previous = [], [], config.nominal_frequency
    for end in range(POWER_WINDOW, n + 1, POWER_WINDOW):
        window = block[:, end - POWER_WINDOW : end]
        frequency.append(estimate_frequency(window[0], previous, end / SAMPLE_RATE))
        previous = frequency[-1].frequency
        power.append(compute_power(window, previous, end / SAMPLE_RATE))
    harmonics = [
        compute_harmonics(
            block[:, end - HARMONIC_WINDOW : end],
            frequency[end // POWER_WINDOW - 1].frequency,
            end / SAMPLE_RATE,
            v_floor=THD_FLOOR_FACTOR * config.nominal_voltage_rms,
            i_floor=THD_FLOOR_FACTOR * config.nominal_current_rms,
        )
        for end in range(HARMONIC_WINDOW, n + 1, HARMONIC_WINDOW)
    ]
    records = {"rms": rms_records, "power": power, "frequency": frequency, "harmonics": harmonics}
    return records, detector.records, blobs


@pytest.fixture(scope="module")
def scripted_61s():
    config = unit_config(61.3, current_lag_deg=25.0)
    script = parse_script(
        "harmonic 0 61.3 ABC 0.03 5\nsag 10.0 12.4 A 0.6\nswell 59.0 61.3 B 1.2\n"
    )
    voltage, current = gather(config, script)
    return voltage, current, per_window_reference(voltage, current, unit_pipeline_config())


@pytest.mark.parametrize("frame_length", [640, 1000, 9600, 10007])
def test_block_step_matches_per_window_records(scripted_61s, frame_length):
    voltage, current, (records, events, blobs) = scripted_61s
    detector, got_blobs = capturing_detector()
    result = run_pipeline(
        frames_of(voltage, current, frame_length), unit_pipeline_config(), detector=detector
    )
    for name, expected in records.items():
        assert getattr(result, name) == expected, name
    assert result.demand == result.flicker_pst == result.flicker_plt == []
    assert [e.event_type for e in events] == ["sag", "swell"]
    assert result.events == events
    assert got_blobs == blobs
    assert result.discarded == {
        "rms_samples_discarded": 320,
        "power_samples_discarded": 960,
        "harmonic_samples_discarded": 4160,
        "pst_half_cycles_discarded": 306 * 20,
        "demand_windows_discarded": 1,
    }


def test_stream_shorter_than_a_block_emits_its_windows():
    config = unit_config(2.5, current_lag_deg=10.0)
    voltage, current = gather(config)
    records, _, _ = per_window_reference(voltage, current, unit_pipeline_config())
    result = run_pipeline(frames_of(voltage, current, 1000), unit_pipeline_config())
    assert (len(result.rms), len(result.power), len(result.frequency)) == (12, 2, 2)
    for name, expected in records.items():
        assert getattr(result, name) == expected, name
    assert result.discarded == {
        "rms_samples_discarded": 320,
        "power_samples_discarded": 1600,
        "harmonic_samples_discarded": 8000,
        "pst_half_cycles_discarded": 12 * 20,
        "demand_windows_discarded": 1,
    }


def test_sixty_hertz_pst_groups_half_cycles_per_rms_window():
    # 27-sample half-cycles do not tile a 640-sample window: each window
    # yields 23 of them and skips its last 19 samples
    config = unit_config(1201.3, nominal_frequency=60.0, jitter_pu=0.01, seed=3)
    voltage, current = gather(config, parse_script("flicker_modulation 0 1201.3 ABC 0.02 8.8\n"))
    result = run_pipeline(
        frames_of(voltage, current, 1000), unit_pipeline_config(nominal_frequency=60.0)
    )
    per_window = [
        half_cycle_rms(voltage[:, end - RMS_WINDOW : end], 27)
        for end in range(RMS_WINDOW, voltage.shape[1] + 1, RMS_WINDOW)
    ]
    windows = round(600.0 * SAMPLE_RATE / RMS_WINDOW)
    expected = [
        compute_pst(np.hstack(per_window[k * windows : (k + 1) * windows]), 600.0 * (k + 1))
        for k in range(2)
    ]
    assert result.flicker_pst == expected
    assert result.discarded["half_cycle_samples_skipped"] == len(per_window) * 19
    assert result.discarded["pst_half_cycles_discarded"] == 6 * 23


class RecordingDetector:
    """Stands in for a detector: notes the first sample fed and each update."""

    def __init__(self):
        self.fed = []
        self.updates = []

    def feed_samples(self, first_sample, voltage, current):
        self.fed.append(first_sample)

    def update(self, timestamp, triple):
        self.updates.append(timestamp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("channel, index, refused", [
    (1, 9600 + 700, "samples 9600 to 19200"),     # phase B voltage, second full block
    (5, 19200 + 1000, "samples 19200 to 20480"),  # phase C current, trailing partial block
])
def test_non_finite_samples_are_refused_before_any_record_of_their_block(
    bad, channel, index, refused
):
    samples = np.vstack(gather(unit_config(6.4)))
    samples[channel, index] = bad
    for detector in (None, RecordingDetector()):
        pipeline = StreamPipeline(unit_pipeline_config(), detector=detector)
        with pytest.raises(ValueError, match=f"{refused} are not finite"):
            for frame in frames_of(samples[:3], samples[3:], 1000):
                pipeline.process_frame(frame)
            pipeline.finish()
        result = pipeline.result
        assert len(result.rms) == 15 * (index // HARMONIC_WINDOW)
        assert len(result.frequency) == len(result.power) == 3 * (index // HARMONIC_WINDOW)
        if detector is not None:
            # one feed per block, before the block's updates
            assert detector.fed == list(range(0, len(result.rms) * RMS_WINDOW, HARMONIC_WINDOW))
            assert detector.updates == [r.timestamp for r in result.rms]


@pytest.mark.parametrize("scale", [1e76, 1e150])
def test_power_whose_square_overflows_is_refused_before_any_record_of_its_block(scale):
    # 230 V and 10 A levels times 1e76 give S = 2.3e155, past sqrt(max float);
    # every RMS level stays finite.  Second 5 lies in the second block.
    samples = np.vstack(gather(SignalConfig(duration=6.0)))
    samples[:, 4 * POWER_WINDOW : 5 * POWER_WINDOW] *= scale
    for detector in (None, RecordingDetector()):
        pipeline = StreamPipeline(PipelineConfig(), detector=detector)
        with pytest.raises(ValueError, match="samples 9600 to 19200: apparent power squared"):
            for frame in frames_of(samples[:3], samples[3:], 1000):
                pipeline.process_frame(frame)
        result = pipeline.result
        assert (len(result.rms), len(result.frequency), len(result.power)) == (15, 3, 3)
        assert len(result.harmonics) == 1
        if detector is not None:
            assert detector.fed == [0]
            assert detector.updates == [r.timestamp for r in result.rms]
    with pytest.raises(ValueError, match="samples 0 to 3200: apparent power squared"):
        compute_power(samples[:, 4 * POWER_WINDOW : 5 * POWER_WINDOW], 50.0, 5.0)


def test_power_just_below_the_overflow_stays_finite():
    samples = np.vstack(gather(SignalConfig(duration=3.0))) * 1e70
    result = run_pipeline(frames_of(samples[:3], samples[3:], 1000), PipelineConfig())
    assert len(result.power) == 3
    for record in result.power:
        assert all(map(math.isfinite, record.active + record.reactive + record.apparent))


def test_run_pipeline_refuses_a_nan_sample_without_a_detector():
    samples = np.vstack(gather(unit_config(3.0)))
    samples[0, 5] = math.nan
    with pytest.raises(ValueError, match="samples 0 to 9600 are not finite"):
        run_pipeline(frames_of(samples[:3], samples[3:], 1000), unit_pipeline_config())


def test_plt_window_with_an_undefined_pst_stores_that_phase_as_none():
    # phase C at 0 for the first 10 min leaves that Pst interval's C value
    # undefined, so the one 2 h Plt window has no defined value for C; A and
    # B keep theirs, and the row still ends its window
    config = unit_config(7200.0)
    script = parse_script("interruption 0 600 C 0\n")
    result = run_pipeline(
        generate_stream(config, script, frame_length=HARMONIC_WINDOW), unit_pipeline_config()
    )
    assert len(result.flicker_pst) == PLT_PST_COUNT
    assert result.flicker_pst[0].pst[2] is None
    assert all(v is not None for r in result.flicker_pst[1:] for v in r.pst)
    (plt,) = result.flicker_plt
    assert plt.timestamp == 7200.0
    assert plt.plt[2] is None
    assert all(math.isfinite(v) for v in plt.plt[:2])
    assert result.discarded == {}


def test_stream_ending_between_its_first_pst_and_plt_tallies_the_open_windows():
    # 603.1 s: one Pst written, its record held by the open Plt window, and
    # 3 s of half-cycles, 0.1 s of samples and the open demand window left
    result = run_pipeline(
        generate_stream(unit_config(603.1), frame_length=HARMONIC_WINDOW), unit_pipeline_config()
    )
    assert [r.timestamp for r in result.flicker_pst] == [600.0]
    assert result.flicker_plt == result.demand == []
    assert result.discarded == {
        "rms_samples_discarded": 320,
        "power_samples_discarded": 320,
        "harmonic_samples_discarded": 320,
        "pst_half_cycles_discarded": 15 * 20,
        "plt_pst_records_discarded": 1,
        "demand_windows_discarded": 1,
    }


def test_finish_twice_returns_the_same_result_and_refuses_more_frames():
    frames = list(generate_stream(unit_config(3.4)))
    pipeline = StreamPipeline(unit_pipeline_config())
    for frame in frames[:-1]:
        pipeline.process_frame(frame)
    result = pipeline.finish()
    rms_records = list(result.rms)
    assert pipeline.finish() is result
    assert result.rms == rms_records
    with pytest.raises(RuntimeError, match="already finished"):
        pipeline.process_frame(frames[-1])


# -- record rows -----------------------------------------------------------------


def test_each_cadence_stores_the_columns_of_its_transfer_file():
    result = PipelineResult()
    for name, parameter in PARAMETERS.items():
        series = getattr(result, name)
        assert series.parameter is parameter
        assert series.block_rows == max(1, BLOCK_CELLS // len(parameter.columns))


def test_record_series_blocks_fill_to_their_size_and_index_across_them():
    records = [
        RmsRecord((k + 1) * RMS_WINDOW / SAMPLE_RATE, (k, -0.0, 1.5), (2.0, 5e-324, -k))
        for k in range(1500)
    ]
    series = RecordSeries(PARAMETERS["rms"], records[:1])
    series.extend(records[1:700])
    for k in range(700, 1500, 15):  # as the pipeline stores a block's RMS windows
        series.append_rows(np.array([(*r.v_rms, *r.i_rms) for r in records[k : k + 15]]))
    sizes = [len(rows) for rows in series.blocks()]
    assert sizes == [682, 682, 136]
    assert len(series) == 1500 and series == records and list(series) == records
    assert series[0] == records[0] and series[-1] == records[-1] and series[-818] == records[682]
    assert series[680:684] == records[680:684] and series[::-500] == records[::-500]
    assert math.copysign(1.0, series[681].v_rms[1]) == -1.0
    for index in (1500, -1501):
        with pytest.raises(IndexError):
            series[index]
    assert series != records[:-1] and series != 5


def test_record_series_of_one_row_per_block_end_keeps_its_timestamps():
    series = RecordSeries(PARAMETERS["harmonics"])
    row = np.arange(1.0, 1.0 + series.columns)
    for k in range(45):
        series.append_rows(row)
    assert [len(rows) for rows in series.blocks()] == [20, 20, 5]
    assert [r.timestamp for r in series] == [3.0 * (k + 1) for k in range(45)]
    assert series[44].thd_i == tuple(row[-3:].tolist())


def test_result_holds_about_its_float_payload():
    # rows * columns float64 cells, against the bytes the result keeps once
    # the pipeline that filled it is gone
    tracemalloc.start()
    try:
        result = run_pipeline(generate_stream(unit_config(120.0)), unit_pipeline_config())
        held = tracemalloc.get_traced_memory()[0]
        payload = sum(len(getattr(result, name)) * len(p.columns) * 8
                      for name, p in PARAMETERS.items())
        del result
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert payload == (600 * 6 + 120 * 12 + 40 * 204 + 120 * 2) * 8
    assert retained <= 1.5 * payload, (retained, payload)
