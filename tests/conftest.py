"""Shared helpers for the test suite: tiny streams, oracles and fixtures."""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from pqstream.analyzer import PipelineConfig
from pqstream.siggen import DisturbanceScript, SignalConfig, generate_stream, parse_script

BASE_TIME = datetime.fromisoformat("2000-01-01T00:00:00")

#: A version-1 raw capture, written by the level-6 encoder that version 2
#: replaced: event 3, first sample 4480, the samples of v1_capture_samples().
V1_CAPTURE = Path(__file__).parent / "data" / "raw_v1_event3.pqz"


def v1_capture_samples() -> np.ndarray:
    """The (6, 700) samples stored in V1_CAPTURE: exact ramps plus -0.0,
    the smallest subnormal and 1e300."""
    k = np.arange(700)
    samples = np.array([k / 7 + (1000 * c - 2500) for c in range(6)])
    samples[0, 0] = -0.0
    samples[1, 1] = 5e-324
    samples[2, 2] = 1e300
    return samples


def unit_config(duration: float, **kwargs) -> SignalConfig:
    """Config with 1 V / 1 A nominals so per-unit values read directly."""
    return SignalConfig(
        duration=duration,
        nominal_voltage_rms=1.0,
        nominal_current_rms=1.0,
        **kwargs,
    )


def unit_pipeline_config(**kwargs) -> PipelineConfig:
    return PipelineConfig(nominal_voltage_rms=1.0, nominal_current_rms=1.0, **kwargs)


def gather(config: SignalConfig, script: DisturbanceScript | None = None):
    """Materialize the full (voltage, current) arrays of one stream."""
    total = config.total_samples
    voltage = np.empty((3, total))
    current = np.empty((3, total))
    for frame in generate_stream(config, script):
        sl = slice(frame.start_sample_index, frame.end_sample_index)
        voltage[:, sl] = frame.voltage_samples
        current[:, sl] = frame.current_samples
    return voltage, current


def script_from(text: str) -> DisturbanceScript:
    return parse_script(text)


@pytest.fixture
def unit_stream_10s():
    config = unit_config(10.0)
    return config, gather(config)
