"""Deterministic three-phase waveform synthesis with scripted disturbances.

Frames of voltage and current samples are produced at a fixed 3200 Hz rate
(``SAMPLE_RATE``) for three phases (``PHASES``) with offsets of 0, -120 and
-240 degrees; neither rate nor phase count is a :class:`SignalConfig`
option.  Disturbances are described by a small line-oriented script and
applied with instantaneous envelope switching (no ramps), so expected RMS
values and event extents are exactly computable from the script.
Identical config, script and seed always yield bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

SAMPLE_RATE = 3200
PHASES = ("A", "B", "C")
PHASE_ANGLES_DEG = (0.0, -120.0, -240.0)
DEFAULT_FRAME_LENGTH = 640

MIN_HARMONIC_ORDER = 2
MAX_HARMONIC_ORDER = 33

SCALING_KINDS = frozenset({"sag", "swell", "interruption", "unbalance"})
DISTURBANCE_KINDS = SCALING_KINDS | {"harmonic", "flicker_modulation", "frequency_drift"}

_PHASE_ANGLES_RAD = tuple(math.radians(a) for a in PHASE_ANGLES_DEG)


class ScriptError(ValueError):
    """Raised for syntactically or semantically invalid disturbance scripts."""


def _where(source_line: int | None) -> str:
    return f"line {source_line}: " if source_line is not None else ""


@dataclass(frozen=True)
class SignalConfig:
    """Static description of one synthetic measurement run.

    ``duration`` is in seconds; the stream holds exactly
    ``round(duration * SAMPLE_RATE)`` samples per channel.  ``seed`` only
    matters when ``jitter_pu`` is non-zero.
    """

    nominal_frequency: float = 50.0
    nominal_voltage_rms: float = 230.0
    nominal_current_rms: float = 10.0
    duration: float = 1.0
    current_lag_deg: float = 0.0
    jitter_pu: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nominal_frequency <= 0:
            raise ValueError("nominal_frequency must be positive")
        if self.nominal_voltage_rms <= 0 or self.nominal_current_rms <= 0:
            raise ValueError("nominal RMS levels must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.jitter_pu < 0:
            raise ValueError("jitter_pu must be >= 0")

    @property
    def sampling_rate(self) -> int:
        """Always ``SAMPLE_RATE``; read-only, for callers that ask the config."""
        return SAMPLE_RATE

    @property
    def total_samples(self) -> int:
        return round(self.duration * SAMPLE_RATE)


@dataclass(frozen=True)
class DisturbanceSpec:
    """One scripted disturbance interval.

    ``magnitude`` is kind-specific: a per-unit target level for the scaling
    kinds (sag, swell, interruption, unbalance), a fraction of the
    fundamental amplitude for ``harmonic``, a modulation depth for
    ``flicker_modulation`` and a frequency offset in hertz reached at
    ``end_time`` for ``frequency_drift``.
    """

    kind: str
    start_time: float
    end_time: float
    phases: tuple[str, ...]
    magnitude: float
    harmonic_order: int | None = None
    modulation_frequency: float | None = None
    source_line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        at = _where(self.source_line)
        if self.kind not in DISTURBANCE_KINDS:
            raise ScriptError(f"{at}unknown disturbance kind {self.kind!r}")
        if not self.phases:
            raise ScriptError(f"{at}no phases given")
        bad = [p for p in self.phases if p not in PHASES]
        if bad:
            raise ScriptError(f"{at}unknown phase {bad[0]!r} (use A, B, C)")
        if len(set(self.phases)) != len(self.phases):
            raise ScriptError(f"{at}duplicate phase in {''.join(self.phases)!r}")
        if not self.start_time < self.end_time:
            raise ScriptError(
                f"{at}start time {self.start_time} must be before end time {self.end_time}"
            )
        if self.start_time < 0:
            raise ScriptError(f"{at}start time must be >= 0")
        if self.magnitude < 0:
            raise ScriptError(f"{at}magnitude must be >= 0")
        if self.kind == "harmonic":
            if self.harmonic_order is None:
                raise ScriptError(f"{at}harmonic needs an order")
            if not MIN_HARMONIC_ORDER <= self.harmonic_order <= MAX_HARMONIC_ORDER:
                raise ScriptError(
                    f"{at}harmonic order {self.harmonic_order} outside "
                    f"[{MIN_HARMONIC_ORDER}, {MAX_HARMONIC_ORDER}]"
                )
        elif self.harmonic_order is not None:
            raise ScriptError(f"{at}{self.kind} takes no harmonic order")
        if self.kind == "flicker_modulation":
            if self.modulation_frequency is None:
                raise ScriptError(f"{at}flicker_modulation needs a modulation frequency")
            if self.modulation_frequency <= 0:
                raise ScriptError(f"{at}modulation frequency must be positive")
        elif self.modulation_frequency is not None:
            raise ScriptError(f"{at}{self.kind} takes no modulation frequency")
        if self.kind == "frequency_drift" and set(self.phases) != set(PHASES):
            raise ScriptError(f"{at}frequency_drift applies to all phases, use ABC")

    def overlaps(self, other: DisturbanceSpec) -> bool:
        return self.start_time < other.end_time and other.start_time < self.end_time


@dataclass(frozen=True)
class DisturbanceScript:
    """Validated collection of disturbance intervals."""

    specs: tuple[DisturbanceSpec, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, duration: float | None = None) -> None:
        """Check cross-entry rules, and interval bounds when ``duration`` is given.

        Envelope-setting entries (and frequency drifts) of the same kind
        touching the same phase must not overlap in time: the later entry
        would silently win.  Additive components (``harmonic``) and
        multiplicative ones (``flicker_modulation``) compose, so they may
        overlap freely.  Raises :class:`ScriptError` naming the offenders.
        """
        exclusive = SCALING_KINDS | {"frequency_drift"}
        for i, a in enumerate(self.specs):
            for b in self.specs[i + 1 :]:
                if a.kind != b.kind or a.kind not in exclusive or not a.overlaps(b):
                    continue
                shared = sorted(set(a.phases) & set(b.phases))
                if not shared:
                    continue
                first = _where(a.source_line).rstrip(": ") or f"entry {i + 1}"
                second = _where(b.source_line).rstrip(": ") or "a later entry"
                raise ScriptError(
                    f"{second} overlaps {first} ({a.kind} on phase {shared[0]})"
                )
        if duration is not None:
            for sp in self.specs:
                if sp.end_time > duration:
                    raise ScriptError(
                        f"{_where(sp.source_line)}end time {sp.end_time} exceeds "
                        f"stream duration {duration}"
                    )


@dataclass(frozen=True)
class WaveformFrame:
    """Contiguous block of synthesized samples for all three phases.

    ``voltage_samples`` and ``current_samples`` have shape (3, n) with rows
    ordered A, B, C.
    """

    start_sample_index: int
    voltage_samples: np.ndarray
    current_samples: np.ndarray

    def __post_init__(self) -> None:
        if self.voltage_samples.shape != self.current_samples.shape:
            raise ValueError("voltage and current sample shapes differ")
        if self.voltage_samples.ndim != 2 or self.voltage_samples.shape[0] != 3:
            raise ValueError("samples must have shape (3, n)")
        self.voltage_samples.setflags(write=False)
        self.current_samples.setflags(write=False)

    @property
    def frame_length(self) -> int:
        return self.voltage_samples.shape[1]

    @property
    def end_sample_index(self) -> int:
        return self.start_sample_index + self.frame_length


def _parse_phases(token: str, lineno: int) -> tuple[str, ...]:
    phases = tuple(dict.fromkeys(token.upper()))
    for ch in phases:
        if ch not in PHASES:
            raise ScriptError(f"line {lineno}: unknown phase {ch!r} (use A, B, C)")
    return phases


def _parse_number(token: str, what: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ScriptError(f"line {lineno}: bad {what} {token!r}") from None


def parse_script(text: str) -> DisturbanceScript:
    """Parse the line-oriented disturbance grammar.

    Each non-blank line reads ``kind start end phases magnitude`` with one
    trailing field for the kinds that need it: a harmonic order for
    ``harmonic`` and a modulation frequency for ``flicker_modulation``.
    ``#`` starts a comment.  All diagnostics carry line numbers.
    """
    specs: list[DisturbanceSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 5:
            raise ScriptError(
                f"line {lineno}: expected 'kind start end phases magnitude', got {line!r}"
            )
        kind = tokens[0].lower()
        if kind not in DISTURBANCE_KINDS:
            raise ScriptError(f"line {lineno}: unknown disturbance kind {tokens[0]!r}")
        start = _parse_number(tokens[1], "start time", lineno)
        end = _parse_number(tokens[2], "end time", lineno)
        phases = _parse_phases(tokens[3], lineno)
        magnitude = _parse_number(tokens[4], "magnitude", lineno)
        order: int | None = None
        mod_freq: float | None = None
        if kind == "harmonic":
            if len(tokens) != 6:
                raise ScriptError(f"line {lineno}: harmonic needs exactly one order field")
            try:
                order = int(tokens[5])
            except ValueError:
                raise ScriptError(f"line {lineno}: bad harmonic order {tokens[5]!r}") from None
        elif kind == "flicker_modulation":
            if len(tokens) != 6:
                raise ScriptError(
                    f"line {lineno}: flicker_modulation needs exactly one modulation frequency"
                )
            mod_freq = _parse_number(tokens[5], "modulation frequency", lineno)
        elif len(tokens) != 5:
            raise ScriptError(f"line {lineno}: {kind} takes exactly five fields")
        specs.append(
            DisturbanceSpec(
                kind=kind,
                start_time=start,
                end_time=end,
                phases=phases,
                magnitude=magnitude,
                harmonic_order=order,
                modulation_frequency=mod_freq,
                source_line=lineno,
            )
        )
    return DisturbanceScript(tuple(specs))


def serialize_script(script: DisturbanceScript) -> str:
    """Render a script back to its text form; reparsing yields an equal script."""
    fmt = lambda x: format(x, ".17g")  # noqa: E731 - local shorthand
    lines = []
    for sp in script.specs:
        parts = [sp.kind, fmt(sp.start_time), fmt(sp.end_time), "".join(sp.phases), fmt(sp.magnitude)]
        if sp.kind == "harmonic":
            parts.append(str(sp.harmonic_order))
        elif sp.kind == "flicker_modulation":
            parts.append(fmt(sp.modulation_frequency))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def generate_stream(
    config: SignalConfig,
    script: DisturbanceScript | None = None,
    frame_length: int = DEFAULT_FRAME_LENGTH,
) -> Iterator[WaveformFrame]:
    """Yield contiguous waveform frames for the whole configured duration.

    The fundamental of phase p is ``A * sin(theta(t) + offset_p)`` where
    ``theta`` integrates the instantaneous frequency (nominal plus any
    phase-continuous drift ramps).  Scaling disturbances set the amplitude
    envelope of affected phases to their magnitude for the interval (later
    script entries win if different kinds overlap), flicker modulation
    multiplies the envelope by ``1 + m*sin(2*pi*f_mod*t)``, and harmonic
    entries add ``magnitude * nominal amplitude`` at ``order x fundamental``
    on top of the enveloped fundamental.  Current mirrors voltage scaled by
    ``I_nom/V_nom`` with every component lagged by ``current_lag_deg``.

    The final frame is shorter when the total sample count is not a
    multiple of ``frame_length``.
    """
    if frame_length <= 0:
        raise ValueError("frame_length must be positive")
    script = script if script is not None else DisturbanceScript()
    script.validate(duration=config.duration)

    total = config.total_samples
    v_amp = config.nominal_voltage_rms * math.sqrt(2.0)
    i_amp = config.nominal_current_rms * math.sqrt(2.0)
    lag = math.radians(config.current_lag_deg)
    rng = np.random.default_rng(config.seed) if config.jitter_pu > 0 else None

    drift = [sp for sp in script.specs if sp.kind == "frequency_drift"]
    scaling = [sp for sp in script.specs if sp.kind in SCALING_KINDS]
    flicker = [sp for sp in script.specs if sp.kind == "flicker_modulation"]
    harmonics = [sp for sp in script.specs if sp.kind == "harmonic"]

    start = 0
    while start < total:
        n = min(frame_length, total - start)
        t = (start + np.arange(n)) / SAMPLE_RATE
        cycles = config.nominal_frequency * t
        for sp in drift:
            span = sp.end_time - sp.start_time
            u = np.clip(t - sp.start_time, 0.0, span)
            cycles = cycles + sp.magnitude * u * u / (2.0 * span)
        theta = 2.0 * np.pi * cycles

        voltage = np.empty((3, n))
        current = np.empty((3, n))
        for p, offset in enumerate(_PHASE_ANGLES_RAD):
            name = PHASES[p]
            env = np.ones(n)
            for sp in scaling:
                if name in sp.phases:
                    mask = (t >= sp.start_time) & (t < sp.end_time)
                    env[mask] = sp.magnitude
            for sp in flicker:
                if name in sp.phases:
                    mask = (t >= sp.start_time) & (t < sp.end_time)
                    env[mask] *= 1.0 + sp.magnitude * np.sin(
                        2.0 * np.pi * sp.modulation_frequency * t[mask]
                    )
            arg = theta + offset
            v = env * (v_amp * np.sin(arg))
            c = env * (i_amp * np.sin(arg - lag))
            for sp in harmonics:
                if name in sp.phases:
                    mask = (t >= sp.start_time) & (t < sp.end_time)
                    v[mask] += sp.magnitude * v_amp * np.sin(sp.harmonic_order * arg[mask])
                    c[mask] += sp.magnitude * i_amp * np.sin(
                        sp.harmonic_order * arg[mask] - lag
                    )
            voltage[p] = v
            current[p] = c
        if rng is not None:
            # drawn sample by sample, six channels each, so frame length
            # does not change the noise
            noise = rng.standard_normal((n, 6)).T
            voltage = voltage + config.jitter_pu * v_amp * noise[:3]
            current = current + config.jitter_pu * i_amp * noise[3:]
        yield WaveformFrame(start, voltage, current)
        start += n
