"""Power-quality stream engine for three-phase 3200 Hz measurement campaigns.

The package is organised around five cooperating parts:

``siggen``
    deterministic waveform synthesis with scripted disturbances,
``analyzer``
    online computation of averaged power-quality parameters,
``events``
    threshold state machines with raw-sample capture,
``store``
    transfer-file tree writer, database ingestion and the traffic budget,
``query``
    read-only time series / event aggregation plus chart rendering.

The ``pqstream`` console entry point (see :mod:`pqstream.cli`) chains them
into a generate / analyze / ingest / query workflow.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each exported name and the module it comes from.  The modules load on
#: first use (PEP 562), so ``import pqstream`` loads no numpy: the console
#: command can still choose numpy's BLAS threads before numpy starts them.
_EXPORTS = {
    "DisturbanceScript": "siggen",
    "DisturbanceSpec": "siggen",
    "EventDetector": "events",
    "EventRecord": "events",
    "EventThresholds": "events",
    "MeasurementPoint": "store",
    "PipelineConfig": "analyzer",
    "PipelineResult": "analyzer",
    "ScriptError": "siggen",
    "SignalConfig": "siggen",
    "StreamDatabase": "store",
    "StreamGapError": "analyzer",
    "StreamPipeline": "analyzer",
    "TransferFileWriter": "store",
    "WaveformFrame": "siggen",
    "compute_traffic_budget": "store",
    "generate_stream": "siggen",
    "ingest_directory": "store",
    "parse_script": "siggen",
    "run_pipeline": "analyzer",
    "serialize_script": "siggen",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
