"""Runtime observability: hook bus, metrics, and trace exporters.

Zero-dependency and off by default — with no subscribers the hook bus is
a guarded no-op and the VM behaves (and performs) exactly as before.
See ``docs/OBSERVABILITY.md`` for the taxonomy and usage.
"""

from .causal import CausalGraph, CausalNode, diff_slices
from .coverage import (CoverageMap, DfaEdgeCoverage, collect_coverage,
                       coverage_signature)
from .debug import TimeTravelDebugger
from .export import ChromeTraceExporter, JsonlExporter
from .federate import Federator
from .fleet import (FLEET_SCHEMA, Counter, CounterFamily, FleetRegistry,
                    Gauge, GaugeFamily, Histogram, HistogramFamily, fold,
                    merge_family_snapshots, merge_histogram)
from .hooks import (HOOK_EVENTS, EventLog, HookBus, HookSubscriber,
                    RecordingSubscriber)
from .metrics import MetricsCollector, render_stats
from .profile import Profiler
from .prom import PROM_CONTENT_TYPE, render_prom, write_prom
from .serve import AdminServer
from .stream import FlightRecorder, LineTee, StreamingJsonlExporter
from .top import Top, snapshot_url_source

__all__ = [
    "HOOK_EVENTS", "HookBus", "HookSubscriber", "RecordingSubscriber",
    "EventLog", "Counter", "Gauge", "Histogram", "MetricsCollector",
    "render_stats", "CounterFamily", "GaugeFamily", "HistogramFamily",
    "FleetRegistry", "FLEET_SCHEMA", "fold", "merge_histogram",
    "merge_family_snapshots",
    "render_prom", "write_prom", "PROM_CONTENT_TYPE",
    "AdminServer", "Federator", "Top", "snapshot_url_source",
    "ChromeTraceExporter", "JsonlExporter",
    "StreamingJsonlExporter", "FlightRecorder", "LineTee", "Profiler",
    "CausalGraph", "CausalNode", "TimeTravelDebugger",
    "diff_slices",
    "CoverageMap", "DfaEdgeCoverage", "collect_coverage",
    "coverage_signature",
]
