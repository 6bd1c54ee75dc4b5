"""Unified static-analysis engine (docs/ANALYSIS.md).

Turns the compiler's prototype first-error-and-raise analyses
(:mod:`repro.sema.bounded`, :mod:`repro.dfa`) into a diagnostics
subsystem: a pass pipeline over a ``BoundProgram`` + DFA that
*accumulates* typed diagnostics with source spans, attaches replayable
witnesses to nondeterminism conflicts, derives static resource bounds
from the DFA, and renders text / JSON / SARIF 2.1.0 reports
(``repro lint``).
"""

from .bounds import ResourceBounds, TrailBounds, compute_bounds, \
    memory_bounds
from .diagnostics import Diagnostic, Report, Severity
from .engine import run_analysis
from .incremental import IncrementalAnalyzer
from .sarif import sarif_json, to_sarif
from .witness import Witness

__all__ = [
    "Diagnostic", "Report", "Severity",
    "ResourceBounds", "TrailBounds", "compute_bounds", "memory_bounds",
    "Witness",
    "run_analysis", "IncrementalAnalyzer",
    "to_sarif", "sarif_json",
]
