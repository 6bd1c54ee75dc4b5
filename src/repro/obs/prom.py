"""Prometheus text exposition (version 0.0.4) for metric snapshots.

:func:`render_prom` turns a family block
(:meth:`~repro.obs.fleet.FleetRegistry.snapshot`), a ``program.stats()``
or a fleet snapshot (:meth:`repro.runtime.farm.Farm.fleet_snapshot`, a
federator's) into the ``# TYPE`` / sample-line format every
Prometheus-compatible scraper (Prometheus, VictoriaMetrics, Grafana
Agent, ``promtool check metrics``) ingests.  Two delivery paths ship
with the repo: the CLI writes the exposition to a file (``repro run
--prom`` / ``repro farm --prom``, atomically — temp file +
``os.replace`` — so the textfile collector never reads a torn
exposition), and the stdlib HTTP admin server (:mod:`repro.obs.serve`,
``repro farm --serve``) serves it live at ``/metrics``;
:mod:`repro.obs.federate` merges N shard snapshots into one
(docs/OBSERVABILITY.md, "Telemetry plane").

Mapping rules:

* names are sanitised to ``[a-zA-Z_:][a-zA-Z0-9_:]*`` and prefixed
  (default ``repro_``); a family's label names and values become the
  sample's labels: ``repro_reactions_by_trigger_total{trigger="boot"}``;
* gauges emit ``value`` plus ``_min``/``_max`` watermark series;
* histograms emit cumulative ``_bucket{le=…}`` lines, ``_sum`` and
  ``_count`` — percentile estimation moves to the scraper's
  ``histogram_quantile``, which sees exactly the buckets the in-process
  estimator used;
* the scalar ``runtime`` sample of ``program.stats()`` becomes
  ``runtime_*`` gauges and a fleet's live ``instances`` count the
  ``farm_instances`` gauge, both without watermarks.
"""

from __future__ import annotations

import os
import re
from typing import Sequence

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    clean = _NAME_OK.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labels(names: Sequence[str], values: Sequence) -> str:
    if not names:
        return ""
    inner = ",".join(f'{_sanitize(n)}="{_escape(str(v))}"'
                     for n, v in zip(names, values))
    return "{" + inner + "}"


def _num(value) -> str:
    if value is None:
        return "NaN"
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Writer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: list[str] = []
        self._typed: set[str] = set()

    def type_line(self, name: str, kind: str, help_text: str = "") -> None:
        if name in self._typed:
            return
        self._typed.add(name)
        if help_text:
            self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: str, value) -> None:
        self.lines.append(f"{name}{labels} {_num(value)}")

    def counter(self, name: str, value, labelnames=(), labelvalues=()):
        full = self.prefix + _sanitize(name)
        self.type_line(full, "counter")
        self.sample(full, _labels(labelnames, labelvalues), value)

    def gauge(self, name: str, g: dict, labelnames=(), labelvalues=()):
        full = self.prefix + _sanitize(name)
        self.type_line(full, "gauge")
        labels = _labels(labelnames, labelvalues)
        self.sample(full, labels, g["value"])
        for mark in ("min", "max"):
            if mark in g:
                self.type_line(f"{full}_{mark}", "gauge")
                self.sample(f"{full}_{mark}", labels, g[mark])

    def histogram(self, name: str, h: dict, labelnames=(), labelvalues=()):
        full = self.prefix + _sanitize(name)
        self.type_line(full, "histogram")
        cum = 0
        for bound, count in h["buckets"]:
            cum += count
            le = "+Inf" if bound == "inf" else str(bound)
            labels = _labels(tuple(labelnames) + ("le",),
                             tuple(labelvalues) + (le,))
            self.sample(f"{full}_bucket", labels, cum)
        labels = _labels(labelnames, labelvalues)
        self.sample(f"{full}_sum", labels, h["sum"])
        self.sample(f"{full}_count", labels, h["count"])

    def text(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def render_prom(snapshot: dict, prefix: str = "repro_") -> str:
    """Render a snapshot as Prometheus text exposition.

    Accepts a family block (every value carries a ``kind``), or any
    snapshot carrying one under ``families``: ``program.stats()`` (its
    ``runtime`` sample becomes gauges) or a fleet snapshot (its
    ``instances`` count becomes a gauge).
    """
    w = _Writer(prefix)
    if isinstance(snapshot.get("families"), dict):
        if snapshot.get("instances") is not None:
            w.gauge("farm_instances", {"value": snapshot["instances"]})
        # the scheduler's always-on ``runtime`` sample exports under a
        # ``runtime_`` prefix — several keys (``live_trails`` …) are
        # also sampled gauges, and duplicate sample names are illegal
        for name, value in snapshot.get("runtime", {}).items():
            if isinstance(value, (int, float)):
                w.gauge(f"runtime_{name}", {"value": value})
        families = snapshot["families"]
    elif snapshot and all(isinstance(v, dict) and "kind" in v
                          for v in snapshot.values()):
        families = snapshot
    else:
        raise ValueError("not a metrics snapshot: expected a family "
                         "block or a snapshot carrying one")
    for name, fam in families.items():
        labelnames = fam["labels"]
        render = {"counter": w.counter, "gauge": w.gauge,
                  "histogram": w.histogram}[fam["kind"]]
        for labelvalues, value in fam["series"]:
            render(name, value, labelnames, labelvalues)
    return w.text()


#: the Content-Type the exposition format mandates (serve.py sends it)
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def write_prom(snapshot: dict, path, prefix: str = "repro_") -> int:
    """Write the exposition to ``path`` (textfile-collector style);
    returns the number of sample/metadata lines written.

    The write is atomic — rendered to ``<path>.<pid>.tmp`` in the same
    directory, then ``os.replace``d over the target — because the
    Prometheus textfile collector polls the path on its own schedule
    and a torn half-exposition would parse as a truncated scrape.
    """
    text = render_prom(snapshot, prefix=prefix)
    path = str(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return text.count("\n")


__all__ = ["render_prom", "write_prom", "PROM_CONTENT_TYPE"]
