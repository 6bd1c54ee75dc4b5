"""The metric model: counters, gauges and histograms in labelled
families, one registry, one fold.

Every metric in the repo is a *family*: :class:`CounterFamily` /
:class:`GaugeFamily` / :class:`HistogramFamily` name one logical metric
and its label names (``program``, ``trigger``, ``shard``, …); an
unlabelled metric is the family with no label names and one series.  A
family is only a schema.  The series live in a :class:`FleetRegistry` —
the registry of one program, a farm, an admin server or a federator —
in one dict keyed ``(family name, *label values)``, each a plain-int
:class:`Counter` / :class:`Gauge` / :class:`Histogram`.  So a registry
costs one object per series, and one family object can describe the
same metric in every registry that declares it (every program's metrics
collector shares its families).

A single program is a fleet of one: :func:`fold` merges any number of
live registries into a fresh one — counters sum, gauges sum their
values and fold their ``min``/``max`` watermarks, and histograms merge
bucket-by-bucket, so a rolled-up histogram yields true
**cross-instance percentiles** (the p99 over every reaction on every
instance, not an average of per-instance p99s).  The farm rollup,
federation (after :meth:`FleetRegistry.from_snapshot` rehydrates each
shard) and the watchdog all use it.

A :meth:`FleetRegistry.snapshot` — the *family block* — is a nested
dict of primitives, directly JSON-serialisable and renderable by
:func:`repro.obs.prom.render_prom`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence

#: version of the fleet snapshot shape (``Farm.fleet_snapshot()``, a
#: federator's snapshot, ``GET /snapshot``): one family block under
#: ``families`` beside the scalar fleet fields
FLEET_SCHEMA = 2

#: default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket)
POW2_BUCKETS: tuple[int, ...] = tuple(1 << i for i in range(0, 21, 2))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value; remembers its high- and low-water marks.

    Occupancy-style gauges (live instances, queued events) move by
    deltas — :meth:`inc`/:meth:`dec` keep that a single call instead of
    a read-modify-``set()`` at every site.
    """

    __slots__ = ("value", "max", "min")

    def __init__(self) -> None:
        self.value = 0
        self.max = 0
        self.min = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def inc(self, n: int = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: int = 1) -> None:
        self.set(self.value - n)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are ascending inclusive upper bounds; one extra overflow
    bucket catches everything above the last bound.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[int] = POW2_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # the first bound >= value, or the overflow bucket past the last
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (0–100) from the buckets.

        Linear interpolation inside the bucket that holds the target
        rank, clamped to the exact observed ``min``/``max`` so small
        sample counts never extrapolate past reality.  ``None`` when
        empty.
        """
        if not self.count:
            return None
        target = q / 100.0 * self.count
        cum = 0
        lo = 0
        for bound, c in zip(self.bounds, self.counts):
            cum += c
            if cum >= target and c:
                frac = (target - (cum - c)) / c
                value = lo + (bound - lo) * frac
                return float(min(max(value, self.min), self.max))
            lo = bound
        return float(self.max)  # target rank lives in the overflow bucket

    def percentiles(self, qs=(50, 95, 99)) -> dict:
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def snapshot(self) -> dict:
        snap = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": [[bound, c] for bound, c
                        in zip(self.bounds, self.counts)] +
                       [["inf", self.counts[-1]]],
        }
        snap.update(self.percentiles())
        return snap


class _Family:
    """One metric's schema: name, kind and label names.

    Each kind supplies ``_make()`` (a zero series), ``_value(child)``
    (its snapshot value), ``_merge(into, child)`` (``child`` folded into
    ``into``) and ``_load(child, value)`` (set from a validated snapshot
    value).
    """

    __slots__ = ("name", "labelnames", "key")

    kind = "untyped"

    def __init__(self, name: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.labelnames = tuple(labelnames)
        #: ``(name,)``: the key of the unlabelled series, shared by every
        #: registry that declares the family, and the prefix of the rest
        self.key = (name,)

    def schema(self) -> tuple:
        return (self.kind, self.labelnames)

    def __repr__(self) -> str:
        return " ".join(map(str, self.schema()))

    def snapshot(self) -> dict:
        """This family's block entry, its ``series`` still empty."""
        return {"kind": self.kind, "labels": list(self.labelnames),
                "series": []}


class CounterFamily(_Family):
    """A family of :class:`Counter` series."""

    __slots__ = ()

    kind = "counter"

    def _make(self) -> Counter:
        return Counter()

    def _value(self, child: Counter) -> int:
        return child.value

    def _merge(self, into: Counter, child: Counter) -> None:
        into.value += child.value

    def _load(self, child: Counter, value) -> None:
        child.value = _number(value)


class GaugeFamily(_Family):
    """A family of :class:`Gauge` series; a fold sums values (fleet
    occupancy) and folds the ``min``/``max`` watermarks."""

    __slots__ = ()

    kind = "gauge"

    def _make(self) -> Gauge:
        return Gauge()

    def _value(self, child: Gauge) -> dict:
        return {"value": child.value, "min": child.min, "max": child.max}

    def _merge(self, into: Gauge, child: Gauge) -> None:
        into.value += child.value
        if child.min < into.min:
            into.min = child.min
        if child.max > into.max:
            into.max = child.max

    def _load(self, child: Gauge, value: dict) -> None:
        child.value, child.min, child.max = (
            _number(value[k]) for k in ("value", "min", "max"))


class HistogramFamily(_Family):
    """A family of :class:`Histogram` series sharing bucket bounds."""

    __slots__ = ("bounds",)

    kind = "histogram"

    def __init__(self, name: str, labelnames: Sequence[str] = (),
                 bounds: Sequence[int] = POW2_BUCKETS):
        super().__init__(name, labelnames)
        self.bounds = tuple(bounds)

    def schema(self) -> tuple:
        return (self.kind, self.labelnames, self.bounds)

    def _make(self) -> Histogram:
        return Histogram(self.bounds)

    def _value(self, child: Histogram) -> dict:
        return child.snapshot()

    def _merge(self, into: Histogram, child: Histogram) -> None:
        merge_histogram(into, child)

    def _load(self, child: Histogram, value: dict) -> None:
        buckets = value["buckets"]
        if [b for b, _ in buckets] != [*self.bounds, "inf"]:
            raise ValueError("histogram bounds differ within the family")
        child.counts = [_number(c) for _, c in buckets]
        child.count = _number(value["count"])
        child.total = _number(value["sum"])
        child.min, child.max = (None if value[k] is None
                                else _number(value[k])
                                for k in ("min", "max"))


class FleetRegistry:
    """Declared families and their series.

    Declaring a family twice checks its schema, so two call sites cannot
    silently create incompatible series under one name.
    :meth:`labels` is the hot path: a single dict lookup when the series
    exists (string label values are their own key), lazy creation when
    it does not.
    """

    def __init__(self) -> None:
        self.families: dict[str, _Family] = {}
        #: ``(family name, *label values)`` → Counter / Gauge / Histogram
        self.series: dict[tuple, object] = {}

    def declare(self, family: _Family) -> _Family:
        """Register ``family`` (or return the one already registered
        under its name, when the schemas agree).  An unlabelled family
        is one series, there from its declaration."""
        have = self.families.get(family.name)
        if have is None:
            self.families[family.name] = family
            if not family.labelnames:
                self.series[family.key] = family._make()
            return family
        if have is not family and have.schema() != family.schema():
            raise ValueError(f"family {family.name!r} already registered "
                             f"as {have!r}, not {family!r}")
        return have

    def counter_family(self, name: str,
                       labelnames: Sequence[str] = ()) -> CounterFamily:
        return self.declare(CounterFamily(name, labelnames))

    def gauge_family(self, name: str,
                     labelnames: Sequence[str] = ()) -> GaugeFamily:
        return self.declare(GaugeFamily(name, labelnames))

    def histogram_family(self, name: str, labelnames: Sequence[str] = (),
                         bounds: Sequence[int] = POW2_BUCKETS
                         ) -> HistogramFamily:
        return self.declare(HistogramFamily(name, labelnames, bounds))

    def labels(self, family: _Family, *values):
        """The series of ``family`` at ``values`` (positional, one per
        label name), created on first use."""
        key = family.key + values
        child = self.series.get(key)
        if child is None:
            key = family.key + tuple(map(str, values))
            child = self.series.get(key)
            if child is None:
                if len(values) != len(family.labelnames):
                    raise ValueError(
                        f"family {family.name!r} takes "
                        f"{len(family.labelnames)} label(s) "
                        f"{family.labelnames}, got {len(values)}")
                if self.families.get(family.name) is not family:
                    raise ValueError(f"family {family.name!r} is not "
                                     f"declared in this registry")
                child = self.series[key] = family._make()
        return child

    def get(self, name: str, *values):
        """The series of family ``name`` at ``values``, or ``None`` —
        never creates one."""
        return self.series.get((name, *map(str, values)))

    def snapshot(self) -> dict:
        """The family block: ``{name: {"kind", "labels", "series"}}``,
        families by name, series by label values."""
        block = {name: fam.snapshot()
                 for name, fam in sorted(self.families.items())}
        for key in sorted(self.series):
            block[key[0]]["series"].append([
                list(key[1:]),
                self.families[key[0]]._value(self.series[key])])
        return block

    @classmethod
    def from_snapshot(cls, block) -> "FleetRegistry":
        """Rehydrate a family block (a shard's, read back from JSON)
        into live series.  Anything that is not a well-formed block
        raises ``ValueError``, so a bad payload is refused where it
        arrives instead of where it is rendered."""
        if not isinstance(block, dict):
            raise ValueError(f"family block is a {type(block).__name__}, "
                             f"not an object")
        reg = cls()
        makers = {"counter": reg.counter_family,
                  "gauge": reg.gauge_family,
                  "histogram": reg.histogram_family}
        for name, fam in block.items():
            try:
                labels, series = fam["labels"], fam["series"]
                if not isinstance(labels, list) or not all(
                        isinstance(label, str) for label in labels):
                    raise TypeError("label names must be strings")
                args = []
                if fam["kind"] == "histogram" and series:
                    args = [[_number(b) for b, _ in
                             series[0][1]["buckets"][:-1]]]
                family = makers[fam["kind"]](name, labels, *args)
                for key, value in series:
                    if not isinstance(key, list):
                        raise TypeError(f"label values {key!r} are not a "
                                        f"list")
                    family._load(reg.labels(family, *key), value)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise ValueError(f"malformed family {name!r}: "
                                 f"{type(exc).__name__}: {exc}") from None
        return reg


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value


# ------------------------------------------------------------------- fold
def merge_histogram(into: Histogram, other: Histogram) -> Histogram:
    """Fold ``other`` into ``into`` bucket-by-bucket (bounds must match)."""
    if into.bounds != other.bounds:
        raise ValueError(f"histogram bounds differ: {into.bounds} vs "
                         f"{other.bounds}")
    for i, c in enumerate(other.counts):
        into.counts[i] += c
    into.count += other.count
    into.total += other.total
    if other.min is not None and (into.min is None or other.min < into.min):
        into.min = other.min
    if other.max is not None and (into.max is None or other.max > into.max):
        into.max = other.max
    return into


def fold(registries: Iterable[FleetRegistry],
         names: Optional[Sequence[str]] = None) -> FleetRegistry:
    """Merge live registries into a fresh one, series by series.

    Series are keyed on (family, label values): counters sum, gauges sum
    values and fold ``min``/``max``, histograms bucket-merge.  Disjoint
    families and series pass through; ``names`` restricts the fold to
    those families.  The inputs are never mutated.  One family with
    different kinds, label names or bucket bounds across registries
    raises — a schema skew between shards is a deploy problem worth
    surfacing, not averaging away.
    """
    out = FleetRegistry()
    families, merged = out.families, out.series
    for reg in registries:
        for name, fam in reg.families.items():
            if names is not None and name not in names:
                continue
            have = families.get(name)
            if have is None:
                families[name] = fam
            elif have is not fam and have.schema() != fam.schema():
                raise ValueError(f"family {name!r} schema skew: {have!r} "
                                 f"vs {fam!r}")
        for key, child in reg.series.items():
            fam = families.get(key[0])
            if fam is not None:
                into = merged.get(key)
                if into is None:
                    into = merged[key] = fam._make()
                fam._merge(into, child)
    return out


def merge_family_snapshots(blocks: Sequence[dict]) -> dict:
    """:func:`fold` over family blocks (rehydrated first); returns the
    merged block."""
    return fold(FleetRegistry.from_snapshot(b) for b in blocks).snapshot()


# --------------------------------------------------------------- reading
def sample(block: dict, name: str, default=None):
    """The value of family ``name``'s unlabelled series in a family
    block, or ``default`` when it has none."""
    for key, value in block.get(name, {}).get("series", ()):
        if not key:
            return value
    return default


def series_name(name: str, labelnames: Sequence[str],
                values: Sequence) -> str:
    """``name`` or ``name{label="value",…}``: the flat key of one
    series (``--stats`` rows, bench counters)."""
    if not labelnames:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in zip(labelnames, values))
    return f"{name}{{{inner}}}"


def counter_samples(block: dict) -> dict:
    """Every counter series of a family block under its flat key."""
    return {series_name(name, fam["labels"], key): value
            for name, fam in block.items() if fam["kind"] == "counter"
            for key, value in fam["series"]}


__all__ = ["Counter", "Gauge", "Histogram", "POW2_BUCKETS",
           "CounterFamily", "GaugeFamily", "HistogramFamily",
           "FleetRegistry", "FLEET_SCHEMA", "fold", "merge_histogram",
           "merge_family_snapshots", "sample", "series_name",
           "counter_samples"]
