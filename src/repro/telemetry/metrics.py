"""Metric instruments and the pay-as-you-go registry.

The telemetry layer complements the event tracer: instead of a stream
of individual events, it maintains *aggregates* — counters (token
crossings, credit stalls), gauges (last-seen values) and fixed-bucket
histograms (receiver in-flight depths) — cheap enough to leave on for
long runs, and a :class:`~repro.telemetry.sampler.Sampler` that turns
them into deterministic time-series.

Every instrument carries one scope label: the partition (``part``) for
a simulation, the tenant for the service.  For a simulation that is
not cosmetic: under the process backend each partition's worker owns
exactly the instruments labelled with its partition, which is what lets
the coordinator merge per-worker registries back into one with no
double counting — the same ownership rule the state-fragment merge
already uses for links and arrival queues.

Like the tracer, the default is a :data:`NULL_METRICS` registry whose
``enabled`` flag is ``False``; every instrument site in the harness
guards on that flag, so an uninstrumented interpreted run pays one
attribute read per potential update.  The compiled step plane prints a
live registry's updates as field bumps (``counter.value += 1.0``, the
histogram's bucket/count/sum) and prints nothing for the null one
(``TestGeneratedSources::
test_null_sinks_print_the_untraced_plane`` in
``tests/harness/test_stepjit.py``).

Which registry object an instrument lives in decides what it may hold.
A simulation's ``Telemetry.registry`` is *target-deterministic*: every
value derives from modelled host time and token counts — never python
wall time — so identical runs produce identical metrics on any backend,
and its snapshot is part of the result digest.  The service's registry
is *host observation*: wall-clock latencies and request counts,
always on, exported through ``/stats`` and :func:`render_prometheus`
(``GET /metrics``) and never digested.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (the last bucket is +inf)
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)

_Key = Tuple[str, str, str]  # (kind, name, part)


class Counter:
    """A monotonically increasing sum (count or accumulated ns)."""

    __slots__ = ("name", "part", "value")

    def __init__(self, name: str, part: str = ""):
        self.name = name
        self.part = part
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-written value (queue depth, current rate)."""

    __slots__ = ("name", "part", "value")

    def __init__(self, name: str, part: str = ""):
        self.name = name
        self.part = part
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucket histogram plus count and sum.

    ``buckets[i]`` counts observations ``<= bounds[i]``; the trailing
    bucket counts the rest.  Bounds are fixed at construction so two
    histograms of the same instrument always merge bucket-for-bucket.
    The landing bucket is ``bisect_left(bounds, value)``, the one rule
    :meth:`observe` and the compiled step plane's printed bump share.
    """

    __slots__ = ("name", "part", "bounds", "buckets", "count", "sum")

    def __init__(self, name: str, part: str = "",
                 bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.part = part
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0..1) by interpolating within the
        landing bucket; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0.0
        lower = 0.0
        for bound, inside in zip(self.bounds, self.buckets):
            if seen + inside >= rank:
                frac = (rank - seen) / inside if inside else 0.0
                return lower + (bound - lower) * frac
            seen += inside
            lower = bound
        # landed past the last finite bound: report that bound (the
        # honest answer is "at least this much")
        return self.bounds[-1]

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Owns every instrument of one run.

    Instruments are created lazily on first touch and identified by
    ``(kind, name, part)``; repeated lookups return the same object, so
    hot-path call sites can also cache the instrument once.
    """

    #: instrument sites skip updates entirely when False
    enabled: bool = True

    def __init__(self):
        self._instruments: Dict[_Key, object] = {}

    # -- instrument access ------------------------------------------------

    def _get(self, kind: str, make, name: str, part: str, *args):
        key = (kind, name, part)
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = make(name, part, *args)
        return inst

    def counter(self, name: str, part: str = "") -> Counter:
        return self._get("counter", Counter, name, part)

    def gauge(self, name: str, part: str = "") -> Gauge:
        return self._get("gauge", Gauge, name, part)

    def histogram(self, name: str, part: str = "",
                  bounds: Tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get("histogram", Histogram, name, part, bounds)

    def value(self, kind: str, name: str, part: str = "") -> float:
        """Current value of a counter/gauge (0.0 when untouched)."""
        inst = self._instruments.get((kind, name, part))
        return inst.value if inst is not None else 0.0

    def instruments(self) -> Iterator[Tuple[_Key, object]]:
        """Every ``((kind, name, part), instrument)``, in
        deterministic sorted order."""
        return iter(sorted(self._instruments.items()))

    # -- snapshots --------------------------------------------------------

    def snapshot(self, part: Optional[str] = None) -> dict:
        """JSON-able state of every instrument (optionally one
        partition's), in deterministic sorted order."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {},
                                "histograms": {}}
        for (kind, name, p), inst in self.instruments():
            if part is not None and p != part:
                continue
            key = f"{name}|{p}"
            if kind == "counter":
                out["counters"][key] = inst.value
            elif kind == "gauge":
                out["gauges"][key] = inst.value
            else:
                out["histograms"][key] = inst.as_dict()
        return out

    def load_snapshot(self, state: dict,
                      part: Optional[str] = None) -> None:
        """Restore instruments from :meth:`snapshot` output.  With
        ``part`` given, only that partition's instruments are loaded
        (the coordinator's per-worker merge)."""
        def owned(section: str):
            for key, value in state.get(section, {}).items():
                name, p = key.rsplit("|", 1)
                if part is None or p == part:
                    yield name, p, value

        for name, p, value in owned("counters"):
            self.counter(name, p).value = value
        for name, p, value in owned("gauges"):
            self.gauge(name, p).value = value
        for name, p, entry in owned("histograms"):
            hist = self.histogram(name, p,
                                  bounds=tuple(entry["bounds"]))
            hist.buckets = list(entry["buckets"])
            hist.count = entry["count"]
            hist.sum = entry["sum"]

    def partitions(self) -> List[str]:
        """Partition labels that own at least one instrument."""
        return sorted({p for (_, _, p) in self._instruments})


class _NullInstrument:
    """Absorbs updates; shared by every null-registry lookup."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:  # pragma: no cover
        pass

    def set(self, value: float) -> None:  # pragma: no cover
        pass

    def observe(self, value: float) -> None:  # pragma: no cover
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """The default no-op registry: nothing recorded, nothing paid."""

    enabled = False

    def _get(self, kind, make, name, part, *args):  # pragma: no cover
        return _NULL_INSTRUMENT


#: shared default registry — attach sites use this instead of None checks
NULL_METRICS = NullMetricsRegistry()


# -- the Prometheus text exposition ------------------------------------------

def _label(name: str, value: object) -> str:
    """``name="value"`` with the value escaped per the text format."""
    text = str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")
    return f'{name}="{text}"'


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def render_prometheus(
        registry: MetricsRegistry,
        families: Sequence[Tuple[str, str,
                                 Mapping[str, Mapping[str, str]]]],
        label: str = "part") -> str:
    """The Prometheus text exposition (version 0.0.4) of ``registry``.

    Each ``(metric, kind, members)`` row of ``families`` renders one
    metric family: ``members`` maps the instrument names that belong
    to it to the fixed labels each contributes (``{}`` for none); the
    instrument's scope becomes the ``label`` label when non-empty.  A
    counter or gauge family with no instrument yet renders a bare
    ``metric 0``.
    """
    lines: List[str] = []
    instruments = list(registry.instruments())

    def sample(name: str, pairs: List[str], value: str) -> None:
        labels = "{" + ",".join(pairs) + "}" if pairs else ""
        lines.append(f"{name}{labels} {value}")

    for metric, kind, members in families:
        lines.append(f"# TYPE {metric} {kind}")
        empty = True
        for (inst_kind, name, scope), inst in instruments:
            if inst_kind != kind or name not in members:
                continue
            empty = False
            pairs = [_label(k, v) for k, v in members[name].items()]
            if scope:
                pairs.append(_label(label, scope))
            if kind != "histogram":
                sample(metric, pairs, _number(inst.value))
                continue
            cumulative = 0
            for bound, inside in zip(inst.bounds, inst.buckets):
                cumulative += inside
                sample(f"{metric}_bucket",
                       pairs + [_label("le", f"{bound:g}")],
                       str(cumulative))
            sample(f"{metric}_bucket", pairs + [_label("le", "+Inf")],
                   str(inst.count))
            sample(f"{metric}_sum", pairs, f"{inst.sum:.9g}")
            sample(f"{metric}_count", pairs, str(inst.count))
        if empty and kind != "histogram":
            lines.append(f"{metric} 0")
    return "\n".join(lines) + "\n"
