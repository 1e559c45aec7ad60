"""Metric instruments and the service's registry.

Counters (submitted jobs, cache hits), gauges (queue depth) and
fixed-bucket histograms (latencies) scoped by one label, the tenant.
The simulation service owns the one :class:`MetricsRegistry`: host
observation — wall-clock latencies and request counts, always on,
exported through ``/stats`` and :func:`render_prometheus` (``GET
/metrics``) and never digested.

A simulation keeps no registry.  Its metrics
(``detail["telemetry"]["metrics"]``) are read off the modelled state
when the result is built — link token counts, receive-depth
histograms, credit stalls, fire flags — by
:func:`~repro.telemetry.sampler.metrics_snapshot`, which shapes them
with these same instruments.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

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
    The landing bucket is ``bisect_left(bounds, value)``.
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

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` (``times`` observations of it)."""
        self.buckets[bisect_left(self.bounds, value)] += times
        self.count += times
        self.sum += value * times

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
    """Owns every instrument of the service.

    Instruments are created lazily on first touch and identified by
    ``(kind, name, part)``; repeated lookups return the same object, so
    hot-path call sites can also cache the instrument once.
    """

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

    def instruments(self) -> Iterator[Tuple[_Key, object]]:
        """Every ``((kind, name, part), instrument)``, in
        deterministic sorted order."""
        return iter(sorted(self._instruments.items()))


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
