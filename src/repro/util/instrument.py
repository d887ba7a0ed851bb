"""Operation counters and timers — now a shim over the metrics registry.

Figure 2 of the paper reports the *time spent in check-and-merge
operations* of the original (CC-style) versus succinct treelet
implementation; Figure 3 adds memory.  The build-up and sampling hot
paths increment a small instrumentation object to regenerate those
plots.  Since the telemetry plane landed, :class:`Instrumentation` is a
**compatibility shim** over
:class:`~repro.telemetry.metrics.MetricsRegistry`: every mutation runs
under the registry's lock (safe for the serve plane's concurrent
request threads), gauges and histograms ride along in snapshots, and
the historical API is preserved exactly —

* ``count(name, amount)`` / ``timer(name)`` mutate as before,
* ``counters`` / ``timings`` are **live mutable mapping views** of the
  registry (``inst.timings["t"] = 1.5`` writes through; missing keys
  read as 0, like the old ``defaultdict`` bags),
* ``snapshot()`` still emits the flat picklable ``count.<name>`` /
  ``time.<name>`` dict (plus ``gauge.`` / ``hist.`` entries when
  present) and ``from_snapshot``/``merge``/``merged`` round-trip it —
  artifact manifests and the process-pool engine transport unchanged.

Pass ``registry=`` to share one registry across components (the
sampling service threads all its handles into a single registry this
way); the default is a private registry per instrumentation, matching
the old per-bag behaviour.
"""

from __future__ import annotations

from typing import Iterator, MutableMapping, Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Instrumentation"]


class _FamilyView(MutableMapping):
    """Live mutable view of one registry family (counters or timers).

    Reads of missing names return the family's zero instead of raising,
    matching the ``defaultdict`` the old implementation exposed; writes
    and deletes go straight through under the registry lock.
    """

    __slots__ = ("_registry", "_family", "_cast")

    def __init__(self, registry: MetricsRegistry, family: str, cast):
        self._registry = registry
        self._family = family
        self._cast = cast

    def _map(self) -> dict:
        return getattr(self._registry, self._family)

    def __getitem__(self, name: str):
        with self._registry.lock:
            return self._cast(self._map().get(name, 0))

    def get(self, name: str, default=None):
        with self._registry.lock:
            mapping = self._map()
            if name in mapping:
                return self._cast(mapping[name])
            return default

    def __setitem__(self, name: str, value) -> None:
        with self._registry.lock:
            self._map()[name] = value

    def __delitem__(self, name: str) -> None:
        with self._registry.lock:
            del self._map()[name]

    def __contains__(self, name: object) -> bool:
        with self._registry.lock:
            return name in self._map()

    def __iter__(self) -> Iterator[str]:
        with self._registry.lock:
            return iter(list(self._map()))

    def __len__(self) -> int:
        with self._registry.lock:
            return len(self._map())

    def clear(self) -> None:
        with self._registry.lock:
            self._map().clear()

    def __repr__(self) -> str:
        with self._registry.lock:
            return f"{self._family.lstrip('_')}({dict(self._map())!r})"


class Instrumentation:
    """Named counters and accumulated timings over a metrics registry.

    Attributes
    ----------
    registry:
        The backing :class:`~repro.telemetry.metrics.MetricsRegistry`
        (private by default, shareable via the constructor argument).
    counters:
        Live view: name → number of times the event happened (e.g.
        ``"check_and_merge"``, ``"merge_success"``,
        ``"batched_samples"``).
    timings:
        Live view: name → total seconds inside :meth:`timer` blocks.
    """

    __slots__ = ("registry", "counters", "timings")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = _FamilyView(self.registry, "_counters", int)
        self.timings = _FamilyView(self.registry, "_timers", float)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.registry.inc(name, amount)

    def timer(self, name: str):
        """Accumulate wall-clock time of the enclosed block under
        ``name``."""
        return self.registry.timer(name)

    def merge(self, other: "Instrumentation") -> None:
        """Fold another instrumentation object into this one."""
        self.registry.merge_snapshot(other.snapshot())

    def reset(self) -> None:
        """Zero every counter, timing, gauge, and histogram."""
        self.registry.reset()

    def snapshot(self) -> "dict[str, float]":
        """Return a flat dict view (counters and timings) for reporting.

        The snapshot is also the cross-process transport: it is plain
        picklable data, and :meth:`from_snapshot` restores an equivalent
        instrumentation object on the other side (the ensemble engine
        ships per-worker snapshots back and merges them).  Registries
        holding gauges or histograms contribute ``gauge.`` / ``hist.``
        entries alongside the classic ``count.`` / ``time.`` ones.
        """
        return self.registry.snapshot()

    @classmethod
    def from_snapshot(cls, snapshot: "dict[str, float]") -> "Instrumentation":
        """Rebuild an instrumentation object from :meth:`snapshot` output."""
        instrumentation = cls()
        instrumentation.registry.merge_snapshot(snapshot)
        return instrumentation

    @classmethod
    def merged(cls, parts: "list[Instrumentation]") -> "Instrumentation":
        """A fresh instrumentation holding the sum of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def __getitem__(self, name: str) -> int:
        return self.counters[name]
