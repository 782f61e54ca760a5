"""One spelling of telemetry per layer: a table of named events.

A layer declares what can happen in an ``EVENTS`` table of
:class:`EventSpec` rows and reports each occurrence through one call,
:meth:`EventSource._event`, which fans it out to the plain counters tests
read, the metrics registry, the tracer and the span tracer.  The tables are
the inventory: DESIGN.md Appendix A and every emit site are checked against
them (``tests/failover/test_events.py``, ``tests/tcp/test_events.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.spans import FlowKey, SpanTracer
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer


class EventSpec(NamedTuple):
    """What each consumer does with one named event.  Field names refer to
    the keyword arguments of the :meth:`EventSource._event` call."""

    #: plain counter attribute on the source, which creates it at 0 (tests
    #: and benchmarks read it)
    stat: Optional[str] = None
    #: counters: (metric name, field holding the amount — None counts 1)
    counters: Tuple[Tuple[str, Optional[str]], ...] = ()
    #: histograms: (metric name, field observed, extra labels)
    histograms: Tuple[Tuple[str, str, Mapping[str, str]], ...] = ()
    #: trace category, then its detail fields in dump order
    trace: Tuple[str, ...] = ()
    #: span flow event, then its attribute fields
    span: Tuple[str, ...] = ()
    #: attribute holding an optional ``callable(key)`` the event notifies
    hook: Optional[str] = None

    def fields(self) -> Tuple[str, ...]:
        """Every field the row reads, once each: the trace's, then the rest."""
        reads = self.trace[1:] + self.span[1:]
        reads += tuple(amount for _, amount in self.counters if amount)
        reads += tuple(seen for _, seen, _ in self.histograms)
        return tuple(dict.fromkeys(reads))


class EventSource:
    """A layer object that reports through an ``EVENTS`` table.

    The subclass sets ``sim``, ``tracer`` and ``spans``, calls
    :meth:`_bind_events` once, and says in :meth:`_flow` which flow a
    span-bearing event's subject belongs to.
    """

    #: name -> :class:`EventSpec`; each layer class declares its own.
    EVENTS: Dict[str, EventSpec] = {}

    sim: "Simulator"
    tracer: "Tracer"
    spans: "SpanTracer"

    def _bind_events(self, metrics: MetricsRegistry, node: str) -> None:
        """The table bound to this host: metric names become labelled
        instruments — none at all under the inert registry, and no span
        under an inert span tracer, so a per-segment event makes no calls
        that do nothing (``Cpu.run`` does the same) — and an event that
        only traces, as most per-segment ones do, carries nothing else."""
        self._node = node
        metered = metrics is not NULL_METRICS
        self._events: Dict[str, Tuple[Any, ...]] = {}
        for name, event in self.EVENTS.items():
            if event.stat:
                setattr(self, event.stat, 0)
            # A site passes exactly the fields its row reads, the trace's
            # first and in the table's order (the tests named above hold
            # every site to it): where no other consumer reads more, the
            # keyword dict already is the record's detail.
            detail = event.trace[1:] if event.fields() != event.trace[1:] else None
            category = event.trace[0] if event.trace else None
            if not metered:
                event = event._replace(counters=(), histograms=())
            if not self.spans.enabled:  # fixed when the span tracer is built
                event = event._replace(span=())
            rest = None
            if event._replace(trace=()) != EventSpec():
                rest = (
                    event.stat,
                    tuple(
                        (metrics.counter(metric, host=node), amount)
                        for metric, amount in event.counters
                    ),
                    tuple(
                        (metrics.histogram(metric, host=node, **labels), seen)
                        for metric, seen, labels in event.histograms
                    ),
                    event.span,
                    event.hook,
                )
            self._events[name] = (category, detail, rest)

    def _flow(self, subject: Any) -> "FlowKey":
        """The flow whose trace a span event about ``subject`` joins."""
        raise NotImplementedError

    def _event(self, name: str, subject: Any = None, **fields: object) -> None:
        """The layer's one emission point: ``name`` happened (to
        ``subject``, if it concerns one).  A callable field is a deferred
        renderer: the tracer calls it only if the record is observed, the
        span tracer only if spans are on."""
        category, detail, rest = self._events[name]
        if category:
            tracer, traced = self.tracer, fields
            # An unobserved emit only counts; what it is handed is not looked at.
            if detail is not None and (tracer._record or tracer._subscribers):
                traced = {key: fields[key] for key in detail}
            tracer.emit(self.sim.now, category, self._node, **traced)
        if rest is None:
            return
        stat, counters, histograms, span, hook = rest
        if stat:
            self.__dict__[stat] += 1  # per segment: no getattr/setattr pair
        for counter, amount in counters:
            counter.inc(fields[amount] if amount else 1)
        for histogram, seen in histograms:
            histogram.observe(fields[seen])
        if span:
            attrs = {}
            for key in span[1:]:
                value = fields[key]
                attrs[key] = value() if callable(value) else value
            self.spans.flow_event(
                self._flow(subject), span[0], self.sim.now, self._node, **attrs
            )
        if hook:
            callback = getattr(self, hook)
            if callback is not None:
                callback(subject.key)
