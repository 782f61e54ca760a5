"""Deterministic, sampling-aware causal span tracing.

The flight recorder (PR 2) tiles the phases of *one* failover between
*one* replica pair.  The cluster plane needs more: for any of 100k+
flows, which shard, which hop, which bridge phase burned the time?  This
module is the attribution substrate — a causal tree of **spans** stitched
across every layer a flow crosses (workload session → TCP tx/rx →
Ethernet hop → dispatcher NAT steering → bridge divert and
queue-matching → takeover/reintegration), exportable to Perfetto via
:mod:`repro.obs.trace_export`.

Design constraints, in priority order:

* **Passive.**  Like :mod:`repro.obs.metrics`, a span tracer never reads
  the simulation clock and never schedules events; every recording call
  takes ``now`` as an argument.  The ``obs-passive`` lint rule enforces
  this for the whole package.
* **Near-zero disabled cost.**  The :data:`NULL_SPANS` singleton (and
  any tracer built with ``sample_rate=0``) is inert: call sites guard on
  one ``enabled`` attribute, exactly the :data:`~repro.obs.metrics.NULL_METRICS`
  idiom, so a fleet built without tracing pays one branch per hook.
* **Deterministic sampling.**  Head-based: one draw from a named
  :mod:`repro.sim.rng` stream per trace *root* decides the whole tree.
  Ids are drawn from the same stream only for sampled traces, so two
  runs from the same seed produce bit-identical traces at any rate, and
  rate 0 consumes no randomness at all (the capacity artifact is
  byte-identical with tracing off vs. sample-rate 0).

Context propagates two ways:

* **Explicitly** — a :class:`SpanContext` returned by
  :meth:`SpanTracer.trace_root` / :meth:`SpanTracer.start_span` is held
  by the code that owns the span (the workload session generator, the
  takeover procedure).
* **By flow key** — layers that only see a segment in flight (TCP layer,
  Ethernet segment, dispatcher, bridge) look the context up by the
  direction-insensitive :func:`flow_key` of the 4-tuple.  NAT rewrites
  change the key mid-path, so the rewriting layer *aliases* the new key
  to the same context: the dispatcher aliases the shard-side key when it
  pins a flow, and the primary bridge aliases the divert-path key when
  it creates bridge state.  One trace therefore stitches
  client → dispatcher → shard-primary → secondary.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, merge_registries

__all__ = [
    "NOT_SAMPLED",
    "NULL_SPANS",
    "Span",
    "SpanContext",
    "SpanTracer",
    "flow_key",
]

#: Direction-insensitive flow identity: both endpoint tuples, sorted, so
#: a segment and its reply map to the same key.
FlowKey = Tuple[Tuple[int, int], Tuple[int, int]]


def flow_key(ip_a: object, port_a: int, ip_b: object, port_b: int) -> FlowKey:
    """Canonical key for the 4-tuple (order-insensitive endpoints).

    Addresses are anything with an integer ``value`` attribute
    (:class:`~repro.net.addresses.Ipv4Address`); plain ints also work,
    which keeps this module import-free of the net layer.
    """
    value_a = getattr(ip_a, "value", ip_a)
    value_b = getattr(ip_b, "value", ip_b)
    a = (value_a, port_a)
    b = (value_b, port_b)
    return (a, b) if a <= b else (b, a)


class SpanContext:
    """Propagated identity of one span: ``(trace id, span id, sampled)``.

    Unsampled traces share the single :data:`NOT_SAMPLED` sentinel so the
    not-sampled path allocates nothing.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: int, span_id: int, sampled: bool) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def __repr__(self) -> str:
        if not self.sampled:
            return "SpanContext(not-sampled)"
        return f"SpanContext({self.trace_id:016x}/{self.span_id:016x})"


#: Shared context for every unsampled trace.
NOT_SAMPLED = SpanContext(0, 0, False)


class Span:
    """One recorded interval (or instant, when ``end == start``)."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "layer",
        "host", "start", "end", "attrs",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        host: str,
        start: float,
        end: float,
        attrs: Dict[str, object],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id  # 0 = trace root
        self.name = name
        # The layer is the dotted prefix ("tcp.tx" -> "tcp"): the unit the
        # per-layer cost rollup aggregates over.
        self.layer = name.split(".", 1)[0]
        self.host = host
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    def __repr__(self) -> str:
        return (
            f"Span({self.name}@{self.host},"
            f" t={self.start:.6f}+{self.duration * 1e6:.1f}us)"
        )


class SpanTracer:
    """Collects spans for sampled traces; inert at ``sample_rate=0``.

    ``rng`` must be a named stream from :class:`repro.sim.rng.RngRegistry`
    (e.g. ``registry.stream("obs.spans")``) so the sampling decisions and
    ids replay bit-for-bit from the master seed.  ``max_spans`` bounds
    memory ring-style for million-flow runs: once full, the oldest
    finished spans fall off the front.
    """

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        sample_rate: float = 1.0,
        max_spans: Optional[int] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if sample_rate > 0.0 and rng is None:
            raise ValueError("a sampling tracer needs a seeded rng stream")
        self.rng = rng
        self.sample_rate = sample_rate
        #: The one attribute hot paths check (NULL_METRICS idiom).
        self.enabled = sample_rate > 0.0
        self.max_spans = max_spans
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self.traces_started = 0
        self.traces_sampled = 0
        self.spans_dropped_open = 0
        self._open: Dict[int, Span] = {}
        self._flows: Dict[FlowKey, SpanContext] = {}
        # trace id -> flow keys bound to it, so finishing the root
        # releases every alias in O(keys) instead of a table sweep.
        self._trace_keys: Dict[int, List[FlowKey]] = {}

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def trace_root(
        self, name: str, now: float, host: str, **attrs: object
    ) -> SpanContext:
        """Head-based sampling decision + root span for a new trace.

        Exactly one ``rng.random()`` draw per call; id draws happen only
        on the sampled path, so the stream's consumption — and therefore
        every downstream id — is a pure function of the seed and the
        (deterministic) call sequence.
        """
        if not self.enabled:
            return NOT_SAMPLED
        self.traces_started += 1
        assert self.rng is not None
        if self.rng.random() >= self.sample_rate:
            return NOT_SAMPLED
        self.traces_sampled += 1
        trace_id = self.rng.getrandbits(64) or 1
        span_id = self.rng.getrandbits(64) or 1
        ctx = SpanContext(trace_id, span_id, True)
        self._open[span_id] = Span(
            trace_id, span_id, 0, name, host, now, now, dict(attrs)
        )
        return ctx

    def start_span(
        self, parent: SpanContext, name: str, now: float, host: str, **attrs: object
    ) -> SpanContext:
        """Open a child span under ``parent`` (no-op if unsampled)."""
        if not parent.sampled:
            return NOT_SAMPLED
        assert self.rng is not None
        span_id = self.rng.getrandbits(64) or 1
        ctx = SpanContext(parent.trace_id, span_id, True)
        self._open[span_id] = Span(
            parent.trace_id, span_id, parent.span_id, name, host, now, now,
            dict(attrs),
        )
        return ctx

    def finish(self, ctx: SpanContext, now: float, **attrs: object) -> None:
        """Close an open span; closing a trace root releases its flow keys."""
        if not ctx.sampled:
            return
        span = self._open.pop(ctx.span_id, None)
        if span is None:
            return
        span.end = now
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        if span.parent_id == 0:
            self._release_trace(ctx.trace_id)

    def event(
        self, parent: SpanContext, name: str, now: float, host: str, **attrs: object
    ) -> None:
        """Record an instant (zero-duration span) under ``parent``."""
        if not parent.sampled:
            return
        assert self.rng is not None
        span_id = self.rng.getrandbits(64) or 1
        self.spans.append(
            Span(parent.trace_id, span_id, parent.span_id, name, host, now, now,
                 dict(attrs))
        )

    def record_span(
        self,
        parent: SpanContext,
        name: str,
        start: float,
        end: float,
        host: str,
        **attrs: object,
    ) -> None:
        """Record a complete interval in one call (both ends known up
        front — e.g. an Ethernet hop, whose delivery time is computed at
        submission)."""
        if not parent.sampled:
            return
        assert self.rng is not None
        span_id = self.rng.getrandbits(64) or 1
        self.spans.append(
            Span(parent.trace_id, span_id, parent.span_id, name, host, start,
                 end, dict(attrs))
        )

    # ------------------------------------------------------------------
    # flow-key propagation (cross-layer, cross-NAT)
    # ------------------------------------------------------------------

    def bind_flow(self, key: FlowKey, ctx: SpanContext) -> None:
        """Make ``ctx`` discoverable by layers that only see the 4-tuple."""
        if not ctx.sampled:
            return
        self._flows[key] = ctx
        self._trace_keys.setdefault(ctx.trace_id, []).append(key)

    def alias_flow(self, new_key: FlowKey, old_key: FlowKey) -> None:
        """A NAT/divert rewrite changed the flow key: alias the new one.

        No-op when the old key is unbound (unsampled flow) — callers never
        need their own sampled-check beyond the ``enabled`` guard.
        """
        ctx = self._flows.get(old_key)
        if ctx is not None:
            self.bind_flow(new_key, ctx)

    def flow_ctx(self, key: FlowKey) -> Optional[SpanContext]:
        return self._flows.get(key)

    def flow_event(
        self, key: FlowKey, name: str, now: float, host: str, **attrs: object
    ) -> None:
        """Instant under the span bound to ``key`` (miss = unsampled = free)."""
        ctx = self._flows.get(key)
        if ctx is not None:
            self.event(ctx, name, now, host, **attrs)

    def flow_record_span(
        self,
        key: FlowKey,
        name: str,
        start: float,
        end: float,
        host: str,
        **attrs: object,
    ) -> None:
        ctx = self._flows.get(key)
        if ctx is not None:
            self.record_span(ctx, name, start, end, host, **attrs)

    def _release_trace(self, trace_id: int) -> None:
        for key in self._trace_keys.pop(trace_id, []):
            self._flows.pop(key, None)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Finished spans in recording order (the export input)."""
        return list(self.spans)

    def abandon_open(self, now: float) -> int:
        """Close any still-open spans at ``now`` (end-of-run flush).

        Marks them ``truncated`` so the export distinguishes a span that
        genuinely ended from one the run cut off.  Returns the count.
        """
        dangling = sorted(self._open)
        for span_id in dangling:
            span = self._open.pop(span_id)
            span.end = max(span.end, now)
            span.attrs["truncated"] = True
            self.spans.append(span)
            self.spans_dropped_open += 1
        return len(dangling)

    def layer_rollup(self) -> MetricsRegistry:
        """Per-layer cost attribution as a metrics registry.

        One per-layer registry (span counter + duration histogram,
        labelled by host) folded through
        :func:`~repro.obs.metrics.merge_registries` — so span cost
        attribution aggregates exactly like the fleet's per-shard
        metrics: each series reappears with ``layer=<name>`` plus a
        ``layer=all`` aggregate whose percentiles pool every layer.
        """
        per_layer: Dict[str, MetricsRegistry] = {}
        for span in self.spans:
            registry = per_layer.get(span.layer)
            if registry is None:
                registry = per_layer[span.layer] = MetricsRegistry(enabled=True)
            registry.counter("span.count", host=span.host).inc()
            if not span.is_instant:
                registry.histogram(
                    "span.duration_s", host=span.host
                ).observe(span.duration)
        return merge_registries(per_layer, label="layer")

    def __repr__(self) -> str:
        return (
            f"SpanTracer(rate={self.sample_rate}, traces={self.traces_sampled}"
            f"/{self.traces_started}, spans={len(self.spans)})"
        )


def render_trace_tree(
    spans: Iterable[Span], max_traces: Optional[int] = None
) -> str:
    """Indented text rendering of span trees (the CLI timeline view)."""
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    lines: List[str] = []
    # Traces ordered by their earliest span, then id for stability.
    ordered = sorted(
        by_trace.items(), key=lambda item: (min(s.start for s in item[1]), item[0])
    )
    if max_traces is not None:
        ordered = ordered[:max_traces]
    for trace_id, trace_spans in ordered:
        children: Dict[int, List[Span]] = {}
        for span in trace_spans:
            children.setdefault(span.parent_id, []).append(span)
        for group in children.values():
            group.sort(key=lambda s: (s.start, s.span_id))
        lines.append(f"trace {trace_id:016x}")

        def _emit(parent_id: int, depth: int) -> None:
            for span in children.get(parent_id, []):
                attrs = " ".join(
                    f"{k}={v}" for k, v in sorted(span.attrs.items())
                )
                if span.is_instant:
                    timing = f"@{span.start * 1e3:.3f}ms"
                else:
                    timing = (
                        f"@{span.start * 1e3:.3f}ms"
                        f" +{span.duration * 1e6:.1f}us"
                    )
                body = f"{span.name} [{span.host}] {timing}"
                if attrs:
                    body += f" {attrs}"
                lines.append("  " * (depth + 1) + body)
                _emit(span.span_id, depth + 1)

        _emit(0, 0)
    return "\n".join(lines)


#: Shared inert tracer — the default wired through constructors so
#: instrumented layers never need a None check (NULL_METRICS idiom).
NULL_SPANS = SpanTracer(rng=None, sample_rate=0.0)
