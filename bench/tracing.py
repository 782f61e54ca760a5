"""Span tracing installed from outside the program.

The traced run wraps a fixed list of entry points (:data:`BOUNDARIES`), looked
up **by name** when :meth:`Recorder.install` runs.  Nothing under ``src/`` is
edited for the purpose, and a name that no longer exists is counted in
``trace.boundaries_missing`` -- its time then falls to the enclosing span --
because later changes to the program may not edit this package.

Span model
----------
* The root of every simulator event is a span around ``Timer._fire``; its
  layer is the package that owns the callback the timer carries.
* Every generator a ``Process`` drives is proxied, so each resumption is a span
  whose layer is the package that defined the generator (application code in
  ``repro.apps``/``repro.workload``/``bench`` is the ``apps`` layer).
* Every other boundary is a span around one call or, for a generator
  function, around each resumption of the generator it returns.

A span's *self time* is its duration minus its child spans; its *layer time*
is its duration minus descendants that belong to another layer.  Aggregates
(count, duration, self, layer time per boundary) are kept online; raw spans --
name, layer, start, end, parent and the id of the simulator event they ran
under -- are kept for a seeded 1 % of events and written out at the end.

Watching costs time: a wrapper's own work lands partly inside the span it
measures and partly in the parent's self time, which would inflate whichever
layer makes the most (and cheapest) wrapped calls -- the scheduler loop first.
:meth:`Recorder.install` therefore calibrates both costs on an empty function
and :meth:`Recorder.corrected_self` subtracts them, per span and per child.

Counts are taken by small probes at the same boundaries (:class:`Probes`), so
ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
import sys
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers are the repo's packages; index ``len(LAYERS)`` is "unattributed".
LAYERS = ("sim", "net", "tcp", "failover", "cluster", "apps", "obs")
SIM = LAYERS.index("sim")
OTHER = len(LAYERS)
LAYER_NAMES = LAYERS + ("other",)

#: Module -> layer, most specific prefix first.
_MODULE_LAYERS = (
    ("repro.sim.trace", "obs"),
    ("repro.harness.invariants", "obs"),
    ("repro.obs", "obs"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.tcp", "tcp"),
    ("repro.failover", "failover"),
    ("repro.cluster", "cluster"),
    ("repro.apps", "apps"),
    ("repro.workload", "apps"),
    ("bench", "apps"),  # the benchmark's client drivers are the application
)

SAMPLE_RATE = 0.01
MAX_RAW_SPANS = 60_000

#: ``module:Owner.attr`` (or ``module:function``) -> probe name or None.
#: Private names are deliberate: they are where the layer's work happens, and
#: a rename only moves them to ``trace.boundaries_missing``.
BOUNDARIES: Tuple[Tuple[str, Optional[str]], ...] = (
    # -- sim: engine, wheel, process ------------------------------------
    ("repro.sim.engine:Timer._fire", "EVENT"),
    ("repro.sim.process:Process.__init__", "PROCESS"),
    ("repro.sim.engine:Simulator.run", "RUN"),
    ("repro.sim.engine:Simulator.run_until", "RUN"),
    ("repro.sim.engine:Simulator.schedule", None),
    ("repro.sim.engine:Simulator.call_at", "timer_scheduled"),
    ("repro.sim.engine:Timer.cancel", "timer_cancel"),
    ("repro.sim.wheel:TimerWheel.push", None),
    ("repro.sim.wheel:TimerWheel.peek", None),
    ("repro.sim.wheel:TimerWheel.pop", None),
    ("repro.sim.wheel:TimerWheel.compact", None),
    ("repro.sim.engine:HeapEventQueue.push", None),
    ("repro.sim.engine:HeapEventQueue.peek", None),
    ("repro.sim.engine:HeapEventQueue.pop", None),
    ("repro.sim.engine:HeapEventQueue.compact", None),
    ("repro.sim.process:Event.succeed", None),
    ("repro.sim.process:Event.fail", None),
    # -- net: nic, ethernet, arp, ip, host/Cpu, wan -----------------------
    ("repro.net.nic:Nic.send", None),
    ("repro.net.nic:Nic.frame_arrived", None),
    ("repro.net.ethernet:EthernetSegment.submit", "eth_submit"),
    ("repro.net.arp:ArpService.resolve", None),
    ("repro.net.arp:ArpService.handle_frame", None),
    ("repro.net.arp:ArpService.announce", None),
    ("repro.net.ip:EthernetInterface.send_datagram", None),
    ("repro.net.ip:IpLayer.send", None),
    ("repro.net.ip:IpLayer.frame_received", None),
    ("repro.net.ip:IpLayer.datagram_received", None),
    ("repro.net.host:Host.transport_out", None),
    ("repro.net.host:Host.send_ip", None),
    ("repro.net.host:Host.datagram_from_wan", None),
    ("repro.net.host:Cpu.run", "cpu_run"),
    ("repro.net.wan:WanDirection.send", None),
    # -- tcp: segment, layer, connection, buffers, socket_api --------------
    ("repro.tcp.layer:TcpLayer.receive_segment", "tcp_rx"),
    ("repro.tcp.layer:TcpLayer.send_segment", "tcp_tx"),
    ("repro.tcp.layer:TcpLayer.connect", None),
    ("repro.tcp.layer:TcpLayer.allocate_ephemeral_port", None),
    ("repro.tcp.layer:TcpLayer.retire_to_linger", None),
    ("repro.tcp.connection:TcpConnection.segment_arrived", None),
    ("repro.tcp.connection:TcpConnection.write", None),
    ("repro.tcp.connection:TcpConnection.read", None),
    ("repro.tcp.connection:TcpConnection.close", None),
    ("repro.tcp.buffers:SendBuffer.write", None),
    ("repro.tcp.buffers:SendBuffer.ack_bytes", None),
    ("repro.tcp.buffers:ReceiveBuffer.receive", None),
    ("repro.tcp.segment:TcpSegment.sealed", None),
    ("repro.tcp.segment:TcpSegment.checksum_ok", None),
    ("repro.tcp.segment:payload_sum", "payload_sum"),
    ("repro.tcp.segment:incremental_rewrite", None),
    ("repro.tcp.socket_api:SimSocket.wait_connected", None),
    ("repro.tcp.socket_api:SimSocket.send_all", None),
    ("repro.tcp.socket_api:SimSocket.recv", None),
    ("repro.tcp.socket_api:SimSocket.recv_exactly", None),
    ("repro.tcp.socket_api:SimSocket.close_and_wait", None),
    ("repro.tcp.socket_api:ListeningSocket.accept", None),
    # -- failover: primary, secondary, queues, merge, takeover -------------
    ("repro.failover.primary:PrimaryBridge.segment_from_tcp", "bridge_in"),
    ("repro.failover.primary:PrimaryBridge.datagram_from_ip", "bridge_in"),
    ("repro.failover.secondary:SecondaryBridge.segment_from_tcp", "bridge_in"),
    ("repro.failover.secondary:SecondaryBridge.datagram_from_ip", "bridge_in"),
    ("repro.failover.primary:PrimaryBridge._emit", "bridge_emit"),
    ("repro.failover.primary:PrimaryBridge.secondary_failed", None),
    ("repro.failover.primary:PrimaryBridge.resume_merge", None),
    ("repro.failover.queues:OutputQueue.enqueue", "queue_enqueue"),
    ("repro.failover.queues:OutputQueue.pop", None),
    ("repro.failover.queues:OutputQueue.drain", "queue_drain"),
    ("repro.failover.queues:match_prefix", "match_prefix"),
    ("repro.failover.merge:AckWindowMerge.update_from_primary", None),
    ("repro.failover.merge:AckWindowMerge.update_from_secondary", None),
    ("repro.failover.takeover:perform_ip_takeover", None),
    ("repro.failover.takeover:TakeoverProcedure.run", None),
    ("repro.failover.reintegration:perform_reintegration", None),
    # -- cluster: dispatcher, flowtable, hashing ---------------------------
    ("repro.cluster.dispatcher:VirtualService._tap", None),
    ("repro.cluster.flowtable:FlowTable.slot_of", None),
    ("repro.cluster.flowtable:FlowTable.pin", "flow_pin"),
    ("repro.cluster.flowtable:FlowTable.touch", None),
    ("repro.cluster.hashing:choose_shard", None),
    # -- apps ------------------------------------------------------------
    ("repro.apps.bulk:pattern_bytes", "pattern_bytes"),
    # -- obs: tracer, metrics, spans, invariants ---------------------------
    ("repro.sim.trace:Tracer.emit", "tracer_emit"),
    ("repro.obs.metrics:Counter.inc", None),
    ("repro.obs.metrics:Gauge.set", None),
    ("repro.obs.metrics:Gauge.add", None),
    ("repro.obs.metrics:Histogram.observe", None),
    ("repro.obs.spans:SpanTracer.trace_root", None),
    ("repro.obs.spans:SpanTracer.start_span", None),
    ("repro.obs.spans:SpanTracer.finish", None),
    ("repro.obs.spans:SpanTracer.event", None),
    ("repro.obs.spans:SpanTracer.record_span", None),
    ("repro.obs.spans:SpanTracer.flow_event", None),
    ("repro.obs.spans:SpanTracer.flow_record_span", None),
    ("repro.obs.spans:SpanTracer.bind_flow", None),
    ("repro.harness.invariants:InvariantChecker._check_emission", None),
    ("repro.harness.invariants:InvariantChecker.check_replica_agreement", None),
)

#: Tracer categories whose (time, node) the failover timeline needs.
WATCHED_CATEGORIES = frozenset({"host.crash", "detector.failure", "takeover.complete"})

_WRAPPED = "__bench_wrapped__"


def layer_of_module(module: str) -> int:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return LAYERS.index(layer)
    return OTHER


class Probes:
    """Counts taken at the boundaries (exact for a seed).

    ``before_<name>(args)`` runs ahead of the wrapped call, ``after_<name>(args,
    result)`` behind it; ``args`` are the call's positional arguments (``self``
    first).  Probes read public attributes wherever one exists.
    """

    def __init__(self, recorder: "Recorder"):
        self._recorder = recorder
        self.reset()

    def reset(self) -> None:
        self.timers_scheduled = 0
        self.timers_by_layer = [0] * (OTHER + 1)
        self.timers_cancelled = 0
        self.queue_peak = 0
        self.eth_waits: List[float] = []
        self.cpu_backlog_peak = 0.0
        self.tcp_table_peak = 0
        self.segments_sent = 0
        self.pure_acks_sent = 0
        self.csum_bytes = 0
        self.bridge_inspected = 0
        self.bridge_emitted = 0
        self.bytes_matched = 0
        self.queue_peak_bytes = 0
        self.queue_waits: List[float] = []
        # id(queue) -> [queue, bytes popped, deque of (bytes enqueued, time)];
        # holding the queue keeps its id from being reused.
        self._queues: Dict[int, list] = {}
        self.flows_peak = 0
        self.pattern_calls = 0
        self.pattern_built = 0
        self.emits = 0
        self.emits_unobserved = 0
        self.timeline: List[Tuple[float, str, str]] = []

    def after_timer_scheduled(self, args, result) -> None:
        self.timers_scheduled += 1
        # Whoever armed the timer: the nearest enclosing span outside ``sim``
        # (``schedule`` and the process kernel only relay the request).
        for frame in reversed(self._recorder.stack):
            if frame[1] != SIM:
                self.timers_by_layer[frame[1]] += 1
                break
        else:
            self.timers_by_layer[SIM] += 1
        pending = args[0].pending_events
        if pending > self.queue_peak:
            self.queue_peak = pending

    def before_timer_cancel(self, args) -> None:
        if args[0].active:
            self.timers_cancelled += 1

    def before_eth_submit(self, args) -> None:
        self.eth_waits.append(args[0].utilization_window())

    def after_cpu_run(self, args, result) -> None:
        backlog = args[0].backlog
        if backlog > self.cpu_backlog_peak:
            self.cpu_backlog_peak = backlog

    def after_tcp_rx(self, args, result) -> None:
        size = len(args[0].connections)
        if size > self.tcp_table_peak:
            self.tcp_table_peak = size

    def before_tcp_tx(self, args) -> None:
        segment = args[1]
        self.segments_sent += 1
        if not segment.payload and not (segment.syn or segment.fin or segment.rst):
            self.pure_acks_sent += 1

    def before_payload_sum(self, args) -> None:
        self.csum_bytes += len(args[0])

    def before_bridge_in(self, args) -> None:
        self.bridge_inspected += 1

    def before_bridge_emit(self, args) -> None:
        self.bridge_emitted += 1

    def after_queue_enqueue(self, args, result) -> None:
        queue = args[0]
        depth = len(queue)
        if depth > self.queue_peak_bytes:
            self.queue_peak_bytes = depth
        if result:
            state = self._queues.get(id(queue))
            if state is None:
                state = self._queues[id(queue)] = [
                    queue, queue.bytes_enqueued - result, deque()
                ]
            state[2].append((queue.bytes_enqueued, self._recorder.sim_now))

    def before_queue_drain(self, args) -> None:
        self._queues.pop(id(args[0]), None)

    def after_match_prefix(self, args, result) -> None:
        if result is None:
            return
        matched = len(result[1])
        self.bytes_matched += matched
        now = oldest = self._recorder.sim_now
        for queue in args[:2]:
            state = self._queues.get(id(queue))
            if state is None:
                continue
            state[1] += matched
            arrivals = state[2]
            while arrivals and arrivals[0][0] <= state[1]:
                oldest = min(oldest, arrivals.popleft()[1])
        # How long the earlier twin of this match sat in its queue.
        self.queue_waits.append(now - oldest)

    def after_flow_pin(self, args, result) -> None:
        size = len(args[0])
        if size > self.flows_peak:
            self.flows_peak = size

    def before_pattern_bytes(self, args) -> None:
        self.pattern_calls += 1
        # One 2 KiB period is rebuilt per call, then tiled to ``size``.
        self.pattern_built += 2048 + (args[0] if args else 0)

    def before_tracer_emit(self, args) -> None:
        tracer = args[0]
        self.emits += 1
        if not getattr(tracer, "_record", True) and not getattr(tracer, "_subscribers", True):
            self.emits_unobserved += 1
        if len(args) > 3 and args[2] in WATCHED_CATEGORIES:
            self.timeline.append((args[1], args[2], args[3]))


class Recorder:
    """Installs the wrappers, keeps the aggregates, removes the wrappers."""

    def __init__(self, seed: int = 0, boundaries=BOUNDARIES):
        self.seed = seed
        self.boundaries = boundaries
        # Per boundary, indexed alike.  Index 0 is the measured region itself
        # (time outside any span is its self time).
        self.names: List[str] = ["<run>"]
        self.layer_of: List[int] = [OTHER]
        self.count: List[int] = [0]
        self.dur: List[float] = [0.0]
        self.self_time: List[float] = [0.0]
        self.layer_time: List[float] = [0.0]
        self.children: List[int] = [0]
        # Frame: [boundary, layer, child time, other-layer time, raw span id,
        # direct children].
        self.stack: List[list] = [[0, OTHER, 0.0, 0.0, 0, 0]]
        # Calibrated cost of one wrapper: inside the span it measures, and
        # outside it (charged to the parent's self time).
        self.cost_inside = 0.0
        self.cost_outside = 0.0
        self.events = 0
        self.sim_now = 0.0
        self.sampling = False
        self.raw: List[Optional[tuple]] = [None]
        self.missing: List[str] = []
        self.probes = Probes(self)
        self._random = random.Random(f"bench.trace:{seed}").random
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callback_layers: Dict[Any, int] = {}
        self._started = perf_counter()
        self.total_s = 0.0
        self._event_spans = [self._boundary(f"event[{n}]", i) for i, n in enumerate(LAYER_NAMES)]
        self._step_spans = [self._boundary(f"step[{n}]", i) for i, n in enumerate(LAYER_NAMES)]

    def _boundary(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        for column in self._columns():
            column.append(0)
        return len(self.names) - 1

    def _columns(self):
        return (self.count, self.dur, self.self_time, self.layer_time, self.children)

    # -- measured region ---------------------------------------------------

    def reset(self) -> None:
        """Start the measured region: forget everything seen during set-up."""
        for column in self._columns():
            column[:] = [0] * len(column)
        self.stack[:] = [[0, OTHER, 0.0, 0.0, 0, 0]]
        self.events = 0
        self.raw[:] = [None]
        self.probes.reset()
        self._started = perf_counter()

    def finish(self) -> None:
        """End the measured region; whatever no span covered is its self time."""
        self.total_s = total = perf_counter() - self._started
        root = self.stack[0]
        self.count[0] = 1
        self.dur[0] = total
        self.self_time[0] = total - root[2]
        self.layer_time[0] = total - root[3]
        self.children[0] = root[5]
        self.raw[0] = (0, -1, 0, OTHER, 0.0, total, 0)

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, boundary: int, layer: int, keep: bool) -> list:
        frame = [boundary, layer, 0.0, 0.0, -1, 0]
        if keep:
            frame[4] = len(self.raw)
            self.raw.append(None)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        stack = self.stack
        stack.pop()
        boundary, layer, child_time, foreign, raw_id, children = frame
        elapsed = t1 - t0
        self.count[boundary] += 1
        self.dur[boundary] += elapsed
        self.self_time[boundary] += elapsed - child_time
        self.layer_time[boundary] += elapsed - foreign
        self.children[boundary] += children
        parent = stack[-1]
        parent[2] += elapsed
        parent[3] += foreign if parent[1] == layer else elapsed
        parent[5] += 1
        if raw_id >= 0:
            started = self._started
            self.raw[raw_id] = (raw_id, parent[4], boundary, layer,
                                t0 - started, t1 - started, self.events)

    # -- wrapper factories -------------------------------------------------

    def _wrap_call(self, original: Callable, boundary: int, layer: int,
                   before: Optional[Callable], after: Optional[Callable],
                   always_keep: bool = False) -> Callable:
        recorder = self
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = enter(boundary, layer, always_keep or recorder.sampling)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                leave(frame, t0, perf_counter())
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator_function(self, original: Callable, boundary: int,
                                 layer: int) -> Callable:
        drive = self._drive

        def wrapper(*args, **kwargs):
            return drive(original(*args, **kwargs), boundary, layer)

        return wrapper

    def _drive(self, generator, boundary: int, layer: int):
        """Proxy ``generator``: one span per resumption, semantics unchanged."""
        enter, leave = self._enter, self._exit
        value, thrown = None, None
        while True:
            frame = enter(boundary, layer, self.sampling)
            t0 = perf_counter()
            try:
                if thrown is None:
                    yielded = generator.send(value)
                else:
                    yielded = generator.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                leave(frame, t0, perf_counter())
            try:
                value, thrown = (yield yielded), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the real generator
                value, thrown = None, exc

    def _wrap_event(self, original: Callable) -> Callable:
        """``Timer._fire``: the root span of one simulator event."""
        recorder = self
        enter, leave = self._enter, self._exit
        spans, layer_for, draw = self._event_spans, self._layer_of_callback, self._random

        def fire(timer):
            recorder.events += 1
            recorder.sim_now = timer.deadline
            layer = layer_for(getattr(timer, "_callback", None))
            recorder.sampling = keep = (
                draw() < SAMPLE_RATE and len(recorder.raw) < MAX_RAW_SPANS
            )
            frame = enter(spans[layer], layer, keep)
            t0 = perf_counter()
            try:
                return original(timer)
            finally:
                leave(frame, t0, perf_counter())
                recorder.sampling = False

        return fire

    def _wrap_process_init(self, original: Callable) -> Callable:
        """``Process.__init__``: hand the kernel a proxy of the generator."""
        drive, spans = self._drive, self._step_spans

        def init(process, *args, **kwargs):
            args = list(args)
            for index, arg in enumerate(args):
                if inspect.isgenerator(arg):
                    module = arg.gi_frame.f_globals.get("__name__", "") if arg.gi_frame else ""
                    layer = layer_of_module(module)
                    args[index] = drive(arg, spans[layer], layer)
                    break
            return original(process, *args, **kwargs)

        return init

    def _layer_of_callback(self, callback: Any) -> int:
        function = getattr(callback, "__func__", callback)
        function = getattr(function, "func", function)  # functools.partial
        key = getattr(function, "__code__", None) or type(function)
        layer = self._callback_layers.get(key)
        if layer is None:
            layer = layer_of_module(getattr(function, "__module__", None) or "")
            self._callback_layers[key] = layer
        return layer

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Recorder":
        for path, probe in self.boundaries:
            if not self._install_one(path, probe):
                self.missing.append(path)
        self._calibrate()
        return self

    def _calibrate(self, batches: int = 15, calls: int = 2000) -> None:
        """Measure what one wrapper costs, on a function that does nothing.

        Minima over the batches: interference only ever adds time.
        """

        def nothing(value):
            return value

        boundary = self._boundary("<calibration>", OTHER)
        wrapped = self._wrap_call(nothing, boundary, OTHER, None, None)
        bare = traced = measured = float("inf")
        for _ in range(batches):
            self.dur[boundary] = 0.0
            t0 = perf_counter()
            for _ in range(calls):
                nothing(1)
            t1 = perf_counter()
            for _ in range(calls):
                wrapped(1)
            t2 = perf_counter()
            bare = min(bare, (t1 - t0) / calls)
            traced = min(traced, (t2 - t1) / calls)
            measured = min(measured, self.dur[boundary] / calls)
        self.cost_inside = measured
        self.cost_outside = max(0.0, traced - bare - measured)
        self.reset()

    def _install_one(self, path: str, probe: Optional[str]) -> bool:
        module_name, _, qualname = path.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = vars(owner).get(attr)
        function = getattr(raw, "__func__", raw)  # static/class methods
        if not callable(function):
            return False
        if getattr(function, _WRAPPED, False):
            raise RuntimeError(f"{path} is already wrapped: uninstall first")
        layer = layer_of_module(module_name)
        if probe == "EVENT":
            wrapper = self._wrap_event(function)
        elif probe == "PROCESS":
            wrapper = self._wrap_process_init(function)
        else:
            boundary = self._boundary(qualname, layer)
            if inspect.isgeneratorfunction(function):
                wrapper = self._wrap_generator_function(function, boundary, layer)
            else:
                wrapper = self._wrap_call(
                    function, boundary, layer,
                    getattr(self.probes, f"before_{probe}", None),
                    getattr(self.probes, f"after_{probe}", None),
                    always_keep=probe == "RUN",
                )
        setattr(wrapper, _WRAPPED, True)
        wrapper.__name__ = getattr(function, "__name__", attr)
        wrapper.__qualname__ = getattr(function, "__qualname__", qualname)
        replacement = type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod)) else wrapper
        self._patch(owner, attr, raw, replacement)
        if inspect.ismodule(owner):
            # ``from module import function`` copies: patch those too.
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith(("repro", "bench")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, alias, raw, replacement)
        return True

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def corrected_self(self, boundary: int) -> float:
        """Self time of a boundary with the calibrated wrapper cost removed."""
        watched = (self.count[boundary] * self.cost_inside
                   + self.children[boundary] * self.cost_outside)
        return max(0.0, self.self_time[boundary] - watched)

    def layer_self_times(self, skip: Tuple[str, ...] = ()) -> List[float]:
        """Corrected self time per layer (index ``OTHER``: unattributed).

        Boundaries named in ``skip`` are part of the watching, not of the
        workload: their self time is dropped like the wrappers' own cost.
        """
        totals = [0.0] * (OTHER + 1)
        for boundary, layer in enumerate(self.layer_of):
            if self.names[boundary] not in skip:
                totals[layer] += self.corrected_self(boundary)
        return totals

    def span_count(self) -> int:
        return sum(self.count)

    def boundary_table(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "layer": LAYER_NAMES[self.layer_of[i]],
                "count": self.count[i],
                "total_s": self.dur[i],
                "self_s": self.self_time[i],
                "corrected_self_s": self.corrected_self(i),
                "layer_s": self.layer_time[i],
            }
            for i, name in enumerate(self.names)
            if self.count[i]
        }

    def count_of(self, *names: str) -> int:
        return sum(self.count[i] for i, name in enumerate(self.names) if name in names)

    def layer_time_of(self, name: str) -> float:
        return sum(self.layer_time[i] for i, n in enumerate(self.names) if n == name)

    def write(self, path, workload: str) -> None:
        """Write the aggregates and the sampled raw spans as JSON."""
        document = {
            "workload": workload,
            "seed": self.seed,
            "sample_rate": SAMPLE_RATE,
            "total_s": self.total_s,
            "wrapper_cost_s": {"inside": self.cost_inside, "outside": self.cost_outside},
            "events": self.events,
            "layers": list(LAYER_NAMES),
            "names": self.names,
            "boundaries_missing": self.missing,
            "boundaries": self.boundary_table(),
            "span_fields": ["id", "parent", "name", "layer", "start_s", "end_s", "event"],
            "spans": [span for span in self.raw if span is not None],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
