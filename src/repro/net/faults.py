"""Composable, deterministic fault-injection plane.

The paper's claim is that failover is transparent *at any point in the
connection's lifetime*; this module is the machinery that lets the tests
hit all of those points.  A :class:`FaultPlane` holds an ordered list of
:class:`FaultRule` objects and installs *taps* on the in-flight packet
paths of the simulated network:

* :class:`~repro.net.ethernet.EthernetSegment` — the shared LAN medium;
* :class:`~repro.net.nic.Nic` — one station's receive path (per-host
  faults: snoop loss, partitions affecting a single receiver).

Every packet crossing a tapped point is wrapped in a :class:`FaultContext`
and offered to the rules in order; the first rule whose trigger fires
decides the packet's fate through its :class:`FaultAction`:

=============  ==============================================================
``Drop``       the packet vanishes
``Duplicate``  ``copies`` deliveries, ``gap`` seconds apart
``Delay``      extra latency, optionally jittered from a named RNG stream
``Reorder``    held back until ``slots`` later packets at the same point pass
``Corrupt``    a payload bit is flipped (the TCP checksum then rejects it)
=============  ==============================================================

Triggers compose three addressing modes: **time** (``after``/``before``
bound the active window), **count** (``nth`` selects the n-th matching
packet, 0-based; ``max_fires`` caps total firings) and **predicate**
(``match`` sees the full :class:`FaultContext`, e.g. "the SYN-ACK" or
"the first segment whose payload covers byte 4096").

All randomness (delay jitter) is drawn from named
:class:`~repro.sim.rng.RngRegistry` streams — stream ``fault.<rule name>``
— so a chaos run replays bit-for-bit from its master seed.  Every firing
is traced (``fault.<kind>``) and appended to :attr:`FaultPlane.fires`,
which is the reproduction recipe a failing chaos cell prints.

Host lifecycle faults (crash / restart) ride on the same plane via
:meth:`FaultPlane.crash_at` and :meth:`FaultPlane.restart_at`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import EthernetFrame, Ipv4Datagram
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

# A delivery plan: (extra delay, payload-or-None) per copy.  ``None``
# entries are dropped copies; an empty plan swallows the packet entirely.
Plan = List[Tuple[float, Optional[object]]]


@dataclass
class FaultContext:
    """One packet, observed in flight at one tap point."""

    point: str
    time: float
    payload: object  # the EthernetFrame (segment and nic taps)
    datagram: Optional[Ipv4Datagram] = None
    segment: Optional[object] = None  # TcpSegment when the datagram carries one
    src_ip: Optional[object] = None
    dst_ip: Optional[object] = None

    @classmethod
    def wrap(cls, point: str, time: float, payload: object) -> "FaultContext":
        inner = payload.payload if isinstance(payload, EthernetFrame) else None
        datagram = inner if isinstance(inner, Ipv4Datagram) else None
        segment = None
        src_ip = dst_ip = None
        if datagram is not None:
            src_ip, dst_ip = datagram.src, datagram.dst
            inner = datagram.payload
            # TCP segments are the only payloads with sequence numbers.
            if hasattr(inner, "seq") and hasattr(inner, "flags"):
                segment = inner
        return cls(
            point=point,
            time=time,
            payload=payload,
            datagram=datagram,
            segment=segment,
            src_ip=src_ip,
            dst_ip=dst_ip,
        )


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------


class FaultAction:
    """Base class; subclasses build a delivery plan for one packet."""

    kind = "noop"

    def plan(self, ctx: FaultContext, rng) -> Plan:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


class Drop(FaultAction):
    kind = "drop"

    def plan(self, ctx: FaultContext, rng) -> Plan:
        return []


class Duplicate(FaultAction):
    kind = "duplicate"

    def __init__(self, copies: int = 2, gap: float = 50e-6):
        if copies < 2:
            raise ValueError("Duplicate needs at least 2 copies")
        self.copies = copies
        self.gap = gap

    def plan(self, ctx: FaultContext, rng) -> Plan:
        return [(i * self.gap, ctx.payload) for i in range(self.copies)]

    def describe(self) -> str:
        return f"duplicate(copies={self.copies}, gap={self.gap})"


class Delay(FaultAction):
    kind = "delay"

    def __init__(self, delay: float, jitter: float = 0.0):
        self.delay = delay
        self.jitter = jitter

    def plan(self, ctx: FaultContext, rng) -> Plan:
        extra = self.delay
        if self.jitter > 0:
            extra += self.jitter * rng.random()
        return [(extra, ctx.payload)]

    def describe(self) -> str:
        return f"delay({self.delay}, jitter={self.jitter})"


class Reorder(FaultAction):
    """Hold the packet until ``slots`` later packets at this point pass.

    Deterministic reordering without timing guesswork: the held packet is
    released immediately *after* the releasing packet's own delivery.  A
    ``hold_timeout`` failsafe releases it even if traffic dries up, so a
    reorder rule can never deadlock a quiescing simulation.
    """

    kind = "reorder"

    def __init__(self, slots: int = 1, hold_timeout: float = 0.050):
        if slots < 1:
            raise ValueError("Reorder needs at least one overtaking slot")
        self.slots = slots
        self.hold_timeout = hold_timeout

    def plan(self, ctx: FaultContext, rng) -> Plan:  # handled by the plane
        return []

    def describe(self) -> str:
        return f"reorder(slots={self.slots})"


class Corrupt(FaultAction):
    """Flip one payload bit (or the checksum of an empty segment).

    The on-wire checksum is left at its original value, so the receiving
    TCP's ``checksum_ok`` rejects the segment — corruption manifests as a
    checksum-validated drop, exactly as on real hardware.  Non-TCP
    payloads (ARP, heartbeats) are dropped outright.
    """

    kind = "corrupt"

    def plan(self, ctx: FaultContext, rng) -> Plan:
        corrupted = corrupt_payload(ctx.payload)
        if corrupted is None:
            return []
        return [(0.0, corrupted)]


def corrupt_payload(payload: object) -> Optional[object]:
    """Return a bit-flipped copy of a frame/datagram, or None if opaque."""
    if isinstance(payload, EthernetFrame):
        inner = corrupt_payload(payload.payload)
        return None if inner is None else replace(payload, payload=inner)
    if isinstance(payload, Ipv4Datagram):
        inner = payload.payload
        if hasattr(inner, "seq") and hasattr(inner, "checksum"):
            if inner.payload:
                data = bytearray(inner.payload)
                data[len(data) // 2] ^= 0x40
                bad = replace(inner, payload=bytes(data))
            else:
                bad = replace(inner, checksum=inner.checksum ^ 0x0001)
            return replace(payload, payload=bad)
    return None


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------


class FaultRule:
    """One fault: where + when + which packets + what happens."""

    def __init__(
        self,
        name: str,
        action: FaultAction,
        point: Optional[str] = None,
        match: Optional[Callable[[FaultContext], bool]] = None,
        after: Optional[float] = None,
        before: Optional[float] = None,
        nth: Optional[int] = None,
        max_fires: Optional[int] = None,
    ):
        self.name = name
        self.action = action
        self.point = point
        self.match = match
        self.after = after
        self.before = before
        self.nth = nth
        # A pure count trigger with no cap fires exactly once (the common
        # "the 3rd segment from P to C" case); windows/predicates default
        # to firing on every match.
        if max_fires is None and nth is not None:
            max_fires = 1
        self.max_fires = max_fires
        self.matched = 0
        self.fired = 0

    def applies(self, ctx: FaultContext) -> bool:
        """Match phase: counts every matching packet, fires on a subset."""
        if self.point is not None and ctx.point != self.point:
            return False
        if self.after is not None and ctx.time < self.after:
            return False
        if self.before is not None and ctx.time >= self.before:
            return False
        if self.match is not None and not self.match(ctx):
            return False
        index = self.matched
        self.matched += 1
        if self.nth is not None and index != self.nth:
            return False
        if self.max_fires is not None and self.fired >= self.max_fires:
            return False
        self.fired += 1
        return True

    def describe(self) -> str:
        parts = [self.action.describe()]
        if self.point:
            parts.append(f"point={self.point}")
        if self.after is not None or self.before is not None:
            parts.append(f"window=[{self.after}, {self.before})")
        if self.nth is not None:
            parts.append(f"nth={self.nth}")
        return f"{self.name}: {' '.join(parts)}"

    def __repr__(self) -> str:
        return f"FaultRule({self.describe()}, matched={self.matched}, fired={self.fired})"


@dataclass
class FaultFiring:
    """One recorded firing — the reproduction breadcrumb."""

    time: float
    rule: str
    point: str
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time:.6f}] {self.point} {self.rule} -> {self.kind} {self.detail}"


class _HeldPacket:
    """A packet parked by a Reorder rule, waiting to be overtaken."""

    __slots__ = ("deliver", "payload", "slots_left", "released")

    def __init__(self, deliver: Callable[[float, object], None], payload: object, slots: int):
        self.deliver = deliver
        self.payload = payload
        self.slots_left = slots
        self.released = False

    def release(self, extra_delay: float = 0.0) -> None:
        if self.released:
            return
        self.released = True
        self.deliver(extra_delay, self.payload)


# ----------------------------------------------------------------------
# the plane
# ----------------------------------------------------------------------


class FaultPlane:
    """Central fault registry + taps into the simulated network.

    One plane serves a whole topology; tap points are named so rules can
    scope themselves (``point="lan"``, ``point="nic:secondary"``, ...).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.rng = rng
        self.tracer = tracer or Tracer(record=False)
        self.rules: List[FaultRule] = []
        self.fires: List[FaultFiring] = []
        self._held: Dict[str, List[_HeldPacket]] = {}
        self._points: List[str] = []

    # -- rule management ---------------------------------------------------

    def add(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def rule(self, name: str, action: FaultAction, **kwargs) -> FaultRule:
        """Create and register a rule in one call."""
        return self.add(FaultRule(name, action, **kwargs))

    def partition(
        self,
        point: str,
        between: Tuple[object, object],
        start: float = 0.0,
        duration: Optional[float] = None,
    ) -> FaultRule:
        """Drop every datagram between two IPs (both directions) at ``point``."""
        ip_a, ip_b = between
        ends = {ip_a, ip_b}

        def involved(ctx: FaultContext) -> bool:
            return ctx.datagram is not None and {ctx.src_ip, ctx.dst_ip} == ends

        return self.rule(
            f"partition-{ip_a}-{ip_b}",
            Drop(),
            point=point,
            match=involved,
            after=start,
            before=None if duration is None else start + duration,
            max_fires=None,
        )

    # -- host lifecycle ----------------------------------------------------

    def crash_at(self, host, when: float) -> None:
        """Fail-stop ``host`` at absolute simulated time ``when``."""

        def crash() -> None:
            self._record(when, f"crash-{host.name}", f"host:{host.name}", "crash")
            host.crash()

        self.sim.call_at(when, crash)

    def restart_at(self, host, when: float) -> None:
        """Reboot ``host`` at ``when`` (all TCP state is lost, as §2 assumes)."""

        def restart() -> None:
            self._record(when, f"restart-{host.name}", f"host:{host.name}", "restart")
            host.restart()

        self.sim.call_at(when, restart)

    # -- tap installation --------------------------------------------------
    #
    # Every tap hands the plane a ``deliver(extra_delay, payload)`` callback
    # that schedules one (possibly substituted) copy of the packet through
    # the component's real delivery path.  The plane turns rules into
    # delivery plans and executes them through that callback, so drop /
    # duplicate / delay / corrupt / reorder behave identically at every
    # point of the topology.

    def tap_segment(self, segment, point: Optional[str] = None) -> str:
        """Tap an EthernetSegment's in-flight frames."""
        point = point or segment.name
        self._points.append(point)

        def fault_filter(
            frame: EthernetFrame, deliver: Callable[[float, object], None]
        ) -> bool:
            return self._filter(point, frame, deliver)

        segment.fault_filter = fault_filter
        return point

    def tap_nic(self, nic, point: Optional[str] = None) -> str:
        """Tap a NIC's receive path (per-host faults: snoop loss etc.)."""
        point = point or f"nic:{nic.name}"
        self._points.append(point)
        reinjected: set = set()

        def redeliver(extra_delay: float, frame: EthernetFrame) -> None:
            def arrive() -> None:
                reinjected.add(id(frame))
                try:
                    nic.frame_arrived(frame)
                finally:
                    reinjected.discard(id(frame))

            self.sim.schedule(max(0.0, extra_delay), arrive)

        def fault_filter(frame: EthernetFrame) -> bool:
            if id(frame) in reinjected:
                return False  # a copy we scheduled ourselves: pass through
            return self._filter(point, frame, redeliver)

        nic.rx_fault_filter = fault_filter
        return point

    # -- evaluation engine -------------------------------------------------

    def _filter(
        self,
        point: str,
        payload: object,
        deliver: Callable[[float, object], None],
    ) -> bool:
        """Run the rule chain for one packet.

        Returns True when the plane took over delivery (the component must
        not deliver the packet itself); False passes the packet through
        untouched.  Held (reordered) packets are released through the
        *overtaking* packet's ``deliver`` callback, which places them just
        behind it in simulated time.
        """
        ctx = FaultContext.wrap(point, self.sim.now, payload)
        release_plan = self._advance_held(point)
        plan: Optional[Plan] = None
        for rule in self.rules:
            if not rule.applies(ctx):
                continue
            self._record(
                ctx.time, rule.name, point, rule.action.kind,
                detail=_packet_summary(ctx),
            )
            if isinstance(rule.action, Reorder):
                plan = self._hold(point, ctx, rule.action, deliver)
            else:
                stream = self.rng.stream(f"fault.{rule.name}")
                plan = rule.action.plan(ctx, stream)
            break
        if plan is None and not release_plan:
            return False
        if plan is None:
            plan = [(0.0, payload)]  # unfaulted, but it carries releases
        for extra, copy in plan + release_plan:
            if copy is not None:
                deliver(extra, copy)
        return True

    def _hold(
        self,
        point: str,
        ctx: FaultContext,
        action: Reorder,
        deliver: Callable[[float, object], None],
    ) -> Plan:
        """Park a packet for a Reorder rule; arm the liveness failsafe."""
        holder = _HeldPacket(deliver, ctx.payload, action.slots)
        self._held.setdefault(point, []).append(holder)
        self.sim.schedule(action.hold_timeout, holder.release)
        return []

    def _advance_held(self, point: str) -> Plan:
        """Count this packet against held ones; release any now overtaken."""
        held = self._held.get(point)
        if not held:
            return []
        plan: Plan = []
        remaining: List[_HeldPacket] = []
        for holder in held:
            if holder.released:
                continue
            holder.slots_left -= 1
            if holder.slots_left <= 0:
                holder.released = True
                # Deliver just behind the overtaking packet.
                plan.append((1e-9, holder.payload))
            else:
                remaining.append(holder)
        self._held[point] = remaining
        return plan

    # -- bookkeeping -------------------------------------------------------

    def _record(self, time: float, rule: str, point: str, kind: str, detail: str = "") -> None:
        firing = FaultFiring(time=time, rule=rule, point=point, kind=kind, detail=detail)
        self.fires.append(firing)
        self.tracer.emit(time, "fault." + kind, point, rule=rule, packet=detail)

    def recipe(self) -> str:
        """Human-readable reproduction recipe for this run's firings."""
        lines = [f"master_seed={self.rng.master_seed}"]
        lines += [r.describe() for r in self.rules]
        lines += [str(f) for f in self.fires]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"FaultPlane(points={self._points}, rules={len(self.rules)},"
            f" fires={len(self.fires)})"
        )


def _packet_summary(ctx: FaultContext) -> str:
    if ctx.segment is not None:
        seg = ctx.segment
        return (
            f"{ctx.src_ip}->{ctx.dst_ip} {seg.flag_names()}"
            f" seq={seg.seq} len={len(seg.payload)}"
        )
    if ctx.datagram is not None:
        return f"{ctx.src_ip}->{ctx.dst_ip} proto={ctx.datagram.protocol}"
    return type(ctx.payload).__name__


# ----------------------------------------------------------------------
# common match predicates (used by the chaos matrix and tests)
# ----------------------------------------------------------------------


def is_tcp(ctx: FaultContext) -> bool:
    return ctx.segment is not None


def has_payload(ctx: FaultContext) -> bool:
    return ctx.segment is not None and len(ctx.segment.payload) > 0


def is_syn(ctx: FaultContext) -> bool:
    return ctx.segment is not None and ctx.segment.syn and not ctx.segment.has_ack


def is_syn_ack(ctx: FaultContext) -> bool:
    return ctx.segment is not None and ctx.segment.syn and ctx.segment.has_ack


def is_fin(ctx: FaultContext) -> bool:
    return ctx.segment is not None and ctx.segment.fin


def from_ip(ip) -> Callable[[FaultContext], bool]:
    def pred(ctx: FaultContext) -> bool:
        return ctx.src_ip == ip

    return pred


def to_ip(ip) -> Callable[[FaultContext], bool]:
    def pred(ctx: FaultContext) -> bool:
        return ctx.dst_ip == ip

    return pred


def data_between(src, dst) -> Callable[[FaultContext], bool]:
    """Payload-carrying TCP segments from ``src`` to ``dst``."""

    def pred(ctx: FaultContext) -> bool:
        return (
            ctx.segment is not None
            and len(ctx.segment.payload) > 0
            and ctx.src_ip == src
            and ctx.dst_ip == dst
        )

    return pred


def covers_byte(stream_start: int, offset: int) -> Callable[[FaultContext], bool]:
    """Segments whose payload covers absolute stream byte ``offset``.

    ``stream_start`` is the sequence number of stream byte 0 (ISS+1).
    Wraparound-safe: comparison happens in offset space, not seq space.
    """
    from repro.tcp.seqnum import seq_sub

    def pred(ctx: FaultContext) -> bool:
        seg = ctx.segment
        if seg is None or not seg.payload:
            return False
        begin = seq_sub(seg.seq, stream_start)
        return begin <= offset < begin + len(seg.payload)

    return pred


def all_predicates(*preds: Callable[[FaultContext], bool]) -> Callable[[FaultContext], bool]:
    def pred(ctx: FaultContext) -> bool:
        return all(p(ctx) for p in preds)

    return pred
