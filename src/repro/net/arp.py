"""Address Resolution Protocol with per-node caches.

ARP matters to this reproduction twice:

* The paper's connection-setup measurements assume warm caches ("we made
  sure that the MAC addresses of all nodes were present in the ARP caches"),
  and note cold ARP adds ~300 µs.
* IP takeover (§5, step 5) is implemented with a gratuitous ARP; the paper's
  interval ``T`` — failure until the router updates its ARP table — is the
  window during which the secondary's segments do not reach the client.
  ``gratuitous_apply_delay`` models the router-side update latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.nic import Nic
from repro.net.packet import ETHERTYPE_ARP, EthernetFrame
from repro.sim.engine import Simulator, Timer
from repro.sim.process import Event
from repro.sim.trace import Tracer

ARP_REQUEST = 1
ARP_REPLY = 2


@dataclass(frozen=True)
class ArpPacket:
    """ARP request/reply carried in an Ethernet frame."""

    op: int
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_ip: Ipv4Address
    target_mac: Optional[MacAddress] = None
    wire_size: int = 28

    @property
    def is_gratuitous(self) -> bool:
        """Gratuitous announcement: sender advertises its own IP."""
        return self.op == ARP_REPLY and self.sender_ip == self.target_ip


class ArpService:
    """ARP resolver and responder bound to one NIC.

    ``owned_ips`` is a live callable so IP takeover (the secondary acquiring
    the primary's address) is immediately reflected in what we answer for.
    """

    def __init__(
        self,
        sim: Simulator,
        nic: Nic,
        owned_ips: Callable[[], List[Ipv4Address]],
        node_name: str,
        tracer: Optional[Tracer] = None,
        request_timeout: float = 1.0,
        max_retries: int = 3,
        gratuitous_apply_delay: float = 0.0,
    ):
        self.sim = sim
        self.nic = nic
        self.node_name = node_name
        self._owned_ips = owned_ips
        self.tracer = tracer or Tracer(record=False)
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.gratuitous_apply_delay = gratuitous_apply_delay
        self.cache: Dict[Ipv4Address, MacAddress] = {}
        self._pending: Dict[Ipv4Address, List[Event]] = {}
        self._retry_timers: Dict[Ipv4Address, Timer] = {}
        # Address-conflict detection: a gratuitous ARP claiming an address
        # we own, from a foreign MAC, means another node took it over
        # (step-down fencing hooks in here; see Host._address_conflict).
        self.conflict_callback: Optional[
            Callable[[Ipv4Address, MacAddress], None]
        ] = None
        # Addresses we still hold but must stay silent for (fenced after a
        # conflict): no ARP replies are generated for them.
        self.fenced_ips: set = set()
        # Takeover guard: ip -> guard expiry.  While a guard is active a
        # foreign gratuitous claim of that owned address is ignored (no
        # conflict callback, no learning) and we re-announce to repair any
        # peer caches the forgery already poisoned.  Closes the window in
        # which an attacker's gratuitous ARP could fence the taker off the
        # very address it just acquired.
        self._gratuitous_guards: Dict[Ipv4Address, float] = {}
        self.gratuitous_ignored = 0
        # Step-down allowlist: when non-empty, only these MACs (the peer
        # replicas) may trigger the address-conflict callback.  A forged
        # gratuitous ARP from anyone else is an attack on the fencing
        # machinery — answered with a defensive re-announce, never a
        # step-down.
        self.trusted_claimants: set = set()

    class ResolutionFailed(Exception):
        """No ARP reply after all retries."""

    def resolve(self, ip: Ipv4Address) -> Event:
        """Resolve ``ip`` to a MAC.  The returned event yields the MAC or
        fails with :class:`ResolutionFailed`."""
        event = Event(self.sim, name="arp.resolve")
        cached = self.cache.get(ip)
        if cached is not None:
            event.succeed(cached)
            return event
        waiters = self._pending.setdefault(ip, [])
        waiters.append(event)
        if len(waiters) == 1:
            self._send_request(ip, attempt=1)
        return event

    def prime(self, ip: Ipv4Address, mac: MacAddress) -> None:
        """Pre-warm the cache (the paper's measurements use warm caches)."""
        self.cache[ip] = mac

    def guard_ip(self, ip: Ipv4Address, duration: float) -> None:
        """Protect an owned address during an active takeover rebind."""
        expiry = self.sim.now + duration
        if self._gratuitous_guards.get(ip, -1.0) < expiry:
            self._gratuitous_guards[ip] = expiry

    def guard_active(self, ip: Ipv4Address) -> bool:
        expiry = self._gratuitous_guards.get(ip)
        if expiry is None:
            return False
        if self.sim.now >= expiry:
            del self._gratuitous_guards[ip]
            return False
        return True

    def announce(self, ip: Ipv4Address) -> None:
        """Broadcast a gratuitous ARP claiming ``ip`` (IP takeover, §5)."""
        packet = ArpPacket(
            op=ARP_REPLY,
            sender_mac=self.nic.mac,
            sender_ip=ip,
            target_ip=ip,
            target_mac=BROADCAST_MAC,
        )
        self.tracer.emit(self.sim.now, "arp.gratuitous", self.node_name, ip=ip.__str__)
        self.nic.send(
            EthernetFrame(self.nic.mac, BROADCAST_MAC, ETHERTYPE_ARP, packet)
        )

    def handle_frame(self, frame: EthernetFrame) -> None:
        packet = frame.payload
        if not isinstance(packet, ArpPacket):
            return
        if packet.sender_mac == self.nic.mac:
            return  # our own broadcast echoed back
        if packet.is_gratuitous:
            if packet.sender_ip in self._owned_ips() and self.guard_active(
                packet.sender_ip
            ):
                # Mid-takeover rebind: a foreign claim of the address we are
                # actively acquiring is treated as an attack, not a conflict.
                # Ignore it and re-assert ownership so any peer cache the
                # forgery reached converges back to us.
                self.gratuitous_ignored += 1
                self.tracer.emit(
                    self.sim.now,
                    "arp.gratuitous_ignored",
                    self.node_name,
                    ip=packet.sender_ip.__str__,
                    mac=packet.sender_mac.__str__,
                )
                self.announce(packet.sender_ip)
                return
            if (
                self.conflict_callback is not None
                and packet.sender_ip in self._owned_ips()
                and packet.sender_ip not in self.fenced_ips
            ):
                if (
                    self.trusted_claimants
                    and packet.sender_mac not in self.trusted_claimants
                ):
                    # A foreign MAC outside the replica set claims our
                    # address: spoofed.  Defend the address instead of
                    # stepping down.
                    self.gratuitous_ignored += 1
                    self.tracer.emit(
                        self.sim.now,
                        "arp.gratuitous_spoofed",
                        self.node_name,
                        ip=packet.sender_ip.__str__,
                        mac=packet.sender_mac.__str__,
                    )
                    self.announce(packet.sender_ip)
                    return
                # Someone else claims an address we own: address conflict.
                self.conflict_callback(packet.sender_ip, packet.sender_mac)
            self._apply_gratuitous(packet)
            return
        if packet.op == ARP_REQUEST:
            # Opportunistically learn the asker, then answer if we own it
            # (never for a fenced address — we yielded it).
            self.cache[packet.sender_ip] = packet.sender_mac
            if (
                packet.target_ip in self._owned_ips()
                and packet.target_ip not in self.fenced_ips
            ):
                reply = ArpPacket(
                    op=ARP_REPLY,
                    sender_mac=self.nic.mac,
                    sender_ip=packet.target_ip,
                    target_ip=packet.sender_ip,
                    target_mac=packet.sender_mac,
                )
                self.nic.send(
                    EthernetFrame(
                        self.nic.mac, packet.sender_mac, ETHERTYPE_ARP, reply
                    )
                )
        elif packet.op == ARP_REPLY:
            self._learn(packet.sender_ip, packet.sender_mac)

    def _apply_gratuitous(self, packet: ArpPacket) -> None:
        """Update our mapping after the configured latency (paper's ``T``)."""

        def apply() -> None:
            self._learn(packet.sender_ip, packet.sender_mac)
            self.tracer.emit(
                self.sim.now,
                "arp.gratuitous_applied",
                self.node_name,
                ip=packet.sender_ip.__str__,
                mac=packet.sender_mac.__str__,
            )

        if self.gratuitous_apply_delay > 0:
            self.sim.schedule(self.gratuitous_apply_delay, apply)
        else:
            apply()

    def _learn(self, ip: Ipv4Address, mac: MacAddress) -> None:
        self.cache[ip] = mac
        timer = self._retry_timers.pop(ip, None)
        if timer is not None:
            timer.cancel()
        for event in self._pending.pop(ip, []):
            if not event.triggered:
                event.succeed(mac)

    def _send_request(self, ip: Ipv4Address, attempt: int) -> None:
        if ip in self.cache or ip not in self._pending:
            return
        owned = self._owned_ips()
        sender_ip = owned[0] if owned else Ipv4Address(0)
        packet = ArpPacket(
            op=ARP_REQUEST,
            sender_mac=self.nic.mac,
            sender_ip=sender_ip,
            target_ip=ip,
        )
        self.tracer.emit(
            self.sim.now, "arp.request", self.node_name, ip=ip.__str__, attempt=attempt
        )
        self.nic.send(
            EthernetFrame(self.nic.mac, BROADCAST_MAC, ETHERTYPE_ARP, packet)
        )
        if attempt >= self.max_retries:
            self._retry_timers[ip] = self.sim.schedule(
                self.request_timeout, self._fail_pending, ip
            )
        else:
            self._retry_timers[ip] = self.sim.schedule(
                self.request_timeout, self._send_request, ip, attempt + 1
            )

    def _fail_pending(self, ip: Ipv4Address) -> None:
        self._retry_timers.pop(ip, None)
        for event in self._pending.pop(ip, []):
            if not event.triggered:
                event.fail(self.ResolutionFailed(f"no ARP reply for {ip}"))
