"""IP layer: interfaces, routing, local delivery and the bridge tap.

The failover *bridge* of the paper lives between the TCP layer and the IP
layer (§1).  Two hooks realise that interposition here:

* an **rx tap** — every received datagram is offered to the tap before the
  local-delivery / forwarding decision, so the secondary bridge can claim
  snooped datagrams addressed to the primary and rewrite their destination
  (§3.1), and the primary bridge can intercept the secondary's diverted
  segments (§3.2);
* transmission from TCP flows through the host's ``transport_out`` (see
  :mod:`repro.net.host`), which routes through the bridge when one is
  installed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.arp import ArpService
from repro.net.nic import Nic
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
    Ipv4Datagram,
)
from repro.sim.engine import Simulator
from repro.sim.process import Event
from repro.sim.trace import Tracer


class RoutingError(Exception):
    """No route to the requested destination."""


class EthernetInterface:
    """IP interface bound to a NIC on a broadcast segment."""

    def __init__(
        self,
        sim: Simulator,
        nic: Nic,
        address: Ipv4Address,
        prefix_len: int,
        node_name: str,
        tracer: Optional[Tracer] = None,
        gratuitous_apply_delay: float = 0.0,
    ):
        self.sim = sim
        self.nic = nic
        self.prefix_len = prefix_len
        self.node_name = node_name
        self.addresses: List[Ipv4Address] = [address]
        self.arp = ArpService(
            sim,
            nic,
            owned_ips=lambda: self.addresses,
            node_name=node_name,
            tracer=tracer,
            gratuitous_apply_delay=gratuitous_apply_delay,
        )

    @property
    def address(self) -> Ipv4Address:
        return self.addresses[0]

    def owns(self, ip: Ipv4Address) -> bool:
        return ip in self.addresses

    def add_address(self, ip: Ipv4Address) -> None:
        """Acquire an additional IP (the takeover of ``a_p`` in §5)."""
        if ip not in self.addresses:
            self.addresses.append(ip)

    def remove_address(self, ip: Ipv4Address) -> None:
        if ip in self.addresses and len(self.addresses) > 1:
            self.addresses.remove(ip)

    def on_subnet(self, ip: Ipv4Address) -> bool:
        return self.address.same_subnet(ip, self.prefix_len)

    def send_datagram(self, datagram: Ipv4Datagram, next_hop: Ipv4Address) -> None:
        """Resolve the next hop and transmit; queues behind ARP if needed.

        Warm cache or cold, the frame reaches the NIC one zero-delay
        scheduler hop later, never synchronously: a frame handed straight to
        the NIC later in the same instant (a gratuitous ARP) is on the wire
        first.
        """
        mac = self.arp.cache.get(next_hop)
        if mac is not None:
            self.sim.schedule(0.0, self._send_resolved, mac, datagram)
            return

        def on_resolved(event: Event) -> None:
            try:
                resolved = event.value
            except ArpService.ResolutionFailed:
                return  # drop: unreachable next hop (host down)
            self._send_resolved(resolved, datagram)

        self.arp.resolve(next_hop).add_waiter(on_resolved)

    def _send_resolved(self, mac: MacAddress, datagram: Ipv4Datagram) -> None:
        self.nic.send(EthernetFrame(self.nic.mac, mac, ETHERTYPE_IPV4, datagram))


class PointToPointInterface:
    """IP interface on one end of a :class:`repro.net.wan.WanLink`."""

    def __init__(self, address: Ipv4Address, prefix_len: int):
        self.addresses: List[Ipv4Address] = [address]
        self.prefix_len = prefix_len
        self._transmit: Optional[Callable[[Ipv4Datagram], None]] = None
        # Fault-injection tap (see repro.net.faults.FaultPlane.tap_p2p):
        # called with each outbound datagram; True = plane owns delivery.
        self.fault_filter: Optional[Callable[[Ipv4Datagram], bool]] = None

    @property
    def address(self) -> Ipv4Address:
        return self.addresses[0]

    def owns(self, ip: Ipv4Address) -> bool:
        return ip in self.addresses

    def add_address(self, ip: Ipv4Address) -> None:
        if ip not in self.addresses:
            self.addresses.append(ip)

    def on_subnet(self, ip: Ipv4Address) -> bool:
        return self.address.same_subnet(ip, self.prefix_len)

    def bind_link(self, transmit: Callable[[Ipv4Datagram], None]) -> None:
        self._transmit = transmit

    def send_datagram(self, datagram: Ipv4Datagram, next_hop: Ipv4Address) -> None:
        if self._transmit is None:
            raise RoutingError("point-to-point interface has no link bound")
        if self.fault_filter is not None and self.fault_filter(datagram):
            return
        self._transmit(datagram)


RxTap = Callable[[Ipv4Datagram], Optional[Ipv4Datagram]]


class IpLayer:
    """Routing and delivery for one node (host or router)."""

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        tracer: Optional[Tracer] = None,
        forwarding: bool = False,
    ):
        self.sim = sim
        self.node_name = node_name
        self.tracer = tracer or Tracer(record=False)
        self.forwarding = forwarding
        self.interfaces: List[object] = []
        self.default_gateway: Optional[Ipv4Address] = None
        self._rx_tap: Optional[RxTap] = None
        self._forward_defer: Optional[Callable[[Callable[[], None]], None]] = None
        self._protocol_handlers: Dict[int, Callable[[Ipv4Datagram], None]] = {}
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_forwarded = 0
        self.datagrams_dropped = 0

    # -- configuration ----------------------------------------------------

    def add_interface(self, interface: object) -> None:
        self.interfaces.append(interface)

    def set_default_gateway(self, gateway: Ipv4Address) -> None:
        self.default_gateway = gateway

    def set_rx_tap(self, tap: Optional[RxTap]) -> None:
        """Install the bridge's receive-side interposition hook."""
        self._rx_tap = tap

    def set_forward_defer(self, defer: Callable[[Callable[[], None]], None]) -> None:
        """Route forwarded datagrams through a cost model (router CPU)."""
        self._forward_defer = defer

    def register_protocol(
        self, protocol: int, handler: Callable[[Ipv4Datagram], None]
    ) -> None:
        self._protocol_handlers[protocol] = handler

    def owned_ips(self) -> List[Ipv4Address]:
        ips: List[Ipv4Address] = []
        for interface in self.interfaces:
            ips.extend(interface.addresses)
        return ips

    def owns(self, ip: Ipv4Address) -> bool:
        for interface in self.interfaces:
            if ip in interface.addresses:
                return True
        return False

    def primary_address(self) -> Ipv4Address:
        if not self.interfaces:
            raise RoutingError(f"{self.node_name} has no interfaces")
        return self.interfaces[0].address

    # -- transmit ----------------------------------------------------------

    def route(self, dst: Ipv4Address) -> Tuple[object, Ipv4Address]:
        """Pick (interface, next_hop) for ``dst``."""
        for interface in self.interfaces:
            if interface.on_subnet(dst):
                return interface, dst
        if self.default_gateway is not None:
            for interface in self.interfaces:
                if interface.on_subnet(self.default_gateway):
                    return interface, self.default_gateway
        raise RoutingError(f"{self.node_name}: no route to {dst}")

    def send(self, datagram: Ipv4Datagram) -> None:
        """Transmit a datagram toward its destination."""
        if self.owns(datagram.dst):
            # Loopback delivery stays inside the node.
            self.sim.schedule(0.0, self._local_deliver, datagram)
            return
        interface, next_hop = self.route(datagram.dst)
        self.datagrams_sent += 1
        interface.send_datagram(datagram, next_hop)

    # -- receive -----------------------------------------------------------

    def frame_received(self, interface: EthernetInterface, frame: EthernetFrame) -> None:
        """Entry point wired to a NIC's receiver callback."""
        if frame.ethertype == ETHERTYPE_ARP:
            interface.arp.handle_frame(frame)
        elif frame.ethertype == ETHERTYPE_IPV4 and isinstance(
            frame.payload, Ipv4Datagram
        ):
            self.datagram_received(frame.payload)

    def datagram_received(self, datagram: Ipv4Datagram) -> None:
        """Offer to the bridge tap, then deliver locally or forward."""
        if self._rx_tap is not None:
            maybe = self._rx_tap(datagram)
            if maybe is None:
                return  # consumed (or dropped) by the bridge
            datagram = maybe
        if self.owns(datagram.dst):
            self._local_deliver(datagram)
        elif self.forwarding:
            self._forward(datagram)
        else:
            self.datagrams_dropped += 1

    def _local_deliver(self, datagram: Ipv4Datagram) -> None:
        handler = self._protocol_handlers.get(datagram.protocol)
        if handler is None:
            self.datagrams_dropped += 1
            return
        self.datagrams_delivered += 1
        handler(datagram)

    def _forward(self, datagram: Ipv4Datagram) -> None:
        decremented = datagram.decremented_ttl()
        if decremented is None:
            self.datagrams_dropped += 1
            self.tracer.emit(self.sim.now, "ip.ttl_expired", self.node_name)
            return
        try:
            interface, next_hop = self.route(decremented.dst)
        except RoutingError:
            self.datagrams_dropped += 1
            return
        self.datagrams_forwarded += 1
        if self._forward_defer is not None:
            self._forward_defer(
                lambda: interface.send_datagram(decremented, next_hop)
            )
        else:
            interface.send_datagram(decremented, next_hop)
