# What the bridge core may know (pretend src/repro/failover/core.py): its
# own data structures, segments, sequence arithmetic, addresses, stdlib.

from dataclasses import replace

from repro.failover.delta import SeqOffset
from repro.failover.queues import OutputQueue, match_prefix
from repro.net.addresses import Ipv4Address
from repro.tcp.segment import TcpSegment
from repro.tcp.seqnum import seq_add


def passthrough(sink, bc, segment):
    sink._emit(bc, replace(segment, seq=bc.delta.p_to_s(segment.seq)))
