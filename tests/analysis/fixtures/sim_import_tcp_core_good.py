# What the TCP core may know (pretend src/repro/tcp/core.py): its own
# buffers and estimators, segments, sequence arithmetic, addresses, stdlib.

import dataclasses
import enum

from repro.net.addresses import Ipv4Address
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.congestion import CongestionControl
from repro.tcp.rto import RtoEstimator
from repro.tcp.segment import FLAG_ACK, TcpSegment
from repro.tcp.seqnum import seq_add


def start_rtx(core, now):
    core._deadline("rtx", core.rto.rto)
    core._event("rtx", conn=core.__repr__)
