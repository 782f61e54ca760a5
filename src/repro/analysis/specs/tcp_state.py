"""Spec for the ``TcpState`` machine in :mod:`repro.tcp.core`.

The RFC 793 connection-lifecycle subset the simulator implements, plus
the two failover-specific entries:

* ``install_state`` warps a fresh TCB straight into a transferable state
  (``ESTABLISHED``/``CLOSE_WAIT``) when a snapshot is installed on the
  secondary — declared as a ``dynamic`` assignment bounded by
  ``TRANSFERABLE_STATES``;
* ``_destroy`` (reset, fence, give-up, LAST_ACK acknowledged, TIME_WAIT
  entered — the linger table keeps TIME_WAIT, not the block — half-open
  drop at reintegration) returns to ``CLOSED`` from anywhere — declared
  via ``from_any`` rather than ten individual edges.

No LISTEN state: the simulator models listening at the TCP layer
(``TcpLayer.listeners``), a TCB exists only once a SYN arrives.
"""

from __future__ import annotations

from repro.analysis.protocol import ProtocolSpec

_STATES = frozenset({
    "CLOSED",
    "SYN_SENT",
    "SYN_RCVD",
    "ESTABLISHED",
    "FIN_WAIT_1",
    "FIN_WAIT_2",
    "CLOSE_WAIT",
    "CLOSING",
    "LAST_ACK",
    "TIME_WAIT",
})

_TRANSITIONS = frozenset({
    # opening
    ("CLOSED", "SYN_SENT"),  # active_open
    ("CLOSED", "SYN_RCVD"),  # passive_open
    ("SYN_SENT", "ESTABLISHED"),  # SYN-ACK arrived
    ("SYN_RCVD", "ESTABLISHED"),  # handshake ACK arrived
    # snapshot install on the secondary (dynamic, see below)
    ("CLOSED", "ESTABLISHED"),
    ("CLOSED", "CLOSE_WAIT"),
    # our FIN sent
    ("ESTABLISHED", "FIN_WAIT_1"),
    ("CLOSE_WAIT", "LAST_ACK"),
    # peer FIN processed
    ("ESTABLISHED", "CLOSE_WAIT"),
    ("FIN_WAIT_1", "CLOSING"),
    ("FIN_WAIT_2", "TIME_WAIT"),
    # our FIN acked
    ("FIN_WAIT_1", "FIN_WAIT_2"),
    ("CLOSING", "TIME_WAIT"),
})

SPEC = ProtocolSpec(
    name="tcp-state",
    path="src/repro/tcp/core.py",
    enum="TcpState",
    attribute="state",
    owner="TcpCore",
    states=_STATES,
    initial=frozenset({"CLOSED"}),
    terminal=frozenset({"CLOSED"}),
    transitions=_TRANSITIONS,
    from_any=frozenset({"CLOSED"}),
    dynamic={
        # install_state assigns a computed state, runtime-guarded to
        # TRANSFERABLE_STATES — keep this set equal to that tuple.
        "TcpCore.install_state": frozenset({"ESTABLISHED", "CLOSE_WAIT"}),
    },
)
