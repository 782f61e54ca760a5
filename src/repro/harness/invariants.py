"""End-to-end invariant checker for failover runs (paper §2).

The paper's §2 states the three requirements a transparent failover must
uphold; this module turns them into machine-checked invariants that
every cell (chaos, attack, the paper's experiments) is judged by.  They
come from the paper, never from the bridge's flags:

**Per-emission invariants** (checked live on each segment the primary
bridge sends to the peer, via :meth:`InvariantChecker.attach_primary_bridge`):

1. *never-ack-unreplicated* — the bridge never acknowledges a peer byte
   the secondary has not also acknowledged (ACK = min(ack_P, ack_S));
   violating this is exactly how an ablated bridge loses data on failover.
2. *min-window merge* — the advertised window is min(win_P, win_S), so
   the peer never sends more than the slower replica can buffer.
3. *contiguous emission* — payload is emitted in order: a data segment
   never starts beyond the high-water mark already sent (retransmissions
   start below it, fresh data exactly at it).  A gap here would manifest
   as client-visible reordering invented by the bridge itself.

**End-of-run invariants** (checked once the simulation quiesces):

4. *exactly-once in-order delivery* — the bytes an application actually
   received are a **prefix** of the expected stream: no duplication, no
   reordering, no corruption surviving the checksums.
5. *no acked byte lost* — every payload byte the client's TCP saw
   acknowledged is present in the surviving server application's data.
   This is requirement 2 of §2 and the heart of the failover guarantee.
6. *no client reset* — the unreplicated peer never observes a RST; the
   failover is invisible (requirement 1 of §2).
7. *replica agreement* — the bridge detected no payload mismatch between
   the replicas' output streams.

Violations are collected, not raised, so one run reports all of them;
``assert_ok()`` raises with the full report (including the fault-plane
reproduction recipe when one is attached).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.tcp.seqnum import seq_diff, seq_le


@dataclass
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:.6f}] {self.invariant}: {self.detail}"


class InvariantChecker:
    """Collects paper-§2 invariant violations across one simulated run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.violations: List[Violation] = []
        self.bridges: list = []
        self.emissions = 0

    # -- live per-emission checks -----------------------------------------

    def attach_primary_bridge(self, bridge) -> None:
        """Wrap ``bridge._emit`` so every outgoing segment is validated.

        Idempotent per bridge: reintegration re-announces the surviving
        bridge (which may be the same object flipping back from §6 direct
        mode), and wrapping twice would double-count emissions."""
        if bridge in self.bridges:
            return
        self.bridges.append(bridge)
        original_emit = bridge._emit

        def checked_emit(bc, segment):
            self._check_emission(bridge, bc, segment)
            original_emit(bc, segment)

        # replint: allow(mutation-escape) -- sanctioned instrumentation: the wrapper only observes and forwards to the original _emit verbatim
        bridge._emit = checked_emit

    def _check_emission(self, bridge, bc, segment) -> None:
        self.emissions += 1
        now = bridge.host.sim.now
        if segment.rst or bc.direct:
            return  # an abort's values are verbatim; §6 mode merges nothing
        merge = bc.merge
        if (
            segment.has_ack
            and merge.ack_s is not None
            and not seq_le(segment.ack, merge.ack_s)
        ):
            self.violations.append(Violation(
                now, "never-ack-unreplicated",
                f"emitted ack={segment.ack} beyond secondary's"
                f" ack_s={merge.ack_s} (ack_p={merge.ack_p})",
            ))
        if segment.window != min(merge.win_p, merge.win_s):
            self.violations.append(Violation(
                now, "min-window-merge",
                f"emitted window={segment.window}, expected"
                f" min(win_p={merge.win_p}, win_s={merge.win_s})",
            ))
        if (
            segment.payload
            and bc.sent_hwm is not None
            and not seq_le(segment.seq, bc.sent_hwm)
        ):
            self.violations.append(Violation(
                now, "contiguous-emission",
                f"data seq={segment.seq} starts beyond sent_hwm={bc.sent_hwm}",
            ))

    # -- end-of-run checks -------------------------------------------------

    def check_stream_prefix(self, name: str, expected: bytes, actual: bytes,
                            now: float = 0.0) -> None:
        """Invariant 4: ``actual`` must be a prefix of ``expected``."""
        if len(actual) > len(expected):
            self.violations.append(Violation(
                now, "exactly-once",
                f"{name}: received {len(actual)} bytes,"
                f" more than the {len(expected)} ever sent",
            ))
            return
        if actual != expected[: len(actual)]:
            first_bad = next(
                i for i, (a, b) in enumerate(zip(actual, expected)) if a != b
            )
            self.violations.append(Violation(
                now, "in-order-prefix",
                f"{name}: byte {first_bad} differs"
                f" (got {actual[first_bad]:#x},"
                f" expected {expected[first_bad]:#x})",
            ))

    def check_acked_bytes_delivered(
        self,
        blob: bytes,
        client_acked_seq: Optional[int],
        stream_start: int,
        delivered: int,
        now: float = 0.0,
    ) -> int:
        """Invariant 5: acked client payload survives the failover.

        ``client_acked_seq`` is the client connection's ``snd_una``,
        ``stream_start`` the sequence number of
        payload byte 0 (ISS+1), ``delivered`` how many payload bytes the
        surviving server application received.  Returns the acked count.
        """
        if client_acked_seq is None:
            return 0
        # snd_una also covers SYN (+1 before any payload) and FIN (+1 at
        # the end); clamp to the payload range.  The difference must be
        # *signed* (seq_diff, not seq_sub): before the SYN is acknowledged
        # snd_una sits one behind stream_start, and the unsigned distance
        # 2^32-1 would clamp to len(blob) — claiming the whole stream was
        # acked when nothing ever was.
        acked = max(0, min(seq_diff(client_acked_seq, stream_start), len(blob)))
        if delivered < acked:
            self.violations.append(Violation(
                now, "acked-byte-lost",
                f"client saw {acked} payload bytes acked but the surviving"
                f" server delivered only {delivered}",
            ))
        return acked

    def check_no_peer_reset(self, node: str = "client") -> None:
        """Invariant 6: the unreplicated peer never receives a RST."""
        if self.tracer is None:
            return
        for record in self.tracer.select(category="tcp.rst_received", node=node):
            self.violations.append(Violation(
                record.time, "peer-reset",
                f"{node} received a RST: {record.detail}",
            ))

    # -- adversarial isolation invariants ---------------------------------

    def check_no_spoofed_teardown(self) -> None:
        """Isolation invariant: no established connection was torn down by
        a segment outside the RFC 5961 exact-match window.

        Every ``tcp.rst_received`` teardown is checked against the
        attacker's injection log (``adversary.inject`` records): a teardown
        whose node and RST sequence match a spoofed injection means a blind
        reset got through.
        """
        if self.tracer is None:
            return
        injected = set()
        for record in self.tracer.select(category="adversary.inject"):
            detail = record.detail
            if detail.get("kind") == "rst":
                injected.add((detail.get("victim"), detail.get("seq")))
        if not injected:
            return
        spoofed_targets = {t for t, _ in injected}
        for record in self.tracer.select(category="tcp.rst_received"):
            if record.node not in spoofed_targets:
                continue
            seq = record.detail.get("seq")
            if (record.node, seq) in injected:
                self.violations.append(Violation(
                    record.time, "spoofed-teardown",
                    f"{record.node} tore down a connection on a spoofed RST"
                    f" (seq={seq}) — blind reset accepted",
                ))

    def check_connection_survived(self, conn, label: str, now: float = 0.0) -> None:
        """Isolation invariant: the attacked connection is still alive.

        A compliant stack must survive blind in-window RST/SYN/FIN bursts;
        an aborted or reset TCB here means a forgery was honoured.
        """
        if conn.state.value != "ESTABLISHED":
            self.violations.append(Violation(
                now, "attack-burst-survival",
                f"{label}: connection in state {conn.state.value}"
                f" after attack burst",
            ))
        if conn.reset_received:
            self.violations.append(Violation(
                now, "attack-burst-survival",
                f"{label}: connection observed a reset during the attack",
            ))

    def check_pmtud_isolation(self, conn, floor_mss: int, label: str,
                              now: float = 0.0) -> None:
        """Isolation invariant: off-path PMTUD probes never shrank the MSS."""
        if conn.mss < floor_mss:
            self.violations.append(Violation(
                now, "pmtud-isolation",
                f"{label}: mss clamped to {conn.mss} (< {floor_mss}) by"
                f" unvalidated ICMP frag-needed",
            ))

    def check_seq_not_inferred(self, estimate_error: int, probes: int,
                               probe_budget: int, min_error: int = 4096,
                               now: float = 0.0) -> None:
        """Isolation invariant: Δseq is not inferable within the probe budget.

        ``estimate_error`` is the attacker's final |estimate - true rcv_nxt|
        (circular distance); within ``probe_budget`` probes the side channel
        must not have narrowed it below ``min_error``.
        """
        if probes <= probe_budget and estimate_error < min_error:
            self.violations.append(Violation(
                now, "seq-inference",
                f"attacker narrowed the sequence window to ±{estimate_error}"
                f" in {probes} probes (budget {probe_budget})",
            ))

    def check_flow_isolation(self, service, expected_pins, now: float = 0.0) -> None:
        """Isolation invariant: dispatcher flow table resisted poisoning.

        ``expected_pins`` maps flow_id -> shard_id pinned before the attack;
        every victim flow must still be pinned to the same live shard, and
        the table must not have grown past ``max_flows``.
        """
        for flow_id, shard_id in expected_pins.items():
            slot = service.flows.slot_of(flow_id)
            if slot < 0:
                self.violations.append(Violation(
                    now, "flow-isolation",
                    f"flow {flow_id} evicted from the dispatcher table",
                ))
            elif service.flows.shard_at(slot) != shard_id:
                self.violations.append(Violation(
                    now, "flow-isolation",
                    f"flow {flow_id} re-steered from {shard_id} to"
                    f" {service.flows.shard_at(slot)} by a spoofed SYN",
                ))
        if len(service.flows) > service.max_flows:
            self.violations.append(Violation(
                now, "flow-isolation",
                f"flow table grew to {len(service.flows)} entries"
                f" (max_flows={service.max_flows})",
            ))

    def check_client_outcomes(self, ledger, now: float = 0.0) -> None:
        """Client-visible-outcome invariant: exactly one outcome per request.

        Every request submitted through a connection pool must be
        acknowledged exactly once or reported failed — regardless of how
        many DNS flips, proxy re-routes, or IP takeovers happened while
        it was in flight.  Three ways to break it:

        * **silent loss** — submitted, but neither acked nor failed;
        * **duplicate delivery** — more than one ack for one request id;
        * **double outcome** — both acked and reported failed.
        """
        acks = ledger.acks
        failures = ledger.failures
        for rid, label in ledger.submitted.items():
            ack_count = acks.get(rid, 0)
            failed = bool(failures.get(rid))
            if ack_count == 0 and not failed:
                self.violations.append(Violation(
                    now, "client-outcome",
                    f"request {rid} ({label}) silently lost: submitted at"
                    f" t={ledger.submit_times.get(rid, 0.0):.6f} with no ack"
                    f" and no failure report",
                ))
            elif ack_count > 1:
                self.violations.append(Violation(
                    now, "client-outcome",
                    f"request {rid} ({label}) delivered {ack_count} times",
                ))
            elif ack_count and failed:
                self.violations.append(Violation(
                    now, "client-outcome",
                    f"request {rid} ({label}) both acked and reported"
                    f" failed ({failures[rid][0]})",
                ))

    def check_replica_agreement(self) -> None:
        """Invariant 7: no payload mismatch between the replicas."""
        for bridge in self.bridges:
            if bridge.mismatches:
                self.violations.append(Violation(
                    bridge.host.sim.now, "replica-mismatch",
                    f"bridge on {bridge.host.name} recorded"
                    f" {bridge.mismatches} payload mismatch(es)",
                ))

    # -- reporting ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.ok:
            return f"all invariants held over {self.emissions} emissions"
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    def assert_ok(self, recipe: str = "") -> None:
        """Raise AssertionError with the full report (plus fault recipe)."""
        if self.ok:
            return
        message = self.report()
        if recipe:
            message += "\nreproduction recipe:\n" + recipe
        raise AssertionError(message)
