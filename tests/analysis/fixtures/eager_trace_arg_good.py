# The sanctioned idiom: hand Tracer.emit a renderer it calls at emit time
# iff a recorder or subscriber exists; give events constant names.


def transmit(self, sealed, dst_ip):
    self.tracer.emit(
        self.sim.now, "tcp.tx", self.node_name,
        seg=sealed.__repr__, dst=dst_ip.__str__,
    )


def reset_sent(self, src_ip, segment):
    self.tracer.emit(
        self.sim.now, "tcp.rst_sent", self.node_name,
        to=lambda: f"{src_ip}:{segment.src_port}",
    )


def bridge_note(self, bc, segment):
    # Plain values cost nothing to pass: ints, existing strings, objects.
    self._event("emit_data", bc, seq=segment.seq, len=len(segment.payload),
                flags=segment.flag_names, role=bc.role)


def core_note(self, bc, exc):
    self.sink._event("mismatch", bc, error=exc.__str__, peer=bc.peer)


def frame_seen(self, frame):
    self.tracer.emit(self.sim.now, "eth.rx", self.name,
                     size=frame.wire_size, frame=frame)


def category_by_kind(self, kind, point):
    self.tracer.emit(self.sim.now, "fault." + kind, point)


def wait_readable(self):
    return Event(self.sim, name="tcp.readable")


def describe(conn):
    # Formatting outside an emit call is nobody's business here.
    raise ConnectionError(f"{conn}: reset during send")
