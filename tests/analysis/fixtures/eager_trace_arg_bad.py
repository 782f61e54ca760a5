# Trace arguments formatted before anyone is known to read them: linted
# under a pretend src/repro/tcp path.  Every call below pays for its
# rendering on each segment even when the tracer has no observer.


def transmit(self, sealed, dst_ip):
    self.tracer.emit(
        self.sim.now, "tcp.tx", self.node_name,
        seg=repr(sealed), dst=str(dst_ip),
    )


def reset_sent(self, src_ip, segment):
    self.tracer.emit(
        self.sim.now, "tcp.rst_sent", self.node_name,
        to=f"{src_ip}:{segment.src_port}",
    )


def bridge_note(self, bc):
    self._event("conn_deleted", bc, peer="{}:{}".format(bc.peer_ip, bc.peer_port))


def core_note(self, bc, exc):
    # The core reports through its sink; the fields still reach Tracer.emit.
    self.sink._event("mismatch", bc, error=str(exc), peer=f"{bc.peer_ip}")


def nested(self, shard_ids):
    # Formatting hidden inside a larger expression is still eager.
    self.tracer.emit(self.sim.now, "cluster.storm", "fleet",
                     killed=",".join(str(s) for s in shard_ids))


def formatted_category(self, kind, point):
    self.tracer.emit(self.sim.now, f"fault.{kind}", point)


def wait_readable(self):
    return Event(self.sim, name=f"{self}.readable")


def resolve(self, ip):
    return Event(self.sim, "arp-resolve-" + str(ip))
