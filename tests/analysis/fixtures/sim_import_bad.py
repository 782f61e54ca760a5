# Real-world I/O in a deterministic layer (pretend src/repro/net path).

import socket
import threading
from time import sleep

from tests.util import ChaosLan  # src/ may not reach into the test tree


def serve():
    sock = socket.socket()
    thread = threading.Thread(target=sock.listen)
    thread.start()
    sleep(1.0)
