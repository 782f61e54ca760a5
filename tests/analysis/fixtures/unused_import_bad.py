# Every import below binds a name nothing reads: each one is a finding.
# Naming a module in a comment or a plain string is not a read: "List".
import json
import os.path
from collections import OrderedDict as Ordered
from typing import Dict, List

from repro.tcp.seqnum import seq_add


def lengths(items):
    return [len(item) for item in items]
