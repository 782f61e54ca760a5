"""MAC and IPv4 address value types.

Both types are immutable, hashable and cheap to compare, so they can key
dictionaries (ARP caches, TCP demux tables) directly.  The hash is computed
once at construction (a 4-tuple lookup hashes two addresses per segment);
its value is unchanged, so set and dict iteration orders are too.
"""

from __future__ import annotations

from typing import Union


class MacAddress:
    """48-bit Ethernet address."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, str, "MacAddress"]):
        if isinstance(value, MacAddress):
            value = value.value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address {value!r}")
            value = int.from_bytes(bytes(int(p, 16) for p in parts), "big")
        if not 0 <= value < 1 << 48:
            raise ValueError(f"MAC address out of range: {value}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("mac", value)))

    def __setattr__(self, name: str, attr_value: object) -> None:
        raise AttributeError("MacAddress is immutable")

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        raw = self.value.to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


BROADCAST_MAC = MacAddress((1 << 48) - 1)


class Ipv4Address:
    """32-bit IPv4 address with subnet helpers."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, str, "Ipv4Address"]):
        if isinstance(value, Ipv4Address):
            value = value.value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address {value!r}")
            octets = [int(p) for p in parts]
            if any(not 0 <= o <= 255 for o in octets):
                raise ValueError(f"malformed IPv4 address {value!r}")
            value = int.from_bytes(bytes(octets), "big")
        if not 0 <= value < 1 << 32:
            raise ValueError(f"IPv4 address out of range: {value}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("ipv4", value)))

    def __setattr__(self, name: str, attr_value: object) -> None:
        raise AttributeError("Ipv4Address is immutable")

    def network_id(self, prefix_len: int) -> int:
        """Network portion under a ``/prefix_len`` mask."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"bad prefix length {prefix_len}")
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0
        return self.value & mask

    def same_subnet(self, other: "Ipv4Address", prefix_len: int) -> bool:
        return self.network_id(prefix_len) == other.network_id(prefix_len)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ipv4Address) and self.value == other.value

    def __lt__(self, other: "Ipv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        raw = self.value.to_bytes(4, "big")
        return ".".join(str(b) for b in raw)

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"
