"""Protection domains and memory regions.

Access to a remote buffer succeeds only if the (addr, length) range lies in
an MR registered on the target's NIC under that 32-bit rkey, with the
needed access right — mirroring verbs semantics, including the failure
mode (a remote access error transitions the QP to ERROR).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Flag, auto
from typing import Dict, Optional


class AccessFlags(Flag):
    LOCAL_WRITE = auto()
    REMOTE_READ = auto()
    REMOTE_WRITE = auto()

    @classmethod
    def all_remote(cls) -> "AccessFlags":
        return cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE


@dataclass
class MemoryRegion:
    addr: int
    length: int
    lkey: int
    rkey: int
    access: AccessFlags

    def contains(self, addr: int, length: int) -> bool:
        return (self.addr <= addr
                and addr + length <= self.addr + self.length)


class ProtectionDomain:
    """Groups one owner's MRs; rkeys are not scoped to it (any valid
    rkey passes the NIC's :class:`MrTable`, whichever PD registered it)."""

    def __init__(self) -> None:
        self.mrs: Dict[int, MemoryRegion] = {}      # by lkey


class MrTable:
    """Issues the NIC's MR keys and validates inbound one-sided access."""

    def __init__(self) -> None:
        self._by_rkey: Dict[int, MemoryRegion] = {}
        self._keys = itertools.count(0x1001)

    def register(self, pd: ProtectionDomain, addr: int, length: int,
                 access: AccessFlags) -> MemoryRegion:
        """A new MR of ``pd`` under a fresh key, open to inbound access."""
        if length <= 0:
            raise ValueError(f"MR length must be positive: {length}")
        key = next(self._keys)
        mr = MemoryRegion(addr=addr, length=length, lkey=key, rkey=key,
                          access=access)
        self._by_rkey[key] = pd.mrs[key] = mr
        return mr

    def deregister(self, pd: ProtectionDomain, mr: MemoryRegion) -> None:
        if pd.mrs.pop(mr.lkey, None) is None:
            raise KeyError(f"MR lkey={mr.lkey:#x} not registered in this PD")
        self._by_rkey.pop(mr.rkey, None)

    def check(self, rkey: int, addr: int, length: int,
              write: bool) -> Optional[MemoryRegion]:
        """The MR authorizing the access, or None (→ remote access error)."""
        mr = self._by_rkey.get(rkey)
        if mr is None or not mr.contains(addr, length):
            return None
        needed = AccessFlags.REMOTE_WRITE if write else AccessFlags.REMOTE_READ
        if not (mr.access & needed):
            return None
        return mr
