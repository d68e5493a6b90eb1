"""Device specifications: the common description both sides consume.

A :class:`DeviceSpec` describes a peripheral the way Chinook's common
specification did: its register file (names, access modes, reset
values), whether it interrupts, and how many wait states its accesses
need.  The register-map allocator, glue generator, and driver generator
all read the *same* spec — which is the point: one description, two
implementations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro import _domain


class Access(enum.Enum):
    """Register access modes."""

    RO = "ro"
    WO = "wo"
    RW = "rw"

    @property
    def readable(self) -> bool:
        return self is not Access.WO

    @property
    def writable(self) -> bool:
        return self is not Access.RO


@dataclass(frozen=True)
class RegisterSpec:
    """One device register."""

    name: str
    access: Access = Access.RW
    reset: int = 0

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"register name {self.name!r} not an identifier")


@dataclass
class DeviceSpec:
    """One peripheral device."""

    name: str
    registers: List[RegisterSpec]
    has_interrupt: bool = False
    wait_states: int = 0

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"device name {self.name!r} not an identifier")
        if not self.registers:
            raise ValueError(f"device {self.name!r} has no registers")
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise ValueError(f"device {self.name!r} has duplicate registers")
        _domain.count("wait_states", self.wait_states)

    @property
    def size(self) -> int:
        """Address-window size: registers rounded up to a power of two."""
        n = len(self.registers)
        size = 1
        while size < n:
            size *= 2
        return size

    def register(self, name: str) -> RegisterSpec:
        """Look up a register by name."""
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(f"device {self.name!r} has no register {name!r}")

    def offset_of(self, name: str) -> int:
        """Word offset of a register within the device window."""
        for i, reg in enumerate(self.registers):
            if reg.name == name:
                return i
        raise KeyError(f"device {self.name!r} has no register {name!r}")


def uart_spec() -> DeviceSpec:
    """A UART-ish peripheral: the canonical embedded example."""
    return DeviceSpec(
        name="uart",
        registers=[
            RegisterSpec("data", Access.RW),
            RegisterSpec("status", Access.RO),
            RegisterSpec("ctrl", Access.RW),
            RegisterSpec("baud", Access.RW, reset=9600),
        ],
        has_interrupt=True,
        wait_states=1,
    )


def timer_spec() -> DeviceSpec:
    """A periodic timer peripheral."""
    return DeviceSpec(
        name="timer",
        registers=[
            RegisterSpec("count", Access.RO),
            RegisterSpec("reload", Access.RW),
            RegisterSpec("ctrl", Access.RW),
        ],
        has_interrupt=True,
    )


def gpio_spec() -> DeviceSpec:
    """A general-purpose I/O port."""
    return DeviceSpec(
        name="gpio",
        registers=[
            RegisterSpec("din", Access.RO),
            RegisterSpec("dout", Access.RW),
            RegisterSpec("dir", Access.RW),
        ],
    )
