"""Register-map allocation.

Assigns each device a naturally-aligned base address inside the I/O
window and produces the shared symbol table: the hardware decoder and
the generated drivers both derive their addresses from it, so they
cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.interface.spec import DeviceSpec


class RegmapError(ValueError):
    """Raised when devices do not fit the I/O window."""


@dataclass
class RegisterMap:
    """Device base addresses plus a flat register symbol table."""

    io_base: int
    io_size: int
    bases: Dict[str, int]
    devices: Dict[str, DeviceSpec]

    def address_of(self, device: str, register: str) -> int:
        """Absolute word address of one register."""
        spec = self.devices[device]
        return self.bases[device] + spec.offset_of(register)

    def window_of(self, device: str) -> Tuple[int, int]:
        """(base, size) of one device's window."""
        return self.bases[device], self.devices[device].size

    def symbols(self) -> Dict[str, int]:
        """Flat ``DEV_REG`` -> address table."""
        out: Dict[str, int] = {}
        for name, spec in self.devices.items():
            out[f"{name.upper()}_BASE"] = self.bases[name]
            for reg in spec.registers:
                out[f"{name.upper()}_{reg.name.upper()}"] = \
                    self.address_of(name, reg.name)
        return out

    def asm_equates(self) -> str:
        """The symbol table as assembler constants (informational; the
        driver generator inlines addresses directly)."""
        lines = [f"; register map @ {self.io_base:#x}"]
        for symbol, addr in sorted(self.symbols().items(),
                                   key=lambda kv: (kv[1], kv[0])):
            lines.append(f"; {symbol} = {addr:#06x}")
        return "\n".join(lines)

    @property
    def end(self) -> int:
        """First address past the last allocated window."""
        return max(
            (self.bases[n] + self.devices[n].size for n in self.devices),
            default=self.io_base,
        )


def allocate_register_map(
    devices: List[DeviceSpec],
    io_base: int = 0x800,
    io_size: int = 0x400,
) -> RegisterMap:
    """Allocate naturally-aligned windows, largest devices first
    (minimizing padding), ties broken by name for determinism."""
    names = [d.name for d in devices]
    if len(set(names)) != len(names):
        raise RegmapError("duplicate device names")
    ordered = sorted(devices, key=lambda d: (-d.size, d.name))
    bases: Dict[str, int] = {}
    cursor = io_base
    for dev in ordered:
        aligned = _align(cursor, dev.size)
        if aligned + dev.size > io_base + io_size:
            raise RegmapError(
                f"device {dev.name!r} does not fit the I/O window "
                f"[{io_base:#x}, {io_base + io_size:#x})"
            )
        bases[dev.name] = aligned
        cursor = aligned + dev.size
    return RegisterMap(
        io_base=io_base,
        io_size=io_size,
        bases=bases,
        devices={d.name: d for d in devices},
    )


def _align(addr: int, size: int) -> int:
    return (addr + size - 1) // size * size
