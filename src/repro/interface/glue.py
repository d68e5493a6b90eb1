"""Glue-logic generation: the hardware half of the interface.

From the register map, generate the structural glue an embedded
microprocessor system needs (Figure 4): the address decoder (one window
comparator per device), the interrupt combiner (OR of device request
lines into the CPU's IRQ pin, plus a priority-encoded status register),
and wait-state counters for slow devices.  Gate counts use simple but
explicit models so the area shows up in system-level cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.interface.regmap import RegisterMap

#: gates per address-comparator bit
DECODER_GATE_PER_BIT = 1.5
#: gates per interrupt-combiner input
IRQ_GATE_PER_LINE = 4.0
#: gates per wait-state counter bit
WAIT_GATE_PER_BIT = 6.0


@dataclass
class DecoderEntry:
    """One device select: match the high address bits of its window."""

    device: str
    base: int
    size: int
    match_bits: int

    def selects(self, addr: int) -> bool:
        """Whether this entry decodes ``addr``."""
        return self.base <= addr < self.base + self.size


@dataclass
class GlueLogic:
    """The generated glue: decoder, interrupt combiner, wait logic."""

    decoder: List[DecoderEntry]
    irq_lines: List[str]              # devices wired to the combiner
    wait_states: Dict[str, int]
    address_bits: int

    def decode(self, addr: int) -> Optional[Tuple[str, int]]:
        """(device, register offset) for an address, or None."""
        for entry in self.decoder:
            if entry.selects(addr):
                return entry.device, addr - entry.base
        return None

    def irq_status_word(self, pending: Dict[str, bool]) -> int:
        """The priority-encoded IRQ status register value: bit *i* set
        when ``irq_lines[i]`` is pending."""
        word = 0
        for i, name in enumerate(self.irq_lines):
            if pending.get(name, False):
                word |= 1 << i
        return word

    @property
    def area(self) -> float:
        """Gate-count estimate of the glue."""
        decoder_area = sum(
            entry.match_bits * DECODER_GATE_PER_BIT
            for entry in self.decoder
        )
        irq_area = len(self.irq_lines) * IRQ_GATE_PER_LINE
        wait_area = sum(
            max(0, ws).bit_length() * WAIT_GATE_PER_BIT
            for ws in self.wait_states.values()
        )
        return decoder_area + irq_area + wait_area

    def netlist_text(self) -> str:
        """A readable structural dump (the 'output netlist')."""
        lines = ["// generated glue logic"]
        for entry in self.decoder:
            lines.append(
                f"decoder {entry.device}_sel = "
                f"(addr[{self.address_bits - 1}:"
                f"{_window_shift(entry.size)}] == "
                f"{entry.base >> _window_shift(entry.size):#x})"
            )
        if self.irq_lines:
            srcs = " | ".join(f"{n}_irq" for n in self.irq_lines)
            lines.append(f"irq cpu_irq = {srcs}")
        for name, ws in sorted(self.wait_states.items()):
            if ws:
                lines.append(f"wait {name}: {ws} cycles")
        return "\n".join(lines)


def _window_shift(size: int) -> int:
    shift = 0
    while (1 << shift) < size:
        shift += 1
    return shift


def build_glue(regmap: RegisterMap, address_bits: int = 16) -> GlueLogic:
    """Generate glue logic from an allocated register map."""
    decoder: List[DecoderEntry] = []
    irq_lines: List[str] = []
    wait_states: Dict[str, int] = {}
    for name in sorted(regmap.devices):
        spec = regmap.devices[name]
        base, size = regmap.window_of(name)
        if base % size != 0:
            raise ValueError(
                f"window of {name!r} not naturally aligned"
            )
        decoder.append(DecoderEntry(
            device=name,
            base=base,
            size=size,
            match_bits=address_bits - _window_shift(size),
        ))
        if spec.has_interrupt:
            irq_lines.append(name)
        wait_states[name] = spec.wait_states
    return GlueLogic(
        decoder=decoder,
        irq_lines=irq_lines,
        wait_states=wait_states,
        address_bits=address_bits,
    )
