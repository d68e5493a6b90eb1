"""Software driver generation: the software half of the interface.

From the same register map the glue was generated from, emit R32
assembly access routines (one read/write routine per register, honoring
access modes) and an interrupt dispatch routine that reads the glue's
IRQ status word and calls per-device handlers in priority order.

Calling convention: argument in ``r1``, result in ``r2``, ``r3``
scratch, return address in ``ra`` — matching the framework's code
generator.  The generated text is real assembly: the Chinook flow
(:mod:`repro.interface.chinook`) assembles it and the tests execute it
against the generated glue on the co-simulation backplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.interface.glue import GlueLogic
from repro.interface.regmap import RegisterMap


@dataclass
class DriverCode:
    """Generated driver assembly plus its entry-point labels."""

    asm: str
    routines: Dict[str, str]      # api name -> label
    irq_counter_base: int

    def label_for(self, device: str, register: str, op: str) -> str:
        """Label of the access routine for (device, register, read/write)."""
        key = f"{op}_{device}_{register}"
        if key not in self.routines:
            raise KeyError(f"no routine {key!r} (check access mode)")
        return self.routines[key]


def generate_driver(
    regmap: RegisterMap,
    glue: GlueLogic,
    irq_status_addr: Optional[int] = None,
    irq_counter_base: int = 0x700,
) -> DriverCode:
    """Generate the driver module.

    ``irq_status_addr`` is where the glue's IRQ status word is readable;
    defaults to the word after the last device window.  The dispatch
    routine bumps a per-device counter at ``irq_counter_base + i`` and
    acknowledges by reading the device's first readable register.
    """
    if irq_status_addr is None:
        irq_status_addr = regmap.end
    lines: List[str] = [
        f"; generated driver (io window {regmap.io_base:#x}.."
        f"{regmap.io_base + regmap.io_size:#x})",
    ]
    routines: Dict[str, str] = {}

    for dev_name in sorted(regmap.devices):
        spec = regmap.devices[dev_name]
        for reg in spec.registers:
            addr = regmap.address_of(dev_name, reg.name)
            if reg.access.readable:
                label = f"read_{dev_name}_{reg.name}"
                routines[label] = label
                lines += [
                    f"{label}:",
                    f"    lw r2, {addr:#x}(r0)",
                    "    jr ra",
                ]
            if reg.access.writable:
                label = f"write_{dev_name}_{reg.name}"
                routines[label] = label
                lines += [
                    f"{label}:",
                    f"    sw r1, {addr:#x}(r0)",
                    "    jr ra",
                ]

    # interrupt dispatch: read status, test bits in priority order
    lines += [
        "irq_dispatch:",
        f"    lw r2, {irq_status_addr:#x}(r0)",
    ]
    routines["irq_dispatch"] = "irq_dispatch"
    for i, dev_name in enumerate(glue.irq_lines):
        lines += [
            f"    andi r3, r2, {1 << i}",
            f"    bne  r3, r0, svc_{dev_name}",
        ]
    lines.append("    jr ra")
    for i, dev_name in enumerate(glue.irq_lines):
        spec = regmap.devices[dev_name]
        ack_reg = next(
            (r for r in spec.registers if r.access.readable), None
        )
        counter = irq_counter_base + i
        lines += [
            f"svc_{dev_name}:",
            f"    lw r3, {counter:#x}(r0)",
            "    addi r3, r3, 1",
            f"    sw r3, {counter:#x}(r0)",
        ]
        if ack_reg is not None:
            addr = regmap.address_of(dev_name, ack_reg.name)
            lines.append(f"    lw r3, {addr:#x}(r0)   ; acknowledge")
        lines.append("    jr ra")
        routines[f"svc_{dev_name}"] = f"svc_{dev_name}"

    return DriverCode(
        asm="\n".join(lines) + "\n",
        routines=routines,
        irq_counter_base=irq_counter_base,
    )
