"""The Chinook-style interface synthesis flow (Section 4.1).

``synthesize_interface(devices)`` runs register-map allocation, glue
generation, and driver generation from the one shared specification,
and packages the result as an :class:`InterfaceDesign` that can:

* splice the generated driver under any application program
  (:meth:`InterfaceDesign.build_program`), and
* *deploy* itself onto a co-simulation: device models are instantiated
  behind the generated decoder, the IRQ combiner drives the CPU's
  interrupt pin, and the generated drivers are what the software runs
  (:meth:`InterfaceDesign.deploy`).  Becker et al.'s co-simulation [4]
  then validates the whole interface by execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cosim.backplane import Backplane, InterfaceAdapter
from repro.cosim.kernel import Simulator
from repro.interface.driver import DriverCode, generate_driver
from repro.interface.glue import GlueLogic, build_glue
from repro.interface.regmap import RegisterMap, allocate_register_map
from repro.interface.spec import DeviceSpec
from repro.isa.assembler import Program, assemble
from repro.isa.cpu import Cpu
from repro.isa.instructions import Isa

#: device-model behavior: (register offset, value, is_write) -> read value
DeviceModel = Callable[[int, int, bool], int]


@dataclass
class InterfaceDesign:
    """The synthesized interface: register map, glue, and drivers."""

    devices: List[DeviceSpec]
    regmap: RegisterMap
    glue: GlueLogic
    driver: DriverCode
    driver_base: int = 0x100
    ivec: int = 0x40
    isr_save_base: int = 0x7F0

    @property
    def glue_area(self) -> float:
        """Gate count of the generated hardware."""
        return self.glue.area

    def build_program(self, main_asm: str, isa: Optional[Isa] = None)\
            -> Program:
        """Assemble application + ISR stub + generated driver into one
        image.

        The ISR at ``ivec`` saves the registers the generated driver
        uses (r2, r3, ra) to a reserved area, calls the generated
        dispatch, and restores them before ``reti`` — interrupts stay
        disabled throughout, so a single save area suffices.
        """
        save = self.isr_save_base
        text = "\n".join([
            main_asm,
            f".org {self.ivec:#x}",
            f"    sw r2, {save:#x}(r0)",
            f"    sw r3, {save + 1:#x}(r0)",
            f"    sw ra, {save + 2:#x}(r0)",
            "    jal irq_dispatch",
            f"    lw r2, {save:#x}(r0)",
            f"    lw r3, {save + 1:#x}(r0)",
            f"    lw ra, {save + 2:#x}(r0)",
            "    reti",
            f".org {self.driver_base:#x}",
            self.driver.asm,
        ])
        return assemble(text, isa or Isa())

    def deploy(
        self,
        sim: Simulator,
        cpu: Cpu,
        models: Dict[str, DeviceModel],
        clock_period: float = 10.0,
    ) -> Backplane:
        """Mount the synthesized interface on a co-simulation.

        ``models`` gives each device's behavior; the glue's decoder
        routes accesses, per-device wait states charge time, the IRQ
        status word appears at ``regmap.end``, and device models may
        raise interrupts via the returned backplane.
        """
        missing = set(d.name for d in self.devices) - set(models)
        if missing:
            raise KeyError(f"no model for devices: {sorted(missing)}")
        backplane = Backplane(sim, cpu, clock_period=clock_period)
        pending: Dict[str, bool] = {d.name: False for d in self.devices}
        design = self

        class _GlueAdapter(InterfaceAdapter):
            """Routes window accesses through the generated decoder."""

            def access(self, offset: int, value: int, is_write: bool):
                addr = design.regmap.io_base + offset
                if addr == design.regmap.end and not is_write:
                    return design.glue.irq_status_word(pending)
                decoded = design.glue.decode(addr)
                if decoded is None:
                    return 0
                dev_name, reg_offset = decoded
                wait = design.glue.wait_states.get(dev_name, 0)
                if wait:
                    yield sim.timeout(wait * clock_period)
                result = models[dev_name](reg_offset, value, is_write)
                if not is_write and pending.get(dev_name):
                    # a read of the device acknowledges its interrupt;
                    # re-raise if another device is still waiting
                    pending[dev_name] = False
                    if any(pending.values()):
                        backplane.irq()
                return result
                yield  # pragma: no cover - makes this a generator

        # one mount covering the whole I/O window + the status word
        window = self.regmap.end - self.regmap.io_base + 1
        backplane.mount(self.regmap.io_base, window, _GlueAdapter())

        def raise_irq(device: str) -> None:
            if device not in pending:
                raise KeyError(f"unknown device {device!r}")
            pending[device] = True
            backplane.irq()

        backplane.raise_device_irq = raise_irq  # type: ignore[attr-defined]
        backplane.start()
        return backplane

    def report(self) -> str:
        """A synthesis report in the style of an interface compiler."""
        lines = [
            f"interface: {len(self.devices)} devices, "
            f"glue {self.glue_area:.0f} gates",
            self.regmap.asm_equates(),
            self.glue.netlist_text(),
        ]
        return "\n".join(lines)


def synthesize_interface(
    devices: List[DeviceSpec],
    io_base: int = 0x800,
    io_size: int = 0x400,
    address_bits: int = 16,
) -> InterfaceDesign:
    """Run the full interface-synthesis flow."""
    regmap = allocate_register_map(devices, io_base, io_size)
    glue = build_glue(regmap, address_bits)
    driver = generate_driver(regmap, glue)
    return InterfaceDesign(
        devices=list(devices),
        regmap=regmap,
        glue=glue,
        driver=driver,
    )
