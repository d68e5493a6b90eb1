"""A Mixed Type I / Type II system — the paper's open case, built.

Section 2 closes with: "it is conceivable that a hardware/software
system could represent a mixture of Type I and Type II hardware/
software boundaries, but to our knowledge, no published work has
addressed this situation."  This module addresses it.

The system:

* **Type I boundary** — application software executes on the R32
  microprocessor, talking to glue logic and peripherals produced by
  Chinook-style interface synthesis (the Figure 4 configuration);
* **Type II boundary** — the same application offloads a behavior (an
  FIR filter) to a *behaviorally synthesized co-processor*, a peer
  component with its own datapath and controller (the Figure 8
  configuration), reached through one of the synthesized peripheral
  windows.

Both boundaries are live in one co-simulation: the CPU runs generated
driver code to marshal operands into the co-processor's registers; the
co-processor (modeled at the latency its HLS schedule actually has)
computes and interrupts; the ISR collects the result.  The classifier
recognizes the structure as :data:`repro.core.taxonomy.SystemType.MIXED`,
and the result is checked against the behavior's golden reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.taxonomy import (
    Abstraction,
    ClassificationResult,
    ComponentModel,
    Domain,
    SystemModel,
    classify_system,
)
from repro.cosim.kernel import Simulator
from repro.graph import kernels
from repro.hls.synthesize import HlsResult, synthesize
from repro.interface.chinook import InterfaceDesign, synthesize_interface
from repro.interface.spec import Access, DeviceSpec, RegisterSpec, uart_spec
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa

N_TAPS = 4
FIR_COEFFS = [3, -1, 4, 2]


def coprocessor_device_spec(n_args: int) -> DeviceSpec:
    """The co-processor as seen from the bus: argument registers, a
    command register, and a result register."""
    registers = [
        RegisterSpec(f"arg{i}", Access.RW) for i in range(n_args)
    ]
    registers.append(RegisterSpec("cmd", Access.WO))
    registers.append(RegisterSpec("result", Access.RO))
    return DeviceSpec(
        name="copro",
        registers=registers,
        has_interrupt=True,
        wait_states=0,
    )


@dataclass
class MixedSystemResult:
    """Everything the mixed-system run produced."""

    classification: ClassificationResult
    interface: InterfaceDesign
    hls: HlsResult
    outputs: Dict[str, int]
    reference: Dict[str, int]
    uart_bytes: List[int]
    simulated_ns: float
    instructions: int

    @property
    def functionally_correct(self) -> bool:
        """Co-processor result matches the behavior's golden reference."""
        return self.outputs == self.reference

    def summary(self) -> str:
        return (
            f"mixed system: {self.classification.system_type.value}\n"
            f"  glue {self.interface.glue_area:.0f} gates, "
            f"coprocessor {self.hls.area:.0f} gates "
            f"({self.hls.latency_cycles} steps)\n"
            f"  result {'matches' if self.functionally_correct else 'DIFFERS from'} "
            f"reference; {self.instructions} instructions, "
            f"{self.simulated_ns:.0f} ns"
        )


def mixed_system_model() -> SystemModel:
    """The structural model of the mixed system (for classification)."""
    return SystemModel(
        components=[
            ComponentModel("cpu", Domain.HARDWARE, Abstraction.GATE),
            ComponentModel("glue", Domain.HARDWARE, Abstraction.GATE),
            ComponentModel("application", Domain.SOFTWARE,
                           Abstraction.BEHAVIOR),
            ComponentModel("fir_coprocessor", Domain.HARDWARE,
                           Abstraction.BEHAVIOR),
        ],
        executes=[("cpu", "application")],          # Type I boundary
        communicates=[("application", "fir_coprocessor")],  # Type II
    )


def build_and_run_mixed_system(
    samples: Optional[List[int]] = None,
) -> MixedSystemResult:
    """Build the whole mixed system and run it to completion."""
    samples = samples if samples is not None else [5, 9, 2, 7]
    if len(samples) != N_TAPS:
        raise ValueError(f"need exactly {N_TAPS} samples")

    # the Type II peer: an HLS-synthesized FIR datapath
    behavior = kernels.fir(N_TAPS, coefficients=FIR_COEFFS)
    hls = synthesize(behavior)
    reference = behavior.evaluate(
        {f"x{i}": v & 0xFFFFFFFF for i, v in enumerate(samples)}
    )

    # the Type I side: interface synthesis for UART + co-processor window
    copro_spec = coprocessor_device_spec(N_TAPS)
    interface = synthesize_interface([uart_spec(), copro_spec])

    # application: marshal args, kick the co-processor, await the IRQ
    # (the generated ISR bumps the copro interrupt counter), then fetch
    # the result through the generated driver and report it on the UART
    copro_bit = 0  # assigned below once the glue's IRQ order is known
    copro_bit = interface.glue.irq_lines.index("copro")
    counter_addr = interface.driver.irq_counter_base + copro_bit
    arg_writes = "\n".join(
        f"""
        lw   r1, {0x500 + i:#x}(r0)
        jal  write_copro_arg{i}"""
        for i in range(N_TAPS)
    )
    main = f"""
        {arg_writes}
        li   r1, 1
        jal  write_copro_cmd        ; start the co-processor
    await:
        lw   r2, {counter_addr:#x}(r0)  ; IRQ counter from the ISR
        beq  r2, r0, await
        jal  read_copro_result      ; r2 = result, via generated driver
        sw   r2, 0x581(r0)          ; software-observed result
        mov  r1, r2
        jal  write_uart_data        ; report over the UART
        halt
    """
    program = interface.build_program(main)

    mem = Memory()
    mem.load_image(program.image)
    for i, v in enumerate(samples):
        mem.ram[0x500 + i] = v & 0xFFFFFFFF
    cpu = Cpu(Isa(), mem)
    sim = Simulator()

    uart_bytes: List[int] = []
    copro_regs: Dict[int, int] = {}
    cmd_offset = copro_spec.offset_of("cmd")
    result_offset = copro_spec.offset_of("result")
    start_event = sim.event("copro.start")

    def uart_model(offset, value, is_write):
        if is_write and offset == 0:
            uart_bytes.append(value)
        return 0

    def copro_model(offset, value, is_write):
        if is_write:
            copro_regs[offset] = value
            if offset == cmd_offset and not start_event.triggered:
                start_event.succeed()
            return 0
        return copro_regs.get(offset, 0)

    backplane = interface.deploy(
        sim, cpu, {"uart": uart_model, "copro": copro_model}
    )

    def coprocessor():
        """The Type II peer: waits for cmd, computes at its synthesized
        latency, posts the result, raises its interrupt line."""
        yield start_event
        yield sim.timeout(hls.latency_ns)
        inputs = {
            f"x{i}": copro_regs.get(i, 0) for i in range(N_TAPS)
        }
        outputs = hls.simulate(inputs)
        copro_regs[result_offset] = outputs["y"]
        backplane.raise_device_irq("copro")

    sim.process(coprocessor(), name="fir_coprocessor")
    sim.run(until=1e7)

    # the result as the *software* observed it (stored after fetching
    # it through the generated driver routine)
    outputs = {"y": cpu.memory.ram.get(0x581, 0)}
    return MixedSystemResult(
        classification=classify_system(mixed_system_model()),
        interface=interface,
        hls=hls,
        outputs=outputs,
        reference=reference,
        uart_bytes=uart_bytes,
        simulated_ns=sim.now,
        instructions=cpu.instr_count,
    )
