"""The R32 instruction-set processor: the framework's software substrate.

Type I hardware/software systems (Figure 1a) view software as a program
executing on an instruction-set processor.  This package provides that
processor end to end:

* :mod:`repro.isa.instructions` — the R32 ISA definition and binary
  encoding, including a reserved *custom-instruction* opcode space used
  by the ASIP tools (Section 4.3/4.4 of the paper);
* :mod:`repro.isa.assembler` — a two-pass assembler with labels, data
  directives, and pseudo-instructions;
* :mod:`repro.isa.cpu` — a cycle-counting functional CPU model with
  memory-mapped I/O and interrupts;
* :mod:`repro.isa.codegen` — a code generator lowering CDFG behaviors to
  R32 assembly (the same behaviors high-level synthesis lowers to
  hardware, enabling true co-verification);
* :mod:`repro.isa.profiler` — execution profiling for hot-spot-driven
  partitioning and custom-instruction mining;
* :mod:`repro.isa.translate` — the block-translation execution tier:
  hot basic blocks compiled to specialized Python closures, proven
  equivalent to ``step()``/``run_block()`` (DESIGN §13);
* :mod:`repro.isa.batch` — the vectorized batch execution tier: many
  near-identical runs (fault lanes, input sweeps) as columns of one
  structure-of-arrays machine, with divergent lanes drained to the
  scalar tiers (DESIGN §14).
"""

from repro._lazy import lazy_exports
from repro.isa.instructions import Instruction, Isa, Opcode
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.cpu import Cpu, CpuError, Memory

# the opt-in translator and the numpy batch tier load on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.isa.translate": (
        "BlockTranslator",
        "auto_translation",
        "disable_auto_translation",
        "enable_auto_translation",
        "install",
    ),
    "repro.isa.batch": ("BatchCpu", "BatchStats", "LaneExit"),
})

__all__ = [
    "Isa",
    "Opcode",
    "Instruction",
    "assemble",
    "AssemblerError",
    "Cpu",
    "Memory",
    "CpuError",
    "BlockTranslator",
    "BatchCpu",
    "BatchStats",
    "LaneExit",
    "install",
    "auto_translation",
    "enable_auto_translation",
    "disable_auto_translation",
]
