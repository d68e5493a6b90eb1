"""The R32 instruction-set processor: the framework's software substrate.

Type I hardware/software systems (Figure 1a) view software as a program
executing on an instruction-set processor.  This package provides that
processor end to end:

* :mod:`repro.isa.instructions` — the R32 ISA definition, the one
  semantics table every execution tier builds each opcode from, and
  the binary encoding, including a reserved *custom-instruction*
  opcode space used by the ASIP tools (Section 4.3/4.4 of the paper);
* :mod:`repro.isa.assembler` — a two-pass assembler with labels, data
  directives, and pseudo-instructions;
* :mod:`repro.isa.cpu` — a cycle-counting functional CPU model with
  memory-mapped I/O and interrupts, and :meth:`~repro.isa.cpu.Cpu.fork`
  to copy a running one;
* :mod:`repro.isa.codegen` — a code generator lowering CDFG behaviors to
  R32 assembly (the same behaviors high-level synthesis lowers to
  hardware, enabling true co-verification);
* :mod:`repro.isa.profiler` — execution profiling for hot-spot-driven
  partitioning and custom-instruction mining;
* :mod:`repro.isa.translate` — the block-translation engine: hot
  basic blocks compiled to specialized Python closures, shared by
  every CPU in the process and diffed against the interpreted tier and
  a frozen reference interpreter (DESIGN §13); long CPU-resident runs
  use it by default;
* :mod:`repro.isa.batch` — the fork engine: one golden run keeps a
  copy of itself every 64 retirements, and each software fault cell
  starts as a copy of the latest one before its fault is due and
  finishes on the scalar tiers (DESIGN §14).
"""

from repro._lazy import lazy_exports
from repro.isa.instructions import Instruction, Isa, Opcode
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.cpu import Cpu, CpuError, Memory

# the translator (built by the first long run_block call) and the
# fork engine load on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.isa.translate": (
        "BlockTranslator",
        "auto_translation",
        "install",
    ),
    "repro.isa.batch": ("BatchCpu",),
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
    "install",
    "auto_translation",
]
