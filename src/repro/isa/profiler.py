"""Execution profiling for the R32 processor.

Profiles drive two of the paper's methodologies:

* COSYMA-style software-first partitioning (Henkel/Ernst [17]) moves the
  *performance-critical regions* of software into hardware — found here
  as the hottest basic blocks;
* ASIP custom-instruction selection (Section 4.3) favours the operation
  patterns executed most often.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.cpu import Cpu
from repro.isa.instructions import Instruction, Isa, Opcode


@dataclass
class BasicBlock:
    """A maximal straight-line region of executed code."""

    start: int
    end: int  # inclusive
    executions: int = 0
    cycles: int = 0

    @property
    def size(self) -> int:
        """Instructions in the block."""
        return self.end - self.start + 1


class Profiler:
    """Attach to a CPU to collect execution statistics.

    Usage::

        profiler = Profiler(cpu)
        cpu.run()
        print(profiler.report(isa))

    Attaching registers an observer on the CPU, which takes
    ``run_block`` off its straight-line fast path for the duration —
    so a profiler should be detached once profiling ends.  Prefer the
    context-manager form, which detaches automatically::

        with Profiler(cpu) as profiler:
            cpu.run()
        # fast path re-engaged; profile still readable
    """

    def __init__(self, cpu: Cpu) -> None:
        self.cpu = cpu
        self.isa = cpu.isa
        self.pc_counts: Dict[int, int] = {}
        self.opcode_counts: Dict[int, int] = {}
        self.opcode_cycles: Dict[int, int] = {}
        self.executed_pairs: Dict[Tuple[int, int], int] = {}
        self._last_pc: Optional[int] = None
        #: ``cpu.cycle_count`` at the last retirement observed
        self._last_cycles = cpu.cycle_count
        cpu.observers.append(self._observe)

    def detach(self) -> None:
        """Stop observing; the collected profile stays readable.

        Removes this profiler's observer from the CPU, so with no
        other observers attached ``run_block`` returns to its
        straight-line fast path.  Idempotent.
        """
        try:
            self.cpu.observers.remove(self._observe)
        except ValueError:
            pass  # already detached

    @property
    def attached(self) -> bool:
        """Is this profiler currently observing the CPU?"""
        return self._observe in self.cpu.observers

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def _observe(self, pc: int, instr: Instruction) -> None:
        self.pc_counts[pc] = self.pc_counts.get(pc, 0) + 1
        op = instr.opcode
        self.opcode_counts[op] = self.opcode_counts.get(op, 0) + 1
        # observers run right after the CPU charges a retirement, so
        # the counter's growth is what this one cost: taken-branch
        # penalties and backplane stall cycles included
        now = self.cpu.cycle_count
        self.opcode_cycles[op] = (
            self.opcode_cycles.get(op, 0) + now - self._last_cycles
        )
        self._last_cycles = now
        if self._last_pc is not None:
            pair = (self._last_pc, pc)
            self.executed_pairs[pair] = self.executed_pairs.get(pair, 0) + 1
        self._last_pc = pc

    # ------------------------------------------------------------------
    @property
    def total_instructions(self) -> int:
        """Total retired instructions observed."""
        return sum(self.pc_counts.values())

    @property
    def total_cycles(self) -> int:
        """Total cycles attributed to observed instructions: the growth
        of ``cpu.cycle_count`` over the retirements observed."""
        return sum(self.opcode_cycles.values())

    def hot_pcs(self, top: int = 10) -> List[Tuple[int, int]]:
        """The ``top`` most-executed instruction addresses."""
        return sorted(
            self.pc_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]

    def opcode_histogram(self) -> Dict[str, int]:
        """Executed-instruction counts keyed by mnemonic."""
        return {
            self.isa.mnemonic(op): count
            for op, count in sorted(self.opcode_counts.items())
        }

    def cycle_share(self) -> Dict[str, float]:
        """Fraction of total cycles per mnemonic."""
        total = self.total_cycles
        if total == 0:
            return {}
        return {
            self.isa.mnemonic(op): cycles / total
            for op, cycles in sorted(self.opcode_cycles.items())
        }

    # ------------------------------------------------------------------
    def basic_blocks(self) -> List[BasicBlock]:
        """Reconstruct executed basic blocks from the branch structure.

        A new block starts at any pc that is entered non-sequentially (a
        branch/jump target) or follows a control transfer.
        """
        executed = sorted(self.pc_counts)
        if not executed:
            return []
        starts = {executed[0]}
        for (src, dst), _count in self.executed_pairs.items():
            if dst != src + 1:
                starts.add(dst)          # branch target
                if src + 1 in self.pc_counts:
                    starts.add(src + 1)  # fall-through after a transfer
        # also break blocks at non-contiguous executed addresses
        for prev, cur in zip(executed, executed[1:]):
            if cur != prev + 1:
                starts.add(cur)
        blocks: List[BasicBlock] = []
        current: Optional[BasicBlock] = None
        for pc in executed:
            if pc in starts or current is None:
                if current is not None:
                    blocks.append(current)
                current = BasicBlock(start=pc, end=pc,
                                     executions=self.pc_counts[pc])
            else:
                current.end = pc
            # executions of a block = executions of its first instruction
        if current is not None:
            blocks.append(current)
        return blocks

    def hot_blocks(self, top: int = 5) -> List[BasicBlock]:
        """Basic blocks ranked by total executed instructions
        (executions × size) — COSYMA's extraction candidates."""
        blocks = self.basic_blocks()
        return sorted(
            blocks, key=lambda b: (-b.executions * b.size, b.start)
        )[:top]

    def coverage(self, program_size: int) -> float:
        """Fraction of program addresses ever executed."""
        return len(self.pc_counts) / program_size if program_size else 0.0

    def to_metrics(
        self, registry, prefix: str = "isa", top_blocks: int = 5
    ):
        """Export the profile into a
        :class:`repro.cosim.metrics.MetricsRegistry` so COSYMA-style
        flows read one registry instead of two ad-hoc report formats.

        Counters: ``<prefix>.instructions``, ``<prefix>.cycles``,
        per-mnemonic ``<prefix>.op.<mn>.count`` / ``.cycles``, and per
        hot block ``<prefix>.block.<start>_<end>.executions`` /
        ``.instructions`` (the extraction candidates).  A
        ``<prefix>.block.size`` histogram records the block-length
        distribution.  Returns the registry for chaining.
        """
        registry.counter(f"{prefix}.instructions").inc(
            self.total_instructions
        )
        registry.counter(f"{prefix}.cycles").inc(self.total_cycles)
        for op, count in sorted(self.opcode_counts.items()):
            mn = self.isa.mnemonic(op)
            registry.counter(f"{prefix}.op.{mn}.count").inc(count)
            registry.counter(f"{prefix}.op.{mn}.cycles").inc(
                self.opcode_cycles.get(op, 0)
            )
        size_hist = registry.histogram(f"{prefix}.block.size")
        for block in self.basic_blocks():
            size_hist.observe(block.size)
        for block in self.hot_blocks(top_blocks):
            key = f"{prefix}.block.{block.start:#x}_{block.end:#x}"
            registry.counter(f"{key}.executions").inc(block.executions)
            registry.counter(f"{key}.instructions").inc(
                block.executions * block.size
            )
        return registry

    def report(self, top: int = 5) -> str:
        """A human-readable profile summary."""
        lines = [
            f"instructions: {self.total_instructions}",
            f"cycles:       {self.total_cycles}",
            "hot opcodes:",
        ]
        share = self.cycle_share()
        for mn, frac in sorted(share.items(), key=lambda kv: -kv[1])[:top]:
            lines.append(f"  {mn:8s} {frac * 100:5.1f}% of cycles")
        lines.append("hot blocks:")
        for block in self.hot_blocks(top):
            lines.append(
                f"  [{block.start:#x}..{block.end:#x}] "
                f"x{block.executions} ({block.size} instrs)"
            )
        return "\n".join(lines)
