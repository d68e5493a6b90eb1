"""Static software execution-time and code-size estimation.

A :class:`Processor` characterizes an instruction-set processor the way
the heterogeneous-multiprocessor synthesizers of Section 4.2 need it:
clock period, per-operation cycle costs, and a dollar/area cost.  The
static estimator predicts a behavior's execution time on a processor
from its operation mix; the tests cross-validate against cycle counts
from actually running the generated code on the R32 model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import _domain
from repro.graph.cdfg import CDFG, OpKind


@dataclass(frozen=True)
class Processor:
    """An instruction-set processor characterization.

    ``speed_factor`` scales instruction throughput relative to the
    reference R32 (2.0 = twice as fast); ``cost`` is the component price
    used by cost-minimizing co-synthesis; ``mem_words`` is the on-board
    program memory, the second dimension of the vector-bin-packing
    synthesizer (Beck [13]).
    """

    name: str
    clock_ns: float = 10.0
    speed_factor: float = 1.0
    cost: float = 100.0
    mem_words: float = 4096.0

    def __post_init__(self) -> None:
        _domain.real("clock_ns", self.clock_ns, above=0)
        _domain.real("speed_factor", self.speed_factor, above=0)
        _domain.real("cost", self.cost, least=0)
        _domain.real("mem_words", self.mem_words, above=0)

    def time_for_cycles(self, cycles: float) -> float:
        """Nanoseconds to retire ``cycles`` reference cycles."""
        return cycles * self.clock_ns / self.speed_factor


#: Reference per-op cycle costs on R32-class processors, including the
#: operand load/store traffic the compiler generates around each op.
OP_CYCLES: Dict[OpKind, float] = {
    OpKind.CONST: 1.0,
    OpKind.INPUT: 2.0,   # load from input buffer
    OpKind.OUTPUT: 2.0,  # store to output buffer
    OpKind.ADD: 1.0,
    OpKind.SUB: 1.0,
    OpKind.MUL: 4.0,
    OpKind.DIV: 12.0,
    OpKind.MOD: 12.0,
    OpKind.SHL: 1.0,
    OpKind.SHR: 1.0,
    OpKind.AND: 1.0,
    OpKind.OR: 1.0,
    OpKind.XOR: 1.0,
    OpKind.NOT: 2.0,
    OpKind.NEG: 1.0,
    OpKind.LT: 1.0,
    OpKind.LE: 2.0,
    OpKind.EQ: 3.0,
    OpKind.NE: 2.0,
    OpKind.GE: 2.0,
    OpKind.GT: 1.0,
    OpKind.MUX: 5.0,     # branch-free select sequence
    OpKind.LOAD: 2.0,
    OpKind.STORE: 3.0,
}

#: Estimated instructions per op for code-size purposes.
OP_WORDS: Dict[OpKind, float] = {
    OpKind.CONST: 1.0,
    OpKind.INPUT: 1.0,
    OpKind.OUTPUT: 1.0,
    OpKind.MUX: 5.0,
    OpKind.NOT: 2.0,
    OpKind.EQ: 3.0,
    OpKind.NE: 2.0,
    OpKind.GE: 2.0,
    OpKind.LE: 2.0,
    OpKind.STORE: 2.0,
}


@dataclass(frozen=True)
class SoftwareEstimate:
    """Predicted cycles, time, and code size for one behavior on one
    processor."""

    cycles: float
    time_ns: float
    code_words: int


def estimate_cdfg_software(
    cdfg: CDFG,
    processor: Optional[Processor] = None,
    spill_overhead: float = 0.10,
) -> SoftwareEstimate:
    """Static estimate from the operation mix.

    ``spill_overhead`` adds a fraction for register-pressure spill code;
    10% matches the generated code on the kernel library to within the
    tolerances asserted in the test suite.
    """
    processor = processor or Processor("r32")
    cycles = 0.0
    words = 0.0
    for op in cdfg.ops:
        cycles += OP_CYCLES[op.kind]
        words += OP_WORDS.get(op.kind, 1.0)
    cycles *= (1.0 + spill_overhead)
    words *= (1.0 + spill_overhead)
    cycles += 1  # halt
    words += 1
    return SoftwareEstimate(
        cycles=cycles,
        time_ns=processor.time_for_cycles(cycles),
        code_words=int(round(words)),
    )


def measure_cdfg_software(
    cdfg: CDFG, processor: Optional[Processor] = None
) -> SoftwareEstimate:
    """Exact numbers by compiling and running on the R32 model."""
    from repro.isa.codegen import compile_cdfg

    processor = processor or Processor("r32")
    compiled = compile_cdfg(cdfg)
    inputs = {op.name: 1 for op in cdfg.inputs()}
    _outputs, cycles = compiled.run(inputs)
    return SoftwareEstimate(
        cycles=float(cycles),
        time_ns=processor.time_for_cycles(cycles),
        code_words=compiled.code_size,
    )


def default_processor_library() -> Dict[str, Processor]:
    """The stock processor library for multiprocessor co-synthesis
    (Section 4.2): five types spanning a 8x speed range and a 10x cost
    range — slow parts are disproportionately cheap, which is what makes
    the parallel-but-cheap vs serial-but-fast trade-off interesting."""
    return {
        p.name: p for p in (
            Processor("micro8", clock_ns=40.0, speed_factor=0.5, cost=25.0,
                      mem_words=256.0),
            Processor("micro16", clock_ns=25.0, speed_factor=0.8, cost=45.0,
                      mem_words=1024.0),
            Processor("r32", clock_ns=10.0, speed_factor=1.0, cost=100.0,
                      mem_words=4096.0),
            Processor("r32_fast", clock_ns=6.0, speed_factor=1.5, cost=190.0,
                      mem_words=8192.0),
            Processor("dsp", clock_ns=8.0, speed_factor=2.5, cost=260.0,
                      mem_words=8192.0),
        )
    }
