"""Fine-grain control/data-flow graphs (CDFGs).

A :class:`CDFG` describes the internals of a single behavior as a DAG of
arithmetic/logic operations.  It is the unit of exchange between:

* high-level synthesis (:mod:`repro.hls`), which schedules and binds the
  operations into a datapath + controller;
* software code generation (:mod:`repro.isa.codegen`), which lowers the
  same operations to R32 instructions;
* the ASIP tools (:mod:`repro.asip`), which mine the graph for custom
  instruction patterns.

Because both the hardware and the software implementation are generated
from the same CDFG, the co-simulation experiments can check them against
each other with :meth:`CDFG.evaluate` as the functional reference — the
"unified understanding of hardware and software functionality" that
Section 3.2 of the paper calls for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

MASK32 = 0xFFFFFFFF


class OpKind(enum.Enum):
    """Operation kinds understood by every backend in the framework."""

    CONST = "const"
    INPUT = "input"
    OUTPUT = "output"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    NEG = "neg"
    LT = "lt"
    LE = "le"
    EQ = "eq"
    NE = "ne"
    GE = "ge"
    GT = "gt"
    MUX = "mux"
    LOAD = "load"
    STORE = "store"

    @property
    def arity(self) -> int:
        """Number of data inputs the op consumes."""
        return _ARITY[self]

    @property
    def is_source(self) -> bool:
        """True for ops that produce a value with no data inputs."""
        return self in (OpKind.CONST, OpKind.INPUT)

    @property
    def is_compute(self) -> bool:
        """True for ops that a functional unit must execute."""
        return not self.is_source and self is not OpKind.OUTPUT


_ARITY = {
    OpKind.CONST: 0,
    OpKind.INPUT: 0,
    OpKind.OUTPUT: 1,
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.MUL: 2,
    OpKind.DIV: 2,
    OpKind.MOD: 2,
    OpKind.SHL: 2,
    OpKind.SHR: 2,
    OpKind.AND: 2,
    OpKind.OR: 2,
    OpKind.XOR: 2,
    OpKind.NOT: 1,
    OpKind.NEG: 1,
    OpKind.LT: 2,
    OpKind.LE: 2,
    OpKind.EQ: 2,
    OpKind.NE: 2,
    OpKind.GE: 2,
    OpKind.GT: 2,
    OpKind.MUX: 3,
    OpKind.LOAD: 1,
    OpKind.STORE: 2,
}

#: Default single-operation delays in nanoseconds, used for quick critical
#: path estimates.  The HLS component library (:mod:`repro.hls.library`)
#: carries its own, finer-grained numbers.
DEFAULT_DELAYS: Dict[OpKind, float] = {
    OpKind.CONST: 0.0,
    OpKind.INPUT: 0.0,
    OpKind.OUTPUT: 0.0,
    OpKind.ADD: 1.0,
    OpKind.SUB: 1.0,
    OpKind.MUL: 3.0,
    OpKind.DIV: 8.0,
    OpKind.MOD: 8.0,
    OpKind.SHL: 0.5,
    OpKind.SHR: 0.5,
    OpKind.AND: 0.5,
    OpKind.OR: 0.5,
    OpKind.XOR: 0.5,
    OpKind.NOT: 0.3,
    OpKind.NEG: 1.0,
    OpKind.LT: 1.0,
    OpKind.LE: 1.0,
    OpKind.EQ: 0.8,
    OpKind.NE: 0.8,
    OpKind.GE: 1.0,
    OpKind.GT: 1.0,
    OpKind.MUX: 0.5,
    OpKind.LOAD: 2.0,
    OpKind.STORE: 2.0,
}


@dataclass
class Op:
    """One operation node.

    ``args`` names the ops whose results feed this op, in positional
    order.  ``value`` is meaningful only for ``CONST`` (the literal) and
    ``INPUT``/``OUTPUT``/``LOAD``/``STORE`` (an optional symbolic tag such
    as a port name or base address).
    """

    name: str
    kind: OpKind
    args: Tuple[str, ...] = ()
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.args) != self.kind.arity:
            raise ValueError(
                f"op {self.name!r}: kind {self.kind.value} takes "
                f"{self.kind.arity} args, got {len(self.args)}"
            )
        if self.kind is OpKind.CONST and self.value is None:
            raise ValueError(f"op {self.name!r}: CONST requires a value")


class CDFG:
    """A dataflow graph of :class:`Op` nodes.

    The builder methods (:meth:`const`, :meth:`inp`, :meth:`add`, ...)
    return the op *name*, so graphs compose naturally::

        g = CDFG("ma")
        a, b, c = g.inp("a"), g.inp("b"), g.inp("c")
        g.out("y", g.add(g.mul(a, b), c))
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self._ops: Dict[str, Op] = {}
        self._uses: Dict[str, List[str]] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_op(
        self,
        kind: OpKind,
        args: Sequence[str] = (),
        name: Optional[str] = None,
        value: Optional[int] = None,
    ) -> str:
        """Add an operation and return its name."""
        if name is None:
            self._counter += 1
            name = f"{kind.value}{self._counter}"
        if name in self._ops:
            raise ValueError(f"duplicate op name {name!r}")
        for arg in args:
            if arg not in self._ops:
                raise KeyError(f"op {name!r}: unknown argument {arg!r}")
        op = Op(name=name, kind=kind, args=tuple(args), value=value)
        self._ops[name] = op
        self._uses[name] = []
        for arg in args:
            self._uses[arg].append(name)
        return name

    # convenience builders ------------------------------------------------
    def const(self, value: int, name: Optional[str] = None) -> str:
        """A literal constant."""
        return self.add_op(OpKind.CONST, (), name, value)

    def inp(self, name: str) -> str:
        """A primary input port."""
        return self.add_op(OpKind.INPUT, (), name)

    def out(self, name: str, src: str) -> str:
        """A primary output port fed by ``src``."""
        return self.add_op(OpKind.OUTPUT, (src,), name)

    def add(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.ADD, (a, b), name)

    def sub(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.SUB, (a, b), name)

    def mul(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.MUL, (a, b), name)

    def div(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.DIV, (a, b), name)

    def mod(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.MOD, (a, b), name)

    def shl(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.SHL, (a, b), name)

    def shr(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.SHR, (a, b), name)

    def band(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.AND, (a, b), name)

    def bor(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.OR, (a, b), name)

    def bxor(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.XOR, (a, b), name)

    def bnot(self, a: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.NOT, (a,), name)

    def neg(self, a: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.NEG, (a,), name)

    def lt(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.LT, (a, b), name)

    def eq(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.add_op(OpKind.EQ, (a, b), name)

    def mux(self, cond: str, a: str, b: str, name: Optional[str] = None) -> str:
        """``a if cond != 0 else b``."""
        return self.add_op(OpKind.MUX, (cond, a, b), name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops.values())

    def op(self, name: str) -> Op:
        """Look up an op by name."""
        return self._ops[name]

    @property
    def ops(self) -> List[Op]:
        """All ops in insertion order."""
        return list(self._ops.values())

    def uses(self, name: str) -> List[str]:
        """Ops that consume the result of ``name``."""
        return list(self._uses[name])

    def inputs(self) -> List[Op]:
        """Primary input ops in insertion order."""
        return [o for o in self._ops.values() if o.kind is OpKind.INPUT]

    def outputs(self) -> List[Op]:
        """Primary output ops in insertion order."""
        return [o for o in self._ops.values() if o.kind is OpKind.OUTPUT]

    def compute_ops(self) -> List[Op]:
        """Ops that require a functional unit."""
        return [o for o in self._ops.values() if o.kind.is_compute]

    def op_histogram(self) -> Dict[OpKind, int]:
        """Count of ops by kind — the raw material of 'nature of
        computation' heuristics and ASIP pattern mining."""
        hist: Dict[OpKind, int] = {}
        for o in self._ops.values():
            hist[o.kind] = hist.get(o.kind, 0) + 1
        return hist

    def topological_order(self) -> List[str]:
        """Op names in topological order (insertion order is already
        topological by construction, since args must pre-exist)."""
        return list(self._ops)

    def critical_path_delay(
        self, delays: Optional[Dict[OpKind, float]] = None
    ) -> float:
        """Longest input-to-output combinational delay using ``delays``
        (defaults to :data:`DEFAULT_DELAYS`)."""
        table = delays or DEFAULT_DELAYS
        finish: Dict[str, float] = {}
        for name in self.topological_order():
            op = self._ops[name]
            start = max((finish[a] for a in op.args), default=0.0)
            finish[name] = start + table[op.kind]
        return max(finish.values(), default=0.0)

    def depth(self) -> int:
        """Longest chain of compute ops — the minimum schedule length when
        every op takes one control step."""
        level: Dict[str, int] = {}
        for name in self.topological_order():
            op = self._ops[name]
            base = max((level[a] for a in op.args), default=0)
            level[name] = base + (1 if op.kind.is_compute else 0)
        return max(level.values(), default=0)

    # ------------------------------------------------------------------
    # reference interpreter
    # ------------------------------------------------------------------
    def evaluate(
        self,
        inputs: Dict[str, int],
        memory: Optional[Dict[int, int]] = None,
    ) -> Dict[str, int]:
        """Execute the dataflow graph on concrete 32-bit integer inputs.

        This is the golden functional reference against which both the HLS
        datapath simulation and the generated R32 machine code are checked.
        ``memory`` backs LOAD/STORE ops (address -> word); it is mutated in
        place by STOREs.
        """
        mem = memory if memory is not None else {}
        values: Dict[str, int] = {}
        for name in self.topological_order():
            op = self._ops[name]
            values[name] = self._eval_op(op, values, inputs, mem)
        return {o.name: values[o.args[0]] for o in self.outputs()}

    def _eval_op(
        self,
        op: Op,
        values: Dict[str, int],
        inputs: Dict[str, int],
        mem: Dict[int, int],
    ) -> int:
        a = [values[arg] for arg in op.args]
        k = op.kind
        if k is OpKind.CONST:
            result = op.value
        elif k is OpKind.INPUT:
            if op.name not in inputs:
                raise KeyError(f"missing value for input {op.name!r}")
            result = inputs[op.name]
        elif k is OpKind.OUTPUT:
            result = a[0]
        elif k is OpKind.ADD:
            result = a[0] + a[1]
        elif k is OpKind.SUB:
            result = a[0] - a[1]
        elif k is OpKind.MUL:
            result = a[0] * a[1]
        elif k is OpKind.DIV:
            sa, sb = _signed(a[0]), _signed(a[1])
            if sb == 0:
                raise ZeroDivisionError(f"op {op.name!r}: division by zero")
            quotient = abs(sa) // abs(sb)
            result = quotient if (sa >= 0) == (sb >= 0) else -quotient
        elif k is OpKind.MOD:
            sa, sb = _signed(a[0]), _signed(a[1])
            if sb == 0:
                raise ZeroDivisionError(f"op {op.name!r}: modulo by zero")
            remainder = abs(sa) % abs(sb)
            result = remainder if sa >= 0 else -remainder
        elif k is OpKind.SHL:
            result = a[0] << (a[1] & 31)
        elif k is OpKind.SHR:
            result = (a[0] & MASK32) >> (a[1] & 31)
        elif k is OpKind.AND:
            result = a[0] & a[1]
        elif k is OpKind.OR:
            result = a[0] | a[1]
        elif k is OpKind.XOR:
            result = a[0] ^ a[1]
        elif k is OpKind.NOT:
            result = ~a[0]
        elif k is OpKind.NEG:
            result = -a[0]
        elif k is OpKind.LT:
            result = int(_signed(a[0]) < _signed(a[1]))
        elif k is OpKind.LE:
            result = int(_signed(a[0]) <= _signed(a[1]))
        elif k is OpKind.EQ:
            result = int((a[0] & MASK32) == (a[1] & MASK32))
        elif k is OpKind.NE:
            result = int((a[0] & MASK32) != (a[1] & MASK32))
        elif k is OpKind.GE:
            result = int(_signed(a[0]) >= _signed(a[1]))
        elif k is OpKind.GT:
            result = int(_signed(a[0]) > _signed(a[1]))
        elif k is OpKind.MUX:
            result = a[1] if (a[0] & MASK32) != 0 else a[2]
        elif k is OpKind.LOAD:
            result = mem.get(a[0] & MASK32, 0)
        elif k is OpKind.STORE:
            mem[a[0] & MASK32] = a[1] & MASK32
            result = a[1]
        else:  # pragma: no cover - exhaustive over OpKind
            raise NotImplementedError(k)
        return result & MASK32

    def __repr__(self) -> str:
        return f"CDFG({self.name!r}, ops={len(self._ops)})"


def _signed(x: int) -> int:
    """Interpret a 32-bit word as a signed integer."""
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x
