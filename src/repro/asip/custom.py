"""Custom-instruction identification by dataflow pattern mining.

A *candidate* is a pair of dependent operations (``inner`` feeds
``outer``, and nothing else consumes ``inner``) whose combined
non-constant inputs fit the two source registers of an R-type custom
instruction.  Constant operands are baked into the instruction's
semantics (how real ASIP flows absorb coefficients and shift counts).

For each candidate pattern we derive:

* **semantics** — a two-input mini-CDFG evaluated per execution, so the
  custom instruction is exactly as correct as the dataflow it replaces;
* **latency** — the fused datapath's combinational delay, in CPU clocks;
* **area** — the functional units the fused datapath needs.

Candidates with the same canonical structure share one custom opcode;
their value is (cycles saved per execution) × (executions), which the
selection knapsack (:mod:`repro.asip.selection`) trades against area.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.cdfg import CDFG, Op, OpKind
from repro.hls.library import ComponentLibrary, default_library
from repro.isa.codegen import Fusion
from repro.isa.instructions import CUSTOM_BASE, CustomOp, Isa
from repro.estimate.software import OP_CYCLES

#: tokens describing where an operand of the pattern comes from
_EXT, _CONST, _INNER = "ext", "const", "inner"

PatternKey = Tuple[str, str, Tuple, Tuple]


@dataclass
class CustomCandidate:
    """One mineable custom instruction across a workload."""

    key: PatternKey
    mnemonic: str
    semantics_cdfg: CDFG
    n_externals: int
    cycles: int
    base_cycles: float
    area: float
    occurrences: List[Tuple[str, Fusion]] = field(default_factory=list)
    weight: float = 0.0

    @property
    def saved_per_use(self) -> float:
        """Reference cycles saved each time the instruction executes."""
        return max(0.0, self.base_cycles - self.cycles)

    @property
    def value(self) -> float:
        """Total weighted savings across the workload."""
        return self.saved_per_use * self.weight

    def semantics(self, a: int, b: int) -> int:
        """Execute the fused dataflow on two register operands."""
        inputs = {"ext0": a}
        if self.n_externals == 2:
            inputs["ext1"] = b
        return self.semantics_cdfg.evaluate(inputs)["y"]

    def to_custom_op(self, opcode: int) -> CustomOp:
        """Materialize as an installable R-type custom instruction."""
        return CustomOp(
            name=self.mnemonic,
            opcode=opcode,
            semantics=self.semantics,
            cycles=self.cycles,
            area=self.area,
        )


def mine_candidates(
    workloads: Dict[str, Tuple[CDFG, float]],
    library: Optional[ComponentLibrary] = None,
    cpu_clock_ns: float = 10.0,
) -> List[CustomCandidate]:
    """Mine all workload CDFGs for fusable pairs.

    ``workloads`` maps a name to ``(cdfg, weight)`` where weight is the
    relative execution frequency (profile-derived).  Returns candidates
    sorted by decreasing value; deterministic.
    """
    library = library or default_library()
    by_key: Dict[PatternKey, CustomCandidate] = {}
    for wl_name in sorted(workloads):
        cdfg, weight = workloads[wl_name]
        for outer in cdfg.ops:
            if not outer.kind.is_compute:
                continue
            for port, arg in enumerate(outer.args):
                inner = cdfg.op(arg)
                if not inner.kind.is_compute:
                    continue
                if inner.kind in (OpKind.LOAD, OpKind.STORE) or \
                        outer.kind in (OpKind.LOAD, OpKind.STORE):
                    continue  # memory ops cannot fold into an ALU FU
                if cdfg.uses(inner.name) != [outer.name]:
                    continue
                candidate = _build_candidate(
                    cdfg, inner, outer, port, library, cpu_clock_ns
                )
                if candidate is None:
                    continue
                key, externals = candidate
                if key not in by_key:
                    # content-derived mnemonic: the same pattern gets the
                    # same name in any mining run (phases, workloads, ...)
                    digest = hashlib.md5(
                        repr(key).encode()
                    ).hexdigest()[:6]
                    mnemonic = f"fx_{digest}"
                    by_key[key] = _materialize(
                        key, mnemonic, library, cpu_clock_ns
                    )
                entry = by_key[key]
                entry.occurrences.append((
                    wl_name,
                    Fusion(
                        outer=outer.name,
                        inner=inner.name,
                        mnemonic=entry.mnemonic,
                        externals=tuple(externals),
                    ),
                ))
                entry.weight += weight
    out = sorted(
        by_key.values(), key=lambda c: (-c.value, c.mnemonic)
    )
    return out


_COMMUTATIVE = {
    OpKind.ADD, OpKind.MUL, OpKind.AND, OpKind.OR, OpKind.XOR,
    OpKind.EQ, OpKind.NE,
}


def _structure(
    cdfg: CDFG, inner: Op, outer: Op, port: int
) -> Optional[Tuple[PatternKey, List[str]]]:
    """Canonical pattern tokens + ordered external value names.

    Commutative operations are canonicalized (constants last on the
    inner op; the fused operand first on the outer op) so symmetric
    occurrences share one pattern/opcode.
    """
    inner_args = list(inner.args)
    if inner.kind in _COMMUTATIVE and len(inner_args) == 2:
        inner_args.sort(
            key=lambda a: cdfg.op(a).kind is OpKind.CONST
        )  # stable: externals keep relative order, consts go last
    outer_slots = [
        ("__inner__" if i == port and a == inner.name else a)
        for i, a in enumerate(outer.args)
    ]
    if outer.kind in _COMMUTATIVE and len(outer_slots) == 2 \
            and outer_slots[1] == "__inner__":
        outer_slots.reverse()

    externals: List[str] = []

    def token(arg: str):
        if arg == "__inner__":
            return (_INNER,)
        op = cdfg.op(arg)
        if op.kind is OpKind.CONST:
            return (_CONST, op.value)
        if arg not in externals:
            externals.append(arg)
        return (_EXT, externals.index(arg))

    inner_tokens = tuple(token(a) for a in inner_args)
    outer_tokens = tuple(token(a) for a in outer_slots)
    if len(externals) == 0 or len(externals) > 2:
        return None
    key: PatternKey = (
        inner.kind.value, outer.kind.value, inner_tokens, outer_tokens
    )
    return key, externals


def _build_candidate(
    cdfg: CDFG, inner: Op, outer: Op, port: int,
    library: ComponentLibrary, cpu_clock_ns: float,
) -> Optional[Tuple[PatternKey, List[str]]]:
    return _structure(cdfg, inner, outer, port)


def _materialize(
    key: PatternKey,
    mnemonic: str,
    library: ComponentLibrary,
    cpu_clock_ns: float,
) -> CustomCandidate:
    inner_kind = OpKind(key[0])
    outer_kind = OpKind(key[1])
    inner_tokens, outer_tokens = key[2], key[3]
    n_ext = 1 + max(
        [t[1] for t in inner_tokens + outer_tokens if t[0] == _EXT],
        default=-1,
    )
    mini = CDFG(f"pattern_{mnemonic}")
    ext_names = [mini.inp(f"ext{i}") for i in range(n_ext)]

    def resolve(tok) -> str:
        if tok[0] == _CONST:
            return mini.const(tok[1])
        if tok[0] == _EXT:
            return ext_names[tok[1]]
        return inner_name

    inner_name = mini.add_op(
        inner_kind, [resolve(t) for t in inner_tokens]
    )
    outer_name = mini.add_op(
        outer_kind, [resolve(t) for t in outer_tokens]
    )
    mini.out("y", outer_name)

    delay = mini.critical_path_delay()
    cycles = max(1, math.ceil(delay / cpu_clock_ns))
    area = (
        library.cheapest(inner_kind).area + library.cheapest(outer_kind).area
    )
    base_cycles = OP_CYCLES[inner_kind] + OP_CYCLES[outer_kind]
    return CustomCandidate(
        key=key,
        mnemonic=mnemonic,
        semantics_cdfg=mini,
        n_externals=n_ext,
        cycles=cycles,
        base_cycles=base_cycles,
        area=area,
        occurrences=[],
        weight=0.0,
    )


def fusions_for(
    candidates: Sequence[CustomCandidate], workload: str
) -> Dict[str, Fusion]:
    """Collect the fusion directives of ``candidates`` that apply to one
    workload, skipping overlapping occurrences (an op may participate in
    at most one fusion)."""
    taken: set = set()
    out: Dict[str, Fusion] = {}
    for cand in candidates:
        for wl_name, fusion in cand.occurrences:
            if wl_name != workload:
                continue
            if fusion.outer in taken or fusion.inner in taken:
                continue
            out[fusion.outer] = fusion
            taken.add(fusion.outer)
            taken.add(fusion.inner)
    return out


def install(
    candidates: Sequence[CustomCandidate], name: str = "r32"
) -> Isa:
    """The ISA called ``name`` that extends the stock one with
    ``candidates``, in order, from :data:`CUSTOM_BASE` up."""
    return Isa(name, customs=[
        cand.to_custom_op(CUSTOM_BASE + k)
        for k, cand in enumerate(candidates)
    ])
