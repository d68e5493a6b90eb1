"""The paper's Section 4 example systems, as live methodology objects.

Each example couples three things:

* a :class:`repro.core.criteria.Methodology` record carrying the
  paper's own classification of the approach;
* a :class:`repro.core.taxonomy.SystemModel` of the system's structure,
  so :func:`repro.core.taxonomy.classify_system` can *re-derive* the
  type the paper asserts (experiment E1);
* a ``demo`` callable that runs a working instance of the methodology
  on this library's substrates, so the registry describes running
  systems, not citations.

Note the scoping rule of Section 2: a system model contains "just those
components that are part of a particular design methodology" — which is
why the co-processor examples omit the instruction-set processor that
executes the software (the methodology treats the software as a peer
behavioral component, making the boundary physical: Type II).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.core.criteria import Methodology, MethodologyRegistry
from repro.core.taxonomy import (
    Abstraction,
    ComponentModel,
    DesignTask,
    Domain,
    InterfaceLevel,
    PartitionFactor,
    SystemModel,
    SystemType,
)


@dataclass
class PaperExample:
    """One Section 4 example: classification + structure + live demo."""

    methodology: Methodology
    system_model: SystemModel
    section: str
    figure: str


def _embedded_demo() -> object:
    """Figure 4: interface synthesis + co-simulated driver execution."""
    from repro.cosim.kernel import Simulator
    from repro.interface.chinook import synthesize_interface
    from repro.interface.spec import timer_spec, uart_spec
    from repro.isa.cpu import Cpu, Memory
    from repro.isa.instructions import Isa

    design = synthesize_interface([uart_spec(), timer_spec()])
    program = design.build_program("""
        li  r1, 0x42
        jal write_uart_data
        jal read_uart_data
        sw  r2, 0x400(r0)
        halt
    """)
    mem = Memory()
    mem.load_image(program.image)
    cpu = Cpu(Isa(), mem)
    sim = Simulator()
    store: Dict[int, int] = {}

    def model(offset, value, is_write):
        if is_write:
            store[offset] = value
            return 0
        return store.get(offset, 0)

    design.deploy(sim, cpu, {"uart": model, "timer": model})
    sim.run(until=1e6)
    assert cpu.halted and cpu.memory.ram[0x400] == 0x42
    return design


def _multiproc_demo() -> object:
    """Figure 5: cost-minimizing allocation + mapping under a deadline."""
    from repro.cosynth import binpack_synthesis
    from repro.graph.generators import periodic_taskset

    graph = periodic_taskset(
        random.Random(5), n_tasks=10, period=100.0, utilization=1.2
    )
    result = binpack_synthesis(graph, 100.0)
    assert result is not None and result.feasible
    return result


def _asip_demo() -> object:
    """Figure 6: instruction-subset exploration on profiled kernels."""
    from repro.asip.explore import explore_asip
    from repro.graph import kernels

    workloads = {
        "fir": (kernels.fir(8, coefficients=[3, -5, 7, 2, 9, -1, 4, 6]),
                4.0),
        "crc": (kernels.crc_step(), 8.0),
    }
    points = explore_asip(workloads, [0.0, 400.0])
    weights = {n: w for n, (_g, w) in workloads.items()}
    assert points[-1].speedup(weights) > 1.0
    return points


def _special_fu_demo() -> object:
    """Figure 7: reconfigurable special-purpose functional units."""
    from repro.asip.metamorphosis import best_static_plan, plan_metamorphosis
    from repro.graph import kernels

    phases = {
        "filter": {"fir": (kernels.fir(8, coefficients=[1] * 8), 4.0)},
        "check": {"crc": (kernels.crc_step(), 4.0)},
    }
    morph = plan_metamorphosis(phases, fabric_area=250.0)
    static = best_static_plan(phases, fabric_area=250.0)
    assert morph.compute_cycles <= static.compute_cycles
    return morph, static


def _coprocessor_demo() -> object:
    """Figure 8: behavior-level partitioning + HLS co-processor."""
    from repro.cosynth.coprocessor import synthesize_coprocessor
    from repro.graph import kernels

    design = synthesize_coprocessor(
        {
            "dct": kernels.dct4(),
            "fir": kernels.fir(8),
            "crc": kernels.crc_step(),
        },
        dataflow=[("fir", "dct", 8.0), ("dct", "crc", 4.0)],
        deadline_ns=1500.0,
    )
    assert design.verify_all()
    return design


def _multithread_demo() -> object:
    """Figure 9: concurrency/communication-aware thread-count sweep."""
    from repro.cosynth.multithread import synthesize_multithreaded
    from repro.graph.generators import fork_join_graph

    graph = fork_join_graph(random.Random(3), n_branches=4, branch_len=2)
    design = synthesize_multithreaded(graph, max_threads=4)
    assert design.threads >= 1
    return design


def paper_examples() -> Dict[str, PaperExample]:
    """All six Section 4 examples, keyed by short name."""
    hll, beh, gate, isa_lvl = (
        Abstraction.HLL, Abstraction.BEHAVIOR, Abstraction.GATE,
        Abstraction.ISA,
    )
    hw, sw = Domain.HARDWARE, Domain.SOFTWARE
    return {
        "embedded_micro": PaperExample(
            methodology=Methodology(
                name="embedded microprocessor + glue logic",
                system_type=SystemType.TYPE_I,
                tasks=frozenset({DesignTask.COSIMULATION,
                                 DesignTask.COSYNTHESIS}),
                cosim_levels=frozenset({InterfaceLevel.SIGNAL}),
                references="[4] Becker et al.; [11] Chinook",
                implemented_by="repro.interface.chinook",
                demo=_embedded_demo,
            ),
            system_model=SystemModel(
                components=[
                    ComponentModel("cpu", hw, gate),
                    ComponentModel("glue", hw, gate),
                    ComponentModel("application", sw, hll),
                ],
                executes=[("cpu", "application")],
                communicates=[("glue", "application")],
            ),
            section="4.1", figure="4",
        ),
        "heterogeneous_multiproc": PaperExample(
            methodology=Methodology(
                name="heterogeneous multiprocessor",
                system_type=SystemType.TYPE_I,
                tasks=frozenset({DesignTask.COSYNTHESIS}),
                references="[9] Yen-Wolf; [12] SOS; [13] Beck",
                implemented_by="repro.cosynth.multiproc",
                demo=_multiproc_demo,
            ),
            system_model=SystemModel(
                components=[
                    ComponentModel("pe_array", hw, isa_lvl),
                    ComponentModel("tasks", sw, hll),
                ],
                executes=[("pe_array", "tasks")],
            ),
            section="4.2", figure="5",
        ),
        "asip": PaperExample(
            methodology=Methodology(
                name="application-specific instruction set processor",
                system_type=SystemType.TYPE_I,
                tasks=frozenset({DesignTask.COSYNTHESIS,
                                 DesignTask.PARTITIONING}),
                partition_factors=frozenset({
                    PartitionFactor.PERFORMANCE,
                    PartitionFactor.COST,
                    PartitionFactor.MODIFIABILITY,
                }),
                references="[14] PEAS-I",
                implemented_by="repro.asip.explore",
                demo=_asip_demo,
            ),
            system_model=SystemModel(
                components=[
                    ComponentModel("asip_core", hw, Abstraction.RTL),
                    ComponentModel("application", sw, hll),
                ],
                executes=[("asip_core", "application")],
            ),
            section="4.3", figure="6",
        ),
        "special_fu": PaperExample(
            methodology=Methodology(
                name="special-purpose functional units",
                system_type=SystemType.TYPE_I,
                tasks=frozenset({DesignTask.COSYNTHESIS,
                                 DesignTask.PARTITIONING}),
                partition_factors=frozenset({
                    PartitionFactor.PERFORMANCE,
                    PartitionFactor.COST,
                    PartitionFactor.NATURE,
                }),
                references="[15] Athanas-Silverman",
                implemented_by="repro.asip.metamorphosis",
                demo=_special_fu_demo,
            ),
            system_model=SystemModel(
                components=[
                    ComponentModel("core_plus_fus", hw, Abstraction.RTL),
                    ComponentModel("application", sw, hll),
                ],
                executes=[("core_plus_fus", "application")],
            ),
            section="4.4", figure="7",
        ),
        "coprocessor": PaperExample(
            methodology=Methodology(
                name="application-specific co-processor",
                system_type=SystemType.TYPE_II,
                tasks=frozenset({DesignTask.COSYNTHESIS,
                                 DesignTask.PARTITIONING}),
                partition_factors=frozenset({
                    PartitionFactor.PERFORMANCE,
                    PartitionFactor.COST,
                    PartitionFactor.COMMUNICATION,
                }),
                references="[6] Gupta-De Micheli; [16] [17]",
                implemented_by="repro.cosynth.coprocessor",
                demo=_coprocessor_demo,
            ),
            system_model=SystemModel(
                components=[
                    ComponentModel("software_behavior", sw, beh),
                    ComponentModel("coprocessor", hw, beh),
                ],
                communicates=[("software_behavior", "coprocessor")],
            ),
            section="4.5", figure="8",
        ),
        "multithreaded_coprocessor": PaperExample(
            methodology=Methodology(
                name="multi-threaded co-processor",
                system_type=SystemType.TYPE_II,
                tasks=frozenset({DesignTask.COSIMULATION,
                                 DesignTask.COSYNTHESIS,
                                 DesignTask.PARTITIONING}),
                cosim_levels=frozenset({InterfaceLevel.MESSAGE}),
                partition_factors=frozenset({
                    PartitionFactor.PERFORMANCE,
                    PartitionFactor.COST,
                    PartitionFactor.NATURE,
                    PartitionFactor.CONCURRENCY,
                    PartitionFactor.COMMUNICATION,
                }),  # "all ... except for modifiability" [10]
                references="[10] Adams-Thomas; [3] Coumeri-Thomas",
                implemented_by="repro.cosynth.multithread",
                demo=_multithread_demo,
            ),
            system_model=SystemModel(
                components=[
                    ComponentModel("software_processes", sw, beh),
                    ComponentModel("mt_coprocessor", hw, beh),
                ],
                communicates=[("software_processes", "mt_coprocessor")],
            ),
            section="4.5.1", figure="9",
        ),
    }


def paper_registry() -> MethodologyRegistry:
    """A registry pre-populated with the six Section 4 examples."""
    registry = MethodologyRegistry()
    for example in paper_examples().values():
        registry.register(example.methodology)
    return registry
