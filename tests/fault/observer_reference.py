"""The reference for CPU fault triggers: the observer form, verbatim.

A ``cpu_*`` fault is a one-shot retirement *trigger* the CPU owns
(``Cpu.add_trigger``, armed by ``arm_cpu_fault``).  ``_CpuSaboteur``
below is a verbatim copy of the class of that name in
``repro/fault/inject.py`` as it stood when a CPU fault was a retirement
*observer*: it sat on ``cpu.observers``, counted the retirements it
saw, fired at retirement ``max(1, count)`` and detached itself.  It
shares no code with the trigger mechanism, which is what makes it a
reference for the differential suites that import it
(``tests/fault/test_trigger_reference.py``, ``tests/isa/test_fastpath.py``,
``tests/isa/test_translate.py`` and ``tests/isa/test_batch.py``).

This module defines no tests, so a test body may import it without
applying ``@given`` inside a running ``@given`` test.
"""

from typing import Any

from repro.fault import FaultSpec

MASK32 = 0xFFFFFFFF


# ----------------------------------------------------------------------
# reference: the observer form of the CPU fault saboteur, verbatim
# ----------------------------------------------------------------------
class _CpuSaboteur:
    """One-shot retirement observer implementing the ``cpu_*`` kinds.

    On firing it removes itself from ``cpu.observers``: with no
    observer left, ``run_block`` hands the rest of its budget to the
    fast tiers, which the DESIGN §9 equivalence contract makes
    indistinguishable from staying on the ``step()`` loop.
    """

    __slots__ = ("cpu", "spec", "retired", "fired")

    def __init__(self, cpu: Any, spec: FaultSpec) -> None:
        self.cpu = cpu
        self.spec = spec
        self.retired = 0
        self.fired = False

    def __call__(self, pc: int, instr: Any) -> None:
        if self.fired:
            return
        self.retired += 1
        if self.retired < self.spec.count:
            return
        self.fired = True
        spec, cpu = self.spec, self.cpu
        if spec.kind == "cpu_reg_flip":
            cpu.regs[spec.index] ^= (1 << spec.bit)
            cpu.regs[spec.index] &= MASK32
        elif spec.kind == "cpu_pc_flip":
            cpu.pc ^= (1 << spec.bit)
        else:  # cpu_flag_flip
            setattr(cpu, spec.flag, not getattr(cpu, spec.flag))
        cpu.observers.remove(self)


#: the name the other differential suites import the reference by
ObserverSaboteur = _CpuSaboteur
