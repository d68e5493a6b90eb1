"""A cycle-counting functional model of the R32 processor.

The model executes instructions on two engines behind
:meth:`Cpu.run_block`, both running code of one generator
(:mod:`repro.isa.emit`); :meth:`Cpu.step` executes one and reports the
cycles it consumed.  Two features make it a *co-simulation* CPU rather
than just an interpreter:

* **External (memory-mapped) regions.**  A load or store that hits a
  region registered as *external* does not complete synchronously;
  ``step`` returns an :class:`ExternalAccess` describing the request and
  the CPU freezes mid-instruction until :meth:`Cpu.complete_access` is
  called.  The co-simulation backplane (:mod:`repro.cosim.backplane`)
  services the request through whichever interface abstraction is mounted
  — pin-level handshake, bus transaction, register access, or message —
  and charges the elapsed model time.  This is how "actions in one domain
  affect the state of the other" (Section 3.1).

* **Interrupts.**  Devices call :meth:`Cpu.raise_irq`; the CPU vectors to
  ``ivec`` at the next instruction boundary, saving the return address in
  ``epc``; ``reti`` returns and re-enables interrupts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import _domain
from repro.isa.emit import DEFER, HALT, word_function
from repro.isa.instructions import CpuError, Instruction, Isa, MASK32, N_REGS


@dataclass
class ExternalAccess:
    """A pending memory-mapped access awaiting the backplane.

    ``value`` is the word being written (stores) and is 0 for loads.
    """

    addr: int
    value: int
    is_write: bool


@dataclass
class _Region:
    name: str
    base: int
    size: int
    read_fn: Optional[Callable[[int], int]]
    write_fn: Optional[Callable[[int, int], None]]
    external: bool
    end: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.end = self.base + self.size


class Memory:
    """Sparse word-addressed memory with device regions.

    Plain addresses are backed by a dict (unwritten words read as zero).
    Regions may carry synchronous read/write handlers (cheap device
    models) or be marked *external*, deferring the access to the
    co-simulation backplane.  Regions never overlap, so one bisect over
    their bases finds an address's region, whatever their sizes.
    """

    def __init__(self) -> None:
        self.ram: Dict[int, int] = {}
        #: the regions and their bases, both in ascending base order
        self._regions: List[_Region] = []
        self._bases: List[int] = []
        self.loads = 0
        self.stores = 0
        #: addresses covered by translated code (owned by the block
        #: translator; None until one attaches, keeping plain-RAM
        #: writes a single extra ``is not None`` test)
        self.code_watch: Optional[set] = None
        #: bumped whenever a write or image load touches a watched
        #: address — the translated tier's invalidation clock
        self.code_version = 0

    def add_region(
        self,
        name: str,
        base: int,
        size: int,
        read_fn: Optional[Callable[[int], int]] = None,
        write_fn: Optional[Callable[[int, int], None]] = None,
        external: bool = False,
    ) -> None:
        """Map a device region at [base, base+size) word addresses,
        inside the 32-bit space a masked address reaches: ``base`` is
        an int in [0, 2**32) and ``size`` an int in [1, 2**32 - base]."""
        _domain.count(f"region {name!r}: base", base, 0, 1 << 32)
        _domain.count(f"region {name!r}: size", size, 1,
                      (1 << 32) - base + 1)
        for region in self._regions:
            if region.base < base + size and base < region.end:
                raise ValueError(
                    f"region {name!r} overlaps {region.name!r}"
                )
        at = bisect_right(self._bases, base)
        self._bases.insert(at, base)
        self._regions.insert(
            at, _Region(name, base, size, read_fn, write_fn, external)
        )

    def region_at(self, addr: int) -> Optional[_Region]:
        """The region containing ``addr``, or None for plain RAM."""
        at = bisect_right(self._bases, addr)
        if at:
            region = self._regions[at - 1]
            if addr < region.end:
                return region
        return None

    def load_image(self, image: Dict[int, int]) -> None:
        """Copy an assembled program image into RAM."""
        self.ram.update(image)
        watch = self.code_watch
        if watch is not None and not watch.isdisjoint(image):
            self.code_version += 1

    def load(self, addr: int) -> Optional[int]:
        """Read one word, or None if ``addr`` is in an external region
        (the caller defers the access).  A RAM word comes back as
        stored, whatever it holds, so no RAM content reads as None."""
        addr &= MASK32
        self.loads += 1
        if self._bases:
            region = self.region_at(addr)
            if region is not None:
                if region.external:
                    return None
                if region.read_fn is None:
                    raise CpuError(f"region {region.name!r} is not readable")
                return region.read_fn(addr - region.base) & MASK32
        return self.ram.get(addr, 0)

    def store(self, addr: int, value: int) -> bool:
        """Write one word; True, with nothing written, if ``addr`` is
        in an external region (the caller defers the access)."""
        addr &= MASK32
        self.stores += 1
        if self._bases:
            region = self.region_at(addr)
            if region is not None:
                if region.external:
                    return True
                if region.write_fn is None:
                    raise CpuError(f"region {region.name!r} is not writable")
                region.write_fn(addr - region.base, value & MASK32)
                return False
        self.ram[addr] = value & MASK32
        watch = self.code_watch
        if watch is not None and addr in watch:
            self.code_version += 1
        return False

    def read(self, addr: int) -> int:
        """:meth:`load`, raising :class:`_Defer` for an external region."""
        value = self.load(addr)
        if value is None:
            raise _Defer(ExternalAccess(addr & MASK32, 0, False))
        return value

    def write(self, addr: int, value: int) -> None:
        """:meth:`store`, raising :class:`_Defer` for an external
        region."""
        if self.store(addr, value):
            raise _Defer(ExternalAccess(addr & MASK32, value & MASK32, True))


class _Defer(Exception):
    """Internal: carries an :class:`ExternalAccess` out of
    :meth:`Memory.read` and :meth:`Memory.write`."""

    def __init__(self, access: ExternalAccess) -> None:
        super().__init__(access)
        self.access = access


IRQ_ENTRY_CYCLES = 4


#: Longest translated block, in instructions.  A CPU builds its block
#: translator (:mod:`repro.isa.translate`) on its first
#: :meth:`~Cpu.run_block` call whose budget can hold a whole block:
#: CPU-resident runs get such budgets, while a backplane stepping the
#: CPU in a few instructions at a time never does, so it never pays
#: for scanning blocks it could not run whole.
MAX_BLOCK_LEN = 64

#: Whether CPUs build that translator at all; switched by
#: :func:`repro.isa.translate.auto_translation`, the one switch tests
#: and tier-pinning benches use.
_AUTO_TRANSLATE = True


class Cpu:
    """The R32 processor model.

    Typical pure-software use::

        cpu = Cpu(isa, memory)
        memory.load_image(program.image)
        cpu.run()
        print(cpu.cycle_count)

    Co-simulation use alternates ``run_block()`` / ``complete_access()``
    under the backplane's control.
    """

    def __init__(
        self,
        isa: Isa,
        memory: Optional[Memory] = None,
        pc: int = 0,
        ivec: int = 0x40,
    ) -> None:
        self.isa = isa
        self.memory = memory if memory is not None else Memory()
        self.regs: List[int] = [0] * N_REGS
        self.pc = pc
        self.ivec = ivec
        self.epc = 0
        self.halted = False
        self.irq_pending = False
        self.irq_enabled = True
        self.cycle_count = 0
        self.instr_count = 0
        self.irq_count = 0
        self._pending: Optional[Tuple[int, Instruction, ExternalAccess]] = None
        #: observers called as fn(pc, instr) after each retired
        #: instruction; while any is attached, run_block runs on the
        #: interpreted tier one step at a time
        self.observers: List[Callable[[int, Instruction], None]] = []
        #: pending one-shot retirement triggers as (due, fire), in
        #: firing order (see :meth:`add_trigger`)
        self._triggers: List[Tuple[int, Callable[[], None]]] = []
        #: the block-translation tier (:mod:`repro.isa.translate`), or
        #: None until the first run_block call long enough to build it;
        #: :meth:`run_block` dispatches to it whenever no observers are
        #: attached
        self.translator: Any = None

    def fork(self) -> "Cpu":
        """A copy of this CPU that runs on independently of it.

        The copy has this CPU's registers, ``pc``, ``epc``, halted and
        IRQ flags, cycle/instruction/IRQ counters, RAM, and load/store
        counters.  It shares the ISA, and with it the decode and
        operand caches.  It starts with no observers, triggers or
        translator of its own.  Only a plain-RAM CPU with no pending
        access forks: device regions hold state a copy cannot own, so
        such a CPU raises :class:`CpuError`.
        """
        memory = self.memory
        if memory._regions or self._pending is not None:
            raise CpuError(
                "fork() needs a plain-RAM CPU with no pending access"
            )
        twin = Memory()
        twin.ram = dict(memory.ram)
        twin.loads = memory.loads
        twin.stores = memory.stores
        cpu = Cpu(self.isa, twin, pc=self.pc, ivec=self.ivec)
        cpu.regs = list(self.regs)
        cpu.epc = self.epc
        cpu.halted = self.halted
        cpu.irq_pending = self.irq_pending
        cpu.irq_enabled = self.irq_enabled
        cpu.cycle_count = self.cycle_count
        cpu.instr_count = self.instr_count
        cpu.irq_count = self.irq_count
        return cpu

    # ------------------------------------------------------------------
    # register access helpers (r0 is hardwired to zero)
    # ------------------------------------------------------------------
    def get_reg(self, index: int) -> int:
        """Read a register (r0 reads as zero)."""
        return 0 if index == 0 else self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        """Write a register (writes to r0 are discarded)."""
        if index != 0:
            self.regs[index] = value & MASK32

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------
    def raise_irq(self) -> None:
        """Assert the (single) interrupt request line."""
        self.irq_pending = True

    def _take_irq(self) -> int:
        self.irq_pending = False
        self.irq_enabled = False
        self.epc = self.pc
        self.pc = self.ivec
        self.irq_count += 1
        return IRQ_ENTRY_CYCLES

    # ------------------------------------------------------------------
    # retirement triggers
    # ------------------------------------------------------------------
    def add_trigger(self, due: int, fire: Callable[[], None]) -> None:
        """Call ``fire()`` once, right after retirement number ``due``.

        ``fire`` runs when the instruction that brings ``instr_count``
        to ``due`` retires: after its writeback and ``pc`` update, after
        the observers have seen it, and before the next step boundary
        (so an IRQ flag it flips is checked there).  Then the CPU
        forgets it.  Triggers due at the same retirement fire in the
        order they were added.

        A pending trigger, unlike an observer, keeps :meth:`run_block`
        on the installed tier: it runs up to the due retirement, the
        trigger fires, and it carries on in the same call.
        """
        if due <= self.instr_count:
            raise ValueError(
                f"trigger due at retirement {due}, but "
                f"{self.instr_count} have already retired"
            )
        triggers = self._triggers
        at = len(triggers)
        while at and triggers[at - 1][0] > due:
            at -= 1
        triggers.insert(at, (due, fire))

    def remove_trigger(self, fire: Callable[[], None]) -> None:
        """Drop ``fire`` if it has not fired yet; otherwise a no-op."""
        self._triggers[:] = [t for t in self._triggers if t[1] is not fire]

    def _fire_due(self) -> None:
        """Fire every trigger due at the just-retired instruction."""
        triggers = self._triggers
        while triggers and triggers[0][0] <= self.instr_count:
            triggers.pop(0)[1]()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Union[int, ExternalAccess]:
        """Execute one instruction: :meth:`run_block` with a budget of 1.

        Returns the cycles consumed (:data:`IRQ_ENTRY_CYCLES` for a taken
        interrupt, 0 when halted), or an :class:`ExternalAccess` if the
        instruction touched an external region (the CPU is then frozen
        until :meth:`complete_access`).
        """
        if self._pending is not None and not self.halted:
            raise CpuError("step() while an external access is pending")
        _steps, cycles, access = self.run_block(1)
        return cycles if access is None else access

    def complete_access(
        self, read_value: int = 0, extra_cycles: int = 0
    ) -> int:
        """Finish a deferred external access.

        ``read_value`` is the word returned by the device for loads.
        ``extra_cycles`` lets the backplane charge bus stall cycles into
        the CPU's cycle counter.  Returns total cycles for the
        instruction.
        """
        pending = self._pending
        if pending is None:
            raise CpuError("no external access pending")
        pc_before, instr, access = pending
        self._pending = None
        if not access.is_write and instr.rd:
            self.regs[instr.rd] = read_value & MASK32
        self.pc = pc_before + 1  # loads/stores never branch
        cycles = self.isa._cycles[instr.opcode] + extra_cycles
        if self.observers or self._triggers:
            self._retire(pc_before, instr, cycles)
        else:
            self.instr_count += 1
            self.cycle_count += cycles
        return cycles

    @property
    def pending_access(self) -> Optional[ExternalAccess]:
        """The in-flight external access, if any."""
        return self._pending[2] if self._pending else None

    def _retire(self, pc: int, instr: Instruction, cycles: int) -> None:
        self.instr_count += 1
        self.cycle_count += cycles
        # a snapshot: an observer may detach itself without hiding this
        # retirement from the observers after it
        for observer in tuple(self.observers):
            observer(pc, instr)
        if self._triggers:
            self._fire_due()

    def run(
        self, max_instructions: int = 1_000_000
    ) -> int:
        """Run until ``halt`` (pure-software mode; external accesses are a
        :class:`CpuError` here).  Returns cycles consumed.

        Executes in :meth:`run_block` calls, so observers and triggers
        see every retirement as they do under :meth:`step`.
        ``max_instructions`` must be an int >= 0 (not a bool).
        """
        _domain.count("max_instructions", max_instructions)
        start_cycles = self.cycle_count
        executed = 0
        while not self.halted:
            if executed >= max_instructions:
                raise CpuError(
                    f"instruction budget {max_instructions} exhausted "
                    f"at pc={self.pc:#x}"
                )
            steps, _cycles, access = self.run_block(
                max_instructions - executed
            )
            if access is not None:
                raise CpuError(
                    f"external access at {access.addr:#x} outside "
                    "co-simulation; mount the region synchronously or "
                    "run under a backplane"
                )
            executed += steps
        return self.cycle_count - start_cycles

    # ------------------------------------------------------------------
    # the engines
    # ------------------------------------------------------------------
    def run_block(
        self, max_steps: int = 1 << 30
    ) -> Tuple[int, int, Optional[ExternalAccess]]:
        """Execute up to ``max_steps`` steps, stopping early after
        ``halt`` retires or an external access defers.

        Returns ``(steps, cycles, access)``: the steps consumed (retired
        instructions, taken interrupts, and one for a deferred access);
        their cycles, interrupt entries included — returned for the
        caller's timekeeping, though only retired instructions are
        charged into ``cycle_count``, a deferred one by
        :meth:`complete_access`; and the pending
        :class:`ExternalAccess`, if any.

        Two engines execute code of one generator
        (:mod:`repro.isa.emit`), observably identically at any budget
        (DESIGN.md §9, §13): the interpreted tier
        (:meth:`_run_block_fast`) and the block translator
        (:mod:`repro.isa.translate`), built by the first call with no
        observer attached whose budget holds a whole block
        (:data:`MAX_BLOCK_LEN`), unless
        :func:`repro.isa.translate.auto_translation` turned it off.
        Observers and pending triggers are served by
        :meth:`_run_watched`; with neither, they cost a truthiness test
        each per call.  ``max_steps`` is an int (not a bool); one <= 0
        runs nothing.
        """
        if type(max_steps) is not int:
            # one inline test per call on this hot path; the helper
            # only words the error
            _domain.count("max_steps", max_steps, None)
        if self.halted or max_steps <= 0:
            return 0, 0, None
        if self._pending is not None:
            raise CpuError("run_block() while an external access is pending")
        if self.observers:
            return self._run_watched(max_steps)
        if (self.translator is None and max_steps >= MAX_BLOCK_LEN
                and _AUTO_TRANSLATE):
            from repro.isa.translate import BlockTranslator

            self.translator = BlockTranslator(self)
        if self._triggers:
            return self._run_watched(max_steps)
        if self.translator is not None:
            return self.translator.execute(max_steps)
        return self._run_block_fast(max_steps)

    def _run_watched(
        self, max_steps: int
    ) -> Tuple[int, int, Optional[ExternalAccess]]:
        """:meth:`run_block` while observers or triggers watch.

        Each pass runs up to the next watched retirement and shows it to
        its watchers: with observers, every retirement, so a pass is one
        :meth:`_observed_step`; with only triggers, the next due one, so
        the installed tier runs ``due - instr_count`` steps (a step
        retires at most one instruction; a taken IRQ none, and a short
        pass just runs again).  The triggers due fire after the
        observers, as in :meth:`_retire`.  With neither left, the rest
        of the budget goes to the installed tier.  Passes call the
        engines directly, never :meth:`run_block`.
        """
        triggers = self._triggers
        steps = 0
        cycles = 0
        while True:
            if self.observers:
                more, more_cycles, access = self._observed_step()
            else:
                tier = (self._run_block_fast if self.translator is None
                        else self.translator.execute)
                if not triggers:
                    more, more_cycles, access = tier(max_steps - steps)
                    return steps + more, cycles + more_cycles, access
                more, more_cycles, access = tier(min(
                    max_steps - steps, triggers[0][0] - self.instr_count))
            steps += more
            cycles += more_cycles
            if access is not None:
                return steps, cycles, access
            if triggers:
                self._fire_due()
            if steps >= max_steps or self.halted:
                return steps, cycles, None

    def _observed_step(self) -> Tuple[int, int, Optional[ExternalAccess]]:
        """One step on the interpreted tier, its retirement shown to the
        observers as ``(pc, instr)`` for the word fetched before it ran
        (so a store that rewrites its own word reports itself)."""
        pc = self.pc
        word = self.memory.ram.get(pc)
        retired = self.instr_count
        result = self._run_block_fast(1)
        if self.instr_count != retired:
            instr = self.isa.decode(word)
            # a snapshot: an observer may detach itself without hiding
            # this retirement from the observers after it
            for observer in tuple(self.observers):
                observer(pc, instr)
        return result

    def _run_block_fast(
        self, max_steps: int
    ) -> Tuple[int, int, Optional[ExternalAccess]]:
        """The interpreted tier: :meth:`run_block` semantics, one call
        per step of the decoded word's compiled function (the ISA's
        operand cache, filled by :meth:`_predecode`), with no observer,
        trigger or translator dispatch — callers show retirements to
        observers themselves and guarantee no trigger falls due within
        ``max_steps``.  The loop knows no opcode: each function retires
        its instruction and commits ``pc`` and the counters itself
        (:mod:`repro.isa.emit`)."""
        if self.halted or max_steps <= 0:
            return 0, 0, None
        memory = self.memory
        ram = memory.ram
        regs = self.regs
        ops = self.isa._ops
        cycles0 = self.cycle_count
        irq_cycles = 0  # returned to the caller, never in cycle_count
        steps = 0
        while steps < max_steps:
            steps += 1
            if self.irq_pending and self.irq_enabled:
                irq_cycles += self._take_irq()
                continue
            pc = self.pc
            try:
                fn = ops[ram[pc]]
            except KeyError:  # an operand-cache miss, or no word
                word = ram.get(pc)
                if word is None:
                    raise CpuError(
                        f"fetch from unprogrammed address {pc:#x}"
                    ) from None
                fn = self._predecode(word, pc)
            flag = fn(self, regs, memory, pc, self.instr_count,
                      self.cycle_count) & 7
            if flag:  # not END
                if flag == HALT:
                    break
                if flag == DEFER:
                    return (steps, self.cycle_count - cycles0 + irq_cycles,
                            self._pending[2])
        return steps, self.cycle_count - cycles0 + irq_cycles, None

    def _predecode(self, word: int, pc: int) -> Callable:
        """Fill the ISA's operand-cache entry for ``word``: its
        one-instruction function (:func:`repro.isa.emit.word_function`)."""
        isa = self.isa
        try:
            instr = isa.decode(word)
        except ValueError as exc:
            raise CpuError(f"pc={pc:#x}: {exc}") from None
        fn = isa._ops[word] = word_function(isa, word, instr)
        return fn

    def __repr__(self) -> str:
        return (
            f"Cpu(pc={self.pc:#x}, cycles={self.cycle_count}, "
            f"instrs={self.instr_count}, halted={self.halted})"
        )
