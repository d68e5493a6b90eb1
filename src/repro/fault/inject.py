"""Fault injectors: arm a :class:`FaultSpec` against a live system.

The injector is strictly *additive* and *zero-cost when idle*: a
:class:`System` with a :class:`FaultInjector` attached but no faults
armed runs the identical event sequence — and allocates nothing from
this module — compared to a system with no injector at all.  (The
robustness suite enforces this with tracemalloc and with poisoned
saboteur constructors, the same discipline the PR 1 observability layer
follows.)

Each fault kind maps onto the narrowest hook its layer already offers:

* ``signal_flip`` / ``reg_flip`` / ``proc_spin`` — a saboteur process
  scheduled at ``spec.time``;
* ``cpu_*`` — a one-shot retirement trigger the CPU owns
  (:meth:`repro.isa.cpu.Cpu.add_trigger`), armed by
  :func:`arm_cpu_fault`; the CPU's fast tiers run up to the due
  retirement, fire it there, and run on;
* ``msg_*`` — a per-instance wrapper around ``Channel.send`` that
  drops, duplicates, delays, reorders, or corrupts the Nth message in
  transport (the class and every other channel stay untouched).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.cosim.kernel import Simulator, Spin
from repro.cosim.msglevel import Channel
from repro.cosim.signals import Signal
from repro.fault.spec import FaultSpec

MASK32 = 0xFFFFFFFF


class InjectionError(ValueError):
    """A spec names a target the system does not have."""


@dataclass
class System:
    """The injectable surface of one simulated system.

    Scenario builders fill in whichever layers they instantiate; the
    injector resolves :attr:`FaultSpec.target` against these maps and
    refuses (loudly) anything it cannot find.  ``devices`` values are
    any objects with a mutable ``regs`` list
    (:class:`repro.cosim.translevel.RegisterDevice` and friends).
    """

    sim: Simulator
    cpu: Optional[Any] = None
    signals: Dict[str, Signal] = field(default_factory=dict)
    devices: Dict[str, Any] = field(default_factory=dict)
    channels: Dict[str, Channel] = field(default_factory=dict)


class _CpuSaboteur:
    """One-shot retirement trigger implementing the ``cpu_*`` kinds.

    The CPU calls it once, right after the due retirement: after that
    instruction's writeback and ``pc`` update, so a pc flip xors the
    *next* pc and a register flip (r0's raw slot included) lands on top
    of the instruction's own write.
    """

    __slots__ = ("cpu", "spec", "fired")

    def __init__(self, cpu: Any, spec: FaultSpec) -> None:
        self.cpu = cpu
        self.spec = spec
        self.fired = False

    def __call__(self) -> None:
        self.fired = True
        spec, cpu = self.spec, self.cpu
        if spec.kind == "cpu_reg_flip":
            cpu.regs[spec.index] ^= (1 << spec.bit)
            cpu.regs[spec.index] &= MASK32
        elif spec.kind == "cpu_pc_flip":
            cpu.pc ^= (1 << spec.bit)
        else:  # cpu_flag_flip
            setattr(cpu, spec.flag, not getattr(cpu, spec.flag))


def arm_cpu_fault(
    cpu: Any, spec: FaultSpec, retired: int = 0
) -> _CpuSaboteur:
    """Arm one ``cpu_*`` fault on ``cpu``; the one place CPU faults
    are armed.

    The fault fires after retirement ``max(1, spec.count)`` of the
    run, ``retired`` of which happened before ``cpu`` took over (a
    cell forked from golden: the copy's ``instr_count``; 0 for a fresh
    CPU).  It is therefore due at
    ``cpu.instr_count + max(1, spec.count - retired)``.  Raises
    :class:`InjectionError` if ``cpu`` has no such register.
    """
    if spec.kind == "cpu_reg_flip" and not 0 <= spec.index < len(cpu.regs):
        raise InjectionError(f"cpu_reg_flip: no register r{spec.index}")
    saboteur = _CpuSaboteur(cpu, spec)
    cpu.add_trigger(
        cpu.instr_count + max(1, spec.count - retired), saboteur
    )
    return saboteur


class _MessageSaboteur:
    """Per-channel ``send`` wrapper implementing the ``msg_*`` kinds.

    Counts messages from arming; acts on message ``spec.index`` (and,
    for ``msg_reorder``, its successor).  Wrapping is per *instance*:
    ``channel.send`` is rebound to :meth:`send`, chaining over whatever
    was there before, so several message faults can stack on one
    channel.
    """

    __slots__ = ("channel", "spec", "orig_send", "seen", "held")

    def __init__(self, channel: Channel, spec: FaultSpec) -> None:
        self.channel = channel
        self.spec = spec
        self.orig_send = channel.send
        self.seen = 0
        self.held: Optional[tuple] = None
        channel.send = self.send  # type: ignore[method-assign]

    def send(self, item: Any, words: int = 1) -> Generator:
        spec = self.spec
        index = self.seen
        self.seen += 1
        if self.held is not None and index == spec.index + 1:
            # msg_reorder: successor first, then the held message
            held_item, held_words = self.held
            self.held = None
            yield from self.orig_send(item, words)
            yield from self.orig_send(held_item, held_words)
            return
        if index != spec.index:
            yield from self.orig_send(item, words)
            return
        if spec.kind == "msg_drop":
            # the transport still takes its time; the payload vanishes
            delay = self.channel.transfer_delay(words)
            if delay > 0:
                yield self.channel.sim.timeout(delay)
        elif spec.kind == "msg_dup":
            yield from self.orig_send(item, words)
            yield from self.orig_send(item, words)
        elif spec.kind == "msg_delay":
            yield self.channel.sim.timeout(spec.delay)
            yield from self.orig_send(item, words)
        elif spec.kind == "msg_reorder":
            self.held = (item, words)
        else:  # msg_corrupt
            if isinstance(item, int):
                item = (item ^ (1 << spec.bit)) & MASK32
            yield from self.orig_send(item, words)


def _flip_later(system: System, spec: FaultSpec) -> Generator:
    """Saboteur process body for the time-triggered state flips."""
    yield system.sim.timeout(spec.time)
    if spec.kind == "signal_flip":
        sig = system.signals[spec.target]
        sig.set((sig.value ^ (1 << spec.bit)) & MASK32)
    else:  # reg_flip
        regs = system.devices[spec.target].regs
        regs[spec.index % len(regs)] ^= (1 << spec.bit)
        regs[spec.index % len(regs)] &= MASK32


def _spin_later(system: System, spec: FaultSpec) -> Generator:
    """Saboteur that stops yielding time: the watchdog's prey.

    It yields a :class:`~repro.cosim.kernel.Spin`, declaring that it
    does nothing else from then on, so a watchdog can jump straight to
    the verdict it would reach by counting every spin.
    """
    yield system.sim.timeout(spec.time)
    spin = Spin()
    while True:
        yield spin


class FaultInjector:
    """Arms :class:`FaultSpec` instances against one :class:`System`.

    Construction touches nothing; every hook is installed by
    :meth:`arm`.  An injector with an empty :attr:`armed` list is
    indistinguishable from no injector at all.
    """

    def __init__(self, system: System) -> None:
        self.system = system
        self.armed: List[FaultSpec] = []
        self._hooks: List[tuple] = []

    def arm(self, spec: FaultSpec) -> None:
        """Install the hook for one fault; raises
        :class:`InjectionError` if the target does not exist."""
        system = self.system
        if spec.kind == "signal_flip":
            if spec.target not in system.signals:
                raise InjectionError(
                    f"no signal {spec.target!r}; have "
                    f"{sorted(system.signals)}"
                )
            system.sim.process(
                _flip_later(system, spec), name=f"fault.{spec.kind}"
            )
        elif spec.kind == "reg_flip":
            device = system.devices.get(spec.target)
            if device is None or not getattr(device, "regs", None):
                raise InjectionError(
                    f"no register device {spec.target!r}; have "
                    f"{sorted(system.devices)}"
                )
            system.sim.process(
                _flip_later(system, spec), name=f"fault.{spec.kind}"
            )
        elif spec.kind.startswith("cpu_"):
            if system.cpu is None:
                raise InjectionError(f"{spec.kind}: system has no CPU")
            self._hooks.append(("cpu", arm_cpu_fault(system.cpu, spec)))
        elif spec.kind.startswith("msg_"):
            channel = system.channels.get(spec.target)
            if channel is None:
                raise InjectionError(
                    f"no channel {spec.target!r}; have "
                    f"{sorted(system.channels)}"
                )
            self._hooks.append(("msg", _MessageSaboteur(channel, spec)))
        else:  # proc_spin
            system.sim.process(
                _spin_later(system, spec), name=f"fault.{spec.target}"
            )
        self.armed.append(spec)

    def disarm(self) -> None:
        """Remove every hook :meth:`arm` installed that is removable
        without rewinding the simulator.

        CPU triggers that have not fired yet are removed from their
        CPU (a fired one is already gone); message saboteurs unwrap,
        restoring the channel's original ``send`` even when several
        were stacked.  Time-triggered saboteur *processes*
        (``signal_flip``, ``reg_flip``, ``proc_spin``) already belong
        to the kernel's run queue and are left to expire on their own.
        Idempotent.
        """
        for kind, hook in reversed(self._hooks):
            if kind == "cpu":
                hook.cpu.remove_trigger(hook)
            else:  # msg: unwrap LIFO so stacked wrappers unchain
                hook.channel.send = hook.orig_send
        self._hooks.clear()
        self.armed.clear()


def arm_fault(system: System, spec: FaultSpec) -> FaultInjector:
    """Convenience: build an injector and arm one fault."""
    injector = FaultInjector(system)
    injector.arm(spec)
    return injector
