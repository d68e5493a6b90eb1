"""Signals, clocks, and tracing for hardware-level modeling.

A :class:`Signal` is a piecewise-constant value with a *change
notification* event, the basic modeling element of the pin-level
interface (Figure 3's "signal activity" rung).  A :class:`Clock` is a
self-toggling signal.  A :class:`Trace` records value changes in a
VCD-like in-memory form for assertions and waveform dumps.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import _domain
from repro.cosim.kernel import Event, Simulator, Timeout, _Leap


class Signal:
    """A named, piecewise-constant signal.

    ``set`` changes the value at the current simulation time and fires the
    (re-armed) ``changed`` event.  Processes typically wait with::

        yield sig.changed          # any change
        value = yield sig.changed  # the new value is delivered

    or use the helper generators :meth:`wait_for` / :meth:`rising_edge`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        init: int = 0,
        trace: Optional["Trace"] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self._value = init
        self._changed = Event(sim, f"{name}.changed")
        self.trace = trace
        if trace is not None:
            trace.record(sim.now, name, init)

    @property
    def value(self) -> int:
        """Current value."""
        return self._value

    @property
    def changed(self) -> Event:
        """Event that fires on the next value change."""
        return self._changed

    def set(self, value: int) -> None:
        """Drive a new value; fires ``changed`` if the value differs."""
        if value == self._value:
            return
        self._value = value
        if self.trace is not None:
            self.trace.record(self.sim.now, self.name, value)
        if self.sim.tracer is not None:
            self.sim.tracer.on_signal(self.name, value)
        old_event = self._changed
        self._changed = Event(self.sim, f"{self.name}.changed")
        old_event.succeed(value)

    def wait_for(self, value: int) -> Generator:
        """Generator: wait (possibly across many changes) until the signal
        equals ``value``.  Returns immediately if it already does."""
        while self._value != value:
            yield self._changed
        return self._value

    def rising_edge(self) -> Generator:
        """Generator: wait for a transition to a non-zero value."""
        while True:
            new = yield self._changed
            if new:
                return new

    def falling_edge(self) -> Generator:
        """Generator: wait for a transition to zero."""
        while True:
            new = yield self._changed
            if not new:
                return new

    def __repr__(self) -> str:
        return f"Signal({self.name!r}={self._value})"


class Clock(Signal):
    """A free-running two-phase clock signal.

    ``period`` (finite and > 0) is the full cycle time; the clock is
    high for the first half and low for the second.  The driving
    process is registered on construction.  It rises at every rising
    position before ``until`` and finishes at the first rising position
    at or after it: period 10 with ``until=35`` rises at 0, 10, 20 and
    30 and finishes at 40.  ``until`` is None or finite.  With
    ``until=None`` it runs forever — callers should then stop the
    simulation with ``run(until=...)``.  Positions are reached by
    repeated addition of half periods, as the kernel adds delays.

    An edge nobody can observe — no waiter or callback on ``changed``,
    no ``trace``, no tracer, and the current ``changed`` event not
    handed out — only updates the value.  When such a clock is the
    last process scheduled in a ``run()``, it leaps to its last
    activation due by the horizon.  ``cycles`` and the kernel's
    ``activations`` count every edge either way (DESIGN §8).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "clk",
        period: float = 10.0,
        until: Optional[float] = None,
        trace: Optional["Trace"] = None,
    ) -> None:
        _domain.real("period", period, above=0)
        _domain.real("until", until, optional=True)
        super().__init__(sim, name, init=0, trace=trace)
        self.period = period
        self.cycles = 0
        #: the ``changed`` event last handed out; while it is still the
        #: current one, every edge runs in full
        self._held: Optional[Event] = None
        sim.process(self._drive(until), name=f"{name}.driver")

    @property
    def changed(self) -> Event:
        """Event that fires on the next value change."""
        event = self._held = self._changed
        return event

    def _drive(self, until: Optional[float]) -> Generator:
        sim = self.sim
        tick = Timeout(self.period / 2.0)
        level = 1  # what this activation drives: 1 rises, 0 falls
        # a rising activation at or after `until` finishes the driver
        while not level or until is None or sim.now < until:
            event = self._changed
            if (event._waiters or event._callbacks or event is self._held
                    or self.trace is not None or sim.tracer is not None):
                self.set(level)
            elif sim._queue or sim._ready or sim._horizon is None:
                self._value = level  # nothing can observe this edge
            else:  # nor can anything run before the horizon
                level = yield from self._leap(level, until, tick)
                continue
            self.cycles += level
            level ^= 1
            yield tick

    def _leap(self, level: int, until: Optional[float],
              tick: Timeout) -> Generator:
        """Run this edge and every later one before the last activation
        due by the run's horizon as one wait; return the level that
        activation drives.

        The driver calls it when nothing else is scheduled in a
        ``run()``, so no other process can run before that activation.
        """
        sim = self.sim
        horizon = sim._horizon
        half = tick.delay
        when, landing, edges = sim.now, level, 0
        if until is not None or horizon < math.inf:
            # the activation times the kernel would reach, by the same
            # repeated addition, up to the horizon or the activation
            # that finishes the driver
            while True:
                later = when + half
                if not when < later <= horizon:
                    break
                when, landing, edges = later, landing ^ 1, edges + 1
                if landing and until is not None and not when < until:
                    break
        if edges < 2:  # nothing to skip: just this edge
            self._value = level
            self.cycles += level
            yield tick
            return level ^ 1
        self._value = landing ^ 1
        self.cycles += (edges + level) // 2
        yield _Leap(when, edges - 1)
        return landing


class Trace:
    """An in-memory waveform: (time, signal-name, value) triples.

    Provides just enough query power for tests and benchmarks: slicing by
    signal, edge counting, and value-at-time reconstruction.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[float, str, Any]] = []

    def record(self, time: float, name: str, value: Any) -> None:
        """Append one change record."""
        self.entries.append((time, name, value))

    def changes(self, name: str) -> List[Tuple[float, Any]]:
        """All (time, value) changes of one signal, in time order."""
        return [(t, v) for t, n, v in self.entries if n == name]

    def value_at(self, name: str, time: float) -> Any:
        """The signal's value at ``time`` (last change at or before it)."""
        result = None
        for t, v in self.changes(name):
            if t > time:
                break
            result = v
        return result

    def edge_count(self, name: str) -> int:
        """Number of recorded changes of a signal (excluding the initial
        value record)."""
        return max(0, len(self.changes(name)) - 1)

    def signals(self) -> List[str]:
        """All signal names seen, in first-appearance order."""
        seen: Dict[str, None] = {}
        for _t, n, _v in self.entries:
            seen.setdefault(n)
        return list(seen)

    def dump_vcd_like(self) -> str:
        """A human-readable waveform dump (not strict VCD, but stable)."""
        lines = [f"$trace {len(self.entries)} changes$"]
        for t, n, v in self.entries:
            lines.append(f"#{t:.3f} {n} = {v}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)
