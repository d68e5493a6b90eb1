"""Message-level (operating-system level) interface modeling.

The top rung of Figure 3: hardware and software components communicate
through ``send``, ``receive``, and ``wait`` operations on typed channels,
exactly the abstraction of Coumeri & Thomas [3].  One message costs O(1)
simulation events regardless of its size, which is why the paper calls
this level "very efficient computationally, but ... not [very] useful for
evaluating performance": the detailed bus occupancy, arbitration, and
per-word handshaking below the channel are abstracted into a single
latency number (or ignored entirely with ``latency_per_word=0``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro import _domain
from repro.cosim.kernel import Event, Simulator
from repro.cosim.trace import MSG


class Channel:
    """A typed, optionally bounded, point-to-multipoint message channel.

    * ``capacity=None`` — unbounded buffer; ``send`` never blocks.
    * ``capacity=k`` — bounded; ``send`` blocks while ``k`` messages queue.
    * ``capacity=0`` — rendezvous; ``send`` blocks until a receiver takes
      the message.

    Any other ``capacity`` (negative, fractional, NaN, a ``bool``)
    raises ``ValueError``.

    ``latency_per_message`` and ``latency_per_word`` (each finite and
    >= 0) give the channel an abstract timing model: a message of
    ``words`` words arrives that much later than it was sent.  Setting
    both to zero models the pure untimed-communication co-simulation of
    [2]/[3].
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "chan",
        capacity: Optional[int] = None,
        latency_per_message: float = 0.0,
        latency_per_word: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.capacity = _domain.count("capacity", capacity, optional=True)
        self.latency_per_message = _domain.real(
            "latency_per_message", latency_per_message, least=0)
        self.latency_per_word = _domain.real(
            "latency_per_word", latency_per_word, least=0)
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._watchers: List[Event] = []
        self._space: Deque[Event] = deque()
        self.sent = 0
        self.received = 0

    # ------------------------------------------------------------------
    def transfer_delay(self, words: int) -> float:
        """Model latency for one message of ``words`` words."""
        return self.latency_per_message + self.latency_per_word * words

    def send(self, item: Any, words: int = 1) -> Generator:
        """Generator: send one message (blocking per the capacity rule)."""
        delay = self.transfer_delay(words)
        if delay > 0:
            yield self.sim.timeout(delay)
        if self.capacity == 0:
            # rendezvous: wait for a receiver
            if self._getters:
                self._getters.popleft().succeed(item)
            else:
                gate = Event(self.sim, f"{self.name}.rendezvous")
                self._items.append((gate, item))
                yield gate
        else:
            while (
                self.capacity is not None
                and len(self._items) >= self.capacity
            ):
                gate = Event(self.sim, f"{self.name}.space")
                self._space.append(gate)
                yield gate
            if self._getters:
                self._getters.popleft().succeed(item)
            else:
                self._items.append(item)
        self.sent += 1
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                MSG, self.name, op="send", words=words,
                pending=len(self._items),
            )
            self.sim.tracer.metrics.counter(
                f"channel.{self.name}.sent"
            ).inc()
        self._notify_watchers()

    def receive(self) -> Generator:
        """Generator: receive one message, blocking until one arrives."""
        if self._items:
            entry = self._items.popleft()
            if self.capacity == 0:
                gate, item = entry
                gate.succeed()
            else:
                item = entry
                if self._space:
                    self._space.popleft().succeed()
        else:
            gate = Event(self.sim, f"{self.name}.recv")
            self._getters.append(gate)
            item = yield gate
        self.received += 1
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                MSG, self.name, op="receive", pending=len(self._items)
            )
            self.sim.tracer.metrics.counter(
                f"channel.{self.name}.received"
            ).inc()
        return item

    def wait(self) -> Generator:
        """Generator: block until a message *could* be received, without
        consuming it (the ``wait`` primitive of [3])."""
        if self._items:
            return
        gate = Event(self.sim, f"{self.name}.wait")
        self._watchers.append(gate)
        yield gate

    def _notify_watchers(self) -> None:
        watchers, self._watchers = self._watchers, []
        for gate in watchers:
            gate.succeed()

    @property
    def pending(self) -> int:
        """Messages currently buffered."""
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"Channel({self.name!r}, pending={self.pending}, "
            f"sent={self.sent}, received={self.received})"
        )


class Mailbox:
    """A set of named channels — the 'operating system' view a software
    process gets of its communication environment."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._channels: dict = {}

    def channel(
        self,
        name: str,
        capacity: Optional[int] = None,
        latency_per_message: float = 0.0,
        latency_per_word: float = 0.0,
    ) -> Channel:
        """Get or create the named channel (parameters apply on creation)."""
        if name not in self._channels:
            self._channels[name] = Channel(
                self.sim,
                name,
                capacity=capacity,
                latency_per_message=latency_per_message,
                latency_per_word=latency_per_word,
            )
        return self._channels[name]

    def __iter__(self):
        return iter(self._channels.values())
