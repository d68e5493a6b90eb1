"""Statement forms for process behaviors.

A process body is a sequence of statements; the vocabulary matches the
communication primitives the paper's co-simulation references use
(send, receive, wait [3]) plus abstract computation and iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro import _domain


@dataclass(frozen=True)
class Compute:
    """Consume processor/datapath time.

    ``duration_ns`` (finite and >= 0) is the reference (software)
    execution time; ``hw_speedup`` (finite and > 0) how much faster
    dedicated hardware runs it; ``parallelism`` (finite and >= 1) the
    nature-of-computation annotation.
    """

    duration_ns: float
    label: str = "compute"
    hw_speedup: float = 4.0
    parallelism: float = 1.0

    def __post_init__(self) -> None:
        _domain.real("duration_ns", self.duration_ns, least=0)
        _domain.real("hw_speedup", self.hw_speedup, above=0)
        _domain.real("parallelism", self.parallelism, least=1)


@dataclass(frozen=True)
class Send:
    """Send one message of ``words`` (finite and > 0) words on a named
    channel."""

    channel: str
    words: float = 1.0

    def __post_init__(self) -> None:
        _domain.real("words", self.words, above=0)


@dataclass(frozen=True)
class Receive:
    """Receive one message from a named channel (blocking)."""

    channel: str


@dataclass(frozen=True)
class Wait:
    """Block until a message is available, without consuming it."""

    channel: str


@dataclass(frozen=True)
class Loop:
    """Repeat a body ``count`` (an int >= 0) times."""

    count: int
    body: Tuple["Statement", ...]

    def __init__(self, count: int, body):
        object.__setattr__(self, "count", _domain.count("count", count))
        object.__setattr__(self, "body", tuple(body))


Statement = Union[Compute, Send, Receive, Wait, Loop]
