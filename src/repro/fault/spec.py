"""Fault specifications: what to break, where, and when.

A :class:`FaultSpec` is one fully-determined fault — a frozen,
JSON-serializable value with a stable SHA-256 fingerprint, exactly like
:class:`repro.sweep.config.SweepConfig` is for sweep cells.  The
fingerprint keys the campaign's on-disk result cache and derives
nothing from wall-clock, host, or worker identity, so a campaign is
reproducible at any worker count.

Fault kinds span the co-simulation stack's four injection surfaces
(mirroring the SBFI fault dictionaries of DAVOS-style campaigns):

========================  ============================================
kind                      effect
========================  ============================================
``signal_flip``           flip one bit of a :class:`cosim.signals.Signal`
                          value at model time ``time``
``reg_flip``              flip one bit of register ``index`` of a
                          mapped device (``.regs`` file) at ``time``
``cpu_reg_flip``          flip one bit of architectural register
                          ``index`` after ``count`` retired instructions
``cpu_pc_flip``           flip one bit of the program counter after
                          ``count`` retired instructions
``cpu_flag_flip``         invert one CPU control flag (``flag`` in
                          ``irq_enabled`` / ``irq_pending`` /
                          ``halted``) after ``count`` instructions
``msg_drop``              message ``index`` on channel ``target``
                          vanishes in transport
``msg_dup``               message ``index`` is delivered twice
``msg_delay``             message ``index`` is delayed ``delay`` ns
``msg_reorder``           messages ``index`` and ``index``+1 swap order
``msg_corrupt``           flip bit ``bit`` of message ``index``'s payload
``proc_spin``             a saboteur process enters a zero-delay spin
                          at ``time`` (timing fault; the kernel
                          watchdog must catch it)
========================  ============================================
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro import _domain

#: Bump when a field's meaning (or the outcome-record schema) changes:
#: old cache entries then read as misses instead of lying.
FAULT_VERSION = 1

#: Every fault kind the injector understands, by injection surface.
SIGNAL_KINDS = ("signal_flip",)
REGISTER_KINDS = ("reg_flip",)
CPU_KINDS = ("cpu_reg_flip", "cpu_pc_flip", "cpu_flag_flip")
MESSAGE_KINDS = (
    "msg_drop", "msg_dup", "msg_delay", "msg_reorder", "msg_corrupt",
)
TIMING_KINDS = ("proc_spin",)
KINDS = (
    SIGNAL_KINDS + REGISTER_KINDS + CPU_KINDS + MESSAGE_KINDS
    + TIMING_KINDS
)

#: CPU control flags addressable by ``cpu_flag_flip``.
CPU_FLAGS = ("irq_enabled", "irq_pending", "halted")

#: The five mutually exclusive outcome classes a campaign assigns
#: (see :func:`repro.fault.campaign.classify` for the precedence).
OUTCOMES = ("masked", "sdc", "detected", "hang", "crash")

#: Kinds triggered by model time (vs instruction count / message index).
TIMED_KINDS = SIGNAL_KINDS + REGISTER_KINDS + TIMING_KINDS


class FaultSpecError(ValueError):
    """Raised for a malformed or internally inconsistent fault spec."""


@dataclass(frozen=True)
class FaultSpec:
    """One fully-specified fault.

    Field use depends on ``kind`` (see the module table); unused fields
    must stay at their defaults so equal faults always serialize — and
    therefore fingerprint — identically.
    """

    kind: str
    target: str          # signal / device / channel / saboteur label
    index: int = 0       # register number / message ordinal
    bit: int = 0         # bit to flip, for *_flip / msg_corrupt
    time: float = 0.0    # model time, for time-triggered kinds
    count: int = 0       # retired-instruction trigger, for cpu_* kinds
    delay: float = 0.0   # extra latency, for msg_delay
    flag: str = ""       # cpu_flag_flip: which flag

    def __post_init__(self) -> None:
        for name in ("kind", "target", "flag"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise FaultSpecError(
                    f"{name} must be str, not {type(value).__name__} "
                    f"({value!r})"
                )
        if self.kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; known: {list(KINDS)}"
            )
        if not self.target:
            raise FaultSpecError(f"{self.kind}: target must be non-empty")
        _domain.count("index", self.index, error=FaultSpecError)
        _domain.count("bit", self.bit, 0, 32, error=FaultSpecError)
        _domain.real("time", self.time, least=0, error=FaultSpecError)
        _domain.count("count", self.count, error=FaultSpecError)
        if self.kind == "msg_delay":
            _domain.real("msg_delay: delay", self.delay, above=0,
                         error=FaultSpecError)
        else:  # unused: it must stay at its default
            _domain.real(f"{self.kind}: delay", self.delay, least=0,
                         most=0, error=FaultSpecError)
        if self.kind == "cpu_flag_flip":
            if self.flag not in CPU_FLAGS:
                raise FaultSpecError(
                    f"cpu_flag_flip: flag must be one of {list(CPU_FLAGS)}"
                )
        elif self.flag:
            raise FaultSpecError(f"{self.kind}: flag must stay empty")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Field-ordered plain-dict form (JSON-serializable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        """Rebuild from :meth:`to_dict` output; unknown keys rejected."""
        if not isinstance(data, Mapping):
            raise FaultSpecError(
                f"a fault spec is a mapping, not {type(data).__name__}"
            )
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise FaultSpecError(
                f"unknown fault fields: {sorted(map(str, unknown))}"
            )
        missing = [name for name in _REQUIRED if name not in data]
        if missing:
            raise FaultSpecError(f"missing fault fields: {missing}")
        return cls(**data)

    def canonical_json(self) -> str:
        """The canonical serialized form everything else hashes."""
        return json.dumps(
            {"version": FAULT_VERSION, **self.to_dict()},
            sort_keys=True, separators=(",", ":"),
        )

    @property
    def fingerprint(self) -> str:
        """Stable hex digest of the spec (a campaign cache-key part)."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    def describe(self) -> str:
        """A one-line human description for tables and span labels."""
        if self.kind in SIGNAL_KINDS:
            return f"{self.kind} {self.target} bit{self.bit} @t={self.time:g}"
        if self.kind in REGISTER_KINDS:
            return (f"{self.kind} {self.target}[{self.index}] "
                    f"bit{self.bit} @t={self.time:g}")
        if self.kind == "cpu_reg_flip":
            return f"{self.kind} r{self.index} bit{self.bit} @n={self.count}"
        if self.kind == "cpu_pc_flip":
            return f"{self.kind} bit{self.bit} @n={self.count}"
        if self.kind == "cpu_flag_flip":
            return f"{self.kind} {self.flag} @n={self.count}"
        if self.kind == "msg_delay":
            return (f"{self.kind} {self.target}#{self.index} "
                    f"+{self.delay:g}ns")
        if self.kind == "msg_corrupt":
            return f"{self.kind} {self.target}#{self.index} bit{self.bit}"
        if self.kind in MESSAGE_KINDS:
            return f"{self.kind} {self.target}#{self.index}"
        return f"{self.kind} {self.target} @t={self.time:g}"


#: the field names, in field order
_FIELDS = tuple(f.name for f in fields(FaultSpec))
#: the fields without a default
_REQUIRED = tuple(f.name for f in fields(FaultSpec) if f.default is MISSING)


# ----------------------------------------------------------------------
# seeded fault-space sampling
# ----------------------------------------------------------------------
def sample_faults(
    targets: Dict[str, Any],
    n: int,
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
) -> List[FaultSpec]:
    """Draw ``n`` faults from a scenario's declared target space.

    ``targets`` is the scenario's :attr:`Scenario.targets` description::

        {
          "signals":  ["enable", "clk"],
          "devices":  {"mac": 4},          # name -> register count
          "channels": {"out": 4},          # name -> message count
          "cpu":      {"regs": 16, "max_count": 300},  # optional
          "time":     (0.0, 3000.0),
          "data_bits": 16,                 # payload width to flip within
          "kinds":    ["cpu_reg_flip"],    # optional kind restriction
        }

    Sampling is *stratified*: kinds are visited round-robin so even a
    small campaign touches every injection surface, with per-fault
    parameters drawn from ``random.Random(seed)`` — the same seed
    always yields the same fault list, on any host.  Kinds whose
    surface the scenario lacks (no CPU, no devices, ...) are skipped.

    ``n`` is an int >= 0 and ``seed`` an int; the time window is two
    finite times with ``0 <= lo <= hi``, ``data_bits`` and ``pc_bits``
    are ints in [1, 32], every register and message count an int >= 1,
    ``cpu.regs`` an int in [2, 16] and ``cpu.max_count`` an int >= 2.
    Anything else raises :class:`FaultSpecError` naming the field.
    """
    # the whole frame is checked before the first draw, so no valid
    # frame's fault list moves
    check = _domain.count
    check("n", n, error=FaultSpecError)
    check("seed", seed, None, error=FaultSpecError)
    lo, hi = targets.get("time", (0.0, 1000.0))
    _domain.real("time[0]", lo, least=0, error=FaultSpecError)
    _domain.real("time[1]", hi, least=lo, error=FaultSpecError)
    data_bits = check("data_bits", targets.get("data_bits", 16), 1, 33,
                      error=FaultSpecError)
    for name, regs in targets.get("devices", {}).items():
        check(f"devices[{name!r}]", regs, 1, error=FaultSpecError)
    for name, messages in targets.get("channels", {}).items():
        check(f"channels[{name!r}]", messages, 1, error=FaultSpecError)
    cpu = targets.get("cpu")
    if cpu:
        # r1..r15: R32's sixteen registers, r0 never drawn
        check("cpu.regs", cpu["regs"], 2, 17, error=FaultSpecError)
        check("cpu.max_count", cpu["max_count"], 2, error=FaultSpecError)
        check("cpu.pc_bits", cpu.get("pc_bits", 12), 1, 33,
              error=FaultSpecError)
    rng = random.Random(seed)
    signals = list(targets.get("signals", ()))
    devices = dict(targets.get("devices", {}))
    channels = dict(targets.get("channels", {}))
    available: List[str] = []
    if kinds is None:
        kinds = targets.get("kinds", KINDS)
    for kind in kinds:
        if kind not in KINDS:
            raise FaultSpecError(f"unknown fault kind {kind!r}")
        if kind in SIGNAL_KINDS and not signals:
            continue
        if kind in REGISTER_KINDS and not devices:
            continue
        if kind in CPU_KINDS and not cpu:
            continue
        if kind in MESSAGE_KINDS and not channels:
            continue
        available.append(kind)
    if n and not available:
        raise FaultSpecError(
            "no applicable fault kinds for the given target space"
        )

    def draw_time() -> float:
        return round(rng.uniform(lo, hi), 1)

    out: List[FaultSpec] = []
    for i in range(n):
        kind = available[i % len(available)]
        if kind == "signal_flip":
            out.append(FaultSpec(
                kind=kind, target=rng.choice(signals),
                bit=rng.randrange(data_bits), time=draw_time(),
            ))
        elif kind == "reg_flip":
            device = rng.choice(sorted(devices))
            out.append(FaultSpec(
                kind=kind, target=device,
                index=rng.randrange(devices[device]),
                bit=rng.randrange(data_bits), time=draw_time(),
            ))
        elif kind == "cpu_reg_flip":
            out.append(FaultSpec(
                kind=kind, target="cpu",
                index=rng.randrange(1, cpu["regs"]),
                bit=rng.randrange(data_bits),
                count=rng.randrange(1, cpu["max_count"]),
            ))
        elif kind == "cpu_pc_flip":
            out.append(FaultSpec(
                kind=kind, target="cpu",
                bit=rng.randrange(cpu.get("pc_bits", 12)),
                count=rng.randrange(1, cpu["max_count"]),
            ))
        elif kind == "cpu_flag_flip":
            out.append(FaultSpec(
                kind=kind, target="cpu", flag=rng.choice(CPU_FLAGS),
                count=rng.randrange(1, cpu["max_count"]),
            ))
        elif kind in MESSAGE_KINDS:
            channel = rng.choice(sorted(channels))
            top = channels[channel]
            index = rng.randrange(
                top - 1 if kind == "msg_reorder" and top > 1 else top
            )
            extra: Dict[str, Any] = {}
            if kind == "msg_delay":
                extra["delay"] = round(rng.uniform(5.0, 200.0), 1)
            if kind == "msg_corrupt":
                extra["bit"] = rng.randrange(data_bits)
            out.append(FaultSpec(
                kind=kind, target=channel, index=index, **extra,
            ))
        else:  # proc_spin
            out.append(FaultSpec(
                kind=kind, target=f"saboteur{i}", time=draw_time(),
            ))
    return out
