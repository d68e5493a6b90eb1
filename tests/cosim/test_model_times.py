"""Model times are finite numbers.

A NaN delay would poison ``now`` for the rest of a run (and with it
the "time went backwards" check), an infinite one would park a process
for ever, and a NaN horizon would run as if there were none.  The
kernel, the clock and the backplane refuse such times with an error
naming the value.
"""

import math
import re

import pytest

from repro.cosim.backplane import Backplane
from repro.cosim.kernel import SimulationError, Simulator, Timeout
from repro.cosim.signals import Clock
from repro.isa.cpu import Cpu
from repro.isa.instructions import Isa


def _named(value):
    return re.escape(repr(value))


class TestTimeout:
    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_rejects_non_finite(self, delay):
        with pytest.raises(SimulationError, match=_named(delay)):
            Timeout(delay)

    @pytest.mark.parametrize("delay", [0, 0.0, 5e-324, 2.5, 1e308])
    def test_accepts_finite_non_negative(self, delay):
        assert Timeout(delay).delay == delay

    def test_nan_delay_cannot_poison_now(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(math.nan)

        sim.process(proc())
        with pytest.raises(SimulationError, match="nan"):
            sim.run()
        assert sim.now == 1.0


def _sleeper(sim, delay):
    yield sim.timeout(delay)


class TestRunHorizon:
    def test_nan_until_rejected(self):
        sim = Simulator()
        sim.process(_sleeper(sim, 1.0))
        with pytest.raises(ValueError, match="nan"):
            sim.run(until=math.nan)
        assert (sim.now, sim.activations) == (0.0, 0)

    def test_infinite_until_means_no_horizon(self):
        sim = Simulator()
        sim.process(_sleeper(sim, 3.0))
        assert sim.run(until=math.inf) == 3.0


class TestClockedModels:
    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_clock_rejects_period(self, period):
        with pytest.raises(ValueError, match=_named(period)):
            Clock(Simulator(), period=period)

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -10.0])
    def test_backplane_rejects_clock_period(self, period):
        with pytest.raises(ValueError, match=_named(period)):
            Backplane(Simulator(), Cpu(Isa()), clock_period=period)
