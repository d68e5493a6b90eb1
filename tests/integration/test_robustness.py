"""Robustness and failure-injection checks across modules."""

import random

import pytest

from repro.cosim.kernel import Simulator
from repro.cosim.msglevel import Channel
from repro.isa.codegen import compile_cdfg
from repro.isa.cpu import CpuError
from repro.isa.instructions import CustomOp, Isa


class TestKernelDeterminismUnderLoad:
    def build_and_run(self):
        """A soak scenario: 40 producer/consumer pairs over shared
        channels with mixed latencies."""
        sim = Simulator()
        rng = random.Random(99)
        totals = []
        for pair in range(40):
            chan = Channel(
                sim, f"c{pair}",
                capacity=rng.choice([None, 0, 2]),
                latency_per_message=rng.choice([0.0, 1.5, 7.0]),
            )
            count = rng.randint(1, 8)

            def producer(chan=chan, count=count, base=pair):
                for i in range(count):
                    yield from chan.send(base * 100 + i)

            def consumer(chan=chan, count=count, acc=totals):
                got = 0
                for _ in range(count):
                    item = yield from chan.receive()
                    got += item
                acc.append(got)

            sim.process(producer(), name=f"p{pair}")
            sim.process(consumer(), name=f"q{pair}")
        sim.run()
        return sim.now, sim.activations, sorted(totals)

    def test_identical_runs_are_bit_identical(self):
        a = self.build_and_run()
        b = self.build_and_run()
        assert a == b

    def test_all_pairs_complete(self):
        _now, _act, totals = self.build_and_run()
        assert len(totals) == 40


class TestFailureInjection:
    def test_binary_with_custom_ops_faults_on_stock_isa(self):
        """A binary compiled for an extended ISA must fault loudly (not
        silently mis-execute) on a processor lacking the extension."""
        from repro.asip.custom import fusions_for, install, mine_candidates
        from repro.graph.cdfg import CDFG

        g = CDFG("sa")
        a, b = g.inp("a"), g.inp("b")
        three = g.const(3)
        g.out("y", g.add(g.shl(a, three), b))
        cands = mine_candidates({"sa": (g, 1.0)})
        extended = install(cands, "ext")
        compiled = compile_cdfg(g, extended,
                                fusions=fusions_for(cands, "sa"))
        with pytest.raises(CpuError):
            compiled.run({"a": 1, "b": 2})  # stock ISA by default

    def test_wrong_custom_semantics_caught_by_verification(self):
        """If a functional unit's semantics are wrong, the three-way
        co-verification must catch it — the safety net behind every
        partitioning decision."""
        from repro.graph.cdfg import CDFG
        from repro.isa.codegen import Fusion

        g = CDFG("sa")
        a, b = g.inp("a"), g.inp("b")
        three = g.const(3)
        shl = g.shl(a, three)
        add = g.add(shl, b)
        g.out("y", add)
        isa = Isa("buggy", customs=[CustomOp(
            "badfx", 0x80,
            lambda x, y: ((x << 2) + y) & 0xFFFFFFFF,  # wrong shift!
        )])
        compiled = compile_cdfg(
            g, isa,
            fusions={add: Fusion(outer=add, inner=shl,
                                 mnemonic="badfx", externals=(a, b))},
        )
        got, _cycles = compiled.run({"a": 1, "b": 2}, isa=isa)
        reference = g.evaluate({"a": 1, "b": 2})
        assert got != reference, (
            "the injected defect must be observable (otherwise the "
            "cross-checks in this suite prove nothing)"
        )

    def test_channel_stress_respects_capacity_invariant(self):
        sim = Simulator()
        chan = Channel(sim, "c", capacity=3)
        peak = {"n": 0}

        def producer():
            for i in range(50):
                yield from chan.send(i)
                peak["n"] = max(peak["n"], chan.pending)

        def consumer():
            for _ in range(50):
                yield from chan.receive()
                yield sim.timeout(1.0)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert peak["n"] <= 3
        assert chan.received == 50
