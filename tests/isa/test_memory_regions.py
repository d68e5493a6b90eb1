"""Region lookup and deferral without exceptions in ``Memory``.

``Memory`` finds an address's region by one bisect over the region
bases, and its ``load``/``store`` report an external region by their
return value (None, True), which the code generator's load and store
glue tests instead of catching ``_Defer``.  These tests hold the bisect
to a linear scan over Hypothesis-drawn layouts, check that a huge
region costs no memory per address, and that no RAM word, however raw,
reads as a deferral on either engine.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, ExternalAccess, Memory, _Defer
from repro.isa.instructions import Isa, MASK32
from repro.isa.translate import auto_translation, install

TOP = 1 << 32


@st.composite
def layouts(draw):
    """Non-overlapping regions as (name, base, size, external), in a
    drawn insertion order: adjacent ones, size-1 ones and huge ones,
    starting at address 0, ending at the top of the 32-bit space, or
    anywhere between."""
    sizes = draw(st.lists(st.one_of(st.just(1), st.integers(1, 9),
                                    st.integers(1, 1 << 30)),
                          min_size=1, max_size=8))
    gaps = [draw(st.one_of(st.just(0), st.integers(1, 5),
                           st.integers(1, 1 << 28))) for _ in sizes]
    span = sum(sizes) + sum(gaps[1:])
    if span > TOP:
        return []
    start = draw(st.sampled_from(["zero", "top", "any"]))
    base = {"zero": 0, "top": TOP - span}.get(start)
    if base is None:
        base = draw(st.integers(0, TOP - span))
    regions = []
    for i, (size, gap) in enumerate(zip(sizes, gaps)):
        if i:
            base += gap
        regions.append((f"r{i}", base, size, draw(st.booleans())))
        base += size
    return draw(st.permutations(regions))


def scan(regions, addr):
    """The reference: the first region containing ``addr``, by a
    linear scan."""
    for name, base, size, _external in regions:
        if base <= addr < base + size:
            return name
    return None


def memory_of(regions):
    memory = Memory()
    for name, base, size, external in regions:
        if external:
            memory.add_region(name, base, size, external=True)
        else:
            memory.add_region(name, base, size, read_fn=lambda o: o + 1,
                              write_fn=lambda o, v: None)
    return memory


@settings(max_examples=300, deadline=None, derandomize=True)
@given(regions=layouts(), extra=st.lists(st.integers(-2, TOP + 2),
                                         max_size=8))
def test_region_lookup_matches_a_linear_scan(regions, extra):
    memory = memory_of(regions)
    probes = {-1, 0, 1, TOP - 1, TOP, *extra}
    for _name, base, size, _external in regions:
        probes |= {base - 1, base, base + 1, base + size - 1, base + size}
    for addr in sorted(probes):
        region = memory.region_at(addr)
        assert (region and region.name) == scan(regions, addr), hex(addr)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(regions=layouts(), words=st.lists(st.integers(0, MASK32),
                                         min_size=1, max_size=6,
                                         unique=True))
def test_load_and_store_defer_exactly_in_external_regions(regions, words):
    memory = memory_of(regions)
    externals = {name for name, *_rest, external in regions if external}
    for addr in words:
        name = scan(regions, addr)
        loaded = memory.load(addr)
        stored = memory.store(addr, addr ^ 5)
        if name in externals:
            assert (loaded, stored) == (None, True)
            with pytest.raises(_Defer) as info:
                memory.read(addr)
            assert info.value.access == ExternalAccess(addr, 0, False)
            with pytest.raises(_Defer) as info:
                memory.write(addr, -1)
            assert info.value.access == ExternalAccess(addr, MASK32, True)
        elif name is not None:
            base = next(b for n, b, *_rest in regions if n == name)
            assert (loaded, stored) == (addr - base + 1, False)
        else:
            assert (loaded, stored) == (0, False)
            assert memory.load(addr) == addr ^ 5
    assert memory.loads == len(words) + sum(
        scan(regions, a) is None for a in words) + sum(
        scan(regions, a) in externals for a in words)


def test_a_huge_region_allocates_nothing_per_address():
    memory = Memory()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        memory.add_region("huge", 1 << 20, 1 << 30, external=True)
        memory.add_region("tiny", 0, 1, external=True)
        for addr in (0, 1, 1 << 20, (1 << 20) + (1 << 29), (1 << 30) + 99):
            memory.region_at(addr)
            memory.load(addr)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "lineno"))
    assert grown < 8192, grown
    assert memory.region_at((1 << 30) + (1 << 20) - 1).name == "huge"
    assert memory.region_at((1 << 30) + (1 << 20)) is None


@pytest.mark.parametrize("base,size", [(TOP, 4), (TOP - 2, 4),
                                       (TOP + 7, 1), (0, TOP + 1)])
def test_a_region_the_masked_address_cannot_reach_is_rejected(base, size):
    """Every access masks its address to 32 bits, so a region at or
    past 2**32 would alias RAM and one across it would defer only its
    low part."""
    memory = Memory()
    with pytest.raises(ValueError, match="region 'hi'"):
        memory.add_region("hi", base, size, external=True)
    assert memory.region_at(TOP - 1) is None
    assert memory.load(TOP + 1) == 0


def test_a_region_may_end_at_the_top_of_the_space():
    memory = Memory()
    memory.add_region("top", TOP - 4, 4, external=True)
    memory.add_region("all", 0, TOP - 4, external=True)
    assert memory.region_at(TOP - 1).name == "top"
    assert memory.load(TOP - 1) is None and memory.load(TOP + 1) is None


RAW_WORDS = [-1, -(1 << 40), 1 << 32, (1 << 40) + 5, (1 << 64) - 1]


def cpu_on(source, memory, translated):
    """A CPU running ``source`` from ``memory``, its blocks translated
    on first entry or never."""
    isa = Isa()
    memory.load_image(assemble(source, isa).image)
    cpu = Cpu(isa, memory)
    if translated:
        install(cpu, hot_threshold=1)
    return cpu


@pytest.mark.parametrize("translated", [False, True])
@pytest.mark.parametrize("raw", RAW_WORDS)
def test_no_ram_word_reads_as_a_deferral(raw, translated):
    """Image words outside the 32-bit range load masked, on the
    interpreted tier and in a translated block, with an external
    region mapped; nothing defers."""
    memory = Memory()
    memory.add_region("dev", 0x400, 4, external=True)
    memory.load_image({0x300: raw, 0x301: 0})
    cpu = cpu_on("lw r1, 0x300(r0)\nlw r2, 0x301(r0)\n"
                 "sw r1, 0x302(r0)\nhalt", memory, translated)
    assert memory.load(0x300) == raw
    with auto_translation(False):
        assert cpu.run_block(10) == (4, 7, None)
    assert cpu.halted and cpu.regs[1] == raw & MASK32
    assert memory.ram[0x302] == raw & MASK32
    assert (cpu.translator is not None
            and cpu.translator.translations == 1) is translated


@pytest.mark.parametrize("translated", [False, True])
def test_an_external_access_defers_on_both_engines(translated):
    memory = Memory()
    memory.add_region("dev", 0x400, 128, external=True)
    cpu = cpu_on("addi r3, r3, 7\nlw r1, 0x400(r3)\nsw r3, 0x401(r3)\n"
                 "halt", memory, translated)
    with auto_translation(False):
        steps, cycles, access = cpu.run_block(10)
        assert (steps, cycles) == (2, 1)
        assert access == ExternalAccess(0x407, 0, False)
        with pytest.raises(CpuError, match="pending"):
            cpu.run_block(1)
        assert cpu.complete_access(read_value=-1, extra_cycles=3) == 5
        assert cpu.run_block(10) == (1, 0, ExternalAccess(0x408, 7, True))
        assert cpu.complete_access(read_value=99) == 2
        assert cpu.run_block(10) == (1, 1, None)
    assert cpu.regs[1] == MASK32 and cpu.instr_count == 4
    assert cpu.cycle_count == 1 + 5 + 2 + 1 and cpu.halted
    assert (memory.loads, memory.stores) == (1, 1)
