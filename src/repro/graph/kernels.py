"""Library of classic DSP/embedded kernels as CDFGs and task graphs.

These are the academic workloads of the mid-90s co-design literature:
FIR filters, IIR biquads, the elliptic wave filter (EWF — the canonical
high-level-synthesis benchmark), FFT butterflies, small DCTs, CRC steps,
and a JPEG-style encoder pipeline as a coarse task graph.

Every kernel builder returns a fresh graph, and each CDFG kernel has a
pure-Python reference in :mod:`repro.graph.cdfg` semantics via
``CDFG.evaluate`` so hardware and software backends can be cross-checked.
"""

from __future__ import annotations

from typing import List

from repro import _domain
from repro.graph.cdfg import CDFG
from repro.graph.taskgraph import Task, TaskGraph


def fir(n_taps: int = 8, coefficients: "List[int]" = None) -> CDFG:
    """An ``n_taps``-tap FIR filter: ``y = sum(c[i] * x[i])``.

    Inputs ``x0..x{n-1}`` are the delay line; coefficients come from
    inputs ``c0..c{n-1}`` by default, or are baked in as constants when
    ``coefficients`` is given (the fixed-filter form ASIP flows mine for
    constant-multiply patterns).  Multiplier-rich and perfectly parallel
    — the archetypal "nature of computation favours hardware" kernel.
    """
    _domain.count("n_taps", n_taps, 1)
    if coefficients is not None and len(coefficients) != n_taps:
        raise ValueError("need one coefficient per tap")
    g = CDFG(f"fir{n_taps}" + ("k" if coefficients is not None else ""))
    if coefficients is None:
        taps = [g.inp(f"c{i}") for i in range(n_taps)]
    else:
        taps = [g.const(c & 0xFFFFFFFF, f"c{i}")
                for i, c in enumerate(coefficients)]
    products = [
        g.mul(taps[i], g.inp(f"x{i}")) for i in range(n_taps)
    ]
    # balanced adder tree
    while len(products) > 1:
        nxt: List[str] = []
        for i in range(0, len(products) - 1, 2):
            nxt.append(g.add(products[i], products[i + 1]))
        if len(products) % 2:
            nxt.append(products[-1])
        products = nxt
    g.out("y", products[0])
    return g


def iir_biquad() -> CDFG:
    """A direct-form-I IIR biquad section.

    ``y = b0*x + b1*x1 + b2*x2 - a1*y1 - a2*y2`` with the five
    coefficients and four state words as inputs.
    """
    g = CDFG("biquad")
    x = g.inp("x")
    terms = [
        g.mul(g.inp("b0"), x),
        g.mul(g.inp("b1"), g.inp("x1")),
        g.mul(g.inp("b2"), g.inp("x2")),
    ]
    fb = [
        g.mul(g.inp("a1"), g.inp("y1")),
        g.mul(g.inp("a2"), g.inp("y2")),
    ]
    acc = g.add(g.add(terms[0], terms[1]), terms[2])
    acc = g.sub(acc, g.add(fb[0], fb[1]))
    g.out("y", acc)
    return g


def fft_butterfly() -> CDFG:
    """A radix-2 FFT butterfly on integer (fixed-point) data.

    Inputs: ``ar, ai, br, bi`` (two complex points) and ``wr, wi`` (the
    twiddle factor).  Outputs the two complex results ``xr, xi, yr, yi``.
    Four multiplies, six adds — the balanced add/mul mix typical of
    transform codes.
    """
    g = CDFG("butterfly")
    ar, ai = g.inp("ar"), g.inp("ai")
    br, bi = g.inp("br"), g.inp("bi")
    wr, wi = g.inp("wr"), g.inp("wi")
    # t = w * b (complex multiply)
    tr = g.sub(g.mul(wr, br), g.mul(wi, bi))
    ti = g.add(g.mul(wr, bi), g.mul(wi, br))
    g.out("xr", g.add(ar, tr))
    g.out("xi", g.add(ai, ti))
    g.out("yr", g.sub(ar, tr))
    g.out("yi", g.sub(ai, ti))
    return g


def elliptic_wave_filter(constant_coefficients: bool = False) -> CDFG:
    """The fifth-order elliptic wave filter (EWF).

    The canonical scheduling benchmark of the high-level synthesis
    literature.  This rendition reproduces the benchmark's published
    operation mix (26 additions, 8 multiplications) and its long addition
    chains; state inputs ``sv2, sv13, sv18, sv26, sv33, sv38, sv39``,
    sample input ``inp``, coefficients as multiplier inputs ``k0..k7``
    (or baked-in constants with ``constant_coefficients=True``, the form
    the ASIP pattern miner exploits).
    """
    g = CDFG("ewf" + ("k" if constant_coefficients else ""))
    inp = g.inp("inp")
    sv = {i: g.inp(f"sv{i}") for i in (2, 13, 18, 26, 33, 38, 39)}
    if constant_coefficients:
        k = [g.const(3 + 2 * i, f"k{i}") for i in range(8)]
    else:
        k = [g.inp(f"k{i}") for i in range(8)]

    n1 = g.add(inp, sv[2])
    n2 = g.add(n1, sv[13])
    n3 = g.add(sv[26], sv[33])
    m1 = g.mul(n2, k[0])
    n4 = g.add(m1, sv[13])
    m2 = g.mul(n3, k[1])
    n5 = g.add(m2, sv[33])
    n6 = g.add(n4, n5)
    m3 = g.mul(n6, k[2])
    n7 = g.add(m3, n4)
    n8 = g.add(m3, n5)
    n9 = g.add(n7, sv[18])
    m4 = g.mul(n9, k[3])
    n10 = g.add(m4, n7)
    n11 = g.add(n10, n1)
    m5 = g.mul(n11, k[4])
    n12 = g.add(m5, sv[39])
    n13 = g.add(n10, n12)
    n14 = g.add(n8, sv[38])
    m6 = g.mul(n14, k[5])
    n15 = g.add(m6, n8)
    n16 = g.add(n15, n3)
    m7 = g.mul(n16, k[6])
    n17 = g.add(m7, sv[38])
    n18 = g.add(n15, n17)
    m8 = g.mul(n13, k[7])
    n19 = g.add(m8, n12)
    n20 = g.add(n13, n18)
    n21 = g.add(n12, n19)
    n22 = g.add(n17, n18)
    n23 = g.add(n21, n22)
    n24 = g.add(n20, n23)
    n25 = g.add(n16, n9)
    n26 = g.add(n24, n25)

    g.out("sv2_next", n11)
    g.out("sv13_next", n4)
    g.out("sv18_next", n9)
    g.out("sv26_next", n16)
    g.out("sv33_next", n5)
    g.out("sv38_next", n17)
    g.out("sv39_next", n19)
    g.out("y", n26)
    return g


def dct4() -> CDFG:
    """A 4-point DCT-II butterfly network on integer data.

    Inputs ``x0..x3`` plus cosine coefficients ``c1..c3``; outputs
    ``y0..y3``.
    """
    g = CDFG("dct4")
    x = [g.inp(f"x{i}") for i in range(4)]
    c1, c2, c3 = g.inp("c1"), g.inp("c2"), g.inp("c3")
    s03 = g.add(x[0], x[3])
    d03 = g.sub(x[0], x[3])
    s12 = g.add(x[1], x[2])
    d12 = g.sub(x[1], x[2])
    g.out("y0", g.add(s03, s12))
    g.out("y2", g.mul(g.sub(s03, s12), c2))
    g.out("y1", g.add(g.mul(d03, c1), g.mul(d12, c3)))
    g.out("y3", g.sub(g.mul(d03, c3), g.mul(d12, c1)))
    return g


def crc_step() -> CDFG:
    """One byte-step of a CRC-32-like update: table-free shift/xor form.

    Inputs ``crc`` and ``byte``; output ``crc_next``.  Bit-twiddling heavy
    (shift/xor/and) — an archetypal *software-friendly* kernel: cheap on a
    CPU, little to gain from word-parallel hardware.
    """
    g = CDFG("crc_step")
    crc = g.inp("crc")
    byte = g.inp("byte")
    poly = g.const(0xEDB88320, "poly")
    one = g.const(1, "one")
    acc = g.bxor(crc, byte)
    for _ in range(8):
        lsb = g.band(acc, one)
        shifted = g.shr(acc, one)
        acc = g.mux(lsb, g.bxor(shifted, poly), shifted)
    g.out("crc_next", acc)
    return g


def matmul2() -> CDFG:
    """A 2x2 integer matrix multiply (8 multiplies, 4 adds)."""
    g = CDFG("matmul2")
    a = [[g.inp(f"a{i}{j}") for j in range(2)] for i in range(2)]
    b = [[g.inp(f"b{i}{j}") for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            g.out(
                f"c{i}{j}",
                g.add(g.mul(a[i][0], b[0][j]), g.mul(a[i][1], b[1][j])),
            )
    return g


def histogram_bin() -> CDFG:
    """Conditional histogram-bin update: control(mux)-dominated kernel.

    Inputs ``x, lo, hi, count``; output ``count_next`` incremented when
    ``lo <= x < hi``.  Branch-heavy, low arithmetic intensity — affine to
    software.
    """
    g = CDFG("histbin")
    x, lo, hi = g.inp("x"), g.inp("lo"), g.inp("hi")
    count = g.inp("count")
    one = g.const(1, "one")
    # lo <= x  <=>  not (x < lo)
    x_lt_lo = g.lt(x, lo)
    x_lt_hi = g.lt(x, hi)
    in_range = g.band(g.bxor(x_lt_lo, one), x_lt_hi)
    g.out("count_next", g.mux(in_range, g.add(count, one), count))
    return g


def viterbi_acs() -> CDFG:
    """A Viterbi add-compare-select butterfly.

    Two path metrics ``pm0, pm1`` extend by branch metrics ``bm0, bm1``
    (both orderings); each output state keeps the smaller sum and a
    decision bit.  The add→compare and compare→select chains are the
    canonical custom-instruction targets of communications ASIPs.
    """
    g = CDFG("viterbi_acs")
    pm0, pm1 = g.inp("pm0"), g.inp("pm1")
    bm0, bm1 = g.inp("bm0"), g.inp("bm1")
    a0 = g.add(pm0, bm0)
    a1 = g.add(pm1, bm1)
    b0 = g.add(pm0, bm1)
    b1 = g.add(pm1, bm0)
    d0 = g.lt(a1, a0)
    d1 = g.lt(b1, b0)
    g.out("pm_even", g.mux(d0, a1, a0))
    g.out("pm_odd", g.mux(d1, b1, b0))
    g.out("dec_even", d0)
    g.out("dec_odd", d1)
    return g


def lms_update(n_taps: int = 4) -> CDFG:
    """One LMS adaptive-filter coefficient update step.

    ``w[i] += mu_e * x[i]`` for each tap, where ``mu_e`` is the
    pre-scaled error.  Multiply-accumulate-rich like the FIR but with a
    *write-back* structure (outputs per tap), typical of the adaptive
    codecs the era's co-design papers targeted.
    """
    _domain.count("n_taps", n_taps, 1)
    g = CDFG(f"lms{n_taps}")
    mu_e = g.inp("mu_e")
    for i in range(n_taps):
        w = g.inp(f"w{i}")
        x = g.inp(f"x{i}")
        g.out(f"w{i}_next", g.add(w, g.mul(mu_e, x)))
    return g


ALL_CDFG_KERNELS = {
    "fir8": lambda: fir(8),
    "fir16": lambda: fir(16),
    "biquad": iir_biquad,
    "butterfly": fft_butterfly,
    "ewf": elliptic_wave_filter,
    "dct4": dct4,
    "crc_step": crc_step,
    "matmul2": matmul2,
    "histbin": histogram_bin,
    "viterbi_acs": viterbi_acs,
    "lms4": lambda: lms_update(4),
}


def jpeg_encoder_taskgraph() -> TaskGraph:
    """A JPEG-style still-image encoder as a coarse task graph.

    The motivating multimedia pipeline of the era's co-design intros:
    color conversion -> 2D DCT -> quantization -> zigzag -> RLE -> Huffman.
    Characterizations reflect each stage's nature: the DCT is parallel and
    hardware-friendly; Huffman coding is serial, data-dependent, and
    software-friendly.
    """
    g = TaskGraph("jpeg")
    g.add_task(Task("rgb2ycc", sw_time=24.0, hw_time=4.0, hw_area=90.0,
                    sw_size=30.0, parallelism=8.0, modifiability=0.1))
    g.add_task(Task("dct2d", sw_time=60.0, hw_time=5.0, hw_area=220.0,
                    sw_size=55.0, parallelism=16.0, modifiability=0.05))
    g.add_task(Task("quant", sw_time=14.0, hw_time=2.5, hw_area=60.0,
                    sw_size=18.0, parallelism=8.0, modifiability=0.4))
    g.add_task(Task("zigzag", sw_time=8.0, hw_time=2.0, hw_area=35.0,
                    sw_size=12.0, parallelism=2.0, modifiability=0.1))
    g.add_task(Task("rle", sw_time=18.0, hw_time=9.0, hw_area=70.0,
                    sw_size=25.0, parallelism=1.2, modifiability=0.5))
    g.add_task(Task("huffman", sw_time=30.0, hw_time=20.0, hw_area=150.0,
                    sw_size=60.0, parallelism=1.0, modifiability=0.7))
    g.add_edge("rgb2ycc", "dct2d", 64.0)
    g.add_edge("dct2d", "quant", 64.0)
    g.add_edge("quant", "zigzag", 64.0)
    g.add_edge("zigzag", "rle", 64.0)
    g.add_edge("rle", "huffman", 32.0)
    return g


def modem_taskgraph() -> TaskGraph:
    """A V.32-style modem receive chain as a task graph.

    AGC -> demod (parallel I/Q arms) -> equalizer -> slicer -> descrambler
    -> UART framing.  Mixed shapes: the equalizer is an FIR-like
    hardware-affine block; the descrambler and framing are bit-serial
    software-affine blocks.
    """
    g = TaskGraph("modem")
    g.add_task(Task("agc", sw_time=10.0, hw_time=2.0, hw_area=50.0,
                    sw_size=15.0, parallelism=2.0, modifiability=0.2))
    g.add_task(Task("demod_i", sw_time=22.0, hw_time=3.0, hw_area=110.0,
                    sw_size=28.0, parallelism=8.0, modifiability=0.1))
    g.add_task(Task("demod_q", sw_time=22.0, hw_time=3.0, hw_area=110.0,
                    sw_size=28.0, parallelism=8.0, modifiability=0.1))
    g.add_task(Task("equalizer", sw_time=45.0, hw_time=4.0, hw_area=200.0,
                    sw_size=40.0, parallelism=16.0, modifiability=0.3))
    g.add_task(Task("slicer", sw_time=6.0, hw_time=1.5, hw_area=25.0,
                    sw_size=10.0, parallelism=1.5, modifiability=0.2))
    g.add_task(Task("descrambler", sw_time=12.0, hw_time=8.0, hw_area=55.0,
                    sw_size=20.0, parallelism=1.0, modifiability=0.6))
    g.add_task(Task("framing", sw_time=9.0, hw_time=7.0, hw_area=45.0,
                    sw_size=22.0, parallelism=1.0, modifiability=0.8))
    g.add_edge("agc", "demod_i", 16.0)
    g.add_edge("agc", "demod_q", 16.0)
    g.add_edge("demod_i", "equalizer", 16.0)
    g.add_edge("demod_q", "equalizer", 16.0)
    g.add_edge("equalizer", "slicer", 8.0)
    g.add_edge("slicer", "descrambler", 4.0)
    g.add_edge("descrambler", "framing", 4.0)
    return g


ALL_TASKGRAPH_KERNELS = {
    "jpeg": jpeg_encoder_taskgraph,
    "modem": modem_taskgraph,
}
