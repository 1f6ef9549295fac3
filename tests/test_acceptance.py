"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 1 draws randomized cases per operation over both the small test
prime and the FFT prime; sizes cover 1..512 with every operation also
exercised at its maximum size.  All comparisons are exact.

Run with  pytest tests/test_acceptance.py -v -s  to see the report lines.
"""

import math
import random
import time

from helpers import check, low_product, rand_poly
from polyarena import Zq
from polyarena import bilinear_inplace as bi
from polyarena import cs_rorw, ops
from polyarena.ops import OPS, SPECS, sample_size

RING97 = Zq(97)
RING_FFT = Zq(469762049)


# per-op case counts: 200 randomized cases each, split across the two primes
CASES_PER_PRIME = 100

# expensive quadratic-time interpolation ops get a reduced large-size tail
SLOW_OPS = {"partial_interp", "interp_cs", "mp_eval_cs"}


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    total = 0
    for spec in OPS:
        name = spec.name
        for ring in (RING97, RING_FFT):
            rng = random.Random(f"c1-{name}-{ring.q}")
            # interpolation needs distinct nonzero points, so over q = 97
            # sizes are capped at 96; the FFT prime covers the full range
            cap = 512
            if name in ("interp_cs", "partial_interp") and ring is RING97:
                cap = 90
            for case in range(CASES_PER_PRIME):
                if case == 0:
                    n = cap if name not in SLOW_OPS else min(cap, 80)
                elif name in SLOW_OPS and case == 1:
                    n = min(cap, 512 if ring is RING_FFT else 80)
                else:
                    n = min(cap, sample_size(rng))
                    if name in SLOW_OPS:
                        n = min(n, 128)
                check(spec, ring, spec.gen(ring, rng, n))
                total += 1
    elapsed = time.time() - t0
    print(f"[PASS] criterion 1: oracle equivalence, {total} randomized cases, {elapsed:.1f}s")
    assert elapsed < 60.0, f"criterion 1 exceeded its 60s budget: {elapsed:.1f}s"


SPACE_SIZES = (32, 64, 128, 256, 512)


def _arena_at_size(spec, n, seed):
    # the FFT product needs large roots; interpolation needs n distinct
    # nonzero points, so both run over the FFT prime
    big_field = spec.name in ("cumulative_fft_mul", "interp_cs", "partial_interp")
    ring = RING_FFT if big_field else RING97
    rng = random.Random(f"{seed}-{spec.name}-{n}")
    return check(spec, ring, spec.gen(ring, rng, n))


def test_criterion_2_space_theorems():
    # operations whose theorems promise O(1) extra algebraic space
    for spec in [spec for spec in OPS if spec.space in (ops.CONSTANT, ops.LOG_STACK, ops.TAIL)]:
        highs = []
        for n in SPACE_SIZES:
            arena = _arena_at_size(spec, n, "c2")
            highs.append(arena.metrics.extra_algebraic_highwater)
            depth = arena.metrics.pointer_depth_highwater
            assert depth <= 2 * math.log2(n) + 4, f"{spec.name} at {n}: depth {depth}"
        assert len(set(highs)) == 1, f"{spec.name}: K_op varies with n: {highs}"
    # small-space operations stay within their scratch block exactly (the
    # check asserts it for every SMALL entry)
    rng = random.Random("c2-smallspace")
    for n, s in ((64, 8), (128, 16), (256, 5), (512, 64)):
        check(SPECS["inplace_div_smallspace"], RING97, {**SPECS["series_div_cs"].gen(RING97, rng, n), "scratch": s})
        f2 = rand_poly(rng, 97, n + n - 1)
        g2 = rand_poly(rng, 97, n - 1) + [rng.randrange(1, 97)]
        check(SPECS["remainder_smallspace"], RING97, {"f": f2, "g": g2, "scratch": min(s, n - 1)})
    print("[PASS] criterion 2: constant space high-water per op; small-space ops bounded by s")


def test_criterion_3_pointer_space():
    for spec in [spec for spec in OPS if spec.space in (ops.LOG_STACK, ops.TAIL)]:
        log_stack = spec.space == ops.LOG_STACK
        for n in SPACE_SIZES:
            depth = _arena_at_size(spec, n, "c3" if log_stack else "c3t").metrics.pointer_depth_highwater
            assert depth <= (2 * math.log2(n) + 4 if log_stack else 1), f"{spec.name} at {n}: depth {depth}"
    # strassen_cs carries the same call-stack promise
    assert ops.STRASSEN.space == ops.LOG_STACK
    rng = random.Random("c3-sw")
    for n in (4, 8, 16, 32):
        arena = check(ops.STRASSEN, RING97, ops.STRASSEN.gen(RING97, rng, n))
        assert arena.metrics.pointer_depth_highwater <= 2 * math.log2(n) + 4
    print("[PASS] criterion 3: log-size call stacks; tail-recursive ops at depth <= 1")


def test_criterion_4_restoration():
    # the check asserts every restore contract; the reversible division gets
    # a dedicated Undo(Apply) = identity run, which the check makes after it
    rng = random.Random("c4")
    for _ in range(100):
        n = rng.randrange(1, 40)
        m = rng.randrange(0, 80)
        f = rand_poly(rng, 97, m + n - 1)
        g = rand_poly(rng, 97, n - 1) + [rng.randrange(1, 97)]
        check(SPECS["inplace_divrem"], RING97, {"f": f, "g": g})
    rng = random.Random("c4-ops")
    for spec in OPS:
        for _ in range(4):
            check(spec, RING97, spec.gen(RING97, rng, sample_size(rng)))
    print("[PASS] criterion 4: rw/rw restoration and Undo(Apply) identity on 100 pairs")


def test_criterion_5_count_theorems():
    q = 97
    rng = random.Random("c5")

    def row(w):
        while True:
            r = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(w)]
            if any(r):
                return r

    checked = 0
    while checked < 20:
        t, m, n, s = (rng.randrange(1, 6) for _ in range(4))
        A = [row(m) for _ in range(t)]
        B = [row(n) for _ in range(t)]
        C = [row(t) for _ in range(s)]
        cols = [[C[k][u] for k in range(s)] for u in range(t)]
        if any(not any(col) for col in cols):
            continue
        if any(sum(1 for v in col if v) < 2 for col in cols):
            continue  # nondegenerate: at least two nonzeros per used column
        prog = bi.validate(RING97, A, B, C)
        instrs = bi.emit_inplace(prog)
        counts = bi.instruction_counts(instrs, q)
        sA, sB, sC = bi.sigma(prog.A), bi.sigma(prog.B), bi.sigma(prog.C)
        tA, tB, tC = bi.tau(prog.A, q), bi.tau(prog.B, q), bi.tau(prog.C, q)
        assert counts["products"] == t
        assert counts["additions"] == 2 * (sA + sB + sC) - 5 * t
        assert counts["scalings"] == 2 * (tA + tB + tC)
        checked += 1

    prods = {}
    for k in range(0, 6):
        n = 1 << k
        arena, _ = ops.run(ops.STRASSEN, RING97, ops.STRASSEN.gen(RING97, rng, n))
        prods[n] = arena.metrics.base_products
        assert prods[n] == 7 ** k
    ratio = prods[32] / prods[16]
    assert abs(ratio - 7) / 7 <= 0.05

    for k in range(0, 8):
        n = 1 << k
        f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
        arena, _ = ops.run(SPECS["cumulative_karatsuba"], RING97, {"f": f, "g": g})
        assert arena.metrics.base_products == 3 ** k
    print("[PASS] criterion 5: emission count formulas; 7^k and 3^k base products")


def test_criterion_6_tisp_reductions():
    rng = random.Random("c6")
    lower, upper = SPECS["lower_product_cs"], SPECS["upper_product_cs"]
    for n in (8, 13, 16, 27, 32, 50, 64, 100, 128):
        f = rand_poly(rng, 97, n)
        g = rand_poly(rng, 97, n)
        full = low_product(RING97, f, g, 2 * n - 1)

        # (a) full product assembled as low + x^n * upp, where (c) the upper
        # product is the reversed lower product
        lo = ops.run(lower, RING97, {"f": f, "g": g})[1].h.tolist()
        up = ops.run(upper, RING97, {"f": f, "g": g, "reversed": True})[1].h.tolist()
        assert lo + up == full
        assert up == full[n:]

        # (b) lower product via the middle product with fake padding
        _, v = ops.build(lower, RING97, {"f": f, "g": g})
        shifted = v.f.window(-(n - 1), n)  # x^(n-1) * f as a read-only window
        cs_rorw.middle_product_cs(shifted, v.g, v.h)
        assert v.h.tolist() == full[:n]
    print("[PASS] criterion 6: TISP reduction identities for n in 8..128")


def test_criterion_7_precision_ladder():
    rng = random.Random("c7")
    for trial in range(25):
        n = rng.randrange(2, 90)
        f = SPECS["series_inv_cs"].gen(RING97, rng, n)["f"]
        _, v = ops.build(SPECS["series_inv_cs"], RING97, {"f": f})
        checks = []

        def ladder_inv(k):
            checks.append(low_product(RING97, f, v.g.tolist(), k) == [1] + [0] * (k - 1))

        cs_rorw.series_inv_cs(v.f, v.g, ladder=ladder_inv)
        assert checks and all(checks)

        x = SPECS["series_div_cs"].gen(RING97, rng, n)
        fd, gd = x["f"], x["g"]
        _, w = ops.build(SPECS["series_div_cs"], RING97, x)
        checks = []

        def ladder_div(k):
            checks.append(low_product(RING97, gd, w.h.tolist(), k) == fd[:k])

        cs_rorw.series_div_cs(w.f, w.g, w.h, ladder=ladder_div)
        assert checks and all(checks)
    print("[PASS] criterion 7: Newton ladder invariant on 50 runs")


def _cpu_seconds(ring, name, n, rng):
    """CPU seconds of one call of a table entry on inputs of n coefficients
    (uniform, by ops.draw), arena set-up excluded."""
    spec = SPECS[name]
    x = ops.draw(spec, ring, n, rng)
    _, views = ops.build(spec, ring, x)
    t0 = time.process_time()
    spec.call(views, x)
    return time.process_time() - t0


def _paired(ring, op, ref, n, rng):
    """Min-of-3 CPU seconds of op and of ref at size n, the calls alternating."""
    times = {op: [], ref: []}
    for _ in range(3):
        for name in (op, ref):
            times[name].append(_cpu_seconds(ring, name, n, rng))
    return min(times[op]), min(times[ref])


def test_criterion_8_benchmark_sanity():
    rng = random.Random("c8")
    kara_cum, kara_ref = _paired(RING97, "cumulative_karatsuba", "karatsuba_ref", 4096, rng)
    ratio_k = kara_cum / kara_ref
    fft_cum, fft_ref = _paired(RING_FFT, "cumulative_fft_mul", "fft_ref", 16384, rng)
    ratio_f = fft_cum / fft_ref
    ok_k = ratio_k <= 2.0
    ok_f = ratio_f <= 2.0
    print(
        f"[{'PASS' if ok_k else 'FAIL'}] criterion 8a: cumulative karatsuba {kara_cum:.2f}s "
        f"vs preallocated {kara_ref:.2f}s (ratio {ratio_k:.2f}, bound 2.0)"
    )
    print(
        f"[{'PASS' if ok_f else 'FAIL'}] criterion 8b: cumulative fft mul {fft_cum:.2f}s "
        f"vs scratch-buffer ntt {fft_ref:.2f}s (ratio {ratio_f:.2f}, bound 2.0)"
    )
    assert ok_k, f"karatsuba ratio {ratio_k:.2f} exceeds 2.0"
    assert ok_f, f"fft ratio {ratio_f:.2f} exceeds 2.0"
