"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 1 draws randomized cases per operation over both the small test
prime and the FFT prime; sizes cover 1..512 with every operation also
exercised at its maximum size.  All comparisons are exact.

Run with  pytest tests/test_acceptance.py -v -s  to see the report lines.
"""

import math
import random
import time

from polyarena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, Arena, Zq, build_arena
from polyarena import bilinear_inplace as bi
from polyarena import cs_rorw, cs_rwrw
from polyarena.cli import _bench_case
from polyarena.dense_ref import divrem, horner_eval, karatsuba_mul, schoolbook_mul

RING97 = Zq(97)
RING_FFT = Zq(469762049)


def report(line):
    print(line)


def oracle_mul(ring, f, g):
    if not f or not g:
        return []
    if min(len(f), len(g)) <= 64 or max(len(f), len(g)) <= 128:
        return schoolbook_mul(ring, f, g)
    return karatsuba_mul(ring, f, g)


def oracle_low(ring, f, g, t):
    full = oracle_mul(ring, f, g)
    out = full[:t]
    return out + [0] * (t - len(out))


def oracle_slice(ring, f, g, s, r):
    full = oracle_mul(ring, f, g)
    return [(full[s + i] if 0 <= s + i < len(full) else 0) for i in range(r)]


def rand_poly(rng, q, n):
    return [rng.randrange(q) for _ in range(n)]


def unit_lead(rng, q, n):
    return rand_poly(rng, q, n - 1) + [rng.randrange(1, q)]


def unit_const(rng, q, n):
    return [rng.randrange(1, q)] + rand_poly(rng, q, n - 1)


def sample_size(rng):
    if rng.random() < 0.85:
        e = rng.uniform(0.0, 6.3)
    else:
        e = rng.uniform(6.3, 9.0)
    return max(1, min(512, round(2.0 ** e)))


# ---------------------------------------------------------------------------
# operation runners: run at size n, assert against the oracle, check the
# rw/rw restore contract, and return the arena for metric inspection
# ---------------------------------------------------------------------------


def run_semi_cumulative_product(ring, rng, n):
    q = ring.q
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    h0 = rand_poly(rng, q, n - 1) + [0] * n
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (h0, INOUT))
    cs_rorw.semi_cumulative_product(fv, gv, hv)
    full = oracle_mul(ring, f, g)
    assert hv.tolist() == [(h0[i] + full[i]) % q for i in range(2 * n - 1)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_lower_product_cs(ring, rng, n):
    q = ring.q
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.lower_product_cs(fv, gv, hv)
    assert hv.tolist() == oracle_low(ring, f, g, n)
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_upper_product_cs(ring, rng, n):
    q = ring.q
    if n < 2:
        n = 2
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * (n - 1), INOUT))
    cs_rorw.lower_product_cs(fv, gv, hv, reversed_mode=True)
    assert hv.tolist() == oracle_slice(ring, f, g, n, n - 1)
    return arena


def run_semi_cumulative_lower(ring, rng, n):
    q = ring.q
    s = rng.randrange(1, n + 1)
    glen = n if rng.random() < 0.5 else s
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, glen)
    h0 = [0] * s + rand_poly(rng, q, n - s)
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (h0, INOUT))
    cs_rorw.semi_cumulative_lower(fv, gv, hv, s)
    low = oracle_low(ring, f, g, n)
    assert hv.tolist() == [(h0[i] + low[i]) % q for i in range(n)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_middle_product_cs(ring, rng, n):
    q = ring.q
    m = sample_size(rng)
    f = rand_poly(rng, q, m + n - 1)
    g = rand_poly(rng, q, n)
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * m, INOUT))
    cs_rorw.middle_product_cs(fv, gv, hv)
    assert hv.tolist() == oracle_slice(ring, f, g, n - 1, m)
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_series_inv_cs(ring, rng, n):
    q = ring.q
    f = unit_const(rng, q, n)
    arena, (fv, gv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.series_inv_cs(fv, gv)
    assert oracle_low(ring, f, gv.tolist(), n) == [1] + [0] * (n - 1)
    assert fv.tolist() == f
    return arena


def run_series_div_cs(ring, rng, n):
    q = ring.q
    f = rand_poly(rng, q, n)
    g = unit_const(rng, q, n)
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.series_div_cs(fv, gv, hv)
    assert oracle_low(ring, g, hv.tolist(), n) == f
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_inplace_div_smallspace(ring, rng, n):
    q = ring.q
    s = rng.randrange(5, max(6, n + 3))
    f = rand_poly(rng, q, n)
    g = unit_const(rng, q, n)
    arena, (fv, gv, tv) = build_arena(ring, RW_RW, (f, INOUT), (g, INPUT_ONLY), ([0] * s, SCRATCH))
    cs_rorw.inplace_div_smallspace(fv, gv, tv)
    assert oracle_low(ring, g, fv.tolist(), n) == f
    assert gv.tolist() == g
    assert arena.metrics.extra_algebraic_highwater <= s
    return arena


def run_divrem_cs(ring, rng, n):
    q = ring.q
    m = max(n - 1, sample_size(rng))
    f = rand_poly(rng, q, m + n - 1)
    g = unit_lead(rng, q, n)
    arena, (fv, gv, qv, rv) = build_arena(
        ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * m, INOUT), ([0] * (n - 1), INOUT)
    )
    cs_rorw.divrem_cs(fv, gv, qv, rv)
    eq, er = divrem(ring, f, g)
    assert qv.tolist() == eq and rv.tolist() == er
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_remainder_smallspace(ring, rng, n):
    q = ring.q
    if n < 2:
        n = 2
    m = max(n - 1, sample_size(rng))
    s = rng.randrange(1, n)
    f = rand_poly(rng, q, m + n - 1)
    g = unit_lead(rng, q, n)
    arena, (fv, gv, rv, tv) = build_arena(
        ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * s, SCRATCH)
    )
    cs_rorw.remainder_smallspace(fv, gv, rv, tv)
    assert rv.tolist() == divrem(ring, f, g)[1]
    assert arena.metrics.extra_algebraic_highwater <= s
    return arena


def run_mp_eval_cs(ring, rng, n):
    q = ring.q
    f = rand_poly(rng, q, n)
    pts = [rng.randrange(q) for _ in range(n)]
    arena, (fv, ov) = build_arena(ring, RO_RW, (f, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.mp_eval_cs(fv, pts, ov)
    assert ov.tolist() == [horner_eval(ring, f, a) for a in pts]
    assert fv.tolist() == f
    return arena


def run_partial_interp(ring, rng, n):
    q = ring.q
    if n < 2:
        n = 2
    s = rng.randrange(0, n - 1)
    k = rng.randrange(1, n - s + 1)
    f = rand_poly(rng, q, n)
    pts = rng.sample(range(1, q), n - s)
    vals = [horner_eval(ring, f, a) for a in pts]
    arena, (gv, ov, sv) = build_arena(
        ring, RO_RW, (f[:s], INPUT_ONLY), ([0] * k, INOUT), ([0] * (8 * k + 4), SCRATCH)
    )
    cs_rorw.partial_interp(gv, list(zip(pts, vals)), k, ov, sv)
    assert ov.tolist() == (f[s:] + [0] * n)[:k]
    return arena


def run_interp_cs(ring, rng, n):
    q = ring.q
    pts = rng.sample(range(1, q), n)
    f = rand_poly(rng, q, n)
    vals = [horner_eval(ring, f, a) for a in pts]
    arena, (ov,) = build_arena(ring, RO_RW, ([0] * n, INOUT))
    cs_rorw.interp_cs(list(zip(pts, vals)), ov)
    assert ov.tolist() == f
    return arena


def run_cumulative_karatsuba(ring, rng, n):
    q = ring.q
    m = sample_size(rng)
    if m < n:
        m, n = n, m
    f, g = rand_poly(rng, q, m), rand_poly(rng, q, n)
    h0 = rand_poly(rng, q, m + n - 1)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_karatsuba(fv, gv, hv)
    full = oracle_mul(ring, f, g)
    assert hv.tolist() == [(h0[i] + full[i]) % q for i in range(m + n - 1)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_partial_ft(ring, rng, n):
    q = ring.q
    two_adic = 26 if q == RING_FFT.q else 5
    p = min(two_adic, max(1, n - 1).bit_length() + rng.randrange(0, 2))
    root = ring.find_principal_root(1 << p)
    ell = rng.randrange(0, p + 1)
    while (1 << ell) > n:
        ell -= 1
    k = rng.randrange(0, max(1, (1 << p) >> ell))
    f = rand_poly(rng, q, n)
    arena, (fv,) = build_arena(ring, RW_RW, (f, INOUT))
    cs_rwrw.partial_ft(fv, k, ell, root)
    idx = k * (1 << ell)
    rev = int(bin(idx)[2:].zfill(p)[::-1], 2) if p else 0
    assert fv.get(0) == horner_eval(ring, f, pow(root.omega, rev, q))
    cs_rwrw.partial_ft(fv, k, ell, root, "inv")
    assert fv.tolist() == f
    return arena


def run_cumulative_fft_mul(ring, rng, n):
    q = ring.q
    if q == 97 and n > 16:
        n = 16  # 97 only has 2-adicity 5
    m = rng.randrange(1, n + 1)
    f, g = rand_poly(rng, q, m), rand_poly(rng, q, n)
    h0 = rand_poly(rng, q, m + n - 1)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_fft_mul(fv, gv, hv)
    full = oracle_mul(ring, f, g)
    assert hv.tolist() == [(h0[i] + full[i]) % q for i in range(m + n - 1)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_cumulative_convolution(ring, rng, n):
    q = ring.q
    lam = rng.randrange(1, q)
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    h0 = rand_poly(rng, q, n)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_convolution(fv, gv, hv, lam)
    full = oracle_mul(ring, f, g)
    expect = list(h0)
    for i, c in enumerate(full):
        if i < n:
            expect[i] = (expect[i] + c) % q
        else:
            expect[i - n] = (expect[i - n] + c * lam) % q
    assert hv.tolist() == expect
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_cumulative_lower(ring, rng, n):
    q = ring.q
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    h0 = rand_poly(rng, q, n)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_lower(fv, gv, hv)
    low = oracle_low(ring, f, g, n)
    assert hv.tolist() == [(h0[i] + low[i]) % q for i in range(n)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_cumulative_slice(ring, rng, n):
    q = ring.q
    m = sample_size(rng)
    r = rng.randrange(1, m + n)
    s = rng.randrange(0, m + n - r)
    f, g = rand_poly(rng, q, m), rand_poly(rng, q, n)
    h0 = rand_poly(rng, q, r)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_slice(fv, gv, hv, s)
    expect = oracle_slice(ring, f, g, s, r)
    assert hv.tolist() == [(h0[i] + expect[i]) % q for i in range(r)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_inplace_lower(ring, rng, n):
    q = ring.q
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    arena, (fv, gv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT))
    cs_rwrw.inplace_lower(fv, gv)
    assert fv.tolist() == oracle_low(ring, f, g, n)
    assert gv.tolist() == g
    return arena


def run_inplace_series_div(ring, rng, n):
    q = ring.q
    f = rand_poly(rng, q, n)
    g = unit_const(rng, q, n)
    arena, (fv, gv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT))
    cs_rwrw.inplace_series_div(fv, gv)
    assert oracle_low(ring, g, fv.tolist(), n) == f
    assert gv.tolist() == g
    return arena


def run_remainder_rwrw(ring, rng, n):
    q = ring.q
    if n < 2:
        n = 2
    m = max(n - 1, sample_size(rng))
    f = rand_poly(rng, q, m + n - 1)
    g = unit_lead(rng, q, n)
    arena, (fv, gv, rv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), ([0] * (n - 1), INOUT))
    cs_rwrw.remainder_rwrw(fv, gv, rv)
    assert rv.tolist() == divrem(ring, f, g)[1]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_inplace_divrem(ring, rng, n):
    q = ring.q
    m = sample_size(rng)
    f = rand_poly(rng, q, m + n - 1)
    g = unit_lead(rng, q, n)
    arena, (fv, gv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT))
    cs_rwrw.inplace_divrem(fv, gv, "apply")
    eq, er = divrem(ring, f, g)
    assert fv.tolist() == er + eq
    cs_rwrw.inplace_divrem(fv, gv, "undo")
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def run_cumulative_remainder(ring, rng, n):
    q = ring.q
    if n < 2:
        n = 2
    m = sample_size(rng)
    f = rand_poly(rng, q, m + n - 1)
    g = unit_lead(rng, q, n)
    r0 = rand_poly(rng, q, n - 1)
    arena, (fv, gv, rv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (r0, INOUT))
    cs_rwrw.cumulative_remainder(fv, gv, rv)
    er = divrem(ring, f, g)[1]
    assert rv.tolist() == [(r0[i] + er[i]) % q for i in range(n - 1)]
    assert fv.tolist() == f and gv.tolist() == g
    return arena


def _modmul_oracle(ring, f, g, p, r0):
    q = ring.q
    full = oracle_mul(ring, f, g)
    er = divrem(ring, full if full else [0], p)[1]
    er = er + [0] * (len(p) - 1 - len(er))
    return [(r0[i] + er[i]) % q for i in range(len(p) - 1)]


def run_modular_mul(ring, rng, n):
    q = ring.q
    f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
    p = rand_poly(rng, q, n) + [1]
    r0 = rand_poly(rng, q, n)
    arena, (fv, gv, rv, pv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (r0, INOUT), (p, INOUT))
    cs_rwrw.modular_mul(fv, gv, rv, pv)
    assert rv.tolist() == _modmul_oracle(ring, f, g, p, r0)
    assert fv.tolist() == f and gv.tolist() == g and pv.tolist() == p
    return arena


def run_modular_mul_any(ring, rng, n):
    q = ring.q
    l, m = sample_size(rng), sample_size(rng)
    f, g = rand_poly(rng, q, l), rand_poly(rng, q, m)
    p = rand_poly(rng, q, n) + [1]
    r0 = rand_poly(rng, q, n)
    arena, (fv, gv, rv, pv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (r0, INOUT), (p, INOUT))
    cs_rwrw.modular_mul_any(fv, gv, rv, pv)
    assert rv.tolist() == _modmul_oracle(ring, f, g, p, r0)
    assert fv.tolist() == f and gv.tolist() == g and pv.tolist() == p
    return arena


ALL_OPS = [
    ("semi_cumulative_product", run_semi_cumulative_product),
    ("lower_product_cs", run_lower_product_cs),
    ("upper_product_cs", run_upper_product_cs),
    ("semi_cumulative_lower", run_semi_cumulative_lower),
    ("middle_product_cs", run_middle_product_cs),
    ("series_inv_cs", run_series_inv_cs),
    ("series_div_cs", run_series_div_cs),
    ("inplace_div_smallspace", run_inplace_div_smallspace),
    ("divrem_cs", run_divrem_cs),
    ("remainder_smallspace", run_remainder_smallspace),
    ("mp_eval_cs", run_mp_eval_cs),
    ("partial_interp", run_partial_interp),
    ("interp_cs", run_interp_cs),
    ("cumulative_karatsuba", run_cumulative_karatsuba),
    ("partial_ft", run_partial_ft),
    ("cumulative_fft_mul", run_cumulative_fft_mul),
    ("cumulative_convolution", run_cumulative_convolution),
    ("cumulative_lower", run_cumulative_lower),
    ("cumulative_slice", run_cumulative_slice),
    ("inplace_lower", run_inplace_lower),
    ("inplace_series_div", run_inplace_series_div),
    ("remainder_rwrw", run_remainder_rwrw),
    ("inplace_divrem", run_inplace_divrem),
    ("cumulative_remainder", run_cumulative_remainder),
    ("modular_mul", run_modular_mul),
    ("modular_mul_any", run_modular_mul_any),
]

# per-op case counts: 200 randomized cases each, split across the two primes
CASES_PER_PRIME = 100

# expensive quadratic-time interpolation ops get a reduced large-size tail
SLOW_OPS = {"partial_interp", "interp_cs", "mp_eval_cs"}


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    total = 0
    for name, runner in ALL_OPS:
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
                runner(ring, rng, n)
                total += 1
    elapsed = time.time() - t0
    report(f"[PASS] criterion 1: oracle equivalence, {total} randomized cases, {elapsed:.1f}s")
    assert elapsed < 60.0, f"criterion 1 exceeded its 60s budget: {elapsed:.1f}s"


# operations whose theorems promise O(1) / no extra algebraic space
CONST_SPACE_OPS = [
    "semi_cumulative_product",
    "lower_product_cs",
    "semi_cumulative_lower",
    "middle_product_cs",
    "series_inv_cs",
    "series_div_cs",
    "divrem_cs",
    "mp_eval_cs",
    "interp_cs",
    "cumulative_karatsuba",
    "cumulative_fft_mul",
    "cumulative_convolution",
    "cumulative_lower",
    "cumulative_slice",
    "inplace_lower",
    "inplace_series_div",
    "remainder_rwrw",
    "inplace_divrem",
    "cumulative_remainder",
    "modular_mul",
    "modular_mul_any",
]

SPACE_SIZES = (32, 64, 128, 256, 512)


def _arena_at_size(name, n, seed="c2"):
    runner = dict(ALL_OPS)[name]
    # the FFT product needs large roots; interpolation needs n distinct
    # nonzero points, so both run over the FFT prime
    big_field = name in ("cumulative_fft_mul", "interp_cs", "partial_interp")
    ring = RING_FFT if big_field else RING97
    rng = random.Random(f"{seed}-{name}-{n}")
    return runner(ring, rng, n)


def test_criterion_2_space_theorems():
    for name in CONST_SPACE_OPS:
        highs = []
        for n in SPACE_SIZES:
            arena = _arena_at_size(name, n)
            highs.append(arena.metrics.extra_algebraic_highwater)
            depth = arena.metrics.pointer_depth_highwater
            assert depth <= 2 * math.log2(n) + 4, f"{name} at {n}: depth {depth}"
        assert len(set(highs)) == 1, f"{name}: K_op varies with n: {highs}"
    # small-space operations stay within their scratch block exactly
    rng = random.Random("c2-smallspace")
    for n, s in ((64, 8), (128, 16), (256, 5), (512, 64)):
        f = rand_poly(rng, 97, n)
        g = unit_const(rng, 97, n)
        arena, (fv, gv, tv) = build_arena(RING97, RW_RW, (f, INOUT), (g, INPUT_ONLY), ([0] * s, SCRATCH))
        cs_rorw.inplace_div_smallspace(fv, gv, tv)
        assert arena.metrics.extra_algebraic_highwater <= s
        m = n
        f2 = rand_poly(rng, 97, m + n - 1)
        g2 = unit_lead(rng, 97, n)
        s2 = min(s, n - 1)
        arena, (fv, gv, rv, tv) = build_arena(
            RING97, RO_RW, (f2, INPUT_ONLY), (g2, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * s2, SCRATCH)
        )
        cs_rorw.remainder_smallspace(fv, gv, rv, tv)
        assert arena.metrics.extra_algebraic_highwater <= s2
    report("[PASS] criterion 2: constant space high-water per op; small-space ops bounded by s")


LOG_STACK_OPS = [
    "cumulative_karatsuba",
    "inplace_lower",
    "inplace_series_div",
    "remainder_rwrw",
    "inplace_divrem",
    "cumulative_remainder",
    "modular_mul",
    "modular_mul_any",
]

TAIL_OPS = ["semi_cumulative_product", "lower_product_cs", "middle_product_cs"]


def test_criterion_3_pointer_space():
    for name in LOG_STACK_OPS:
        for n in SPACE_SIZES:
            arena = _arena_at_size(name, n, seed="c3")
            depth = arena.metrics.pointer_depth_highwater
            assert depth <= 2 * math.log2(n) + 4, f"{name} at {n}: depth {depth}"
    # strassen_cs carries the same call-stack promise
    rng = random.Random("c3-sw")
    for n in (4, 8, 16, 32):
        flat = [rng.randrange(97) for _ in range(3 * n * n)]
        arena = Arena(RING97, flat, [INOUT] * len(flat), RW_RW)
        bi.strassen_cs(
            bi.mat_on_arena(arena, 0, n), bi.mat_on_arena(arena, n * n, n), bi.mat_on_arena(arena, 2 * n * n, n)
        )
        assert arena.metrics.pointer_depth_highwater <= 2 * math.log2(n) + 4
    for name in TAIL_OPS:
        for n in SPACE_SIZES:
            arena = _arena_at_size(name, n, seed="c3t")
            assert arena.metrics.pointer_depth_highwater <= 1, name
    report("[PASS] criterion 3: log-size call stacks; tail-recursive ops at depth <= 1")


def test_criterion_4_restoration():
    # restore contracts are asserted inside every rw/rw runner; here the
    # reversible division gets its dedicated Undo(Apply) = identity check
    rng = random.Random("c4")
    for _ in range(100):
        n = rng.randrange(1, 40)
        m = rng.randrange(0, 80)
        f = rand_poly(rng, 97, m + n - 1)
        g = unit_lead(rng, 97, n)
        arena, (fv, gv) = build_arena(RING97, RW_RW, (f, INOUT), (g, INOUT))
        cs_rwrw.inplace_divrem(fv, gv, "apply")
        cs_rwrw.inplace_divrem(fv, gv, "undo")
        assert fv.tolist() == f and gv.tolist() == g
    rng = random.Random("c4-ops")
    for name, runner in ALL_OPS:
        for _ in range(4):
            runner(RING97, rng, sample_size(rng))  # runners assert restoration
    report("[PASS] criterion 4: rw/rw restoration and Undo(Apply) identity on 100 pairs")


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
        flat = [rng.randrange(q) for _ in range(3 * n * n)]
        arena = Arena(RING97, flat, [INOUT] * len(flat), RW_RW)
        bi.strassen_cs(
            bi.mat_on_arena(arena, 0, n), bi.mat_on_arena(arena, n * n, n), bi.mat_on_arena(arena, 2 * n * n, n)
        )
        prods[n] = arena.metrics.base_products
        assert prods[n] == 7 ** k
    ratio = prods[32] / prods[16]
    assert abs(ratio - 7) / 7 <= 0.05

    for k in range(0, 8):
        n = 1 << k
        f, g = rand_poly(rng, q, n), rand_poly(rng, q, n)
        arena, (fv, gv, hv) = build_arena(RING97, RW_RW, (f, INOUT), (g, INOUT), ([0] * (2 * n - 1), INOUT))
        cs_rwrw.cumulative_karatsuba(fv, gv, hv)
        assert arena.metrics.base_products == 3 ** k
    report("[PASS] criterion 5: emission count formulas; 7^k and 3^k base products")


def test_criterion_6_tisp_reductions():
    rng = random.Random("c6")
    for n in (8, 13, 16, 27, 32, 50, 64, 100, 128):
        f = rand_poly(rng, 97, n)
        g = rand_poly(rng, 97, n)
        full = schoolbook_mul(RING97, f, g) + [0] * 0
        full = full + [0] * (2 * n - 1 - len(full))

        # (a) full product assembled as low + x^n * upp
        arena, (fv, gv, lo, up) = build_arena(
            RING97, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * n, INOUT), ([0] * (n - 1), INOUT)
        )
        cs_rorw.lower_product_cs(fv, gv, lo)
        cs_rorw.lower_product_cs(fv, gv, up, reversed_mode=True)
        assembled = lo.tolist() + up.tolist()
        assert assembled == full

        # (b) lower product via the middle product with fake padding
        arena, (fv, gv, hv) = build_arena(RING97, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * n, INOUT))
        shifted = fv.window(-(n - 1), n)  # x^(n-1) * f as a read-only window
        cs_rorw.middle_product_cs(shifted, gv, hv)
        assert hv.tolist() == full[:n]

        # (c) upper product via the reversed lower product
        arena, (fv, gv, hv) = build_arena(RING97, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * (n - 1), INOUT))
        cs_rorw.lower_product_cs(fv, gv, hv, reversed_mode=True)
        assert hv.tolist() == full[n:]
    report("[PASS] criterion 6: TISP reduction identities for n in 8..128")


def test_criterion_7_precision_ladder():
    rng = random.Random("c7")
    for trial in range(25):
        n = rng.randrange(2, 90)
        f = unit_const(rng, 97, n)
        arena, (fv, gv) = build_arena(RING97, RO_RW, (f, INPUT_ONLY), ([0] * n, INOUT))
        checks = []

        def ladder_inv(k):
            low = schoolbook_mul(RING97, f[:k], gv.tolist()[:k])[:k]
            low += [0] * (k - len(low))
            checks.append(low == [1] + [0] * (k - 1))

        cs_rorw.series_inv_cs(fv, gv, ladder=ladder_inv)
        assert checks and all(checks)

        fd = rand_poly(rng, 97, n)
        gd = unit_const(rng, 97, n)
        arena, (fv, gv, hv) = build_arena(RING97, RO_RW, (fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))
        checks = []

        def ladder_div(k):
            low = schoolbook_mul(RING97, gd[:k], hv.tolist()[:k])[:k]
            low += [0] * (k - len(low))
            checks.append(low == fd[:k])

        cs_rorw.series_div_cs(fv, gv, hv, ladder=ladder_div)
        assert checks and all(checks)
    report("[PASS] criterion 7: Newton ladder invariant on 50 runs")


def test_criterion_8_benchmark_sanity():
    rng = random.Random("c8")
    kara_cum = min(_bench_case(RING97, "cumulative-karatsuba", 4096, rng)[0] for _ in range(3))
    kara_ref = min(_bench_case(RING97, "karatsuba-ref", 4096, rng)[0] for _ in range(3))
    ratio_k = kara_cum / kara_ref
    fft_cum = min(_bench_case(RING_FFT, "cumulative-fft", 16384, rng)[0] for _ in range(3))
    fft_ref = min(_bench_case(RING_FFT, "fft-ref", 16384, rng)[0] for _ in range(3))
    ratio_f = fft_cum / fft_ref
    ok_k = ratio_k <= 2.0
    ok_f = ratio_f <= 2.0
    report(
        f"[{'PASS' if ok_k else 'FAIL'}] criterion 8a: cumulative karatsuba {kara_cum:.2f}s "
        f"vs preallocated {kara_ref:.2f}s (ratio {ratio_k:.2f}, bound 2.0)"
    )
    report(
        f"[{'PASS' if ok_f else 'FAIL'}] criterion 8b: cumulative fft mul {fft_cum:.2f}s "
        f"vs scratch-buffer ntt {fft_ref:.2f}s (ratio {ratio_f:.2f}, bound 2.0)"
    )
    assert ok_k, f"karatsuba ratio {ratio_k:.2f} exceeds 2.0"
    assert ok_f, f"fft ratio {ratio_f:.2f} exceeds 2.0"
