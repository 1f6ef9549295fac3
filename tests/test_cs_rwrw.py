import math
import random

import pytest

from polyarena import INOUT, RW_RW, Zq, build_arena
from polyarena import cs_rwrw
from polyarena.dense_ref import BASE, BLOCK, divrem, horner_eval, schoolbook_mul, series_inv
from polyarena.ops import SPECS
from polyarena.errors import (
    BadParams,
    BadSlice,
    LambdaZero,
    NonMonicModulus,
    NonUnit,
    NonUnitLeading,
    NoSuchRoot,
    SizeContract,
)
from helpers import RING97, RING_FFT, check, low_product, rand_poly, slice_product

RNG = random.Random(31)
Q = 97


def rw_arena(*segments, ring=RING97):
    return build_arena(ring, RW_RW, *segments)


def snapshot_run(op, segments, outputs, ring=RING97):
    """Run op on fresh views; assert non-output views are restored."""
    arena, views = rw_arena(*((vals, INOUT) for vals in segments), ring=ring)
    before = [v.tolist() for v in views]
    op(*views)
    for i, v in enumerate(views):
        if i not in outputs:
            assert v.tolist() == before[i], f"operand {i} not restored"
    return arena, views


def test_cumulative_karatsuba_examples():
    arena, (f, g, h) = rw_arena(([1, 2], INOUT), ([3, 4], INOUT), ([5, 0, 0], INOUT))
    cs_rwrw.cumulative_karatsuba(f, g, h)
    assert h.tolist() == [8, 10, 8]
    assert f.tolist() == [1, 2] and g.tolist() == [3, 4]

    fd = rand_poly(RNG, Q, 9)
    arena, (f, g, h) = rw_arena((fd, INOUT), ([1], INOUT), (rand_poly(RNG, Q, 9), INOUT))
    before = h.tolist()
    cs_rwrw.cumulative_karatsuba(f, g, h)
    assert h.tolist() == [(before[i] + fd[i]) % Q for i in range(9)]

    m, n = 97, 64
    fd, gd = rand_poly(RNG, Q, m), rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, m + n - 1)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_karatsuba(f, g, h)
    full = schoolbook_mul(RING97, fd, gd)
    assert h.tolist() == [(h0[i] + full[i]) % Q for i in range(m + n - 1)]
    assert f.tolist() == fd and g.tolist() == gd


def test_cumulative_karatsuba_base_product_count():
    for k in range(0, 10):
        n = 1 << k
        arena, (f, g, h) = rw_arena(
            (rand_poly(RNG, Q, n), INOUT), (rand_poly(RNG, Q, n), INOUT), ([0] * (2 * n - 1), INOUT)
        )
        cs_rwrw.cumulative_karatsuba(f, g, h)
        assert arena.metrics.base_products == 3 ** k


def test_cumulative_karatsuba_one_coefficient_operand():
    # a 1 x k product is k size-1 products: one pointer level, no scratch
    rng = random.Random(5)
    for k in (1, 2, 9, 33, 100):
        for lf, lg in ((1, k), (k, 1)):
            for sign in (1, -1):
                fd, gd, h0 = rand_poly(rng, Q, lf), rand_poly(rng, Q, lg), rand_poly(rng, Q, k)
                arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
                cs_rwrw.cumulative_karatsuba(f, g, h, sign)
                full = schoolbook_mul(RING97, fd, gd)
                assert h.tolist() == [(h0[i] + sign * full[i]) % Q for i in range(k)]
                assert f.tolist() == fd and g.tolist() == gd
                m = arena.metrics
                assert (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products) == (0, 1, k)


def test_cumulative_additivity():
    # accumulate f*g then (-f)*g: h returns to its start, for every
    # cumulative operation
    n = 37
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    neg = [(-c) % Q for c in fd]

    def roundtrip(h0, op):
        arena, (f, nf, g, h) = rw_arena((fd, INOUT), (neg, INOUT), (gd, INOUT), (h0, INOUT))
        op(f, g, h)
        op(nf, g, h)
        assert h.tolist() == h0

    roundtrip(rand_poly(RNG, Q, 2 * n - 1), cs_rwrw.cumulative_karatsuba)
    roundtrip(rand_poly(RNG, Q, n), cs_rwrw.cumulative_lower)
    roundtrip(rand_poly(RNG, Q, n), lambda f, g, h: cs_rwrw.cumulative_convolution(f, g, h, 5))
    roundtrip(rand_poly(RNG, Q, 9), lambda f, g, h: cs_rwrw.cumulative_slice(f, g, h, 7))

    # cumulative remainder: f then -f returns r to its start
    m, nn = 20, 7
    fd2 = rand_poly(RNG, Q, m + nn - 1)
    neg2 = [(-c) % Q for c in fd2]
    gd2 = rand_poly(RNG, Q, nn - 1) + [RNG.randrange(1, Q)]
    r0 = rand_poly(RNG, Q, nn - 1)
    arena, (f, nf, g, r) = rw_arena((fd2, INOUT), (neg2, INOUT), (gd2, INOUT), (r0, INOUT))
    cs_rwrw.cumulative_remainder(f, g, r)
    cs_rwrw.cumulative_remainder(nf, g, r)
    assert r.tolist() == r0


def test_partial_ft_examples():
    root = RING97.find_principal_root(4)
    arena, (f,) = rw_arena(([1, 2, 3, 4], INOUT))
    cs_rwrw.partial_ft(f, 0, 2, root)
    assert f.tolist() == [10, 95, 51, 42]  # full bit-reversed DFT
    cs_rwrw.partial_ft(f, 0, 2, root, "inv")
    assert f.tolist() == [1, 2, 3, 4]

    # k=0, ell=1 over omega of order 4: slots f(1), f(96)
    arena, (f,) = rw_arena(([1, 2, 3, 4], INOUT))
    cs_rwrw.partial_ft(f, 0, 1, root)
    assert f.get(0) == horner_eval(RING97, [1, 2, 3, 4], 1)
    assert f.get(1) == horner_eval(RING97, [1, 2, 3, 4], 96)

    # random (n, k, ell) = (12, 1, 2), p = 4 roundtrip
    root16 = RING_FFT.find_principal_root(16)
    fd = rand_poly(RNG, RING_FFT.q, 12)
    arena, (f,) = rw_arena((fd, INOUT), ring=RING_FFT)
    cs_rwrw.partial_ft(f, 1, 2, root16)
    cs_rwrw.partial_ft(f, 1, 2, root16, "inv")
    assert f.tolist() == fd

    with pytest.raises(BadParams):
        cs_rwrw.partial_ft(f, 3, 4, root16)  # (k+1)*2^ell > 2^p


def test_cumulative_fft_mul_examples():
    arena, (f, g, h) = rw_arena(([1, 2], INOUT), ([3, 4], INOUT), ([0, 0, 0], INOUT))
    cs_rwrw.cumulative_fft_mul(f, g, h)
    assert h.tolist() == [3, 10, 8]

    gd = rand_poly(RNG, Q, 8)
    h0 = rand_poly(RNG, Q, 15)
    arena, (f, g, h) = rw_arena(([0] * 8, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_fft_mul(f, g, h)
    assert h.tolist() == h0 and g.tolist() == gd

    m, n = 1000, 700
    fd = rand_poly(RNG, RING_FFT.q, m)
    gd = rand_poly(RNG, RING_FFT.q, n)
    h0 = rand_poly(RNG, RING_FFT.q, m + n - 1)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT), ring=RING_FFT)
    cs_rwrw.cumulative_fft_mul(f, g, h)
    full = schoolbook_mul(RING_FFT, fd, gd)
    assert h.tolist() == [(h0[i] + full[i]) % RING_FFT.q for i in range(m + n - 1)]
    assert f.tolist() == fd and g.tolist() == gd
    assert arena.metrics.extra_algebraic_highwater <= 4


def test_cumulative_fft_mul_needs_root():
    with pytest.raises(NoSuchRoot):
        arena, (f, g, h) = rw_arena(
            (rand_poly(RNG, Q, 40), INOUT), (rand_poly(RNG, Q, 40), INOUT), ([0] * 79, INOUT)
        )
        cs_rwrw.cumulative_fft_mul(f, g, h)  # 97-1 has 2-adicity 5 only


def test_cumulative_convolution_examples():
    arena, (f, g, h) = rw_arena(([1, 2], INOUT), ([3, 4], INOUT), ([0, 0], INOUT))
    cs_rwrw.cumulative_convolution(f, g, h, 1)
    assert h.tolist() == [11, 10]

    # g = x is a cyclic shift when lambda = 1
    n = 8
    fd = rand_poly(RNG, Q, n)
    gd = [0, 1] + [0] * (n - 2)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), ([0] * n, INOUT))
    cs_rwrw.cumulative_convolution(f, g, h, 1)
    assert h.tolist() == [fd[-1]] + fd[:-1]

    n = 33
    lam = RNG.randrange(1, Q)
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, n)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_convolution(f, g, h, lam)
    full = schoolbook_mul(RING97, fd, gd)
    expect = list(h0)
    for i, c in enumerate(full):
        if i < n:
            expect[i] = (expect[i] + c) % Q
        else:
            expect[i - n] = (expect[i - n] + c * lam) % Q
    assert h.tolist() == expect
    assert f.tolist() == fd and g.tolist() == gd

    with pytest.raises(LambdaZero):
        cs_rwrw.cumulative_convolution(f, g, h, 0)


def test_cumulative_lower_examples():
    arena, (f, g, h) = rw_arena(([1, 2], INOUT), ([3, 4], INOUT), ([1, 1], INOUT))
    cs_rwrw.cumulative_lower(f, g, h)
    assert h.tolist() == [4, 11]

    # f = 1 makes it h += g
    n = 12
    gd = rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, n)
    arena, (f, g, h) = rw_arena(([1] + [0] * (n - 1), INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_lower(f, g, h)
    assert h.tolist() == [(h0[i] + gd[i]) % Q for i in range(n)]

    n = 129
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, n)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_lower(f, g, h)
    expect = low_product(RING97, fd, gd, n)
    assert h.tolist() == [(h0[i] + expect[i]) % Q for i in range(n)]
    assert f.tolist() == fd and g.tolist() == gd
    assert arena.metrics.extra_algebraic_highwater <= 4


def test_cumulative_slice_examples():
    arena, (f, g, h) = rw_arena(([3, 5, 2], INOUT), ([4, 1], INOUT), ([0, 0], INOUT))
    cs_rwrw.cumulative_slice(f, g, h, 1)
    assert h.tolist() == [23, 13]

    # s = 0, r = n on balanced operands is the cumulative lower product
    n = 19
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, n)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_slice(f, g, h, 0)
    arena2, (f2, g2, h2) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_lower(f2, g2, h2)
    assert h.tolist() == h2.tolist()

    m, n, r, s = 40, 25, 13, 7
    fd, gd = rand_poly(RNG, Q, m), rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, r)
    arena, (f, g, h) = rw_arena((fd, INOUT), (gd, INOUT), (h0, INOUT))
    cs_rwrw.cumulative_slice(f, g, h, s)
    expect = slice_product(RING97, fd, gd, s, r)
    assert h.tolist() == [(h0[i] + expect[i]) % Q for i in range(r)]
    assert f.tolist() == fd and g.tolist() == gd

    with pytest.raises(BadSlice):
        cs_rwrw.cumulative_slice(f, g, h, m + n)


def test_inplace_lower_examples():
    fd = rand_poly(RNG, Q, 11)
    arena, (f, g) = rw_arena((fd, INOUT), ([1] + [0] * 10, INOUT))
    cs_rwrw.inplace_lower(f, g)
    assert f.tolist() == fd

    arena, (f, g) = rw_arena(([1, 1, 0, 0], INOUT), ([1, 1, 0, 0], INOUT))
    cs_rwrw.inplace_lower(f, g)
    assert f.tolist() == [1, 2, 1, 0]

    n = 200
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    arena, (f, g) = rw_arena((fd, INOUT), (gd, INOUT))
    cs_rwrw.inplace_lower(f, g)
    assert f.tolist() == low_product(RING97, fd, gd, n)
    assert g.tolist() == gd
    assert arena.metrics.pointer_depth_highwater <= 2 * math.log2(n) + 4


def test_inplace_series_div_examples():
    fd = rand_poly(RNG, Q, 10)
    arena, (f, g) = rw_arena((fd, INOUT), ([1] + [0] * 9, INOUT))
    cs_rwrw.inplace_series_div(f, g)
    assert f.tolist() == fd

    arena, (f, g) = rw_arena(([1, 0, 0, 0], INOUT), ([1, 1, 0, 0], INOUT))
    cs_rwrw.inplace_series_div(f, g)
    assert f.tolist() == [1, 96, 1, 96]

    # reversed mode equals plain mode on reversed copies
    n = 60
    fd = rand_poly(RNG, Q, n)
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    arena, (f, g) = rw_arena((fd, INOUT), (gd, INOUT))
    cs_rwrw.inplace_series_div(f, g, reversed_mode=True)
    arena2, (f2, g2) = rw_arena((fd[::-1], INOUT), (gd[::-1], INOUT))
    cs_rwrw.inplace_series_div(f2, g2)
    assert f.tolist() == f2.tolist()[::-1]
    assert g.tolist() == gd

    with pytest.raises(NonUnit):
        arena, (f, g) = rw_arena(([1, 2], INOUT), ([0, 1], INOUT))
        cs_rwrw.inplace_series_div(f, g)


def test_remainder_rwrw_examples():
    arena, (f, g, r) = rw_arena(([1, 2, 0, 1], INOUT), ([1, 1], INOUT), ([0], INOUT))
    cs_rwrw.remainder_rwrw(f, g, r)
    assert r.tolist() == [95]
    assert f.tolist() == [1, 2, 0, 1] and g.tolist() == [1, 1]

    # f a multiple of g leaves a zero remainder
    n = 9
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    qd = rand_poly(RNG, Q, 12)
    fd = schoolbook_mul(RING97, gd, qd)
    arena, (f, g, r) = rw_arena((fd, INOUT), (gd, INOUT), ([0] * (n - 1), INOUT))
    cs_rwrw.remainder_rwrw(f, g, r)
    assert r.tolist() == [0] * (n - 1)

    m, n = 150, 33
    fd = rand_poly(RNG, Q, m + n - 1)
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    arena, (f, g, r) = rw_arena((fd, INOUT), (gd, INOUT), ([0] * (n - 1), INOUT))
    cs_rwrw.remainder_rwrw(f, g, r)
    assert r.tolist() == divrem(RING97, fd, gd)[1]
    assert f.tolist() == fd and g.tolist() == gd


def test_inplace_divrem_examples():
    arena, (f, g) = rw_arena(([1, 2, 0, 1], INOUT), ([1, 1], INOUT))
    cs_rwrw.inplace_divrem(f, g, "apply")
    assert f.tolist() == [95, 3, 96, 1]  # [r | q]

    for _ in range(100):
        n = RNG.randrange(1, 22)
        m = RNG.randrange(0, 70)
        fd = rand_poly(RNG, Q, m + n - 1)
        gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
        arena, (f, g) = rw_arena((fd, INOUT), (gd, INOUT))
        cs_rwrw.inplace_divrem(f, g, "apply")
        eq, er = divrem(RING97, fd, gd)
        assert f.tolist() == er + eq
        cs_rwrw.inplace_divrem(f, g, "undo")
        assert f.tolist() == fd
        assert g.tolist() == gd

    gd = rand_poly(RNG, Q, 4) + [RNG.randrange(1, Q)]
    arena, (f, g) = rw_arena((gd, INOUT), (gd, INOUT))
    cs_rwrw.inplace_divrem(f, g, "apply")
    assert f.tolist() == [0, 0, 0, 0, 1]

    with pytest.raises(NonUnitLeading):
        arena, (f, g) = rw_arena(([1, 2, 3], INOUT), ([1, 0], INOUT))
        cs_rwrw.inplace_divrem(f, g, "apply")


@pytest.mark.parametrize("lf, lg", [(2, 3), (5, 1), (12, 4)], ids=["m0", "n1", "general"])
def test_inplace_divrem_refuses_unknown_direction_with_arena_as_found(lf, lg):
    # m = 0, n = 1 and a general shape: BadParams before any write or count
    rng = random.Random(f"divrem-direction-{lf}-{lg}")
    gd = rand_poly(rng, Q, lg - 1) + [rng.randrange(1, Q)]
    arena, (f, g) = rw_arena((rand_poly(rng, Q, lf), INOUT), (gd, INOUT))
    before = list(arena.regs)
    with pytest.raises(BadParams):
        cs_rwrw.inplace_divrem(f, g, "bogus")
    assert arena.regs == before
    assert arena.metrics.summary() == "extra_algebraic=0 pointer_depth=0 base_products=0"


@pytest.mark.parametrize(
    "fd, gd, error", [([1, 2, 3, 4], [1, 2, 0], NonUnitLeading), ([1], [1, 2, 3], SizeContract)], ids=["lead", "short"]
)
def test_cumulative_remainder_refuses_before_its_scope(fd, gd, error):
    # the division's contract is checked before the call scope opens, so a
    # refused call leaves pointer_depth at 0
    arena, (f, g, r) = rw_arena((fd, INOUT), (gd, INOUT), ([5] * (len(gd) - 1), INOUT))
    before = list(arena.regs)
    with pytest.raises(error):
        cs_rwrw.cumulative_remainder(f, g, r)
    assert arena.regs == before
    assert arena.metrics.summary() == "extra_algebraic=0 pointer_depth=0 base_products=0"


def test_cumulative_remainder():
    n = 9
    m = 25
    fd = rand_poly(RNG, Q, m + n - 1)
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    er = divrem(RING97, fd, gd)[1]

    arena, (f, g, r) = rw_arena((fd, INOUT), (gd, INOUT), ([0] * (n - 1), INOUT))
    cs_rwrw.cumulative_remainder(f, g, r)
    assert r.tolist() == er
    cs_rwrw.cumulative_remainder(f, g, r)
    assert r.tolist() == [2 * c % Q for c in er]  # additivity
    assert f.tolist() == fd and g.tolist() == gd

    r0 = rand_poly(RNG, Q, n - 1)
    arena, (f, g, r) = rw_arena((fd, INOUT), (gd, INOUT), (r0, INOUT))
    cs_rwrw.cumulative_remainder(f, g, r)
    assert r.tolist() == [(r0[i] + er[i]) % Q for i in range(n - 1)]


def modmul_oracle(fd, gd, p, r0):
    full = schoolbook_mul(RING97, fd, gd)
    er = divrem(RING97, full if full else [0], p)[1]
    er = er + [0] * (len(p) - 1 - len(er))
    return [(r0[i] + er[i]) % Q for i in range(len(p) - 1)]


def test_modular_mul_examples():
    arena, (f, g, r, p) = rw_arena(([0, 1], INOUT), ([0, 1], INOUT), ([0, 0], INOUT), ([1, 0, 1], INOUT))
    cs_rwrw.modular_mul(f, g, r, p)
    assert r.tolist() == [96, 0]  # x*x = -1 mod x^2+1

    n = 7
    fd = rand_poly(RNG, Q, n)
    pd = rand_poly(RNG, Q, n) + [1]
    arena, (f, g, r, p) = rw_arena((fd, INOUT), ([1] + [0] * (n - 1), INOUT), ([0] * n, INOUT), (pd, INOUT))
    cs_rwrw.modular_mul(f, g, r, p)
    assert r.tolist() == fd

    for _ in range(60):
        n = RNG.randrange(1, 51)
        fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
        pd = rand_poly(RNG, Q, n) + [1]
        r0 = rand_poly(RNG, Q, n)
        arena, (f, g, r, p) = rw_arena((fd, INOUT), (gd, INOUT), (r0, INOUT), (pd, INOUT))
        cs_rwrw.modular_mul(f, g, r, p)
        assert r.tolist() == modmul_oracle(fd, gd, pd, r0), n
        assert f.tolist() == fd and g.tolist() == gd and p.tolist() == pd

    with pytest.raises(NonMonicModulus):
        cs_rwrw.modular_mul(f, g, r, p.rev())


def test_modular_mul_zero_leading_operands():
    # the reversible staging must survive operands whose top coefficients
    # vanish (the undo divides by the windows' leading entries)
    for trial in range(120):
        n = RNG.randrange(1, 30)
        zf = RNG.randrange(0, n + 1)
        zg = RNG.randrange(0, n + 1)
        fd = rand_poly(RNG, Q, n - zf) + [0] * zf
        gd = rand_poly(RNG, Q, n - zg) + [0] * zg
        pd = rand_poly(RNG, Q, n) + [1]
        r0 = rand_poly(RNG, Q, n)
        arena, (f, g, r, p) = rw_arena((fd, INOUT), (gd, INOUT), (r0, INOUT), (pd, INOUT))
        cs_rwrw.modular_mul(f, g, r, p)
        assert r.tolist() == modmul_oracle(fd, gd, pd, r0), (n, zf, zg, trial)
        assert f.tolist() == fd and g.tolist() == gd and p.tolist() == pd


def test_modular_mul_any():
    # small sizes delegate to the fixed-size product
    n = 16
    fd, gd = rand_poly(RNG, Q, 5), rand_poly(RNG, Q, 9)
    pd = rand_poly(RNG, Q, n) + [1]
    r0 = rand_poly(RNG, Q, n)
    arena, (f, g, r, p) = rw_arena((fd, INOUT), (gd, INOUT), (r0, INOUT), (pd, INOUT))
    cs_rwrw.modular_mul_any(f, g, r, p)
    assert r.tolist() == modmul_oracle(fd, gd, pd, r0)

    # f = p contributes nothing and is restored
    arena, (f, g, r, p) = rw_arena((pd, INOUT), (gd, INOUT), (r0, INOUT), (pd, INOUT))
    cs_rwrw.modular_mul_any(f, g, r, p)
    assert r.tolist() == r0
    assert f.tolist() == pd

    for _ in range(40):
        n = RNG.randrange(1, 20)
        l, m = RNG.randrange(1, 75), RNG.randrange(1, 50)
        fd, gd = rand_poly(RNG, Q, l), rand_poly(RNG, Q, m)
        pd = rand_poly(RNG, Q, n) + [1]
        r0 = rand_poly(RNG, Q, n)
        arena, (f, g, r, p) = rw_arena((fd, INOUT), (gd, INOUT), (r0, INOUT), (pd, INOUT))
        cs_rwrw.modular_mul_any(f, g, r, p)
        assert r.tolist() == modmul_oracle(fd, gd, pd, r0), (l, m, n)
        assert f.tolist() == fd and g.tolist() == gd and p.tolist() == pd

    ex = (70, 45, 16)
    fd, gd = rand_poly(RNG, Q, ex[0]), rand_poly(RNG, Q, ex[1])
    pd = rand_poly(RNG, Q, ex[2]) + [1]
    r0 = [0] * ex[2]
    arena, (f, g, r, p) = rw_arena((fd, INOUT), (gd, INOUT), (r0, INOUT), (pd, INOUT))
    cs_rwrw.modular_mul_any(f, g, r, p)
    assert r.tolist() == modmul_oracle(fd, gd, pd, r0)


def test_size_contracts():
    arena, (f, g, h) = rw_arena(([1, 2], INOUT), ([3], INOUT), ([0, 0, 0], INOUT))
    with pytest.raises(SizeContract):
        cs_rwrw.cumulative_karatsuba(f, g, h)


# Up to its cut the in-place lower product is one _kron (n <= BLOCK) and
# the in-place series division one dense_ref._div_recurrence (n <= BASE):
# one read of f and g, one checked slice write of f, n (n + 1) / 2 counted
# products, no nested call; one past the cut they split in halves.
# cumulative_lower of size n <= BLOCK, and cumulative_karatsuba with a
# ragged g of n <= BLOCK coefficients under an f of 7n + 5, are one
# _slice_naive pass; at n = BLOCK + 1 they split.
# The padded layout pads only ro/rw inputs, so the rw/rw entries run on the
# plain and the reversed layout.
INPLACE_CASES = [
    (entry, n, q, layout)
    for entry, sizes, primes in (
        ("inplace_lower", (1, 2, BLOCK, BLOCK + 1), (97, 469762049, 2**61 - 1, 2**127 - 1)),
        ("inplace_series_div", (1, 2, BASE, BASE + 1), (97, 469762049, 2**61 - 1, 2**127 - 1)),
        ("cumulative_lower", (BLOCK, BLOCK + 1), (97, 2**61 - 1)),
        ("cumulative_karatsuba", (BLOCK, BLOCK + 1), (97, 2**61 - 1)),
    )
    for n in sizes
    for q in primes
    for layout in ("plain", "reversed")
]


def _inplace_case(entry, n, q, layout):
    """Run one entry through helpers.check (exact output, g, and f where it
    is an input, restored); returns (extra_algebraic, pointer_depth,
    base_products)."""
    ring = Zq(q)
    spec = SPECS[entry]
    rng = random.Random(f"inplace-{entry}-{n}-{q}-{layout}")
    if entry == "cumulative_karatsuba":
        x = {"f": rand_poly(rng, q, 7 * n + 5), "g": rand_poly(rng, q, n), "h": rand_poly(rng, q, 8 * n + 4)}
    else:
        x = spec.gen(ring, rng, n)
    m = check(spec, ring, x, layout).metrics
    return m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products


# below the cut the kernel's own count, one frame deep; one past it one
# split, then two kernels and a cumulative slice (inplace_series_div at
# n = 33 taken when the kernels went in).  The rest taken when the product
# cut moved to BLOCK: at n = 128, n(n+1)/2 for the lower product and
# 7n^2 + 5n for the ragged one (seven n x n blocks and a 5 x n tail in one
# pass); at n = 129, one round of the lower product (a 65 x 65 Kronecker
# leaf, counted as its split, and a 65 x 64 pass) before a pass of size
# 64, and seven 129 x 129 Karatsuba blocks (one split into three leaves
# each) before a 5 x 129 pass
CUT = {"inplace_lower": BLOCK, "inplace_series_div": BASE}
INPLACE_PINNED = {
    **{c: (0, 1, c[1] * (c[1] + 1) // 2) for c in INPLACE_CASES if c[0].startswith("inplace") and c[1] <= CUT[c[0]]},
    ('inplace_lower', 129, 97, 'plain'): (0, 2, 8385),
    ('inplace_lower', 129, 97, 'reversed'): (0, 2, 8385),
    ('inplace_lower', 129, 469762049, 'plain'): (0, 2, 8385),
    ('inplace_lower', 129, 469762049, 'reversed'): (0, 2, 8385),
    ('inplace_lower', 129, 2**61 - 1, 'plain'): (0, 2, 8385),
    ('inplace_lower', 129, 2**61 - 1, 'reversed'): (0, 2, 8385),
    ('inplace_lower', 129, 2**127 - 1, 'plain'): (0, 2, 8385),
    ('inplace_lower', 129, 2**127 - 1, 'reversed'): (0, 2, 8385),
    ('inplace_series_div', 33, 97, 'plain'): (0, 2, 561),
    ('inplace_series_div', 33, 97, 'reversed'): (0, 2, 561),
    ('inplace_series_div', 33, 469762049, 'plain'): (0, 2, 561),
    ('inplace_series_div', 33, 469762049, 'reversed'): (0, 2, 561),
    ('inplace_series_div', 33, 2**61 - 1, 'plain'): (0, 2, 561),
    ('inplace_series_div', 33, 2**61 - 1, 'reversed'): (0, 2, 561),
    ('inplace_series_div', 33, 2**127 - 1, 'plain'): (0, 2, 561),
    ('inplace_series_div', 33, 2**127 - 1, 'reversed'): (0, 2, 561),
    ('cumulative_lower', 128, 97, 'plain'): (0, 1, 8256),
    ('cumulative_lower', 128, 97, 'reversed'): (0, 1, 8256),
    ('cumulative_lower', 128, 2**61 - 1, 'plain'): (0, 1, 8256),
    ('cumulative_lower', 128, 2**61 - 1, 'reversed'): (0, 1, 8256),
    ('cumulative_lower', 129, 97, 'plain'): (0, 1, 7097),
    ('cumulative_lower', 129, 97, 'reversed'): (0, 1, 7097),
    ('cumulative_lower', 129, 2**61 - 1, 'plain'): (0, 1, 7097),
    ('cumulative_lower', 129, 2**61 - 1, 'reversed'): (0, 1, 7097),
    ('cumulative_karatsuba', 128, 97, 'plain'): (0, 1, 115328),
    ('cumulative_karatsuba', 128, 97, 'reversed'): (0, 1, 115328),
    ('cumulative_karatsuba', 128, 2**61 - 1, 'plain'): (0, 1, 115328),
    ('cumulative_karatsuba', 128, 2**61 - 1, 'reversed'): (0, 1, 115328),
    ('cumulative_karatsuba', 129, 97, 'plain'): (0, 2, 17746),
    ('cumulative_karatsuba', 129, 97, 'reversed'): (0, 2, 17746),
    ('cumulative_karatsuba', 129, 2**61 - 1, 'plain'): (0, 2, 17746),
    ('cumulative_karatsuba', 129, 2**61 - 1, 'reversed'): (0, 2, 17746),
}


@pytest.mark.parametrize("case", INPLACE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_inplace_kernels_are_pinned(case):
    assert _inplace_case(*case) == INPLACE_PINNED[case]


def _leaf_pairs(n):
    """The pairs (i, j) of two n-coefficient operands with i + j < n."""
    return sum(1 for i in range(n) for j in range(n) if i + j < n)


@pytest.mark.parametrize("zero", (False, True), ids=("random", "zero"))
def test_inplace_leaves_count_their_pairs(zero):
    # one leaf each at every n = 1..BASE: f * g mod x^n (one Kronecker
    # product) and f / g mod x^n (the quotient recurrence) count the pairs
    # i + j < n of their operands, for random values and for all-zero ones
    # (g[0] = 1, the unit the division needs)
    rng = random.Random(f"leaf-counts-{zero}")
    for n in range(1, BASE + 1):
        fd = [0] * n if zero else rand_poly(rng, Q, n)
        gd = [1] + ([0] * (n - 1) if zero else rand_poly(rng, Q, n - 1))
        ginv = series_inv(RING97, gd, n)
        for op, want in ((cs_rwrw.inplace_lower, low_product(RING97, fd, gd, n)),
                         (cs_rwrw.inplace_series_div, low_product(RING97, fd, ginv, n))):
            arena, (f, g) = rw_arena((fd, INOUT), (gd, INOUT))
            op(f, g)
            assert f.tolist() == want and g.tolist() == gd, (op.__name__, n)
            m = arena.metrics
            assert (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products) == (0, 1, _leaf_pairs(n))


def test_no_karatsuba_node_at_or_below_base(monkeypatch):
    """cumulative_lower of size n and a ragged cumulative_karatsuba with an
    n-coefficient g under a 7n + 5 f make no _cum_kara call for n <= BLOCK,
    the product cut, and split into Karatsuba nodes above it."""
    calls = []
    orig = cs_rwrw._cum_kara

    def counted(f, g, h, sign):
        calls.append(len(f))
        return orig(f, g, h, sign)

    monkeypatch.setattr(cs_rwrw, "_cum_kara", counted)
    rng = random.Random("kara-calls")
    for n in (1, 2, 16, BASE, BLOCK, BLOCK + 1):
        for lf in (n, 7 * n + 5):
            arena, (f, g, h) = rw_arena(
                (rand_poly(rng, Q, lf), INOUT), (rand_poly(rng, Q, n), INOUT), (rand_poly(rng, Q, lf + n - 1), INOUT)
            )
            calls.clear()
            if lf == n:
                cs_rwrw.cumulative_lower(f, g, h.sub(0, n))
            else:
                cs_rwrw.cumulative_karatsuba(f, g, h)
            assert bool(calls) == (n > BLOCK), (n, lf, calls)
