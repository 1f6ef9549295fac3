import itertools
import random

import pytest

from polyarena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, Zq, build_arena, ops
from polyarena import cs_rwrw, dense_ref
from polyarena.dense_ref import (
    BASE,
    BLOCK,
    MulKit,
    _kron,
    _slice_naive,
    _slot_bytes,
    bit_reverse,
    divrem,
    horner_eval,
    interp_tree,
    karatsuba_mul,
    mp_eval_tree,
    ntt,
    poly_from_text,
    poly_to_text,
    schoolbook_mul,
    series_inv,
)
from polyarena.errors import (
    BadLength,
    BadOrder,
    BadParams,
    DuplicatePoint,
    NonUnitConstant,
    NonUnitLeading,
    OutOfRange,
)
from helpers import RING97, rand_poly, slice_product

RNG = random.Random(2024)


def test_schoolbook_examples():
    assert schoolbook_mul(RING97, [1], [1]) == [1]
    assert schoolbook_mul(RING97, [3, 5, 2], [4, 1]) == [12, 23, 13, 2]
    assert schoolbook_mul(RING97, [1, 1], [96, 1]) == [96, 0, 1]
    assert schoolbook_mul(RING97, [], [1, 2]) == []


def test_karatsuba_examples():
    assert karatsuba_mul(RING97, [1, 2], [3, 4]) == [3, 10, 8]
    f = rand_poly(RNG, 97, 20)
    assert karatsuba_mul(RING97, f, [1]) == f
    f = rand_poly(RNG, 97, 33)
    g = rand_poly(RNG, 97, 33)
    assert karatsuba_mul(RING97, f, g) == schoolbook_mul(RING97, f, g)


def test_karatsuba_exhaustive_small_prime():
    # every size 1..64 over Z/5 with sampled coefficient vectors
    ring5 = Zq(5)
    sample = [0, 1, 2, 3, 4]
    for n in range(1, 65):
        for _ in range(3):
            f = [RNG.choice(sample) for _ in range(n)]
            g = [RNG.choice(sample) for _ in range(n)]
            assert karatsuba_mul(ring5, f, g) == schoolbook_mul(ring5, f, g), n
    # all size-2 pairs over Z/5, exhaustively
    for f in itertools.product(sample, repeat=2):
        for g in itertools.product(sample, repeat=2):
            assert karatsuba_mul(ring5, list(f), list(g)) == schoolbook_mul(ring5, list(f), list(g))


def test_karatsuba_random_cases():
    for _ in range(200):
        a = RNG.randrange(1, 65)
        b = RNG.randrange(1, 65)
        f = rand_poly(RNG, 97, a)
        g = rand_poly(RNG, 97, b)
        assert karatsuba_mul(RING97, f, g) == schoolbook_mul(RING97, f, g)


KRON_PRIMES = (2, 97, 8191, 469762049, 2**61 - 1, 2**127 - 1)


def _kron_case(q, fa, gb, s, r):
    full = schoolbook_mul(Zq(q), fa, gb)
    want = [full[s + d] if 0 <= s + d < len(full) else 0 for d in range(r)]
    got = _kron(fa, gb, q, s, r)
    assert [v % q for v in got] == want, (q, len(fa), len(gb), s, r)
    return got


def test_kron_matches_schoolbook():
    # unequal lengths, slices from below 0 to past the product, and exact
    # ints: on small cases every returned value is the exact convolution
    rng = random.Random("kron")
    for q in KRON_PRIMES:
        for _ in range(40):
            la, lb = rng.randrange(1, 40), rng.randrange(1, 40)
            fa, gb = rand_poly(rng, q, la), rand_poly(rng, q, lb)
            n = la + lb - 1
            s = rng.randrange(-5, n + 3)
            r = rng.randrange(0, n + 8)
            got = _kron_case(q, fa, gb, s, r)
            exact = [sum(fa[i] * gb[s + d - i] for i in range(la) if 0 <= s + d - i < lb) for d in range(r)]
            assert got == exact


@pytest.mark.parametrize("q", (97, 469762049, 2**61 - 1))
def test_kron_around_the_split_sizes(q):
    # the shorter operand at, below and above the 8-byte bound over
    # 469762049 (83) and BLOCK: one 8-byte product, two halves on 8-byte
    # slots, or wide slots; full products, lower and upper slices, and the
    # largest coefficients q - 1 against the exact count
    rng = random.Random(f"kron-split-{q}")
    for m in (63, 64, 83, 84, 127, 128):
        for la, lb in ((m, m), (m, 2 * m + 1), (3 * m, m)):
            fa, gb = rand_poly(rng, q, la), rand_poly(rng, q, lb)
            n = la + lb - 1
            assert [v % q for v in _kron(fa, gb, q, 0, n)] == schoolbook_mul(Zq(q), fa, gb)
            for s, r in ((0, m), (m - 1, m), (n - m, m + 4), (-3, n // 2)):
                _kron_case(q, fa, gb, s, r)
        top = _kron([q - 1] * m, [q - 1] * m, q, 0, 2 * m - 1)
        assert top == [(q - 1) ** 2 * min(k + 1, 2 * m - 1 - k) for k in range(2 * m - 1)], (q, m)


def _slot_switches(q, cap=1100):
    """Lengths m <= cap of the shorter operand at which _kron's slot widens."""
    return [m for m in range(2, cap + 1) if _slot_bytes(q, m) != _slot_bytes(q, m - 1)]


def test_kron_at_each_slot_width_switch():
    # operands on both sides of every switch of the kernel's own width
    # rule: random ones against the schoolbook product, and all q - 1 (the
    # largest coefficient each slot must hold) against the exact count
    assert _slot_bytes(469762049, 83) == 8 < _slot_bytes(469762049, 84)
    assert _slot_switches(97) == [] and _slot_bytes(97, 1100) == 4
    rng = random.Random("kron-switch")
    seen = set()
    for q in KRON_PRIMES:
        for m0 in _slot_switches(q):
            for m in (m0 - 1, m0):
                seen.add(_slot_bytes(q, m))
                for la, lb in ((m, m + 3), (m + 2, m)):
                    fa, gb = rand_poly(rng, q, la), rand_poly(rng, q, lb)
                    _kron_case(q, fa, gb, -2, la + lb + 1)
                    n = la + lb - 1
                    top = _kron([q - 1] * la, [q - 1] * lb, q, 0, n)
                    assert top == [(q - 1) ** 2 * min(k + 1, la, lb, n - k) for k in range(n)], (q, la, lb)
    assert {4, 8, 9, 16, 17, 32, 33, 34} <= seen


def _zone_pairs(frz, grz, s, r):
    """base_products of the zone rule: the pairs (i, j) of f's and g's
    real zones with s <= i + j < s + r, whatever the values."""
    return sum(1 for i in range(*frz) for j in range(*grz) if s <= i + j < s + r)


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("layout", ("plain", "reversed", "padded"))
def test_slice_naive_counts_the_zone_rule(q, layout):
    # zero-laden operands, runs of zeros included, with slices that start
    # below 0, end past the product, and destinations of one output,
    # shorter and longer than BLOCK; every third g is longer than BLOCK, so
    # a short destination takes it in several blocks; the zero rows count
    # like any other
    ring = Zq(q)
    rng = random.Random(f"rows-{q}-{layout}")
    rev = layout == "reversed"
    c = 2 if layout == "padded" else 0
    for i in range(60):
        # stored f and g; padded, each view adds c zero slots on either side
        f = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(rng.randrange(1, 90))]
        lg = rng.randrange(BLOCK + 1, 3 * BLOCK) if i % 3 == 0 else rng.randrange(1, 90)
        g = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(lg)]
        cut = rng.randrange(len(g))
        k = min(rng.randrange(40), len(g) - cut)
        g[cut : cut + k] = [0] * k
        n = len(f) + len(g) + 4 * c - 1
        s = rng.randrange(-40, n + 5)
        r = rng.choice((1, rng.randrange(1, BLOCK + 1), rng.randrange(BLOCK + 1, n + BLOCK + 60)))
        d0 = rand_poly(rng, q, r)
        arena, (fv, gv, dv) = build_arena(
            ring, RO_RW, (f[::-1] if rev else f, INPUT_ONLY), (g[::-1] if rev else g, INPUT_ONLY), (d0, INOUT)
        )
        if rev:
            fv, gv = fv.rev(), gv.rev()
        fv, gv = fv.window(-c, len(f) + c), gv.window(-c, len(g) + c)
        f, g = [0] * c + f + [0] * c, [0] * c + g + [0] * c
        _slice_naive(dv, fv, gv, s, -1)
        assert dv.tolist() == [(d - p) % q for d, p in zip(d0, slice_product(ring, f, g, s, r))]
        pairs = _zone_pairs((fv.rlo, fv.rhi), (gv.rlo, gv.rhi), s, r)
        assert arena.metrics.base_products == pairs, (len(f), len(g), s, r)


def _div_oracle(q, f, g, h, lo, hi):
    """h with h[lo:hi] replaced by the quotient recurrence, on lists."""
    h = list(h)
    g0inv = pow(g[0], q - 2, q)
    for j in range(lo, hi):
        acc = f[j] - sum(g[i] * h[j - i] for i in range(1, min(j, len(g) - 1) + 1))
        h[j] = acc * g0inv % q
    return h


def _div_count(lg, lo, hi):
    """base_products of _div_recurrence: per coefficient j, its dot
    product of min(j, len(g) - 1) terms and its division by g[0]."""
    return sum(min(j, lg - 1) + 1 for j in range(lo, hi))


@pytest.mark.parametrize("q", (2, 97, 469762049, 2**127 - 1))
def test_div_recurrence_counts_its_products(q):
    # lo > 0 (h below lo is read, not written), len(g) below and above hi,
    # h aliasing f, h stored back to front, and a numerator whose view
    # pads zeros on both sides
    ring = Zq(q)
    rng = random.Random(f"div-recurrence-{q}")
    for n, lg, lo in ((1, 1, 0), (5, 2, 0), (12, 4, 3), (12, 20, 7), (40, 40, 0), (40, 9, 33), (70, 3, 69)):
        g = [rng.randrange(1, q)] + rand_poly(rng, q, lg - 1)
        for layout in ("plain", "alias", "reversed", "padded"):
            f = rand_poly(rng, q, n)
            h0 = rand_poly(rng, q, n)
            arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (h0[::-1], INOUT))
            hv = hv.rev()
            if layout == "alias":
                h0 = f
                arena, (hv, gv) = build_arena(ring, RO_RW, (f, INOUT), (g, INPUT_ONLY))
                fv = hv
            elif layout == "padded":
                f = [0, 0] + f[2:-2] + [0, 0] if n > 4 else [0] * n
                fv = fv.sub(min(2, n), max(min(2, n), n - 2)).window(-min(2, n), n - min(2, n))
            dense_ref._div_recurrence(fv, gv, hv, lo, n)
            assert hv.tolist() == _div_oracle(q, f, g, h0, lo, n), (n, lg, lo, layout)
            assert arena.metrics.base_products == _div_count(lg, lo, n), (n, lg, lo, layout)


class ReadLog(list):
    """Register list that keeps the length of the longest slice read from it."""

    longest = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            self.longest = max(self.longest, len(out))
        return out


@pytest.mark.parametrize("lg, lo", ((4, 0), (4000, 0), (4000, 3997), (300, 1000)))
def test_div_recurrence_reads_bounded_slices(lg, lo):
    # the constant-space reductions run it on a short divisor and a long
    # quotient (divrem_cs), or a long divisor and a short tail
    # (series_inv_cs, series_div_cs): no register slice it reads holds
    # BASE + BLOCK values (an output block of at most BASE meets the
    # quotient below it BLOCK coefficients at a time, each against fewer
    # than BASE + BLOCK of g), on its own numerator or on an aliased one
    q = 469762049
    ring = Zq(q)
    n = 4000
    rng = random.Random(f"div-reads-{lg}-{lo}")
    g = [rng.randrange(1, q)] + rand_poly(rng, q, lg - 1)
    f, h0 = rand_poly(rng, q, n), rand_poly(rng, q, n)
    for alias in (False, True):
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (h0, INOUT))
        if alias:
            hv = fv = build_arena(ring, RO_RW, (h0[:lo] + f[lo:], INOUT))[1][0]
            arena = fv.arena
        arena.regs = ReadLog(arena.regs)
        dense_ref._div_recurrence(fv, gv, hv, lo, n)
        assert arena.regs.longest < BASE + BLOCK, (lg, lo, alias)
        h = hv.tolist()
        assert h[:lo] == h0[:lo]
        assert [c % q for c in _kron(g, h, q, lo, n - lo)] == f[lo:], (lg, lo, alias)
        assert arena.metrics.base_products == _div_count(lg, lo, n)


def test_counts_do_not_read_values():
    # the same zones count the same whether every value is zero or random:
    # _slice_naive on padded windows (one output and many), and
    # _div_recurrence, whose one needed value is the unit g[0]
    q = 97
    ring = Zq(q)
    rng = random.Random("values")
    for _ in range(40):
        lf, lg = rng.randrange(1, 70), rng.randrange(1, 70)
        s, r = rng.randrange(-5, lf + lg), rng.choice((1, rng.randrange(1, 80)))
        lo = rng.randrange(lf)
        counts = set()
        for zero in (False, True):
            f = [0] * lf if zero else rand_poly(rng, q, lf)
            g = [1] + ([0] * (lg - 1) if zero else rand_poly(rng, q, lg - 1))
            arena, (fv, gv, dv, hv) = build_arena(
                ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * r, INOUT), (rand_poly(rng, q, lf), INOUT)
            )
            _slice_naive(dv, fv.window(-2, lf + 3), gv.window(-1, lg + 2), s)
            slice_count = arena.metrics.base_products
            dense_ref._div_recurrence(fv, gv, hv, lo, lf)
            counts.add((slice_count, arena.metrics.base_products - slice_count))
        assert len(counts) == 1, (lf, lg, s, r, counts)


def _spy(monkeypatch, module):
    seen = []

    def spy(fa, gb, q, s, r):
        seen.append((len(fa), len(gb)))
        return _kron(fa, gb, q, s, r)

    monkeypatch.setattr(module, "_kron", spy)
    return seen


@pytest.mark.parametrize("t", (1, 20, BLOCK))
def test_kron_operands_within_the_slice_bound(monkeypatch, t):
    # slice_acc with len(dst) <= BLOCK is one _slice_naive pass over all of
    # f and g: its blocks stay below 2 max(len(dst), BLOCK) per operand, and
    # one output is a dot product per block, which never reaches _kron
    q = 469762049
    rng = random.Random(f"bound-{t}")
    f, g = rand_poly(rng, q, 1200), rand_poly(rng, q, 1100)
    d0 = rand_poly(rng, q, t)
    arena, (fv, gv, dv, wv) = build_arena(
        Zq(q), RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (d0, INOUT), ([0] * 3 * t, SCRATCH)
    )
    seen = _spy(monkeypatch, dense_ref)
    s = 1000
    MulKit().slice_acc(dv, fv, gv, s, wv)
    assert dv.tolist() == [(d + p) % q for d, p in zip(d0, slice_product(Zq(q), f, g, s, t))]
    if t == 1:
        assert not seen
        assert dv.tolist() == [(d0[0] + sum(f[s - j] * g[j] for j in range(s + 1))) % q]
    else:
        assert seen and max(max(pair) for pair in seen) < 2 * max(t, BLOCK)


def test_kron_operands_within_the_leaf_bound(monkeypatch):
    # a 4096 cumulative Karatsuba reaches the kernel only through
    # _cum_kara's 3^5 leaves, at most BLOCK coefficients each, and still
    # counts the 3^12 products of the split
    rng = random.Random("bound-kara")
    n = 4096
    f, g = rand_poly(rng, 97, n), rand_poly(rng, 97, n)
    seen = _spy(monkeypatch, cs_rwrw)
    arena, _ = ops.run(ops.SPECS["cumulative_karatsuba"], RING97, {"f": f, "g": g})
    assert len(seen) == 3**5
    assert max(max(pair) for pair in seen) <= BLOCK
    assert arena.metrics.base_products == 3**12


def test_bit_reverse():
    assert bit_reverse(0, 5) == 0
    assert bit_reverse(1, 2) == 2
    assert bit_reverse(3, 3) == 6
    with pytest.raises(OutOfRange):
        bit_reverse(4, 2)


def test_partial_products():
    # the product-slice references of the table: low, middle and upper
    # slices of f * g, zeros where the slice runs past the product
    assert ops._low(RING97, [3, 5, 2], [4, 1, 0], 3) == [12, 23, 13]
    assert ops._slice(RING97, [3, 5, 2], [4, 1], 1, 2) == [23, 13]
    assert ops._slice(RING97, [1, 1], [96, 1], 2, 1) == [1]
    assert ops._slice(RING97, [3, 5, 2], [4, 1], 3, 3) == [2, 0, 0]
    assert ops._slice(RING97, [3, 5, 2], [4, 1], -1, 2) == [0, 12]
    assert ops._low(RING97, [3], [4], 3) == [12, 0, 0]


def test_partial_product_recomposition():
    # full = low + x^m * upp, and mid is the matching central slice; the
    # large sizes take ops._product's Karatsuba branch, checked against
    # the schoolbook product
    sizes = [(RNG.randrange(1, 40), None) for _ in range(100)] + [(RNG.randrange(129, 200), 65) for _ in range(4)]
    for m, n_lo in sizes:
        n = RNG.randrange(n_lo or 1, m + 1)
        f = rand_poly(RNG, 97, m)
        g = rand_poly(RNG, 97, n)
        full = schoolbook_mul(RING97, f, g)
        full = full + [0] * (m + n - 1 - len(full))
        low = ops._low(RING97, f, g, m)
        upp = ops._slice(RING97, f, g, m, n - 1)
        recomposed = [(low[i] if i < m else 0) + (upp[i - m] if i >= m else 0) for i in range(m + n - 1)]
        assert [c % 97 for c in recomposed] == full
        mid = ops._slice(RING97, f, g, n - 1, m - n + 1)
        assert mid == full[n - 1 : m]


def test_series_inv():
    assert series_inv(RING97, [1, 0, 0, 0]) == [1, 0, 0, 0]
    assert series_inv(RING97, [1, 1, 0, 0]) == [1, 96, 1, 96]
    f = [RNG.randrange(1, 97)] + rand_poly(RNG, 97, 49)
    g = series_inv(RING97, f, 50)
    low = schoolbook_mul(RING97, f, g)[:50]
    assert low == [1] + [0] * 49
    with pytest.raises(NonUnitConstant):
        series_inv(RING97, [0, 1])


def test_divrem():
    assert divrem(RING97, [1, 2, 0, 1], [1, 1]) == ([3, 96, 1], [95])
    g = rand_poly(RNG, 97, 7) + [1]
    q, r = divrem(RING97, g, g)
    assert q == [1] and r == [0] * 7
    for _ in range(50):
        f = rand_poly(RNG, 97, 63)
        g = rand_poly(RNG, 97, 16) + [RNG.randrange(1, 97)]
        q, r = divrem(RING97, f, g)
        recomposed = schoolbook_mul(RING97, g, q)
        recomposed += [0] * (len(f) - len(recomposed))
        for i, c in enumerate(r):
            recomposed[i] = (recomposed[i] + c) % 97
        assert recomposed == f
        assert len(r) == len(g) - 1
    with pytest.raises(NonUnitLeading):
        divrem(RING97, [1, 2, 3], [1, 0])


def test_ntt_examples_and_inverse():
    root = RING97.find_principal_root(4)
    arena, (v,) = build_arena(RING97, RW_RW, ([5, 0, 0, 0], INOUT))
    ntt(v, root, "fwd")
    assert v.tolist() == [5, 5, 5, 5]

    arena, (v,) = build_arena(RING97, RW_RW, ([1, 2, 3, 4], INOUT))
    ntt(v, root, "fwd")
    assert v.tolist() == [10, 95, 51, 42]
    # natural-order DFT via an explicit bit-reversal permutation
    natural = [v.get(bit_reverse(i, 2)) for i in range(4)]
    assert natural == [10, 51, 95, 42]
    ntt(v, root, "inv")
    assert v.tolist() == [1, 2, 3, 4]

    with pytest.raises(BadOrder):
        arena2, (w,) = build_arena(RING97, RW_RW, ([1, 2], INOUT))
        ntt(w, root, "fwd")
    with pytest.raises(BadLength):
        arena3, (w,) = build_arena(RING97, RW_RW, ([1, 2, 3], INOUT))
        ntt(w, RING97.find_principal_root(4), "fwd")
    # an unknown direction is a bad parameter, refused before any write
    arena4, (w,) = build_arena(RING97, RW_RW, ([1, 2, 3, 4], INOUT))
    with pytest.raises(BadParams):
        ntt(w, root, "backward")
    assert arena4.regs == [1, 2, 3, 4]
    assert arena4.metrics.summary() == "extra_algebraic=0 pointer_depth=0 base_products=0"


def test_ntt_pointwise_is_schoolbook():
    root = RING97.find_principal_root(8)
    for _ in range(40):
        f = rand_poly(RNG, 97, 4)
        g = rand_poly(RNG, 97, 4)
        arena, (fv, gv) = build_arena(RING97, RW_RW, (f + [0] * 4, INOUT), (g + [0] * 4, INOUT))
        ntt(fv, root, "fwd")
        ntt(gv, root, "fwd")
        for i in range(8):
            fv.set(i, fv.get(i) * gv.get(i))
        ntt(fv, root, "inv")
        full = schoolbook_mul(RING97, f, g) + [0]
        assert fv.tolist() == full


def test_mp_eval_and_interp():
    assert mp_eval_tree(RING97, [1, 1], [0, 1, 2]) == [1, 2, 3]
    assert mp_eval_tree(RING97, [7], [3, 5, 9]) == [7, 7, 7]
    assert interp_tree(RING97, [0, 1], [1, 2]) == [1, 1]
    assert interp_tree(RING97, [5], [7]) == [7]
    pts = RNG.sample(range(97), 32)
    f = rand_poly(RNG, 97, 32)
    vals = mp_eval_tree(RING97, f, pts)
    assert vals == [horner_eval(RING97, f, a) for a in pts]
    assert interp_tree(RING97, pts, vals) == f
    with pytest.raises(DuplicatePoint):
        interp_tree(RING97, [1, 1], [2, 3])


def test_mulkit_scratch_budget_is_enforced():
    # the kit receives exactly c*n scratch; staying within it is structural
    kit = MulKit()
    for n in (33, 64, 100, 200, 257):
        f = rand_poly(RNG, 97, n)
        g = rand_poly(RNG, 97, n)
        arena, (fv, gv, dv, wv) = build_arena(
            RING97, RW_RW, (f, INOUT), (g, INOUT), ([0] * (2 * n - 1), INOUT), ([0] * (kit.c * n), INOUT)
        )
        kit.full_into(dv, fv, gv, wv)
        assert dv.tolist() == schoolbook_mul(RING97, f, g)


# (entry, r, len(f), len(g), s): dst += -[f * g]_s^{s+r} on windows whose
# two lowest and two highest slots are padding; r = 5 runs the naive kernel,
# 133 = BLOCK + 5 and 262 = 2 BLOCK + 6 the odd and even Karatsuba splits
KIT_CASES = [
    (entry, r, flen, glen, s)
    for r in (5, BLOCK + 5, 2 * BLOCK + 6)
    for entry, flen, glen, s in (
        ("low_acc", r + 3, r + 1, 0),
        ("mid_acc", 2 * r - 1, r, r - 1),
        ("slice_acc", 2 * r + 5, r + 9, r + 2),
        ("mid_unbalanced_acc", 3 * r + 2, 2 * r + 3, 2 * r + 2),
    )
]

# (fingerprint of every register, extra_algebraic, base_products), taken
# before the kit's naive loops were folded into one kernel; base_products
# re-taken under the zone rule (zero rows and padded windows count).  The
# split sizes taken when the product cut moved to BLOCK: their scratch
# registers keep what the larger leaves left, so the fingerprint differs
# from the BASE cut's, with dst and the inputs the same
KIT_PINNED = {
    ("low_acc", 5): (11839272391, 0, 1),
    ("mid_acc", 5): (13809681824, 0, 5),
    ("slice_acc", 5): (59773909812, 0, 30),
    ("mid_unbalanced_acc", 5): (73608337149, 0, 45),
    ("low_acc", 133): (31447954156790, 133, 8385),
    ("mid_acc", 133): (44290913888490, 131, 12999),
    ("slice_acc", 133): (49211483191895, 131, 15879),
    ("mid_unbalanced_acc", 133): (90468273511803, 131, 28810),
    ("low_acc", 262): (156652717016887, 393, 29447),
    ("mid_acc", 262): (229996020734340, 390, 38479),
    ("slice_acc", 262): (226516430727350, 390, 54089),
    ("mid_unbalanced_acc", 262): (409099107317340, 390, 92501),
}


def _kit_case(entry, r, flen, glen, s):
    q = 469762049
    rng = random.Random(f"kit-{entry}-{r}")
    f = [0 if i % 7 == 3 else rng.randrange(q) for i in range(flen)]
    g = [0 if i % 5 == 1 else rng.randrange(q) for i in range(glen)]
    d0 = rand_poly(rng, q, r)
    arena, (fv, gv, dv, wv) = build_arena(
        Zq(q), RO_RW, (f[2:-2], INPUT_ONLY), (g[2:-2], INPUT_ONLY), (d0, INOUT), ([0] * (6 * flen), SCRATCH)
    )
    fw, gw = fv.window(-2, flen - 2), gv.window(-2, glen - 2)
    kit = MulKit()
    if entry == "slice_acc":
        kit.slice_acc(dv, fw, gw, s, wv, -1)
    else:
        getattr(kit, entry)(dv, fw, gw, wv, -1)
    f[:2] = f[-2:] = g[:2] = g[-2:] = [0, 0]
    want = [(d - p) % q for d, p in zip(d0, slice_product(Zq(q), f, g, s, r))]
    fingerprint = sum(i * v for i, v in enumerate(arena.regs, 1)) % (2**61 - 1)
    m = arena.metrics
    return dv.tolist() == want, (fingerprint, m.extra_algebraic_highwater, m.base_products)


@pytest.mark.parametrize("case", KIT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_mulkit_entry_points_are_pinned(case):
    exact, pinned = _kit_case(*case)
    assert exact
    assert pinned == KIT_PINNED[case[:2]]


def test_mulkit_flags():
    kit = MulKit()
    assert kit.c == 2


def test_poly_text_roundtrip():
    assert poly_to_text(97, [3, 10, 8]) == "97;3,10,8"
    assert poly_from_text("97;3,10,8") == (97, [3, 10, 8])
    assert poly_from_text("97;") == (97, [])
    q, c = poly_from_text(poly_to_text(97, []))
    assert q == 97 and c == []


# slice_acc with r = len(dst) <= BLOCK is one naive pass, above BLOCK one
# mid_acc per block of g; f and g are three blocks of g long, with zero
# coefficients, stored plain, back to front behind reversed views, or
# without their two outer slots on each side behind padded windows
SLICE_CUT_CASES = [
    (r, q, layout)
    for r in (BLOCK, BLOCK + 1)
    for q in (97, 469762049, 2**61 - 1, 2**127 - 1)
    for layout in ("plain", "reversed", "padded")
]


def _slice_cut_case(r, q, layout):
    """(exact, mid_acc calls, (extra_algebraic, pointer_depth,
    base_products)) of dst -= [f * g]_s^{s+r}."""
    ring = Zq(q)
    rng = random.Random(f"slice-cut-{r}-{q}-{layout}")
    flen, glen, s = 4 * r + 3, 3 * r - 2, 2 * r + 1
    f = [0 if i % 7 == 3 else rng.randrange(q) for i in range(flen)]
    g = [0 if i % 5 == 1 else rng.randrange(q) for i in range(glen)]
    d0 = rand_poly(rng, q, r)
    cut = 2 if layout == "padded" else 0
    fs, gs = f[cut : flen - cut], g[cut : glen - cut]
    if layout == "reversed":
        fs, gs = fs[::-1], gs[::-1]
    arena, (fv, gv, dv, wv) = build_arena(
        ring, RO_RW, (fs, INPUT_ONLY), (gs, INPUT_ONLY), (d0, INOUT), ([0] * (6 * r), SCRATCH)
    )
    if layout == "reversed":
        fv, gv = fv.rev(), gv.rev()
    fv, gv = fv.window(-cut, flen - cut), gv.window(-cut, glen - cut)
    f[:cut] = f[flen - cut :] = g[:cut] = g[glen - cut :] = [0] * cut
    kit = MulKit()
    calls = []
    mid_acc = kit.mid_acc
    kit.mid_acc = lambda *a: calls.append(1) or mid_acc(*a)
    kit.slice_acc(dv, fv, gv, s, wv, -1)
    want = [(d - p) % q for d, p in zip(d0, slice_product(ring, f, g, s, r))]
    m = arena.metrics
    return dv.tolist() == want, len(calls), (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products)


# taken when the cut moved to BLOCK (extra_algebraic 190 -> 0 at both
# sizes; base_products by the zone rule, the pairs of the naive passes)
SLICE_CUT_PINNED = {
    (128, 97, 'plain'): (0, 0, 41146),
    (128, 97, 'reversed'): (0, 0, 41146),
    (128, 97, 'padded'): (0, 0, 40634),
    (128, 469762049, 'plain'): (0, 0, 41146),
    (128, 469762049, 'reversed'): (0, 0, 41146),
    (128, 469762049, 'padded'): (0, 0, 40634),
    (128, 2**61 - 1, 'plain'): (0, 0, 41146),
    (128, 2**61 - 1, 'reversed'): (0, 0, 41146),
    (128, 2**61 - 1, 'padded'): (0, 0, 40634),
    (128, 2**127 - 1, 'plain'): (0, 0, 41146),
    (128, 2**127 - 1, 'reversed'): (0, 0, 41146),
    (128, 2**127 - 1, 'padded'): (0, 0, 40634),
    (129, 97, 'plain'): (0, 0, 41790),
    (129, 97, 'reversed'): (0, 0, 41790),
    (129, 97, 'padded'): (0, 0, 41274),
    (129, 469762049, 'plain'): (0, 0, 41790),
    (129, 469762049, 'reversed'): (0, 0, 41790),
    (129, 469762049, 'padded'): (0, 0, 41274),
    (129, 2**61 - 1, 'plain'): (0, 0, 41790),
    (129, 2**61 - 1, 'reversed'): (0, 0, 41790),
    (129, 2**61 - 1, 'padded'): (0, 0, 41274),
    (129, 2**127 - 1, 'plain'): (0, 0, 41790),
    (129, 2**127 - 1, 'reversed'): (0, 0, 41790),
    (129, 2**127 - 1, 'padded'): (0, 0, 41274),
}


@pytest.mark.parametrize("case", SLICE_CUT_CASES, ids=lambda c: "-".join(map(str, c)))
def test_slice_acc_cut_is_pinned(case):
    exact, mid_calls, pinned = _slice_cut_case(*case)
    assert exact
    assert (mid_calls > 0) == (case[0] > BLOCK)
    assert pinned == SLICE_CUT_PINNED[case]


# the kit's entry points at BLOCK - 1, BLOCK, BLOCK + 1 and 2 BLOCK + 1
# outputs, over the smallest primes, the two benchmark primes and one
# whose _kron slots are wider than 8 bytes, on plain, reversed and padded
# views (the two outer slots on each side of f and g are padding)
KIT_SWEEP_CASES = [
    (entry, r, q, layout)
    for entry in ("full_into", "low_acc", "mid_acc", "slice_acc")
    for r in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
    for q in (2, 3, 97, 469762049, 2**61 - 1, 2**127 - 1)
    for layout in ("plain", "reversed", "padded")
]


@pytest.mark.parametrize("case", KIT_SWEEP_CASES, ids=lambda c: "-".join(map(str, c)))
def test_kit_across_the_product_cut(case):
    entry, r, q, layout = case
    ring = Zq(q)
    rng = random.Random(f"kit-sweep-{entry}-{r}-{q}-{layout}")
    # (len(f), len(g), s, len(dst)) of dst += -[f * g]_s^{s+len(dst)}
    flen, glen, s, t = {
        "full_into": (r, r, 0, 2 * r - 1),
        "low_acc": (r + 3, r + 1, 0, r),
        "mid_acc": (2 * r - 1, r, r - 1, r),
        "slice_acc": (2 * r + 5, r + 9, r + 2, r),
    }[entry]
    f, g = rand_poly(rng, q, flen), rand_poly(rng, q, glen)
    d0 = rand_poly(rng, q, t)
    cut = 2 if layout == "padded" else 0
    fs, gs = f[cut : flen - cut], g[cut : glen - cut]
    if layout == "reversed":
        fs, gs = fs[::-1], gs[::-1]
    arena, (fv, gv, dv, wv) = build_arena(
        ring, RO_RW, (fs, INPUT_ONLY), (gs, INPUT_ONLY), (d0, INOUT), ([0] * (6 * flen), SCRATCH)
    )
    if layout == "reversed":
        fv, gv = fv.rev(), gv.rev()
    fv, gv = fv.window(-cut, flen - cut), gv.window(-cut, glen - cut)
    f[:cut] = f[flen - cut :] = g[:cut] = g[glen - cut :] = [0] * cut
    kit = MulKit()
    if entry == "full_into":
        kit.full_into(dv, fv, gv, wv)
        assert dv.tolist() == schoolbook_mul(ring, f, g)
    else:
        if entry == "slice_acc":
            kit.slice_acc(dv, fv, gv, s, wv, -1)
        else:
            getattr(kit, entry)(dv, fv, gv, wv, -1)
        assert dv.tolist() == [(d - p) % q for d, p in zip(d0, slice_product(ring, f, g, s, t))]
    assert [fv.get(i) for i in range(flen)] == f and [gv.get(i) for i in range(glen)] == g
