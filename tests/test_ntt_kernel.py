"""The blocked butterfly kernel: the NTT and the cumulative FFT product.

Sizes straddle the kernel's block width (BLOCK/2, BLOCK, 2*BLOCK) and reach
the benchmark's 2^15 points, primes run from 97 to one above 2^64, and
views are plain, reversed and offset.
The pinned metrics were taken from the per-butterfly implementation the
kernel replaced.
"""

import random

import pytest

from helpers import RING_FFT, WriteLog, distinct_nonzero, rand_poly
from polyarena import Zq
from polyarena import cs_rwrw
from polyarena.cs_rwrw import cumulative_fft_mul, partial_ft
from polyarena.dense_ref import BLOCK, _butterflies, bit_reverse, horner_eval, ntt, schoolbook_mul
from polyarena.errors import PaddingWrite, PermissionDenied
from polyarena.reg_arena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, build_arena

PRIMES = (97, 469762049, 998244353, 2**64 - 2**32 + 1, 12 * 2**64 + 1)
VIEW_KINDS = ("plain", "reversed", "offset")
PAD = 3


def _view_of(ring, values, kind, perm=INOUT, model=RW_RW):
    """A view whose logical content is values, laid out as kind."""
    n = len(values)
    stored = values[::-1] if kind == "reversed" else list(values)
    pad = [7] * PAD if kind == "offset" else []
    arena, (v,) = build_arena(ring, model, (pad + stored + pad, perm))
    view = v.sub(len(pad), len(pad) + n)
    return arena, (view.rev() if kind == "reversed" else view)


def _sizes(q):
    top = 32 if q == 97 else 1 << 12
    return [1 << k for k in range(13) if (1 << k) <= top]


def test_block_sizes_are_covered():
    sizes = _sizes(469762049)
    assert {BLOCK // 2, BLOCK, 2 * BLOCK} <= set(sizes)


@pytest.mark.parametrize("q", PRIMES)
def test_ntt_is_evaluation_at_bit_reversed_powers(q):
    ring = Zq(q)
    rng = random.Random(f"ntt-{q}")
    for n in _sizes(q):
        k = n.bit_length() - 1
        root = ring.find_principal_root(n)
        f = rand_poly(rng, q, n)
        # every slot for small n; the ends and a random sample beyond that
        slots = range(n) if n <= 2 * BLOCK else sorted({0, n - 1, *rng.sample(range(n), 24)})
        expected = {j: horner_eval(ring, f, pow(root.omega, bit_reverse(j, k), q)) for j in slots}
        outputs = []
        for kind in VIEW_KINDS:
            arena, view = _view_of(ring, f, kind)
            before = list(arena.regs)
            ntt(view, root, "fwd")
            out = view.tolist()
            # every slot ends reduced, whatever the passes left unreduced
            assert all(0 <= x < q for x in out), (q, n, kind)
            assert {j: out[j] for j in slots} == expected, (q, n, kind)
            outputs.append(out)
            ntt(view, root, "inv")
            assert arena.regs == before, (q, n, kind)
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("q", (469762049, 12 * 2**64 + 1))
def test_two_stage_pass_is_its_two_stages(q):
    """A radix-4 pass equals its two radix-2 stages mod q, in every layout
    (contiguous and strided runs, with and without twiddles), forward,
    inverse and scaled inverse, on plain and reversed register order."""
    ring = Zq(q)
    rng = random.Random(f"radix4-{q}")
    n = 4 * BLOCK
    scale = rng.randrange(2, q)
    half = 2
    while half < n:
        w = ring.find_principal_root(2 * half).omega
        for inverse, sc in ((False, None), (True, None), (True, scale)):
            for off, d in ((0, 1), (n - 1, -1)):
                regs = rand_poly(rng, q, n)
                want = list(regs)
                _butterflies(regs, off, d, n, half, w, q, inverse, scale=sc, lazy=True, stages=2)
                if inverse:
                    _butterflies(want, off, d, n, half >> 1, w * w % q, q, True)
                    _butterflies(want, off, d, n, half, w, q, True, scale=sc)
                else:
                    _butterflies(want, off, d, n, half, w, q)
                    _butterflies(want, off, d, n, half >> 1, w * w % q, q)
                assert [x % q for x in regs] == want, (half, inverse, sc, d)
        half <<= 1


@pytest.mark.parametrize("k", [13, 14, 15])
def test_ntt_at_benchmark_sizes(k):
    """2^13 to 2^15 points over the benchmark's prime, both stage parities:
    sampled slots against Horner, and the inverse restores every register."""
    ring = RING_FFT
    q, n = ring.q, 1 << k
    rng = random.Random(f"ntt-big-{k}")
    root = ring.find_principal_root(n)
    f = rand_poly(rng, q, n)
    slots = sorted({0, n - 1, *rng.sample(range(n), 22)})
    expected = [horner_eval(ring, f, pow(root.omega, bit_reverse(j, k), q)) for j in slots]
    for kind in ("plain", "reversed"):
        arena, view = _view_of(ring, f, kind)
        before = list(arena.regs)
        ntt(view, root, "fwd")
        assert [view.get(j) for j in slots] == expected, kind
        ntt(view, root, "inv")
        assert arena.regs == before, kind


@pytest.mark.parametrize("N", [24577, 32767])
def test_truncated_transform_at_benchmark_lengths(N):
    """_otfft at the two transform lengths of the benchmark's FFT products
    (inputs of 12289 and 16384 coefficients) round-trips."""
    ring = RING_FFT
    q = ring.q
    p = (N - 1).bit_length()
    w = ring.find_principal_root(1 << p).omega
    f = rand_poly(random.Random(f"tft-big-{N}"), q, N)
    arena, view = _view_of(ring, f, "plain", perm=SCRATCH)
    before = list(arena.regs)
    cs_rwrw._otfft(view, None, 1 << p, w, False)
    assert view.get(N - 1) == horner_eval(ring, f, pow(w, bit_reverse(N - 1, p), q))
    cs_rwrw._otfft(view, None, 1 << p, w, True)
    assert arena.regs == before


@pytest.mark.parametrize("layout", ["input_only", "scratch_then_input"])
def test_ntt_on_input_only_registers_raises_and_changes_nothing(layout):
    ring = RING_FFT
    n = 2 * BLOCK
    rng = random.Random("ntt-ro")
    vals = rand_poly(rng, ring.q, n)
    if layout == "input_only":
        arena, (v,) = build_arena(ring, RO_RW, (vals, INPUT_ONLY))
    else:
        arena, _ = build_arena(ring, RO_RW, (vals[: n // 2], SCRATCH), (vals[n // 2 :], INPUT_ONLY))
        v = arena.view(0, n)
    before = list(arena.regs)
    with pytest.raises(PermissionDenied):
        ntt(v, ring.find_principal_root(n), "fwd")
    assert arena.regs == before
    assert arena.metrics.extra_algebraic_highwater == 0


@pytest.mark.parametrize("kind", VIEW_KINDS)
def test_ntt_on_scratch_counts_each_register_once(kind):
    ring = RING_FFT
    for n in (BLOCK // 2, BLOCK, 4 * BLOCK):
        rng = random.Random(f"ntt-scratch-{n}")
        arena, view = _view_of(ring, rand_poly(rng, ring.q, n), kind, perm=SCRATCH)
        root = ring.find_principal_root(n)
        ntt(view, root, "fwd")
        assert arena.metrics.extra_algebraic_highwater == n
        ntt(view, root, "inv")
        assert arena.metrics.extra_algebraic_highwater == n


@pytest.mark.parametrize("q", (469762049, 12 * 2**64 + 1))
@pytest.mark.parametrize("kind", VIEW_KINDS)
def test_truncated_transform_of_any_length(kind, q):
    """_otfft with the zero source: slot j holds f(omega^[j]_p) for the
    least 2^p >= N and the inverse restores f.  It checks and counts its
    own span, with no check by its caller; the transform writes every slot
    of it (a length-1 transform is the identity) and nothing else."""
    ring = Zq(q)
    rng = random.Random(f"tft-{kind}-{q}")
    for N in [*range(1, 71), 127, 128, 129, 255, 256, 257]:
        p = (N - 1).bit_length()
        w = ring.find_principal_root(1 << p).omega
        f = rand_poly(rng, q, N)
        arena, view = _view_of(ring, f, kind, perm=SCRATCH)
        slots = {view.off + view.dir * i for i in range(N)} if N > 1 else set()
        before = list(arena.regs)
        arena.regs = WriteLog(arena.regs)
        cs_rwrw._otfft(view, None, 1 << p, w, False)
        for j in sorted({0, min(1, N - 1), N - 1}):
            assert view.get(j) == horner_eval(ring, f, pow(w, bit_reverse(j, p), q)), (N, j)
        assert arena.regs.written == slots, N
        cs_rwrw._otfft(view, None, 1 << p, w, True)
        assert arena.regs == before, N
        assert arena.regs.written == slots, N
        assert arena.metrics.extra_algebraic_highwater == N, N


def _fft_mul_case(ring, f, g, rng, exact=True):
    q = ring.q
    h0 = rand_poly(rng, q, len(f) + len(g) - 1)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
    cumulative_fft_mul(fv, gv, hv)
    assert fv.tolist() == f and gv.tolist() == g
    h = hv.tolist()
    if exact:
        full = schoolbook_mul(ring, f, g)
        assert h == [(a + b) % q for a, b in zip(h0, full)], (len(f), len(g))
    else:
        for x in distinct_nonzero(rng, q, 3):
            want = (horner_eval(ring, h0, x) + horner_eval(ring, f, x) * horner_eval(ring, g, x)) % q
            assert horner_eval(ring, h, x) == want, (len(f), len(g))
    m = arena.metrics
    return m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products


@pytest.mark.parametrize("short", [False, True])
def test_cumulative_fft_mul_input_only_operand_leaves_arena_unchanged(short):
    """Both operands are checked before the accumulator is transformed."""
    ring = RING_FFT
    rng = random.Random(f"fft-ro-{short}")
    f, g = rand_poly(rng, ring.q, 5), rand_poly(rng, ring.q, 9)
    h = rand_poly(rng, ring.q, 13)
    perms = (INPUT_ONLY, INOUT) if short else (INOUT, INPUT_ONLY)
    arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, perms[0]), (g, perms[1]), (h, INOUT))
    before = list(arena.regs)
    with pytest.raises(PermissionDenied):
        cumulative_fft_mul(fv, gv, hv)
    assert arena.regs == before


@pytest.mark.parametrize("m", [3, 4])
def test_cumulative_fft_mul_refuses_h_with_metrics_as_found(m):
    """h is checked with f and g, before the call scope opens: a padded h
    raises PaddingWrite whether or not its length is a power of two."""
    ring = RING_FFT
    rng = random.Random(f"fft-h-{m}")
    f, g = rand_poly(rng, ring.q, m), rand_poly(rng, ring.q, 5)
    N = m + 4
    for model, tag, cut, error in ((RO_RW, INPUT_ONLY, N, PermissionDenied), (RW_RW, INOUT, N - 2, PaddingWrite)):
        arena, (fv, gv, hv) = build_arena(ring, model, (f, INOUT), (g, INOUT), (rand_poly(rng, ring.q, cut), tag))
        before = list(arena.regs)
        with pytest.raises(error):
            cumulative_fft_mul(fv, gv, hv.padded(N))
        assert arena.regs == before
        assert arena.metrics.summary() == "extra_algebraic=0 pointer_depth=0 base_products=0"


def test_walk_alone_counts_what_it_writes():
    """_step claims the slots it writes: a walk on a scratch view, with no
    check by cumulative_fft_mul around it, counts every register written."""
    ring = RING_FFT
    q, p = ring.q, 6
    w = ring.find_principal_root(1 << p).omega
    arena, (v,) = build_arena(ring, RW_RW, (rand_poly(random.Random("walk-alone"), q, 37), SCRATCH))
    arena.regs = WriteLog(arena.regs)
    cs_rwrw._walk(v, (0, p), (1, 4), w, q, p)
    assert len(arena.regs.written) == 16
    assert arena.regs.written <= arena.metrics.scratch_touched


def test_cumulative_fft_mul_every_length_to_300():
    ring = RING_FFT
    rng = random.Random("fft-every")
    for n in range(1, 301):
        m = rng.randrange(1, n + 1)
        f, g = rand_poly(rng, ring.q, m), rand_poly(rng, ring.q, n)
        assert _fft_mul_case(ring, f, g, rng)[0] == 0


@pytest.mark.parametrize("n", [127, 128, 129, 257, 12289])
def test_cumulative_fft_mul_balanced(n):
    ring = RING_FFT
    rng = random.Random(f"fft-balanced-{n}")
    f, g = rand_poly(rng, ring.q, n), rand_poly(rng, ring.q, n)
    extra, _, products = _fft_mul_case(ring, f, g, rng, exact=n < 1000)
    assert extra == 0 and products == 2 * n - 1


# (extra_algebraic, pointer_depth, base_products) of the per-butterfly code
FFT_MUL_METRICS = {
    (1, 1): (0, 1, 1),
    (5, 7): (0, 5, 11),
    (64, 64): (0, 8, 127),
    (100, 129): (0, 7, 228),
    (127, 128): (0, 8, 254),
    (127, 127): (0, 9, 253),
    (129, 129): (0, 10, 257),
    (257, 257): (0, 11, 513),
    (300, 300): (0, 11, 599),
}


@pytest.mark.parametrize("shape", sorted(FFT_MUL_METRICS))
def test_cumulative_fft_mul_metrics_are_pinned(shape):
    ring = RING_FFT
    m, n = shape
    rng = random.Random(f"fft-pinned-{m}-{n}")
    f, g = rand_poly(rng, ring.q, m), rand_poly(rng, ring.q, n)
    assert _fft_mul_case(ring, f, g, rng) == FFT_MUL_METRICS[shape]


# (n, k, ell, p) -> extra_algebraic on a scratch arena: only the 2^ell
# prefix is written, by both directions
PARTIAL_FT_SCRATCH = {
    (1, 0, 0, 1): 1,
    (37, 3, 4, 6): 16,
    (256, 0, 8, 8): 256,
    (300, 1, 7, 9): 128,
    (1000, 5, 6, 12): 64,
    (2000, 1, 9, 12): 512,
}


@pytest.mark.parametrize("case", sorted(PARTIAL_FT_SCRATCH))
def test_partial_ft_metrics_are_pinned(case):
    ring = RING_FFT
    n, k, ell, p = case
    root = ring.find_principal_root(1 << p)
    rng = random.Random(f"pft-pinned-{n}")
    f = rand_poly(rng, ring.q, n)
    arena, (fv,) = build_arena(ring, RW_RW, (f, SCRATCH))
    partial_ft(fv, k, ell, root)
    idx = bit_reverse(k << ell, p)
    assert fv.get(0) == horner_eval(ring, f, pow(root.omega, idx, ring.q))
    partial_ft(fv, k, ell, root, "inv")
    assert fv.tolist() == f
    m = arena.metrics
    assert (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products) == (
        PARTIAL_FT_SCRATCH[case],
        0,
        0,
    )


@pytest.mark.parametrize("n", [300, 2000])
def test_partial_ft_is_evaluation_on_both_fold_paths(n):
    """Few tail rows are folded row by row, many rows column by column."""
    ring = RING_FFT
    q = ring.q
    p = n.bit_length() + 1
    root = ring.find_principal_root(1 << p)
    rng = random.Random(f"pft-paths-{n}")
    for ell in range(n.bit_length()):
        size = 1 << ell
        for k in (0, 1, 5):
            if (k + 1) << ell > 1 << p:
                continue
            f = rand_poly(rng, q, n)
            arena, (fv,) = build_arena(ring, RW_RW, (f, INOUT))
            partial_ft(fv, k, ell, root)
            for i in sorted({0, 1 % size, size - 1}):
                x = pow(root.omega, bit_reverse((k << ell) + i, p), q)
                assert fv.get(i) == horner_eval(ring, f, x), (n, ell, k, i)
            partial_ft(fv, k, ell, root, "inv")
            assert fv.tolist() == f


@pytest.mark.parametrize("kind", VIEW_KINDS)
@pytest.mark.parametrize("n", [1, 37, 256, 300])
def test_coset_walk_visits_nodes_and_returns(kind, n):
    """The product's operand walk: at every node on a tour of the coset
    tree, the NTT of the prefix holds the operand's values at the node's
    points; walking back to the root restores the operand."""
    ring = RING_FFT
    q = ring.q
    p = max(1, (n - 1).bit_length() + 1)
    w = ring.find_principal_root(1 << p).omega
    rng = random.Random(f"walk-{kind}-{n}")
    f = rand_poly(rng, q, n)
    arena, fv = _view_of(ring, f, kind)
    top = n.bit_length() - 1
    nodes = [(k, e) for e in range(top, -1, -1) for k in range(1 << (p - e))]
    tour = []
    for k, e in rng.sample(nodes, min(12, len(nodes))):
        # each stop, then down to a child and back up: the walk between a
        # node and its ancestor has no shared step
        tour += [(k, e), (2 * k + 1, e - 1), (k, e)] if e else [(k, e)]
    at = (0, p)
    for node in tour + [(0, top)]:
        cs_rwrw._walk(fv, at, node, w, q, p)
        at = node
        k, e = node
        cs_rwrw._node_ft(fv, node, w, q, p, False)
        for i in sorted({0, (1 << e) - 1}):
            x = pow(w, bit_reverse((k << e) + i, p), q)
            assert fv.get(i) == horner_eval(ring, f, x), (node, i)
        cs_rwrw._node_ft(fv, node, w, q, p, True)
    cs_rwrw._walk(fv, at, (0, p), w, q, p)
    assert fv.tolist() == f


def test_distinct_nonzero_beyond_2_63():
    rng = random.Random("distinct")
    q = 12 * 2**64 + 1
    vals = distinct_nonzero(rng, q, 200)
    assert len(set(vals)) == 200 and all(0 < v < q for v in vals)
    assert sorted(distinct_nonzero(rng, 5, 4)) == [1, 2, 3, 4]
