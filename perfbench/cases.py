"""Workloads of the polyarena benchmark.

A workload is a list of Calls built from a seed.  A Call holds its
generated coefficient lists and knows three things:

* how to run: build the arena from the lists, then call the library.  This
  is the timed part; it is all a caller of the library has to do;
* how to check the result, outside the timed part: the first result is
  verified by an oracle, later passes must reproduce it exactly, every
  rw/rw input must come back equal to its copy from before the call, and
  where the product count has a closed form it must match;
* which reference it is paired with (`pair`), so the op/reference ratio can
  be formed.

The library modules are reached through `lib` at call time, never through
names bound at import, so the tracer's rebinding is seen by every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

FFT_PRIME = 469762049  # 7 * 2**26 + 1
SMALL_PRIME = 97
M61 = 2**61 - 1  # 2-adicity 1: no FFT ops; multi-limb products in Python

# Sizes, primes, the op list and every shape parameter of small_ops (split
# points, slice offsets, scratch sizes) are drawn from this fixed seed, so
# every run does the same work; --seed only draws the values.
SMALL_OPS_LIST_SEED = "small_ops list v1"
SMALL_OPS_PER_OP = 12


@dataclass(eq=False)
class Call:
    name: str  # library function (or comparator) this call times
    role: str  # "op": space-efficient call; "ref": linear-space reference
    pair: str | None  # key shared by an op and its reference
    ring: object
    model: str | None  # permission model; None for a call on plain lists
    segments: list  # [(values, perm)] for arena calls, unused for list calls
    invoke: Callable  # arena call: invoke(arena, views); list call: invoke()
    verify: Callable[[list], bool]  # outputs -> correct (first pass)
    outputs: tuple = ()
    restored: tuple = ()
    products: int | None = None
    metric: str | None = None  # per-op metric stem, e.g. cs_rwrw.cumulative_karatsuba_4096
    expected: list | None = field(default=None, repr=False)


def timed_run(lib, call: Call, tracer=None):
    """The timed part of one call.  Returns (arena or None, list result)."""
    if call.model is None:
        return None, call.invoke()
    arena, views = lib.reg_arena.build_arena(call.ring, call.model, *call.segments)
    if tracer is not None:
        tracer.metrics = arena.metrics
    call.invoke(arena, views)
    return arena, None


def check(call: Call, arena, result) -> bool:
    """Correctness gate for one finished call (outside the timed part)."""
    if arena is None:
        outs = [list(x) for x in result]
    else:
        finals = []
        lo = 0
        for vals, _ in call.segments:
            finals.append(arena.regs[lo : lo + len(vals)])
            lo += len(vals)
        if any(finals[i] != call.segments[i][0] for i in call.restored):
            return False
        if call.products is not None and arena.metrics.base_products != call.products:
            return False
        outs = [finals[i] for i in call.outputs]
    if call.expected is None:
        if not call.verify(outs):
            return False
        call.expected = outs
        return True
    return outs == call.expected


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def rand(rng, q, n):
    return [rng.randrange(q) for _ in range(n)]


def unit_lead(rng, q, n):
    return rand(rng, q, n - 1) + [rng.randrange(1, q)]


def unit_const(rng, q, n):
    return [rng.randrange(1, q)] + rand(rng, q, n - 1)


def distinct_points(rng, q, n):
    """n distinct nonzero points; unlike rng.sample(range(1, q), n) this
    also works for q > 2**63."""
    seen = set()
    out = []
    while len(out) < n:
        a = rng.randrange(1, q)
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# oracles (run outside the timed part, with tracing paused)
# ---------------------------------------------------------------------------


class Oracle:
    def __init__(self, lib, ring):
        self.dr = lib.dense_ref
        self.ring = ring
        self.q = ring.q

    def mul(self, f, g):
        if not f or not g:
            return []
        if min(len(f), len(g)) <= 64 or max(len(f), len(g)) <= 128:
            return self.dr.schoolbook_mul(self.ring, f, g)
        return self.dr.karatsuba_mul(self.ring, f, g)

    def low(self, f, g, t):
        out = self.mul(f, g)[:t]
        return out + [0] * (t - len(out))

    def slice(self, f, g, s, r):
        full = self.mul(f, g)
        return [full[s + i] if 0 <= s + i < len(full) else 0 for i in range(r)]

    def add(self, a, b):
        q = self.q
        return [(x + y) % q for x, y in zip(a, b)]

    def is_divrem(self, f, g, quo, rem):
        """f == quo * g + rem with len(rem) == len(g) - 1."""
        if len(rem) != len(g) - 1:
            return False
        prod = self.mul(quo, g) + [0] * len(f)
        rem = rem + [0] * len(f)
        return all((prod[i] + rem[i]) % self.q == f[i] % self.q for i in range(len(f))) and not any(
            c % self.q for c in prod[len(f) :]
        )

    def rem(self, f, g):
        return self.dr.divrem(self.ring, f, g)[1]

    def horner(self, f, a):
        return self.dr.horner_eval(self.ring, f, a)


def product_check(orc: Oracle, f, g, h0, points=None):
    """outs[0] == h0 + f * g; with points, checked by evaluation there
    (FFT-prime products at n >= 4096, where a full oracle is too slow)."""
    if points is None:
        return lambda outs: outs[0] == orc.add(h0, orc.mul(f, g))
    q = orc.q

    def by_points(outs):
        h = outs[0]
        if len(h) != len(h0):
            return False
        return all(
            orc.horner(h, a) == (orc.horner(h0, a) + orc.horner(f, a) * orc.horner(g, a)) % q for a in points
        )

    return by_points


def matmul(q, X, Y, n):
    return [sum(X[i * n + k] * Y[k * n + j] for k in range(n)) % q for i in range(n) for j in range(n)]


# ---------------------------------------------------------------------------
# comparators defined once, here
# ---------------------------------------------------------------------------


def scratch_ntt_mul(lib, root, views):
    """h += f * g through two scratch transforms of size p2 >= 2n-1.

    Follows criterion 8b's `_bench_scratch_ntt` in tests/test_acceptance.py:
    region copies, two forward NTTs, ONE list-slice pointwise product, one
    inverse NTT, one region add.  The CLI's `fft-ref` bench case differs: it
    does the pointwise product with per-element get/set and adds p2 to
    base_products.  See NOTES.md.
    """
    ra, dr = lib.reg_arena, lib.dense_ref
    fv, gv, hv, wf, wg = views
    p2 = len(wf)
    ra.vzero(wf)
    ra.vcopy(wf.sub(0, len(fv)), fv, len(fv))
    ra.vzero(wg)
    ra.vcopy(wg.sub(0, len(gv)), gv, len(gv))
    dr.ntt(wf, root, "fwd")
    dr.ntt(wg, root, "fwd")
    regs, q = wf.arena.regs, wf.arena.q
    regs[wf.off : wf.off + p2] = [a * b % q for a, b in zip(regs[wf.off : wf.off + p2], regs[wg.off : wg.off + p2])]
    dr.ntt(wf, root, "inv")
    ra.vadd(hv, wf.sub(0, len(hv)))


def series_div_ref(lib, ring, f, g):
    """f / g mod x^n on lists: Newton inverse, then one truncated product."""
    dr = lib.dense_ref
    n = len(f)
    out = dr.schoolbook_mul(ring, f, dr.series_inv(ring, g, n))[:n]
    return out + [0] * (n - len(out))


def convolution_ref(lib, ring, f, g, lam):
    """f * g mod (x^n - lam) on lists."""
    q, n = ring.q, len(f)
    out = [0] * n
    for i, c in enumerate(lib.dense_ref.schoolbook_mul(ring, f, g)):
        if i < n:
            out[i] = (out[i] + c) % q
        else:
            out[i - n] = (out[i - n] + c * lam) % q
    return out


def modmul_ref(lib, ring, f, g, p):
    dr = lib.dense_ref
    full = dr.schoolbook_mul(ring, f, g) or [0]
    r = dr.divrem(ring, full, p)[1]
    return r + [0] * (len(p) - 1 - len(r))


def pad(v, n):
    return v + [0] * (n - len(v))


# ---------------------------------------------------------------------------
# call builders shared by the workloads
# ---------------------------------------------------------------------------


class Builder:
    """Builds the Calls of one workload; holds lib, permission tags and a
    MulKit (looked up through lib, so its patched methods are traced)."""

    def __init__(self, lib):
        self.lib = lib
        ra = lib.reg_arena
        self.IN, self.IO, self.SC = ra.INPUT_ONLY, ra.INOUT, ra.SCRATCH
        self.RO, self.RW = ra.RO_RW, ra.RW_RW
        self.kit = lib.dense_ref.MulKit()
        self.calls: list[Call] = []

    def add(self, *calls):
        self.calls.extend(calls)

    def arena(self, name, role, pair, ring, model, segs, invoke, verify, outputs, restored=(), **kw):
        return Call(name, role, pair, ring, model, segs, invoke, verify, tuple(outputs), tuple(restored), **kw)

    def plain(self, name, pair, ring, invoke, verify, **kw):
        return Call(name, "ref", pair, ring, None, [], invoke, verify, **kw)

    # -- references on arena views (MulKit) ---------------------------------

    def kit_full(self, pair, ring, f, g, verify):
        n = len(f)
        segs = [(f, self.IO), (g, self.IO), ([0] * (2 * n - 1), self.IO), ([0] * (self.kit.c * n + 4), self.SC)]
        kit = self.kit
        return self.arena(
            "dense_ref.MulKit.full_into", "ref", pair, ring, self.RW, segs,
            lambda a, v: kit.full_into(v[2], v[0], v[1], v[3]), verify, (2,), (0, 1),
        )

    def kit_low(self, pair, ring, f, g, h0, verify):
        ws = 4 * (len(f) + len(g)) + 8
        kit = self.kit
        segs = [(f, self.IO), (g, self.IO), (h0, self.IO), ([0] * ws, self.SC)]
        return self.arena(
            "dense_ref.MulKit.low_acc", "ref", pair, ring, self.RW, segs,
            lambda a, v: kit.low_acc(v[2], v[0], v[1], v[3]), verify, (2,), (0, 1),
        )

    def kit_slice(self, pair, ring, f, g, s, h0, verify):
        ws = 4 * (len(f) + len(g) + len(h0)) + 8
        kit = self.kit
        segs = [(f, self.IO), (g, self.IO), (h0, self.IO), ([0] * ws, self.SC)]
        return self.arena(
            "dense_ref.MulKit.slice_acc", "ref", pair, ring, self.RW, segs,
            lambda a, v: kit.slice_acc(v[2], v[0], v[1], s, v[3]), verify, (2,), (0, 1),
        )

    def scratch_ntt(self, pair, ring, f, g, h0, verify):
        N = len(f) + len(g) - 1
        p2 = 1 << max(0, (N - 1).bit_length())
        root = ring.root_for_length(p2)
        lib = self.lib
        segs = [(f, self.IO), (g, self.IO), (h0, self.IO), ([0] * p2, self.SC), ([0] * p2, self.SC)]
        return self.arena(
            "bench.scratch_ntt_mul", "ref", pair, ring, self.RW, segs,
            lambda a, v: scratch_ntt_mul(lib, root, v), verify, (2,), (0, 1),
        )

    # -- references on plain lists (dense_ref oracles) ----------------------

    def ref_divrem(self, pair, ring, orc, f, g):
        dr = self.lib.dense_ref
        return self.plain(
            "dense_ref.divrem", pair, ring, lambda: dr.divrem(ring, f, g),
            lambda outs: orc.is_divrem(f, g, outs[0], outs[1]),
        )

    def ref_rem(self, pair, ring, orc, f, g, expect):
        dr = self.lib.dense_ref
        return self.plain("dense_ref.divrem", pair, ring, lambda: dr.divrem(ring, f, g)[1:], lambda outs: outs == expect())


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------


def fft_product(lib, rng, small=False):
    """cumulative_fft_mul against the scratch NTT over 469762049, at the
    criterion-8b size 16384 and the truncated length 12289."""
    b = Builder(lib)
    ring = lib.coeff_ring.Zq(FFT_PRIME)
    orc = Oracle(lib, ring)
    q = ring.q
    for n in (16, 13) if small else (16384, 12289):
        f, g, h0 = rand(rng, q, n), rand(rng, q, n), rand(rng, q, 2 * n - 1)
        verify = product_check(orc, f, g, h0, points=rand(rng, q, 3))
        pair = f"cumulative_fft_mul_{n}"
        segs = [(f, b.IO), (g, b.IO), (h0, b.IO)]
        b.add(
            b.arena(
                "cs_rwrw.cumulative_fft_mul", "op", pair, ring, b.RW, segs,
                lambda a, v: lib.cs_rwrw.cumulative_fft_mul(*v), verify, (2,), (0, 1),
                metric=f"cs_rwrw.cumulative_fft_mul_{n}",
            ),
            b.scratch_ntt(pair, ring, f, g, h0, verify),
        )
    return b.calls


def rwrw_inplace(lib, rng, small=False):
    """rw/rw in-place calls with restored inputs over q = 97."""
    b = Builder(lib)
    ring = lib.coeff_ring.Zq(SMALL_PRIME)
    orc = Oracle(lib, ring)
    q = ring.q
    n = 16 if small else 4096
    b.add(*named(_cum_kara(b, ring, orc, rng, None, n), f"cs_rwrw.cumulative_karatsuba_{n}"))
    m, d = n - 1, n // 2
    F, G = rand(rng, q, m), unit_lead(rng, q, d)
    pair = f"inplace_divrem_{m}"
    b.add(
        b.arena(
            "cs_rwrw.inplace_divrem", "op", pair, ring, b.RW, [(F, b.IO), (G, b.IO)],
            lambda a, v: lib.cs_rwrw.inplace_divrem(*v),
            lambda outs: orc.is_divrem(F, G, outs[0][d - 1 :], outs[0][: d - 1]), (0,), (1,),
            metric=f"cs_rwrw.inplace_divrem_{m}",
        ),
        b.ref_divrem(pair, ring, orc, F, G),
    )
    nm = 16 if small else 1024
    fm, gm, rm = rand(rng, q, nm), rand(rng, q, nm), rand(rng, q, nm)
    pm = rand(rng, q, nm) + [1]
    b.add(
        b.arena(
            "cs_rwrw.modular_mul", "op", None, ring, b.RW, [(fm, b.IO), (gm, b.IO), (rm, b.IO), (pm, b.IO)],
            lambda a, v: lib.cs_rwrw.modular_mul(*v),
            lambda outs: outs[0] == orc.add(rm, pad(orc.rem(orc.mul(fm, gm), pm), nm)), (2,), (0, 1, 3),
            metric=f"cs_rwrw.modular_mul_{nm}",
        )
    )
    b.add(strassen_call(b, ring, rng, 4 if small else 64))
    return b.calls


def named(calls, stem):
    """Give a spec's op call its per-op metric stem."""
    calls[0].metric = stem
    return calls


def strassen_call(b, ring, rng, dim, metric=True):
    lib, q = b.lib, ring.q
    X, Y, Z0 = rand(rng, q, dim * dim), rand(rng, q, dim * dim), rand(rng, q, dim * dim)

    def invoke(arena, views):
        bi = lib.bilinear_inplace
        bi.strassen_cs(*(bi.mat_on_arena(arena, v.off, dim) for v in views))

    def verify(outs):
        return outs[0] == [(z + p) % q for z, p in zip(Z0, matmul(q, X, Y, dim))]

    return b.arena(
        "bilinear_inplace.strassen_cs", "op", None, ring, b.RW, [(X, b.IO), (Y, b.IO), (Z0, b.IO)],
        invoke, verify, (2,), (0, 1), products=7 ** (dim.bit_length() - 1),
        metric=f"bilinear_inplace.strassen_cs_{dim}" if metric else None,
    )


def rorw_reductions(lib, rng, small=False):
    """ro/rw constant-space reductions: MulKit, permission-checked views and
    the scalar get/set path; no cs_rwrw and no NTT."""
    b = Builder(lib)
    ring = lib.coeff_ring.Zq(SMALL_PRIME)
    orc = Oracle(lib, ring)
    q = ring.q
    n = 16 if small else 2048
    fs, gs = rand(rng, q, n), rand(rng, q, n)
    hs = rand(rng, q, n - 1) + [0] * n
    b.add(
        b.arena(
            "cs_rorw.semi_cumulative_product", "op", None, ring, b.RO, [(fs, b.IN), (gs, b.IN), (hs, b.IO)],
            lambda a, v: lib.cs_rorw.semi_cumulative_product(*v), product_check(orc, fs, gs, hs), (2,), (0, 1),
            metric=f"cs_rorw.semi_cumulative_product_{n}",
        )
    )
    b.add(*named(_series_inv(b, ring, orc, rng, None, n), f"cs_rorw.series_inv_cs_{n}"))
    d = n // 2
    F, G = rand(rng, q, n), unit_lead(rng, q, d)
    m = n - d + 1
    pair = f"divrem_cs_{n}"
    b.add(
        b.arena(
            "cs_rorw.divrem_cs", "op", pair, ring, b.RO, [(F, b.IN), (G, b.IN), ([0] * m, b.IO), ([0] * (d - 1), b.IO)],
            lambda a, v: lib.cs_rorw.divrem_cs(*v), lambda outs: orc.is_divrem(F, G, outs[0], outs[1]), (2, 3), (0, 1),
            metric=f"cs_rorw.divrem_cs_{n}",
        ),
        b.ref_divrem(pair, ring, orc, F, G),
    )
    s = 4 if small else 32
    b.add(
        b.arena(
            "cs_rorw.remainder_smallspace", "op", None, ring, b.RO,
            [(F, b.IN), (G, b.IN), ([0] * (d - 1), b.IO), ([0] * s, b.SC)],
            lambda a, v: lib.cs_rorw.remainder_smallspace(*v), lambda outs: outs[0] == orc.rem(F, G), (2,), (0, 1),
            metric=f"cs_rorw.remainder_smallspace_{n}",
        )
    )
    fring = lib.coeff_ring.Zq(FFT_PRIME)
    forc = Oracle(lib, fring)
    nf = 16 if small else 256
    b.add(*named(_mp_eval(b, fring, forc, rng, None, nf), f"cs_rorw.mp_eval_cs_{nf}"))
    b.add(*named(_interp(b, fring, forc, rng, None, nf), f"cs_rorw.interp_cs_{nf}"))
    return b.calls


# ---------------------------------------------------------------------------
# small_ops: every public space-efficient op at sizes 1..128
# ---------------------------------------------------------------------------


def _products(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g = rand(rng, q, n), rand(rng, q, n)
    h0 = rand(rng, q, n - 1) + [0] * n
    return [
        b.arena(
            "cs_rorw.semi_cumulative_product", "op", "semi_cumulative_product", ring, b.RO,
            [(f, b.IN), (g, b.IN), (h0, b.IO)], lambda a, v: lib.cs_rorw.semi_cumulative_product(*v),
            product_check(orc, f, g, h0), (2,), (0, 1),
        ),
        b.kit_full("semi_cumulative_product", ring, f, g, lambda outs: outs[0] == orc.mul(f, g)),
    ]


def _lower(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g = rand(rng, q, n), rand(rng, q, n)
    ok = lambda outs: outs[0] == orc.low(f, g, n)
    return [
        b.arena(
            "cs_rorw.lower_product_cs", "op", "lower_product_cs", ring, b.RO, [(f, b.IN), (g, b.IN), ([0] * n, b.IO)],
            lambda a, v: lib.cs_rorw.lower_product_cs(*v), ok, (2,), (0, 1),
        ),
        b.kit_low("lower_product_cs", ring, f, g, [0] * n, ok),
    ]


def _upper(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    n = max(n, 2)
    f, g = rand(rng, q, n), rand(rng, q, n)
    ok = lambda outs: outs[0] == orc.slice(f, g, n, n - 1)
    return [
        b.arena(
            "cs_rorw.lower_product_cs", "op", "upper_product_cs", ring, b.RO,
            [(f, b.IN), (g, b.IN), ([0] * (n - 1), b.IO)],
            lambda a, v: lib.cs_rorw.lower_product_cs(*v, reversed_mode=True), ok, (2,), (0, 1),
        ),
        b.kit_slice("upper_product_cs", ring, f, g, n, [0] * (n - 1), ok),
    ]


def _semi_lower(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    s = shape.randrange(1, n + 1)
    f, g = rand(rng, q, n), rand(rng, q, n)
    h0 = [0] * s + rand(rng, q, n - s)
    ok = lambda outs: outs[0] == orc.add(h0, orc.low(f, g, n))
    return [
        b.arena(
            "cs_rorw.semi_cumulative_lower", "op", "semi_cumulative_lower", ring, b.RO,
            [(f, b.IN), (g, b.IN), (h0, b.IO)], lambda a, v: lib.cs_rorw.semi_cumulative_lower(*v, s), ok, (2,), (0, 1),
        ),
        b.kit_low("semi_cumulative_lower", ring, f, g, h0, ok),
    ]


def _middle(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    m = shape.randrange(1, n + 1)
    f, g = rand(rng, q, m + n - 1), rand(rng, q, n)
    ok = lambda outs: outs[0] == orc.slice(f, g, n - 1, m)
    kit = b.kit
    ws = 4 * (m + n) + 8
    return [
        b.arena(
            "cs_rorw.middle_product_cs", "op", "middle_product_cs", ring, b.RO, [(f, b.IN), (g, b.IN), ([0] * m, b.IO)],
            lambda a, v: lib.cs_rorw.middle_product_cs(*v), ok, (2,), (0, 1),
        ),
        b.arena(
            "dense_ref.MulKit.mid_unbalanced_acc", "ref", "middle_product_cs", ring, b.RW,
            [(f, b.IO), (g, b.IO), ([0] * m, b.IO), ([0] * ws, b.SC)],
            lambda a, v: kit.mid_unbalanced_acc(v[2], v[0], v[1], v[3]), ok, (2,), (0, 1),
        ),
    ]


def _series_inv(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f = unit_const(rng, q, n)
    one = [1] + [0] * (n - 1)
    ok = lambda outs: orc.low(f, outs[0], n) == one
    return [
        b.arena(
            "cs_rorw.series_inv_cs", "op", "series_inv_cs", ring, b.RO, [(f, b.IN), ([0] * n, b.IO)],
            lambda a, v: lib.cs_rorw.series_inv_cs(*v), ok, (1,), (0,),
        ),
        b.plain("dense_ref.series_inv", "series_inv_cs", ring, lambda: [lib.dense_ref.series_inv(ring, f)], ok),
    ]


def _div_check(orc, f, g, n):
    return lambda outs: orc.low(g, outs[0], n) == f


def _series_div(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g = rand(rng, q, n), unit_const(rng, q, n)
    ok = _div_check(orc, f, g, n)
    return [
        b.arena(
            "cs_rorw.series_div_cs", "op", "series_div_cs", ring, b.RO, [(f, b.IN), (g, b.IN), ([0] * n, b.IO)],
            lambda a, v: lib.cs_rorw.series_div_cs(*v), ok, (2,), (0, 1),
        ),
        b.plain("bench.series_div_ref", "series_div_cs", ring, lambda: [series_div_ref(lib, ring, f, g)], ok),
    ]


def _div_smallspace(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    s = shape.randrange(5, max(6, n + 3))
    f, g = rand(rng, q, n), unit_const(rng, q, n)
    ok = _div_check(orc, f, g, n)
    return [
        b.arena(
            "cs_rorw.inplace_div_smallspace", "op", "inplace_div_smallspace", ring, b.RW,
            [(f, b.IO), (g, b.IN), ([0] * s, b.SC)], lambda a, v: lib.cs_rorw.inplace_div_smallspace(*v), ok, (0,), (1,),
        ),
        b.plain("bench.series_div_ref", "inplace_div_smallspace", ring, lambda: [series_div_ref(lib, ring, f, g)], ok),
    ]


def _dividend(rng, shape, q, n):
    m = max(n - 1, shape.randrange(1, 2 * n + 1))
    return rand(rng, q, m + n - 1), unit_lead(rng, q, n), m


def _divrem_cs(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g, m = _dividend(rng, shape, q, n)
    return [
        b.arena(
            "cs_rorw.divrem_cs", "op", "divrem_cs", ring, b.RO,
            [(f, b.IN), (g, b.IN), ([0] * m, b.IO), ([0] * (n - 1), b.IO)],
            lambda a, v: lib.cs_rorw.divrem_cs(*v), lambda outs: orc.is_divrem(f, g, outs[0], outs[1]), (2, 3), (0, 1),
        ),
        b.ref_divrem("divrem_cs", ring, orc, f, g),
    ]


def _remainder_ss(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    n = max(n, 2)
    f, g, _ = _dividend(rng, shape, q, n)
    s = shape.randrange(1, n)
    expect = lambda: [orc.rem(f, g)]
    return [
        b.arena(
            "cs_rorw.remainder_smallspace", "op", "remainder_smallspace", ring, b.RO,
            [(f, b.IN), (g, b.IN), ([0] * (n - 1), b.IO), ([0] * s, b.SC)],
            lambda a, v: lib.cs_rorw.remainder_smallspace(*v), lambda outs: outs == expect(), (2,), (0, 1),
        ),
        b.ref_rem("remainder_smallspace", ring, orc, f, g, expect),
    ]


def _mp_eval(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, pts = rand(rng, q, n), rand(rng, q, n)
    ok = lambda outs: outs[0] == [orc.horner(f, a) for a in pts]
    return [
        b.arena(
            "cs_rorw.mp_eval_cs", "op", "mp_eval_cs", ring, b.RO, [(f, b.IN), ([0] * n, b.IO)],
            lambda a, v: lib.cs_rorw.mp_eval_cs(v[0], pts, v[1]), ok, (1,), (0,),
        ),
        b.plain("dense_ref.mp_eval_tree", "mp_eval_cs", ring, lambda: [lib.dense_ref.mp_eval_tree(ring, f, pts)], ok),
    ]


def _partial_interp(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    n = max(2, min(n, q - 1))
    s = shape.randrange(0, n - 1)
    k = shape.randrange(1, n - s + 1)
    f = rand(rng, q, n)
    pts = distinct_points(rng, q, n - s)
    vals = [orc.horner(f, a) for a in pts]
    pairs = list(zip(pts, vals))
    want = (f[s:] + [0] * n)[:k]
    # the reference interpolates the shifted values (v - g(a)) / a^s
    shifted = [(v - orc.horner(f[:s], a)) * pow(a, -s, q) % q for a, v in zip(pts, vals)]
    return [
        b.arena(
            "cs_rorw.partial_interp", "op", "partial_interp", ring, b.RO,
            [(f[:s], b.IN), ([0] * k, b.IO), ([0] * (8 * k + 4), b.SC)],
            lambda a, v: lib.cs_rorw.partial_interp(v[0], pairs, k, v[1], v[2]), lambda outs: outs[0] == want, (1,), (0,),
        ),
        b.plain(
            "dense_ref.interp_tree", "partial_interp", ring,
            lambda: [lib.dense_ref.interp_tree(ring, pts, shifted)[:k]], lambda outs: outs[0] == want,
        ),
    ]


def _interp(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    n = min(n, q - 1)
    f = rand(rng, q, n)
    pts = distinct_points(rng, q, n)
    vals = [orc.horner(f, a) for a in pts]
    pairs = list(zip(pts, vals))
    return [
        b.arena(
            "cs_rorw.interp_cs", "op", "interp_cs", ring, b.RO, [([0] * n, b.IO)],
            lambda a, v: lib.cs_rorw.interp_cs(pairs, v[0]), lambda outs: outs[0] == f, (0,),
        ),
        b.plain("dense_ref.interp_tree", "interp_cs", ring, lambda: [lib.dense_ref.interp_tree(ring, pts, vals)],
                lambda outs: outs[0] == f),
    ]


def _cum_kara(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g, h0 = rand(rng, q, n), rand(rng, q, n), rand(rng, q, 2 * n - 1)
    prods = 3 ** (n.bit_length() - 1) if n & (n - 1) == 0 else None
    return [
        b.arena(
            "cs_rwrw.cumulative_karatsuba", "op", "cumulative_karatsuba", ring, b.RW, [(f, b.IO), (g, b.IO), (h0, b.IO)],
            lambda a, v: lib.cs_rwrw.cumulative_karatsuba(*v), product_check(orc, f, g, h0), (2,), (0, 1),
            products=prods,
        ),
        b.kit_full("cumulative_karatsuba", ring, f, g, lambda outs: outs[0] == orc.mul(f, g)),
    ]


def _cum_slice(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    m = shape.randrange(1, n + 1)
    r = shape.randrange(1, m + n)
    s = shape.randrange(0, m + n - r)
    f, g, h0 = rand(rng, q, m), rand(rng, q, n), rand(rng, q, r)
    ok = lambda outs: outs[0] == orc.add(h0, orc.slice(f, g, s, r))
    return [
        b.arena(
            "cs_rwrw.cumulative_slice", "op", "cumulative_slice", ring, b.RW, [(f, b.IO), (g, b.IO), (h0, b.IO)],
            lambda a, v: lib.cs_rwrw.cumulative_slice(*v, s), ok, (2,), (0, 1),
        ),
        b.kit_slice("cumulative_slice", ring, f, g, s, h0, ok),
    ]


def _cum_lower(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g, h0 = rand(rng, q, n), rand(rng, q, n), rand(rng, q, n)
    ok = lambda outs: outs[0] == orc.add(h0, orc.low(f, g, n))
    return [
        b.arena(
            "cs_rwrw.cumulative_lower", "op", "cumulative_lower", ring, b.RW, [(f, b.IO), (g, b.IO), (h0, b.IO)],
            lambda a, v: lib.cs_rwrw.cumulative_lower(*v), ok, (2,), (0, 1),
        ),
        b.kit_low("cumulative_lower", ring, f, g, h0, ok),
    ]


def _convolution(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    lam = rng.randrange(1, q)
    f, g, h0 = rand(rng, q, n), rand(rng, q, n), rand(rng, q, n)
    ok = lambda outs: outs[0] == orc.add(h0, convolution_ref(lib, ring, f, g, lam))
    return [
        b.arena(
            "cs_rwrw.cumulative_convolution", "op", "cumulative_convolution", ring, b.RW,
            [(f, b.IO), (g, b.IO), (h0, b.IO)], lambda a, v: lib.cs_rwrw.cumulative_convolution(*v, lam), ok, (2,), (0, 1),
        ),
        b.plain(
            "bench.convolution_ref", "cumulative_convolution", ring,
            lambda: [orc.add(h0, convolution_ref(lib, ring, f, g, lam))], ok,
        ),
    ]


def _two_adicity(q):
    return ((q - 1) & -(q - 1)).bit_length() - 1


def _partial_ft(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    p = min(_two_adicity(q), max(1, n - 1).bit_length() + shape.randrange(0, 2))
    root = ring.find_principal_root(1 << p)
    ell = shape.randrange(0, p + 1)
    while (1 << ell) > n:
        ell -= 1
    k = shape.randrange(0, max(1, (1 << p) >> ell))
    f = rand(rng, q, n)
    br = lib.dense_ref.bit_reverse
    want = [orc.horner(f, pow(root.omega, br(k * (1 << ell) + i, p), q)) for i in range(1 << ell)]
    want += f[1 << ell :]
    return [
        b.arena(
            "cs_rwrw.partial_ft", "op", None, ring, b.RW, [(f, b.IO)],
            lambda a, v: lib.cs_rwrw.partial_ft(v[0], k, ell, root), lambda outs: outs[0] == want, (0,),
        )
    ]


def _fft_mul(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    m = shape.randrange(1, n + 1)
    f, g, h0 = rand(rng, q, m), rand(rng, q, n), rand(rng, q, m + n - 1)
    ok = product_check(orc, f, g, h0)
    return [
        b.arena(
            "cs_rwrw.cumulative_fft_mul", "op", "cumulative_fft_mul", ring, b.RW, [(f, b.IO), (g, b.IO), (h0, b.IO)],
            lambda a, v: lib.cs_rwrw.cumulative_fft_mul(*v), ok, (2,), (0, 1),
        ),
        b.scratch_ntt("cumulative_fft_mul", ring, f, g, h0, ok),
    ]


def _inplace_lower(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g = rand(rng, q, n), rand(rng, q, n)
    ok = lambda outs: outs[0] == orc.low(f, g, n)
    return [
        b.arena(
            "cs_rwrw.inplace_lower", "op", "inplace_lower", ring, b.RW, [(f, b.IO), (g, b.IO)],
            lambda a, v: lib.cs_rwrw.inplace_lower(*v), ok, (0,), (1,),
        ),
        b.kit_low("inplace_lower", ring, f, g, [0] * n, ok),
    ]


def _inplace_series_div(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g = rand(rng, q, n), unit_const(rng, q, n)
    ok = _div_check(orc, f, g, n)
    return [
        b.arena(
            "cs_rwrw.inplace_series_div", "op", "inplace_series_div", ring, b.RW, [(f, b.IO), (g, b.IO)],
            lambda a, v: lib.cs_rwrw.inplace_series_div(*v), ok, (0,), (1,),
        ),
        b.plain("bench.series_div_ref", "inplace_series_div", ring, lambda: [series_div_ref(lib, ring, f, g)], ok),
    ]


def _remainder_rwrw(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    n = max(n, 2)
    f, g, _ = _dividend(rng, shape, q, n)
    expect = lambda: [orc.rem(f, g)]
    return [
        b.arena(
            "cs_rwrw.remainder_rwrw", "op", "remainder_rwrw", ring, b.RW, [(f, b.IO), (g, b.IO), ([0] * (n - 1), b.IO)],
            lambda a, v: lib.cs_rwrw.remainder_rwrw(*v), lambda outs: outs == expect(), (2,), (0, 1),
        ),
        b.ref_rem("remainder_rwrw", ring, orc, f, g, expect),
    ]


def _inplace_divrem(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    f, g, _ = _dividend(rng, shape, q, n)
    return [
        b.arena(
            "cs_rwrw.inplace_divrem", "op", "inplace_divrem", ring, b.RW, [(f, b.IO), (g, b.IO)],
            lambda a, v: lib.cs_rwrw.inplace_divrem(*v),
            lambda outs: orc.is_divrem(f, g, outs[0][n - 1 :], outs[0][: n - 1]), (0,), (1,),
        ),
        b.ref_divrem("inplace_divrem", ring, orc, f, g),
    ]


def _cum_remainder(b, ring, orc, rng, shape, n):
    q, lib = ring.q, b.lib
    n = max(n, 2)
    f, g, _ = _dividend(rng, shape, q, n)
    r0 = rand(rng, q, n - 1)
    expect = lambda: [orc.rem(f, g)]
    return [
        b.arena(
            "cs_rwrw.cumulative_remainder", "op", "cumulative_remainder", ring, b.RW,
            [(f, b.IO), (g, b.IO), (r0, b.IO)], lambda a, v: lib.cs_rwrw.cumulative_remainder(*v),
            lambda outs: outs[0] == orc.add(r0, expect()[0]), (2,), (0, 1),
        ),
        b.ref_rem("cumulative_remainder", ring, orc, f, g, expect),
    ]


def _modmul(b, ring, orc, rng, shape, n, any_sizes=False):
    q, lib = ring.q, b.lib
    lf, lg = (shape.randrange(1, 2 * n + 1), shape.randrange(1, 2 * n + 1)) if any_sizes else (n, n)
    f, g, r0 = rand(rng, q, lf), rand(rng, q, lg), rand(rng, q, n)
    p = rand(rng, q, n) + [1]
    name = "modular_mul_any" if any_sizes else "modular_mul"
    ok = lambda outs: outs[0] == orc.add(r0, modmul_ref(lib, ring, f, g, p))
    return [
        b.arena(
            f"cs_rwrw.{name}", "op", name, ring, b.RW, [(f, b.IO), (g, b.IO), (r0, b.IO), (p, b.IO)],
            lambda a, v: getattr(lib.cs_rwrw, name)(*v), ok, (2,), (0, 1, 3),
        ),
        b.plain("bench.modmul_ref", name, ring, lambda: [orc.add(r0, modmul_ref(lib, ring, f, g, p))], ok),
    ]


def _strassen(b, ring, orc, rng, shape, n):
    return [strassen_call(b, ring, rng, 1 << (n.bit_length() - 1) // 2, metric=False)]


def _bilinear_kara(b, ring, orc, rng, shape, n):
    """The emitted in-place 2D Karatsuba program, recursing through
    exec_program on half blocks down to scalar pairs."""
    q, lib = ring.q, b.lib
    n = max(2, n + n % 2)
    bi = lib.bilinear_inplace
    instrs = bi.emit_inplace_2d(bi.karatsuba2_program(ring, two_d=True))

    def pair_op(target, xb, yb):
        half = len(xb) // 2
        if half == 0 or len(xb) % 2:
            lib.cs_rwrw.cumulative_karatsuba(xb, yb, target)
            return
        lib.bilinear_inplace.exec_program(instrs, xb, yb, target, (2, 2, 3), block_len=half, pair_op=pair_op)

    f, g, h0 = rand(rng, q, n), rand(rng, q, n), rand(rng, q, 2 * n - 1)
    return [
        b.arena(
            "bilinear_inplace.exec_program", "op", "exec_program", ring, b.RW, [(f, b.IO), (g, b.IO), (h0, b.IO)],
            lambda a, v: lib.bilinear_inplace.exec_program(instrs, *v, (2, 2, 3), block_len=n // 2, pair_op=pair_op),
            product_check(orc, f, g, h0), (2,), (0, 1),
        ),
        b.kit_full("exec_program", ring, f, g, lambda outs: outs[0] == orc.mul(f, g)),
    ]


# (spec, needs roots of unity)
SMALL_OPS = [
    (_products, False), (_lower, False), (_upper, False), (_semi_lower, False), (_middle, False),
    (_series_inv, False), (_series_div, False), (_div_smallspace, False), (_divrem_cs, False),
    (_remainder_ss, False), (_mp_eval, False), (_partial_interp, False), (_interp, False),
    (_cum_kara, False), (_cum_slice, False), (_cum_lower, False), (_convolution, False),
    (_partial_ft, True), (_fft_mul, True), (_inplace_lower, False), (_inplace_series_div, False),
    (_remainder_rwrw, False), (_inplace_divrem, False), (_cum_remainder, False),
    (_modmul, False), (lambda *a: _modmul(*a, any_sizes=True), False), (_strassen, False), (_bilinear_kara, False),
]


def small_ops(lib, rng, small=False):
    """A fixed list: each public space-efficient op SMALL_OPS_PER_OP times at
    log-uniform sizes 1..128 over 97, 469762049 and 2**61-1, each call with
    its reference.  FFT ops run only where the prime has the roots."""
    b = Builder(lib)
    rings = {q: lib.coeff_ring.Zq(q) for q in (SMALL_PRIME, FFT_PRIME, M61)}
    oracles = {q: Oracle(lib, r) for q, r in rings.items()}
    plan = random.Random(SMALL_OPS_LIST_SEED)
    for spec, needs_roots in SMALL_OPS:
        for _ in range(1 if small else SMALL_OPS_PER_OP):
            n = max(1, round(2 ** plan.uniform(0, 7)))
            primes = (SMALL_PRIME, FFT_PRIME) if needs_roots else (SMALL_PRIME, FFT_PRIME, M61)
            q = plan.choice(primes)
            if needs_roots and q == SMALL_PRIME:
                n = min(n, 16)
            if small:
                n = min(n, 8)
            b.add(*spec(b, rings[q], oracles[q], rng, plan, n))
    return b.calls


WORKLOADS = {
    "fft_product": fft_product,
    "rwrw_inplace": rwrw_inplace,
    "rorw_reductions": rorw_reductions,
    "small_ops": small_ops,
}


def fingerprint(calls, rng) -> int:
    """Hash of the generated arena inputs and of the generator's final
    state, to check that a seed gives the same inputs each time."""
    h = hash(rng.getstate())
    for c in calls:
        for vals, perm in c.segments:
            h = hash((h, c.name, perm, tuple(vals)))
    return h


def geomean(xs):
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
