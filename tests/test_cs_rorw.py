import random

import pytest

from polyarena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, PolyView, Zq, build_arena
from polyarena import cs_rorw
from polyarena.ops import SPECS, build, distinct_nonzero
from polyarena.dense_ref import BLOCK, KIT, _pairs, divrem, horner_eval, interp_tree, mp_eval_tree, schoolbook_mul, series_inv
from polyarena.errors import (
    BadScratch,
    DuplicatePoint,
    NonUnitConstant,
    NonUnitLeading,
    PermissionDenied,
    PreconditionLowNonzero,
    PreconditionTopNonzero,
    ScratchTooSmall,
    SizeContract,
    ZeroPointWithShift,
)
from helpers import LAYOUTS, RING97, check, low_product, rand_poly, zero_tail

RNG = random.Random(7)
Q = 97


def ro_arena(*segments):
    return build_arena(RING97, RO_RW, *segments)


def test_semi_cumulative_product_examples():
    arena, (f, g, h) = ro_arena(([1, 2], INPUT_ONLY), ([3, 4], INPUT_ONLY), ([5, 0, 0], INOUT))
    cs_rorw.semi_cumulative_product(f, g, h)
    assert h.tolist() == [8, 10, 8]

    arena, (f, g, h) = ro_arena(([0, 0], INPUT_ONLY), ([3, 4], INPUT_ONLY), ([9, 0, 0], INOUT))
    cs_rorw.semi_cumulative_product(f, g, h)
    assert h.tolist() == [9, 0, 0]

    n = 65
    fd = rand_poly(RNG, Q, n)
    gd = rand_poly(RNG, Q, n)
    h0 = rand_poly(RNG, Q, n - 1) + [0] * n
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), (h0, INOUT))
    cs_rorw.semi_cumulative_product(f, g, h)
    full = schoolbook_mul(RING97, fd, gd)
    assert h.tolist() == [(h0[i] + full[i]) % Q for i in range(2 * n - 1)]
    assert f.tolist() == fd and g.tolist() == gd
    assert arena.metrics.pointer_depth_highwater <= 1


def test_semi_cumulative_product_precondition():
    arena, (f, g, h) = ro_arena(([1, 2], INPUT_ONLY), ([3, 4], INPUT_ONLY), ([0, 7, 0], INOUT))
    with pytest.raises(PreconditionTopNonzero):
        cs_rorw.semi_cumulative_product(f, g, h)


def test_ro_enforcement_is_live():
    arena, (f, g, h) = ro_arena(([1, 2], INPUT_ONLY), ([3, 4], INPUT_ONLY), ([0, 0, 0], INOUT))
    with pytest.raises(PermissionDenied):
        f.set(0, 9)


def test_lower_product_examples():
    arena, (f, g, h) = ro_arena(([3, 5, 2], INPUT_ONLY), ([4, 1, 0], INPUT_ONLY), ([0] * 3, INOUT))
    cs_rorw.lower_product_cs(f, g, h)
    assert h.tolist() == [12, 23, 13]

    gd = rand_poly(RNG, Q, 10)
    arena, (f, g, h) = ro_arena(([1] + [0] * 9, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * 10, INOUT))
    cs_rorw.lower_product_cs(f, g, h)
    assert h.tolist() == gd

    n = 70
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.lower_product_cs(f, g, h)
    assert h.tolist() == low_product(RING97, fd, gd, n)
    assert arena.metrics.pointer_depth_highwater <= 1


def test_semi_cumulative_lower_examples():
    arena, (f, g, h) = ro_arena(
        ([3, 5, 2, 0], INPUT_ONLY), ([4, 1, 0, 0], INPUT_ONLY), ([0, 0, 7, 9], INOUT)
    )
    cs_rorw.semi_cumulative_lower(f, g, h, 2)
    assert h.tolist() == [12, 23, 20, 11]

    # s = n reduces to the plain lower product
    n = 24
    fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.semi_cumulative_lower(f, g, h, n)
    assert h.tolist() == low_product(RING97, fd, gd, n)

    n, s = 64, 16
    fd = rand_poly(RNG, Q, n)
    gd = rand_poly(RNG, Q, s)
    h0 = [0] * s + rand_poly(RNG, Q, n - s)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), (h0, INOUT))
    cs_rorw.semi_cumulative_lower(f, g, h, s)
    expect = low_product(RING97, fd, gd, n)
    assert h.tolist() == [(h0[i] + expect[i]) % Q for i in range(n)]


def test_semi_cumulative_lower_precondition():
    arena, (f, g, h) = ro_arena(([1, 2], INPUT_ONLY), ([1, 2], INPUT_ONLY), ([5, 0], INOUT))
    with pytest.raises(PreconditionLowNonzero):
        cs_rorw.semi_cumulative_lower(f, g, h, 1)


def test_middle_product_examples():
    arena, (f, g, h) = ro_arena(([3, 5, 2], INPUT_ONLY), ([4, 1], INPUT_ONLY), ([0, 0], INOUT))
    cs_rorw.middle_product_cs(f, g, h)
    assert h.tolist() == [23, 13]

    fd = rand_poly(RNG, Q, 12)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), ([1], INPUT_ONLY), ([0] * 12, INOUT))
    cs_rorw.middle_product_cs(f, g, h)
    assert h.tolist() == fd

    m = n = 50
    fd = rand_poly(RNG, Q, m + n - 1)
    gd = rand_poly(RNG, Q, n)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * m, INOUT))
    cs_rorw.middle_product_cs(f, g, h)
    full = schoolbook_mul(RING97, fd, gd)
    assert h.tolist() == [full[n - 1 + d] if n - 1 + d < len(full) else 0 for d in range(m)]
    assert arena.metrics.pointer_depth_highwater <= 1


def test_series_inv_examples():
    arena, (f, g) = ro_arena(([1, 0, 0, 0], INPUT_ONLY), ([0] * 4, INOUT))
    cs_rorw.series_inv_cs(f, g)
    assert g.tolist() == [1, 0, 0, 0]

    arena, (f, g) = ro_arena(([1, 1, 0, 0, 0, 0, 0, 0], INPUT_ONLY), ([0] * 8, INOUT))
    cs_rorw.series_inv_cs(f, g)
    assert g.tolist() == [1, 96, 1, 96, 1, 96, 1, 96]

    n = 100
    fd = [RNG.randrange(1, Q)] + rand_poly(RNG, Q, n - 1)
    arena, (f, g) = ro_arena((fd, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.series_inv_cs(f, g)
    assert low_product(RING97, fd, g.tolist(), n) == [1] + [0] * (n - 1)
    with pytest.raises(NonUnitConstant):
        arena, (f, g) = ro_arena(([0, 1], INPUT_ONLY), ([0, 0], INOUT))
        cs_rorw.series_inv_cs(f, g)


def test_series_inv_ladder_invariant():
    # partial output is the exact inverse at every announced precision
    for _ in range(20):
        n = RNG.randrange(2, 80)
        fd = [RNG.randrange(1, Q)] + rand_poly(RNG, Q, n - 1)
        arena, (f, g) = ro_arena((fd, INPUT_ONLY), ([0] * n, INOUT))
        seen = []

        def check(k):
            seen.append(k)
            assert low_product(RING97, fd[:k], g.tolist()[:k], k) == [1] + [0] * (k - 1)

        cs_rorw.series_inv_cs(f, g, ladder=check)
        assert seen[-1] == n


def test_series_div_examples():
    fd = rand_poly(RNG, Q, 12)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), ([1] + [0] * 11, INPUT_ONLY), ([0] * 12, INOUT))
    cs_rorw.series_div_cs(f, g, h)
    assert h.tolist() == fd

    arena, (f, g, h) = ro_arena(([1, 0, 0, 0], INPUT_ONLY), ([1, 1, 0, 0], INPUT_ONLY), ([0] * 4, INOUT))
    cs_rorw.series_div_cs(f, g, h)
    assert h.tolist() == [1, 96, 1, 96]

    n = 90
    fd = rand_poly(RNG, Q, n)
    gd = [RNG.randrange(1, Q)] + rand_poly(RNG, Q, n - 1)
    arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.series_div_cs(f, g, h)
    assert low_product(RING97, gd, h.tolist(), n) == fd


def test_series_div_ladder_invariant():
    for _ in range(20):
        n = RNG.randrange(2, 80)
        fd = rand_poly(RNG, Q, n)
        gd = [RNG.randrange(1, Q)] + rand_poly(RNG, Q, n - 1)
        arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))

        def check(k):
            assert low_product(RING97, gd[:k], h.tolist()[:k], k) == fd[:k]

        cs_rorw.series_div_cs(f, g, h, ladder=check)


def test_inplace_div_smallspace():
    n = 40
    fd = rand_poly(RNG, Q, n)
    gd = [RNG.randrange(1, Q)] + rand_poly(RNG, Q, n - 1)
    # s = n cross-checks against the read-only variant
    arena, (f, g, t) = build_arena(RING97, RW_RW, (fd, INOUT), (gd, INPUT_ONLY), ([0] * n, SCRATCH))
    cs_rorw.inplace_div_smallspace(f, g, t)
    arena2, (f2, g2, h2) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))
    cs_rorw.series_div_cs(f2, g2, h2)
    assert f.tolist() == h2.tolist()

    arena, (f, g, t) = build_arena(RING97, RW_RW, (gd, INOUT), (gd, INPUT_ONLY), ([0] * 8, SCRATCH))
    cs_rorw.inplace_div_smallspace(f, g, t)
    assert f.tolist() == [1] + [0] * (n - 1)

    n, s = 64, 8
    fd = rand_poly(RNG, Q, n)
    gd = [RNG.randrange(1, Q)] + rand_poly(RNG, Q, n - 1)
    arena, (f, g, t) = build_arena(RING97, RW_RW, (fd, INOUT), (gd, INPUT_ONLY), ([0] * s, SCRATCH))
    cs_rorw.inplace_div_smallspace(f, g, t)
    assert low_product(RING97, gd, f.tolist(), n) == fd
    assert arena.metrics.extra_algebraic_highwater <= s

    with pytest.raises(ScratchTooSmall):
        arena, (f, g, t) = build_arena(RING97, RW_RW, (fd, INOUT), (gd, INPUT_ONLY), ([0] * 4, SCRATCH))
        cs_rorw.inplace_div_smallspace(f, g, t)


def test_divrem_examples():
    arena, (f, g, q, r) = ro_arena(
        ([1, 2, 0, 1], INPUT_ONLY), ([1, 1], INPUT_ONLY), ([0] * 3, INOUT), ([0], INOUT)
    )
    cs_rorw.divrem_cs(f, g, q, r)
    assert q.tolist() == [3, 96, 1] and r.tolist() == [95]

    gd = rand_poly(RNG, Q, 9) + [RNG.randrange(1, Q)]
    arena, (f, g, q, r) = ro_arena((gd, INPUT_ONLY), (gd, INPUT_ONLY), ([0], INOUT), ([0] * 9, INOUT))
    cs_rorw.divrem_cs(f, g, q, r)
    assert q.tolist() == [1] and r.tolist() == [0] * 9

    m, n = 120, 17
    fd = rand_poly(RNG, Q, m + n - 1)
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    arena, (f, g, q, r) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * m, INOUT), ([0] * (n - 1), INOUT))
    cs_rorw.divrem_cs(f, g, q, r)
    eq, er = divrem(RING97, fd, gd)
    assert q.tolist() == eq and r.tolist() == er
    assert f.tolist() == fd and g.tolist() == gd

    # f = g has m = 1, below the balanced regime but still well defined
    gd = rand_poly(RNG, Q, 9) + [RNG.randrange(1, Q)]
    arena, (f, g, q, r) = ro_arena((gd, INPUT_ONLY), (gd, INPUT_ONLY), ([0], INOUT), ([0] * 9, INOUT))
    cs_rorw.divrem_cs(f, g, q, r)
    assert q.tolist() == [1] and r.tolist() == [0] * 9

    with pytest.raises(SizeContract):
        arena, (f, g, q, r) = ro_arena(
            ([1, 2, 3], INPUT_ONLY), ([1, 1, 1], INPUT_ONLY), ([0, 0], INOUT), ([0, 0], INOUT)
        )
        cs_rorw.divrem_cs(f, g, q, r)  # q has the wrong size
    with pytest.raises(NonUnitLeading):
        arena, (f, g, q, r) = ro_arena(([1, 2, 3], INPUT_ONLY), ([1, 0], INPUT_ONLY), ([0, 0], INOUT), ([0], INOUT))
        cs_rorw.divrem_cs(f, g, q, r)


def test_remainder_smallspace():
    # s = n-1 agrees with the oracle
    m, n, s = 30, 12, 11
    fd = rand_poly(RNG, Q, m + n - 1)
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    arena, (f, g, r, t) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * s, SCRATCH))
    cs_rorw.remainder_smallspace(f, g, r, t)
    assert r.tolist() == divrem(RING97, fd, gd)[1]

    # g = x^(n-1): remainder is the low coefficients
    n = 9
    gd = [0] * (n - 1) + [1]
    fd = rand_poly(RNG, Q, 20 + n - 1)
    arena, (f, g, r, t) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * 4, SCRATCH))
    cs_rorw.remainder_smallspace(f, g, r, t)
    assert r.tolist() == fd[: n - 1]

    m, n, s = 80, 17, 4
    fd = rand_poly(RNG, Q, m + n - 1)
    gd = rand_poly(RNG, Q, n - 1) + [RNG.randrange(1, Q)]
    arena, (f, g, r, t) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * s, SCRATCH))
    cs_rorw.remainder_smallspace(f, g, r, t)
    assert r.tolist() == divrem(RING97, fd, gd)[1]
    assert arena.metrics.extra_algebraic_highwater <= s

    with pytest.raises(BadScratch):
        arena, (f, g, r, t) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * n, SCRATCH))
        cs_rorw.remainder_smallspace(f, g, r, t)


def test_mp_eval_examples():
    arena, (f, out) = ro_arena(([42], INPUT_ONLY), ([0], INOUT))
    cs_rorw.mp_eval_cs(f, [5], out)
    assert out.tolist() == [42]

    arena, (f, out) = ro_arena(([1, 1], INPUT_ONLY), ([0, 0], INOUT))
    cs_rorw.mp_eval_cs(f, [0, 1], out)
    assert out.tolist() == [1, 2]

    # up to 3 * BLOCK points no batch is reduced: Horner per point, one frame
    for n in (7, 96, 384):
        fd = rand_poly(RNG, Q, n)
        pts = [RNG.randrange(Q) for _ in range(n)]
        arena, (f, out) = ro_arena((fd, INPUT_ONLY), ([0] * n, INOUT))
        cs_rorw.mp_eval_cs(f, pts, out)
        assert out.tolist() == mp_eval_tree(RING97, fd, pts)
        assert arena.metrics.pointer_depth_highwater == 1


# (q, number of points P = len(f), layout of f): from P = 3 BLOCK + 1 = 385
# on, the first batch has BLOCK points and runs the remainder route (one
# batch at 385 and 512, two at 640)
EVAL_CASES = [
    (q, n, layout) for q in (97, 469762049, 2**61 - 1, 2**127 - 1) for n in (385, 512, 640) for layout in LAYOUTS
]

# (fingerprint of every register, extra_algebraic, pointer_depth,
# base_products), by the zone rule of reg_arena.SpaceMetrics (Horner
# counts len(f) per point, so the padded layout counts what the plain one
# does); taken when the Horner cut moved to BLOCK.  The registers,
# extra_algebraic and pointer_depth are those of the cut at 32, which
# reduced these sizes too, base_products lower (165 959 -> 157 514 at 385
# points, 294 206 -> 278 379 at 512, 458 844 -> 447 248 at 640).
# base_products re-taken when the batch remainders and the tail went
# through the chunk kernel (its folds count their _kron products by the
# zone rule, so fewer multiplications count more): 157 514 -> 192 887,
# 278 379 -> 338 534 and 447 248 -> 523 758; the registers did not move
EVAL_PINNED = {
    (97, 385, "plain"): (14969785, 0, 4, 192887),
    (97, 385, "reversed"): (13784565, 0, 4, 192887),
    (97, 385, "padded"): (12742659, 0, 4, 192887),
    (97, 512, "plain"): (24330295, 0, 4, 338534),
    (97, 512, "reversed"): (25750902, 0, 4, 338534),
    (97, 512, "padded"): (15551162, 0, 4, 338534),
    (97, 640, "plain"): (41702755, 0, 4, 523758),
    (97, 640, "reversed"): (41136476, 0, 4, 523758),
    (97, 640, "padded"): (27906325, 0, 4, 523758),
    (469762049, 385, "plain"): (68141755949388, 0, 4, 192887),
    (469762049, 385, "reversed"): (68574166280480, 0, 4, 192887),
    (469762049, 385, "padded"): (33023709292956, 0, 4, 192887),
    (469762049, 512, "plain"): (127105961932423, 0, 4, 338534),
    (469762049, 512, "reversed"): (124643591579297, 0, 4, 338534),
    (469762049, 512, "padded"): (41186317631446, 0, 4, 338534),
    (469762049, 640, "plain"): (190661927209789, 0, 4, 523758),
    (469762049, 640, "reversed"): (186761987665944, 0, 4, 523758),
    (469762049, 640, "padded"): (70550260296566, 0, 4, 523758),
    (2**61 - 1, 385, "plain"): (2069726591077421936, 0, 4, 192887),
    (2**61 - 1, 385, "reversed"): (852002675351241960, 0, 4, 192887),
    (2**61 - 1, 385, "padded"): (290267965768753646, 0, 4, 192887),
    (2**61 - 1, 512, "plain"): (2163683000488200469, 0, 4, 338534),
    (2**61 - 1, 512, "reversed"): (171313172046894751, 0, 4, 338534),
    (2**61 - 1, 512, "padded"): (572597306560938587, 0, 4, 338534),
    (2**61 - 1, 640, "plain"): (586818884319697328, 0, 4, 523758),
    (2**61 - 1, 640, "reversed"): (1199927013020204225, 0, 4, 523758),
    (2**61 - 1, 640, "padded"): (1276961795338104014, 0, 4, 523758),
    (2**127 - 1, 385, "plain"): (1306522612014841144, 0, 4, 192887),
    (2**127 - 1, 385, "reversed"): (533256123328572253, 0, 4, 192887),
    (2**127 - 1, 385, "padded"): (2289992406374384382, 0, 4, 192887),
    (2**127 - 1, 512, "plain"): (975875443928931802, 0, 4, 338534),
    (2**127 - 1, 512, "reversed"): (358888917604068610, 0, 4, 338534),
    (2**127 - 1, 512, "padded"): (2205430188718109896, 0, 4, 338534),
    (2**127 - 1, 640, "plain"): (863201408622352233, 0, 4, 523758),
    (2**127 - 1, 640, "reversed"): (1029334177474178518, 0, 4, 523758),
    (2**127 - 1, 640, "padded"): (1836162422133616253, 0, 4, 523758),
}


def _eval_case(q, n, layout):
    ring = Zq(q)
    rng = random.Random(f"eval-{q}-{n}-{layout}")
    spec = SPECS["mp_eval_cs"]
    x = {"f": rand_poly(rng, q, n), "points": rand_poly(rng, q, n)}
    if layout == "padded":
        x = zero_tail(spec, x, rng)
    arena, views = LAYOUTS[layout](spec, ring, x)
    exact, pinned = _pinned_call(spec, ring, arena, views, x)
    return exact and views.out.tolist() == mp_eval_tree(ring, x["f"], x["points"]), pinned


@pytest.mark.parametrize("case", EVAL_CASES, ids=lambda c: "-".join(map(str, c)))
def test_mp_eval_remainder_route_is_pinned(case):
    exact, pinned = _eval_case(*case)
    assert exact
    assert pinned[2] >= 2  # remainder_smallspace ran
    assert pinned == EVAL_PINNED[case]


def test_partial_interp_examples():
    # s=0, k=n: full interpolation
    arena, (g, out, ws) = ro_arena(([], INPUT_ONLY), ([0, 0], INOUT), ([0] * 20, SCRATCH))
    cs_rorw.partial_interp(g, [(0, 1), (1, 2)], 2, out, ws)
    assert out.tolist() == [1, 1]

    # s=1, known prefix [1], pair (1,2): f = 1 + x so h = [1]
    arena, (g, out, ws) = ro_arena(([1], INPUT_ONLY), ([0], INOUT), ([0] * 12, SCRATCH))
    cs_rorw.partial_interp(g, [(1, 2)], 1, out, ws)
    assert out.tolist() == [1]

    n, s, k = 32, 8, 8
    fd = rand_poly(RNG, Q, n)
    pts = RNG.sample(range(1, Q), n - s)
    vals = [horner_eval(RING97, fd, a) for a in pts]
    arena, (g, out, ws) = ro_arena((fd[:s], INPUT_ONLY), ([0] * k, INOUT), ([0] * (2 * k), SCRATCH))
    cs_rorw.partial_interp(g, list(zip(pts, vals)), k, out, ws)
    assert out.tolist() == fd[s : s + k]

    with pytest.raises(DuplicatePoint):
        cs_rorw.partial_interp(g, [(1, 2), (1, 3)], 1, out, ws)
    with pytest.raises(ZeroPointWithShift):
        cs_rorw.partial_interp(g, [(0, 2), (1, 3)], 1, out, ws)


def test_partial_interp_ragged_blocks():
    # k divides neither the number of pairs nor the chunk size BLOCK
    n, s, k = 23, 3, 5
    fd = rand_poly(RNG, Q, n)
    pts = RNG.sample(range(1, Q), n - s)
    vals = [horner_eval(RING97, fd, a) for a in pts]
    arena, (g, out, ws) = ro_arena((fd[:s], INPUT_ONLY), ([0] * k, INOUT), ([0] * (2 * k), SCRATCH))
    cs_rorw.partial_interp(g, list(zip(pts, vals)), k, out, ws)
    assert out.tolist() == fd[s : s + k]


def test_interp_examples():
    arena, (out,) = ro_arena(([0], INOUT))
    cs_rorw.interp_cs([(5, 7)], out)
    assert out.tolist() == [7]

    arena, (out,) = ro_arena(([0, 0], INOUT))
    cs_rorw.interp_cs([(1, 2), (2, 3)], out)
    assert out.tolist() == [1, 1]

    P = 48
    pts = RNG.sample(range(1, Q), P)
    fd = rand_poly(RNG, Q, P)
    vals = [horner_eval(RING97, fd, a) for a in pts]
    arena, (out,) = ro_arena(([0] * P, INOUT))
    cs_rorw.interp_cs(list(zip(pts, vals)), out)
    assert out.tolist() == fd
    assert interp_tree(RING97, pts, vals) == fd

    with pytest.raises(ZeroPointWithShift):
        arena, (out,) = ro_arena(([0, 0], INOUT))
        cs_rorw.interp_cs([(0, 1), (1, 2)], out)


def _interp_pairs(ring, rng, poly, npts, zero=False):
    """npts distinct points (one of them 0 when zero) and poly's values."""
    pts = distinct_nonzero(rng, ring.q, npts - zero) + [0] * zero
    rng.shuffle(pts)
    return [(a, horner_eval(ring, poly, a)) for a in pts]


def _partial_arena(ring, rng, poly, s, k, layout, w):
    """g = poly[:s] (input-only), out (k slots) and w scratch registers, a
    guard register behind them; reversed: every operand stored back to
    front (out two slots longer than k); padded: g stored without its zero
    top and out as k registers behind a view three slots longer."""
    rev = layout == "reversed"
    g = poly[:s][::-1] if rev else poly[: rng.randrange(0, s + 1) if layout == "padded" else s]
    arena, (gv, out, ws, guard) = build_arena(
        ring, RO_RW, (g, INPUT_ONLY), (rand_poly(rng, ring.q, k + 2 * rev), INOUT),
        (rand_poly(rng, ring.q, w), SCRATCH), ([5], INPUT_ONLY),
    )
    if rev:
        gv, out, ws = gv.rev(), out.rev(), ws.rev()
    elif layout == "padded":
        gv, out = gv.padded(s), out.padded(k + 3)
    return arena, gv, out, ws, guard


def _partial_case(q, npts, s, k, layout, zero=False):
    """partial_interp on npts points of a random poly of s + npts
    coefficients (the top of its known prefix zero on the padded layout),
    with exactly 2k scratch: out[0:k] must be poly[s:s+k]."""
    ring = Zq(q)
    rng = random.Random(f"partial-{q}-{npts}-{s}-{k}-{layout}-{zero}")
    poly = rand_poly(rng, q, s + npts)
    arena, g, out, ws, guard = _partial_arena(ring, rng, poly, s, k, layout, 2 * k)
    poly[:s] = g.tolist()
    pairs = _interp_pairs(ring, rng, poly, npts, zero)
    cs_rorw.partial_interp(g, pairs, k, out, ws)
    assert out.tolist()[:k] == poly[s : s + k], (q, npts, s, k, layout, zero)
    assert g.tolist() == poly[:s] and guard.tolist() == [5 % q]
    assert arena.metrics.extra_algebraic_highwater <= 2 * k
    assert arena.metrics.pointer_depth_highwater == 1


def test_partial_interp_scratch_is_2k():
    # exactly 2k scratch registers suffice; with 2k - 1 the call is refused
    # before it writes a register, counts one or enters a call
    q = 469762049
    ring = Zq(q)
    rng = random.Random("partial-2k")
    for npts, s, k in ((1, 0, 1), (5, 2, 1), (12, 0, 4), (40, 3, 13), (100, 7, 33), (70, 0, 70)):
        _partial_case(q, npts, s, k, "plain")
        poly = rand_poly(rng, q, s + npts)
        arena, g, out, ws, guard = _partial_arena(ring, rng, poly, s, k, "plain", 2 * k - 1)
        before = list(arena.regs)
        with pytest.raises(BadScratch):
            cs_rorw.partial_interp(g, _interp_pairs(ring, rng, poly, npts), k, out, ws)
        assert arena.regs == before
        m = arena.metrics
        assert (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products, m.depth) == (0, 0, 0, 0)


@pytest.mark.parametrize("q", (2, 3, 97, 469762049, 2**127 - 1))
def test_partial_interp_zero_point(q):
    # a zero point (s = 0 only) has no series: M0 and the weight w_0 carry
    # it; k = 1 (w_0 alone), 2 and npts, the zero at a seeded position
    # among up to 130 points (past one chunk of BLOCK)
    for npts in [n for n in (1, 2, 3, 5, 33, 70, 130) if n <= q]:
        for k in sorted({1, min(2, npts), npts}):
            for layout in ("plain", "reversed", "padded"):
                _partial_case(q, npts, 0, k, layout, zero=True)


def _interp_rounds(n):
    """Rounds of interp_cs on n points: k = rem // 3 while rem > BLOCK."""
    rounds = 0
    while n > BLOCK:
        n -= n // 3
        rounds += 1
    return rounds


# the sizes around every change in interp_cs's number of rounds, around the
# first round whose k passes BLOCK (387 points), and around 12 and 32,
# the tail and chunk cuts before both became BLOCK
ROUND_SIZES = sorted(
    {m for n in range(2, 400) if _interp_rounds(n) != _interp_rounds(n - 1) for m in (n - 1, n)}
    | {12, 13, 32, 33, 386, 387}
)


def _sweep_sizes(q):
    """Every size a small prime holds; ROUND_SIZES on the large ones (up
    to 136 points above 2^64, where every product costs more)."""
    if q <= 97:
        return list(range(1, q))
    return [n for n in ROUND_SIZES if q < 2**64 or n <= 136]


@pytest.mark.parametrize("q", (2, 3, 97, 469762049, 2**127 - 1))
def test_interpolation_oracle_sweep(q):
    # interp_cs on plain and reversed outputs (its output is all written,
    # so it has no padded form) and partial_interp on the plain, reversed
    # and padded layouts of _partial_arena, against the polynomial the
    # values came from; partial_interp's (s, k) cycle with the size
    ring = Zq(q)
    for n in _sweep_sizes(q):
        rng = random.Random(f"sweep-{q}-{n}")
        poly = rand_poly(rng, q, n)
        pairs = _interp_pairs(ring, rng, poly, n)
        for layout in ("plain", "reversed"):
            arena, (out, guard) = build_arena(ring, RO_RW, (rand_poly(rng, q, n), INOUT), ([5], INPUT_ONLY))
            cs_rorw.interp_cs(pairs, out.rev() if layout == "reversed" else out)
            assert (out.rev() if layout == "reversed" else out).tolist() == poly, (q, n, layout)
            assert arena.metrics.extra_algebraic_highwater == 0 and guard.tolist() == [5 % q]
        s = (0, 1, 5)[n % 3]
        k = (1, 2, max(1, n // 3), min(n, BLOCK + 1), n)[n % 5]
        for layout in ("plain", "reversed", "padded"):
            _partial_case(q, n, s, min(k, n), layout)


# the chunk cuts of the interpolation weights: one chunk up to BLOCK
# points, one group of GROUP chunks up to GROUP * BLOCK (= 512), then
# chunks whose moduli are rebuilt for each group (513); a chunk's series
# past its points from 385 on (97 holds fewer points: the sweep above
# takes it at every size)
CHUNK_POINTS = (127, 128, 129, 256, 257, 385, 386, 513)


@pytest.mark.parametrize("q", (469762049, 2**61 - 1, 2**127 - 1))
def test_interpolation_across_the_chunk_cuts(q):
    # interp_cs on plain and reversed outputs against interp_tree, and
    # partial_interp on the plain, reversed and padded layouts, without a
    # known prefix and k a round's third (even sizes), or with one and k
    # one past BLOCK (odd sizes); above 2^32, one layout per size
    ring = Zq(q)
    for n in CHUNK_POINTS:
        rng = random.Random(f"chunk-cuts-{q}-{n}")
        poly = rand_poly(rng, q, n)
        pairs = _interp_pairs(ring, rng, poly, n)
        want = interp_tree(ring, [a for a, _ in pairs], [b for _, b in pairs])
        for layout in ("plain", "reversed"):
            arena, (out, guard) = build_arena(ring, RO_RW, (rand_poly(rng, q, n), INOUT), ([5], INPUT_ONLY))
            cs_rorw.interp_cs(pairs, out.rev() if layout == "reversed" else out)
            assert (out.rev() if layout == "reversed" else out).tolist() == want, (q, n, layout)
            assert arena.metrics.extra_algebraic_highwater == 0 and guard.tolist() == [5]
        s, k = ((0, n // 3), (5, min(n, BLOCK + 1)))[n % 2]
        layouts = ("plain", "reversed", "padded")
        for layout in layouts if q < 2**32 else layouts[n % 3 : n % 3 + 1]:
            _partial_case(q, n, s, k, layout)


@pytest.mark.parametrize("q", (97, 469762049, 2**61 - 1, 2**127 - 1))
def test_mp_eval_across_the_chunk_cuts(q):
    # P points around the chunk cuts and the first batch (385), f of P and
    # of 3P coefficients, on the plain, reversed and padded layouts, against
    # mp_eval_tree; the inputs come back bit-exact
    ring = Zq(q)
    spec = SPECS["mp_eval_cs"]
    for P in (128, 256, 384, 385, 513):
        for n in (P, 3 * P):
            rng = random.Random(f"eval-cuts-{q}-{P}-{n}")
            x = {"f": rand_poly(rng, q, n), "points": rand_poly(rng, q, P)}
            padded = zero_tail(spec, x, rng)
            for layout, xl in (("plain", x), ("reversed", x), ("padded", padded)):
                if layout != "reversed":
                    want = mp_eval_tree(ring, xl["f"], xl["points"])
                arena, views = LAYOUTS[layout](spec, ring, xl)
                spec.call(views, xl)
                assert views.out.tolist() == want, (q, P, n, layout)
                assert views.f.tolist() == xl["f"]


def test_inputs_never_modified():
    # byte-identical inputs after every ro/rw operation on random data
    for _ in range(25):
        n = RNG.randrange(1, 60)
        fd, gd = rand_poly(RNG, Q, n), rand_poly(RNG, Q, n)
        arena, (f, g, h) = ro_arena((fd, INPUT_ONLY), (gd, INPUT_ONLY), ([0] * n, INOUT))
        cs_rorw.lower_product_cs(f, g, h)
        assert f.tolist() == fd and g.tolist() == gd


# (entry, size): the scalar base paths of the reductions.  divrem_cs at
# divisor sizes 1-5 (the naive division),
# series_inv_cs at n = 2-4 and 40, series_div_cs at n = 1-3 and 30 (both
# last sizes end in the recurrence tail), middle_product_cs with 1-3 output
# rows and g padded at both ends, remainder_smallspace with s = 1 and
# s = n - 1 for a divisor of 12 coefficients, inplace_div_smallspace with
# 5 scratch registers
BASE_CASES = (
    [("divrem_cs", n) for n in range(1, 6)]
    + [("series_inv_cs", n) for n in (2, 3, 4, 40)]
    + [("series_div_cs", n) for n in (1, 2, 3, 30)]
    + [("middle_product_cs", m) for m in (1, 2, 3)]
    + [("remainder_smallspace", s) for s in (1, 11)]
    + [("inplace_div_smallspace", 40)]
)

# (fingerprint of every register, extra_algebraic, pointer_depth,
# base_products), taken before the base cases shared one recurrence helper;
# divrem_cs at n = 2-5 re-taken when its naive remainder became one
# _slice_naive pass, which counts the n (n - 1) / 2 products the scalar
# loop did not (the fingerprints did not move); base_products re-taken
# once _div_recurrence counted its products (the zone rule)
BASE_PINNED = {
    ("divrem_cs", 1): (40456861421, 0, 1, 8),
    ("divrem_cs", 2): (43713317692, 0, 1, 16),
    ("divrem_cs", 3): (63063844963, 0, 1, 24),
    ("divrem_cs", 4): (72261358652, 0, 1, 32),
    ("divrem_cs", 5): (102112989973, 0, 1, 40),
    ("series_inv_cs", 2): (3474747677, 0, 1, 2),
    ("series_inv_cs", 3): (5872123408, 0, 1, 5),
    ("series_inv_cs", 4): (5465163334, 0, 1, 9),
    ("series_inv_cs", 40): (836793845606, 0, 1, 819),
    ("series_div_cs", 1): (1993276534, 0, 1, 1),
    ("series_div_cs", 2): (3810043537, 0, 1, 3),
    ("series_div_cs", 3): (10003489858, 0, 1, 6),
    ("series_div_cs", 30): (934189851746, 0, 2, 492),
    ("middle_product_cs", 1): (12207473919, 0, 1, 4),
    ("middle_product_cs", 2): (19507143011, 0, 1, 8),
    ("middle_product_cs", 3): (25534267099, 0, 1, 12),
    ("remainder_smallspace", 1): (527142339440, 1, 3, 348),
    ("remainder_smallspace", 11): (683345119658, 11, 3, 354),
    ("inplace_div_smallspace", 40): (703161989447, 2, 2, 820),
}


def _base_case(entry, n):
    ring = Zq(469762049)
    q = ring.q
    rng = random.Random(f"base-{entry}-{n}")

    def unit():
        return rng.randrange(1, q)

    x = {
        "divrem_cs": lambda: {"f": rand_poly(rng, q, n + 7), "g": rand_poly(rng, q, n - 1) + [unit()]},
        "series_inv_cs": lambda: {"f": [unit()] + rand_poly(rng, q, n - 1)},
        "series_div_cs": lambda: {"f": rand_poly(rng, q, n), "g": [unit()] + rand_poly(rng, q, n - 1)},
        "middle_product_cs": lambda: {"f": rand_poly(rng, q, n + 5), "g": [0] + rand_poly(rng, q, 4) + [0]},
        "remainder_smallspace": lambda: {"f": rand_poly(rng, q, 40), "g": rand_poly(rng, q, 11) + [unit()], "scratch": n},
        "inplace_div_smallspace": lambda: {"f": rand_poly(rng, q, n), "g": [unit()] + rand_poly(rng, q, n - 1), "scratch": 5},
    }[entry]()
    spec = SPECS[entry]
    arena, views = build(spec, ring, x)
    if entry == "middle_product_cs":
        views.g = views.g.sub(1, 5).window(-1, 5)
    return _pinned_call(spec, ring, arena, views, x)


def _pinned_call(spec, ring, arena, views, x):
    """Call the entry on built views: (its check passed, (fingerprint of
    every register, extra_algebraic, pointer_depth, base_products))."""
    spec.call(views, x)
    exact = spec.check(ring, x, {name: getattr(views, name).tolist() for name in spec.outputs})
    fingerprint = sum(i * v for i, v in enumerate(arena.regs, 1)) % (2**61 - 1)
    m = arena.metrics
    return exact, (fingerprint, m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products)


@pytest.mark.parametrize("case", BASE_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_base_paths_are_pinned(case):
    exact, pinned = _base_case(*case)
    assert exact
    assert pinned == BASE_PINNED[case]


# (entry, len(f), len(g), s): long chunk loops, whose chunks of r outputs
# are one naive pass while r <= BLOCK.  remainder_smallspace with a
# 100-coefficient divisor and s = 8 (46 chunks of 2) or 64 (chunks of 21),
# and a 520-coefficient divisor with s = 387 (chunks of 129, above BLOCK);
# semi_cumulative_lower at n = 800 with s = 6, 384 (chunks of 128 = BLOCK)
# and 387 (chunks of 129); divrem_cs with divisors of 40,
# 385 = 3 * BLOCK + 1 (chunks of 128) and 388 (chunks of 129)
CHUNK_CASES = (
    [("remainder_smallspace", m, n, s) for m, n, s in ((300, 100, 8), (300, 100, 64), (1200, 520, 387))]
    + [("semi_cumulative_lower", 800, 800, s) for s in (6, 384, 387)]
    + [("divrem_cs", lf, n, None) for lf, n in ((400, 40), (1600, 385), (1600, 388))]
)

# goldens taken while every chunk was its own kit call; base_products
# re-taken under the zone rule (zero rows count, and so do the recurrence
# and Horner).  The sizes around the BLOCK cut (the 520-coefficient
# divisor, n = 800, the divisors of 385 and 388) taken when the product cut
# moved to BLOCK: their registers, extra_algebraic and pointer_depth are
# those of the cut at BASE, their base_products higher
CHUNK_PINNED = {
    ("remainder_smallspace", 300, 100, 8): (29813430110987, 8, 3, 20100),
    ("remainder_smallspace", 300, 100, 64): (35810425912790, 64, 3, 20375),
    ("remainder_smallspace", 1200, 520, 387): (827837825188560, 387, 3, 362477),
    ("semi_cumulative_lower", 800, 800, 6): (694964477331796, 0, 2, 320400),
    ("semi_cumulative_lower", 800, 800, 384): (675652715825270, 0, 2, 320400),
    ("semi_cumulative_lower", 800, 800, 387): (675711626089978, 0, 2, 320400),
    ("divrem_cs", 400, 40, None): (82915639932270, 0, 3, 14683),
    ("divrem_cs", 1600, 385, None): (1506922417803145, 0, 3, 478825),
    ("divrem_cs", 1600, 388, None): (1498175697408271, 0, 3, 480874),
}


def _chunk_case(entry, lf, lg, s):
    ring = Zq(469762049)
    q = ring.q
    rng = random.Random(f"chunk-{entry}-{lf}-{lg}-{s}")
    if entry == "semi_cumulative_lower":
        x = {"s": s, "f": rand_poly(rng, q, lf), "g": rand_poly(rng, q, lg), "h": [0] * s + rand_poly(rng, q, lf - s)}
    else:
        x = {"f": rand_poly(rng, q, lf), "g": rand_poly(rng, q, lg - 1) + [rng.randrange(1, q)]}
        if s:
            x["scratch"] = s
    spec = SPECS[entry]
    return _pinned_call(spec, ring, *build(spec, ring, x), x)


@pytest.mark.parametrize("case", CHUNK_CASES, ids=lambda c: "-".join(map(str, c)))
def test_chunk_loops_are_pinned(case):
    exact, pinned = _chunk_case(*case)
    assert exact
    assert pinned == CHUNK_PINNED[case]


def test_partial_interp_ignores_what_its_registers_held():
    # out and the exact 2k scratch start with random values: the moduli are
    # built from zero and the sums start from a vzero, so nothing a
    # register held on entry is read; sizes up to 80 pass one chunk
    spec = SPECS["partial_interp"]
    for q in (97, 469762049, 2**61 - 1):
        ring = Zq(q)
        rng = random.Random(f"garbage-{q}")
        for _ in range(300):
            x = spec.gen(ring, rng, rng.randrange(2, 80))
            x = {**x, "out": rand_poly(rng, q, x["k"]), "w": rand_poly(rng, q, 2 * x["k"])}
            arena, views = build(spec, ring, x)
            spec.call(views, x)
            assert spec.check(ring, x, {"out": views.out.tolist()}), x


def _interp_case(entry, q, n, s=0, k=None):
    """(fingerprint of the output, extra_algebraic, pointer_depth,
    base_products) of interp_cs on n points, or of partial_interp on n - s
    points with s known coefficients and block size k."""
    ring = Zq(q)
    rng = random.Random(f"interp-{entry}-{q}-{n}-{s}-{k}")
    poly = rand_poly(rng, q, n)
    pts = distinct_nonzero(rng, q, n - s)
    x = {"pairs": [(a, horner_eval(ring, poly, a)) for a in pts], "poly": poly}
    if entry == "partial_interp":
        x.update(g=poly[:s], k=k)
    spec = SPECS[entry]
    arena, views = build(spec, ring, x)
    spec.call(views, x)
    out = views.out.tolist()
    assert spec.check(ring, x, {"out": out})
    m = arena.metrics
    fingerprint = sum(i * v for i, v in enumerate(out, 1)) % (2**61 - 1)
    return fingerprint, m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products


# fingerprints taken while partial_interp still ran block Lagrange rounds
# (8k + 4 scratch, k = (rem - 4) // 9 in interp_cs): they stay.  The
# scratch it writes may only shrink; scratch and products were re-taken
# when each round became one power series (2k scratch, k = rem // 3), with
# the count rule of reg_arena.SpaceMetrics, and products and depths again
# when the last round became that series on BLOCK points or fewer (interp_cs
# on up to 128 points runs no partial_interp, so its depth is 1), and
# products again when the weights came from chunk residues (the chunk
# kernel counts its modulus, mulmods, folds and Horner, where the products
# of differences counted nothing), and at 200 points once a chunk's series
# past its points came in blocks of BLOCK (_series_tail: the low product
# by 1 / m counts more than the recurrence on m did)
INTERP_PINNED = {
    ("interp_cs", 469762049, 13): (21537879548, 0, 1, 547),
    ("interp_cs", 469762049, 30): (102041529444, 0, 1, 2823),
    ("interp_cs", 469762049, 64): (536019546244, 0, 1, 12615),
    ("interp_cs", 469762049, 200): (4968637747648, 0, 2, 211012),
    ("interp_cs", 97, 40): (45653, 0, 1, 4988),
    ("partial_interp", 469762049, 12, 0, 12): (24293317820, 24, 1, 571),
    ("partial_interp", 469762049, 23, 3, 5): (3289358823, 10, 1, 955),
    ("partial_interp", 469762049, 40, 10, 3): (1638074597, 6, 1, 1958),
    ("partial_interp", 469762049, 64, 0, 7): (7622411724, 14, 1, 7439),
    ("partial_interp", 469762049, 70, 5, 40): (236777632447, 80, 1, 12544),
    ("partial_interp", 97, 30, 4, 6): (1154, 12, 1, 1565),
}


@pytest.mark.parametrize("case", list(INTERP_PINNED), ids=lambda c: "-".join(map(str, c)))
def test_interpolation_is_pinned(case):
    fingerprint, scratch, depth, products = _interp_case(*case)
    pin = INTERP_PINNED[case]
    assert (fingerprint, depth, products) == (pin[0], pin[2], pin[3])
    assert scratch <= pin[1]
    if case[0] == "interp_cs":
        assert scratch == pin[1]


# the interpolation and evaluation row kernels

KERNEL_PRIMES = (97, 469762049, 2**127 - 1)


@pytest.mark.parametrize("q", KERNEL_PRIMES)
@pytest.mark.parametrize("kind", ["plain", "reversed"])
@pytest.mark.parametrize("r", (6, 75, 300))
def test_build_modulus_is_the_truncated_product(q, kind, r):
    # dst = prod (x - a) mod x^t on a scratch view that starts at register 0
    # (the reversed slice then runs to the front of the file) and held
    # garbage; the input-only register behind it stays untouched.  Roots
    # go in groups of BLOCK (two full groups and a short one at r = 300)
    ring = Zq(q)
    rng = random.Random(f"modulus-{q}-{kind}-{r}")
    roots = [0, q - 1] + [rng.randrange(q) for _ in range(r - 2)]
    rng.shuffle(roots)
    full = [1]
    for a in roots:
        full = schoolbook_mul(ring, full, [-a % q, 1])
    for t in (1, 2, 7, r, r + 1, r + 4):
        arena, (dst, guard) = build_arena(ring, RO_RW, (rand_poly(rng, q, t), SCRATCH), ([5], INPUT_ONLY))
        if kind == "reversed":
            dst = dst.rev()
        cs_rorw._build_modulus(dst, iter(roots))
        assert dst.tolist() == (full + [0] * t)[:t]
        assert guard.tolist() == [5]
        assert arena.metrics.extra_algebraic_highwater == t


def _metrics():
    return build_arena(RING97, RO_RW, ([0], SCRATCH))[0].metrics


def _kernel(ring, rng, c):
    """A _Chunk on c < q distinct points (0 and q - 1 among them when c
    allows) and its modulus by schoolbook products."""
    xs = list(dict.fromkeys([0, ring.q - 1] + distinct_nonzero(rng, ring.q, c)))[:c]
    rng.shuffle(xs)
    m = [1]
    for a in xs:
        m = schoolbook_mul(ring, m, [-a % ring.q, 1])
    return cs_rorw._Chunk(xs, ring.q, _metrics()), m


@pytest.mark.parametrize("q", KERNEL_PRIMES + (2**61 - 1,))
def test_chunk_kernel_fold_is_the_remainder(q):
    # the kernel's modulus is the product of its (x - a); fold is divrem's
    # remainder by it, from below one window to several BLOCK windows (the
    # Barrett inverse grown between folds), and the polynomial itself when
    # it is no longer than deg m; mulmod is the remainder of the product;
    # the values at the points, folded first or not, are horner_eval's
    ring = Zq(q)
    rng = random.Random(f"fold-{q}")
    for c in (1, 2, 17, BLOCK - 1, BLOCK):
        if c >= q:
            continue
        chunk, m = _kernel(ring, rng, c)
        assert chunk.m == m
        for n in (0, 1, c, c + 1, 2 * c, BLOCK + c, 3 * BLOCK + 5):
            f = rand_poly(rng, q, n)
            r = chunk.fold(lambda i, j: f[i:j], n)
            assert (r + [0] * c)[:c] == divrem(ring, f, m)[1], (c, n)
            assert len(r) == min(n, c)
        inv = chunk.inv
        assert schoolbook_mul(ring, m[::-1], inv)[: len(inv)] == [1] + [0] * (len(inv) - 1)
        for la, lb in ((c, c), (1, c + 1), (c, c + 1)):
            a, b = rand_poly(rng, q, la), rand_poly(rng, q, lb)
            assert chunk.mulmod(a, b) == divrem(ring, schoolbook_mul(ring, a, b), m)[1], (c, la, lb)
        for n in (c, 2 * c, 3 * BLOCK + 5):
            f = rand_poly(rng, q, n)
            assert chunk.at(lambda i, j: f[i:j], n) == [horner_eval(ring, f, a) for a in chunk.xs], (c, n)


@pytest.mark.parametrize("q", KERNEL_PRIMES)
def test_series_tail_is_the_series_quotient(q):
    # the blocks of _series_tail, in order, are the coefficients t .. n - 1
    # of N / m (series_inv times N), for moduli of t nonzero points up to
    # BLOCK, lengths up to one block past t and across several blocks
    ring = Zq(q)
    rng = random.Random(f"series-tail-{q}")
    for t in (1, 2, 17, BLOCK - 1, BLOCK):
        if t >= q:
            continue
        m = [1]
        for a in distinct_nonzero(rng, q, t):
            m = schoolbook_mul(ring, m, [-a % q, 1])
        num = rand_poly(rng, q, t)
        for n in (t + 1, t + BLOCK, t + BLOCK + 1, 3 * BLOCK + 7):
            series = (schoolbook_mul(ring, num, series_inv(ring, m, n)) + [0] * n)[:n]
            got = list(cs_rorw._series_tail(m, series[:t], n, q, _metrics()))
            assert [i for i, _ in got] == list(range(t, n, BLOCK))
            assert [v for _, blk in got for v in blk] == series[t:], (t, n)


@pytest.mark.parametrize("q", KERNEL_PRIMES)
def test_weights_are_the_products_of_differences(q):
    # _weights on every group of chunks of pts (zero among the points when
    # nothing is known): each chunk's weights are (b - g(a)) / (a^s prod
    # (a - b)) over all the other points, and its inverses those of its
    # nonzero points; the sizes cross one chunk, one group and a rebuilt
    # chunk past the group, and g is folded (at least twice its chunk) or not
    ring = Zq(q)
    rng = random.Random(f"weights-{q}")
    for npts, s in ((1, 0), (5, 3), (40, 100), (BLOCK, 0), (BLOCK + 1, 10), (cs_rorw.GROUP * BLOCK + 3, 0), (200, 300)):
        if npts >= q:
            continue
        xs = distinct_nonzero(rng, q, npts - (s == 0)) + [0] * (s == 0)
        rng.shuffle(xs)
        pts = [(a, rng.randrange(q)) for a in xs]
        gd = rand_poly(rng, q, s)
        arena, (g,) = build_arena(ring, RO_RW, (gd, INPUT_ONLY))
        got = []
        for lo in range(0, npts, cs_rorw.GROUP * BLOCK):
            got += cs_rorw._weights(g, pts, lo, min(lo + cs_rorw.GROUP * BLOCK, npts))
        assert len(got) == -(-npts // BLOCK)
        for j, (chunk, ws, rs) in enumerate(got):
            for (a, b), w in zip(pts[j * BLOCK : (j + 1) * BLOCK], ws):
                den = pow(a, s, q)
                for x in xs:
                    if x != a:
                        den = den * (a - x) % q
                assert w * den % q == (b - horner_eval(ring, gd, a)) % q, (npts, s, a)
            assert rs == [ring.inv(a) for a in chunk.xs if a]


def test_batch_inverses_match_pow():
    for q in (2, 3, 97, 469762049, 2**127 - 1):
        rng = random.Random(f"inverses-{q}")
        for n in (1, 2, 9):
            vals = [rng.randrange(1, q) for _ in range(n)]
            assert cs_rorw._inverses(vals, q) == [pow(v, -1, q) for v in vals]


@pytest.mark.parametrize("q", KERNEL_PRIMES)
def test_eval_chunks_match_horner_eval(q):
    # _eval_chunks on plain, reversed and padded views of f, short (Horner
    # on f) and long (folded) against the chunks, with fewer and more than
    # EVAL_MIN points, and an empty f
    ring = Zq(q)
    rng = random.Random(f"eval-chunks-{q}")
    for n, P in ((0, 3), (1, 1), (17, 9), (40, 9), (40, 20), (300, 130), (3 * BLOCK, BLOCK)):
        fd = rand_poly(rng, q, n)
        pts = [rng.randrange(q) for _ in range(P)]
        arena, (f, out) = build_arena(ring, RO_RW, (fd, INPUT_ONLY), ([0] * P, INOUT))
        for view, coeffs in ((f, fd), (f.rev(), fd[::-1]), (f.window(-2, n + 3), [0, 0] + fd + [0, 0, 0])):
            cs_rorw._eval_chunks(view, pts, 0, P, out)
            assert out.tolist() == [horner_eval(ring, coeffs, a) for a in pts], (n, P)


def _tree_products(r, t):
    """_local_modulus's count on r roots mod x^t: one per live coefficient
    per root in its leaves of LEAF, then _pairs of each merge; and the
    length of the product."""
    count, level = 0, []
    for i in range(0, r, cs_rorw.LEAF):
        size = min(cs_rorw.LEAF, r - i)
        count += sum(min(j + 1, t) for j in range(1, size + 1))
        level.append(min(size + 1, t))
    while len(level) > 1:
        merged = []
        for a, b in zip(level[::2], level[1::2]):
            merged.append(min(t, a + b - 1))
            count += _pairs(a, b, 0, merged[-1])
        level = merged + level[len(merged) * 2 :]
    return count, level[0] if level else 1


def _modulus_products(t, r):
    """A modulus build's count over r roots: each group of at most BLOCK
    roots by _local_modulus's rule, and every group after the first its
    product with the live row."""
    count, live = _tree_products(min(r, BLOCK), t)
    for j in range(BLOCK, r, BLOCK):
        c, size = _tree_products(min(BLOCK, r - j), t)
        new = min(t, live + size - 1)
        count += c + _pairs(live, size, 0, new)
        live = new
    return count


@pytest.mark.parametrize("zero", (False, True), ids=("random", "zero"))
def test_row_kernels_count_their_products(zero):
    # Horner counts len(r) per point, padding included; a modulus build its
    # groups' trees and their products with the live row
    # (_modulus_products); zero values count the same
    q = 469762049
    ring = Zq(q)
    rng = random.Random(f"row-counts-{zero}")
    for n in (0, 1, 5, 40):
        fd = [0] * n if zero else rand_poly(rng, q, n)
        arena, (f, out) = build_arena(ring, RO_RW, (fd, INPUT_ONLY), ([0] * 3, INOUT))
        for view in (f, f.rev(), f.window(-2, n + 3)):
            before = arena.metrics.base_products
            cs_rorw._eval_chunks(view, [rng.randrange(q) for _ in range(3)], 0, 3, out)
            assert arena.metrics.base_products - before == 3 * len(view)
    for t in (1, 2, 7, 40):
        for k in (0, 1, 3, 10, 45, 80, 300):
            roots = [0] * k if zero else rand_poly(rng, q, k)
            arena, (dst,) = build_arena(ring, RO_RW, (rand_poly(rng, q, t), SCRATCH))
            cs_rorw._build_modulus(dst, roots)
            assert arena.metrics.base_products == _modulus_products(t, k)


def test_interp_cs_makes_no_scalar_loop(monkeypatch):
    # the moduli, the series and Horner run on list slices:
    # a linear number of scalar view calls, where a scalar loop makes ~n^2
    counts = {"get": 0, "set": 0}
    for name in counts:
        orig = getattr(PolyView, name)

        def counted(self, *args, _orig=orig, _name=name):
            counts[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(PolyView, name, counted)
    n = 200
    ring = Zq(469762049)
    rng = random.Random("scalar-calls")
    fd = rand_poly(rng, ring.q, n)
    pts = distinct_nonzero(rng, ring.q, n)
    arena, (out,) = build_arena(ring, RO_RW, ([0] * n, INOUT))
    cs_rorw.interp_cs([(a, horner_eval(ring, fd, a)) for a in pts], out)
    assert out.tolist() == fd
    assert counts["get"] + counts["set"] <= 5 * n, counts


# Up to BLOCK the product loops stop reducing: each makes its one naive
# pass while its block k is at most BLOCK and reduces once k > BLOCK, that
# is from n = 644 for semi_cumulative_product (k = (n + 1) // 5), from
# n = 645 for lower_product_cs (k = n // 5) and from m = 516 output rows
# for middle_product_cs (k = m // 4)
CUTS = (("semi_cumulative_product", 643, 644), ("lower_product_cs", 644, 645), ("middle_product_cs", 515, 516))

CUT_PRIMES = (97, 469762049, 2**61 - 1, 2**127 - 1)
CUT_CASES = [
    (entry, n, q, layout)
    for entry, *sizes in CUTS
    for n in sizes
    for q in CUT_PRIMES
    for layout in LAYOUTS
]


def _cut_input(entry, n, ring, layout):
    """Seeded input of size n (m output rows for middle_product_cs, with a
    37-coefficient g)."""
    rng = random.Random(f"cut-{entry}-{n}-{ring.q}-{layout}")
    spec = SPECS[entry]
    if entry == "middle_product_cs":
        x = {"f": rand_poly(rng, ring.q, n + 36), "g": rand_poly(rng, ring.q, 37)}
    else:
        x = spec.gen(ring, rng, n)
    return zero_tail(spec, x, rng) if layout == "padded" else x


def _cut_case(entry, n, q, layout):
    """Run one entry on one layout through helpers.check (exact output,
    inputs untouched); returns (extra_algebraic, pointer_depth,
    base_products)."""
    ring = Zq(q)
    m = check(SPECS[entry], ring, _cut_input(entry, n, ring, layout), layout).metrics
    return m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products


# taken when the cuts moved to BLOCK (extra_algebraic and pointer_depth as
# at the BASE cut, base_products by the zone rule); the sizes above each
# cut reduce as before
CUT_PINNED = {
    ('semi_cumulative_product', 643, 97, 'plain'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 97, 'reversed'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 97, 'padded'): (0, 1, 349792),
    ('semi_cumulative_product', 643, 469762049, 'plain'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 469762049, 'reversed'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 469762049, 'padded'): (0, 1, 115097),
    ('semi_cumulative_product', 643, 2**61 - 1, 'plain'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 2**61 - 1, 'reversed'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 2**61 - 1, 'padded'): (0, 1, 279062),
    ('semi_cumulative_product', 643, 2**127 - 1, 'plain'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 2**127 - 1, 'reversed'): (0, 1, 413449),
    ('semi_cumulative_product', 643, 2**127 - 1, 'padded'): (0, 1, 369082),
    ('semi_cumulative_product', 644, 97, 'plain'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 97, 'reversed'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 97, 'padded'): (0, 1, 230818),
    ('semi_cumulative_product', 644, 469762049, 'plain'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 469762049, 'reversed'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 469762049, 'padded'): (0, 1, 213445),
    ('semi_cumulative_product', 644, 2**61 - 1, 'plain'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 2**61 - 1, 'reversed'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 2**61 - 1, 'padded'): (0, 1, 247638),
    ('semi_cumulative_product', 644, 2**127 - 1, 'plain'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 2**127 - 1, 'reversed'): (0, 1, 378011),
    ('semi_cumulative_product', 644, 2**127 - 1, 'padded'): (0, 1, 256338),
    ('lower_product_cs', 644, 97, 'plain'): (0, 1, 207690),
    ('lower_product_cs', 644, 97, 'reversed'): (0, 1, 207690),
    ('lower_product_cs', 644, 97, 'padded'): (0, 1, 162840),
    ('lower_product_cs', 644, 469762049, 'plain'): (0, 1, 207690),
    ('lower_product_cs', 644, 469762049, 'reversed'): (0, 1, 207690),
    ('lower_product_cs', 644, 469762049, 'padded'): (0, 1, 199305),
    ('lower_product_cs', 644, 2**61 - 1, 'plain'): (0, 1, 207690),
    ('lower_product_cs', 644, 2**61 - 1, 'reversed'): (0, 1, 207690),
    ('lower_product_cs', 644, 2**61 - 1, 'padded'): (0, 1, 205979),
    ('lower_product_cs', 644, 2**127 - 1, 'plain'): (0, 1, 207690),
    ('lower_product_cs', 644, 2**127 - 1, 'reversed'): (0, 1, 207690),
    ('lower_product_cs', 644, 2**127 - 1, 'padded'): (0, 1, 164912),
    ('lower_product_cs', 645, 97, 'plain'): (0, 1, 208335),
    ('lower_product_cs', 645, 97, 'reversed'): (0, 1, 208335),
    ('lower_product_cs', 645, 97, 'padded'): (0, 1, 203775),
    ('lower_product_cs', 645, 469762049, 'plain'): (0, 1, 208335),
    ('lower_product_cs', 645, 469762049, 'reversed'): (0, 1, 208335),
    ('lower_product_cs', 645, 469762049, 'padded'): (0, 1, 46170),
    ('lower_product_cs', 645, 2**61 - 1, 'plain'): (0, 1, 208335),
    ('lower_product_cs', 645, 2**61 - 1, 'reversed'): (0, 1, 208335),
    ('lower_product_cs', 645, 2**61 - 1, 'padded'): (0, 1, 164970),
    ('lower_product_cs', 645, 2**127 - 1, 'plain'): (0, 1, 208335),
    ('lower_product_cs', 645, 2**127 - 1, 'reversed'): (0, 1, 208335),
    ('lower_product_cs', 645, 2**127 - 1, 'padded'): (0, 1, 172557),
    ('middle_product_cs', 515, 97, 'plain'): (0, 1, 19055),
    ('middle_product_cs', 515, 97, 'reversed'): (0, 1, 19055),
    ('middle_product_cs', 515, 97, 'padded'): (0, 1, 11433),
    ('middle_product_cs', 515, 469762049, 'plain'): (0, 1, 19055),
    ('middle_product_cs', 515, 469762049, 'reversed'): (0, 1, 19055),
    ('middle_product_cs', 515, 469762049, 'padded'): (0, 1, 18204),
    ('middle_product_cs', 515, 2**61 - 1, 'plain'): (0, 1, 19055),
    ('middle_product_cs', 515, 2**61 - 1, 'reversed'): (0, 1, 19055),
    ('middle_product_cs', 515, 2**61 - 1, 'padded'): (0, 1, 17427),
    ('middle_product_cs', 515, 2**127 - 1, 'plain'): (0, 1, 19055),
    ('middle_product_cs', 515, 2**127 - 1, 'reversed'): (0, 1, 19055),
    ('middle_product_cs', 515, 2**127 - 1, 'padded'): (0, 1, 18278),
    ('middle_product_cs', 516, 97, 'plain'): (0, 1, 19092),
    ('middle_product_cs', 516, 97, 'reversed'): (0, 1, 19092),
    ('middle_product_cs', 516, 97, 'padded'): (0, 1, 10693),
    ('middle_product_cs', 516, 469762049, 'plain'): (0, 1, 19092),
    ('middle_product_cs', 516, 469762049, 'reversed'): (0, 1, 19092),
    ('middle_product_cs', 516, 469762049, 'padded'): (0, 1, 18315),
    ('middle_product_cs', 516, 2**61 - 1, 'plain'): (0, 1, 19092),
    ('middle_product_cs', 516, 2**61 - 1, 'reversed'): (0, 1, 19092),
    ('middle_product_cs', 516, 2**61 - 1, 'padded'): (0, 1, 630),
    ('middle_product_cs', 516, 2**127 - 1, 'plain'): (0, 1, 19092),
    ('middle_product_cs', 516, 2**127 - 1, 'reversed'): (0, 1, 19092),
    ('middle_product_cs', 516, 2**127 - 1, 'padded'): (0, 1, 3700),
}


@pytest.mark.parametrize("case", CUT_CASES, ids=lambda c: "-".join(map(str, c)))
def test_product_loop_cuts_are_pinned(case):
    assert _cut_case(*case) == CUT_PINNED[case]


def test_product_loops_below_the_cut_make_no_kit_call(monkeypatch):
    calls = []
    for name in ("full_into", "slice_acc", "mid_unbalanced_acc"):
        orig = getattr(KIT, name)

        def counted(*args, _orig=orig, _name=name, **kw):
            calls.append(_name)
            return _orig(*args, **kw)

        monkeypatch.setattr(KIT, name, counted)
    ring = Zq(469762049)
    for entry, below, above in CUTS:
        spec = SPECS[entry]
        for n, reduces in ((below, False), (above, True)):
            x = _cut_input(entry, n, ring, "plain")
            views = build(spec, ring, x)[1]
            calls.clear()
            spec.call(views, x)
            assert bool(calls) == reduces, (entry, n, calls)
