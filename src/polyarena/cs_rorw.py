"""Constant-space algorithms in the ro/rw permission model.

Inputs are read-only; the output region doubles as workspace, shrinking as
results are produced.  Every product runs on the one MulKit instance of
dense_ref, and each reduction derives its block threshold from the kit's
declared scratch factor MulKit.c, so nothing here hard-codes c = 2.

Below those thresholds every power-series division (inversion, quotient,
the quotient of a Euclidean division read through reversed views) is
dense_ref._div_recurrence, the one naive division, which cs_rwrw._ipd's
leaf runs too.

Up to the kit's product cut dense_ref.BLOCK, where every product is one
Kronecker product (dense_ref._kron) anyway, no product is reduced block by
block.  The product loops semi_cumulative_product, lower_product_cs and
middle_product_cs make one dense_ref._slice_naive pass over what is left
once their block k is at most BLOCK, and MulKit.slice_acc, which
semi_cumulative_lower and divrem_cs call with the workspace they have, is
one _slice_naive pass when its chunks are at most BLOCK long: the same
writes and base products as its chunks' naive mid_acc calls, with no views
or workspace per chunk.
The division and evaluation cut is dense_ref.BASE: mp_eval_cs evaluates
by Horner per point once a batch would hold fewer than BASE points, and
the interpolation groups hold at most BASE points.  The naive Euclidean
division in divrem_cs (divisors of at most c + 3 coefficients) takes its
remainder by one _slice_naive pass.  Every base case counts its base
products by the rule of reg_arena.SpaceMetrics.

Tail recursions are written as loops (no call-stack growth); an operation
enters the call ledger once at its public boundary, so the tail-recursive
reductions report pointer depth 1.  Before that, each entry point checks
its outputs and scratch blocks (`require_writable`), so a call refused for
its permissions leaves the registers and the metrics as it found them.

Declared scalar budgets (Python locals per arithmetic statement): at most
four per loop below (one running product per interpolation weight, over
at most BASE differences at a time), except the small-size interpolation
tail: one block of at most twelve values.  The row kernels of evaluation
and interpolation hold one row as a transient of one statement, as the
region ops and dense_ref._slice_naive do: _build_modulus its prefix of
at most len(dst) values and a group product of at most BASE + 1,
partial_interp one point's row and its chunk's sum, at most BASE values
each, _horner_view the polynomial it reads; dense_ref._div_recurrence
holds one block of at most BASE values.  _build_modulus writes its rows
itself under one claim, the vzero of its whole register block, never
once per row or coefficient; partial_interp lands its sums through vacc,
vset and vadd.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, pairwise, repeat
from math import prod
from operator import add, sub

from .coeff_ring import Zq
from .dense_ref import BASE, BLOCK, KIT, _div_recurrence, _kron, _pairs, _slice_naive
from .errors import (
    BadScratch,
    DuplicatePoint,
    NonUnitConstant,
    NonUnitLeading,
    PreconditionLowNonzero,
    PreconditionTopNonzero,
    ScratchTooSmall,
    SizeContract,
    ZeroPointWithShift,
    check_sign,
)
from .reg_arena import PolyView, _slc, require_writable, vacc, vadd, vcopy, vscale, vset, vzero


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def semi_cumulative_product(f: PolyView, g: PolyView, h: PolyView):
    """h += f * g where the top n coefficients of h start out zero.

    The known-zero top of h is the workspace; the tail call shrinks all
    three windows to the top halves.
    """
    n = len(f)
    if len(g) != n or len(h) != 2 * n - 1:
        raise SizeContract("need sizes (n, n, 2n-1)")
    for i in range(n - 1, 2 * n - 1):
        if h.get(i):
            raise PreconditionTopNonzero(f"h[{i}] != 0")
    require_writable(h)
    with h.arena.call():
        while True:
            c = KIT.c
            k = (n + 1) // (c + 3)
            if k <= BLOCK:
                _slice_naive(h, g, f, 0)
                return
            ws = h.sub(n + k - 1, 2 * n - 1)
            fb = f.sub(0, k)
            gb = g.sub(0, k)
            p = ws.sub(0, 2 * k - 1)
            rest = ws.sub(2 * k - 1, len(ws))
            nb = (n + k - 1) // k
            for j in range(nb):
                gj = g.sub(j * k, min((j + 1) * k, n)).padded(k)
                KIT.full_into(p, fb, gj, rest)
                vadd(h.sub(j * k, min(j * k + 2 * k - 1, n + k - 1)), p)
            nb = (n - k + k - 1) // k
            for j in range(nb):
                fj = f.sub(k + j * k, min(k + (j + 1) * k, n)).padded(k)
                KIT.full_into(p, fj, gb, rest)
                vadd(h.sub(k + j * k, min(k + j * k + 2 * k - 1, n + k - 1)), p)
            vzero(ws)
            f = f.sub(k, n)
            g = g.sub(k, n)
            h = h.sub(2 * k, len(h))
            n -= k


def lower_product_cs(f: PolyView, g: PolyView, h: PolyView, reversed_mode: bool = False):
    """h = f * g mod x^n; with reversed_mode, h (n-1 slots) = (f*g) quo x^n.

    The upper product is the lower product of the reversed tails, read and
    written through reversal views.
    """
    n = len(f)
    if len(g) != n:
        raise SizeContract("need equal input sizes")
    if reversed_mode:
        if len(h) != n - 1:
            raise SizeContract("upper product output has n-1 slots")
        if n <= 1:
            return
        lower_product_cs(f.sub(1, n).rev(), g.sub(1, n).rev(), h.rev())
        return
    if len(h) != n:
        raise SizeContract("lower product output has n slots")
    require_writable(h)
    with h.arena.call():
        while True:
            c = KIT.c
            k = n // (c + 3)
            if k <= BLOCK:
                vzero(h)
                _slice_naive(h, f, g, 0)
                return
            top = h.sub(n - k, n)
            vzero(top)
            ws = h.sub(0, n - k)
            KIT.slice_acc(top, f.sub(0, n), g.sub(0, n), n - k, ws)
            f = f.sub(0, n - k)
            g = g.sub(0, n - k)
            h = ws
            n -= k


def semi_cumulative_lower(f: PolyView, g: PolyView, h: PolyView, s: int, sign: int = 1):
    """h += sign * (f * g mod x^n) given h mod x^s = 0.

    The zero prefix of h is the only workspace: the part above s is filled
    in chunks whose kit scratch fits below s (one naive pass when the chunks
    are at most BLOCK long), and the prefix itself is one self-contained
    lower product at the end.
    """
    check_sign(sign)
    n = len(h)
    if not 1 <= s <= n:
        raise BadScratch(f"s = {s} outside [1, {n}]")
    for i in range(min(s, n)):
        if h.get(i):
            raise PreconditionLowNonzero(f"h[{i}] != 0")
    require_writable(h)
    with h.arena.call():
        KIT.slice_acc(h.sub(s, n), f, g, s, h.sub(0, s), sign)
        ns = min(s, n)
        low = h.sub(0, ns)
        fv = f.sub(0, min(len(f), ns)).padded(ns)
        gv = g.sub(0, min(len(g), ns)).padded(ns)
        lower_product_cs(fv, gv, low)
        if sign < 0:
            vscale(low, -1)


def middle_product_cs(f: PolyView, g: PolyView, h: PolyView):
    """h = central slice [f * g]_{n-1}^{m+n-1} for sizes (m+n-1, n, m)."""
    n = len(g)
    m = len(h)
    if len(f) != m + n - 1:
        raise SizeContract("need len(f) = len(h) + len(g) - 1")
    require_writable(h)
    with h.arena.call():
        while True:
            c = KIT.c
            k = m // (c + 2)
            if k <= BLOCK:
                vzero(h)
                _slice_naive(h, f, g, n - 1)
                return
            dst = h.sub(0, k)
            vzero(dst)
            ws = h.sub(k, m)
            KIT.mid_unbalanced_acc(dst, f.sub(0, n - 1 + k), g, ws)
            f = f.sub(k, len(f))
            h = h.sub(k, m)
            m -= k


# ---------------------------------------------------------------------------
# power series inversion and division
# ---------------------------------------------------------------------------


def series_inv_cs(f: PolyView, g: PolyView, ladder=None):
    """g = f^{-1} mod x^n by a space-throttled Newton iteration.

    Each round computes ell new coefficients with a middle and a lower
    product whose workspace lives in the not-yet-written part of g; ell
    shrinks as g fills up.  `ladder` is called with the precision reached
    after every round (used by the loop-invariant tests).
    """
    n = len(f)
    if len(g) != n:
        raise SizeContract("output must match input precision")
    f0 = f.get(0)
    if f0 == 0:
        raise NonUnitConstant("series has no inverse")
    require_writable(g)
    with g.arena.call():
        g.set(0, f.arena.ring.inv(f0))
        if ladder:
            ladder(1)
        c = KIT.c
        k, ell = 1, min(1, (n - 1) // (c + 2))
        while ell > 0:
            dst = g.sub(n - ell, n)
            vzero(dst)
            KIT.mid_unbalanced_acc(dst, f.sub(1, k + ell), g.sub(0, k), g.sub(k, n - ell))
            out = g.sub(k, k + ell)
            vzero(out)
            KIT.low_acc(out, g.sub(0, ell), dst, g.sub(k + ell, n - ell), -1)
            k += ell
            if ladder:
                ladder(k)
            ell = min(k, (n - k) // (c + 2))
        if k < n:
            # constant-size tail (all of g past g[0] when n < c + 3) by the
            # recurrence for 1 / f, whose numerator is 0 past index 0
            _div_recurrence(g.sub(0, 0).padded(n), f, g, k, n)
            if ladder:
                ladder(n)


def series_div_cs(f: PolyView, g: PolyView, h: PolyView, ladder=None):
    """h = f / g mod x^n with g(0) a unit.

    The inverse of g at the initial precision is parked in reversed order
    at the top of h and consumed as the output grows toward it.
    """
    n = len(f)
    if len(g) != n or len(h) != n:
        raise SizeContract("need three size-n operands")
    if g.get(0) == 0:
        raise NonUnitConstant("divisor constant term is zero")
    require_writable(h)
    with h.arena.call():
        c = KIT.c
        k = n // (c + 2)
        if k == 0:
            _div_recurrence(f, g, h, 0, n)
            if ladder:
                ladder(n)
            return
        inv_rev = h.sub(n - k, n).rev()
        series_inv_cs(g.sub(0, k), inv_rev)
        dst = h.sub(0, k)
        vzero(dst)
        KIT.low_acc(dst, f.sub(0, k), inv_rev, h.sub(k, n - k))
        if ladder:
            ladder(k)
        ell = (n - k) // (c + 3)
        while ell > 0:
            stage = h.sub(n - 2 * ell, n - ell)
            vzero(stage)
            KIT.mid_unbalanced_acc(stage, g.sub(1, k + ell), h.sub(0, k), h.sub(k, n - 2 * ell), -1)
            vadd(stage, f.sub(k, k + ell))
            out = h.sub(k, k + ell)
            vzero(out)
            KIT.low_acc(out, stage, h.sub(n - ell, n).rev(), h.sub(k + ell, n - 2 * ell))
            k += ell
            if ladder:
                ladder(k)
            ell = (n - k) // (c + 3)
        if k < n:
            # the parked inverse is partly overwritten by now; finish with
            # the quotient recurrence, which needs no inverse at all
            _div_recurrence(f, g, h, k, n)
            if ladder:
                ladder(n)


def inplace_div_smallspace(f: PolyView, g: PolyView, t: PolyView):
    """Replace f by f / g mod x^n using only the scratch block t of size s.

    Computes the inverse of g at precision s // (c+3) once into t, then
    emits that many new quotient coefficients per round, overwriting the
    dividend block just consumed.
    """
    n = len(f)
    if len(g) != n:
        raise SizeContract("dividend and divisor must share precision")
    s = len(t)
    if g.get(0) == 0:
        raise NonUnitConstant("divisor constant term is zero")
    if s < KIT.c + 3:
        raise ScratchTooSmall(f"need scratch >= {KIT.c + 3}, got {s}")
    require_writable(f, t)
    with f.arena.call():
        step = min(s // (KIT.c + 3), n)
        inv = t.sub(0, step)
        series_inv_cs(g.sub(0, step), inv)
        stage = t.sub(step, 2 * step)
        vzero(stage)
        KIT.low_acc(stage, f.sub(0, step), inv, t.sub(2 * step, s))
        vcopy(f.sub(0, step), stage, step)
        k = step
        while k < n:
            ell = min(step, n - k)
            stage = t.sub(step, step + ell)
            vzero(stage)
            KIT.mid_unbalanced_acc(stage, g.sub(1, k + ell), f.sub(0, k), t.sub(step + ell, s), -1)
            vadd(stage, f.sub(k, k + ell))
            out = f.sub(k, k + ell)
            vzero(out)
            KIT.low_acc(out, stage, inv.sub(0, ell), t.sub(step + ell, s))
            k += ell


def _revdiv_inplace(u: PolyView, div_rev: PolyView, scratch: PolyView):
    """u <- u / div_rev mod x^len(u), in place; naive when scratch is tiny."""
    b = len(u)
    if b == 0:
        return
    if len(scratch) >= KIT.c + 3 and b > KIT.c + 3:
        inplace_div_smallspace(u, div_rev, scratch)
        return
    _div_recurrence(u, div_rev, u, 0, b)


# ---------------------------------------------------------------------------
# Euclidean division
# ---------------------------------------------------------------------------


def divrem_cs(f: PolyView, g: PolyView, q_out: PolyView, r_out: PolyView):
    """Quotient and remainder of f by g, computed block by block from the
    top; the remainder slots serve as division scratch until the very end."""
    n = len(g)
    m = len(f) - n + 1
    if m < 0:
        raise SizeContract(f"dividend too short: m = {m}")
    if len(q_out) != m or len(r_out) != n - 1:
        raise SizeContract("output sizes must be (m, n-1)")
    if n == 0 or g.get(n - 1) == 0:
        raise NonUnitLeading("divisor leading coefficient is zero")
    require_writable(q_out, r_out)
    with q_out.arena.call():
        if m == 0:
            vcopy(r_out, f, n - 1)
            return
        if n - 1 < KIT.c + 3:
            # the quotient, top down, is the series quotient of the reversals
            _div_recurrence(f.sub(n - 1, m + n - 1).rev(), g.rev(), q_out.rev(), 0, m)
            vcopy(r_out, f, n - 1)
            _slice_naive(r_out, q_out, g, 0, -1)
            return
        nblocks = (m + n - 1) // n
        top = m - (nblocks - 1) * n
        j = nblocks - 1
        blk = q_out.sub(j * n, j * n + top)
        vcopy(blk, f.sub(n - 1 + j * n, n - 1 + j * n + top), top)
        _revdiv_inplace(blk.rev(), g.sub(n - top, n).rev(), r_out)
        while j > 0:
            above = blk
            j -= 1
            blk = q_out.sub(j * n, (j + 1) * n)
            vcopy(blk, f.sub(n - 1 + j * n, n - 1 + (j + 1) * n), n)
            KIT.slice_acc(blk.sub(1, n), g.sub(0, n - 1), above.sub(0, min(len(above), n - 1)), 0, r_out, -1)
            _revdiv_inplace(blk.rev(), g.rev(), r_out)
        q0 = q_out.sub(0, min(m, n - 1)).padded(n - 1)
        lower_product_cs(g.sub(0, n - 1), q0, r_out)
        vscale(r_out, -1)
        vadd(r_out, f.sub(0, n - 1))


def remainder_smallspace(f: PolyView, g: PolyView, r_out: PolyView, t: PolyView):
    """r = f mod g with an extra block t of size s <= n-1; the quotient is
    produced one size-s block at a time inside t and immediately folded
    into the sliding correction window r."""
    n = len(g)
    m = len(f) - n + 1
    s = len(t)
    if len(r_out) != n - 1:
        raise SizeContract("remainder has n-1 slots")
    if g.get(n - 1) == 0:
        raise NonUnitLeading("divisor leading coefficient is zero")
    if n > 1 and not 1 <= s <= n - 1:
        raise BadScratch(f"need 1 <= s <= {n - 1}, got {s}")
    require_writable(r_out, t)
    if m < 0:
        vcopy(r_out, f.padded(len(f) + (n - 1 - len(f))), n - 1)
        return
    with r_out.arena.call():
        if n == 1:
            return
        blocks = m // s
        head = m - blocks * s
        if head:
            vcopy(t.sub(0, head), f.sub(m + n - 1 - head, m + n - 1), head)
            _revdiv_inplace(t.sub(0, head).rev(), g.sub(n - head, n).rev(), r_out)
            gv = g.sub(0, n - 1).padded(n - 1)
            tv = t.sub(0, head).padded(n - 1)
            lower_product_cs(gv, tv, r_out)
            vscale(r_out, -1)
        else:
            vzero(r_out)
        vcopy(t.sub(0, s), r_out.sub(n - 1 - s, n - 1), s)
        vadd(t.sub(0, s), f.sub(n - 1 + (blocks - 1) * s, n - 1 + blocks * s))
        for j in range(blocks - 1, -1, -1):
            # shift r up by s; vcopy reads all of its source before writing
            vcopy(r_out.sub(s, n - 1), r_out.sub(0, n - 1 - s))
            _revdiv_inplace(t.sub(0, s).rev(), g.sub(n - s, n).rev(), r_out.sub(0, s))
            vzero(r_out.sub(0, s))
            semi_cumulative_lower(g.sub(0, n - 1), t.sub(0, s), r_out, s, sign=-1)
            vcopy(t.sub(0, s), r_out.sub(n - 1 - s, n - 1), s)
            vadd(t.sub(0, s), f.sub(n - 1 + (j - 1) * s, n - 1 + j * s))
        vcopy(r_out.sub(n - 1 - s, n - 1), t.sub(0, s), s)
        vadd(r_out.sub(0, n - 1 - s), f.sub(0, n - 1 - s))


# ---------------------------------------------------------------------------
# evaluation and interpolation
# ---------------------------------------------------------------------------


def _horner_view(f: PolyView, a: int, q: int) -> int:
    """f(a): the view is read once (tolist: one slice of its real zone, its
    padding as zeros), then Horner runs over the Python ints, len(f) base
    products."""
    f.arena.metrics.base_products += len(f)
    acc = 0
    for c in reversed(f.tolist()):
        acc = (acc * a + c) % q
    return acc


def mp_eval_cs(f: PolyView, points, out: PolyView):
    """out[i] = f(points[i]); batches reduce f modulo the batch modulus in
    the free output space, then evaluate the small remainder per point.

    A batch of k points uses 3k + 1 free output slots (modulus, remainder,
    scratch), so k = (P - done - 1) // 3.  Once k < BASE (at most 3 * BASE
    points left) or f has at most k coefficients, the remaining points are
    evaluated by Horner on f: below BASE the reduction's products cost
    n * k multiplications, like k Horner passes, plus their view and kit
    calls.
    """
    q = f.arena.q
    pts = [int(a) % q for a in points]
    if len(out) != len(pts):
        raise SizeContract("one output slot per point")
    n = len(f)
    P = len(pts)
    require_writable(out)
    with out.arena.call():
        done = 0
        while done < P:
            rem_slots = P - done
            k = (rem_slots - 1) // 3
            if k < BASE or n <= k:
                for i in range(done, P):
                    out.set(i, _horner_view(f, pts[i], q))
                return
            mview = out.sub(done, done + k + 1)
            rview = out.sub(done + k + 1, done + 2 * k + 1)
            tview = out.sub(done + 2 * k + 1, done + 3 * k + 1)
            batch = pts[done : done + k]
            _build_modulus(mview, batch)
            remainder_smallspace(f, mview, rview, tview)
            for i, a in enumerate(batch):
                out.set(done + i, _horner_view(rview, a, q))
            done += k


def partial_interp(g: PolyView, pairs, k: int, out: PolyView, scratch: PolyView):
    """First k coefficients of h where g + x^s * h interpolates the pairs.

    s = len(g) is the number of already-known low coefficients.  h is the
    Lagrange interpolant of the values (b - g(a)) / a^s, that is
    M * sum_a w_a / (x - a) with M the product of (x - a) over the points
    and w_a = (b - g(a)) / (a^s * prod_{b != a} (a - b)), so h mod x^k is
    M mod x^k times the sum's power series mod x^k.  Point a's term is
    the geometric row -w_a * a^-1 * (a^-1)^d.  The points go in chunks of
    at most BASE: the chunk's rows, cut to t = min(k, len(chunk))
    coefficients, are summed in Python locals; past t the chunk's sum is
    n_C / m_C with m_C its points' modulus and deg n_C < t, so it extends
    by dense_ref._div_recurrence on m_C alone, in scratch, and lands on
    out[0:k] by one vadd.  Then out[0:k] is copied into scratch, and one
    low product by M mod x^k (one _build_modulus into scratch) lands in
    out[0:k].  A zero point (s = 0 only) has no series: with M0 the
    product over the other points, h = M0 * (w_0 + x * sum_{a != 0}
    w_a / (x - a)), so M0 is built, the other series land one place up
    and w_0 is the constant term.
    Scratch: 2k registers, for M mod x^k (first a chunk's m_C) and the
    series (then the copy).
    """
    ring = out.arena.ring
    q = ring.q
    pts = [(int(a) % q, int(b) % q) for a, b in pairs]
    npts = len(pts)
    if not 1 <= k <= npts:
        raise SizeContract(f"need 1 <= k <= {npts}")
    if len(out) < k:
        raise SizeContract("output too short")
    xs = [a for a, _ in pts]
    if len(set(xs)) != npts:
        raise DuplicatePoint("interpolation points must be distinct")
    if len(g) and 0 in xs:
        raise ZeroPointWithShift("zero point is not allowed when a prefix is known")
    if len(scratch) < 2 * k:
        raise BadScratch(f"need scratch >= {2 * k}, got {len(scratch)}")
    require_writable(out.sub(0, k), scratch.sub(0, 2 * k))
    with out.arena.call():
        mk = scratch.sub(0, k)
        row = scratch.sub(k, 2 * k)
        out_k = out.sub(0, k)
        metrics = out.arena.metrics
        shift = 0 in xs
        n = k - shift  # the length of the nonzero points' series
        sums = out_k.sub(shift, k)
        series = row.sub(0, n)
        vzero(out_k)
        if shift:
            i = xs.index(0)
            vacc(out_k, [_weight(ring, g, xs, i, pts[i][1])])
        for lo in range(0, npts if n else 0, BASE):
            chunk = [i for i in range(lo, min(lo + BASE, npts)) if xs[i]]
            t = min(n, len(chunk))
            head = [0] * t
            for i in chunk:
                a, b = pts[i]
                r = ring.inv(a)
                c = -_weight(ring, g, xs, i, b) * r % q
                head = list(map(add, head, accumulate(repeat(r, t - 1), lambda x, y: x * y % q, initial=c)))
            metrics.base_products += t * len(chunk)
            if t == n:
                vacc(sums, head)
            elif chunk:
                mc = mk.sub(0, t + 1)
                _build_modulus(mc, (xs[i] for i in chunk))
                vset(series, head)
                _div_recurrence(series.sub(0, 0).padded(n), mc, series, t, n)
                vadd(sums, series)
        _build_modulus(mk, (a for a in xs if a))
        vcopy(row, out_k)
        vzero(out_k)
        _slice_naive(out_k, row, mk, 0)


def _weight(ring: Zq, g: PolyView, xs, i: int, b: int) -> int:
    """Lagrange weight (b - g(a)) / (a^len(g) * prod_{j != i} (a - xs[j]))
    of a = xs[i]; the product runs over chunks of at most BASE differences,
    one math.prod each, reduced after each."""
    q = ring.q
    a = xs[i]
    diffs = map(sub, repeat(a), chain(islice(xs, i), islice(xs, i + 1, None)))
    denom = pow(a, len(g), q)
    for _ in range(0, len(xs) - 1, BASE):
        denom = prod(islice(diffs, BASE), start=denom) % q
    return (b - _horner_view(g, a, q)) * ring.inv(denom) % q


def _build_modulus(dst: PolyView, roots):
    """dst = prod (x - a) over the roots, mod x^len(dst); dst is zeroed
    first, so nothing it held before is read.

    The opening vzero is the call's one permission check and counts dst as
    scratch.  The first t - 1 roots fill the prefix, one list-slice pass
    each over the live part, which grows by one per root up to t:
    new[d] = old[d - 1] - a * old[d] with old[-1] = 0 (the register just
    above the old prefix still holds its zero).  Any further roots go in
    groups of at most BASE: the group's product mod x^t is built by the
    same passes on Python locals, then multiplies the full row in one
    _kron pass.
    """
    t = len(dst)
    if not t:
        return
    vzero(dst)
    arena = dst.arena
    regs, q, metrics = arena.regs, arena.q, arena.metrics
    regs[dst.off] = 1
    roots = iter(roots)
    live = 1
    for a in islice(roots, t - 1):
        live += 1
        ds = _slc(dst.off, dst.dir, 0, live)
        regs[ds] = [(p - a * c) % q for p, c in pairwise(chain((0,), regs[ds]))]
        metrics.base_products += live
    ds = _slc(dst.off, dst.dir, 0, t)
    while group := list(islice(roots, BASE)):
        poly = [1]
        for a in group:
            poly = [(p - a * c) % q for p, c in pairwise(chain((0,), poly, (0,)))][:t]
            metrics.base_products += len(poly)
        regs[ds] = [v % q for v in _kron(regs[ds], poly, q, 0, t)]
        metrics.base_products += _pairs(t, len(poly), 0, t)


def interp_cs(pairs, out: PolyView):
    """The unique interpolant through the pairs, grown prefix by prefix.

    Points must be pairwise distinct and nonzero (later stages divide by
    a_i ** s).  Each round is one partial_interp over the rem points left,
    for k = rem // 3 coefficients, with the 2k output slots above them as
    its scratch, so rem shrinks by a third per round.  The last twelve
    points or fewer go to the direct Lagrange tail, held in Python locals
    (declared budget): below thirteen points a round costs more than the
    tail.
    """
    ring = out.arena.ring
    q = ring.q
    pts = [(int(a) % q, int(b) % q) for a, b in pairs]
    P = len(pts)
    if len(out) != P:
        raise SizeContract("output size must equal the number of pairs")
    if len(set(a for a, _ in pts)) != P:
        raise DuplicatePoint("interpolation points must be distinct")
    if any(a == 0 for a, _ in pts):
        raise ZeroPointWithShift("interp_cs requires nonzero points")
    if P == 0:
        return
    require_writable(out)
    with out.arena.call():
        done = 0
        while done < P:
            rem = P - done
            if rem <= 12:
                _interp_small_tail(ring, pts, out, done)
                return
            k = rem // 3
            partial_interp(
                out.sub(0, done),
                pts[done:],
                k,
                out.sub(done, done + k),
                out.sub(done + k, P),
            )
            done += k


def _interp_small_tail(ring: Zq, pts, out: PolyView, done: int):
    """Direct Lagrange for the last <= 12 coefficients (local block)."""
    q = ring.q
    rem = len(pts) - done
    tail = pts[done:]
    xs = [a for a, _ in tail]
    coeffs = [0] * rem
    for i, (a, b) in enumerate(tail):
        w = _weight(ring, out.sub(0, done), xs, i, b)
        basis = [1]
        for a2, _ in tail:
            if a2 == a:
                continue
            out.arena.metrics.base_products += len(basis)
            basis = [(-a2 * basis[0]) % q] + [
                (basis[d - 1] - a2 * basis[d]) % q for d in range(1, len(basis))
            ] + [basis[-1]]
        for d in range(rem):
            coeffs[d] = (coeffs[d] + w * basis[d]) % q
    for d in range(rem):
        out.set(done + d, coeffs[d])
