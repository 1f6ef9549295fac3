"""Constant-space algorithms in the ro/rw permission model.

Inputs are read-only; the output region doubles as workspace, shrinking as
results are produced.  Every product runs on the one MulKit instance of
dense_ref, and each reduction derives its block threshold from the kit's
declared scratch factor MulKit.c, so nothing here hard-codes c = 2.
Below those thresholds every power-series division (inversion, quotient,
the quotient of a Euclidean division read through reversed views) is
dense_ref._div_recurrence, the one naive division, which cs_rwrw._ipd's
leaf runs too.

Every cut is dense_ref.BLOCK, up to which every product is one Kronecker
product (dense_ref._kron).  The product loops semi_cumulative_product,
lower_product_cs and middle_product_cs make one dense_ref._slice_naive
pass over what is left once their block k is at most BLOCK, and
MulKit.slice_acc, which semi_cumulative_lower and divrem_cs call with the
workspace they have, is one _slice_naive pass when its chunks are at most
BLOCK long (its chunks' writes and base products, with no views or
workspace per chunk).  mp_eval_cs evaluates on f itself once a batch
would hold fewer than BLOCK points, and evaluates every batch remainder,
and f below 3 * BLOCK points, in chunks of at most BLOCK points; the
interpolation chunks and modulus groups hold at most BLOCK points, and
interp_cs's last round, at most BLOCK points, is partial_interp's series
on Python locals.  divrem_cs takes the remainder of its naive division
(divisors of at most c + 3 coefficients) by one _slice_naive pass.  Every
base case counts its base products by the rule of reg_arena.SpaceMetrics.

Evaluation and interpolation run on one local kernel, _Chunk: for a chunk
of at most BLOCK points it builds the chunk's modulus m once, grows the
Barrett inverse 1/rev(m) mod x^BLOCK as far as a fold needs it, folds a
polynomial mod m from the top in windows of BLOCK (two _kron products
each), multiplies mod m, and evaluates a residue at the points by Horner.
mp_eval_cs evaluates through it, and so do the interpolation weights:
M'(a) and g(a) come from residues mod the chunk's modulus, and one batch
inversion (_inverses, one pow) serves all the denominators and points of a
chunk, so no product of point differences and no per-point inversion is
left.  Past its points, a chunk's power series comes in blocks of BLOCK
(_series_tail, two _kron products per block).

Tail recursions are written as loops (no call-stack growth); an operation
enters the call ledger once at its public boundary, so the tail-recursive
reductions report pointer depth 1.  Before that, each entry point checks
its outputs and scratch blocks (`require_writable`), so a call refused for
its permissions leaves the registers and the metrics as it found them.

Declared scalar budgets (Python locals per arithmetic statement): at most
four per loop below, except the local kernels.  The chunk kernel holds the
chunk's modulus, its Barrett inverse and one window with its residue, at
most BLOCK + 1 values each; _weights holds GROUP = 4 kernels, their four
running denominators, one other chunk's modulus and, per chunk, its
weights, point inverses and values, at most BLOCK + 1 each; _series_tail
the chunk's modulus, its inverse and the last block, at most BLOCK + 1
each.  interp_cs's last round holds its kernel and two rows of at most
BLOCK values (its points' summed geometric rows and their modulus) and
the transient of their one _kron, as cs_rwrw._ipl's leaf.  The row kernels hold one row as
a transient of one statement, as the region ops and dense_ref._slice_naive
do: _build_modulus its live prefix of at most len(dst) values and a group
product of at most BLOCK + 1; a polynomial longer than twice a chunk is
read BLOCK coefficients at a time.  partial_interp holds its chunk's
current terms, their points' inverses and its sum, at most BLOCK values
each; dense_ref._div_recurrence one block of at most BASE values.  Every
computed row lands through vacc, vset or vadd: _build_modulus one vset per
group of at most BLOCK roots, after one vzero of its whole register block
(its permission check), mp_eval_cs one vset per chunk of points.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, pairwise

from .dense_ref import BLOCK, KIT, _div_recurrence, _kron, _pairs, _slice_naive
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
from .reg_arena import PolyView, require_writable, vacc, vadd, vcopy, vscale, vset, vzero

# the chunk kernel's sizes: _local_modulus's leaves of LEAF roots, built one
# root at a time; _eval_chunks folds f mod a chunk's modulus once the chunk
# has at least EVAL_MIN points and f twice as many coefficients; _weights
# takes GROUP chunks at a time, building every other chunk's modulus once
LEAF, EVAL_MIN, GROUP = 8, 16, 4


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


def _horner(read, n: int, xs, q: int, metrics) -> list[int]:
    """p(a) for every a of xs, for the polynomial p of n coefficients with
    read(i, j) = p[i : j]: Horner from the top, BLOCK coefficients read at a
    time; n base products per point."""
    metrics.base_products += n * len(xs)
    accs = [0] * len(xs)
    for j in range(n, 0, -BLOCK):
        rr = read(max(0, j - BLOCK), j)[::-1]
        for i, a in enumerate(xs):
            acc = accs[i]
            for c in rr:
                acc = (acc * a + c) % q
            accs[i] = acc
    return accs


def _reader(v: PolyView):
    """read(i, j) = v[i : j] as a list, for Horner and the fold: a view of
    at most BLOCK coefficients is read once, a longer one window by window."""
    if len(v) <= BLOCK:
        vals = v.tolist()
        return lambda i, j: vals[i:j]
    return lambda i, j: v.sub(i, j).tolist()


def _folds(n: int, c: int) -> bool:
    """A polynomial of n coefficients is evaluated at c points on its
    residue mod their modulus (the fold pays for itself): at least EVAL_MIN
    points and twice as many coefficients."""
    return n >= 2 * c >= 2 * EVAL_MIN


def _inverses(vals: list[int], q: int) -> list[int]:
    """1 / v mod q for every v of vals, none of them 0 mod q, by Montgomery's
    trick: prefix products, one pow, and two products per value back down."""
    pre = list(accumulate(vals, lambda x, y: x * y % q))
    inv = pow(pre[-1], -1, q)
    out = [0] * len(vals)
    for i in range(len(vals) - 1, 0, -1):
        out[i] = inv * pre[i - 1] % q
        inv = inv * vals[i] % q
    out[0] = inv
    return out


def _grow_inverse(p: list[int], g: list[int], l: int, q: int, metrics) -> list[int]:
    """1 / p mod x^l, l <= BLOCK, from g = 1 / p mod x^len(g) by Newton:
    two _kron products per doubling, counted by _slice_naive's rule."""
    while (k := len(g)) < l:
        k2 = min(2 * k, BLOCK)
        # p * g = 1 + x^k e mod x^k2, and g (1 - x^k e) is the next g
        e = [v % q for v in _kron(p[:k2], g, q, k, k2 - k)]
        g = g + [-v % q for v in _kron(g[: k2 - k], e, q, 0, k2 - k)]
        metrics.base_products += _pairs(min(k2, len(p)), k, k, k2) + _pairs(k2 - k, k2 - k, 0, k2 - k)
    return g


def _series_tail(m: list[int], head: list[int], n: int, q: int, metrics):
    """The coefficients t .. n - 1 of the power series N / m, for m of t + 1
    coefficients with m[0] a unit, deg N < t and head its first t
    coefficients, as (offset, block) in blocks of at most BLOCK.  Past t the
    series of N / m satisfies m * S = 0, so each block is the low product of
    1 / m mod x^BLOCK with minus the middle product of m and the t
    coefficients before it: two _kron products per block, counted by
    _slice_naive's rule.  Declared budget: m, its inverse and the last t
    coefficients, at most BLOCK + 1 values each."""
    t = len(head)
    inv = _grow_inverse(m, [pow(m[0], -1, q)], min(BLOCK, n - t), q, metrics)
    prev = head
    for i in range(t, n, BLOCK):
        l = min(BLOCK, n - i)
        mid = [v % q for v in _kron(m, prev, q, t, l)]
        blk = [-v % q for v in _kron(inv[:l], mid, q, 0, l)]
        metrics.base_products += _pairs(t + 1, t, t, t + l) + _pairs(l, l, 0, l)
        yield i, blk
        prev = blk[-t:]


class _Chunk:
    """Residues modulo the modulus m = prod (x - a) of a chunk of at most
    BLOCK points xs, on Python locals.

    m is one _local_modulus, built once.  fold reduces a polynomial mod m
    from the top, one window of at most BLOCK coefficients per step, each
    step two _kron products: the window's quotient by Barrett's rule
    (rev(quotient) = rev(top) / rev(m) mod x^l), then the low part of
    quotient * m.  The inverse 1 / rev(m) grows by Newton (two _kron
    products per doubling) as far as the widest window needs, at most
    BLOCK.  mulmod is one product and its fold; at evaluates at the points
    by Horner, on the polynomial's residue when the fold pays.  Declared
    budget: m, the inverse and one window with its
    residue, at most BLOCK + 1 values each.  base_products: every _kron by
    _slice_naive's rule (_pairs of its operands and output), Horner
    len(r) per point, m by _local_modulus's rule.
    """

    __slots__ = ("xs", "q", "metrics", "m", "inv")

    def __init__(self, xs: list[int], q: int, metrics):
        self.xs, self.q, self.metrics = xs, q, metrics
        self.m = _local_modulus(xs, len(xs) + 1, q, metrics)
        self.inv = [1]

    def _inverse(self, l: int) -> list[int]:
        """1 / rev(m) mod x^l (at least), by Newton from the precision held."""
        if len(self.inv) < l:
            self.inv = _grow_inverse(self.m[::-1], self.inv, l, self.q, self.metrics)
        return self.inv

    def fold(self, read, n: int) -> list[int]:
        """p mod m, for the polynomial p of n coefficients with read(i, j) =
        p[i : j] reduced; p itself when n <= deg m."""
        c, q, m = len(self.m) - 1, self.q, self.m
        if n <= c:
            return read(0, n)
        r, i = read(n - c, n), n - c
        while i:
            l = min(BLOCK, i)
            inv = self._inverse(l)
            a = read(i - l, i) + r
            quo = _kron(a[c:][::-1], inv[:l], q, 0, l)
            low = _kron([v % q for v in reversed(quo)], m[:c], q, 0, c)
            r = [(x - y) % q for x, y in zip(a, low)]
            self.metrics.base_products += _pairs(l, l, 0, l) + _pairs(l, c, 0, c)
            i -= l
        return r

    def mulmod(self, a: list[int], b: list[int]) -> list[int]:
        """a * b mod m, for reduced a and b of at most BLOCK + 1 coefficients."""
        n = len(a) + len(b) - 1
        prod = [v % self.q for v in _kron(a, b, self.q, 0, n)]
        self.metrics.base_products += len(a) * len(b)
        return self.fold(lambda i, j: prod[i:j], n)

    def at(self, read, n: int) -> list[int]:
        """p(a) for every point a of the chunk, p read as by fold: Horner on
        p mod m when _folds, else on p itself."""
        if _folds(n, len(self.xs)):
            r = self.fold(read, n)
            read, n = (lambda i, j: r[i:j]), len(r)
        return _horner(read, n, self.xs, self.q, self.metrics)


def _eval_chunks(f: PolyView, pts, lo: int, hi: int, out: PolyView):
    """out[i] = f(pts[i]) for lo <= i < hi, one chunk of at most BLOCK
    points at a time, landed by one vset, f read BLOCK coefficients at a
    time: Horner on f mod the chunk's modulus (_Chunk.at) when the fold
    pays (_folds), else on f itself."""
    arena = out.arena
    q, metrics, n, read = arena.q, arena.metrics, len(f), _reader(f)
    for c0 in range(lo, hi, BLOCK):
        xs = pts[c0 : min(c0 + BLOCK, hi)]
        if _folds(n, len(xs)):
            vals = _Chunk(xs, q, metrics).at(read, n)
        else:
            vals = _horner(read, n, xs, q, metrics)
        vset(out, vals, c0)


def mp_eval_cs(f: PolyView, points, out: PolyView):
    """out[i] = f(points[i]); batches reduce f modulo the batch modulus in
    the free output space, then evaluate the small remainder chunk by chunk.

    A batch of k points uses 3k + 1 free output slots (modulus, remainder,
    scratch), so k = (P - done - 1) // 3.  Once k < BLOCK (at most
    3 * BLOCK points left) or f has at most k coefficients, the remaining
    points are evaluated on f itself.  Each evaluation, of a batch's
    remainder or of f, runs in chunks of at most BLOCK points
    (_eval_chunks): Horner on the polynomial mod the chunk's modulus,
    which the chunk kernel (_Chunk) folds on Python locals, or on the
    polynomial itself when it is short.  The batch's results land on its
    modulus, which the remainder no longer needs.
    """
    q = f.arena.q
    pts = [int(a) % q for a in points]
    if len(out) != len(pts):
        raise SizeContract("one output slot per point")
    n, P = len(f), len(pts)
    require_writable(out)
    with out.arena.call():
        done = 0
        while done < P:
            k = (P - done - 1) // 3
            if k < BLOCK or n <= k:
                _eval_chunks(f, pts, done, P, out)
                return
            mview = out.sub(done, done + k + 1)
            rview = out.sub(done + k + 1, done + 2 * k + 1)
            tview = out.sub(done + 2 * k + 1, done + 3 * k + 1)
            _build_modulus(mview, pts[done : done + k])
            remainder_smallspace(f, mview, rview, tview)
            _eval_chunks(rview, pts, done, done + k, out)
            done += k


def partial_interp(g: PolyView, pairs, k: int, out: PolyView, scratch: PolyView):
    """First k coefficients of h where g + x^s * h interpolates the pairs.

    s = len(g) is the number of already-known low coefficients.  h is the
    Lagrange interpolant of the values (b - g(a)) / a^s, that is
    M * sum_a w_a / (x - a) with M the product of (x - a) over the points
    and w_a = (b - g(a)) / (a^s * M'(a)), so h mod x^k is M mod x^k times
    the sum's power series mod x^k.  The points go in chunks C of at most
    BLOCK, and each chunk's weights come from residues mod its modulus m_C
    (_weights, on the chunk kernel _Chunk): M'(a) is (m_C' * prod_{D != C}
    m_D) mod m_C at a, with m_C' the derivative and m_D the other chunks'
    moduli, and g(a) is (g mod m_C) at a; one inversion serves all the
    weights and point inverses of the chunk.
    Point a's term is the geometric row -w_a * a^-1 * (a^-1)^d; the rows
    cut to t = min(k, len(chunk)) coefficients are summed in Python locals
    (_row_sum); past t the chunk's sum is n_C / m_C with deg n_C < t, so it
    extends on m_C alone (_series_tail, in blocks of BLOCK), each block
    landed on out[0:k] by one vacc.  Then out[0:k] is copied into scratch,
    and one low product by M mod x^k (one _build_modulus into scratch)
    lands in out[0:k].  A zero point (s = 0 only) has no series:
    with M0 the product over the other points, h = M0 * (w_0 + x *
    sum_{a != 0} w_a / (x - a)), so M0 is built, the other series land one
    place up and w_0 is the constant term.  Scratch: 2k registers, for
    M mod x^k and the copy of out[0:k].
    """
    q = out.arena.q
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
        mk, row, out_k = scratch.sub(0, k), scratch.sub(k, 2 * k), out.sub(0, k)
        shift = 0 in xs
        n = k - shift  # the length of the nonzero points' series
        sums = out_k.sub(shift, k)
        vzero(out_k)
        for lo in range(0, npts, GROUP * BLOCK):
            hi = min(lo + GROUP * BLOCK, npts)
            if not n and 0 not in xs[lo:hi]:
                continue  # only the zero point's weight is wanted
            for chunk, ws, rs in _weights(g, pts, lo, hi):
                m = chunk.m
                if 0 in chunk.xs:
                    i = chunk.xs.index(0)
                    vacc(out_k, [ws.pop(i)])
                    m = m[1:]  # the modulus of the chunk's nonzero points
                t = min(n, len(rs))
                head = _row_sum(ws, rs, t, q, chunk.metrics)
                vacc(sums, head)
                if rs and t < n:
                    for i, blk in _series_tail(m, head, n, q, chunk.metrics):
                        vacc(sums, blk, 1, i)
        _build_modulus(mk, [a for a in xs if a])
        vcopy(row, out_k)
        vzero(out_k)
        _slice_naive(out_k, row, mk, 0)


def _weights(g: PolyView, pts, lo: int, hi: int):
    """For each chunk of pts[lo:hi] (at most GROUP chunks, the chunks of
    pts being its runs of BLOCK from 0): its kernel, its points' Lagrange
    weights (b - g(a)) / (a^len(g) * M'(a)) with M = prod (x - a) over all
    of pts, and the inverses of its nonzero points.

    For a in C, M'(a) = m_C'(a) * prod_{D != C} m_D(a) (m_C' the derivative
    of C's modulus, m_D the other chunks'), the value at a of (m_C' *
    prod_{D != C} m_D) mod m_C: one mulmod per other chunk, each other
    chunk's modulus built once for the group (its own kernels' moduli serve
    within it), then Horner at the chunk's points; g(a) is Horner on g mod
    m_C when the fold pays, else on g (read in windows of BLOCK either way).
    One _inverses call takes every
    denominator and point of a chunk.
    """
    arena = g.arena
    q, metrics, s = arena.q, arena.metrics, len(g)
    group = [_Chunk([a for a, _ in pts[c : c + BLOCK]], q, metrics) for c in range(lo, hi, BLOCK)]
    dens = [[i * c % q for i, c in enumerate(chunk.m[1:], 1)] for chunk in group]
    for o in range(0, len(pts), BLOCK):
        if lo <= o < hi:
            mo = group[(o - lo) // BLOCK].m
        else:
            roots = [a for a, _ in pts[o : o + BLOCK]]
            mo = _local_modulus(roots, len(roots) + 1, q, metrics)
        for j, chunk in enumerate(group):
            if o != lo + j * BLOCK:
                dens[j] = chunk.mulmod(dens[j], mo)
    out = []
    for c, chunk, den in zip(range(lo, hi, BLOCK), group, dens):
        gs = chunk.at(_reader(g), s)
        xs = chunk.xs
        vals = chunk.at(lambda i, j: den[i:j], len(den))
        inv = _inverses([pow(a, s, q) * d % q for a, d in zip(xs, vals)] + [a for a in xs if a], q)
        ws = [(b - v) * w % q for (_, b), v, w in zip(pts[c : c + BLOCK], gs, inv)]
        out.append((chunk, ws, inv[len(xs) :]))
    return out


def _row_sum(ws, rs, t: int, q: int, metrics) -> list[int]:
    """Sum mod q of the geometric rows -w * r * r^d, d < t, of the weights
    ws and point inverses rs, one coefficient at a time; t products each."""
    cur = [-w * r % q for w, r in zip(ws, rs)]
    head = []
    for _ in range(t):
        head.append(sum(cur) % q)
        cur = [c * r % q for c, r in zip(cur, rs)]
    metrics.base_products += t * len(rs)
    return head


def _local_modulus(roots, t: int, q: int, metrics) -> list[int]:
    """prod (x - a) over at most BLOCK roots mod x^t, on locals: leaves of
    at most LEAF roots built one root at a time (one product per live
    coefficient per root), then a product tree, one _kron per merge,
    truncated at t and counted by _slice_naive's rule."""
    level = []
    for i in range(0, len(roots), LEAF):
        poly = [1]
        for a in roots[i : i + LEAF]:
            poly = [(p - a * c) % q for p, c in pairwise(chain((0,), poly, (0,)))][:t]
            metrics.base_products += len(poly)
        level.append(poly)
    while len(level) > 1:
        merged = []
        for a, b in zip(level[::2], level[1::2]):
            r = min(t, len(a) + len(b) - 1)
            merged.append([v % q for v in _kron(a, b, q, 0, r)])
            metrics.base_products += _pairs(len(a), len(b), 0, r)
        level = merged + level[len(merged) * 2 :]
    return level[0] if level else [1]


def _build_modulus(dst: PolyView, roots):
    """dst = prod (x - a) over the roots, mod x^len(dst); dst is zeroed
    first, so nothing it held before is read.

    The opening vzero is the call's one permission check and counts dst as
    scratch.  The roots go in groups of at most BLOCK: each group's product
    mod x^t is built on Python locals (_local_modulus), then multiplies the
    live row dst[0 : live] in one _kron, landed by one vset; the live row
    is the product so far, at most t coefficients.
    """
    t = len(dst)
    if not t:
        return
    vzero(dst)
    q, metrics = dst.arena.q, dst.arena.metrics
    roots = iter(roots)
    vset(dst, poly := _local_modulus(list(islice(roots, BLOCK)), t, q, metrics))
    live = len(poly)
    while group := list(islice(roots, BLOCK)):
        poly = _local_modulus(group, t, q, metrics)
        r = min(t, live + len(poly) - 1)
        vset(dst, _kron(dst.sub(0, live).tolist(), poly, q, 0, r))
        metrics.base_products += _pairs(live, len(poly), 0, r)
        live = r


def interp_cs(pairs, out: PolyView):
    """The unique interpolant through the pairs, grown prefix by prefix.

    Points must be pairwise distinct and nonzero (later stages divide by
    a_i ** s).  Each round is one partial_interp over the rem points left,
    for k = rem // 3 coefficients, with the 2k output slots above them as
    its scratch, so rem shrinks by a third per round.  The last BLOCK
    points or fewer are partial_interp's series with one chunk and k = rem,
    on Python locals (declared budget): their weights from the chunk
    kernel (_weights, with M' = m' of the chunk's own modulus, and g the
    known prefix), their summed rows (_row_sum), and those rows times the
    modulus mod x^rem, one _kron landed by one vset.
    """
    q = out.arena.q
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
        while (rem := P - done) > BLOCK:
            k = rem // 3
            partial_interp(out.sub(0, done), pts[done:], k, out.sub(done, done + k), out.sub(done + k, P))
            done += k
        [(chunk, ws, rs)] = _weights(out.sub(0, done), pts[done:], 0, rem)
        head = _row_sum(ws, rs, rem, q, chunk.metrics)
        vset(out.sub(done, P), _kron(head, chunk.m[:rem], q, 0, rem))
        out.arena.metrics.base_products += _pairs(rem, rem, 0, rem)
