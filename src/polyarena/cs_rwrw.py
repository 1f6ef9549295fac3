"""Cumulative and in-place algorithms in the rw/rw permission model.

Operands may be scrawled on while an operation runs, but every view other
than the designated accumulator is restored bit-exactly before it returns.
The workhorse is the pre/post-addition trick: to distribute one product to
two places, pre-subtract the first target from the second, accumulate into
the first, then post-add it to the second.

All mutating recursions operate on fully backed (never fake-padded) views;
product slices are decomposed by a clipping quadtree into full products of
real subwindows, so the restore reasoning stays local.

Every product cut is dense_ref.BLOCK.  At or below it, cumulative_lower,
a ragged full product (_cum_full, by its shorter operand) and a cumulative
slice with a short operand are one dense_ref._slice_naive pass, which only
reads f and g; a balanced product stays on _cum_kara, which counts
Karatsuba's 3^k products.  Both end in dense_ref._kron, the one
Kronecker-substitution product kernel: _cum_kara's leaf (n <= BLOCK) is
one _kron of its two operands, counted as the Karatsuba split below it,
and so is _ipl's leaf.  The division cut stays dense_ref.BASE: _ipd's leaf
(n <= BASE) is dense_ref._div_recurrence.

Declared scalar budgets: plain statements hold at most four locals; in
addition fixed-size kernels run on Python locals: the product leaves of
_cum_kara and _ipl (two packed operands of at most BLOCK coefficients,
their product and at most 2 BLOCK - 1 coefficients), the in-place series
division's leaf (dense_ref._div_recurrence: one block of at most BASE
values and g's row within it), and the blocks of at most BLOCK scalars
(both dense_ref constants) used by butterflies, twiddle tables and fold
sums.
None of them grows with the input.  The truncated FFT's virtual reads hold
a few such blocks per level of their recursion, so their budget grows with
the pointer stack, not the input.  Every kernel here lands the block or
row it computed through reg_arena.vacc or vset, which claim what they
write; only the butterflies write under the claim of ntt or _otfft.
"""

from __future__ import annotations

from functools import cache
from operator import mul

from .coeff_ring import RootOfUnity
from .dense_ref import BASE, BLOCK, _butterflies, _div_recurrence, _kron, _pairs, _powers, _slice_naive, bit_reverse, ntt
from .errors import (
    BadParams,
    BadSlice,
    LambdaZero,
    NonMonicModulus,
    NonUnit,
    NonUnitLeading,
    SizeContract,
    check_sign,
)
from .reg_arena import PolyView, _slc, vacc, vadd, vcopy, vscale, vset, vzero

# ---------------------------------------------------------------------------
# cumulative full products
# ---------------------------------------------------------------------------


def cumulative_karatsuba(f: PolyView, g: PolyView, h: PolyView, sign: int = 1):
    """h += sign * f * g; f and g are touched but restored."""
    check_sign(sign)
    if len(h) != len(f) + len(g) - 1:
        raise SizeContract("need len(h) = len(f) + len(g) - 1")
    with h.arena.call():
        _cum_full(f, g, h, sign)


def _cum_full(f: PolyView, g: PolyView, h: PolyView, sign: int):
    """h[0, a+b-1) += sign * f * g for arbitrary real views; iterative on
    the ragged tail so only balanced recursions grow the stack."""
    while True:
        a, b = len(f), len(g)
        if a == 0 or b == 0:
            return
        if a < b:
            f, g = g, f
            a, b = b, a
        if a == b:
            _cum_kara(f, g, h, sign)
            return
        if b <= BLOCK:
            _slice_naive(h, f, g, 0, sign)
            return
        full = a // b
        for j in range(full):
            _cum_kara(f.sub(j * b, (j + 1) * b), g, h.sub(j * b, (j + 1) * b + b - 1), sign)
        rest = a - full * b
        if rest == 0:
            return
        f = f.sub(full * b, a)
        h = h.sub(full * b, full * b + rest + b - 1)
        # swap happens on the next round; sizes strictly shrink


def _cum_kara(f: PolyView, g: PolyView, h: PolyView, sign: int):
    """Balanced cumulative Karatsuba: three half-size recursive calls, the
    products distributed by pre/post additions on h; f and g restored."""
    n = len(f)
    if n == 0:
        return
    arena = h.arena
    if n <= BLOCK:
        # one Kronecker product of the two size-n operands, counted as the
        # Karatsuba split below would count it (3^k at n = 2^k)
        vacc(h, _kron(f.tolist(), g.tolist(), arena.q, 0, 2 * n - 1), sign)
        arena.metrics.base_products += _kara_count(n)
        return
    m = (n + 1) // 2
    L = 2 * n - 1
    with arena.call():
        vadd(h.sub(m, 2 * m), h.sub(0, m), -1)
        vadd(h.sub(2 * m, min(3 * m, L)), h.sub(m, 2 * m), -1)
        if 3 * m < L:
            vadd(h.sub(3 * m, L), h.sub(2 * m, L - m), -1)
        _cum_kara(f.sub(0, m), g.sub(0, m), h.sub(0, 2 * m - 1), sign)
        t = n - m
        _cum_kara(f.sub(m, n), g.sub(m, n), h.sub(m, m + 2 * t - 1), sign)
        if 3 * m < L:
            vadd(h.sub(3 * m, L), h.sub(2 * m, L - m), 1)
        vadd(h.sub(2 * m, min(3 * m, L)), h.sub(m, 2 * m), 1)
        vadd(h.sub(m, 2 * m), h.sub(0, m), 1)
        vadd(f.sub(0, t), f.sub(m, n), -1)
        vadd(g.sub(0, t), g.sub(m, n), -1)
        _cum_kara(f.sub(0, m), g.sub(0, m), h.sub(m, 3 * m - 1), -sign)
        vadd(f.sub(0, t), f.sub(m, n), 1)
        vadd(g.sub(0, t), g.sub(m, n), 1)


@cache
def _kara_count(n: int) -> int:
    """Base products of _cum_kara at size n, split down to size 1."""
    if n == 1:
        return 1
    m = (n + 1) // 2
    return 2 * _kara_count(m) + _kara_count(n - m)


# ---------------------------------------------------------------------------
# cumulative slices (quadtree decomposition into full products)
# ---------------------------------------------------------------------------


def cumulative_slice(f: PolyView, g: PolyView, h: PolyView, s: int, sign: int = 1):
    """h += sign * [f * g]_s^{s + len(h)}."""
    check_sign(sign)
    m, n, r = len(f), len(g), len(h)
    if not 0 < r < m + n or not 0 <= s < m + n - r:
        raise BadSlice(f"slice [{s},{s + r}) of a size-{m + n - 1} product")
    with h.arena.call():
        _cum_slice(f, g, h, s, sign)


def _cum_slice(f: PolyView, g: PolyView, h: PolyView, s: int, sign: int):
    r = len(h)
    if r <= 0:
        return
    if s < 0:
        cut = min(-s, r)
        h = h.sub(cut, r)
        r -= cut
        s = 0
        if r <= 0:
            return
    a, b = len(f), len(g)
    if a == 0 or b == 0:
        return
    ilo = max(0, s - b + 1)
    ihi = min(a, s + r)
    if ilo >= ihi:
        return
    if ilo or ihi < a:
        f = f.sub(ilo, ihi)
        s -= ilo
        a = ihi - ilo
    jlo = max(0, s - a + 1)
    jhi = min(b, s + r)
    if jlo >= jhi:
        return
    if jlo or jhi < b:
        g = g.sub(jlo, jhi)
        s -= jlo
        b = jhi - jlo
    top = a + b - 1 - s
    if r > top:
        if top <= 0:
            return
        r = top
        h = h.sub(0, r)
    if s == 0 and r == a + b - 1:
        _cum_full(f, g, h, sign)
        return
    if min(a, b) <= BLOCK or r <= 2:
        _slice_naive(h, f, g, s, sign)
        return
    sigma = (min(a, b) + 1) // 2
    ca = min(sigma, a)
    cb = min(sigma, b)
    with h.arena.call():
        _cum_slice(f.sub(0, ca), g.sub(0, cb), h, s, sign)
        if ca < a:
            _cum_slice(f.sub(ca, a), g.sub(0, cb), h, s - ca, sign)
        if cb < b:
            _cum_slice(f.sub(0, ca), g.sub(cb, b), h, s - cb, sign)
        if ca < a and cb < b:
            _cum_slice(f.sub(ca, a), g.sub(cb, b), h, s - ca - cb, sign)


# ---------------------------------------------------------------------------
# cumulative lower product and convolutions
# ---------------------------------------------------------------------------


def cumulative_lower(f: PolyView, g: PolyView, h: PolyView, sign: int = 1):
    """h += sign * (f * g mod x^n), all three of size n; f, g restored.

    One full product per round (on g0 - g1, then f0 * g1 distributed by a
    pre/post pair), then a tail call on the top halves, written as a loop
    that ends in one naive pass once n <= BLOCK.
    """
    check_sign(sign)
    if not len(f) == len(g) == len(h):
        raise SizeContract("need three size-n operands")
    with h.arena.call():
        f0, g0, h0 = f, g, h
        while True:
            n = len(f0)
            if n <= BLOCK:
                _slice_naive(h0, f0, g0, 0, sign)
                return
            m = (n + 1) // 2
            t = n - m
            vadd(g0.sub(0, t), g0.sub(m, n), -1)
            _cum_full(f0.sub(0, m), g0.sub(0, m), h0.sub(0, 2 * m - 1), sign)
            vadd(g0.sub(0, t), g0.sub(m, n), 1)
            vadd(h0.sub(m, n), h0.sub(0, t), -1)
            _cum_full(f0.sub(0, m), g0.sub(m, n), h0.sub(0, n - 1), sign)
            vadd(h0.sub(m, n), h0.sub(0, t), 1)
            f0 = f0.sub(m, n)
            g0 = g0.sub(0, t)
            h0 = h0.sub(m, n)


def cumulative_convolution(f: PolyView, g: PolyView, h: PolyView, lam: int):
    """h += f * g mod (x^n - lam); lam must be invertible."""
    n = len(h)
    if not len(f) == len(g) == n:
        raise SizeContract("need three size-n operands")
    ring = h.arena.ring
    lam %= ring.q
    if lam == 0:
        raise LambdaZero("use the lower product for lambda = 0")
    if n == 0:
        return
    with h.arena.call():
        m = (n + 1) // 2
        s = n % 2
        lam_inv = ring.inv(lam)
        f0, f1 = f.sub(0, m), f.sub(m, n)
        g0, g1 = g.sub(0, m), g.sub(m, n)
        _cum_full(f0, g0, h.sub(0, 2 * m - 1), 1)
        vscale(h, lam_inv)
        if n - m:
            _cum_full(f1, g1, h.sub(s, s + 2 * (n - m) - 1), 1)
        vscale(h.sub(m, n), lam)
        for u, v in ((f0, g1), (f1, g0)):
            if len(u) and len(v):
                _cum_slice(u, v, h.sub(m, n), 0, 1)
                if m >= 2:
                    _cum_slice(u, v, h.sub(0, m - 1), n - m, 1)
        vscale(h.sub(0, m), lam)


# ---------------------------------------------------------------------------
# partial Fourier transforms and the cumulative FFT product
# ---------------------------------------------------------------------------


def partial_ft(f: PolyView, k: int, ell: int, root: RootOfUnity, direction: str = "fwd"):
    """Replace the first 2^ell slots of f by f(omega^{[k*2^ell + i]_p}).

    Twist the prefix by powers of omega^{[k*2^ell]_p}, fold the twisted
    tail onto it modulo x^{2^ell} - 1, then run a size-2^ell in-place FFT.
    "inv" undoes the three steps in reverse order.
    """
    n = len(f)
    q = f.arena.q
    w = root.omega
    order = root.order
    p = order.bit_length() - 1
    if (1 << p) != order:
        raise BadParams("root order must be a power of two")
    size = 1 << ell
    if size > n or (k + 1) * size > order:
        raise BadParams(f"need 2^ell <= {n} and (k+1)*2^ell <= {order}")
    if direction not in ("fwd", "inv"):
        raise BadParams(f"unknown direction {direction!r}")
    theta = pow(w, bit_reverse(k, p - ell), q)
    sub = f.sub(0, size)
    subroot = RootOfUnity(pow(w, 1 << (p - ell), q), size)
    f.span(0, size)
    # Only the output prefix is rewritten: coefficients beyond it are read
    # in place, so the inverse recomputes and subtracts the same sums.
    if direction == "fwd":
        _twist_fold(f, size, theta, q, False)
        ntt(sub, subroot, "fwd")
    else:
        ntt(sub, subroot, "inv")
        _twist_fold(f, size, theta, q, True)


# Column sums cost a call per column, row comprehensions a call per row.
# A tail is summed by columns when it has at least min(size, this many)
# rows: measured for n from 64 to 16384, columns won from about `size`
# rows up to size 64 and at 63 rows and size 256; rows won at 31 rows and
# size 512.
_FOLD_COLUMNS = 40


def _twist_fold(f: PolyView, size: int, theta: int, q: int, inverse: bool):
    """prefix[c] = theta^c * (f[c] + S[c]) for c < size, where
    S[c] = sum over j >= 1 of T^j * f[c + j*size] and T = theta^size;
    inverse: f[c] = prefix[c] * theta^-c - S[c].

    The tail (index >= size) is only read.  The prefix is done in blocks
    of at most BLOCK columns; S of a block comes from one comprehension per
    tail row when the rows are few (see _FOLD_COLUMNS), else from one
    sum(map(mul, ...)) per column and BLOCK rows, with a BLOCK-entry table
    of powers of T.
    """
    n = len(f)
    rows = (n - 1) // size
    if rows == 0 and theta == 1:
        return
    regs = f.arena.regs
    off, d = f.off, f.dir
    big_t = pow(theta, size, q)
    tw_root = pow(theta, q - 2, q) if inverse else theta
    table = _powers(tw_root, min(BLOCK, size), q) if theta != 1 else None
    cur = 1
    by_columns = rows >= min(size, _FOLD_COLUMNS)
    if by_columns and big_t != 1:
        tpow = [big_t * t % q for t in _powers(big_t, min(BLOCK, rows), q)]  # T^1, T^2, ...
        t_blk = tpow[-1]
    for c0 in range(0, size, BLOCK):
        b = min(BLOCK, size - c0)
        if rows == 0:
            sums = [0] * b
        elif by_columns:
            sums = []
            for c in range(c0, c0 + b):
                acc = 0
                scale = 1
                for r0 in range(1, rows + 1, BLOCK):
                    col = regs[_slc(off, d, c + r0 * size, min(n, c + (r0 + BLOCK) * size), size)]
                    if big_t == 1:
                        acc += sum(col)
                    else:
                        acc += sum(map(mul, col, tpow)) * scale
                        scale = scale * t_blk % q
                sums.append(acc % q)
        else:
            sums = [0] * b
            t_row = 1
            for r in range(1, rows + 1):
                t_row = t_row * big_t % q
                lo = c0 + r * size
                cnt = min(b, n - lo)
                if cnt <= 0:
                    break
                row = regs[_slc(off, d, lo, lo + cnt)]
                if r == 1:
                    sums[:cnt] = [y * t_row for y in row]
                else:
                    sums[:cnt] = [s + y * t_row for s, y in zip(sums, row)]
        if table is None:
            vacc(f, sums, -1 if inverse else 1, c0)
            continue
        xs = regs[_slc(off, d, c0, c0 + b)]
        tw = table if cur == 1 else [cur * t % q for t in table]
        if inverse:
            vset(f, [x * t - s for x, s, t in zip(xs, sums, tw)], c0)
        else:
            vset(f, [(x + s) * t for x, s, t in zip(xs, sums, tw)], c0)
        cur = tw[-1] * tw_root % q


def _twiddles(table, w, start, step, count, q):
    """w^(start + k*step) for k < count; table holds w^0, w^1, ..."""
    a = pow(w, start, q)
    last = step * (count - 1)
    if last < len(table):
        seq = table[: last + 1 : step]
        return seq if a == 1 else [a * t % q for t in seq]
    out = [a] * count
    ws = pow(w, step, q)
    for k in range(1, count):
        out[k] = out[k - 1] * ws % q
    return out


def _vread(src, start, step, count, q):
    """V(start + k*step) for k < count <= BLOCK, for a virtual source
    src = (read, stride, copies) with V(i) = sum of read(i + j*stride)
    over j < copies; read(start, step, count) returns a list."""
    read, stride, copies = src
    if copies == 1:
        return read(start, step, count)
    if copies <= count:
        acc = read(start, step, count)
        for j in range(1, copies):
            acc = [a + v for a, v in zip(acc, read(start + j * stride, step, count))]
        return [a % q for a in acc]
    out = []
    for k in range(count):
        i = start + k * step
        tot = 0
        for j0 in range(0, copies, BLOCK):
            tot += sum(read(i + j0 * stride, stride, min(BLOCK, copies - j0)))
        out.append(tot % q)
    return out


def _add_virtual(buf: PolyView, lo: int, hi: int, src, shift: int, sign: int):
    """buf[i] += sign * V(i + shift) for i in [lo, hi), in blocks; nothing
    for the zero source None."""
    if src is None:
        return
    q = buf.arena.q
    for a in range(lo, hi, BLOCK):
        vacc(buf, _vread(src, a + shift, 1, min(hi, a + BLOCK) - a, q), sign, a)


def _strided(view: PolyView, start: int, step: int, count: int) -> list[int]:
    return view.arena.regs[_slc(view.off, view.dir, start, start + step * (count - 1) + 1, step)]


def _otfft(buf: PolyView, src, h: int, ww: int, inverse: bool):
    """First len(buf) bit-reversed outputs of an h-point FFT whose inputs
    are buf extended by the virtual source src (see _vread, stride h) at
    the indices [len(buf), h), in place; inverse undoes it.

    src None means those inputs are zero, which makes this the truncated
    Fourier transform of buf: slot j becomes buf(ww^[j]) for the
    log2(h)-bit reversal [j] of j.
    """
    M = len(buf)
    q = buf.arena.q
    buf.span(0, M)
    if h == 1 or M == 0:
        return
    if M == h:
        ntt(buf, RootOfUnity(ww, h), "inv" if inverse else "fwd")
        return
    h2 = h >> 1
    ww2 = ww * ww % q
    with buf.arena.call():
        if M <= h2:
            # only the low half's outputs: its inputs are V(i) + V(i + h2)
            half_src = None if src is None else (src[0], h2, 2 * src[2])
            if not inverse:
                _add_virtual(buf, 0, M, src, h2, 1)
                _otfft(buf, half_src, h2, ww2, False)
            else:
                _otfft(buf, half_src, h2, ww2, True)
                _add_virtual(buf, 0, M, src, h2, -1)
            return
        # M > h2: dense butterflies for the stored pairs, virtual adds for
        # the rest; the high half's missing inputs are recomputed from the
        # low half, which stays put until the high recursion is done.
        t = M - h2
        regs = buf.arena.regs
        off, d = buf.off, buf.dir
        table = _powers(ww, min(BLOCK, h2), q)

        def virt_b(start, step, count):
            xs = _strided(buf, start, step, count)
            tw = _twiddles(table, ww, start, step, count, q)
            if src is None:
                return [x * c % q for x, c in zip(xs, tw)]
            vs = _vread(src, start + h2, step, count, q)
            return [(x - v - v) * c % q for x, v, c in zip(xs, vs, tw)]

        if not inverse:
            _butterflies(regs, off, d, M, h2, ww, q, pairs=t)
            _add_virtual(buf, t, h2, src, h2, 1)
            _otfft(buf.sub(h2, M), (virt_b, h2, 1), h2, ww2, False)
            ntt(buf.sub(0, h2), RootOfUnity(ww2, h2), "fwd")
        else:
            ntt(buf.sub(0, h2), RootOfUnity(ww2, h2), "inv")
            _otfft(buf.sub(h2, M), (virt_b, h2, 1), h2, ww2, True)
            _add_virtual(buf, t, h2, src, h2, -1)
            _butterflies(regs, off, d, M, h2, pow(ww, q - 2, q), q, inverse=True, pairs=t, scale=(q + 1) >> 1)


# The evaluation points of one chunk of h form a coset, a node (k, e) of the
# tree of x^(2^p) - 1: its points are theta * z^[i]_e for i < 2^e, with
# theta = omega^([k]_{p-e}) and z = omega^(2^(p-e)), the roots of
# x^(2^e) - c(k, e) for c(k, e) = theta^(2^e).  The children (2k, e-1) and
# (2k+1, e-1) have constants d and -d with d^2 = c(k, e).  An operand's
# residue modulo x^(2^e) - c(k, e), twisted by theta^i, has the node's
# values as its plain NTT.  The operand is carried from one chunk's node to
# the next by reducing its prefix one tree level at a time, so consecutive
# chunks share the work of their common ancestors instead of each folding
# the whole operand again; the twists ride on the first and last steps.


def _node_const(w: int, q: int, p: int, k: int, e: int) -> int:
    """c(k, e) = omega^([k]_{p-e} * 2^e), the value of x^(2^e) on node (k, e)."""
    return pow(w, bit_reverse(k, p - e) << e, q)


def _step(v: PolyView, s: int, coef: int, q: int, pre: int = 1, post: int = 1):
    """lo[c] = (lo[c] * pre^c + coef * hi[c]) * post^c for c < min(s, len(v)),
    where lo[c] = v[c] and hi[c] = v[c + s], 0 past len(v); at most one of
    pre and post differs from 1.  In blocks, with one power table.

    With coef = c(child) this turns the residue at a node of size 2s into
    the residue at that child; -c(child) undoes it.  A view no longer than
    s is already its own residue: only the twists touch it.
    """
    n_len = len(v)
    cnt = min(s, n_len - s) if coef else 0  # indices below this have a hi partner
    u = pre if pre != 1 else post
    n = cnt if u == 1 else min(s, n_len)
    if n <= 0:
        return
    regs = v.arena.regs
    off, d = v.off, v.dir
    table = _powers(u, min(BLOCK, n), q) if u != 1 else None
    step = table[-1] * u % q if u != 1 else 1
    cur = 1
    for a in range(0, n, BLOCK):
        b = min(n, a + BLOCK)
        m = min(b, cnt) - a
        xs = regs[_slc(off, d, a, b)]
        if m <= 0:
            vset(v, [x * t * cur for x, t in zip(xs, table)], a)
        else:
            ys = regs[_slc(off, d, a + s, a + s + m)]
            if m < b - a:
                ys += [0] * (b - a - m)
            if u == 1:
                vset(v, [x + coef * y for x, y in zip(xs, ys)], a)
            elif post != 1:
                vset(v, [(x + coef * y) * t * cur for x, y, t in zip(xs, ys, table)], a)
            else:
                vset(v, [x * t * cur + coef * y for x, y, t in zip(xs, ys, table)], a)
        cur = cur * step % q


def _walk(v: PolyView, node: tuple[int, int], target: tuple[int, int], w: int, q: int, p: int):
    """Carry v's prefix from the twisted residue at node to the one at
    target: up to their lowest common ancestor, then down.  The last step
    up and the first step down act on the same level and share one pass;
    the untwist rides on the first step, the twist on the last."""
    ka, ea = node
    kb, eb = target
    top = max(ea, eb)
    while (ka >> (top - ea)) != (kb >> (top - eb)):
        top += 1
    pre = pow(w, q - 1 - bit_reverse(ka, p - ea), q)  # theta(node)^-1
    post = pow(w, bit_reverse(kb, p - eb), q)  # theta(target)
    if top == ea and pre != 1:
        _step(v, 1 << ea, 0, q, pre)
    shared = ea < top and eb < top
    for e in range(ea, top):
        coef = q - _node_const(w, q, p, ka >> (e - ea), e)
        first = pre if e == ea else 1
        if not (shared and e == top - 1):
            _step(v, 1 << e, coef, q, first)
            continue
        coef = (coef + _node_const(w, q, p, kb >> (e - eb), e)) % q
        last = post if e == eb else 1
        if first != 1 and last != 1:
            _step(v, 1 << e, 0, q, first)
            first = 1
        _step(v, 1 << e, coef, q, first, last)
    for e in range(top - 1 - shared, eb - 1, -1):
        _step(v, 1 << e, _node_const(w, q, p, kb >> (e - eb), e), q, 1, post if e == eb else 1)
    if top == eb and post != 1:
        _step(v, 1 << eb, 0, q, 1, post)


def _node_ft(v: PolyView, node: tuple[int, int], w: int, q: int, p: int, inverse: bool):
    """The twisted residue at node (k, e) in v's prefix <-> its values at
    the node's points, slot i holding the value at omega^([k*2^e + i]_p),
    as partial_ft leaves them."""
    size = 1 << node[1]
    ntt(v.sub(0, size), RootOfUnity(pow(w, 1 << (p - node[1]), q), size), "inv" if inverse else "fwd")


def cumulative_fft_mul(f: PolyView, g: PolyView, h: PolyView):
    """h += f * g by transforming h once and streaming partial transforms
    of f and g over it; everything happens inside the three operands.

    The chunks of h are nodes of the coset tree, visited left to right; f
    and g are walked from node to node (see _walk) and restored by walking
    back to the root.
    """
    m, n = len(f), len(g)
    if len(h) != m + n - 1:
        raise SizeContract("need len(h) = len(f) + len(g) - 1")
    if m > n:
        f, g = g, f
        m, n = n, m
    if m == 0:
        return
    ring = h.arena.ring
    q = ring.q
    N = m + n - 1
    p = max(0, (N - 1).bit_length())
    w = ring.find_principal_root(1 << p).omega
    # every chunk transform writes inside the largest power-of-two prefix;
    # the transform of h writes all of h
    g.span(0, 1 << (n.bit_length() - 1))
    f.span(0, 1 << (m.bit_length() - 1))
    h.span(0, N)
    f_at = g_at = (0, p)
    with h.arena.call():
        _otfft(h, None, 1 << p, w, False)
        r = N
        while r > 0:
            ell = min(r, m).bit_length() - 1
            t = min(r, n).bit_length() - 1 - ell
            off = N - r
            g_node = (off >> (ell + t), ell + t)
            _walk(g, g_at, g_node, w, q, p)
            g_at = g_node
            _node_ft(g, g_node, w, q, p, False)
            for s in range(1 << t):
                f_node = ((off >> ell) + s, ell)
                _walk(f, f_at, f_node, w, q, p)
                f_at = f_node
                _node_ft(f, f_node, w, q, p, False)
                cnt = 1 << ell
                fs = _slc(f.off, f.dir, 0, cnt)
                gs = _slc(g.off, g.dir, s << ell, (s + 1) << ell)
                vacc(h, list(map(mul, f.arena.regs[fs], g.arena.regs[gs])), 1, off + (s << ell))
                h.arena.metrics.base_products += cnt
                _node_ft(f, f_node, w, q, p, True)
            _node_ft(g, g_node, w, q, p, True)
            r -= 1 << (ell + t)
        _walk(f, f_at, (0, p), w, q, p)
        _walk(g, g_at, (0, p), w, q, p)
        _otfft(h, None, 1 << p, w, True)


# ---------------------------------------------------------------------------
# in-place power series computations
# ---------------------------------------------------------------------------


def inplace_lower(f: PolyView, g: PolyView):
    """f = f * g mod x^n; g restored."""
    if len(f) != len(g):
        raise SizeContract("need equal sizes")
    with f.arena.call():
        _ipl(f, g)


def _ipl(f: PolyView, g: PolyView):
    n = len(f)
    if n == 0:
        return
    if n <= BLOCK:
        # f <- (f * g) mod x^n: one Kronecker product, one vset
        vset(f, _kron(f.tolist(), g.tolist(), f.arena.q, 0, n))
        f.arena.metrics.base_products += _pairs(n, n, 0, n)
        return
    k = (n + 1) // 2
    with f.arena.call():
        _ipl(f.sub(k, n), g.sub(0, n - k))
        _cum_slice(f.sub(0, k), g.sub(1, n), f.sub(k, n), k - 1, 1)
        _ipl(f.sub(0, k), g.sub(0, k))


def inplace_series_div(f: PolyView, g: PolyView, reversed_mode: bool = False):
    """f = f / g mod x^n; in reversed mode both series are read backwards
    (the reversed power series division used by Euclidean algorithms)."""
    if len(f) != len(g):
        raise SizeContract("need equal sizes")
    fv, gv = (f.rev(), g.rev()) if reversed_mode else (f, g)
    if len(gv) == 0 or gv.get(0) == 0:
        raise NonUnit("divisor constant term (of the view) is zero")
    with f.arena.call():
        _ipd(fv, gv)


def _ipd(f: PolyView, g: PolyView):
    n = len(f)
    if n == 0:
        return
    if n <= BASE:
        _div_recurrence(f, g, f, 0, n)
        return
    k = (n + 1) // 2
    with f.arena.call():
        _ipd(f.sub(0, k), g.sub(0, k))
        _cum_slice(f.sub(0, k), g.sub(1, n), f.sub(k, n), k - 1, -1)
        _ipd(f.sub(k, n), g.sub(0, n - k))


# ---------------------------------------------------------------------------
# remainders
# ---------------------------------------------------------------------------


def remainder_rwrw(f: PolyView, g: PolyView, r_out: PolyView):
    """r = f mod g; the quotient is produced block by block inside r and
    immediately multiplied away in place."""
    n = len(g)
    m = len(f) - n + 1
    if len(r_out) != n - 1:
        raise SizeContract("remainder has n-1 slots")
    if n == 0 or g.get(n - 1) == 0:
        raise NonUnitLeading("divisor leading coefficient is zero")
    with r_out.arena.call():
        if n == 1:
            return
        if m <= 0:
            vzero(r_out)
            vadd(r_out, f)
            return
        stride = n - 1
        blocks = (m + stride - 1) // stride
        b0 = m - (blocks - 1) * stride
        vzero(r_out)
        vcopy(r_out.sub(0, b0), f.sub(m + n - 1 - b0, m + n - 1), b0)
        _ipd(r_out.sub(0, b0).rev(), g.sub(n - b0, n).rev())
        pos = m + n - 1 - b0
        for blk in range(blocks):
            _ipl(r_out, g.sub(0, n - 1))
            vscale(r_out, -1)
            pos -= stride
            vadd(r_out, f.sub(pos, pos + stride))
            if blk < blocks - 1:
                _ipd(r_out.rev(), g.sub(1, n).rev())


def inplace_divrem(f: PolyView, g: PolyView, direction: str = "apply"):
    """Replace f by [r | q] (apply), or restore f from [r | q] (undo).

    The layout is the remainder in f[0, n-1) and the quotient in
    f[n-1, m+n-1).  Every step is a reversible in-place division or a
    cumulative product, so undo simply replays them backwards.
    """
    if direction not in ("apply", "undo"):
        raise BadParams(f"unknown direction {direction!r}")
    n, m = _divrem_sizes(f, g)
    with f.arena.call():
        if n == 1:
            vscale(f, f.arena.ring.inv(g.get(0)) if direction == "apply" else g.get(0))
            return
        if m == 0:
            return
        stride = n - 1
        blocks = (m + stride - 1) // stride
        b0 = m - (blocks - 1) * stride
        if direction == "apply":
            for i in range(blocks - 1, -1, -1):
                base = stride + i * stride
                size = b0 if i == blocks - 1 else stride
                blk = f.sub(base, base + size)
                _ipd(blk.rev(), g.sub(n - size, n).rev())
                _cum_slice(g.sub(0, n - 1), blk, f.sub(base - stride, base), 0, -1)
        else:
            for i in range(blocks):
                base = stride + i * stride
                size = b0 if i == blocks - 1 else stride
                blk = f.sub(base, base + size)
                _cum_slice(g.sub(0, n - 1), blk, f.sub(base - stride, base), 0, 1)
                _ipl(blk.rev(), g.sub(n - size, n).rev())


def _divrem_sizes(f: PolyView, g: PolyView) -> tuple[int, int]:
    """(n, m) = (len(g), len(f) - n + 1) once f can be divided by g."""
    n = len(g)
    m = len(f) - n + 1
    if m < 0:
        raise SizeContract("dividend shorter than divisor allows")
    if n == 0 or g.get(n - 1) == 0:
        raise NonUnitLeading("divisor leading coefficient is zero")
    return n, m


def cumulative_remainder(f: PolyView, g: PolyView, r_out: PolyView):
    """r += f mod g via apply / accumulate / undo of the in-place division."""
    n = len(g)
    if len(r_out) != n - 1:
        raise SizeContract("remainder has n-1 slots")
    _divrem_sizes(f, g)
    with r_out.arena.call():
        inplace_divrem(f, g, "apply")
        vadd(r_out, f.sub(0, min(len(f), n - 1)))
        inplace_divrem(f, g, "undo")


# ---------------------------------------------------------------------------
# modular products
# ---------------------------------------------------------------------------


def _top_nonzero(v: PolyView) -> int:
    for i in range(len(v) - 1, -1, -1):
        if v.get(i):
            return i
    return -1


def modular_mul(f: PolyView, g: PolyView, r_out: PolyView, p: PolyView):
    """r += f * g mod p for a monic modulus p of size n+1 and operands of
    size <= n: modular_mul_any, which then reduces nothing."""
    if len(f) > len(r_out) or len(g) > len(r_out):
        raise SizeContract("operands must have size <= n (reduce first)")
    modular_mul_any(f, g, r_out, p)


def _modmul_core(f: PolyView, g: PolyView, r_out: PolyView, p: PolyView):
    """Core cumulative modular product for real operand views of size <= n.

    The overflow part h1 = (f*g) quo x^n is materialized reversibly inside
    f's top coefficient window (whose edges are genuinely nonzero), turned
    into the quotient by a reversed division by the top of p, used, and
    then unwound.
    """
    n = len(r_out)
    q = r_out.arena.q
    if len(f) == 0 or len(g) == 0:
        return
    _cum_slice(f, g, r_out, 0, 1)
    tf = _top_nonzero(f)
    tg = _top_nonzero(g)
    if tf < 0 or tg < 0 or tf + tg < n:
        return
    w = tf + tg + 1 - n
    fwin = f.sub(n - tg, tf + 1)
    gwin = g.sub(n - tf, tg + 1)
    u = fwin.rev()
    _ipl(u, gwin.rev())
    _ipd(u, p.sub(n + 1 - w, n + 1).rev())
    _cum_slice(p.sub(0, n), fwin, r_out, 0, -1)
    _ipl(u, p.sub(n + 1 - w, n + 1).rev())
    _ipd(u, gwin.rev())


def modular_mul_any(f: PolyView, g: PolyView, r_out: PolyView, p: PolyView):
    """r += f * g mod p for operands of any sizes; f and g are reduced in
    place by the reversible Euclidean division and restored afterwards."""
    n = len(r_out)
    if len(p) != n + 1:
        raise SizeContract("modulus must have n+1 coefficients")
    if p.get(n) != 1:
        raise NonMonicModulus("modulus must be monic")
    ell, m = len(f), len(g)
    with r_out.arena.call():
        if ell > n:
            inplace_divrem(f, p, "apply")
        if m > n:
            inplace_divrem(g, p, "apply")
        _modmul_core(f.sub(0, min(ell, n)), g.sub(0, min(m, n)), r_out, p)
        if m > n:
            inplace_divrem(g, p, "undo")
        if ell > n:
            inplace_divrem(f, p, "undo")
