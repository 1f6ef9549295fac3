"""Linear-space reference algorithms and the multiplication kit.

The list-based functions here are the correctness oracles: schoolbook
products, long division, subproduct-tree evaluation and interpolation,
Newton series inversion.  They trade space for simplicity and are what the
in-place algorithms are tested against.

MulKit provides the workspace-disciplined building blocks (full, short and
middle products on arena views) that the constant-space reductions call.
Every kit routine receives an explicit scratch view and never uses more
than c * size registers of it, with c = 2 declared; exceeding the budget
raises, so the bound is enforced structurally rather than by trust.
slice_acc, the one chunk loop, cuts its slice into chunks whose scratch
fits the view it is given.  KIT is the one instance, and the reductions
derive their thresholds from MulKit.c.

One exact product kernel, _kron, serves every product at or below BLOCK:
it packs both operands into Python ints and multiplies them once
(Kronecker substitution); up to BLOCK coefficients that one C product is
faster than a Karatsuba split in Python.  _slice_naive (any slice of a
product, the kit's blocks at or below BLOCK included) feeds it blocks of
at most max(len(dst), BLOCK) coefficients of g (one output is a dot
product per block), so its transient stays a few times that; the leaves
of cs_rwrw._cum_kara and _ipl feed it two operands of at most BLOCK.
BLOCK is the one cut of every recursion and loop, here and in cs_rorw and
cs_rwrw.  _div_recurrence, the one naive power-series division, works in
output blocks of at most BASE on _slice_naive: BASE is no cut.
"""

from __future__ import annotations

import sys
from array import array
from operator import add, mul

from .coeff_ring import RootOfUnity, Zq
from .errors import (
    BadLength,
    BadOrder,
    BadParams,
    DuplicatePoint,
    NonUnitConstant,
    NonUnitLeading,
    OutOfRange,
)
from .reg_arena import PolyView, _slc, vacc, vadd, vcopy, vset, vzero


# ---------------------------------------------------------------------------
# plain-list oracles
# ---------------------------------------------------------------------------


def schoolbook_mul(ring: Zq, f: list[int], g: list[int]) -> list[int]:
    """Full product by direct convolution, O(len(f)*len(g))."""
    if not f or not g:
        return []
    q = ring.q
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % q
    return out


def horner_eval(ring: Zq, f: list[int], a: int) -> int:
    q = ring.q
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % q
    return acc


def bit_reverse(i: int, k: int) -> int:
    if not 0 <= i < (1 << k):
        raise OutOfRange(f"{i} is not a {k}-bit index")
    out = 0
    for _ in range(k):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def series_inv(ring: Zq, f: list[int], n: int | None = None) -> list[int]:
    """Inverse of f as a power series, truncated at precision n (Newton)."""
    if n is None:
        n = len(f)
    if not f or f[0] % ring.q == 0:
        raise NonUnitConstant("constant coefficient is not invertible")
    q = ring.q
    g = [ring.inv(f[0])]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        t = schoolbook_mul(ring, f[:k2], g)[:k2]
        t += [0] * (k2 - len(t))
        t = [(-c) % q for c in t]
        t[0] = (t[0] + 2) % q
        g = schoolbook_mul(ring, g, t)[:k2]
        g += [0] * (k2 - len(g))
        k = k2
    return g[:n]


def divrem(ring: Zq, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g; r is zero-padded to len(g)-1."""
    n = len(g)
    if n == 0 or g[-1] % ring.q == 0:
        raise NonUnitLeading("leading coefficient of divisor is not invertible")
    q = ring.q
    m = max(0, len(f) - n + 1)
    quo = [0] * m
    rem = [c % q for c in f]
    lead_inv = ring.inv(g[-1])
    for i in range(m - 1, -1, -1):
        c = rem[i + n - 1] * lead_inv % q
        quo[i] = c
        if c:
            for j in range(n):
                rem[i + j] = (rem[i + j] - c * g[j]) % q
    r = rem[: n - 1]
    return quo, r + [0] * (n - 1 - len(r))


def _prod_tree(ring: Zq, pts: list[int]) -> list[int]:
    if len(pts) == 1:
        return [(-pts[0]) % ring.q, 1]
    mid = len(pts) // 2
    return schoolbook_mul(ring, _prod_tree(ring, pts[:mid]), _prod_tree(ring, pts[mid:]))


def mp_eval_tree(ring: Zq, f: list[int], points: list[int]) -> list[int]:
    """Multipoint evaluation via recursive remaindering."""
    if not points:
        return []
    if len(points) <= 4 or len(f) <= 2:
        return [horner_eval(ring, f, a) for a in points]
    mid = len(points) // 2
    left, right = points[:mid], points[mid:]
    _, rl = divrem(ring, f, _prod_tree(ring, left))
    _, rr = divrem(ring, f, _prod_tree(ring, right))
    return mp_eval_tree(ring, rl or [0], left) + mp_eval_tree(ring, rr or [0], right)


def interp_tree(ring: Zq, points: list[int], values: list[int]) -> list[int]:
    """Unique size-n interpolant through (points[i], values[i])."""
    n = len(points)
    if len(values) != n:
        raise BadLength("points and values differ in length")
    if len(set(p % ring.q for p in points)) != n:
        raise DuplicatePoint("interpolation points must be pairwise distinct")
    if n == 0:
        return []
    q = ring.q
    m = _prod_tree(ring, points)
    md = [m[i] * i % q for i in range(1, len(m))]
    denom = mp_eval_tree(ring, md, points)
    weights = [v * ring.inv(d) % q for v, d in zip(values, denom)]

    def rec(lo: int, hi: int) -> list[int]:
        if hi - lo == 1:
            return [weights[lo]]
        mid = (lo + hi) // 2
        left = rec(lo, mid)
        right = rec(mid, hi)
        ml = _prod_tree(ring, points[lo:mid])
        mr = _prod_tree(ring, points[mid:hi])
        lo_part = schoolbook_mul(ring, left, mr)
        hi_part = schoolbook_mul(ring, right, ml)
        out = [0] * (hi - lo)
        for i, c in enumerate(lo_part):
            out[i] = (out[i] + c) % q
        for i, c in enumerate(hi_part):
            out[i] = (out[i] + c) % q
        return out

    return rec(0, n)


def karatsuba_mul(ring: Zq, f: list[int], g: list[int]) -> list[int]:
    """Full product through the kit's workspace-disciplined Karatsuba."""
    if not f or not g:
        return []
    from .reg_arena import INOUT, RW_RW, build_arena

    s = max(len(f), len(g))
    out_len = len(f) + len(g) - 1
    arena, (fv, gv, dv, wv) = build_arena(
        ring,
        RW_RW,
        (f, INOUT),
        (g, INOUT),
        ([0] * (2 * s - 1), INOUT),
        ([0] * (KIT.c * s + 4), INOUT),
    )
    KIT.full_into(dv, fv.padded(s), gv.padded(s), wv)
    return dv.tolist()[:out_len]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def poly_to_text(q: int, coeffs: list[int]) -> str:
    return f"{q};{','.join(str(c) for c in coeffs)}"


def poly_from_text(text: str) -> tuple[int, list[int]]:
    head, _, body = text.strip().partition(";")
    q = int(head)
    coeffs = [int(t) for t in body.split(",") if t.strip() != ""]
    return q, coeffs


# ---------------------------------------------------------------------------
# in-place NTT on a view (decimation in frequency, bit-reversed order)
# ---------------------------------------------------------------------------


# scalar budget: width of every butterfly block and twiddle table, and the
# one cut of every recursion and loop (a product of at most BLOCK is one _kron)
BLOCK = 128
# no cut: the width of _div_recurrence's output blocks, whose in-block
# triangle of scalar steps grows with its square
BASE = 32


def _powers(w: int, k: int, q: int) -> list[int]:
    """[w^0, ..., w^(k-1)]; callers keep k <= BLOCK."""
    table = [1] * k
    for j in range(1, k):
        table[j] = table[j - 1] * w % q
    return table


def _butterflies(regs, off, d, n, half, w, q, inverse=False, pairs=None, scale=None, lazy=False, stages=1):
    """One butterfly stage over logical [0, n) of a view (off, d) of regs,
    or with stages=2 the two stages half and half/2 in one pass.

    The pairs are (s + i, s + i + half) for every block start s = 0,
    2*half, ... below n and every i < pairs (default: half), with twiddle
    w^i.  Forward (DIF): (x, y) -> (x + y, (x - y) w^i).  Inverse (DIT):
    (x, y) -> (x + y w^i, x - y w^i), both multiplied by scale when it is
    given.  Each run of at most BLOCK pairs (see _pair_runs) is two
    list-slice comprehensions.

    Two stages are full ones (pairs is half): quads a, b, c, e at s + i +
    j*half/2 for j < 4 and i < half/2, with J = w^(half/2).  Forward, stage
    half and then stage half/2: (a + b + c + e, (a - b + c - e) w^2i,
    (a - c + J(b - e)) w^i, (a - c - J(b - e)) w^3i).  Inverse, stage
    half/2 and then stage half: with B, C, E = b w^2i, c w^i, e w^3i and
    U = J(C - E), (a + B + C + E, a - B + U, a + B - C - E, a - B - U),
    times scale when it is given.  Each run of at most BLOCK quads reads
    and writes each of its four slices once.

    A lazy inverse stage without scale leaves x + y w^i unreduced, in
    (-q, 2q) for reduced inputs; a lazy inverse pass leaves its four sums
    within 3q of the range of a (B, C, E and U are reduced), and a forward
    pass leaves a + b + c + e, at most four times its inputs' bound, so a
    later stage must reduce every slot.  A run whose twiddles are all 1
    (every run of stages 2 and 1) reduces its four slots.  Any stage or
    pass accepts unreduced inputs.
    """
    if pairs is None:
        pairs = half
    if ((n - 1) // (2 * half) + 1) * pairs < BLOCK:
        if stages == 2:
            # one stage at a time
            if inverse:
                _butterflies(regs, off, d, n, half >> 1, w * w % q, q, True)
                _butterflies(regs, off, d, n, half, w, q, True, scale=scale)
            else:
                _butterflies(regs, off, d, n, half, w, q)
                _butterflies(regs, off, d, n, half >> 1, w * w % q, q)
            return
        # fewer pairs than one block do not pay for building lists (measured
        # slower up to 64 pairs, break-even at 128): one pair at a time
        for s in range(0, n, 2 * half):
            t = 1
            for i in range(s, s + pairs):
                ja = off + d * i
                jb = ja + d * half
                x = regs[ja]
                if inverse:
                    y = regs[jb] * t
                    x, y = x + y, x - y
                    if scale is not None:
                        x, y = x * scale, y * scale
                else:
                    y = regs[jb]
                    x, y = x + y, (x - y) * t
                regs[ja] = x % q
                regs[jb] = y % q
                t = t * w % q
        return
    if stages == 2:
        m = half >> 1
        J = pow(w, m, q)
        lead = 1 if scale is None else scale
        for (s0, s1, s2, s3), tw in _pair_runs(off, d, n, 2 * half, 4, m, w, q, lead):
            A, B, C, E = regs[s0], regs[s1], regs[s2], regs[s3]
            o0, o1, o2, o3 = [], [], [], []
            # one loop per run appending to four lists beats one list
            # comprehension per slot: each quad is read once, into locals
            p0, p1, p2, p3 = o0.append, o1.append, o2.append, o3.append
            if tw is None and not inverse:
                for a, b, c, e in zip(A, B, C, E):
                    x = a + c
                    y = b + e
                    z = a - c
                    v = (b - e) * J % q
                    p0((x + y) % q)
                    p1((x - y) % q)
                    p2((z + v) % q)
                    p3((z - v) % q)
            elif tw is None:
                for a, b, c, e in zip(A, B, C, E):
                    x = a + b
                    y = a - b
                    r = c + e
                    u = (c - e) * J % q
                    p0((x + r) % q)
                    p1((y + u) % q)
                    p2((x - r) % q)
                    p3((y - u) % q)
            else:
                k = len(A)
                T1, T2, T3 = [t if type(t) is list else [t] * k for t in tw]
                quads = zip(A, B, C, E, T1, T2, T3)
                if not inverse:
                    for a, b, c, e, t1, t2, t3 in quads:
                        x = a + c
                        y = b + e
                        z = a - c
                        v = (b - e) * J % q
                        p0(x + y)
                        p1((x - y) * t2 % q)
                        p2((z + v) * t1 % q)
                        p3((z - v) * t3 % q)
                elif lazy and scale is None:
                    for a, b, c, e, t1, t2, t3 in quads:
                        b = b * t2 % q
                        c = c * t1 % q
                        e = e * t3 % q
                        x = a + b
                        y = a - b
                        r = c + e
                        u = (c - e) * J % q
                        p0(x + r)
                        p1(y + u)
                        p2(x - r)
                        p3(y - u)
                else:
                    for a, b, c, e, t1, t2, t3 in quads:
                        a = a * lead
                        b = b * t2 % q
                        c = c * t1 % q
                        e = e * t3 % q
                        x = a + b
                        y = a - b
                        r = c + e
                        u = (c - e) * J % q
                        p0((x + r) % q)
                        p1((y + u) % q)
                        p2((x - r) % q)
                        p3((y - u) % q)
            regs[s0], regs[s1], regs[s2], regs[s3] = o0, o1, o2, o3
        return
    # x + y w = 2x - (x - y w), so one product per pair; y w is reduced
    # first so that the difference stays a one-digit int
    two = None if scale is None else 2 * scale % q
    for (lo, hi), tw in _pair_runs(off, d, n, 2 * half, 2, pairs, w, q):
        xs = regs[lo]
        ys = regs[hi]
        if tw is not None:
            tw = tw[0]
        if not inverse:
            regs[lo] = [(x + y) % q for x, y in zip(xs, ys)]
            if tw is None:
                regs[hi] = [(x - y) % q for x, y in zip(xs, ys)]
            elif type(tw) is int:
                regs[hi] = [(x - y) * tw % q for x, y in zip(xs, ys)]
            else:
                regs[hi] = [(x - y) * t % q for x, y, t in zip(xs, ys, tw)]
            continue
        if scale is None:
            if tw is None:
                hs = [(x - y) % q for x, y in zip(xs, ys)]
            elif type(tw) is int:
                hs = [(x - y * tw % q) % q for x, y in zip(xs, ys)]
            else:
                hs = [(x - y * t % q) % q for x, y, t in zip(xs, ys, tw)]
            if lazy:
                regs[lo] = [x + x - h for x, h in zip(xs, hs)]
            else:
                regs[lo] = [(x + x - h) % q for x, h in zip(xs, hs)]
        else:
            if tw is None:
                hs = [(x - y) * scale % q for x, y in zip(xs, ys)]
            elif type(tw) is int:
                hs = [(x - y * tw % q) * scale % q for x, y in zip(xs, ys)]
            else:
                hs = [(x - y * t % q) * scale % q for x, y, t in zip(xs, ys, tw)]
            if two == 1:
                regs[lo] = [(x - h) % q for x, h in zip(xs, hs)]
            else:
                regs[lo] = [(x * two - h) % q for x, h in zip(xs, hs)]
        regs[hi] = hs


def _pair_runs(off, d, n, size, parts, count, w, q, lead=1):
    """Yield (slices, twiddles) runs of at most BLOCK butterflies covering
    the blocks [s, s + size), s = 0, size, ... below n, of a pass: for
    every i < count, one butterfly on the parts slots s + i + j*size/parts
    (j < parts) with the twiddles lead * w^(j*i), 0 < j < parts.  slices
    holds one slice per slot; twiddles is None when all are 1, else a
    list of parts - 1 entries, ints when one set serves the whole run,
    else lists.

    Contiguous runs take up to BLOCK consecutive i of one block, with
    BLOCK-entry tables of powers of w^j scaled once per run offset; when
    the blocks are many and short, strided runs take one i across up to
    BLOCK blocks with scalar twiddles.  The layout needing fewer runs is
    used.
    """
    gap = size // parts
    blocks = (n - 1) // size + 1
    if blocks * (-(-count // BLOCK)) <= count * (-(-blocks // BLOCK)):
        k = min(BLOCK, count)
        tables = [_powers(pow(w, j, q), k, q) for j in range(1, parts)]
        steps = _powers(pow(w, k, q), parts, q)[1:]
        # the run offset j0 scales table j by lead * w^(j0 j)
        scales = [lead] * (parts - 1)
        for j0 in range(0, count, BLOCK):
            b = min(BLOCK, count - j0)
            tw = tables if j0 == 0 and lead == 1 else [[c * t % q for t in table] for c, table in zip(scales, tables)]
            for s in range(j0, n, size):
                yield [_slc(off, d, s + j, s + j + b) for j in range(0, size, gap)], tw
            scales = [c * t % q for c, t in zip(scales, steps)]
        return
    t = 1
    span = BLOCK * size
    for i in range(count):
        tw = [lead * c % q for c in _powers(t, parts, q)[1:]]
        if tw.count(1) == len(tw):
            tw = None
        for s in range(i, n, span):
            e = min(n, s + span)
            yield [_slc(off, d, s + j, e, size) for j in range(0, size, gap)], tw
        t = t * w % q


def ntt(view: PolyView, root: RootOfUnity, direction: str = "fwd"):
    """Replace view by its DFT at bit-reversed powers of root, in place.

    No permutation pass: forward output slot j holds f(omega**[j]_k) where
    [j]_k is the k-bit reversal of j.  "inv" undoes "fwd" exactly.  The
    stages go two per pass (radix 4, see _butterflies); an odd count
    leaves one radix-2 stage, the last one forward and the first inverse.
    Scalar budget: each pass holds three twiddle tables of at most BLOCK
    entries and their scaled copies, and the four input and four output
    lists of one run of at most BLOCK quads, so at most 14 * BLOCK scalars
    whatever the length.
    """
    n = len(view)
    if direction not in ("fwd", "inv"):
        raise BadParams(f"unknown direction {direction!r}")
    if n & (n - 1):
        raise BadLength(f"length {n} is not a power of two")
    if root.order != n:
        raise BadOrder(f"root order {root.order} != length {n}")
    if view.rlo != 0 or view.rhi != n:
        raise BadLength("ntt requires a fully backed view")
    if n <= 1:
        return
    view.span(0, n)
    arena = view.arena
    q = arena.q
    regs = arena.regs
    off, d = view.off, view.dir
    if direction == "fwd":
        half = n >> 1
        while half > 1:
            _butterflies(regs, off, d, n, half, pow(root.omega, n // (2 * half), q), q, stages=2)
            half >>= 2
        if half:
            # the odd stage, whose only twiddle is 1
            _butterflies(regs, off, d, n, 1, q - 1, q)
        return
    winv = pow(root.omega, q - 2, q)
    # the top stage of the first pass: the odd stage goes alone
    half = 1 if (n.bit_length() - 1) % 2 else 2
    while half < n:
        # the halving from each stage is deferred to the last pass, which
        # scales by 1/n and reduces; every other one leaves its sums
        # unreduced, ints of at most two digits when q < 2^29
        scale = pow(n, q - 2, q) if 2 * half == n else None
        stages = 1 if half == 1 else 2
        _butterflies(regs, off, d, n, half, pow(winv, n // (2 * half), q), q, inverse=True, scale=scale, lazy=True, stages=stages)
        half <<= 2


def _slot_bytes(q: int, m: int) -> int:
    """Bytes per coefficient slot of _kron over Z/q when the shorter operand
    has m coefficients: room for m (q - 1)^2, the largest coefficient of the
    product, rounded up to 4 or 8 bytes (array "I" / "Q") when it fits in 8."""
    bits = (m * (q - 1) ** 2).bit_length()
    return 4 if bits <= 32 else 8 if bits <= 64 else (bits + 7) // 8


def _packed(fa: list[int], gb: list[int], w: int, lo: int, hi: int) -> list[int]:
    """(fa * gb)[lo : hi], 0 <= lo < hi <= len(fa) + len(gb) - 1, through
    one big-int product on slots of w = 4 or 8 bytes (array "I" / "Q")."""
    code = "I" if w == 4 else "Q"
    order = sys.byteorder
    x = int.from_bytes(array(code, fa).tobytes(), order)
    y = int.from_bytes(array(code, gb).tobytes(), order)
    return array(code, (x * y).to_bytes((len(fa) + len(gb) - 1) * w, order)[lo * w : hi * w]).tolist()


def _kron(fa: list[int], gb: list[int], q: int, s: int, r: int) -> list[int]:
    """(fa * gb)[s : s + r] as exact ints, zero outside the product, for
    coefficients in [0, q): one big-int product (Kronecker substitution).

    Each list is packed into an int, one slot of _slot_bytes per
    coefficient.  A slot holds min(len) (q - 1)^2, so none carries into the
    next and the slots of the integer product are the coefficients of the
    polynomial product.  Slots of 4 or 8 bytes are packed and unpacked by
    array("I" / "Q") (_packed), wider ones by int.to_bytes.  When the
    shorter operand needs wider slots but each of its two halves fits 8
    bytes (84 to 166 coefficients over 469762049), the halves are two
    products on 8-byte slots, added.  The transient is the two packed
    operands, their product and the r returned ints, and the callers bound
    the operands: _slice_naive passes fewer than 2 max(len(dst), BLOCK)
    coefficients each, dst its output, and the leaves of _cum_kara and _ipl
    and the local kernels of cs_rorw at most BLOCK + 1.
    """
    la, lb = len(fa), len(gb)
    n = la + lb - 1
    lo, hi = max(s, 0), min(s + r, n)
    if not la or not lb or lo >= hi:
        return [0] * r
    short, other = (fa, gb) if la <= lb else (gb, fa)
    if la == 1 or lb == 1:
        # one coefficient times a row: nothing to pack
        out = [short[0] * y for y in other[lo:hi]]
    elif (w := _slot_bytes(q, len(short))) <= 8:
        out = _packed(fa, gb, w, lo, hi)
    elif _slot_bytes(q, h := (len(short) + 1) // 2) <= 8:
        out = [0] * (hi - lo)
        for i in (0, h):
            # other[j] meets the output with the piece only for i + j < hi
            piece, rest = short[i : i + h], other[: hi - i]
            a, b = max(lo, i), min(hi, i + len(piece) + len(rest) - 1)
            if a < b:
                out[a - lo : b - lo] = map(add, out[a - lo : b - lo], _packed(piece, rest, 8, a - i, b - i))
    else:
        x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in fa]), "little")
        y = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in gb]), "little")
        raw = (x * y).to_bytes(n * w, "little")
        out = [int.from_bytes(raw[i : i + w], "little") for i in range(lo * w, hi * w, w)]
    if lo > s or hi < s + r:
        out = [0] * (lo - s) + out + [0] * (s + r - hi)
    return out


def _tri(t: int) -> int:
    """#{(i, j) : i, j >= 0, i + j < t}."""
    return t * (t + 1) // 2 if t > 0 else 0


def _pairs(a: int, b: int, lo: int, hi: int) -> int:
    """#{(i, j) : 0 <= i < a, 0 <= j < b, lo <= i + j < hi}, by inclusion
    and exclusion over the pairs with i + j below hi and below lo."""
    return (
        _tri(hi) - _tri(hi - a) - _tri(hi - b) + _tri(hi - a - b)
        - _tri(lo) + _tri(lo - a) + _tri(lo - b) - _tri(lo - a - b)
    )


def _slice_naive(dst: PolyView, f: PolyView, g: PolyView, s: int, sign: int = 1):
    """dst[d] += sign * (f * g)[s + d] for d < len(dst); f and g are only read.

    The g[j] of g's real zone that meet dst are taken in blocks of at most
    max(len(dst), BLOCK); each block is one _kron against the window of f's
    real zone it meets, landed by one vacc.  The opening claim of all of
    dst refuses the call before it counts.  One output is a dot product
    per block (f read upward, then reversed), landed once.  base_products
    counts the pairs of the two real zones that meet dst.
    """
    r = len(dst)
    arena = dst.arena
    q = arena.q
    dst.span(0, r)
    flo, fhi = f.rlo, f.rhi
    # g[j] meets dst through f's real zone iff s - fhi < j < s + r - flo
    jlo = max(g.rlo, s - fhi + 1)
    jhi = min(g.rhi, s + r - flo)
    if r == 0 or flo >= fhi or jlo >= jhi:
        return
    fregs, foff, fd = f.arena.regs, f.off, f.dir
    gregs, goff, gd = g.arena.regs, g.off, g.dir
    arena.metrics.base_products += _pairs(fhi - flo, jhi - jlo, s - flo - jlo, s + r - flo - jlo)
    width = max(r, BLOCK)
    if r == 1:
        acc = 0
        for j0 in range(jlo, jhi, width):
            j1 = min(j0 + width, jhi)
            acc += sum(map(mul, reversed(fregs[_slc(foff, fd, s - j1 + 1, s - j0 + 1)]), gregs[_slc(goff, gd, j0, j1)]))
        vacc(dst, [acc], sign)
        return
    for j0 in range(jlo, jhi, width):
        j1 = min(j0 + width, jhi)
        # the f[i] that meet dst with one of g[j0 : j1]
        i0 = max(flo, s - j1 + 1)
        i1 = min(fhi, s + r - j0)
        dlo = max(0, i0 + j0 - s)
        dhi = min(r, i1 + j1 - 1 - s)
        vals = _kron(fregs[_slc(foff, fd, i0, i1)], gregs[_slc(goff, gd, j0, j1)], q, s + dlo - i0 - j0, dhi - dlo)
        vacc(dst, vals, sign, dlo)


def _div_recurrence(f: PolyView, g: PolyView, h: PolyView, lo: int, hi: int):
    """h[j] = (f[j] - sum_{1 <= i <= min(j, len(g)-1)} g[i] h[j-i]) / g[0]
    for j in [lo, hi): the coefficients of f / g, reading h below lo.

    In output blocks of at most BASE: the block of f lands in h's block
    (nothing to move when h is f itself; else h and f must not overlap),
    the part of the sum that reads h below the block is one _slice_naive
    pass (which takes h below the block BLOCK coefficients at a time), and
    the in-block triangle runs on the block's values and at most BASE - 1
    coefficients of g, landed by one vset.  So no slice read holds
    BASE + BLOCK values, whatever len(g) and hi - lo.
    base_products counts _pairs(hi, len(g), lo, hi), per coefficient its
    dot-product terms and its division by g[0] (on g's full length, where
    _slice_naive would count g's real zone only).
    """
    if lo >= hi:
        return
    arena = h.arena
    q = arena.q
    metrics = arena.metrics
    count = metrics.base_products + _pairs(hi, len(g), lo, hi)
    g0inv = arena.ring.inv(g.get(0))
    g1 = g.sub(1, len(g))
    row = g.sub(1, min(len(g), BASE)).tolist()
    for j0 in range(lo, hi, BASE):
        j1 = min(j0 + BASE, hi)
        blk = h.sub(j0, j1)
        if f is not h:
            vcopy(blk, f.sub(j0, j1))
        if j0:
            _slice_naive(blk, g1, h.sub(0, j0), j0 - 1, -1)
        out = []
        for x in blk.tolist():
            out.append((x - sum(map(mul, row, reversed(out)))) * g0inv % q)
        vset(blk, out)
    metrics.base_products = count


# ---------------------------------------------------------------------------
# multiplication kit on views
# ---------------------------------------------------------------------------


class MulKit:
    """Workspace-disciplined products on views.

    c is the declared scratch factor: every routine works within c * size
    scratch registers (size = logical operand size).
    """

    c = 2

    # -- full product --------------------------------------------------------

    def full_into(self, dst: PolyView, f: PolyView, g: PolyView, ws: PolyView):
        """dst[0, 2s-1) = f * g for equal logical sizes s; overwrites dst."""
        s = len(f)
        if len(g) != s:
            raise BadLength("full_into needs equal logical sizes")
        if len(dst) < 2 * s - 1:
            raise BadLength("full_into destination too short")
        if s <= BLOCK:
            vzero(dst, 2 * s - 1)
            _slice_naive(dst.sub(0, 2 * s - 1), g, f, 0)
            return
        m = (s + 1) // 2
        f0, f1 = f.sub(0, m), f.sub(m, s)
        g0, g1 = g.sub(0, m), g.sub(m, s)
        tmp_f = ws.sub(0, m)
        tmp_g = ws.sub(m, 2 * m)
        vcopy(tmp_f, f0, m)
        vadd(tmp_f, f1)
        vcopy(tmp_g, g0, m)
        vadd(tmp_g, g1)
        # middle product block first, then fix up with f0*g0 and f1*g1
        self.full_into(dst.sub(m, 3 * m - 1), tmp_f, tmp_g, ws.sub(2 * m, len(ws)))
        p = ws.sub(0, 2 * m - 1)
        self.full_into(p, f0, g0, ws.sub(2 * m - 1, len(ws)))
        vcopy(dst.sub(0, m), p, m)
        vadd(dst.sub(m, 2 * m - 1), p.sub(m, 2 * m - 1))
        vadd(dst.sub(m, 3 * m - 1), p, -1)
        t = s - m
        p2 = ws.sub(0, 2 * t - 1)
        self.full_into(p2, f1, g1, ws.sub(2 * t - 1, len(ws)))
        vadd(dst.sub(m, 3 * m - 1), p2, -1)
        vadd(dst.sub(2 * m, min(3 * m - 1, 2 * s - 1)), p2)
        if 3 * m - 1 < 2 * s - 1:
            vcopy(dst.sub(3 * m - 1, 2 * s - 1), p2.sub(m - 1, 2 * t - 1))

    # -- short (lower) product -----------------------------------------------

    def low_acc(self, dst: PolyView, f: PolyView, g: PolyView, ws: PolyView, sign: int = 1):
        """dst += sign * (f * g mod x^len(dst))."""
        t = len(dst)
        if t == 0:
            return
        f = f.sub(0, min(len(f), t))
        g = g.sub(0, min(len(g), t))
        if f.rhi <= f.rlo or g.rhi <= g.rlo:
            return
        if t <= BLOCK or min(f.rhi - f.rlo, g.rhi - g.rlo) <= 2:
            # operands swapped: f's coefficients are the ones taken in blocks
            _slice_naive(dst, g, f, 0, sign)
            return
        m = (t + 1) // 2
        p = ws.sub(0, 2 * m - 1)
        self.full_into(
            p,
            f.sub(0, min(m, len(f))).padded(m),
            g.sub(0, min(m, len(g))).padded(m),
            ws.sub(2 * m - 1, len(ws)),
        )
        vadd(dst, p, sign)
        if len(f) > m:
            self.low_acc(dst.sub(m, t), f.sub(m, len(f)), g, ws, sign)
        if len(g) > m:
            self.low_acc(dst.sub(m, t), f.sub(0, min(m, len(f))), g.sub(m, len(g)), ws, sign)

    # -- balanced middle product ----------------------------------------------

    def mid_acc(self, dst: PolyView, fwin: PolyView, g: PolyView, ws: PolyView, sign: int = 1):
        """dst += sign * Mid(fwin, g): fwin has 2r-1 slots, g and dst have r.

        Karatsuba-style three half-size middle products; inputs are only
        read, so padded windows are fine.
        """
        r = len(dst)
        if r == 0:
            return
        if len(fwin) != 2 * r - 1 or len(g) != r:
            raise BadLength("mid_acc expects sizes (2r-1, r, r)")
        if fwin.rhi <= fwin.rlo or g.rhi <= g.rlo:
            return
        if r <= BLOCK:
            _slice_naive(dst, fwin, g, r - 1, sign)
            return
        if r % 2:
            # last output row and the g[r-1] rank-one row, then an even core
            _slice_naive(dst.sub(r - 1, r), fwin, g, 2 * r - 2, sign)
            _slice_naive(dst.sub(0, r - 1), fwin, g.sub(r - 1, r), 0, sign)
            self.mid_acc(dst.sub(0, r - 1), fwin.sub(1, 2 * r - 2), g.sub(0, r - 1), ws, sign)
            return
        h = r // 2
        a1 = fwin.sub(h, 3 * h - 1)
        tmp_b = ws.sub(0, h)
        vcopy(tmp_b, g.sub(0, h), h)
        vadd(tmp_b, g.sub(h, 2 * h))
        dst0, dst1 = dst.sub(0, h), dst.sub(h, r)
        vadd(dst1, dst0, -1)
        self.mid_acc(dst0, a1, tmp_b, ws.sub(h, len(ws)), sign)
        vadd(dst1, dst0)
        tmp_a = ws.sub(0, 2 * h - 1)
        vcopy(tmp_a, fwin.sub(0, 2 * h - 1), 2 * h - 1)
        vadd(tmp_a, a1, -1)
        self.mid_acc(dst0, tmp_a, g.sub(h, 2 * h), ws.sub(2 * h - 1, len(ws)), sign)
        vcopy(tmp_a, fwin.sub(2 * h, 4 * h - 1), 2 * h - 1)
        vadd(tmp_a, a1, -1)
        self.mid_acc(dst1, tmp_a, g.sub(0, h), ws.sub(2 * h - 1, len(ws)), sign)

    # -- derived: unbalanced middle and product slices -------------------------

    def mid_unbalanced_acc(self, dst: PolyView, fchunk: PolyView, gpref: PolyView, ws: PolyView, sign: int = 1):
        """dst += sign * [fchunk * gpref]_{k-1}^{k+l-1}, sizes (k+l-1, k) -> l."""
        ell, k = len(dst), len(gpref)
        if ell and k and len(fchunk) != k + ell - 1:
            raise BadLength("mid_unbalanced_acc expects len(fchunk) = k + l - 1")
        self.slice_acc(dst, fchunk, gpref, k - 1, ws, sign)

    def slice_acc(self, dst: PolyView, f: PolyView, g: PolyView, s: int, ws: PolyView, sign: int = 1):
        """dst += sign * [f * g]_s^{s+len(dst)} in chunks of r =
        min(len(dst), len(ws) // (c + 1)) outputs, whose scratch fits ws,
        each in blocks of r coefficients of g.

        When r <= BLOCK every block would be the naive mid_acc
        _slice_naive(dst, win, gj, r - 1), so one _slice_naive over all of
        f and g does their writes and base products; it is skipped when f
        or g has an empty real zone, as every block would be.
        """
        t = len(dst)
        if t == 0 or len(f) == 0 or len(g) == 0:
            return
        r = max(1, min(t, len(ws) // (self.c + 1)))
        if r <= BLOCK:
            if f.rlo < f.rhi and g.rlo < g.rhi:
                _slice_naive(dst, f, g, s, sign)
            return
        if r < t:
            for lo in range(0, t, r):
                self.slice_acc(dst.sub(lo, min(lo + r, t)), f, g, s + lo, ws, sign)
            return
        nb = (len(g) + r - 1) // r
        for j in range(nb):
            gj = g.sub(j * r, min((j + 1) * r, len(g))).padded(r)
            u = s - j * r
            self.mid_acc(dst, f.window(u - r + 1, u + r), gj, ws, sign)


KIT = MulKit()
