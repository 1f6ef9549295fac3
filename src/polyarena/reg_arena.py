"""Instrumented register file with permission enforcement and space metrics.

An Arena is a flat file of field elements.  Every register carries a fixed
permission tag; under the ro/rw model writes to input-only registers fail.
Metrics track the number of distinct scratch registers ever written (the
extra algebraic space high-water) and the deepest simulated call nesting
(the pointer-stack high-water).

The arena decides at build what a write must check (Arena.checked): the
input-only runs it refuses (ro/rw only) and the scratch runs it counts.
Every bulk write makes one check, PolyView.span, which refuses padding,
hands a checked arena its span and returns the slice it checked.  A
kernel lands a row it computed through vacc (add it) or vset (overwrite
with it), which claim and write one span each; only the butterflies, the
Strassen matrix rows and cs_rorw's modulus build write registers
themselves, under a claim they or their caller made.

Algorithms address the arena through PolyView windows: contiguous slices,
reversed slices, or fake-padded slices whose out-of-range reads yield zero
and whose out-of-range writes fail.  Views compose (subview of a reversed
padded view, etc.), which the in-place algorithms rely on heavily.

Scalar temporaries held in Python locals inside a single arithmetic
statement are not arena registers; each algorithm declares its constant
budget of such temporaries next to its definition.
"""

from __future__ import annotations

from itertools import groupby

from .coeff_ring import Zq
from .errors import (
    BadRange,
    LengthMismatch,
    OutOfRange,
    PaddingWrite,
    PermissionDenied,
    UnderflowExit,
)

# permission tags
INPUT_ONLY = 0
OUTPUT_ONLY = 1
INOUT = 2
SCRATCH = 3

PERM_NAMES = {INPUT_ONLY: "in", OUTPUT_ONLY: "out", INOUT: "inout", SCRATCH: "scratch"}

# permission models
RO_RW = "ro/rw"
RW_RW = "rw/rw"


class SpaceMetrics:
    """What a computation cost in space, as the arena measured it.

    extra_algebraic_highwater counts the distinct scratch registers ever
    written (a set of their indices), so rewriting a register counts nothing.

    pointer_depth_highwater is the deepest nesting of `arena.call()` scopes,
    the simulated call stack: only those scopes count.  Recursion inside
    MulKit (the linear-space reference kit, whose workspace is the c * size
    block its caller passes) and Python frames of helpers that open no scope
    are excluded by this convention.

    base_products counts the scalar products of the base cases by one rule:
    those the algorithm makes on its operands' real zones (their lengths
    where it reads padding as zeros), never reading values, so a zero
    coefficient costs what any other does.
    - dense_ref._slice_naive: the pairs (i, j) of f's and g's real zones
      with s <= i + j < s + len(dst) (dense_ref._pairs);
    - dense_ref._div_recurrence on [lo, hi): _pairs(hi, len(g), lo, hi),
      per coefficient its dot-product terms and its division by g[0];
    - the in-place leaves cs_rwrw._ipl and _ipd: n (n + 1) / 2;
    - cs_rwrw._cum_kara's leaf: its Karatsuba split's, 3^k at n = 2^k;
    - Strassen-Winograd, an executed PROD, an FFT pointwise product: one;
    - cs_rorw: Horner len(f) per point; a modulus build one per live
      coefficient per root while its row fills, then per group of at most
      BLOCK further roots the group's product by that rule and its
      product with the full row, _pairs(t, len(group product), 0, t);
      partial_interp's geometric rows one per coefficient, min(n,
      len(chunk)) per nonzero point with n = k (k - 1 beside a zero
      point, whose own term is its weight), the rest of a chunk's series
      by _div_recurrence's rule and the final low product by
      _slice_naive's, and interp_cs's last round by the same rule with
      one chunk and k = rem, its modulus one group.
    Scalings never count: vscale, vadd's and vacc's coefficient,
    twiddles, twist and fold, and the Lagrange weights.
    """

    __slots__ = ("scratch_touched", "pointer_depth_highwater", "base_products", "depth")

    def __init__(self):
        self.scratch_touched = set()
        self.pointer_depth_highwater = 0
        self.base_products = 0
        self.depth = 0

    @property
    def extra_algebraic_highwater(self) -> int:
        return len(self.scratch_touched)

    def reset(self):
        self.scratch_touched.clear()
        self.pointer_depth_highwater = 0
        self.base_products = 0
        self.depth = 0

    def summary(self) -> str:
        return (
            f"extra_algebraic={self.extra_algebraic_highwater} "
            f"pointer_depth={self.pointer_depth_highwater} "
            f"base_products={self.base_products}"
        )


class Arena:
    __slots__ = (
        "ring",
        "q",
        "regs",
        "perms",
        "model",
        "metrics",
        "checked",
        "_input_ranges",
        "_scratch_ranges",
    )

    def __init__(self, ring: Zq, values, perms, model: str = RW_RW):
        if len(values) != len(perms):
            raise LengthMismatch(f"{len(values)} values vs {len(perms)} perms")
        self.ring = ring
        self.q = ring.q
        self.regs = [v % ring.q for v in values]
        self.perms = list(perms)
        self.model = model
        self.metrics = SpaceMetrics()
        # permission tags come in contiguous runs: find them in one pass
        runs = {INPUT_ONLY: [], SCRATCH: []}
        lo = 0
        for tag, group in groupby(self.perms):
            hi = lo + len(list(group))
            if tag in runs:
                runs[tag].append((lo, hi))
            lo = hi
        self._input_ranges = runs[INPUT_ONLY] if model == RO_RW else []
        self._scratch_ranges = runs[SCRATCH]
        self.checked = bool(self._input_ranges or self._scratch_ranges)

    def __len__(self):
        return len(self.regs)

    # -- scalar access ----------------------------------------------------

    def read(self, i: int) -> int:
        if not 0 <= i < len(self.regs):
            raise OutOfRange(f"register {i}")
        return self.regs[i]

    def write(self, i: int, v: int):
        if not 0 <= i < len(self.regs):
            raise OutOfRange(f"register {i}")
        p = self.perms[i]
        if p == INPUT_ONLY and self.model == RO_RW:
            raise PermissionDenied(f"write to input-only register {i}")
        if p == SCRATCH:
            self.metrics.scratch_touched.add(i)
        self.regs[i] = v % self.q

    def check_span(self, lo: int, hi: int, touch: bool = True):
        """Single permission check for a bulk write to registers [lo, hi).

        A span that meets an input-only run (kept under ro/rw only) raises;
        with touch, the scratch registers in it count as written.  Both run
        lists come from construction; on an unchecked arena both are empty.
        """
        for a, b in self._input_ranges:
            if a < hi and lo < b:
                raise PermissionDenied(f"bulk write hits input-only registers [{max(a, lo)},{min(b, hi)})")
        if touch:
            touched = self.metrics.scratch_touched
            for a, b in self._scratch_ranges:
                o_lo, o_hi = max(a, lo), min(b, hi)
                if o_lo < o_hi:
                    touched.update(range(o_lo, o_hi))

    # -- call stack accounting --------------------------------------------

    def enter_call(self):
        m = self.metrics
        m.depth += 1
        if m.depth > m.pointer_depth_highwater:
            m.pointer_depth_highwater = m.depth

    def exit_call(self):
        m = self.metrics
        if m.depth == 0:
            raise UnderflowExit("exit_call without matching enter_call")
        m.depth -= 1

    def call(self):
        return _CallScope(self)

    # -- views -------------------------------------------------------------

    def view(self, lo: int, hi: int) -> "PolyView":
        if not 0 <= lo <= hi <= len(self.regs):
            raise BadRange(f"[{lo},{hi}) in arena of length {len(self.regs)}")
        return PolyView(self, lo, 1, hi - lo, 0, hi - lo)

    def dump(self) -> str:
        lines = []
        for i, (p, v) in enumerate(zip(self.perms, self.regs)):
            lines.append(f"{i}\t{PERM_NAMES[p]}\t{v}")
        return "\n".join(lines)


class _CallScope:
    __slots__ = ("arena",)

    def __init__(self, arena):
        self.arena = arena

    def __enter__(self):
        self.arena.enter_call()
        return self.arena

    def __exit__(self, *exc):
        self.arena.exit_call()
        return False


def make_view(arena: Arena, lo: int, hi: int, kind: str = "plain", logical_len: int | None = None) -> "PolyView":
    """View constructor: kind is "plain", "reversed" or "padded"."""
    v = arena.view(lo, hi)
    if kind == "plain":
        return v
    if kind == "reversed":
        return v.rev()
    if kind == "padded":
        if logical_len is None or logical_len < hi - lo:
            raise BadRange("padded view needs logical_len >= hi-lo")
        return v.padded(logical_len)
    raise BadRange(f"unknown view kind {kind!r}")


class PolyView:
    """Window into an arena: logical index i maps to off + dir*i.

    Indices in [rlo, rhi) are backed by registers; other indices inside the
    logical length read as zero and reject writes (fake padding).
    """

    __slots__ = ("arena", "off", "dir", "L", "rlo", "rhi")

    def __init__(self, arena, off, dir, L, rlo, rhi):
        self.arena = arena
        self.off = off
        self.dir = dir
        self.L = L
        self.rlo = max(0, rlo)
        self.rhi = min(L, rhi)
        if self.rhi < self.rlo:
            self.rhi = self.rlo

    def __len__(self):
        return self.L

    def __repr__(self):
        return f"PolyView(off={self.off}, dir={self.dir}, L={self.L}, real=[{self.rlo},{self.rhi}))"

    # -- scalars ------------------------------------------------------------

    def get(self, i: int) -> int:
        if not 0 <= i < self.L:
            raise OutOfRange(f"view index {i} of {self.L}")
        if i < self.rlo or i >= self.rhi:
            return 0
        return self.arena.regs[self.off + self.dir * i]

    def set(self, i: int, v: int):
        if not 0 <= i < self.L:
            raise OutOfRange(f"view index {i} of {self.L}")
        if i < self.rlo or i >= self.rhi:
            raise PaddingWrite(f"write to padded index {i}")
        self.arena.write(self.off + self.dir * i, v)

    # -- derived views -------------------------------------------------------

    def sub(self, a: int, b: int) -> "PolyView":
        if not 0 <= a <= b <= self.L:
            raise BadRange(f"sub [{a},{b}) of view length {self.L}")
        return PolyView(self.arena, self.off + self.dir * a, self.dir, b - a, self.rlo - a, self.rhi - a)

    def window(self, a: int, b: int) -> "PolyView":
        """Like sub but a may run below 0 and b beyond the length; the
        out-of-range part becomes padding."""
        if a > b:
            raise BadRange(f"window [{a},{b})")
        return PolyView(self.arena, self.off + self.dir * a, self.dir, b - a, self.rlo - a, self.rhi - a)

    def rev(self) -> "PolyView":
        L = self.L
        return PolyView(self.arena, self.off + self.dir * (L - 1), -self.dir, L, L - self.rhi, L - self.rlo)

    def padded(self, logical_len: int) -> "PolyView":
        if logical_len < self.L:
            raise BadRange("padded length below view length")
        return PolyView(self.arena, self.off, self.dir, logical_len, self.rlo, self.rhi)

    # -- bulk helpers ----------------------------------------------------------

    def tolist(self) -> list[int]:
        a = min(self.rlo, self.L)
        b = max(a, min(self.rhi, self.L))
        real = self.arena.regs[_slc(self.off, self.dir, a, b)] if a < b else []
        return [0] * a + real + [0] * (self.L - b)

    def span(self, a: int, b: int, touch: bool = True) -> slice:
        """The one permission check for a bulk write over logical [a, b):
        returns the physical slice of those registers."""
        if a >= b:
            return slice(0, 0)
        if a < self.rlo or b > self.rhi:
            raise PaddingWrite(f"bulk write [{a},{b}) outside real zone [{self.rlo},{self.rhi})")
        arena = self.arena
        if arena.checked:
            if self.dir == 1:
                arena.check_span(self.off + a, self.off + b, touch)
            else:
                arena.check_span(self.off - b + 1, self.off - a + 1, touch)
        return _slc(self.off, self.dir, a, b)


def require_writable(*views: PolyView):
    """Refuse a call before it starts: raise PermissionDenied when the real
    zone of a destination meets a run the arena refuses (ro/rw input-only).

    Nothing is written and no scratch is counted, so a refused call leaves
    the registers and the metrics as it found them.
    """
    for v in views:
        v.span(v.rlo, v.rhi, touch=False)


# ---------------------------------------------------------------------------
# region operations
#
# All respect fake padding: reads outside the real zone are zeros, and a
# write is attempted only where it could change a register, so adding a
# padded (zero) source over a padded destination is legal.  The bulk forms
# go through list slices (reads happen before writes, so aliasing regions
# see a consistent snapshot).
# ---------------------------------------------------------------------------


def _slc(off: int, d: int, a: int, b: int, step: int = 1) -> slice:
    """Physical slice of the logical indices a, a+step, ... below b."""
    if d == 1:
        return slice(off + a, off + b, step)
    stop = off - b
    return slice(off - a, stop if stop >= 0 else None, -step)


def vacc(dst: PolyView, vals: list[int], sign: int = 1, a: int = 0):
    """dst[a + i] += sign * vals[i] for i < len(vals), one claim and one
    slice write; vals are ints of any size and sign, sign is any scalar."""
    ds = dst.span(a, a + len(vals))
    q = dst.arena.q
    regs = dst.arena.regs
    c = sign % q
    if c == 1:
        regs[ds] = [(x + v) % q for x, v in zip(regs[ds], vals)]
    elif c == q - 1:
        regs[ds] = [(x - v) % q for x, v in zip(regs[ds], vals)]
    else:
        regs[ds] = [(x + c * v) % q for x, v in zip(regs[ds], vals)]


def vset(dst: PolyView, vals: list[int], a: int = 0):
    """dst[a + i] = vals[i] mod q for i < len(vals), one claim and one
    slice write; vals are ints of any size and sign."""
    ds = dst.span(a, a + len(vals))
    q = dst.arena.q
    dst.arena.regs[ds] = [v % q for v in vals]


def vadd(dst: PolyView, src: PolyView, sign: int = 1):
    """dst[i] += sign * src[i] over the overlap (trimmed to src's real zone);
    sign is any scalar."""
    n = min(dst.L, src.L)
    a = max(0, src.rlo)
    b = min(n, src.rhi)
    if a < b:
        vacc(dst, src.arena.regs[_slc(src.off, src.dir, a, b)], sign, a)


def vcopy(dst: PolyView, src: PolyView, length: int | None = None):
    """dst[i] = src[i] for i < length (default min length); pads copy as zero."""
    n = min(dst.L, src.L) if length is None else length
    if n > dst.L:
        raise OutOfRange("copy longer than destination")
    ds = dst.span(0, n)
    a = max(0, min(src.rlo, n))
    b = max(a, min(n, src.rhi))
    vals = src.arena.regs[_slc(src.off, src.dir, a, b)] if a < b else []
    if a or b < n:
        vals = [0] * a + vals + [0] * (n - b)
    dst.arena.regs[ds] = vals


def vzero(dst: PolyView, length: int | None = None):
    n = dst.L if length is None else min(length, dst.L)
    ds = dst.span(0, n)  # claimed first: the scratch set grows before the zeros exist
    dst.arena.regs[ds] = [0] * n


def vscale(dst: PolyView, c: int):
    """dst *= c over the real zone."""
    ds = dst.span(dst.rlo, dst.rhi)
    q = dst.arena.q
    c %= q
    dregs = dst.arena.regs
    dregs[ds] = [x * c % q for x in dregs[ds]]


def build_arena(ring: Zq, model: str, *segments) -> tuple[Arena, list[PolyView]]:
    """Assemble an arena from (values, perm) segments; returns plain views."""
    values: list[int] = []
    perms: list[int] = []
    bounds = []
    for vals, perm in segments:
        bounds.append((len(values), len(values) + len(vals)))
        values.extend(vals)
        perms.extend([perm] * len(vals))
    arena = Arena(ring, values, perms, model)
    return arena, [arena.view(lo, hi) for lo, hi in bounds]
