"""Automatic in-place transformation of cumulative bilinear algorithms.

A bilinear algorithm (A, B, C) computes z += C((Ax) o (By)) with t
elementwise products.  emit_inplace turns it into a straight-line program
of cumulative products and in-place additions that needs no temporary
registers: each product row folds its linear combination into a pivot
operand, distributes the product through pre/post additions on z, and
unwinds the operands afterwards.  One emitter serves both the scalar 1D
form and the paired 2D form of recursive polynomial products.

Also here: the hand-optimized constant-space Strassen-Winograd product on
square matrix views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import index

from .coeff_ring import Zq
from .errors import (
    BadParams,
    DimMismatch,
    NotPowerOfTwo,
    OverlapUnsupported,
    RegionMismatch,
    ZeroRow,
    check_sign,
)
from .reg_arena import PolyView, require_writable, vadd, vscale

# instruction kinds
ADD = "add"  # dst += coeff * src
SCALE = "scale"  # dst *= coeff
DIV = "div"  # dst /= coeff
PROD = "prod"  # z_k += sign * x_i * y_j
PAIR = "pair"  # (z_k, z_{k+1}) += x_i o y_j


@dataclass(frozen=True)
class Instr:
    kind: str
    dst: tuple[str, int]
    src: tuple[str, int] | None = None
    coeff: int = 1
    src2: tuple[str, int] | None = None
    sign: int = 1


class BilinearProgram:
    """Validated triple (A, B, C) over a prime field."""

    def __init__(self, ring: Zq, A, B, C, two_d: bool = False):
        self.ring = ring
        q = ring.q
        self.A = [[int(v) % q for v in row] for row in A]
        self.B = [[int(v) % q for v in row] for row in B]
        self.C = [[int(v) % q for v in row] for row in C]
        self.two_d = two_d
        self.t = len(self.A)
        self.m = len(self.A[0]) if self.A else 0
        self.n = len(self.B[0]) if self.B else 0
        self.s = len(self.C)

    @property
    def width_c(self) -> int:
        return self.t + 1 if self.two_d else self.t


def validate(ring: Zq, A, B, C, two_d: bool = False) -> BilinearProgram:
    prog = BilinearProgram(ring, A, B, C, two_d)
    if len(prog.B) != prog.t:
        raise DimMismatch("A and B must have the same number of rows")
    if any(len(row) != prog.m for row in prog.A):
        raise DimMismatch("ragged A")
    if any(len(row) != prog.n for row in prog.B):
        raise DimMismatch("ragged B")
    if any(len(row) != prog.width_c for row in prog.C):
        raise DimMismatch(f"C rows must have {prog.width_c} entries")
    for name, M in (("A", prog.A), ("B", prog.B), ("C", prog.C)):
        for i, row in enumerate(M):
            if row and not any(row):
                raise ZeroRow(f"all-zero row {i} in {name}")
    if two_d:
        for i, row in enumerate(prog.C):
            if row[prog.t]:
                raise DimMismatch("2D programs route high parts by row shift; last column of C must be zero")
    return prog


def sigma(M) -> int:
    return sum(1 for row in M for v in row if v)


def tau(M, q: int) -> int:
    return sum(1 for row in M for v in row if v not in (0, 1, q - 1))


def _pivot_1d(col, q: int) -> int:
    """Lowest +-1 entry if any, else lowest nonzero."""
    for i, v in enumerate(col):
        if v in (1, q - 1):
            return i
    for i, v in enumerate(col):
        if v:
            return i
    raise ZeroRow("no pivot in an all-zero column")


def _pivot_lowest(col) -> int:
    for i, v in enumerate(col):
        if v:
            return i
    raise ZeroRow("no pivot in an all-zero column")


def _fold_operand(instrs, reg, row, pivot, q):
    c = row[pivot]
    if c != 1:
        instrs.append(Instr(SCALE, (reg, pivot), coeff=c))
    for l, v in enumerate(row):
        if l != pivot and v:
            instrs.append(Instr(ADD, (reg, pivot), (reg, l), v))


def _unfold_operand(instrs, reg, row, pivot, q):
    for l, v in enumerate(row):
        if l != pivot and v:
            instrs.append(Instr(ADD, (reg, pivot), (reg, l), (q - v) % q))
    c = row[pivot]
    if c != 1:
        instrs.append(Instr(DIV, (reg, pivot), coeff=c))


def emit_inplace(prog: BilinearProgram) -> list[Instr]:
    """Straight-line in-place program for z += C((Ax) o (By)).

    Emits exactly t cumulative products; counting the fused accumulation
    of each product as one addition, the totals match
    2(sigma(A)+sigma(B)+sigma(C)) - 5t additions and
    2(tau(A)+tau(B)+tau(C)) scalar multiplications.

    A 2D program drives recursive polynomial-style products: each product
    is a pair (low, high) accumulated into adjacent z blocks, so column u
    of C distributes the low part at its rows and the high part one row
    below.  Its pre- and post-additions run once per shift d in (0, 1), and
    its pivot in C is the lowest nonzero row so that the overlapping pair
    updates interleave correctly.
    """
    q = prog.ring.q
    shifts = (0, 1) if prog.two_d else (0,)
    instrs: list[Instr] = []
    for u in range(prog.t):
        arow = prog.A[u]
        brow = prog.B[u]
        ccol = [prog.C[k][u] for k in range(prog.s)]
        if prog.two_d and not any(ccol):
            raise OverlapUnsupported(f"product {u} reaches no z block")
        i = _pivot_1d(arow, q)
        j = _pivot_1d(brow, q)
        k = _pivot_lowest(ccol) if prog.two_d else _pivot_1d(ccol, q)
        _fold_operand(instrs, "x", arow, i, q)
        _fold_operand(instrs, "y", brow, j, q)
        ck = ccol[k]
        others = [(l, v) for l, v in enumerate(ccol) if l != k and v]
        for d in shifts:
            if ck != 1:
                instrs.append(Instr(DIV, ("z", k + d), coeff=ck))
            for l, v in others:
                instrs.append(Instr(ADD, ("z", l + d), ("z", k + d), (q - v) % q))
        instrs.append(Instr(PAIR if prog.two_d else PROD, ("z", k), ("x", i), src2=("y", j)))
        for d in reversed(shifts):
            for l, v in others:
                instrs.append(Instr(ADD, ("z", l + d), ("z", k + d), v))
            if ck != 1:
                instrs.append(Instr(SCALE, ("z", k + d), coeff=ck))
        _unfold_operand(instrs, "y", brow, j, q)
        _unfold_operand(instrs, "x", arow, i, q)
    return instrs


# the benchmark cases call the 2D emitter by its former name
emit_inplace_2d = emit_inplace


def instruction_counts(instrs, q: int) -> dict[str, int]:
    """Products, additions and scalar multiplications of a program.

    A cumulative product carries a fused addition, so it counts toward
    both products and additions.  Multiplications by 0, 1 or -1 are not
    scalings.
    """
    prods = sum(1 for ins in instrs if ins.kind in (PROD, PAIR))
    adds = sum(1 for ins in instrs if ins.kind == ADD) + prods
    nontrivial = lambda c: c % q not in (0, 1, q - 1)
    scalings = sum(1 for ins in instrs if ins.kind in (SCALE, DIV) and nontrivial(ins.coeff))
    scalings += sum(1 for ins in instrs if ins.kind == ADD and nontrivial(ins.coeff))
    return {"products": prods, "additions": adds, "scalings": scalings}


# ---------------------------------------------------------------------------
# program text format
# ---------------------------------------------------------------------------


def _reg_name(reg: tuple[str, int]) -> str:
    return f"{reg[0]}{reg[1]}"


def _coeff_str(c: int, q: int) -> str:
    return "-1" if c == q - 1 else str(c)


def program_to_text(instrs, q: int) -> str:
    lines = []
    for ins in instrs:
        if ins.kind == ADD:
            c = ins.coeff % q
            if c == 1:
                lines.append(f"{_reg_name(ins.dst)} += {_reg_name(ins.src)}")
            else:
                lines.append(f"{_reg_name(ins.dst)} += {_coeff_str(c, q)} * {_reg_name(ins.src)}")
        elif ins.kind == SCALE:
            lines.append(f"{_reg_name(ins.dst)} *= {_coeff_str(ins.coeff % q, q)}")
        elif ins.kind == DIV:
            lines.append(f"{_reg_name(ins.dst)} /= {_coeff_str(ins.coeff % q, q)}")
        elif ins.kind == PROD:
            op = "+=" if ins.sign > 0 else "-="
            lines.append(f"{_reg_name(ins.dst)} {op} {_reg_name(ins.src)} * {_reg_name(ins.src2)}")
        elif ins.kind == PAIR:
            k = ins.dst[1]
            lines.append(f"(z{k}, z{k + 1}) += {_reg_name(ins.src)} (*) {_reg_name(ins.src2)}")
        else:
            raise BadParams(f"unknown instruction kind {ins.kind!r}")
    return "\n".join(lines)


def _parse_reg(tok: str) -> tuple[str, int]:
    tok = tok.strip()
    if not tok or tok[0] not in "xyz":
        raise BadParams(f"bad register {tok!r}")
    return (tok[0], int(tok[1:]))


def program_from_text(text: str) -> list[Instr]:
    instrs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("("):
            head, _, rest = line.partition("+=")
            k = _parse_reg(head.strip(" ()").split(",")[0])[1]
            a, _, b = rest.partition("(*)")
            instrs.append(Instr(PAIR, ("z", k), _parse_reg(a), src2=_parse_reg(b)))
            continue
        if "*=" in line:
            dst, _, c = line.partition("*=")
            instrs.append(Instr(SCALE, _parse_reg(dst), coeff=int(c)))
            continue
        if "/=" in line:
            dst, _, c = line.partition("/=")
            instrs.append(Instr(DIV, _parse_reg(dst), coeff=int(c)))
            continue
        sign = 1
        if "+=" in line:
            dst, _, rest = line.partition("+=")
        elif "-=" in line:
            dst, _, rest = line.partition("-=")
            sign = -1
        else:
            raise BadParams(f"unparseable line {line!r}")
        dst = _parse_reg(dst)
        if "*" in rest:
            a, _, b = rest.partition("*")
            a, b = a.strip(), b.strip()
            if a and a[0] in "xyz" and b and b[0] in "xyz":
                instrs.append(Instr(PROD, dst, _parse_reg(a), src2=_parse_reg(b), sign=sign))
            else:
                coeff = int(a) if sign > 0 else -int(a)
                instrs.append(Instr(ADD, dst, _parse_reg(b), coeff))
        else:
            instrs.append(Instr(ADD, dst, _parse_reg(rest), 1 if sign > 0 else -1))
    return instrs


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def exec_program(
    instrs,
    x: PolyView,
    y: PolyView,
    z: PolyView,
    dims: tuple[int, int, int],
    block_len: int = 1,
    pair_op=None,
):
    """Run an emitted program on arena regions.

    With block_len = 1 registers are single slots.  With block_len = B > 1
    each register is a size-B block; z provides s full blocks plus a tail
    of B-1 slots so a product pair (z_k, z_{k+1}) is the contiguous window
    of 2B-1 slots starting at block k.  pair_op(target, xblk, yblk) must
    accumulate the size-(2B-1) product into the target window.  The whole
    program is checked first, so a malformed one changes no register or metric.
    """
    (m, n, s), B = dims, block_len
    if len(x) != m * B or len(y) != n * B:
        raise RegionMismatch("x or y region does not match the program dims")
    want_z = s * B if B == 1 else (s + 1) * B - 1
    if len(z) != want_z:
        raise RegionMismatch(f"z region must have {want_z} slots")
    regions = {"x": x, "y": y, "z": z}

    def block(reg, name=None, width: int = B, clip: bool = False) -> PolyView:
        """reg's view in `name` (default: its own); clip keeps z's short tail and an empty end block."""
        try:
            region, lo = regions[name or reg[0]], index(reg[1]) * B
        except (KeyError, TypeError, IndexError) as exc:
            raise BadParams(f"bad register {reg!r}") from exc
        return region.sub(lo, min(lo + width, len(region)) if clip else lo + width)

    steps, written = [], set()
    for ins in instrs:
        if ins.kind == ADD:
            steps.append(partial(vadd, block(ins.dst, clip=True), block(ins.src, clip=True), ins.coeff))
        elif ins.kind in (SCALE, DIV):
            c = ins.coeff if ins.kind == SCALE else x.arena.ring.inv(ins.coeff)
            steps.append(partial(vscale, block(ins.dst, clip=True), c))
        elif ins.kind == PROD:
            if B != 1:
                raise BadParams("scalar product instruction in a block program")
            steps.append(partial(_prod, block(ins.dst), block(ins.src), block(ins.src2), ins.sign))
        elif ins.kind == PAIR:
            if pair_op is None:
                raise BadParams("pair instruction needs a pair_op callback")
            steps.append(partial(pair_op, block(ins.dst, "z", 2 * B - 1), block(ins.src), block(ins.src2)))
        else:
            raise BadParams(f"unknown instruction kind {ins.kind!r}")
        written.add("z" if ins.kind == PAIR else ins.dst[0])
    require_writable(*(regions[name] for name in written))
    for step in steps:
        step()


def _prod(dst: PolyView, xs: PolyView, ys: PolyView, sign: int):
    """dst[0] += sign * xs[0] * ys[0], one base product."""
    dst.set(0, dst.get(0) + xs.get(0) * ys.get(0) * (1 if sign > 0 else -1))
    dst.arena.metrics.base_products += 1


# ---------------------------------------------------------------------------
# stock triples
# ---------------------------------------------------------------------------

KARATSUBA2_A = [[1, 0], [0, 1], [1, -1]]
KARATSUBA2_B = [[1, 0], [0, 1], [1, -1]]
KARATSUBA2_C = [[1, 0, 0], [1, 1, -1], [0, 1, 0]]
KARATSUBA2_C_2D = [[1, 0, 0, 0], [1, 1, -1, 0], [0, 1, 0, 0]]

STRASSEN_A = [
    [1, 0, 0, 1],
    [0, 0, 1, 1],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [1, 1, 0, 0],
    [-1, 0, 1, 0],
    [0, 1, 0, -1],
]
STRASSEN_B = [
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, -1],
    [-1, 0, 1, 0],
    [0, 0, 0, 1],
    [1, 1, 0, 0],
    [0, 0, 1, 1],
]
STRASSEN_C = [
    [1, 0, 0, 1, -1, 0, 1],
    [0, 0, 1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0, 0, 0],
    [1, -1, 1, 0, 0, 1, 0],
]


def karatsuba2_program(ring: Zq, two_d: bool = False) -> BilinearProgram:
    if two_d:
        return validate(ring, KARATSUBA2_A, KARATSUBA2_B, KARATSUBA2_C_2D, two_d=True)
    return validate(ring, KARATSUBA2_A, KARATSUBA2_B, KARATSUBA2_C)


def strassen_program(ring: Zq) -> BilinearProgram:
    return validate(ring, STRASSEN_A, STRASSEN_B, STRASSEN_C)


# ---------------------------------------------------------------------------
# dense square matrices and constant-space Strassen-Winograd: one hand
# schedule (_node) of block additions and recursive products.  Below
# strassen_cs the recursion runs on integer offsets and strides into one
# register list per operand; MatView only names the operands at the entry.
# A 4 x 4 node hands its seven 2 x 2 products to one scalar kernel (_sw2)
# that runs the same schedule on registers.
# ---------------------------------------------------------------------------


class MatView:
    """Row-major n x n window into an arena: row i starts at off + i * stride."""

    __slots__ = ("arena", "off", "stride", "n")

    def __init__(self, arena, off: int, stride: int, n: int):
        self.arena = arena
        self.off = off
        self.stride = stride
        self.n = n

    def get(self, i: int, j: int) -> int:
        return self.arena.regs[self.off + i * self.stride + j]

    def tolists(self) -> list[list[int]]:
        return [[self.get(i, j) for j in range(self.n)] for i in range(self.n)]


def mat_on_arena(arena, off: int, n: int) -> MatView:
    return MatView(arena, off, n, n)


def _claim_rows(arena, off: int, stride: int, n: int, touch: bool = True):
    """The n rows of n registers at off, off + stride, ...: one check_span each."""
    for row in range(off, off + n * stride, stride):
        arena.check_span(row, row + n, touch)


def _share_registers(A: MatView, B: MatView) -> bool:
    """A and B hold a register in common: on one arena, their extents meet
    and so do their exact register sets (built only when the extents meet,
    which saves about 1 ms a call at n = 64)."""
    if A.arena is not B.arena:
        return False
    ends = [M.off + (M.n - 1) * M.stride + M.n for M in (A, B)]
    if A.off >= ends[1] or B.off >= ends[0]:
        return False
    cells = [{row + j for row in range(M.off, M.off + M.n * M.stride, M.stride) for j in range(M.n)} for M in (A, B)]
    return not cells[0].isdisjoint(cells[1])


def _madd(arena, d: int, s: int, stride: int, n: int, sign: int):
    """Block d += sign * block s, two disjoint n x n blocks of one matrix
    (row stride `stride`) in `arena`; claims d's rows on a checked arena."""
    if arena.checked:
        _claim_rows(arena, d, stride, n)
    regs = arena.regs
    q = arena.q
    if n == 2:  # the 4 x 4 nodes' blocks: most _madd calls at every n from 8 on
        d1, s1 = d + stride, s + stride
        if sign > 0:
            regs[d] = (regs[d] + regs[s]) % q
            regs[d + 1] = (regs[d + 1] + regs[s + 1]) % q
            regs[d1] = (regs[d1] + regs[s1]) % q
            regs[d1 + 1] = (regs[d1 + 1] + regs[s1 + 1]) % q
        else:
            regs[d] = (regs[d] - regs[s]) % q
            regs[d + 1] = (regs[d + 1] - regs[s + 1]) % q
            regs[d1] = (regs[d1] - regs[s1]) % q
            regs[d1 + 1] = (regs[d1 + 1] - regs[s1 + 1]) % q
        return
    for i in range(0, n * stride, stride):
        d0, s0 = d + i, s + i
        if sign > 0:
            for j in range(n):
                regs[d0 + j] = (regs[d0 + j] + regs[s0 + j]) % q
        else:
            for j in range(n):
                regs[d0 + j] = (regs[d0 + j] - regs[s0 + j]) % q


def strassen_cs(X: MatView, Y: MatView, Z: MatView, sign: int = 1):
    """Z += X * Y with seven recursive products and no matrix temporaries.

    X and Y are nudged and restored by pre/post block additions, so all
    three must be writable: under ro/rw an input-only register in any of
    them raises before the first write.  The operands may lie on one arena
    or on three; no register may belong to two of them (disjoint quadrants
    of one matrix are fine) or to two rows of one, else OverlapUnsupported
    before the first write.  base_products is 7^k and pointer_depth k + 1 at n = 2^k,
    both counted on Z's arena."""
    check_sign(sign)
    n = X.n
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"matrix dimension {n}")
    if Y.n != n or Z.n != n:
        raise DimMismatch("need three n x n operands")
    if n > 1 and min(X.stride, Y.stride, Z.stride) < n:
        raise OverlapUnsupported("a Strassen operand's rows overlap: its row stride is below n")
    if _share_registers(X, Y) or _share_registers(X, Z) or _share_registers(Y, Z):
        raise OverlapUnsupported("two Strassen operands share a register")
    for M in (X, Y, Z):
        if M.arena.checked:
            _claim_rows(M.arena, M.off, M.stride, n, touch=False)
    with Z.arena.call():
        _sw(X.arena, X.off, X.stride, Y.arena, Y.off, Y.stride, Z.arena, Z.off, Z.stride, sign, n)


def _sw(xa, x, sx, ya, y, sy, za, z, sz, sign, n):
    """Z += sign * X * Y for the n x n blocks at offsets x, y, z (row
    strides sx, sy, sz) of the arenas xa, ya, za, in one call scope.  A
    4 x 4 node runs its seven 2 x 2 products through _sw2 inside one more
    scope, the depth their own nodes would have had; a 2 x 2 or 1 x 1
    block is only reached by a top-level call of that size."""
    if n == 1:
        v = xa.regs[x] * ya.regs[y]
        za.write(z, za.regs[z] + (v if sign > 0 else -v))
        za.metrics.base_products += 1
        return
    with za.call():
        if n == 2:
            _sw2(xa, x, sx, ya, y, sy, za, z, sz, sign)
        elif n == 4:
            with za.call():
                _node(xa, x, sx, ya, y, sy, za, z, sz, sign, 2, _sw2)
        else:
            _node(xa, x, sx, ya, y, sy, za, z, sz, sign, n >> 1, partial(_sw, n=n >> 1))


def _node(xa, x00, sx, ya, y00, sy, za, z00, sz, sign, h, prod):
    """One node of the schedule on h x h quadrants: 18 block additions and
    7 products prod(xa, x, sx, ya, y, sy, za, z, sz, sign)."""
    x01, x10 = x00 + h, x00 + h * sx
    x11 = x10 + h
    y01, y10 = y00 + h, y00 + h * sy
    y11 = y10 + h
    z01, z10 = z00 + h, z00 + h * sz
    z11 = z10 + h
    _madd(xa, x10, x00, sx, h, -1)
    _madd(ya, y01, y11, sy, h, -1)
    _madd(za, z10, z11, sz, h, -1)
    prod(xa, x10, sx, ya, y01, sy, za, z11, sz, sign)
    _madd(xa, x10, x11, sx, h, 1)
    _madd(ya, y01, y00, sy, h, -1)
    _madd(za, z01, z11, sz, h, -1)
    prod(xa, x10, sx, ya, y01, sy, za, z11, sz, -sign)
    _madd(za, z00, z11, sz, h, -1)
    prod(xa, x00, sx, ya, y00, sy, za, z11, sz, sign)
    _madd(za, z00, z11, sz, h, 1)
    _madd(ya, y01, y10, sy, h, 1)
    _madd(za, z10, z11, sz, h, 1)
    prod(xa, x11, sx, ya, y01, sy, za, z10, sz, sign)
    _madd(ya, y01, y11, sy, h, 1)
    _madd(ya, y01, y10, sy, h, -1)
    _madd(xa, x10, x01, sx, h, -1)
    prod(xa, x10, sx, ya, y11, sy, za, z01, sz, -sign)
    _madd(xa, x10, x01, sx, h, 1)
    _madd(xa, x10, x00, sx, h, 1)
    prod(xa, x10, sx, ya, y01, sy, za, z11, sz, sign)
    _madd(za, z01, z11, sz, h, 1)
    _madd(ya, y01, y00, sy, h, 1)
    _madd(xa, x10, x11, sx, h, -1)
    prod(xa, x01, sx, ya, y10, sy, za, z00, sz, sign)


def _sw2(xa, x00, sx, ya, y00, sy, za, z00, sz, sign):
    """The schedule of _node on the 2 x 2 blocks at offsets x00, y00, z00
    (row strides sx, sy, sz), on scalar registers: its 18 additions and 7
    products in its order.  Only x10, y01 and Z are written; each gets the
    permission check and scratch count that a _madd of it makes."""
    x01, x10 = x00 + 1, x00 + sx
    x11 = x10 + 1
    y01, y10 = y00 + 1, y00 + sy
    y11 = y10 + 1
    z01, z10 = z00 + 1, z00 + sz
    z11 = z10 + 1
    if xa.checked:
        xa.check_span(x10, x10 + 1)
    if ya.checked:
        ya.check_span(y01, y01 + 1)
    if za.checked:
        for i in (z00, z01, z10, z11):
            za.check_span(i, i + 1)
    xr, yr, zr = xa.regs, ya.regs, za.regs
    qx, qy, qz = xa.q, ya.q, za.q
    s, t = sign, -sign
    xr[x10] = (xr[x10] - xr[x00]) % qx
    yr[y01] = (yr[y01] - yr[y11]) % qy
    zr[z10] = (zr[z10] - zr[z11]) % qz
    zr[z11] = (zr[z11] + s * xr[x10] * yr[y01]) % qz
    xr[x10] = (xr[x10] + xr[x11]) % qx
    yr[y01] = (yr[y01] - yr[y00]) % qy
    zr[z01] = (zr[z01] - zr[z11]) % qz
    zr[z11] = (zr[z11] + t * xr[x10] * yr[y01]) % qz
    zr[z00] = (zr[z00] - zr[z11]) % qz
    zr[z11] = (zr[z11] + s * xr[x00] * yr[y00]) % qz
    zr[z00] = (zr[z00] + zr[z11]) % qz
    yr[y01] = (yr[y01] + yr[y10]) % qy
    zr[z10] = (zr[z10] + zr[z11]) % qz
    zr[z10] = (zr[z10] + s * xr[x11] * yr[y01]) % qz
    yr[y01] = (yr[y01] + yr[y11]) % qy
    yr[y01] = (yr[y01] - yr[y10]) % qy
    xr[x10] = (xr[x10] - xr[x01]) % qx
    zr[z01] = (zr[z01] + t * xr[x10] * yr[y11]) % qz
    xr[x10] = (xr[x10] + xr[x01]) % qx
    xr[x10] = (xr[x10] + xr[x00]) % qx
    zr[z11] = (zr[z11] + s * xr[x10] * yr[y01]) % qz
    zr[z01] = (zr[z01] + zr[z11]) % qz
    yr[y01] = (yr[y01] + yr[y00]) % qy
    xr[x10] = (xr[x10] - xr[x11]) % qx
    zr[z00] = (zr[z00] + s * xr[x01] * yr[y10]) % qz
    za.metrics.base_products += 7
