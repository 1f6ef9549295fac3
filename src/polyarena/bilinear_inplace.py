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
from .reg_arena import PolyView, vadd, vscale

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
    accumulate the size-(2B-1) product into the target window.
    """
    m, n, s = dims
    B = block_len
    ring = x.arena.ring
    if len(x) != m * B or len(y) != n * B:
        raise RegionMismatch("x or y region does not match the program dims")
    want_z = s * B if B == 1 else (s + 1) * B - 1
    if len(z) != want_z:
        raise RegionMismatch(f"z region must have {want_z} slots")

    def block(region: PolyView, idx: int) -> PolyView:
        lo = idx * B
        return region.sub(lo, min(lo + B, len(region)))

    regions = {"x": x, "y": y, "z": z}
    for ins in instrs:
        dst = block(regions[ins.dst[0]], ins.dst[1])
        if ins.kind == ADD:
            vadd(dst, block(regions[ins.src[0]], ins.src[1]), ins.coeff)
        elif ins.kind == SCALE:
            vscale(dst, ins.coeff)
        elif ins.kind == DIV:
            vscale(dst, ring.inv(ins.coeff))
        elif ins.kind == PROD:
            if B != 1:
                raise BadParams("scalar product instruction in a block program")
            xv = regions["x"].get(ins.src[1])
            yv = regions["y"].get(ins.src2[1])
            prod = xv * yv
            dst.set(0, dst.get(0) + (prod if ins.sign > 0 else -prod))
            x.arena.metrics.base_products += 1
        elif ins.kind == PAIR:
            if pair_op is None:
                raise BadParams("pair instruction needs a pair_op callback")
            k = ins.dst[1]
            target = z.sub(k * B, k * B + 2 * B - 1)
            pair_op(target, block(regions["x"], ins.src[1]), block(regions["y"], ins.src2[1]))
        else:
            raise BadParams(f"unknown instruction kind {ins.kind!r}")


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
# schedule (_sw) of block additions and recursive products, whose 2 x 2
# node runs the same schedule as one scalar kernel (_sw2)
# ---------------------------------------------------------------------------


class MatView:
    """Row-major n x n window into an arena; quadrants alias the parent."""

    __slots__ = ("arena", "off", "stride", "n")

    def __init__(self, arena, off: int, stride: int, n: int):
        self.arena = arena
        self.off = off
        self.stride = stride
        self.n = n

    def get(self, i: int, j: int) -> int:
        return self.arena.regs[self.off + i * self.stride + j]

    def set(self, i: int, j: int, v: int):
        self.arena.write(self.off + i * self.stride + j, v)

    def quad(self, bi: int, bj: int) -> "MatView":
        h = self.n // 2
        return MatView(self.arena, self.off + (bi * h) * self.stride + bj * h, self.stride, h)

    def tolists(self) -> list[list[int]]:
        return [[self.get(i, j) for j in range(self.n)] for i in range(self.n)]


def mat_on_arena(arena, off: int, n: int) -> MatView:
    return MatView(arena, off, n, n)


def _check_rows(M: MatView, touch: bool = True):
    for i in range(M.n):
        row = M.off + i * M.stride
        M.arena.check_span(row, row + M.n, touch)


def _madd(dst: MatView, src: MatView, sign: int = 1):
    arena = dst.arena
    if arena.checked:
        _check_rows(dst)
    q = arena.q
    regs = arena.regs
    n = dst.n
    for i in range(n):
        d0 = dst.off + i * dst.stride
        s0 = src.off + i * src.stride
        if sign > 0:
            for j in range(n):
                regs[d0 + j] = (regs[d0 + j] + regs[s0 + j]) % q
        else:
            for j in range(n):
                regs[d0 + j] = (regs[d0 + j] - regs[s0 + j]) % q


def strassen_cs(X: MatView, Y: MatView, Z: MatView, sign: int = 1):
    """Z += X * Y with seven recursive products and no matrix temporaries;
    X and Y are nudged and restored by pre/post block additions, so all
    three must be writable: under ro/rw an input-only register in any of
    them raises before the first write.  The recursion stops at 2 x 2
    blocks, which run the same schedule on scalar registers; base_products
    is 7^k and pointer_depth k + 1 at n = 2^k."""
    check_sign(sign)
    n = X.n
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"matrix dimension {n}")
    if Y.n != n or Z.n != n:
        raise DimMismatch("need three n x n operands")
    for M in (X, Y, Z):
        _check_rows(M, touch=False)
    with Z.arena.call():
        _sw(X, Y, Z, sign)


def _sw(X: MatView, Y: MatView, Z: MatView, sign: int):
    """One node of the schedule: 18 block additions and 7 recursive
    products, in one call scope.  A 2 x 2 node hands the whole schedule to
    _sw2; a 1 x 1 product is only reached by a top-level 1 x 1 call."""
    n = X.n
    if n == 1:
        v = X.get(0, 0) * Y.get(0, 0)
        Z.set(0, 0, Z.get(0, 0) + (v if sign > 0 else -v))
        Z.arena.metrics.base_products += 1
        return
    with Z.arena.call():
        if n == 2:
            _sw2(X, Y, Z, sign)
            return
        x00, x01, x10, x11 = X.quad(0, 0), X.quad(0, 1), X.quad(1, 0), X.quad(1, 1)
        y00, y01, y10, y11 = Y.quad(0, 0), Y.quad(0, 1), Y.quad(1, 0), Y.quad(1, 1)
        z00, z01, z10, z11 = Z.quad(0, 0), Z.quad(0, 1), Z.quad(1, 0), Z.quad(1, 1)
        _madd(x10, x00, -1)
        _madd(y01, y11, -1)
        _madd(z10, z11, -1)
        _sw(x10, y01, z11, sign)
        _madd(x10, x11, 1)
        _madd(y01, y00, -1)
        _madd(z01, z11, -1)
        _sw(x10, y01, z11, -sign)
        _madd(z00, z11, -1)
        _sw(x00, y00, z11, sign)
        _madd(z00, z11, 1)
        _madd(y01, y10, 1)
        _madd(z10, z11, 1)
        _sw(x11, y01, z10, sign)
        _madd(y01, y11, 1)
        _madd(y01, y10, -1)
        _madd(x10, x01, -1)
        _sw(x10, y11, z01, -sign)
        _madd(x10, x01, 1)
        _madd(x10, x00, 1)
        _sw(x10, y01, z11, sign)
        _madd(z01, z11, 1)
        _madd(y01, y00, 1)
        _madd(x10, x11, -1)
        _sw(x01, y10, z00, sign)


def _sw2(X: MatView, Y: MatView, Z: MatView, sign: int):
    """The 2 x 2 node of _sw on scalar registers: its 18 additions and 7
    products in its order.  Every step reads its registers again, so
    aliased operands see what the recursion shows them.  Only x10, y01 and
    Z are written; each gets the permission check and scratch count that a
    _madd or Arena.write of it makes."""
    xa, ya, za = X.arena, Y.arena, Z.arena
    x00 = X.off
    x01, x10 = x00 + 1, x00 + X.stride
    x11 = x10 + 1
    y00 = Y.off
    y01, y10 = y00 + 1, y00 + Y.stride
    y11 = y10 + 1
    z00 = Z.off
    z01, z10 = z00 + 1, z00 + Z.stride
    z11 = z10 + 1
    for arena, written in ((xa, (x10,)), (ya, (y01,)), (za, (z00, z01, z10, z11))):
        if arena.checked:
            for i in written:
                arena.check_span(i, i + 1)
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
