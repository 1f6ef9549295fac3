"""One table of operations: how each public space-efficient operation is
laid out on the arena, called, checked and classified.  The CLI, its bench
and the acceptance tests build and call every operation through it.

Operand roles: INPUT_ONLY for an input, which must come back bit-exact
(ro/rw refuses writes to it, rw/rw lets the algorithm borrow it);
OUTPUT_ONLY for an output written without being read; INOUT for one added
into or rewritten in place; SCRATCH for a work block whose writes count.
A rw/rw arena keeps no input-only runs, so INPUT_ONLY refuses nothing there;
every arena treats OUTPUT_ONLY as INOUT: the tags change no register or metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from operator import mul
from types import SimpleNamespace
from typing import Callable

from . import bilinear_inplace as bilinear
from . import cs_rorw, cs_rwrw, dense_ref
from .dense_ref import KIT, divrem, horner_eval, karatsuba_mul, ntt, poly_to_text, schoolbook_mul
from .errors import RegionMismatch
from .reg_arena import INOUT, INPUT_ONLY, OUTPUT_ONLY, RO_RW, RW_RW, SCRATCH, _slc, build_arena, vadd, vcopy, vset, vzero

# declared space classes
TAIL = "tail"  # O(1) extra registers; tail recursion runs as loops, call depth <= 1
LOG_STACK = "log-stack"  # O(1) extra registers; recursive, call depth O(log n)
CONSTANT = "constant"  # O(1) extra registers
SMALL = "small-space"  # extra registers within the SCRATCH block
CLASSES = (TAIL, LOG_STACK, CONSTANT, SMALL)


class UsageError(Exception):
    """The given operands do not describe a call."""


@dataclass(frozen=True)
class OpSpec:
    name: str
    model: str
    operands: tuple  # ((name, role), ...) in arena order
    call: Callable  # call(views, x): views by operand name; x holds operand values and parameters
    space: str | None = None  # declared space class
    gen: Callable | None = None  # gen(ring, rng, n, cap=512) -> seeded x of size about n, other sizes <= cap
    check: Callable | None = None  # check(ring, x, out) -> the outputs are right (dense_ref oracle)
    sizes: Callable | None = None  # sizes(x) -> default length of each operand that x may lack
    undo: Callable | None = None  # undo(views, x): brings every operand back to its value in x
    route: tuple | None = None  # (CLI subcommand, --algo value or None)
    ref: Callable | None = None  # ref(ring, x) -> the outputs, on plain lists (CLI --algo ref)
    show: Callable | None = None  # show(values, q) -> the CLI's result lines; default: the outputs

    @property
    def outputs(self) -> list[str]:
        return [name for name, role in self.operands if role in (OUTPUT_ONLY, INOUT)]


def defaults(spec: OpSpec, x: dict) -> dict:
    """x with every operand it lacks filled with zeros of its default size."""
    missing = [name for name, _ in spec.operands if name not in x]
    sizes = spec.sizes(x) if missing else {}
    return {**x, **{name: [0] * sizes[name] for name in missing}}


def build(spec: OpSpec, ring, x: dict):
    """Arena and views (by operand name) for one call."""
    x = defaults(spec, x)
    arena, views = build_arena(ring, spec.model, *[(x[name], role) for name, role in spec.operands])
    return arena, SimpleNamespace(**{name: v for (name, _), v in zip(spec.operands, views)})


def run(spec: OpSpec, ring, x: dict):
    arena, views = build(spec, ring, x)
    spec.call(views, x)
    return arena, views


def draw(spec: OpSpec, ring, size: int, rng: random.Random) -> dict:
    """Inputs of `size` coefficients, then INOUT operands of their default
    size, uniformly random; the other operands default to zeros."""
    x = {name: _rand(rng, ring.q, size) for name, role in spec.operands if role == INPUT_ONLY}
    sizes = spec.sizes(x)
    x.update((name, _rand(rng, ring.q, sizes[name])) for name, role in spec.operands if role == INOUT)
    return x


def _calls(fn, *params):
    """Call of fn on the views in arena order, then the named parameters."""
    return lambda v, x: fn(*vars(v).values(), *[x[p] for p in params])


def _with_reversed(fn):
    """Call of fn on the views, passing the optional `reversed` parameter."""
    return lambda v, x: fn(*vars(v).values(), reversed_mode=x.get("reversed", False))


# ---------------------------------------------------------------------------
# inputs: the acceptance suite's draws, in its order
# ---------------------------------------------------------------------------


def _rand(rng, q, n):
    return [rng.randrange(q) for _ in range(n)]


def _unit_const(rng, q, n):
    return [rng.randrange(1, q)] + _rand(rng, q, n - 1)


def sample_size(rng: random.Random, cap: int = 512) -> int:
    """Random size in [1, cap], mostly below 80."""
    if rng.random() < 0.85:
        e = rng.uniform(0.0, 6.3)
    else:
        e = rng.uniform(6.3, 9.0)
    return max(1, min(cap, round(2.0**e)))


def distinct_nonzero(rng: random.Random, q: int, n: int) -> list[int]:
    """n distinct values in [1, q), drawn by rejection: unlike
    rng.sample(range(1, q), n) this works for q beyond 2^63."""
    if n >= q:
        raise ValueError(f"cannot draw {n} distinct nonzero values mod {q}")
    out = {}
    while len(out) < n:
        out[rng.randrange(1, q)] = None
    return list(out)


def _two_adicity(q: int) -> int:
    return ((q - 1) & -(q - 1)).bit_length() - 1


def _gen_fg(ring, rng, n, cap=512):
    return {"f": _rand(rng, ring.q, n), "g": _rand(rng, ring.q, n)}


def _gen_fgh(ring, rng, n, cap=512):
    return {**_gen_fg(ring, rng, n), "h": _rand(rng, ring.q, n)}


def _gen_product(ring, rng, m, n):
    return {"f": _rand(rng, ring.q, m), "g": _rand(rng, ring.q, n), "h": _rand(rng, ring.q, m + n - 1)}


def _gen_division(ring, rng, n, cap=512):
    return {"f": _rand(rng, ring.q, n), "g": _unit_const(rng, ring.q, n)}


def _gen_divrem(ring, rng, n, m):
    """Dividend of m + n - 1 coefficients, divisor of n with a unit leading one."""
    return {"f": _rand(rng, ring.q, m + n - 1), "g": _rand(rng, ring.q, n - 1) + [rng.randrange(1, ring.q)]}


def _gen_semi_cumulative_lower(ring, rng, n, cap=512):
    q = ring.q
    s = rng.randrange(1, n + 1)
    glen = n if rng.random() < 0.5 else s
    return {"s": s, "f": _rand(rng, q, n), "g": _rand(rng, q, glen), "h": [0] * s + _rand(rng, q, n - s)}


def _gen_middle(ring, rng, n, cap=512):
    m = sample_size(rng, cap)
    return {"f": _rand(rng, ring.q, m + n - 1), "g": _rand(rng, ring.q, n)}


def _gen_remainder_smallspace(ring, rng, n, cap=512):
    n = max(n, 2)
    m = max(n - 1, sample_size(rng, cap))
    s = rng.randrange(1, n)
    return {"scratch": s, **_gen_divrem(ring, rng, n, m)}


def _gen_partial_interp(ring, rng, n, cap=512):
    n = max(n, 2)
    s = rng.randrange(0, n - 1)
    k = rng.randrange(1, n - s + 1)
    poly = _rand(rng, ring.q, n)
    pairs = [(a, horner_eval(ring, poly, a)) for a in distinct_nonzero(rng, ring.q, n - s)]
    return {"g": poly[:s], "pairs": pairs, "k": k, "poly": poly}


def _gen_interp(ring, rng, n, cap=512):
    pts = distinct_nonzero(rng, ring.q, n)
    poly = _rand(rng, ring.q, n)
    return {"pairs": [(a, horner_eval(ring, poly, a)) for a in pts], "poly": poly}


def _gen_exec_program(ring, rng, n, cap=512):
    """A stock 1D program and random x, y, z of its dimensions (n unused)."""
    prog = rng.choice((bilinear.karatsuba2_program, bilinear.strassen_program))(ring)
    xyz = {name: _rand(rng, ring.q, size) for name, size in zip("xyz", (prog.m, prog.n, prog.s))}
    return {**xyz, "program": bilinear.emit_inplace(prog), "abc": (prog.A, prog.B, prog.C)}


def _gen_partial_ft(ring, rng, n, cap=512):
    p = min(_two_adicity(ring.q), max(1, n - 1).bit_length() + rng.randrange(0, 2))
    root = ring.find_principal_root(1 << p)
    ell = rng.randrange(0, p + 1)
    while (1 << ell) > n:
        ell -= 1
    k = rng.randrange(0, max(1, (1 << p) >> ell))
    return {"k": k, "ell": ell, "root": root, "f": _rand(rng, ring.q, n)}


def _gen_cumulative_fft_mul(ring, rng, n, cap=512):
    n = min(n, 1 << max(0, _two_adicity(ring.q) - 1))  # the product needs a root of unity of its length
    return _gen_product(ring, rng, rng.randrange(1, n + 1), n)


def _gen_cumulative_slice(ring, rng, n, cap=512):
    m = sample_size(rng, cap)
    r = rng.randrange(1, m + n)
    s = rng.randrange(0, m + n - r)
    return {"s": s, "f": _rand(rng, ring.q, m), "g": _rand(rng, ring.q, n), "h": _rand(rng, ring.q, r)}


def _gen_cumulative_remainder(ring, rng, n, cap=512):
    n = max(n, 2)
    return {**_gen_divrem(ring, rng, n, sample_size(rng, cap)), "r": _rand(rng, ring.q, n - 1)}


def _gen_modular_mul(ring, rng, n, cap=512, lf=None, lg=None):
    x = {"f": _rand(rng, ring.q, lf or n), "g": _rand(rng, ring.q, lg or n)}
    return {**x, "p": _rand(rng, ring.q, n) + [1], "r": _rand(rng, ring.q, n)}


# ---------------------------------------------------------------------------
# oracles, calls, default sizes and CLI output
# ---------------------------------------------------------------------------


def _product(ring, f, g):
    if not f or not g:
        return []
    if min(len(f), len(g)) <= 64 or max(len(f), len(g)) <= 128:
        return schoolbook_mul(ring, f, g)
    return karatsuba_mul(ring, f, g)


def _low(ring, f, g, t):
    out = _product(ring, f, g)[:t]
    return out + [0] * (t - len(out))


def _slice(ring, f, g, s, r):
    full = _product(ring, f, g)
    return [(full[s + i] if 0 <= s + i < len(full) else 0) for i in range(r)]


def _plus(q, a, b):
    return [(u + v) % q for u, v in zip(a, b)]


def _acc_product(ring, x, out):
    return out["h"] == _plus(ring.q, x["h"], _product(ring, x["f"], x["g"]))


def _acc_low(ring, x, out):
    return out["h"] == _plus(ring.q, x["h"], _low(ring, x["f"], x["g"], len(x["h"])))


def _quotient(name):
    """Oracle of a power series division f / g whose result lands in `name`."""
    return lambda ring, x, out: _low(ring, x["g"], out[name], len(x["f"])) == x["f"]


def _remainder(ring, x, out):
    return out["r"] == divrem(ring, x["f"], x["g"])[1]


def _check_partial_ft(ring, x, out):
    root = x["root"]
    point = pow(root.omega, dense_ref.bit_reverse(x["k"] << x["ell"], root.order.bit_length() - 1), ring.q)
    return out["f"][0] == horner_eval(ring, x["f"], point)


def _check_convolution(ring, x, out):
    q = ring.q
    n = len(x["h"])
    lam = x["lam"]
    expect = list(x["h"])
    for i, c in enumerate(_product(ring, x["f"], x["g"])):
        if i < n:
            expect[i] = (expect[i] + c) % q
        else:
            expect[i - n] = (expect[i - n] + c * lam) % q
    return out["h"] == expect


def _check_bilinear(ring, x, out):
    """z + C((Ax) o (By)) on plain lists."""
    A, B, C = x["abc"]
    prods = [sum(map(mul, a, x["x"])) * sum(map(mul, b, x["y"])) for a, b in zip(A, B)]
    return out["z"] == [(z + sum(map(mul, c, prods))) % ring.q for z, c in zip(x["z"], C)]


def _check_inplace_divrem(ring, x, out):
    quo, rem = divrem(ring, x["f"], x["g"])
    return out["f"] == rem + quo


def _check_modular_mul(ring, x, out):
    p = x["p"]
    rem = divrem(ring, _product(ring, x["f"], x["g"]) or [0], p)[1]
    return out["r"] == _plus(ring.q, x["r"], rem + [0] * (len(p) - 1 - len(rem)))


def _check_strassen(ring, x, out):
    """Z + X * Y for row-major n x n matrices."""
    n = isqrt(len(x["x"]))
    X = x["x"]
    Y = x["y"]
    Z = x["z"]
    XY = [sum(X[i + k] * Y[k * n + j] for k in range(n)) for i in range(0, n * n, n) for j in range(n)]
    return out["z"] == _plus(ring.q, Z, XY)


def _karatsuba_ref(v, x):
    s = max(len(v.f), len(v.g))
    KIT.full_into(v.h, v.f.padded(s), v.g.padded(s), v.w)


def _karatsuba_ref_size(x):
    s = max(len(x["f"]), len(x["g"]))
    return {"h": 2 * s - 1, "w": KIT.c * s + 4}


def _fft_ref(v, x):
    """Linear-space comparator of the cumulative FFT product: both operands
    transformed in scratch buffers, one pointwise product, one inverse."""
    arena = v.h.arena
    p2 = len(v.wf)
    root = arena.ring.find_principal_root(p2)
    for buf, src in ((v.wf, v.f), (v.wg, v.g)):
        vzero(buf)
        vcopy(buf.sub(0, len(src)), src, len(src))
        ntt(buf, root, "fwd")
    regs = arena.regs
    wf = regs[_slc(v.wf.off, v.wf.dir, 0, p2)]
    vset(v.wf, list(map(mul, wf, regs[_slc(v.wg.off, v.wg.dir, 0, p2)])))
    ntt(v.wf, root, "inv")
    vadd(v.h, v.wf.sub(0, len(v.h)))


def _fft_ref_size(x):
    n = len(x["f"]) + len(x["g"]) - 1
    return {"h": n, "wf": 1 << (n - 1).bit_length(), "wg": 1 << (n - 1).bit_length()}


def _interp_ref(ring, x):
    points = [a % ring.q for a, _ in x["pairs"]]
    values = [b % ring.q for _, b in x["pairs"]]
    return [dense_ref.interp_tree(ring, points, values)]


def _mats(*views):
    """Row-major matrices from the views' physical starts.  Stored back to
    front, a matrix is the logical one turned by 180 degrees, JMJ, and since
    (JXJ)(JYJ) = J(XY)J, Strassen on three such matrices is exact."""
    if len({v.dir for v in views}) > 1:
        raise RegionMismatch("x, y and z must be stored in one direction")
    return [bilinear.mat_on_arena(v.arena, v.off if v.dir > 0 else v.off - len(v) + 1, isqrt(len(v))) for v in views]


def _exec_program(v, x):
    """exec_program on operands as long as the program's own dimensions:
    per operand, one past its largest register index.  Registers that
    exec_program refuses (an unknown operand, an index that is no integer)
    are left to it."""
    dims = {"x": 0, "y": 0, "z": 0}
    for ins in x["program"]:
        for reg in (ins.dst, ins.src, ins.src2):
            if reg and reg[0] in dims and isinstance(reg[1], int):
                dims[reg[0]] = max(dims[reg[0]], reg[1] + 1)
    have = (len(v.x), len(v.y), len(v.z))
    if tuple(dims.values()) != have:
        raise RegionMismatch(f"the program reaches x, y, z of {tuple(dims.values())} registers, the operands have {have}")
    bilinear.exec_program(x["program"], v.x, v.y, v.z, have)


def _product_size(x):
    return {"h": len(x["f"]) + len(x["g"]) - 1}


def _middle_size(x):
    m = len(x["f"]) - len(x["g"]) + 1
    if m <= 0:
        raise UsageError("need len(f) >= len(g)")
    return {"h": m}


def _labelled(*names):
    return lambda vals, q: [f"{name}: {poly_to_text(q, vals[name])}" for name in names]


def _show_divrem(vals, q):
    """q and r of the in-place division, which leaves r below q in f."""
    k = len(vals["g"]) - 1
    return [f"q: {poly_to_text(q, vals['f'][k:])}", f"r: {poly_to_text(q, vals['f'][:k])}"]


def _show_rows(vals, q):
    z = vals["z"]
    n = isqrt(len(z))
    return [",".join(str(c) for c in z[i : i + n]) for i in range(0, n * n, n)]


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

_FG = (("f", INPUT_ONLY), ("g", INPUT_ONLY))
_FGH = _FG + (("h", INOUT),)
_FG_OUT = _FG + (("h", OUTPUT_ONLY),)
_INPLACE = (("f", INOUT), ("g", INPUT_ONLY))
_REMAINDER = _FG + (("r", OUTPUT_ONLY),)
_MODMUL = _FG + (("r", INOUT), ("p", INPUT_ONLY))
_XYZ = (("x", INPUT_ONLY), ("y", INPUT_ONLY), ("z", INOUT))

SCHOOLBOOK = OpSpec(
    "schoolbook",
    RO_RW,
    _FGH,
    lambda v, x: dense_ref._slice_naive(v.h, v.g, v.f, 0),
    sizes=_product_size,
    route=("mul", "schoolbook"),
)
KARATSUBA_REF = OpSpec(
    "karatsuba_ref",
    RW_RW,
    _FG_OUT + (("w", SCRATCH),),
    _karatsuba_ref,
    sizes=_karatsuba_ref_size,
    route=("mul", "karatsuba-ref"),
    show=lambda vals, q: [poly_to_text(q, vals["h"][: len(vals["f"]) + len(vals["g"]) - 1])],
)
FFT_REF = OpSpec(
    "fft_ref",
    RW_RW,
    _FGH + (("wf", SCRATCH), ("wg", SCRATCH)),
    _fft_ref,
    sizes=_fft_ref_size,
)
EXEC_PROGRAM = OpSpec(
    "exec_program",
    RW_RW,
    _XYZ,
    _exec_program,
    gen=_gen_exec_program,
    check=_check_bilinear,
    route=("exec", None),
    show=_labelled("z"),
)
STRASSEN = OpSpec(
    "strassen_cs",
    RW_RW,
    _XYZ,
    lambda v, x: bilinear.strassen_cs(*_mats(v.x, v.y, v.z)),
    space=LOG_STACK,
    gen=lambda ring, rng, n, cap=512: {name: _rand(rng, ring.q, n * n) for name in "xyz"},
    check=_check_strassen,
    sizes=lambda x: {"z": len(x["x"])},
    route=("strassen", None),
    show=_show_rows,
)
_LOWER = OpSpec(
    "lower_product_cs",
    RO_RW,
    _FG_OUT,
    _with_reversed(cs_rorw.lower_product_cs),
    space=TAIL,
    gen=_gen_fg,
    check=lambda ring, x, out: out["h"] == _low(ring, x["f"], x["g"], len(x["f"])),
    sizes=lambda x: {"h": len(x["f"]) - bool(x.get("reversed"))},
    route=("lower", "cs"),
)

OPS = (
    OpSpec(
        "semi_cumulative_product",
        RO_RW,
        _FGH,
        _calls(cs_rorw.semi_cumulative_product),
        space=TAIL,
        gen=lambda ring, rng, n, cap=512: {**_gen_fg(ring, rng, n), "h": _rand(rng, ring.q, n - 1) + [0] * n},
        check=_acc_product,
        sizes=_product_size,
        route=("mul", "semi-cumulative"),
    ),
    _LOWER,
    OpSpec(
        "upper_product_cs",
        RO_RW,
        _FG_OUT,
        _LOWER.call,
        space=TAIL,
        gen=lambda ring, rng, n, cap=512: {**_gen_fg(ring, rng, max(n, 2)), "reversed": True},
        check=lambda ring, x, out: out["h"] == _slice(ring, x["f"], x["g"], len(x["f"]), len(x["f"]) - 1),
        sizes=_LOWER.sizes,
    ),
    OpSpec(
        "semi_cumulative_lower",
        RO_RW,
        _FGH,
        _calls(cs_rorw.semi_cumulative_lower, "s"),
        space=CONSTANT,
        gen=_gen_semi_cumulative_lower,
        check=_acc_low,
    ),
    OpSpec(
        "middle_product_cs",
        RO_RW,
        _FG_OUT,
        _calls(cs_rorw.middle_product_cs),
        space=TAIL,
        gen=_gen_middle,
        check=lambda ring, x, out: out["h"] == _slice(ring, x["f"], x["g"], len(x["g"]) - 1, len(out["h"])),
        sizes=_middle_size,
        route=("middle", "cs"),
        ref=lambda ring, x: [_slice(ring, x["f"], x["g"], len(x["g"]) - 1, len(x["f"]) - len(x["g"]) + 1)],
    ),
    OpSpec(
        "series_inv_cs",
        RO_RW,
        (("f", INPUT_ONLY), ("g", OUTPUT_ONLY)),
        _calls(cs_rorw.series_inv_cs),
        space=CONSTANT,
        gen=lambda ring, rng, n, cap=512: {"f": _unit_const(rng, ring.q, n)},
        check=lambda ring, x, out: _low(ring, x["f"], out["g"], len(x["f"])) == [1] + [0] * (len(x["f"]) - 1),
        sizes=lambda x: {"g": len(x["f"])},
        route=("inv", "cs"),
        ref=lambda ring, x: [dense_ref.series_inv(ring, x["f"])],
    ),
    OpSpec(
        "series_div_cs",
        RO_RW,
        _FG_OUT,
        _calls(cs_rorw.series_div_cs),
        space=CONSTANT,
        gen=_gen_division,
        check=_quotient("h"),
        sizes=lambda x: {"h": len(x["f"])},
        route=("div", "cs"),
    ),
    OpSpec(
        "inplace_div_smallspace",
        RO_RW,
        _INPLACE + (("t", SCRATCH),),
        _calls(cs_rorw.inplace_div_smallspace),
        space=SMALL,
        gen=lambda ring, rng, n, cap=512: {"scratch": rng.randrange(5, max(6, n + 3)), **_gen_division(ring, rng, n)},
        check=_quotient("f"),
        sizes=lambda x: {"t": x.get("scratch") or max(5, len(x["f"]) // 4)},
        route=("div", "smallspace"),
    ),
    OpSpec(
        "divrem_cs",
        RO_RW,
        _FG + (("q", OUTPUT_ONLY), ("r", OUTPUT_ONLY)),
        _calls(cs_rorw.divrem_cs),
        space=CONSTANT,
        gen=lambda ring, rng, n, cap=512: _gen_divrem(ring, rng, n, max(n - 1, sample_size(rng, cap))),
        check=lambda ring, x, out: (out["q"], out["r"]) == divrem(ring, x["f"], x["g"]),
        sizes=lambda x: {"q": len(x["f"]) - len(x["g"]) + 1, "r": len(x["g"]) - 1},
        route=("divrem", "cs"),
        ref=lambda ring, x: divrem(ring, x["f"], x["g"]),
        show=_labelled("q", "r"),
    ),
    OpSpec(
        "remainder_smallspace",
        RO_RW,
        _REMAINDER + (("t", SCRATCH),),
        _calls(cs_rorw.remainder_smallspace),
        space=SMALL,
        gen=_gen_remainder_smallspace,
        check=_remainder,
        sizes=lambda x: {"r": len(x["g"]) - 1, "t": x.get("scratch") or max(1, (len(x["g"]) - 1) // 2)},
        route=("remainder", "smallspace"),
        show=_labelled("r"),
    ),
    OpSpec(
        "mp_eval_cs",
        RO_RW,
        (("f", INPUT_ONLY), ("out", OUTPUT_ONLY)),
        lambda v, x: cs_rorw.mp_eval_cs(v.f, x["points"], v.out),
        space=CONSTANT,
        gen=lambda ring, rng, n, cap=512: {"f": _rand(rng, ring.q, n), "points": _rand(rng, ring.q, n)},
        check=lambda ring, x, out: out["out"] == [horner_eval(ring, x["f"], a) for a in x["points"]],
        sizes=lambda x: {"out": len(x["points"])},
        route=("eval", "cs"),
        ref=lambda ring, x: [dense_ref.mp_eval_tree(ring, x["f"], [a % ring.q for a in x["points"]])],
    ),
    OpSpec(
        "partial_interp",
        RO_RW,
        (("g", INPUT_ONLY), ("out", OUTPUT_ONLY), ("w", SCRATCH)),
        lambda v, x: cs_rorw.partial_interp(v.g, x["pairs"], x["k"], v.out, v.w),
        space=SMALL,
        gen=_gen_partial_interp,
        check=lambda ring, x, out: out["out"] == (x["poly"][len(x["g"]) :] + [0] * len(x["poly"]))[: x["k"]],
        sizes=lambda x: {"out": x["k"], "w": 2 * x["k"]},
    ),
    OpSpec(
        "interp_cs",
        RO_RW,
        (("out", OUTPUT_ONLY),),
        lambda v, x: cs_rorw.interp_cs(x["pairs"], v.out),
        space=CONSTANT,
        gen=_gen_interp,
        check=lambda ring, x, out: out["out"] == x["poly"],
        sizes=lambda x: {"out": len(x["pairs"])},
        route=("interp", "cs"),
        ref=_interp_ref,
    ),
    OpSpec(
        "cumulative_karatsuba",
        RW_RW,
        _FGH,
        _calls(cs_rwrw.cumulative_karatsuba),
        space=LOG_STACK,
        gen=lambda ring, rng, n, cap=512: _gen_product(ring, rng, *sorted((sample_size(rng, cap), n), reverse=True)),
        check=_acc_product,
        sizes=_product_size,
        route=("mul", "cumulative-karatsuba"),
    ),
    OpSpec(
        "partial_ft",
        RW_RW,
        (("f", INOUT),),
        _calls(cs_rwrw.partial_ft, "k", "ell", "root"),
        space=CONSTANT,
        gen=_gen_partial_ft,
        check=_check_partial_ft,
        undo=lambda v, x: cs_rwrw.partial_ft(v.f, x["k"], x["ell"], x["root"], "inv"),
    ),
    OpSpec(
        "cumulative_fft_mul",
        RW_RW,
        _FGH,
        _calls(cs_rwrw.cumulative_fft_mul),
        space=CONSTANT,
        gen=_gen_cumulative_fft_mul,
        check=_acc_product,
        sizes=_product_size,
        route=("mul", "cumulative-fft"),
    ),
    OpSpec(
        "cumulative_convolution",
        RW_RW,
        _FGH,
        _calls(cs_rwrw.cumulative_convolution, "lam"),
        space=CONSTANT,
        gen=lambda ring, rng, n, cap=512: {"lam": rng.randrange(1, ring.q), **_gen_fgh(ring, rng, n)},
        check=_check_convolution,
        sizes=lambda x: {"h": len(x["f"])},
        route=("conv", None),
    ),
    OpSpec(
        "cumulative_lower",
        RW_RW,
        _FGH,
        _calls(cs_rwrw.cumulative_lower),
        space=CONSTANT,
        gen=_gen_fgh,
        check=_acc_low,
        sizes=lambda x: {"h": len(x["f"])},
        route=("lower", "cumulative"),
    ),
    OpSpec(
        "cumulative_slice",
        RW_RW,
        _FGH,
        _calls(cs_rwrw.cumulative_slice, "s"),
        space=CONSTANT,
        gen=_gen_cumulative_slice,
        check=lambda ring, x, out: out["h"] == _plus(ring.q, x["h"], _slice(ring, x["f"], x["g"], x["s"], len(x["h"]))),
        route=("slice", None),
    ),
    OpSpec(
        "inplace_lower",
        RW_RW,
        _INPLACE,
        _calls(cs_rwrw.inplace_lower),
        space=LOG_STACK,
        gen=_gen_fg,
        check=lambda ring, x, out: out["f"] == _low(ring, x["f"], x["g"], len(x["f"])),
        route=("lower", "inplace"),
    ),
    OpSpec(
        "inplace_series_div",
        RW_RW,
        _INPLACE,
        _with_reversed(cs_rwrw.inplace_series_div),
        space=LOG_STACK,
        gen=_gen_division,
        check=_quotient("f"),
        route=("div", "inplace"),
    ),
    OpSpec(
        "remainder_rwrw",
        RW_RW,
        _REMAINDER,
        _calls(cs_rwrw.remainder_rwrw),
        space=LOG_STACK,
        gen=lambda ring, rng, n, cap=512: _gen_divrem(ring, rng, max(n, 2), max(max(n, 2) - 1, sample_size(rng, cap))),
        check=_remainder,
        sizes=lambda x: {"r": len(x["g"]) - 1},
        route=("remainder", "rwrw"),
        show=_labelled("r"),
    ),
    OpSpec(
        "inplace_divrem",
        RW_RW,
        _INPLACE,
        lambda v, x: cs_rwrw.inplace_divrem(v.f, v.g, "apply"),
        space=LOG_STACK,
        gen=lambda ring, rng, n, cap=512: _gen_divrem(ring, rng, n, sample_size(rng, cap)),
        check=_check_inplace_divrem,
        undo=lambda v, x: cs_rwrw.inplace_divrem(v.f, v.g, "undo"),
        route=("divrem", "inplace"),
        show=_show_divrem,
    ),
    OpSpec(
        "cumulative_remainder",
        RW_RW,
        _FG + (("r", INOUT),),
        _calls(cs_rwrw.cumulative_remainder),
        space=LOG_STACK,
        gen=_gen_cumulative_remainder,
        check=lambda ring, x, out: out["r"] == _plus(ring.q, x["r"], divrem(ring, x["f"], x["g"])[1]),
        sizes=lambda x: {"r": len(x["g"]) - 1},
        route=("remainder", "cumulative"),
        show=_labelled("r"),
    ),
    OpSpec(
        "modular_mul",
        RW_RW,
        _MODMUL,
        _calls(cs_rwrw.modular_mul),
        space=LOG_STACK,
        gen=_gen_modular_mul,
        check=_check_modular_mul,
        sizes=lambda x: {"r": len(x["p"]) - 1},
        route=("modmul", "n"),
        show=_labelled("r"),
    ),
    OpSpec(
        "modular_mul_any",
        RW_RW,
        _MODMUL,
        _calls(cs_rwrw.modular_mul_any),
        space=LOG_STACK,
        gen=lambda ring, rng, n, cap=512: _gen_modular_mul(
            ring, rng, n, cap, sample_size(rng, cap), sample_size(rng, cap)
        ),
        check=_check_modular_mul,
        sizes=lambda x: {"r": len(x["p"]) - 1},
        route=("modmul", "any"),
        show=_labelled("r"),
    ),
)

SPECS = {spec.name: spec for spec in (SCHOOLBOOK, KARATSUBA_REF, FFT_REF, EXEC_PROGRAM, STRASSEN) + OPS}
ROUTES = {spec.route: spec for spec in SPECS.values() if spec.route}
