"""Command-line front end.

Operands are given inline as comma-separated coefficients (little-endian)
or as @file references to the text format  q;c0,c1,...  Results are
printed in the same format, followed by a metrics block

    extra_algebraic=<K> pointer_depth=<D> base_products=<P>

Usage errors exit with status 2; contract violations (non-unit divisor,
permission denial, bad sizes, ...) exit with status 1 and print the error
class name.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

from . import bilinear_inplace as bilinear
from . import cs_rorw, cs_rwrw, dense_ref
from .coeff_ring import DEFAULT_TEST_PRIME, Zq
from .dense_ref import MulKit, _slice_naive, ntt, poly_from_text, poly_to_text
from .errors import PolyArenaError
from .reg_arena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, Arena, build_arena, vadd, vcopy, vzero


class UsageError(Exception):
    pass


def _parse_poly(spec: str, q: int) -> list[int]:
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            fq, coeffs = poly_from_text(fh.read())
        if fq != q:
            raise UsageError(f"file modulus {fq} does not match --q {q}")
        return [c % q for c in coeffs]
    if spec == "":
        return []
    try:
        return [int(tok) % q for tok in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad polynomial {spec!r}") from exc


def _parse_ints(spec: str) -> list[int]:
    if not spec:
        return []
    try:
        return [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad integer list {spec!r}") from exc


def _metrics_line(arena: Arena) -> str:
    return arena.metrics.summary()


def _print_poly(q: int, coeffs: list[int], label: str = ""):
    prefix = f"{label}: " if label else ""
    print(prefix + poly_to_text(q, coeffs))


# ---------------------------------------------------------------------------
# op runners
# ---------------------------------------------------------------------------


def _run_mul(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    h = _parse_poly(args.h, q) if args.h is not None else [0] * max(0, len(f) + len(g) - 1)
    algo = args.algo
    if algo == "schoolbook":
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (h, INOUT))
        _slice_naive(hv, gv, fv, 0)
    elif algo == "karatsuba-ref":
        kit = MulKit()
        s = max(len(f), len(g))
        arena, (fv, gv, hv, wv) = build_arena(
            ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * (2 * s - 1), INOUT), ([0] * (kit.c * s + 4), SCRATCH)
        )
        kit.full_into(hv, fv.padded(s), gv.padded(s), wv)
        _print_poly(q, hv.tolist()[: len(f) + len(g) - 1])
        print(_metrics_line(arena))
        return
    elif algo == "semi-cumulative":
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), (h, INOUT))
        cs_rorw.semi_cumulative_product(fv, gv, hv)
    elif algo == "cumulative-karatsuba":
        arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h, INOUT))
        cs_rwrw.cumulative_karatsuba(fv, gv, hv)
    elif algo == "cumulative-fft":
        arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h, INOUT))
        cs_rwrw.cumulative_fft_mul(fv, gv, hv)
    else:
        raise UsageError(f"unknown mul algo {algo!r}")
    _print_poly(q, hv.tolist())
    print(_metrics_line(arena))


def _run_lower(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    n = len(f)
    if args.algo == "cs":
        out_len = n - 1 if args.reversed else n
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * out_len, INOUT))
        cs_rorw.lower_product_cs(fv, gv, hv, reversed_mode=args.reversed)
    elif args.algo == "cumulative":
        h = _parse_poly(args.h, q) if args.h is not None else [0] * n
        arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h, INOUT))
        cs_rwrw.cumulative_lower(fv, gv, hv)
    elif args.algo == "inplace":
        arena, (fv, gv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT))
        cs_rwrw.inplace_lower(fv, gv)
        hv = fv
    else:
        raise UsageError(f"unknown lower algo {args.algo!r}")
    _print_poly(q, hv.tolist())
    print(_metrics_line(arena))


def _run_middle(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    m = len(f) - len(g) + 1
    if m <= 0:
        raise UsageError("need len(f) >= len(g)")
    if args.algo == "cs":
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * m, INOUT))
        cs_rorw.middle_product_cs(fv, gv, hv)
        _print_poly(q, hv.tolist())
        print(_metrics_line(arena))
    else:
        _print_poly(q, dense_ref.partial_product(ring, f, g, "mid"))


def _run_inv(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    if args.algo == "cs":
        arena, (fv, gv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), ([0] * len(f), INOUT))
        cs_rorw.series_inv_cs(fv, gv)
        _print_poly(q, gv.tolist())
        print(_metrics_line(arena))
    else:
        _print_poly(q, dense_ref.series_inv(ring, f))


def _run_div(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    if args.algo == "cs":
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * len(f), INOUT))
        cs_rorw.series_div_cs(fv, gv, hv)
    elif args.algo == "smallspace":
        s = args.scratch or max(5, len(f) // 4)
        arena, (fv, gv, tv) = build_arena(ring, RW_RW, (f, INOUT), (g, INPUT_ONLY), ([0] * s, SCRATCH))
        cs_rorw.inplace_div_smallspace(fv, gv, tv)
        hv = fv
    elif args.algo == "inplace":
        arena, (fv, gv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT))
        cs_rwrw.inplace_series_div(fv, gv, reversed_mode=args.reversed)
        hv = fv
    else:
        raise UsageError(f"unknown div algo {args.algo!r}")
    _print_poly(q, hv.tolist())
    print(_metrics_line(arena))


def _run_divrem(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    n = len(g)
    m = len(f) - n + 1
    if args.algo == "cs":
        arena, (fv, gv, qv, rv) = build_arena(
            ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * m, INOUT), ([0] * (n - 1), INOUT)
        )
        cs_rorw.divrem_cs(fv, gv, qv, rv)
        _print_poly(q, qv.tolist(), "q")
        _print_poly(q, rv.tolist(), "r")
        print(_metrics_line(arena))
    elif args.algo == "inplace":
        arena, (fv, gv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT))
        cs_rwrw.inplace_divrem(fv, gv, "apply")
        _print_poly(q, fv.tolist()[n - 1 :], "q")
        _print_poly(q, fv.tolist()[: n - 1], "r")
        print(_metrics_line(arena))
    else:
        quo, rem = dense_ref.divrem(ring, f, g)
        _print_poly(q, quo, "q")
        _print_poly(q, rem, "r")


def _run_remainder(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    n = len(g)
    if args.algo == "smallspace":
        s = args.scratch or max(1, (n - 1) // 2)
        arena, (fv, gv, rv, tv) = build_arena(
            ring, RO_RW, (f, INPUT_ONLY), (g, INPUT_ONLY), ([0] * (n - 1), INOUT), ([0] * s, SCRATCH)
        )
        cs_rorw.remainder_smallspace(fv, gv, rv, tv)
    elif args.algo == "rwrw":
        arena, (fv, gv, rv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), ([0] * (n - 1), INOUT))
        cs_rwrw.remainder_rwrw(fv, gv, rv)
    elif args.algo == "cumulative":
        r0 = _parse_poly(args.r, q) if args.r is not None else [0] * (n - 1)
        arena, (fv, gv, rv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (r0, INOUT))
        cs_rwrw.cumulative_remainder(fv, gv, rv)
    else:
        raise UsageError(f"unknown remainder algo {args.algo!r}")
    _print_poly(q, rv.tolist(), "r")
    print(_metrics_line(arena))


def _run_conv(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    h = _parse_poly(args.h, q) if args.h is not None else [0] * len(f)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h, INOUT))
    cs_rwrw.cumulative_convolution(fv, gv, hv, args.lam)
    _print_poly(q, hv.tolist())
    print(_metrics_line(arena))


def _run_slice(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    h = _parse_poly(args.h, q)
    arena, (fv, gv, hv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (h, INOUT))
    cs_rwrw.cumulative_slice(fv, gv, hv, args.s)
    _print_poly(q, hv.tolist())
    print(_metrics_line(arena))


def _run_modmul(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    g = _parse_poly(args.g, q)
    p = _parse_poly(args.p, q)
    n = len(p) - 1
    r = _parse_poly(args.r, q) if args.r is not None else [0] * n
    arena, (fv, gv, rv, pv) = build_arena(ring, RW_RW, (f, INOUT), (g, INOUT), (r, INOUT), (p, INOUT))
    if args.algo == "any":
        cs_rwrw.modular_mul_any(fv, gv, rv, pv)
    else:
        cs_rwrw.modular_mul(fv, gv, rv, pv)
    _print_poly(q, rv.tolist(), "r")
    print(_metrics_line(arena))


def _run_eval(ring, args):
    q = ring.q
    f = _parse_poly(args.f, q)
    pts = _parse_ints(args.points)
    if args.algo == "cs":
        arena, (fv, ov) = build_arena(ring, RO_RW, (f, INPUT_ONLY), ([0] * len(pts), INOUT))
        cs_rorw.mp_eval_cs(fv, pts, ov)
        _print_poly(q, ov.tolist())
        print(_metrics_line(arena))
    else:
        _print_poly(q, dense_ref.mp_eval_tree(ring, f, [a % q for a in pts]))


def _run_interp(ring, args):
    q = ring.q
    pts = _parse_ints(args.points)
    vals = _parse_ints(args.values)
    if len(pts) != len(vals):
        raise UsageError("points and values differ in length")
    if args.algo == "cs":
        arena, (ov,) = build_arena(ring, RO_RW, ([0] * len(pts), INOUT))
        cs_rorw.interp_cs(list(zip(pts, vals)), ov)
        _print_poly(q, ov.tolist())
        print(_metrics_line(arena))
    else:
        _print_poly(q, dense_ref.interp_tree(ring, [a % q for a in pts], [b % q for b in vals]))


def _run_emit(ring, args):
    if args.karatsuba2:
        prog = bilinear.karatsuba2_program(ring, two_d=False)
        instrs = bilinear.emit_inplace(prog)
    elif args.karatsuba2_2d:
        prog = bilinear.karatsuba2_program(ring, two_d=True)
        instrs = bilinear.emit_inplace_2d(prog)
    elif args.strassen:
        prog = bilinear.strassen_program(ring)
        instrs = bilinear.emit_inplace(prog)
    else:
        raise UsageError("choose --karatsuba2, --karatsuba2-2d or --strassen")
    print(bilinear.program_to_text(instrs, ring.q))
    cnt = bilinear.instruction_counts(instrs, ring.q)
    print(f"# products={cnt['products']} additions={cnt['additions']} scalings={cnt['scalings']}")


def _run_exec(ring, args):
    q = ring.q
    if not args.program.startswith("@"):
        raise UsageError("--program expects @file")
    with open(args.program[1:], "r", encoding="utf-8") as fh:
        instrs = bilinear.program_from_text(fh.read())
    x = _parse_poly(args.x, q)
    y = _parse_poly(args.y, q)
    z = _parse_poly(args.z, q)
    arena, (xv, yv, zv) = build_arena(ring, RW_RW, (x, INOUT), (y, INOUT), (z, INOUT))
    bilinear.exec_program(instrs, xv, yv, zv, (len(x), len(y), len(z)))
    _print_poly(q, zv.tolist(), "z")
    print(_metrics_line(arena))


def _run_strassen(ring, args):
    q = ring.q

    def parse_mat(spec: str) -> list[list[int]]:
        rows = [[int(v) % q for v in row.split(",")] for row in spec.split(";") if row]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise UsageError("matrix must be square, rows ; separated")
        return rows

    X = parse_mat(args.x)
    Y = parse_mat(args.y)
    n = len(X)
    Z = parse_mat(args.z) if args.z else [[0] * n for _ in range(n)]
    flat = [v for M in (X, Y, Z) for row in M for v in row]
    arena = Arena(ring, flat, [INOUT] * len(flat), RW_RW)
    mx = bilinear.mat_on_arena(arena, 0, n)
    my = bilinear.mat_on_arena(arena, n * n, n)
    mz = bilinear.mat_on_arena(arena, 2 * n * n, n)
    bilinear.strassen_cs(mx, my, mz)
    for row in mz.tolists():
        print(",".join(str(v) for v in row))
    print(_metrics_line(arena))


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_case(ring, op: str, n: int, rng: random.Random):
    q = ring.q
    rand = lambda k: [rng.randrange(q) for _ in range(k)]
    t0 = time.perf_counter()
    if op == "cumulative-karatsuba":
        arena, (fv, gv, hv) = build_arena(ring, RW_RW, (rand(n), INOUT), (rand(n), INOUT), (rand(2 * n - 1), INOUT))
        t0 = time.perf_counter()
        cs_rwrw.cumulative_karatsuba(fv, gv, hv)
    elif op == "karatsuba-ref":
        kit = MulKit()
        arena, (fv, gv, hv, wv) = build_arena(
            ring, RW_RW, (rand(n), INOUT), (rand(n), INOUT), ([0] * (2 * n - 1), INOUT), ([0] * (kit.c * n + 4), SCRATCH)
        )
        t0 = time.perf_counter()
        kit.full_into(hv, fv, gv, wv)
    elif op == "cumulative-fft":
        arena, (fv, gv, hv) = build_arena(ring, RW_RW, (rand(n), INOUT), (rand(n), INOUT), (rand(2 * n - 1), INOUT))
        t0 = time.perf_counter()
        cs_rwrw.cumulative_fft_mul(fv, gv, hv)
    elif op == "fft-ref":
        # linear-space comparator: explicit scratch transforms and pointwise
        N = 2 * n - 1
        p2 = 1
        while p2 < N:
            p2 *= 2
        root = ring.find_principal_root(p2)
        arena, (fv, gv, hv, wf, wg) = build_arena(
            ring, RW_RW, (rand(n), INOUT), (rand(n), INOUT), (rand(2 * n - 1), INOUT),
            ([0] * p2, SCRATCH), ([0] * p2, SCRATCH),
        )
        t0 = time.perf_counter()
        vzero(wf)
        vcopy(wf.sub(0, n), fv, n)
        vzero(wg)
        vcopy(wg.sub(0, n), gv, n)
        ntt(wf, root, "fwd")
        ntt(wg, root, "fwd")
        regs = arena.regs
        regs[wf.off : wf.off + p2] = [a * b % q for a, b in zip(regs[wf.off : wf.off + p2], regs[wg.off : wg.off + p2])]
        ntt(wf, root, "inv")
        vadd(hv, wf.sub(0, N))
    elif op == "lower-cs":
        arena, (fv, gv, hv) = build_arena(ring, RO_RW, (rand(n), INPUT_ONLY), (rand(n), INPUT_ONLY), ([0] * n, INOUT))
        t0 = time.perf_counter()
        cs_rorw.lower_product_cs(fv, gv, hv)
    elif op == "strassen-cs":
        flat = rand(3 * n * n)
        arena = Arena(ring, flat, [INOUT] * len(flat), RW_RW)
        mx = bilinear.mat_on_arena(arena, 0, n)
        my = bilinear.mat_on_arena(arena, n * n, n)
        mz = bilinear.mat_on_arena(arena, 2 * n * n, n)
        t0 = time.perf_counter()
        bilinear.strassen_cs(mx, my, mz)
    else:
        raise UsageError(f"unknown bench op {op!r}")
    wall = time.perf_counter() - t0
    return wall, arena.metrics


def _run_bench(ring, args):
    ops = [tok for tok in args.ops.split(",") if tok]
    sizes = _parse_ints(args.sizes)
    rng = random.Random(args.seed)
    writer = csv.writer(sys.stdout)
    writer.writerow(["op", "n", "wall_time", "extra_algebraic", "pointer_depth", "base_products"])
    for op in ops:
        for n in sizes:
            wall, metrics = _bench_case(ring, op, n, rng)
            writer.writerow(
                [op, n, f"{wall:.6f}", metrics.extra_algebraic_highwater, metrics.pointer_depth_highwater, metrics.base_products]
            )


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polyarena", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algos=None, default_algo=None):
        p.add_argument("--q", type=int, default=DEFAULT_TEST_PRIME)
        p.add_argument("--seed", type=int, default=0)
        if algos:
            p.add_argument("--algo", choices=algos, default=default_algo or algos[0])

    p = sub.add_parser("mul", help="full product h (+)= f*g")
    common(p, ["schoolbook", "karatsuba-ref", "semi-cumulative", "cumulative-karatsuba", "cumulative-fft"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h")
    p.set_defaults(func=_run_mul)

    p = sub.add_parser("lower", help="lower product (mod x^n)")
    common(p, ["cs", "cumulative", "inplace"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h")
    p.add_argument("--reversed", action="store_true")
    p.set_defaults(func=_run_lower)

    p = sub.add_parser("middle", help="middle product")
    common(p, ["cs", "ref"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_run_middle)

    p = sub.add_parser("inv", help="power series inverse")
    common(p, ["cs", "ref"])
    p.add_argument("--f", required=True)
    p.set_defaults(func=_run_inv)

    p = sub.add_parser("div", help="power series division")
    common(p, ["cs", "smallspace", "inplace"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--scratch", type=int)
    p.add_argument("--reversed", action="store_true")
    p.set_defaults(func=_run_div)

    p = sub.add_parser("divrem", help="Euclidean division")
    common(p, ["cs", "inplace", "ref"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_run_divrem)

    p = sub.add_parser("remainder", help="remainder only")
    common(p, ["smallspace", "rwrw", "cumulative"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--r")
    p.add_argument("--scratch", type=int)
    p.set_defaults(func=_run_remainder)

    p = sub.add_parser("conv", help="cumulative convolution mod x^n - lambda")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.set_defaults(func=_run_conv)

    p = sub.add_parser("slice", help="cumulative product slice")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--s", type=int, default=0)
    p.set_defaults(func=_run_slice)

    p = sub.add_parser("modmul", help="cumulative modular product")
    common(p, ["n", "any"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--r")
    p.set_defaults(func=_run_modmul)

    p = sub.add_parser("eval", help="multipoint evaluation")
    common(p, ["cs", "ref"])
    p.add_argument("--f", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=_run_eval)

    p = sub.add_parser("interp", help="interpolation")
    common(p, ["cs", "ref"])
    p.add_argument("--points", required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=_run_interp)

    p = sub.add_parser("emit", help="emit an in-place bilinear program")
    common(p)
    p.add_argument("--karatsuba2", action="store_true")
    p.add_argument("--karatsuba2-2d", dest="karatsuba2_2d", action="store_true")
    p.add_argument("--strassen", action="store_true")
    p.set_defaults(func=_run_emit)

    p = sub.add_parser("exec", help="execute a bilinear program")
    common(p)
    p.add_argument("--program", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_run_exec)

    p = sub.add_parser("strassen", help="Z += X*Y in place")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z")
    p.set_defaults(func=_run_strassen)

    p = sub.add_parser("bench", help="CSV timings: one row per (op, n)")
    common(p)
    p.add_argument("--ops", required=True)
    p.add_argument("--sizes", default="")
    p.set_defaults(func=_run_bench)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ring = Zq(args.q)
        args.func(ring, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PolyArenaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
