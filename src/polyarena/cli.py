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
from . import ops
from .coeff_ring import DEFAULT_TEST_PRIME, Zq
from .dense_ref import poly_from_text, poly_to_text
from .errors import PolyArenaError
from .ops import UsageError
from .reg_arena import INOUT, INPUT_ONLY


def _read(spec: str, parse):
    """parse of the text of an @file operand; a file that cannot be read or
    parsed is a usage error."""
    try:
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad file operand {spec!r}: {exc}") from exc


def _parse_poly(spec: str, q: int) -> list[int]:
    if spec.startswith("@"):
        fq, coeffs = _read(spec, poly_from_text)
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


def _parse_mat(spec: str, q: int) -> list[int]:
    """Square matrix, rows ; separated, flattened row-major."""
    try:
        rows = [[int(v) % q for v in row.split(",")] for row in spec.split(";") if row]
    except ValueError as exc:
        raise UsageError(f"bad matrix {spec!r}") from exc
    if any(len(r) != len(rows) for r in rows):
        raise UsageError("matrix must be square, rows ; separated")
    return [v for row in rows for v in row]


def _operands(spec: ops.OpSpec, args, q: int) -> dict:
    """Operands and parameters from the flags (outputs the call writes
    without reading take none), defaults for the rest."""
    x = {}
    if args.command == "exec":
        if not args.program.startswith("@"):
            raise UsageError("--program expects @file")
        x["program"] = _read(args.program, bilinear.program_from_text)
    parse = _parse_mat if args.command == "strassen" else _parse_poly
    for name, role in spec.operands:
        text = getattr(args, name, None) if role in (INPUT_ONLY, INOUT) else None
        if text is not None:
            x[name] = parse(text, q)
    for key in ("lam", "s", "scratch", "reversed"):
        if getattr(args, key, None) is not None:
            x[key] = getattr(args, key)
    if args.command == "eval":
        x["points"] = _parse_ints(args.points)
    if args.command == "interp":
        pts = _parse_ints(args.points)
        vals = _parse_ints(args.values)
        if len(pts) != len(vals):
            raise UsageError("points and values differ in length")
        x["pairs"] = list(zip(pts, vals))
    return ops.defaults(spec, x)


def _operation(ring, args):
    algo = getattr(args, "algo", None)
    spec = ops.ROUTES[(args.command, "cs" if algo == "ref" else algo)]
    x = _operands(spec, args, ring.q)
    if algo == "ref":
        vals = dict(zip(spec.outputs, spec.ref(ring, x)))
        metrics = []
    else:
        arena, views = ops.run(spec, ring, x)
        vals = {name: getattr(views, name).tolist() for name, _ in spec.operands}
        metrics = [arena.metrics.summary()]
    show = spec.show or (lambda vals, q: [poly_to_text(q, vals[name]) for name in spec.outputs])
    print("\n".join(show(vals, ring.q) + metrics))


def _emit(ring, args):
    if args.karatsuba2 or args.karatsuba2_2d:
        prog = bilinear.karatsuba2_program(ring, two_d=not args.karatsuba2)
    elif args.strassen:
        prog = bilinear.strassen_program(ring)
    else:
        raise UsageError("choose --karatsuba2, --karatsuba2-2d or --strassen")
    instrs = bilinear.emit_inplace(prog)
    print(bilinear.program_to_text(instrs, ring.q))
    cnt = bilinear.instruction_counts(instrs, ring.q)
    print(f"# products={cnt['products']} additions={cnt['additions']} scalings={cnt['scalings']}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

# bench aliases; every other bench op is a table entry's name with its
# underscores as hyphens (interp-cs, strassen-cs, ...)
_BENCH = {"cumulative-fft": "cumulative_fft_mul", "lower-cs": "lower_product_cs"}


def _bench_case(ring, op: str, n: int, rng: random.Random):
    """Wall and CPU seconds of one call at size n (arena set-up excluded)
    and its metrics.  The inputs are the entry's generator's at size n
    (n x n matrices for strassen-cs), or ops.sample's uniform draw of n
    coefficients when it has none."""
    name = _BENCH.get(op) or ("_" not in op and op.replace("-", "_"))
    if name not in ops.SPECS:
        raise UsageError(f"unknown bench op {op!r}")
    spec = ops.SPECS[name]
    try:
        x = ops.sample(spec, ring, n, rng)
    except ValueError as exc:
        raise UsageError(f"no {op} inputs of size {n} over {ring.q}: {exc}") from exc
    arena, views = ops.build(spec, ring, x)
    t0, c0 = time.perf_counter(), time.process_time()
    spec.call(views, x)
    return time.perf_counter() - t0, time.process_time() - c0, arena.metrics


def _bench(ring, args):
    bench_ops = [tok for tok in args.ops.split(",") if tok]
    sizes = _parse_ints(args.sizes)
    rng = random.Random(args.seed)
    writer = csv.writer(sys.stdout)
    writer.writerow(["op", "n", "wall_time", "cpu_time", "extra_algebraic", "pointer_depth", "base_products"])
    for op in bench_ops:
        for n in sizes:
            wall, cpu, metrics = _bench_case(ring, op, n, rng)
            writer.writerow(
                [
                    op, n, f"{wall:.6f}", f"{cpu:.6f}",
                    metrics.extra_algebraic_highwater, metrics.pointer_depth_highwater, metrics.base_products,
                ]
            )


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polyarena", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help, required="", optional="", func=_operation):
        """Subparser with --q, the table's algorithms as --algo (with "ref"
        when one has a reference) and the operand flags."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--q", type=int, default=DEFAULT_TEST_PRIME)
        algos = [algo for cmd, algo in ops.ROUTES if cmd == name and algo]
        if any(ops.ROUTES[(name, algo)].ref for algo in algos):
            algos.append("ref")
        if algos:
            p.add_argument("--algo", choices=algos, default=algos[0])
        for flag in required.split():
            p.add_argument(f"--{flag}", required=True)
        for flag in optional.split():
            p.add_argument(f"--{flag}")
        p.set_defaults(func=func)
        return p

    add("mul", "full product h (+)= f*g", "f g", "h")
    p = add("lower", "lower product (mod x^n)", "f g", "h")
    p.add_argument("--reversed", action="store_true")
    add("middle", "middle product", "f g")
    add("inv", "power series inverse", "f")
    p = add("div", "power series division", "f g")
    p.add_argument("--scratch", type=int)
    p.add_argument("--reversed", action="store_true")
    add("divrem", "Euclidean division", "f g")
    p = add("remainder", "remainder only", "f g", "r")
    p.add_argument("--scratch", type=int)
    p = add("conv", "cumulative convolution mod x^n - lambda", "f g", "h")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p = add("slice", "cumulative product slice", "f g h")
    p.add_argument("--s", type=int, default=0)
    add("modmul", "cumulative modular product", "f g p", "r")
    add("eval", "multipoint evaluation", "f points")
    add("interp", "interpolation", "points values")
    p = add("emit", "emit an in-place bilinear program", func=_emit)
    p.add_argument("--karatsuba2", action="store_true")
    p.add_argument("--karatsuba2-2d", dest="karatsuba2_2d", action="store_true")
    p.add_argument("--strassen", action="store_true")
    add("exec", "execute a bilinear program", "program x y z")
    add("strassen", "Z += X*Y in place", "x y", "z")
    p = add("bench", "CSV timings: one row per (op, n)", "ops", func=_bench)
    p.add_argument("--sizes", default="")
    p.add_argument("--seed", type=int, default=0)
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
