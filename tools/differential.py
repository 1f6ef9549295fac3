"""Differential of two checkouts over the operation table.

    python tools/differential.py PARENT CHANGE

Each checkout runs in its own subprocess, which imports `polyarena` from
that checkout's `src/` and the layouts from its `tests/helpers.py`, so the
two packages never share a process.  Every `SPECS` entry that has a
generator is called on CASES seeded inputs of size at most CAP per prime
(97, 469762049, 2^61 - 1), and on one more case of each size in BIG_SIZES
(from 97 the chunk loops of the division run long; from 129, one past the
cut BLOCK, a balanced product splits, inplace_series_div splits its leaf
and interp_cs runs a partial_interp round; from 385 = 3 BLOCK + 1 points
mp_eval_cs reduces its first batch; at 645 semi_cumulative_product and
lower_product_cs both reduce above BLOCK), each input on the plain,
reversed and padded layouts.  An input the prime cannot hold (more distinct nonzero
interpolation points than 97 has) is skipped on both sides.  The reference
entries (REFERENCES) have no generator: their inputs come from ops.draw at
the same sizes, fft_ref's capped as cumulative_fft_mul's generator caps
them so that the prime has a root of unity of the product's length, and
their outputs are checked against the table's product comparators.  Per
entry the
report counts the cases whose non-scratch registers are identical at the
end of the call and those whose (extra_algebraic, pointer_depth,
base_products) triple is identical, those where pointer_depth and
base_products alone are, the cases where each of the three went down
(ea<, pd<, bp<) or up (ea>, pd>, bp>), the calls that raised on either
side, and the change's calls whose outputs fail the entry's check.  Only
the cases both checkouts draw are compared; those that one side's table
draws alone (an entry the other side has no generator for) are counted
and named.  The exit code is 0 only when every compared case of every
entry is identical in registers and triple.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

PRIMES = (97, 469762049, 2**61 - 1)
LAYOUTS = ("plain", "reversed", "padded")
CASES = 60
CAP = 64
BIG_SIZES = (97, 129, 160, 165, 260, 385, 645)
REFERENCES = ("schoolbook", "karatsuba_ref", "fft_ref")


def _reference(ops, spec):
    """Generator and check of a reference entry, which has neither."""

    def gen(ring, rng, n, cap):
        if spec.name == "fft_ref":
            n = min(n, 1 << max(0, ops._two_adicity(ring.q) - 1))
        return ops.draw(spec, ring, n, rng)

    if spec.name == "karatsuba_ref":  # h is the product, padded to 2 max(len(f), len(g)) - 1
        return gen, lambda ring, x, out: out["h"] == ops._slice(ring, x["f"], x["g"], 0, len(out["h"]))
    return gen, ops._acc_product


def worker(checkout: Path):
    """One JSON line per call of the checkout's table."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    import helpers
    import polyarena
    from polyarena import SCRATCH, Zq, ops

    for mod, root in ((polyarena, checkout / "src"), (helpers, checkout / "tests")):
        if not Path(mod.__file__).resolve().is_relative_to(root):
            sys.exit(f"{mod.__name__} was imported from {mod.__file__}, not from {root}")

    for spec in sorted((s for s in ops.SPECS.values() if s.gen or s.name in REFERENCES), key=lambda s: s.name):
        gen, check = (spec.gen, spec.check) if spec.gen else _reference(ops, spec)
        for q in PRIMES:
            ring = Zq(q)
            for i in range(CASES + len(BIG_SIZES)):
                rng = random.Random(f"differential-{spec.name}-{q}-{i}")
                cap = CAP if i < CASES else max(BIG_SIZES)
                n = ops.sample_size(rng, CAP) if i < CASES else BIG_SIZES[i - CASES]
                if spec.name == "strassen_cs":
                    n = 1 << (n.bit_length() - 1) // 2
                try:
                    x = gen(ring, rng, n, cap=cap)
                except ValueError:
                    continue
                for layout in LAYOUTS:
                    xl = helpers.zero_tail(spec, x, random.Random(f"pad-{spec.name}-{q}-{i}")) if layout == "padded" else x
                    row = {"key": [spec.name, q, i, layout], "error": None}
                    try:
                        arena, views = helpers.LAYOUTS[layout](spec, ring, xl)
                        spec.call(views, xl)
                    except Exception as exc:  # reported, not raised: a side may fail where the other does not
                        row["error"] = type(exc).__name__
                    else:
                        kept = [v for v, p in zip(arena.regs, arena.perms) if p != SCRATCH]
                        m = arena.metrics
                        out = {name: getattr(views, name).tolist() for name in spec.outputs}
                        row.update(
                            regs=hashlib.sha256(repr(kept).encode()).hexdigest(),
                            triple=[m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products],
                            exact=bool(check(ring, xl, out)),
                        )
                    print(json.dumps(row), flush=True)


def run(checkout: Path) -> subprocess.Popen:
    cmd = [sys.executable, __file__, "--worker", str(checkout)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker.resolve())
        return 0
    if not (args.parent and args.change):
        ap.error("need PARENT and CHANGE checkouts")
    procs = [run(p.resolve()) for p in (args.parent, args.change)]
    rows = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode:
            sys.exit(f"worker failed with exit code {proc.returncode}")
        rows.append({tuple(r["key"]): r for r in map(json.loads, out.splitlines())})
    parent, change = rows
    for side, mine, other in (("parent", parent, change), ("change", change, parent)):
        alone = mine.keys() - other.keys()
        if alone:
            names = ", ".join(sorted({key[0] for key in alone}))
            bad = sum(mine[key]["error"] is not None or not mine[key]["exact"] for key in alone)
            print(f"not compared: {len(alone)} cases only the {side} draws ({names}), {bad} raised or inexact")
    metrics = ("ea", "pd", "bp")
    moves = [m + way for m in metrics for way in "<>"]
    cols = ("cases", "regs=", "triple=", "pd,bp=", *moves, "err_parent", "err_change", "inexact")
    print(f"{'entry':28}" + "".join(f"{c:>11}" for c in cols))
    counts = {}
    for key, a in parent.items():
        if key not in change:
            continue
        b = change[key]
        c = counts.setdefault(key[0], dict.fromkeys(cols, 0))
        c["cases"] += 1
        c["err_parent"] += a["error"] is not None
        c["err_change"] += b["error"] is not None
        if b["error"] is None:
            c["inexact"] += not b["exact"]
        if a["error"] is None and b["error"] is None:
            c["regs="] += a["regs"] == b["regs"]
            c["triple="] += a["triple"] == b["triple"]
            c["pd,bp="] += a["triple"][1:] == b["triple"][1:]
            for m, x, y in zip(metrics, a["triple"], b["triple"]):
                c[m + "<"] += y < x
                c[m + ">"] += y > x
    for name, c in counts.items():
        print(f"{name:28}" + "".join(f"{c[col]:>11}" for col in cols))
    same = all(c["regs="] == c["triple="] == c["cases"] for c in counts.values())
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
