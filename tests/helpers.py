"""Shared helpers for the test suite."""

import random
from types import SimpleNamespace

from polyarena import INPUT_ONLY, RO_RW, SCRATCH, Zq, build_arena, ops
from polyarena.dense_ref import schoolbook_mul
from polyarena.ops import distinct_nonzero  # noqa: F401  (re-exported for the tests)

RING97 = Zq(97)
RING_FFT = Zq(469762049)


def rand_poly(rng: random.Random, q: int, n: int) -> list[int]:
    return [rng.randrange(q) for _ in range(n)]


def low_product(ring, f, g, t):
    full = schoolbook_mul(ring, f, g)
    out = full[:t]
    return out + [0] * (t - len(out))


def slice_product(ring, f, g, s, r):
    full = schoolbook_mul(ring, f, g)
    return [(full[s + i] if 0 <= s + i < len(full) else 0) for i in range(r)]


def build_reversed(spec, ring, x):
    """Like ops.build, but every operand is stored back to front behind a
    reversed view, so the call sees the same logical values."""
    x = ops.defaults(spec, x)
    arena, views = build_arena(ring, spec.model, *[(x[name][::-1], role) for name, role in spec.operands])
    return arena, SimpleNamespace(**{name: v.rev() for (name, _), v in zip(spec.operands, views)})


def zero_tail(spec, x, rng):
    """x with a zero tail on f from a random cut >= 1, kept in x["cut"],
    when f is the input-only operand of a ro/rw entry; else x itself."""
    f = x.get("f")
    if spec.model != RO_RW or dict(spec.operands).get("f") != INPUT_ONLY or not f:
        return x
    cut = rng.randrange(1, len(f) + 1)
    return {**x, "f": f[:cut] + [0] * (len(f) - cut), "cut": cut}


def build_padded(spec, ring, x):
    """Like ops.build, but f (see zero_tail) is stored without its zero
    tail, behind a view padded to its length."""
    if "cut" not in x:
        return ops.build(spec, ring, x)
    x = ops.defaults(spec, x)
    arena, views = ops.build(spec, ring, {**x, "f": x["f"][: x["cut"]]})
    views.f = views.f.padded(len(x["f"]))
    return arena, views


LAYOUTS = {"plain": ops.build, "reversed": build_reversed, "padded": build_padded}


def check(spec, ring, x, kind="plain"):
    """Run one call of a table entry on one of the LAYOUTS and assert its
    contract.

    The outputs satisfy the entry's oracle; every operand that is not an
    output comes back bit-exact (after an undo, every operand but scratch);
    a small-space operation writes no more registers than its scratch block.
    Returns the arena.
    """
    arena, views = LAYOUTS[kind](spec, ring, x)
    spec.call(views, x)
    out = {name: getattr(views, name).tolist() for name in spec.outputs}
    assert spec.check(ring, x, out), f"{spec.name}: wrong result on {x}"
    kept = [name for name, role in spec.operands if role == INPUT_ONLY]
    if spec.undo:
        spec.undo(views, x)
        kept = [name for name, role in spec.operands if role != SCRATCH]
    for name in kept:
        assert getattr(views, name).tolist() == x[name], f"{spec.name}: {name} not restored"
    if spec.space == ops.SMALL:
        scratch = sum(len(getattr(views, name)) for name, role in spec.operands if role == SCRATCH)
        assert arena.metrics.extra_algebraic_highwater <= scratch
    return arena


class WriteLog(list):
    """Register list that records every index written through it, by int
    or by slice (negative steps included)."""

    def __init__(self, values):
        super().__init__(values)
        self.written = set()

    def __setitem__(self, key, value):
        index = range(len(self))[key]
        self.written.update(index if isinstance(key, slice) else (index,))
        super().__setitem__(key, value)
