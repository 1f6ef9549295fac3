"""The operation table: every public operation declared in it, refused
calls that leave the arena as found, an audit of the registers each call
writes, and a fuzz of the table's operations over more primes and view
kinds."""

import inspect
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import RING97, RING_FFT, WriteLog, build_reversed, check, rand_poly, zero_tail
from polyarena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, Zq, build_arena, ops
from polyarena import bilinear_inplace as bi
from polyarena import cs_rorw, cs_rwrw
from polyarena.errors import BadParams, PermissionDenied, RegionMismatch
from polyarena.ops import OPS, SPECS

PRIMES = (2, 3, 5, 97, 998244353, 2**61 - 1, 2**127 - 1)
RINGS = {q: Zq(q) for q in PRIMES}


def test_every_public_operation_declares_its_space_class():
    public = [
        fn
        for module in (cs_rorw, cs_rwrw)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]
    assert public
    for fn in public + [bi.strassen_cs]:
        assert fn.__name__ in SPECS, f"{fn.__name__} has no table entry"
        assert SPECS[fn.__name__].space in ops.CLASSES, f"{fn.__name__} declares no space class"


@pytest.mark.parametrize("spec", [spec for spec in OPS if spec.model == RO_RW], ids=lambda spec: spec.name)
def test_refused_call_leaves_arena_as_found(spec):
    # each destination in turn tagged input-only: the call raises before
    # it writes a register, counts a scratch register or enters a call
    rng = random.Random(f"refused-{spec.name}")
    for n in (1, 3, 17, 70):
        x = ops.defaults(spec, spec.gen(RING_FFT, rng, n, cap=80))
        for dest, role in spec.operands:
            if role == INPUT_ONLY or not x[dest]:
                continue
            operands = tuple((name, INPUT_ONLY if name == dest else r) for name, r in spec.operands)
            tagged = replace(spec, operands=operands)
            arena, views = ops.build(tagged, RING_FFT, x)
            before = list(arena.regs)
            with pytest.raises(PermissionDenied):
                tagged.call(views, x)
            m = arena.metrics
            assert arena.regs == before, (n, dest)
            assert (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products) == (0, 0, 0), (n, dest)


@pytest.mark.parametrize("spec", [spec for spec in SPECS.values() if spec.gen], ids=lambda spec: spec.name)
def test_audited_writes_respect_the_table(spec):
    # the arena's own accounting checked against every write the call makes:
    # under ro/rw no input-only register is written, and every scratch
    # register written is counted
    matrix = spec.name == "strassen_cs"
    for ring in (RING97, RING_FFT):
        rng = random.Random(f"audit-{spec.name}-{ring.q}")
        for n in (1, 2, 4, 8) if matrix else (1, 2, 5, 17, 40):
            x = spec.gen(ring, rng, n, cap=40)
            for layout in (ops.build, build_reversed):
                arena, views = layout(spec, ring, x)
                arena.regs = WriteLog(arena.regs)
                spec.call(views, x)
                for i in arena.regs.written:
                    perm = arena.perms[i]
                    assert not (spec.model == RO_RW and perm == INPUT_ONLY), (n, i)
                    assert perm != SCRATCH or i in arena.metrics.scratch_touched, (n, i)


@pytest.mark.parametrize("tags", [(INOUT, SCRATCH, INOUT), (SCRATCH, SCRATCH, SCRATCH)], ids=("scratch-y", "all-scratch"))
def test_audited_strassen_writes_under_ro_rw(tags):
    # the table's Strassen entry is rw/rw without scratch; here every write
    # meets an ro/rw arena with scratch matrices and an input-only register
    # before and after each matrix
    spec = SPECS["strassen_cs"]
    tx, ty, tz = tags
    guards = ("g0", "g1", "g2", "g3")
    operands = (("g0", INPUT_ONLY), ("x", tx), ("g1", INPUT_ONLY), ("y", ty), ("g2", INPUT_ONLY), ("z", tz), ("g3", INPUT_ONLY))
    tagged = replace(spec, model=RO_RW, operands=operands)
    for ring in (RING97, RING_FFT):
        rng = random.Random(f"audit-strassen-{tags}-{ring.q}")
        for n in (1, 2, 4, 8):
            x = {**spec.gen(ring, rng, n), **{g: [rng.randrange(ring.q)] for g in guards}}
            for layout in (ops.build, build_reversed):
                arena, views = layout(tagged, ring, x)
                arena.regs = WriteLog(arena.regs)
                tagged.call(views, x)
                assert spec.check(ring, x, {"z": views.z.tolist()}), n
                assert arena.regs.written, n
                for i in arena.regs.written:
                    assert arena.perms[i] != INPUT_ONLY, (n, i)
                    assert arena.perms[i] != SCRATCH or i in arena.metrics.scratch_touched, (n, i)


# entry -> (model, operand sizes, tags, call(views, sign)); semi_cumulative_lower
# needs h mod x^2 = 0
SIGNED_ENTRIES = {
    "cumulative_karatsuba": (RW_RW, (3, 2, 4), (INOUT,) * 3, lambda v, sign: cs_rwrw.cumulative_karatsuba(*v, sign)),
    "cumulative_slice": (RW_RW, (4, 4, 3), (INOUT,) * 3, lambda v, sign: cs_rwrw.cumulative_slice(*v, 2, sign)),
    "cumulative_lower": (RW_RW, (4, 4, 4), (INOUT,) * 3, lambda v, sign: cs_rwrw.cumulative_lower(*v, sign)),
    "semi_cumulative_lower": (
        RO_RW,
        (6, 6, 6),
        (INPUT_ONLY, INPUT_ONLY, INOUT),
        lambda v, sign: cs_rorw.semi_cumulative_lower(*v, 2, sign),
    ),
    "strassen_cs": (
        RW_RW,
        (4, 4, 4),
        (INOUT,) * 3,
        lambda v, sign: bi.strassen_cs(*(bi.MatView(u.arena, u.off, 2, 2) for u in v), sign),
    ),
}


@pytest.mark.parametrize("sign", (0, 2, -2))
@pytest.mark.parametrize("name", sorted(SIGNED_ENTRIES))
def test_sign_other_than_one_or_minus_one_is_refused(name, sign):
    model, sizes, tags, call = SIGNED_ENTRIES[name]
    rng = random.Random(f"sign-{name}-{sign}")
    values = [rand_poly(rng, 97, k) for k in sizes]
    values[2][:2] = [0, 0]
    arena, views = build_arena(RING97, model, *zip(values, tags))
    before = list(arena.regs)
    with pytest.raises(BadParams):
        call(views, sign)
    assert arena.regs == before
    assert arena.metrics.summary() == "extra_algebraic=0 pointer_depth=0 base_products=0"


@pytest.mark.parametrize("n", (1, 2, 4, 8))
def test_strassen_on_reversed_matrices(n):
    # a matrix stored back to front is the logical one turned by 180
    # degrees, and Strassen on three of them computes the turned product
    # with the plain layout's metrics
    spec = SPECS["strassen_cs"]
    for ring in (RING97, RING_FFT):
        x = spec.gen(ring, random.Random(f"strassen-reversed-{n}-{ring.q}"), n)
        metrics = [check(spec, ring, x, kind).metrics for kind in ("plain", "reversed")]
        assert len({(m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products) for m in metrics}) == 1


def test_strassen_refuses_mixed_directions():
    spec = SPECS["strassen_cs"]
    x = spec.gen(RING97, random.Random(3), 4)
    arena, views = ops.build(spec, RING97, x)
    views.y = views.y.rev()
    before = list(arena.regs)
    with pytest.raises(RegionMismatch):
        spec.call(views, x)
    assert arena.regs == before


@settings(max_examples=2000, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(OPS),
    q=st.sampled_from(PRIMES),
    kind=st.sampled_from(("plain", "reversed", "padded")),
    n=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_fuzz_over_primes_and_view_kinds(spec, q, kind, n, seed):
    # interpolation needs n + 1 distinct points (partial_interp: n - s
    # nonzero ones plus room for the shift), so small fields skip it
    if spec.name in ("interp_cs", "partial_interp"):
        assume(q > n + 1)
    ring = RINGS[q]
    rng = random.Random(seed)
    x = spec.gen(ring, rng, n, cap=32)
    check(spec, ring, zero_tail(spec, x, rng) if kind == "padded" else x, kind)
