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
from polyarena.dense_ref import schoolbook_mul
from polyarena.errors import (
    BadParams,
    BadScratch,
    BadSlice,
    DimMismatch,
    DuplicatePoint,
    LambdaZero,
    NonMonicModulus,
    NonUnit,
    NonUnitConstant,
    NonUnitLeading,
    NotPowerOfTwo,
    PermissionDenied,
    PreconditionLowNonzero,
    PreconditionTopNonzero,
    RegionMismatch,
    ScratchTooSmall,
    SizeContract,
    ZeroPointWithShift,
)
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


def _short(name):
    return lambda x: {name: x[name][:-1]}


def _long(name):
    return lambda x: {name: x[name] + [0]}


def _zero_const(name):
    return lambda x: {name: [0] + x[name][1:]}


def _zero_lead(name):
    return lambda x: {name: x[name][:-1] + [0]}


def _short_dividend(x):
    return {"f": x["f"][: len(x["g"]) - 2]}


def _long_remainder(x):
    return {"r": [0] * len(x["g"])}


def _duplicate_point(x):
    return {"pairs": x["pairs"][:1] + x["pairs"][:-1]}


# entry -> every contract error its table call raises, each with the edit of
# a valid input (of size n > 1) that provokes it
CONTRACT_REFUSALS = {
    "semi_cumulative_product": (
        (SizeContract, _short("g")),
        (PreconditionTopNonzero, lambda x: {"h": x["h"][:-1] + [1]}),
    ),
    "lower_product_cs": ((SizeContract, _short("g")), (SizeContract, lambda x: {"h": [0] * (len(x["f"]) + 1)})),
    "upper_product_cs": ((SizeContract, _short("g")), (SizeContract, lambda x: {"h": [0] * len(x["f"])})),
    "semi_cumulative_lower": (
        (BadScratch, lambda x: {"s": 0}),
        (BadScratch, lambda x: {"s": len(x["h"]) + 1}),
        (PreconditionLowNonzero, lambda x: {"h": [1] + x["h"][1:]}),
    ),
    "middle_product_cs": ((SizeContract, lambda x: {"h": [0] * (len(x["f"]) - len(x["g"]) + 2)}),),
    "series_inv_cs": ((SizeContract, lambda x: {"g": [0] * (len(x["f"]) + 1)}), (NonUnitConstant, _zero_const("f"))),
    "series_div_cs": ((SizeContract, _short("g")), (NonUnitConstant, _zero_const("g"))),
    "inplace_div_smallspace": (
        (SizeContract, _short("g")),
        (NonUnitConstant, _zero_const("g")),
        (ScratchTooSmall, lambda x: {"t": [0] * 4}),
    ),
    "divrem_cs": (
        (SizeContract, _short_dividend),
        (SizeContract, _long_remainder),
        (NonUnitLeading, _zero_lead("g")),
    ),
    "remainder_smallspace": (
        (SizeContract, _long_remainder),
        (NonUnitLeading, _zero_lead("g")),
        (BadScratch, lambda x: {"t": [0] * len(x["g"])}),
    ),
    "mp_eval_cs": ((SizeContract, lambda x: {"out": [0] * (len(x["points"]) + 1)}),),
    "partial_interp": (
        (SizeContract, lambda x: {"k": 0}),
        (SizeContract, lambda x: {"out": [0] * (x["k"] - 1)}),
        (DuplicatePoint, _duplicate_point),
        (ZeroPointWithShift, lambda x: {"g": [1], "pairs": [(0, 1)] + x["pairs"][1:]}),
        (BadScratch, lambda x: {"w": [0] * (2 * x["k"] - 1)}),
    ),
    "interp_cs": (
        (SizeContract, lambda x: {"out": [0] * (len(x["pairs"]) + 1)}),
        (DuplicatePoint, _duplicate_point),
        (ZeroPointWithShift, lambda x: {"pairs": [(0, 1)] + x["pairs"][1:]}),
    ),
    "cumulative_karatsuba": ((SizeContract, _long("h")),),
    "partial_ft": ((BadParams, lambda x: {"k": x["root"].order}),),
    "cumulative_fft_mul": ((SizeContract, _long("h")),),
    "cumulative_convolution": ((SizeContract, _short("g")), (LambdaZero, lambda x: {"lam": 0})),
    "cumulative_lower": ((SizeContract, _short("h")),),
    "cumulative_slice": ((BadSlice, lambda x: {"s": len(x["f"]) + len(x["g"])}),),
    "inplace_lower": ((SizeContract, _short("g")),),
    "inplace_series_div": ((SizeContract, _short("g")), (NonUnit, _zero_const("g"))),
    "remainder_rwrw": ((SizeContract, _long_remainder), (NonUnitLeading, _zero_lead("g"))),
    "inplace_divrem": ((SizeContract, _short_dividend), (NonUnitLeading, _zero_lead("g"))),
    "cumulative_remainder": (
        (SizeContract, _long("r")),
        (SizeContract, _short_dividend),
        (NonUnitLeading, _zero_lead("g")),
    ),
    "modular_mul": (
        (SizeContract, _long("r")),
        (SizeContract, _long("f")),
        (NonMonicModulus, lambda x: {"p": x["p"][:-1] + [2]}),
    ),
    "modular_mul_any": ((SizeContract, _long("r")), (NonMonicModulus, lambda x: {"p": x["p"][:-1] + [2]})),
    "strassen_cs": (
        (NotPowerOfTwo, lambda x: {name: x[name][:9] for name in "xyz"}),
        (NotPowerOfTwo, lambda x: {name: [] for name in "xyz"}),
        (DimMismatch, lambda x: {"y": x["y"][:4]}),
    ),
}


@pytest.mark.parametrize("spec", [spec for spec in SPECS.values() if spec.gen], ids=lambda spec: spec.name)
def test_refused_call_leaves_arena_as_found(spec):
    # each contract error of the entry in turn, and under ro/rw each
    # destination in turn tagged input-only: the call raises before it
    # writes a register, counts a scratch register or enters a call
    rng = random.Random(f"refused-{spec.name}")
    for n in (4, 8) if spec.name == "strassen_cs" else (1, 3, 17, 70):
        x = ops.defaults(spec, spec.gen(RING_FFT, rng, n, cap=80))
        cases = [(spec, {**x, **edit(x)}, error) for error, edit in CONTRACT_REFUSALS[spec.name] if n > 1]
        if spec.model == RO_RW:
            for dest, role in spec.operands:
                if role != INPUT_ONLY and x[dest]:
                    operands = tuple((name, INPUT_ONLY if name == dest else r) for name, r in spec.operands)
                    cases.append((replace(spec, operands=operands), x, PermissionDenied))
        for tagged, y, error in cases:
            arena, views = ops.build(tagged, RING_FFT, y)
            before = list(arena.regs)
            with pytest.raises(error):
                tagged.call(views, y)
            m = arena.metrics
            assert arena.regs == before, (n, error)
            assert (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products) == (0, 0, 0), (n, error)


# the reference entries have no generator: their inputs come from ops.draw
# as tools/differential.py draws them (exec_program's cannot: it needs a
# program, and draw needs a size rule it lacks)
REFERENCES = [SPECS[name] for name in ("schoolbook", "karatsuba_ref", "fft_ref")]
AUDITED = [spec for spec in SPECS.values() if spec.gen] + REFERENCES


def _inputs(spec, ring, rng, n, cap):
    if spec.gen:
        return spec.gen(ring, rng, n, cap=cap)
    if spec.name == "fft_ref":  # the prime needs a root of unity of the product's length
        n = min(n, 1 << max(0, ops._two_adicity(ring.q) - 1))
    return ops.draw(spec, ring, n, rng)


@pytest.mark.parametrize("spec", AUDITED, ids=lambda spec: spec.name)
def test_audited_writes_respect_the_table(spec):
    # the arena's own accounting checked against every write the call makes:
    # under ro/rw no input-only register is written, and every scratch
    # register written is counted
    matrix = spec.name == "strassen_cs"
    for ring in (RING97, RING_FFT):
        rng = random.Random(f"audit-{spec.name}-{ring.q}")
        for n in (1, 2, 4, 8) if matrix else (1, 2, 5, 17, 40):
            x = _inputs(spec, ring, rng, n, 40)
            for layout in (ops.build, build_reversed):
                arena, views = layout(spec, ring, x)
                arena.regs = WriteLog(arena.regs)
                spec.call(views, x)
                for i in arena.regs.written:
                    perm = arena.perms[i]
                    assert not (spec.model == RO_RW and perm == INPUT_ONLY), (n, i)
                    assert perm != SCRATCH or i in arena.metrics.scratch_touched, (n, i)


@pytest.mark.parametrize("spec", AUDITED, ids=lambda spec: spec.name)
def test_audit_sees_every_claim(spec):
    # every operand the call may write tagged SCRATCH (under rw/rw that is
    # every operand, inputs included): a register written outside every
    # span the call claimed is then a scratch register left uncounted
    operands = tuple(
        (name, role if spec.model == RO_RW and role == INPUT_ONLY else SCRATCH) for name, role in spec.operands
    )
    tagged = replace(spec, operands=operands)
    matrix = spec.name == "strassen_cs"
    for ring in (RING97, RING_FFT):
        rng = random.Random(f"claims-{spec.name}-{ring.q}")
        for n in (1, 2, 4, 8) if matrix else (1, 2, 5, 17, 40, 70):
            x = _inputs(spec, ring, rng, n, 40)
            for layout in (ops.build, build_reversed):
                arena, views = layout(tagged, ring, x)
                arena.regs = WriteLog(arena.regs)
                tagged.call(views, x)
                missed = arena.regs.written - arena.metrics.scratch_touched
                assert not missed, (n, sorted(missed)[:8])


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


@pytest.mark.parametrize("ring", (RING97, RING_FFT), ids=lambda ring: str(ring.q))
def test_fft_ref_on_reversed_views_is_exact(ring):
    # the pointwise product multiplies the registers of both transforms,
    # stored back to front
    spec = SPECS["fft_ref"]
    rng = random.Random(f"fft-ref-{ring.q}")
    for n in (1, 2, 3, 9, 16, 40):
        x = ops.defaults(spec, _inputs(spec, ring, rng, n, 40))
        arena, views = build_reversed(spec, ring, x)
        size = len(arena)
        spec.call(views, x)
        assert len(arena) == size
        assert ops._acc_product(ring, x, {"h": views.h.tolist()}), n


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


SWEEP_PRIMES = (2, 3, 2**127 - 1)


@pytest.mark.parametrize("q", SWEEP_PRIMES)
@pytest.mark.parametrize("spec", [spec for spec in SPECS.values() if spec.gen], ids=lambda spec: spec.name)
def test_oracle_sweep_over_primes_and_layouts(spec, q):
    # every entry against its oracle on the smallest primes and one above
    # 2^64, on the plain, reversed and padded layouts, below and above
    # BASE; Strassen on power-of-two sizes; the interpolation entries only
    # where the prime has the points they need (see the fuzz above)
    ring = RINGS[q]
    sizes = (1, 2, 4, 8) if spec.name == "strassen_cs" else (1, 2, 3, 4, 5, 8, 16, 17, 32, 33, 40, 64, 65, 97)
    for n in sizes:
        if spec.name in ("interp_cs", "partial_interp") and q <= n + 1:
            continue
        rng = random.Random(f"sweep-{spec.name}-{q}-{n}")
        x = spec.gen(ring, rng, n, cap=100)
        for kind in ("plain", "reversed", "padded"):
            check(spec, ring, zero_tail(spec, x, rng) if kind == "padded" else x, kind)


CUT_SWEEP_PRIMES = (2, 3, 97, 469762049, 2**61 - 1, 2**127 - 1)


def _cut_sweep_inputs(name, ring, rng, n):
    """Inputs of size n that reach the product cut dense_ref.BLOCK: a
    balanced and a ragged (2n + 3 by n) cumulative product, a divisor of n
    under a dividend of 3n - 1 coefficients, the table's draw otherwise."""
    q = ring.q
    if name == "cumulative_karatsuba":
        return [{"f": rand_poly(rng, q, lf), "g": rand_poly(rng, q, n), "h": rand_poly(rng, q, lf + n - 1)} for lf in (n, 2 * n + 3)]
    if name == "divrem_cs":
        return [ops._gen_divrem(ring, rng, n, 2 * n)]
    return [SPECS[name].gen(ring, rng, n)]


@pytest.mark.parametrize("q", CUT_SWEEP_PRIMES)
@pytest.mark.parametrize("name", ("cumulative_karatsuba", "cumulative_lower", "semi_cumulative_product", "divrem_cs"))
def test_oracle_sweep_across_the_product_cut(monkeypatch, name, q):
    # the entries whose products run up to BLOCK as one Kronecker product,
    # at BLOCK - 1, BLOCK, BLOCK + 1 and 2 BLOCK + 1 (the three largest
    # primes pack _kron slots wider than 8 bytes there), on every layout
    # the entry takes: exact output, inputs untouched or restored.  The
    # table's product oracle runs on the kit above 128 coefficients; here
    # it is the schoolbook product, so no kernel under test checks itself
    monkeypatch.setattr(ops, "karatsuba_mul", schoolbook_mul)
    ring = Zq(q)
    spec = SPECS[name]
    for n in (127, 128, 129, 257):
        rng = random.Random(f"cut-sweep-{name}-{q}-{n}")
        for x in _cut_sweep_inputs(name, ring, rng, n):
            for kind in ("plain", "reversed", "padded") if spec.model == RO_RW else ("plain", "reversed"):
                check(spec, ring, zero_tail(spec, x, rng) if kind == "padded" else x, kind)
