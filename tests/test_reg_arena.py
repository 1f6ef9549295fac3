import ast
from pathlib import Path

import pytest

import polyarena
from polyarena import INOUT, INPUT_ONLY, OUTPUT_ONLY, RO_RW, RW_RW, SCRATCH, Arena, Zq, make_view
from polyarena.errors import (
    BadRange,
    LengthMismatch,
    OutOfRange,
    PaddingWrite,
    PermissionDenied,
    UnderflowExit,
)
from polyarena.reg_arena import build_arena, vacc, vadd, vcopy, vscale, vset, vzero

RING = Zq(97)


def test_new_arena_examples():
    arena = Arena(RING, [], [], RW_RW)
    assert len(arena) == 0

    arena = Arena(RING, [1, 2, 3], [INPUT_ONLY, INPUT_ONLY, OUTPUT_ONLY], RO_RW)
    with pytest.raises(PermissionDenied):
        arena.write(0, 5)
    with pytest.raises(PermissionDenied):
        arena.write(1, 5)
    arena.write(2, 5)

    arena = Arena(RING, [0] * 5, [INOUT, INOUT, INOUT, SCRATCH, SCRATCH], RW_RW)
    assert arena.metrics.extra_algebraic_highwater == 0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        Arena(RING, [1, 2], [INOUT])


def test_access_and_scratch_metric():
    arena = Arena(RING, [0, 0, 0], [INOUT, SCRATCH, SCRATCH], RW_RW)
    arena.write(1, 7)
    assert arena.metrics.extra_algebraic_highwater == 1
    arena.write(1, 8)  # same register, no new high water
    assert arena.metrics.extra_algebraic_highwater == 1
    arena.write(2, 1)
    assert arena.metrics.extra_algebraic_highwater == 2
    with pytest.raises(OutOfRange):
        arena.read(3)
    with pytest.raises(OutOfRange):
        arena.write(-1, 0)


def test_rwrw_allows_input_writes():
    arena = Arena(RING, [1], [INPUT_ONLY], RW_RW)
    arena.write(0, 5)
    assert arena.read(0) == 5


def test_views_plain_reversed_padded():
    arena = Arena(RING, [3, 5, 2], [INOUT] * 3, RW_RW)
    v = make_view(arena, 0, 3)
    assert v.tolist() == [3, 5, 2]
    assert make_view(arena, 0, 3, "reversed").tolist() == [2, 5, 3]
    pv = make_view(arena, 0, 3, "padded", logical_len=5)
    assert pv.tolist() == [3, 5, 2, 0, 0]
    with pytest.raises(PaddingWrite):
        pv.set(4, 1)
    with pytest.raises(BadRange):
        make_view(arena, 2, 1)
    with pytest.raises(BadRange):
        make_view(arena, 0, 3, "padded", logical_len=2)


def test_view_composition():
    arena = Arena(RING, [1, 2, 3, 4, 5], [INOUT] * 5, RW_RW)
    v = arena.view(0, 5)
    assert v.sub(1, 4).rev().tolist() == [4, 3, 2]
    assert v.rev().sub(1, 4).tolist() == [4, 3, 2]
    padded = v.sub(0, 3).padded(6)
    assert padded.rev().tolist() == [0, 0, 0, 3, 2, 1]
    w = v.window(-2, 3)
    assert w.tolist() == [0, 0, 1, 2, 3]


def test_call_stack_metrics():
    arena = Arena(RING, [0], [INOUT], RW_RW)
    arena.enter_call()
    arena.enter_call()
    arena.exit_call()
    assert arena.metrics.pointer_depth_highwater == 2
    arena.exit_call()
    with pytest.raises(UnderflowExit):
        arena.exit_call()

    arena2 = Arena(RING, [0], [INOUT], RW_RW)
    assert arena2.metrics.pointer_depth_highwater == 0
    for _ in range(5):
        arena2.enter_call()
    assert arena2.metrics.pointer_depth_highwater == 5


def test_region_ops_and_trimming():
    arena, (a, b) = build_arena(RING, RW_RW, ([1, 2, 3], INOUT), ([10, 20, 30], INOUT))
    vadd(a, b)
    assert a.tolist() == [11, 22, 33]
    vadd(a, b.sub(0, 2), -1)
    assert a.tolist() == [1, 2, 33]
    vcopy(a, b.sub(0, 2).padded(3))
    assert a.tolist() == [10, 20, 0]
    vscale(a, 2)
    assert a.tolist() == [20, 40, 0]
    vscale(a, -1)
    assert a.tolist() == [77, 57, 0]
    vzero(a)
    assert a.tolist() == [0, 0, 0]


def test_bulk_write_permission_denied():
    arena, (a, b) = build_arena(RING, RO_RW, ([1, 2, 3], INPUT_ONLY), ([0, 0, 0], INOUT))
    with pytest.raises(PermissionDenied):
        vzero(a)
    vadd(b, a)
    assert b.tolist() == [1, 2, 3]


def test_padding_write_through_region_ops():
    arena, (a,) = build_arena(RING, RW_RW, ([1, 2], INOUT))
    padded = a.padded(4)
    with pytest.raises(PaddingWrite):
        vzero(padded)
    # adding a zero-padded source into a real region is fine
    arena2, (dst, src) = build_arena(RING, RW_RW, ([5, 5, 5], INOUT), ([1], INOUT))
    vadd(dst, src.padded(3))
    assert dst.tolist() == [6, 5, 5]


def test_vacc_and_vset():
    # any ints land reduced, at offset a, on a reversed view; padding and
    # input-only runs (ro/rw) refuse before anything is written; a scratch
    # register counts once however often it is written
    arena, (x, t) = build_arena(RING, RO_RW, ([1, 2, 3], INOUT), ([0, 0, 0, 0], SCRATCH))
    vacc(x, [200, -5])
    assert x.tolist() == [7, 94, 3]
    vacc(x, [1, 2], -1, 1)
    assert x.tolist() == [7, 93, 1]
    vacc(x, [10**40], 3, 2)
    assert x.tolist() == [7, 93, (1 + 3 * 10**40) % 97]
    vset(x, [-1, 10**30])
    assert x.tolist() == [96, 10**30 % 97, (1 + 3 * 10**40) % 97]
    vset(t.rev(), [5, -6, 7], 1)
    assert t.tolist() == [7, 91, 5, 0]
    vacc(t, [1] * 4)
    vset(t, [2, 2])
    assert t.tolist() == [2, 2, 6, 1]
    assert arena.metrics.extra_algebraic_highwater == 4
    before = list(arena.regs)
    for op in (lambda v: vacc(v, [1, 1]), lambda v: vset(v, [1, 1], 1)):
        with pytest.raises(PaddingWrite):
            op(x.sub(1, 3).padded(4).sub(1, 4))
    arena2, (a, b) = build_arena(RING, RO_RW, ([1, 2], INPUT_ONLY), ([0], INOUT))
    for op in (lambda: vacc(a, [1]), lambda: vset(a, [1], 1), lambda: vacc(a.rev(), [4, 4], -1)):
        with pytest.raises(PermissionDenied):
            op()
    assert arena.regs == before and arena2.regs == [1, 2, 0]
    # under rw/rw the same input-only run is written
    _, (a,) = build_arena(RING, RW_RW, ([1, 2], INPUT_ONLY))
    vacc(a, [1, 1], 5)
    assert a.tolist() == [6, 7]


def test_dump_format():
    arena = Arena(RING, [7, 0], [INPUT_ONLY, SCRATCH], RO_RW)
    lines = arena.dump().splitlines()
    assert lines[0] == "0\tin\t7"
    assert lines[1] == "1\tscratch\t0"


def test_scratch_registers_count_once():
    # overlapping spans, then scalar writes to marked and fresh registers
    arena = Arena(RING, [0] * 12, [INOUT] * 2 + [SCRATCH] * 8 + [INOUT] * 2, RW_RW)
    arena.check_span(0, 6)
    assert arena.metrics.extra_algebraic_highwater == 4
    arena.check_span(4, 12)
    assert arena.metrics.extra_algebraic_highwater == 8
    arena.check_span(3, 9)
    arena.write(5, 1)
    assert arena.metrics.extra_algebraic_highwater == 8
    arena.metrics.reset()
    arena.write(5, 2)
    arena.write(5, 3)
    arena.check_span(5, 7)
    assert arena.metrics.extra_algebraic_highwater == 2
    vzero(arena.view(0, 12).rev())
    assert arena.metrics.extra_algebraic_highwater == 8


def test_tolist_matches_get_on_composed_views():
    arena = Arena(RING, [1, 2, 3, 4, 5, 6, 7], [INOUT] * 7, RW_RW)
    v = arena.view(2, 5)
    views = [
        v,
        v.rev(),
        v.padded(6).rev(),
        v.window(-2, 4),
        v.window(4, 7),
        v.rev().sub(1, 1),
        v.padded(6).rev().sub(0, 2),
        arena.view(0, 0).rev(),
    ]
    for view in views:
        assert view.tolist() == [view.get(i) for i in range(len(view))]


# Every function outside reg_arena that assigns into a register list, with
# the claim that covers its writes.  Every other kernel lands its rows
# through vacc or vset.  A new raw writer fails the census until it is
# listed here with its claim.
RAW_WRITERS = {
    "bilinear_inplace._madd": "writes block rows at an offset and stride and claims them itself (_claim_rows)",
    "bilinear_inplace._sw2": "writes 2 x 2 blocks at offsets and strides and claims its registers itself (check_span)",
    "dense_ref._butterflies": "strides through raw regs under ntt's or _otfft's span",
}


def _reads_regs(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "regs" for n in ast.walk(node))


def _writes_registers(fn) -> bool:
    """fn assigns into a register list: into x.regs[...] itself, or into a
    name bound to one (a parameter called regs, or a name assigned from an
    expression that reads .regs, tuple unpacking included)."""
    names = {a.arg for a in fn.args.args if a.arg == "regs"}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                paired = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                pairs = zip(target.elts, node.value.elts) if paired else [(target, node.value)]
                names.update(t.id for t, v in pairs if isinstance(t, ast.Name) and _reads_regs(v))
    for node in ast.walk(fn):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Subscript):
                base = t.value
                if (isinstance(base, ast.Attribute) and base.attr == "regs") or getattr(base, "id", None) in names:
                    return True
    return False


def test_census_of_raw_register_writers():
    found = set()
    for path in sorted(Path(polyarena.__file__).parent.glob("*.py")):
        if path.stem == "reg_arena":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            fns = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in fns:
                if isinstance(fn, ast.FunctionDef) and _writes_registers(fn):
                    found.add(f"{path.stem}.{fn.name}")
    assert found == set(RAW_WRITERS)
