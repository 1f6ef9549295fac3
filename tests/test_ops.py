"""The operation table: every public operation declared in it, refused
calls that leave the arena as found, and a fuzz of the table's operations
over more primes and view kinds."""

import inspect
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import RING_FFT, check
from polyarena import INPUT_ONLY, RO_RW, Zq, ops
from polyarena import bilinear_inplace as bi
from polyarena import cs_rorw, cs_rwrw
from polyarena.errors import PermissionDenied
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


@settings(max_examples=2000, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(OPS),
    q=st.sampled_from(PRIMES),
    kind=st.sampled_from(("plain", "reversed")),
    n=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_fuzz_over_primes_and_view_kinds(spec, q, kind, n, seed):
    # interpolation needs n + 1 distinct points (partial_interp: n - s
    # nonzero ones plus room for the shift), so small fields skip it
    if spec.name in ("interp_cs", "partial_interp"):
        assume(q > n + 1)
    ring = RINGS[q]
    check(spec, ring, spec.gen(ring, random.Random(seed), n, cap=32), kind)
