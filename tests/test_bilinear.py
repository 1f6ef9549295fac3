import hashlib
import math
import random

import pytest

from polyarena import INOUT, INPUT_ONLY, RO_RW, RW_RW, SCRATCH, Arena, Zq, build_arena
from polyarena import bilinear_inplace as bi
from polyarena.dense_ref import schoolbook_mul
from polyarena.errors import DimMismatch, NotPowerOfTwo, PermissionDenied, PolyArenaError, RegionMismatch, ZeroRow
from helpers import RING97, rand_poly

RNG = random.Random(77)
Q = 97


def brute_bilinear(prog, x, y, z):
    q = prog.ring.q
    px = [sum(prog.A[u][i] * x[i] for i in range(prog.m)) % q for u in range(prog.t)]
    py = [sum(prog.B[u][j] * y[j] for j in range(prog.n)) % q for u in range(prog.t)]
    w = [px[u] * py[u] % q for u in range(prog.t)]
    return [(z[k] + sum(prog.C[k][u] * w[u] for u in range(prog.t))) % q for k in range(prog.s)]


def random_program(rng, t, m, n, s):
    def row(w):
        while True:
            r = [rng.randrange(Q) if rng.random() < 0.6 else 0 for _ in range(w)]
            if any(r):
                return r

    while True:
        A = [row(m) for _ in range(t)]
        B = [row(n) for _ in range(t)]
        C = [row(t) for _ in range(s)]
        if all(any(C[k][u] for k in range(s)) for u in range(t)):
            return bi.validate(RING97, A, B, C)


def test_validate_karatsuba_triple():
    prog = bi.karatsuba2_program(RING97)
    assert (prog.t, prog.s, prog.m, prog.n) == (3, 3, 2, 2)


def test_validate_rejects_zero_row_and_bad_dims():
    with pytest.raises(ZeroRow):
        bi.validate(RING97, [[1, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 0]])
    with pytest.raises(DimMismatch):
        bi.validate(RING97, [[1, 0]], [[1, 0]], [[1, 1]])  # C too wide


def test_karatsuba_emission_counts_and_execution():
    prog = bi.karatsuba2_program(RING97)
    instrs = bi.emit_inplace(prog)
    counts = bi.instruction_counts(instrs, Q)
    assert counts == {"products": 3, "additions": 11, "scalings": 0}

    arena, (x, y, z) = build_arena(RING97, RW_RW, ([1, 2], INOUT), ([3, 4], INOUT), ([0, 0, 0], INOUT))
    bi.exec_program(instrs, x, y, z, (2, 2, 3))
    assert z.tolist() == [3, 10, 8]
    arena, (x, y, z) = build_arena(RING97, RW_RW, ([1, 2], INOUT), ([3, 4], INOUT), ([1, 1, 1], INOUT))
    bi.exec_program(instrs, x, y, z, (2, 2, 3))
    assert z.tolist() == [4, 11, 9]


def test_exec_empty_program_and_region_checks():
    arena, (x, y, z) = build_arena(RING97, RW_RW, ([1, 2], INOUT), ([3, 4], INOUT), ([5, 6, 7], INOUT))
    bi.exec_program([], x, y, z, (2, 2, 3))
    assert z.tolist() == [5, 6, 7]  # no-op
    with pytest.raises(RegionMismatch):
        bi.exec_program([], x, y, z, (3, 2, 3))
    with pytest.raises(RegionMismatch):
        bi.exec_program([], x, y, z, (2, 2, 4))


def test_identity_program_degenerate():
    prog = bi.validate(RING97, [[1]], [[1]], [[1]])
    instrs = bi.emit_inplace(prog)
    counts = bi.instruction_counts(instrs, Q)
    # sigma = 3, t = 1: the fused accumulation is the single addition
    assert counts == {"products": 1, "additions": 1, "scalings": 0}


def test_strassen_triple_counts():
    prog = bi.strassen_program(RING97)
    instrs = bi.emit_inplace(prog)
    counts = bi.instruction_counts(instrs, Q)
    sA, sB, sC = bi.sigma(prog.A), bi.sigma(prog.B), bi.sigma(prog.C)
    assert counts["products"] == 7
    assert counts["additions"] == 2 * (sA + sB + sC) - 5 * 7
    assert counts["scalings"] == 0


def test_random_programs_match_brute_force_and_formulas():
    for _ in range(80):
        t, m, n, s = (RNG.randrange(1, 6) for _ in range(4))
        prog = random_program(RNG, t, m, n, s)
        instrs = bi.emit_inplace(prog)
        x, y, z = rand_poly(RNG, Q, m), rand_poly(RNG, Q, n), rand_poly(RNG, Q, s)
        for model, ztag in ((RW_RW, INOUT), (RO_RW, SCRATCH)):
            arena, (xv, yv, zv) = build_arena(RING97, model, (x, INOUT), (y, INOUT), (z, ztag))
            bi.exec_program(instrs, xv, yv, zv, (m, n, s))
            assert zv.tolist() == brute_bilinear(prog, x, y, z)
            assert xv.tolist() == x and yv.tolist() == y  # inputs restored
            # every row of C is nonzero, so every z register is written
            assert arena.metrics.extra_algebraic_highwater == (s if ztag == SCRATCH else 0)
        counts = bi.instruction_counts(instrs, Q)
        sA, sB, sC = bi.sigma(prog.A), bi.sigma(prog.B), bi.sigma(prog.C)
        tA, tB, tC = bi.tau(prog.A, Q), bi.tau(prog.B, Q), bi.tau(prog.C, Q)
        assert counts["products"] == prog.t
        assert counts["additions"] == 2 * (sA + sB + sC) - 5 * prog.t
        assert counts["scalings"] == 2 * (tA + tB + tC)


def test_program_text_roundtrip():
    prog = bi.strassen_program(RING97)
    instrs = bi.emit_inplace(prog)
    text = bi.program_to_text(instrs, Q)
    back = bi.program_from_text(text)
    assert bi.program_to_text(back, Q) == text
    assert any(line.endswith("* y0") for line in text.splitlines())


def test_2d_scalar_pair():
    prog = bi.karatsuba2_program(RING97, two_d=True)
    instrs = bi.emit_inplace(prog)

    def scalar_pair(target, xb, yb):
        target.set(0, target.get(0) + xb.get(0) * yb.get(0))

    arena, (x, y, z) = build_arena(RING97, RW_RW, ([1, 2], INOUT), ([3, 4], INOUT), ([0, 0, 0], INOUT))
    bi.exec_program(instrs, x, y, z, (2, 2, 3), block_len=1, pair_op=scalar_pair)
    assert z.tolist() == [3, 10, 8]


def test_random_2d_programs_with_scalar_pairs_match_brute_force():
    # with block_len = 1 a pair's high part is empty, so a 2D program
    # computes the 1D bilinear form of its first t columns of C
    def scalar_pair(target, xb, yb):
        target.set(0, target.get(0) + xb.get(0) * yb.get(0))

    rng = random.Random("2d-scalar-pairs")
    for _ in range(80):
        t, m, n, s = (rng.randrange(1, 6) for _ in range(4))
        p1 = random_program(rng, t, m, n, s)
        prog = bi.validate(RING97, p1.A, p1.B, [row + [0] for row in p1.C], two_d=True)
        instrs = bi.emit_inplace(prog)
        assert sum(ins.kind == bi.PAIR for ins in instrs) == t
        x, y, z = rand_poly(rng, Q, m), rand_poly(rng, Q, n), rand_poly(rng, Q, s)
        for model, ztag in ((RW_RW, INOUT), (RO_RW, SCRATCH)):
            arena, (xv, yv, zv) = build_arena(RING97, model, (x, INOUT), (y, INOUT), (z, ztag))
            bi.exec_program(instrs, xv, yv, zv, (m, n, s), block_len=1, pair_op=scalar_pair)
            assert zv.tolist() == brute_bilinear(prog, x, y, z)
            assert xv.tolist() == x and yv.tolist() == y


def _random_triple(rng, q, two_d):
    """A sparse triple over Z_q with entries 1, -1 or random; it may have
    a zero row or reach no z register with some product."""
    t, m, n, s = (rng.randrange(1, 5) for _ in range(4))

    def row(w):
        while True:
            r = [rng.choice((1, q - 1, rng.randrange(q))) if rng.random() < 0.6 else 0 for _ in range(w)]
            if any(r) or rng.random() < 0.02:
                return r

    A = [row(m) for _ in range(t)]
    B = [row(n) for _ in range(t)]
    C = [row(t) + [0] * two_d for _ in range(s)]
    return A, B, C


def _emitted_texts(q, two_d, count=300):
    """The program text of each seeded triple, or the name of the error
    its validation or emission raises."""
    ring = Zq(q)
    rng = random.Random(f"emit-pin-{q}-{two_d}")
    texts = []
    for _ in range(count):
        try:
            prog = bi.validate(ring, *_random_triple(rng, q, two_d), two_d=two_d)
            texts.append(bi.program_to_text(bi.emit_inplace(prog), q))
        except PolyArenaError as exc:
            texts.append(type(exc).__name__)
    return texts


# sha256 of the joined texts, taken from the two emitters that one
# emit_inplace body replaced
EMIT_PINNED = {
    (5, False): "6f345a58c79137a1bd6cc05e5d3cb9e80d55ed3d463712099d8501ececceffee",
    (5, True): "9923efc00e8c895bdb8eba672ce1fd8c028e7751bffed1bebb7900b75774efe0",
    (97, False): "7632429ac97d83f56ed237dc2c68e11ffde8b81df2c832be4f4ee6c2d3ca63aa",
    (97, True): "3fcdb7c2ad7af7070c3d803fc7d384bd72d93bd427c4951dabdf99b75f8eac47",
}


@pytest.mark.parametrize("case", sorted(EMIT_PINNED), ids=lambda c: f"q{c[0]}-{'2d' if c[1] else '1d'}")
def test_emitted_programs_are_pinned(case):
    texts = _emitted_texts(*case)
    assert sum(not text.isidentifier() for text in texts) > len(texts) // 2  # mostly valid triples
    assert hashlib.sha256("\n\n".join(texts).encode()).hexdigest() == EMIT_PINNED[case]


def test_2d_recursive_levels():
    prog = bi.karatsuba2_program(RING97, two_d=True)
    instrs = bi.emit_inplace(prog)

    def rec_pair(target, xb, yb):
        half = len(xb) // 2
        if half == 0:
            target.set(0, target.get(0) + xb.get(0) * yb.get(0))
            return
        bi.exec_program(instrs, xb, yb, target, (2, 2, 3), block_len=half, pair_op=rec_pair)

    for nn in (4, 8):
        f = rand_poly(RNG, Q, nn)
        g = rand_poly(RNG, Q, nn)
        h0 = rand_poly(RNG, Q, 2 * nn - 1)
        arena, (x, y, z) = build_arena(RING97, RW_RW, (f, INOUT), (g, INOUT), (h0, INOUT))
        bi.exec_program(instrs, x, y, z, (2, 2, 3), block_len=nn // 2, pair_op=rec_pair)
        full = schoolbook_mul(RING97, f, g)
        assert z.tolist() == [(h0[i] + full[i]) % Q for i in range(2 * nn - 1)]
        assert x.tolist() == f and y.tolist() == g


def naive_matmul_acc(X, Y, Z, q):
    n = len(X)
    return [[(Z[i][j] + sum(X[i][k] * Y[k][j] for k in range(n))) % q for j in range(n)] for i in range(n)]


def strassen_setup(n, model=RW_RW, tags=(INOUT, INOUT, INOUT)):
    X = [[RNG.randrange(Q) for _ in range(n)] for _ in range(n)]
    Y = [[RNG.randrange(Q) for _ in range(n)] for _ in range(n)]
    Z = [[RNG.randrange(Q) for _ in range(n)] for _ in range(n)]
    flat = [v for M in (X, Y, Z) for row in M for v in row]
    arena = Arena(RING97, flat, [t for t in tags for _ in range(n * n)], model)
    mx = bi.mat_on_arena(arena, 0, n)
    my = bi.mat_on_arena(arena, n * n, n)
    mz = bi.mat_on_arena(arena, 2 * n * n, n)
    return X, Y, Z, arena, mx, my, mz


def test_strassen_cs_examples():
    X, Y, Z, arena, mx, my, mz = strassen_setup(1)
    bi.strassen_cs(mx, my, mz)
    assert mz.get(0, 0) == (Z[0][0] + X[0][0] * Y[0][0]) % Q

    n = 2
    eye = [[1, 0], [0, 1]]
    flat = [v for M in (eye, eye, [[0, 0], [0, 0]]) for row in M for v in row]
    arena = Arena(RING97, flat, [INOUT] * len(flat), RW_RW)
    mx, my, mz = (bi.mat_on_arena(arena, k * 4, 2) for k in range(3))
    bi.strassen_cs(mx, my, mz)
    assert mz.tolists() == eye
    assert mx.tolists() == eye and my.tolists() == eye

    for n in (2, 4, 8, 16):
        X, Y, Z, arena, mx, my, mz = strassen_setup(n)
        bi.strassen_cs(mx, my, mz)
        assert mz.tolists() == naive_matmul_acc(X, Y, Z, Q)
        assert mx.tolists() == X and my.tolists() == Y
        k = int(math.log2(n))
        assert arena.metrics.base_products == 7 ** k
        assert arena.metrics.extra_algebraic_highwater == 0
        assert arena.metrics.pointer_depth_highwater == k + 1


def test_strassen_requires_power_of_two():
    X, Y, Z, arena, mx, my, mz = strassen_setup(3)
    with pytest.raises(NotPowerOfTwo):
        bi.strassen_cs(mx, my, mz)


@pytest.mark.parametrize("which", ["X", "Y", "Z"])
def test_strassen_cs_input_only_operand_leaves_arena_unchanged(which):
    tags = tuple(INPUT_ONLY if name == which else INOUT for name in "XYZ")
    X, Y, Z, arena, mx, my, mz = strassen_setup(4, RO_RW, tags)
    before = list(arena.regs)
    with pytest.raises(PermissionDenied):
        bi.strassen_cs(mx, my, mz)
    assert arena.regs == before
    assert arena.metrics.summary() == "extra_algebraic=0 pointer_depth=0 base_products=0"


def test_strassen_cs_counts_scratch_writes():
    for levels in (1, 2, 3):
        n = 1 << levels
        X, Y, Z, arena, mx, my, mz = strassen_setup(n, RO_RW, (INOUT, SCRATCH, INOUT))
        bi.strassen_cs(mx, my, mz)
        assert mz.tolists() == naive_matmul_acc(X, Y, Z, Q)
        assert mx.tolists() == X and my.tolists() == Y
        # only the top-right quadrant of Y is written at each level, so Y[i][j]
        # is written unless no bit position of (i, j) reads (0, 1)
        assert arena.metrics.extra_algebraic_highwater == n * n - 3**levels


# (model, q, n, sign): rw/rw with three INOUT matrices, and ro/rw with a
# SCRATCH-tagged Y
GOLDEN_CASES = [
    (model, q, n, sign)
    for model in (RW_RW, RO_RW)
    for q in (97, 2**61 - 1, 2**127 - 1)
    for n in (1, 2, 4, 8, 16, 32)
    for sign in (1, -1)
]

# (fingerprint of every register, extra_algebraic, pointer_depth,
# base_products), taken while every 2 x 2 node recursed to 1 x 1 leaves
STRASSEN_PINNED = {
    (RW_RW, 97, 1, 1): (238, 0, 1, 1),
    (RW_RW, 97, 1, -1): (258, 0, 1, 1),
    (RW_RW, 97, 2, 1): (2590, 0, 2, 7),
    (RW_RW, 97, 2, -1): (3780, 0, 2, 7),
    (RW_RW, 97, 4, 1): (50034, 0, 3, 49),
    (RW_RW, 97, 4, -1): (48032, 0, 3, 49),
    (RW_RW, 97, 8, 1): (928712, 0, 4, 343),
    (RW_RW, 97, 8, -1): (888812, 0, 4, 343),
    (RW_RW, 97, 16, 1): (13765093, 0, 5, 2401),
    (RW_RW, 97, 16, -1): (14028198, 0, 5, 2401),
    (RW_RW, 97, 32, 1): (229566083, 0, 6, 16807),
    (RW_RW, 97, 32, -1): (225199496, 0, 6, 16807),
    (RW_RW, 2**61 - 1, 1, 1): (1505881081263717805, 0, 1, 1),
    (RW_RW, 2**61 - 1, 1, -1): (1867065671765150043, 0, 1, 1),
    (RW_RW, 2**61 - 1, 2, 1): (1413517385155866804, 0, 2, 7),
    (RW_RW, 2**61 - 1, 2, -1): (2265253199158061692, 0, 2, 7),
    (RW_RW, 2**61 - 1, 4, 1): (1841850171027673717, 0, 3, 49),
    (RW_RW, 2**61 - 1, 4, -1): (1542190645460918754, 0, 3, 49),
    (RW_RW, 2**61 - 1, 8, 1): (402682223745111549, 0, 4, 343),
    (RW_RW, 2**61 - 1, 8, -1): (1490588984696593036, 0, 4, 343),
    (RW_RW, 2**61 - 1, 16, 1): (170955146757717971, 0, 5, 2401),
    (RW_RW, 2**61 - 1, 16, -1): (1861687193551847875, 0, 5, 2401),
    (RW_RW, 2**61 - 1, 32, 1): (230053967171939717, 0, 6, 16807),
    (RW_RW, 2**61 - 1, 32, -1): (1352893443491231822, 0, 6, 16807),
    (RW_RW, 2**127 - 1, 1, 1): (1801448399259737293, 0, 1, 1),
    (RW_RW, 2**127 - 1, 1, -1): (2052607250737416814, 0, 1, 1),
    (RW_RW, 2**127 - 1, 2, 1): (580275766830436191, 0, 2, 7),
    (RW_RW, 2**127 - 1, 2, -1): (70333949831067171, 0, 2, 7),
    (RW_RW, 2**127 - 1, 4, 1): (517473469227649493, 0, 3, 49),
    (RW_RW, 2**127 - 1, 4, -1): (2058185210433327762, 0, 3, 49),
    (RW_RW, 2**127 - 1, 8, 1): (47546214813157418, 0, 4, 343),
    (RW_RW, 2**127 - 1, 8, -1): (1690085441532018647, 0, 4, 343),
    (RW_RW, 2**127 - 1, 16, 1): (315639809890592195, 0, 5, 2401),
    (RW_RW, 2**127 - 1, 16, -1): (524139083026667575, 0, 5, 2401),
    (RW_RW, 2**127 - 1, 32, 1): (1021947949462523955, 0, 6, 16807),
    (RW_RW, 2**127 - 1, 32, -1): (522923697005202711, 0, 6, 16807),
    (RO_RW, 97, 1, 1): (286, 0, 1, 1),
    (RO_RW, 97, 1, -1): (488, 0, 1, 1),
    (RO_RW, 97, 2, 1): (2964, 1, 2, 7),
    (RO_RW, 97, 2, -1): (2600, 1, 2, 7),
    (RO_RW, 97, 4, 1): (57169, 7, 3, 49),
    (RO_RW, 97, 4, -1): (54890, 7, 3, 49),
    (RO_RW, 97, 8, 1): (879686, 37, 4, 343),
    (RO_RW, 97, 8, -1): (922473, 37, 4, 343),
    (RO_RW, 97, 16, 1): (14489870, 175, 5, 2401),
    (RO_RW, 97, 16, -1): (14720130, 175, 5, 2401),
    (RO_RW, 97, 32, 1): (226543230, 781, 6, 16807),
    (RO_RW, 97, 32, -1): (221999075, 781, 6, 16807),
    (RO_RW, 2**61 - 1, 1, 1): (2213999610033898258, 0, 1, 1),
    (RO_RW, 2**61 - 1, 1, -1): (67616770683723340, 0, 1, 1),
    (RO_RW, 2**61 - 1, 2, 1): (2120344596749549689, 1, 2, 7),
    (RO_RW, 2**61 - 1, 2, -1): (748450656422755657, 1, 2, 7),
    (RO_RW, 2**61 - 1, 4, 1): (1692116832194552611, 7, 3, 49),
    (RO_RW, 2**61 - 1, 4, -1): (882690145139193510, 7, 3, 49),
    (RO_RW, 2**61 - 1, 8, 1): (1796872059989787480, 37, 4, 343),
    (RO_RW, 2**61 - 1, 8, -1): (489491467786971140, 37, 4, 343),
    (RO_RW, 2**61 - 1, 16, 1): (1202621277518299097, 175, 5, 2401),
    (RO_RW, 2**61 - 1, 16, -1): (37360622655964894, 175, 5, 2401),
    (RO_RW, 2**61 - 1, 32, 1): (1475639106487694891, 781, 6, 16807),
    (RO_RW, 2**61 - 1, 32, -1): (789514201931211202, 781, 6, 16807),
    (RO_RW, 2**127 - 1, 1, 1): (2152644596040039971, 0, 1, 1),
    (RO_RW, 2**127 - 1, 1, -1): (1808343374618227095, 0, 1, 1),
    (RO_RW, 2**127 - 1, 2, 1): (1213811700237564624, 1, 2, 7),
    (RO_RW, 2**127 - 1, 2, -1): (1519309223676215334, 1, 2, 7),
    (RO_RW, 2**127 - 1, 4, 1): (846940631353661705, 7, 3, 49),
    (RO_RW, 2**127 - 1, 4, -1): (2122252264762255270, 7, 3, 49),
    (RO_RW, 2**127 - 1, 8, 1): (628111532268864995, 37, 4, 343),
    (RO_RW, 2**127 - 1, 8, -1): (1862232901511818461, 37, 4, 343),
    (RO_RW, 2**127 - 1, 16, 1): (229020707217731472, 175, 5, 2401),
    (RO_RW, 2**127 - 1, 16, -1): (231842010305085878, 175, 5, 2401),
    (RO_RW, 2**127 - 1, 32, 1): (620119102986485000, 781, 6, 16807),
    (RO_RW, 2**127 - 1, 32, -1): (1412904405691310040, 781, 6, 16807),
}


def _strassen_golden(model, q, n, sign):
    rng = random.Random(f"strassen-golden-{model}-{q}-{n}-{sign}")
    tags = (INOUT, INOUT, INOUT) if model == RW_RW else (INOUT, SCRATCH, INOUT)
    flat = [rng.randrange(q) for _ in range(3 * n * n)]
    arena = Arena(Zq(q), flat, [t for t in tags for _ in range(n * n)], model)
    bi.strassen_cs(*(bi.mat_on_arena(arena, k * n * n, n) for k in range(3)), sign)
    fingerprint = sum(i * v for i, v in enumerate(arena.regs, 1)) % (2**61 - 1)
    m = arena.metrics
    return fingerprint, m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: "-".join(map(str, c)))
def test_strassen_cs_is_pinned(case):
    assert _strassen_golden(*case) == STRASSEN_PINNED[case]
