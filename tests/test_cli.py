import random

from polyarena import INOUT, INPUT_ONLY, RO_RW, RW_RW, build_arena
from polyarena import cs_rorw, cs_rwrw, ops
from polyarena.cli import main
from helpers import RING97, distinct_nonzero, rand_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_golden_matches_library(capsys):
    code, out, _ = run_cli(capsys, "mul", "--q", "97", "--algo", "cumulative-karatsuba",
                           "--f", "1,2", "--g", "3,4", "--h", "0,0,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "97;3,10,8"
    assert lines[1].startswith("extra_algebraic=0 pointer_depth=")

    arena, (f, g, h) = build_arena(RING97, RW_RW, ([1, 2], INOUT), ([3, 4], INOUT), ([0, 0, 0], INOUT))
    cs_rwrw.cumulative_karatsuba(f, g, h)
    assert lines[0].split(";")[1] == ",".join(str(c) for c in h.tolist())


def test_divrem_golden(capsys):
    code, out, _ = run_cli(capsys, "divrem", "--q", "97", "--algo", "cs", "--f", "1,2,0,1", "--g", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q: 97;3,96,1"
    assert lines[1] == "r: 97;95"

    arena, (f, g, q, r) = build_arena(
        RING97, RO_RW, ([1, 2, 0, 1], INPUT_ONLY), ([1, 1], INPUT_ONLY), ([0] * 3, INOUT), ([0], INOUT)
    )
    cs_rorw.divrem_cs(f, g, q, r)
    assert lines[0] == f"q: 97;{','.join(str(c) for c in q.tolist())}"


def test_emit_karatsuba_program(capsys):
    code, out, _ = run_cli(capsys, "emit", "--karatsuba2")
    assert code == 0
    assert "z0 += x0 * y0" in out
    assert "# products=3 additions=11 scalings=0" in out


def test_exec_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "emit", "--karatsuba2")
    program = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    path = tmp_path / "kara.prog"
    path.write_text(program)
    code, out, _ = run_cli(capsys, "exec", "--program", f"@{path}", "--x", "1,2", "--y", "3,4", "--z", "0,0,0")
    assert code == 0
    assert out.splitlines()[0] == "z: 97;3,10,8"
    # operands longer than the program reaches are refused, not ignored
    for x, z in (("1,2,5", "0,0,0"), ("1,2", "0,0,0,0,0")):
        code, _, err = run_cli(capsys, "exec", "--program", f"@{path}", "--x", x, "--y", "3,4", "--z", z)
        assert code == 1
        assert "RegionMismatch" in err


def test_math_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "inv", "--algo", "cs", "--f", "0,1,2")
    assert code == 1
    assert "NonUnitConstant" in err


def test_usage_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "mul", "--q", "97", "--algo", "cumulative-karatsuba", "--f", "a,b", "--g", "1")
    assert code == 2

    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2

    code, _, err = run_cli(capsys, "strassen", "--x", "a,0;0,1", "--y", "1,0;0,1")
    assert code == 2

    # @file operands: a missing file, a bad header, a bad coefficient, a bad program line
    for name, text in (("header.poly", "x;1,2\n"), ("coeff.poly", "97;1,x\n"), ("bad.prog", "z0 += x\n")):
        (tmp_path / name).write_text(text)
    for argv in (
        ("inv", "--algo", "cs", "--f", f"@{tmp_path / 'missing.poly'}"),
        ("inv", "--algo", "cs", "--f", f"@{tmp_path / 'header.poly'}"),
        ("inv", "--algo", "cs", "--f", f"@{tmp_path / 'coeff.poly'}"),
        ("exec", "--program", f"@{tmp_path / 'bad.prog'}", "--x", "1", "--y", "1", "--z", "0"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, (argv, err)
        assert err.startswith("usage error:"), (argv, err)


def _ref_route_operands(rng, q, n):
    """CLI operands of each route that has --algo ref, of about n coefficients."""
    text = lambda vals: ",".join(map(str, vals))
    f = [rng.randrange(1, q)] + rand_poly(rng, q, n - 1)
    g = rand_poly(rng, q, n // 2) + [rng.randrange(1, q)]
    pts = distinct_nonzero(rng, q, n)
    return {
        "middle": ("--f", text(f), "--g", text(g)),
        "inv": ("--f", text(f)),
        "divrem": ("--f", text(f), "--g", text(g)),
        "eval": ("--f", text(f), "--points", text([0] + pts)),
        "interp": ("--points", text(pts), "--values", text(rand_poly(rng, q, n))),
    }


def test_ref_routes_agree_with_cs(capsys):
    """--algo ref prints the result lines of --algo cs, without the metrics line."""
    rng = random.Random("ref-routes")
    for q, n in ((97, 5), (97, 70), (469762049, 40)):
        routes = _ref_route_operands(rng, q, n)
        assert set(routes) == {cmd for (cmd, _), spec in ops.ROUTES.items() if spec.ref}
        for cmd, operands in routes.items():
            code, cs_out, err = run_cli(capsys, cmd, "--q", str(q), "--algo", "cs", *operands)
            assert code == 0, (cmd, err)
            code, ref_out, err = run_cli(capsys, cmd, "--q", str(q), "--algo", "ref", *operands)
            assert code == 0, (cmd, err)
            assert ref_out.splitlines() == cs_out.splitlines()[:-1], (cmd, q, n)


def test_poly_file_operand(tmp_path, capsys):
    path = tmp_path / "f.poly"
    path.write_text("97;1,2,0,1\n")
    code, out, _ = run_cli(capsys, "divrem", "--algo", "cs", "--f", f"@{path}", "--g", "1,1")
    assert code == 0
    assert out.splitlines()[0] == "q: 97;3,96,1"

    bad = tmp_path / "bad.poly"
    bad.write_text("101;1,2\n")
    code, _, err = run_cli(capsys, "divrem", "--algo", "cs", "--f", f"@{bad}", "--g", "1,1")
    assert code == 2


def test_bench_row_counts(capsys):
    code, out, _ = run_cli(capsys, "bench", "--ops", "cumulative-karatsuba,karatsuba-ref", "--sizes", "16,32")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("op,n,wall_time")
    assert len(rows) == 1 + 4  # header + 2 ops x 2 sizes

    code, out, _ = run_cli(capsys, "bench", "--ops", "strassen-cs", "--sizes", "4,8,16")
    rows = out.strip().splitlines()
    products = [int(r.split(",")[-1]) for r in rows[1:]]
    assert products == [7 ** 2, 7 ** 3, 7 ** 4]

    code, out, _ = run_cli(capsys, "bench", "--ops", "cumulative-karatsuba", "--sizes", "")
    rows = out.strip().splitlines()
    assert len(rows) == 1  # header only


def test_bench_resolves_every_entry(capsys):
    # every table entry by its hyphenated name, plus the two aliases; the
    # inputs are the entry's generator's (distinct points for interp-cs),
    # and the CPU time follows the wall time
    names = ["cumulative-fft", "lower-cs"] + [name.replace("_", "-") for name in ops.SPECS]
    code, out, err = run_cli(capsys, "bench", "--q", "469762049", "--ops", ",".join(names), "--sizes", "4")
    assert code == 0, err
    rows = [row.split(",") for row in out.strip().splitlines()]
    assert rows[0] == ["op", "n", "wall_time", "cpu_time", "extra_algebraic", "pointer_depth", "base_products"]
    assert [row[0] for row in rows[1:]] == names
    assert all(float(row[2]) >= 0 and float(row[3]) >= 0 for row in rows[1:])
    code, out, _ = run_cli(capsys, "bench", "--q", "469762049", "--ops", "interp-cs,mp-eval-cs", "--sizes", "200")
    assert code == 0 and len(out.strip().splitlines()) == 3
    for bad in ("interp_cs", "no-such-op"):
        code, _, err = run_cli(capsys, "bench", "--ops", bad, "--sizes", "4")
        assert code == 2 and "unknown bench op" in err
    # 97 holds no 200 distinct nonzero points: a usage error, not a traceback
    code, _, err = run_cli(capsys, "bench", "--q", "97", "--ops", "interp-cs", "--sizes", "200")
    assert code == 2 and "interp-cs" in err


def test_seed_belongs_to_bench(monkeypatch, capsys):
    # only bench draws inputs, so only bench takes --seed
    code, _, _ = run_cli(capsys, "mul", "--seed", "3", "--algo", "cumulative-karatsuba", "--f", "1,2", "--g", "3,4")
    assert code == 2

    drawn = []
    sample = ops.sample
    monkeypatch.setattr(ops, "sample", lambda *a: drawn.append(sample(*a)) or drawn[-1])

    def bench(seed):
        drawn.clear()
        code, out, _ = run_cli(capsys, "bench", "--ops", "cumulative-karatsuba,lower-cs", "--sizes", "5,40", "--seed", seed)
        assert code == 0
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        return [row[:2] + row[4:] for row in rows], list(drawn)

    rows, inputs = bench("3")
    assert len(rows) == 4
    assert bench("3") == (rows, inputs)
    assert bench("4")[1] != inputs


def test_more_ops_smoke(capsys):
    cases = [
        ("lower", "--algo", "cs", "--f", "3,5,2", "--g", "4,1,0"),
        ("lower", "--algo", "cumulative", "--f", "1,2", "--g", "3,4", "--h", "1,1"),
        ("lower", "--algo", "inplace", "--f", "1,1,0,0", "--g", "1,1,0,0"),
        ("middle", "--algo", "cs", "--f", "3,5,2", "--g", "4,1"),
        ("inv", "--algo", "cs", "--f", "1,1,0,0"),
        ("div", "--algo", "cs", "--f", "1,0,0,0", "--g", "1,1,0,0"),
        ("div", "--algo", "inplace", "--f", "1,0,0,0", "--g", "1,1,0,0"),
        ("remainder", "--algo", "rwrw", "--f", "1,2,0,1", "--g", "1,1"),
        ("remainder", "--algo", "smallspace", "--f", "1,2,0,1,7,8,9", "--g", "5,1,1", "--scratch", "1"),
        ("conv", "--f", "1,2", "--g", "3,4", "--lambda", "1"),
        ("slice", "--f", "3,5,2", "--g", "4,1", "--h", "0,0", "--s", "1"),
        ("modmul", "--f", "0,1", "--g", "0,1", "--p", "1,0,1"),
        ("eval", "--algo", "cs", "--f", "1,1", "--points", "0,1,2"),
        ("interp", "--algo", "cs", "--points", "1,2", "--values", "2,3"),
        ("strassen", "--x", "1,0;0,1", "--y", "5,6;7,8"),
        ("emit", "--strassen"),
        ("emit", "--karatsuba2-2d"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.strip()
