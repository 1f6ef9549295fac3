"""polyarena benchmark: what constant space costs in time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/` and nowhere else.  One process, one thread, one closed-loop
caller: each call starts after the previous one returns.

Set-up (import, rings and roots, input generation from the seed, a warm-up
pass at tiny sizes) is done SETUP_REPS times; `setup_s` is its median.
Then passes over the workload's calls repeat for S seconds.  A call's timed
part is arena build plus the library call; the correctness gate runs
outside it.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 untraced and traced passes alternate and the per-layer metrics
are printed.  Human-readable lines (medians with sample counts and
quartiles) come first; the last line is one JSON object.  The exit code is
0 only when every call passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACE_PAIRS = 2  # (untraced, traced) pass pairs in a --trace 1 run
MODULES = ("coeff_ring", "reg_arena", "dense_ref", "cs_rorw", "cs_rwrw", "bilinear_inplace")

END_TO_END = {
    "cs_pass_s": "s",
    "ref_pass_s": "s",
    "space_cost_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: name -> unit.  A workload that makes no call of a
# layer or op reports 0 for it.
PER_LAYER = {
    "coeff_ring.calls": "count",
    "coeff_ring.s": "s",
    "reg_arena.build_s": "s",
    "reg_arena.region_calls": "count",
    "reg_arena.region_elems": "count",
    "reg_arena.region_s": "s",
    "reg_arena.view_calls": "count",
    "reg_arena.scalar_calls": "count",
    "reg_arena.pointer_depth_max": "count",
    "reg_arena.scratch_regs_max": "registers",
    "reg_arena.self_s": "s",
    "dense_ref.ntt_calls": "count",
    "dense_ref.ntt_points": "count",
    "dense_ref.ntt_s": "s",
    "dense_ref.ntt_points_vs_ref": "ratio",
    "dense_ref.mulkit_calls": "count",
    "dense_ref.mulkit_s": "s",
    "dense_ref.ref_s": "s",
    "dense_ref.base_products": "count",
    "dense_ref.self_s": "s",
    "cs_rorw.self_s": "s",
    "cs_rwrw.self_s": "s",
    "cs_rwrw.partial_ft_calls": "count",
    "bilinear_inplace.strassen_cs_s": "s",
    "bilinear_inplace.self_s": "s",
    "bilinear_inplace.base_products": "count",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
}
# per op and size, from the untraced passes of the traced run
PER_OP = {
    "cs_rwrw.cumulative_fft_mul_16384": True,
    "cs_rwrw.cumulative_fft_mul_12289": True,
    "cs_rwrw.cumulative_karatsuba_4096": True,
    "cs_rwrw.inplace_divrem_4095": True,
    "cs_rwrw.modular_mul_1024": False,
    "bilinear_inplace.strassen_cs_64": False,
    "cs_rorw.semi_cumulative_product_2048": False,
    "cs_rorw.series_inv_cs_2048": True,
    "cs_rorw.divrem_cs_2048": True,
    "cs_rorw.remainder_smallspace_2048": False,
    "cs_rorw.mp_eval_cs_256": True,
    "cs_rorw.interp_cs_256": True,
}  # stem -> has a paired reference (so a _vs_ref metric)
for _stem, _paired in PER_OP.items():
    PER_LAYER[f"{_stem}_s"] = "s"
    if _paired:
        PER_LAYER[f"{_stem}_vs_ref"] = "ratio"


# Machine-speed calibration.  The machine is shared and its speed drifts by
# 15 % and more over seconds to minutes, which moves an op and its reference
# alike.  A fixed pure-Python kernel, written to look like the library's work
# (modular arithmetic in list comprehensions, a list-based Karatsuba with
# slicing and recursion, small __slots__ objects made by method calls), is
# timed around the calls.  Untraced call times and set-up times are reported
# in calibrated seconds: raw seconds * CAL_NOMINAL_S / kernel seconds, with
# the kernel timed on both sides of the call (or of a run of short calls
# lasting CAL_EVERY_S).  The raw wall times are printed beside them.
CAL_NOMINAL_S = 0.012
CAL_EVERY_S = 0.25
_CAL_Q = 469762049


class _CalView:
    __slots__ = ("off", "n")

    def __init__(self, off, n):
        self.off = off
        self.n = n

    def sub(self, a):
        return _CalView(self.off + a, self.n - a)


def _cal_kara(f, g):
    n = len(f)
    if n <= 8:
        out = [0] * (2 * n - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % _CAL_Q
        return out
    m = n // 2
    lo, hi = _cal_kara(f[:m], g[:m]), _cal_kara(f[m:], g[m:])
    mid = _cal_kara([(a + b) % _CAL_Q for a, b in zip(f[:m], f[m:])], [(a + b) % _CAL_Q for a, b in zip(g[:m], g[m:])])
    out = [0] * (2 * n - 1)
    for i, v in enumerate(lo):
        out[i] += v
        out[m + i] -= v
    for i, v in enumerate(hi):
        out[2 * m + i] += v
        out[m + i] -= v
    for i, v in enumerate(mid):
        out[m + i] += v
    return [x % _CAL_Q for x in out]


def calibrate() -> float:
    """Seconds the calibration kernel takes now (about 12 ms here)."""
    t0 = time.perf_counter()
    xs = list(range(1, 2049))
    for _ in range(12):
        xs = [(a * 40503 + 7) % _CAL_Q for a in xs]
    _cal_kara(xs[:256], xs[256:512])
    v = _CalView(0, 4000)
    for _ in range(3000):
        v = v.sub(1)
    return time.perf_counter() - t0


def load_library():
    """Import polyarena afresh from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "polyarena" / "__init__.py").is_file():
        raise SystemExit(f"polyarena sources not found under {src}")
    for name in [m for m in sys.modules if m == "polyarena" or m.startswith("polyarena.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pa = importlib.import_module("polyarena")
    if Path(pa.__file__).resolve().parent != (src / "polyarena").resolve():
        raise SystemExit(f"polyarena imported from {pa.__file__}, not from {src}")
    return SimpleNamespace(pa=pa, **{m: importlib.import_module(f"polyarena.{m}") for m in MODULES})


class Ledger:
    """Attempted and failed calls, plus the determinism self-checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, msg):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)


def run_call(lib, call, ledger, tr=None):
    """Time one call; check it outside the timed part.  Returns (seconds,
    arena metrics or None)."""
    ledger.attempted += 1
    arena = result = None
    raised = None
    if tr is not None:
        tr.on = True
        i = tr.root(call.role)
    t0 = time.perf_counter()
    try:
        arena, result = cases.timed_run(lib, call, tr)
    except Exception:  # a failing call is counted, the run goes on
        raised = traceback.format_exc()
    t1 = time.perf_counter()
    if tr is not None:
        tr.close(i)
        tr.on = False
    if raised is not None:
        ledger.fail(f"{call.name} raised:\n{raised}")
        return t1 - t0, None
    if not cases.check(call, arena, result):
        ledger.fail(f"{call.name} failed its oracle, restoration or product-count check")
    if arena is None:
        return t1 - t0, None
    m = arena.metrics
    return t1 - t0, (m.extra_algebraic_highwater, m.pointer_depth_highwater, m.base_products)


def setup(workload, seed, ledger):
    """Import, rings and roots, inputs from the seed, warm-up at tiny sizes."""
    build = cases.WORKLOADS[workload]
    times, prints = [], set()
    lib = calls = None
    for _ in range(SETUP_REPS):
        lib = calls = None
        gc.collect()
        cal = calibrate()
        t0 = time.perf_counter()
        lib = load_library()
        rng = random.Random(f"{workload}/{seed}")
        calls = build(lib, rng)
        prints.add(cases.fingerprint(calls, rng))
        for call in build(lib, random.Random(f"{workload}/{seed}/warm-up"), small=True):
            run_call(lib, call, ledger)
        raw = time.perf_counter() - t0
        times.append(raw * CAL_NOMINAL_S * 2 / (cal + calibrate()))
    if len(prints) != 1:
        ledger.fail("the same seed generated different inputs")
    return lib, calls, times


class Passes:
    """Per-call durations (calibrated, see calibrate) and arena metrics over
    repeated untraced passes."""

    def __init__(self, calls):
        self.calls = calls
        self.durations: list[list[float]] = []
        self.raw_totals: list[float] = []
        self.first_metrics = None

    def run(self, lib, ledger, tr=None):
        """One pass; returns its calibrated time (sum over its calls).
        The kernel runs between calls, outside every span."""
        gc.collect()
        durs, mets, scaled = [], [], []
        seg_start, cal = 0, calibrate()
        for call in self.calls:
            d, m = run_call(lib, call, ledger, tr)
            durs.append(d)
            mets.append(m)
            if sum(durs[seg_start:]) >= CAL_EVERY_S or len(durs) == len(self.calls):
                after = calibrate()
                scaled += [x * CAL_NOMINAL_S * 2 / (cal + after) for x in durs[seg_start:]]
                seg_start, cal = len(durs), after
        if self.first_metrics is None:
            self.first_metrics = mets
        elif mets != self.first_metrics:
            ledger.fail("arena counts differ between passes over the same inputs")
        if tr is None:
            self.durations.append(scaled)
            self.raw_totals.append(sum(durs))
        return sum(scaled)

    def role_pass(self, role):
        """Pass time of one role: the sum over its calls of each call's
        median (robust to a slow moment that hits one call of one pass),
        and the raw per-pass sums."""
        idx = [i for i, c in enumerate(self.calls) if c.role == role]
        medians = sum(statistics.median(d[i] for d in self.durations) for i in idx)
        return medians, [sum(d[i] for i in idx) for d in self.durations]

    def pair_ratios(self):
        """pair -> median over passes of op time / reference time, both
        summed over the pair's calls.  The op and its reference run back to
        back in every pass, so a slow stretch of the machine hits both."""
        out = {}
        for key in dict.fromkeys(c.pair for c in self.calls if c.pair):
            ops = [i for i, c in enumerate(self.calls) if c.pair == key and c.role == "op"]
            refs = [i for i, c in enumerate(self.calls) if c.pair == key and c.role == "ref"]
            out[key] = statistics.median(sum(d[i] for i in ops) / sum(d[i] for i in refs) for d in self.durations)
        return out

    def op_metrics(self):
        """Max scratch registers and pointer depth over the space-efficient calls."""
        mets = [m for c, m in zip(self.calls, self.first_metrics) if c.role == "op" and m is not None]
        return max((m[0] for m in mets), default=0), max((m[1] for m in mets), default=0)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def describe(name, unit, xs):
    lo, hi = quartiles(xs)
    return f"{name} = {statistics.median(xs):.6g} {unit} (median of {len(xs)}; quartiles {lo:.6g} .. {hi:.6g})"


def end_to_end(passes, setup_times, ledger):
    (op_s, ops), (ref_s, refs) = passes.role_pass("op"), passes.role_pass("ref")
    ratios = passes.pair_ratios()
    scratch, depth = passes.op_metrics()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "cs_pass_s": op_s,
        "ref_pass_s": ref_s,
        "space_cost_ratio": cases.geomean(ratios.values()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    print(f"cs_pass_s = {op_s:.6g} s (calibrated; sum of per-call medians); {describe('pass', 's', ops)}")
    print(f"ref_pass_s = {ref_s:.6g} s (calibrated; sum of per-call medians); {describe('pass', 's', refs)}")
    print(describe("raw wall time of a pass (ops + refs)", "s", passes.raw_totals))
    print(f"space_cost_ratio = {values['space_cost_ratio']:.6g} ratio (geometric mean over {len(ratios)} pairs)")
    for key, r in ratios.items():
        print(f"  pair {key}: op / ref = {r:.4g}")
    print(describe("setup_s", "s", setup_times))
    print(f"peak_rss_mb = {rss_mb:.6g} MB")
    print(f"scratch_regs_max = {scratch} registers (exact); pointer_depth_max = {depth}")
    print(f"fail_frac = {ledger.failed / max(1, ledger.attempted):.6g} ratio ({ledger.failed} of {ledger.attempted} calls)")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(passes, summaries, traced_cal, untraced_cal, ledger):
    """Per-layer figures: medians over the traced passes (raw seconds), and
    the per-op figures of the untraced passes (calibrated seconds).  The
    tracing overhead compares calibrated pass times of adjacent passes."""
    tr_pass_totals = [s["trace.pass_s"] for s in summaries]
    med = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    for s in summaries[1:]:
        for k, v in s.items():
            if not k.endswith("_s") and v != summaries[0][k]:
                ledger.fail(f"trace count {k} differs between passes over the same inputs")
    scratch, depth = passes.op_metrics()
    pts_ref = med["ntt_points_ref"]
    values = {
        "coeff_ring.calls": med["coeff_ring.calls"],
        "coeff_ring.s": med["coeff_ring.self_s"],
        "reg_arena.build_s": med["cat.build_s"],
        "reg_arena.region_calls": med["cat.region_calls"],
        "reg_arena.region_elems": med["region_elems"],
        "reg_arena.region_s": med["cat.region_s"],
        "reg_arena.view_calls": med["view_calls"],
        "reg_arena.scalar_calls": med["scalar_calls"],
        "reg_arena.pointer_depth_max": depth,
        "reg_arena.scratch_regs_max": scratch,
        "reg_arena.self_s": med["reg_arena.self_s"],
        "dense_ref.ntt_calls": med["cat.ntt_calls"],
        "dense_ref.ntt_points": med["ntt_points_op"] + pts_ref,
        "dense_ref.ntt_s": med["cat.ntt_s"],
        "dense_ref.ntt_points_vs_ref": med["ntt_points_op"] / pts_ref if pts_ref else 0,
        "dense_ref.mulkit_calls": med["cat.mulkit_calls"],
        "dense_ref.mulkit_s": med["cat.mulkit_s"],
        "dense_ref.ref_s": med["cat.ref_s"],
        "dense_ref.base_products": med["dense_ref.base_products"],
        "dense_ref.self_s": med["dense_ref.self_s"],
        "cs_rorw.self_s": med["cs_rorw.self_s"],
        "cs_rwrw.self_s": med["cs_rwrw.self_s"],
        "cs_rwrw.partial_ft_calls": med["cat.partial_ft_calls"],
        "bilinear_inplace.strassen_cs_s": med["cat.strassen_s"],
        "bilinear_inplace.self_s": med["bilinear_inplace.self_s"],
        "bilinear_inplace.base_products": med["bilinear_inplace.base_products"],
        "bench.self_s": med["bench.self_s"],
        "trace.pass_s": statistics.median(tr_pass_totals),
        "trace.overhead_frac": statistics.median(t / u for t, u in zip(traced_cal, untraced_cal)) - 1,
    }
    ratios = passes.pair_ratios()
    by_stem = {c.metric: (i, c) for i, c in enumerate(passes.calls) if c.metric}
    for stem, paired in PER_OP.items():
        hit = by_stem.get(stem)
        values[f"{stem}_s"] = statistics.median(d[hit[0]] for d in passes.durations) if hit else 0
        if paired:
            values[f"{stem}_vs_ref"] = ratios[hit[1].pair] if hit else 0
    gap = max(abs(sum(s[f"{lay}.self_s"] for lay in tracing.LAYERS) - s["trace.pass_s"]) for s in summaries)
    print(describe("trace.pass_s", "s", tr_pass_totals))
    print(describe("calibrated traced pass", "s", traced_cal))
    print(describe("calibrated untraced pass", "s", untraced_cal))
    print(f"in every traced pass the layer self times sum to the pass time within {gap:.3g} s")
    for k, v in values.items():
        print(f"{k} = {v:.6g} {PER_LAYER[k]}")
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ledger = Ledger()
    lib, calls, setup_times = setup(args.workload, args.seed, ledger)
    passes = Passes(calls)
    start = time.perf_counter()
    left = lambda: args.seconds - (time.perf_counter() - start)  # noqa: E731

    def untraced_pass():
        stray = tracing.installed(lib)
        if stray:
            raise AssertionError(f"tracer wrappers present in an untraced pass: {stray}")
        return passes.run(lib, ledger)

    est = 0.0
    if not args.trace:
        while len(passes.durations) < MIN_PASSES or left() > est:
            t0 = time.perf_counter()
            untraced_pass()
            est = time.perf_counter() - t0
        metrics = end_to_end(passes, setup_times, ledger)
    else:
        tr = tracing.Tracer(lib)
        untraced, traced, summaries = [], [], []
        while len(summaries) < MIN_TRACE_PAIRS or left() > est:
            t0 = time.perf_counter()
            untraced.append(untraced_pass())
            tr.reset()
            tr.install()
            try:
                traced.append(passes.run(lib, ledger, tr))
            finally:
                tr.uninstall()
            summaries.append(tr.summary())
            est = time.perf_counter() - t0
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tr.dump(out / f"spans-{args.workload}-{args.seed}.json")
        metrics = per_layer(passes, summaries, traced, untraced, ledger)
    for p in ledger.problems:
        print(f"FAILED: {p}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
