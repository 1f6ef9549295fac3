"""Per-layer tracing of polyarena, wrapped from outside.

The layers are the library's modules.  `install` rebinds each public
function in every polyarena module that holds it (so `cs_rwrw.ntt`,
`cs_rorw.vadd`, `dense_ref.vcopy`, ... all go through the wrapper), and
patches the public methods of Zq, Arena, PolyView and MulKit on the class.
`uninstall` puts every original back.

Spans (name, start, end, parent) are kept in flat lists in memory.  The
scalar paths (PolyView.get/set, Arena.read/write) and the view
constructors run millions of times, so they are only counted.  While
`on` is false every wrapper forwards at once: the correctness gate runs
with tracing paused.
"""

from __future__ import annotations

import json
import time

LAYERS = ("bench", "coeff_ring", "reg_arena", "dense_ref", "cs_rorw", "cs_rwrw", "bilinear_inplace")
MARK = "__perfbench_wrapped__"

# span categories whose outermost spans give an inclusive time
CATS = ("ntt", "mulkit", "ref", "build", "region", "strassen", "partial_ft")
REGION_OPS = ("vadd", "vcopy", "vzero", "vscale", "vneg")
ORACLES = ("schoolbook_mul", "horner_eval", "bit_reverse", "partial_product", "series_inv", "divrem",
           "mp_eval_tree", "interp_tree", "karatsuba_mul")


def _region_elems(name, args, kw):
    """Elements a region op touches, by the same rule the op uses."""
    dst = args[0]
    if name == "vadd":
        src = args[1]
        length = args[3] if len(args) > 3 else kw.get("length")
        n = min(dst.L, src.L) if length is None else min(dst.L, src.L, length)
        return max(0, min(n, src.rhi) - max(0, src.rlo))
    if name == "vcopy":
        length = args[2] if len(args) > 2 else kw.get("length")
        return min(dst.L, args[1].L) if length is None else length
    if name == "vzero":
        length = args[1] if len(args) > 1 else kw.get("length")
        return max(0, dst.L if length is None else min(length, dst.L))
    return max(0, dst.rhi - dst.rlo)


class _NoMetrics:
    base_products = 0


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.on = False
        self.names: list[str] = []
        self.layer: list[int] = []
        self.cat: list[int] = []  # bit mask of CATS, per name id
        self._ids: dict[str, int] = {}
        self.metrics = _NoMetrics()
        self.role = "op"
        self._undo = []
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.nm, self.par, self.t0, self.t1, self.bp0, self.bp1 = [], [], [], [], [], []
        self.stack = [-1]
        self.counts = {"scalar_calls": 0, "view_calls": 0, "region_elems": 0, "ntt_points_op": 0, "ntt_points_ref": 0}

    def name_id(self, name, layer, cats=()):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(LAYERS.index(layer))
            mask = 0
            for c in cats:
                mask |= 1 << CATS.index(c)
            self.cat.append(mask)
        return i

    def open(self, nid):
        i = len(self.nm)
        self.nm.append(nid)
        self.par.append(self.stack[-1])
        self.stack.append(i)
        self.bp0.append(self.metrics.base_products)
        self.bp1.append(0)
        self.t1.append(0.0)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i):
        self.t1[i] = time.perf_counter()
        self.bp1[i] = self.metrics.base_products
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, nid, extra=None):
        tr = self

        def wrapper(*args, **kw):
            if not tr.on:
                return fn(*args, **kw)
            if extra is not None:
                extra(args, kw)
            i = tr.open(nid)
            try:
                return fn(*args, **kw)
            finally:
                tr.close(i)

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _count(self, fn, key):
        tr = self

        def wrapper(*args, **kw):
            if tr.on:
                tr.counts[key] += 1
            return fn(*args, **kw)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrapper_for(self, module, name, fn):
        short = module.split(".")[-1]
        full = f"{short}.{name}"
        if short == "reg_arena" and name in REGION_OPS:
            tr = self

            def elems(args, kw, name=name):
                tr.counts["region_elems"] += _region_elems(name, args, kw)

            return self._span(fn, self.name_id(full, short, ("region",)), elems)
        if short == "reg_arena" and name == "build_arena":
            return self._span(fn, self.name_id(full, short, ("build",)))
        if short == "reg_arena" and name == "make_view":
            return self._count(fn, "view_calls")
        if short == "dense_ref" and name == "ntt":
            tr = self

            def points(args, kw):
                tr.counts["ntt_points_" + tr.role] += len(args[0])

            return self._span(fn, self.name_id(full, short, ("ntt",)), points)
        if short == "dense_ref" and name in ORACLES:
            return self._span(fn, self.name_id(full, short, ("ref",)))
        if short == "cs_rwrw" and name == "partial_ft":
            return self._span(fn, self.name_id(full, short, ("partial_ft",)))
        if short == "bilinear_inplace" and name == "strassen_cs":
            return self._span(fn, self.name_id(full, short, ("strassen",)))
        return self._span(fn, self.name_id(full, short))

    def install(self):
        lib = self.lib
        mods = [lib.pa] + [getattr(lib, m) for m in LAYERS[1:]]
        originals = {}  # id(original) -> wrapper
        for m in LAYERS[1:]:
            mod = getattr(lib, m)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrapper_for(mod.__name__, name, obj))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        cr, ra, dr = lib.coeff_ring, lib.reg_arena, lib.dense_ref
        for cls, names, layer, cats in (
            (cr.Zq, ("find_principal_root", "root_for_length", "generator", "inv"), "coeff_ring", ()),
            (ra.Arena, ("__init__",), "reg_arena", ("build",)),
            (dr.MulKit, ("full_into", "low_acc", "mid_acc", "mid_unbalanced_acc", "slice_acc"), "dense_ref", ("mulkit",)),
        ):
            for name in names:
                fn = cls.__dict__[name]
                self._undo.append((cls, name, fn))
                setattr(cls, name, self._span(fn, self.name_id(f"{layer}.{cls.__name__}.{name}", layer, cats)))
        for cls, names, key in (
            (ra.PolyView, ("get", "set"), "scalar_calls"),
            (ra.Arena, ("read", "write"), "scalar_calls"),
            (ra.PolyView, ("sub", "window", "rev", "padded"), "view_calls"),
            (ra.Arena, ("view",), "view_calls"),
        ):
            for name in names:
                fn = cls.__dict__[name]
                self._undo.append((cls, name, fn))
                setattr(cls, name, self._count(fn, key))

    def uninstall(self):
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo.clear()

    # -- one timed call -------------------------------------------------------

    def root(self, role):
        """Open the root span of one timed call.  The benchmark's glue (and
        the scratch-NTT comparator's pointwise product) is layer `bench`."""
        self.role = role
        self.metrics = _NoMetrics()
        return self.open(self.name_id(f"bench.call_{role}", "bench"))

    # -- aggregation ----------------------------------------------------------

    def summary(self):
        """Per-layer figures of the spans recorded since reset()."""
        nm, par, t0, t1, bp0, bp1 = self.nm, self.par, self.t0, self.t1, self.bp0, self.bp1
        n = len(nm)
        dur = [t1[i] - t0[i] for i in range(n)]
        bp = [bp1[i] - bp0[i] for i in range(n)]
        child = [0.0] * n
        child_bp = [0] * n
        anc = [0] * n  # categories held by some ancestor
        for i in range(n):
            p = par[i]
            if p >= 0:
                child[p] += dur[i]
                child_bp[p] += bp[i]
                anc[i] = anc[p] | self.cat[nm[p]]
        layer_self = [0.0] * len(LAYERS)
        layer_bp = [0] * len(LAYERS)
        layer_calls = [0] * len(LAYERS)
        cat_s = [0.0] * len(CATS)
        cat_calls = [0] * len(CATS)
        pass_s = 0.0
        for i in range(n):
            nid = nm[i]
            lay = self.layer[nid]
            layer_self[lay] += dur[i] - child[i]
            layer_bp[lay] += bp[i] - child_bp[i]
            layer_calls[lay] += 1
            if par[i] < 0:
                pass_s += dur[i]
            mask = self.cat[nid]
            for c in range(len(CATS)):
                if mask >> c & 1:
                    cat_calls[c] += 1
                    if not anc[i] >> c & 1:
                        cat_s[c] += dur[i]
        out = {"trace.pass_s": pass_s}
        for lay, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = layer_self[lay]
            out[f"{name}.base_products"] = layer_bp[lay]
            out[f"{name}.calls"] = layer_calls[lay]
        for c, name in enumerate(CATS):
            out[f"cat.{name}_s"] = cat_s[c]
            out[f"cat.{name}_calls"] = cat_calls[c]
        out.update(self.counts)
        return out

    def dump(self, path):
        """Write the spans recorded since reset() (times relative to the
        first span)."""
        base = self.t0[0] if self.t0 else 0.0
        spans = [
            [self.nm[i], self.par[i], round(self.t0[i] - base, 7), round(self.t1[i] - base, 7)]
            for i in range(len(self.nm))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "layers": [LAYERS[x] for x in self.layer],
                       "fields": ["name", "parent", "start_s", "end_s"], "spans": spans}, fh)


def installed(lib) -> list[str]:
    """Names of library objects that are tracer wrappers (empty when clean)."""
    found = []
    for m in ("pa",) + LAYERS[1:]:
        mod = getattr(lib, m)
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(obj, type):
                found += [f"{mod.__name__}.{name}.{k}" for k, v in vars(obj).items() if hasattr(v, MARK)]
    return found
