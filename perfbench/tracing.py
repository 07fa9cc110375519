"""Layer tracing of qclifford, installed from outside the library.

`install` replaces the layer-boundary functions of every qclifford module
with wrappers that record one span per call: its name, start, end and the
span that was open when it started.  Module functions are replaced in
every qclifford namespace that binds them, so a function imported by name
into another module is traced where that module calls it.  For QScalar,
Multivector and CliffordPoly the arithmetic dunders and ``__init__`` are
wrapped on the class.  The library's own code is never edited.

Spans live in memory in flat arrays and are written out by `Tracer.dump`
when the traced process ends.  `Tracer.summary` turns them into calls, total
seconds and self seconds per span name; a span's self time is its duration
minus the time covered by its direct child spans.  `layer_metrics` maps a
summary to the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__pow__")

#: module -> wrapped attributes; "Class.attr" wraps an attribute of a class
BOUNDARIES = {
    "_polyarith": ("mul", "divexact", "gcd"),
    "_linalg": ("invert_ff", "rank_ff"),
    "qfield": ("q_bracket", "q_factorial", "q_binomial", "QScalar.__init__",
               "QScalar.__eq__") + tuple("QScalar." + op for op in _SCALAR_OPS),
    "clifford": ("geometric_product", "conjugate", "scalar_part")
    + tuple("Multivector." + op for op in ("__init__", "__add__", "__sub__", "__neg__",
                                           "__mul__", "__rmul__", "__eq__")),
    "cpoly": ("vector_variable", "norm_squared", "homogeneous_part", "q_shift",
              "evaluate_poly")
    + tuple("CliffordPoly." + op for op in ("__init__", "__add__", "__sub__", "__rsub__",
                                            "__neg__", "__mul__", "__rmul__", "__pow__",
                                            "__eq__")),
    "qops": ("q_partial", "q_dirac", "q_euler", "q_gamma", "q_laplace", "is_monogenic",
             "check_relation"),
    "fischer": ("fischer_step", "fischer_full", "monogenic_dimension", "fischer_inner",
                "fischer_inner_operator", "fischer_adjoint_check"),
    "ck": ("ck_extend", "extended_dirac", "restrict_x0"),
    "jackson": ("jackson_derivative", "q_integral", "q_exp"),
    "parser": ("tokenize", "parse", "lower", "parse_poly", "parse_unipoly"),
    "render": ("render_poly", "render_multivector", "render_unipoly"),
    "randpoly": ("random_poly", "random_homogeneous_poly"),
    "cli": ("main",),
}

def _qscalar_init_hook(tracer, args, kwargs):
    # QScalar(num, den): only a non-constant denominator reaches the gcd
    den = args[2] if len(args) > 2 else kwargs.get("den")
    if getattr(den, "degree", 0) > 0:
        tracer.counts["qfield.canon_calls"] = tracer.counts.get("qfield.canon_calls", 0) + 1


def _invert_hook(tracer, args, kwargs):
    n = len(args[0])
    if n > tracer.gauges.get("linalg.invert_max_n", 0):
        tracer.gauges["linalg.invert_max_n"] = n


HOOKS = {
    "qfield.QScalar.__init__": _qscalar_init_hook,
    "_linalg.invert_ff": _invert_hook,
}


class Tracer:
    """In-memory span log plus the counters recorded at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = {}
        self.gauges = {}
        self._undo = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, span_name, hook=None, key=None):
        """A traced version of fn.  With `key`, the span is named
        span_name % key(args), e.g. one name per identity."""
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock, name_id = self.stack, self.clock, self.name_id
        nid = name_id(span_name) if key is None else None
        keyed = {}

        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            if key is None:
                span = nid
            else:
                k = key(args)
                span = keyed.get(k)
                if span is None:
                    span = keyed[k] = name_id(span_name % (k,))
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def install(self):
        """Wrap every boundary in BOUNDARIES; `uninstall` restores them."""
        for short in BOUNDARIES:
            importlib.import_module("qclifford." + short)
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "qclifford" or name.startswith("qclifford."))]
        for short, attrs in BOUNDARIES.items():
            mod = sys.modules["qclifford." + short]
            for attr in attrs:
                span_name = "%s.%s" % (short, attr)
                hook = HOOKS.get(span_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(orig, span_name, hook))
                    continue
                orig = getattr(mod, attr)
                if span_name == "qops.check_relation":
                    resolve = mod.resolve_relation
                    wrapper = self.wrap(orig, "qops.relation.%s", key=lambda a: resolve(a[0]))
                else:
                    wrapper = self.wrap(orig, span_name, hook)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is orig:
                            self._undo.append((other, name, orig))
                            setattr(other, name, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def dump(self, prefix):
        """Write the spans to prefix.bin (arrays name, start, end, parent,
        back to back) and the names and counters to prefix.json."""
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.name),
                       "counts": self.counts, "gauges": self.gauges}, fh)

    @classmethod
    def load(cls, prefix):
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        tracer = cls()
        for name in meta["names"]:
            tracer.name_id(name)
        tracer.counts = meta["counts"]
        tracer.gauges = meta["gauges"]
        n = meta["spans"]
        with open(prefix + ".bin", "rb") as fh:
            for arr in (tracer.name, tracer.start, tracer.end, tracer.parent):
                arr.fromfile(fh, n)
        return tracer

    def summary(self):
        """Per span name [calls, total_s, self_s], the counters, and
        first_step_s: the time of the fischer_step spans that built a solver,
        i.e. that are the parent of an invert_ff span.  A child span always
        has a larger index than its parent, so one pass from the end sees
        every child before its parent."""
        n = len(self.name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        own = [0.0] * k
        covered = array("d", bytes(8 * n))
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            p = parent[i]
            nid = names[i]
            if p >= 0:
                covered[p] += d
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - covered[i]
        ids = {name: i for i, name in enumerate(self.names)}
        invert, step = ids.get("_linalg.invert_ff"), ids.get("fischer.fischer_step")
        builds = {parent[i] for i in range(n) if names[i] == invert and parent[i] >= 0}
        return {
            "spans": {name: [calls[i], total[i], own[i]] for i, name in enumerate(self.names)
                      if calls[i]},
            "first_step_s": sum(end[p] - start[p] for p in builds if names[p] == step),
            "counts": dict(self.counts),
            "gauges": dict(self.gauges),
        }


def merge(summaries):
    """Sum several summaries (one per traced process); gauges take the max."""
    out = {"spans": {}, "first_step_s": 0.0, "counts": {}, "gauges": {}}
    for s in summaries:
        out["first_step_s"] += s["first_step_s"]
        for name, row in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += row[j]
        for name, v in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + v
        for name, v in s["gauges"].items():
            out["gauges"][name] = max(out["gauges"].get(name, 0), v)
    return out


def layer_metrics(summary):
    """The per-layer metrics of BENCHMARK.json from a (merged) summary.
    `<module>.self_s` sums the self time of every span of that module."""
    from qclifford.qops import RELATION_NAMES

    spans = summary["spans"]

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def total(*names):
        return sum(spans[n][1] for n in names if n in spans)

    own = {}
    for name, row in spans.items():
        module = name.split(".", 1)[0]
        own[module] = own.get(module, 0.0) + row[2]

    out = {
        "linalg.invert_calls": calls("_linalg.invert_ff"),
        "linalg.invert_s": total("_linalg.invert_ff"),
        "linalg.invert_max_n": summary["gauges"].get("linalg.invert_max_n", 0),
        "linalg.rank_s": total("_linalg.rank_ff"),
        "polyarith.mul_calls": calls("_polyarith.mul"),
        "polyarith.mul_s": total("_polyarith.mul"),
        "polyarith.divexact_s": total("_polyarith.divexact"),
        "fischer.first_step_s": summary["first_step_s"],
        "polyarith.gcd_calls": calls("_polyarith.gcd"),
        "polyarith.gcd_s": total("_polyarith.gcd"),
        "qfield.canon_calls": summary["counts"].get("qfield.canon_calls", 0),
        "fischer.step_calls": calls("fischer.fischer_step"),
        "fischer.step_s": total("fischer.fischer_step"),
        "fischer.mdim_s": total("fischer.monogenic_dimension"),
        "fischer.self_s": own.get("fischer", 0.0),
        "qfield.scalar_ops": calls(*("qfield.QScalar." + op for op in _SCALAR_OPS)),
        "qfield.self_s": own.get("qfield", 0.0),
        "clifford.mul_calls": calls("clifford.Multivector.__mul__", "clifford.Multivector.__rmul__"),
        "clifford.self_s": own.get("clifford", 0.0),
        "cpoly.mul_calls": calls("cpoly.CliffordPoly.__mul__", "cpoly.CliffordPoly.__rmul__"),
        "cpoly.self_s": own.get("cpoly", 0.0),
        "qops.partial_calls": calls("qops.q_partial"),
        "qops.self_s": own.get("qops", 0.0),
        "parser.parse_calls": calls("parser.tokenize"),
        "parser.self_s": own.get("parser", 0.0),
        "render.self_s": own.get("render", 0.0),
        "ck.extend_s": total("ck.ck_extend"),
        "ck.self_s": own.get("ck", 0.0),
        "jackson.self_s": own.get("jackson", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "randpoly.self_s": own.get("randpoly", 0.0),
    }
    for name in RELATION_NAMES:
        out["qops.relation.%s_s" % name] = total("qops.relation." + name)
    return out
