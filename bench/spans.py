"""Timing spans around calls into ratexact's layers, for the traced run.

Tracer.install() wraps the public functions of each layer and rebinds the
wrapper at every ratexact module that holds the name, because
`from .residues import partial_fractions` and the like bind the name
locally.  Methods are wrapped on their class.  uninstall() restores every
binding, so untraced passes run the unmodified program.

A span is opened when a call enters a layer from outside it; calls made
inside an open span of the same layer belong to that span.  Spans are
kept in memory as (operation, layer, parent span, start, end) and
written out by dump().  A layer's self time is its spans' time minus the
time of their child spans.
"""

import json
import sys
import time

# layer -> (module, public names).  "Class.method" wraps a method.
LAYERS = {
    "cli.corpus_line": ("ratexact.cli", ["run_corpus_line"]),
    "parsing.parse": ("ratexact.parsing", ["parse_ratfunc"]),
    "deciders.decide": ("ratexact.deciders", ["decide_exact"]),
    "deciders.verify": ("ratexact.deciders", ["verify_certificate"]),
    "deciders.oracle": ("ratexact.deciders", ["brute_force_exact"]),
    "reductions.reduced_form": ("ratexact.reductions",
                                ["phi_dy_reduced_form",
                                 "tau_sigma_reduced_form"]),
    "reductions.hermite": ("ratexact.reductions", ["hermite_reduce_y"]),
    "reductions.abramov": ("ratexact.reductions", ["abramov_reduce_y"]),
    "reductions.collapse": ("ratexact.reductions", ["orbit_collapse"]),
    "reductions.trace": ("ratexact.reductions",
                         ["trace_xm", "tau_reduced_root_of_unity"]),
    "summation.summable": ("ratexact.summation",
                           ["abramov_summable_x", "q_summable_x"]),
    "residues.pfd": ("ratexact.residues",
                     ["partial_fractions", "sigma_decomposition",
                      "residue_dy", "residue_sigma"]),
    "orbits.equiv": ("ratexact.orbits",
                     ["shift_equivalent", "sigma_equivalent",
                      "q_equivalent", "joint_equivalent"]),
    "factorization.factor": ("ratexact.factorization", ["factor"]),
    "printing.canonical_str": ("ratexact.printing", ["canonical_str"]),
    "core.shift": ("ratexact.core",
                   ["RatFunc.shift_x", "RatFunc.shift_y", "RatFunc.qshift_x",
                    "RatFunc.deriv_y", "BiPoly.shift", "BiPoly.qshift_x"]),
    "core.arith": ("ratexact.core",
                   ["RatFunc." + m for m in (
                       "__init__", "from_ring", "from_pair", "from_y",
                       "__add__", "__radd__", "__sub__", "__rsub__",
                       "__neg__", "__mul__", "__rmul__", "__truediv__",
                       "__rtruediv__", "__pow__", "__eq__")]
                   + ["BiPoly." + m for m in (
                       "__init__", "__add__", "__radd__", "__sub__",
                       "__neg__", "__mul__", "__rmul__", "__pow__",
                       "__eq__")]),
}

# layers whose calls count a hit when they return something other than None
HIT_LAYERS = ("orbits.equiv",)


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.spans = []      # (op, layer index, parent index, start, end, hit)
        self.op = -1         # index of the operation being traced
        self._stack = []     # (layer index, span index) of open spans
        self._undo = []

    def _wrap(self, layer, fn):
        li = self.layers.index(layer)
        hits = layer in HIT_LAYERS
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == li:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((li, idx))
            t0 = clock()
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (self.op, li, parent, t0, t1,
                              hits and res is not None)

        return traced

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "ratexact" or n.startswith("ratexact.")]
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules[modname]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(layer, orig.__func__))
                    else:
                        new = self._wrap(layer, orig)
                    setattr(cls, meth, new)
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, name)
                new = self._wrap(layer, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, new)
                            self._undo.append((m, attr, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def totals(self):
        """{layer: [calls, hits, self seconds]} over all spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: [0, 0, 0.0] for layer in self.layers}
        for i, (_, li, _, t0, t1, hit) in enumerate(self.spans):
            acc = out[self.layers[li]]
            acc[0] += 1
            acc[1] += hit
            acc[2] += (t1 - t0) - child[i]
        return out

    def dump(self, path):
        """Write the spans as JSON: times in microseconds from the first
        span's start."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"layers": self.layers,
                       "fields": ["op", "layer", "parent", "start_us",
                                  "end_us", "hit"],
                       "spans": [[op, li, parent, round((t0 - base) * 1e6),
                                  round((t1 - base) * 1e6), int(hit)]
                                 for op, li, parent, t0, t1, hit
                                 in self.spans]},
                      fh, separators=(",", ":"))
