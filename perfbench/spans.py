"""Span tracing around every public msarr function, installed from outside.

``Tracer.install()`` wraps each public function of the layer modules, and
the listed public methods, and rebinds the wrapper wherever a module of the
package binds the original: the defining module, every module that
imported the name (``sigma.strict_feasibility``, ``nonvgen.rank``, ...) and
the ``msarr`` re-exports.  ``uninstall()`` puts every original back and
reports any binding it could not restore.

A span is (name id, start, end, parent span, op id), held in flat arrays
so that hundreds of thousands of spans stay small; ``write()`` dumps them
when the run ends.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("feasibility", "sigma", "arrangement", "linalg", "msbuild", "nonvgen", "pnk", "matroid")
METHODS = {
    "arrangement": {"CentralArrangement": ("full_lattice", "rank", "flat_of", "flats")},
}

PER_LAYER_METRICS = (
    ("feasibility.strict.calls", "count"),
    ("feasibility.strict.self_s", "s"),
    ("feasibility.strict.rows_mean", "rows"),
    ("feasibility.strict.infeasible_ratio", "ratio"),
    ("feasibility.mixed.calls", "count"),
    ("feasibility.mixed.self_s", "s"),
    ("feasibility.lp_solves", "count"),
    ("sigma.in_sigma_p.calls", "count"),
    ("sigma.in_sigma_p.self_s", "s"),
    ("sigma.consistent_at.calls", "count"),
    ("sigma.consistent_at.miss_ratio", "ratio"),
    ("sigma.find_jump.self_s", "s"),
    ("sigma.find_jump.in_sigma_p_calls", "count"),
    ("sigma.is_simple_chamber.calls", "count"),
    ("sigma.is_simple_chamber.self_s", "s"),
    ("arrangement.full_lattice.self_s", "s"),
    ("arrangement.flats", "count"),
    ("arrangement.chamber_sign_vectors.self_s", "s"),
    ("arrangement.chambers", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.in_span.calls", "count"),
    ("linalg.rank.calls", "count"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.det.calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.max_entry_bits", "bits"),
    ("msbuild.build_ms.self_s", "s"),
    ("msbuild.is_very_generic.self_s", "s"),
    ("msbuild.canonical_presentation.calls", "count"),
    ("msbuild.d_flat.calls", "count"),
    ("nonvgen.witness_rank_r.self_s", "s"),
    ("nonvgen.perturb_to_very_generic.self_s", "s"),
    ("nonvgen.perturb.build_ms_calls", "count"),
    ("nonvgen.perturb.accept_ratio", "ratio"),
    ("nonvgen.jump_after_perturbation.self_s", "s"),
    ("pnk.lattice_isomorphic_to_pnk.self_s", "s"),
    ("matroid.from_arrangement.self_s", "s"),
    ("matroid.is_paving.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _bits(x) -> int:
    parts = (x.a, x.b) if hasattr(x, "b") else (x,)
    return max(max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in parts)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op_id = 0
        self.stack: list[int] = []
        self.paused_depth = 0
        self.strict_rows = 0
        self.strict_infeasible = 0
        self.chambers = 0
        self.flats = 0
        self.max_entry_bits = 0
        self._seen_arrangements = weakref.WeakSet()
        self._bindings: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._id(name)
        tr = self

        def traced(*args, **kwargs):
            if tr.paused_depth:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            stack = tr.stack
            tr.name_of.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op_of.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced.__perfbench_traced__ = True
        return traced

    def _observe_strict(self, args, out):
        self.strict_rows += len(args[0])
        self.strict_infeasible += not out.feasible

    def _observe_chambers(self, args, out):
        self.chambers += len(out)

    def _observe_lattice(self, args, flats):
        # the lattice is built once per arrangement; count each one once
        a = args[0]
        if a in self._seen_arrangements:
            return
        self._seen_arrangements.add(a)
        self.flats += len(flats)
        for f in flats:
            for row in f.normal_space:
                for v in row:
                    b = _bits(v)
                    if b > self.max_entry_bits:
                        self.max_entry_bits = b

    def _targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        observers = {
            "feasibility.strict_feasibility": self._observe_strict,
            "arrangement.chamber_sign_vectors": self._observe_chambers,
            "arrangement.CentralArrangement.full_lattice": self._observe_lattice,
        }
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"msarr.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    out.append((name, mod, attr, fn, observers.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    name = f"{layer}.{cls_name}.{attr}"
                    out.append((name, cls, attr, cls.__dict__[attr], observers.get(name)))
        return out

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "msarr" or n.startswith("msarr.")]
        for name, owner, attr, fn, observe in self._targets():
            wrapper = self._wrap(name, fn, observe)
            if inspect.isclass(owner):
                self._bind(owner, attr, wrapper, fn)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._bind(mod, key, wrapper, fn)

    def _bind(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones still not original."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._bindings
            if getattr(owner, attr) is not original
        ]
        self._bindings = []
        for n, mod in list(sys.modules.items()):
            if n == "msarr" or n.startswith("msarr."):
                for key, val in vars(mod).items():
                    if getattr(val, "__perfbench_traced__", False):
                        bad.append(f"{n}.{key}")
                for cls in (v for v in vars(mod).values() if inspect.isclass(v)):
                    for key, val in vars(cls).items():
                        if getattr(val, "__perfbench_traced__", False):
                            bad.append(f"{n}.{cls.__name__}.{key}")
        return bad

    @property
    def bindings(self) -> int:
        return len(self._bindings)

    @contextmanager
    def paused(self):
        self.paused_depth += 1
        try:
            yield
        finally:
            self.paused_depth -= 1

    # -- analysis ------------------------------------------------------------

    def summary(self):
        """Per-name call counts and self times, plus parent-name pair counts."""
        n = len(self.start)
        child = [0.0] * n
        parent = self.parent
        start, end = self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        pairs: dict[tuple[int, int], int] = {}
        name_of = self.name_of
        for i in range(n):
            nid = name_of[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
            p = parent[i]
            if p >= 0:
                key = (name_of[p], nid)
                pairs[key] = pairs.get(key, 0) + 1
        return (
            {self.names[i]: calls[i] for i in range(len(self.names))},
            {self.names[i]: self_s[i] for i in range(len(self.names))},
            {(self.names[a], self.names[b]): c for (a, b), c in pairs.items()},
        )

    def write(self, path: Path):
        """Spans as five little-endian arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name:i32", "parent:i32", "op:i32", "start:f64", "end:f64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.op_of, self.start, self.end):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)


def per_layer_metrics(tracer: Tracer, lp_solves: int, overhead_ratio: float) -> dict:
    calls, self_s, pairs = tracer.summary()

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    strict = "feasibility.strict_feasibility"
    consistent = "sigma.consistent_at"
    perturb = "nonvgen.perturb_to_very_generic"
    perturb_builds = pairs.get((perturb, "msbuild.build_ms"), 0)
    values = {
        "feasibility.strict.calls": c(strict),
        "feasibility.strict.self_s": s(strict),
        "feasibility.strict.rows_mean": ratio(tracer.strict_rows, c(strict)),
        "feasibility.strict.infeasible_ratio": ratio(tracer.strict_infeasible, c(strict)),
        "feasibility.mixed.calls": c("feasibility.mixed_feasibility"),
        "feasibility.mixed.self_s": s("feasibility.mixed_feasibility"),
        "feasibility.lp_solves": lp_solves,
        "sigma.in_sigma_p.calls": c("sigma.in_sigma_p"),
        "sigma.in_sigma_p.self_s": s("sigma.in_sigma_p"),
        "sigma.consistent_at.calls": c(consistent),
        "sigma.consistent_at.miss_ratio": ratio(pairs.get((consistent, strict), 0), c(consistent)),
        "sigma.find_jump.self_s": s("sigma.find_jump"),
        "sigma.find_jump.in_sigma_p_calls": pairs.get(("sigma.find_jump", "sigma.in_sigma_p"), 0),
        "sigma.is_simple_chamber.calls": c("sigma.is_simple_chamber"),
        "sigma.is_simple_chamber.self_s": s("sigma.is_simple_chamber"),
        "arrangement.full_lattice.self_s": s("arrangement.CentralArrangement.full_lattice"),
        "arrangement.flats": tracer.flats,
        "arrangement.chamber_sign_vectors.self_s": s("arrangement.chamber_sign_vectors"),
        "arrangement.chambers": tracer.chambers,
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.in_span.calls": c("linalg.in_span"),
        "linalg.rank.calls": c("linalg.rank"),
        "linalg.kernel_basis.calls": c("linalg.kernel_basis"),
        "linalg.det.calls": c("linalg.det"),
        "linalg.self_s": sum(v for k, v in self_s.items() if k.startswith("linalg.")),
        "linalg.max_entry_bits": tracer.max_entry_bits,
        "msbuild.build_ms.self_s": s("msbuild.build_ms"),
        "msbuild.is_very_generic.self_s": s("msbuild.is_very_generic"),
        "msbuild.canonical_presentation.calls": c("msbuild.canonical_presentation"),
        "msbuild.d_flat.calls": c("msbuild.d_flat"),
        "nonvgen.witness_rank_r.self_s": s("nonvgen.witness_rank_r"),
        "nonvgen.perturb_to_very_generic.self_s": s(perturb),
        "nonvgen.perturb.build_ms_calls": perturb_builds,
        "nonvgen.perturb.accept_ratio": ratio(c(perturb), perturb_builds),
        "nonvgen.jump_after_perturbation.self_s": s("nonvgen.jump_after_perturbation"),
        "pnk.lattice_isomorphic_to_pnk.self_s": s("pnk.lattice_isomorphic_to_pnk"),
        "matroid.from_arrangement.self_s": s("arrangement.matroid_of_arrangement"),
        "matroid.is_paving.self_s": s("matroid.is_paving"),
        "trace.overhead_ratio": overhead_ratio,
    }
    units = dict(PER_LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER_METRICS}
