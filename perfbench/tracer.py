"""Span tracer for speclab's layer boundaries, installed from outside.

The package itself is not instrumented.  ``install`` imports every
speclab module, wraps the boundaries listed in ``layers.json`` and
rebinds each wrapper wherever the original function object is bound, so
names copied by ``from .x import f`` (``clifford.rref``,
``cli.verify_scalar_identities``, ...) go through the wrapper as well.

Each call records one span: name, start, end and the index of the
enclosing span.  Spans live in flat arrays in memory and are written out
once, when the process ends.  Self time is a span's duration minus the
durations of its direct child spans.  The layer counters (coefficient
operations, CRat share, cache hits) are gathered by hooks at the same
boundaries.
"""

from __future__ import annotations

import array
import json
import os
import sys
from time import perf_counter

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def load_layers() -> list:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)["layers"]


COUNTERS = (
    "kernel_calls",
    "crat_calls",
    "coeff_ops",
    "peak_terms",
    "rref_cells",
    "dirac_hits",
    "dirac_misses",
    "eigenspace_hits",
    "eigenspace_misses",
    "basis_hits",
    "basis_misses",
    "output_bytes",
)


class Tracer:
    """Spans and per-boundary counters of one process."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals: dict = {}
        self._basis_caches: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args)`` runs ahead of the call and its result is passed
        as the first argument of ``after(token, args, out)``.
        """
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        calls, self_s, stack = self.calls, self.self_s, self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(token, args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        self.originals[traced] = fn
        return traced

    # -- hooks ------------------------------------------------------------

    def _kernel_hooks(self, crat_type):
        c = self.counters

        def first_is_crat(terms) -> bool:
            for v in terms.values():
                return type(v) is crat_type
            return False

        def note_peak(*sizes):
            m = max(sizes)
            if m > c["peak_terms"]:
                c["peak_terms"] = m

        def mul(_t, args, out):
            a, b = args
            c["kernel_calls"] += 1
            c["crat_calls"] += first_is_crat(a) or first_is_crat(b)
            c["coeff_ops"] += len(a) * len(b)
            note_peak(len(out))

        def add_scaled(_t, args, out):
            a, b, k = args
            c["kernel_calls"] += 1
            c["crat_calls"] += type(k) is crat_type or first_is_crat(b) or first_is_crat(a)
            c["coeff_ops"] += len(b)
            note_peak(len(out))

        def scale(_t, args, out):
            a, k = args
            c["kernel_calls"] += 1
            c["crat_calls"] += type(k) is crat_type or first_is_crat(a)
            c["coeff_ops"] += len(a)
            note_peak(len(out))

        def reduce(_t, args, out):
            terms = args[0]
            c["kernel_calls"] += 1
            c["crat_calls"] += first_is_crat(terms)
            note_peak(len(terms), len(out))

        def rref(_t, args, _out):
            rows = args[0]
            c["kernel_calls"] += 1
            if rows:
                c["crat_calls"] += type(rows[0][0]) is crat_type
                c["rref_cells"] += len(rows) * len(rows[0])

        return {
            "mul_terms": mul,
            "add_scaled_terms": add_scaled,
            "scale_terms": scale,
            "reduce_terms": reduce,
            "rref": rref,
        }

    def _cache_hooks(self, modules):
        c = self.counters
        dirac_cache = modules["speclab.clifford"]._DIRAC_CACHE
        eig_cache = modules["speclab.scalar_ops"]._EIGENSPACE_CACHE

        # A miss inserts one entry; the cache may also be cleared and
        # refilled inside the call, so any change of size is a miss.
        def dirac_after(size, _args, _out):
            if len(dirac_cache) == size:
                c["dirac_hits"] += 1
            else:
                c["dirac_misses"] += 1

        def eig_before(args):
            return (args[0], args[1]) in eig_cache

        def eig_after(hit, _args, _out):
            c["eigenspace_hits" if hit else "eigenspace_misses"] += 1

        return {
            "clifford.dirac_apply": (lambda _a: len(dirac_cache), dirac_after),
            "scalar_ops.build_eigenspace": (eig_before, eig_after),
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary of ``layers.json``.

        A boundary is a module function (``mul_terms``), a method or
        classmethod (``TruncationModel.spectrum``), or a class, whose
        constructor is wrapped (``SphereProjector``).  Span names are the
        layer's prefix and the boundary, because metric names must start
        with a letter and ``_kernel`` does not.
        """
        import importlib

        layers = [layer for layer in load_layers() if layer["module"]]
        modules = {layer["module"]: importlib.import_module(layer["module"]) for layer in layers}
        crat = importlib.import_module("speclab.scalars").CRat
        kernel_hooks = self._kernel_hooks(crat)
        cache_hooks = self._cache_hooks(modules)
        clifford = modules["speclab.clifford"]
        self._basis_caches = [clifford._monogenic_basis_cached, clifford._eigenspinor_basis_cached]

        replace = {}
        for layer in layers:
            mod = modules[layer["module"]]
            for boundary in layer["boundaries"]:
                name = f"{layer['layer']}.{boundary}"
                owner_name, _, attr = boundary.rpartition(".")
                if owner_name:
                    cls = getattr(mod, owner_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, attr, self.wrap(name, raw))
                    continue
                orig = getattr(mod, attr)
                if isinstance(orig, type):
                    orig.__init__ = self.wrap(name, orig.__init__)
                    continue
                before, after = cache_hooks.get(name, (None, None))
                if layer["layer"] == "kernel":
                    after = kernel_hooks[attr]
                replace[id(orig)] = self.wrap(name, orig, before, after)

        # Rebind every module-level name that still holds an original,
        # including copies made by ``from .x import f``.
        for mod in self._speclab_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, key, replace[id(value)])

    @staticmethod
    def _speclab_modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "speclab" or name.startswith("speclab."))
        ]

    def leftovers(self) -> list:
        """Module-level names still bound to an unwrapped original."""
        originals = {id(fn) for fn in self.originals.values()}
        out = []
        for mod in self._speclab_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    out.append(f"{mod.__name__}.{key}")
        return sorted(out)

    # -- results ------------------------------------------------------------

    def stats(self) -> dict:
        counters = dict(self.counters)
        for cached in self._basis_caches:
            info = cached.cache_info()
            counters["basis_hits"] += info.hits
            counters["basis_misses"] += info.misses
        return {
            "spans": len(self.span_start),
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": counters,
            "leftovers": self.leftovers(),
        }

    def write(self, path: str) -> None:
        """Write the stats as JSON to ``path`` and the spans to ``path.spans``.

        The span file is one JSON header line (names, count, array
        typecodes) followed by the raw name, parent, start and end arrays.
        """
        with open(path, "w") as fh:
            json.dump(self.stats(), fh)
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [[a.typecode, a.itemsize] for a in arrays],
            "fields": ["name", "parent", "start", "end"],
        }
        with open(path + ".spans", "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for a in arrays:
                a.tofile(fh)
