"""Per-layer tracing for the benchmark's traced runs.

Each layer is one affkl module.  Its public entry points are replaced by
wrappers that record a span (name, start, end, parent span, op id) and add
the call's self time -- its duration minus the time of the wrapped calls it
made -- to the layer.  Arithmetic helpers (polys, laurent, fields, matutil)
and anything called more than about 1e5 times per pass (ExtWeylElt.__mul__,
length, HeckeElt arithmetic, PolyRing.mul) are not wrapped: their time is
self time of the layer that calls them.  Counters (matrix shapes, kernel
dimensions, ...) are taken after a call's span has ended; their cost is
reported as trace_overhead_s and kept out of every self and inclusive time.

Wrappers are installed in the defining module and in every affkl module that
imported the entry point by name, so calls through either name are seen.
"""

import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("soergel", "bimodule", "homs", "linalg", "fdalg",
          "hecke", "weyl", "tilt", "cache")

# layer -> entry points, as "function" or "Class.method"
ENTRY_POINTS = {
    "soergel": ("end0_split", "materialize_summand", "is_shifted_iso",
                "PCanTable.ensure", "PCanTable.expansion_via_word",
                "p_canonical", "p_kl"),
    "bimodule": ("tensor", "b_object", "f_object", "bott_samelson",
                 "character", "LabeledBimodule.label_nullspace",
                 "LabeledBimodule.validate", "LabeledBimodule.shifted"),
    "homs": ("hom_space", "solve_in_basis", "graded_hom_dims",
             "SlotMap.__init__", "SlotMap.flatten", "SlotMap.unflatten"),
    "linalg": ("rref_mod_p", "kernel_mod_p", "rank_mod_p", "solve_mod_p",
               "kernel_rational", "_kernel_fraction", "rref_field",
               "kernel_field", "solve_field", "SpanSolver.__init__",
               "SpanSolver.coords", "poly_rank", "poly_kernel"),
    "fdalg": ("FDAlgebra.__init__", "FDAlgebra.radical",
              "FDAlgebra.complete_primitive_idempotents",
              "SpanSolverSafe.__init__", "SpanSolverSafe.coords"),
    "hecke": ("mult", "bar", "canonical_basis", "kl_poly", "pairing",
              "signed_coset_sum"),
    "weyl": ("bruhat_leq", "reduced_word", "omega_factorize",
             "enumerate_elements", "finitary_data", "finitary_data_over",
             "longest_element", "is_min_double_coset_rep",
             "min_double_coset_reps", "element_from_word", "omega_elements"),
    "tilt": ("tilt_mult", "parabolic_tilt_mult", "mult_table",
             "tilt_hom_dim", "parity_hom_dim", "MultTable.render"),
    "cache": ("save_table", "load_table", "verify", "gc", "inspect"),
}

# linalg entry points whose first argument is the matrix being reduced
_MATRIX_ENTRIES = {"rref_mod_p", "kernel_mod_p", "rank_mod_p", "solve_mod_p",
                   "kernel_rational", "rref_field", "kernel_field",
                   "solve_field", "SpanSolver.__init__", "poly_rank",
                   "poly_kernel"}
_KERNEL_ENTRIES = {"kernel_mod_p", "kernel_rational", "kernel_field",
                   "poly_kernel"}

COUNTERS = (
    "linalg.rows", "linalg.cols", "linalg.nnz", "linalg.distinct_rows",
    "linalg.max_cells", "linalg.kernel_dim", "linalg.rational_fallbacks",
    "homs.unknowns", "fdalg.end0_dim", "fdalg.idempotents",
    "soergel.summands", "bimodule.tensor_rank", "hecke.kl_cache_entries",
    "tilt.pairs", "tilt.entries", "cache.bytes_written", "cache.bytes_read",
)
INCLUSIVE = ("soergel.materialize_s", "soergel.identify_s",
             "cache.save_s", "cache.load_s")


def _row_key(row):
    return tuple(frozenset(x.items()) if isinstance(x, dict) else x
                 for x in row)


def _matrix_stats(rec, a):
    if isinstance(a, np.ndarray):
        if a.ndim != 2:
            return
        rows, cols = a.shape
        nnz = int(np.count_nonzero(a))
        distinct = len({row.tobytes() for row in a})
    else:
        rows = len(a)
        cols = len(a[0]) if rows else 0
        nnz = sum(1 for row in a for x in row if x)
        distinct = len({_row_key(row) for row in a})
    c = rec.counts
    c["linalg.rows"] += rows
    c["linalg.cols"] += cols
    c["linalg.nnz"] += nnz
    c["linalg.distinct_rows"] += distinct
    c["linalg.max_cells"] = max(c["linalg.max_cells"], rows * cols)


def _hook(entry, rec, args, out, dur, outer):
    """Counters gathered at the boundary of one wrapped call."""
    c = rec.counts
    if entry in _MATRIX_ENTRIES and outer:
        _matrix_stats(rec, args[1] if entry == "SpanSolver.__init__" else args[0])
    if entry in _KERNEL_ENTRIES and outer:
        c["linalg.kernel_dim"] += len(out)
    elif entry == "_kernel_fraction":
        c["linalg.rational_fallbacks"] += 1
    elif entry == "SlotMap.__init__":
        c["homs.unknowns"] += args[0].size
    elif entry == "FDAlgebra.__init__":
        c["fdalg.end0_dim"] += args[0].dim
    elif entry == "FDAlgebra.complete_primitive_idempotents":
        c["fdalg.idempotents"] += len(out)
    elif entry == "end0_split":
        c["soergel.summands"] += len(out)
    elif entry == "materialize_summand":
        rec.inclusive["soergel.materialize_s"] += dur
    elif entry == "is_shifted_iso":
        rec.inclusive["soergel.identify_s"] += dur
    elif entry == "tensor":
        c["bimodule.tensor_rank"] += out.rank
    elif entry == "mult_table":
        c["tilt.pairs"] += len(out.row_order) * len(out.col_order)
        c["tilt.entries"] += len(out.entries)
    elif entry == "save_table":
        rec.inclusive["cache.save_s"] += dur
        c["cache.bytes_written"] += os.path.getsize(args[1])
    elif entry == "load_table":
        rec.inclusive["cache.load_s"] += dur
        c["cache.bytes_read"] += os.path.getsize(args[0])


class Recorder:
    """Spans and per-layer totals of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        # [span index, layer, time of wrapped children and their counters,
        #  time of counters nested anywhere inside the call]
        self.stack = []
        self.trace_overhead_s = 0.0
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.entry_calls = Counter()
        self.counts = Counter()
        self.inclusive = defaultdict(float)
        self.op = None
        self._patched = []

    def _wrap(self, layer, entry, fn):
        rec = self
        name = f"{layer}.{entry}"

        def wrapper(*args, **kwargs):
            stack = rec.stack
            outer = not stack or stack[-1][1] != layer
            index = len(rec.spans)
            rec.spans.append(None)
            frame = [index, layer, 0.0, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                rec.self_s[layer] += dur - frame[2]
                rec.calls[layer] += 1
                rec.entry_calls[name] += 1
                parent = stack[-1][0] if stack else -1
                rec.spans[index] = (name, start, end, parent, rec.op)
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3] += frame[3]
            # counters are taken after the span ends; their cost is kept out
            # of every layer's self time and of the inclusive times
            _hook(entry, rec, args, out, dur - frame[3], outer)
            hook_s = time.perf_counter() - end
            rec.trace_overhead_s += hook_s
            if stack:
                stack[-1][2] += hook_s
                stack[-1][3] += hook_s
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every entry point; call uninstall() to restore them."""
        import affkl  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "affkl" or n.startswith("affkl."))]
        for layer, entries in ENTRY_POINTS.items():
            mod = sys.modules[f"affkl.{layer}"]
            for entry in entries:
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(layer, entry, orig), orig)
                    continue
                orig = getattr(mod, entry)
                wrapped = self._wrap(layer, entry, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapped, orig)

    def _set(self, owner, attr, new, orig):
        setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def metrics(self, wall_s):
        """Per-layer metrics of the pass, keyed as in BENCHMARK.json."""
        from affkl import hecke

        self.counts["hecke.kl_cache_entries"] = len(hecke._KL_CACHE)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for key in COUNTERS:
            out[key] = self.counts[key]
        for key in INCLUSIVE:
            out[key] = self.inclusive[key]
        out["trace_overhead_s"] = self.trace_overhead_s
        out["unattributed_s"] = (wall_s - self.trace_overhead_s
                                 - sum(self.self_s[layer] for layer in LAYERS))
        out["traced_wall_s"] = wall_s
        return out
