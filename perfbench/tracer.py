"""Spans around the public functions of each totref layer, from outside.

``Tracer.install()`` replaces every layer function listed in ``SPANS`` and
``LEAVES`` by a wrapper, at every import site: ``homcalc`` imports
``kernel_gens`` and ``solve_right`` by name, so patching ``linalg`` alone
would miss those calls.  A span records its name, start, end, parent span
and the operation it belongs to; a layer's self time is its span's duration
minus the time its child spans and leaves cover.  Leaf functions called
around 10^5 times or more a run are aggregated to a call count and a time
instead of one span a call.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

import numpy as np


def _extend_vectors(span, cand, p):
    # one absorb step per column of the span and of the candidates
    held = span.shape[1] if span is not None and span.size else 0
    return held + np.shape(cand)[1]


def _module_key(module):
    rho = getattr(module, "rho", module)
    return (getattr(module, "label", None), rho.entries, rho.row_degs,
            rho.col_degs)


def _hom_key(source, target, bound=None, ring=None):
    # the inputs hom_presentation's result depends on: ring, both
    # presentations with degree layouts and labels, and the bound
    ring = ring if ring is not None else source.ring
    return (ring.key, _module_key(source), _module_key(target), bound)


# module -> {qualified name: (layer name, extra counts)}; an extra count is
# (suffix, function of the call's arguments): a number is summed over
# calls, anything else is a key whose distinct values are counted
SPANS = {
    "_fp": {"rref": ("fp.rref", ("cells", lambda a, p: a.size)),
            "rank": ("fp.rank", None),
            "solve": ("fp.solve", None),
            "kernel": ("fp.kernel", None),
            "extend_independent": ("fp.extend_independent",
                                   ("vectors", _extend_vectors))},
    "_zn": {"howell": ("zn.howell",
                       ("cells", lambda mat, n: len(mat) * len(mat[0])
                        if mat else 0)),
            "SpanSolver.solve": ("zn.SpanSolver.solve", None)},
    "linalg": {"kernel_gens": ("linalg.kernel_gens", None),
               "slice_matrix": ("linalg.slice_matrix", None),
               "solve_right": ("linalg.solve_right", None),
               "check_exact_at": ("linalg.check_exact_at", None)},
    "modules": {name: (f"modules.{name}", None)
                for name in ("minimal_generator_count", "fitting_ideal",
                             "hilbert_function", "verify_iso_witness")},
    "family": {"verify_total_reflexivity":
               ("family.verify_total_reflexivity", None)},
    "zerodiv": {"exact_pair": ("zerodiv.exact_pair", None),
                "verify_regular_pair": ("zerodiv.verify_regular_pair",
                                        None)},
    "homcalc": {"hom_presentation": ("homcalc.hom_presentation",
                                     ("distinct", _hom_key)),
                **{name: (f"homcalc.{name}", None)
                   for name in ("verify_end_ring",
                                "hom_maps_from_presentation",
                                "brute_force_hom_oracle",
                                "noniso_certificate", "verify_hom_transpose",
                                "verify_ext_swap", "run_family")},
                "FamilyReport.to_json": ("report.to_json", None)},
    "report": {"VerificationReport.to_json": ("report.to_json", None)},
}

LEAVES = {
    "_zn": {"SpanSolver.reduce": "zn.SpanSolver.reduce"},
    "linalg": {"Matrix.__add__": "linalg.Matrix.arith",
               "Matrix.__sub__": "linalg.Matrix.arith",
               "Matrix.__mul__": "linalg.Matrix.arith"},
}


class Tracer:
    def __init__(self):
        # a span is [name, start, end, parent, op, covered]; covered is
        # the time its child spans and leaves took
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}
        self.extra: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.op = -1
        self._in_leaf = False

    def install(self) -> None:
        """Wrap every listed function wherever a totref module holds it."""
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for module_name, entries in table.items():
                module = importlib.import_module(f"totref.{module_name}")
                for qualname, spec in entries.items():
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name \
                        else module
                    original = getattr(owner, attr)
                    wrapper = make(original, spec)
                    if owner_name:
                        setattr(owner, attr, wrapper)
                        continue
                    for name, loaded in list(sys.modules.items()):
                        if name == "totref" or name.startswith("totref."):
                            for key, value in list(vars(loaded).items()):
                                if value is original:
                                    setattr(loaded, key, wrapper)

    def _span(self, fn, spec):
        name, extra = spec
        spans, stack = self.spans, self.stack
        if extra is not None:
            suffix, measure = extra
            extra_name = f"{name}.{suffix}"
        else:
            measure = None

        def wrapper(*args, **kwargs):
            if measure is not None:
                value = measure(*args, **kwargs)
                if isinstance(value, (int, np.integer)):
                    self.extra[extra_name] = \
                        self.extra.get(extra_name, 0) + int(value)
                else:
                    self.keys.setdefault(extra_name, set()).add(value)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                      0.0]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[1] = start
                record[2] = end
                if stack:
                    spans[stack[-1]][5] += end - start

        return wrapper

    def _leaf(self, fn, name):
        stat = self.leaves.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if self._in_leaf:
                # time a leaf called from a leaf once, in the outer call
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                stat[1] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    def layer_metrics(self) -> dict:
        """``<layer>.{calls,self_s,total_s}`` and the extra counts."""
        out: dict = {}
        for name, start, end, _parent, _op, covered in self.spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.total_s"] = \
                out.get(f"{name}.total_s", 0.0) + end - start
            out[f"{name}.self_s"] = \
                out.get(f"{name}.self_s", 0.0) + end - start - covered
        for name, (calls, seconds) in self.leaves.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = seconds
            out[f"{name}.total_s"] = seconds
        out.update(self.extra)
        for name, keys in self.keys.items():
            out[name] = len(keys)
        return out

    def covered_seconds(self) -> float:
        """Time inside root spans that belong to a timed operation."""
        return sum(end - start
                   for _name, start, end, parent, op, _c in self.spans
                   if parent < 0 and op >= 0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, _covered in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")
            for name, (calls, seconds) in self.leaves.items():
                handle.write(json.dumps(
                    {"leaf": name, "calls": calls, "seconds": seconds})
                    + "\n")
