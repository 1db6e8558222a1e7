"""Outside-in layer trace: spans around the package's public functions.

The tracer wraps each function listed in ``LAYERS`` and swaps the wrapper
into every ``toricbsato.*`` namespace that holds the original object, so
from-imports (``multiplier``, ``toric``, ``bsato``, ``cli``, the package
``__init__``) and the lazy imports that go through the source module are
all covered.  A span records name, start, end and parent; a layer's
``self_s`` is its span time minus the time of the wrapped spans directly
beneath it.  Hot scalar helpers and private functions stay unwrapped, so
their cost lands in the caller's ``self_s``.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, extra per-layer statistics beyond calls and self_s)
LAYERS = (
    ("bsato", "groebner_basis", ("in_gens", "out_size")),
    ("bsato", "build_generator", ()),
    ("multipoly", "binom_poly", ()),
    ("bsato", "bfunction", ("boxes", "zero_box_frac")),
    ("bsato", "rational_roots", ("max_degree",)),
    ("cli", "main", ()),
    ("cli", "load_document", ()),
    ("toric", "is_normal", ()),
    ("toric", "build_semigroup", ()),
    ("toric", "f_section", ("hit_frac",)),
    ("exactnum", "solve_linear", ()),
    ("polyhedra", "membership", ("true_frac",)),
    ("multiplier", "multiplier_ideal", ()),
    ("multiplier", "multiplier_ideal_with_boundary", ()),
    ("multiplier", "jumping_coefficients", ("unresolved",)),
    ("exactnum", "fm_feasible", ()),
    ("exactnum", "kernel_lattice_basis", ()),
    ("exactnum", "rank", ()),
    ("polyhedra", "newton_polyhedron", ()),
    ("polyhedra", "point_threshold", ()),
    ("multiplier", "lct", ()),
)

# Layers reported without self time, and layers reported without a call
# count (only the statistics each layer is expected to move are kept).
_NO_TIMES = {"bsato.bfunction"}
_NO_CALLS = {"cli.load_document", "toric.build_semigroup"}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "in_gens": "count",
    "out_size": "count",
    "boxes": "count",
    "zero_box_frac": "ratio",
    "max_degree": "count",
    "hit_frac": "ratio",
    "true_frac": "ratio",
    "unresolved": "count",
}


def layer_metrics():
    """``[(metric name, unit)]`` for every per-layer metric, in print order."""
    out = []
    for module, fn, extras in LAYERS:
        name = f"{module}.{fn}"
        stats = []
        if name not in _NO_CALLS:
            stats.append("calls")
        if name not in _NO_TIMES:
            stats.append("self_s")
        stats += list(extras)
        out += [(f"{name}.{s}", UNITS[s]) for s in stats]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Keeps spans in memory while installed; ``dump`` writes them out."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []  # (span index, accumulated child time)
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._patched = []  # (namespace, attribute, original)

    def _observe(self, name, args, result):
        c = self.counts
        if name == "bsato.groebner_basis":
            c["in_gens"] = c.get("in_gens", 0) + len(args[0])
            c["out_size"] = c.get("out_size", 0) + len(result)
        elif name == "bsato.bfunction":
            c["boxes"] = c.get("boxes", 0) + len(result.truncation)
            c["zero_boxes"] = c.get("zero_boxes", 0) + sum(p is None for _, p in result.truncation)
        elif name == "bsato.rational_roots":
            c["max_degree"] = max(c.get("max_degree", 0), args[0].degree)
        elif name == "toric.f_section":
            c["hits"] = c.get("hits", 0) + (result is not None)
        elif name == "polyhedra.membership":
            c["trues"] = c.get("trues", 0) + bool(result)
        elif name == "multiplier.jumping_coefficients":
            c["unresolved"] = c.get("unresolved", 0) + len(result.unresolved)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.calls[name] = 0
        self.self_s[name] = 0.0

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "toricbsato" or n.startswith("toricbsato.")]
        for module, fn, _ in LAYERS:
            original = getattr(sys.modules[f"toricbsato.{module}"], fn)
            wrapper = self._wrap(f"{module}.{fn}", original)
            for ns in modules:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-pass layer metrics (counts and times divided by ``passes``)."""
        c = self.counts
        values = {}
        for name, unit in layer_metrics():
            layer, _, stat = name.rpartition(".")
            if name == "trace.overhead_ratio":
                v = overhead_ratio
            elif stat == "calls":
                v = self.calls[layer] / passes
            elif stat == "self_s":
                v = self.self_s[layer] / passes
            elif stat == "zero_box_frac":
                v = c.get("zero_boxes", 0) / c["boxes"] if c.get("boxes") else 0.0
            elif stat == "hit_frac":
                v = c.get("hits", 0) / self.calls[layer] if self.calls[layer] else 0.0
            elif stat == "true_frac":
                v = c.get("trues", 0) / self.calls[layer] if self.calls[layer] else 0.0
            elif stat == "max_degree":
                v = c.get("max_degree", 0)
            else:
                v = c.get(stat, 0) / passes
            values[name] = {"value": v, "unit": unit}
        return values

    def breakdown(self, traced_wall: float):
        """Rows ``(layer, calls, self_s, share of traced wall)``, largest first."""
        rows = [
            (name, self.calls[name], self.self_s[name], self.self_s[name] / traced_wall)
            for name in self.calls
        ]
        return sorted(rows, key=lambda r: -r[2])

    def dump(self, path: str):
        names = sorted(self.calls)
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans if s is not None],
                },
                fh,
                separators=(",", ":"),
            )
