"""Spans around the calls into logeq's layers, recorded from outside the program.

`Tracer.install` rebinds, in every loaded `logeq` module, each name that is
bound to one of the traced functions, so that calls looked up at call time
(`oracle.potential_quad`, `equilibrium.integral_I`, `series.hyp2F1_ck`,
`_quad.gl_map`, ...) go through a recording wrapper.  Nothing is changed on
disk.  A span is (name, operation, parent, start, end, quantity); spans are
kept in flat typed arrays and written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


def _nodes(args, out):
    return len(out[0])


def _points(index):
    def count(args, out):
        return np.size(args[index])
    return count


def _terms(args, out):
    return out.terms_used


# (module, function, quantity recorded per call).  Span names drop the
# package prefix and the leading underscore of `_quad`, so that every
# metric name starts with a letter.
TARGETS = (
    ("oracle", "verify", None),
    ("oracle", "potential_quad", None),
    ("oracle", "measure_quadrature", None),
    ("_quad", "gl_map", _nodes),
    ("_quad", "composite_nodes", _nodes),
    ("specfun", "integral_I", _points(0)),
    ("specfun", "hyp2F1_ck", None),
    ("specfun", "complete_E", None),
    ("equilibrium", "solve_beta_repulsive", None),
    ("equilibrium", "density", _points(1)),
    ("equilibrium", "cauchy", None),
    ("equilibrium", "omega", None),
    ("series", "omega_series", _terms),
    ("series", "c_recurrence", None),
    ("series", "c_closed_form", None),
    ("series", "omega_integral", None),
)

# Memo caches whose counters give the cache-miss and hit metrics.
CACHES = {
    "solve_beta_misses": ("equilibrium", "solve_beta_repulsive", "misses"),
    "omega_hits": ("equilibrium", "_omega_repulsive", "hits"),
}


def span_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Records spans while installed; `summary` reduces them per span name."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.current_op = [-1]
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, int] = {}
        self.missing: list[str] = []

    def _wrap(self, name_id: int, fn, qty):
        names, ops, parents = self.name, self.op, self.parent
        starts, ends, qtys = self.start, self.end, self.qty
        stack, current = self._stack, self.current_op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            ops.append(current[0])
            parents.append(stack[-1])
            ends.append(0.0)
            qtys.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if qty is not None:
                qtys[i] = qty(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _cache_counts(self) -> dict[str, int]:
        counts = {}
        for key, (_module, _func, field) in CACHES.items():
            info = getattr(self._caches[key], "cache_info", None)
            counts[key] = getattr(info(), field) if info else 0
        return counts

    def install(self) -> None:
        self._caches = {key: getattr(sys.modules.get(f"logeq.{module}"), func, None)
                        for key, (module, func, _field) in CACHES.items()}
        self._cache_start = self._cache_counts()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "logeq" or n.startswith("logeq."))]
        for module, func, qty in TARGETS:
            original = getattr(sys.modules.get(f"logeq.{module}"), func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            self.names.append(span_name(module, func))
            wrapper = self._wrap(len(self.names) - 1, original, qty)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        self._cache_end = self._cache_counts()
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "qty": np.array(self.qty, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, self seconds and summed quantity, plus the
        integral_I evaluation count and the cache counter deltas."""
        a = self.arrays()
        name, parent, qty = a["name"], a["parent"], a["qty"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        total = np.bincount(name, weights=qty, minlength=k)
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "qty": float(total[i])} for i, n in enumerate(self.names)}
        # integral_I evaluations = points x quadrature nodes, the nodes being
        # those returned by the _quad calls made directly inside each call.
        if "specfun.integral_I" in out:
            iid = self.names.index("specfun.integral_I")
            quad_ids = [self.names.index(n) for n in ("quad.gl_map", "quad.composite_nodes")
                        if n in self.names]
            sel = has_parent & np.isin(name, quad_ids)
            sel[sel] = name[parent[sel]] == iid
            nodes = np.zeros(len(dur))
            np.add.at(nodes, parent[sel], qty[sel])
            mine = name == iid
            out["specfun.integral_I"]["evals"] = float(np.sum(qty[mine] * nodes[mine]))
        out["caches"] = {key: self._cache_end[key] - self._cache_start[key]
                         for key in CACHES}
        return out


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per traced child process)."""
    total: dict = {}
    for s in summaries:
        for name, fields in s.items():
            slot = total.setdefault(name, {})
            for key, value in fields.items():
                slot[key] = slot.get(key, 0) + value
    return total


def _get(summary, name, field):
    return summary.get(name, {}).get(field, 0)


# Per-layer metrics computed from a summary: (name, unit, total over the traced ops).
LAYER_METRICS = (
    ("oracle.verify.self_ms", "ms", lambda s: 1e3 * _get(s, "oracle.verify", "self_s")),
    ("oracle.potential_quad.calls", "count", lambda s: _get(s, "oracle.potential_quad", "calls")),
    ("oracle.potential_quad.self_ms", "ms", lambda s: 1e3 * _get(s, "oracle.potential_quad", "self_s")),
    ("oracle.measure_quadrature.self_ms", "ms", lambda s: 1e3 * _get(s, "oracle.measure_quadrature", "self_s")),
    ("quad.gl_map.calls", "count", lambda s: _get(s, "quad.gl_map", "calls")),
    ("quad.composite_nodes.calls", "count", lambda s: _get(s, "quad.composite_nodes", "calls")),
    ("quad.composite_nodes.nodes", "count", lambda s: _get(s, "quad.composite_nodes", "qty")),
    ("quad.self_ms", "ms", lambda s: 1e3 * sum(v["self_s"] for n, v in s.items() if n.startswith("quad."))),
    ("specfun.integral_I.calls", "count", lambda s: _get(s, "specfun.integral_I", "calls")),
    ("specfun.integral_I.evals", "count", lambda s: _get(s, "specfun.integral_I", "evals")),
    ("specfun.integral_I.self_ms", "ms", lambda s: 1e3 * _get(s, "specfun.integral_I", "self_s")),
    ("specfun.hyp2F1_ck.calls", "count", lambda s: _get(s, "specfun.hyp2F1_ck", "calls")),
    ("specfun.hyp2F1_ck.self_ms", "ms", lambda s: 1e3 * _get(s, "specfun.hyp2F1_ck", "self_s")),
    ("specfun.complete_E.calls", "count", lambda s: _get(s, "specfun.complete_E", "calls")),
    ("equilibrium.solve_beta_repulsive.solves", "count", lambda s: _get(s, "caches", "solve_beta_misses")),
    ("equilibrium.solve_beta_repulsive.self_ms", "ms", lambda s: 1e3 * _get(s, "equilibrium.solve_beta_repulsive", "self_s")),
    ("equilibrium.density.points", "count", lambda s: _get(s, "equilibrium.density", "qty")),
    ("equilibrium.density.self_ms", "ms", lambda s: 1e3 * _get(s, "equilibrium.density", "self_s")),
    ("equilibrium.cauchy.calls", "count", lambda s: _get(s, "equilibrium.cauchy", "calls")),
    ("equilibrium.cauchy.self_ms", "ms", lambda s: 1e3 * _get(s, "equilibrium.cauchy", "self_s")),
    ("equilibrium.omega.calls", "count", lambda s: _get(s, "equilibrium.omega", "calls")),
    ("series.omega_series.terms", "count", lambda s: _get(s, "series.omega_series", "qty")),
    ("series.omega_series.self_ms", "ms", lambda s: 1e3 * _get(s, "series.omega_series", "self_s")),
    ("series.c_recurrence.calls", "count", lambda s: _get(s, "series.c_recurrence", "calls")),
    ("series.c_recurrence.self_ms", "ms", lambda s: 1e3 * _get(s, "series.c_recurrence", "self_s")),
    ("series.c_closed_form.calls", "count", lambda s: _get(s, "series.c_closed_form", "calls")),
    ("series.omega_integral.self_ms", "ms", lambda s: 1e3 * _get(s, "series.omega_integral", "self_s")),
)


def layer_metrics(summary: dict, ops: int) -> dict[str, dict]:
    """Every per-layer metric as a value per operation."""
    metrics = {name: {"value": fn(summary) / ops, "unit": unit}
               for name, unit, fn in LAYER_METRICS}
    calls = _get(summary, "equilibrium.omega", "calls")
    hits = _get(summary, "caches", "omega_hits")
    # A ratio, not a per-op value; its base is equilibrium.omega.calls.
    metrics["equilibrium.omega.cache_hit_ratio"] = {
        "value": hits / calls if calls else 0.0, "unit": "ratio"}
    return metrics
