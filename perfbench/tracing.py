"""Spans around the calls from the benchmark into each bellwire layer.

The library is not instrumented; instead `Tracer.installed()` swaps the
public callables for wrappers at every name through which they are
reached, and restores them on exit:

* `lp.solve_lp` is reached through the `lp` module global (by
  `lp_feasible`, hence by `geometry.is_local`) and through the name
  `monotones` bound at import;
* `monotones` also binds `local_vertex_matrix` and the `apply_*`
  wiring functions by name, and the audits dispatch through the
  function objects stored in `monotones.QUANTIFIERS` (and through the
  module global `s_uc` for "suc"). `monotonicity_audit` itself is
  not wrapped, so the quantifier calls it makes are spans of their own
  under the unit and count as calls into `monotones`;
* `_epigraph_lambda` imports `scipy.optimize.minimize` at call time, so
  the attribute of `scipy.optimize` is the one to wrap.

Spans are kept in memory as tuples (id, parent, unit, name, start, end,
extra) and written once, after the run. A layer's self time is the sum
of its spans' durations minus the time their direct child spans cover;
everything is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: layer of each span name; "unit" is the benchmark's own root span
LAYER_OF = {
    "unit": "bench",
    "lp.solve_lp": "lp",
    "geometry.is_local": "geometry",
    "geometry.vertex_matrix": "geometry",
    "monotones.s_nl": "monotones",
    "monotones.s_c": "monotones",
    "monotones.s_u": "monotones",
    "monotones.s_uc": "monotones",
    "scipy.minimize": "scipy",
    "wirings.apply": "wirings",
    "divergence": "divergence",
}

LAYERS = ("lp", "geometry", "monotones", "scipy", "wirings", "divergence")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit: int | None = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, extra=None):
        """A callable that records a span around `fn` while a unit is
        open. `extra(args, kwargs, result_or_None, exc_or_None)` returns
        the per-call counts stored with the span."""

        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [sid, parent, self.unit, name, time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(sid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[6] = {"error": type(exc).__name__}
                if extra is not None:
                    span[6].update(extra(args, kwargs, None, exc))
                raise
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
                if span[6] is None:
                    span[6] = extra(args, kwargs, result, None) if extra else {}

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def unit_span(self, unit_id: int):
        self.unit = unit_id
        sid = len(self.spans)
        span = [sid, None, unit_id, "unit", time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack = [sid]
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._stack = []
            self.unit = None

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        import scipy.optimize

        import bellwire
        from bellwire import divergence, geometry, lp, monotones, wirings

        def lp_extra(args, kwargs, res, exc):
            A = args[1] if len(args) > 1 else kwargs["A"]
            m, n = A.shape
            out = {"cells": (m + 1) * (n + m + 1)}
            if res is not None:
                out["pivots"] = res.iterations
            return out

        def is_local_extra(args, kwargs, res, exc):
            out = {"pivot": kwargs.get("pivot", args[2] if len(args) > 2 else "bland")}
            if res is not None:
                out["pivots"] = res.lp_iterations
            return out

        def monotone_extra(args, kwargs, res, exc):
            return {"iterations": res.iterations} if res is not None else {}

        def minimize_extra(args, kwargs, res, exc):
            return {"nfev": int(res.nfev)} if res is not None else {}

        originals = {
            "solve_lp": lp.solve_lp,
            "is_local": geometry.is_local,
            "vertex_matrix": geometry.local_vertex_matrix,
            "s_nl": monotones.s_nl,
            "s_c": monotones.s_c,
            "s_u": monotones.s_u,
            "s_uc": monotones.s_uc,
            "minimize": scipy.optimize.minimize,
            "apply_gw": wirings.apply_gw,
            "apply_losr": wirings.apply_losr,
            "apply_uclosr": wirings.apply_uclosr,
            "apply_wpicc": wirings.apply_wpicc,
            "behavior_re": divergence.behavior_re,
            "conditional_re": divergence.conditional_re,
        }
        quantifiers = dict(monotones.QUANTIFIERS)
        w = self.wrap
        wrapped = {
            "solve_lp": w("lp.solve_lp", originals["solve_lp"], lp_extra),
            "is_local": w("geometry.is_local", originals["is_local"], is_local_extra),
            "vertex_matrix": w("geometry.vertex_matrix", originals["vertex_matrix"]),
            "minimize": w("scipy.minimize", originals["minimize"], minimize_extra),
        }
        for q in ("s_nl", "s_c", "s_u", "s_uc"):
            wrapped[q] = w(f"monotones.{q}", originals[q], monotone_extra)
        for a in ("apply_gw", "apply_losr", "apply_uclosr", "apply_wpicc"):
            wrapped[a] = w("wirings.apply", originals[a])
        for d in ("behavior_re", "conditional_re"):
            wrapped[d] = w("divergence", originals[d])

        # every (module, attribute, key) through which a layer is reached
        sites = [
            (lp, "solve_lp", "solve_lp"),
            (monotones, "solve_lp", "solve_lp"),
            (geometry, "is_local", "is_local"),
            (bellwire, "is_local", "is_local"),
            (geometry, "local_vertex_matrix", "vertex_matrix"),
            (monotones, "local_vertex_matrix", "vertex_matrix"),
            (bellwire, "local_vertex_matrix", "vertex_matrix"),
            (scipy.optimize, "minimize", "minimize"),
        ]
        for q in ("s_nl", "s_c", "s_u", "s_uc"):
            sites += [(monotones, q, q), (bellwire, q, q)]
        for a in ("apply_gw", "apply_losr", "apply_uclosr", "apply_wpicc"):
            sites += [(wirings, a, a), (monotones, a, a), (bellwire, a, a)]
        for d in ("behavior_re", "conditional_re"):
            sites += [(divergence, d, d), (bellwire, d, d)]

        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
        try:
            for mod, attr, key in sites:
                setattr(mod, attr, wrapped[key])
            for name, fn in quantifiers.items():
                key = fn.__name__
                monotones.QUANTIFIERS[name] = wrapped[key]
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            monotones.QUANTIFIERS.clear()
            monotones.QUANTIFIERS.update(quantifiers)

    # -- aggregation -------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer counts and times over all recorded spans."""
        spans = self.spans
        for s in spans:
            if s[5] is None:  # the budget alarm hit a wrapper mid-exit
                s[5] = s[4]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]

        def layer(s):
            return LAYER_OF[s[3]]

        def entered(s):
            # a call into the layer, not a nested call within it
            return s[1] is None or layer(spans[s[1]]) != layer(s)

        self_s = {name: 0.0 for name in LAYERS + ("bench",)}
        for s in spans:
            self_s[layer(s)] += (s[5] - s[4]) - child_time[s[0]]

        def total(name, key=None, pred=lambda s: True):
            out = 0.0
            for s in spans:
                if s[3] == name and pred(s):
                    out += (s[5] - s[4]) if key is None else s[6].get(key, 0)
            return out

        def calls(name, pred=lambda s: True):
            return sum(1 for s in spans if s[3] == name and entered(s) and pred(s))

        failed = lambda s: "error" in s[6]  # noqa: E731
        unit_wall = total("unit")
        lp_s = total("lp.solve_lp")
        pivots = total("lp.solve_lp", "pivots")
        mb = sum(s[6].get("pivots", 0) * s[6]["cells"] * 8 * 2
                 for s in spans if s[3] == "lp.solve_lp") / 1e6
        fw_iter = sum(s[6].get("iterations", 0) for s in spans
                      if s[3].startswith("monotones.s_") and entered(s))
        quant_s = sum(total(f"monotones.{q}", pred=entered)
                      for q in ("s_nl", "s_c", "s_u", "s_uc"))
        out = {
            "lp.calls": calls("lp.solve_lp"),
            "lp.s": lp_s,
            "lp.pivots": pivots,
            "lp.pivots_per_s": pivots / lp_s if lp_s > 0 else 0.0,
            "lp.failed": calls("lp.solve_lp", failed),
            "lp.mb_moved": mb,
            "geometry.is_local.calls": calls("geometry.is_local"),
            "geometry.is_local.self_s": sum(
                (s[5] - s[4]) - child_time[s[0]] for s in spans
                if s[3] == "geometry.is_local"),
            "geometry.is_local.pivots_bland": total(
                "geometry.is_local", "pivots", lambda s: s[6]["pivot"] == "bland"),
            "geometry.is_local.pivots_dantzig": total(
                "geometry.is_local", "pivots", lambda s: s[6]["pivot"] == "dantzig"),
            "geometry.is_local.over_budget": calls(
                "geometry.is_local", lambda s: s[6].get("error") == "BudgetExceeded"),
            "geometry.vertex_matrix.s": total("geometry.vertex_matrix"),
        }
        for q in ("s_nl", "s_c", "s_u"):
            out[f"monotones.{q}.calls"] = calls(f"monotones.{q}")
            out[f"monotones.{q}.s"] = total(f"monotones.{q}", pred=entered)
        out.update({
            "monotones.self_s": self_s["monotones"],
            "monotones.fw_iterations": fw_iter,
            "monotones.fw_iterations_per_s": fw_iter / quant_s if quant_s > 0 else 0.0,
            "monotones.failed": sum(
                calls(f"monotones.{q}", failed) for q in ("s_nl", "s_c", "s_u", "s_uc")),
            "scipy.minimize.calls": calls("scipy.minimize"),
            "scipy.minimize.s": total("scipy.minimize"),
            "scipy.minimize.nfev": total("scipy.minimize", "nfev"),
            "wirings.apply.calls": calls("wirings.apply"),
            "wirings.apply.s": total("wirings.apply", pred=entered),
            "divergence.calls": calls("divergence"),
            "divergence.s": total("divergence", pred=entered),
        })
        for name in LAYERS:
            out[f"{name}.share"] = self_s[name] / unit_wall if unit_wall > 0 else 0.0
        out["trace.accounted_frac"] = (
            sum(self_s[name] for name in LAYERS) / unit_wall if unit_wall > 0 else 0.0
        )
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "parent": s[1], "unit": s[2], "name": s[3],
                    "start": s[4], "end": s[5], **s[6],
                }) + "\n")
