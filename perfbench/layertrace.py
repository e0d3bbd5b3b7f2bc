"""Span tracing at gridfreq's layer boundaries, from outside the package.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` and
rebinds every name in every loaded ``gridfreq`` module that refers to the
original function (``simulator.rk4_segment``, ``stability.assemble_affine``,
``cli.optimal_dispatch`` and so on), so calls between modules are seen too.
Names that do not exist in the tree being measured are skipped. Spans are
kept in memory as tuples and analysed (durations, self time, counts) after
the run; ``uninstall()`` restores the original bindings.
"""
from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rk4_extra(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 4, "n_steps")),
            "dim": int(_arg(args, kwargs, 2, "x").shape[0])}


def _integrate_extra(args, kwargs, result):
    return {"records": len(result)}


def _csv_extra(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "traj")),
            "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _identity_extra(args, kwargs, result):
    return {"failed": int(not math.isfinite(result.max_residual))}


# (module, function, extractor of counts from the call)
LAYERS = (
    ("kernels", "rk4_segment", _rk4_extra),
    ("simulator", "integrate", _integrate_extra),
    ("simulator", "derivative", None),
    ("simulator", "assemble_affine", None),
    ("simulator", "convergence_time", None),
    ("simulator", "write_trajectory_csv", _csv_extra),
    ("controllers", "init_artificial", None),
    ("stability", "assemble_state_matrix", None),
    ("stability", "spectrum", None),
    ("stability", "check_sufficient_multi_node", None),
    ("stability", "characteristic_identity_check", _identity_extra),
    ("dispatch", "optimal_dispatch", None),
    ("model", "load_scenario", None),
    ("model", "validate", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, job, extra)
        self.job = None
        self._stack = []
        self._patched = []       # (module, attribute, original)
        self.missing = []

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                info = extra(args, kwargs, result) if extra and done else None
                spans[idx] = (name, start, end, parent, self.job, info)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gridfreq" or key.startswith("gridfreq."))]
        for modname, fname, extra in LAYERS:
            name = f"{modname}.{fname}"
            try:
                orig = getattr(importlib.import_module(f"gridfreq.{modname}"), fname)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def clear(self) -> None:
        self.spans.clear()

    def summary(self) -> dict:
        """Per layer: calls, total time, self time and summed counts."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, _, _, info) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[k]
            for key, val in (info or {}).items():
                if key == "dim":
                    continue
                row[key] += val
            if name == "kernels.rk4_segment" and info:
                # computed, not measured: 4 matvecs (2 d^2 flops, reading A
                # once each) plus 16 vector flops and 22 vector reads or
                # writes per step, 8-byte floats
                d, steps = info["dim"], info["steps"]
                row["flop_computed"] += steps * (8 * d * d + 16 * d)
                row["bytes_computed"] += steps * 8 * (4 * d * d + 22 * d)
        return out
