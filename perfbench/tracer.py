"""Outside-in span tracing of the `unlinked` package.

`Tracer.installed()` rebinds, for the duration of a `with` block, every
public function of the measured modules to a wrapper that records one span
per call: name, start, end and parent span.  The rebinding covers every
name under which a package module holds the function, because modules
import each other's functions by name (`repair` does
`from .covkernel import chol_factor, chol_solve, log_det`); patching only
`covkernel.chol_factor` would leave the fit's Cholesky calls uncounted.

Spans live in flat in-memory arrays and are written out once, by `save`,
when the run ends.  A few counters are read from returned values (the
Sinkhorn residuals, the bytes `PhiNodes` stores, `FitReport` and `GLSFit`
fields, CSV bytes written); nothing inside the package is changed.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "unlinked"
MODULES = ("simulate", "covkernel", "permops", "repair", "bruteforce", "baselines", "bench", "serialize")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}  # span index -> "Type: message"
        self.counters = {
            "sinkhorn_unconverged": 0,
            "sinkhorn_residual_max": 0.0,
            "phinodes": 0,
            "phinodes_bytes": 0,
            "fits": 0,
            "fit_iterations": 0,
            "fits_converged": 0,
            "gls_fits": 0,
            "gls_evals": 0,
            "gls_converged": 0,
            "bytes_written": 0,
        }
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recording a span named `name`; `after(result, args)`
        runs outside the span and may replace the result."""
        nid = self._name_id(name)
        stack, name_of, parent, start, end = self._stack, self.name_of, self.parent, self.start, self.end
        errors, clock = self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                errors[idx] = f"{type(exc).__name__}: {exc}"
                raise
            end[idx] = clock()
            stack.pop()
            return result if after is None else after(result, args)

        traced.__wrapped__ = fn
        return traced

    # -- counters read from returned values ---------------------------------

    def _sinkhorn_result(self, A):
        tol = sys.modules[f"{PACKAGE}.permops"].SINKHORN_TOL
        A = np.asarray(A)
        resid = max(np.abs(A.sum(axis=1) - 1.0).max(), np.abs(A.sum(axis=0) - 1.0).max())
        c = self.counters
        c["sinkhorn_unconverged"] += int(resid > tol)
        c["sinkhorn_residual_max"] = max(c["sinkhorn_residual_max"], float(resid))

    def _after_sinkhorn(self, result, args):
        self._sinkhorn_result(result)
        return result

    def _after_sinkhorn_with_grad(self, result, args):
        A, vjp = result  # the forward result and its VJP closure
        self._sinkhorn_result(A)
        return A, self.wrap("permops.sinkhorn_vjp", vjp)

    def _after_fit(self, report, args):
        c = self.counters
        c["fits"] += 1
        c["fit_iterations"] += int(report.iterations)
        c["fits_converged"] += int(bool(report.converged))
        return report

    def _after_gls(self, res, args):
        c = self.counters
        c["gls_fits"] += 1
        c["gls_evals"] += int(res.n_evals)
        c["gls_converged"] += int(bool(res.converged))
        return res

    def _after_phinodes(self, result, args):
        self.counters["phinodes"] += 1
        self.counters["phinodes_bytes"] += int(args[0].Rinvs.nbytes)
        return result

    def _sized(self, fn):
        """`fn(path, ...)` that adds the bytes it adds to `path` to a counter."""

        def call(path, *args, **kwargs):
            before = os.path.getsize(path) if os.path.exists(path) else 0
            result = fn(path, *args, **kwargs)
            self.counters["bytes_written"] += os.path.getsize(path) - before
            return result

        return call

    def _wrapper_for(self, short: str, attr: str, fn):
        name = f"{short}.{attr}"
        after = {
            "permops.sinkhorn_knopp": self._after_sinkhorn,
            "permops.sinkhorn_knopp_with_grad": self._after_sinkhorn_with_grad,
            "repair.fit": self._after_fit,
            "baselines.full_gp_fit": self._after_gls,
            "baselines.areal_gp_fit": self._after_gls,
        }.get(name)
        if name in ("serialize.append_csv", "serialize.write_csv"):
            return self.wrap(name, self._sized(fn))
        return self.wrap(name, fn, after)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package reference to a public function; restore on exit."""
        pkg = PACKAGE
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"{pkg}.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrapper_for(short, attr, obj))
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != pkg and not modname.startswith(pkg + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        phinodes = getattr(sys.modules[f"{pkg}.repair"], "PhiNodes", None)
        if phinodes is not None:
            init = phinodes.__init__
            patches.append((phinodes, "__init__", init))
            phinodes.__init__ = self.wrap("repair.PhiNodes", init, self._after_phinodes)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def arrays(self):
        """Span name ids, parent indices (-1: none), starts and ends."""
        return (np.array(self.name_of, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start), np.array(self.end))

    def layers(self) -> tuple[dict, float]:
        """{name: (calls, seconds, self seconds)} plus the summed root-span time.

        Self time is a span's duration minus the durations of its child
        spans, so the self times of all spans add up to the root spans'.
        """
        name_of, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=self_t, minlength=k)
        table = {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}
        return table, float(dur[~nested].sum())

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) and recorded error."""
        name_of, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=name_of.astype(np.int32),
            parent=parent.astype(np.int32),
            start=start,
            end=end,
            errors=np.array(json.dumps({str(k): v for k, v in self.errors.items()})),
        )
