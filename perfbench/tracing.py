"""In-memory span tracer that wraps oegap's functions where their callers look them up.

``Tracer.install`` replaces every module-level reference to a traced
function inside the ``oegap`` package with a wrapper that records one span
(name, start, end, parent) per call.  Dataclass constructors are traced
through ``__post_init__``, the click commands through their callbacks, and
the solvers that ``oegap.optimize`` calls through proxies of the ``scipy``
and ``np`` names in that module only.  Spans stay in memory until
``Tracer.write`` saves them; ``Tracer.metrics`` folds them into per-layer
figures.  End-to-end figures never come from a traced run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from array import array

import numpy as np

# layer name -> (module, attribute); calls, inclusive time and self time are kept for each
FUNCTIONS = {
    "core.partial_trace": ("oegap.core", "partial_trace"),
    "core.embed": ("oegap.core", "embed"),
    "core.permute_subsystems": ("oegap.core", "permute_subsystems"),
    "core.schmidt": ("oegap.core", "schmidt"),
    "entropy.entropy_from_stats": ("oegap.entropy", "entropy_from_stats"),
    "entropy.shannon": ("oegap.entropy", "shannon"),
    "entropy.observational_entropy": ("oegap.entropy", "observational_entropy"),
    "entropy.von_neumann": ("oegap.entropy", "von_neumann"),
    "entropy.chain_entropy": ("oegap.entropy", "chain_entropy"),
    "entropy.recovery_bounds": ("oegap.entropy", "recovery_bounds"),
    "entropy.certify_optimal": ("oegap.entropy", "certify_optimal"),
    "classes.lostar_povm": ("oegap.classes", "lostar_povm"),
    "classes.lo_povm": ("oegap.classes", "lo_povm"),
    "classes.flatten_locc": ("oegap.classes", "flatten_locc"),
    "classes.rank1_refine": ("oegap.classes", "rank1_refine"),
    "classes.product_vector_factors": ("oegap.classes", "product_vector_factors"),
    "optimize.minimize_lostar": ("oegap.optimize", "minimize_lostar"),
    "optimize.minimize_lo": ("oegap.optimize", "minimize_lo"),
    "optimize.minimize_locc_oneway": ("oegap.optimize", "minimize_locc_oneway"),
    "optimize.sep_gap_heuristic": ("oegap.optimize", "sep_gap_heuristic"),
    "optimize.cq_gap": ("oegap.optimize", "cq_gap"),
    "optimize.ppt_gap_w3": ("oegap.optimize", "ppt_gap_w3"),
    "partitions.scan_partitions": ("oegap.partitions", "scan_partitions"),
    "partitions.robustness_scan": ("oegap.partitions", "robustness_scan"),
}
CONSTRUCTORS = {
    "core.DensityMatrix": ("oegap.core", "DensityMatrix"),
    "core.Povm": ("oegap.core", "Povm"),
}
COMMANDS = {
    "cli.scan": ("oegap.cli", "scan"),
    "cli.robustness": ("oegap.cli", "robustness"),
}
MINIMIZERS = ("optimize.minimize_lostar", "optimize.minimize_lo",
              "optimize.minimize_locc_oneway", "optimize.sep_gap_heuristic")
NNLS_REJECT = 1e-10  # residual above which both nnls callers in optimize discard the solve

# per-layer metrics reported by a traced run: (name, unit, source)
#   ("calls", layer) span count, ("s", layer) inclusive seconds, ("self_s", layer) self seconds,
#   ("counter", key) a count kept by a wrapper, ("bench", key) a figure the benchmark measures
PER_LAYER = (
    [(f"{n}.{k}", "count" if k == "calls" else "s", (k, n))
     for n in ("core.partial_trace", "core.embed", "core.permute_subsystems",
               "core.DensityMatrix", "core.Povm")
     for k in ("calls", "s")]
    + [("core.schmidt.calls", "count", ("calls", "core.schmidt"))]
    + [(f"{n}.{k}", "count" if k == "calls" else "s", (k, n))
       for n in ("entropy.entropy_from_stats", "entropy.shannon", "entropy.observational_entropy",
                 "entropy.von_neumann", "entropy.chain_entropy")
       for k in ("calls", "s")]
    + [(f"{n}.s", "s", ("s", n)) for n in ("entropy.recovery_bounds", "entropy.certify_optimal")]
    + [(f"{n}.{k}", "count" if k == "calls" else "s", (k, n))
       for n in ("classes.lostar_povm", "classes.lo_povm", "classes.flatten_locc",
                 "classes.rank1_refine", "classes.product_vector_factors")
       for k in ("calls", "s")]
    + [(f"{n}.{k}", "count" if k == "calls" else "s", (k, n))
       for n in MINIMIZERS for k in ("calls", "self_s")]
    + [(f"{n}.self_s", "s", ("self_s", n)) for n in ("optimize.cq_gap", "optimize.ppt_gap_w3")]
    + [("optimize.polish.calls", "count", ("calls", "optimize.polish")),
       ("optimize.polish.nfev", "count", ("counter", "optimize.polish.nfev")),
       ("optimize.polish.nit", "count", ("counter", "optimize.polish.nit")),
       ("optimize.polish.s", "s", ("s", "optimize.polish")),
       ("optimize.polish.cap_hits", "count", ("counter", "optimize.polish.cap_hits")),
       ("optimize.nnls.calls", "count", ("calls", "optimize.nnls")),
       ("optimize.nnls.rejected", "count", ("counter", "optimize.nnls.rejected")),
       ("optimize.linalg_qr.calls", "count", ("counter", "optimize.linalg_qr.calls")),
       ("optimize.linalg_eigh.calls", "count", ("counter", "optimize.linalg_eigh.calls"))]
    + [(f"{n}.self_s", "s", ("self_s", n))
       for n in ("partitions.scan_partitions", "partitions.robustness_scan")]
    + [("partitions.minimizer_calls", "count", ("counter", "partitions.minimizer_calls")),
       ("partitions.fast_path_hits", "count", ("counter", "partitions.fast_path_hits"))]
    + [(f"{n}.self_s", "s", ("self_s", n)) for n in ("cli.scan", "cli.robustness")]
    + [("states.build_s", "s", ("bench", "states.build_s")),
       ("trace.overhead_s", "s", ("bench", "trace.overhead_s"))]
)


class Tracer:
    """Spans kept in flat arrays: name id, start, end, parent span index (-1 at the root)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, nid: int) -> int:
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def wrap(self, name: str, fn, on_enter=None, on_result=None):
        """Wrapper recording one span per call of ``fn``."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(self.nid[self._stack[-1]] if self._stack else -1)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if on_result is not None:
                on_result(kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around the benchmark's own code."""
        nid = self._id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every oegap module global that holds ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "oegap" or modname.startswith("oegap.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        import oegap.cli  # noqa: F401  (loads every oegap module)

        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            hooks = {}
            if name in MINIMIZERS:
                hooks["on_enter"] = self._minimizer_enter
            elif name == "core.schmidt":
                hooks["on_enter"] = self._schmidt_enter
            self._replace_everywhere(original, self.wrap(name, original, **hooks))
        for name, (modname, attr) in CONSTRUCTORS.items():
            cls = getattr(sys.modules[modname], attr)
            self._set(cls, "__post_init__", self.wrap(name, cls.__post_init__))
        for name, (modname, attr) in COMMANDS.items():
            command = getattr(sys.modules[modname], attr)
            self._set(command, "callback", self.wrap(name, command.callback))
        self._install_solver_proxies(sys.modules["oegap.optimize"])

    def _install_solver_proxies(self, optimize) -> None:
        real_scipy = optimize.scipy
        real_opt = real_scipy.optimize
        opt_proxy = types.ModuleType(real_opt.__name__)
        opt_proxy.__dict__.update(vars(real_opt))
        opt_proxy.minimize = self.wrap("optimize.polish", real_opt.minimize,
                                       on_result=self._polish_result)
        opt_proxy.nnls = self.wrap("optimize.nnls", real_opt.nnls, on_result=self._nnls_result)
        scipy_proxy = types.ModuleType(real_scipy.__name__)
        scipy_proxy.__dict__.update(vars(real_scipy))
        scipy_proxy.optimize = opt_proxy
        self._set(optimize, "scipy", scipy_proxy)

        real_np = optimize.np
        lin_proxy = types.ModuleType(real_np.linalg.__name__)
        lin_proxy.__dict__.update(vars(real_np.linalg))
        lin_proxy.qr = self._counting("optimize.linalg_qr.calls", real_np.linalg.qr)
        lin_proxy.eigh = self._counting("optimize.linalg_eigh.calls", real_np.linalg.eigh)
        np_proxy = types.ModuleType(real_np.__name__)
        np_proxy.__dict__.update(vars(real_np))
        np_proxy.linalg = lin_proxy
        self._set(optimize, "np", np_proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _counting(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _minimizer_enter(self, parent_nid: int) -> None:
        if parent_nid >= 0 and self.names[parent_nid].startswith("partitions."):
            self.count("partitions.minimizer_calls")

    def _schmidt_enter(self, parent_nid: int) -> None:
        # the Schmidt fast path is the only caller of schmidt inside a scan
        if parent_nid >= 0 and self.names[parent_nid] == "partitions.scan_partitions":
            self.count("partitions.fast_path_hits")

    def _polish_result(self, kwargs, res) -> None:
        self.count("optimize.polish.nfev", int(getattr(res, "nfev", 0)))
        nit = int(getattr(res, "nit", 0) or 0)
        self.count("optimize.polish.nit", nit)
        maxiter = (kwargs.get("options") or {}).get("maxiter")
        used = nit if nit else int(getattr(res, "nfev", 0))
        if maxiter is not None and used >= maxiter:
            self.count("optimize.polish.cap_hits")

    def _nnls_result(self, kwargs, res) -> None:
        if float(res[1]) > NNLS_REJECT:
            self.count("optimize.nnls.rejected")

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans), self seconds."""
        nid = np.frombuffer(self.nid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(nid))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(nid, weights=self_time, minlength=k)
        return {
            name: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def metrics(self, rounds: int, bench: dict[str, float]) -> dict[str, dict]:
        """Per-layer metrics per traced round, named as in ``PER_LAYER``."""
        totals = self.totals()
        out = {}
        for metric, unit, (kind, key) in PER_LAYER:
            if kind == "bench":
                value = bench[key]
            elif kind == "counter":
                value = self.counters.get(key, 0) / rounds
            else:
                value = totals.get(key, {}).get(kind, 0.0) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Save the spans as arrays: name (index into names), start, end, parent."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.nid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
