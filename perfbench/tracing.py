"""Tracer for the benchmark's traced runs, installed from outside ``src/``.

``Tracer.install`` wraps the public functions of the tfmotion modules and
patches each wrapper into every namespace that imported the function (for
example ``stable.kernel`` and ``dependence.kernel_h``).  Two kinds of wrapper
exist:

- span functions (coarse entry points, few calls) record one span each:
  name, start, end, parent span and invocation id;
- hot functions (scalar special functions and kernels, up to millions of
  calls) only update in-memory aggregates: calls, total and self time.

Self time is a call's duration minus the part of that interval its wrapped
children cover.  Hot children are disjoint in time within one thread, so
their durations are summed; a span's children from worker threads may
overlap each other, so their intervals are merged (``self_times``).  A worker
thread's outermost wrapped call is a child of the innermost span open on the
main thread, which is waiting for the workers at that time.

``scipy.integrate.quad`` and ``numpy.linalg.cholesky`` are only counted: their
time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

_perf = time.perf_counter

# wrapped functions that record spans; every other wrapped function is hot
SPANS = frozenset({
    "cli.main", "cli.emit",
    "gaussian.simulate_gaussian_paths", "gaussian.build_cov_matrix",
    "gaussian.cholesky", "gaussian.covariance_tfbm2",
    "gaussian.tfgn1_spectral_density", "gaussian.tfgn2_spectral_density",
    "gaussian.tfgn2_acvf", "gaussian.matern_cov_integral",
    "stable.simulate_tfsm_paths", "stable.kernel_node_table",
    "stable.c0_scale", "stable.integral_char_fn", "stable.node_scale_skew",
    "dependence.decay_diagnostic", "dependence.codifference",
    "dependence.noise_alpha_norm", "dependence.r_fn",
    "dependence.global_limit_check", "dependence.local_limit_check",
    "dependence.fsm_norm_limit", "dependence.global_limit_constant",
    "kernels.kernel_alpha_norm",
})

# one-line helpers left unwrapped: their time is their callers' self time
INLINED = frozenset({"kernels.plus_pow", "specfun.log_gamma",
                     "specfun.reg_lower_gamma", "specfun.reg_upper_gamma"})

# the CLI's command functions are not wrapped: their row building stays in
# the self time of cli.main
CLI_FUNCTIONS = {"main": "cli.main", "_emit": "cli.emit"}
SIMULATORS = ("stable.simulate_tfsm_paths", "gaussian.simulate_gaussian_paths")
MEMOIZED = ("stable.kernel_node_table", "gaussian.build_cov_matrix")


class TraceError(RuntimeError):
    """The wrapped call structure broke an assumption of the self-time rule."""


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its hot children's summed
    time (``hot_s``) and minus the union of its child spans' intervals and
    cross-thread hot intervals (``xint``)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - s["hot_s"]
            - union_length(children[s["id"]] + [tuple(iv) for iv in s["xint"]])
            for s in spans}


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self):
        self.stack = []  # hot frames are [child_s] lists, span frames dicts
        self.agg = {}    # name -> [calls, total_s, self_s]


class Tracer:
    def __init__(self, invocation: int = 0):
        self.invocation = invocation
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_spans: list[dict] = []  # spans open on the main thread
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.sim_calls: list[tuple] = []  # (wrapper, args, kwargs)
        self.memo: dict[str, object] = {}
        self.replay = False

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState()
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _adopter(self):
        """Innermost open main-thread span, parent of a worker thread's
        outermost wrapped call."""
        if threading.current_thread() is self._main or not self._main_spans:
            return None
        return self._main_spans[-1]

    # -- wrappers ----------------------------------------------------------

    def _hot(self, name: str, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    parent = stack[-1]
                    if parent.__class__ is list:
                        parent[0] += dt
                    else:
                        parent["hot_s"] += dt
                else:
                    owner = self._adopter()
                    if owner is not None:
                        with self._lock:
                            owner["xint"].append((t0, t0 + dt))
        return wrapper

    def _counted(self, name: str, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = state().agg.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name: str, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.replay and name in self.memo:
                return self.memo[name]
            stack = state().stack
            if stack and stack[-1].__class__ is list:
                raise TraceError(f"span {name} opened inside a hot function")
            on_main = threading.current_thread() is self._main
            parent = stack[-1] if stack else self._adopter()
            rec = {"id": next(self._ids), "name": name,
                   "parent": None if parent is None else parent["id"],
                   "inv": self.invocation, "start": _perf(), "end": None,
                   "hot_s": 0.0, "xint": []}
            stack.append(rec)
            if on_main:
                self._main_spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = _perf()
                stack.pop()
                if on_main:
                    self._main_spans.pop()
                with self._lock:
                    self.spans.append(rec)
            self._after(name, wrapper, args, kwargs, result)
            return result
        return wrapper

    def _after(self, name, wrapper, args, kwargs, result) -> None:
        if name == "cli.emit":
            path, rows = args[0], args[5]
            self.counters["cli.rows"] += len(rows)
            if path not in (None, "-"):
                self.counters["cli.out_bytes"] += os.path.getsize(path)
        elif name == "stable.kernel_node_table":
            self.counters["stable.kernel_node_table.entries"] += int(result.size)
        if name in MEMOIZED:
            self.memo[name] = result
        if name in SIMULATORS and not self.replay:
            self.sim_calls.append((wrapper, args, kwargs))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the tfmotion modules in place."""
        import numpy.linalg
        import scipy.integrate
        import tfmotion
        from tfmotion import cli, dependence, gaussian, kernels, specfun, stable

        wrappers = {}
        for mod in (specfun, kernels, gaussian, stable, dependence):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in INLINED:
                    continue
                wrappers[obj] = (self._span(name, obj) if name in SPANS
                                 else self._hot(name, obj))
        for attr, name in CLI_FUNCTIONS.items():
            obj = getattr(cli, attr)
            wrappers[obj] = self._span(name, obj)
        for ns in (tfmotion, specfun, kernels, gaussian, stable, dependence, cli):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
        cm = gaussian.CovarianceMatrix
        cm.cholesky = self._span("gaussian.cholesky", cm.cholesky)
        scipy.integrate.quad = self._counted("quad", scipy.integrate.quad)
        numpy.linalg.cholesky = self._counted("numpy.linalg.cholesky",
                                              numpy.linalg.cholesky)

    # -- results -----------------------------------------------------------

    def collect(self) -> tuple[dict, list]:
        """Aggregates {name: [calls, total_s, self_s]} and spans recorded
        since the last collect; resets both."""
        agg: dict[str, list] = {}
        for st in self._states:
            for name, rec in st.agg.items():
                acc = agg.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += rec[k]
            st.agg = {}
        spans, self.spans = self.spans, []
        selfs = self_times(spans)
        for s in spans:
            acc = agg.setdefault(s["name"], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += s["end"] - s["start"]
            acc[2] += selfs[s["id"]]
            s["self_s"] = selfs[s["id"]]
        return agg, spans

    def rerun_single_worker(self) -> None:
        """Call each simulator again with n_workers=1.  The kernel table and
        covariance matrix are reused from the first call, so only the
        sampling and its fan-out run again."""
        self.replay = True
        try:
            for wrapper, args, kwargs in self.sim_calls:
                wrapper(*args, **{**kwargs, "n_workers": 1})
        finally:
            self.replay = False

    def report(self) -> dict:
        """Aggregates and spans of the command, then of the single-worker
        reruns (names suffixed ``.w1``)."""
        agg, spans = self.collect()
        self.rerun_single_worker()
        agg_w1, spans_w1 = self.collect()
        for s in spans_w1:
            s["name"] += ".w1"
        agg.update({k + ".w1": v for k, v in agg_w1.items()})
        return {"agg": agg, "counters": dict(self.counters),
                "spans": spans + spans_w1}
