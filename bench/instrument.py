"""Counting and tracing wrappers around evuas' public layer functions.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces each public function or method wherever the package binds it,
and ``uninstall`` puts every original back.  Two levels:

* counting (``timed=False``, used by every timed run): the work-count
  fingerprint -- integrator steps, rejections and RHS calls (read from
  ``Trajectory.diagnostics``), Newton solves, iterations and failures,
  quadrature calls and verify samples.  No clock is read on the hot
  paths, so the cost is one extra Python call per Newton solve and
  per Jacobian.
* tracing (``timed=True``, used by ``--trace 1``): every wrapped call is
  also timed.  Calls at layer boundaries become spans (name, start, end,
  parent span, op id); hot inner calls (RHS, Newton, Jacobian,
  disturbance and signal evaluation) are summed as count and time under
  their parent span instead of being kept one span each.

Per name the tracer keeps calls, inclusive time and self time (inclusive
minus the time of wrapped calls made inside it).
"""

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import evuas.scenarios  # noqa: F401  (binds the names it imports)
from evuas.diminishing import SignalAdapter
from evuas.errors import NewtonError
from evuas.model import PerturbationSpec
from evuas.synthesis import ImplicitController

# names whose time counts as scenario artifact I/O
IO_NAMES = ("trajectory_to_csv", "diagnostics_to_json", "line_plot")

# counts that must repeat exactly between runs of the same inputs
FINGERPRINT_KEYS = ("integrate.calls", "integrate.steps", "integrate.rejected",
                    "integrate.rhs_calls", "newton.solves",
                    "newton.iterations", "newton.failures", "quad.calls",
                    "verify.samples", "verify.sim_failures")


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "evuas"
                                    or name.startswith("evuas."))]


class Instrument:
    """Counters (and, when timed, spans and per-name times) for one run."""

    def __init__(self, timed):
        self.timed = timed
        self.counts = Counter()
        self.stats = {}            # name -> [calls, inclusive s, self s]
        self.spans = []
        self.op = None             # id shared by the spans of one op
        self._frames = []          # [child seconds] per open timed call
        self._open_spans = []
        self._newton_depth = 0
        self._patches = []
        self._origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, span=False):
        """Run fn(*args, **kwargs), timed under ``name`` when tracing."""
        kwargs = kwargs or {}
        if not self.timed:
            return fn(*args, **kwargs)
        frame = [0.0]
        record = None
        if span:
            parent = self._open_spans[-1]["id"] if self._open_spans else None
            record = {"id": len(self.spans), "parent": parent, "name": name,
                      "op": self.op, "hot": {}}
            self.spans.append(record)
            self._open_spans.append(record)
        self._frames.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._frames.pop()
            if self._frames:
                self._frames[-1][0] += elapsed
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[0]
            if record is not None:
                self._open_spans.pop()
                record["start"] = start - self._origin
                record["end"] = record["start"] + elapsed
            elif self._open_spans:
                hot = self._open_spans[-1]["hot"].setdefault(name, [0, 0.0])
                hot[0] += 1
                hot[1] += elapsed

    def _hot(self, name, fn):
        def hot(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return hot

    def _spanned(self, name, fn):
        def spanned(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span=True)
        return spanned

    def take(self):
        """Counts and stats gathered since the last take; resets both."""
        counts, stats = self.counts, self.stats
        self.counts, self.stats = Counter(), {}
        return counts, stats

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr, make):
        # by module name: the package attribute ``evuas.integrate`` is the
        # function, not the module
        orig = getattr(sys.modules[module], attr)
        new = functools.wraps(orig)(make(orig))
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, new)

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, functools.wraps(orig)(make(orig)))

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def install(self):
        """Wrap the layers' public functions; returns self."""
        if self._patches:
            raise RuntimeError("instrument is already installed")
        call = self.call
        timed = self.timed

        def make_integrate(orig):
            def integrate(rhs, *args, **kwargs):
                if timed:
                    rhs = self._hot("rhs", rhs)
                traj = call("integrate", orig, (rhs,) + args, kwargs,
                            span=True)
                diag = traj.diagnostics
                c = self.counts
                c["integrate.calls"] += 1
                c["integrate.steps"] += diag["n_accepted"]
                c["integrate.rejected"] += diag["n_rejected"]
                c["integrate.rhs_calls"] += diag["n_rhs"]
                return traj
            return integrate

        def make_solver(orig):
            def solve(ctrl, *args, **kwargs):
                self.counts["newton.solves"] += 1
                self._newton_depth += 1
                try:
                    return call("newton", orig, (ctrl,) + args, kwargs)
                except NewtonError:
                    self.counts["newton.failures"] += 1
                    raise
                finally:
                    self._newton_depth -= 1
            return solve

        def make_jacobian(orig):
            def jacobian_F_U(model, x, u):
                if self._newton_depth:
                    self.counts["newton.iterations"] += 1
                return call("jacobian_F_U", orig, (model, x, u))
            return jacobian_F_U

        def make_window(orig):
            def count_points(fn):
                def signal(ts):
                    self.counts["quad.signal_points"] += int(np.size(ts))
                    return call("signal", fn, (ts,))
                return signal

            def window_integral_sup(h, *args, **kwargs):
                self.counts["quad.calls"] += 1
                if not timed:
                    return orig(h, *args, **kwargs)
                if not isinstance(h, SignalAdapter):
                    return call("window_integral_sup", orig,
                                (count_points(h),) + args, kwargs, span=True)
                inner = h.h
                h.h = count_points(inner)
                try:
                    return call("window_integral_sup", orig, (h,) + args,
                                kwargs, span=True)
                finally:
                    h.h = inner
            return window_integral_sup

        def make_verify(orig):
            def verify_evuas(sim, *args, **kwargs):
                if timed:
                    sim = self._spanned("verify.factory", sim)
                report = call("verify_evuas", orig, (sim,) + args, kwargs,
                              span=True)
                c = self.counts
                c["verify.samples"] += report.samples
                c["verify.sim_failures"] += len(report.sim_failures)
                return report
            return verify_evuas

        self._patch_function("evuas.integrate", "integrate", make_integrate)
        self._patch_method(ImplicitController, "solve", make_solver)
        self._patch_method(ImplicitController, "solve_shifted", make_solver)
        self._patch_function("evuas.model", "jacobian_F_U", make_jacobian)
        self._patch_function("evuas.diminishing", "window_integral_sup",
                             make_window)
        self._patch_function("evuas.verify", "verify_evuas", make_verify)
        if timed:
            self._patch_method(PerturbationSpec, "evaluate",
                               lambda orig: self._hot("pert.evaluate", orig))
            for module, attr, name in (
                    ("evuas.diminishing", "classify", "classify"),
                    ("evuas.synthesis", "synthesize_feedback", "synthesize"),
                    ("evuas.synthesis", "linearize_and_place", "synthesize"),
                    ("evuas.simulate", "trajectory_to_csv", IO_NAMES[0]),
                    ("evuas.simulate", "diagnostics_to_json", IO_NAMES[1]),
                    ("evuas.svgplot", "line_plot", IO_NAMES[2])):
                self._patch_function(
                    module, attr,
                    lambda orig, name=name: self._spanned(name, orig))
        return self

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
