"""Windowed-integral decay metric for high-frequency disturbance signals.

The central quantity is, for a time signal h and window start t,

    sup over lambda in [0, 1] of | integral of h from t to t+lambda |.

A signal whose metric tends to zero as t grows can oscillate forever (even
with growing amplitude) yet still be rejected by a feedback loop, so the
analyzer measures exactly this quantity on a grid of window starts and
classifies disturbance terms from the evidence.

The integrand may oscillate at a user-declared angular frequency (constant
or time-varying); the quadrature mesh is seeded at one eighth of the
corresponding period and refined by doubling until the running integral is
reproduced to the requested tolerance.  Blind adaptive schemes stall on
phases like t**4, which is why the hint is threaded through everywhere.

The running integral calls the signal on blocks of 512 panels (4096
times) and reduces each block to its panel sums at once.  A window's peak
memory is therefore one block of signal values, 4096 x dim**2 floats for
a column of a factored W whose D(t) is dim x dim, plus the O(n dim)
running integral over n panels; it does not grow with n times dim**2.
A non-finite signal value raises EvaluationError at its time.

The chirp terms (:class:`ChirpTerm`) here are the form in which the time
signals of :mod:`evuas.perturbations` declare their frequency hint.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, QuadratureBudgetError, ShapeError
from .integrate import _finite, _positive, _real, _step_cap, _time_grid
from .norms import check_norm_id, point_norms, sphere_samples, unit_directions

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)

_DEFAULT_PANELS = 256          # also the minimum lambda-grid density
_MAX_PANELS = 1 << 20          # refinement budget per window
_BLOCK_PANELS = 512            # panels per signal call of the running integral
_GOLDEN_TOL = 1e-8             # lambda resolution of the sup refinement
_DECAY_SLACK = 1.1             # tolerated wobble above the reference bucket
_FINAL_FRACTION = 0.2          # required drop from first to last bucket
_ZVAL = 1e-10                  # "numerically zero" signal magnitude
_VTOL = 1e-6                   # clearly nonzero signal magnitude


class SignalAdapter:
    """A time signal evaluated on a 1-d array of N times, as ``(dim, N)``.

    ``h`` is called once per evaluation on the whole array and returns
    real values (by :func:`evuas.integrate._real`) of shape ``(dim, N)``,
    or ``(N,)`` for a scalar signal; any other values, and a TypeError of
    an ``h`` that takes one float time only (``math.cos``), raise
    ShapeError, whose message opens with ``name``.
    """

    def __init__(self, h, name="time signal"):
        self.h = h
        self.name = name

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        try:
            out = _real(self.h(ts), self.name)
        except TypeError as exc:
            raise ShapeError(f"{self.name}: the callable must take a 1-d "
                             f"array of times; on one it raised TypeError: "
                             f"{exc}") from exc
        if out.shape == ts.shape:
            return out[None, :]
        if out.ndim == 2 and out.shape[1] == ts.size:
            return out
        raise ShapeError(f"{self.name}: expected shape (N,) or (dim, N) "
                         f"on N = {ts.size} times, got {out.shape}")


def _crossing_count(sig, t0, t1):
    """Max sign-change count over components, scanned on 2048 samples."""
    signs = np.sign(_checked(sig, np.linspace(t0, t1, 2048)))
    # carry the previous sign across exact zeros so they do not double-count
    last = np.where(signs != 0.0, np.arange(signs.shape[1]), 0)
    np.maximum.accumulate(last, axis=1, out=last)
    signs = np.take_along_axis(signs, last, axis=1)
    return int(np.max(np.sum(signs[:, 1:] * signs[:, :-1] < 0, axis=1), initial=0))


def _initial_panels(sig, t, freq_hint):
    # the integrator's step cap, probed at the window's ends and middle
    cap = _step_cap(freq_hint)
    step = min(cap(t), cap(t + 0.5), cap(t + 1.0))
    if math.isfinite(step):
        step = min(1.0 / _DEFAULT_PANELS, step)
    else:
        crossings = _crossing_count(sig, t, t + 1.0)
        # c crossings in a unit window ~ period 2/c; resolve with 8 panels each
        step = 1.0 / _DEFAULT_PANELS if crossings < 2 else min(
            1.0 / _DEFAULT_PANELS, 1.0 / (4.0 * crossings))
    n = max(_DEFAULT_PANELS, int(math.ceil(1.0 / step)))
    return min(n, _MAX_PANELS // 2)


def _checked(sig, taus):
    """sig on the increasing times taus, else EvaluationError naming the
    earliest non-finite time and its first non-finite component."""
    vals = sig(taus)
    if np.isfinite(vals).all():
        return vals
    bad = ~np.isfinite(vals)
    col = int(np.argmax(bad.any(axis=0)))
    idx = int(np.argmax(bad[:, col]))
    raise EvaluationError(f"time signal returned a non-finite value at "
                          f"t={taus[col]} at component {idx}",
                          component=idx, where="time signal")


def _running_integral(sig, t, n_panels):
    """Cumulative integral of sig over [t, t+1] at n_panels+1 boundaries.

    sig is called on _BLOCK_PANELS panels (8 nodes each) at a time, and each
    block is reduced to its panel sums at once, so only the (dim, n_panels)
    sums outlive a block.
    """
    nodes, weights = _GL8
    bounds = t + np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 / n_panels
    panels = []
    for start in range(0, n_panels, _BLOCK_PANELS):
        edges = bounds[start:start + _BLOCK_PANELS + 1]
        centers = 0.5 * (edges[:-1] + edges[1:])
        vals = _checked(sig, (centers[:, None] + half * nodes[None, :]).ravel())
        panels.append((vals.reshape(len(vals), centers.size, nodes.size)
                       * weights).sum(axis=2) * half)
    panels = np.concatenate(panels, axis=1)
    cum = np.zeros((len(panels), n_panels + 1))
    np.cumsum(panels, axis=1, out=cum[:, 1:])
    return bounds, cum


def _partial_integral(sig, a, b):
    nodes, weights = _GL16
    if b <= a:
        return 0.0
    half = 0.5 * (b - a)
    taus = 0.5 * (a + b) + half * nodes
    return _checked(sig, taus) @ weights * half


def window_integral_sup(h, t, quad_tol=1e-10, norm="euclidean", freq_hint=None):
    """Sup over the unit window of the norm of the running integral of h.

    Parameters
    ----------
    h : callable
        Time signal, called on arrays of times (see :class:`SignalAdapter`).
    t : float
        Window start; h must be evaluable on [t, t+1].
    quad_tol : float
        Absolute tolerance on the running integral; the mesh is doubled
        until two successive refinements agree to this value.
    norm : str
        "euclidean" or "inf".
    freq_hint : float or callable, optional
        Dominant angular frequency (rad per unit time) of the integrand;
        when absent a zero-crossing scan estimates it.  A NaN or infinite
        hint raises ValueError.

    Returns
    -------
    float
        The windowed supremum, refined in lambda to 1e-8.

    Raises
    ------
    QuadratureBudgetError
        If the doubling refinement would exceed the panel budget; the error
        carries the best estimate and the last refinement difference.
    EvaluationError
        If h returns a non-finite value, naming the earliest such time of
        the call and its first non-finite component.

    Notes
    -----
    h is called on blocks of at most 4096 times, so memory peaks at one
    block of its values (4096 x dim**2 floats for a column of a factored
    W with a dim x dim D(t)) plus O(n dim) for the running integral on an
    n-panel mesh, up to 2**20 panels.
    """
    check_norm_id(norm)
    _positive("quad_tol", quad_tol)
    t = _finite("t", t)
    sig = h if isinstance(h, SignalAdapter) else SignalAdapter(h)

    n = _initial_panels(sig, t, freq_hint)
    _, cum = _running_integral(sig, t, n)
    while True:
        n *= 2
        coarse = cum
        bounds, cum = _running_integral(sig, t, n)
        err = float(np.max(np.abs(cum[:, ::2] - coarse)))
        if err <= quad_tol:
            break
        if 2 * n > _MAX_PANELS:
            best = float(np.max(point_norms(cum.T, norm)))
            raise QuadratureBudgetError(
                f"window quadrature at t={t} needs more than {_MAX_PANELS} "
                f"panels to reach tol={quad_tol:.1e}",
                estimate=best, error_bound=err)

    grid_vals = point_norms(cum.T, norm)
    j = int(np.argmax(grid_vals))
    best = float(grid_vals[j])

    # the running integral is C^1, so the sup is attained; polish around the
    # best boundary with a golden-section pass
    lo = bounds[max(j - 1, 0)]
    hi = bounds[min(j + 1, n)]

    def g(tau):
        k = min(int(np.searchsorted(bounds, tau, side="right")) - 1, n - 1)
        k = max(k, 0)
        vec = cum[:, k] + _partial_integral(sig, bounds[k], tau)
        return point_norms(vec, norm)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > _GOLDEN_TOL:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    return max(best, float(gc), float(gd))


@dataclass
class WindowMetricProfile:
    """Windowed-integral metric sampled over a grid of window starts."""

    t_grid: np.ndarray
    values: np.ndarray
    quad_tol: float
    norm: str
    trend: str = "inconclusive"       # "decreasing" | "not-decreasing" | "inconclusive"
    partial: bool = False
    failures: list = field(default_factory=list)


def _bucket_maxima(t_grid, values):
    buckets = {}
    for t, v in zip(t_grid, values):
        if not np.isfinite(v):
            continue
        k = int(math.floor(t))
        buckets[k] = max(buckets.get(k, 0.0), float(v))
    return buckets


def trend_verdict(t_grid, values):
    """Decreasing-trend criterion over unit-interval bucket maxima.

    Buckets the grid values by floor(t); requires every bucket at or past
    the reference bucket (k = 2, or the earliest available one after it) to
    stay within a 1.1 factor of the reference, and the final bucket to drop
    below 0.2 of the first.  This is reported evidence, not proof.
    """
    buckets = _bucket_maxima(t_grid, values)
    ks = sorted(buckets)
    if len(ks) < 3:
        return "inconclusive"
    later = [k for k in ks if k >= 2]
    ref_k = later[0] if later else ks[0]
    ref = buckets[ref_k]
    tiny = 1e-15
    within = all(buckets[k] <= ref * _DECAY_SLACK + tiny for k in ks if k >= ref_k)
    dropped = buckets[ks[-1]] <= _FINAL_FRACTION * buckets[ks[0]] + tiny
    return "decreasing" if (within and dropped) else "not-decreasing"


def diminishing_profile(h, t_grid, quad_tol=1e-10, norm="euclidean",
                        freq_hint=None):
    """Windowed-integral metric over a grid of window starts, with a trend verdict.

    Budget failures at single grid points leave NaN values and mark the
    profile partial instead of aborting the whole sweep; a non-finite
    signal value is a data error and raises EvaluationError.
    """
    t_grid = _time_grid(t_grid, "t_grid")
    values = np.empty(t_grid.size)
    failures = []
    for i, t in enumerate(t_grid):
        try:
            values[i] = window_integral_sup(h, t, quad_tol=quad_tol,
                                            norm=norm, freq_hint=freq_hint)
        except QuadratureBudgetError as exc:
            values[i] = np.nan
            failures.append({"t": float(t), "estimate": exc.estimate,
                             "error_bound": exc.error_bound})
    partial = bool(failures)
    trend = "inconclusive" if partial else trend_verdict(t_grid, values)
    return WindowMetricProfile(t_grid=t_grid, values=values, quad_tol=quad_tol,
                               norm=norm, trend=trend, partial=partial,
                               failures=failures)


@dataclass
class PerturbationClassification:
    """Tri-state empirical verdicts for a disturbance term."""

    vanishing_at_x0: str                  # "yes" | "no" | "unknown"
    vanishing_at_tinf: str                # "yes" | "no" | "unknown"
    diminishing_evidence: str             # "supported" | "refuted" | "inconclusive"
    bounded_on_window: bool
    sampled_sup: float
    column_profiles: list = field(default_factory=list)

    def to_dict(self):
        def clean(values):
            return [v if math.isfinite(v) else None for v in values]
        return {
            "vanishing_at_x0": self.vanishing_at_x0,
            "vanishing_at_tinf": self.vanishing_at_tinf,
            "diminishing_evidence": self.diminishing_evidence,
            "bounded_on_window": self.bounded_on_window,
            "sampled_sup": self.sampled_sup,
            "column_profiles": [
                {"t": p.t_grid.tolist(), "value": clean(p.values.tolist()),
                 "trend": p.trend, "partial": p.partial, "norm": p.norm}
                for p in self.column_profiles
            ],
        }


def _tail_times(t_horizon):
    base = sorted({t_horizon / 2.0 ** j for j in range(11)})
    offsets = (0.0, 0.37, 0.71)
    ts = sorted({min(t + o, t_horizon) for t in base for o in offsets})
    return np.asarray(ts)


def classify(pert, probe_radius, t_horizon, quad_tol=1e-8, norm="euclidean",
             seed=0, profile_grid=None):
    """Empirical classification of a disturbance term.

    Samples w(t, 0) on a geometric tail grid for vanishing-at-the-origin
    evidence, sup of |w| over a state ball for vanishing-at-infinity and
    boundedness evidence, and runs the windowed-integral profile of every
    column of the time factor D for the diminishing verdict.  All verdicts
    are tri-state; nothing is silently guessed.
    """
    check_norm_id(norm)
    _positive("probe_radius", probe_radius)
    _positive("t_horizon", t_horizon)
    tail = _tail_times(t_horizon)
    late = tail >= t_horizon / 2.0
    # |W| on the probe ball at every tail time; its first point is x = 0
    dirs = unit_directions(pert.state_dim, 8, np.random.default_rng(seed))
    pts = np.concatenate([np.zeros((1, pert.state_dim)),
                          sphere_samples(probe_radius, dirs)[1]])
    tail_norms = point_norms(pert.evaluate(tail, pts), norm)

    # Definition-style pointwise checks at x = 0
    z0 = tail_norms[:, 0]
    if np.all(z0[late] <= _ZVAL):
        van_x0 = "yes"
    elif np.any(z0[late] > _VTOL):
        van_x0 = "no"
    else:
        van_x0 = "unknown"

    # vanishing at t = infinity, sampled over the probe ball
    g = np.max(tail_norms, axis=1)
    g_early = float(np.max(g[~late], initial=0.0))
    g_late = float(np.max(g[late], initial=0.0))
    if g_late <= _ZVAL:
        van_tinf = "yes"
    elif g_early > _ZVAL and g_late <= 0.01 * g_early:
        van_tinf = "yes"
    elif g_late >= 0.5 * max(g_early, _ZVAL):
        van_tinf = "no"
    else:
        van_tinf = "unknown"

    # windowed-integral profile of each column of D
    if profile_grid is None:
        top = int(min(max(math.floor(t_horizon) - 1, 2), 10))
        profile_grid = np.arange(0.0, top + 1.0)
    profiles = []
    verdicts = []
    for col in pert.columns():
        prof = diminishing_profile(col, profile_grid, quad_tol=quad_tol,
                                   norm=norm, freq_hint=pert.freq_hint)
        profiles.append(prof)
        if prof.partial:
            verdicts.append("inconclusive")
        elif prof.trend == "decreasing":
            verdicts.append("supported")
        else:
            finite = prof.values[np.isfinite(prof.values)]
            peak = float(np.max(finite, initial=0.0))
            if peak > _ZVAL and finite[-1] >= 0.5 * peak:
                verdicts.append("refuted")
            else:
                verdicts.append("inconclusive")
    if any(v == "refuted" for v in verdicts):
        evidence = "refuted"
    elif any(v == "inconclusive" for v in verdicts) or not verdicts:
        evidence = "inconclusive"
    else:
        evidence = "supported"

    # boundedness of |w| itself over the horizon window
    ts = np.linspace(0.0, t_horizon, 513)
    sup_t = np.max(point_norms(pert.evaluate(ts, pts), norm), axis=1)
    chunks = np.array_split(sup_t, 8)
    s = np.array([float(np.max(c)) for c in chunks])
    growing_tail = bool(np.all(s[-3:] >= np.maximum.accumulate(s[-3:]) * 0.95))
    unbounded = bool(s[-1] > 1.25 * np.max(s[:6]) and s[-1] > _ZVAL
                     and growing_tail)
    return PerturbationClassification(
        vanishing_at_x0=van_x0,
        vanishing_at_tinf=van_tinf,
        diminishing_evidence=evidence,
        bounded_on_window=not unbounded,
        sampled_sup=float(np.max(s)),
        column_profiles=profiles,
    )


# ---------------------------------------------------------------------------
# chirp terms


class ChirpTerm(NamedTuple):
    """One term Re[c a(t) e^{i phase(t)}] of a chirp-form signal.

    ``c`` is a constant complex vector of the signal's dimension; ``a``,
    ``phase`` and its derivative ``rate`` are vectorized callables of t.
    ``phase`` and ``rate`` are None for a term that does not oscillate.
    """

    c: tuple
    a: object
    phase: object = None
    rate: object = None


def chirp_freq(terms):
    """t -> max over the terms of |phase'(t)|, or None if none oscillates."""
    rates = list(dict.fromkeys(term.rate for term in terms
                               if term.rate is not None))
    if not rates:
        return None
    if len(rates) == 1:
        # the integrator's step cap calls this twice per step
        rate = rates[0]
        return lambda t: abs(rate(t))
    return lambda t: functools.reduce(np.maximum, [abs(r(t)) for r in rates])


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _ident(t):
    return np.asarray(t, dtype=float)


def constant_term(c):
    """The constant c as a chirp term."""
    return ChirpTerm(c, _one)


def exp_chirp(c):
    """Re[c e^{i e^t}] as a chirp term."""
    return ChirpTerm(c, _one, np.exp, np.exp)


def quartic_chirp(c):
    """Re[c t e^{i t^4}] as a chirp term."""
    return ChirpTerm(c, _ident, lambda t: t ** 4, lambda t: 4.0 * t ** 3)

