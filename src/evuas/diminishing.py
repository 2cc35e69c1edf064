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
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import QuadratureBudgetError
from .integrate import _step_cap
from .norms import check_norm_id, max_row_norm, unit_directions, vector_norm

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)

_DEFAULT_PANELS = 256          # also the minimum lambda-grid density
_MAX_PANELS = 1 << 20          # refinement budget per window
_GOLDEN_TOL = 1e-8             # lambda resolution of the sup refinement
_DECAY_SLACK = 1.1             # tolerated wobble above the reference bucket
_FINAL_FRACTION = 0.2          # required drop from first to last bucket
_ZVAL = 1e-10                  # "numerically zero" signal magnitude
_VTOL = 1e-6                   # clearly nonzero signal magnitude


class SignalAdapter:
    """Uniform array evaluation for time signals.

    Wraps ``h(t)`` so that a 1-d array of times returns a ``(dim, N)``
    array.  Vectorized callables (returning ``(N,)`` or ``(dim, N)``) are
    used directly; scalar-only callables fall back to a loop.
    """

    def __init__(self, h):
        self.h = h
        self.dim = None
        self._vectorized = None

    def scalar(self, t):
        out = np.atleast_1d(np.asarray(self.h(float(t)), dtype=float)).ravel()
        if self.dim is None:
            self.dim = out.size
        return out

    def _loop(self, ts):
        return np.stack([self.scalar(t) for t in ts], axis=1)

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        if self.dim is None:
            self.scalar(ts.flat[0])
        if self._vectorized is False:
            return self._loop(ts)
        try:
            out = np.asarray(self.h(ts), dtype=float)
        except (TypeError, ValueError):   # a scalar-only callable
            self._vectorized = False
            return self._loop(ts)
        if out.shape == (self.dim, ts.size):
            self._vectorized = True
            return out
        if self.dim == 1 and out.shape == (ts.size,):
            self._vectorized = True
            return out[None, :]
        self._vectorized = False
        return self._loop(ts)


def _crossing_count(sig, t0, t1):
    """Max sign-change count over components, scanned on 2048 samples."""
    ts = np.linspace(t0, t1, 2048)
    vals = sig(ts)
    signs = np.sign(vals)
    # carry the previous sign across exact zeros so they do not double-count
    for row in signs:
        last = 0.0
        for i in range(row.size):
            if row[i] == 0.0:
                row[i] = last
            else:
                last = row[i]
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


def _running_integral(sig, t, n_panels):
    """Cumulative integral of sig over [t, t+1] at n_panels+1 boundaries."""
    nodes, weights = _GL8
    bounds = t + np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 / n_panels
    centers = 0.5 * (bounds[:-1] + bounds[1:])
    taus = (centers[:, None] + half * nodes[None, :]).ravel()
    vals = sig(taus)
    dim = vals.shape[0]
    panels = (vals.reshape(dim, n_panels, nodes.size) * weights).sum(axis=2) * half
    cum = np.zeros((dim, n_panels + 1))
    np.cumsum(panels, axis=1, out=cum[:, 1:])
    return bounds, cum


def _partial_integral(sig, a, b):
    nodes, weights = _GL16
    if b <= a:
        return np.zeros(sig.dim)
    half = 0.5 * (b - a)
    taus = 0.5 * (a + b) + half * nodes
    return sig(taus) @ weights * half


def window_integral_sup(h, t, quad_tol=1e-10, norm="euclidean", freq_hint=None):
    """Sup over the unit window of the norm of the running integral of h.

    Parameters
    ----------
    h : callable
        Time signal; scalar or vector valued (see :class:`SignalAdapter`).
    t : float
        Window start; h must be evaluable on [t, t+1].
    quad_tol : float
        Absolute tolerance on the running integral; the mesh is doubled
        until two successive refinements agree to this value.
    norm : str
        "euclidean" or "inf".
    freq_hint : float or callable, optional
        Dominant angular frequency (rad per unit time) of the integrand;
        when absent a zero-crossing scan estimates it.

    Returns
    -------
    float
        The windowed supremum, refined in lambda to 1e-8.

    Raises
    ------
    QuadratureBudgetError
        If the doubling refinement would exceed the panel budget; the error
        carries the best estimate and the last refinement difference.
    """
    check_norm_id(norm)
    if not 0.0 < quad_tol < math.inf:
        raise ValueError(
            f"quad_tol must be positive and finite, got {quad_tol}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    sig = h if isinstance(h, SignalAdapter) else SignalAdapter(h)

    n = _initial_panels(sig, t, freq_hint)
    bounds, cum = _running_integral(sig, t, n)
    while True:
        bounds_f, cum_f = _running_integral(sig, t, 2 * n)
        err = float(np.max(np.abs(cum_f[:, ::2] - cum)))
        if err <= quad_tol:
            bounds, cum = bounds_f, cum_f
            n *= 2
            break
        bounds, cum = bounds_f, cum_f
        n *= 2
        if 2 * n > _MAX_PANELS:
            best = float(np.max(vector_norm(cum.T, norm)))
            raise QuadratureBudgetError(
                f"window quadrature at t={t} needs more than {_MAX_PANELS} "
                f"panels to reach tol={quad_tol:.1e}",
                estimate=best, error_bound=err)

    grid_vals = vector_norm(cum.T, norm)
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
        return vector_norm(vec, norm)

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
    profile partial instead of aborting the whole sweep.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    sig = h if isinstance(h, SignalAdapter) else SignalAdapter(h)
    values = np.empty(t_grid.size)
    failures = []
    for i, t in enumerate(t_grid):
        try:
            values[i] = window_integral_sup(sig, t, quad_tol=quad_tol,
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


def _ball_samples(dim, radius, rng, n_dirs=8):
    """The origin and n_dirs random directions at three radii, as rows."""
    dirs = unit_directions(dim, n_dirs, rng)
    pts = [np.zeros(dim)]
    for r in (radius, radius / 2.0, radius / 4.0):
        pts.extend(r * d for d in dirs)
    return np.array(pts)


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
    for name, value in (("probe_radius", probe_radius),
                        ("t_horizon", t_horizon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got "
                             f"{value}")
    rng = np.random.default_rng(seed)
    tail = _tail_times(t_horizon)
    late = tail >= t_horizon / 2.0
    # W on the probe ball, one evaluation per time; its first point is x = 0
    pts = _ball_samples(pert.state_dim, probe_radius, rng)
    w_tail = [pert.evaluate(t, pts) for t in tail]

    # Definition-style pointwise checks at x = 0
    z0 = np.array([vector_norm(w[0], norm) for w in w_tail])
    if np.all(z0[late] <= _ZVAL):
        van_x0 = "yes"
    elif np.any(z0[late] > _VTOL):
        van_x0 = "no"
    else:
        van_x0 = "unknown"

    # vanishing at t = infinity, sampled over the probe ball
    g = np.array([max_row_norm(w, norm) for w in w_tail])
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
    sup_t = np.array([max_row_norm(pert.evaluate(t, pts), norm) for t in ts])
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
# signal catalog


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


@dataclass(frozen=True)
class CatalogSignal:
    name: str
    dim: int
    fn: object                  # vectorized callable, t -> (dim, N)
    terms: tuple = None         # the ChirpTerms whose sum is fn
    bound: object = None        # analytic decay bound for the window metric
    description: str = ""

    @property
    def freq_hint(self):
        """Angular frequency of the fastest term, derived from the terms."""
        return chirp_freq(self.terms or ())


def _stack2(f1, f2):
    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.stack([f1(t), f2(t)])
    return fn


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


SIGNAL_CATALOG = {
    "cos_exp": CatalogSignal(
        "cos_exp", 1, lambda t: np.cos(np.exp(np.asarray(t, dtype=float))),
        terms=(exp_chirp((1,)),), bound=lambda t: 4.0 * np.exp(-t),
        description="cos(e^t): bounded, ever-faster oscillation"),
    "vec_cos_sin_exp": CatalogSignal(
        "vec_cos_sin_exp", 2,
        _stack2(lambda t: np.cos(np.exp(t)), lambda t: np.sin(np.exp(t))),
        terms=(exp_chirp((1, -1j)),),
        bound=lambda t: np.sqrt(32.0) * np.exp(-t),
        description="(cos(e^t), sin(e^t)): unit-norm oscillating pair"),
    "t_cos_t4": CatalogSignal(
        "t_cos_t4", 1,
        lambda t: np.asarray(t, dtype=float) * np.cos(np.asarray(t, dtype=float) ** 4),
        terms=(quartic_chirp((1,)),),
        description="t*cos(t^4): unbounded amplitude, quartic phase"),
    "vec_t_cos_sin_t4": CatalogSignal(
        "vec_t_cos_sin_t4", 2,
        _stack2(lambda t: t * np.cos(t ** 4), lambda t: t * np.sin(t ** 4)),
        terms=(quartic_chirp((1, -1j)),),
        description="(t*cos(t^4), t*sin(t^4)): unbounded oscillating pair"),
    "const1": CatalogSignal(
        "const1", 1, lambda t: np.ones_like(np.asarray(t, dtype=float)),
        terms=(constant_term((1,)),),
        description="constant 1: not diminishing"),
    "zero": CatalogSignal(
        "zero", 1, lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        terms=(), description="identically zero"),
}


def make_signal(name):
    if name not in SIGNAL_CATALOG:
        raise KeyError(f"unknown signal {name!r}; catalog: {sorted(SIGNAL_CATALOG)}")
    return SIGNAL_CATALOG[name]
