"""Adaptive embedded Runge-Kutta integration with dense output.

A Dormand-Prince 5(4) pair drives all simulations: fifth-order propagation,
fourth-order embedded error estimate, FSAL, step-size control on a mixed
absolute/relative per-step tolerance.  When the right-hand side carries a
high-frequency oscillation the caller passes its angular frequency (a
constant or a function of t) and the step is additionally capped at an
eighth of the local period, which keeps the controller from blindly
marching across whole oscillation periods of phases like t**4.

Capped phases such as t**4 take hundreds of thousands of steps, so the step
loop keeps its bookkeeping small: the seven stages live in one (7, dim)
buffer, and the Butcher tableau is held as arrays, so every stage input, the
new state and the error estimate are each one dot product with that buffer.

The cap depends on t only, so many initial states of one system take nearly
the same steps.  A batch of N states, given as an (N, dim) array, is
therefore integrated with one shared step: the state is one flat vector in
a (7, N*dim) buffer, and the error norm is the largest of the rows' own
norms, so every row meets its own tolerance.

A linear system under a chirp-form forcing, x' = A x + w(t) with w the
real part of a sum of c a(t) e^{i phase(t)}, needs no steps between
output times: :func:`propagate_linear` maps each sample to the next
exactly, by e^{A h} and the forced integral, which Levin collocation on
Chebyshev nodes computes at a cost independent of the frequency.  e^{A h}
comes from the numpy-only scaling-and-squaring Pade exponential of
:mod:`evuas._expm`, one per distinct sample length.  The error, closed-loop
and tracking runs of :mod:`evuas.simulate` use it on a sample grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._expm import expm
from .errors import IntegrationError, ShapeError
from .norms import vector_norm

# Dormand-Prince tableau: the nodes c, the rows of A with the fifth-order
# weights b as the last row, and the fifth-minus-fourth-order weights E of
# the error estimate
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)))
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 10_000_000     # step budget of one integrate call

# Levin collocation in the propagator for x' = A x + w(t)
_LEVIN_NODES = 12        # Chebyshev-Lobatto nodes per interval
_LEVIN_BLOCK = 32        # intervals per batched solve; bounds the memory
_LEVIN_RTOL = 1e-10      # residual check, relative to the equation's terms
_LEVIN_MAX_SPLITS = 40   # halvings of one sample interval before giving up
_LEVIN_SHORT = 1.0       # h (|phase'| + |A|) below which q(lo) = 0 is imposed


@dataclass
class Trajectory:
    """Time-stamped samples of one integration run.

    states has one row per sample: shape (T, dim) for one initial state,
    (T, N, dim) for a batch of N.  inputs (when the run was closed loop)
    likewise, (T, m) or (T, N, m).  diagnostics carries accepted/rejected
    step counts, the smallest accepted step and the RHS evaluation count,
    shared by every row of a batch.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.states.shape[-1]

    def norms(self, norm="euclidean"):
        return vector_norm(self.states, norm)


def _sample_grid(sample_times, t0, t_end):
    """The sample times as a list that starts at t0."""
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0 or \
            not np.isfinite(samples).all():
        raise ValueError(
            "sample_times must be a non-empty 1-d sequence of finite times")
    if np.any(np.diff(samples) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if samples[0] < t0 - 1e-12 or samples[-1] > t_end + 1e-12:
        raise ValueError("sample_times must lie within [t0, t_end]")
    skip = 0 if abs(samples[0] - t0) > 1e-12 else 1
    return [t0] + samples[skip:].tolist()


def _step_cap(freq_hint):
    """t -> the step cap: an eighth of the local forcing period, or inf."""
    def cap(omega):
        omega = abs(float(omega))
        return (2.0 * math.pi / omega) / 8.0 if omega > 0.0 else math.inf

    if callable(freq_hint):
        return lambda t: cap(freq_hint(t))
    const = math.inf if freq_hint is None else cap(freq_hint)
    return lambda t: const


def _hermite(t, t0, h, y0, y1, f0, f1):
    # cubic Hermite in theta; O(h^4) between accepted steps
    theta = (t - t0) / h
    a = theta * (theta - 1.0)
    return ((1.0 - theta) * y0 + theta * y1
            + a * ((1.0 - 2.0 * theta) * (y1 - y0)
                   + (theta - 1.0) * h * f0 + theta * h * f1))


def _initial_step(rhs, t0, y0, f0, t_end, tol, cap, rows):
    # the usual heuristic per row, probed once at the smallest row step;
    # a batch takes the smallest of its rows' steps
    y, f = y0.reshape(rows, -1), f0.reshape(rows, -1)
    scale = tol + tol * np.abs(y)
    d0 = [math.sqrt(v) for v in np.mean((y / scale) ** 2, axis=1).tolist()]
    d1 = [math.sqrt(v) for v in np.mean((f / scale) ** 2, axis=1).tolist()]
    h0 = min(min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
                 for a, b in zip(d0, d1)), t_end - t0, cap)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = np.mean(((f1.reshape(rows, -1) - f) / scale) ** 2, axis=1).tolist()
    h = math.inf
    for b, c in zip(d1, d2):
        c = math.sqrt(c) / h0
        if not math.isfinite(c):
            h = min(h, h0)
        elif max(b, c) <= 1e-15:
            h = min(h, 100 * h0, max(1e-6, h0 * 1e-3), t_end - t0, cap)
        else:
            h = min(h, 100 * h0, (0.01 / max(b, c)) ** 0.2, t_end - t0, cap)
    return h


def _non_finite(t_new, t, y, shape):
    return IntegrationError(f"non-finite state at t={t_new}", t_last=t,
                            x_last=y.reshape(shape).copy(),
                            reason="non-finite")


def integrate(rhs, t0, x0, t_end, tol=1e-8, freq_hint=None, sample_times=None):
    """Integrate x' = rhs(t, x) from t0 to t_end.

    Parameters
    ----------
    rhs : callable
        ``rhs(t, x) -> ndarray`` of the shape of x.
    t0 : float
    x0 : array_like
        One initial state, shape (dim,), or a batch of N, shape (N, dim).
        A batch is integrated with one shared step sequence: ``rhs``
        receives the (N, dim) batch, the error norm is the largest of the
        rows' own norms and the initial step the smallest of the rows'
        own, so every row meets the tolerance.  The returned states are
        then (T, N, dim).  Any 2-D x0 is such a batch: a (dim, 1) column
        is dim one-component states.  A scalar is one state of dim 1;
        more than two axes raise ShapeError.
    t_end : float
        t_end must exceed t0.
    tol : float
        Per-step error tolerance, applied mixed (absolute and relative).
    freq_hint : float or callable, optional
        Angular frequency of the fastest forcing; caps the step at an
        eighth of its period.
    sample_times : array_like, optional
        Dense-output sample times; defaults to the accepted step points.
        t0 is always included as the first sample.

    Raises
    ------
    IntegrationError
        On step underflow, non-finite states, or an exhausted step budget;
        the error carries the last good (t, x).
    """
    t0 = float(t0)
    t_end = float(t_end)
    if not t_end > t0:
        raise ValueError(f"t_end={t_end} must exceed t0={t0}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    y = np.array(x0, dtype=float)
    if y.ndim > 2:
        raise ShapeError(
            f"x0 must have shape (dim,) or (N, dim), got {y.shape}")
    shape = y.shape if y.ndim == 2 else (y.size,)    # as rhs sees the state
    rows, width = shape if y.ndim == 2 else (1, y.size)
    y = y.ravel()          # one flat vector, batch rows back to back

    # a list starting at t0, for cheap lookups per step
    samples = None if sample_times is None else _sample_grid(
        sample_times, t0, t_end)

    out_t = [t0]
    out_y = [y.copy()]
    sample_ptr = 1

    t = t0
    K = np.empty((7, y.size))    # the stages; FSAL carries K[6] into K[0]
    K_head = [K[:i] for i in range(7)]    # views of the first i stages
    f = np.asarray(rhs(t, y.reshape(shape)), dtype=float)
    if f.shape != shape:
        raise ValueError(f"rhs returned shape {f.shape}, expected {shape}")
    if not np.isfinite(f).all():
        raise IntegrationError(f"non-finite derivative at t={t}", t_last=t,
                               x_last=y.reshape(shape).copy(),
                               reason="non-finite")
    if len(shape) == 2:
        batch_rhs = rhs

        def rhs(t, x):
            return np.reshape(batch_rhs(t, x.reshape(shape)), -1)
    K[0] = f.ravel()
    n_rhs = 2  # f0 plus the initial-step probe
    cap = _step_cap(freq_hint)
    h = _initial_step(rhs, t, y, K[0], t_end, tol, cap(t), rows)

    n_accepted = 0
    n_rejected = 0
    min_step = math.inf
    rejected_last = False
    abs_y = np.abs(y)

    while t < t_end:
        h_eff = min(h, cap(t), cap(min(t + h, t_end)))
        if h_eff >= t_end - t:
            h_eff = t_end - t
            t_new = t_end
        else:
            t_new = t + h_eff
        if h_eff < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step underflow at t={t} (h={h_eff:.3e})", t_last=t,
                x_last=y.reshape(shape).copy(), reason="step-underflow")
        if n_accepted + n_rejected >= _MAX_STEPS:
            raise IntegrationError(
                f"step budget {_MAX_STEPS} exhausted at t={t}", t_last=t,
                x_last=y.reshape(shape).copy(), reason="budget")

        # ndarray.dot is np.dot, bit for bit, without its dispatch cost
        hh = h_eff
        for i in range(1, 6):
            K[i] = rhs(t + _C[i] * hh if i < 5 else t_new,
                       y + hh * _A[i - 1].dot(K_head[i]))
        y_new = y + hh * _A[5].dot(K_head[6])
        K[6] = rhs(t_new, y_new)
        n_rhs += 6

        # a non-finite y_new is caught before the division, where it would
        # raise a RuntimeWarning (its squared norm alone also overflows on
        # huge finite entries); with y_new finite, a non-finite K[6] shows
        # as a non-finite error norm, which otherwise means an overflow
        # and a rejected step
        if not (y_new.dot(y_new) < math.inf or np.isfinite(y_new).all()):
            raise _non_finite(t_new, t, y, shape)
        abs_new = np.abs(y_new)
        r = hh * _E.dot(K) / (tol + tol * np.maximum(abs_y, abs_new))
        if rows == 1:
            err = math.sqrt(float(r.dot(r)) / width)
        else:
            r = r.reshape(rows, width)
            err = math.sqrt(float(np.max(np.einsum("ij,ij->i", r, r)))
                            / width)
        if not err < math.inf and not np.isfinite(K[6]).all():
            raise _non_finite(t_new, t, y, shape)

        if err <= 1.0:
            if samples is not None:
                while (sample_ptr < len(samples)
                       and samples[sample_ptr] <= t_new + 1e-13):
                    out_t.append(samples[sample_ptr])
                    out_y.append(_hermite(min(samples[sample_ptr], t_new),
                                          t, hh, y, y_new, K[0], K[6]))
                    sample_ptr += 1
            else:
                out_t.append(t_new)
                out_y.append(y_new)
            n_accepted += 1
            min_step = min(min_step, hh)
            t, y, abs_y = t_new, y_new, abs_new
            K[0] = K[6]
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
            if rejected_last:
                factor = min(factor, 1.0)
            h = hh * max(_MIN_FACTOR, factor)
            rejected_last = False
        else:
            n_rejected += 1
            h = hh * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected_last = True

    times = np.asarray(out_t)
    states = np.asarray(out_y)
    if samples is not None:
        # exact-end bookkeeping: the final requested sample is t_end itself
        states[-1] = y if abs(times[-1] - t_end) <= 1e-12 else states[-1]
    states = states.reshape(times.shape + shape)
    diagnostics = {"n_accepted": n_accepted, "n_rejected": n_rejected,
                   "n_rhs": n_rhs,
                   "min_step": min_step if math.isfinite(min_step) else 0.0,
                   "tol": float(tol)}
    return Trajectory(times=times, states=states, diagnostics=diagnostics)


def _chebyshev(n):
    """Chebyshev-Lobatto nodes on [-1, 1] with their differentiation matrix,
    and the interpolation matrix onto the n - 1 points halfway between the
    nodes in angle, where the residual is checked."""
    k = np.arange(n)
    x = -np.cos(np.pi * k / (n - 1))
    w = (-1.0) ** k                  # barycentric weights
    w[[0, -1]] *= 0.5
    diff = x[:, None] - x
    np.fill_diagonal(diff, 1.0)
    d = w / w[:, None] / diff
    np.fill_diagonal(d, 0.0)
    d -= np.diag(d.sum(axis=1))
    y = -np.cos(np.pi * (k[:-1] + 0.5) / (n - 1))
    p = w / (y[:, None] - x)
    p /= p.sum(axis=1, keepdims=True)
    return x, d, p


_X, _D, _P = _chebyshev(_LEVIN_NODES)
_Y = _P @ _X                         # the check points
_PD = _P @ _D
_PD_ABS = np.abs(_P) @ np.abs(_D)


def _expm(a, h):
    """e^{A h} for each length in h, one exponential per distinct length."""
    lengths, index = np.unique(h, return_inverse=True)
    return expm(a * lengths[:, None, None])[index]


def _levin(a, terms, lo, hi, decay):
    """Forced part over each interval [lo, hi] and its residual check.

    For each term Re[c a(s) e^{i phase(s)}], q' + (i phase' I - A) q = c a(s)
    is collocated at the Chebyshev nodes of the interval.  Then
    d/ds [e^{A (hi - s)} q(s) e^{i phase(s)}] is e^{A (hi - s)} c a(s)
    e^{i phase(s)}, so the integral of e^{A (hi - s)} w(s) over the interval
    is Re[q(hi) e^{i phase(hi)} - e^{A h} q(lo) e^{i phase(lo)}]
    (Levin, Math. Comp. 38, 1982).  No eigen-decomposition of A is needed.
    An interval passes when the residual of the collocation solution at
    the off-node check points is small against the equation's own terms;
    a non-finite residual passes too, so that the stepping reports it.
    ``decay`` holds e^{A h} of each interval.
    """
    dim, n, size = a.shape[0], _X.size, lo.size
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _X
    checks = mid[:, None] + half[:, None] * _Y
    op = (np.kron(_D, np.eye(dim)) / half[:, None, None]
          - np.kron(np.eye(n), a)).astype(complex)
    diag = np.arange(n * dim)
    norm_a = np.linalg.norm(a, 2)
    forced = np.zeros((size, dim))
    ok = np.ones(size, dtype=bool)
    for term in terms:
        c = np.asarray(term.c, dtype=complex)
        mat = op.copy()
        fastest = 0.0
        if term.rate is not None:
            rate = term.rate(nodes)
            mat[:, diag, diag] += 1j * np.repeat(rate, dim, axis=1)
            fastest = np.abs(rate).max(axis=1)
        rhs = (term.a(nodes)[..., None] * c).reshape(size, n * dim, 1)
        # on an interval short against A and the phase, every solution of
        # the equation is nearly a polynomial, so collocation alone leaves q
        # nearly undetermined: the first node's equations become q(lo) = 0
        short = 2.0 * half * (fastest + norm_a) <= _LEVIN_SHORT
        mat[short, :dim] = 0.0
        mat[short, :dim, :dim] = np.eye(dim)
        rhs[short, :dim] = 0.0
        q = np.linalg.solve(mat, rhs).reshape(size, n, dim)

        # the residual against the size of the terms it sums, so that the
        # rounding of q' on short intervals never fails the check
        at = _P @ q
        parts = [_PD @ q / half[:, None, None], -(at @ a.T),
                 -(term.a(checks)[..., None] * c)]
        scale = (_PD_ABS @ np.abs(q) / half[:, None, None]
                 + np.abs(at) @ np.abs(a.T) + np.abs(parts[2]))
        if term.rate is not None:
            parts.append(1j * term.rate(checks)[..., None] * at)
            scale += np.abs(parts[3])
        resid = np.abs(sum(parts)).max(axis=(1, 2))
        ok &= ~(resid > _LEVIN_RTOL * scale.max(axis=(1, 2)))

        start, end = q[:, 0], q[:, -1]
        if term.phase is not None:
            start = start * np.exp(1j * term.phase(lo))[:, None]
            end = end * np.exp(1j * term.phase(hi))[:, None]
        forced += (end - np.einsum("kij,kj->ki", decay, start)).real
    return forced, ok


def _forced_parts(a, terms, lo, hi, depth=0):
    """Integral of e^{A (hi - s)} w(s) over each interval [lo, hi].

    Intervals are solved in blocks of _LEVIN_BLOCK; one that fails the
    residual check is halved and its halves are combined exactly, as
    e^{A h/2} (left part) + (right part).  Returns the parts, the work
    counts (accepted sub-intervals, halvings, the smallest sub-interval
    and the forcing evaluations) and e^{A h} of each interval, computed
    once for all of them.
    """
    decay = _expm(a, hi - lo)
    forced = np.empty((lo.size, a.shape[0]))
    ok = np.empty(lo.size, dtype=bool)
    for i in range(0, lo.size, _LEVIN_BLOCK):
        block = slice(i, i + _LEVIN_BLOCK)
        forced[block], ok[block] = _levin(a, terms, lo[block], hi[block],
                                          decay[block])
    stats = {"n_accepted": int(ok.sum()), "n_rejected": lo.size - int(ok.sum()),
             "n_rhs": lo.size * (2 * _X.size - 1) * len(terms),
             "min_step": float(np.min(hi[ok] - lo[ok], initial=math.inf))}
    bad = np.flatnonzero(~ok)
    if bad.size:
        if depth == _LEVIN_MAX_SPLITS:
            k = int(bad[0])
            raise IntegrationError(
                f"no accurate forcing on [{lo[k]}, {hi[k]}] after "
                f"{depth} halvings", t_last=float(lo[k]), reason="residual")
        mid = 0.5 * (lo[bad] + hi[bad])
        halves, sub, half_decay = _forced_parts(
            a, terms, np.concatenate([lo[bad], mid]),
            np.concatenate([mid, hi[bad]]), depth + 1)
        left, right = halves[:bad.size], halves[bad.size:]
        forced[bad] = np.einsum("kij,kj->ki", half_decay[bad.size:],
                                left) + right
        for key in ("n_accepted", "n_rejected", "n_rhs"):
            stats[key] += sub[key]
        stats["min_step"] = min(stats["min_step"], sub["min_step"])
    return forced, stats, decay


def propagate_linear(a, terms, t0, x0, t_end, sample_times):
    """Exact samples of x' = A x + w(t) for a chirp-form forcing w.

    w(t) is the real part of the sum of ``c a(t) exp(i phase(t))`` over
    ``terms`` (see :class:`evuas.diminishing.ChirpTerm`; no terms means
    w = 0).  Between consecutive sample times the update is exact,
    x_{k+1} = e^{A h} x_k + integral of e^{A (t_{k+1} - s)} w(s) ds, and
    the integral is computed by Levin collocation, whose cost does not
    grow with the frequency of w (Hochbruck & Ostermann, Acta Numerica
    19, 2010, for the exponential-integrator form).  A sample interval
    whose collocation fails a residual check is halved until it passes.

    ``x0``, ``sample_times`` and the returned :class:`Trajectory` follow
    :func:`integrate`; an (N, dim) batch is stepped as ``x @ E.T``.  The
    diagnostics keep integrate's keys: ``n_accepted`` counts the accepted
    sub-intervals, ``n_rejected`` the halvings, ``n_rhs`` the time points
    at which a term of w was evaluated, ``min_step`` is the shortest
    sub-interval and ``tol`` the relative residual of the check.

    Raises
    ------
    IntegrationError
        On a non-finite state, carrying the last finite sample, or when an
        interval still fails the residual check after _LEVIN_MAX_SPLITS
        halvings (``reason="residual"``, ``t_last`` its start).
    """
    t0 = float(t0)
    t_end = float(t_end)
    if not t_end > t0:
        raise ValueError(f"t_end={t_end} must exceed t0={t0}")
    a = np.asarray(a, dtype=float)
    times = np.asarray(_sample_grid(sample_times, t0, t_end))
    y = np.array(x0, dtype=float)
    shape = y.shape if y.ndim == 2 else (y.size,)
    if y.ndim > 2 or shape[-1] != a.shape[0]:
        raise ShapeError(f"x0 must have shape ({a.shape[0]},) or "
                         f"(N, {a.shape[0]}), got {y.shape}")
    terms = tuple(terms)
    for term in terms:
        if np.shape(term.c) != a.shape[:1]:
            raise ShapeError(f"chirp term: expected c of shape "
                             f"({a.shape[0]},), got {np.shape(term.c)}")
    lo, hi = times[:-1], times[1:]
    forced, stats, decay = _forced_parts(a, terms, lo, hi)
    steps = decay.transpose(0, 2, 1)
    # one state is a one-row batch, so both take the same arithmetic
    out = np.empty((times.size,) + y.reshape(-1, a.shape[0]).shape)
    out[0] = y.reshape(out.shape[1:])
    for k in range(lo.size):
        out[k + 1] = out[k] @ steps[k] + forced[k]
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        last = max(k - 1, 0)
        raise IntegrationError(
            f"non-finite state at t={times[k]}", t_last=float(times[last]),
            x_last=out[last].reshape(shape).copy(), reason="non-finite")
    stats["min_step"] = (stats["min_step"] if math.isfinite(stats["min_step"])
                         else 0.0)
    stats["tol"] = _LEVIN_RTOL
    return Trajectory(times=times, states=out.reshape(times.shape + shape),
                      diagnostics=stats)
