"""Adaptive embedded Runge-Kutta integration with dense output.

A Dormand-Prince 5(4) pair drives all simulations: fifth-order propagation,
fourth-order embedded error estimate, FSAL, step-size control on a mixed
absolute/relative per-step tolerance.  When the right-hand side carries a
high-frequency oscillation the caller passes its angular frequency (a
constant or a function of t) and the step is additionally capped at an
eighth of the local period, which keeps the controller from blindly
marching across whole oscillation periods of phases like t**4.

Capped phases such as t**4 take hundreds of thousands of steps, so the step
loop keeps its bookkeeping small, and no array but the new state (and any
dense-output samples) is allocated in a step: the current state is row 0 of
one (8, dim) buffer and the seven stages are rows 1-7, and the tableau is
one (7, 8) array whose column 0 weighs the state.  Each step writes it,
scaled by the step, into a buffer made once per call and refills column 0
with 1 on the stage rows; then every stage input, the new state and the
error estimate's numerator is one dot product of a row of that buffer with
the state and stages: one numpy call each.  Stages 1-5 write their inputs
into buffers of their own and the error estimate and its scale into
preallocated vectors, all through views made once per call; the new state
is fresh because it may be stored.

Every system that :mod:`evuas.simulate` integrates has the form
x' = A x + (0, g(t, x)), with g feeding the last ``width`` entries, so
``integrate`` takes that structure as keywords and writes each stage
derivative into its row of the stage buffer in place: A x by one
``dot(..., out=)``, then g added into a view of the row's last entries,
made once per call.  g comes in two parts: a part of t alone (w(t), or
D(t) of a factored disturbance) called once per distinct stage time, five
per attempted step since the fifth and the last stage share the new time,
and a part called once per stage on the stage state.  A plain
x' = rhs(t, x) is the case without A, of full width and without a time
part, in the same step loop.

The cap depends on t only, so many initial states of one system take nearly
the same steps.  A batch of N states, given as an (N, dim) array, is
therefore stepped in that shape with one shared step: ``rhs`` fills the
flat (7, N*dim) stage buffer through (N, dim) views, and the error norm is
the largest of the rows' own norms, so every row meets its own tolerance.

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
from .norms import point_norms

# Dormand-Prince tableau: the nodes c, and one (7, 8) array whose rows are
# the rows of A, the fifth-order weights b (the input of the last stage, at
# the new state) and the fifth-minus-fourth-order weights E of the error
# estimate.  Column 0 weighs the state and is 0 here; columns 1-7 weigh the
# stages
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_TABLEAU = np.array([(0.0,) + row + (0.0,) * (7 - len(row)) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
     -1 / 40))])

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
        """Norm of every stored state by :func:`evuas.norms.point_norms`:
        each is that of the state alone, whatever the states' shape."""
        return point_norms(self.states, norm)


def _stack(x, dim=None, name="x0"):
    """x as floats of shape (dim,) or (N, dim), N >= 1: one state, or a
    stack of N, one per row.  Any dim >= 1 when ``dim`` is None; a scalar
    is one state of dim 1.  Any other shape raises ShapeError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 2 or not x.size or (dim is not None and x.shape[-1] != dim):
        want = "dim" if dim is None else dim
        raise ShapeError(f"{name}: expected shape ({want},) or (N, {want}), "
                         f"with N >= 1, got {x.shape}")
    return x


def _positive(name, value):
    """``value``, else ValueError unless it is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _finite(name, t):
    """``t`` as a float, else ValueError unless it is finite."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite")
    return t


def _real(values, name):
    """``values`` as floats, else ShapeError naming ``name``: bool, integer
    and float values are real; None, complex and any other values are not,
    and are rejected before the cast to float, which would make None a NaN
    and drop an imaginary part."""
    out = np.asarray(values)
    if out.dtype.kind not in "biuf":
        got = "None" if values is None else f"values of dtype {out.dtype}"
        raise ShapeError(f"{name}: expected real values, got {got}")
    return out.astype(float, copy=False)


def _shaped(values, shape, name):
    """``values`` as real floats (by :func:`_real`) of ``shape``, else
    ShapeError naming ``name``."""
    out = _real(values, name)
    if out.shape != shape:
        raise ShapeError(f"{name}: expected shape {shape}, got {out.shape}")
    return out


def _time_grid(values, name, increasing=True):
    """``values`` as a non-empty 1-d float array of finite times, strictly
    increasing unless ``increasing`` is False; else ValueError."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or not grid.size or not np.isfinite(grid).all() \
            or increasing and np.any(np.diff(grid) <= 0):
        order = ", strictly increasing" if increasing else ""
        raise ValueError(f"{name} must be a non-empty 1-d sequence of "
                         f"finite{order} times")
    return grid


def _sample_grid(sample_times, t0, t_end):
    """The sample times as a list that starts at t0."""
    samples = _time_grid(sample_times, "sample_times")
    if samples[0] < t0 - 1e-12 or samples[-1] > t_end + 1e-12:
        raise ValueError("sample_times must lie within [t0, t_end]")
    skip = 0 if abs(samples[0] - t0) > 1e-12 else 1
    return [t0] + samples[skip:].tolist()


def _step_cap(freq_hint):
    """t -> the step cap: an eighth of the local forcing period, or inf
    for a zero hint.  A NaN or infinite hint (whose cap would be 0) raises
    ValueError, naming the time t of a callable's."""
    def cap(omega, t=None):
        omega = abs(float(omega))
        if 0.0 < omega < math.inf:
            return (2.0 * math.pi / omega) / 8.0
        if omega == 0.0:
            return math.inf
        raise ValueError("freq_hint is "
                         + ("NaN" if math.isnan(omega) else "infinite")
                         + ("" if t is None else f" at t={t}"))

    if callable(freq_hint):
        def capped(t):             # the usual case in one frame
            omega = abs(float(freq_hint(t)))
            if 0.0 < omega < math.inf:
                return (2.0 * math.pi / omega) / 8.0
            return cap(omega, t)
        return capped
    const = math.inf if freq_hint is None else cap(freq_hint)
    return lambda t: const


def _hermite(t, t0, h, y0, y1, f0, f1):
    # cubic Hermite in theta; O(h^4) between accepted steps
    theta = (t - t0) / h
    a = theta * (theta - 1.0)
    return ((1.0 - theta) * y0 + theta * y1
            + a * ((1.0 - 2.0 * theta) * (y1 - y0)
                   + (theta - 1.0) * h * f0 + theta * h * f1))


def _initial_step(derivative, t0, y0, f0, t_end, tol, cap):
    # the usual heuristic per row, probed once at the smallest row step;
    # a batch takes the smallest of its rows' steps.  derivative(t, x)
    # returns x' at (t, x) as a new array
    y, f = np.atleast_2d(y0), np.atleast_2d(f0)
    scale = tol + tol * np.abs(y)
    d0 = [math.sqrt(v) for v in np.mean((y / scale) ** 2, axis=1).tolist()]
    d1 = [math.sqrt(v) for v in np.mean((f / scale) ** 2, axis=1).tolist()]
    h0 = min(min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
                 for a, b in zip(d0, d1)), t_end - t0, cap)
    f1 = derivative(t0 + h0, y0 + h0 * f0)
    d2 = np.mean(((f1.reshape(f.shape) - f) / scale) ** 2, axis=1).tolist()
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


def _time_span(t0, t_end):
    """(t0, t_end) as floats, else ValueError: both finite, t_end > t0."""
    t0, t_end = _finite("t0", t0), _finite("t_end", t_end)
    if not t_end > t0:
        raise ValueError(f"t_end={t_end} must exceed t0={t0}")
    return t0, t_end


def integrate(rhs, t0, x0, t_end, tol=1e-8, freq_hint=None, sample_times=None,
              *, a=None, width=None, time_part=None):
    """Integrate x' = rhs(t, x) from t0 to t_end, or x' = A x + (0, g(t, x)).

    Parameters
    ----------
    rhs : callable
        ``rhs(t, x) -> ndarray`` of the shape of x; a result of another
        shape raises ShapeError naming the time of the call.  With ``a``
        it is the state part of g instead, ``rhs(t, x, v, out)``, which
        adds g(t, x) into ``out``, the last ``width`` entries of each
        state's derivative, where A x is already written; v is
        ``time_part(t)``, or None without a time part.  ``x`` is valid
        only during the call: it may be a buffer that later calls
        overwrite, so ``rhs`` must copy what it keeps.
    t0 : float
    x0 : array_like
        One initial state, shape (dim,), or a batch of N, shape (N, dim).
        A batch is stepped in that shape with one shared step sequence:
        ``rhs`` receives the (N, dim) batch, the error norm is the largest
        of the rows' own norms and the initial step the smallest of the
        rows' own, so every row meets the tolerance.  The returned states
        are then (T, N, dim).  Any 2-D x0 is such a batch: a (dim, 1) column
        is dim one-component states.  A scalar is one state of dim 1;
        more than two axes, or no entry at all, raise ShapeError.
    t_end : float
        Finite, and it must exceed t0, which is finite too.
    tol : float
        Per-step error tolerance, applied mixed (absolute and relative).
    freq_hint : float or callable, optional
        Angular frequency of the fastest forcing; caps the step at an
        eighth of its period.  A NaN or infinite hint raises ValueError.
    sample_times : array_like, optional
        Dense-output sample times; defaults to the accepted step points.
        t0 is always included as the first sample.
    a : array_like, optional, keyword-only
        The (dim, dim) matrix A of x' = A x + (0, g(t, x)); A x is written
        into each stage derivative in place, as ``x.dot(A.T, out=...)``,
        one state or each row of a batch.
    width : int, optional, keyword-only
        How many last entries of a state g feeds, 1 to dim; dim by default.
    time_part : callable, optional, keyword-only
        The part of g that depends on t alone, ``time_part(t)``.  It is
        called once per distinct stage time: a Dormand-Prince step has six
        stages but five stage times, its fifth stage sharing the new time
        with the last, so it makes five calls per attempted step, plus one
        for the first derivative and one for the initial-step probe.

    The diagnostics count in ``n_rhs`` the stage derivatives taken: six
    per attempted step, plus the first derivative and the probe.

    Raises
    ------
    IntegrationError
        On step underflow, non-finite states, or an exhausted step budget;
        the error carries the last good (t, x).
    """
    t0, t_end = _time_span(t0, t_end)
    _positive("tol", tol)
    x0 = _stack(x0)
    shape, dim = x0.shape, x0.shape[-1]    # as rhs sees the state
    rows = x0.size // dim
    if a is None:
        # x' = rhs(t, x): its value, checked by _shaped's rule, is the
        # whole derivative
        a_t, lo, full = None, 0, rhs

        def rhs(t, x, v, out):
            f = full(t, x)
            if getattr(f, "shape", None) != shape or f.dtype.kind != "f":
                f = _shaped(f, shape, f"rhs at t={t}")
            out[...] = f
    else:
        a_t = _shaped(a, (dim, dim), "a").T
        lo = 0 if width is None else dim - width
        if not 0 <= lo < dim:
            raise ValueError(f"width must be 1 to {dim}, got {width}")

    # a list starting at t0, for cheap lookups per step
    samples = None if sample_times is None else _sample_grid(
        sample_times, t0, t_end)

    # the state, one flat vector with batch rows back to back, then the
    # stages; FSAL carries K[6] into K[0].  Zeros, not np.empty: a stage
    # input's dot product takes every row, and 0 times a NaN left in a row
    # not yet filled would poison the first step
    YK = np.zeros((8, x0.size))
    y, K = YK[0], YK[1:]
    y[:] = x0.ravel()
    batch = len(shape) > 1                # one state is already flat
    # every buffer of the step and every view of one, made once: the stages
    # as rhs sees them and their last entries that g feeds, the tableau's
    # rows scaled by the step (column 0 refilled with the state's weight 1
    # after each scaling), the error estimate and its scale, and for stages
    # 1-5 (tableau row, input buffer, the input as rhs sees it, node, stage,
    # its entries fed by g)
    K_rhs = list(K.reshape((7,) + shape))
    K_g = [k[..., lo:] for k in K_rhs]
    coef = np.empty_like(_TABLEAU)
    coef_rows, state_weight = list(coef), coef[:6, 0]
    abs_y = np.abs(y)
    abs_new, scale, r = np.empty((3, x0.size))
    r_rows, row_sq = r.reshape(rows, dim), np.empty(rows)
    stages = [(coef_rows[i - 1], buf, buf.reshape(shape), _C[i], K_rhs[i],
               K_g[i])
              for i, buf in enumerate(np.empty((5, x0.size)), start=1)]

    def derivative(t, x, out=None):
        # x' at (t, x), into out or a new array; the step loop below spells
        # this out per stage
        out = np.empty(shape) if out is None else out
        if a_t is not None:
            x.dot(a_t, out=out)
        rhs(t, x, None if time_part is None else time_part(t),
            out[..., lo:])
        return out

    out_t = [t0]
    out_y = [y.copy()]
    sample_ptr = 1

    t = t0
    # arithmetic on a state or stage that turned non-finite stays silent,
    # once per call: the checks below raise IntegrationError, with the last
    # good (t, x), in place of a RuntimeWarning
    with np.errstate(invalid="ignore", over="ignore"):
        f = derivative(t, y.reshape(shape), K_rhs[0])
        if not np.isfinite(f).all():
            raise IntegrationError(f"non-finite derivative at t={t}", t_last=t,
                                   x_last=y.reshape(shape).copy(),
                                   reason="non-finite")
        n_rhs = 2  # f0 plus the initial-step probe
        cap = _step_cap(freq_hint)
        h = _initial_step(derivative, t, x0, f, t_end, tol, cap(t))

        n_accepted = 0
        n_rejected = 0
        min_step = math.inf
        rejected_last = False

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

            # row i - 1 of coef gives stage i's input (1, h a_i) . (y, K);
            # ndarray.dot is np.dot, bit for bit, without its dispatch cost.
            # Stages 1-5 get their inputs in reused buffers, stage 5 at
            # t_new; the last stage's input is y_new, a fresh array, since
            # it may be stored.  Each stage derivative is written in place:
            # A x, then g's state part, with its time part taken once per
            # stage time (the last stage reuses stage 5's, at t_new)
            hh = h_eff
            np.multiply(_TABLEAU, hh, out=coef)
            state_weight.fill(1.0)
            for row, buf, x_i, node, k_i, g_i in stages:
                row.dot(YK, out=buf)
                t_i = t + node * hh if node < 1.0 else t_new
                v = None if time_part is None else time_part(t_i)
                if a_t is not None:
                    x_i.dot(a_t, out=k_i)
                rhs(t_i, x_i, v, g_i)
            y_new = coef_rows[5].dot(YK)
            x_new = y_new.reshape(shape) if batch else y_new
            if a_t is not None:
                x_new.dot(a_t, out=K_rhs[6])
            rhs(t_new, x_new, v, K_g[6])
            n_rhs += 6

            # a non-finite y_new is caught before the division (its squared
            # norm alone also overflows on huge finite entries); with y_new
            # finite, a non-finite K[6] shows as a non-finite error norm,
            # which otherwise means an overflow and a rejected step.  The
            # scale is tol + tol max(|y|, |y_new|), built in place
            if not (y_new.dot(y_new) < math.inf or np.isfinite(y_new).all()):
                raise _non_finite(t_new, t, y, shape)
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= tol
            scale += tol
            coef_rows[6].dot(YK, out=r)
            r /= scale
            if rows == 1:
                err = math.sqrt(float(r.dot(r)) / dim)
            else:
                # each row's sum of squares: a one-entry row's is its square
                if dim == 1:
                    np.multiply(r, r, out=row_sq)
                else:
                    np.einsum("ij,ij->i", r_rows, r_rows, out=row_sq)
                err = math.sqrt(float(row_sq.max()) / dim)
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
                t = t_new
                abs_y, abs_new = abs_new, abs_y
                y[:] = y_new
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
    t0, t_end = _time_span(t0, t_end)
    a = np.asarray(a, dtype=float)
    times = np.asarray(_sample_grid(sample_times, t0, t_end))
    y = _stack(x0, a.shape[0])
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
            x_last=out[last].reshape(y.shape).copy(), reason="non-finite")
    stats["min_step"] = (stats["min_step"] if math.isfinite(stats["min_step"])
                         else 0.0)
    stats["tol"] = _LEVIN_RTOL
    return Trajectory(times=times, states=out.reshape(times.shape + y.shape),
                      diagnostics=stats)
