"""Adaptive embedded Runge-Kutta integration with dense output.

A Dormand-Prince 5(4) pair drives all simulations: fifth-order propagation,
fourth-order embedded error estimate, FSAL, step-size control on a mixed
absolute/relative per-step tolerance.  When the right-hand side carries a
high-frequency oscillation the caller passes its angular frequency (a
constant or a function of t) and the step is additionally capped at an
eighth of the local period, which keeps the controller from blindly
marching across whole oscillation periods of phases like t**4.

Every system that :mod:`evuas.simulate` integrates has the form
x' = A x + (0, g(t, x)), with g feeding the last ``width`` entries and
g(t, x) = [1, s(t, x)] R(t): time rows R(t) of t alone (w(t) of a time
signal, or a zero row over D(t)^T of a factored disturbance, which weighs
s = K(x)), and a state part s with p entries (none for a time signal).
The shape of R, (1 + p, width), gives p and the width, and p the step a
run takes.  A plain x' = rhs(t, x) is the case A = 0, R = [0; I] and
s = rhs(t, x).

Capped phases such as t**4 take hundreds of thousands of steps, so each
step keeps its bookkeeping small: no array but the stored copy of an
accepted state (or its dense-output samples), the stage times and what
w(t), D(t) or the state part return is allocated in a step, and every
product writes into a buffer made once per call, through views made once
per call; an accepted state is copied where it is stored.

With a state part (p >= 1: factored disturbances, loops closed by a gain,
plain right-hand sides) each state is stored as the row [x, 1, s], and
each stage derivative is one product, x' = [x, 1, s] M(t), with M(t) the
(q, q) matrix, q = dim + 1 + p, that holds A^T over x and R(t) over
[1, s] in the columns of the last ``width`` entries, and zero columns past
dim.  The stage rows' entries past x are therefore zero, and each stage
input keeps the state's 1.  The current state is row 0 of one buffer of
eight rows and the seven stages are rows 1-7, and the tableau is one
(7, 8) array whose column 0 weighs the state: each step writes it, scaled
by the step, into a buffer and refills column 0 with 1 on the stage rows,
so that every stage input, the new state and the error estimate's
numerator is one dot product of a row of that buffer with the state and
stages.  The rows of R constant in t are written into the five M(t) of a
step once per call, and the others over them in place by one call per
attempted step on its five stage times (the fifth and the last stage
share the new time); the state part writes s into a stage's input before
its product.

Without one (p = 0: zero W, time signals, loops closed by an implicit
controller, tracking under a time signal) x' = A x + B w(t) is linear in
the state, and so is a step: y_new - y is y (P(h A^T) - I) plus h B times
the w values at the step's six distinct stage times, each weighed by a
polynomial in h A^T, and the error estimate's numerator likewise, P being
the method's stability polynomial 1 + z + ... + z^6/600.  The
polynomials' coefficients are derived once at import from the tableau,
in float arithmetic, and their matrices, the step tensor D of
G(h) = sum_m h^m D[m], once per call from the powers of A^T.  A step is
one power of h, one product for G, one fill of w on the five stage times
broadcast into the rows [y, w_0 ... w_5], and two products, for the
increment and the error numerator (:func:`_affine_step`).  It stands for
the stage loop's six stage derivatives, to rounding, and takes its steps.

The cap depends on t only, so many initial states of one system take nearly
the same steps.  A batch of N states, given as an (N, dim) array, is
therefore stepped in that shape with one shared step, and the error norm
is the largest of the rows' own norms, so every row meets its own
tolerance.  In the stage loop the flat (7, N*q) stage buffer holds N rows
[x, 1, s], ``rhs`` sees their x and s through (N, dim) and (N, p) views,
and each stage derivative is one (N, q) by (q, q) product; the
Runge-Kutta sums of one state take its x alone, so that they round as
those of an (8, dim) buffer, whatever p is.  The affine step holds the
rows [y, w_0 ... w_5] one per column, so that y, the new state and the
error estimate are contiguous (dim, N) blocks.

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
_NODES = _C[1:5]           # the stage times before the new time, per step
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
    """x as real floats (by :func:`_real`) of shape (dim,) or (N, dim),
    N >= 1: one state, or a stack of N, one per row.  Any dim >= 1 when
    ``dim`` is None; a scalar is one state of dim 1.  Any other shape
    raises ShapeError."""
    x = np.atleast_1d(_real(x, name))
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


def _initial_step(probe, t0, y0, f0, t_end, tol, cap):
    # the usual heuristic per row, probed once at the smallest row step;
    # a batch takes the smallest of its rows' steps.  probe(h0) returns x'
    # at (t0 + h0, y0 + h0 f0) as a new array
    y, f = np.atleast_2d(y0), np.atleast_2d(f0)
    scale = tol + tol * np.abs(y)
    d0 = [math.sqrt(v) for v in np.mean((y / scale) ** 2, axis=1).tolist()]
    d1 = [math.sqrt(v) for v in np.mean((f / scale) ** 2, axis=1).tolist()]
    h0 = min(min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
                 for a, b in zip(d0, d1)), t_end - t0, cap)
    f1 = probe(h0)
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


def _peak_norm(r):
    """() -> max_i |r_i| / sqrt(dim) over the rows of the (N, dim) array r,
    as math.sqrt(float(np.einsum("ij,ij->i", r, r).max()) / dim) bit for
    bit, NaN included, but without ndarray.max and np.einsum's Python
    wrappers up to dim 2 (einsum sums three or more as no ufunc does)."""
    dim = r.shape[1]
    sq, peak = np.empty_like(r), np.maximum.reduce    # in r's memory order
    a, b = sq[:, 0], sq[:, -1]
    if dim == 1:
        col = r[:, 0]
        return lambda: math.sqrt(float(peak(np.multiply(col, col, out=a))))
    if dim > 2:
        return lambda: math.sqrt(float(peak(np.einsum(
            "ij,ij->i", r, r, out=a))) / dim)

    def norm():
        np.multiply(r, r, out=sq)
        return math.sqrt(float(peak(np.add(a, b, out=a))) / 2)
    return norm


def _non_finite(t_new, t, x):
    return IntegrationError(f"non-finite state at t={t_new}", t_last=t,
                            x_last=x.copy(), reason="non-finite")


def _time_span(t0, t_end):
    """(t0, t_end) as floats, else ValueError: both finite, t_end > t0."""
    t0, t_end = _finite("t0", t0), _finite("t_end", t_end)
    if not t_end > t0:
        raise ValueError(f"t_end={t_end} must exceed t0={t0}")
    return t0, t_end


def _whole(rhs, shape):
    """The state part of a plain x' = rhs(t, x): its value, checked by
    :func:`_shaped`'s rule, fills the p = dim slots of s."""
    def state(t, x, out):
        f = rhs(t, x)
        if getattr(f, "shape", None) != shape or f.dtype.kind != "f":
            f = _shaped(f, shape, f"rhs at t={t}")
        out[...] = f
    return state


def _stage_step(rhs, a_t, rows_t, fill, t0, x0, tol):
    """The Dormand-Prince step on the stages [x, 1, s] M(t) of a run with a
    state part s of p >= 1 entries: ``(y_x, x_new, k0, k0_x, probe, attempt,
    accept, slopes)``, as :func:`integrate` takes them.

    y_x and x_new are views, in x0's shape, of the step's state and of the
    new state an attempt writes; k0 is the derivative at t0, whose entries
    past x the finiteness check sees too, and k0_x its x.  ``probe(h0)``
    returns x' at (t0 + h0, x0 + h0 f0) as a new array, ``attempt(t, h,
    t_new)`` steps from t by h and returns the error norm, ``accept()``
    makes the new state the step's, and ``slopes()`` returns x' at the two
    ends of the last attempted step."""
    shape, dim = x0.shape, x0.shape[-1]
    rows, (p, width) = x0.size // dim, np.shape(rows_t)
    p -= 1                                 # the rows of R past row 0
    q = dim + 1 + p                        # the entries of [x, 1, s]
    # the state row, one flat vector with batch rows back to back, then the
    # stages; FSAL carries K[6] into K[0].  M's columns past dim are zero,
    # so every stage row's entries past its x are zero and each stage input
    # (1, h a_i) . (y, K) keeps y's 1.  Zeros, not np.empty: a stage input's
    # dot product takes every row, and 0 times a NaN left in a row not yet
    # filled would poison the first step
    YK = np.zeros((8, rows * q))
    y, K = YK[0], YK[1:]
    shape_q = (rows, q) if len(shape) > 1 else (q,)
    y_q = y.reshape(shape_q)
    y_q[..., :dim] = x0
    y_q[..., dim] = 1.0
    y_x = y_q[..., :dim]
    # the Runge-Kutta sums (stage inputs, new state, error estimate) take
    # the entries that change: one state's x alone, an (8, dim) view whose
    # sums are those of an (8, dim) array whatever p is, or a batch's whole
    # rows, whose entries past x sum to 1 and to y's s
    sums = YK[:, :dim] if rows == 1 else YK
    n_sums = sums.shape[1]
    # M at the five stage times of a step, the time rows' block of each
    mats = np.zeros((5, q, q))
    mats[:, :dim, :dim] = a_t
    time_block = mats[:, dim:, dim - width:dim]
    time_block[...] = rows_t
    if fill is not None:
        fill(np.array([t0]), time_block[:1])
    # every buffer of the step and every view of one, made once: the stage
    # rows as [x, 1, s] and their x, the tableau's rows scaled by the step
    # (column 0 refilled with the state's weight 1 after each scaling), the
    # error estimate and its scale, and for stages 1-5 (tableau row, input
    # buffer, its x and s, stage, M at its time)
    K_q = [k.reshape(shape_q) for k in K]
    coef = np.empty_like(_TABLEAU)
    coef_rows, state_weight = list(coef), coef[:6, 0]
    abs_y = np.abs(y[:n_sums])
    abs_new, scale, r = np.empty((3, n_sums))
    r_x = r if rows == 1 else r.reshape(rows, q)[:, :dim]
    peak_norm = None if rows == 1 else _peak_norm(r_x)
    bufs = np.repeat(y[None], 6, axis=0)
    stages = []
    for i, buf in enumerate(bufs[:5], start=1):
        z = buf.reshape(shape_q)
        stages.append((coef_rows[i - 1], buf[:n_sums], z, z[..., :dim],
                       z[..., dim + 1:], K_q[i], mats[i - 1]))
    # the new state, as [x, 1, s], its x and s, and its entries summed
    y_new, new_sums = bufs[5], bufs[5, :n_sums]
    z_new = y_new.reshape(shape_q)
    x_new, s_new = z_new[..., :dim], z_new[..., dim + 1:]
    k_first, k_last, k_last_q, m_new = K[0], K[6], K_q[6], mats[4]
    k0_x, k6_x = K_q[0][..., :dim], k_last_q[..., :dim]
    c1, c2, c3, c4 = _NODES

    rhs(t0, y_x, y_q[..., dim + 1:])
    y_q.dot(mats[0], out=K_q[0])

    def probe(h0):
        z = (y + h0 * K[0]).reshape(shape_q)
        if fill is not None:
            fill(np.array([t0 + h0]), time_block[:1])
        rhs(t0 + h0, z[..., :dim], z[..., dim + 1:])
        return z.dot(mats[0])[..., :dim]

    def attempt(t, hh, t_new):
        # row i - 1 of coef gives stage i's input (1, h a_i) . (y, K);
        # ndarray.dot is np.dot, bit for bit, without its dispatch cost.
        # Stages 1-5 get their inputs in reused buffers, stage 5 at t_new,
        # and the last stage's input is the new state, in one more, whose x
        # is copied when it is stored.  The time rows come once per step, at
        # the five stage times (the last stage shares stage 5's, at t_new);
        # each stage derivative is then s written into its input, and one
        # product with M at its time
        np.multiply(_TABLEAU, hh, out=coef)
        state_weight.fill(1.0)
        times = (t + c1 * hh, t + c2 * hh, t + c3 * hh, t + c4 * hh, t_new)
        if fill is not None:
            fill(np.array(times), time_block)
        for (row, buf, z, x_i, s_i, k_i, m_i), t_i in zip(stages, times):
            row.dot(sums, out=buf)
            rhs(t_i, x_i, s_i)
            z.dot(m_i, out=k_i)
        coef_rows[5].dot(sums, out=new_sums)
        rhs(t_new, x_new, s_new)
        z_new.dot(m_new, out=k_last_q)

        # a non-finite y_new is caught before the division (its squared
        # norm alone also overflows on huge finite entries); with y_new
        # finite, a non-finite K[6] shows as a non-finite error norm, which
        # otherwise means an overflow and a rejected step.  The scale is
        # tol + tol max(|y|, |y_new|), built in place; the error estimate
        # is zero past each row's x
        if not (new_sums.dot(new_sums) < math.inf
                or np.isfinite(new_sums).all()):
            raise _non_finite(t_new, t, y_x)
        np.abs(new_sums, out=abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        np.multiply(scale, tol, scale)
        np.add(scale, tol, scale)
        coef_rows[6].dot(sums, out=r)
        np.divide(r, scale, r)
        err = (math.sqrt(float(r_x.dot(r_x)) / dim) if rows == 1
               else peak_norm())
        if not err < math.inf and not np.isfinite(k_last).all():
            raise _non_finite(t_new, t, y_x)
        return err

    def accept():
        nonlocal abs_y, abs_new
        abs_y, abs_new = abs_new, abs_y
        y[:] = y_new
        k_first[...] = k_last

    return (y_x, x_new, K[0], k0_x, probe, attempt, accept,
            lambda: (k0_x, k6_x))


def _affine_tables():
    """The increment and the error estimate's numerator of a Dormand-Prince
    step of x' = A x + B w(t), as polynomials in Z = h A^T: a (2, 7, 8)
    array, whose row 0 of each block weighs the state y, row 1 + j weighs
    h w_j B (w at the step's six distinct stage times, the last at t + h)
    and column m weighs Z^m.  Derived in float arithmetic from _TABLEAU:
    stage i is h k_i = (y + sum_j a_ij h k_j) Z + h w_i B, and the last
    stage, at the new state, shares w_5."""
    stages = np.zeros((7, 7, 8))        # h k_i: stage, source, power of Z
    for i in range(7):
        given = np.zeros((7, 8))
        given[0, 0] = 1.0
        for j in range(i):
            given += _TABLEAU[i - 1, j + 1] * stages[j]
        stages[i, :, 1:] = given[:, :-1]
        stages[i, 1 + min(i, 5), 0] = 1.0
    return (_TABLEAU[5:, 1:] @ stages.reshape(7, -1)).reshape(2, 7, 8)


_AFFINE = _affine_tables()
_POWERS = np.arange(1.0, 8.0)   # of h in the step matrices, as D's rows


def _affine_step(a_t, rows_t, fill, t0, x0, tol):
    """The Dormand-Prince step of a run with no state part, as
    :func:`_stage_step` returns it.  Under a w(t) of t alone a step is
    affine in the state: with u = [y, w_0 ... w_5], w at the step's six
    distinct stage times, the increment is y_new - y = u G_inc(h) and the
    error estimate's numerator u G_err(h), where
    G(h) = sum_m h^m D[m] and D comes from the powers of A^T once per
    call.  So an attempted step is one power of h, one product for G, the
    w values (one fill on the five stage times; row 0 keeps w(t) of the
    last accepted step) broadcast into the augmented rows, and two
    products.  The derivatives a step stands for are computed only for
    dense output, and to check the new state where the error norm is not
    finite.  The augmented rows are stored one per column, so that y, the
    new state and the error estimate are contiguous (dim, N) blocks.  The
    powers of h are taken unscaled: a step longer than about 1e44 (h^7
    overflows) gives a non-finite state, while the step-underflow check
    keeps h >= 1e-14, where they stay normal."""
    shape, dim = x0.shape, x0.shape[-1]
    rows, width = x0.size // dim, np.shape(rows_t)[1]
    lo, n_in = dim - width, dim + 6 * width
    powers = [np.eye(dim)]
    for _ in range(7):
        powers.append(powers[-1] @ a_t)
    powers = np.array(powers)
    # D[m - 1], transposed, maps u to h^m's share of the increment and of
    # the numerator; h w_j B Z^k is h^(k + 1) w_j times rows lo: of (A^T)^k
    step = np.zeros((7, 2, n_in, dim))
    for block, table in zip(step.transpose(1, 0, 2, 3), _AFFINE):
        block[:, :dim] = table[0, 1:, None, None] * powers[1:]
        block[:, dim:] = (table[1:, :7].T[:, :, None, None]
                          * powers[:7, None, lo:]).reshape(7, -1, dim)
    step = step.transpose(0, 1, 3, 2).reshape(7, -1)
    hp, g = np.empty(7), np.empty(step.shape[1])
    g_inc, g_err = g.reshape(2, dim, n_in)
    # w at the step's six distinct stage times, as (T, 1, width) rows for
    # fill: row 0 at t, rows 1-5 at the stage times after it
    w = np.empty((6, 1, width))
    w[...] = rows_t
    if fill is not None:
        fill(np.array([t0]), w[:1])
    w_col, w_first, w_last = w.reshape(-1, 1), w[0], w[5]
    # u, one column per state, and its y; the new state, the error
    # estimate, its scale and |y_new|, and the states' (N, dim) views
    u = np.empty((n_in, rows))
    y = u[:dim]
    y[...] = x0.reshape(rows, dim).T
    u_w = u[dim:]
    u_w[...] = w_col
    y_new, r, scale, abs_new = np.empty((4, dim, rows))
    abs_y = np.abs(y)
    y_x, x_new = y.T.reshape(shape), y_new.T.reshape(shape)
    new_flat, r_flat = y_new.reshape(-1), r.reshape(-1)
    peak_norm = None if rows == 1 else _peak_norm(r.T)
    c1, c2, c3, c4 = _NODES

    def slope(x, w_t):
        # x' = x A^T + w B, in x0's shape
        f = x.reshape(rows, dim).dot(a_t)
        f[:, lo:] += w_t.reshape(width)
        return f.reshape(shape)

    f0 = slope(y_x, w_first)

    def probe(h0):
        if fill is not None:
            fill(np.array([t0 + h0]), w[1:2])
        return slope(y_x + h0 * f0, w[1])

    def attempt(t, hh, t_new):
        np.power(hh, _POWERS, hp)
        hp.dot(step, g)
        if fill is not None:
            fill(np.array((t + c1 * hh, t + c2 * hh, t + c3 * hh,
                           t + c4 * hh, t_new)), w[1:])
            u_w[...] = w_col
        g_inc.dot(u, y_new)
        np.add(y_new, y, y_new)
        # the checks of the stage loop: a non-finite y_new fails the step,
        # as does a non-finite derivative there when the error norm is not
        # finite, which otherwise means an overflow and a rejected step.
        # The error estimate is taken over 1 + max(|y|, |y_new|), its norm
        # over tol
        if not (new_flat.dot(new_flat) < math.inf
                or np.isfinite(new_flat).all()):
            raise _non_finite(t_new, t, y_x)
        np.abs(y_new, abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        np.add(scale, 1.0, scale)
        g_err.dot(u, r)
        np.divide(r, scale, r)
        err = (math.sqrt(float(r_flat.dot(r_flat)) / dim) if rows == 1
               else peak_norm()) / tol
        if not err < math.inf and not np.isfinite(
                slope(x_new, w_last)).all():
            raise _non_finite(t_new, t, y_x)
        return err

    def accept():
        nonlocal abs_y, abs_new
        abs_y, abs_new = abs_new, abs_y
        y[...] = y_new
        w_first[...] = w_last

    def slopes():
        return slope(y_x, w_first), slope(x_new, w_last)

    return y_x, x_new, f0, f0, probe, attempt, accept, slopes


def integrate(rhs, t0, x0, t_end, tol=1e-8, freq_hint=None, sample_times=None,
              *, a=None, time_part=None):
    """Integrate x' = rhs(t, x) from t0 to t_end, or x' = A x + (0, g(t, x)).

    The state x is stored as the row [x, 1, s], with s(t, x) in its last p
    entries, and x' = [x, 1, s] M(t), where M(t) holds A^T over x and the
    time rows R(t) over [1, s], in the columns of the last ``width``
    entries; so g(t, x) = [1, s] R(t).  The width, like p, is read from the
    shape of the time rows R.  With p >= 1 each stage derivative is one
    such product.  With p = 0, g = w(t) is of t alone and a step is affine
    in the state: it is two products of the state and the w values with
    step matrices in h A, built once per call (see :func:`_affine_step`).

    Parameters
    ----------
    rhs : callable or None
        ``rhs(t, x) -> ndarray`` of the shape of x; a result of another
        shape raises ShapeError naming the time of the call.  With ``a``
        it is the state part instead, ``rhs(t, x, out)``, which writes
        s(t, x) into ``out``: shape (p,) for one state, (N, p) for a batch.
        It is called once per stage derivative, and not at all when p is
        0 (it may then be None).  ``x`` is valid only during the call: it
        may be a buffer that later calls overwrite, so ``rhs`` must copy
        what it keeps.
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
        The (dim, dim) matrix A of x' = A x + (0, g(t, x)).
    time_part : (rows, fill), optional, keyword-only
        The time rows R, (1 + p, width): row 0 is the part of g of t alone
        and rows 1 to p weigh s.  The array ``rows`` holds R's rows that
        do not change with t; its shape sets p and the width of g, with
        p >= 0 and 1 <= width <= dim, else ShapeError before the first
        step.  ``fill(ts, out)``, None when R is constant, writes the other
        rows at a 1-d array of T times into ``out``, a (T, 1 + p, width)
        view of the buffer holding ``rows`` (the M(t) of the stages, or the
        w rows of a step when p is 0): once per attempted step on its five
        stage times (a Dormand-Prince step has six stages, its fifth and
        last at the new time), at t0 and at the initial-step probe.
        Without it, R = [0; I] and s = g(t, x) itself, of p = dim entries.
        A plain ``integrate(rhs, ...)`` is that case with A = 0.

    The diagnostics count in ``n_rhs`` the stage derivatives a step stands
    for, six per attempted step, plus the first derivative and the probe,
    whichever way the step is taken.

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
    if a is None:
        a, time_part, rhs = np.zeros((dim, dim)), None, _whole(rhs, shape)
    a_t = _shaped(a, (dim, dim), "a").T
    rows_t, fill = ((np.vstack([np.zeros(dim), np.eye(dim)]), None)
                    if time_part is None else time_part)
    got = np.shape(rows_t)
    if len(got) != 2 or got[0] < 1 or not 1 <= got[1] <= dim:
        raise ShapeError(f"time_part: expected rows of shape (1 + p, width), "
                         f"with 1 <= width <= {dim}, got {got}")
    p = got[0] - 1

    # a list starting at t0, for cheap lookups per step
    samples = None if sample_times is None else _sample_grid(
        sample_times, t0, t_end)

    t = t0
    # arithmetic on a state or stage that turned non-finite stays silent,
    # once per call: the checks raise IntegrationError, with the last good
    # (t, x), in place of a RuntimeWarning
    with np.errstate(invalid="ignore", over="ignore"):
        if p:
            parts = _stage_step(rhs, a_t, rows_t, fill, t0, x0, tol)
        else:
            parts = _affine_step(a_t, rows_t, fill, t0, x0, tol)
        y_x, x_new, k0, k0_x, probe, attempt, accept, slopes = parts
        if not np.isfinite(k0).all():
            raise IntegrationError(f"non-finite derivative at t={t}", t_last=t,
                                   x_last=y_x.copy(), reason="non-finite")
        n_rhs = 2  # f0 plus the initial-step probe

        cap = _step_cap(freq_hint)
        h = _initial_step(probe, t, x0, k0_x, t_end, tol, cap(t))

        out_t = [t0]
        out_y = [y_x.copy()]
        sample_ptr = 1
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
                    x_last=y_x.copy(), reason="step-underflow")
            if n_accepted + n_rejected >= _MAX_STEPS:
                raise IntegrationError(
                    f"step budget {_MAX_STEPS} exhausted at t={t}", t_last=t,
                    x_last=y_x.copy(), reason="budget")

            hh = h_eff
            err = attempt(t, hh, t_new)
            n_rhs += 6

            if err <= 1.0:
                if samples is None:
                    out_t.append(t_new)
                    out_y.append(x_new.copy())
                elif (sample_ptr < len(samples)
                      and samples[sample_ptr] <= t_new + 1e-13):
                    f0, f1 = slopes()
                    while (sample_ptr < len(samples)
                           and samples[sample_ptr] <= t_new + 1e-13):
                        out_t.append(samples[sample_ptr])
                        out_y.append(_hermite(min(samples[sample_ptr], t_new),
                                              t, hh, y_x, x_new, f0, f1))
                        sample_ptr += 1
                n_accepted += 1
                min_step = min(min_step, hh)
                t = t_new
                accept()
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
        states[-1] = y_x if abs(times[-1] - t_end) <= 1e-12 else states[-1]
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
