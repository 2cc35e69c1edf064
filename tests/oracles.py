"""Independent reference computations used to pin expected test values.

These deliberately share no code with the package: uniform composite
Simpson quadrature for the windowed-integral metric, a per-sample loop
for the sign changes that seed its mesh, the matrix
exponential for linear trajectories, a plain Dormand-Prince stepper
that spells every stage out term by term, and scipy's DOP853 at a tight
tolerance for linear systems under a time forcing, and the pole-placement
gain spelled out from the Jacobians at the origin.  The one exception is
the damped Newton reference, which solves one state at a time through the
model's own one-state F and Jacobian.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg

from evuas.errors import NewtonError
from evuas.model import jacobian_F_U
from evuas.synthesis import input_free_term


def window_sup_simpson(fn, t, freq_max, min_panels=65536):
    """Sup of |running integral| over the unit window by uniform Simpson.

    The mesh keeps at least 128 points per oscillation period (panel step
    <= period/64); the sup is taken on the even Simpson nodes only, so the
    lambda resolution is 1/panels.
    """
    n = max(min_panels, int(math.ceil(64.0 * freq_max / (2.0 * math.pi))))
    h = 1.0 / (2 * n)
    tau = t + h * np.arange(2 * n + 1)
    vals = np.atleast_2d(np.asarray(fn(tau), dtype=float))
    if vals.shape[0] == tau.size:
        vals = vals.T
    seg = (h / 3.0) * (vals[:, 0:-2:2] + 4.0 * vals[:, 1::2] + vals[:, 2::2])
    cum = np.concatenate([np.zeros((vals.shape[0], 1)),
                          np.cumsum(seg, axis=1)], axis=1)
    return float(np.max(np.linalg.norm(cum, axis=0)))


def crossing_count_loop(vals):
    """Max over the rows of vals of the sign changes along the row.

    One sample at a time: an exact zero takes the sign last seen in its
    row (0 before the first nonzero), so a zero between two signs is
    counted once, and a row of zeros has none.
    """
    counts = [0]
    for row in np.sign(np.asarray(vals, dtype=float)):
        last, changes = 0.0, 0
        for s in row.tolist():
            if s != 0.0:
                changes += last * s < 0
                last = s
        counts.append(changes)
    return max(counts)


def linear_trajectory(a, x0, ts):
    """Exact solution of x' = a x at the given times (t relative to ts[0])."""
    x0 = np.asarray(x0, dtype=float)
    return np.stack([scipy.linalg.expm(a * (t - ts[0])) @ x0 for t in ts])


def forced_linear_reference(a, w, x0, ts):
    """x' = a x + w(t) from x(ts[0]) = x0, sampled at ts, by DOP853.

    scipy's eighth-order Dormand-Prince pair at rtol 1e-13 with dense
    output; w(t) returns the forcing as a (dim,) vector.
    """
    a = np.asarray(a, dtype=float)
    ts = np.asarray(ts, dtype=float)
    sol = scipy.integrate.solve_ivp(
        lambda t, x: a @ x + np.asarray(w(t), dtype=float).ravel(),
        (ts[0], ts[-1]), np.asarray(x0, dtype=float), method="DOP853",
        rtol=1e-13, atol=1e-15, t_eval=ts)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T


def dopri_reference(rhs, t0, x0, t_end, tol, freq_hint=None,
                    sample_times=None):
    """Dormand-Prince 5(4) with the integrator's step control, stage by stage.

    Same step-size sequence, step cap (an eighth of the local period,
    evaluated at t and at min(t + h, t_end)), initial-step heuristic and
    cubic Hermite samples as ``evuas.integrate``, written with one array
    per stage and scalar-times-array sums.  ``x0`` is one state (dim,) or a
    batch (N, dim), which ``rhs`` receives whole: the batch shares one step,
    the error norm is the largest row RMS and the initial step the smallest
    row step.  Returns (times, states, {"n_accepted", "n_rejected",
    "n_rhs"}); raises RuntimeError where the package raises
    IntegrationError.
    """
    c2, c3, c4, c5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 44 / 45, -56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a61, a62, a63, a64, a65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                               -5103 / 18656)
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (71 / 57600, -71 / 16695, 71 / 1920,
                              -17253 / 339200, 22 / 525, -1 / 40)

    def f(t, x):
        return np.asarray(rhs(t, x), dtype=float)

    def cap(t):
        if freq_hint is None:
            return math.inf
        omega = abs(freq_hint(t)) if callable(freq_hint) else abs(freq_hint)
        return math.inf if omega <= 0.0 else (2.0 * math.pi / omega) / 8.0

    def rms(v):                 # of each row; one state is one row
        return np.sqrt(np.mean(np.atleast_2d(v) ** 2, axis=1))

    t, t_end = float(t0), float(t_end)
    y = np.array(x0, dtype=float)
    y = y.ravel() if y.ndim < 2 else y
    samples = None
    if sample_times is not None:
        samples = np.asarray(sample_times, dtype=float)
        if abs(samples[0] - t) > 1e-12:
            samples = np.concatenate(([t], samples))
        else:
            samples = samples.copy()
            samples[0] = t
    out_t, out_y, ptr = [t], [y.copy()], 1

    k1 = f(t, y)
    # initial step (Hairer-Norsett-Wanner II.4)
    scale = tol + tol * np.abs(y)
    d0, d1 = rms(y / scale), rms(k1 / scale)
    h0 = min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
             for a, b in zip(d0, d1))
    h0 = min(h0, t_end - t, cap(t))
    d2 = rms((f(t + h0, y + h0 * k1) - k1) / scale) / h0
    h = math.inf
    for b, c in zip(d1, d2):
        if not math.isfinite(c):
            h = min(h, h0)
        else:
            h1 = (max(1e-6, h0 * 1e-3) if max(b, c) <= 1e-15
                  else (0.01 / max(b, c)) ** 0.2)
            h = min(h, 100 * h0, h1, t_end - t, cap(t))

    n_acc = n_rej = 0
    n_rhs = 2
    rejected_last = False
    while t < t_end:
        hh = min(h, cap(t), cap(min(t + h, t_end)))
        if hh >= t_end - t:
            hh, t_new = t_end - t, t_end
        else:
            t_new = t + hh
        if hh < 1e-14 * max(1.0, abs(t)):
            raise RuntimeError(f"step underflow at t={t}")
        k2 = f(t + c2 * hh, y + hh * (a21 * k1))
        k3 = f(t + c3 * hh, y + hh * (a31 * k1 + a32 * k2))
        k4 = f(t + c4 * hh, y + hh * (a41 * k1 + a42 * k2 + a43 * k3))
        k5 = f(t + c5 * hh,
               y + hh * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
        k6 = f(t_new, y + hh * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                                + a65 * k5))
        y_new = y + hh * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = f(t_new, y_new)
        n_rhs += 6
        if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(k7))):
            raise RuntimeError(f"non-finite state at t={t_new}")
        err_vec = hh * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6
                        + e7 * k7)
        err = float(np.max(rms(
            err_vec / (tol + tol * np.maximum(np.abs(y), np.abs(y_new))))))
        if err <= 1.0:
            if samples is None:
                out_t.append(t_new)
                out_y.append(y_new.copy())
            else:
                while ptr < samples.size and samples[ptr] <= t_new + 1e-13:
                    th = (min(samples[ptr], t_new) - t) / hh
                    a = th * (th - 1.0)
                    out_t.append(float(samples[ptr]))
                    out_y.append((1.0 - th) * y + th * y_new
                                 + a * ((1.0 - 2.0 * th) * (y_new - y)
                                        + (th - 1.0) * hh * k1
                                        + th * hh * k7))
                    ptr += 1
            n_acc += 1
            t, y, k1 = t_new, y_new, k7
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            if rejected_last:
                factor = min(factor, 1.0)
            h = hh * max(0.2, factor)
            rejected_last = False
        else:
            n_rej += 1
            h = hh * max(0.2, 0.9 * err ** -0.2)
            rejected_last = True

    times, states = np.asarray(out_t), np.asarray(out_y)
    if samples is not None and abs(times[-1] - t_end) <= 1e-12:
        states[-1] = y
    return times, states, {"n_accepted": n_acc, "n_rejected": n_rej,
                           "n_rhs": n_rhs}


def newton_reference(ctrl, x_flat, u0=None):
    """The implicit feedback at one flat state, one Newton row at a time.

    The damped Newton loop of an ImplicitController written for a single
    state: full step, halved until the residual norm drops, at most
    ``max_halvings`` times; the residual norm is ``np.linalg.norm`` of the
    vector.  Failures raise NewtonError as the controller does, with
    ``row`` unset.
    """
    model = ctrl.model
    x_flat = np.asarray(x_flat, dtype=float)
    free = input_free_term(x_flat, ctrl.design.gamma, ctrl.hurwitz.a_h,
                           model.m, model.n)
    u = np.zeros(model.m) if u0 is None else np.array(u0, dtype=float)
    r = free + model.eval_f(x_flat, u)
    rn = float(np.linalg.norm(r))
    for it in range(ctrl.max_iter):
        if rn <= ctrl.tol:
            return u
        jac = jacobian_F_U(model, x_flat, u)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NewtonError(
                f"singular input Jacobian after {it} iterations "
                f"(residual {rn:.3e})", x=x_flat.copy(), residual=rn,
                iterations=it, singular=True)
        lam = 1.0
        improved = False
        for _ in range(ctrl.max_halvings + 1):
            u_try = u + lam * step
            r_try = free + model.eval_f(x_flat, u_try)
            rn_try = float(np.linalg.norm(r_try))
            if np.isfinite(rn_try) and rn_try < rn:
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise NewtonError(
                f"no descent after {ctrl.max_halvings} halvings "
                f"(residual {rn:.3e})", x=x_flat.copy(), residual=rn,
                iterations=it)
        u, r, rn = u_try, r_try, rn_try
    if rn <= ctrl.tol:
        return u
    raise NewtonError(
        f"no convergence in {ctrl.max_iter} iterations "
        f"(residual {rn:.3e})", x=x_flat.copy(), residual=rn,
        iterations=ctrl.max_iter)


def place_reference(jx, ju, poles, tol=1e-9):
    """Pole-placement gain from the input and state Jacobians at the origin.

    The poles are dealt into m conjugate-closed channel groups of n: reals
    (snapped to exact reals) and pairs [p, conj(p)], sorted by (real part,
    |imag|), pairs before reals, each into the lowest-index channel with
    room.  Each channel's monic polynomial sets its companion row; the
    gain cancels the state coupling through the input Jacobian.
    """
    m = ju.shape[0]
    n = jx.shape[1] // m
    poles = [complex(p) for p in poles]
    order = sorted(range(len(poles)),
                   key=lambda i: (poles[i].real, abs(poles[i].imag)))
    used = [False] * len(poles)
    groups = []
    for i in order:
        if used[i]:
            continue
        p = poles[i]
        used[i] = True
        if abs(p.imag) <= tol:
            groups.append(((p.real, 0.0), [complex(p.real, 0.0)]))
            continue
        for k in order:
            if not used[k] and abs(poles[k] - np.conj(p)) <= \
                    tol * max(1.0, abs(p)):
                used[k] = True
                break
        groups.append(((p.real, abs(p.imag)), [p, np.conj(p)]))
    groups.sort(key=lambda g: (-len(g[1]), g[0]))
    channels = [[] for _ in range(m)]
    for _, group in groups:
        next(ch for ch in channels if len(ch) + len(group) <= n).extend(group)
    virtual = np.zeros((m, m * n))
    for j, ch in enumerate(channels):
        ascending = np.real(np.poly(ch))[1:][::-1]
        for i in range(n):
            virtual[j, i * m + j] = -ascending[i]
    return np.linalg.solve(ju, virtual - jx)
