"""Closed-loop, error-dynamics and tracking simulations.

All three wrap :func:`evuas.integrate.integrate`, except one case: an
error-dynamics run on a sample grid whose disturbance is zero or a time
signal with a declared chirp form (every time signal of the catalogs).
The error system e' = A_H e + w(t) is then linear and time-forced, and
:func:`evuas.integrate.propagate_linear` steps it exactly from sample to
sample at a cost that does not grow with the frequency of w.  Runs
without sample times (the verify factories), factored disturbances and
closed-loop and tracking runs stay on the integrator.

Error-dynamics and closed-loop runs take one flat state (dim,) or an
(N, dim) batch, one state per row, integrated with one shared step (the
Monte-Carlo sweeps of :mod:`evuas.verify` use this); tracking runs take
one flat state.  Each right-hand side is written once for both shapes.
W comes from one place, the ``unchecked`` W(t, x) of
:class:`evuas.model.PerturbationSpec`: w(t) or D(t) once per call, K row
by row, with no checks (the integrator checks that every step stays
finite).  The designed closed loop's input-free term is evaluated once
per call for the whole batch, any other controller row by row.

An implicit controller defines U = G(X) by the closing residual
shift(X) + F(X, U) - A_H e(X) = 0, so on the closed loop the last block of
the first-order form is exactly -input_free_term(X) + W(t, X): the
designed error dynamics e' = A_H e + W.
Those are integrated in closed form, with no feedback solve inside the
right-hand side.  Newton then runs once per stored point, warm-started
from the previous one, and has two jobs: it reports the inputs, and it
checks that the feedback exists along the trajectory (the controller's
domain of validity).  Any other controller is evaluated inside the
right-hand side.
"""

import csv
import json

import numpy as np

from .errors import ControllerEvaluationError, NewtonError, ShapeError
from .integrate import integrate, propagate_linear
from .model import (_per_row, evaluate_dynamics, flatten_state,
                    unflatten_state)
from .synthesis import ImplicitController, input_free_term

_CSV_FMT = "%.17g"


def _run(rhs, pert, x0, t0, t_end, tol, sample_times, norm):
    hint = None if pert is None else pert.freq_hint
    return integrate(rhs, t0, x0, t_end, tol=tol, freq_hint=hint,
                     sample_times=sample_times, norm=norm)


def _designed_rhs(model, design, hurwitz, pert, track=None):
    """Closed-loop right-hand side with the feedback eliminated.

    The first (n-1)m entries are the column shift; the last block is
    -input_free_term(state) + W(t, x_true).  For tracking the state is the
    deviation Delta and x_true = Delta + X_d(t); the reference feedforward
    y_d^(n) cancels against the derivative of X_d's last column.  The state
    may also be an (N, m*n) batch, one flat state per row.
    """
    m, n = model.m, model.n
    split = (n - 1) * m
    gamma, a_h = design.gamma, hurwitz.a_h
    w = None if pert is None else pert.unchecked

    def rhs(t, x):
        out = np.empty_like(x)
        out[..., :split] = x[..., m:]
        last = -input_free_term(x, gamma, a_h, m, n)
        if w is not None:
            x_true = x if track is None else x + flatten_state(track.value(t))
            last = last + w(t, x_true)
        out[..., split:] = last
        return out
    return rhs


def _report_inputs(traj, m, feedback):
    """Solve the feedback at every stored point, warm-started from the last.

    ``feedback(t, x, u0)`` returns U at a stored point; a batch is solved
    row by row, each row warm-started from its own last input.  This is
    also the domain-of-validity check: a failed solve aborts with the
    time, state and residual of the first stored point where no feedback
    exists.
    """
    states = traj.states if traj.states.ndim == 3 else traj.states[:, None]
    inputs = np.empty(states.shape[:2] + (m,))
    for j in range(states.shape[1]):
        u = None
        for i, t in enumerate(traj.times):
            try:
                u = feedback(t, states[i, j], u)
            except NewtonError as exc:
                raise ControllerEvaluationError(
                    f"feedback solve failed at t={t}: {exc}", t=float(t),
                    x=states[i, j].copy(), residual=exc.residual) from exc
            inputs[i, j] = u
    traj.inputs = inputs.reshape(traj.states.shape[:-1] + (m,))
    return traj


def simulate_error_dynamics(hurwitz, pert, e0, t0, t_end, tol=1e-8,
                            sample_times=None, norm="euclidean"):
    """Integrate the error system e' = A_H e + W(t, e).

    ``e0`` is one state (dim,) or an (N, dim) batch, integrated with one
    shared step (see :func:`evuas.integrate.integrate`); on a batch D(t)
    is evaluated once per call and K row by row.  With ``sample_times``
    and a W that is zero or a time signal with chirp terms, the samples
    come from the exact propagator
    :func:`evuas.integrate.propagate_linear` instead, and ``tol`` is not
    used: its diagnostics count sub-intervals, not steps.
    """
    w = None if pert is None else pert.unchecked
    if sample_times is not None and (w is None or pert.terms is not None):
        return propagate_linear(hurwitz.a_h, () if w is None else pert.terms,
                                t0, e0, t_end, sample_times, norm=norm)
    # e @ A_H^T is A_H e on one state and on each row of a batch
    a_t = hurwitz.a_h.T
    if w is None:
        def rhs(t, e):
            return e @ a_t
    else:
        def rhs(t, e):
            return e @ a_t + w(t, e)
    return _run(rhs, pert, e0, t0, t_end, tol, sample_times, norm)


def simulate_closed_loop(model, ctrl, pert, x0, t0, t_end, tol=1e-8,
                         sample_times=None, norm="euclidean"):
    """Integrate the first-order form under U = G(X).

    ``x0`` is one flat state (m*n,) or an (N, m*n) batch, one flat state
    per row, integrated with one shared step; states come back as
    (T, m*n) or (T, N, m*n) and ``traj.inputs`` as (T, m) or (T, N, m).
    Under an :class:`~evuas.synthesis.ImplicitController` for ``model`` the
    designed dynamics (column shift, then -input_free_term(X) + W(t, X))
    are integrated in closed form.  Newton then runs once per stored point
    (every accepted step, or every sample time) and row: it fills
    ``traj.inputs`` and is the domain-of-validity check.  A solve failure
    therefore surfaces after integration, as a ControllerEvaluationError
    carrying the time, state and residual of the first stored point where
    no feedback exists.  Any other controller is called inside the
    right-hand side, row by row.
    """
    dim = model.state_dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim > 2 or x0.shape[-1] != dim:
        raise ShapeError(
            f"x0: expected shape ({dim},) or (N, {dim}), got {x0.shape}")
    if isinstance(ctrl, ImplicitController) and ctrl.model is model:
        rhs = _designed_rhs(model, ctrl.design, ctrl.hurwitz, pert)
    else:
        def rhs(t, x):
            return _per_row(lambda row: evaluate_dynamics(
                model, pert, t, row, ctrl.solve(row)), x)
    traj = _run(rhs, pert, x0, t0, t_end, tol, sample_times, norm)
    return _report_inputs(traj, model.m,
                          lambda t, x, u0: ctrl.solve(x, u0=u0))


class TrackingSpec:
    """Reference trajectory with all derivative columns.

    x_d maps time to the (m, n) reference state matrix, y_d_n to the m
    first derivatives of its last column.  :meth:`check_consistency`
    spot-checks the derivative consistency of adjacent columns at seeded
    random times and :meth:`check_admissible` the admissibility condition
    F(X_d(t), 0) = 0 on a sample grid; :func:`simulate_tracking` runs both.
    """

    def __init__(self, x_d, y_d_n, m, n, name=None):
        self.x_d = x_d
        self.y_d_n = y_d_n
        self.m = int(m)
        self.n = int(n)
        self.name = name

    def value(self, t):
        mat = np.asarray(self.x_d(t), dtype=float)
        if mat.shape != (self.m, self.n):
            raise ValueError(
                f"x_d(t) must have shape ({self.m}, {self.n}), got {mat.shape}")
        return mat

    def check_consistency(self, t0, t_end, rel_tol=1e-4, seed=0):
        rng = np.random.default_rng(seed)
        span = t_end - t0
        dt = 1e-5 * max(1.0, span)
        for t in t0 + span * rng.random(10):
            fwd = self.value(t + dt)
            bwd = self.value(t - dt)
            mid = self.value(t)
            deriv = (fwd - bwd) / (2 * dt)
            for i in range(self.n - 1):
                scale = max(1.0, float(np.max(np.abs(deriv[:, i]))))
                err = float(np.max(np.abs(deriv[:, i] - mid[:, i + 1])))
                if err > rel_tol * scale:
                    raise ValueError(
                        f"reference column {i + 1} is not the derivative of "
                        f"column {i} at t={t:.4f} (error {err:.2e})")

    def check_admissible(self, model, t0, t_end, tol=1e-8, n_grid=17):
        for t in np.linspace(t0, t_end, n_grid):
            resid = float(np.linalg.norm(
                model.eval_f(flatten_state(self.value(t)), np.zeros(self.m))))
            if resid > tol:
                raise ValueError(
                    f"reference is inadmissible: |F(X_d({t:.4f}), 0)| = "
                    f"{resid:.2e} exceeds {tol:.1e}")


def simulate_tracking(model, design, hurwitz, track, pert, x0, t0, t_end,
                      tol=1e-8, sample_times=None, norm="euclidean"):
    """Integrate the deviation from a reference under the tracking feedback.

    ``x0`` is one flat state (m*n,).  The reference is checked first: its
    columns must be derivatives of each other and F(X_d(t), 0) = 0 must
    hold on a grid (see :class:`TrackingSpec`).  The feedback solves the
    time-dependent closing residual in U with the reference's nth
    derivative as feedforward; the returned trajectory is of the deviation
    Delta = X - X_d(t).  That feedforward cancels on the closed loop, so
    the designed deviation dynamics (column shift, then
    -input_free_term(Delta) + W(t, Delta + X_d(t))) are integrated in
    closed form.  Newton then runs once per stored point: it fills
    ``traj.inputs`` and is the domain-of-validity check, so a solve
    failure surfaces after integration, as a ControllerEvaluationError at
    the first stored point where no feedback exists.  With the zero
    reference this reduces exactly to the stabilization loop.
    """
    track.check_consistency(t0, t_end)
    track.check_admissible(model, t0, t_end)
    ctrl = ImplicitController(model, design, hurwitz)
    delta0 = flatten_state(unflatten_state(x0, model.m, model.n)
                           - track.value(t0))
    traj = _run(_designed_rhs(model, design, hurwitz, pert, track), pert,
                delta0, t0, t_end, tol, sample_times, norm)

    def feedback(t, delta, u0):
        x_total = delta + flatten_state(track.value(t))
        ydn = np.asarray(track.y_d_n(t), dtype=float)
        return ctrl.solve_shifted(delta, x_total, -ydn, u0=u0)
    return _report_inputs(traj, model.m, feedback)


# reference catalog for tracking scenarios

def _sin_cos_reference():
    return TrackingSpec(
        lambda t: np.array([[np.sin(t), np.cos(t)]]),
        lambda t: np.array([-np.sin(t)]),
        m=1, n=2, name="sin_cos")


def _zero_reference(m, n):
    return TrackingSpec(lambda t: np.zeros((m, n)),
                        lambda t: np.zeros(m), m=m, n=n, name="zero")


REFERENCE_CATALOG = {
    "sin_cos": (lambda m=1, n=2: _sin_cos_reference(),
                "scalar second-order reference (sin t, cos t)"),
    "zero": (_zero_reference, "identically zero reference"),
}


def make_reference(name, m=1, n=2):
    if name not in REFERENCE_CATALOG:
        raise KeyError(
            f"unknown reference {name!r}; catalog: {sorted(REFERENCE_CATALOG)}")
    factory = REFERENCE_CATALOG[name][0]
    return factory(m, n) if name == "zero" else factory(m=m, n=n)


# ---------------------------------------------------------------------------
# trajectory export


def trajectory_to_csv(traj, path, norm=None):
    """RFC-4180 CSV: t, x_1..x_k, u_1..u_m (when present), norm.

    One trajectory per file: a batch run's (T, N, dim) states raise
    ShapeError before the file is opened.
    """
    if traj.states.ndim != 2:
        raise ShapeError(
            "trajectory_to_csv writes one trajectory, states of shape "
            f"(T, dim); got {traj.states.shape}")
    norm = norm or traj.norm_used
    norms = traj.norms(norm)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        header = ["t"] + [f"x_{i + 1}" for i in range(traj.dim)]
        if traj.inputs is not None:
            header += [f"u_{i + 1}" for i in range(traj.inputs.shape[1])]
        header.append("norm")
        writer.writerow(header)
        for i in range(traj.times.size):
            row = [_CSV_FMT % traj.times[i]]
            row += [_CSV_FMT % v for v in traj.states[i]]
            if traj.inputs is not None:
                row += [_CSV_FMT % v for v in traj.inputs[i]]
            row.append(_CSV_FMT % norms[i])
            writer.writerow(row)


def diagnostics_to_json(traj, path):
    """Sidecar with the integrator diagnostics."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(traj.diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
