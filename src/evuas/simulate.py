"""Closed-loop, error-dynamics and tracking simulations.

The error system e' = A_H e + W and the designed closed loop are one
system, x' = M x + (0, W(t, x)) with a constant M: A_H, or
:func:`evuas.synthesis.closed_loop_matrix` for a loop closed by an
implicit controller and for the deviation from a reference under the
tracking feedback.  One runner serves all three.  On a sample grid with W
zero or a time signal with chirp terms (every time signal of the
catalogs), :func:`evuas.integrate.propagate_linear` steps it exactly from
sample to sample, at a cost that does not grow with the frequency of W.
Runs without sample times (the verify factories) and factored
disturbances are integrated, as are loops closed by any other controller,
which is then called inside the right-hand side on the whole batch.

Error-dynamics and closed-loop runs take one flat state (dim,) or an
(N, dim) batch, one state per row, with one shared step (the Monte-Carlo
sweeps of :mod:`evuas.verify` use this); tracking runs take one flat
state.  W is the ``unchecked`` W(t, x) of
:class:`evuas.model.PerturbationSpec`; its width is checked once per run.

An implicit controller defines U = G(X) by the closing residual
shift(X) + F(X, U) - A_H e(X) = 0, which cancels F: on the closed loop the
last block is -input_free_term(X) + W(t, X), linear in X.  Newton runs
afterwards, once per run, cold-started on every stored state at once.  It
reports the inputs and checks that the feedback exists along the
trajectory (the controller's domain of validity).
"""

import csv
import json

import numpy as np

from .errors import (ControllerEvaluationError, DesignError, NewtonError,
                     ShapeError)
from .integrate import integrate, propagate_linear
from .model import evaluate_dynamics, flatten_state, unflatten_state
from .synthesis import ImplicitController, closed_loop_matrix

_CSV_FMT = "%.17g"
# the reference checks of TrackingSpec
_CONSISTENCY_RTOL = 1e-4    # finite-difference derivative vs next column
_ADMISSIBLE_TOL = 1e-8      # bound on |F(X_d(t), 0)|
_ADMISSIBLE_GRID = 17       # sample times of the admissibility check


def _check_width(pert, width):
    # a zero W has no width to get wrong
    if pert is not None and pert.kind != "zero" and pert.dim != width:
        raise ShapeError(f"perturbation {pert.name!r} has {pert.dim} "
                         f"components; this system takes {width}")


def _states(x, dim, name):
    """One flat state (dim,) or an (N, dim) batch as floats, else
    ShapeError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 2 or x.shape[-1] != dim:
        raise ShapeError(
            f"{name}: expected shape ({dim},) or (N, {dim}), got {x.shape}")
    return x


def _run_linear(a, pert, x0, t0, t_end, tol, sample_times, track=None):
    """Run x' = A x + (0, W(t, x_true)), W in the last ``pert.dim`` entries
    and x_true = x + X_d(t) for the deviation from a reference ``track``:
    propagated on a sample grid under a zero or chirp-form W (each term's
    c zero-padded to the state), else integrated."""
    w = None if pert is None else pert.unchecked
    if sample_times is not None and (w is None or pert.terms is not None):
        terms = () if w is None else [
            term._replace(c=np.concatenate([np.zeros(len(a) - pert.dim),
                                            term.c]))
            for term in pert.terms]
        return propagate_linear(a, terms, t0, x0, t_end, sample_times)
    # x.dot(A^T) is A x on one state and on each row of a batch
    a_t = a.T
    split = None if w is None else len(a) - pert.dim

    def rhs(t, x):
        out = x.dot(a_t)
        if w is not None:
            out[..., split:] += w(t, x if track is None
                                  else x + flatten_state(track.value(t)))
        return out
    return integrate(rhs, t0, x0, t_end, tol=tol,
                     freq_hint=None if w is None else pert.freq_hint,
                     sample_times=sample_times)


def _report_inputs(traj, m, solve):
    """Solve the feedback at every stored point in one cold-started call.

    ``solve(x)`` returns U for the (T*N, dim) block of all stored states,
    time-major (a trajectory is one row per time).  U depends on the state
    alone, so no input from an earlier time is needed.  This is also the
    domain-of-validity check: a failed solve aborts with the time, state
    and residual of the first stored point where no feedback exists (the
    earliest time, then the lowest row).
    """
    batch = traj.states.ndim == 3
    rows = traj.states.shape[1] if batch else 1
    try:
        inputs = solve(traj.states.reshape(-1, traj.states.shape[-1]))
    except NewtonError as exc:
        i, row = divmod(exc.row, rows)
        t = traj.times[i]
        where = f" in row {row}" if batch else ""
        raise ControllerEvaluationError(
            f"feedback solve failed at t={t}{where}: {exc}", t=float(t),
            x=exc.x, residual=exc.residual,
            row=row if batch else None) from exc
    traj.inputs = inputs.reshape(traj.states.shape[:-1] + (m,))
    return traj


def simulate_error_dynamics(hurwitz, pert, e0, t0, t_end, tol=1e-8,
                            sample_times=None):
    """Integrate the error system e' = A_H e + W(t, e).

    ``e0`` is one state (dim,) or an (N, dim) batch.  With
    ``sample_times`` and a zero or chirp-form W the samples are exact and
    ``tol`` is not used: the diagnostics of
    :func:`evuas.integrate.propagate_linear` count sub-intervals, not
    steps.  An e0 or a W whose width is not dim raises ShapeError.
    """
    dim = len(hurwitz.a_h)
    e0 = _states(e0, dim, "e0")
    _check_width(pert, dim)
    return _run_linear(hurwitz.a_h, pert, e0, t0, t_end, tol, sample_times)


def simulate_closed_loop(model, ctrl, pert, x0, t0, t_end, tol=1e-8,
                         sample_times=None):
    """Integrate the first-order form under U = G(X).

    ``x0`` is one flat state (m*n,) or an (N, m*n) batch; states come back
    as (T, m*n) or (T, N, m*n) and ``traj.inputs`` as (T, m) or (T, N, m).
    Under an :class:`~evuas.synthesis.ImplicitController` for ``model`` the
    designed loop runs as the error system does, with M from
    :func:`~evuas.synthesis.closed_loop_matrix`.  Newton then fills
    ``traj.inputs``, so a solve failure surfaces after integration, as a
    ControllerEvaluationError carrying the time, state and residual of the
    first stored point where no feedback exists (the earliest time, then
    the lowest row, named in ``row``).  Any other controller is called
    inside the right-hand side, all rows at once, and once on all stored
    states.  A W whose width is not m raises ShapeError.
    """
    x0 = _states(x0, model.state_dim, "x0")
    _check_width(pert, model.m)
    if isinstance(ctrl, ImplicitController) and ctrl.model is model:
        traj = _run_linear(closed_loop_matrix(ctrl.design, ctrl.hurwitz),
                           pert, x0, t0, t_end, tol, sample_times)
    else:
        def rhs(t, x):
            return evaluate_dynamics(model, pert, t, x, ctrl.solve(x))
        traj = integrate(rhs, t0, x0, t_end, tol=tol,
                         freq_hint=None if pert is None else pert.freq_hint,
                         sample_times=sample_times)
    return _report_inputs(traj, model.m, ctrl.solve)


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

    def check_consistency(self, t0, t_end):
        rng = np.random.default_rng(0)
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
                if err > _CONSISTENCY_RTOL * scale:
                    raise ValueError(
                        f"reference column {i + 1} is not the derivative of "
                        f"column {i} at t={t:.4f} (error {err:.2e})")

    def check_admissible(self, model, t0, t_end):
        ts = np.linspace(t0, t_end, _ADMISSIBLE_GRID)
        resid = np.linalg.norm(model.eval_f(
            np.array([flatten_state(self.value(t)) for t in ts]),
            np.zeros((ts.size, self.m))), axis=1)
        for t, r in zip(ts, resid):
            if r > _ADMISSIBLE_TOL:
                raise ValueError(
                    f"reference is inadmissible: |F(X_d({t:.4f}), 0)| = "
                    f"{r:.2e} exceeds {_ADMISSIBLE_TOL:.1e}")


def simulate_tracking(model, ctrl, track, pert, x0, t0, t_end, tol=1e-8,
                      sample_times=None):
    """Integrate the deviation Delta = X - X_d(t) from a reference.

    ``ctrl`` is an :class:`~evuas.synthesis.ImplicitController` for
    ``model`` (else DesignError), whose design and A_H the loop takes.
    ``x0`` is one flat state (m*n,).  The reference must have the model's
    m and n (else ShapeError), derivative-consistent columns and
    F(X_d(t), 0) = 0 (see :class:`TrackingSpec`); a W whose width is not m
    raises ShapeError.  The feedback solves the closing residual in U with
    the reference's nth derivative as feedforward, which cancels on the
    closed loop: Delta follows the designed loop of
    :func:`simulate_closed_loop` under W(t, Delta + X_d(t)), and Newton
    fills ``traj.inputs`` afterwards, as for the closed loop.
    With the zero reference this reduces exactly to the stabilization loop.
    """
    if not (isinstance(ctrl, ImplicitController) and ctrl.model is model):
        raise DesignError(
            f"tracking needs an ImplicitController built for {model!r}, "
            f"got {type(ctrl).__name__}")
    if (track.m, track.n) != (model.m, model.n):
        raise ShapeError(
            f"reference {track.name!r} has m={track.m}, n={track.n}; the "
            f"model has m={model.m}, n={model.n}")
    _check_width(pert, model.m)
    track.check_consistency(t0, t_end)
    track.check_admissible(model, t0, t_end)
    delta0 = flatten_state(unflatten_state(x0, model.m, model.n)
                           - track.value(t0))
    traj = _run_linear(closed_loop_matrix(ctrl.design, ctrl.hurwitz), pert,
                       delta0, t0, t_end, tol, sample_times, track)

    ref = np.array([flatten_state(track.value(t)) for t in traj.times])
    ydn = np.array([track.y_d_n(t) for t in traj.times], dtype=float)
    return _report_inputs(traj, model.m, lambda delta: ctrl.solve_shifted(
        delta, delta + ref, -ydn))


# reference catalog for tracking scenarios

def _sin_cos_reference(m, n):
    if (m, n) != (1, 2):
        raise ValueError("reference 'sin_cos' has m=1, n=2, got "
                         f"m={m}, n={n}")
    return TrackingSpec(
        lambda t: np.array([[np.sin(t), np.cos(t)]]),
        lambda t: np.array([-np.sin(t)]),
        m=1, n=2, name="sin_cos")


def _zero_reference(m, n):
    return TrackingSpec(lambda t: np.zeros((m, n)),
                        lambda t: np.zeros(m), m=m, n=n, name="zero")


REFERENCE_CATALOG = {
    "sin_cos": (_sin_cos_reference,
                "scalar second-order reference (sin t, cos t)"),
    "zero": (_zero_reference, "identically zero reference"),
}


def make_reference(name, m=1, n=2):
    """Instantiate a catalog reference for a system of m channels of
    order n; ValueError if the reference has no such form."""
    if name not in REFERENCE_CATALOG:
        raise KeyError(
            f"unknown reference {name!r}; catalog: {sorted(REFERENCE_CATALOG)}")
    return REFERENCE_CATALOG[name][0](m, n)


# ---------------------------------------------------------------------------
# trajectory export


def trajectory_to_csv(traj, path, norm="euclidean"):
    """RFC-4180 CSV: t, x_1..x_k, u_1..u_m (when present), norm.

    One trajectory per file: a batch run's (T, N, dim) states raise
    ShapeError before the file is opened.
    """
    if traj.states.ndim != 2:
        raise ShapeError(
            "trajectory_to_csv writes one trajectory, states of shape "
            f"(T, dim); got {traj.states.shape}")
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


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def diagnostics_to_json(traj, path):
    """Sidecar with the integrator diagnostics."""
    _write_json(path, traj.diagnostics)
