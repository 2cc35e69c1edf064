"""Closed-loop, error-dynamics and tracking simulations.

Every integrated run is one system, x' = M x + (0, F(x) + W(t, x)),
which :func:`evuas.integrate.integrate` steps in that structure, one
product per stage: x' = [x, 1, s] M(t), with the state part
s = (F(x), K(x)) and M(t) holding M^T over x and the time rows over
[1, s] (w(t) or zeros over the 1, the identity over F, D(t)^T over K).
A run with no state part (a zero W or a time signal, and no F) is linear
in the state, and integrate takes its affine step instead.
M is A_H for the error system,
:func:`evuas.synthesis.closed_loop_matrix` for a loop closed by an
implicit controller and for the deviation from a reference under the
tracking feedback, and the column shift for a loop closed by any other
controller; only that loop has the state term F(x) = F(x, G(x)), with the
controller called on the whole batch.  On a sample grid, a run without a
state term under a zero W or a time signal with chirp terms (every time
signal of the catalogs) is stepped exactly from sample to sample by
:func:`evuas.integrate.propagate_linear`, at a cost that does not grow
with the frequency of W.  Runs without sample times (the verify
factories), factored disturbances and state terms are integrated.

Error-dynamics and closed-loop runs take one flat state (dim,) or an
(N, dim) batch, one state per row, with one shared step (the Monte-Carlo
sweeps of :mod:`evuas.verify` use this); tracking runs take one flat
state.  One builder, :func:`_stage_parts`, sets up once per run the time
rows of every integrated run (the rows constant in t, with w(t) or
D(t)^T written over them once per attempted step) and its state part,
with K at the true state x + X_d(t) of a tracking run; the time rows are
m wide, which sets the width of g for integrate.  W's width is checked
once per run, and K on every row at t0; every value of w, D and K is
checked by the rules of :meth:`~evuas.model.PerturbationSpec.evaluate`
(else ShapeError naming the factor, and the time or times where it is at
fault; t0 at the first call), and a non-finite W stops the run with an
IntegrationError (or with F's EvaluationError, where F meets the
non-finite stage state first).  F goes through
:meth:`evuas.model.SystemModel.eval_f`, checked on every call.

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
from .integrate import _shaped, _stack, integrate, propagate_linear
from .model import _entry, _size, flatten_state, unflatten_state
from .norms import point_norms
from .synthesis import ImplicitController, _first_order, closed_loop_matrix

_CSV_FMT = "%.17g"
# the reference checks of TrackingSpec
_CONSISTENCY_RTOL = 1e-4    # finite-difference derivative vs next column
_ADMISSIBLE_TOL = 1e-8      # bound on |F(X_d(t), 0)|
_ADMISSIBLE_GRID = 17       # sample times of the admissibility check


def _stage_parts(pert, width, t0, x0, track=None, term=None):
    """W(t, x_true) + term(x), in the last ``width`` entries of x', as
    integrate's [1, s] R(t): ``(time_part, state)`` for a run from t0 whose
    state (a flat state or an (N, dim) batch) is x0 there, with
    x_true = x + X_d(t) for the deviation from a reference ``track``.

    ``time_part`` is integrate's ``(rows, fill)`` for R, (1 + p, width):
    row 0 is w(t) for a time signal and zero otherwise, then the identity
    over term(x), then D(t)^T over K(x_true) for a factored W.  ``state(t,
    x, out)`` writes s = (term(x), K(x_true)) into ``out``, (p,) or (N, p),
    and is None when p is 0.  K is checked on every row of x0 here; every
    value of w, D and K is checked by the rules of
    :meth:`~evuas.model.PerturbationSpec.evaluate`, and ShapeError names
    the spec, the times (t0 at the first call) and the factor.
    """
    kind = "zero" if pert is None else pert.kind
    factored = kind == "factored"
    p = width * ((term is not None) + factored)
    rows = np.zeros((1 + p, width))
    if term is not None:
        rows[1:1 + width] = np.eye(width)
    if kind == "time":
        def fill(ts, out):
            out[:, 0] = pert._factor(ts, t0).T
    else:
        def fill(ts, out):
            out[:, 1 + p - width:] = pert._factor(ts, t0).transpose(2, 1, 0)

    if factored:
        pert._k(x0 if track is None else x0 + flatten_state(track.value(t0)),
                pert._where(f"t0={t0}"))
        k = pert.k

    def state(t, x, out):
        if term is not None:
            out[..., :width] = term(x)
            out = out[..., width:]
        if factored:
            # K(x_true), checked at the cost of a few attribute reads when
            # it is already a float array of out's shape
            if track is not None:
                x = x + flatten_state(track.value(t))
            try:
                v = k(x) if x.ndim == 1 else np.array([k(row) for row in x])
            except ValueError:
                v = None            # rows of K that do not stack
            if getattr(v, "shape", None) != out.shape or v.dtype.kind != "f":
                v = pert._k(x, pert._where(f"t={t}"))
            out[...] = v
    return (rows, None if kind == "zero" else fill), state if p else None


def _run_linear(a, pert, width, x0, t0, t_end, tol, sample_times,
                track=None, term=None):
    """Run x' = A x + (0, term(x) + W(t, x_true)), each in the last entries
    of its width and x_true = x + X_d(t) for the deviation from a reference
    ``track``: propagated on a sample grid under a zero or chirp-form W
    (each term's c zero-padded to the state) and no state ``term``, else
    integrated as x' = [x, 1, s] M(t), with the time rows and state part
    of :func:`_stage_parts`.  A W that is not zero must have ``width``
    components."""
    if pert is not None and pert.kind == "zero":
        pert = None
    if pert is not None and pert.dim != width:
        raise ShapeError(f"perturbation {pert.name!r} has {pert.dim} "
                         f"components; this system takes {width}")
    if sample_times is not None and term is None and (
            pert is None or pert.terms is not None):
        terms = () if pert is None else [
            chirp._replace(c=np.concatenate([np.zeros(len(a) - pert.dim),
                                             chirp.c]))
            for chirp in pert.terms]
        return propagate_linear(a, terms, t0, x0, t_end, sample_times)
    time_part, state = _stage_parts(pert, width, t0, x0, track, term)
    return integrate(state, t0, x0, t_end, tol=tol,
                     freq_hint=None if pert is None else pert.freq_hint,
                     sample_times=sample_times, a=a, time_part=time_part)


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
    e0 = _stack(e0, dim, "e0")
    return _run_linear(hurwitz.a_h, pert, dim, e0, t0, t_end, tol,
                       sample_times)


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
    inside the right-hand side, all rows at once, with F(X, G(X)) added to
    the column shift, and once on all stored states.  A W whose width is
    not m raises ShapeError.
    """
    x0 = _stack(x0, model.state_dim)
    if isinstance(ctrl, ImplicitController) and ctrl.model is model:
        a, term = closed_loop_matrix(ctrl.design, ctrl.hurwitz), None
    else:
        a = _first_order(model.m, model.n, 0)

        def term(x):
            return model.eval_f(x, ctrl.solve(x))
    traj = _run_linear(a, pert, model.m, x0, t0, t_end, tol, sample_times,
                       term=term)
    return _report_inputs(traj, model.m, ctrl.solve)


class TrackingSpec:
    """Reference trajectory with all derivative columns.

    x_d maps time to the (m, n) reference state matrix, y_d_n to the (m,)
    derivative of its last column (else ShapeError).  :meth:`check_consistency`
    spot-checks at seeded random times that each column, and y_d_n, is the
    derivative of the one before, and :meth:`check_admissible` that
    F(X_d(t), 0) = 0 on a sample grid; :func:`simulate_tracking` runs both.
    """

    def __init__(self, x_d, y_d_n, m, n, name=None):
        self.x_d = x_d
        self.y_d_n = y_d_n
        self.m = _size("m", m)
        self.n = _size("n", n)
        self.name = name

    def value(self, t):
        return _shaped(self.x_d(t), (self.m, self.n), "x_d(t)")

    def feedforward(self, t):
        return _shaped(self.y_d_n(t), (self.m,), "y_d_n(t)")

    def check_consistency(self, t0, t_end):
        rng = np.random.default_rng(0)
        span = t_end - t0
        dt = 1e-5 * max(1.0, span)
        names = [f"reference column {i}" for i in range(1, self.n)] + ["y_d_n"]
        for t in t0 + span * rng.random(10):
            fwd = self.value(t + dt)
            bwd = self.value(t - dt)
            deriv = (fwd - bwd) / (2 * dt)
            nxt = np.column_stack([self.value(t)[:, 1:], self.feedforward(t)])
            for i, name in enumerate(names):
                scale = max(1.0, float(np.max(np.abs(deriv[:, i]))))
                err = float(np.max(np.abs(deriv[:, i] - nxt[:, i])))
                if err > _CONSISTENCY_RTOL * scale:
                    raise ValueError(
                        f"{name} is not the derivative of column {i} at "
                        f"t={t:.4f} (error {err:.2e})")

    def check_admissible(self, model, t0, t_end):
        ts = np.linspace(t0, t_end, _ADMISSIBLE_GRID)
        resid = point_norms(model.eval_f(
            np.array([flatten_state(self.value(t)) for t in ts]),
            np.zeros((ts.size, self.m))))
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
    feedforward, and F(X_d(t), 0) = 0 (see :class:`TrackingSpec`), all
    checked before the run; a W whose width is not m raises ShapeError.
    The feedback solves the closing residual in U with
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
    track.check_consistency(t0, t_end)
    track.check_admissible(model, t0, t_end)
    delta0 = flatten_state(unflatten_state(x0, model.m, model.n)
                           - track.value(t0))
    traj = _run_linear(closed_loop_matrix(ctrl.design, ctrl.hurwitz), pert,
                       model.m, delta0, t0, t_end, tol, sample_times, track)

    ref = np.array([flatten_state(track.value(t)) for t in traj.times])
    ydn = np.array([track.feedforward(t) for t in traj.times])
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
    return _entry("reference", REFERENCE_CATALOG, name)(m=m, n=n)


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
