"""Controlled systems of m coupled nth-order ODEs in first-order state form.

A system is described by the highest-derivative map ``F(X, U)`` together with
the integer pair ``(m, n)``: ``m`` channels, each of order ``n``.  The state
is the m-by-n matrix whose column ``i`` holds the (i-1)th time derivative of
the channel outputs; stacked column-wise it becomes the flat state vector of
length ``m*n`` used everywhere else in the package.  The state derivative is
then the column shift plus ``F + W`` in the last column, where ``W`` is an
additive disturbance.
"""

import functools
import math

import numpy as np

from .diminishing import chirp_freq
from .errors import EvaluationError, ShapeError

# central-difference step scale for C^1 maps
_FD_STEP = float(np.cbrt(np.finfo(float).eps))

# slack for the equilibrium check F(0,0)=0 on numerical user models
ORIGIN_TOL = 1e-10


def _as_shape(x, shape, name):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != shape:
        raise ShapeError(f"{name}: expected shape {shape}, got {x.shape}")
    return x


def _state_and_input(model, x, u):
    """Checked ``(x, u)``: a flat state and its input, or a batch of
    (N, m*n) states and (N, m) inputs.  The input decides, since for m = 1
    an (m, n) state matrix has the shape of a one-row batch."""
    u = np.asarray(u, dtype=float)
    batch = u.shape[:1] if u.ndim == 2 else ()
    return (_as_shape(x, batch + (model.state_dim,), "state"),
            _as_shape(u, batch + (model.m,), "input"))


def _check_finite(v, where, rows=False):
    """``v``, else EvaluationError at its first non-finite entry.

    The component is the flat index into ``v``; with ``rows`` the first
    axis indexes a batch, and the error names the first failing row and
    the component (flat index) within it.
    """
    bad = ~np.isfinite(v)
    if not bad.any():
        return v
    if not rows:
        idx = int(np.argmax(bad))
        raise EvaluationError(
            f"{where} returned a non-finite value at component {idx}",
            component=idx, where=where)
    bad = bad.reshape(len(v), -1)
    row = int(np.argmax(bad.any(axis=1)))
    idx = int(np.argmax(bad[row]))
    raise EvaluationError(
        f"{where} returned a non-finite value in row {row} at component "
        f"{idx}", component=idx, where=where, row=row)


def flatten_state(mat):
    """Column-stack an (m, n) state matrix into the flat (m*n,) vector."""
    return np.asarray(mat, dtype=float).flatten(order="F")


def unflatten_state(vec, m, n):
    """Inverse of :func:`flatten_state`; exact round trip."""
    vec = _as_shape(vec, (m * n,), "state")
    return vec.reshape((m, n), order="F")


class SystemModel:
    """The (m, n, F) triple with Jacobian access.

    Parameters
    ----------
    m : int
        Number of channels (equations and inputs), m >= 1.
    n : int
        Derivative order, n > 1 for synthesis; n >= 1 accepted for plain
        simulation of integrator chains.
    f : callable
        ``f(x_flat, u) -> ndarray (m,)``, the highest-derivative map,
        assumed C^1.  ``x_flat`` has length ``m*n``.
    jac_u, jac_x : callable, optional
        Analytic Jacobians of ``f`` with respect to the input (m, m) and the
        flat state (m, m*n).  Finite differences are used when absent.
    name : str, optional
        Catalog identifier, carried through exports.

    The model holds no mutable state after construction, so a single
    instance may be evaluated from many trajectories concurrently.
    """

    def __init__(self, m, n, f, jac_u=None, jac_x=None, name=None):
        if int(m) < 1:
            raise ValueError(f"m must be a positive integer, got {m}")
        if int(n) < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.m = int(m)
        self.n = int(n)
        self.f = f
        self.jac_u = jac_u
        self.jac_x = jac_x
        self.name = name

    @property
    def state_dim(self):
        return self.m * self.n

    def eval_f(self, x_flat, u):
        """F(X, U): (m,) at one flat state, (N, m) on a batch of (N, m*n)
        states with (N, m) inputs; ``f`` sees one state at a time."""
        x_flat, u = _state_and_input(self, x_flat, u)
        return _evaluate(self.f, (self.m,), "F", x_flat, u)

    def check_origin_equilibrium(self):
        """|F(0, 0)| (Euclidean); ValueError if it exceeds ORIGIN_TOL."""
        r = float(np.linalg.norm(self.eval_f(np.zeros(self.state_dim),
                                             np.zeros(self.m))))
        if r > ORIGIN_TOL:
            raise ValueError(f"F(0,0) = {r:.3e} exceeds the equilibrium "
                             f"tolerance {ORIGIN_TOL:.1e}")
        return r

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"SystemModel{tag}(m={self.m}, n={self.n})"


def _per_row(fn, x, *rest):
    """``fn`` of one flat state, applied to x or to each row of a batch
    (with the same row of each array in ``rest``)."""
    if x.ndim == 1:
        return fn(x, *rest)
    return np.array([fn(*rows) for rows in zip(x, *rest)])


def _evaluate(fn, shape, where, x, *rest):
    """``_per_row(fn, x, *rest)`` as floats of ``shape`` per state (a
    scalar standing for a (1,) value), each entry finite; else ShapeError
    or EvaluationError naming ``where``."""
    out = np.asarray(_per_row(fn, x, *rest), dtype=float)
    if shape == (1,) and out.shape == x.shape[:-1]:
        out = out[..., None]
    shape = x.shape[:-1] + shape
    if out.shape != shape:
        raise ShapeError(
            f"{where}: expected output shape {shape}, got {out.shape}")
    return _check_finite(out, where, rows=x.ndim == 2)


def _shape_checked(fn, shape, what):
    """``fn`` with its value as a float array of ``shape``, else ShapeError."""
    return lambda arg: _as_shape(fn(arg), shape, what)


def _disturbance(kind, w, d, k):
    """Unchecked W(t, x) on a flat state or an (N, state_dim) batch: w(t),
    to broadcast, or D(t) once and K row by row, each row's product with D
    taken on its own so that it is the one-state value bit for bit."""
    if kind == "zero":
        return None
    if kind == "time":
        return lambda t, x: w(t)

    def factored(t, x):
        d_t = np.asarray(d(t), dtype=float).T
        if x.ndim == 1:
            return np.asarray(k(x), dtype=float).dot(d_t)
        return (_per_row(k, x)[:, None] @ d_t)[:, 0]
    return factored


def _column(kind, dim, w, d):
    """(j, t) -> column j of D(t), with D = diag(w(t)) for a time signal."""
    if kind == "factored":
        return lambda j, t: np.asarray(d(t), dtype=float)[:, j]
    if kind == "zero":
        return lambda j, t: np.zeros((dim,) + np.shape(t))

    def diagonal(j, t):
        out = np.zeros((dim,) + np.shape(t))
        out[j] = np.reshape(np.asarray(w(t), dtype=float), out.shape)[j]
        return out
    return diagonal


class PerturbationSpec:
    """Additive disturbance ``W(t, X)``: zero, a time signal or ``D(t) K(X)``.

    ``kind`` is ``"zero"``, ``"time"`` (W = w(t)) or ``"factored"``.  The
    spec alone knows how W of each kind is evaluated on one flat state or
    an (N, state_dim) batch: :meth:`evaluate` checks, ``unchecked(t, x)``
    (None for the zero kind) serves right-hand sides, whose integrator
    checks the states, and :meth:`columns` slices D (diag(w(t)) for a time
    signal).

    Parameters
    ----------
    kind : str
    dim : int
        Output dimension (the m of the system it perturbs).
    w : callable, optional
        ``w(t) -> (dim,)`` for ``kind="time"``.  Should also accept a 1-d
        array of times and return ``(dim, len(t))`` for fast quadrature;
        scalar-only callables are handled via a fallback loop.
    d, k : callable, optional
        ``d(t) -> (dim, dim)`` and ``k(x_flat) -> (dim,)`` for
        ``kind="factored"``; ``k`` only ever sees one state, and ``d`` may
        take an array of times like ``w``, returning ``(dim, dim, len(t))``.
    freq_hint : float or callable, optional
        Dominant angular frequency of the fastest oscillation (a constant
        or a function of t); integrators and quadrature cap their step at
        an eighth of the corresponding period.  Defaults to
        ``chirp_freq(terms)`` when ``terms`` are given.
    state_dim : int, optional
        Input dimension of K for ``kind="factored"`` (defaults to ``dim``);
        the analyzer probes the state ball in this dimension.  The other
        kinds ignore the state and take none.
    terms : sequence of ChirpTerm, optional
        The chirp form of ``w`` for ``kind="time"``: w(t) is the real part
        of the sum of ``c a(t) exp(i phase(t))`` over the terms (see
        :class:`evuas.diminishing.ChirpTerm`).  ``w`` stays the evaluation
        path; the terms let the linear runs of :mod:`evuas.simulate` use
        the exact propagator :func:`evuas.integrate.propagate_linear`.
    """

    def __init__(self, kind, dim, w=None, d=None, k=None, freq_hint=None,
                 state_dim=None, name=None, terms=None):
        if kind not in ("zero", "time", "factored"):
            raise ValueError(f"unknown perturbation kind {kind!r}")
        if kind == "time" and w is None:
            raise ValueError("kind='time' requires w")
        if kind == "factored" and (d is None or k is None):
            raise ValueError("kind='factored' requires d and k")
        if state_dim is not None and kind != "factored":
            raise ValueError("only kind='factored' takes a state_dim")
        if terms is not None:
            if kind != "time":
                raise ValueError("only kind='time' takes chirp terms")
            for term in terms:
                if np.shape(term.c) != (int(dim),):
                    raise ShapeError(
                        f"chirp term: expected c of shape ({int(dim)},), "
                        f"got {np.shape(term.c)}")
            if freq_hint is None:
                freq_hint = chirp_freq(terms)
        self.kind = kind
        self.dim = dim = int(dim)
        self.w = w
        self.d = d
        self.k = k
        self.freq_hint = freq_hint
        self.state_dim = int(state_dim) if state_dim is not None else dim
        self.name = name
        self.terms = None if terms is None else tuple(terms)
        self.unchecked = _disturbance(kind, w, d, k)
        self._checked = _disturbance(
            kind, _shape_checked(w, (dim,), "W"),
            _shape_checked(d, (dim, dim), "D(t)"),
            _shape_checked(k, (dim,), "K(x)"))
        self._column = _column(kind, dim, w, d)

    @classmethod
    def zero(cls, dim):
        return cls("zero", dim, name="zero")

    @classmethod
    def from_signal(cls, w, dim, freq_hint=None, name=None, terms=None):
        return cls("time", dim, w=w, freq_hint=freq_hint, name=name,
                   terms=terms)

    @classmethod
    def factored(cls, d, k, dim, freq_hint=None, name=None, state_dim=None):
        return cls("factored", dim, d=d, k=k, freq_hint=freq_hint,
                   name=name, state_dim=state_dim)

    def evaluate(self, t, x_flat=None):
        """W(t, X): (dim,) at one flat state, (N, dim) on a batch of them.

        The shapes of w, D and K are checked, and a non-finite entry raises
        EvaluationError naming its component (and on a batch the first row
        that has one).
        """
        if x_flat is None and self.kind == "factored":
            raise ValueError("factored perturbation needs the state")
        shape = np.shape(x_flat)[:-1] + (self.dim,)
        if self._checked is None:
            return np.zeros(shape)
        x = None if x_flat is None else np.asarray(x_flat, dtype=float)
        out = self._checked(t, x)
        if out.shape != shape:            # w(t) on a batch
            out = np.tile(out, shape[:-1] + (1,))
        if out.ndim == 1:
            return _check_finite(out, "W")
        _check_finite(out.reshape(-1, self.dim), "W", rows=True)
        return out

    def columns(self):
        """The columns of D as time signals t -> (dim,).

        A column takes an array of N times too, returning (dim, N), when D
        (or w) does; :class:`evuas.diminishing.SignalAdapter` falls back to
        one time at a time otherwise.
        """
        return [functools.partial(self._column, j) for j in range(self.dim)]

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"PerturbationSpec{tag}(kind={self.kind}, dim={self.dim})"


def evaluate_dynamics(model, pert, t, x, u):
    """Right-hand side of the first-order form: shift columns, then F + W.

    Parameters
    ----------
    model : SystemModel
    pert : PerturbationSpec or None
        None means no disturbance.
    t : float
    x : array_like
        Flat state of length m*n, or an (N, m*n) batch of them.
    u : array_like
        Input of length m, or (N, m) with a batch.

    Returns
    -------
    ndarray (m*n,) or (N, m*n)
        First (n-1)*m entries are the state entries m..n*m (the column
        shift); the last m entries are F(X, U) + W(t, X).  A row of a batch
        is its one-state value bit for bit.
    """
    m, n = model.m, model.n
    x, u = _state_and_input(model, x, u)

    last = model.eval_f(x, u)
    if pert is not None and pert.kind != "zero":
        last = last + pert.evaluate(t, x)
        _check_finite(last, "F+W", rows=x.ndim == 2)

    out = np.empty(x.shape)
    out[..., :(n - 1) * m] = x[..., m:]
    out[..., (n - 1) * m:] = last
    return out


def _central_difference(fn, v, where):
    """Jacobian of ``fn`` at v, or at each row of a batch, by the central
    differences of :func:`jacobian_F_U`."""
    h = _FD_STEP * np.maximum(1.0, np.abs(v))
    cols = []
    for j in range(v.shape[-1]):
        vp = v.copy(); vp[..., j] += h[..., j]
        vm = v.copy(); vm[..., j] -= h[..., j]
        cols.append((fn(vp) - fn(vm)) / (2 * h[..., j, None]))
    return _check_finite(np.stack(cols, axis=-1), where, rows=v.ndim == 2)


def jacobian_F_U(model, x, u):
    """m-by-m Jacobian of F with respect to the input, (N, m, m) on a batch.

    A batch is as for :meth:`SystemModel.eval_f`: an (N, m) input with
    (N, m*n) states.  Uses the analytic Jacobian when the model supplies
    one, called row by row, otherwise symmetric central differences with a
    per-coordinate step ``cbrt(eps) * max(1, |u_i|)``.
    """
    x, u = _state_and_input(model, x, u)
    if model.jac_u is not None:
        return _evaluate(model.jac_u, (model.m, model.m), "jac_u", x, u)
    return _central_difference(lambda v: model.eval_f(x, v), u,
                               "jacobian_F_U")


def jacobian_F_X(model, x, u):
    """m-by-(m*n) Jacobian of F with respect to the flat state, (N, m, m*n)
    on a batch; the batch, analytic Jacobian and steps are as for
    :func:`jacobian_F_U`, with the step scaled by |x_i|."""
    x, u = _state_and_input(model, x, u)
    if model.jac_x is not None:
        return _evaluate(model.jac_x, (model.m, model.state_dim), "jac_x",
                         x, u)
    return _central_difference(lambda v: model.eval_f(v, u), x,
                               "jacobian_F_X")


# ---------------------------------------------------------------------------
# built-in model catalog


def _chain(m=1, n=2):
    return SystemModel(m, n, lambda x, u: np.asarray(u, dtype=float).copy(),
                       jac_u=lambda x, u: np.eye(m),
                       jac_x=lambda x, u: np.zeros((m, m * n)),
                       name="chain")


def _cubic(n=2):
    # scalar input nonlinearity u + u^3; coercive with globally nonsingular J_{F,U}
    return SystemModel(1, n, lambda x, u: np.array([u[0] + u[0] ** 3]),
                       jac_u=lambda x, u: np.array([[1.0 + 3.0 * u[0] ** 2]]),
                       jac_x=lambda x, u: np.zeros((1, n)),
                       name="cubic")


def _sech2(u):
    # sech(u)^2 from e^{-2|u|}: no overflow where cosh(u) would overflow
    e = math.exp(-2.0 * abs(u))
    return 4.0 * e / (1.0 + e) ** 2


def _tanh(n=2):
    # bounded input map: |F| < 1, so the feedback exists only locally
    return SystemModel(1, n, lambda x, u: np.array([np.tanh(u[0])]),
                       jac_u=lambda x, u: np.array([[_sech2(u[0])]]),
                       jac_x=lambda x, u: np.zeros((1, n)),
                       name="tanh")


MODEL_CATALOG = {
    "chain": (_chain, "integrator chain, F = U, any m and n"),
    "cubic": (_cubic, "scalar F = u + u^3, coercive input nonlinearity"),
    "tanh": (_tanh, "scalar F = tanh(u), bounded input map"),
}


def make_model(name, m=1, n=2):
    """Instantiate a catalog model by its stable identifier."""
    if name not in MODEL_CATALOG:
        raise KeyError(f"unknown model {name!r}; catalog: {sorted(MODEL_CATALOG)}")
    factory = MODEL_CATALOG[name][0]
    if name == "chain":
        return factory(m=m, n=n)
    if m != 1:
        raise ValueError(f"model {name!r} is scalar (m=1), got m={m}")
    return factory(n=n)
