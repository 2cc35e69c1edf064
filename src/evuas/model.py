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


def _as_vector(x, length, name):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (length,):
        raise ShapeError(f"{name}: expected shape ({length},), got {x.shape}")
    return x


def _check_finite(v, where):
    bad = ~np.isfinite(v)
    if bad.any():
        idx = int(np.argmax(bad))
        raise EvaluationError(
            f"{where} returned a non-finite value at component {idx}",
            component=idx, where=where)
    return v


def flatten_state(mat):
    """Column-stack an (m, n) state matrix into the flat (m*n,) vector."""
    return np.asarray(mat, dtype=float).flatten(order="F")


def unflatten_state(vec, m, n):
    """Inverse of :func:`flatten_state`; exact round trip."""
    vec = _as_vector(vec, m * n, "state")
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
        x_flat = _as_vector(x_flat, self.state_dim, "state")
        u = _as_vector(u, self.m, "input")
        out = np.atleast_1d(np.asarray(self.f(x_flat, u), dtype=float))
        if out.shape != (self.m,):
            raise ShapeError(
                f"F: expected output shape ({self.m},), got {out.shape}")
        return _check_finite(out, "F")

    def check_origin_equilibrium(self, tol=ORIGIN_TOL):
        """Verify F(0,0)=0 within ``tol`` (Euclidean); raises DesignError-free ValueError."""
        r = float(np.linalg.norm(self.eval_f(np.zeros(self.state_dim),
                                             np.zeros(self.m))))
        if r > tol:
            raise ValueError(
                f"F(0,0) = {r:.3e} exceeds the equilibrium tolerance {tol:.1e}")
        return r

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"SystemModel{tag}(m={self.m}, n={self.n})"


def _per_row(fn, x):
    """``fn`` of one flat state, applied to x or to each row of a batch."""
    if x.ndim == 1:
        return fn(x)
    return np.array([fn(row) for row in x])


def _shape_checked(fn, shape, what):
    """``fn`` with its value as a float array of ``shape``, else ShapeError."""
    def call(arg):
        out = np.atleast_1d(np.asarray(fn(arg), dtype=float))
        if out.shape != shape:
            raise ShapeError(f"{what}: expected shape {shape}, got {out.shape}")
        return out
    return call


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
            return k(x) @ d_t
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
        Input dimension of K (defaults to ``dim``); the analyzer probes the
        state ball in this dimension.
    terms : sequence of ChirpTerm, optional
        The chirp form of ``w`` for ``kind="time"``: w(t) is the real part
        of the sum of ``c a(t) exp(i phase(t))`` over the terms (see
        :class:`evuas.diminishing.ChirpTerm`).  ``w`` stays the evaluation
        path; the terms let error-dynamics runs on a sample grid use the
        exact propagator :func:`evuas.integrate.propagate_linear`.
    flags : dict, optional
        Declared metadata, e.g. ``{"bounded_columns": True,
        "diminishing_claimed": True}``.
    """

    def __init__(self, kind, dim, w=None, d=None, k=None, freq_hint=None,
                 state_dim=None, flags=None, name=None, terms=None):
        if kind not in ("zero", "time", "factored"):
            raise ValueError(f"unknown perturbation kind {kind!r}")
        if kind == "time" and w is None:
            raise ValueError("kind='time' requires w")
        if kind == "factored" and (d is None or k is None):
            raise ValueError("kind='factored' requires d and k")
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
        self.flags = dict(flags or {})
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
    def from_signal(cls, w, dim, freq_hint=None, flags=None, name=None,
                    state_dim=None, terms=None):
        return cls("time", dim, w=w, freq_hint=freq_hint, flags=flags,
                   name=name, state_dim=state_dim, terms=terms)

    @classmethod
    def factored(cls, d, k, dim, freq_hint=None, flags=None, name=None,
                 state_dim=None):
        return cls("factored", dim, d=d, k=k, freq_hint=freq_hint,
                   flags=flags, name=name, state_dim=state_dim)

    def evaluate(self, t, x_flat=None):
        """W(t, X): (dim,) at one flat state, (N, dim) on a batch of them.

        The shapes of w, D and K are checked, and a non-finite entry raises
        EvaluationError naming its component (in the first such row).
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
        if not np.isfinite(out).all():
            for row in out.reshape(-1, self.dim):
                _check_finite(row, "W")
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
        Flat state of length m*n, or an (m, n) state matrix.
    u : array_like
        Input of length m.

    Returns
    -------
    ndarray (m*n,)
        First (n-1)*m entries are the state entries m..n*m (the column
        shift); the last m entries are F(X, U) + W(t, X).
    """
    m, n = model.m, model.n
    x_arr = np.asarray(x, dtype=float)
    x_flat = flatten_state(x_arr) if x_arr.ndim == 2 else x_arr
    x_flat = _as_vector(x_flat, m * n, "state")

    last = model.eval_f(x_flat, u)
    if pert is not None and pert.kind != "zero":
        last = last + pert.evaluate(t, x_flat)
        _check_finite(last, "F+W")

    out = np.empty(m * n)
    out[:(n - 1) * m] = x_flat[m:]
    out[(n - 1) * m:] = last
    return out


def _fd_steps(v):
    return _FD_STEP * np.maximum(1.0, np.abs(v))


def jacobian_F_U(model, x, u):
    """m-by-m Jacobian of F with respect to the input.

    Uses the analytic Jacobian when the model supplies one, otherwise
    symmetric central differences with a per-coordinate step
    ``cbrt(eps) * max(1, |u_i|)``.
    """
    x = _as_vector(np.asarray(x, dtype=float).flatten(order="F"),
                   model.state_dim, "state")
    u = _as_vector(u, model.m, "input")
    if model.jac_u is not None:
        jac = np.asarray(model.jac_u(x, u), dtype=float)
        if jac.shape != (model.m, model.m):
            raise ShapeError(
                f"jac_u: expected ({model.m}, {model.m}), got {jac.shape}")
        return _check_finite(jac, "jac_u")
    jac = np.empty((model.m, model.m))
    h = _fd_steps(u)
    for j in range(model.m):
        up = u.copy(); up[j] += h[j]
        um = u.copy(); um[j] -= h[j]
        jac[:, j] = (model.eval_f(x, up) - model.eval_f(x, um)) / (2 * h[j])
    return _check_finite(jac, "jacobian_F_U")


def jacobian_F_X(model, x, u):
    """m-by-(m*n) Jacobian of F with respect to the flat state."""
    x = _as_vector(np.asarray(x, dtype=float).flatten(order="F"),
                   model.state_dim, "state")
    u = _as_vector(u, model.m, "input")
    if model.jac_x is not None:
        jac = np.asarray(model.jac_x(x, u), dtype=float)
        if jac.shape != (model.m, model.state_dim):
            raise ShapeError(
                f"jac_x: expected ({model.m}, {model.state_dim}), got {jac.shape}")
        return _check_finite(jac, "jac_x")
    jac = np.empty((model.m, model.state_dim))
    h = _fd_steps(x)
    for j in range(model.state_dim):
        xp = x.copy(); xp[j] += h[j]
        xm = x.copy(); xm[j] -= h[j]
        jac[:, j] = (model.eval_f(xp, u) - model.eval_f(xm, u)) / (2 * h[j])
    return _check_finite(jac, "jacobian_F_X")


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
