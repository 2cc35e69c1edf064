"""Controlled systems of m coupled nth-order ODEs in first-order state form.

A system is described by the highest-derivative map ``F(X, U)`` together with
the integer pair ``(m, n)``: ``m`` channels, each of order ``n``.  The state
is the m-by-n matrix whose column ``i`` holds the (i-1)th time derivative of
the channel outputs; stacked column-wise it becomes the flat state vector of
length ``m*n`` used everywhere else in the package.  The state derivative is
then the column shift plus ``F + W`` in the last column, where ``W`` is an
additive disturbance.
"""

import numpy as np

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


class PerturbationSpec:
    """Additive disturbance ``W(t, X)``, kept in factored form ``D(t) K(X)``.

    ``kind`` is one of ``"zero"``, ``"time"`` (pure time signal) or
    ``"factored"``.  A time-only signal is representable as the factored
    form with ``D = diag(w(t))`` and ``K`` identically one.

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
        ``kind="factored"``.
    freq_hint : float or callable, optional
        Dominant angular frequency of the fastest oscillation (a constant
        or a function of t); integrators and quadrature cap their step at
        an eighth of the corresponding period.
    state_dim : int, optional
        Input dimension of K (defaults to ``dim``); the analyzer probes the
        state ball in this dimension.
    column_signals : list of callables, optional
        Vectorized time signals for the columns of D, overriding the
        generic (slow, per-scalar) column extraction.
    flags : dict, optional
        Declared metadata, e.g. ``{"bounded_columns": True,
        "diminishing_claimed": True}``.
    """

    def __init__(self, kind, dim, w=None, d=None, k=None, freq_hint=None,
                 state_dim=None, column_signals=None, flags=None, name=None):
        if kind not in ("zero", "time", "factored"):
            raise ValueError(f"unknown perturbation kind {kind!r}")
        if kind == "time" and w is None:
            raise ValueError("kind='time' requires w")
        if kind == "factored" and (d is None or k is None):
            raise ValueError("kind='factored' requires d and k")
        self.kind = kind
        self.dim = int(dim)
        self.w = w
        self.d = d
        self.k = k
        self.freq_hint = freq_hint
        self.state_dim = int(state_dim) if state_dim is not None else int(dim)
        self.column_signals = column_signals
        self.flags = dict(flags or {})
        self.name = name

    @classmethod
    def zero(cls, dim):
        return cls("zero", dim, name="zero")

    @classmethod
    def from_signal(cls, w, dim, freq_hint=None, flags=None, name=None,
                    state_dim=None):
        return cls("time", dim, w=w, freq_hint=freq_hint, flags=flags,
                   name=name, state_dim=state_dim)

    @classmethod
    def factored(cls, d, k, dim, freq_hint=None, flags=None, name=None,
                 state_dim=None, column_signals=None):
        return cls("factored", dim, d=d, k=k, freq_hint=freq_hint,
                   flags=flags, name=name, state_dim=state_dim,
                   column_signals=column_signals)

    def evaluate(self, t, x_flat=None):
        """W(t, X) as a (dim,) vector."""
        if self.kind == "zero":
            return np.zeros(self.dim)
        if self.kind == "time":
            out = np.atleast_1d(np.asarray(self.w(t), dtype=float))
        else:
            dmat = np.asarray(self.d(t), dtype=float)
            if dmat.shape != (self.dim, self.dim):
                raise ShapeError(
                    f"D(t): expected shape ({self.dim}, {self.dim}), "
                    f"got {dmat.shape}")
            if x_flat is None:
                raise ValueError("factored perturbation needs the state")
            kvec = np.atleast_1d(np.asarray(self.k(np.asarray(x_flat, dtype=float)),
                                            dtype=float))
            out = dmat @ kvec
        if out.shape != (self.dim,):
            raise ShapeError(
                f"W: expected output shape ({self.dim},), got {out.shape}")
        return _check_finite(out, "W")

    def columns(self):
        """The columns of D as time signals (list of callables t -> (dim,)).

        For time-only kinds these are the diagonal embeddings, so column j
        is w_j(t) at position j and zero elsewhere; those are built
        vectorized directly from w.  Factored kinds use registered
        ``column_signals`` when present and fall back to per-scalar
        extraction from D otherwise.
        """
        if self.column_signals is not None:
            return list(self.column_signals)
        if self.kind == "zero":
            dim = self.dim
            return [(lambda t, _d=dim: np.zeros((_d,) + np.shape(t)))
                    for _ in range(dim)]
        if self.kind == "time":
            w, dim = self.w, self.dim

            def embed(j):
                def col(t):
                    t_arr = np.asarray(t, dtype=float)
                    vals = np.asarray(w(t_arr), dtype=float)
                    if vals.ndim == t_arr.ndim:      # scalar signal
                        vals = vals[None] if t_arr.ndim else np.atleast_1d(vals)
                    out = np.zeros((dim,) + t_arr.shape)
                    out[j] = vals[j] if vals.shape[0] == dim else vals[0]
                    return out
                return col

            return [embed(j) for j in range(dim)]

        d = self.d

        def column(j):
            def col(t):
                return np.asarray(d(float(t)), dtype=float)[:, j]
            return col

        return [column(j) for j in range(self.dim)]

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


def _tanh(n=2):
    # bounded input map: |F| < 1, so the feedback exists only locally
    return SystemModel(1, n, lambda x, u: np.array([np.tanh(u[0])]),
                       jac_u=lambda x, u: np.array([[1.0 / np.cosh(u[0]) ** 2]]),
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
