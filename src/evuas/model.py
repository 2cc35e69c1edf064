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
import operator

import numpy as np

from .diminishing import SignalAdapter, chirp_freq
from .errors import EvaluationError, ShapeError
from .integrate import _shaped, _stack, _time_grid

# central-difference step scale for C^1 maps
_FD_STEP = float(np.cbrt(np.finfo(float).eps))

# slack for the equilibrium check F(0,0)=0 on numerical user models
ORIGIN_TOL = 1e-10


def _state_and_input(model, x, u):
    """Checked ``(x, u)``, each by :func:`evuas.integrate._stack`: a flat
    state and its input, or (N, m*n) states and (N, m) inputs."""
    x, u = _stack(x, model.state_dim, "state"), _stack(u, model.m, "input")
    if x.shape[:-1] != u.shape[:-1]:
        raise ShapeError(f"state {x.shape} and input {u.shape}: counts differ")
    return x, u


def _check_finite(v, where, rows=False, what=None):
    """``v``, else EvaluationError at its first non-finite entry.

    The component is the flat index into ``v``; with ``rows`` the first
    axis indexes a batch, and the error names the first failing row and
    the component (flat index) within it.  ``what`` opens the message,
    by default "<where> returned a non-finite value".
    """
    bad = ~np.isfinite(v)
    if not bad.any():
        return v
    what = what or f"{where} returned a non-finite value"
    if not rows:
        idx = int(np.argmax(bad))
        raise EvaluationError(f"{what} at component {idx}", component=idx,
                              where=where)
    bad = bad.reshape(len(v), -1)
    row = int(np.argmax(bad.any(axis=1)))
    idx = int(np.argmax(bad[row]))
    raise EvaluationError(f"{what} in row {row} at component {idx}",
                          component=idx, where=where, row=row)


def _entry(kind, catalog, name):
    """The builder of catalog entry ``name``, else KeyError."""
    if name not in catalog:
        raise KeyError(f"unknown {kind} {name!r}; catalog: {sorted(catalog)}")
    return catalog[name][0]


def _size(name, value):
    """``value`` as an int >= 1, else ValueError: a dimension is never
    truncated from a float or left empty."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name}: expected an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def flatten_state(mat):
    """Column-stack an (m, n) state matrix into the flat (m*n,) vector."""
    return np.asarray(mat, dtype=float).flatten(order="F")


def unflatten_state(vec, m, n):
    """Inverse of :func:`flatten_state`; exact round trip."""
    return _shaped(vec, (m * n,), "state").reshape((m, n), order="F")


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
        ``f(x, u) -> ndarray (N, m)`` (or (N,) for m = 1), the
        highest-derivative map on N flat states (N, m*n) with inputs (N, m),
        assumed C^1.  One state comes as a one-row batch; rows must not
        interact, so that each row of a batch is its one-state value.
    jac_u, jac_x : callable, optional
        Analytic Jacobians of ``f``, called like it: (N, m, m) in the input
        and (N, m, m*n) in the flat state; finite differences when absent.
    name : str, optional
        Catalog identifier, carried through exports.

    The model holds no mutable state after construction, so a single
    instance may be evaluated from many trajectories concurrently.
    """

    def __init__(self, m, n, f, jac_u=None, jac_x=None, name=None):
        self.m = _size("m", m)
        self.n = _size("n", n)
        self.f = f
        self.jac_u = jac_u
        self.jac_x = jac_x
        self.name = name

    @property
    def state_dim(self):
        return self.m * self.n

    def eval_f(self, x_flat, u):
        """F(X, U): (m,) at one flat state, (N, m) on a batch of (N, m*n)
        states with (N, m) inputs, from one call of ``f``."""
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


def _evaluate(fn, shape, where, x, *rest):
    """``fn`` called once on the batch x (a flat state is a one-row batch
    whose row is returned), with the same rows of ``rest``, as floats of
    ``shape`` per state (an (N,) value stands for (N, 1) when ``shape`` is
    (1,)), each entry finite; else ShapeError or EvaluationError naming
    ``where``.  A non-finite value that comes with a non-finite state or
    input (``rest`` holds the input) names that argument instead, the
    state first: ``where`` is then "state" or "input"."""
    one = x.ndim == 1
    if one:
        x, rest = x[None], [v[None] for v in rest]
    out = np.asarray(fn(x, *rest), dtype=float)
    if shape == (1,) and out.shape == x.shape[:-1]:
        out = out[..., None]
    shape = x.shape[:-1] + shape
    if out.shape != shape:
        raise ShapeError(
            f"{where}: expected output shape {shape}, got {out.shape}")
    out = out[0] if one else out
    if np.isfinite(out).all():
        return out
    for arg, v in zip(("state", "input"), (x, *rest)):
        _check_finite(v[0] if one else v, arg, rows=not one,
                      what=f"{where} was passed a non-finite {arg}")
    return _check_finite(out, where, rows=not one)


class PerturbationSpec:
    """Additive disturbance ``W(t, X)``: zero, a time signal or ``D(t) K(X)``.

    ``kind`` is ``"zero"``, ``"time"`` (W = w(t)) or ``"factored"``.
    :meth:`evaluate` checks W on a grid of times and states, and
    :meth:`columns` slices D (diag(w(t)) for a time signal); the runs of
    :mod:`evuas.simulate` read w(t) or D(t) once per attempted step and
    K(x) at each stage state.  w and D are only ever called on 1-d arrays
    of times, and each factor has one check, shared by :meth:`evaluate`,
    :meth:`columns` and an integrated run.

    Parameters
    ----------
    kind : str
    dim : int
        Output dimension (the m of the system it perturbs).
    w : callable, optional
        ``w(t)`` for ``kind="time"``, called on a 1-d array of N times:
        it returns ``(dim, N)``, or ``(N,)`` when dim is 1.  A callable
        that takes one float time only (``math.cos``) raises ShapeError.
    d, k : callable, optional
        ``d(t)`` and ``k(x_flat)`` for ``kind="factored"``: ``d`` is
        called like ``w`` and returns ``(dim, dim, N)``; ``k`` only ever
        sees one state and returns exactly ``(dim,)``.
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
        dim = _size("dim", dim)
        if terms is not None:
            if kind != "time":
                raise ValueError("only kind='time' takes chirp terms")
            for term in terms:
                if np.shape(term.c) != (dim,):
                    raise ShapeError(
                        f"chirp term: expected c of shape ({dim},), "
                        f"got {np.shape(term.c)}")
            if freq_hint is None:
                freq_hint = chirp_freq(terms)
        self.kind = kind
        self.dim = dim
        self.w = w
        self.d = d
        self.k = k
        self.freq_hint = freq_hint
        self.state_dim = dim if state_dim is None else _size("state_dim",
                                                             state_dim)
        self.name = name
        self.terms = None if terms is None else tuple(terms)

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

    def _factor(self, ts, t0=None):
        """w or D on the 1-d array ts of N times: (dim, N) for w, by the
        rule of :class:`SignalAdapter` ((N,) stands for (1, N) at dim 1),
        (dim, dim, N) for D.  A float64 array of that shape passes after a
        few attribute reads; anything else is checked, else ShapeError
        naming the factor, also when the callable takes one float time
        only, and on a run from ``t0`` the spec and the times."""
        factored = self.kind == "factored"
        shape = (self.dim,) * factored + (self.dim, ts.size)
        try:
            v = (self.d if factored else self.w)(ts)
        except TypeError:
            v = None                # raised again by a second call below
        if type(v) is np.ndarray and v.dtype.char == "d":
            if v.shape == shape:
                return v
            if shape == (1, ts.size) and v.shape == ts.shape:
                return v[None]
        name = "D(t)" if factored else "w(t)"
        if t0 is not None:
            name = self._where(f"t in [{ts[0]}, {ts[-1]}]" if ts.size > 1
                               else f"t0={t0}" if ts[0] == t0
                               else f"t={ts[0]}") + name
        if not factored:
            h = self.w if v is None else lambda _: v
            return _shaped(SignalAdapter(h, name)(ts), shape, name)
        try:
            value = self.d(ts) if v is None else v
        except TypeError as exc:
            raise ShapeError(f"{name}: the callable must take a 1-d array "
                             f"of times; on one it raised TypeError: "
                             f"{exc}") from exc
        return _shaped(value, shape, name)

    def _where(self, at):
        return f"perturbation {self.name!r} at {at}: "

    def _k(self, x, where="", rows=True):
        """K on a flat state, (dim,), or row by row on an (N, state_dim)
        batch, (N, dim): each value exactly (dim,), else ShapeError naming
        ``where``, K and, on a batch with ``rows``, the row."""
        out = np.array([_shaped(self.k(row), (self.dim,), where + (
            f"K(x) in row {i}" if rows and x.ndim == 2 else "K(x)"))
            for i, row in enumerate(x.reshape(-1, x.shape[-1]))])
        return out.reshape(x.shape[:-1] + (self.dim,))

    def evaluate(self, ts, x):
        """W at T times and N states, (T, N, dim): one call of ``w`` or ``d``
        on the 1-d array ``ts``, one of ``k`` per row of the (N, state_dim)
        batch ``x`` (by :func:`evuas.integrate._stack`; one flat state is a
        row), at finite times in any order (else ValueError).  The exact
        shapes are checked; a non-finite entry raises EvaluationError
        naming its time and state row (the earliest time first, then the
        lowest row)."""
        ts = _time_grid(ts, "ts", increasing=False)
        x = _stack(x, self.state_dim, "state").reshape(-1, self.state_dim)
        shape = (ts.size, len(x), self.dim)
        if self.kind == "zero":
            return np.zeros(shape)
        if self.kind == "time":
            out = np.broadcast_to(self._factor(ts).T[:, None], shape)
        else:
            # K(x) against D(t)^T, laid out as the time rows of a run hold
            # it, one time and state at a time
            d_t = np.ascontiguousarray(self._factor(ts).transpose(2, 1, 0))
            k = self._k(x, rows=False)
            with np.errstate(over="ignore", invalid="ignore"):
                out = (k[:, None] @ d_t[:, None])[:, :, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            i, row, idx = map(int, np.unravel_index(np.argmax(bad), shape))
            raise EvaluationError(
                f"W returned a non-finite value at t={ts[i]} in row {row} "
                f"at component {idx}", component=idx, where="W", row=row)
        return out

    def _column(self, j, t):
        """Column j of D(t), or of diag(w(t)), by the rule of D or w: (dim,)
        at one time, from D or w on the array [t], and (dim, N) on a 1-d
        array of N times."""
        ts = np.asarray(t, dtype=float)
        if ts.ndim == 0:
            return self._column(j, ts[None])[:, 0]
        if self.kind == "factored":
            return self._factor(ts)[:, j]
        out = np.zeros((self.dim,) + ts.shape)
        if self.kind == "time":
            out[j] = self._factor(ts)[j]
        return out

    def columns(self):
        """The columns of D as time signals t -> (dim,), and (dim, N) on a
        1-d array of N times as :class:`SignalAdapter` requires, checked as
        :meth:`evaluate` checks D or w (which must take such arrays too)."""
        return [functools.partial(self._column, j) for j in range(self.dim)]

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"PerturbationSpec{tag}(kind={self.kind}, dim={self.dim})"


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
    one, called once on the batch, otherwise symmetric central differences
    with a per-coordinate step ``cbrt(eps) * max(1, |u_i|)``.
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
    return SystemModel(m, n, lambda x, u: u.copy(),
                       jac_u=lambda x, u: np.tile(np.eye(m), (len(u), 1, 1)),
                       jac_x=lambda x, u: np.zeros((len(u), m, m * n)),
                       name="chain")


def _scalar(name, f, df):
    """Builder of the one-channel model F = f(u), with dF/du = df(u)."""
    def build(m=1, n=2):
        if m != 1:
            raise ValueError(f"model {name!r} is scalar (m=1), got m={m}")
        return SystemModel(1, n, lambda x, u: f(u),
                           jac_u=lambda x, u: df(u)[:, :, None],
                           jac_x=lambda x, u: np.zeros((len(u), 1, n)),
                           name=name)
    return build


def _sech2(u):
    # sech(u)^2 from e^{-2|u|}: no overflow where cosh(u) would overflow
    e = np.exp(-2.0 * np.abs(u))
    return 4.0 * e / (1.0 + e) ** 2


MODEL_CATALOG = {
    "chain": (_chain, "integrator chain, F = U, any m and n"),
    # coercive, with a globally nonsingular J_{F,U}
    "cubic": (_scalar("cubic", lambda u: u + u ** 3,
                      lambda u: 1.0 + 3.0 * u ** 2),
              "scalar F = u + u^3, coercive input nonlinearity"),
    # |F| < 1, so the feedback exists only locally
    "tanh": (_scalar("tanh", np.tanh, _sech2),
             "scalar F = tanh(u), bounded input map"),
}


def make_model(name, m=1, n=2):
    """Instantiate a catalog model by its stable identifier, with m
    channels of order n (ValueError if the model has no such form)."""
    return _entry("model", MODEL_CATALOG, name)(m=m, n=n)
