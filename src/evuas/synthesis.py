"""Stabilizing feedback construction and its design-constant bookkeeping.

The construction closes the loop through an m-vector of per-channel tracking
errors

    e_j = gamma_{1,j} y_j + gamma_{2,j} y_j' + ... + y_j^(n-1),

with each column of the (n-1)-by-m coefficient matrix Gamma encoding a
monic polynomial whose roots all lie in the open left half plane, so e -> 0
forces the full state to 0.  The feedback U = G(X) is the implicit solution
of

    shift_term(X) + F(X, U) - A_H e(X) = 0,

solved pointwise by a damped Newton iteration; A_H is any Hurwitz m-by-m
matrix and shapes the error dynamics.  A linear-gain alternative places the
closed-loop poles of the linearization directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as _model
from ._expm import expm
from .errors import DesignError, NewtonError, ShapeError
from .integrate import _positive, _real, _shaped, _stack
from .norms import point_norms, unit_directions

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 6

_POLE_TOL = 1e-9          # conjugate-closure matching tolerance
_HURWITZ_MARGIN = -1e-12  # eigenvalue real parts must stay below this
# largest/smallest pole magnitude in a Gamma column; the companion form
# rounds wider spreads: kappa is off by 5e-6 at 1e12, 1e-4 at 1e13
_MAX_POLE_SPREAD = 1e12


# ---------------------------------------------------------------------------
# error-coordinate design


@dataclass
class GammaDesign:
    """Per-channel error-polynomial coefficients and derived constants.

    gamma has shape (n-1, m); column j holds the low-order coefficients of
    the monic polynomial gamma_1 + gamma_2 z + ... + z^(n-1).  gamma_star
    is the largest coefficient magnitude (at least 1), mu_gamma the decay
    rate of the slowest pole across columns, kappa a numerically estimated
    overshoot constant of the companion subsystem the error drives.
    """

    gamma: np.ndarray
    poles: list
    n: int
    m: int
    gamma_star: float
    mu_gamma: float
    kappa: float

    def column_polynomial(self, j):
        """Monic coefficient vector (ascending order) of column j."""
        return np.append(self.gamma[:, j], 1.0)

    def to_dict(self):
        return {
            "n": self.n, "m": self.m,
            "gamma": self.gamma.tolist(),
            "poles": [[(complex(p).real, complex(p).imag) for p in col]
                      for col in self.poles],
            "gamma_star": self.gamma_star,
            "mu_gamma": self.mu_gamma,
            "kappa": self.kappa,
        }


def _pole_groups(poles, count, what):
    """Check a pole set and split it into its conjugate groups.

    The set must hold ``count`` poles with negative real parts, closed
    under conjugation up to ``_POLE_TOL``.  Groups come in (real part,
    |imag|) order: a near-real pole alone, snapped to an exact real, and a
    complex pole p, the first of its pair in that order, as [p, conj(p)].
    """
    poles = [complex(p) for p in poles]
    if len(poles) != count:
        raise DesignError(f"{what}: expected {count} poles, got {len(poles)}")
    for p in poles:
        if not np.isfinite(p):
            raise DesignError(f"{what}: pole {p} is not finite")
        if p.real >= 0.0:
            raise DesignError(f"{what}: pole {p} has nonnegative real part")
    pending = sorted(poles, key=lambda p: (p.real, abs(p.imag)))
    groups = []
    while pending:
        p = pending.pop(0)
        if abs(p.imag) <= _POLE_TOL:
            groups.append([complex(p.real, 0.0)])
            continue
        for i, q in enumerate(pending):
            if abs(q - np.conj(p)) <= _POLE_TOL * max(1.0, abs(p)):
                pending.pop(i)
                break
        else:
            raise DesignError(
                f"{what}: complex pole {p} lacks its conjugate partner")
        groups.append([p, np.conj(p)])
    return groups


def _monic_ascending(roots):
    """Coefficients c_0 ... c_{k-1} of the monic polynomial with these k
    roots, the leading 1 left off.  The roots are ``_pole_groups``' poles,
    whose pairs are exact conjugates, so ``np.poly`` returns real ones."""
    return np.poly(roots)[1:][::-1]


def _first_order(m, n, last):
    """The column shift in the first (n-1)m rows, then the (m, m*n) block
    ``last`` (for m = 1 a companion matrix)."""
    a = np.zeros((m * n, m * n))
    a[:(n - 1) * m, m:] = np.eye((n - 1) * m)
    a[(n - 1) * m:] = last
    return a


def _estimate_overshoot(design_gamma, mu_gamma):
    """Numerical overshoot constant of the block companion subsystem.

    Samples the induced 2-norm of the transition matrix on [0, 20/mu] and
    applies a 1.05 safety factor; clamped to at least 1.  The matrix is
    block diagonal with one companion block per column, and the 2-norm of
    a block-diagonal matrix is the largest of its blocks' 2-norms, so each
    block's exponential is taken on its own.  Pole sets too stiff for
    double precision make the exponential overflow; they raise a
    DesignError.
    """
    n_minus_1, m = design_gamma.shape
    blocks = np.stack([_first_order(1, n_minus_1, -design_gamma[:, j])
                       for j in range(m)])
    ts = np.linspace(0.0, 20.0 / mu_gamma, 201)
    try:
        with np.errstate(over="raise"):
            transition = expm(blocks * ts[:, None, None, None])
    except FloatingPointError as exc:
        raise DesignError(
            f"Gamma {design_gamma.tolist()}: the transition matrix "
            f"overflows ({exc}); the poles are too stiff") from exc
    norms = np.linalg.norm(transition, 2, axis=(-2, -1))
    return 1.05 * max(1.0, float(np.max(norms)))


def build_gamma(poles_per_column, n):
    """Expand per-column pole multisets into a GammaDesign.

    Parameters
    ----------
    poles_per_column : sequence of m sequences
        Each inner sequence holds exactly n-1 poles, closed under complex
        conjugation, with strictly negative real parts and magnitudes
        within a factor 1e12 of each other.
    n : int
        Derivative order of the system: an integer (else ValueError, by
        :func:`evuas.model._size`), which must exceed 1 (else DesignError).
    """
    if n <= 1:
        raise DesignError(f"order n must exceed 1, got {n}")
    n = _model._size("n", n)
    m = len(poles_per_column)
    if m < 1:
        raise DesignError("need at least one pole column")
    gamma = np.zeros((n - 1, m))
    poles = []
    worst_real = -np.inf
    for j, col in enumerate(poles_per_column):
        roots = [complex(p) for p in col]
        groups = _pole_groups(roots, n - 1, f"column {j}")
        mags = [abs(r) for r in roots]
        if max(mags) > _MAX_POLE_SPREAD * min(mags):
            raise DesignError(
                f"column {j}: pole magnitudes {min(mags):.3g} ... "
                f"{max(mags):.3g} differ by more than a factor "
                f"{_MAX_POLE_SPREAD:.0e}, too wide for the companion form")
        gamma[:, j] = _monic_ascending([p for grp in groups for p in grp])
        if not np.isfinite(gamma[:, j]).all():
            raise DesignError(
                f"column {j}: poles {roots} expand to a non-finite Gamma "
                f"column {gamma[:, j].tolist()}")
        poles.append(roots)
        worst_real = max(worst_real, max(r.real for r in roots))
    gamma_star = max(1.0, float(np.max(np.abs(gamma))))
    mu_gamma = -worst_real
    kappa = _estimate_overshoot(gamma, mu_gamma)
    return GammaDesign(gamma=gamma, poles=poles, n=n, m=m,
                       gamma_star=gamma_star, mu_gamma=mu_gamma, kappa=kappa)


@dataclass
class HurwitzMatrix:
    """A square matrix certified to have all eigenvalue real parts negative."""

    a_h: np.ndarray
    eigenvalues: np.ndarray
    max_real_part: float


def _square(values, name):
    """``values`` as a real (by ``integrate._real``) non-empty square
    matrix, else ShapeError naming ``name``."""
    out = _real(values, name)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or not out.size:
        raise ShapeError(f"{name}: expected a non-empty square matrix, got "
                         f"shape {out.shape}")
    return out


def build_hurwitz(a_h):
    a_h = _square(a_h, "a_h")
    if not np.isfinite(a_h).all():
        raise DesignError(f"matrix {a_h.tolist()} is not finite")
    eig = np.linalg.eigvals(a_h)
    worst = int(np.argmax(eig.real))
    if eig.real[worst] >= _HURWITZ_MARGIN:
        raise DesignError(
            f"matrix is not Hurwitz: eigenvalue {eig[worst]} has "
            f"real part {eig.real[worst]:.3e}")
    return HurwitzMatrix(a_h=a_h, eigenvalues=eig,
                         max_real_part=float(np.max(eig.real)))


def default_hurwitz(m):
    """-identity, the default error-shaping matrix."""
    return build_hurwitz(-np.eye(m))


@dataclass
class NonSingularityReport:
    levy_desplanques: bool
    numeric_nonsingular: bool
    condition_estimate: float


def check_nonsingular(b):
    """Strict diagonal dominance test plus a numeric condition estimate.

    Strict diagonal dominance (|b_ii| greater than the off-diagonal row
    sum, every row) is sufficient for non-singularity, so a true
    levy_desplanques verdict always comes with a true numeric verdict.
    ``b`` must be a real, non-empty square matrix, else ShapeError.
    """
    b = _square(b, "b")
    diag = np.abs(np.diag(b))
    off = np.sum(np.abs(b), axis=1) - diag
    sdd = bool(np.all(diag > off))
    try:
        cond = float(np.linalg.cond(b, 2))
    except np.linalg.LinAlgError:
        cond = np.inf
    numeric = bool(np.isfinite(cond) and cond < 1e12)
    return NonSingularityReport(levy_desplanques=sdd,
                                numeric_nonsingular=numeric,
                                condition_estimate=cond)


# ---------------------------------------------------------------------------
# error coordinates and the implicit feedback


def _state_matrices(x_flat, m, n):
    # a flat state is X column by column, so X is the transposed (n, m)
    x = np.asarray(x_flat, dtype=float)
    return x.reshape(x.shape[:-1] + (n, m)).swapaxes(-1, -2)


def tracking_error(x_flat, gamma, m, n):
    """Per-channel error vector e = Diag(X [Gamma; 1]).

    Leading axes of ``x_flat`` are batch axes, as in
    :func:`input_free_term`.
    """
    xmat = _state_matrices(x_flat, m, n)
    return (xmat[..., :n - 1] * gamma.T).sum(axis=-1) + xmat[..., n - 1]


def _shift_term(xmat, gamma, n):
    # Diag(X [0; Gamma]): the error derivative's input-free part
    return (xmat[..., 1:] * gamma.T).sum(axis=-1)


def input_free_term(x_flat, gamma, a_h, m, n):
    """The U-independent part of the closing residual at state X.

    Leading axes of ``x_flat`` are batch axes: flat states of shape
    (..., m*n) give terms of shape (..., m), each exactly as for its state
    alone.
    """
    err = tracking_error(x_flat, gamma, m, n)
    return (_shift_term(_state_matrices(x_flat, m, n), gamma, n)
            - (a_h @ err[..., None])[..., 0])


def closed_loop_matrix(design, hurwitz):
    """M of the designed closed loop X' = M X + (0, W(t, X)): the feedback
    cancels F, leaving -input_free_term(X) in the last block.  Its
    eigenvalues are the design poles together with those of A_H."""
    m, n = design.m, design.n
    free = input_free_term(np.eye(m * n), design.gamma, hurwitz.a_h, m, n)
    return _first_order(m, n, -free.T)


def _newton_steps(jac, r):
    """Newton steps -J^{-1} r of a stack of rows, and which J are singular.

    With one input (m = 1) each step is one division -r / J, which is
    LAPACK's solve of the 1x1 system bit for bit, and a J equal to zero is
    singular, as LAPACK has it.  Otherwise one stacked solve when no J is
    singular, else row by row, since LAPACK rejects the whole stack.
    Either way each row's step is the one-state solve bit for bit.
    """
    if r.shape[-1] == 1:
        jac = jac[:, 0]
        singular = jac[:, 0] == 0
        step = np.zeros_like(r)
        # LAPACK's solve warns of no overflow, underflow or inf / inf
        with np.errstate(all="ignore"):
            np.divide(-r, jac, out=step, where=~singular[:, None])
        return step, singular
    singular = np.zeros(len(r), dtype=bool)
    try:
        return np.linalg.solve(jac, -r[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(r)
    for i in range(len(r)):
        try:
            step[i] = np.linalg.solve(jac[i], -r[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return step, singular


class ImplicitController:
    """State feedback obtained by solving the closing residual for U.

    Evaluation runs a damped Newton iteration on U with the state frozen,
    on one flat state or on each row of an (N, m*n) batch at once, from
    U = 0 (so the feedback is exactly zero at the origin).  A row's result
    is its one-state solve bit for bit when the model's maps treat rows
    independently.  With one input (m = 1) a Newton step is one division
    by the 1x1 Jacobian, equal bit for bit to LAPACK's solve, so each row
    is still that one-state solve.  The controller is immutable, so
    one instance can serve many concurrent trajectories.  A failed solve
    raises :class:`~evuas.errors.NewtonError` carrying the state, residual
    and iteration count (of the lowest failing row, on a batch).  The
    iteration stops at a residual norm of ``tol``, after ``max_iter``
    steps, or when ``max_halvings`` halvings of a step find no descent.
    """

    mode = "implicit-newton"
    tol = NEWTON_TOL
    max_iter = NEWTON_MAX_ITER
    max_halvings = NEWTON_MAX_HALVINGS

    def __init__(self, model, design, hurwitz):
        if design.m != model.m or design.n != model.n:
            raise DesignError(
                f"design is (m={design.m}, n={design.n}) but the model is "
                f"(m={model.m}, n={model.n})")
        if hurwitz.a_h.shape != (model.m, model.m):
            raise DesignError(
                f"A_H must be {model.m}x{model.m}, got {hurwitz.a_h.shape}")
        self.model = model
        self.design = design
        self.hurwitz = hurwitz

    def residual(self, x_flat, u):
        """Closing residual at (X, U); zero defines the feedback."""
        free = input_free_term(x_flat, self.design.gamma, self.hurwitz.a_h,
                               self.model.m, self.model.n)
        return free + self.model.eval_f(x_flat, u)

    def solve(self, x_flat):
        """Feedback value at a state, Newton-solved to the residual tolerance.

        ``x_flat`` is one flat state (m*n,) with U of shape (m,), or an
        (N, m*n) batch, N >= 1, with U of shape (N, m); else ShapeError.
        """
        return self._solve(x_flat)

    def solve_shifted(self, delta_flat, f_state, offset):
        """Tracking variant: error terms in the deviation, F at the true state.

        Solves shift_term(delta) + F(f_state, U) + offset - A_H e(delta) = 0;
        the offset carries the reference feedforward, (m,) or one row per
        state, (N, m).  Shapes are as for :meth:`solve`, ``f_state`` real
        and of the shape of ``delta_flat``, ``offset`` real and of one of
        its two shapes (else ShapeError naming the argument).
        """
        return self._solve(delta_flat, (f_state, offset))

    def _solve(self, x_flat, shift=None):
        """:meth:`solve`, or with ``shift`` the (f_state, offset) of
        :meth:`solve_shifted`."""
        model, m, tol = self.model, self.model.m, self.tol
        x_flat = _stack(x_flat, model.state_dim, "state")
        x = x_eval = np.atleast_2d(x_flat)
        free = input_free_term(x, self.design.gamma, self.hurwitz.a_h,
                               m, model.n)
        if shift is not None:
            f_state, offset = shift
            x_eval = _shaped(f_state, x_flat.shape, "f_state").reshape(x.shape)
            offset = _real(offset, "offset")
            if offset.shape not in ((m,), (len(x), m)):
                raise ShapeError(f"offset: expected shape ({m},) or "
                                 f"({len(x)}, {m}), got {offset.shape}")
            free = free + offset

        u = np.zeros((len(x), m))
        r = free + model.eval_f(x_eval, u)
        rn = point_norms(r)
        live = ~(rn <= tol)           # rows still iterating
        failed = {}                   # row -> (reason, iterations, singular)
        for it in range(self.max_iter):
            rows = live.nonzero()[0]
            if not rows.size:
                break
            # take() gathers rows of a 2-d array several times faster than
            # indexing with an array
            step, singular = _newton_steps(_model.jacobian_F_U(
                model, x_eval.take(rows, 0), u.take(rows, 0)), r.take(rows, 0))
            if singular.any():
                for i in rows[singular]:
                    failed[i] = (f"singular input Jacobian after {it} "
                                 "iterations", it, True)
                live[rows[singular]] = False
                rows, step = rows[~singular], step[~singular]
            # halve the step length of each row until its residual drops
            lam = 1.0
            for _ in range(self.max_halvings + 1):
                if not rows.size:
                    break
                u_try = u.take(rows, 0) + lam * step
                r_try = free.take(rows, 0) + model.eval_f(x_eval.take(rows, 0),
                                                          u_try)
                rn_try = point_norms(r_try)
                down = rn_try < rn[rows]        # False for NaN and inf
                took = rows[down]
                u[took], r[took], rn[took] = (u_try[down], r_try[down],
                                              rn_try[down])
                rows, step = rows[~down], step[~down]
                lam *= 0.5
            for i in rows:
                failed[i] = (f"no descent after {self.max_halvings} halvings",
                             it, False)
            live[rows] = False
            live &= ~(rn <= tol)
        for i in live.nonzero()[0]:
            failed[i] = (f"no convergence in {self.max_iter} iterations",
                         self.max_iter, False)
        one = x_flat.ndim < 2
        if failed:
            row = int(min(failed))
            reason, iterations, singular = failed[row]
            raise NewtonError(f"{reason} (residual {rn[row]:.3e})",
                              x=x[row].copy(), residual=float(rn[row]),
                              iterations=iterations, singular=singular,
                              row=None if one else row)
        return u[0] if one else u

    def to_summary(self):
        return {
            "mode": self.mode,
            "m": self.model.m, "n": self.model.n,
            "model": self.model.name,
            "design": self.design.to_dict(),
            "a_h": self.hurwitz.a_h.tolist(),
            "newton": {"tol": self.tol, "max_iter": self.max_iter,
                       "max_halvings": self.max_halvings},
        }


class LinearController:
    """Constant-gain feedback U = G x on the flat state; G must be a real,
    non-empty (m, m*n) matrix, else ShapeError."""

    mode = "linear-gain"

    def __init__(self, gain, model=None, placed_poles=None):
        gain = _real(gain, "gain")
        if gain.ndim != 2 or not gain.size:
            raise ShapeError(f"gain: expected a non-empty (m, m*n) matrix, "
                             f"got shape {gain.shape}")
        self.gain = gain
        self.model = model
        self.placed_poles = placed_poles

    def solve(self, x_flat):
        """G x at one flat state (m*n,) or at each row of an (N, m*n) batch."""
        x = _stack(x_flat, self.gain.shape[-1], "state")
        # a stack of matrix-vector products: each row is G x bit for bit
        return (self.gain @ x[..., None])[..., 0]

    def to_summary(self):
        return {
            "mode": self.mode,
            "gain": self.gain.tolist(),
            "model": getattr(self.model, "name", None),
            "placed_poles": [(complex(p).real, complex(p).imag)
                             for p in (self.placed_poles or [])],
        }


def _check_origin(model):
    """The design's preconditions at x = 0: the origin is an equilibrium,
    F(0, 0) = 0 (a ValueError otherwise), and the input Jacobian there is
    numerically nonsingular.  Returns that Jacobian."""
    model.check_origin_equilibrium()
    ju = _model.jacobian_F_U(model, np.zeros(model.state_dim),
                             np.zeros(model.m))
    report = check_nonsingular(ju)
    if not report.numeric_nonsingular:
        raise DesignError(
            "input Jacobian at the origin is numerically singular "
            f"(condition estimate {report.condition_estimate:.3e})")
    return ju


def synthesize_feedback(model, design, hurwitz):
    """Build the implicit Newton-backed feedback for a model, after checking
    the origin preconditions."""
    _check_origin(model)
    return ImplicitController(model, design, hurwitz)


# ---------------------------------------------------------------------------
# coercivity probe

_COERCIVITY_GROWTH = 10.0     # required min/max growth across the radius span
_PLATEAU_RTOL = 1e-3          # relative growth below this is a plateau


def input_cost(model, x_flat, u):
    """Half squared residual magnitude of F at fixed state, as a function of U."""
    return 0.5 * float(np.linalg.norm(model.eval_f(x_flat, u)) ** 2)


def coercivity_probe(model, x_samples, ray_count=16, radii=(1.0, 10.0, 100.0, 1000.0),
                     seed=0):
    """Sampled-growth evidence for coercivity of the input cost.

    Walks random input rays outward at the given radii for every probe
    state.  "coercive-evidence" requires the smallest cost at the largest
    radius to exceed the largest cost at the smallest radius by a factor of
    10; a plateau (or decay) on the outermost two radii on every ray yields
    "non-coercive-evidence"; anything else is inconclusive.  Finite
    sampling proves nothing either way, hence the naming.  A ray on which F
    fails arithmetically (EvaluationError for a non-finite value, overflow)
    is listed in "excluded"; any other exception propagates.  At least
    one probe state and one ray are required (ValueError).  Real 1-d
    ``radii`` and real ``x_samples`` only, else ShapeError; ``x_samples`` is
    array-like, one state or a stack of them (a generator is not, and
    raises ShapeError).
    """
    radii = _real(radii, "radii")
    if radii.ndim != 1:
        raise ShapeError(f"radii: expected a 1-d sequence, got shape "
                         f"{radii.shape}")
    if radii.size < 3 or not np.isfinite(radii).all() \
            or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be at least 3 finite, increasing values")
    x_samples = _real(x_samples, "x_samples")
    if not x_samples.size:
        raise ValueError("x_samples must hold at least one probe state")
    x_samples = np.atleast_2d(_stack(x_samples, model.state_dim, "x_samples"))
    ray_count = _model._size("ray_count", ray_count)
    rays = unit_directions(model.m, ray_count, np.random.default_rng(seed))

    data = []       # (state index, ray index) -> cost per radius
    excluded = []
    for xi, x in enumerate(x_samples):
        for ri, d in enumerate(rays):
            costs = []
            try:
                for r in radii:
                    costs.append(input_cost(model, x, r * d))
            except ArithmeticError:
                excluded.append((xi, ri))
                continue
            data.append(costs)
    if not data:
        return {"verdict": "inconclusive", "radii": radii.tolist(),
                "costs": [], "excluded": excluded}
    costs = np.asarray(data)
    min_outer = float(np.min(costs[:, -1]))
    max_inner = float(np.max(costs[:, 0]))
    plateau = bool(np.all(costs[:, -1] <= costs[:, -2] * (1.0 + _PLATEAU_RTOL)
                          + 1e-15))
    if min_outer >= _COERCIVITY_GROWTH * max_inner and min_outer > 0.0:
        verdict = "coercive-evidence"
    elif plateau:
        verdict = "non-coercive-evidence"
    else:
        verdict = "inconclusive"
    return {"verdict": verdict, "radii": radii.tolist(),
            "costs": costs.tolist(), "excluded": excluded,
            "min_outer": min_outer, "max_inner": max_inner}


# ---------------------------------------------------------------------------
# linear alternative: pole placement on the linearization


def _partition_poles(poles, m, n):
    """Deterministically split mn poles into m conjugate-closed groups of n.

    Conjugate pairs are kept together.  Pairs and reals are sorted by
    (real part, |imag|) and dealt greedily into the lowest-index channel
    with enough remaining capacity.
    """
    groups = _pole_groups(poles, m * n, "desired poles")
    groups.sort(key=lambda g: (-len(g), g[0].real, abs(g[0].imag)))
    channels = [[] for _ in range(m)]
    for grp in groups:
        for ch in channels:
            if len(ch) + len(grp) <= n:
                ch.extend(grp)
                break
        else:
            raise DesignError(
                "cannot split the poles into per-channel conjugate-closed "
                f"groups of {n}")
    return channels


def linearization(model):
    """(A, B) of the first-order form at the origin."""
    m, n = model.m, model.n
    x0 = np.zeros(model.state_dim)
    u0 = np.zeros(m)
    a = _first_order(m, n, _model.jacobian_F_X(model, x0, u0))
    b = np.zeros((m * n, m))
    b[(n - 1) * m:, :] = _model.jacobian_F_U(model, x0, u0)
    return a, b


def linearize_and_place(model, desired_poles):
    """Linear gain whose closed-loop linearization has the desired spectrum.

    The first-order form interleaves derivative blocks, so grouping each
    channel's own chain (the permutation flat index i*m + j <-> channel j,
    derivative i) exposes one controllable companion block per channel.
    Cancelling the state coupling through the input Jacobian J_U and
    imposing the per-channel characteristic polynomials then places all
    poles exactly.  A nonsingular J_U already makes the linearization
    controllable, so the origin preconditions are the only ones checked.

    The gain G solves J_U G = V - J_X, with V the wanted block-companion
    rows.  The loop's last block row is J_X + J_U G, and every other row is
    the fixed shift, so the placed poles are the roots of the polynomials
    that row holds.  G is accepted when it is finite and that row misses V
    by at most 1e-8 max(1, max|V - J_X|): a backward-error certificate
    that the loop is the one asked for.  Its eigenvalues are not
    recomputed: for a pole of multiplicity k they are only accurate to
    about eps^(1/k), so an eigenvalue check rejects exact designs.
    """
    m, n = model.m, model.n
    ju = _check_origin(model)
    jx = _model.jacobian_F_X(model, np.zeros(model.state_dim), np.zeros(m))
    wanted = np.zeros((m, m * n))     # V, channel j's row in columns j::m
    for j, ch in enumerate(_partition_poles(desired_poles, m, n)):
        wanted[j, j::m] = -_monic_ascending(ch)
    rhs = wanted - jx
    gain = np.linalg.solve(ju, rhs)
    if not np.isfinite(gain).all():
        raise DesignError(f"pole placement gives a non-finite gain {gain}")
    miss = float(np.max(np.abs(jx + ju @ gain - wanted)))
    bound = 1e-8 * max(1.0, float(np.max(np.abs(rhs))))
    if not miss <= bound:
        raise DesignError(
            f"pole placement mismatch: the loop's last block row misses "
            f"the wanted companion rows by {miss:.3e} (bound {bound:.3e})")
    return LinearController(gain, model=model, placed_poles=list(
        np.sort_complex(np.asarray([complex(p) for p in desired_poles]))))


# ---------------------------------------------------------------------------
# region-of-attraction arithmetic


@dataclass
class RoaEstimate:
    """Initial-state radius from the design constants and sampled inputs:
    delta_E and kappa are sampled, not bounds."""

    r_max: float
    epsilon: float
    delta_E_of_eps: float
    theta1: float
    theta2: float
    delta_star_E: float
    delta_star_X: float
    delta_star: float


def estimate_roa(design, r_max, epsilon, delta_E_of_eps, theta1=1.0,
                 theta2=1.0):
    """Initial-state radius keeping the trajectory in the synthesis domain,
    from sampled inputs: delta_E_of_eps comes from sampled runs and the
    design's kappa from a sampled transition norm, so it is no guarantee.

    delta*_E scales the error-system margin back through the error map
    (theta1 / (gamma* theta2 sqrt(m)) factor); delta*_X keeps the state
    inside the radius-r_max ball via the companion-subsystem decay,
    requiring epsilon < r_max * mu_gamma; m is the design's.
    """
    for nm, v in (("r_max", r_max), ("epsilon", epsilon),
                  ("delta_E_of_eps", delta_E_of_eps), ("theta1", theta1),
                  ("theta2", theta2)):
        _positive(nm, v)
    if epsilon >= r_max * design.mu_gamma:
        raise DesignError(
            f"epsilon {epsilon} must be below r_max*mu_gamma = "
            f"{r_max * design.mu_gamma}")
    delta_star_e = theta1 / (design.gamma_star * theta2
                             * math.sqrt(design.m)) * delta_E_of_eps
    delta_star_x = (r_max - epsilon / design.mu_gamma) / design.kappa
    return RoaEstimate(r_max=r_max, epsilon=epsilon,
                       delta_E_of_eps=delta_E_of_eps, theta1=theta1,
                       theta2=theta2, delta_star_E=delta_star_e,
                       delta_star_X=delta_star_x,
                       delta_star=min(delta_star_e, delta_star_x))
