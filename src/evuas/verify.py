"""Monte-Carlo checks of eventual uniform stability and attraction.

The notions under test quantify over all start times past some onset and
all initial states in a ball, so any finite sweep yields evidence rather
than proof; the report says so explicitly and keeps every violating sample
as a replayable witness.  Start times come from a user grid, initial states
from seeded directions on spheres at three radii (the ball's boundary is
where the bounds bind), and the onset is searched on a geometric grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EnvelopeFitError, EvaluationError, IntegrationError,
                     NewtonError, QuadratureBudgetError, ShapeError)
from .integrate import Trajectory, _finite, _positive
from .model import _size
from .norms import (check_norm_id, point_norms, sphere_samples,
                    unit_directions)
from .simulate import simulate_closed_loop, simulate_error_dynamics

_SETTLE_MARGIN = 0.95      # settle must happen inside this fraction of the window
_TREND_DROP = 0.9          # tail must drop below this fraction to count as decreasing
_SKIP_FRACTION = 0.1       # leading share of elapsed time the envelope fit skips

# runtime failures of a trajectory factory that count as data; anything else
# (a shape or type bug, say) propagates.  IntegrationError covers
# ControllerEvaluationError.
_SIM_FAILURES = (IntegrationError, NewtonError, EvaluationError,
                 QuadratureBudgetError)


_VERDICTS = ("fail", "inconclusive", "pass")     # worst first


def _worst(*verdicts):
    return min(verdicts, key=_VERDICTS.index)


@dataclass
class StabilityReport:
    evus: str                      # "pass" | "fail" | "inconclusive"
    evua: str
    evuas: str
    evus_table: list               # rows {eps, delta, alpha, verdict}
    evua_table: list               # rows {eps, T, verdict}, same eps order
    delta0: float
    alpha0: float = None
    samples: int = 0
    seed: int = 0
    norm: str = "euclidean"
    witnesses: list = field(default_factory=list)
    sim_failures: list = field(default_factory=list)
    note: str = ("finite-horizon sampling: verdicts are evidence over the "
                 "sampled set, not proofs")

    def rows(self):
        """Merged per-level rows {eps, delta, alpha, T, verdict}."""
        return [{"eps": s["eps"], "delta": s["delta"], "alpha": s["alpha"],
                 "T": a["T"], "verdict": _worst(s["verdict"], a["verdict"])}
                for s, a in zip(self.evus_table, self.evua_table)]

    def to_dict(self):
        return {
            "evus": self.evus, "evua": self.evua, "evuas": self.evuas,
            "rows": self.rows(),
            "evus_table": self.evus_table, "evua_table": self.evua_table,
            "delta0": self.delta0, "alpha0": self.alpha0,
            "samples": self.samples, "seed": self.seed, "norm": self.norm,
            "witnesses": self.witnesses, "sim_failures": self.sim_failures,
            "note": self.note,
        }


def _alpha_grid(horizon, t0_grid):
    grid = [0.0]
    a = 1.0
    while a <= horizon / 2.0:
        grid.append(a)
        a *= 2.0
    t_max = max(t0_grid)
    return [a for a in grid if a <= t_max or a == 0.0]


def _tail_decreasing(norms):
    # envelope comparison: single samples are noise on oscillating decays
    if norms.size < 10:
        return False
    i70 = int(0.7 * (norms.size - 1))
    i90 = int(0.9 * (norms.size - 1))
    ref = float(np.max(norms[i70:i90 + 1]))
    tail = float(np.max(norms[i90:]))
    return tail <= _TREND_DROP * max(ref, 1e-300)


def _settle(times, norms, t0, eps):
    """Time after t0 from the last stored norm at or above eps to the next
    stored time; 0 if there is none, inf if the run ends at or above eps."""
    above = np.flatnonzero(norms >= eps)
    if above.size == 0:
        return 0.0
    if above[-1] == norms.size - 1:
        return math.inf
    return float(times[above[-1] + 1] - t0)


def _run(sim, t0, x0s, horizon, norm):
    """(times, (T, N) norms) of ``sim(t0, x0s)``, one column per sample:
    TypeError naming the factory if it returns no Trajectory, ValueError
    if the run does not cover [t0, t0 + horizon], ShapeError if its states
    are not (T, N, dim)."""
    traj = sim(t0, x0s)
    if not isinstance(traj, Trajectory):
        name = getattr(sim, "__qualname__", type(sim).__qualname__)
        raise TypeError(f"verify factory {name} returned "
                        f"{type(traj).__name__}, not a Trajectory")
    start, end = float(traj.times[0]), float(traj.times[-1])
    if start > t0 + 1e-12 or end < t0 + horizon - 1e-12:
        raise ValueError(
            f"a factory run from t0={t0} spans [{start}, {end}], which "
            f"does not cover the horizon {horizon}")
    if traj.states.ndim != 3 or traj.states.shape[1] != len(x0s):
        raise ShapeError(f"a factory run from {len(x0s)} initial states must "
                         f"be (T, {len(x0s)}, dim), got {traj.states.shape}")
    return traj.times, point_norms(traj.states, norm)


def _alone(sim, t0, x0, horizon, norm, sim_failures):
    """(times, norms) of x0 run alone, ``sim(t0, x0[None])``; None if that
    run fails, which is then recorded in ``sim_failures``."""
    try:
        times, norms = _run(sim, t0, x0[None], horizon, norm)
    except _SIM_FAILURES as exc:
        sim_failures.append({"t0": t0, "x0": x0.tolist(),
                             "error": str(exc)})
        return None
    return times, norms[:, 0]


def _sweep(sim, t0, x0s, horizon, norm, sim_failures):
    """[(row, times, norms)] of every sample of one start time that ran.

    One factory call covers the whole stack.  When it hits a runtime
    failure the rows run again one at a time, so each failure is recorded
    against its own x0, as a serial sweep would record it.
    """
    try:
        times, norms = _run(sim, t0, x0s, horizon, norm)
    except _SIM_FAILURES:
        pass
    else:
        return [(i, times, norms[:, i]) for i in range(len(x0s))]
    runs = [_alone(sim, t0, x0, horizon, norm, sim_failures) for x0 in x0s]
    return [(i,) + run for i, run in enumerate(runs) if run is not None]


def _witness(sim, t0, x0, horizon, norm, kind, eps, sim_failures):
    """[witness] at the peak ("evus") or end ("evua") of x0's own run.

    A batch shares its step sequence among its rows, so the figures of the
    sample's own run are the ones a replay reproduces.  If that run fails,
    the failure is recorded in ``sim_failures`` and the list is empty.
    """
    t0 = float(t0)
    run = _alone(sim, t0, x0, horizon, norm, sim_failures)
    if run is None:
        return []
    times, norms = run
    i = int(np.argmax(norms)) if kind == "evus" else norms.size - 1
    return [{"kind": kind, "eps": eps, "t0": t0, "x0": x0.tolist(),
             "t": float(times[i]), "value": float(norms[i])}]


def verify_evuas(sim, delta0, t0_grid, eps_levels, horizon, samples=8,
                 seed=0, dim=None, norm="euclidean"):
    """Empirical eventual-uniform-stability/attraction report.

    Every sample that runs is reduced to one row of a table: its start
    time, radius, peak and final norm, whether its tail is decreasing, and
    per level eps its settle time (after the last stored norm at or above
    eps, inf if the run ends there).  The verdicts are reductions over
    that table on the onset grid 0, 1, 2, 4, ... (up to horizon / 2 and
    the largest start time):

    * EVUS, per level: the smallest onset alpha at or past the previous
      level's, then the largest radius at most the previous level's whose
      samples started at or after alpha all peak below eps.  A level with
      none fails, or is inconclusive when every sample peaking at or
      above eps ends below it with a decreasing tail.
    * EVUA: the smallest onset alpha0 at which every sample settles
      within 0.95 * horizon at every level; T is read on the stored grid.
      With no such onset the levels are classified at the largest onset
      that has samples: "inconclusive" when every unsettled tail is
      decreasing, else "fail" ("inconclusive" with no samples at all).

    Any sim failure caps a passing overall verdict at "inconclusive".

    Parameters
    ----------
    sim : callable
        Trajectory factory ``sim(t0, x0) -> Trajectory`` covering at least
        [t0, t0 + horizon] (else ValueError; TypeError naming the factory
        if it returns anything else).  It takes (N, dim) stacks of
        initial states only and returns states of shape (T, N, dim), one
        column per sample (else ShapeError), as the factories of this
        module and :func:`evuas.integrate.integrate` do.  It is called once
        per start time with the (3 * samples, dim) stack; a lone sample
        runs as the one-row stack ``sim(t0, x0[None])``.  Its runtime
        failures (IntegrationError, NewtonError, EvaluationError,
        QuadratureBudgetError) are data: when the stack fails, its samples
        run again one at a time and each failure is recorded against its
        own x0 in ``sim_failures``.  Any other exception propagates.
        Witnesses are re-derived from the sample's own one-row run, so they
        replay exactly; if that run fails, the failure goes to
        ``sim_failures`` in place of the witness.
    delta0 : float
        Radius of the sampled initial ball, positive and finite; spheres
        at delta0, delta0/2 and delta0/4 are drawn.
    t0_grid : sequence of float
        Start times to quantify over: finite and >= 0, as every onset is.
    eps_levels : sequence of float
        Positive, strictly decreasing bound levels; at least one.
    horizon : float
        Per-sample observation window length, positive and finite.
    samples : int
        Directions per (start time, radius) pair.
    seed : int
        Direction generator seed; fixes the whole report.
    dim : int
        State dimension of the factory (required).

    Returns
    -------
    StabilityReport
    """
    check_norm_id(norm)
    eps_levels = [_positive("eps_levels", float(e)) for e in eps_levels]
    if not eps_levels \
            or any(b >= a for a, b in zip(eps_levels, eps_levels[1:])):
        raise ValueError("eps_levels must be strictly decreasing, and not "
                         "empty")
    _positive("delta0", delta0)
    _positive("horizon", horizon)
    samples = _size("samples", samples)
    dim = _size("dim", dim)
    t0_grid = [float(t) for t in t0_grid]
    if not t0_grid:
        raise ValueError("t0_grid must not be empty")
    for t0 in t0_grid:
        if not math.isfinite(t0):
            raise ValueError(f"t0_grid must hold finite start times, got {t0}")
        if t0 < 0.0:
            raise ValueError(f"t0_grid must hold non-negative start times, "
                             f"got {t0}")

    radii, x0s = sphere_samples(
        delta0, unit_directions(dim, samples, np.random.default_rng(seed)))

    # one row per sample that ran: t0, x0 row, peak, final, tail
    # decreasing, then the settle time at each level
    table = []
    sim_failures = []
    for t0 in t0_grid:
        for i, times, norms in _sweep(sim, t0, x0s, horizon, norm,
                                      sim_failures):
            table.append([t0, i, np.max(norms), norms[-1],
                          _tail_decreasing(norms)]
                         + [_settle(times, norms, t0, e) for e in eps_levels])
    table = np.array(table, dtype=float).reshape(-1, 5 + len(eps_levels))
    starts, peak, final = table[:, 0], table[:, 2], table[:, 3]
    rows = table[:, 1].astype(int)
    falling = table[:, 4].astype(bool)
    settle = table[:, 5:]

    # late[a]: rows started at or after onset a; ball[k]: rows of radius
    # at most radii[k]; group[a, k]: both
    alphas = _alpha_grid(horizon, t0_grid)
    late = starts >= np.array(alphas)[:, None]
    ball = rows // samples >= np.arange(len(radii))[:, None]
    group = late[:, None, :] & ball[None, :, :]
    witnesses = []

    # --- eventual uniform stability: per level, smallest onset then the
    # largest passing radius; onsets never shrink as the level tightens
    evus_table = []
    floor = cap = 0
    for eps in eps_levels:
        ok = group.any(axis=2) & ~(group & (peak >= eps)).any(axis=2)
        ok[:floor] = ok[:, :cap] = False
        if ok.any():
            floor, cap = np.argwhere(ok)[0]
            evus_table.append({"eps": eps, "delta": radii[cap],
                               "alpha": alphas[floor], "verdict": "pass"})
            continue
        hard = group[floor, cap] & (peak >= eps) \
            & ~((final < eps) & falling)
        evus_table.append({"eps": eps, "delta": None, "alpha": None,
                           "verdict": "fail" if hard.any()
                           else "inconclusive"})
        if peak.size:
            j = int(np.argmax(peak))
            witnesses += _witness(sim, starts[j], x0s[rows[j]], horizon,
                                  norm, "evus", eps, sim_failures)
    doubt = "inconclusive" if sim_failures else "pass"
    evus = _worst(*(row["verdict"] for row in evus_table), doubt)

    # --- eventual uniform attraction: one onset must serve every level
    t_settle = np.max(np.where(late[:, :, None], settle, 0.0), axis=1,
                      initial=0.0)                            # (onset, level)
    settled = late.any(axis=1) \
        & (t_settle <= _SETTLE_MARGIN * horizon).all(axis=1)
    alpha0 = None
    if settled.any():
        ai = int(np.argmax(settled))
        alpha0 = alphas[ai]
        evua_table = [{"eps": eps, "T": float(t), "verdict": "pass"}
                      for eps, t in zip(eps_levels, t_settle[ai])]
    else:
        # classify the failure at the largest onset that has samples
        usable = np.flatnonzero(late.any(axis=1))
        evua_table = []
        for eps in eps_levels:
            verdict = "inconclusive"                  # no samples at all
            if usable.size:
                unsettled = late[usable[-1]] & (final >= eps)
                hard = unsettled & ~falling
                verdict = "fail" if hard.any() else \
                    "inconclusive" if unsettled.any() else "pass"
                if unsettled.any():
                    j = int(np.argmax(hard if hard.any() else unsettled))
                    witnesses += _witness(sim, starts[j], x0s[rows[j]],
                                          horizon, norm, "evua", eps,
                                          sim_failures)
            evua_table.append({"eps": eps, "T": None, "verdict": verdict})
    evua = _worst(*(row["verdict"] for row in evua_table),
                  doubt if alpha0 is not None else "inconclusive")

    return StabilityReport(
        evus=evus, evua=evua, evuas=_worst(evus, evua),
        evus_table=evus_table, evua_table=evua_table, delta0=delta0,
        alpha0=alpha0, samples=len(table), seed=seed, norm=norm,
        witnesses=witnesses, sim_failures=sim_failures)


@dataclass
class KlEnvelope:
    """Exponential decay envelope kappa * r * exp(-mu * s)."""

    kappa: float
    mu: float
    fit_residual: float
    slack: float = 1e-12
    validity: dict = field(default_factory=dict)

    def bound(self, r0, s):
        return self.kappa * r0 * np.exp(-self.mu * np.asarray(s))


def fit_kl_envelope(trajectories, norm="euclidean"):
    """Exponential envelope fitted to decaying trajectories.

    Pools the log-norm drop against elapsed time with one intercept per
    trajectory and a shared slope, fitted past the first tenth of each
    trajectory's elapsed time; the envelope gain is then inflated so the
    inequality holds on every input sample.  Non-decaying data is
    rejected.  Each trajectory is one run, states of shape (T, dim); a
    batch run's (T, N, dim) states raise ShapeError.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    check_norm_id(norm)

    per_traj = []
    for traj in trajectories:
        if traj.states.ndim != 2:
            raise ShapeError(
                "fit_kl_envelope fits single trajectories, states of shape "
                f"(T, dim); got {traj.states.shape}")
        norms = point_norms(traj.states, norm)
        if norms[0] <= 0.0:
            raise ValueError("envelope fitting needs nonzero initial states")
        s = traj.times - traj.times[0]
        y = np.log(np.maximum(norms, 1e-300)) - math.log(norms[0])
        per_traj.append((s, y))

    num = 0.0
    den = 0.0
    for s, y in per_traj:
        mask = s >= _SKIP_FRACTION * s[-1]
        sw, yw = s[mask], y[mask]
        if sw.size < 2:
            continue
        ds = sw - sw.mean()
        num += float(np.dot(ds, yw - yw.mean()))
        den += float(np.dot(ds, ds))
    if den == 0.0:
        raise ValueError("not enough post-transient samples to fit")
    slope = num / den
    mu = -slope
    if mu <= 0.0:
        raise EnvelopeFitError(
            f"data does not decay (fitted rate {mu:.3e} <= 0)", mu=mu)

    kappa = 1.0
    residuals = []
    for s, y in per_traj:
        mask = s >= _SKIP_FRACTION * s[-1]
        c = float(np.mean(y[mask] + mu * s[mask])) if np.any(mask) else 0.0
        kappa = max(kappa, math.exp(c))
        residuals.append(y[mask] + mu * s[mask] - c)
        # inflate to cover every sample, transient included
        kappa = max(kappa, float(np.exp(np.max(y + mu * s))))
    resid = float(np.sqrt(np.mean(np.concatenate(residuals) ** 2))) \
        if residuals else 0.0
    validity = {"trajectories": len(per_traj),
                "max_elapsed": float(max(s[-1] for s, _ in per_traj))}
    return KlEnvelope(kappa=kappa, mu=mu, fit_residual=resid,
                      validity=validity)


def estimate_delta_of_eps(sim, eps, t0, dim=None, directions=8, seed=0,
                          iters=20, norm="euclidean"):
    """Largest sampled initial-norm level whose trajectories stay below eps.

    Bisects ``iters`` >= 1 times over the level in (0, eps]; directions are
    seeded and shared across levels, and the factory fixes the window.
    Returns 0.0 when even the smallest tested level fails.  The factory
    ``sim`` is called once per level with the (directions, dim) stack of
    initial states and must return states of shape (T, directions, dim)
    (else ShapeError) from a run that starts at t0 (else ValueError), as
    the factories of this module do.  A runtime failure anywhere in the
    stack fails the level; any other exception propagates.
    """
    check_norm_id(norm)
    _positive("eps", eps)
    _finite("t0", t0)
    directions = _size("directions", directions)
    iters = _size("iters", iters)
    dim = _size("dim", dim)
    dirs = unit_directions(dim, directions, np.random.default_rng(seed))

    def passes(level):
        try:
            _, norms = _run(sim, t0, level * dirs, 0.0, norm)
        except _SIM_FAILURES:
            return False
        if float(np.max(norms)) >= eps:
            return False
        # a tail still growing at the window end certifies nothing
        v80 = norms[int(0.8 * (len(norms) - 1))]
        return bool(np.all(norms[-1] <= 1.5 * np.maximum(v80, 1e-300)))

    lo, hi = 0.0, eps
    best = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if passes(mid):
            best = mid
            lo = mid
        else:
            hi = mid
    return best


def make_error_factory(hurwitz, pert, horizon, tol=1e-7):
    """Trajectory factory over [t0, t0+horizon] for the error dynamics.

    ``sim(t0, x0)`` takes one state (dim,) or an (N, dim) batch.
    """
    def sim(t0, x0):
        return simulate_error_dynamics(hurwitz, pert, x0, t0, t0 + horizon,
                                       tol=tol)
    return sim


def make_closed_loop_factory(model, ctrl, pert, horizon, tol=1e-7):
    """Trajectory factory over [t0, t0+horizon] for the loop closed by ctrl.

    ``sim(t0, x0)`` takes one flat state (m*n,) or an (N, m*n) batch, one
    flat state per row; the run fills ``inputs`` as (T, m) or (T, N, m).
    """
    def sim(t0, x0):
        return simulate_closed_loop(model, ctrl, pert, x0, t0, t0 + horizon,
                                    tol=tol)
    return sim
