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
from .norms import check_norm_id, vector_norm
from .simulate import simulate_closed_loop, simulate_error_dynamics

_SETTLE_MARGIN = 0.95      # settle must happen inside this fraction of the window
_TREND_DROP = 0.9          # tail must drop below this fraction to count as decreasing

# runtime failures of a trajectory factory that count as data; anything else
# (a shape or type bug, say) propagates.  IntegrationError covers
# ControllerEvaluationError.
_SIM_FAILURES = (IntegrationError, NewtonError, EvaluationError,
                 QuadratureBudgetError)


@dataclass
class StabilityReport:
    evus: str                      # "pass" | "fail" | "inconclusive"
    evua: str
    evuas: str
    evus_table: list               # rows {eps, delta, alpha, verdict}
    evua_table: list               # rows {eps, T, verdict}
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
        order = {"fail": 0, "inconclusive": 1, "pass": 2}
        evua_by_eps = {row["eps"]: row for row in self.evua_table}
        merged = []
        for row in self.evus_table:
            other = evua_by_eps.get(row["eps"], {})
            verdict = min((row["verdict"],
                           other.get("verdict", "inconclusive")),
                          key=order.get)
            merged.append({"eps": row["eps"], "delta": row["delta"],
                           "alpha": row["alpha"], "T": other.get("T"),
                           "verdict": verdict})
        return merged

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


def _unit_directions(dim, count, rng):
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


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


def _batch_norms(traj, count, norm):
    """(T, count) norms of a batched factory run, one column per sample."""
    if traj.states.ndim != 3 or traj.states.shape[1] != count:
        raise ShapeError(
            f"a factory given {count} initial states must return states of "
            f"shape (T, {count}, dim), got {traj.states.shape}")
    return vector_norm(traj.states, norm)


def _sweep(sim, t0, x0s, norm, sim_failures):
    """[(row, times, norms)] of every sample of one start time that ran.

    One factory call covers the whole stack.  When it hits a runtime
    failure the rows run again one at a time, so each failure is recorded
    against its own x0, as a serial sweep would record it.
    """
    try:
        traj = sim(t0, x0s)
    except _SIM_FAILURES:
        pass
    else:
        norms = _batch_norms(traj, len(x0s), norm)
        return [(i, traj.times, norms[:, i]) for i in range(len(x0s))]
    done = []
    for i, x0 in enumerate(x0s):
        try:
            traj = sim(t0, x0)
        except _SIM_FAILURES as exc:
            sim_failures.append({"t0": t0, "x0": x0.tolist(),
                                 "error": str(exc)})
            continue
        done.append((i, traj.times, vector_norm(traj.states, norm)))
    return done


def _witness(sim, run, norm, kind, eps, at_peak, sim_failures):
    """[witness] re-derived from a run of its sample alone, ``sim(t0, x0)``.

    A batch shares its step sequence among its rows, so the figures of the
    sample's own run are the ones a replay reproduces.  If that run fails,
    the failure is recorded in ``sim_failures`` and the list is empty.
    """
    x0 = run["x0"].tolist()
    try:
        traj = sim(run["t0"], run["x0"])
    except _SIM_FAILURES as exc:
        sim_failures.append({"t0": run["t0"], "x0": x0, "error": str(exc)})
        return []
    norms = vector_norm(traj.states, norm)
    i = int(np.argmax(norms)) if at_peak else norms.size - 1
    return [{"kind": kind, "eps": eps, "t0": run["t0"], "x0": x0,
             "t": float(traj.times[i]), "value": float(norms[i])}]


def verify_evuas(sim, delta0, t0_grid, eps_levels, horizon, samples=8,
                 seed=0, dim=None, norm="euclidean"):
    """Empirical eventual-uniform-stability/attraction report.

    Parameters
    ----------
    sim : callable
        Trajectory factory ``sim(t0, x0) -> Trajectory`` covering at least
        [t0, t0 + horizon].  It is called once per start time with the
        (3 * samples, dim) stack of initial states and must then return
        states of shape (T, 3 * samples, dim), one column per sample (the
        factories of this module and :func:`evuas.integrate.integrate`
        do).  It must also take one state of shape (dim,).  Its runtime
        failures (IntegrationError, NewtonError, EvaluationError,
        QuadratureBudgetError) are data: when the stack fails, its samples
        run again one at a time and each failure is recorded against its
        own x0 in ``sim_failures``.  Any other exception propagates.
        Witnesses are re-derived from ``sim(t0, x0)`` with the single
        state, so they replay exactly; if that run fails, the failure goes
        to ``sim_failures`` in place of the witness.
    delta0 : float
        Radius of the sampled initial ball; spheres at delta0, delta0/2
        and delta0/4 are drawn.
    t0_grid : sequence of float
        Start times to quantify over.
    eps_levels : sequence of float
        Positive, strictly decreasing bound levels.
    horizon : float
        Per-sample observation window length.
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
    eps_levels = [float(e) for e in eps_levels]
    if any(e <= 0 for e in eps_levels) or \
            any(b >= a for a, b in zip(eps_levels, eps_levels[1:])):
        raise ValueError("eps_levels must be positive and strictly decreasing")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if dim is None:
        raise ValueError("dim (factory state dimension) is required")
    t0_grid = [float(t) for t in t0_grid]
    if not t0_grid:
        raise ValueError("t0_grid must not be empty")

    rng = np.random.default_rng(seed)
    dirs = _unit_directions(dim, samples, rng)
    radii = [delta0, delta0 / 2.0, delta0 / 4.0]
    x0s = np.concatenate([radius * dirs for radius in radii])

    runs = []          # {t0, radius, x0, norms (ndarray), times}
    sim_failures = []
    for t0 in t0_grid:
        for i, times, norms in _sweep(sim, t0, x0s, norm, sim_failures):
            runs.append({"t0": t0, "radius": radii[i // samples],
                         "x0": x0s[i], "times": times, "norms": norms})

    alphas = _alpha_grid(horizon, t0_grid)
    witnesses = []

    # --- eventual uniform stability: per level, smallest onset then the
    # largest passing radius; onsets never shrink as the level tightens
    evus_table = []
    evus_overall = "pass"
    alpha_floor_idx = 0
    delta_cap = delta0
    for eps in eps_levels:
        found = None
        soft_only = True
        for ai in range(alpha_floor_idx, len(alphas)):
            alpha = alphas[ai]
            for level in [r for r in radii if r <= delta_cap]:
                group = [r for r in runs
                         if r["t0"] >= alpha and r["radius"] <= level]
                if not group:
                    continue
                bad = [r for r in group if float(np.max(r["norms"])) >= eps]
                if not bad:
                    found = (alpha, level, ai)
                    break
                for r in bad:
                    if not (r["norms"][-1] < eps
                            and _tail_decreasing(r["norms"])):
                        soft_only = False
            if found:
                break
        if found:
            alpha, level, ai = found
            alpha_floor_idx = ai
            delta_cap = level
            evus_table.append({"eps": eps, "delta": level, "alpha": alpha,
                               "verdict": "pass"})
        else:
            verdict = "inconclusive" if soft_only else "fail"
            evus_table.append({"eps": eps, "delta": None, "alpha": None,
                               "verdict": verdict})
            if evus_overall != "fail":
                evus_overall = verdict
            worst = max(runs, key=lambda r: float(np.max(r["norms"])),
                        default=None)
            if worst is not None:
                witnesses += _witness(sim, worst, norm, "evus", eps,
                                      at_peak=True, sim_failures=sim_failures)
    if sim_failures and evus_overall == "pass":
        evus_overall = "inconclusive"

    # --- eventual uniform attraction: one onset must serve every level
    evua_overall = None
    evua_table = []
    alpha0 = None
    for alpha in alphas:
        group = [r for r in runs if r["t0"] >= alpha]
        if not group:
            continue
        table = []
        ok = True
        for eps in eps_levels:
            t_settle = 0.0
            unsettled = []
            for r in runs:
                if r["t0"] < alpha:
                    continue
                above = r["norms"] >= eps
                if above[-1]:
                    unsettled.append(r)
                    continue
                idx = np.nonzero(above)[0]
                ts = 0.0 if idx.size == 0 else \
                    float(r["times"][idx[-1] + 1] - r["t0"])
                t_settle = max(t_settle, ts)
            if unsettled or t_settle > _SETTLE_MARGIN * horizon:
                ok = False
                break
            table.append({"eps": eps, "T": t_settle, "verdict": "pass"})
        if ok:
            evua_overall = "pass"
            evua_table = table
            alpha0 = alpha
            break
    if evua_overall is None:
        # classify the failure at the largest usable onset
        alpha = alphas[-1]
        soft_only = True
        evua_table = []
        for eps in eps_levels:
            unsettled = [r for r in runs
                         if r["t0"] >= alpha and r["norms"][-1] >= eps]
            verdict = "pass"
            if unsettled:
                hard = [r for r in unsettled
                        if not _tail_decreasing(r["norms"])]
                verdict = "fail" if hard else "inconclusive"
                if hard:
                    soft_only = False
                witnesses += _witness(sim, (hard or unsettled)[0], norm,
                                      "evua", eps, at_peak=False,
                                      sim_failures=sim_failures)
            evua_table.append({"eps": eps, "T": None, "verdict": verdict})
        evua_overall = "inconclusive" if soft_only else "fail"
    if sim_failures and evua_overall == "pass":
        evua_overall = "inconclusive"

    order = {"fail": 0, "inconclusive": 1, "pass": 2}
    evuas = min((evus_overall, evua_overall), key=order.get)
    return StabilityReport(
        evus=evus_overall, evua=evua_overall, evuas=evuas,
        evus_table=evus_table, evua_table=evua_table, delta0=delta0,
        alpha0=alpha0, samples=len(runs), seed=seed, norm=norm,
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

    def to_dict(self):
        return {"kappa": self.kappa, "mu": self.mu,
                "fit_residual": self.fit_residual, "slack": self.slack,
                "validity": self.validity}


def fit_kl_envelope(trajectories, skip_fraction=0.1, norm=None):
    """Exponential envelope fitted to decaying trajectories.

    Pools the log-norm drop against elapsed time with one intercept per
    trajectory and a shared slope; the envelope gain is then inflated so
    the inequality holds on every input sample.  Non-decaying data is
    rejected.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    used_norm = norm or trajectories[0].norm_used
    check_norm_id(used_norm)

    per_traj = []
    for traj in trajectories:
        norms = vector_norm(traj.states, used_norm)
        if norms[0] <= 0.0:
            raise ValueError("envelope fitting needs nonzero initial states")
        s = traj.times - traj.times[0]
        y = np.log(np.maximum(norms, 1e-300)) - math.log(norms[0])
        per_traj.append((s, y))

    num = 0.0
    den = 0.0
    for s, y in per_traj:
        mask = s >= skip_fraction * s[-1]
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
        mask = s >= skip_fraction * s[-1]
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


def estimate_delta_of_eps(sim, eps, t0, horizon, dim=None, directions=8,
                          seed=0, iters=20, norm="euclidean"):
    """Largest sampled initial-norm level whose trajectories stay below eps.

    Bisects over the level in (0, eps]; sampled directions are seeded and
    shared across levels.  Returns 0.0 when even the smallest tested level
    fails.  The factory ``sim`` is called once per level with the
    (directions, dim) stack of initial states and must return states of
    shape (T, directions, dim), as the factories of this module do.  A
    runtime failure anywhere in the stack fails the level; any other
    exception propagates.
    """
    check_norm_id(norm)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if dim is None:
        raise ValueError("dim (factory state dimension) is required")
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(dim, directions, rng)

    def passes(level):
        try:
            traj = sim(t0, level * dirs)
        except _SIM_FAILURES:
            return False
        norms = _batch_norms(traj, directions, norm)
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
