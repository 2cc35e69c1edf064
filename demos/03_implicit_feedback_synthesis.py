"""Synthesizing the implicit feedback for an input-nonlinear system.

The plant is y'' = u + u^3 + w(t).  The feedback is not available in closed
form: at every state the controller solves the closing residual for u by a
damped Newton iteration.  Coercivity of the input cost (here, |u+u^3|
grows without bound) is what makes the feedback exist at every state, and
the probe reports sampled evidence for it; for y'' = tanh(u) it reports the
opposite.
"""

import numpy as np

import evuas as ev

cubic = ev.make_model("cubic")
design = ev.build_gamma([[-1.0]], 2)
hurwitz = ev.build_hurwitz([[-1.0]])

states = [np.zeros(2), np.array([1.0, -0.5]), np.array([-2.0, 2.0])]
for name in ("cubic", "tanh", "chain"):
    probe = ev.coercivity_probe(ev.make_model(name), states)
    print(f"input-cost growth for {name!r}: {probe['verdict']}")

ctrl = ev.synthesize_feedback(cubic, design, hurwitz)
print("\nfeedback values (Newton-solved, residual <= 1e-12):")
for x in ([0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [-0.6, 0.9]):
    u = ctrl.solve(np.asarray(x))
    r = np.linalg.norm(ctrl.residual(np.asarray(x), u))
    print(f"   G({x[0]:5.2f}, {x[1]:5.2f}) = {u[0]:9.5f}   residual {r:.1e}")

# close the loop under the bounded high-frequency disturbance
pert = ev.make_perturbation("cos_exp")
traj = ev.simulate_closed_loop(cubic, ctrl, pert, np.array([0.5, 0.0]),
                               0.0, 8.0, tol=1e-8)
norms = traj.norms()
print(f"\nclosed loop under cos(e^t): |X(0)| = {norms[0]:.2f}, "
      f"sup |X| = {np.max(norms):.3f}, |X({traj.times[-1]:.0f})| = "
      f"{norms[-1]:.2e}")

# region-of-attraction arithmetic from the design constants
fac = ev.make_error_factory(hurwitz, pert, horizon=6.0, tol=1e-7)
delta_e = ev.estimate_delta_of_eps(fac, eps=0.5, t0=0.0, dim=1,
                                   directions=4, iters=12)
roa = ev.estimate_roa(design, r_max=1.0, epsilon=0.25,
                      delta_E_of_eps=delta_e)
print(f"\nempirical error-system margin delta_E(0.5) = {delta_e:.3f}")
print(f"initial radius from sampled inputs: delta* = {roa.delta_star:.3f} "
      f"(error side {roa.delta_star_E:.3f}, state side {roa.delta_star_X:.3f})")
