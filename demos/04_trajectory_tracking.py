"""Tracking a moving reference instead of stabilizing the origin.

Same construction, one change: the feedback closes the residual written in
the deviation Delta = X - X_d(t) with the reference's second derivative as
feedforward.  The double integrator follows (sin t, cos t) from a
deviation of 0.3, with and without a high-frequency disturbance.
"""

import numpy as np

import evuas as ev

model = ev.make_model("chain", m=1, n=2)
design = ev.build_gamma([[-1.0]], 2)
hurwitz = ev.default_hurwitz(1)
reference = ev.make_reference("sin_cos")

horizon = 15.0
for pert_name in ("zero", "cos_exp"):
    pert = ev.make_perturbation(pert_name) if pert_name != "zero" else None
    traj = ev.simulate_tracking(model, design, hurwitz, reference, pert,
                                np.array([0.3, 1.0]), 0.0, horizon, tol=1e-9,
                                sample_times=np.linspace(0.0, horizon, 601))
    norms = traj.norms()
    print(f"disturbance {pert_name!r}: |Delta(0)| = {norms[0]:.2f} -> "
          f"|Delta({horizon:.0f})| = {norms[-1]:.2e}")
    ev.trajectory_to_csv(traj, f"tracking_{pert_name}.csv")

print("\nthe zero reference reduces tracking to plain stabilization:")
ctrl = ev.synthesize_feedback(model, design, ev.build_hurwitz([[-1.0]]))
x0 = np.array([0.4, -0.1])
ts = np.linspace(0.0, 4.0, 81)
a = ev.simulate_closed_loop(model, ctrl, None, x0, 0.0, 4.0, tol=1e-9,
                            sample_times=ts)
b = ev.simulate_tracking(model, design, ev.build_hurwitz([[-1.0]]),
                         ev.make_reference("zero", m=1, n=2), None, x0,
                         0.0, 4.0, tol=1e-9, sample_times=ts)
print("   states bitwise equal:", np.array_equal(a.states, b.states))
