"""Error dynamics under the two canonical oscillating disturbances.

The triangular error matrix A_H = [[-1, 2], [0, -1.5]] is driven once by an
unbounded quartic-phase disturbance and once by a bounded exponential-phase
one that keeps the origin from being a solution at all.  Both are
diminishing, and both error trajectories decay to a small residual set.
"""

import numpy as np

import evuas as ev

A_H = ev.build_hurwitz([[-1.0, 2.0], [0.0, -1.5]])
E0 = [-1.0, 1.5]

runs = [
    ("unbounded (0.5 t sin t^4, -t cos t^4)", "example1_unbounded", 12.0, 1e-6),
    ("bounded state-coupled, phase e^t", "example1_bounded", 10.0, 1e-7),
]

for label, pert_name, horizon, tol in runs:
    pert = ev.make_perturbation(pert_name)
    traj = ev.simulate_error_dynamics(
        A_H, pert, E0, 0.0, horizon, tol=tol,
        sample_times=np.linspace(0.0, horizon, 1201))
    norms = traj.norms()
    print(f"{label}")
    # the chirp-form disturbance goes through the exact propagator, whose
    # diagnostics count sub-intervals between samples instead of RK steps
    print(f"   steps or sub-intervals: {traj.diagnostics['n_accepted']}, "
          f"smallest: {traj.diagnostics['min_step']:.2e}")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        i = int(frac * (len(norms) - 1))
        print(f"   t={traj.times[i]:5.2f}   |E| = {norms[i]:.3e}")
    ev.trajectory_to_csv(traj, f"error_{pert_name}.csv")
    print(f"   wrote error_{pert_name}.csv")

# a constant disturbance is NOT diminishing: the error settles away from 0
pert = ev.make_perturbation("const_e1", dim=2)
traj = ev.simulate_error_dynamics(A_H, pert, E0, 0.0, 15.0, tol=1e-8)
print(f"constant (1,0) disturbance: terminal E = {traj.states[-1]} "
      "(the forced equilibrium, not the origin)")
