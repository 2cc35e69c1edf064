"""Windowed-integral decay of high-frequency oscillations.

A signal can keep unit amplitude forever, or even grow without bound, and
still average itself away over every unit time window.  This script sweeps
the window metric

    sup over lambda in [0,1] of | integral from t to t+lambda of h |

over catalog time signals w(t) (``make_perturbation``) and compares two of
them against their analytic decay bounds from Remark 1.
"""

import numpy as np

import evuas as ev
from evuas.perturbations import REMARK1_BOUNDS

GRID = np.arange(0.0, 9.0)

print("signal catalog")
print("-" * 60)
for name in ("cos_exp", "vec_cos_sin_exp", "t_cos_t4", "const1"):
    pert = ev.make_perturbation(name)
    bound = REMARK1_BOUNDS.get(name)
    grid = GRID if name != "t_cos_t4" else np.arange(1.0, 10.0)
    prof = ev.diminishing_profile(pert.w, grid, quad_tol=1e-9,
                                  freq_hint=pert.freq_hint)
    print(f"{name}: trend={prof.trend}")
    for t, v in zip(prof.t_grid, prof.values):
        line = f"   t={t:4.1f}   metric={v:12.3e}"
        if bound is not None:
            line += f"   bound={float(bound(t)):12.3e}"
        print(line)

# the unit-amplitude pair never decays pointwise, yet the metric does
pert = ev.make_perturbation("vec_cos_sin_exp")
prof = ev.diminishing_profile(pert.w, GRID, quad_tol=1e-9,
                              freq_hint=pert.freq_hint)
assert np.all(prof.values <= np.sqrt(32.0) * np.exp(-GRID) + 1e-9)
print("\n(cos e^t, sin e^t): |h(t)| = 1 for all t, metric under "
      "sqrt(32) e^{-t}: confirmed")
