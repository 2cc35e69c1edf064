"""Named disturbance terms for scenarios and tests.

Catalog entries come in two flavors: pure time signals lifted from the
signal catalog, and the two canonical error-system disturbances (one with
linearly growing amplitude and quartic phase, one bounded with exponential
phase and a cube-root state coupling).  Every time signal here also
declares its chirp form (see :class:`evuas.diminishing.ChirpTerm`), from
which its frequency hint is derived.  Signals take one time or an array
through one numpy path, with the time as an array first (``np.float64 **
4`` rounds unlike the array power), so both agree bit for bit.  Only D of
``example1_bounded`` keeps a ``math`` path for one time: it sits in every
integrator step there and saves about 1 us per call, 0.2 s over the
bundled scenarios; it matches its array path to an ulp of e^t in phase.
"""

import math

import numpy as np

from .diminishing import (SIGNAL_CATALOG, chirp_freq, constant_term,
                          exp_chirp, make_signal, quartic_chirp)
from .model import PerturbationSpec


# (0.5 t sin t^4, -t cos t^4) = Re[(-0.5i, -1) t e^{i t^4}]
_TERMS_EXAMPLE1_UNBOUNDED = (quartic_chirp((-0.5j, -1.0)),)
# the columns (sin e^t, 0) and (0, cos e^t) of D(t) share the phase e^t
_COLUMN_TERMS_EXAMPLE1_BOUNDED = (exp_chirp((-1j, 0.0)), exp_chirp((0.0, 1.0)))


def _w_example1_unbounded(t):
    t = np.asarray(t, dtype=float)
    return np.stack([0.5 * t * np.sin(t ** 4), -t * np.cos(t ** 4)])


def _d_example1_bounded(t):
    if isinstance(t, float) or np.ndim(t) == 0:
        e = math.exp(float(t))
        return np.array([[math.sin(e), 0.0], [0.0, math.cos(e)]])
    t = np.asarray(t, dtype=float)
    e = np.exp(t)
    out = np.zeros((2, 2) + t.shape)
    out[0, 0] = np.sin(e)
    out[1, 1] = np.cos(e)
    return out


def _k_example1_bounded(x):
    # sign-preserving real cube root; the trajectory crosses e_1 < 0
    return np.array([-x[1], 2.0 * (np.cbrt(x[0]) + x[1] + 1.0)])


def _from_signal(name):
    sig = make_signal(name)

    def build(dim=None, state_dim=None):
        if dim is not None and dim != sig.dim:
            raise ValueError(
                f"signal {name!r} has dimension {sig.dim}, requested {dim}")
        return PerturbationSpec.from_signal(
            sig.fn, sig.dim, flags={"signal": name}, name=name,
            state_dim=state_dim, terms=sig.terms)
    return build


def _build_zero(dim=None, state_dim=None):
    return PerturbationSpec.zero(dim or 1)


def _build_example1_unbounded(dim=None, state_dim=None):
    return PerturbationSpec.from_signal(
        _w_example1_unbounded, 2,
        flags={"diminishing_claimed": True, "bounded_columns": False},
        name="example1_unbounded", state_dim=state_dim,
        terms=_TERMS_EXAMPLE1_UNBOUNDED)


def _build_example1_bounded(dim=None, state_dim=None):
    return PerturbationSpec.factored(
        _d_example1_bounded, _k_example1_bounded, 2,
        freq_hint=chirp_freq(_COLUMN_TERMS_EXAMPLE1_BOUNDED),
        flags={"diminishing_claimed": True, "bounded_columns": True},
        name="example1_bounded", state_dim=state_dim or 2)


def _build_const_e1(dim=None, state_dim=None):
    dim = dim or 2

    def w(t):
        out = np.zeros((dim,) + np.shape(t))
        out[0] = 1.0
        return out

    return PerturbationSpec.from_signal(
        w, dim, flags={"diminishing_claimed": False}, name="const_e1",
        state_dim=state_dim, terms=(constant_term(np.eye(dim)[0]),))


PERTURBATION_CATALOG = {
    "zero": (_build_zero, "no disturbance"),
    "cos_exp": (_from_signal("cos_exp"), SIGNAL_CATALOG["cos_exp"].description),
    "vec_cos_sin_exp": (_from_signal("vec_cos_sin_exp"),
                        SIGNAL_CATALOG["vec_cos_sin_exp"].description),
    "t_cos_t4": (_from_signal("t_cos_t4"), SIGNAL_CATALOG["t_cos_t4"].description),
    "vec_t_cos_sin_t4": (_from_signal("vec_t_cos_sin_t4"),
                         SIGNAL_CATALOG["vec_t_cos_sin_t4"].description),
    "const1": (_from_signal("const1"), SIGNAL_CATALOG["const1"].description),
    "example1_unbounded": (_build_example1_unbounded,
                           "(0.5 t sin(t^4), -t cos(t^4)): unbounded, "
                           "quartic phase"),
    "example1_bounded": (_build_example1_bounded,
                         "diag(sin(e^t), cos(e^t)) K(e) with a cube-root "
                         "state coupling"),
    "const_e1": (_build_const_e1, "constant unit disturbance on the first "
                 "channel (not diminishing)"),
}


def make_perturbation(name, dim=None, state_dim=None):
    if name not in PERTURBATION_CATALOG:
        raise KeyError(
            f"unknown perturbation {name!r}; catalog: "
            f"{sorted(PERTURBATION_CATALOG)}")
    return PERTURBATION_CATALOG[name][0](dim=dim, state_dim=state_dim)
