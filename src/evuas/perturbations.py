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
right-hand-side call of the integrator there, where it takes about
0.5 us against about 1 us for the array path on one time, some 0.1 s
over the run's 168,788 calls (contention-corrected, on a shared 2-vCPU
Xeon VM); it matches its array path to an ulp of e^t in phase.
"""

import math

import numpy as np

from .diminishing import (SIGNAL_CATALOG, chirp_freq, constant_term,
                          exp_chirp, quartic_chirp)
from .model import PerturbationSpec, _size


# (0.5 t sin t^4, -t cos t^4) = Re[(-0.5i, -1) t e^{i t^4}]
_TERMS_EXAMPLE1_UNBOUNDED = (quartic_chirp((-0.5j, -1.0)),)
# the columns (sin e^t, 0) and (0, cos e^t) of D(t) share the phase e^t
_COLUMN_TERMS_EXAMPLE1_BOUNDED = (exp_chirp((-1j, 0.0)), exp_chirp((0.0, 1.0)))


def _w_example1_unbounded(t):
    t = np.asarray(t, dtype=float)
    return np.stack([0.5 * t * np.sin(t ** 4), -t * np.cos(t ** 4)])


def _d_example1_bounded(t):
    if isinstance(t, float) or np.ndim(t) == 0:
        e = math.exp(t)
        out = np.zeros((2, 2))
        out[0, 0] = math.sin(e)
        out[1, 1] = math.cos(e)
        return out
    e = np.exp(np.asarray(t, dtype=float))
    out = np.zeros((2, 2) + e.shape)
    out[0, 0] = np.sin(e)
    out[1, 1] = np.cos(e)
    return out


def _k_example1_bounded(x):
    # sign-preserving real cube root (np.cbrt: math.cbrt rounds otherwise);
    # the trajectory crosses e_1 < 0.  A closed loop passes its whole state,
    # of which K reads the first two entries
    x0, x1 = x[:2].tolist()
    return np.array([-x1, 2.0 * (float(np.cbrt(x0)) + x1 + 1.0)])


def _check_dim(name, have, requested):
    if requested is not None and _size("dim", requested) != have:
        raise ValueError(
            f"{name!r} has dimension {have}, requested {requested}")


def _from_signal(sig):
    def build(dim=None):
        _check_dim(sig.name, sig.dim, dim)
        return PerturbationSpec.from_signal(sig.fn, sig.dim, name=sig.name,
                                            terms=sig.terms)
    return build


def _build_zero(dim=None):
    return PerturbationSpec.zero(1 if dim is None else dim)


def _build_example1_unbounded(dim=None):
    _check_dim("example1_unbounded", 2, dim)
    return PerturbationSpec.from_signal(
        _w_example1_unbounded, 2, name="example1_unbounded",
        terms=_TERMS_EXAMPLE1_UNBOUNDED)


def _build_example1_bounded(dim=None):
    _check_dim("example1_bounded", 2, dim)
    return PerturbationSpec.factored(
        _d_example1_bounded, _k_example1_bounded, 2,
        freq_hint=chirp_freq(_COLUMN_TERMS_EXAMPLE1_BOUNDED),
        name="example1_bounded")


def _build_const_e1(dim=None):
    dim = 2 if dim is None else _size("dim", dim)

    def w(t):
        out = np.zeros((dim,) + np.shape(t))
        out[0] = 1.0
        return out

    return PerturbationSpec.from_signal(
        w, dim, name="const_e1", terms=(constant_term(np.eye(dim)[0]),))


PERTURBATION_CATALOG = {
    "zero": (_build_zero, "no disturbance"),
    # the time signals of the signal catalog, lifted as W(t, x) = w(t)
    **{name: (_from_signal(sig), sig.description)
       for name, sig in SIGNAL_CATALOG.items() if name != "zero"},
    "example1_unbounded": (_build_example1_unbounded,
                           "(0.5 t sin(t^4), -t cos(t^4)): unbounded, "
                           "quartic phase"),
    "example1_bounded": (_build_example1_bounded,
                         "diag(sin(e^t), cos(e^t)) K(e) with a cube-root "
                         "state coupling"),
    "const_e1": (_build_const_e1, "constant unit disturbance on the first "
                 "channel (not diminishing)"),
}


def make_perturbation(name, dim=None):
    """Instantiate a catalog disturbance; ``dim`` is the output dimension,
    which only ``zero`` and ``const_e1`` may choose (ValueError if another
    entry does not have it)."""
    if name not in PERTURBATION_CATALOG:
        raise KeyError(
            f"unknown perturbation {name!r}; catalog: "
            f"{sorted(PERTURBATION_CATALOG)}")
    return PERTURBATION_CATALOG[name][0](dim=dim)
