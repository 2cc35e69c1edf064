"""The package's one catalog of named disturbances, for scenarios and tests.

Catalog entries come in three flavors: no disturbance, the time signals
W(t, x) = w(t) of the paper's time-only class (Example 1's unbounded
disturbance among them), and Example 1's bounded disturbance, with
exponential phase and a cube-root state coupling.  Every time signal
here also declares its chirp form (see
:class:`evuas.diminishing.ChirpTerm`), from which its frequency hint is
derived; Remark 1's analytic decay bounds are kept by catalog name in
``REMARK1_BOUNDS``.  Signals and D are called on 1-d arrays of times,
by the integrator once per attempted step on its five stage times, and
by ``evaluate`` and the classifier on their grids, through one numpy
path.
"""
import numpy as np

from .diminishing import (chirp_freq, constant_term, exp_chirp,
                          quartic_chirp)
from .model import PerturbationSpec, _entry, _size


# (0.5 t sin t^4, -t cos t^4) = Re[(-0.5i, -1) t e^{i t^4}]
_TERMS_EXAMPLE1_UNBOUNDED = (quartic_chirp((-0.5j, -1.0)),)
# the columns (sin e^t, 0) and (0, cos e^t) of D(t) share the phase e^t
_COLUMN_TERMS_EXAMPLE1_BOUNDED = (exp_chirp((-1j, 0.0)), exp_chirp((0.0, 1.0)))


def _stack2(f1, f2):
    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.stack([f1(t), f2(t)])
    return fn


def _d_example1_bounded(t):
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


def _time_signal(name, width, w, terms):
    """Builder of the ``width``-channel W(t, x) = w(t), sum of ``terms``."""
    def build(dim=None):
        _check_dim(name, width, dim)
        return PerturbationSpec.from_signal(w, width, name=name, terms=terms)
    return build


def _build_zero(dim=None):
    return PerturbationSpec.zero(1 if dim is None else dim)


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
    "cos_exp": (_time_signal(
        "cos_exp", 1, lambda t: np.cos(np.exp(np.asarray(t, dtype=float))),
        (exp_chirp((1,)),)),
        "cos(e^t): bounded, ever-faster oscillation"),
    "vec_cos_sin_exp": (_time_signal(
        "vec_cos_sin_exp", 2,
        _stack2(lambda t: np.cos(np.exp(t)), lambda t: np.sin(np.exp(t))),
        (exp_chirp((1, -1j)),)),
        "(cos(e^t), sin(e^t)): unit-norm oscillating pair"),
    "t_cos_t4": (_time_signal(
        "t_cos_t4", 1,
        lambda t: np.asarray(t, dtype=float) * np.cos(np.asarray(t, dtype=float) ** 4),
        (quartic_chirp((1,)),)),
        "t*cos(t^4): unbounded amplitude, quartic phase"),
    "vec_t_cos_sin_t4": (_time_signal(
        "vec_t_cos_sin_t4", 2,
        _stack2(lambda t: t * np.cos(t ** 4), lambda t: t * np.sin(t ** 4)),
        (quartic_chirp((1, -1j)),)),
        "(t*cos(t^4), t*sin(t^4)): unbounded oscillating pair"),
    "const1": (_time_signal(
        "const1", 1, lambda t: np.ones_like(np.asarray(t, dtype=float)),
        (constant_term((1,)),)),
        "constant 1: not diminishing"),
    "example1_unbounded": (_time_signal(
        "example1_unbounded", 2,
        _stack2(lambda t: 0.5 * t * np.sin(t ** 4),
                lambda t: -t * np.cos(t ** 4)),
        _TERMS_EXAMPLE1_UNBOUNDED),
        "(0.5 t sin(t^4), -t cos(t^4)): unbounded, quartic phase"),
    "example1_bounded": (_build_example1_bounded,
                         "diag(sin(e^t), cos(e^t)) K(e) with a cube-root "
                         "state coupling"),
    "const_e1": (_build_const_e1, "constant unit disturbance on the first "
                 "channel (not diminishing)"),
}

# Remark 1's analytic bounds on the window metric, by catalog name
REMARK1_BOUNDS = {
    "cos_exp": lambda t: 4.0 * np.exp(-t),
    "vec_cos_sin_exp": lambda t: np.sqrt(32.0) * np.exp(-t),
}


def make_perturbation(name, dim=None):
    """Instantiate a catalog disturbance; ``dim`` is the output dimension,
    which only ``zero`` and ``const_e1`` may choose (ValueError if another
    entry does not have it)."""
    return _entry("perturbation", PERTURBATION_CATALOG, name)(dim=dim)
