"""Exception types shared across the toolkit.

Every error here derives from :class:`EvuasError`, so one ``except`` clause
catches any of them, and keeps a builtin base (``ValueError``,
``ArithmeticError`` or ``RuntimeError``) for callers that catch by kind.
"""


class EvuasError(Exception):
    """Base of every error the package raises on its own account."""


class ShapeError(EvuasError, ValueError):
    """An array argument has the wrong shape; the message carries the shape report."""


class EvaluationError(EvuasError, ArithmeticError):
    """A user-supplied map returned NaN/inf.

    ``component`` is the index of the first offending entry, ``where`` names
    the map that produced it.  On a batch ``row`` is the first row with
    such an entry and ``component`` the index within that row; it is None
    for one state.
    """

    def __init__(self, message, component=None, where=None, row=None):
        super().__init__(message)
        self.component = component
        self.where = where
        self.row = row


class DesignError(EvuasError, ValueError):
    """A controller design input is inadmissible (bad poles, non-Hurwitz matrix, ...)."""


class NewtonError(EvuasError, RuntimeError):
    """The implicit feedback solve failed to converge at some state.

    Carries the state, the last residual norm and the iteration count so a
    failure can be interpreted as the state leaving the controller's domain
    of validity.  A solve on a batch of states reports its lowest failing
    row, whose index is ``row``; it is None for one state.
    """

    def __init__(self, message, x=None, residual=None, iterations=None,
                 singular=False, row=None):
        super().__init__(message)
        self.x = x
        self.residual = residual
        self.iterations = iterations
        self.singular = singular
        self.row = row


class QuadratureBudgetError(EvuasError, RuntimeError):
    """Adaptive quadrature hit its refinement budget before reaching the tolerance.

    ``estimate`` is the best available value, ``error_bound`` the last
    observed refinement difference.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class IntegrationError(EvuasError, RuntimeError):
    """Time integration failed (step underflow or non-finite state).

    ``t_last``/``x_last`` hold the last accepted point.
    """

    def __init__(self, message, t_last=None, x_last=None, reason=None):
        super().__init__(message)
        self.t_last = t_last
        self.x_last = x_last
        self.reason = reason


class ControllerEvaluationError(IntegrationError):
    """A closed-loop run aborted because the feedback solve failed mid-trajectory.

    On a batched run ``row`` is the failing row (None for one trajectory).
    """

    def __init__(self, message, t=None, x=None, residual=None, row=None):
        super().__init__(message, t_last=t, x_last=x, reason="controller")
        self.t = t
        self.x = x
        self.residual = residual
        self.row = row


class EnvelopeFitError(EvuasError, RuntimeError):
    """Decay-envelope fitting rejected the data; ``mu`` is the (non-positive) fitted rate."""

    def __init__(self, message, mu=None):
        super().__init__(message)
        self.mu = mu


class ScenarioError(EvuasError, ValueError):
    """A scenario document failed validation; ``field`` is the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
