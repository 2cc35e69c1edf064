import inspect

import evuas as ev
from evuas import errors

# each error's builtin base, which callers that catch by kind rely on
_BUILTIN = {
    errors.ShapeError: ValueError,
    errors.EvaluationError: ArithmeticError,
    errors.DesignError: ValueError,
    errors.NewtonError: RuntimeError,
    errors.QuadratureBudgetError: RuntimeError,
    errors.IntegrationError: RuntimeError,
    errors.ControllerEvaluationError: RuntimeError,
    errors.EnvelopeFitError: RuntimeError,
    errors.ScenarioError: ValueError,
}


def test_every_error_is_an_evuas_error_of_its_builtin_kind():
    # one except clause catches every error of the package, and each still
    # subclasses the builtin kind it had
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert classes == set(_BUILTIN) | {errors.EvuasError}
    for cls, builtin in _BUILTIN.items():
        assert issubclass(cls, errors.EvuasError), cls
        assert issubclass(cls, builtin), cls
    assert ev.EvuasError is errors.EvuasError and "EvuasError" in ev.__all__
