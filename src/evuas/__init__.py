"""Feedback synthesis and empirical stability certification for coupled
nth-order systems driven by diminishing, possibly unbounded, high-frequency
disturbances.

The public surface groups into five areas: system modeling
(:class:`SystemModel`, :class:`PerturbationSpec`), disturbance analysis
(:func:`window_integral_sup`, :func:`classify`), controller synthesis
(:func:`build_gamma`, :func:`synthesize_feedback`,
:func:`linearize_and_place`), closed-loop simulation (:func:`integrate`,
:func:`simulate_error_dynamics`, :func:`simulate_closed_loop`,
:func:`simulate_tracking`) and stability verification
(:func:`verify_evuas`, :func:`fit_kl_envelope`).
"""

from .diminishing import (PerturbationClassification, WindowMetricProfile,
                          classify, diminishing_profile, trend_verdict,
                          window_integral_sup)
from .errors import (ControllerEvaluationError, DesignError, EnvelopeFitError,
                     EvaluationError, EvuasError, IntegrationError,
                     NewtonError, QuadratureBudgetError, ScenarioError,
                     ShapeError)
from .integrate import Trajectory, integrate
from .model import (MODEL_CATALOG, PerturbationSpec, SystemModel,
                    flatten_state, jacobian_F_U, jacobian_F_X, make_model,
                    unflatten_state)
from .perturbations import PERTURBATION_CATALOG, make_perturbation
from .simulate import (REFERENCE_CATALOG, TrackingSpec, diagnostics_to_json,
                       make_reference, simulate_closed_loop,
                       simulate_error_dynamics, simulate_tracking,
                       trajectory_to_csv)
from .synthesis import (GammaDesign, HurwitzMatrix, ImplicitController,
                        LinearController, NonSingularityReport, RoaEstimate,
                        build_gamma, build_hurwitz, check_nonsingular,
                        coercivity_probe, default_hurwitz, estimate_roa,
                        input_cost, input_free_term, linearize_and_place,
                        linearization, synthesize_feedback, tracking_error)
from .verify import (KlEnvelope, StabilityReport, estimate_delta_of_eps,
                     fit_kl_envelope, make_closed_loop_factory,
                     make_error_factory, verify_evuas)

__version__ = "0.1.0"

__all__ = [
    "ControllerEvaluationError", "DesignError",
    "EnvelopeFitError", "EvaluationError", "EvuasError", "GammaDesign",
    "HurwitzMatrix",
    "ImplicitController", "IntegrationError", "KlEnvelope",
    "LinearController", "MODEL_CATALOG", "NewtonError",
    "NonSingularityReport", "PERTURBATION_CATALOG",
    "PerturbationClassification", "PerturbationSpec",
    "QuadratureBudgetError", "REFERENCE_CATALOG", "RoaEstimate",
    "ScenarioError", "ShapeError", "StabilityReport",
    "SystemModel", "TrackingSpec", "Trajectory",
    "WindowMetricProfile", "build_gamma", "build_hurwitz",
    "check_nonsingular", "classify", "coercivity_probe", "default_hurwitz",
    "diagnostics_to_json", "diminishing_profile", "estimate_delta_of_eps",
    "estimate_roa", "fit_kl_envelope", "flatten_state",
    "input_cost", "input_free_term", "integrate", "jacobian_F_U",
    "jacobian_F_X", "linearization", "linearize_and_place",
    "make_closed_loop_factory", "make_error_factory", "make_model",
    "make_perturbation", "make_reference",
    "simulate_closed_loop",
    "simulate_error_dynamics", "simulate_tracking", "synthesize_feedback",
    "tracking_error", "trajectory_to_csv", "trend_verdict",
    "unflatten_state", "verify_evuas", "window_integral_sup",
]
