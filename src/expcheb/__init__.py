"""Certified minimum-degree polynomial approximation of exp on [0, B].

The package builds polynomials p with a *proven* uniform bound
sup_{z in [0,B]} |p(z) - exp(-z)| < delta (and likewise for exp(+z)),
reports matching degree lower bounds, predicts the degree from a
closed-form regime analysis, and uses the exported polynomials to drive
a subquadratic batch Gaussian kernel-density solver.

Layering:

- ``hp``       arbitrary-precision reals with directed rounding
- ``special``  the decay-rate function, its level-set constants, and
               monic Chebyshev evaluation
- ``coeffs``   certified series coefficients (Bessel-type sums) and
               two-sided truncation-tail brackets
- ``approx``   degree certificates, regime prediction, exact-rational
               polynomial export
- ``remez``    an independent minimax oracle used for cross-checks
- ``kde``      kernel factorization through (|x|^2, <x,y>, |y|^2), the
               streamed certified matvec
- ``polyio``   bit-exact JSON serialization of exported polynomials
- ``cli``      the ``expcheb`` command-line tool
"""

from .approx import (
    ChebSeries,
    ConstantName,
    DegreeCertificate,
    ExportedPolynomial,
    LowerWitness,
    ProblemSpec,
    Regime,
    RegimePrediction,
    classify_regime,
    degree_lower_bound,
    eval_cheb_series,
    eval_exported,
    eval_monomial,
    export_polynomial,
    find_degree,
    measure_sup_error,
    predict_degree,
    problem,
)
from .coeffs import (
    CoeffValue,
    TailBounds,
    Target,
    coefficient,
    coefficient_range,
    modified_bessel,
    tail_bounds,
    tail_cutoff,
)
from .errors import (
    BitBudgetError,
    CapacityError,
    ConvergenceError,
    CutoffError,
    DomainError,
    ExpchebError,
    PrecisionOverflowError,
    RemezError,
    SoundnessError,
)
from .hp import DEFAULT_BITS, HPReal, hpf
from .kde import (
    CostModel,
    FeatureMap,
    KdeInstance,
    KdeResult,
    cost_model,
    enumerate_multi_indices,
    estimate_diameter_sq,
    expand_kernel_poly,
    feature_count,
    kde_bruteforce,
    kde_matvec,
    kernel_map,
    make_instance,
    solve,
)
from .polyio import parse_polynomial, render_polynomial
from .remez import minimax_error
from .special import (
    cheb_eval,
    cheb_extrema_and_roots,
    coeff_log_scale,
    critical_constant_neg,
    critical_constant_pos,
    decay_rate,
    decay_rate_derivative,
    saddle_point,
    saturation_constant,
    solve_rate_level,
    term_log_weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BitBudgetError",
    "CapacityError",
    "ConvergenceError",
    "CutoffError",
    "DomainError",
    "ExpchebError",
    "PrecisionOverflowError",
    "RemezError",
    "SoundnessError",
    # high-precision reals
    "DEFAULT_BITS",
    "HPReal",
    "hpf",
    # special functions and constants
    "cheb_eval",
    "cheb_extrema_and_roots",
    "coeff_log_scale",
    "critical_constant_neg",
    "critical_constant_pos",
    "decay_rate",
    "decay_rate_derivative",
    "saddle_point",
    "saturation_constant",
    "solve_rate_level",
    "term_log_weight",
    # coefficients and tails
    "CoeffValue",
    "TailBounds",
    "Target",
    "coefficient",
    "coefficient_range",
    "modified_bessel",
    "tail_bounds",
    "tail_cutoff",
    # approximation pipeline
    "ChebSeries",
    "ConstantName",
    "DegreeCertificate",
    "ExportedPolynomial",
    "LowerWitness",
    "ProblemSpec",
    "Regime",
    "RegimePrediction",
    "classify_regime",
    "degree_lower_bound",
    "eval_cheb_series",
    "eval_exported",
    "eval_monomial",
    "export_polynomial",
    "find_degree",
    "measure_sup_error",
    "predict_degree",
    "problem",
    # minimax oracle
    "minimax_error",
    # serialization
    "parse_polynomial",
    "render_polynomial",
    # kde solver
    "CostModel",
    "FeatureMap",
    "KdeInstance",
    "KdeResult",
    "cost_model",
    "enumerate_multi_indices",
    "estimate_diameter_sq",
    "expand_kernel_poly",
    "feature_count",
    "kde_bruteforce",
    "kde_matvec",
    "kernel_map",
    "make_instance",
    "solve",
]
