"""qtheta: exact truncated Laurent series over Q, the classical q-kernels
(Pochhammer symbols, theta functions, basic hypergeometric series), a
family of named partial-theta sums, an exact eliminator whose modular
solve is certified over Z[q], and a randomized verifier for a built-in
corpus of q-series identities.
"""

from .errors import (
    BoundViolationError,
    DegenerateParameterError,
    DomainError,
    EliminationError,
    EvalError,
    FormalDivergenceError,
    ParseError,
    PrecisionError,
    QThetaError,
    RegistryError,
    SamplingError,
    SeriesZeroDivision,
    SortError,
    UnknownNameError,
)
from .series import (
    LaurentSeries,
    add,
    divide,
    eq_to_prec,
    from_rational,
    from_string,
    invert,
    monomial,
    mul,
    neg,
    one,
    pow_int,
    scale,
    shift,
    sub,
    truncate,
    zero,
)
from .kernels import (
    QMonomial,
    QRational,
    bhs,
    qpoch_finite,
    qpoch_infinite,
    qpoch_multi,
    theta_full,
    theta_partial,
)
from .sums import lam, omega, pmfamily, pmsum, qcap, ssum, thetak, tsum, usum, vsum
from .eliminator import (
    ExactCombination,
    PolynomialSystem,
    ThetaCombination,
    build_system,
    express_pm,
    gauss_solve,
)
from .dsl import evaluate, evaluate_value, parse, render
from .identities import IdentityDef, load_registry, parse_identities
from .verifier import (
    VerificationReport,
    report_to_dict,
    reports_to_json,
    sample_params,
    verify_all,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentSeries", "zero", "one", "monomial", "from_rational", "from_string",
    "add", "sub", "neg", "mul", "scale", "shift", "invert", "divide",
    "truncate", "pow_int", "eq_to_prec",
    "QMonomial", "QRational", "qpoch_finite", "qpoch_infinite", "qpoch_multi",
    "theta_partial", "theta_full", "bhs",
    "usum", "vsum", "qcap", "lam", "pmsum", "pmfamily", "ssum", "omega", "thetak", "tsum",
    "PolynomialSystem", "ExactCombination", "ThetaCombination", "build_system", "gauss_solve",
    "express_pm",
    "parse", "render", "evaluate", "evaluate_value",
    "IdentityDef", "parse_identities", "load_registry",
    "VerificationReport", "sample_params", "verify_identity", "verify_all",
    "report_to_dict", "reports_to_json",
    "QThetaError", "PrecisionError", "SeriesZeroDivision", "DomainError",
    "FormalDivergenceError", "DegenerateParameterError", "EliminationError",
    "ParseError", "SortError", "UnknownNameError", "EvalError",
    "BoundViolationError", "SamplingError", "RegistryError",
    "__version__",
]
