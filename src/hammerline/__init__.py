"""Weighted-space representation of functions on unbounded intervals,
Hammerstein integral operators, cone/index certification, and a Picard
solver cross-checked by an independent Runge-Kutta oracle.

Export rule: a name is exported when code outside the package has to write
it to construct, call or catch something. A type that only comes back from
a call, or is only handed back into one (a report, a record, a solution),
is reached through that call and stays in its module.
"""

from .errors import (BlowupError, DomainError, QuadratureError, ScenarioError,
                     TailLimitError)
from .compactline import (FULL_LINE, HALF_LINE, INF, CompactMap, Grid,
                          GridSpec, barycentric_interpolate, build_grid,
                          refining_tail_x)
from .weights import (TAGS, Weight, affine, check_weight, classify_asymptotic,
                      custom, exponential, power, tail_limit, tail_trend,
                      weights_equivalent)
from .weighted_space import (NORM_KINDS, Space, WeightedFunction,
                             asymptotic_limits, from_raw, from_tilde, lift,
                             norm, spaces_compatible)
from .quadrature import (DEFAULT_QUAD, QuadratureConfig, golden_section_max,
                         integrate_interval, sup_on_grid)
from .hammerstein import (FULL, VOLTERRA, HammersteinProblem, Kernel,
                          Nonlinearity, PROBLEM_BUILDERS,
                          apply_T, boosted_projectile_problem,
                          c3_bound_profile, dominator_check,
                          gravity_projectile_problem, kernel_limits,
                          kernel_modulus_check, register_problem,
                          second_order_ivp_kernel, slice_endpoint_values,
                          slice_tilde)
from .cone import (CertificateNotPassing, CertificateReport, ConeSystem,
                   FunctionalSpec, IndexCheck, IndexWindow, REPORT_SCHEMA,
                   bridge_b, bridge_c,
                   check_functional_properties, check_index_one,
                   check_index_zero, eval_functional, eval_functional_raw,
                   find_solution_windows, kernel_functional_integral,
                   locate_index_one_flip, report_from_json,
                   report_to_jsonable, verify_cone_hypotheses,
                   windows_to_jsonable)
from .solver import (anderson_solve, asymptotic_slope, compare_with_oracle,
                     escape_constants, gravity_energy_drift, ode_oracle,
                     picard_solve, residual_norm, solution_to_csv)
from .scenario import (SCENARIO_SCHEMA, Scenario, build_envelope, build_map,
                       build_problem, build_quad, build_space, build_system,
                       build_weight, load_scenario, rho_grid,
                       scenario_from_dict, scenario_to_jsonable)
from .cli import main, run_scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BlowupError", "DomainError", "QuadratureError", "ScenarioError",
    "TailLimitError",
    # compactified line
    "FULL_LINE", "HALF_LINE", "INF", "CompactMap", "Grid", "GridSpec",
    "barycentric_interpolate", "build_grid", "refining_tail_x",
    # weights
    "TAGS", "Weight", "affine", "check_weight", "classify_asymptotic",
    "custom", "exponential", "power", "tail_limit", "tail_trend",
    "weights_equivalent",
    # weighted space
    "NORM_KINDS", "Space", "WeightedFunction", "asymptotic_limits",
    "from_raw", "from_tilde", "lift", "norm", "spaces_compatible",
    # quadrature
    "DEFAULT_QUAD", "QuadratureConfig", "golden_section_max", "integrate_interval",
    "sup_on_grid",
    # operator
    "FULL", "VOLTERRA", "HammersteinProblem", "Kernel", "Nonlinearity",
    "PROBLEM_BUILDERS", "apply_T",
    "boosted_projectile_problem", "c3_bound_profile", "dominator_check",
    "gravity_projectile_problem", "kernel_limits", "kernel_modulus_check",
    "register_problem", "second_order_ivp_kernel", "slice_endpoint_values",
    "slice_tilde",
    # cone and index
    "CertificateNotPassing", "CertificateReport", "ConeSystem",
    "FunctionalSpec", "IndexCheck", "IndexWindow", "REPORT_SCHEMA",
    "bridge_b", "bridge_c",
    "check_functional_properties", "check_index_one", "check_index_zero",
    "eval_functional", "eval_functional_raw", "find_solution_windows",
    "kernel_functional_integral", "locate_index_one_flip", "report_from_json",
    "report_to_jsonable", "verify_cone_hypotheses", "windows_to_jsonable",
    # solver
    "anderson_solve", "asymptotic_slope", "compare_with_oracle",
    "escape_constants", "gravity_energy_drift", "ode_oracle", "picard_solve",
    "residual_norm", "solution_to_csv",
    # scenarios and CLI
    "SCENARIO_SCHEMA", "Scenario", "build_envelope", "build_map",
    "build_problem", "build_quad", "build_space", "build_system",
    "build_weight", "load_scenario", "main", "rho_grid", "run_scenario",
    "scenario_from_dict", "scenario_to_jsonable",
]
