"""Aggregated regression-discontinuity estimation: designs where a unit's
treatment averages many cutoff events, with upper-level shift-share IV and
lower-level stacking estimators, spillover variants, diagnostics, and a
Monte Carlo laboratory.
"""

__version__ = "0.1.0"

from .design import (
    AttributeFilter,
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    build_stack,
    parse_filter,
    partition_graph,
    unit_exposures,
)
from .diagnostics import (
    BalanceReport,
    CounterfactualPath,
    RdPlotData,
    VarianceDecomposition,
    balance_test,
    counterfactual_path,
    rd_plot_data,
    variance_decomposition,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    EstimationError,
    IntegrityError,
    RdaError,
    SchemaError,
)
from .estimators import (
    EquivalenceReport,
    EstimateResult,
    estimate_lower,
    estimate_sharp_rd,
    estimate_spillover_bilateral,
    estimate_spillover_collapsed,
    estimate_spillover_upper,
    estimate_upper,
    late_gap_check,
    verify_equivalence,
)
from .io import InputBundle, load_bundle, write_bundle
from .regress import (
    FirstStage,
    FitResult,
    RegressionProblem,
    absorb_fixed_effects,
    hc1_cov,
    residualize,
    tsls_fit,
    wls_fit,
)
from .simlab import (
    DgpSpec,
    DgpTruth,
    McSummary,
    OracleEstimand,
    bootstrap_median_ci,
    estimand_oracle,
    generate_dgp,
    run_monte_carlo,
)
