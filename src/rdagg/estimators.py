"""Aggregated-discontinuity estimators.

Upper-level IV (outcome-level regression with the shift-share instrument and
aggregated controls), the lower-level stacking IV (fuzzy local-linear
regression on pooled close subunits with unit outcomes repeated), the
under-controlled benchmark, the sharp local-linear baseline, the spillover
variants, and the verifier for the exact upper/lower numerical equivalence.

Every stacked estimator reads the one stack of ``design.build_stack``: the
lower-level IV is the bilateral spillover IV on the partition graph, the
collapsed spillover IV groups the same stack by event, and the verifier
broadcasts unit-level residuals through its unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import (
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    AGG_RUNNING,
    AGG_RUNNING_POS,
    AGG_WEIGHT,
    build_stack,
    close_mask,
    cutoff_indicators,
    importance_values,
    kernel_weights,
    running_values,
    unit_exposures,
)
from .errors import ConfigurationError, EstimationError, IntegrityError
from .regress import (
    FirstStage,
    RegressionProblem,
    absorb_fixed_effects,
    fixed_effect_dof,
    residualize,
    tsls_fit,
    wls_fit,
)

TREATMENT = "treatment"
INSTRUMENT = "instrument"
INTERCEPT = "intercept"
RUNNING = "running"
RUNNING_POS = "running_pos"


@dataclass
class ReducedForm:
    coefficient: float
    robust_se: float


@dataclass
class EstimateResult:
    specification: str
    beta: float
    robust_se: float
    n_units: int
    n_stacked_rows: int
    first_stage: Optional[FirstStage]
    reduced_form: Optional[ReducedForm]
    control_coefficients: Dict[str, float]
    weak_instrument: bool = False
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "specification": self.specification,
            "beta": self.beta,
            "robust_se": self.robust_se,
            "n_units": self.n_units,
            "n_stacked_rows": self.n_stacked_rows,
            "first_stage": None
            if self.first_stage is None
            else {
                "coefficient": self.first_stage.coefficient,
                "robust_se": self.first_stage.robust_se,
                "partial_f": self.first_stage.partial_f,
            },
            "reduced_form": None
            if self.reduced_form is None
            else {
                "coefficient": self.reduced_form.coefficient,
                "robust_se": self.reduced_form.robust_se,
            },
            "control_coefficients": dict(sorted(self.control_coefficients.items())),
            "weak_instrument": self.weak_instrument,
            "notes": list(self.notes),
        }


@dataclass
class EquivalenceReport:
    beta_upper: float
    beta_lower_equivalent: float
    absolute_gap: float
    relative_gap: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "beta_upper": self.beta_upper,
            "beta_lower_equivalent": self.beta_lower_equivalent,
            "absolute_gap": self.absolute_gap,
            "relative_gap": self.relative_gap,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _sorted_units(units: Sequence[UnitRecord]) -> List[UnitRecord]:
    order = sorted(units, key=lambda u: u.unit_id)
    if len({u.unit_id for u in order}) != len(order):
        raise IntegrityError("duplicate unit ids")
    return order


def _extra_labels(units: Sequence[UnitRecord]) -> List[str]:
    labels = sorted({k for u in units for k in u.extra_controls})
    return labels


def _extra_matrix(units: Sequence[UnitRecord], labels: Sequence[str]) -> np.ndarray:
    out = np.empty((len(units), len(labels)))
    for i, u in enumerate(units):
        for j, lab in enumerate(labels):
            if lab not in u.extra_controls:
                raise ConfigurationError(f"unit '{u.unit_id}' is missing control '{lab}'")
            out[i, j] = float(u.extra_controls[lab])
    return out


def _fe_keys(units: Sequence[UnitRecord], dims: Sequence[str]) -> List[list]:
    out = []
    for dim in dims:
        keys = []
        for u in units:
            if dim not in u.fe_keys:
                raise ConfigurationError(f"unit '{u.unit_id}' is missing fe key '{dim}'")
            keys.append(u.fe_keys[dim])
        out.append(keys)
    return out


def _control_columns(config: DesignConfig, controls: np.ndarray):
    """Select aggregated-control columns per the configured control set."""
    if config.control_set == "all_three_rda":
        return [AGG_WEIGHT, AGG_RUNNING, AGG_RUNNING_POS], controls
    if config.control_set == "total_weight_only":
        return [AGG_WEIGHT], controls[:, :1]
    return [], controls[:, :0]


def _weak(fit, config: DesignConfig) -> bool:
    fs = fit.first_stage
    return bool(
        fs is not None
        and np.isfinite(fs.partial_f)
        and fs.partial_f < config.weak_f_threshold
    )


def _iv_estimate(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    control_cols: List[Tuple[str, np.ndarray]],
    weights: np.ndarray,
    fe_key_lists: List[list],
    config: DesignConfig,
    specification: str,
    n_units: int,
    n_stacked_rows: int,
    extra_notes: Optional[List[str]] = None,
) -> EstimateResult:
    """Shared 2SLS + reduced-form machinery on prepared columns.

    Fixed effects, when present, are absorbed from every column and counted
    as extra dropped degrees of freedom.
    """
    labels = [lab for lab, _ in control_cols]
    ctrl = (
        np.column_stack([col for _, col in control_cols])
        if control_cols
        else np.empty((len(y), 0))
    )
    extra_dof = 0
    if fe_key_lists:
        block = np.column_stack([y, x, z, ctrl])
        block = absorb_fixed_effects(
            block, fe_key_lists, weights, tol=config.fe_tol, max_iter=config.fe_max_iter
        )
        y, x, z = block[:, 0], block[:, 1], block[:, 2]
        ctrl = block[:, 3:]
        extra_dof = fixed_effect_dof(fe_key_lists)

    design = np.column_stack([x, ctrl])
    problem = RegressionProblem(
        response=y,
        regressors=design,
        labels=[TREATMENT] + labels,
        weights=weights,
        endogenous=[TREATMENT],
        instruments=z[:, None],
        instrument_labels=[INSTRUMENT],
    )
    fit = tsls_fit(problem, extra_dof=extra_dof, weak_f_threshold=config.weak_f_threshold)

    rf_problem = RegressionProblem(
        response=y,
        regressors=np.column_stack([z, ctrl]),
        labels=[INSTRUMENT] + labels,
        weights=weights,
    )
    rf = wls_fit(rf_problem, extra_dof=extra_dof)

    controls_out = {
        lab: val for lab, val in fit.coefficients.items() if lab != TREATMENT
    }
    notes = list(extra_notes or []) + fit.notes
    return EstimateResult(
        specification=specification,
        beta=fit.coefficients.get(TREATMENT, float("nan")),
        robust_se=fit.robust_se.get(TREATMENT, float("nan")),
        n_units=n_units,
        n_stacked_rows=n_stacked_rows,
        first_stage=fit.first_stage,
        reduced_form=ReducedForm(
            rf.coefficients.get(INSTRUMENT, float("nan")),
            rf.robust_se.get(INSTRUMENT, float("nan")),
        ),
        control_coefficients=controls_out,
        weak_instrument=_weak(fit, config),
        notes=notes,
    )


def _upper_columns(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    graph: Optional[SpilloverGraph],
):
    order = _sorted_units(units)
    exp = unit_exposures(order, subunits, config, graph=graph)
    y = np.array([u.outcome for u in order])
    w = np.array([u.analysis_weight for u in order])
    labels, ctrl = _control_columns(config, exp.controls)
    cols = [(lab, ctrl[:, j]) for j, lab in enumerate(labels)]
    extras = _extra_labels(order)
    if extras:
        mat = _extra_matrix(order, extras)
        cols += [(lab, mat[:, j]) for j, lab in enumerate(extras)]
    fe_lists = _fe_keys(order, config.fe_dimensions)
    if not fe_lists and config.include_intercept:
        cols.append((INTERCEPT, np.ones(len(order))))
    return order, exp, y, w, cols, fe_lists


def estimate_upper(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    graph: Optional[SpilloverGraph] = None,
    specification: Optional[str] = None,
) -> EstimateResult:
    """Outcome-level 2SLS: Y on the aggregated treatment, instrumented by the
    close-event shift-share, with the configured control set, extra unit
    controls, absorbed fixed effects, and analysis weights.

    Requires the uniform kernel (the instrument is a plain weighted sum). The
    reduced form (Y on the instrument and the same controls) is also fitted
    and reported.
    """
    if config.kernel != "uniform":
        raise ConfigurationError("upper-level estimation requires the uniform kernel")
    if (
        config.control_set == "none"
        and not config.include_intercept
        and not config.fe_dimensions
    ):
        raise ConfigurationError(
            "control_set='none' without an intercept leaves the estimator unidentified"
        )
    order, exp, y, w, cols, fe_lists = _upper_columns(units, subunits, config, graph)
    tag = specification or (
        ("spillover-upper:" if graph is not None else "upper:") + config.control_set
    )
    return _iv_estimate(
        y,
        exp.treatment,
        exp.instrument,
        cols,
        w,
        fe_lists,
        config,
        tag,
        n_units=len(order),
        n_stacked_rows=0,
    )


def _q_columns(r: np.ndarray, z: np.ndarray, with_intercept: bool):
    cols = []
    if with_intercept:
        cols.append((INTERCEPT, np.ones(len(r))))
    cols.append((RUNNING, r))
    cols.append((RUNNING_POS, r * z))
    return cols


def _estimate_stacked(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    graph: Optional[SpilloverGraph],
    specification: str,
) -> EstimateResult:
    """Stacking IV on the (unit, close event) rows of ``build_stack``.

    Each row repeats the unit's outcome and aggregate treatment; the event's
    cutoff indicator instruments the treatment; local-linear controls
    (intercept, running value, its above-cutoff interaction) plus the unit's
    extra controls and absorbed fixed effects enter as covariates. Row
    weights are importance times kernel weight, optionally times the unit's
    analysis weight.
    """
    order = _sorted_units(units)
    stack = build_stack(order, subunits, config, graph)
    rows = stack.unit_row
    if not rows.size:
        raise EstimationError(
            "empty stacked sample: no (unit, close event) pair passes the design"
        )
    weights = stack.importance * stack.kernel
    if config.lower_unit_weights:
        weights = weights * np.array([u.analysis_weight for u in order])[rows]
    fe_lists = [[keys[i] for i in rows] for keys in _fe_keys(order, config.fe_dimensions)]
    cols = _q_columns(stack.running, stack.instrument, with_intercept=not fe_lists)
    extras = _extra_labels(order)
    if extras:
        mat = _extra_matrix(order, extras)[rows]
        cols += [(lab, mat[:, j]) for j, lab in enumerate(extras)]
    return _iv_estimate(
        stack.outcome,
        stack.treatment,
        stack.instrument,
        cols,
        weights,
        fe_lists,
        config,
        specification,
        n_units=len(np.unique(rows)),
        n_stacked_rows=len(rows),
    )


def estimate_lower(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    specification: str = "lower",
) -> EstimateResult:
    """Stacking IV on the pooled close subunits, each paired with its own
    unit: the bilateral spillover IV on the partition graph."""
    return _estimate_stacked(units, subunits, config, None, specification)


def verify_equivalence(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    tolerance: float = 1e-8,
) -> EquivalenceReport:
    """Check the exact numerical equivalence of the two estimators.

    Path A is the upper-level IV with the full aggregated controls. Path B
    residualizes outcome and treatment on those controls (plus extra controls
    and fixed effects) at the unit level under analysis weights, broadcasts
    the residualized values onto the close-subunit stack, and runs the
    subunit-level IV with local-linear controls, weighted by importance times
    the unit's analysis weight. The two coefficients agree up to floating
    point; the report carries the gap.
    """
    if config.kernel != "uniform":
        raise ConfigurationError("the equivalence holds under the uniform kernel only")
    if config.control_set != "all_three_rda":
        raise ConfigurationError(
            "the equivalence requires the full aggregated control set"
        )
    upper = estimate_upper(units, subunits, config)

    order, exp, y, w, cols, fe_lists = _upper_columns(units, subunits, config, None)
    x = exp.treatment
    ctrl = (
        np.column_stack([col for _, col in cols]) if cols else np.empty((len(order), 0))
    )
    if fe_lists:
        block = np.column_stack([y, x, ctrl])
        block = absorb_fixed_effects(
            block, fe_lists, w, tol=config.fe_tol, max_iter=config.fe_max_iter
        )
        y, x, ctrl = block[:, 0], block[:, 1], block[:, 2:]
    if ctrl.shape[1]:
        res = residualize(np.column_stack([y, x]), ctrl, w)
        y_res, x_res = res[:, 0], res[:, 1]
    else:
        y_res, x_res = y, x

    stack = build_stack(order, subunits, config)
    rows = stack.unit_row
    if not rows.size:
        raise EstimationError("empty stacked sample: no close subunits pass the design")
    fit = _iv_estimate(
        y_res[rows],
        x_res[rows],
        stack.instrument,
        _q_columns(stack.running, stack.instrument, with_intercept=True),
        stack.importance * w[rows],
        [],
        config,
        "lower-equivalent",
        n_units=len(np.unique(rows)),
        n_stacked_rows=len(rows),
    )
    beta_a, beta_b = upper.beta, fit.beta
    absolute = abs(beta_a - beta_b)
    relative = absolute / max(1.0, abs(beta_a))
    return EquivalenceReport(
        beta_upper=beta_a,
        beta_lower_equivalent=beta_b,
        absolute_gap=absolute,
        relative_gap=relative,
        tolerance=tolerance,
        passed=bool(relative <= tolerance),
    )


CROSSING = "crossing"


def estimate_sharp_rd(
    subunits: Sequence[SubunitRecord],
    outcomes: Dict[str, float],
    config: DesignConfig,
) -> EstimateResult:
    """Local-linear cutoff regression when each subunit carries its own outcome.

    WLS of the outcome on (crossing indicator, intercept, running value, its
    above-cutoff interaction) within the band, weighted by importance times
    kernel weight. Requires at least 4 observations on each side.
    """
    r_all = running_values(subunits)
    idx = np.array(
        sorted(np.flatnonzero(close_mask(subunits, r_all, config)),
               key=lambda i: subunits[i].subunit_id),
        dtype=np.intp,
    )
    missing = [subunits[i].subunit_id for i in idx if subunits[i].subunit_id not in outcomes]
    if missing:
        raise ConfigurationError(f"missing outcomes for subunits: {missing[:5]}")
    r = r_all[idx]
    z = cutoff_indicators(r, config.cutoff_rule)
    n_right = int(z.sum())
    n_left = len(idx) - n_right
    if n_left < 4 or n_right < 4:
        raise EstimationError(
            f"need at least 4 observations on each side of the cutoff "
            f"(got {n_left} below, {n_right} above)"
        )
    y = np.array([outcomes[subunits[i].subunit_id] for i in idx])
    weights = importance_values(subunits)[idx] * kernel_weights(r, config)
    design = np.column_stack([z, np.ones(len(idx)), r, r * z])
    fit = wls_fit(
        RegressionProblem(
            response=y,
            regressors=design,
            labels=[CROSSING, INTERCEPT, RUNNING, RUNNING_POS],
            weights=weights,
        )
    )
    return EstimateResult(
        specification="sharp_rd",
        beta=fit.coefficients.get(CROSSING, float("nan")),
        robust_se=fit.robust_se.get(CROSSING, float("nan")),
        n_units=len(idx),
        n_stacked_rows=len(idx),
        first_stage=None,
        reduced_form=None,
        control_coefficients={
            lab: val for lab, val in fit.coefficients.items() if lab != CROSSING
        },
        notes=fit.notes,
    )


def estimate_spillover_bilateral(
    graph: SpilloverGraph,
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    specification: str = "spillover-bilateral",
) -> EstimateResult:
    """Stacking IV on (outcome unit, close intervention subunit) pairs.

    The unit's exposure aggregates over all its edges; a pair exists for each
    close linked subunit. Same mechanics as the lower-level estimator, which
    is this estimator on the partition graph.
    """
    return _estimate_stacked(units, subunits, config, graph, specification)


def estimate_spillover_collapsed(
    graph: SpilloverGraph,
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
) -> EstimateResult:
    """IV on intervention-level collapsed records.

    Outcomes and treatments are averaged over each close subunit's linked
    units and weighted by importance times neighbor count. Extra unit
    controls have no intervention-level counterpart and are ignored (noted).
    Equals the bilateral estimate when no extra controls are present.
    """
    stack = build_stack(units, subunits, config, graph)
    events, first, group, counts = np.unique(
        stack.event, return_index=True, return_inverse=True, return_counts=True
    )
    if not events.size:
        raise EstimationError("no collapsed records: no close linked subunits")
    notes = []
    dropped = stack.n_close_events - events.size
    if dropped:
        notes.append(f"dropped {dropped} close subunits with no linked units")
    if _extra_labels(units):
        notes.append("extra unit controls are ignored in the collapsed specification")
    r, z = stack.running[first], stack.instrument[first]
    weights = stack.importance[first] * counts * stack.kernel[first]
    return _iv_estimate(
        np.bincount(group, weights=stack.outcome) / counts,
        np.bincount(group, weights=stack.treatment) / counts,
        z,
        _q_columns(r, z, with_intercept=True),
        weights,
        [],
        config,
        "spillover-collapsed",
        n_units=len(events),
        n_stacked_rows=len(events),
        extra_notes=notes,
    )


def estimate_spillover_upper(
    graph: SpilloverGraph,
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
) -> EstimateResult:
    """Upper-level IV with exposures aggregated over the spillover graph."""
    return estimate_upper(units, subunits, config, graph=graph)


@dataclass
class LateGapRow:
    bandwidth: float
    beta_upper: float
    sim_se_upper: float
    beta_lower: float
    sim_se_lower: float
    beta0: float
    oracle_se: float
    gap_upper: float
    gap_lower: float


def late_gap_check(
    spec,
    h_grid: Sequence[float],
    n_replications: int = 12,
    seed: int = 0,
    oracle=None,
) -> List[LateGapRow]:
    """Compare both estimators against the cutoff-slice estimand per bandwidth.

    For each bandwidth, averages the upper- and lower-level estimates over
    replicated draws from ``spec`` (common datasets across bandwidths) and
    reports the gaps to the oracle value of the limiting estimand. Used to
    confirm that gaps shrink as the bandwidth shrinks.
    """
    from . import simlab

    if oracle is None:
        oracle = simlab.estimand_oracle(spec, seed=seed)
    datasets = [
        simlab.generate_dgp(spec, replication_index=rep)[:2]
        for rep in range(n_replications)
    ]
    rows: List[LateGapRow] = []
    for h in h_grid:
        cfg = simlab.mc_design_config(h, "all_three_rda")
        upper_vals, lower_vals = [], []
        for units, subs in datasets:
            upper_vals.append(estimate_upper(units, subs, cfg).beta)
            lower_vals.append(estimate_lower(units, subs, cfg).beta)
        bu = np.array(upper_vals)
        bl = np.array(lower_vals)
        se_u = float(bu.std(ddof=1) / np.sqrt(len(bu))) if len(bu) > 1 else float("nan")
        se_l = float(bl.std(ddof=1) / np.sqrt(len(bl))) if len(bl) > 1 else float("nan")
        rows.append(
            LateGapRow(
                bandwidth=float(h),
                beta_upper=float(bu.mean()),
                sim_se_upper=se_u,
                beta_lower=float(bl.mean()),
                sim_se_lower=se_l,
                beta0=oracle.beta0,
                oracle_se=oracle.se,
                gap_upper=float(abs(bu.mean() - oracle.beta0)),
                gap_lower=float(abs(bl.mean() - oracle.beta0)),
            )
        )
    return rows
