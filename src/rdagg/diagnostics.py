"""Application-layer analytics: balance tests, plot data, variance splits,
counterfactual paths.

The balance test and the plot points read the same ``design.Design`` as the
estimators; everything here emits plain data (bin tables, coefficient
pairs, report objects) for external tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import Design, DesignConfig, Stack, _codes, cutoff_indicators, design_exposures
from .errors import ConfigurationError, EstimationError
from .estimators import INTERCEPT, _control_columns
from .regress import RegressionProblem, wls_fit

# scipy.stats.norm.ppf(0.975) to the bit, written out so that importing this
# module does not import scipy (statistics.NormalDist differs in the last digit)
Z_CRITICAL_5PCT = 1.959963984540054


@dataclass
class CovariateRow:
    coefficient: float
    robust_se: float
    significant: bool


@dataclass
class BalanceReport:
    covariates: Dict[str, CovariateRow]
    n_significant: int
    partial_r2: float
    partial_f: float
    partial_f_pvalue: float
    control_set: str
    n_obs: int
    n_dropped: int
    dropped_columns: List[str] = field(default_factory=list)


def balance(
    design: Design,
    config: DesignConfig,
    target: str = "instrument",
    covariates: Optional[Sequence[str]] = None,
    classical_f: bool = False,
) -> BalanceReport:
    """Regress the treatment or the instrument on unit covariates.

    Analysis-weighted WLS of the target on the covariates (by default every
    extra control), the configured aggregated controls, and an intercept.
    Units missing any requested covariate are dropped (count reported), with
    their subunits. Subunits of no unit raise IntegrityError, as in every
    estimator on the partition graph. The partial R^2 is the share
    of the controls-only residual sum of squares explained by adding the
    covariates; the partial F is the robust Wald statistic for their joint
    nullity divided by their count, with a chi-square tail p-value
    (``classical_f=True`` switches to the RSS-based F with an F tail).
    """
    if target not in ("treatment", "instrument"):
        raise ConfigurationError("target must be 'treatment' or 'instrument'")
    covariates = list(design.units.controls if covariates is None else covariates)
    if not covariates:
        raise ConfigurationError("no covariates to test")
    design.require_owners()

    missing = np.full(len(design.units), np.nan)
    cov_mat = np.column_stack([design.units.controls.get(lab, missing) for lab in covariates])
    complete = np.isfinite(cov_mat).all(axis=1)
    n_keep = int(complete.sum())
    n_dropped = len(design.units) - n_keep
    if n_keep < len(covariates) + 2:
        raise EstimationError("too few complete observations for the balance test")

    design = Design.assemble(design.units.take(np.flatnonzero(complete)),
                             design.events.take(np.flatnonzero(complete[design.event_unit])))
    exp = design_exposures(design, config)
    y = exp.treatment if target == "treatment" else exp.instrument
    w = design.units.weight
    cov_mat = cov_mat[complete]
    ctrl_labels, ctrl = _control_columns(config, exp.controls)
    ones = np.ones(n_keep)

    full = wls_fit(RegressionProblem(y, np.column_stack([cov_mat, ctrl, ones]),
                                     covariates + ctrl_labels + [INTERCEPT], w))
    controls_only = wls_fit(RegressionProblem(y, np.column_stack([ctrl, ones]),
                                              ctrl_labels + [INTERCEPT], w))
    rss_restricted = controls_only.weighted_rss
    partial_r2 = (
        (rss_restricted - full.weighted_rss) / rss_restricted if rss_restricted > 0 else 0.0
    )

    kept_covs = [lab for lab in covariates if lab in full.kept_labels]
    k = len(kept_covs)
    if k == 0:
        partial_f = 0.0
        pvalue = 1.0
    elif classical_f:
        partial_f = ((rss_restricted - full.weighted_rss) / k) / (
            full.weighted_rss / full.dof
        )
        from scipy import stats

        pvalue = float(stats.f.sf(partial_f, k, full.dof))
    else:
        idx = [full.kept_labels.index(lab) for lab in kept_covs]
        b = np.array([full.coefficients[lab] for lab in kept_covs])
        V = full.robust_cov[np.ix_(idx, idx)]
        try:
            wald = float(b @ np.linalg.solve(V, b))
        except np.linalg.LinAlgError:
            wald = float(b @ np.linalg.pinv(V) @ b)
        partial_f = wald / k
        from scipy import stats

        pvalue = float(stats.chi2.sf(wald, k))

    rows: Dict[str, CovariateRow] = {}
    n_significant = 0
    for lab in covariates:
        coef = full.coefficients.get(lab, float("nan"))
        se = full.robust_se.get(lab, float("nan"))
        sig = bool(np.isfinite(coef) and np.isfinite(se) and se > 0 and abs(coef / se) > Z_CRITICAL_5PCT)
        n_significant += int(sig)
        rows[lab] = CovariateRow(coefficient=coef, robust_se=se, significant=sig)
    return BalanceReport(
        covariates=rows,
        n_significant=n_significant,
        partial_r2=float(partial_r2),
        partial_f=float(partial_f),
        partial_f_pvalue=pvalue,
        control_set=config.control_set,
        n_obs=full.n_obs,
        n_dropped=n_dropped,
        dropped_columns=[lab for lab in full.dropped_columns if lab in covariates],
    )


@dataclass
class RdPlotBin:
    side: str  # "left" or "right"
    running: float
    value: float
    weight: float
    n_obs: int


@dataclass
class RdPlotData:
    bins: List[RdPlotBin]
    left_line: Tuple[float, float]  # intercept, slope at r < 0
    right_line: Tuple[float, float]  # intercept, slope at r >= 0
    jump: float
    notices: List[str] = field(default_factory=list)


def points_from_stack(
    stack: Stack, design: Design, value: str = "outcome"
) -> List[Tuple[float, float, float, str]]:
    """(running, value, weight, id) tuples from the rows of a stack built
    from ``design``.

    ``value`` picks the plotted column: 'outcome', 'treatment', or
    'instrument'. Row weight is importance times kernel weight.
    """
    columns = {"outcome": stack.outcome, "treatment": stack.treatment,
               "instrument": stack.instrument}
    if value not in columns:
        raise ConfigurationError("value must be outcome, treatment, or instrument")
    return list(zip(
        stack.running.tolist(),
        columns[value].tolist(),
        (stack.importance * stack.kernel).tolist(),
        [design.events.ids[j] for j in stack.event.tolist()],
    ))


def _greedy_bins(order: np.ndarray, weights: np.ndarray, n_bins: int) -> np.ndarray:
    """Assign sorted points to bins, cutting at cumulative-weight targets."""
    total = float(weights[order].sum())
    target = total / n_bins
    assignment = np.empty(len(order), dtype=np.intp)
    cum = 0.0
    b = 0
    for pos, idx in enumerate(order):
        assignment[pos] = b
        cum += float(weights[idx])
        if b < n_bins - 1 and cum >= (b + 1) * target:
            b += 1
    return assignment


def rd_plot_data(
    points: Sequence,
    n_bins_per_side: int = 20,
    cutoff_rule: str = "geq",
) -> RdPlotData:
    """Weight-balanced binned means plus local-linear lines on each side.

    ``points`` holds (running, value, weight) or (running, value, weight, id)
    tuples. Per side, points are sorted by running value (ties by id) and
    grouped into contiguous bins with near-equal weight sums; each bin
    reports its weight-averaged running value and outcome. If a side has
    fewer points than bins, that side's bin count shrinks (with a notice).
    A point heavier than a bin's share of the weight fills more than one
    bin's target, which can leave later bins empty; those are omitted, with
    a notice.
    """
    if n_bins_per_side < 1:
        raise ConfigurationError("n_bins_per_side must be positive")
    points = list(points)
    if not points:
        raise EstimationError("no points to bin")
    r, v, w = (np.array([float(p[k]) for p in points]) for k in range(3))
    ids = [str(p[3]) if len(p) > 3 else "" for p in points]
    z = cutoff_indicators(r, cutoff_rule)
    right = z > 0.0
    if not right.any() or right.all():
        raise EstimationError("need observations on both sides of the cutoff")

    notices: List[str] = []
    bins: List[RdPlotBin] = []
    for side, mask in (("left", ~right), ("right", right)):
        idx = np.flatnonzero(mask)
        order = idx[np.lexsort(([ids[i] for i in idx], r[idx]))]
        n_bins = min(n_bins_per_side, len(order))
        if n_bins < n_bins_per_side:
            notices.append(
                f"{side} side has {len(order)} observations; using {n_bins} bins"
            )
        assignment = _greedy_bins(order, w, n_bins)
        filled = np.unique(assignment)
        if filled.size < n_bins:
            notices.append(
                f"{side} side: {filled.size} of {n_bins} bins have observations; "
                f"empty bins omitted"
            )
        for b in filled:
            members = order[assignment == b]
            ww = w[members]
            wsum = float(ww.sum())
            r_mean = float((r[members] * ww).sum() / wsum) if wsum > 0 else float(r[members].mean())
            v_mean = float((v[members] * ww).sum() / wsum) if wsum > 0 else float(v[members].mean())
            bins.append(RdPlotBin(side, r_mean, v_mean, wsum, len(members)))

    fit = wls_fit(
        RegressionProblem(
            response=v,
            regressors=np.column_stack([np.ones(len(r)), r, r * z, z]),
            labels=[INTERCEPT, "running", "running_pos", "crossing"],
            weights=w,
        )
    )
    b0 = fit.coefficients.get(INTERCEPT, float("nan"))
    b_r = fit.coefficients.get("running", float("nan"))
    b_rp = fit.coefficients.get("running_pos", 0.0)
    b_z = fit.coefficients.get("crossing", float("nan"))
    if not np.isfinite(b_rp):
        b_rp = 0.0
    return RdPlotData(
        bins=bins,
        left_line=(b0, b_r),
        right_line=(b0 + b_z, b_r + b_rp),
        jump=b_z,
        notices=notices,
    )


@dataclass
class VarianceDecomposition:
    total: float
    within: float
    between: float


def variance_decomposition(records: Sequence[Tuple]) -> VarianceDecomposition:
    """Split the weighted variance of micro records into cell components.

    ``records`` holds (cell_key, value, weight) triples. Within is the
    weighted mean of within-cell variances, between the weighted variance of
    cell means; the two add up to the total exactly (population weighting,
    no small-sample correction).
    """
    if not records:
        raise ConfigurationError("variance_decomposition requires at least one record")
    cells = [str(c) for c, _, _ in records]
    v = np.array([float(x) for _, x, _ in records])
    w = np.array([float(x) for _, _, x in records])
    if np.any(w < 0):
        raise ConfigurationError("weights must be nonnegative")
    total_w = float(w.sum())
    if total_w <= 0:
        raise ConfigurationError("total weight must be positive")
    grand = float((v * w).sum() / total_w)
    total = float((w * (v - grand) ** 2).sum() / total_w)

    codes, keys = _codes(cells)
    wsum = np.bincount(codes, weights=w, minlength=len(keys))
    vsum = np.bincount(codes, weights=w * v, minlength=len(keys))
    means = vsum / np.where(wsum > 0, wsum, 1.0)
    within = float((w * (v - means[codes]) ** 2).sum() / total_w)
    between = float((wsum * (means - grand) ** 2).sum() / total_w)
    return VarianceDecomposition(total=total, within=within, between=between)


@dataclass
class CounterfactualPath:
    actual: List[float]
    counterfactual: List[float]
    ci_lo: List[float]
    ci_hi: List[float]
    cumulative_shortfall: List[float]
    beta: float
    beta_ci: Tuple[float, float]
    contribution: Optional[float]
    contribution_ci: Optional[Tuple[float, float]]
    notes: List[str] = field(default_factory=list)


def counterfactual_path(
    actual: Sequence[float],
    shortfall: Sequence[float],
    beta: float,
    beta_ci: Tuple[float, float],
    cumulative: bool = True,
) -> CounterfactualPath:
    """Actual series plus effect times cumulative treatment shortfall.

    CF_t = actual_t + beta * cumulative_shortfall_t, an exact identity.
    Interval endpoints re-run the identity at the interval endpoints of beta.
    The headline share is one minus the counterfactual change divided by the
    actual change over the full series; a zero actual change leaves it
    undefined (reported as None with a note).
    """
    a = np.array([float(x) for x in actual])
    s = np.array([float(x) for x in shortfall])
    if a.shape != s.shape:
        raise ConfigurationError("actual and shortfall series must have equal length")
    if a.size == 0:
        raise ConfigurationError("empty series")
    cum = s if cumulative else np.cumsum(s)
    cf = a + beta * cum
    lo_path = a + beta_ci[0] * cum
    hi_path = a + beta_ci[1] * cum
    ci_lo = np.minimum(lo_path, hi_path)
    ci_hi = np.maximum(lo_path, hi_path)

    notes: List[str] = []
    actual_change = a[-1] - a[0]
    if actual_change == 0:
        contribution = None
        contribution_ci = None
        notes.append("actual change over the series is zero; contribution undefined")
    else:
        contribution = float(1.0 - (cf[-1] - a[0]) / actual_change)
        ends = [
            1.0 - (lo_path[-1] - a[0]) / actual_change,
            1.0 - (hi_path[-1] - a[0]) / actual_change,
        ]
        contribution_ci = (float(min(ends)), float(max(ends)))
    return CounterfactualPath(
        actual=a.tolist(),
        counterfactual=cf.tolist(),
        ci_lo=ci_lo.tolist(),
        ci_hi=ci_hi.tolist(),
        cumulative_shortfall=cum.tolist(),
        beta=float(beta),
        beta_ci=(float(beta_ci[0]), float(beta_ci[1])),
        contribution=contribution,
        contribution_ci=contribution_ci,
        notes=notes,
    )
