"""Aggregated-discontinuity estimators.

Upper-level IV (outcome-level regression with the shift-share instrument and
aggregated controls), the lower-level stacking IV (fuzzy local-linear
regression on pooled close subunits with unit outcomes repeated), the
under-controlled benchmark, the sharp local-linear baseline, the spillover
variants, and the verifier for the exact upper/lower numerical equivalence.

Each estimator has one implementation, on a ``design.Design``: ``upper_iv``,
``stacked_iv``, ``collapsed_iv``, ``sharp_rd`` and ``equivalence``. Two
record forms remain, ``estimate_spillover_upper`` and
``estimate_spillover_bilateral``: each builds a design from records and a
graph and calls ``upper_iv`` or ``stacked_iv`` with ``spillover=True``.

Every stacked estimator reads the one stack of ``design.design_stack``: the
lower-level IV is the bilateral spillover IV on the partition graph, the
collapsed spillover IV is the bilateral fit on the same rows with its
scores summed by event, and the verifier broadcasts unit-level residuals
through its unit rows.

Every fit reads the one local-linear basis q(r, z) that ``design`` declares:
``upper_iv`` controls for the aggregated columns its control set keeps
(``design.control_columns``), and the stacked fits, the verifier's lower
path and ``sharp_rd`` for q(r, z) on their rows
(``design.local_linear_basis``). No estimator writes the basis out itself.

Every ``EstimateResult`` carries one ``Inference`` block: the SE type
(``"hc1"``, or ``"cluster-hc1"`` for the collapsed fit, whose scores are
summed by event), the cluster count, and the 95% Wald interval.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import (
    Design,
    DesignConfig,
    SpilloverGraph,
    Stack,
    SubunitRecord,
    UnitExposures,
    UnitRecord,
    BASIS_LABELS,
    CROSSING,
    INTERCEPT,
    close_mask,
    control_columns,
    cutoff_indicators,
    design_exposures,
    design_stack,
    kernel_weights,
    local_linear_basis,
)
from .errors import ConfigurationError, EstimationError
from .regress import (
    Z_CRITICAL_5PCT,
    FirstStage,
    ReducedForm,
    absorb_cells,
    fe_cells,
    iv_fit,
    residualize,
    wls_fit,
)

@dataclass
class Inference:
    """How a result's SE was computed, and its 95% Wald interval.

    ``se_type`` is ``"hc1"`` when every row is its own cluster and
    ``"cluster-hc1"`` when the scores are summed by cluster, over
    ``n_clusters`` clusters (None for rows). ``wald_ci`` is beta -/+
    Z_CRITICAL_5PCT times the SE, NaN where either is.
    """

    se_type: str
    n_clusters: Optional[int]
    wald_ci: Tuple[float, float]


def _inference(beta: float, se: float, n_clusters: Optional[int]) -> Inference:
    half = Z_CRITICAL_5PCT * se
    return Inference("hc1" if n_clusters is None else "cluster-hc1", n_clusters,
                     (beta - half, beta + half))


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
    inference: Inference
    weak_instrument: bool = False
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["control_coefficients"] = dict(sorted(self.control_coefficients.items()))
        return out


@dataclass
class EquivalenceReport:
    beta_upper: float
    beta_lower_equivalent: float
    absolute_gap: float
    relative_gap: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def _extra_columns(design: Design) -> List[Tuple[str, np.ndarray]]:
    """The extra unit controls; every unit must have every one of them."""
    columns = list(design.units.controls.items())
    if columns:
        missing = np.argwhere(np.isnan(np.column_stack([col for _, col in columns])))
        if missing.size:
            i, j = missing[0]
            raise ConfigurationError(
                f"unit '{design.units.ids[i]}' is missing control '{columns[j][0]}'"
            )
    return columns


def _fe_cells(design: Design, dims: Sequence[str],
              rows: Optional[np.ndarray] = None) -> Optional[tuple]:
    """The fixed-effect cells of a fit on the units, or on the stacked rows
    ``rows`` (``regress.fe_cells``), coded from ``Design.fe_codes``; None
    without dimensions. Every unit must have every key."""
    if not dims:
        return None
    codes = []
    for dim in dims:
        codes.append(design.fe_codes.get(dim, np.full(len(design.units), -1)))
        missing = np.flatnonzero(codes[-1] < 0)
        if missing.size:
            raise ConfigurationError(
                f"unit '{design.units.ids[missing[0]]}' is missing fe key '{dim}'"
            )
    return fe_cells(codes, rows)


def _absorb(y: np.ndarray, x: np.ndarray, z: np.ndarray,
            control_cols: List[Tuple[str, np.ndarray]], weights: np.ndarray,
            cells: Optional[tuple], config: DesignConfig):
    """y, x, z and the controls with the fixed effects of ``cells``, if any,
    absorbed from all of them as one block, and the degrees of freedom they
    spend."""
    if cells is None:
        return y, x, z, control_cols, 0
    block, dof = absorb_cells(
        np.column_stack([y, x, z] + [col for _, col in control_cols]), cells, weights,
        tol=config.fe_tol, max_iter=config.fe_max_iter,
    )
    controls = [(lab, block[:, 3 + j]) for j, (lab, _) in enumerate(control_cols)]
    return (*block[:, :3].T, controls, dof)


def _iv_estimate(y: np.ndarray, x: np.ndarray, z: np.ndarray,
                 control_cols: List[Tuple[str, np.ndarray]], weights: np.ndarray,
                 cells: Optional[tuple], config: DesignConfig, specification: str,
                 n_units: int, n_stacked_rows: int,
                 extra_notes: Optional[List[str]] = None,
                 clusters: Optional[np.ndarray] = None) -> EstimateResult:
    """The IV kernel on prepared columns.

    Fixed effects, when present, are absorbed from every column and counted
    as extra dropped degrees of freedom.
    """
    *columns, extra_dof = _absorb(y, x, z, control_cols, weights, cells, config)
    fit = iv_fit(*columns, weights, extra_dof, config.weak_f_threshold, clusters)
    return EstimateResult(
        specification=specification,
        beta=fit.beta,
        robust_se=fit.robust_se,
        n_units=n_units,
        n_stacked_rows=n_stacked_rows,
        first_stage=fit.first_stage,
        reduced_form=fit.reduced_form,
        control_coefficients=fit.control_coefficients,
        inference=_inference(fit.beta, fit.robust_se, fit.n_clusters),
        weak_instrument=fit.weak_instrument,
        notes=list(extra_notes or []) + fit.notes,
    )


def _upper_columns(design: Design, exp: UnitExposures, config: DesignConfig):
    """Outcome, weights, controls and fixed-effect cells of the unit-level IV."""
    cols = control_columns(config.control_set, exp.controls) + _extra_columns(design)
    fe = _fe_cells(design, config.fe_dimensions)
    if fe is None and config.include_intercept:
        cols.append((INTERCEPT, np.ones(len(design.units))))
    return design.units.outcome, design.units.weight, cols, fe


def upper_iv(design: Design, config: DesignConfig, spillover: bool = False,
             specification: Optional[str] = None, stack: Optional[Stack] = None
             ) -> EstimateResult:
    """Outcome-level 2SLS: Y on the aggregated treatment, instrumented by the
    close-event shift-share, with the configured control set, extra unit
    controls, absorbed fixed effects, and analysis weights. With
    ``spillover`` the exposures follow the design's graph.

    Requires the uniform kernel (the instrument is a plain weighted sum). The
    reduced form (Y on the instrument and the same controls) is also fitted
    and reported. Given a ``stack`` of ``design_stack(design, config,
    spillover)``, the fit reads its exposures instead of building them; a
    stack of another design, flag or sample raises ConfigurationError.
    """
    if config.kernel != "uniform":
        raise ConfigurationError("upper-level estimation requires the uniform kernel")
    if config.control_set == "none" and not config.include_intercept and not config.fe_dimensions:
        raise ConfigurationError(
            "control_set='none' without an intercept leaves the estimator unidentified")
    exp = (design_exposures(design, config, spillover) if stack is None
           else stack.reuse(design, config, spillover).exposures)
    y, w, cols, fe = _upper_columns(design, exp, config)
    tag = specification or ("spillover-upper:" if spillover else "upper:") + config.control_set
    return _iv_estimate(
        y, exp.treatment, exp.instrument, cols, w, fe, config, tag,
        n_units=len(design.units), n_stacked_rows=0,
    )


def stacked_iv(design: Design, config: DesignConfig, spillover: bool = False,
               stack: Optional[Stack] = None) -> EstimateResult:
    """Stacking IV on the (unit, close event) rows of ``design_stack``: the
    lower-level IV, or with ``spillover`` the bilateral IV on the design's
    graph.

    Each row repeats the unit's outcome and aggregate treatment; the event's
    cutoff indicator instruments the treatment; local-linear controls
    (intercept, running value, its above-cutoff interaction) plus the unit's
    extra controls and absorbed fixed effects enter as covariates. Row
    weights are importance times kernel weight, optionally times the unit's
    analysis weight. A ``stack`` given is used in place of
    ``design_stack(design, config, spillover)``, which it must be (see
    ``Stack.reuse``).
    """
    stack = (design_stack(design, config, spillover) if stack is None
             else stack.reuse(design, config, spillover))
    rows = stack.unit_row
    if not rows.size:
        raise EstimationError(
            "empty stacked sample: no (unit, close event) pair passes the design")
    weights = stack.importance * stack.kernel
    if config.lower_unit_weights:
        weights = weights * design.units.weight[rows]
    fe = _fe_cells(design, config.fe_dimensions, rows)
    cols = [*zip(BASIS_LABELS, local_linear_basis(stack.running, stack.instrument))]
    if fe is not None:
        del cols[0]  # the fixed effects absorb the intercept
    cols += [(lab, col[rows]) for lab, col in _extra_columns(design)]
    return _iv_estimate(
        stack.outcome, stack.treatment, stack.instrument, cols, weights, fe, config,
        "spillover-bilateral" if spillover else "lower",
        n_units=int(np.count_nonzero(np.bincount(rows))), n_stacked_rows=len(rows),
    )


def equivalence(design: Design, config: DesignConfig,
                tolerance: float = 1e-8) -> EquivalenceReport:
    """Check the exact numerical equivalence of the two estimators.

    Fixed effects, if any, are absorbed once from the unit-level outcome,
    treatment, instrument and controls, and both paths read that block.
    Path A is the upper-level IV with the full aggregated controls. Path B
    residualizes outcome and treatment on those controls (plus extra
    controls) at the unit level under analysis weights, broadcasts
    the residualized values onto the close-subunit stack, and runs the
    subunit-level IV with local-linear controls, weighted by importance times
    the unit's analysis weight. The two coefficients agree up to floating
    point; the report carries the gap.
    """
    if config.kernel != "uniform":
        raise ConfigurationError("the equivalence holds under the uniform kernel only")
    if config.control_set != "all_three_rda":
        raise ConfigurationError("the equivalence requires the full aggregated control set")
    stack = design_stack(design, config)
    exp = stack.exposures
    y, w, cols, fe = _upper_columns(design, exp, config)
    y, x, z, cols, extra_dof = _absorb(y, exp.treatment, exp.instrument, cols, w, fe, config)
    beta_a = iv_fit(y, x, z, cols, w, extra_dof, config.weak_f_threshold).beta
    y_res, x_res = residualize(
        np.column_stack([y, x]), np.column_stack([col for _, col in cols]), w).T

    rows = stack.unit_row
    if not rows.size:
        raise EstimationError("empty stacked sample: no close subunits pass the design")
    beta_b = _iv_estimate(
        y_res[rows], x_res[rows], stack.instrument,
        [*zip(BASIS_LABELS, local_linear_basis(stack.running, stack.instrument))],
        stack.importance * w[rows], None, config, "lower-equivalent",
        n_units=int(np.count_nonzero(np.bincount(rows))), n_stacked_rows=len(rows),
    ).beta
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


def sharp_rd(design: Design, outcome: np.ndarray, config: DesignConfig) -> EstimateResult:
    """Local-linear cutoff regression when each subunit carries its own outcome.

    ``outcome`` holds one value per event, NaN where an event has none. WLS
    of the outcome on (crossing indicator, intercept, running value, its
    above-cutoff interaction) over the close events in subunit-id order,
    weighted by importance times kernel weight. Every close event needs an
    outcome, and each side of the cutoff at least 4 observations.
    """
    idx = np.flatnonzero(close_mask(design, config))
    idx = idx[np.argsort(design.event_rank[idx], kind="stable")]
    missing = [design.events.ids[i] for i in idx[np.isnan(outcome[idx])].tolist()]
    if missing:
        raise ConfigurationError(f"missing outcomes for subunits: {missing[:5]}")
    r = design.events.running[idx]
    z = cutoff_indicators(r, config.cutoff_rule)
    n_right = int(z.sum())
    n_left = len(idx) - n_right
    if n_left < 4 or n_right < 4:
        raise EstimationError(
            f"need at least 4 observations on each side of the cutoff "
            f"(got {n_left} below, {n_right} above)"
        )
    weights = design.events.importance[idx] * kernel_weights(r, config)
    fit = wls_fit(outcome[idx], np.column_stack([z, *local_linear_basis(r, z)]),
                  [CROSSING, *BASIS_LABELS], weights)
    beta = fit.coefficients.get(CROSSING, float("nan"))
    se = fit.robust_se.get(CROSSING, float("nan"))
    return EstimateResult(
        specification="sharp_rd",
        beta=beta,
        robust_se=se,
        n_units=len(idx),
        n_stacked_rows=len(idx),
        first_stage=None,
        reduced_form=None,
        control_coefficients={
            lab: val for lab, val in fit.coefficients.items() if lab != CROSSING
        },
        inference=_inference(beta, se, None),
        notes=fit.notes,
    )


def collapsed_iv(design: Design, config: DesignConfig) -> EstimateResult:
    """Intervention-level IV over the design's graph: the bilateral fit on
    the rows of ``design_stack(design, config, spillover=True)``, without
    extra unit controls or unit weights, with its scores summed by event.

    These are the normal equations and the HC1 of the regression on linked
    close events, each with the mean outcome and treatment of its units and
    weight importance times neighbor count times kernel weight (the
    shock-level regression of Borusyak, Hull & Jaravel 2022). Extra unit
    controls and ``lower_unit_weights`` have no event-level counterpart and
    are ignored (noted), so without them the beta is the bilateral one.
    Fixed effects have none either, and ``fe_dimensions`` raises
    ConfigurationError.
    """
    if config.fe_dimensions:
        raise ConfigurationError("the collapsed specification does not absorb fixed effects")
    stack = design_stack(design, config, spillover=True)
    n_events = int(np.count_nonzero(np.bincount(stack.event)))
    if not n_events:
        raise EstimationError("no collapsed records: no close linked subunits")
    notes = []
    dropped = stack.n_close_events - n_events
    if dropped:
        notes.append(f"dropped {dropped} close subunits with no linked units")
    if design.units.controls:
        notes.append("extra unit controls are ignored in the collapsed specification")
    if config.lower_unit_weights:
        notes.append("unit weights are ignored in the collapsed specification")
    return _iv_estimate(
        stack.outcome, stack.treatment, stack.instrument,
        [*zip(BASIS_LABELS, local_linear_basis(stack.running, stack.instrument))],
        stack.importance * stack.kernel, None, config, "spillover-collapsed",
        n_units=n_events, n_stacked_rows=n_events, extra_notes=notes, clusters=stack.event,
    )


def estimate_spillover_upper(graph: SpilloverGraph, units: Sequence[UnitRecord],
                             subunits: Sequence[SubunitRecord],
                             config: DesignConfig) -> EstimateResult:
    """``upper_iv`` on records over ``graph``."""
    return upper_iv(Design.from_records(units, subunits, graph), config, True)


def estimate_spillover_bilateral(graph: SpilloverGraph, units: Sequence[UnitRecord],
                                 subunits: Sequence[SubunitRecord],
                                 config: DesignConfig) -> EstimateResult:
    """``stacked_iv`` on records over ``graph``."""
    return stacked_iv(Design.from_records(units, subunits, graph), config, True)
