"""Deterministic weighted linear-regression engine.

Everything estimated in this package reduces to the primitives here: weighted
least squares, just-identified two-stage least squares, weighted
residualization (partialling out), fixed-effect sweeps by bincount, and the
HC1 sandwich covariance. All routines are pure functions of their inputs and
produce identical output for identical inputs in identical column order.

Conventions
-----------
- Weights are analytic: the fit minimizes sum_i w_i (y_i - x_i'b)^2, the
  robust score is w_i * e_i * x_i, and the bread is (sum_i w_i x_i x_i')^-1.
  Rescaling all weights by a positive constant changes neither coefficients
  nor HC1 standard errors.
- Collinear columns are dropped in column order: column k is dropped when its
  residual norm, after projecting out previously kept columns in the weighted
  metric, falls below PIVOT_RTOL times the largest weighted column norm.
- 2SLS is restricted to just-identified systems: exactly one instrument per
  endogenous column, exogenous regressors present in both stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError

PIVOT_RTOL = 1e-10
FE_TOL = 1e-10
FE_MAX_ITER = 10_000
WEAK_F_THRESHOLD = 10.0


@dataclass
class RegressionProblem:
    """One weighted regression: response, labeled regressors, weights.

    For 2SLS, ``endogenous`` names the regressor columns to be instrumented
    and ``instruments`` supplies one column per endogenous label (in the same
    order). Exogenous columns serve as their own instruments.
    """

    response: np.ndarray
    regressors: np.ndarray
    labels: Sequence[str]
    weights: np.ndarray
    endogenous: Sequence[str] = ()
    instruments: Optional[np.ndarray] = None
    instrument_labels: Sequence[str] = ()


@dataclass
class FirstStage:
    """Instrument coefficient, its robust SE, and the robust partial F."""

    coefficient: float
    robust_se: float
    partial_f: float


@dataclass
class FitResult:
    coefficients: dict
    robust_se: dict
    robust_cov: np.ndarray
    kept_labels: list
    n_obs: int
    dof: int
    residuals: np.ndarray
    dropped_columns: list
    weighted_rss: float
    first_stage: Optional[FirstStage] = None
    notes: list = field(default_factory=list)

    def coefficient(self, label: str) -> float:
        return self.coefficients[label]

    def se(self, label: str) -> float:
        return self.robust_se[label]


def _as_vector(a, name: str) -> np.ndarray:
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ConfigurationError(f"{name} must be two-dimensional, got shape {m.shape}")
    return m


def _check_weights(w: np.ndarray, n: int) -> np.ndarray:
    w = _as_vector(w, "weights")
    if w.shape[0] != n:
        raise ConfigurationError(f"weights length {w.shape[0]} does not match sample size {n}")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("weights must be finite")
    if np.any(w < 0):
        raise ConfigurationError("weights must be nonnegative")
    if not np.any(w > 0):
        raise ConfigurationError("all weights are zero")
    return w


def _validate(problem: RegressionProblem):
    y = _as_vector(problem.response, "response")
    n = y.shape[0]
    if n == 0:
        raise ConfigurationError("empty sample: response has zero length")
    X = _as_matrix(problem.regressors, "regressors")
    if X.shape[0] != n:
        raise ConfigurationError(
            f"response length {n} does not match regressor rows {X.shape[0]}"
        )
    labels = list(problem.labels)
    if len(labels) != X.shape[1]:
        raise ConfigurationError(
            f"{len(labels)} labels for {X.shape[1]} regressor columns"
        )
    if len(set(labels)) != len(labels):
        raise ConfigurationError("regressor labels must be unique")
    w = _check_weights(problem.weights, n)
    return y, X, labels, w


def _screen_columns(xw: np.ndarray) -> list:
    """Rank screen in column order on the weighted design.

    Returns indices of kept columns. Column k's pivot is the norm of its
    residual after projecting out previously kept columns (projection applied
    twice for numerical stability); it is dropped when the pivot falls below
    PIVOT_RTOL times the largest weighted column norm.
    """
    p = xw.shape[1]
    if p == 0:
        return []
    norms = np.sqrt(np.einsum("ij,ij->j", xw, xw))
    scale = float(norms.max(initial=0.0))
    if scale <= 0.0:
        return []
    threshold = PIVOT_RTOL * scale
    kept: list = []
    basis: list = []
    for k in range(p):
        v = xw[:, k].copy()
        for q in basis:
            v -= (q @ v) * q
        for q in basis:
            v -= (q @ v) * q
        pivot = float(np.sqrt(v @ v))
        if pivot > threshold:
            kept.append(k)
            basis.append(v / pivot)
    return kept


def hc1_cov(
    regressors: np.ndarray,
    residuals: np.ndarray,
    weights: np.ndarray,
    extra_dof: int = 0,
):
    """HC1 sandwich covariance for a completed weighted fit.

    V = (X'WX)^-1 [ n/(n-p) * sum_i (w_i e_i x_i)(w_i e_i x_i)' ] (X'WX)^-1

    where n counts rows with positive weight and p counts columns plus
    ``extra_dof`` (absorbed fixed effects). Raises when n - p <= 0.
    """
    X = _as_matrix(regressors, "regressors")
    e = _as_vector(residuals, "residuals")
    w = _check_weights(weights, X.shape[0])
    n_obs = int(np.count_nonzero(w > 0))
    p = X.shape[1] + int(extra_dof)
    dof = n_obs - p
    if dof <= 0:
        raise ConfigurationError(
            f"nonpositive degrees of freedom: {n_obs} observations, {p} parameters"
        )
    bread = (X * w[:, None]).T @ X
    score = X * (w * e)[:, None]
    meat = score.T @ score * (n_obs / dof)
    bread_inv = np.linalg.solve(bread, np.eye(bread.shape[0]))
    cov = bread_inv @ meat @ bread_inv
    return np.sqrt(np.clip(np.diag(cov), 0.0, None)), cov


def _fit_core(y, X, labels, w, extra_dof: int, design_for_se=None) -> FitResult:
    """Shared WLS machinery.

    ``design_for_se``: matrix used for the sandwich bread/score (the fitted
    second-stage design in 2SLS); residuals are always computed against the
    columns of ``X`` itself.
    """
    sw = np.sqrt(w)
    Xw = X * sw[:, None]
    kept = _screen_columns(Xw)
    if not kept:
        raise ConfigurationError("design matrix has no usable columns after rank screening")
    kept_set = set(kept)
    dropped = [labels[j] for j in range(X.shape[1]) if j not in kept_set]
    b, *_ = np.linalg.lstsq(Xw[:, kept], y * sw, rcond=None)
    residuals = y - X[:, kept] @ b
    n_obs = int(np.count_nonzero(w > 0))
    dof = n_obs - len(kept) - int(extra_dof)
    weighted_rss = float(w @ (residuals * residuals))
    kept_labels = [labels[j] for j in kept]

    se_design = X[:, kept] if design_for_se is None else design_for_se[:, kept]
    notes: list = []
    if dof > 0:
        se_vals, cov = hc1_cov(se_design, residuals, w, extra_dof=extra_dof)
    else:
        se_vals = np.full(len(kept), np.nan)
        cov = np.full((len(kept), len(kept)), np.nan)
        notes.append(f"no residual degrees of freedom (n={n_obs}, p={len(kept)}): SEs not available")

    coefficients = {lab: float(val) for lab, val in zip(kept_labels, b)}
    robust_se = {lab: float(val) for lab, val in zip(kept_labels, se_vals)}
    for lab in dropped:
        coefficients[lab] = float("nan")
        robust_se[lab] = float("nan")
    return FitResult(
        coefficients=coefficients,
        robust_se=robust_se,
        robust_cov=cov,
        kept_labels=kept_labels,
        n_obs=n_obs,
        dof=dof,
        residuals=residuals,
        dropped_columns=dropped,
        weighted_rss=weighted_rss,
        notes=notes,
    )


def wls_fit(problem: RegressionProblem, extra_dof: int = 0) -> FitResult:
    """Weighted least squares with rank screening and HC1 standard errors."""
    if problem.instruments is not None or problem.endogenous:
        raise ConfigurationError("wls_fit takes no instruments; use tsls_fit")
    y, X, labels, w = _validate(problem)
    return _fit_core(y, X, labels, w, extra_dof)


def tsls_fit(
    problem: RegressionProblem,
    extra_dof: int = 0,
    weak_f_threshold: float = WEAK_F_THRESHOLD,
) -> FitResult:
    """Just-identified two-stage least squares.

    Each endogenous column is replaced by its first-stage fit on
    [instruments + exogenous regressors]; the second stage is a WLS fit on
    that design. Robust SEs use second-stage residuals evaluated at the
    original endogenous values with the fitted design in the sandwich.

    A first-stage partial F below ``weak_f_threshold`` adds a warning note;
    a vanished first stage leaves the endogenous coefficient non-finite
    (with a note) rather than raising.
    """
    y, X, labels, w = _validate(problem)
    endo = list(problem.endogenous)
    if not endo:
        raise ConfigurationError("tsls_fit requires at least one endogenous column")
    missing = [lab for lab in endo if lab not in labels]
    if missing:
        raise ConfigurationError(f"endogenous labels not among regressors: {missing}")
    if problem.instruments is None:
        raise ConfigurationError("tsls_fit requires instruments")
    Z = _as_matrix(problem.instruments, "instruments")
    if Z.shape[0] != y.shape[0]:
        raise ConfigurationError("instrument rows do not match sample size")
    if Z.shape[1] != len(endo):
        raise ConfigurationError(
            f"just-identified 2SLS needs one instrument per endogenous column: "
            f"{Z.shape[1]} instruments for {len(endo)} endogenous"
        )
    iv_labels = list(problem.instrument_labels) or [f"instrument_{i}" for i in range(Z.shape[1])]
    if len(iv_labels) != Z.shape[1]:
        raise ConfigurationError("instrument_labels length does not match instrument count")

    endo_idx = [labels.index(lab) for lab in endo]
    exog_idx = [j for j in range(X.shape[1]) if j not in set(endo_idx)]
    fs_design = np.column_stack([Z, X[:, exog_idx]]) if exog_idx else Z.copy()
    fs_labels = iv_labels + [labels[j] for j in exog_idx]

    # Identification requires the instruments to retain variation after
    # partialling out the exogenous block; otherwise the residualized
    # instrument is zero and the IV ratio is 0/0.
    sw = np.sqrt(w)
    if exog_idx:
        z_resid = residualize(Z, X[:, exog_idx], w)
    else:
        z_resid = Z
    dead_instrument = [
        float(np.linalg.norm(sw * z_resid[:, i]))
        <= PIVOT_RTOL * max(float(np.linalg.norm(sw * Z[:, i])), 1.0)
        for i in range(Z.shape[1])
    ]

    X_hat = X.copy()
    first_stage = None
    notes: list = []
    failed_endo: list = []
    for pos, j in enumerate(endo_idx):
        fs = _fit_core(X[:, j], fs_design, fs_labels, w, extra_dof)
        fitted = X[:, j] - fs.residuals
        X_hat[:, j] = fitted
        pi = fs.coefficients.get(iv_labels[pos], float("nan"))
        if (
            dead_instrument[pos]
            or iv_labels[pos] in fs.dropped_columns
            or pi == 0.0
            or not np.isfinite(pi)
        ):
            failed_endo.append(labels[j])
        if pos == 0:
            if dead_instrument[0]:
                first_stage = FirstStage(float("nan"), float("nan"), float("nan"))
                notes.append(
                    f"instrument '{iv_labels[0]}' has no variation beyond the exogenous "
                    f"controls: first stage vanished"
                )
            else:
                pi_se = fs.robust_se.get(iv_labels[0], float("nan"))
                partial_f = (
                    (pi / pi_se) ** 2 if np.isfinite(pi) and pi_se > 0 else float("nan")
                )
                first_stage = FirstStage(pi, pi_se, float(partial_f))
                if np.isfinite(partial_f) and partial_f < weak_f_threshold:
                    notes.append(
                        f"weak instrument: first-stage partial F {partial_f:.3g} "
                        f"below {weak_f_threshold:g}"
                    )

    result = _fit_core(y, X_hat, labels, w, extra_dof, design_for_se=X_hat)
    # Structural residuals at the original endogenous values.
    kept_idx = [labels.index(lab) for lab in result.kept_labels]
    b = np.array([result.coefficients[lab] for lab in result.kept_labels])
    residuals = y - X[:, kept_idx] @ b
    if result.dof > 0:
        se_vals, cov = hc1_cov(X_hat[:, kept_idx], residuals, w, extra_dof=extra_dof)
        result.robust_se = {lab: float(v) for lab, v in zip(result.kept_labels, se_vals)}
        for lab in result.dropped_columns:
            result.robust_se[lab] = float("nan")
        result.robust_cov = cov
    result.residuals = residuals
    result.weighted_rss = float(w @ (residuals * residuals))
    for lab in endo:
        if lab in result.dropped_columns:
            notes.append(f"endogenous column '{lab}' has no instrumented variation: estimate non-finite")
    for lab in failed_endo:
        result.coefficients[lab] = float("nan")
        result.robust_se[lab] = float("nan")
        notes.append(f"zero first stage for '{lab}': estimate non-finite")
    result.first_stage = first_stage
    result.notes = notes + result.notes
    return result


def residualize(columns, on, weights) -> np.ndarray:
    """Remove the weighted projection of ``columns`` onto ``on``.

    Output columns are weight-orthogonal to every kept column of ``on``.
    A one-dimensional input comes back one-dimensional.
    """
    C = np.asarray(columns, dtype=np.float64)
    squeeze = C.ndim == 1
    C = _as_matrix(C, "columns")
    O = _as_matrix(on, "on")
    if O.shape[0] != C.shape[0]:
        raise ConfigurationError("columns and on must have the same number of rows")
    w = _check_weights(weights, C.shape[0])
    sw = np.sqrt(w)
    Ow = O * sw[:, None]
    kept = _screen_columns(Ow)
    if kept:
        B, *_ = np.linalg.lstsq(Ow[:, kept], C * sw[:, None], rcond=None)
        out = C - O[:, kept] @ B
    else:
        out = C.copy()
    return out[:, 0] if squeeze else out


def _factorize(keys) -> tuple:
    index: dict = {}
    codes = np.empty(len(keys), dtype=np.intp)
    for i, k in enumerate(keys):
        codes[i] = index.setdefault(k, len(index))
    return codes, len(index)


def _key_dimensions(fe_keys) -> list:
    """Normalize ``fe_keys`` to a list of per-dimension key sequences.

    A single flat sequence of hashable keys is one dimension; a list whose
    every element is itself a sequence (list/tuple/ndarray) is one sequence
    per dimension. Composite keys must be pre-joined (e.g. "CA|1980").
    """
    if isinstance(fe_keys, (list, tuple)) and fe_keys and all(
        isinstance(k, (list, tuple, np.ndarray)) for k in fe_keys
    ):
        return list(fe_keys)
    return [fe_keys]


def absorb_fixed_effects(
    columns,
    fe_keys,
    weights,
    tol: float = FE_TOL,
    max_iter: int = FE_MAX_ITER,
) -> np.ndarray:
    """Sweep out fixed effects by alternating weighted within-group demeaning.

    ``fe_keys`` is one key sequence or a list of them (one per dimension).
    Iterates until the largest absolute weighted group mean across all
    dimensions and columns is at most ``tol``; a single dimension converges
    in one pass. Raises ConvergenceError (carrying the attained criterion)
    if ``max_iter`` sweeps do not suffice, and ConfigurationError on a
    non-finite column, whose NaN group means would pass the stopping check.

    Each group-mean pass is one ``np.bincount`` over the cell index
    ``code * k + column``, adding each cell's terms in row order. A sweep
    reuses the convergence check's means of the first dimension.
    """
    C = np.asarray(columns, dtype=np.float64)
    squeeze = C.ndim == 1
    out = _as_matrix(C, "columns").copy()
    if not np.all(np.isfinite(out)):
        raise ConfigurationError("columns to absorb fixed effects from must be finite")
    n, k = out.shape
    dims = [list(keys) for keys in _key_dimensions(fe_keys)]
    for keys in dims:
        if len(keys) != n:
            raise ConfigurationError(
                f"fixed-effect key length {len(keys)} does not match {n} rows"
            )
    w = _check_weights(weights, n)
    cells = []
    for keys in dims:
        codes, n_groups = _factorize(keys)
        wsum = np.bincount(codes, weights=w, minlength=n_groups)
        flat = (codes[:, None] * k + np.arange(k)).ravel()
        cells.append((codes, flat, np.where(wsum > 0, wsum, 1.0)[:, None]))
    weighted, gathered = np.empty_like(out), np.empty_like(out)

    def group_means(flat, divisor) -> np.ndarray:
        np.multiply(out, w[:, None], out=weighted)
        sums = np.bincount(flat, weights=weighted.ravel(), minlength=divisor.size * k)
        return sums.reshape(divisor.size, k) / divisor

    def criterion():
        means = [group_means(flat, divisor) for _, flat, divisor in cells]
        return max(0.0, *(float(np.abs(m).max(initial=0.0)) for m in means)), means[0]

    attained, means = criterion()
    for _ in range(max_iter):
        if attained <= tol:
            break
        for d, (codes, flat, divisor) in enumerate(cells):
            if d:
                means = group_means(flat, divisor)
            out -= np.take(means, codes, axis=0, out=gathered)
        attained, means = criterion()
    if attained > tol:
        raise ConvergenceError(
            f"fixed-effect absorption did not converge in {max_iter} sweeps "
            f"(attained {attained:.3e}, tol {tol:.3e})",
            attained=attained,
        )
    return out[:, 0] if squeeze else out


def fixed_effect_dof(fe_keys) -> int:
    """Parameters implicitly spent by absorbed fixed effects.

    One dimension spends its group count. Two spend G1 + G2 - C, the rank
    of their dummy matrix, where C counts the connected components of the
    graph linking groups that share a row (Abowd, Creecy & Kramarz 2002).
    Three or more keep the usual convention, all groups of the first
    dimension and groups-minus-one of each further one, which ignores
    disconnected components.
    """
    coded = [_factorize(list(keys)) for keys in _key_dimensions(fe_keys)]
    if len(coded) != 2:
        return sum(g if d == 0 else max(g - 1, 0) for d, (_, g) in enumerate(coded))
    (codes1, g1), (codes2, g2) = coded
    pairs = np.unique(codes1 * g2 + codes2)
    parent = list(range(g1 + g2))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        return a

    for a, b in zip((pairs // g2).tolist(), (g1 + pairs % g2).tolist()):
        parent[root(a)] = root(b)
    return g1 + g2 - sum(parent[v] == v for v in range(g1 + g2))
