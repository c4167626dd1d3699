"""Deterministic weighted linear-regression engine.

Everything estimated in this package reduces to the primitives here: weighted
least squares, the instrumental-variable kernel, weighted residualization
(partialling out), fixed-effect absorption, and the HC1 sandwich
covariance. All routines are pure functions of their inputs and produce
identical output for identical inputs in identical column order.

Conventions
-----------
- Weights are analytic: the fit minimizes sum_i w_i (y_i - x_i'b)^2, the
  robust score is w_i * e_i * x_i, and the bread is (sum_i w_i x_i x_i')^-1.
  Rescaling all weights by a positive constant changes neither coefficients
  nor HC1 standard errors.
- Collinear columns are dropped in column order: column k is dropped when its
  residual norm, after projecting out previously kept columns in the weighted
  metric, is at most PIVOT_RTOL times its own weighted norm. Kept columns are
  solved at unit weighted norm, so neither the rank decision nor the solve
  depends on the units a column is measured in.
- Every estimator is a just-identified IV with one endogenous column.
  ``iv_fit`` screens the controls once, partials outcome, treatment and
  instrument out of the kept ones with one solve, and reads every IV number
  off the partialled columns in closed form (Frisch-Waugh-Lovell).
- Fixed effects are absorbed before the fit. One dimension is one exact
  demeaning pass; two or more are one Jacobi-preconditioned conjugate-
  gradient solve of the dummy normal equations for all columns at once,
  stopped when every column's largest weighted group mean of the residual
  is at most ``tol`` times the column's weighted RMS, so the rule does not
  depend on the units of a column. The solve runs over cells (distinct
  combinations of keys across the dimensions) from their weight sums and
  weighted column sums, which is all the equations read of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, ConvergenceError

PIVOT_RTOL = 1e-10
FE_TOL = 1e-10
FE_MAX_ITER = 10_000
WEAK_F_THRESHOLD = 10.0


@dataclass
class RegressionProblem:
    """One weighted least-squares problem: response, labeled regressors, weights."""

    response: np.ndarray
    regressors: np.ndarray
    labels: Sequence[str]
    weights: np.ndarray


@dataclass
class FirstStage:
    """Instrument coefficient, its robust SE, and the robust partial F."""

    coefficient: float
    robust_se: float
    partial_f: float


@dataclass
class ReducedForm:
    """Instrument coefficient in the outcome equation and its robust SE."""

    coefficient: float
    robust_se: float


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
    notes: list = field(default_factory=list)


@dataclass
class IvFit:
    """One just-identified IV fit with a single endogenous column.

    ``control_coefficients`` holds every control label, NaN for a dropped
    control; ``notes`` explain every non-finite number.
    """

    beta: float
    robust_se: float
    first_stage: FirstStage
    reduced_form: ReducedForm
    control_coefficients: dict
    dropped_columns: list
    weak_instrument: bool
    notes: list


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


def _screen_columns(xw: np.ndarray):
    """Rank screen in column order on the weighted design.

    Returns the indices of kept columns and their weighted norms. Column k's
    pivot is the norm of its residual after projecting out previously kept
    columns (projection applied twice for numerical stability); it is dropped
    when the pivot is at most PIVOT_RTOL times the column's own norm.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", xw, xw))
    kept: list = []
    basis: list = []
    for k in range(xw.shape[1]):
        v = xw[:, k].copy()
        for q in basis:
            v -= (q @ v) * q
        for q in basis:
            v -= (q @ v) * q
        pivot = float(np.sqrt(v @ v))
        if pivot > PIVOT_RTOL * norms[k]:
            kept.append(k)
            basis.append(v / pivot)
    return kept, norms[kept]


def _partial(columns: np.ndarray, on: np.ndarray, w: np.ndarray):
    """Screen ``on`` and partial every column of ``columns`` out of its kept
    columns with one weighted least-squares solve.

    Returns the kept indices, the coefficients (one row per kept column) and
    the residuals. The solve runs on the kept columns scaled to unit
    weighted norm; the coefficients are scaled back.
    """
    sw = np.sqrt(w)
    ow = on * sw[:, None]
    kept, norms = _screen_columns(ow)
    if not kept:
        return kept, np.empty((0, columns.shape[1])), columns.copy()
    B, *_ = np.linalg.lstsq(ow[:, kept] / norms, columns * sw[:, None], rcond=None)
    B /= norms[:, None]
    return kept, B, columns - on[:, kept] @ B


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


def _no_dof_note(n_obs: int, p: int) -> str:
    return f"no residual degrees of freedom (n={n_obs}, p={p}): SEs not available"


def wls_fit(problem: RegressionProblem, extra_dof: int = 0) -> FitResult:
    """Weighted least squares with rank screening and HC1 standard errors."""
    y, X, labels, w = _validate(problem)
    kept, B, e = _partial(y[:, None], X, w)
    if not kept:
        raise ConfigurationError("design matrix has no usable columns after rank screening")
    b, residuals = B[:, 0], e[:, 0]
    kept_set = set(kept)
    dropped = [labels[j] for j in range(X.shape[1]) if j not in kept_set]
    n_obs = int(np.count_nonzero(w > 0))
    dof = n_obs - len(kept) - int(extra_dof)
    kept_labels = [labels[j] for j in kept]

    notes: list = []
    if dof > 0:
        se_vals, cov = hc1_cov(X[:, kept], residuals, w, extra_dof=extra_dof)
    else:
        se_vals = np.full(len(kept), np.nan)
        cov = np.full((len(kept), len(kept)), np.nan)
        notes.append(_no_dof_note(n_obs, len(kept)))

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
        weighted_rss=float(w @ (residuals * residuals)),
        notes=notes,
    )


def iv_fit(
    y,
    x,
    z,
    controls: Sequence[Tuple[str, np.ndarray]],
    weights,
    extra_dof: int = 0,
    weak_f_threshold: float = WEAK_F_THRESHOLD,
) -> IvFit:
    """Just-identified IV of ``y`` on the treatment ``x``, instrumented by ``z``.

    ``controls`` is a sequence of (label, column) pairs. They are screened
    once, and y, x and z are partialled out of the kept ones with one solve.
    With the partialled columns y~, x~, z~, the weighted inner product
    <a, b> = sum_i w_i a_i b_i, n rows of positive weight, p = 1 + kept
    controls and HC1 factor c = n / (n - p - extra_dof), Frisch-Waugh-Lovell
    gives in closed form:

    - beta = <z~, y~> / <z~, x~> with robust SE
      sqrt(c sum_i (w_i e_i z~_i)^2) / |<z~, x~>|, e = y~ - beta x~, which is
      the treatment entry of the second-stage HC1 sandwich;
    - the first-stage coefficient <z~, x~> / <z~, z~>, its HC1 SE and the
      partial F (coefficient / SE)^2;
    - the reduced-form coefficient <z~, y~> / <z~, z~> and its HC1 SE;
    - the control coefficients B_y - beta B_x from the partialling solve.

    An instrument or a treatment with no variation beyond the controls (its
    partialled norm at most PIVOT_RTOL times its own) or an exactly zero
    first stage leaves beta non-finite, with a note. With n - p - extra_dof
    <= 0 every SE is NaN, with a note. A partial F below ``weak_f_threshold``
    flags a weak instrument, with a note.
    """
    y = _as_vector(y, "response")
    n = y.shape[0]
    if n == 0:
        raise ConfigurationError("empty sample: response has zero length")
    x, z = _as_vector(x, "treatment"), _as_vector(z, "instrument")
    labels = [lab for lab, _ in controls]
    if len(set(labels)) != len(labels):
        raise ConfigurationError("control labels must be unique")
    C = _as_matrix(np.column_stack([col for _, col in controls]) if labels
                   else np.empty((n, 0)), "controls")
    if not x.shape[0] == z.shape[0] == C.shape[0] == n:
        raise ConfigurationError(
            f"response length {n} does not match treatment, instrument or control rows"
        )
    w = _check_weights(weights, n)
    kept, B, partialled = _partial(np.column_stack([y, x, z]), C, w)
    yt, xt, zt = partialled.T
    n_obs = int(np.count_nonzero(w > 0))
    p = 1 + len(kept)
    dof = n_obs - p - int(extra_dof)
    wz = w * zt
    szz, szx, szy = float(wz @ zt), float(wz @ xt), float(wz @ yt)
    nan = float("nan")

    def robust_se(residuals: np.ndarray, denominator: float) -> float:
        # HC1 entry of a coefficient whose FWL weights are w z~ / denominator
        if dof <= 0:
            return nan
        return float(np.sqrt(n_obs / dof * np.sum((wz * residuals) ** 2)) / abs(denominator))

    notes: list = []
    beta = se = nan
    if np.sqrt(szz) <= PIVOT_RTOL * np.sqrt(w @ (z * z)):
        first_stage, reduced_form = FirstStage(nan, nan, nan), ReducedForm(nan, nan)
        notes.append(
            "instrument has no variation beyond the controls: first stage vanished, "
            "estimate non-finite"
        )
    else:
        pi, rf = szx / szz, szy / szz
        pi_se = robust_se(xt - pi * zt, szz)
        first_stage = FirstStage(pi, pi_se, (pi / pi_se) ** 2 if pi_se > 0 else nan)
        reduced_form = ReducedForm(rf, robust_se(yt - rf * zt, szz))
        if first_stage.partial_f < weak_f_threshold:
            notes.append(
                f"weak instrument: first-stage partial F {first_stage.partial_f:.3g} "
                f"below {weak_f_threshold:g}"
            )
        if np.sqrt(w @ (xt * xt)) <= PIVOT_RTOL * np.sqrt(w @ (x * x)):
            notes.append("treatment has no variation beyond the controls: estimate non-finite")
        elif szx == 0.0:
            notes.append("zero first stage: estimate non-finite")
        else:
            beta = szy / szx
            se = robust_se(yt - beta * xt, szx)
    if dof <= 0:
        notes.append(_no_dof_note(n_obs, p))
    coefficients = dict.fromkeys(labels, nan)
    for j, value in zip(kept, B[:, 0] - beta * B[:, 1]):
        coefficients[labels[j]] = float(value)
    return IvFit(
        beta=beta,
        robust_se=se,
        first_stage=first_stage,
        reduced_form=reduced_form,
        control_coefficients=coefficients,
        dropped_columns=[lab for j, lab in enumerate(labels) if j not in kept],
        weak_instrument=bool(first_stage.partial_f < weak_f_threshold),
        notes=notes,
    )


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
    out = _partial(C, O, _check_weights(weights, C.shape[0]))[2]
    return out[:, 0] if squeeze else out


def _factorize(keys) -> tuple:
    """Integer group codes of one key array, and the number of groups."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ConfigurationError(
            f"fixed-effect keys must be one-dimensional, got shape {keys.shape}"
        )
    groups, codes = np.unique(keys, return_inverse=True)
    return codes.astype(np.intp, copy=False), groups.size


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


def _cells(coded) -> tuple:
    """The cell of every row and the first row of every cell.

    A cell is one combination of group codes across all dimensions; cells
    are numbered in the sorted order of their codes. Each chained code is
    below (cells so far) * (groups of the next dimension), at most n * g, so
    it cannot overflow.
    """
    cell = coded[0][0]
    for codes, n_groups in coded[1:]:
        _, first, cell = np.unique(cell * n_groups + codes, return_index=True,
                                   return_inverse=True)
    return cell, first


def _flat_index(codes: np.ndarray, k: int) -> np.ndarray:
    """``code * k + column`` for every entry of an (len(codes), k) block."""
    return (codes[:, None] * k + np.arange(k)).ravel()


def absorb_fixed_effects(
    columns,
    fe_keys,
    weights,
    tol: float = FE_TOL,
    max_iter: int = FE_MAX_ITER,
) -> np.ndarray:
    """Remove the weighted projection of ``columns`` onto fixed-effect dummies.

    ``fe_keys`` is one key sequence or a list of them (one per dimension).
    A single dimension is one exact pass: subtract each row's weighted group
    mean. Two or more dimensions solve the normal equations
    D'WD a = D'W y for every column at once by conjugate gradients with a
    Jacobi preconditioner (1 / group weight sum, 0 for an empty group), and
    return y - D a (Correia 2017, reghdfe; Gaure 2013, lfe). The
    preconditioned residual is the weighted group means of y - D a, and a
    column has converged when the largest of them is at most ``tol`` times
    the column's weighted RMS before absorption, a rule that does not depend
    on the column's scale. Raises ConvergenceError (carrying the largest
    attained ratio) if ``max_iter`` iterations do not suffice, and
    ConfigurationError on a non-finite column.

    The solve runs over cells, not rows. A cell is one combination of keys
    across the dimensions, and every row of a cell has the same dummies, so
    the normal equations depend on the rows only through each cell's weight
    sum and weighted column sums. The solve uses D_c'W_cD_c and D_c'(sum w y)
    over the cells, and rows come back once as y - D a. Group sums are
    ``np.bincount`` calls over the index ``code * k + column``, adding each
    group's terms in row (or cell) order; D a is ``np.take`` of the group
    values. Rows of zero weight are not identified: they get the effects
    fitted to their groups, zero for a group of zero weight.

    A column the fixed effects span, whose weighted norm falls to at most
    PIVOT_RTOL times its norm before absorption, comes back exactly zero,
    so that the rank screen drops it as it drops any collinear column.
    """
    C = np.asarray(columns, dtype=np.float64)
    squeeze = C.ndim == 1
    y = _as_matrix(C, "columns")
    if not np.all(np.isfinite(y)):
        raise ConfigurationError("columns to absorb fixed effects from must be finite")
    n, k = y.shape
    coded = [_factorize(keys) for keys in _key_dimensions(fe_keys)]
    for codes, _ in coded:
        if codes.size != n:
            raise ConfigurationError(
                f"fixed-effect key length {codes.size} does not match {n} rows"
            )
    w = _check_weights(weights, n)
    norms = np.sqrt(w @ (y * y))
    # one dimension sums rows; two or more sum cells, and solve on them
    cell_w, cell_wy = w, y * w[:, None]
    if len(coded) > 1:
        cell, first = _cells(coded)
        cell_w = np.bincount(cell, weights=w, minlength=first.size)
        cell_wy = np.bincount(_flat_index(cell, k), weights=cell_wy.ravel(),
                              minlength=first.size * k).reshape(-1, k)
        coded = [(codes[first], n_groups) for codes, n_groups in coded]
    flat = [(_flat_index(codes, k), n_groups) for codes, n_groups in coded]
    wsum = np.concatenate([
        np.bincount(codes, weights=cell_w, minlength=g) for codes, g in coded
    ])

    def group_sums(v: np.ndarray) -> np.ndarray:
        # D'v for weighted totals v, the dimensions' groups stacked in order
        return np.concatenate([
            np.bincount(f, weights=v.ravel(), minlength=g * k) for f, g in flat
        ]).reshape(-1, k)

    if len(coded) == 1:
        means = group_sums(cell_wy) / np.where(wsum > 0, wsum, 1.0)[:, None]
        out = y - np.take(means, coded[0][0], axis=0)
    else:
        offsets = np.cumsum([0] + [g for _, g in coded])
        groups = [codes + offset for (codes, _), offset in zip(coded, offsets)]

        def expand(a: np.ndarray) -> np.ndarray:
            # D_c a: each cell's group values summed over the dimensions
            total = np.take(a, groups[0], axis=0)
            for g in groups[1:]:
                total += np.take(a, g, axis=0)
            return total

        dinv = np.divide(1.0, wsum, out=np.zeros_like(wsum), where=wsum > 0)[:, None]
        rms = norms / np.sqrt(w.sum())
        alpha = np.zeros((wsum.size, k))
        resid = group_sums(cell_wy)
        means = dinv * resid
        direction = means.copy()
        rz = np.einsum("gj,gj->j", resid, means)
        for iteration in range(max_iter + 1):
            worst = np.abs(means).max(axis=0, initial=0.0)
            active = worst > tol * rms
            if not active.any():
                break
            if iteration == max_iter:
                attained = float(np.max(worst[active] / rms[active]))
                raise ConvergenceError(
                    f"fixed-effect absorption did not converge in {max_iter} iterations "
                    f"(attained {attained:.3e}, tol {tol:.3e})",
                    attained=attained,
                )
            image = group_sums(expand(direction) * cell_w[:, None])
            step = np.divide(rz, np.einsum("gj,gj->j", direction, image),
                             out=np.zeros(k), where=active)
            alpha += step * direction
            resid -= step * image
            means = dinv * resid
            rz_next = np.einsum("gj,gj->j", resid, means)
            direction = means + np.divide(rz_next, rz, out=np.zeros(k), where=active) * direction
            rz = rz_next
        out = y - np.take(expand(alpha), cell, axis=0)
    out[:, np.sqrt(w @ (out * out)) <= PIVOT_RTOL * norms] = 0.0
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
    coded = [_factorize(keys) for keys in _key_dimensions(fe_keys)]
    if len(coded) != 2:
        return sum(g if d == 0 else max(g - 1, 0) for d, (_, g) in enumerate(coded))
    _, first = _cells(coded)
    (codes1, g1), (codes2, g2) = coded
    parent = list(range(g1 + g2))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        return a

    for a, b in zip(codes1[first].tolist(), (g1 + codes2[first]).tolist()):
        parent[root(a)] = root(b)
    return g1 + g2 - sum(parent[v] == v for v in range(g1 + g2))
