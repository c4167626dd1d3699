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
  metric, is at most PIVOT_RTOL times its own weighted norm, so the rank
  decision does not depend on the units a column is measured in. The same
  Gram-Schmidt pass (classical, run twice) gives an orthonormal basis Q of
  the kept weighted columns and the triangular R with Q R equal to them, and
  the least-squares solve is R b = Q'y (Bjorck 1967): the basis is
  orthonormal whatever the scales, and the triangular solve scales with each
  column, so the solve does not depend on those units either.
- Every estimator is a just-identified IV with one endogenous column.
  ``iv_fit`` screens the controls once, partials outcome, treatment and
  instrument out of the kept ones with one solve, and reads every IV number
  off the partialled columns in closed form (Frisch-Waugh-Lovell).
- Given cluster codes, ``iv_fit`` sums the robust scores by cluster and
  counts clusters in place of rows, so its HC1 is that of the regression
  on cluster sums; without codes every row is its own cluster.
- Fixed effects are absorbed before the fit. The dimension with the most
  groups is eliminated exactly, since its weighted group means take one
  pass (Abowd, Creecy & Kramarz 2002), and one Jacobi-preconditioned
  conjugate-gradient solve of the Schur complement finds the other
  dimensions' effects for all columns at once; with one dimension nothing
  is left to solve. It stops when every column's largest weighted group
  mean of the residual is at most ``tol`` times the column's weighted RMS,
  so the rule does not depend on the units of a column. The solve runs over
  cells (distinct combinations of keys across the dimensions) from their
  weight sums and weighted column sums, which is all the equations read of
  the rows. The same group codes and cells give the degrees of freedom the
  effects spend, which the absorption returns with the columns.
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


def _check_finite(a: np.ndarray, names: Sequence[str]) -> None:
    """Refuse a column (or a matrix, with one name per column) that holds a
    value that is not finite, naming the column and row of the first."""
    if not np.isfinite(a).all():
        m = a.reshape(len(a), -1)
        row, col = np.argwhere(~np.isfinite(m))[0]
        raise ConfigurationError(
            f"{names[col]} must be finite, got {float(m[row, col])} in row {row}")


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
    _check_finite(y, ("response",))
    _check_finite(X, labels)
    w = _check_weights(problem.weights, n)
    return y, X, labels, w


def _screen_columns(xw: np.ndarray):
    """Rank screen in column order on the weighted design, and its QR factors.

    Returns the indices of kept columns, an orthonormal basis Q of them and
    the upper-triangular R with ``Q @ R == xw[:, kept]``. Column k's pivot is
    the norm of its residual after projecting out the basis of previously
    kept columns, by classical Gram-Schmidt applied twice, which leaves the
    basis orthonormal to working precision (Giraud, Langou & Rozloznik
    2005); the two passes' coefficients are R's column. The column is
    dropped when the pivot is at most PIVOT_RTOL times its own norm, and a
    dropped column leaves nothing in Q or R.
    """
    cols = np.ascontiguousarray(xw.T)  # a private copy, reduced in place
    norms = np.sqrt(np.einsum("ij,ij->i", cols, cols))
    kept: list = []
    basis, R = np.empty_like(cols), np.zeros((len(cols), len(cols)))
    for k, v in enumerate(cols):
        j, coef = len(kept), 0.0
        if j:
            coef = basis[:j] @ v
            v -= coef @ basis[:j]
            again = basis[:j] @ v
            v -= again @ basis[:j]
            coef += again
        pivot = float(np.sqrt(v @ v))
        if pivot > PIVOT_RTOL * norms[k]:
            R[:j, j], R[j, j] = coef, pivot
            basis[j] = v / pivot
            kept.append(k)
    return kept, basis[: len(kept)].T, R[: len(kept), : len(kept)]


def _partial(columns: np.ndarray, on: np.ndarray, w: np.ndarray):
    """Screen ``on`` and partial every column of ``columns`` out of its kept
    columns with one weighted least-squares solve.

    Returns the kept indices, the coefficients (one row per kept column) and
    the residuals. The solve is R B = Q'(sqrt(w) columns) on the screen's
    own factors, so the kept columns are orthogonalized once per call.
    """
    sw = np.sqrt(w)
    kept, Q, R = _screen_columns(on * sw[:, None])
    B = np.linalg.solve(R, Q.T @ (columns * sw[:, None]))
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
    """Weighted least squares with rank screening and HC1 standard errors.

    A response or regressor value that is not finite is refused with a
    ConfigurationError that names its column."""
    y, X, labels, w = _validate(problem)
    kept, B, e = _partial(y[:, None], X, w)
    if not kept:
        raise ConfigurationError("design matrix has no usable columns after rank screening")
    b, residuals = B[:, 0], e[:, 0]
    dropped = [lab for j, lab in enumerate(labels) if j not in kept]
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
    clusters=None,
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

    With ``clusters``, one nonnegative integer code per row, every robust SE
    sums the scores w_i z~_i e_i of each cluster (one ``np.bincount``)
    before squaring, and n counts the G clusters of positive weight, so
    c = G / (G - p - extra_dof), the HC1 of the regression on cluster sums.
    One code per row gives the same bits as none.

    A value of y, x, z or a control that is not finite is refused with a
    ConfigurationError that names its column. An instrument or a treatment
    with no variation beyond the controls (its partialled norm at most
    PIVOT_RTOL times its own) or an exactly zero first stage leaves beta
    non-finite, with a note. With n - p - extra_dof <= 0 every SE is NaN,
    with a note. A partial F below ``weak_f_threshold`` flags a weak
    instrument, with a note.
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
    yxz = np.column_stack([y, x, z])
    _check_finite(yxz, ("response", "treatment", "instrument"))
    _check_finite(C, labels)
    w = _check_weights(weights, n)
    kept, B, partialled = _partial(yxz, C, w)
    yt, xt, zt = partialled.T
    if clusters is None:
        n_obs = int(np.count_nonzero(w > 0))
    else:
        codes = np.asarray(clusters)
        if codes.shape != (n,) or codes.dtype.kind not in "iu" or codes.min() < 0:
            raise ConfigurationError(f"clusters must be {n} nonnegative integer codes")
        n_obs = int(np.count_nonzero(np.bincount(codes, weights=w) > 0))
    p = 1 + len(kept)
    dof = n_obs - p - int(extra_dof)
    wz = w * zt
    szz, szx, szy = float(wz @ zt), float(wz @ xt), float(wz @ yt)
    nan = float("nan")

    def robust_se(residuals: np.ndarray, denominator: float) -> float:
        # HC1 entry of a coefficient whose FWL weights are w z~ / denominator
        if dof <= 0:
            return nan
        scores = wz * residuals
        if clusters is not None:
            scores = np.bincount(codes, weights=scores)
        return float(np.sqrt(n_obs / dof * np.sum(scores ** 2)) / abs(denominator))

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


def _cells(coded) -> tuple:
    """The cell of every row, and every dimension's (codes, groups) on the
    cells.

    A cell is one combination of group codes across all dimensions; cells
    are numbered in the sorted order of their codes, so with one dimension
    the cells are its groups. Each chained code is below (cells so far) *
    (groups of the next dimension), at most n * g, so it cannot overflow.
    """
    (cell, n_cells), *rest = coded
    if not rest:
        return cell, [(np.arange(n_cells), n_cells)]
    for codes, n_groups in rest:
        _, first, cell = np.unique(cell * n_groups + codes, return_index=True,
                                   return_inverse=True)
    return cell, [(codes[first], n_groups) for codes, n_groups in coded]


def _flat_index(codes: np.ndarray, k: int) -> np.ndarray:
    """``code * k + column`` for every entry of an (len(codes), k) block."""
    return (codes[:, None] * k + np.arange(k)).ravel()


def _spent_dof(coded) -> int:
    """Parameters spent by the fixed effects ``coded``, one (codes, groups)
    pair per dimension, as ``absorb_fixed_effects`` counts them; the codes of
    two dimensions are read one pair per cell, by union-find."""
    if len(coded) != 2:
        return sum(g if d == 0 else max(g - 1, 0) for d, (_, g) in enumerate(coded))
    (codes1, g1), (codes2, g2) = coded
    parent = list(range(g1 + g2))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        return a

    for a, b in zip(codes1.tolist(), (g1 + codes2).tolist()):
        parent[root(a)] = root(b)
    return g1 + g2 - sum(parent[v] == v for v in range(g1 + g2))


def absorb_fixed_effects(
    columns,
    fe_keys,
    weights,
    tol: float = FE_TOL,
    max_iter: int = FE_MAX_ITER,
) -> Tuple[np.ndarray, int]:
    """Remove the weighted projection of ``columns`` onto fixed-effect dummies.

    ``fe_keys`` holds one key sequence per dimension, each as long as
    ``columns``; composite keys are joined beforehand (e.g. "CA|1980").
    Returns the absorbed columns and the parameters the fixed effects spend,
    counted from the same group codes and cells the solve uses: the group
    count for one dimension, the rank G1 + G2 - C of the dummies for two,
    where C counts the connected components of the graph linking groups
    that share a cell (Abowd, Creecy & Kramarz 2002), and for three or more
    the usual convention, all groups of the first dimension and
    groups-minus-one of each further one, which ignores disconnected
    components. The count depends on the keys only, not on the weights.

    One dimension is eliminated exactly and conjugate gradients solve for
    the rest (Abowd, Creecy & Kramarz 2002). The eliminated dimension e is
    the one with the most groups, the first listed on a tie: given the
    other dimensions' effects a, its effects are the weighted group means
    of y - D_r a, one ``np.bincount``. What remains is the Schur complement
    D_r'W(I - P_e)D_r a = D_r'W(I - P_e)y, where P_e takes each row to its
    weighted group mean in e. It is solved for every column at once by
    conjugate gradients with a Jacobi preconditioner (1 / group weight sum
    in D_r, 0 for an empty group; Correia 2017, reghdfe; Gaure 2013, lfe),
    and the columns come back as (I - P_e)(y - D_r a). With one dimension
    nothing remains, and this is the exact pass: subtract each row's
    weighted group mean. The residual's group means in e are zero by
    construction, and its group means in the other dimensions are the
    preconditioned Schur residual. A column has converged when the largest
    of them is at most ``tol`` times the column's weighted RMS before
    absorption, a rule that does not depend on the column's scale. Raises
    ConvergenceError (carrying the largest attained ratio) if ``max_iter``
    iterations do not suffice, and ConfigurationError on a non-finite
    column.

    The solve runs over cells, not rows. A cell is one combination of keys
    across the dimensions, and every row of a cell has the same dummies, so
    the equations depend on the rows only through each cell's weight sum
    and weighted column sums, and rows come back once. Group sums are
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
    coded = [_factorize(keys) for keys in fe_keys]
    if not coded:
        raise ConfigurationError("no fixed-effect dimensions to absorb")
    for codes, _ in coded:
        if codes.size != n:
            raise ConfigurationError(
                f"fixed-effect key length {codes.size} does not match {n} rows"
            )
    w = _check_weights(weights, n)
    norms = np.sqrt(w @ (y * y))
    cell, coded = _cells(coded)
    n_cells = coded[0][0].size
    cell_w = np.bincount(cell, weights=w, minlength=n_cells)
    cell_wy = np.bincount(_flat_index(cell, k), weights=(y * w[:, None]).ravel(),
                          minlength=n_cells * k).reshape(-1, k)
    e = max(range(len(coded)), key=lambda d: coded[d][1])
    eliminated, n_eliminated = coded[e]
    flat_e = _flat_index(eliminated, k)
    # an empty group's sums are zero, and so are its means
    wsum_e = np.bincount(eliminated, weights=cell_w, minlength=n_eliminated)
    wsum_e = np.where(wsum_e > 0, wsum_e, 1.0)[:, None]
    # the remaining dimensions' groups stacked in order: one row per dimension
    rest = coded[:e] + coded[e + 1:]
    offsets = np.cumsum([0] + [g for _, g in rest])
    groups = np.array([codes + offset for (codes, _), offset in zip(rest, offsets)],
                      dtype=np.intp).reshape(len(rest), n_cells)
    flat = _flat_index(groups.ravel(), k)
    wsum = np.bincount(groups.ravel(), weights=np.tile(cell_w, len(rest)),
                       minlength=offsets[-1])

    def means_e(t: np.ndarray) -> np.ndarray:
        # the eliminated dimension's weighted group means of weighted cell totals t
        return np.bincount(flat_e, weights=t.ravel(),
                           minlength=n_eliminated * k).reshape(-1, k) / wsum_e

    def schur_sums(t: np.ndarray) -> np.ndarray:
        # D_r'W(I - P_e) on weighted cell totals t
        t = t - cell_w[:, None] * np.take(means_e(t), eliminated, axis=0)
        return np.bincount(flat, weights=np.tile(t.ravel(), len(rest)),
                           minlength=offsets[-1] * k).reshape(-1, k)

    def expand(a: np.ndarray) -> np.ndarray:
        # D_r a: each cell's group values summed over the remaining dimensions
        return np.take(a, groups, axis=0).sum(axis=0)

    dinv = np.divide(1.0, wsum, out=np.zeros(wsum.size), where=wsum > 0)[:, None]
    rms = norms / np.sqrt(w.sum())
    alpha = np.zeros((wsum.size, k))
    resid = schur_sums(cell_wy)
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
        image = schur_sums(expand(direction) * cell_w[:, None])
        step = np.divide(rz, np.einsum("gj,gj->j", direction, image),
                         out=np.zeros(k), where=active)
        alpha += step * direction
        resid -= step * image
        means = dinv * resid
        rz_next = np.einsum("gj,gj->j", resid, means)
        direction = means + np.divide(rz_next, rz, out=np.zeros(k), where=active) * direction
        rz = rz_next
    fitted = expand(alpha)
    fitted += np.take(means_e(cell_wy - cell_w[:, None] * fitted), eliminated, axis=0)
    out = y - np.take(fitted, cell, axis=0)
    out[:, np.sqrt(w @ (out * out)) <= PIVOT_RTOL * norms] = 0.0
    return (out[:, 0] if squeeze else out), _spent_dof(coded)
