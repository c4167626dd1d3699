"""Deterministic weighted linear-regression engine.

Everything estimated in this package reduces to the primitives here: weighted
least squares, the instrumental-variable kernel, weighted residualization
(partialling out) and fixed-effect absorption; each fit computes its own
HC1 sandwich covariance. All routines are pure functions of their inputs
and produce identical output for identical inputs in identical column order.

Conventions
-----------
- Every entry point (``wls_fit``, ``iv_fit``, ``residualize``,
  ``absorb_fixed_effects``) passes its columns and weights through one
  gate, ``_gate``, which builds the one float block the fit reads and
  refuses, with a ConfigurationError: an empty sample; a column that is not
  one-dimensional, or whose length does not match; a label given twice; a
  value that is not finite, named by its column and row (unnamed columns
  are named by position, ``on[:, 1]``); and weights of the wrong length,
  not finite, negative or all zero. ``wls_fit`` takes the response, the
  regressor matrix, one label per regressor and the weights.
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
- ``wls_fit`` takes its HC1 covariance from the same factors: with S the
  basis Q with row i scaled by sqrt(w_i) e_i, it is c R^-1 S'S R^-T, one
  solve against R. No X'WX is formed or inverted, and there is no separate
  sandwich routine (``hc1_cov`` left the public API).
- Every estimator is a just-identified IV with one endogenous column.
  ``iv_fit`` screens the controls once, partials outcome, treatment and
  instrument out of the kept ones with one solve, and reads every IV number
  off the partialled columns in closed form (Frisch-Waugh-Lovell).
- ``iv_fit`` puts the robust scores of the first stage, the reduced form
  and beta in one (3, n) block, sums it by cluster once when given cluster
  codes, and reads all three SEs, the partial F and ``IvFit.score_cov``,
  the joint covariance of the first-stage and reduced-form coefficients,
  off it. With codes it counts clusters in place of rows, so its HC1 is
  that of the regression on cluster sums, and reports their number as
  ``IvFit.n_clusters``; without codes every row is its own cluster and
  ``n_clusters`` is None.
- Fixed effects are absorbed before the fit. The dimension with the most
  groups is eliminated exactly, since its weighted group means take one
  pass (Abowd, Creecy & Kramarz 2002), and one conjugate-gradient solve of
  the Schur complement finds the other dimensions' effects for all columns
  at once, preconditioned by the exact diagonal of that complement
  (Jacobi); with one dimension nothing is left to solve. It stops when
  every column's largest weighted group mean of the residual is at most
  ``tol`` times the column's weighted RMS, so the rule does not depend on
  the units of a column. The solve runs over cells (distinct combinations
  of keys across the dimensions) from their weight sums and weighted
  column sums, which is all the equations read of the rows. The same group
  codes and cells give the degrees of freedom the effects spend, which the
  absorption returns with the columns.
- Ids and keys have one coder, ``key_codes``: codes in order of first
  appearance, in one pass. ``fe_cells`` makes cells of such codes and
  ``absorb_cells`` solves on them. The estimators code the cells once per
  fit, on the units, from ``Design.fe_codes``; a stacked fit reads its
  rows' cells and renumbers the ones present by count, with no sort.
  ``absorb_fixed_effects`` codes each key sequence with ``key_codes`` and
  takes the same path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, ConvergenceError

PIVOT_RTOL = 1e-10
FE_TOL = 1e-10
FE_MAX_ITER = 10_000
WEAK_F_THRESHOLD = 10.0
# scipy.stats.norm.ppf(0.975) to the bit, written out so that importing this
# module does not import scipy (statistics.NormalDist differs in the last digit)
Z_CRITICAL_5PCT = 1.959963984540054


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
    control; ``notes`` explain every non-finite number. ``score_cov`` is the
    2 x 2 robust covariance of the first-stage and reduced-form
    coefficients, in that order; ``n_clusters`` counts the clusters of
    positive weight, None without clusters.
    """

    beta: float
    robust_se: float
    first_stage: FirstStage
    reduced_form: ReducedForm
    control_coefficients: dict
    dropped_columns: list
    weak_instrument: bool
    notes: list
    score_cov: np.ndarray
    n_clusters: Optional[int]


def _split(name: str, a) -> tuple:
    """The names and columns of ``a``: a matrix gives its columns, named
    ``name[:, j]`` by position, and anything else is one column ``name``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        return [name], [a]
    return [f"{name}[:, {j}]" for j in range(a.shape[1])], list(a.T)


def _gate(names: Sequence[str], columns: Sequence, weights, roles: int = 0):
    """The one input check of every fit: the named columns as one float block
    (one column each, in order) and the weights.

    The first ``roles`` names are those of the columns a fit explains
    (response, treatment, instrument); the others are labels, which must
    match the columns in number and be unique. Every column and the weights
    must be one-dimensional and of one length, at least one row; every
    value must be finite, and the first that is not is named by its column
    and row. The weights must be nonnegative, and not all zero.
    """
    cols = [np.asarray(col, dtype=np.float64) for col in columns]
    w = np.asarray(weights, dtype=np.float64)
    if len(names) != len(cols):
        raise ConfigurationError(f"{len(names) - roles} labels for {len(cols) - roles} columns")
    labels = names[roles:]
    if len(set(labels)) != len(labels):
        repeated = next(lab for j, lab in enumerate(labels) if lab in labels[:j])
        raise ConfigurationError(f"label {repeated!r} given twice")
    n = None
    for name, col in [*zip(names, cols), ("weights", w)]:
        if col.ndim != 1:
            raise ConfigurationError(f"{name} must be one-dimensional, got shape {col.shape}")
        if n is None:
            n = col.shape[0]
        elif col.shape[0] != n:
            raise ConfigurationError(
                f"{name} length {col.shape[0]} does not match sample size {n}")
    if n == 0:
        raise ConfigurationError("empty sample: zero rows")
    block = np.array(cols).reshape(-1, n)  # one column per row, returned transposed
    finite = np.isfinite(block)
    if not finite.all():
        j, row = np.argwhere(~finite)[0]
        raise ConfigurationError(
            f"{names[j]} must be finite, got {float(block[j, row])} in row {row}")
    if not np.isfinite(w).all():
        raise ConfigurationError("weights must be finite")
    if (w < 0).any():
        raise ConfigurationError("weights must be nonnegative")
    if not (w > 0).any():
        raise ConfigurationError("all weights are zero")
    return block.T, w


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

    Returns the kept indices, the coefficients (one row per kept column),
    the residuals and the screen's factors Q and R. The solve is
    R B = Q'(sqrt(w) columns) on those factors, so the kept columns are
    orthogonalized once per call.
    """
    sw = np.sqrt(w)
    kept, Q, R = _screen_columns(on * sw[:, None])
    # the product in C order whatever the layout of ``columns``: BLAS may
    # sum over the rows of another layout in another order
    B = np.linalg.solve(R, Q.T @ np.multiply(columns, sw[:, None], order="C"))
    return kept, B, columns - on[:, kept] @ B, Q, R


def _no_dof_note(n_obs: int, p: int) -> str:
    return f"no residual degrees of freedom (n={n_obs}, p={p}): SEs not available"


def wls_fit(response, regressors, labels: Sequence[str], weights,
            extra_dof: int = 0) -> FitResult:
    """Weighted least squares of ``response`` on the columns of
    ``regressors``, one label each, with rank screening and HC1 standard
    errors.

    The covariance comes from the screen's factors of the weighted kept
    columns, Q R = sqrt(W) X. The scores w_i e_i x_i are the rows of S R,
    where S is Q with row i scaled by sqrt(w_i) e_i, and the bread X'WX is
    R'R, so the HC1 sandwich is c R^-1 S'S R^-T with c = n / (n - p -
    extra_dof): one solve against R, no X'WX, so its accuracy follows the
    condition number of the design, not its square (Higham 2002, ch. 20).
    With n - p - extra_dof <= 0 every SE is NaN, with a note.

    A response or regressor value that is not finite is refused with a
    ConfigurationError that names its column and row."""
    block, w = _gate(["response", *labels], [response, *_split("regressors", regressors)[1]],
                     weights, roles=1)
    kept, B, e, Q, R = _partial(block[:, :1], block[:, 1:], w)
    if not kept:
        raise ConfigurationError("design matrix has no usable columns after rank screening")
    b, residuals = B[:, 0], e[:, 0]
    dropped = [lab for j, lab in enumerate(labels) if j not in kept]
    n_obs = int(np.count_nonzero(w > 0))
    dof = n_obs - len(kept) - int(extra_dof)
    kept_labels = [labels[j] for j in kept]

    notes: list = []
    if dof > 0:
        half = np.linalg.solve(R, (Q * (np.sqrt(w) * residuals)[:, None]).T)
        cov = n_obs / dof * (half @ half.T)
        se_vals = np.sqrt(np.diag(cov))
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

    - beta = <z~, y~> / <z~, x~>;
    - the first-stage coefficient pi = <z~, x~> / <z~, z~>;
    - the reduced-form coefficient rho = <z~, y~> / <z~, z~>;
    - the control coefficients B_y - beta B_x from the partialling solve.

    The robust scores of all three coefficients are the rows of one (3, n)
    block w z~ (e_pi, e_rho, e_beta), with e_pi = x~ - pi z~, e_rho = y~ -
    rho z~ and e_beta = y~ - beta x~. Each SE reads one row S_k of that block:
    sqrt(c |S_k|^2) over <z~, z~> for pi and rho and over |<z~, x~>| for
    beta, the HC1 entries of the three regressions. The partial F is
    (pi / SE)^2, and ``score_cov``, the covariance of (pi, rho), is
    c S_2 S_2' / <z~, z~>^2 on the block's first two rows.

    With ``clusters``, one nonnegative integer code per row, the block is
    summed by cluster first, all three rows in one ``np.bincount``, and n
    counts the G clusters of positive weight, so c = G / (G - p -
    extra_dof), the HC1 of the regression on cluster sums; ``n_clusters``
    is G. One code per row gives the same bits as none.

    A value of y, x, z or a control that is not finite is refused with a
    ConfigurationError that names its column and row. An instrument or a
    treatment with no variation beyond the controls (its partialled norm at
    most PIVOT_RTOL times its own) or an exactly zero first stage leaves
    beta non-finite, with a note. With n - p - extra_dof <= 0 every SE and
    ``score_cov`` are NaN, with a note. A partial F below
    ``weak_f_threshold`` flags a weak instrument, with a note.
    """
    labels = [lab for lab, _ in controls]
    block, w = _gate(["response", "treatment", "instrument", *labels],
                     [y, x, z, *(col for _, col in controls)], weights, roles=3)
    n, x, z = len(w), block[:, 1], block[:, 2]
    kept, B, partialled, _, _ = _partial(block[:, :3], block[:, 3:], w)
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
    nan = float("nan")
    c = n_obs / dof if dof > 0 else nan
    wz = w * zt
    szz, szx, szy = float(wz @ zt), float(wz @ xt), float(wz @ yt)
    notes: list = []
    beta = se = nan
    score_cov = np.full((2, 2), nan)
    if np.sqrt(szz) <= PIVOT_RTOL * np.sqrt(w @ (z * z)):
        first_stage, reduced_form = FirstStage(nan, nan, nan), ReducedForm(nan, nan)
        notes.append(
            "instrument has no variation beyond the controls: first stage vanished, "
            "estimate non-finite"
        )
    else:
        pi, rf = szx / szz, szy / szz
        flat = np.sqrt(w @ (xt * xt)) <= PIVOT_RTOL * np.sqrt(w @ (x * x))
        if not flat and szx != 0.0:
            beta = szy / szx
        # the scores w z~ e of the first stage, the reduced form and beta, one
        # row each; by cluster, row r's cluster g is bin g + G r of one bincount
        scores = np.array([xt - pi * zt, yt - rf * zt, yt - beta * xt])
        scores *= wz
        if clusters is not None:
            scores = np.bincount((codes + (codes.max() + 1) * np.arange(3)[:, None]).ravel(),
                                 weights=scores.ravel()).reshape(3, -1)
        pi_se, rf_se, se = map(float, np.sqrt(c * np.sum(scores ** 2, axis=1))
                               / [szz, szz, abs(szx)])
        score_cov = c * (scores[:2] @ scores[:2].T) / szz ** 2
        first_stage = FirstStage(pi, pi_se, (pi / pi_se) ** 2 if pi_se > 0 else nan)
        reduced_form = ReducedForm(rf, rf_se)
        if first_stage.partial_f < weak_f_threshold:
            notes.append(
                f"weak instrument: first-stage partial F {first_stage.partial_f:.3g} "
                f"below {weak_f_threshold:g}"
            )
        if flat:
            notes.append("treatment has no variation beyond the controls: estimate non-finite")
        elif szx == 0.0:
            notes.append("zero first stage: estimate non-finite")
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
        score_cov=score_cov,
        n_clusters=None if clusters is None else n_obs,
    )


def residualize(columns, on, weights) -> np.ndarray:
    """Remove the weighted projection of ``columns`` onto ``on``.

    Output columns are weight-orthogonal to every kept column of ``on``.
    A one-dimensional input comes back one-dimensional. A value that is not
    finite is refused with a ConfigurationError that names it by position
    (``on[:, 2]``, say) and row.
    """
    names, cols = _split("columns", columns)
    on_names, on_cols = _split("on", on)
    block, w = _gate(names + on_names, cols + on_cols, weights)
    out = _partial(block[:, :len(cols)], block[:, len(cols):], w)[2]
    return out[:, 0] if np.ndim(columns) == 1 else out


def key_codes(keys) -> Tuple[np.ndarray, list]:
    """Integer codes of ``keys`` in order of first appearance (-1 for None),
    and the distinct keys in that order, in one pass over the keys: each key
    maps to the position where it first appears, None to -1, and those
    positions, which increase, are ranked. Keys are told apart as a dict
    tells them apart, so ``1`` and ``"1"`` are two keys."""
    first: dict = {None: -1}
    at = np.fromiter(map(first.setdefault, keys, count()), dtype=np.intp, count=len(keys))
    # a key first appears where its position is its own; -1 stays -1
    rank = np.append(np.cumsum(at == np.arange(len(keys))) - 1, -1)
    return rank[at], list(first)[1:]


def fe_cells(codes: Sequence[np.ndarray], rows: Optional[np.ndarray] = None) -> tuple:
    """The cells of fixed effects given as dense codes, and every
    dimension's (codes, groups) on the cells, as ``absorb_cells`` takes them.

    ``codes`` holds one integer array per dimension whose codes run over
    0, ..., G - 1, each present, such as ``key_codes`` gives. A cell is one
    combination of codes across the dimensions; cells are numbered in the
    sorted order of their codes, so with one dimension the cells are its
    groups. Each chained code is below (cells so far) * (groups of the next
    dimension), at most n * g, so it cannot overflow. With ``rows``, an
    index array, the result is that of the codes at ``rows``: every cell is
    read at ``rows``, and the cells and each dimension's groups that remain
    are renumbered in order by the running count of those present, one
    ``np.bincount`` each, which is the sorted numbering without sorting the
    rows.
    """
    coded = [(c, int(np.max(c, initial=-1)) + 1) for c in codes]
    (cell, n_cells), *rest = coded
    first = None  # the first row of every cell, unless the cells are the groups
    for c, n_groups in rest:
        _, first, cell = np.unique(cell * n_groups + c, return_index=True, return_inverse=True)
    coded = [(np.arange(n_cells) if first is None else c[first], g) for c, g in coded]
    if rows is None:
        return cell, coded
    cell = cell[rows]
    present = np.bincount(cell, minlength=coded[0][0].size) > 0
    renumbered = []
    for group, n_groups in coded:
        group = group[present]
        used = np.bincount(group, minlength=n_groups) > 0
        renumbered.append(((np.cumsum(used) - 1)[group], int(np.count_nonzero(used))))
    return (np.cumsum(present) - 1)[cell], renumbered


def _flat_index(codes: np.ndarray, k: int) -> np.ndarray:
    """``code * k + column`` for every entry of an (len(codes), k) block."""
    return (codes[:, None] * k + np.arange(k)).ravel()


def _schur_diagonal(groups: np.ndarray, eliminated: np.ndarray, cell_w: np.ndarray,
                    wsum_e: np.ndarray, n_groups: int) -> np.ndarray:
    """The diagonal of the Schur complement D_r'W(I - P_e)D_r over cells.

    ``groups`` holds the remaining dimensions' groups of every cell, one row
    per dimension, numbered across the dimensions (``n_groups`` in all);
    ``eliminated`` the eliminated group of every cell, ``cell_w`` the cell
    weights and ``wsum_e`` the eliminated groups' weights, any positive
    value for an empty one. With s the weight a group shares with an
    eliminated group of weight W, summed over every cell of the pair (in
    three or more dimensions a pair may hold many cells), a group's entry
    is the sum of s (1 - s / W) over its pairs: its weight less the part the
    eliminated dimension explains. No term is negative, and the sum is
    exactly 0 for an empty group and for one whose cells fill their
    eliminated groups, which the eliminated dimension spans.
    """
    n_eliminated = wsum_e.size
    pairs, pair = np.unique((groups * n_eliminated + eliminated).ravel(), return_inverse=True)
    shared = np.bincount(pair, weights=np.tile(cell_w, len(groups)))
    return np.bincount(pairs // n_eliminated, minlength=n_groups,
                       weights=shared * (1.0 - shared / wsum_e[pairs % n_eliminated]))


def _spent_dof(coded) -> int:
    """Parameters spent by the fixed effects ``coded``, one (codes, groups)
    pair per dimension, as ``absorb_fixed_effects`` counts them.

    The codes of two dimensions are read one pair per cell, an edge between
    two groups, and the components are found by min-label propagation with
    pointer jumping (Shiloach & Vishkin 1982): each pass gives both ends of
    every edge, and the groups their labels name, the smaller of the two
    labels, then replaces every label by its label's label until none
    moves. A label is always a group of the same component and never
    grows, so the passes stop, and they stop when the ends of every edge
    share a label: one per component, the component's least group, which
    labels itself.
    """
    if len(coded) != 2:
        return sum(g if d == 0 else max(g - 1, 0) for d, (_, g) in enumerate(coded))
    (a, g1), (codes2, g2) = coded
    b = g1 + codes2
    label = np.arange(g1 + g2)
    while True:
        low = np.minimum(label[a], label[b])
        hooked = label.copy()
        np.minimum.at(hooked, np.concatenate([a, b, label[a], label[b]]), np.tile(low, 4))
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return g1 + g2 - int(np.count_nonzero(label == np.arange(g1 + g2)))
        label = hooked


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
    Keys are told apart as dict keys are, so ``1`` and ``"1"`` are two
    groups. A missing key, None or a float NaN, is refused with a
    ConfigurationError that names its dimension and row.
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
    conjugate gradients with a Jacobi preconditioner (compare Correia 2017,
    reghdfe; Gaure 2013, lfe): one over the exact diagonal of the Schur
    complement, 0 where that diagonal is 0. Group g's diagonal entry is
    the sum, over the eliminated groups h it shares cells with, of
    s_gh (1 - s_gh / W_h), where s_gh is the weight of the cells in both g
    and h and W_h the weight of h. That is g's weight less the part the
    eliminated dimension explains, and it is 0 for an empty group and for
    one whose cells fill their eliminated groups. The columns come back as
    (I - P_e)(y - D_r a). With one dimension nothing remains, and this is
    the exact pass: subtract each row's weighted group mean. The residual's
    group means in e are zero by construction, and its group means in the
    other dimensions are the Schur residual over each group's weight. A
    column has converged when the largest of them is at most ``tol`` times
    the column's weighted RMS before
    absorption, a rule that does not depend on the column's scale. Raises
    ConvergenceError (carrying the largest attained ratio) if ``max_iter``
    iterations do not suffice, and ConfigurationError on a non-finite
    value, named by its position in ``columns`` and its row.

    The solve runs over cells, not rows. A cell is one combination of keys
    across the dimensions, and every row of a cell has the same dummies, so
    the equations depend on the rows only through each cell's weight sum
    and weighted column sums, and rows come back once. The keys are coded
    by ``key_codes``, their cells by ``fe_cells``, and the solve is
    ``absorb_cells``, the path the estimators take. Group sums are
    ``np.bincount`` calls over the index ``code * k + column``, adding each
    group's terms in row (or cell) order; D a is ``np.take`` of the group
    values. Rows of zero weight are not identified: they get the effects
    fitted to their groups, zero for a group of zero weight.

    A column the fixed effects span, whose weighted norm falls to at most
    PIVOT_RTOL times its norm before absorption, comes back exactly zero,
    so that the rank screen drops it as it drops any collinear column.
    """
    codes = []
    for d, keys in enumerate(fe_keys):
        if np.ndim(keys) != 1:
            raise ConfigurationError(
                f"fixed-effect keys must be one-dimensional, got shape {np.shape(keys)}")
        # Python scalars hash faster than numpy's
        dim, distinct = key_codes(keys.tolist() if isinstance(keys, np.ndarray) else keys)
        # None is coded -1, and NaN is the key unequal to itself
        missing = np.flatnonzero(np.isin(dim, [-1] + [c for c, k in enumerate(distinct) if k != k]))
        if missing.size:
            raise ConfigurationError(
                f"fixed-effect dimension {d} has a missing key in row {missing[0]}")
        if codes and dim.size != codes[0].size:
            raise ConfigurationError(f"fixed-effect dimension {d} has {dim.size} keys, "
                                     f"dimension 0 has {codes[0].size}")
        codes.append(dim)
    if not codes:
        raise ConfigurationError("no fixed-effect dimensions to absorb")
    return absorb_cells(columns, fe_cells(codes), weights, tol, max_iter)


def absorb_cells(columns, cells: tuple, weights, tol: float = FE_TOL,
                 max_iter: int = FE_MAX_ITER) -> Tuple[np.ndarray, int]:
    """``absorb_fixed_effects`` on fixed effects already coded: ``cells`` is
    the cell of every row and each dimension's (codes, groups) on the
    cells, as ``fe_cells`` returns them. The solve, the stopping rule, the
    degrees of freedom and the errors are those of ``absorb_fixed_effects``
    on keys with those cells."""
    y, w = _gate(*_split("columns", columns), weights)
    cell, coded = cells
    if cell.size != w.size:
        raise ConfigurationError(
            f"fixed-effect key length {cell.size} does not match {w.size} rows")
    return _absorb(columns, y, w, cell, coded, tol, max_iter)


def _absorb(columns, y: np.ndarray, w: np.ndarray, cell: np.ndarray, coded: list,
            tol: float, max_iter: int) -> Tuple[np.ndarray, int]:
    """The solve of ``absorb_fixed_effects`` on the gated block ``y`` of
    ``columns`` and weights ``w``, the cell of every row and each
    dimension's (codes, groups) on the cells."""
    n, k = y.shape
    norms = np.sqrt(w @ (y * y))
    n_cells = coded[0][0].size
    cell_w = np.bincount(cell, weights=w, minlength=n_cells)
    # the weighted rows in C order, the order of _flat_index
    cell_wy = np.bincount(_flat_index(cell, k),
                          weights=np.multiply(y, w[:, None], order="C").ravel(),
                          minlength=n_cells * k).reshape(-1, k)
    del y  # the gate's copy: the solve reads cell sums, and the end the input
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

    diag = _schur_diagonal(groups, eliminated, cell_w, wsum_e[:, 0], offsets[-1])
    # a zero diagonal leaves nothing to solve for its group (see _schur_diagonal)
    precond = np.divide(1.0, diag, out=np.zeros(diag.size), where=diag > 0)[:, None]
    # the residual's weighted group means are the Schur residual over these
    winv = np.divide(1.0, wsum, out=np.zeros(wsum.size), where=wsum > 0)[:, None]
    rms = norms / np.sqrt(w.sum())
    alpha = np.zeros((wsum.size, k))
    resid = schur_sums(cell_wy)
    z = precond * resid
    direction = z.copy()
    rz = np.einsum("gj,gj->j", resid, z)
    for iteration in range(max_iter + 1):
        worst = np.abs(winv * resid).max(axis=0, initial=0.0)
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
        z = precond * resid
        rz_next = np.einsum("gj,gj->j", resid, z)
        direction = z + np.divide(rz_next, rz, out=np.zeros(k), where=active) * direction
        rz = rz_next
    fitted = expand(alpha)
    fitted += np.take(means_e(cell_wy - cell_w[:, None] * fitted), eliminated, axis=0)
    out = np.take(fitted, cell, axis=0)
    np.subtract(np.asarray(columns, dtype=np.float64).reshape(n, k), out, out=out)
    out[:, np.sqrt(w @ (out * out)) <= PIVOT_RTOL * norms] = 0.0
    return (out[:, 0] if np.ndim(columns) == 1 else out), _spent_dof(coded)
