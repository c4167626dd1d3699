"""Test-side oracles that share no code with the ``rdagg`` modules they check."""

import math
from fractions import Fraction

import numpy as np


def dense_tsls(y, x, z, controls, w, extra_dof=0, clusters=None):
    """Textbook just-identified 2SLS on full-rank dense matrices.

    Two ``np.linalg.lstsq`` stages on sqrt(w)-weighted rows, and HC1
    sandwiches (bread^-1 meat bread^-1 by ``np.linalg.solve``) with factor
    n / (n - k - extra_dof), where n counts rows of positive weight and k
    the columns of the design. ``controls`` is an (n, k) matrix. Returns
    beta and its SE, the first-stage coefficient, SE and partial F, the
    reduced-form coefficient and SE, the 2 x 2 covariance of the first-stage
    and reduced-form coefficients, and the control coefficients.

    The first stage and the reduced form share their design, so they are
    one stacked system: its scores are the two regressions' score columns
    side by side, its bread is block-diagonal, and its sandwich holds both
    regressions' covariances and the covariance between them.

    With ``clusters``, one label per row, the meat sums the score rows of
    each cluster first, through the dense (rows x clusters) indicator
    matrix, and n counts the clusters whose rows have positive weight.
    """
    y, x, z, w = (np.asarray(v, dtype=float) for v in (y, x, z, w))
    C = np.asarray(controls, dtype=float).reshape(len(y), -1)
    sw = np.sqrt(w)
    n_obs = int(np.sum(w > 0))
    if clusters is not None:
        member = (np.asarray(clusters)[:, None] == np.unique(clusters)[None, :]).astype(float)
        n_obs = int(np.sum(member.T @ w > 0))

    def fit(target, X):
        b = np.linalg.lstsq(X * sw[:, None], target * sw, rcond=None)[0]
        return b, target - X @ b

    def hc1(X, *residuals):
        # the stacked sandwich of one regression on X per residual column
        k = X.shape[1] * len(residuals)
        dof = n_obs - X.shape[1] - extra_dof
        if dof <= 0:
            return np.full((k, k), np.nan)
        bread = np.kron(np.eye(len(residuals)), (X * w[:, None]).T @ X)
        score = np.column_stack([X * (w * e)[:, None] for e in residuals])
        if clusters is not None:
            score = member.T @ score
        meat = score.T @ score * (n_obs / dof)
        half = np.linalg.solve(bread, meat)
        return np.linalg.solve(bread, half.T)

    first = np.column_stack([z, C])
    pi, e1 = fit(x, first)
    second = np.column_stack([x - e1, C])
    b, _ = fit(y, second)
    se = np.sqrt(np.diag(hc1(second, y - np.column_stack([x, C]) @ b)))
    rf, e3 = fit(y, first)
    joint = hc1(first, e1, e3)[::first.shape[1], ::first.shape[1]]
    pi_se, rf_se = np.sqrt(np.diag(joint))
    return {
        "beta": b[0],
        "robust_se": se[0],
        "fs_coefficient": pi[0],
        "fs_se": pi_se,
        "fs_partial_f": (pi[0] / pi_se) ** 2,
        "rf_coefficient": rf[0],
        "rf_se": rf_se,
        "score_cov": joint,
        "controls": b[1:],
    }


def exact_wls_hc1(y, X, w, extra_dof=0):
    """Weighted least squares and its HC1 standard errors in exact rationals.

    Every float converts to a ``Fraction`` without rounding. The normal
    equations (X'WX) b = X'Wy are solved by Gauss-Jordan elimination, and
    the residuals e and the sandwich (X'WX)^-1 [c sum_i (w_i e_i)^2 x_i x_i']
    (X'WX)^-1, c = n / (n - p - extra_dof) with n rows of positive weight,
    are exact. Only the results round: each coefficient, and each SE as the
    square root of its variance's nearest float. X must have full column
    rank. The rationals grow with every product, so keep it small
    (n <= 40, p <= 4). Returns coefficients and SEs as float arrays.
    """
    X = [[Fraction(float(v)) for v in row] for row in np.asarray(X, dtype=float)]
    y = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    w = [Fraction(float(v)) for v in np.asarray(w, dtype=float)]
    p = len(X[0])
    # the inverse of X'WX, by Gauss-Jordan elimination on [X'WX | I]
    aug = [[sum(wi * x[j] * x[k] for wi, x in zip(w, X)) for k in range(p)]
           + [Fraction(int(j == k)) for k in range(p)] for j in range(p)]
    for j in range(p):
        pivot = next(i for i in range(j, p) if aug[i][j] != 0)
        aug[j], aug[pivot] = aug[pivot], aug[j]
        aug[j] = [v / aug[j][j] for v in aug[j]]
        for i in range(p):
            if i != j and aug[i][j] != 0:
                aug[i] = [a - aug[i][j] * b for a, b in zip(aug[i], aug[j])]
    inverse = [row[p:] for row in aug]
    xwy = [sum(wi * x[k] * yi for wi, x, yi in zip(w, X, y)) for k in range(p)]
    b = [sum(inverse[j][k] * xwy[k] for k in range(p)) for j in range(p)]
    e = [yi - sum(x[k] * b[k] for k in range(p)) for x, yi in zip(X, y)]
    n_obs = sum(wi > 0 for wi in w)
    meat = [[sum((wi * ei) ** 2 * x[j] * x[k] for wi, ei, x in zip(w, e, X))
             for k in range(p)] for j in range(p)]
    c = Fraction(n_obs, n_obs - p - extra_dof)
    se = []
    for j in range(p):
        row = [sum(inverse[j][m] * meat[m][k] for m in range(p)) for k in range(p)]
        se.append(math.sqrt(float(c * sum(row[k] * inverse[k][j] for k in range(p)))))
    return np.array([float(v) for v in b]), np.array(se)


def dense_absorb(columns, key_sets, w):
    """Weighted residuals of ``columns`` on explicit dummies of every key set.

    One ``np.linalg.lstsq`` on sqrt(w)-weighted rows of the dense dummy
    matrix, all groups of every dimension included (the minimum-norm
    solution handles its rank deficiency). Rows of zero weight are not
    identified; compare positive-weight rows only.
    """
    C = np.asarray(columns, dtype=float)
    w = np.asarray(w, dtype=float)
    D = np.column_stack([
        (np.asarray(keys)[:, None] == np.unique(keys)[None, :]).astype(float)
        for keys in key_sets
    ])
    sw = np.sqrt(w)
    b = np.linalg.lstsq(D * sw[:, None], (C.T * sw).T, rcond=None)[0]
    return C - D @ b


def sorted_cells(key_sets):
    """The cell of every row and each dimension's (codes, groups) on the
    cells, numbered in sorted order: groups in the order of their keys
    (``np.unique`` per dimension) and cells in the order of their tuples of
    group codes (``np.unique`` over the rows). With one dimension the cells
    are its groups."""
    coded = [np.unique(np.asarray(keys), return_inverse=True)[1].ravel() for keys in key_sets]
    n_groups = [int(c.max(initial=-1)) + 1 for c in coded]
    if len(coded) == 1:
        return coded[0], [(np.arange(n_groups[0]), n_groups[0])]
    tuples, cell = np.unique(np.column_stack(coded), axis=0, return_inverse=True)
    return cell.ravel(), [(tuples[:, d], g) for d, g in enumerate(n_groups)]


def reference_exposures(design, index):
    """Unit treatment, instrument and (n, 3) controls from the edge index
    ``index``, with the close edges masked out of each gathered column in
    turn. Every sum is ``np.bincount`` in edge order, as the package sums."""
    n, events = len(design.units), design.events
    event, unit_row = index.event, index.unit_row
    s_w, r, z = events.importance[event], events.running[event], index.instrument[event]
    close = index.close[event]
    rows = unit_row[close]

    def unit_sum(rows, values):
        return np.bincount(rows, weights=values, minlength=n).astype(np.float64, copy=False)

    def close_sum(values):
        return unit_sum(rows, values[close])

    treatment = unit_sum(unit_row, s_w * index.treatment[event])
    instrument = close_sum(s_w * z)
    controls = np.column_stack([close_sum(s_w), close_sum(s_w * r), close_sum(s_w * r * z)])
    override = ~np.isnan(design.units.override)
    treatment[override] = design.units.override[override]
    return treatment, instrument, controls


def reference_stack(design, index, kernel, bandwidth):
    """The stacked rows from the edge index ``index``: the close edges
    selected by a mask of their own, in (unit row, event rank) order, with
    the columns gathered on them and the treatment of
    ``reference_exposures``; ``n_close_events`` last."""
    keep = np.flatnonzero(index.close[index.event])
    keep = keep[np.lexsort((design.event_rank[index.event[keep]], index.unit_row[keep]))]
    unit_row, event = index.unit_row[keep], index.event[keep]
    r = design.events.running[event]
    weights = np.ones(len(r)) if kernel == "uniform" else 1.0 - np.abs(r) / bandwidth
    treatment = reference_exposures(design, index)[0]
    return (unit_row, event, r, index.instrument[event], design.events.importance[event],
            weights, design.units.outcome[unit_row], treatment[unit_row],
            int(index.close.sum()))
