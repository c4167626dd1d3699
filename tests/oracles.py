"""Test-side oracles that share no code with the ``rdagg`` modules they check."""

import numpy as np


def dense_tsls(y, x, z, controls, w, extra_dof=0, clusters=None):
    """Textbook just-identified 2SLS on full-rank dense matrices.

    Two ``np.linalg.lstsq`` stages on sqrt(w)-weighted rows, and HC1
    sandwiches (bread^-1 meat bread^-1 by ``np.linalg.solve``) with factor
    n / (n - k - extra_dof), where n counts rows of positive weight and k
    the columns of the design. ``controls`` is an (n, k) matrix. Returns
    beta and its SE, the first-stage coefficient, SE and partial F, the
    reduced-form coefficient and SE, and the control coefficients.

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

    def hc1(X, e):
        dof = n_obs - X.shape[1] - extra_dof
        if dof <= 0:
            return np.full(X.shape[1], np.nan)
        bread = (X * w[:, None]).T @ X
        score = X * (w * e)[:, None]
        if clusters is not None:
            score = member.T @ score
        meat = score.T @ score * (n_obs / dof)
        half = np.linalg.solve(bread, meat)
        return np.sqrt(np.diag(np.linalg.solve(bread, half.T)))

    first = np.column_stack([z, C])
    pi, e1 = fit(x, first)
    second = np.column_stack([x - e1, C])
    b, _ = fit(y, second)
    se = hc1(second, y - np.column_stack([x, C]) @ b)
    rf, e3 = fit(y, first)
    pi_se = hc1(first, e1)[0]
    return {
        "beta": b[0],
        "robust_se": se[0],
        "fs_coefficient": pi[0],
        "fs_se": pi_se,
        "fs_partial_f": (pi[0] / pi_se) ** 2,
        "rf_coefficient": rf[0],
        "rf_se": hc1(first, e3)[0],
        "controls": b[1:],
    }


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
