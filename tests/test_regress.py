"""Regression engine against independent brute-force oracles."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_absorb, dense_tsls, exact_wls_hc1, sorted_cells
from rdagg.errors import ConfigurationError, ConvergenceError
from rdagg.regress import (
    FE_MAX_ITER,
    FE_TOL,
    _partial,
    _schur_diagonal,
    _screen_columns,
    absorb_fixed_effects,
    iv_fit,
    residualize,
    wls_fit,
)


def normal_equations(y, X, w):
    """Oracle: solve (X'WX) b = X'W y directly."""
    A = (X * w[:, None]).T @ X
    return np.linalg.solve(A, (X * w[:, None]).T @ y)


def random_problem(rng, n=50, p=4):
    X = rng.normal(size=(n, p))
    X[:, 0] = 1.0
    y = rng.normal(size=n)
    w = rng.uniform(0.1, 3.0, size=n)
    return y, X, w


def make(y, X, w, labels=None):
    """The arguments of ``wls_fit``, with X's columns labelled x0, x1, ... by default."""
    return y, X, labels or [f"x{j}" for j in range(X.shape[1])], w


def columns(X, labels):
    """(label, column) pairs of a control matrix."""
    return list(zip(labels, np.asarray(X).T))


def reference_absorb(columns, key_sets, weights, tol=FE_TOL, max_iter=FE_MAX_ITER):
    """Oracle: alternating projections with np.add.at group sums.

    Every group mean is computed afresh, the first dimension's included.
    Returns the absorbed columns and the number of sweeps taken.
    """
    C = np.asarray(columns, dtype=np.float64)
    out = (C[:, None] if C.ndim == 1 else C).copy()
    w = np.asarray(weights, dtype=np.float64)
    dims = []
    for keys in key_sets:
        index = {}
        codes = np.array([index.setdefault(k, len(index)) for k in keys], dtype=np.intp)
        dims.append((codes, len(index)))

    def group_means(codes, n_groups):
        wsum = np.bincount(codes, weights=w, minlength=n_groups)
        sums = np.zeros((n_groups, out.shape[1]))
        np.add.at(sums, codes, out * w[:, None])
        return sums / np.where(wsum > 0, wsum, 1.0)[:, None]

    def criterion():
        worst = 0.0
        for codes, n_groups in dims:
            worst = max(worst, float(np.abs(group_means(codes, n_groups)).max(initial=0.0)))
        return worst

    attained, sweeps = criterion(), 0
    while attained > tol:
        if sweeps == max_iter:
            raise ConvergenceError("reference absorption did not converge", attained=attained)
        for codes, n_groups in dims:
            out -= group_means(codes, n_groups)[codes]
        attained, sweeps = criterion(), sweeps + 1
    return (out[:, 0] if C.ndim == 1 else out), sweeps


def nested_panel(rng, n=400, n_states=10, block=4, local_share=0.9):
    """Unbalanced two-way panel: Zipf-sized states, industries mostly nested
    in their state's block, columns correlated with the state."""
    size = 1.0 / np.arange(1, n_states + 1)
    state = rng.choice(n_states, size=n, p=size / size.sum())
    local = state * block + rng.integers(0, block, size=n)
    industry = np.where(
        rng.random(n) < local_share, local, rng.integers(0, n_states * block, size=n)
    )
    x = rng.normal(size=(n, 3)) + 0.3 * state[:, None]
    w = rng.uniform(0.2, 2.0, size=n)
    return x, [[f"s{v}" for v in state], [f"i{v}" for v in industry]], w


class TestWls:
    def test_intercept_only_is_weighted_mean(self):
        fit = wls_fit(*make(np.array([1.0, 2.0, 3.0]), np.ones((3, 1)), np.ones(3)))
        assert fit.coefficients["x0"] == pytest.approx(2.0, abs=1e-14)

    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = 2.0 * x
        X = np.column_stack([np.ones(4), x])
        fit = wls_fit(*make(y, X, np.ones(4), labels=["const", "x"]))
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficients["const"] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-12
        assert all(se == pytest.approx(0.0, abs=1e-12) for se in fit.robust_se.values())

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y, X, w = random_problem(rng)
            fit = wls_fit(*make(y, X, w))
            expected = normal_equations(y, X, w)
            got = np.array([fit.coefficients[f"x{j}"] for j in range(4)])
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_residuals_weight_orthogonal(self):
        rng = np.random.default_rng(1)
        y, X, w = random_problem(rng)
        fit = wls_fit(*make(y, X, w))
        for j in range(X.shape[1]):
            scale = np.linalg.norm(X[:, j])
            assert abs(np.sum(w * fit.residuals * X[:, j])) <= 1e-8 * scale

    def test_collinear_column_dropped_in_order(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        X = np.column_stack([np.ones(30), x, 2 * x])
        fit = wls_fit(*make(rng.normal(size=30), X, np.ones(30), labels=["c", "x", "x2"]))
        assert fit.dropped_columns == ["x2"]
        assert np.isnan(fit.coefficients["x2"])

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        y, X, w = random_problem(rng)
        a = wls_fit(*make(y, X, w))
        b = wls_fit(*make(y, X, 17.5 * w))
        for lab in a.coefficients:
            assert a.coefficients[lab] == pytest.approx(b.coefficients[lab], rel=1e-10)
            assert a.robust_se[lab] == pytest.approx(b.robust_se[lab], rel=1e-10)

    def test_zero_weight_rows_ignored(self):
        rng = np.random.default_rng(4)
        y, X, w = random_problem(rng, n=60)
        w[:10] = 0.0
        full = wls_fit(*make(y, X, w))
        trimmed = wls_fit(*make(y[10:], X[10:], w[10:]))
        for lab in full.coefficients:
            assert full.coefficients[lab] == pytest.approx(trimmed.coefficients[lab], rel=1e-10)
        assert full.n_obs == trimmed.n_obs == 50

    def test_errors_are_distinct(self):
        with pytest.raises(ConfigurationError, match="empty sample"):
            wls_fit(*make(np.array([]), np.empty((0, 1)), np.array([])))
        with pytest.raises(ConfigurationError, match="all weights are zero"):
            wls_fit(*make(np.array([1.0, 2.0]), np.ones((2, 1)), np.zeros(2)))
        with pytest.raises(ConfigurationError, match="does not match"):
            wls_fit(*make(np.array([1.0, 2.0, 3.0]), np.ones((2, 1)), np.ones(2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_or_regressor_refused(self, bad):
        y, X, w = random_problem(np.random.default_rng(13))
        y[7] = bad
        with pytest.raises(ConfigurationError,
                           match=rf"^response must be finite, got {bad} in row 7$"):
            wls_fit(*make(y, X, w))
        y[7], X[4, 2] = 0.0, bad
        with pytest.raises(ConfigurationError, match=rf"^x2 must be finite, got {bad} in row 4$"):
            wls_fit(*make(y, X, w))


class TestTsls:
    def test_instrument_equal_to_endogenous_collapses_to_wls(self):
        rng = np.random.default_rng(5)
        n = 80
        x = rng.normal(size=n)
        W = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = 1.0 + 2.0 * x + rng.normal(size=n)
        X = np.column_stack([x, W])
        w = rng.uniform(0.5, 2.0, size=n)
        labels = ["x", "const", "w1"]
        ols = wls_fit(*make(y, X, w, labels=labels))
        iv = iv_fit(y, x, x, columns(W, labels[1:]), w)
        assert iv.beta == pytest.approx(ols.coefficients["x"], abs=1e-12)

    def test_ratio_of_covariances_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = 70
            W = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            z = rng.normal(size=n)
            x = 0.8 * z + rng.normal(size=n)
            y = 1.5 * x + W @ np.array([0.3, -0.2, 0.4]) + rng.normal(size=n)
            w = rng.uniform(0.2, 2.0, size=n)
            fit = iv_fit(y, x, z, columns(W, ["c", "w1", "w2"]), w)
            y_p = residualize(y, W, w)
            x_p = residualize(x, W, w)
            z_p = residualize(z, W, w)
            oracle = np.sum(w * z_p * y_p) / np.sum(w * z_p * x_p)
            assert fit.beta == pytest.approx(oracle, rel=1e-10)

    def test_recovers_true_effect_in_simulation(self):
        rng = np.random.default_rng(7)
        n = 10_000
        z = rng.normal(size=n)
        x = z + rng.normal(size=n)
        y = 3.0 * x + rng.normal(size=n)
        fit = iv_fit(y, x, z, [("c", np.ones(n))], np.ones(n))
        assert abs(fit.beta - 3.0) < 3 * fit.robust_se
        assert fit.first_stage.partial_f > 100

    def test_zero_first_stage_reports_non_finite(self):
        rng = np.random.default_rng(8)
        n = 50
        x = rng.normal(size=n)
        z = np.ones(n)  # collinear with the constant: no instrument variation
        y = rng.normal(size=n)
        fit = iv_fit(y, x, z, [("c", np.ones(n))], np.ones(n))
        assert np.isnan(fit.beta)
        assert any("non-finite" in note or "vanished" in note for note in fit.notes)

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_treatment_spanned_by_controls_reports_non_finite(self, scale):
        rng = np.random.default_rng(12)
        n = 100
        c = rng.normal(size=n)
        x = scale * (2.0 * c + 1.0)  # no variation beyond the controls [1, c]
        fit = iv_fit(rng.normal(size=n), x, rng.normal(size=n),
                     [("one", np.ones(n)), ("c", c)], np.ones(n))
        assert np.isnan(fit.beta) and np.isnan(fit.robust_se)
        assert "treatment has no variation beyond the controls: estimate non-finite" \
            in fit.notes

    @pytest.mark.parametrize("column", ["response", "treatment", "instrument", "c"])
    def test_non_finite_column_refused_by_name(self, column):
        # a NaN would otherwise come back as a NaN beta with no note
        rng = np.random.default_rng(14)
        n = 50
        data = {name: rng.normal(size=n) for name in ("response", "treatment", "instrument", "c")}
        data[column][11] = np.nan
        with pytest.raises(ConfigurationError,
                           match=rf"^{column} must be finite, got nan in row 11$"):
            iv_fit(data["response"], data["treatment"], data["instrument"],
                   [("one", np.ones(n)), ("c", data["c"])], np.ones(n))

    def test_weak_instrument_is_a_warning_not_an_error(self):
        rng = np.random.default_rng(9)
        n = 200
        z = rng.normal(size=n)
        x = 0.01 * z + rng.normal(size=n)
        y = rng.normal(size=n)
        fit = iv_fit(y, x, z, [("c", np.ones(n))], np.ones(n))
        assert any("weak instrument" in note for note in fit.notes)
        assert np.isfinite(fit.beta)

    def test_overidentified_rejected(self):
        rng = np.random.default_rng(10)
        n = 40
        x = rng.normal(size=n)
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            iv_fit(rng.normal(size=n), x, rng.normal(size=(n, 2)), [("c", np.ones(n))],
                   np.ones(n))

    def test_one_screen_and_no_sandwich_per_fit(self, monkeypatch):
        from rdagg import regress

        calls = []

        def counted(name):
            original = getattr(regress, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(regress, "_screen_columns", counted("_screen_columns"))
        # the screen's own factors do the partialling solve
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: calls.append("lstsq") or lstsq(*a, **k))
        rng = np.random.default_rng(41)
        n = 60
        W = np.column_stack([np.ones(n), rng.normal(size=n)])
        z = rng.normal(size=n)
        iv_fit(rng.normal(size=n), z + rng.normal(size=n), z, columns(W, ["c", "w1"]),
               np.ones(n))
        assert calls == ["_screen_columns"]
        # and so do wls_fit's coefficients and covariance
        wls_fit(*make(rng.normal(size=n), W, np.ones(n)))
        assert calls == ["_screen_columns"] * 2

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6),
           collinear=st.sampled_from([None, "first", "middle", "last"]),
           scale=st.sampled_from([1.0, 1e-8, 1e9]), zero_rows=st.booleans())
    def test_partial_solves_on_the_screen_factors(self, seed, p, collinear, scale, zero_rows):
        """The screen's Q R factors against the columns they factor, and the
        partialling solve against np.linalg.lstsq on the kept columns, with a
        collinear column placed first, in the middle or last, one column
        scaled far from the others and rows of zero weight."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * p + 6, 60))
        on = rng.normal(size=(n, p))
        parts, dropped = [], []
        if collinear is not None:
            # a combination of one or two columns; the last of the dependent
            # columns in column order is the one dropped
            parts = rng.choice(p, size=min(p, 2), replace=False)
            pos = {"first": 0, "middle": (p + 1) // 2, "last": p}[collinear]
            on = np.insert(on, pos, on[:, parts] @ np.array([2.0, -0.5][:parts.size]), axis=1)
            parts = list(parts + (parts >= pos))
            dropped = [max(pos, *parts)]
        # not a part of the combination: rescaling one would leave the
        # combination in its span only to 1e-16 of the larger part's norm
        on[:, rng.choice([j for j in range(on.shape[1]) if j not in parts])] *= scale
        w = rng.uniform(0.2, 2.5, size=n)
        if zero_rows:
            w[rng.permutation(n)[: n // 4]] = 0.0
        C = rng.normal(size=(n, 3))
        sw = np.sqrt(w)
        xw = on * sw[:, None]

        kept, Q, R = _screen_columns(xw)
        assert kept == [j for j in range(on.shape[1]) if j not in dropped]
        assert np.abs(Q.T @ Q - np.eye(len(kept))).max() <= 1e-12
        assert np.array_equal(R, np.triu(R))
        norms = np.sqrt((xw[:, kept] ** 2).sum(axis=0))
        assert (np.abs(Q @ R - xw[:, kept]).max(axis=0) <= 1e-12 * norms).all()

        got_kept, B, resid, got_Q, got_R = _partial(C, on, w)
        assert np.array_equal(got_Q, Q) and np.array_equal(got_R, R)
        # lstsq on unit-norm columns: its SVD is not invariant to column
        # scales, and a 1e-8 column would cost it 1e-8 of accuracy
        scaled = np.linalg.lstsq(xw[:, kept] / norms, C * sw[:, None], rcond=None)[0]
        assert got_kept == kept
        assert np.abs(B * norms[:, None] - scaled).max() <= 1e-10 * np.abs(scaled).max()
        want_resid = C - on[:, kept] @ (scaled / norms[:, None])
        assert np.abs(resid - want_resid).max() <= 1e-10 * np.abs(want_resid).max()

    def test_matches_dense_two_stage_oracle(self):
        """Every kernel output against two dense lstsq stages and HC1
        sandwiches, on 50 random instances that cycle through fixed-effect
        degrees of freedom, zero-weight rows, a collinear control, no residual
        degrees of freedom and an instrument that is a control combination."""
        rng = np.random.default_rng(40)
        rel = lambda a, b: abs(a - b) / max(1.0, abs(a), abs(b))
        kinds = ("plain", "extra_dof", "zero_weights", "collinear", "no_dof", "dead")
        seen = set()
        for i in range(50):
            kind = kinds[i % len(kinds)]
            k = int(rng.integers(3, 6))
            n = k + 2 if kind == "no_dof" else int(rng.integers(30, 120))
            C = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            labels = [f"c{j}" for j in range(k)]
            z = rng.normal(size=n)
            if kind == "dead":
                z = C @ rng.normal(size=k)
            x = 0.8 * z + C @ rng.normal(size=k) + rng.normal(size=n)
            y = 1.3 * x + C @ rng.normal(size=k) + rng.normal(size=n)
            w = rng.uniform(0.2, 2.5, size=n)
            extra_dof = int(rng.integers(1, 6)) if kind in ("extra_dof", "zero_weights") else 0
            if kind == "zero_weights":
                w[rng.permutation(n)[: n // 5]] = 0.0
            if kind == "no_dof":
                extra_dof = int(rng.integers(1, 4))
            dropped = []
            if kind == "collinear":
                # a third column in the span of c1 and c2: the last of the
                # three in column order is the one dropped
                pos = int(rng.integers(1, k + 1))
                C = np.insert(C, pos, 2.0 * C[:, 1] - 0.5 * C[:, 2], axis=1)
                labels.insert(pos, "combo")
                dropped = [max(("c1", "c2", "combo"), key=labels.index)]
            fit = iv_fit(y, x, z, columns(C, labels), w, extra_dof)
            assert fit.dropped_columns == dropped
            kept = [j for j, lab in enumerate(labels) if lab not in dropped]
            for lab in dropped:
                assert np.isnan(fit.control_coefficients[lab])
            n_obs = int(np.sum(w > 0))
            if kind == "dead":
                assert np.isnan(fit.beta) and np.isnan(fit.robust_se)
                fs = fit.first_stage
                assert np.isnan(fs.coefficient) and np.isnan(fs.robust_se)
                assert np.isnan(fs.partial_f) and np.isnan(fit.score_cov).all()
                assert any("vanished" in note or "non-finite" in note for note in fit.notes)
                seen.add(kind)
                continue
            want = dense_tsls(y, x, z, C[:, kept], w, extra_dof)
            got = {
                "beta": fit.beta,
                "robust_se": fit.robust_se,
                "fs_coefficient": fit.first_stage.coefficient,
                "fs_se": fit.first_stage.robust_se,
                "fs_partial_f": fit.first_stage.partial_f,
                "rf_coefficient": fit.reduced_form.coefficient,
                "rf_se": fit.reduced_form.robust_se,
            }
            point = ("beta", "fs_coefficient", "rf_coefficient")
            if kind == "no_dof":
                assert n_obs - len(kept) - 1 - extra_dof <= 0
                assert all(np.isnan(v) for key, v in got.items() if key not in point)
                assert f"no residual degrees of freedom (n={n_obs}, p={len(kept) + 1}): " \
                    "SEs not available" in fit.notes
            for key in got if kind != "no_dof" else point:
                assert rel(got[key], want[key]) <= 1e-10, (i, kind, key)
            for j, value in zip(kept, want["controls"]):
                assert rel(fit.control_coefficients[labels[j]], value) <= 1e-10, (i, kind)
            cov = want["score_cov"]
            if kind == "no_dof":
                assert np.isnan(fit.score_cov).all() and np.isnan(cov).all()
            else:
                assert np.abs(fit.score_cov - cov).max() <= 1e-10 * np.abs(cov).max(), (i, kind)
            assert fit.n_clusters is None
            seen.add(kind)
        assert seen == set(kinds)

    def test_cluster_sums_match_dense_oracle(self):
        """Scores summed by cluster against the dense indicator-matrix
        sandwich, on 30 instances with clusters of one to nine rows, some
        with extra degrees of freedom, and one cluster of zero weight that
        the cluster count leaves out."""
        rng = np.random.default_rng(41)
        rel = lambda a, b: abs(a - b) / max(1.0, abs(a), abs(b))
        for i in range(30):
            n, k = int(rng.integers(40, 150)), int(rng.integers(2, 5))
            C = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            clusters = np.sort(rng.integers(0, n // int(rng.integers(1, 10)) + 1, size=n))
            z = rng.normal(size=n) + rng.normal(size=clusters.max() + 1)[clusters]
            x = 0.8 * z + C @ rng.normal(size=k) + rng.normal(size=n)
            y = 1.3 * x + C @ rng.normal(size=k) + rng.normal(size=n)
            w = rng.uniform(0.2, 2.5, size=n)
            if i % 3 == 1:
                w[clusters == clusters[n // 2]] = 0.0
            extra_dof = int(rng.integers(0, 4))
            fit = iv_fit(y, x, z, columns(C, [f"c{j}" for j in range(k)]), w, extra_dof,
                         clusters=clusters)
            want = dense_tsls(y, x, z, C, w, extra_dof, clusters=clusters)
            got = {
                "beta": fit.beta,
                "robust_se": fit.robust_se,
                "fs_coefficient": fit.first_stage.coefficient,
                "fs_se": fit.first_stage.robust_se,
                "fs_partial_f": fit.first_stage.partial_f,
                "rf_coefficient": fit.reduced_form.coefficient,
                "rf_se": fit.reduced_form.robust_se,
            }
            for key, value in got.items():
                assert rel(value, want[key]) <= 1e-10, (i, key)
            cov = want["score_cov"]
            assert np.abs(fit.score_cov - cov).max() <= 1e-10 * np.abs(cov).max(), i
            assert fit.n_clusters == np.unique(clusters[w > 0]).size

    def test_one_row_per_cluster_gives_the_same_bits_as_none(self):
        rng = np.random.default_rng(42)
        n = 80
        C = np.column_stack([np.ones(n), rng.normal(size=n)])
        z = rng.normal(size=n)
        x, w = 0.5 * z + rng.normal(size=n), rng.uniform(0.1, 2.0, size=n)
        y = x + rng.normal(size=n)
        w[::7] = 0.0
        plain = iv_fit(y, x, z, columns(C, ["c0", "c1"]), w, 2)
        clustered = iv_fit(y, x, z, columns(C, ["c0", "c1"]), w, 2, clusters=np.arange(n))
        assert (plain.n_clusters, clustered.n_clusters) == (None, np.count_nonzero(w))
        assert clustered.score_cov.tobytes() == plain.score_cov.tobytes()
        unset = {"score_cov": None, "n_clusters": None}
        assert replace(clustered, **unset) == replace(plain, **unset)

    @pytest.mark.parametrize("codes", [
        lambda n: np.arange(n - 1), lambda n: np.arange(n) - 1,
        lambda n: np.arange(n, dtype=float), lambda n: np.zeros((n, 1), dtype=int),
    ])
    def test_bad_cluster_codes_refused(self, codes):
        rng = np.random.default_rng(43)
        y, x, z = rng.normal(size=(3, 20))
        with pytest.raises(ConfigurationError, match="nonnegative integer codes"):
            iv_fit(y, x, z, [], np.ones(20), clusters=codes(20))


class TestResidualize:
    def test_on_itself_gives_zero(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        out = residualize(x, x[:, None], np.ones(40))
        assert np.max(np.abs(out)) < 1e-10

    def test_on_intercept_demeans(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=40)
        w = rng.uniform(0.5, 2.0, size=40)
        out = residualize(x, np.ones((40, 1)), w)
        np.testing.assert_allclose(out, x - np.sum(w * x) / np.sum(w), rtol=1e-12)

    def test_frisch_waugh(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 60
            W = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            joint = wls_fit(
                *make(y, np.column_stack([x, W]), w, labels=["x", "c", "a", "b", "d"])
            )
            x_p = residualize(x, W, w)
            y_p = residualize(y, W, w)
            partial = np.sum(w * x_p * y_p) / np.sum(w * x_p * x_p)
            assert joint.coefficients["x"] == pytest.approx(partial, rel=1e-10)


class TestAbsorb:
    def test_non_finite_column_rejected(self):
        # A NaN group mean once passed the stopping check as converged, and
        # every column came back unabsorbed without an error.
        cols = np.array([[1.0, 2.0], [np.nan, 3.0], [5.0, 7.0], [11.0, 13.0]])
        keys = [["a", "a", "b", "b"], ["x", "y", "x", "y"]]
        with pytest.raises(ConfigurationError, match="finite"):
            absorb_fixed_effects(cols, keys, np.ones(4))
        with pytest.raises(ConfigurationError, match="finite"):
            absorb_fixed_effects(np.array([1.0, np.inf, 2.0, 3.0]), keys, np.ones(4))
        # A missing key is refused, not coded as a group: a None key once
        # raised numpy's TypeError, and NaN keys formed one group.
        for missing, message in (
                ([["a", "b", None, "a"]], "dimension 0 has a missing key in row 2"),
                ([keys[0], [1.0, float("nan"), float("nan"), 1.0]],
                 "dimension 1 has a missing key in row 1"),
                ([keys[0], np.array([1.0, 2.0, 1.0, np.nan])],
                 "dimension 1 has a missing key in row 3")):
            with pytest.raises(ConfigurationError, match=f"^fixed-effect {message}$"):
                absorb_fixed_effects(cols[:, 1], missing, np.ones(4))

    def test_single_group_demeans(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=30)
        w = rng.uniform(0.5, 2.0, size=30)
        out, _ = absorb_fixed_effects(x, [["g"] * 30], w)
        np.testing.assert_allclose(out, x - np.sum(w * x) / np.sum(w), atol=1e-12)

    def test_single_dimension_at_large_scale(self):
        # the stopping check once saw rounding of 1e-7 on a column of 1e9
        # and swept until it raised ConvergenceError
        rng = np.random.default_rng(25)
        x = rng.normal(size=60)
        keys = [f"g{v}" for v in rng.integers(0, 4, size=60)]
        w = rng.uniform(0.5, 2.0, size=60)
        got, _ = absorb_fixed_effects(1e9 * x, [keys], w)
        np.testing.assert_allclose(got, 1e9 * absorb_fixed_effects(x, [keys], w)[0], rtol=1e-10)

    def test_column_spanned_by_fixed_effects_becomes_zero(self):
        rng = np.random.default_rng(26)
        g = rng.integers(0, 5, size=50)
        level = rng.normal(size=5)[g] * 1e3
        cols = np.column_stack([level, rng.normal(size=50)])
        out, _ = absorb_fixed_effects(cols, [[str(v) for v in g]], rng.uniform(0.5, 2.0, size=50))
        assert np.all(out[:, 0] == 0.0) and np.all(out[:, 1] != 0.0)

    def test_coinciding_dimensions_match_single(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=40)
        keys = [str(i % 4) for i in range(40)]
        w = np.ones(40)
        one, _ = absorb_fixed_effects(x, [keys], w)
        two, _ = absorb_fixed_effects(x, [keys, list(keys)], w)
        np.testing.assert_allclose(one, two, atol=1e-10)

    def test_crossed_dims_match_dummy_expansion(self):
        rng = np.random.default_rng(16)
        n = 200
        g1 = rng.integers(0, 6, size=n)
        g2 = rng.integers(0, 5, size=n)
        x = rng.normal(size=(n, 2))
        y = (
            x @ np.array([1.2, -0.7])
            + g1 * 0.5
            + g2 * -0.3
            + rng.normal(size=n)
        )
        w = rng.uniform(0.5, 2.0, size=n)
        keys = [[str(v) for v in g1], [str(v) for v in g2]]
        absorbed, _ = absorb_fixed_effects(np.column_stack([y, x]), keys, w)
        fit_a = wls_fit(*make(absorbed[:, 0], absorbed[:, 1:], w, labels=["x1", "x2"]))
        dummies = np.column_stack(
            [(g1 == v).astype(float) for v in range(6)]
            + [(g2 == v).astype(float) for v in range(5)]
        )
        X_full = np.column_stack([x, dummies])
        labels = ["x1", "x2"] + [f"d{j}" for j in range(dummies.shape[1])]
        fit_b = wls_fit(*make(y, X_full, w, labels=labels))
        assert fit_a.coefficients["x1"] == pytest.approx(fit_b.coefficients["x1"], rel=1e-8)
        assert fit_a.coefficients["x2"] == pytest.approx(fit_b.coefficients["x2"], rel=1e-8)

    def test_non_convergence_reports_attained(self):
        rng = np.random.default_rng(17)
        n = 50
        keys = [[str(v) for v in rng.integers(0, 8, n)], [str(v) for v in rng.integers(0, 8, n)]]
        with pytest.raises(ConvergenceError) as err:
            absorb_fixed_effects(rng.normal(size=n), keys, np.ones(n), tol=1e-14, max_iter=1)
        assert err.value.attained > 1e-14

    def test_keys_must_be_one_dimensional(self):
        keys = np.array([["a", "b"], ["a", "c"], ["b", "b"], ["b", "c"]])
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            absorb_fixed_effects(np.arange(4.0), [keys], np.ones(4))
        with pytest.raises(ConfigurationError,
                           match="^fixed-effect dimension 1 has 3 keys, dimension 0 has 4$"):
            absorb_fixed_effects(np.arange(4.0), [list("aabb"), list("xyx")], np.ones(4))
        with pytest.raises(ConfigurationError,
                           match="^fixed-effect key length 3 does not match 4 rows$"):
            absorb_fixed_effects(np.arange(4.0), [list("aab")], np.ones(4))

    def test_keys_are_told_apart_by_type(self):
        """``1`` and ``"1"`` are two groups, as dict keys are; an array of
        strings and its list of the same strings are one coding."""
        assert self.dof([[1, "1", 1, "1"]]) == 2
        keys = ["b", "a", "b", "c"]
        assert self.dof([np.array(keys)]) == self.dof([keys]) == 3

    @staticmethod
    def dof(keys):
        n = len(keys[0])
        return absorb_fixed_effects(np.arange(n, dtype=float), keys, np.ones(n))[1]

    def test_dof_counting(self):
        assert self.dof([["a", "b", "a"]]) == 2
        assert self.dof([["a", "b", "a"], ["x", "x", "y"]]) == 3

    def test_dof_counts_disconnected_components(self):
        # {a, b, x, y} and {c, z} are separate components: 6 groups - 2.
        assert self.dof([["a", "a", "b", "c"], ["x", "y", "x", "z"]]) == 4

    def test_dof_counts_one_long_chain(self):
        # a0-b0-a1-b1-...-a499-b499: 1,000 groups in one path, one component,
        # with groups coded in a shuffled order and rows shuffled; cutting
        # the path once makes two
        rng = np.random.default_rng(27)
        g = 500
        first = np.concatenate([np.arange(g), np.arange(1, g)])
        second = np.concatenate([np.arange(g), np.arange(g - 1)])
        names1, names2 = rng.permutation(g), rng.permutation(g)
        order = rng.permutation(first.size)
        keys = [[f"a{names1[v]}" for v in first[order]], [f"b{names2[v]}" for v in second[order]]]
        n = len(order)
        spanned = np.ones(n)  # absorbed at once: the test counts, it does not solve
        assert absorb_fixed_effects(spanned, keys, np.ones(n))[1] == 2 * g - 1
        cut = order != g  # drops the cell (a1, b0)
        cut_keys = [list(np.array(k)[cut]) for k in keys]
        assert absorb_fixed_effects(spanned[cut], cut_keys, np.ones(n - 1))[1] == 2 * g - 2
        rng = np.random.default_rng(24)
        for n_blocks in (1, 2, 3, 5):
            n = 80
            block = rng.integers(0, n_blocks, size=n)
            g1 = block * 4 + rng.integers(0, 4, size=n)
            g2 = block * 6 + rng.integers(0, 6, size=n)
            dummies = np.column_stack(
                [(g[:, None] == np.unique(g)).astype(float) for g in (g1, g2)]
            )
            keys = [[f"a{v}" for v in g1], [f"b{v}" for v in g2]]
            assert self.dof(keys) == np.linalg.matrix_rank(dummies)


class TestAbsorbMatchesAddAtLoop:
    """absorb_fixed_effects against the np.add.at loop, to the bit, for one
    dimension; against the dense dummy oracle for two or more, on the rows
    of positive weight (rows of zero weight are not identified)."""

    @staticmethod
    def assert_matches_dense(x, key_sets, w, rtol, **kwargs):
        expected = dense_absorb(x, key_sets, w)
        got, _ = absorb_fixed_effects(x, key_sets, w, **kwargs)
        assert got.shape == np.shape(x)
        pos = w > 0
        gap = np.abs(got[pos] - expected[pos]).max()
        assert gap <= rtol * np.abs(expected[pos]).max()

    @pytest.mark.parametrize("n_dims", [1, 2, 3])
    def test_dimensions(self, n_dims):
        rng = np.random.default_rng(30 + n_dims)
        n = 150
        x = rng.normal(size=(n, 4))
        w = rng.uniform(0.1, 3.0, size=n)
        key_sets = [[f"d{d}g{v}" for v in rng.integers(0, 5 + 3 * d, n)] for d in range(n_dims)]
        if n_dims == 1:
            expected, _ = reference_absorb(x, key_sets, w)
            assert np.array_equal(absorb_fixed_effects(x, key_sets[:1], w)[0], expected)
        else:
            self.assert_matches_dense(x, key_sets, w, rtol=1e-10)
            self.assert_matches_dense(x, key_sets, w, rtol=1e-12, tol=1e-13)

    def test_one_dimensional_column_stays_one_dimensional(self):
        x, key_sets, w = nested_panel(np.random.default_rng(34), n=120)
        expected, _ = reference_absorb(x[:, 0], key_sets[:1], w)
        got, _ = absorb_fixed_effects(x[:, 0], key_sets[:1], w)
        assert got.shape == (120,)
        assert np.array_equal(got, expected)
        self.assert_matches_dense(x[:, 0], key_sets, w, rtol=1e-10)

    def test_zero_weight_rows_and_zero_weight_group(self):
        rng = np.random.default_rng(35)
        x, key_sets, w = nested_panel(rng, n=200)
        w[rng.random(200) < 0.2] = 0.0
        key_sets[1] = ["empty" if i % 25 == 0 else k for i, k in enumerate(key_sets[1])]
        w[::25] = 0.0
        expected, _ = reference_absorb(x, key_sets[1:], w)
        assert np.array_equal(absorb_fixed_effects(x, key_sets[1:2], w)[0], expected)
        self.assert_matches_dense(x, key_sets, w, rtol=1e-10)
        self.assert_matches_dense(x, key_sets, w, rtol=1e-12, tol=1e-13)

    def test_slow_converging_panel(self):
        # 306 alternating-projection sweeps; 9 conjugate-gradient iterations
        # once the 40 industries are eliminated exactly
        x, key_sets, w = nested_panel(np.random.default_rng(7))
        _, sweeps = reference_absorb(x, key_sets, w)
        assert sweeps > 100
        self.assert_matches_dense(x, key_sets, w, rtol=1e-10, max_iter=60)
        self.assert_matches_dense(x, key_sets, w, rtol=1e-12, tol=1e-13)

    def test_eliminating_the_larger_dimension_leaves_few_iterations(self):
        # Conjugate gradients on the normal equations of both dimensions took
        # 20 iterations here; on the 10 states left once the 40 industries
        # are eliminated, they take 9.
        x, key_sets, w = nested_panel(np.random.default_rng(7))
        self.assert_matches_dense(x, key_sets, w, rtol=1e-10, max_iter=10)

    def test_non_convergence_reports_relative_attained(self):
        x, key_sets, w = nested_panel(np.random.default_rng(7))
        with pytest.raises(ConvergenceError) as err:
            absorb_fixed_effects(x, key_sets, w, max_iter=2)
        assert err.value.attained > FE_TOL

    @pytest.mark.parametrize("scale", [1e8, 1e-8])
    def test_stopping_rule_is_scale_free(self, scale):
        # Under the sweep loop's absolute rule the 1e8 panel did not converge
        # in 10,000 sweeps.
        x, key_sets, w = nested_panel(np.random.default_rng(7))
        base, _ = absorb_fixed_effects(x, key_sets, w)
        got, _ = absorb_fixed_effects(scale * x, key_sets, w, max_iter=60)
        assert np.abs(got - scale * base).max() <= 1e-10 * np.abs(scale * base).max()


@st.composite
def absorb_cases(draw):
    """Two or three fixed-effect dimensions in one of five layouts, with
    optional zero-weight rows, a zero-weight cell and a zero-weight group.
    Returns columns, key arrays, weights and a generator for permutations."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dims = draw(st.integers(2, 3))
    layout = draw(st.sampled_from(
        ["nested", "crossed", "own_cells", "duplicated", "disconnected"]))
    n = draw(st.integers(6, 60))
    sizes = [draw(st.integers(1, 6)) for _ in range(n_dims)]
    if layout == "own_cells":  # a grid with one row per key combination
        a, b = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        n = a * b
        grid = np.arange(n)
        codes = [grid % a, grid // a] + [rng.integers(0, size, n) for size in sizes[2:]]
    elif layout == "nested":  # each dimension nested in the one before
        codes = [rng.integers(0, sizes[0], n)]
        for size in sizes[1:]:
            codes.append(codes[-1] * size + rng.integers(0, size, n))
    elif layout == "disconnected":  # blocks that share no group
        block = rng.integers(0, draw(st.integers(2, 4)), n)
        codes = [block * size + rng.integers(0, size, n) for size in sizes]
    else:
        codes = [rng.integers(0, size, n) for size in sizes]
    k = draw(st.integers(1, 3))
    x = rng.normal(size=(n, k)) + sum(rng.normal(size=(c.max() + 1, k))[c] for c in codes)
    if layout == "duplicated":  # rows drawn with replacement from the sample
        take = rng.integers(0, n, draw(st.integers(n, 2 * n)))
        codes, x, n = [c[take] for c in codes], x[take], take.size
    w = rng.uniform(0.1, 3.0, n)
    if draw(st.booleans()):
        w[rng.random(n) < 0.25] = 0.0
    if draw(st.booleans()):  # every row of one cell
        i = rng.integers(n)
        w[np.all([c == c[i] for c in codes], axis=0)] = 0.0
    if draw(st.booleans()):  # every row of one group
        d = rng.integers(n_dims)
        w[codes[d] == codes[d][rng.integers(n)]] = 0.0
    assume(np.any(w > 0))
    return x, codes, w, rng


@settings(max_examples=100, deadline=None)
@given(case=absorb_cases())
def test_cell_solve_matches_dense_oracle(case):
    """The solve over cells matches explicit dummies, ignores row order and
    the order of the dimensions (which decides the one eliminated on a tie
    of group counts), and depends on the rows only through their cell sums:
    splitting every row into two at half weight gives the same result. So do
    the degrees of freedom it returns: the rank of the dummies for two
    dimensions, the convention for three."""
    x, codes, w, rng = case
    # The default stopping rule bounds group means, not entries, to 1e-10;
    # a tighter one leaves the comparison to the solve itself.
    got, dof = absorb_fixed_effects(x, codes, w, tol=1e-13)
    groups = [np.unique(c) for c in codes]
    if len(codes) == 2:
        dummies = np.column_stack([c[:, None] == g for c, g in zip(codes, groups)])
        assert dof == np.linalg.matrix_rank(dummies.astype(float))
    else:
        assert dof == sum(g.size for g in groups) - (len(groups) - 1)
    expected = dense_absorb(x, codes, w)
    pos = w > 0
    scale = np.abs(expected[pos]).max()
    assume(scale > 1e-6 * np.abs(x[pos]).max())  # the dummies do not span every column
    assert np.abs(got[pos] - expected[pos]).max() <= 1e-10 * scale

    order = rng.permutation(w.size)
    shuffled, shuffled_dof = absorb_fixed_effects(x[order], [c[order] for c in codes],
                                                  w[order], tol=1e-13)
    assert np.abs(shuffled - got[order]).max() <= 1e-10 * scale
    assert shuffled_dof == dof

    dims = rng.permutation(len(codes))
    permuted, permuted_dof = absorb_fixed_effects(x, [codes[d] for d in dims], w, tol=1e-13)
    assert np.abs(permuted[pos] - got[pos]).max() <= 1e-10 * scale
    assert permuted_dof == dof

    halves, halves_dof = absorb_fixed_effects(
        np.repeat(x, 2, axis=0), [np.repeat(c, 2) for c in codes], np.repeat(w / 2, 2),
        tol=1e-13)
    assert halves_dof == dof
    assert np.abs(halves[::2] - got).max() <= 1e-10 * scale
    assert np.abs(halves[1::2] - got).max() <= 1e-10 * scale


def schur_diagonals(codes, w):
    """The preconditioner's diagonal on the cells of ``codes``, set up as the
    solve sets it up, and the diagonal of the dense Schur complement
    D_r'W(I - P_e)D_r on those cells."""
    cell, coded = sorted_cells(codes)
    n_cells = coded[0][0].size
    cell_w = np.bincount(cell, weights=w, minlength=n_cells)
    e = max(range(len(coded)), key=lambda d: coded[d][1])
    eliminated, n_e = coded[e]
    rest = coded[:e] + coded[e + 1:]
    offsets = np.cumsum([0] + [g for _, g in rest])
    groups = np.array([c + o for (c, _), o in zip(rest, offsets)]).reshape(len(rest), n_cells)
    wsum_e = np.bincount(eliminated, weights=cell_w, minlength=n_e)
    got = _schur_diagonal(groups, eliminated, cell_w, np.where(wsum_e > 0, wsum_e, 1.0),
                          offsets[-1])
    D_r = np.zeros((n_cells, offsets[-1]))
    for row in groups:
        D_r[np.arange(n_cells), row] = 1.0
    D_e = (eliminated[:, None] == np.arange(n_e)).astype(float)
    means_e = np.divide(1.0, wsum_e, out=np.zeros(n_e), where=wsum_e > 0)
    P_e = D_e @ (means_e[:, None] * D_e.T * cell_w)  # weighted group means in e
    return got, np.diag(D_r.T @ (cell_w[:, None] * (D_r - P_e @ D_r)))


@settings(max_examples=100, deadline=None)
@given(case=absorb_cases())
def test_schur_diagonal_matches_dense_oracle(case):
    """The Jacobi preconditioner is the exact diagonal of the Schur
    complement the conjugate gradients solve, zero-weight cells and groups
    included."""
    _, codes, w, _ = case
    got, expected = schur_diagonals(codes, w)
    assert (got >= 0).all()
    assert np.abs(got - expected).max() <= 1e-12 * w.sum()


def test_three_dimension_pairs_are_summed_before_squaring():
    """In three dimensions a pair of a remaining and an eliminated group may
    hold several cells: here every (state, industry) pair holds one cell
    per year. The pair's weight enters the diagonal whole; squaring cell by
    cell would overstate what the industries explain."""
    rng = np.random.default_rng(42)
    n = 240
    state = rng.integers(0, 4, n)
    industry = state * 3 + rng.integers(0, 3, n)  # 12 industries, eliminated
    moved = rng.random(n) < 0.2
    industry[moved] = rng.integers(0, 12, moved.sum())
    year = np.arange(n) % 2
    codes = [state, industry, year]
    w = rng.uniform(0.5, 2.0, n)
    got, expected = schur_diagonals(codes, w)
    assert np.abs(got - expected).max() <= 1e-12 * w.sum()
    cell, coded = sorted_cells(codes)
    pairs = coded[0][0] * 12 + coded[1][0]
    assert np.unique(pairs).size < pairs.size  # pairs that hold several cells
    x = rng.normal(size=(n, 3)) + rng.normal(size=(4, 3))[state] \
        + rng.normal(size=(12, 3))[industry]
    absorbed, _ = absorb_fixed_effects(x, codes, w, tol=1e-13)
    reference = dense_absorb(x, codes, w)
    assert np.abs(absorbed - reference).max() <= 1e-10 * np.abs(reference).max()


def test_group_the_eliminated_dimension_spans_matches_dense_oracle():
    """State 0's rows sit in industries 0 and 1 alone, so each of its cells
    fills its industry: the industries, eliminated, span state 0 and its
    Schur diagonal is exactly 0. The preconditioner leaves that group out
    instead of dividing by zero, and the solve matches the dense oracle of
    ``test_cell_solve_matches_dense_oracle``, with no NaN."""
    rng = np.random.default_rng(43)
    state = np.r_[np.zeros(12, dtype=int), np.arange(60) % 2 + 1]
    industry = np.r_[np.arange(12) % 2, rng.integers(2, 10, 60)]
    codes = [state, industry]
    w = rng.uniform(0.5, 2.0, state.size)
    got, expected = schur_diagonals(codes, w)
    assert got[0] == 0.0 and (got[1:] > 0).all()
    assert np.abs(got - expected).max() <= 1e-12 * w.sum()
    x = rng.normal(size=(state.size, 3)) + rng.normal(size=(3, 3))[state]
    absorbed, dof = absorb_fixed_effects(x, codes, w, tol=1e-13)
    assert np.isfinite(absorbed).all()
    reference = dense_absorb(x, codes, w)
    assert np.abs(absorbed - reference).max() <= 1e-10 * np.abs(reference).max()
    assert dof == 3 + 10 - 2  # two components: {state 0, industries 0-1} and the rest


class TestHc1:
    def test_close_to_classical_under_homoskedasticity(self):
        rng = np.random.default_rng(18)
        n = 20_000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 2.0]) + rng.normal(size=n)
        fit = wls_fit(*make(y, X, np.ones(n), labels=["c", "x"]))
        sigma2 = fit.weighted_rss / fit.dof
        classical = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
        assert fit.robust_se["x"] == pytest.approx(classical, rel=0.05)

    def test_hand_rolled_sandwich_oracle(self):
        rng = np.random.default_rng(19)
        n, p = 30, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        w = rng.uniform(0.2, 2.0, size=n)
        y = rng.normal(size=n)
        fit = wls_fit(*make(y, X, w))
        b = normal_equations(y, X, w)
        e = y - X @ b
        A = (X * w[:, None]).T @ X
        meat = (X * (w * e)[:, None]).T @ (X * (w * e)[:, None]) * n / (n - p)
        V = np.linalg.inv(A) @ meat @ np.linalg.inv(A)
        np.testing.assert_allclose(
            [fit.robust_se[f"x{j}"] for j in range(p)], np.sqrt(np.diag(V)), rtol=1e-10
        )

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e9])
    def test_near_collinear_matches_exact_oracle(self, kappa):
        """Two columns 2/kappa apart under uneven weights and heteroskedastic
        errors: the screen keeps all three, and the SEs match the exact
        rational HC1 to 1e-6 while the weighted design's condition number
        runs up to about 1e9; its square, that of X'WX, is far past the
        1 / eps of a double."""
        rng = np.random.default_rng(int(np.log10(kappa)))
        n = 40
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x, x + 2 / kappa * rng.normal(size=n)])
        w = np.exp(rng.normal(size=n))
        y = X @ np.array([0.5, 1.0, -1.0]) + (1 + x * x) * rng.normal(size=n)
        assert kappa / 3 <= np.linalg.cond(X * np.sqrt(w)[:, None]) <= 3 * kappa
        fit = wls_fit(*make(y, X, w))
        assert fit.dropped_columns == []
        _, se = exact_wls_hc1(y, X, w)
        got = [fit.robust_se[f"x{j}"] for j in range(3)]
        np.testing.assert_allclose(got, se, rtol=1e-6)
        np.testing.assert_array_equal(np.sqrt(np.diag(fit.robust_cov)), got)

    def test_exact_oracle_with_extra_dof_and_zero_weights(self):
        rng = np.random.default_rng(22)
        n, p = 30, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        w = rng.uniform(0.2, 2.0, size=n)
        w[:5] = 0.0
        y = rng.normal(size=n)
        fit = wls_fit(*make(y, X, w), extra_dof=3)
        b, se = exact_wls_hc1(y, X, w, extra_dof=3)
        assert fit.dof == n - 5 - p - 3
        np.testing.assert_allclose([fit.coefficients[f"x{j}"] for j in range(p)], b, rtol=1e-12)
        np.testing.assert_allclose([fit.robust_se[f"x{j}"] for j in range(p)], se, rtol=1e-12)

    @pytest.mark.parametrize("extra_dof", [0, 2])
    def test_no_dof_gives_nan_ses_with_a_note(self, extra_dof):
        rng = np.random.default_rng(23)
        n = 3 + (extra_dof > 0)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        fit = wls_fit(*make(rng.normal(size=n), X, np.ones(n)), extra_dof=extra_dof)
        assert fit.dof == n - 3 - extra_dof <= 0
        assert all(np.isfinite(v) for v in fit.coefficients.values())
        assert all(np.isnan(v) for v in fit.robust_se.values())
        assert np.isnan(fit.robust_cov).all() and fit.robust_cov.shape == (3, 3)
        assert fit.notes == [f"no residual degrees of freedom (n={n}, p=3): SEs not available"]


def test_fwl_partition_property_random():
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(25, 90))
        p = int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = rng.normal(size=n)
        w = rng.uniform(0.1, 3.0, size=n)
        target = int(rng.integers(0, p))
        labels = [f"x{j}" for j in range(p)]
        joint = wls_fit(*make(y, X, w, labels=labels))
        others = [j for j in range(p) if j != target]
        x_p = residualize(X[:, target], X[:, others], w)
        y_p = residualize(y, X[:, others], w)
        partial = np.sum(w * x_p * y_p) / np.sum(w * x_p * x_p)
        assert joint.coefficients[labels[target]] == pytest.approx(partial, rel=1e-9, abs=1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(21)
    y, X, w = random_problem(rng)
    a = wls_fit(*make(y, X, w))
    b = wls_fit(*make(y.copy(), X.copy(), w.copy()))
    assert a.coefficients == b.coefficients
    assert a.robust_se == b.robust_se


# Every entry point on the columns a, b, c and weights w, and the name its
# input gate gives column c.
GATED = {
    "wls_fit": (lambda a, b, c, w: wls_fit(a, np.column_stack([b, c]), ["b", "c"], w), "c"),
    "iv_fit": (lambda a, b, c, w: iv_fit(a, b, c, [("one", np.ones(a.size))], w), "instrument"),
    "residualize": (lambda a, b, c, w: residualize(a, np.column_stack([b, c]), w), "on[:, 1]"),
    "absorb_fixed_effects": (
        lambda a, b, c, w: absorb_fixed_effects(np.column_stack([a, b, c]),
                                                [np.arange(a.size) % 3], w),
        "columns[:, 2]"),
}


@pytest.mark.parametrize("entry", sorted(GATED))
class TestGate:
    """wls_fit, iv_fit, residualize and absorb_fixed_effects refuse the same
    inputs with the same messages."""

    @staticmethod
    def columns():
        return np.random.default_rng(28).normal(size=(3, 12))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named_by_column_and_row(self, entry, bad):
        fit, name = GATED[entry]
        a, b, c = self.columns()
        fit(a, b, c, np.ones(12))  # the clean columns pass
        c[5] = bad
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(name)} must be finite, got {bad} in row 5$"):
            fit(a, b, c, np.ones(12))

    @pytest.mark.parametrize("weights, message", [
        (np.ones(13), "^weights length 13 does not match sample size 12$"),
        (np.zeros(12), "^all weights are zero$"),
        (np.r_[-1.0, np.ones(11)], "^weights must be nonnegative$"),
        (np.r_[np.nan, np.ones(11)], "^weights must be finite$"),
    ])
    def test_bad_weights_refused(self, entry, weights, message):
        with pytest.raises(ConfigurationError, match=message):
            GATED[entry][0](*self.columns(), weights)


def test_labels_given_twice_refused():
    a, b, c = np.random.default_rng(29).normal(size=(3, 12))
    with pytest.raises(ConfigurationError, match=r"^label 'b' given twice$"):
        wls_fit(a, np.column_stack([b, c]), ["b", "b"], np.ones(12))
    with pytest.raises(ConfigurationError, match=r"^label 'one' given twice$"):
        iv_fit(a, b, c, [("one", np.ones(12)), ("one", c)], np.ones(12))
    with pytest.raises(ConfigurationError, match=r"^3 labels for 2 columns$"):
        wls_fit(a, np.column_stack([b, c]), ["b", "c", "d"], np.ones(12))
    # a label may repeat the name of a fitted column: names are only for messages
    fit = iv_fit(a, b, c, [("one", np.ones(12)), ("treatment", a + c)], np.ones(12))
    assert set(fit.control_coefficients) == {"one", "treatment"}
