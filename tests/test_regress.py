"""Regression engine against independent brute-force oracles."""

import numpy as np
import pytest

from oracles import dense_absorb, dense_tsls
from rdagg.errors import ConfigurationError, ConvergenceError
from rdagg.regress import (
    FE_MAX_ITER,
    FE_TOL,
    RegressionProblem,
    absorb_fixed_effects,
    fixed_effect_dof,
    hc1_cov,
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
    labels = labels or [f"x{j}" for j in range(X.shape[1])]
    return RegressionProblem(y, X, labels, w)


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
        fit = wls_fit(make(np.array([1.0, 2.0, 3.0]), np.ones((3, 1)), np.ones(3)))
        assert fit.coefficients["x0"] == pytest.approx(2.0, abs=1e-14)

    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = 2.0 * x
        X = np.column_stack([np.ones(4), x])
        fit = wls_fit(make(y, X, np.ones(4), labels=["const", "x"]))
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficients["const"] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-12
        assert all(se == pytest.approx(0.0, abs=1e-12) for se in fit.robust_se.values())

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y, X, w = random_problem(rng)
            fit = wls_fit(make(y, X, w))
            expected = normal_equations(y, X, w)
            got = np.array([fit.coefficients[f"x{j}"] for j in range(4)])
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_residuals_weight_orthogonal(self):
        rng = np.random.default_rng(1)
        y, X, w = random_problem(rng)
        fit = wls_fit(make(y, X, w))
        for j in range(X.shape[1]):
            scale = np.linalg.norm(X[:, j])
            assert abs(np.sum(w * fit.residuals * X[:, j])) <= 1e-8 * scale

    def test_collinear_column_dropped_in_order(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        X = np.column_stack([np.ones(30), x, 2 * x])
        fit = wls_fit(make(rng.normal(size=30), X, np.ones(30), labels=["c", "x", "x2"]))
        assert fit.dropped_columns == ["x2"]
        assert np.isnan(fit.coefficients["x2"])

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        y, X, w = random_problem(rng)
        a = wls_fit(make(y, X, w))
        b = wls_fit(make(y, X, 17.5 * w))
        for lab in a.coefficients:
            assert a.coefficients[lab] == pytest.approx(b.coefficients[lab], rel=1e-10)
            assert a.robust_se[lab] == pytest.approx(b.robust_se[lab], rel=1e-10)

    def test_zero_weight_rows_ignored(self):
        rng = np.random.default_rng(4)
        y, X, w = random_problem(rng, n=60)
        w[:10] = 0.0
        full = wls_fit(make(y, X, w))
        trimmed = wls_fit(make(y[10:], X[10:], w[10:]))
        for lab in full.coefficients:
            assert full.coefficients[lab] == pytest.approx(trimmed.coefficients[lab], rel=1e-10)
        assert full.n_obs == trimmed.n_obs == 50

    def test_errors_are_distinct(self):
        with pytest.raises(ConfigurationError, match="empty sample"):
            wls_fit(make(np.array([]), np.empty((0, 1)), np.array([])))
        with pytest.raises(ConfigurationError, match="all weights are zero"):
            wls_fit(make(np.array([1.0, 2.0]), np.ones((2, 1)), np.zeros(2)))
        with pytest.raises(ConfigurationError, match="does not match"):
            wls_fit(make(np.array([1.0, 2.0, 3.0]), np.ones((2, 1)), np.ones(2)))


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
        ols = wls_fit(make(y, X, w, labels=labels))
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

        for name in ("_screen_columns", "hc1_cov"):
            monkeypatch.setattr(regress, name, counted(name))
        rng = np.random.default_rng(41)
        n = 60
        W = np.column_stack([np.ones(n), rng.normal(size=n)])
        z = rng.normal(size=n)
        iv_fit(rng.normal(size=n), z + rng.normal(size=n), z, columns(W, ["c", "w1"]),
               np.ones(n))
        assert calls == ["_screen_columns"]

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
                assert np.isnan(fs.partial_f)
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
            seen.add(kind)
        assert seen == set(kinds)


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
                make(y, np.column_stack([x, W]), w, labels=["x", "c", "a", "b", "d"])
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

    def test_single_group_demeans(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=30)
        w = rng.uniform(0.5, 2.0, size=30)
        out = absorb_fixed_effects(x, ["g"] * 30, w)
        np.testing.assert_allclose(out, x - np.sum(w * x) / np.sum(w), atol=1e-12)

    def test_single_dimension_at_large_scale(self):
        # the stopping check once saw rounding of 1e-7 on a column of 1e9
        # and swept until it raised ConvergenceError
        rng = np.random.default_rng(25)
        x = rng.normal(size=60)
        keys = [f"g{v}" for v in rng.integers(0, 4, size=60)]
        w = rng.uniform(0.5, 2.0, size=60)
        got = absorb_fixed_effects(1e9 * x, keys, w)
        np.testing.assert_allclose(got, 1e9 * absorb_fixed_effects(x, keys, w), rtol=1e-10)

    def test_column_spanned_by_fixed_effects_becomes_zero(self):
        rng = np.random.default_rng(26)
        g = rng.integers(0, 5, size=50)
        level = rng.normal(size=5)[g] * 1e3
        cols = np.column_stack([level, rng.normal(size=50)])
        out = absorb_fixed_effects(cols, [str(v) for v in g], rng.uniform(0.5, 2.0, size=50))
        assert np.all(out[:, 0] == 0.0) and np.all(out[:, 1] != 0.0)

    def test_coinciding_dimensions_match_single(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=40)
        keys = [str(i % 4) for i in range(40)]
        w = np.ones(40)
        one = absorb_fixed_effects(x, keys, w)
        two = absorb_fixed_effects(x, [keys, list(keys)], w)
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
        absorbed = absorb_fixed_effects(np.column_stack([y, x]), keys, w)
        fit_a = wls_fit(make(absorbed[:, 0], absorbed[:, 1:], w, labels=["x1", "x2"]))
        dummies = np.column_stack(
            [(g1 == v).astype(float) for v in range(6)]
            + [(g2 == v).astype(float) for v in range(5)]
        )
        X_full = np.column_stack([x, dummies])
        labels = ["x1", "x2"] + [f"d{j}" for j in range(dummies.shape[1])]
        fit_b = wls_fit(make(y, X_full, w, labels=labels))
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
            absorb_fixed_effects(np.arange(4.0), keys, np.ones(4))
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            fixed_effect_dof(keys)

    def test_dof_counting(self):
        assert fixed_effect_dof(["a", "b", "a"]) == 2
        assert fixed_effect_dof([["a", "b", "a"], ["x", "x", "y"]]) == 3

    def test_dof_counts_disconnected_components(self):
        # {a, b, x, y} and {c, z} are separate components: 6 groups - 2.
        assert fixed_effect_dof([["a", "a", "b", "c"], ["x", "y", "x", "z"]]) == 4
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
            assert fixed_effect_dof(keys) == np.linalg.matrix_rank(dummies)


class TestAbsorbMatchesAddAtLoop:
    """absorb_fixed_effects against the np.add.at loop, to the bit, for one
    dimension; against the dense dummy oracle for two or more, on the rows
    of positive weight (rows of zero weight are not identified)."""

    @staticmethod
    def assert_matches_dense(x, key_sets, w, rtol, **kwargs):
        expected = dense_absorb(x, key_sets, w)
        got = absorb_fixed_effects(x, key_sets, w, **kwargs)
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
            assert np.array_equal(absorb_fixed_effects(x, key_sets[0], w), expected)
        else:
            self.assert_matches_dense(x, key_sets, w, rtol=1e-10)
            self.assert_matches_dense(x, key_sets, w, rtol=1e-12, tol=1e-13)

    def test_one_dimensional_column_stays_one_dimensional(self):
        x, key_sets, w = nested_panel(np.random.default_rng(34), n=120)
        expected, _ = reference_absorb(x[:, 0], key_sets[:1], w)
        got = absorb_fixed_effects(x[:, 0], key_sets[0], w)
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
        assert np.array_equal(absorb_fixed_effects(x, key_sets[1], w), expected)
        self.assert_matches_dense(x, key_sets, w, rtol=1e-10)
        self.assert_matches_dense(x, key_sets, w, rtol=1e-12, tol=1e-13)

    def test_slow_converging_panel(self):
        # 306 alternating-projection sweeps, 20 conjugate-gradient iterations
        x, key_sets, w = nested_panel(np.random.default_rng(7))
        _, sweeps = reference_absorb(x, key_sets, w)
        assert sweeps > 100
        self.assert_matches_dense(x, key_sets, w, rtol=1e-10, max_iter=60)
        self.assert_matches_dense(x, key_sets, w, rtol=1e-12, tol=1e-13)

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
        base = absorb_fixed_effects(x, key_sets, w)
        got = absorb_fixed_effects(scale * x, key_sets, w, max_iter=60)
        assert np.abs(got - scale * base).max() <= 1e-10 * np.abs(scale * base).max()


class TestHc1:
    def test_close_to_classical_under_homoskedasticity(self):
        rng = np.random.default_rng(18)
        n = 20_000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 2.0]) + rng.normal(size=n)
        fit = wls_fit(make(y, X, np.ones(n), labels=["c", "x"]))
        sigma2 = fit.weighted_rss / fit.dof
        classical = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
        assert fit.robust_se["x"] == pytest.approx(classical, rel=0.05)

    def test_hand_rolled_sandwich_oracle(self):
        rng = np.random.default_rng(19)
        n, p = 30, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        w = rng.uniform(0.2, 2.0, size=n)
        y = rng.normal(size=n)
        fit = wls_fit(make(y, X, w))
        b = normal_equations(y, X, w)
        e = y - X @ b
        A = (X * w[:, None]).T @ X
        meat = (X * (w * e)[:, None]).T @ (X * (w * e)[:, None]) * n / (n - p)
        V = np.linalg.inv(A) @ meat @ np.linalg.inv(A)
        np.testing.assert_allclose(
            [fit.robust_se[f"x{j}"] for j in range(p)], np.sqrt(np.diag(V)), rtol=1e-10
        )

    def test_dof_error(self):
        with pytest.raises(ConfigurationError, match="degrees of freedom"):
            hc1_cov(np.ones((2, 2)), np.zeros(2), np.ones(2))


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
        joint = wls_fit(make(y, X, w, labels=labels))
        others = [j for j in range(p) if j != target]
        x_p = residualize(X[:, target], X[:, others], w)
        y_p = residualize(y, X[:, others], w)
        partial = np.sum(w * x_p * y_p) / np.sum(w * x_p * x_p)
        assert joint.coefficients[labels[target]] == pytest.approx(partial, rel=1e-9, abs=1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(21)
    y, X, w = random_problem(rng)
    a = wls_fit(make(y, X, w))
    b = wls_fit(make(y.copy(), X.copy(), w.copy()))
    assert a.coefficients == b.coefficients
    assert a.robust_se == b.robust_se
