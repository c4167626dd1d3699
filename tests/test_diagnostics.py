"""Balance reports, plot bins, variance splits, counterfactual arithmetic."""

import warnings

import numpy as np
import pytest

from rdagg.design import (
    Design,
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    design_exposures,
)
from rdagg.diagnostics import (
    Z_CRITICAL_5PCT,
    balance,
    counterfactual_path,
    rd_plot_data,
    variance_decomposition,
)
from rdagg.errors import ConfigurationError, EstimationError, IntegrityError
from rdagg.estimators import upper_iv


def sub(sid, uid, r, s=1.0):
    return SubunitRecord(sid, uid, r, s)


class TestBalance:
    def synthetic_units(self, rng, n=600, confounded=True):
        """Instrument is a coin flip within the close set: covariates predict
        exposure (how much weight sits near the cutoff) but not which side."""
        units, subs = [], []
        for i in range(n):
            uid = f"u{i:04d}"
            exposure = float(rng.uniform(0.5, 2.0))
            J = int(rng.integers(2, 7))
            for j in range(J):
                r = float(rng.normal() * (0.08 if rng.random() < exposure / 2 else 1.0))
                subs.append(sub(f"{uid}-s{j}", uid, r, exposure / J))
            covs = {
                f"c{k}": exposure + float(rng.normal() * 0.3) if confounded and k < 3
                else float(rng.normal())
                for k in range(6)
            }
            units.append(UnitRecord(uid, 0.0, extra_controls=covs))
        return units, subs

    def test_exact_linear_relation_gives_r2_one(self):
        rng = np.random.default_rng(0)
        units, subs = [], []
        for i in range(80):
            uid = f"u{i:03d}"
            c = float(rng.normal())
            units.append(
                UnitRecord(uid, 0.0, extra_controls={"c": c}, treatment_override=2.0 * c)
            )
            subs.append(sub(f"{uid}-s0", uid, float(rng.normal())))
        cfg = DesignConfig(control_set="none")
        rep = balance(Design.from_records(units, subs), cfg, target="treatment",
                      covariates=["c"])
        assert rep.partial_r2 == pytest.approx(1.0, abs=1e-10)
        assert rep.n_significant == 1

    def test_orthogonal_covariates_near_zero_r2(self):
        rng = np.random.default_rng(1)
        pvals = []
        for draw in range(30):
            units, subs = [], []
            for i in range(150):
                uid = f"u{i:03d}"
                units.append(UnitRecord(uid, 0.0, extra_controls={"c": float(rng.normal())}))
                subs.append(sub(f"{uid}-s0", uid, float(rng.normal())))
            cfg = DesignConfig(bandwidth=0.5)
            rep = balance(Design.from_records(units, subs), cfg, target="instrument",
                          covariates=["c"])
            assert rep.partial_r2 < 0.08
            pvals.append(rep.partial_f_pvalue)
        # p-values should spread out rather than cluster at zero
        assert min(pvals) < 0.5 < max(pvals)
        assert np.mean(np.array(pvals) < 0.05) < 0.34

    def test_aggregated_controls_absorb_exposure_confounding(self):
        rng = np.random.default_rng(2)
        units, subs = self.synthetic_units(rng)
        data = Design.from_records(units, subs)
        raw = balance(data, DesignConfig(bandwidth=0.1, control_set="none"), target="instrument")
        controlled = balance(data, DesignConfig(bandwidth=0.1), target="instrument")
        assert controlled.partial_r2 < raw.partial_r2 / 5
        assert controlled.n_significant <= raw.n_significant
        assert raw.n_significant >= 2

    def test_partial_r2_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        units, subs = self.synthetic_units(rng, n=200)
        cfg = DesignConfig(bandwidth=0.1)
        rep = balance(Design.from_records(units, subs), cfg, target="instrument")

        order = sorted(units, key=lambda u: u.unit_id)
        exposures = design_exposures(Design.from_records(order, subs), cfg)
        z = exposures.instrument
        Q = exposures.controls
        C = np.column_stack([[u.extra_controls[f"c{k}"] for u in order] for k in range(6)])
        ones = np.ones(len(order))

        def rss(design):
            b, *_ = np.linalg.lstsq(design, z, rcond=None)
            e = z - design @ b
            return float(e @ e)

        rss_r = rss(np.column_stack([Q, ones]))
        rss_f = rss(np.column_stack([C, Q, ones]))
        assert rep.partial_r2 == pytest.approx((rss_r - rss_f) / rss_r, abs=1e-10)
        assert 0.0 <= rep.partial_r2 <= 1.0

    def test_missing_covariates_dropped_with_count(self):
        rng = np.random.default_rng(4)
        units, subs = [], []
        for i in range(50):
            uid = f"u{i:03d}"
            extra = {"c": float(rng.normal())} if i % 5 else {}
            units.append(UnitRecord(uid, 0.0, extra_controls=extra))
            subs.append(sub(f"{uid}-s0", uid, float(rng.normal())))
        rep = balance(Design.from_records(units, subs), DesignConfig(), target="instrument",
                      covariates=["c"])
        assert rep.n_dropped == 10
        assert rep.n_obs == 40

    def test_subunits_of_unknown_unit_refused(self):
        # balance once dropped them silently (n_dropped=0) while every
        # estimator on the partition graph refused the same design
        rng = np.random.default_rng(9)
        units = [UnitRecord(f"u{i:03d}", 0.0, extra_controls={"c": float(rng.normal())})
                 for i in range(8)]
        subs = [sub(f"{u.unit_id}-s0", u.unit_id, float(rng.normal())) for u in units]
        subs += [sub(f"ghost-s{j}", "ghost", float(rng.normal())) for j in range(3)]
        graph = SpilloverGraph(tuple((s.unit_id, s.subunit_id) for s in subs[:8]))
        data = Design.from_records(units, subs, graph)
        with pytest.raises(IntegrityError, match="ghost-s0"):
            upper_iv(data, DesignConfig())
        with pytest.raises(IntegrityError, match="ghost-s0"):
            balance(data, DesignConfig(), covariates=["c"])

    def test_classical_f_available(self):
        rng = np.random.default_rng(5)
        units, subs = self.synthetic_units(rng, n=150)
        rep = balance(Design.from_records(units, subs), DesignConfig(bandwidth=0.1),
                      target="instrument", classical_f=True)
        assert np.isfinite(rep.partial_f) and 0.0 <= rep.partial_f_pvalue <= 1.0

    @pytest.mark.parametrize("classical_f", [False, True])
    def test_p_values_match_scipy_tails(self, classical_f):
        from scipy import stats

        rng = np.random.default_rng(6)
        units, subs = self.synthetic_units(rng, n=150)
        rep = balance(Design.from_records(units, subs), DesignConfig(bandwidth=0.1),
                      target="instrument", classical_f=classical_f)
        assert rep.dropped_columns == []
        k = len(rep.covariates)
        if classical_f:
            # covariates, the three aggregated controls and the intercept
            dof = rep.n_obs - k - 3 - 1
            want = stats.f.sf(rep.partial_f, k, dof)
        else:
            want = stats.chi2.sf(rep.partial_f * k, k)
        assert 0.0 < want < 1.0
        assert rep.partial_f_pvalue == pytest.approx(float(want), rel=1e-12)

    def test_critical_value_is_the_normal_quantile(self):
        from scipy import stats

        assert Z_CRITICAL_5PCT == float(stats.norm.ppf(0.975))


class TestRdPlot:
    def test_equal_weights_two_per_bin(self):
        pts = [(-(i + 1) / 100, 1.0, 1.0) for i in range(40)]
        pts += [((i + 1) / 100, 2.0, 1.0) for i in range(40)]
        data = rd_plot_data(pts, n_bins_per_side=20)
        assert len(data.bins) == 40
        assert all(b.n_obs == 2 for b in data.bins)

    def test_single_observation_per_side(self):
        data = rd_plot_data([(-0.5, 1.0, 1.0), (0.5, 2.0, 1.0)], n_bins_per_side=20)
        assert len(data.bins) == 2
        assert data.notices

    def test_weight_balance_property(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(50, 400))
            pts = [
                (float(rng.uniform(-1, 1)) or 0.01, float(rng.normal()),
                 float(rng.uniform(0.1, 4.0)))
                for _ in range(n)
            ]
            n_bins = int(rng.integers(2, 15))
            data = rd_plot_data(pts, n_bins_per_side=n_bins)
            for side in ("left", "right"):
                side_bins = [b for b in data.bins if b.side == side]
                total = sum(b.weight for b in side_bins)
                target = total / len(side_bins)
                max_w = max(w for r, v, w in pts if (r >= 0) == (side == "right"))
                for b in side_bins:
                    assert abs(b.weight - target) <= max_w + 1e-9

    def test_lines_recover_linear_jump(self):
        rng = np.random.default_rng(7)
        pts = []
        for _ in range(2000):
            r = float(rng.uniform(-1, 1))
            y = 1.0 + 0.5 * r + 2.0 * (r >= 0) + 0.7 * r * (r >= 0)
            pts.append((r, y, 1.0))
        data = rd_plot_data(pts)
        assert data.jump == pytest.approx(2.0, abs=1e-9)
        assert data.left_line == pytest.approx((1.0, 0.5), abs=1e-9)
        assert data.right_line == pytest.approx((3.0, 1.2), abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pts = [
            (float(rng.uniform(-1, 1)), float(rng.normal()), float(rng.uniform(0.5, 2)),
             f"id{i:03d}")
            for i in range(100)
        ]
        a = rd_plot_data(pts, n_bins_per_side=7)
        order = rng.permutation(len(pts))
        b = rd_plot_data([pts[i] for i in order], n_bins_per_side=7)
        assert [(x.side, x.running, x.value, x.weight) for x in a.bins] == [
            (x.side, x.running, x.value, x.weight) for x in b.bins
        ]

    def test_heavy_point_leaves_no_empty_bin(self):
        # The left side's last point carries 100 of its 119 weight, so it
        # fills all five bin targets at once; the four empty bins came out
        # as NaN rows with a RuntimeWarning.
        pts = [(-(i + 1) / 100, 1.0, 100.0 if i == 0 else 1.0) for i in range(20)]
        pts += [((i + 1) / 100, 2.0, 1.0) for i in range(20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = rd_plot_data(pts, n_bins_per_side=5)
        left = [b for b in data.bins if b.side == "left"]
        assert len(left) == 1 and left[0].n_obs == 20
        assert len(data.bins) == 6
        assert all(np.isfinite([b.running, b.value, b.weight]).all() for b in data.bins)
        assert data.notices == ["left side: 1 of 5 bins have observations; empty bins omitted"]

    def test_one_sided_input_rejected(self):
        with pytest.raises(EstimationError, match="both sides"):
            rd_plot_data([(0.1, 1.0, 1.0), (0.2, 1.0, 1.0)])


class TestVarianceDecomposition:
    def test_constant_values(self):
        got = variance_decomposition([("a", 2.0, 1.0), ("b", 2.0, 3.0)])
        assert (got.total, got.within, got.between) == (0.0, 0.0, 0.0)

    def test_pure_between(self):
        got = variance_decomposition(
            [("a", 1.0, 1.0), ("a", 1.0, 1.0), ("b", 3.0, 2.0)]
        )
        assert got.within == 0.0
        assert got.between == pytest.approx(got.total)
        assert got.total > 0

    def test_identity_on_random_records(self):
        rng = np.random.default_rng(9)
        records = [
            (f"cell{int(rng.integers(0, 30))}", float(rng.normal()), float(rng.uniform(0.1, 5)))
            for _ in range(1000)
        ]
        got = variance_decomposition(records)
        assert got.within + got.between == pytest.approx(got.total, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            variance_decomposition([])


class TestCounterfactual:
    def test_zero_effect_is_identity(self):
        got = counterfactual_path([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], 0.0, (-0.1, 0.1))
        assert got.counterfactual == [1.0, 2.0, 3.0]
        assert got.contribution == pytest.approx(0.0)

    def test_zero_shortfall_is_identity(self):
        got = counterfactual_path([1.0, 2.0], [0.0, 0.0], -0.5, (-0.8, -0.2))
        assert got.counterfactual == [1.0, 2.0]

    def test_published_inequality_row(self):
        # actual 0.272 -> 0.385; effect -0.176 with the cumulative shortfall
        # sized so the 2010 counterfactual is 0.346; contribution 34.5%
        beta = -0.176
        cum = (0.346 - 0.385) / beta
        got = counterfactual_path(
            [0.272, 0.385], [0.0, cum], beta, (-0.325, -0.035)
        )
        assert got.counterfactual[-1] == pytest.approx(0.346, abs=1e-12)
        assert got.contribution == pytest.approx(0.345, abs=0.001)

    def test_exact_identity_and_ci_ordering(self):
        rng = np.random.default_rng(10)
        actual = rng.normal(size=8).cumsum().tolist()
        shortfall = rng.uniform(0, 1, size=8).tolist()
        beta, ci = -0.4, (-0.7, -0.1)
        got = counterfactual_path(actual, shortfall, beta, ci, cumulative=False)
        cum = np.cumsum(shortfall)
        for t in range(8):
            assert got.counterfactual[t] == pytest.approx(actual[t] + beta * cum[t], rel=1e-12)
            assert got.ci_lo[t] <= got.counterfactual[t] <= got.ci_hi[t]

    def test_zero_actual_change_reported_undefined(self):
        got = counterfactual_path([1.0, 1.0], [0.0, 2.0], -0.3, (-0.5, -0.1))
        assert got.contribution is None
        assert any("undefined" in n for n in got.notes)
