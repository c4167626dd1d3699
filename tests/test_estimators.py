"""Estimator behavior: exact identities, reductions, spillovers, gap checks."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import dense_tsls
from rdagg.design import (
    AttributeFilter,
    Design,
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    design_exposures,
    design_stack,
)
from rdagg.errors import ConfigurationError, EstimationError
from rdagg.regress import Z_CRITICAL_5PCT
from rdagg.estimators import collapsed_iv, equivalence, sharp_rd, stacked_iv, upper_iv
from rdagg import design, estimators
from rdagg.simlab import (DgpSpec, generate_design, generate_dgp, mc_design_config,
                          run_monte_carlo)


def sub(sid, uid, r, s=1.0, **kw):
    return SubunitRecord(sid, uid, r, s, **kw)


def random_bundle(rng, n_units=50, max_j=8, extras=0, fe=False, weights=False,
                  override_share=0.0):
    units, subs = [], []
    for i in range(n_units):
        uid = f"u{i:03d}"
        extra = {f"c{k}": float(rng.normal()) for k in range(extras)}
        units.append(
            UnitRecord(
                uid,
                float(rng.normal()),
                extra_controls=extra,
                fe_keys={"g": str(rng.integers(0, 3))} if fe else {},
                analysis_weight=float(rng.uniform(0.5, 2.0)) if weights else 1.0,
                treatment_override=(
                    float(rng.normal()) if rng.random() < override_share else None
                ),
            )
        )
        for j in range(int(rng.integers(1, max_j + 1))):
            subs.append(sub(f"{uid}-s{j}", uid, float(rng.normal()), float(rng.uniform(0.2, 2.0))))
    return units, subs


class TestUpper:
    def test_exact_model_recovery(self):
        rng = np.random.default_rng(0)
        units, subs = [], []
        beta = 1.5
        for i in range(60):
            uid = f"u{i:03d}"
            J = int(rng.integers(1, 6))
            rs = rng.normal(size=J)
            ss = rng.uniform(0.2, 1.0, size=J)
            for j in range(J):
                subs.append(sub(f"{uid}-s{j}", uid, float(rs[j]), float(ss[j])))
            close = np.abs(rs) <= 0.5
            z = (rs >= 0).astype(float)
            x = float(np.sum(ss * z))
            q = (
                float(np.sum(ss[close])),
                float(np.sum((ss * rs)[close])),
                float(np.sum((ss * rs * z)[close])),
            )
            y = beta * x + 0.7 * q[0] - 0.4 * q[1] + 0.2 * q[2] + 0.05
            units.append(UnitRecord(uid, y))
        got = upper_iv(Design.from_records(units, subs), DesignConfig(bandwidth=0.5))
        assert got.beta == pytest.approx(beta, abs=1e-8)
        assert np.max(np.abs([got.beta - beta])) < 1e-8

    def test_just_identified_identity(self):
        rng = np.random.default_rng(1)
        units, subs = random_bundle(rng, extras=2, weights=True)
        got = upper_iv(Design.from_records(units, subs), DesignConfig(bandwidth=0.8))
        assert got.beta == pytest.approx(
            got.reduced_form.coefficient / got.first_stage.coefficient, rel=1e-10
        )

    def test_none_controls_without_intercept_rejected(self):
        rng = np.random.default_rng(2)
        units, subs = random_bundle(rng, n_units=20)
        cfg = DesignConfig(control_set="none", include_intercept=False)
        with pytest.raises(ConfigurationError, match="unidentified"):
            upper_iv(Design.from_records(units, subs), cfg)

    def test_triangular_kernel_rejected(self):
        rng = np.random.default_rng(3)
        units, subs = random_bundle(rng, n_units=20)
        with pytest.raises(ConfigurationError, match="uniform"):
            upper_iv(Design.from_records(units, subs), DesignConfig(kernel="triangular"))

    def test_importance_rescaling(self):
        # With a fixed (externally supplied) treatment, rescaling all
        # importance weights rescales the instrument and controls together and
        # leaves beta unchanged. With the aggregated treatment, the treatment
        # itself rescales, so beta rescales by exactly 1/c (a units change).
        rng = np.random.default_rng(4)
        units, subs = random_bundle(rng, n_units=40, override_share=1.0)
        cfg = DesignConfig(bandwidth=0.7)
        c = 3.7
        scaled_subs = [
            SubunitRecord(s.subunit_id, s.unit_id, s.running, c * s.importance)
            for s in subs
        ]
        base = upper_iv(Design.from_records(units, subs), cfg)
        scaled = upper_iv(Design.from_records(units, scaled_subs), cfg)
        assert scaled.beta == pytest.approx(base.beta, rel=1e-10)
        low_a = stacked_iv(Design.from_records(units, subs), cfg)
        low_b = stacked_iv(Design.from_records(units, scaled_subs), cfg)
        assert low_b.beta == pytest.approx(low_a.beta, rel=1e-10)

        agg_units, agg_subs = random_bundle(rng, n_units=40)
        agg_scaled = [
            SubunitRecord(s.subunit_id, s.unit_id, s.running, c * s.importance)
            for s in agg_subs
        ]
        up_a = upper_iv(Design.from_records(agg_units, agg_subs), cfg)
        up_b = upper_iv(Design.from_records(agg_units, agg_scaled), cfg)
        assert up_b.beta == pytest.approx(up_a.beta / c, rel=1e-10)
        lo_a = stacked_iv(Design.from_records(agg_units, agg_subs), cfg)
        lo_b = stacked_iv(Design.from_records(agg_units, agg_scaled), cfg)
        assert lo_b.beta == pytest.approx(lo_a.beta / c, rel=1e-10)


class TestLower:
    def test_degenerate_single_row_non_finite(self):
        units = [UnitRecord("u", 1.0)]
        subs = [sub("u-s0", "u", 0.05, 1.0)]
        got = stacked_iv(Design.from_records(units, subs), DesignConfig(bandwidth=0.1))
        assert np.isnan(got.beta)
        assert got.notes

    def test_empty_stack_is_an_error(self):
        units = [UnitRecord("u", 1.0)]
        subs = [sub("u-s0", "u", 5.0, 1.0)]
        with pytest.raises(EstimationError, match="empty stacked sample"):
            stacked_iv(Design.from_records(units, subs), DesignConfig(bandwidth=0.1))

    def test_just_identified_identity(self):
        rng = np.random.default_rng(5)
        units, subs = random_bundle(rng)
        got = stacked_iv(Design.from_records(units, subs), DesignConfig(bandwidth=0.8))
        assert got.beta == pytest.approx(
            got.reduced_form.coefficient / got.first_stage.coefficient, rel=1e-10
        )

    def test_row_counts_reported(self):
        rng = np.random.default_rng(6)
        units, subs = random_bundle(rng, n_units=30)
        cfg = DesignConfig(bandwidth=0.5)
        got = stacked_iv(Design.from_records(units, subs), cfg)
        n_close = sum(1 for s in subs if abs(s.running) <= 0.5)
        assert got.n_stacked_rows == n_close
        upper = upper_iv(Design.from_records(units, subs), cfg)
        assert upper.n_stacked_rows == 0


class TestStackConsistency:
    def test_estimate_lower_matches_manual_fit_on_stacked_rows(self):
        rng = np.random.default_rng(21)
        units, subs = random_bundle(rng, n_units=35, extras=1)
        cfg = DesignConfig(bandwidth=0.8, kernel="triangular")
        stack = design_stack(Design.from_records(units, subs), cfg)
        rows = stack.unit_row
        y = stack.outcome
        x = stack.treatment
        z = stack.instrument
        r = stack.running
        rp = stack.running * stack.instrument
        by_id = {u.unit_id: u for u in units}
        c1 = np.array([by_id[stack.unit_ids[i]].extra_controls["c0"] for i in rows])
        w = stack.importance * stack.kernel
        fit = dense_tsls(y, x, z, np.column_stack([np.ones(len(rows)), r, rp, c1]), w)
        got = stacked_iv(Design.from_records(units, subs), cfg)
        assert got.beta == pytest.approx(fit["beta"], rel=1e-12)
        assert got.n_stacked_rows == len(rows)


class TestSharedStack:
    """A fit given a stack reads it only if ``design_stack`` would build that
    sample for the fit's design, spillover flag and sample settings."""

    CFG = DesignConfig(bandwidth=0.5, cutoff_rule="strict_gt")

    @pytest.fixture
    def replications(self):
        spec = DgpSpec(n_units=60, seed=21)
        return generate_design(spec, 0)[0], generate_design(spec, 1)[0]

    @pytest.mark.parametrize("fit", [upper_iv, stacked_iv])
    @pytest.mark.parametrize("change, match", [
        (dict(bandwidth=0.6), "bandwidth=0.5"),
        (dict(cutoff_rule="geq"), "cutoff_rule"),
        (dict(tie_policy="drop_exact_zero"), "tie_policy"),
        (dict(filters=(AttributeFilter("votes", ">=", 20.0),)), "filters"),
        (dict(instrument_basis="win_flag"), "instrument_basis"),
    ])
    def test_other_sample_settings_refused(self, replications, fit, change, match):
        design = replications[0]
        stack = design_stack(design, self.CFG)
        with pytest.raises(ConfigurationError, match=match):
            fit(design, replace(self.CFG, **change), stack=stack)

    @pytest.mark.parametrize("fit", [upper_iv, stacked_iv])
    def test_other_design_refused(self, replications, fit):
        # two replications of one spec share their ids and resolution
        a, b = replications
        assert a.units.ids is b.units.ids
        with pytest.raises(ConfigurationError, match="another design"):
            fit(a, self.CFG, stack=design_stack(b, self.CFG))

    @pytest.mark.parametrize("fit", [upper_iv, stacked_iv])
    def test_other_spillover_flag_refused(self, fit):
        units, subs = random_bundle(np.random.default_rng(22), n_units=30)
        graph = SpilloverGraph(tuple((s.unit_id, s.subunit_id) for s in subs))
        design = Design.from_records(units, subs, graph)
        for built, asked in ((False, True), (True, False)):
            stack = design_stack(design, self.CFG, spillover=built)
            with pytest.raises(ConfigurationError, match="spillover"):
                fit(design, self.CFG, spillover=asked, stack=stack)

    def test_control_set_shares_the_stack(self, replications):
        design = replications[0]
        stack = design_stack(design, self.CFG)
        benchmark = replace(self.CFG, control_set="total_weight_only")
        assert upper_iv(design, benchmark, stack=stack) == upper_iv(design, benchmark)
        assert upper_iv(design, self.CFG, stack=stack) == upper_iv(design, self.CFG)
        assert stacked_iv(design, self.CFG, stack=stack) == stacked_iv(design, self.CFG)


def assert_inference(result, se_type, n_clusters):
    """The inference block names the SE and its clusters, and its Wald ends
    are beta -/+ z SE to the bit."""
    half = Z_CRITICAL_5PCT * result.robust_se
    assert result.inference.se_type == se_type
    assert result.inference.n_clusters == n_clusters
    assert result.inference.wald_ci == (result.beta - half, result.beta + half)


class TestReduction:
    """One subunit per unit with unit importance collapses to conventional designs."""

    def make(self, rng, n=200):
        units, subs, outcomes = [], [], []
        for i in range(n):
            uid = f"u{i:03d}"
            r = float(rng.normal())
            y = float(0.5 * (r >= 0) + 0.3 * r - 0.1 * r * (r >= 0) + 0.1 * rng.normal())
            units.append(UnitRecord(uid, y))
            subs.append(sub(f"{uid}-s0", uid, r, 1.0))
            outcomes.append(y)
        return units, subs, np.array(outcomes)

    def test_upper_equals_lower_equals_sharp(self):
        rng = np.random.default_rng(7)
        units, subs, outcomes = self.make(rng)
        cfg = DesignConfig(bandwidth=0.8)
        data = Design.from_records(units, subs)
        up = upper_iv(data, cfg)
        low = stacked_iv(data, cfg)
        sharp = sharp_rd(data, outcomes, cfg)
        assert up.beta == pytest.approx(low.beta, rel=1e-12)
        assert low.beta == pytest.approx(sharp.beta, rel=1e-12)
        for result in (up, low, sharp):
            assert_inference(result, "hc1", None)

    def test_equivalence_report_zero_gap(self):
        rng = np.random.default_rng(8)
        units, subs, _ = self.make(rng, n=120)
        rep = equivalence(Design.from_records(units, subs), DesignConfig(bandwidth=0.8))
        assert rep.passed and rep.relative_gap < 1e-12


def brute_force_equivalent(units, subs, cfg, perturb_control=0.0):
    """Independent dense-matrix path B: residualize at the unit level, broadcast,
    run the subunit IV with explicit projections. ``perturb_control`` shifts the
    third local-linear control to break the identity on purpose."""
    order = sorted(units, key=lambda u: u.unit_id)
    exposures = design_exposures(Design.from_records(order, subs), cfg)
    y = np.array([u.outcome for u in order])
    x = exposures.treatment
    e = np.array([u.analysis_weight for u in order])
    W = np.column_stack(
        [exposures.controls[:, k] for k in range(3)]
        + [np.ones(len(order))]
        + [
            np.array([u.extra_controls[lab] for u in order])
            for lab in sorted({k for u in order for k in u.extra_controls})
        ]
    )
    sw = np.sqrt(e)
    proj = lambda v: v - W @ np.linalg.lstsq(W * sw[:, None], v * sw, rcond=None)[0]
    y_t, x_t = proj(y), proj(x)
    index = {u.unit_id: i for i, u in enumerate(order)}
    close = [s for s in subs if abs(s.running) <= cfg.bandwidth]
    rows = np.array([index[s.unit_id] for s in close])
    r = np.array([s.running for s in close])
    zz = (r >= 0).astype(float)
    q = np.column_stack([np.ones(len(close)), r, r * zz + perturb_control * r * r])
    wts = np.array([s.importance for s in close]) * e[rows]
    sww = np.sqrt(wts)
    pq = lambda v: v - q @ np.linalg.lstsq(q * sww[:, None], v * sww, rcond=None)[0]
    z_t = pq(zz)
    return float(np.sum(wts * z_t * y_t[rows]) / np.sum(wts * z_t * x_t[rows]))


class TestEquivalence:
    def test_random_bundles_match_brute_force(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            units, subs = random_bundle(
                rng, n_units=int(rng.integers(30, 70)), extras=trial % 3,
                weights=True, override_share=0.3,
            )
            cfg = DesignConfig(bandwidth=float(rng.uniform(0.3, 1.2)))
            rep = equivalence(Design.from_records(units, subs), cfg)
            assert rep.passed, rep
            oracle = brute_force_equivalent(units, subs, cfg)
            assert rep.beta_lower_equivalent == pytest.approx(oracle, rel=1e-8)
            assert rep.beta_upper == pytest.approx(oracle, rel=1e-8)

    def test_perturbed_control_breaks_equality(self):
        rng = np.random.default_rng(10)
        units, subs = random_bundle(rng, n_units=60, weights=True)
        cfg = DesignConfig(bandwidth=0.8)
        rep = equivalence(Design.from_records(units, subs), cfg)
        broken = brute_force_equivalent(units, subs, cfg, perturb_control=1.0)
        gap = abs(broken - rep.beta_upper) / max(1.0, abs(rep.beta_upper))
        assert gap > 1e-8

    def test_builds_the_edge_index_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        units, subs = random_bundle(rng, n_units=40, extras=1, fe=True, weights=True)
        cfg = DesignConfig(bandwidth=0.8, fe_dimensions=("g",))
        calls = []
        edge_index = design._edge_index

        def counted(*args, **kwargs):
            calls.append(1)
            return edge_index(*args, **kwargs)

        monkeypatch.setattr(design, "_edge_index", counted)
        rep = equivalence(Design.from_records(units, subs), cfg)
        assert rep.passed and len(calls) == 1

    def test_requires_full_control_set(self):
        rng = np.random.default_rng(11)
        units, subs = random_bundle(rng, n_units=20)
        with pytest.raises(ConfigurationError, match="full aggregated control"):
            equivalence(Design.from_records(units, subs),
                        DesignConfig(control_set="total_weight_only"))

    def test_requires_uniform_kernel(self):
        rng = np.random.default_rng(12)
        units, subs = random_bundle(rng, n_units=20)
        with pytest.raises(ConfigurationError, match="uniform"):
            equivalence(Design.from_records(units, subs), DesignConfig(kernel="triangular"))


def two_way_panel(rng, n_units=90, n_states=4, block=3):
    """Units with state and industry keys, industries mostly nested in their
    state's block; each event links to its own unit and one other unit."""
    units, subs, edges = [], [], []
    for i in range(n_units):
        uid = f"u{i:03d}"
        state = int(rng.integers(0, n_states))
        industry = (state * block + int(rng.integers(0, block)) if rng.random() < 0.8
                    else int(rng.integers(0, n_states * block)))
        units.append(UnitRecord(
            uid, float(rng.normal() + 0.5 * state),
            extra_controls={"c0": float(rng.normal())},
            fe_keys={"state": f"s{state}", "industry": f"i{industry}"},
            analysis_weight=float(rng.uniform(0.5, 2.0)),
        ))
        for j in range(int(rng.integers(1, 6))):
            sid = f"{uid}-s{j}"
            subs.append(sub(sid, uid, float(rng.normal()), float(rng.uniform(0.2, 2.0))))
            edges += [(uid, sid), (f"u{int(rng.integers(0, n_units)):03d}", sid)]
    return units, subs, SpilloverGraph(tuple(sorted(set(edges))))


def independent_dummies(key_sets):
    """Dummy columns of every key set, keeping each only if it raises the rank."""
    kept = np.empty((len(key_sets[0]), 0))
    for keys in key_sets:
        keys = np.asarray(keys)
        for value in np.unique(keys):
            trial = np.column_stack([kept, (keys == value).astype(float)])
            if np.linalg.matrix_rank(trial) > kept.shape[1]:
                kept = trial
    return kept


class TestTwoWayFixedEffects:
    """Two absorbed fixed-effect dimensions against dense 2SLS on dummies."""

    cfg = DesignConfig(bandwidth=0.8, fe_dimensions=("industry", "state"))

    def assert_matches(self, got, oracle):
        assert got.beta == pytest.approx(oracle["beta"], rel=1e-8)
        assert got.robust_se == pytest.approx(oracle["robust_se"], rel=1e-8)
        assert got.first_stage.coefficient == pytest.approx(oracle["fs_coefficient"], rel=1e-8)
        assert got.first_stage.partial_f == pytest.approx(oracle["fs_partial_f"], rel=1e-8)

    def test_upper_and_stacked_match_dense_dummies(self):
        rng = np.random.default_rng(41)
        units, subs, graph = two_way_panel(rng)
        data = Design.from_records(units, subs, graph)
        keys = [data.units.fe["industry"], data.units.fe["state"]]
        c0 = data.units.controls["c0"]
        for spillover in (False, True):
            exp = design_exposures(data, self.cfg, spillover)
            dummies = independent_dummies(keys)
            oracle = dense_tsls(data.units.outcome, exp.treatment, exp.instrument,
                                np.column_stack([exp.controls, c0, dummies]), data.units.weight)
            self.assert_matches(upper_iv(data, self.cfg, spillover), oracle)

            stack = design_stack(data, self.cfg, spillover)
            rows = stack.unit_row
            dummies = independent_dummies([np.asarray(k)[rows] for k in keys])
            controls = np.column_stack(
                [stack.running, stack.running * stack.instrument, c0[rows], dummies])
            oracle = dense_tsls(stack.outcome, stack.treatment, stack.instrument, controls,
                                stack.importance * stack.kernel)
            self.assert_matches(stacked_iv(data, self.cfg, spillover), oracle)

    def test_equivalence_holds(self):
        for seed in (42, 43):
            units, subs, _ = two_way_panel(np.random.default_rng(seed))
            rep = equivalence(Design.from_records(units, subs), self.cfg)
            assert rep.passed and rep.relative_gap <= 1e-8, rep

    def test_equivalence_absorbs_once(self, monkeypatch):
        """Both paths of the verifier read one absorbed unit block."""
        units, subs, _ = two_way_panel(np.random.default_rng(44))
        widths = []
        absorb = estimators.absorb_fixed_effects

        def counted(columns, *args, **kwargs):
            widths.append(np.shape(columns)[1])
            return absorb(columns, *args, **kwargs)

        monkeypatch.setattr(estimators, "absorb_fixed_effects", counted)
        rep = equivalence(Design.from_records(units, subs), self.cfg)
        # outcome, treatment, instrument, three aggregated controls and c0
        assert rep.passed and widths == [7]


class TestControlScale:
    """A control's units of measure change neither the rank decision nor
    the estimate: at 1e9 the screen once dropped the aggregated running
    controls, at 1e12 the estimate became NaN, both without a note."""

    @pytest.mark.parametrize("estimator", [upper_iv, stacked_iv])
    def test_rescaled_extra_control(self, estimator):
        units, subs, _ = generate_dgp(DgpSpec(n_units=500, seed=0), 0)
        c = np.random.default_rng(5).normal(size=len(units))
        cfg = DesignConfig(bandwidth=0.5)

        def fit(scale):
            scaled = [replace(u, extra_controls={"c": scale * c[i]}) for i, u in enumerate(units)]
            return estimator(Design.from_records(scaled, subs), cfg)

        base = fit(1.0)
        for scale in (1e9, 1e12):
            got = fit(scale)
            assert got.beta == pytest.approx(base.beta, rel=1e-10)
            assert got.robust_se == pytest.approx(base.robust_se, rel=1e-10)
            assert got.notes == base.notes
            for lab, value in base.control_coefficients.items():
                want = value / scale if lab == "c" else value
                assert got.control_coefficients[lab] == pytest.approx(want, rel=1e-10)

    def test_control_spanned_by_fixed_effects_is_dropped(self):
        rng = np.random.default_rng(14)
        units, subs = random_bundle(rng, n_units=80, extras=1, fe=True, weights=True)
        level = {g: float(rng.normal()) * 3 for g in sorted({u.fe_keys["g"] for u in units})}
        units = [replace(u, extra_controls={**u.extra_controls, "g_level": level[u.fe_keys["g"]]})
                 for u in units]
        cfg = DesignConfig(bandwidth=0.8, fe_dimensions=("g",))
        data = Design.from_records(units, subs)
        for result in (upper_iv(data, cfg), stacked_iv(data, cfg)):
            assert np.isnan(result.control_coefficients["g_level"])
            assert np.isfinite(result.control_coefficients["c0"])
            assert np.isfinite(result.beta) and np.isfinite(result.robust_se)
        assert equivalence(data, cfg).passed


class TestSharpRd:
    def test_exact_jump(self):
        subs, outcomes = [], []
        rng = np.random.default_rng(13)
        for i in range(40):
            r = float(rng.uniform(-1, 1))
            subs.append(sub(f"s{i:02d}", f"s{i:02d}", r, 1.0))
            outcomes.append(0.7 * (r >= 0) + 0.2 * r)
        got = sharp_rd(Design.from_records([], subs), np.array(outcomes),
                       DesignConfig(bandwidth=1.0))
        assert got.beta == pytest.approx(0.7, abs=1e-10)

    def test_no_jump_quadratic_shrinks_with_bandwidth(self):
        rng = np.random.default_rng(14)
        subs, outcomes = [], []
        for i in range(4000):
            r = float(rng.uniform(-1, 1))
            subs.append(sub(f"s{i:04d}", f"s{i:04d}", r, 1.0))
            outcomes.append(r * r)
        data, outcomes = Design.from_records([], subs), np.array(outcomes)
        small = sharp_rd(data, outcomes, DesignConfig(bandwidth=0.1))
        large = sharp_rd(data, outcomes, DesignConfig(bandwidth=1.0))
        assert abs(small.beta) < abs(large.beta)

    def test_kink_absorbed_at_small_bandwidth(self):
        rng = np.random.default_rng(15)
        subs, outcomes = [], []
        for i in range(6000):
            r = float(rng.uniform(-1, 1))
            subs.append(sub(f"s{i:04d}", f"s{i:04d}", r, 1.0))
            outcomes.append(0.5 * r + 1.5 * r * (r >= 0) + 0.01 * float(rng.normal()))
        got = sharp_rd(Design.from_records([], subs), np.array(outcomes),
                       DesignConfig(bandwidth=0.05))
        assert abs(got.beta) < 0.01

    def test_too_few_on_one_side(self):
        subs = [sub(f"s{i}", f"s{i}", 0.01 * (i + 1), 1.0) for i in range(10)]
        subs += [sub("neg", "neg", -0.01, 1.0)]
        with pytest.raises(EstimationError, match="each side"):
            sharp_rd(Design.from_records([], subs), np.ones(len(subs)),
                     DesignConfig(bandwidth=0.5))


class TestSpillover:
    def spillover_bundle(self, rng, n_units=40, n_interventions=30):
        units = [
            UnitRecord(f"u{i:03d}", float(rng.normal())) for i in range(n_units)
        ]
        subs = [
            sub(f"j{k:03d}", "unattached", float(rng.normal()), float(rng.uniform(0.3, 1.5)))
            for k in range(n_interventions)
        ]
        edges = []
        for i in range(n_units):
            for k in rng.choice(n_interventions, size=rng.integers(1, 4), replace=False):
                edges.append((f"u{i:03d}", f"j{int(k):03d}"))
        return units, subs, SpilloverGraph(tuple(sorted(set(edges))))

    def test_partition_graph_reduces_to_lower(self):
        rng = np.random.default_rng(16)
        units, subs = random_bundle(rng, n_units=40)
        cfg = DesignConfig(bandwidth=0.8)
        partition = SpilloverGraph(tuple((s.unit_id, s.subunit_id) for s in subs))
        bilateral = stacked_iv(Design.from_records(units, subs, partition), cfg, spillover=True)
        lower = stacked_iv(Design.from_records(units, subs), cfg)
        assert bilateral.beta == pytest.approx(lower.beta, rel=1e-12)

    def test_bilateral_equals_collapsed_without_extras(self):
        """The collapsed fit is the bilateral fit with its scores summed by
        event: under either kernel every coefficient is the same bits, and
        only the SEs differ."""
        rng = np.random.default_rng(17)
        units, subs, graph = self.spillover_bundle(rng)
        data = Design.from_records(units, subs, graph)
        for kernel in ("uniform", "triangular"):
            cfg = DesignConfig(bandwidth=0.8, kernel=kernel)
            bil = stacked_iv(data, cfg, spillover=True)
            col = collapsed_iv(data, cfg)
            assert col.beta == bil.beta
            assert col.first_stage.coefficient == bil.first_stage.coefficient
            assert col.reduced_form.coefficient == bil.reduced_form.coefficient
            assert col.control_coefficients == bil.control_coefficients
            assert col.robust_se != bil.robust_se
            assert_inference(bil, "hc1", None)
            assert_inference(col, "cluster-hc1", col.n_units)

    def test_collapsed_refuses_fixed_effects(self):
        units, subs, graph = self.spillover_bundle(np.random.default_rng(17))
        units = [replace(u, fe_keys={"g": u.unit_id[-1]}) for u in units]
        with pytest.raises(ConfigurationError, match="fixed effects"):
            collapsed_iv(Design.from_records(units, subs, graph),
                         DesignConfig(bandwidth=0.8, fe_dimensions=("g",)))

    def test_collapsed_notes_the_unit_controls_and_weights_it_ignores(self):
        rng = np.random.default_rng(17)
        units, subs, graph = self.spillover_bundle(rng)
        plain = collapsed_iv(Design.from_records(units, subs, graph),
                             DesignConfig(bandwidth=0.8))
        units = [replace(u, extra_controls={"share": float(rng.normal())},
                         analysis_weight=float(rng.uniform(0.5, 2))) for u in units]
        data = Design.from_records(units, subs, graph)
        cfg = DesignConfig(bandwidth=0.8, lower_unit_weights=True)
        got = collapsed_iv(data, cfg)
        assert got.notes[-2:] == [
            "extra unit controls are ignored in the collapsed specification",
            "unit weights are ignored in the collapsed specification"]
        assert (got.beta, got.robust_se) == (plain.beta, plain.robust_se)
        # the bilateral fit does apply the weights
        assert stacked_iv(data, cfg, spillover=True).beta != \
            stacked_iv(data, replace(cfg, lower_unit_weights=False), spillover=True).beta

    def test_two_rows_for_shared_neighbor(self):
        units = [UnitRecord("u1", 1.0), UnitRecord("u2", 4.0), UnitRecord("u3", 2.0)]
        subs = [sub("j", "x", 0.05, 1.0), sub("k", "x", -0.03, 1.0), sub("m", "x", 0.01, 1.0)]
        graph = SpilloverGraph((("u1", "j"), ("u2", "j"), ("u1", "k"), ("u2", "m"), ("u3", "k")))
        got = stacked_iv(Design.from_records(units, subs, graph), DesignConfig(bandwidth=0.1),
                         spillover=True)
        assert got.n_stacked_rows == 5
        assert got.n_units == 3

    def test_empty_pair_sample(self):
        units = [UnitRecord("u1", 1.0)]
        subs = [sub("j", "x", 5.0, 1.0)]
        graph = SpilloverGraph((("u1", "j"),))
        with pytest.raises(EstimationError, match="pair"):
            stacked_iv(Design.from_records(units, subs, graph), DesignConfig(bandwidth=0.1),
                       spillover=True)


class TestLateGap:
    """A heterogeneous-effects sweep scores its estimates against the
    oracle's cutoff-slice estimand, and a failed replication would drop out
    of a mean, so each check first asserts that none failed."""

    def test_homogeneous_effects_recovered(self):
        spec = DgpSpec(
            n_units=800, outcome_kind="heterogeneous_effects",
            effect_mean=2.0, effect_sd=0.0, seed=3,
        )
        out = run_monte_carlo(spec, estimators=("upper", "lower"), h_grid=(0.1,),
                              n_replications=6, seed=3)
        assert out.truth == pytest.approx(2.0, abs=3 * max(out.truth_se, 1e-12) + 1e-9)
        for cell in out.cells:
            assert cell.n_fail == 0
            assert abs(cell.mean_bias) < 3 * (cell.mean_bias_se + out.truth_se) + 5e-3

    def test_gap_shrinks_with_bandwidth(self):
        spec = DgpSpec(
            n_units=2000, outcome_kind="heterogeneous_effects",
            effect_mean=2.0, effect_sd=0.1, seed=4,
        )
        out = run_monte_carlo(spec, estimators=("upper", "lower"), h_grid=(0.05, 0.5),
                              n_replications=10, seed=4)
        assert all(cell.n_fail == 0 for cell in out.cells)
        for name in ("upper", "lower"):
            assert abs(out.cell(name, 0.05).mean_bias) < abs(out.cell(name, 0.5).mean_bias)

    def test_builds_each_sample_once(self, monkeypatch):
        """One edge index per (design, bandwidth) serves both estimators,
        and each estimate is bit for bit that of a fit that builds its own
        sample."""
        spec = DgpSpec(n_units=60, outcome_kind="heterogeneous_effects", effect_sd=0.1, seed=5)
        calls = []
        edge_index = design._edge_index

        def counted(*args, **kwargs):
            calls.append(1)
            return edge_index(*args, **kwargs)

        monkeypatch.setattr(design, "_edge_index", counted)
        out = run_monte_carlo(spec, estimators=("upper", "lower"), h_grid=(0.3, 0.6, 0.9),
                              n_replications=4, n_bootstrap=20, seed=5)
        assert len(calls) == 4 * 3
        monkeypatch.undo()
        designs = [generate_design(spec, rep)[0] for rep in range(4)]
        for (name, h), estimates in out.estimates.items():
            fit = upper_iv if name == "upper" else stacked_iv
            cfg = mc_design_config(h, "all_three_rda")
            assert estimates.tobytes() == np.array([fit(d, cfg).beta for d in designs]).tobytes()
