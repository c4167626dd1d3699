"""Generators, replication sweeps, bootstrap intervals, and the estimand oracle."""

import itertools
import json
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from rdagg import design, simlab
from rdagg.cli import main
from rdagg.design import Design, design_exposures
from rdagg.errors import ConfigurationError, EstimationError
from rdagg.estimators import stacked_iv
from rdagg.simlab import (
    DEFAULT_H_GRID,
    DgpSpec,
    bootstrap_median_ci,
    dataset_digest,
    estimand_oracle,
    generate_design,
    generate_dgp,
    mc_design_config,
    run_monte_carlo,
)


class TestGenerate:
    def test_rho_one_makes_within_unit_running_equal(self):
        spec = DgpSpec(n_units=20, rho=1.0, seed=1)
        _, subs, _ = generate_dgp(spec, 0)
        by_unit = {}
        for s in subs:
            by_unit.setdefault(s.unit_id, []).append(s.running)
        for values in by_unit.values():
            assert np.ptp(values) < 1e-12

    def test_equal_scheme_treatment_support(self):
        spec = DgpSpec(n_units=400, seed=2)
        design, _ = generate_design(spec, 0)
        x = design_exposures(design, mc_design_config(0.5, "all_three_rda")).treatment
        grid = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}
        for val in x:
            assert min(abs(val - g) for g in grid) < 1e-12

    def test_band_coverage_matches_normal_cdf(self):
        spec = DgpSpec(n_units=1000, seed=3)
        _, subs, _ = generate_dgp(spec, 0)
        r = np.array([s.running for s in subs])
        for h in (0.25, 1.25):
            expected = 2 * stats.norm.cdf(h) - 1
            assert np.mean(np.abs(r) <= h) == pytest.approx(expected, abs=0.02)

    def test_deterministic_given_seed_and_replication(self):
        spec = DgpSpec(n_units=50, seed=9)
        a = generate_design(spec, 3)[0]
        b = generate_design(spec, 3)[0]
        assert dataset_digest(a) == dataset_digest(b)
        c = generate_design(spec, 4)[0]
        assert dataset_digest(a) != dataset_digest(c)

    def test_importance_schemes(self):
        for scheme, check in [
            ("equal", lambda s: s == pytest.approx(0.2)),
            ("unit_sum_one", lambda s: s == 1.0),
        ]:
            spec = DgpSpec(n_units=10, importance_scheme=scheme, seed=4)
            _, subs, _ = generate_dgp(spec, 0)
            assert all(check(s.importance) for s in subs)
        spec = DgpSpec(n_units=50, importance_scheme="dirichlet_random", seed=4)
        _, subs, _ = generate_dgp(spec, 0)
        totals = {}
        for s in subs:
            totals[s.unit_id] = totals.get(s.unit_id, 0.0) + s.importance
        assert all(tot == pytest.approx(1.0) for tot in totals.values())
        assert len({round(s.importance, 12) for s in subs}) > 10

    def test_true_effect_zero_for_confound_kinds(self):
        for kind in ("linear", "symmetric_quadratic", "kinked_quadratic", "single_subunit"):
            _, _, truth = generate_dgp(DgpSpec(n_units=5, outcome_kind=kind, seed=5), 0)
            assert truth.true_beta == 0.0
        _, _, truth = generate_dgp(
            DgpSpec(n_units=5, outcome_kind="heterogeneous_effects", seed=5), 0
        )
        assert truth.true_beta is None
        assert truth.unit_effects is not None

    def test_variable_subunit_counts(self):
        spec = DgpSpec(n_units=200, j_range=(1, 8), seed=6)
        _, subs, _ = generate_dgp(spec, 0)
        counts = {}
        for s in subs:
            counts[s.unit_id] = counts.get(s.unit_id, 0) + 1
        assert min(counts.values()) >= 1 and max(counts.values()) <= 8
        assert len(set(counts.values())) > 3

    def test_j_range_design_digest_is_pinned(self):
        # ids, counts and draws of a ragged design, with two-digit subunit
        # suffixes; a change here breaks every stored digest
        design, _ = generate_design(DgpSpec(n_units=30, j_range=(1, 12), seed=4), 2)
        assert len(design.events) == 197 and "u00008-s10" in design.events.ids
        assert dataset_digest(design) == (
            "4972b5e6f588aece390e6c958fd023fb8f4008a4eb2e8646a387ccf5405f1563")

    @pytest.mark.parametrize("j_range", [(2,), (1, 4, 6), (1.5, 4), (1, "4"), [1, 4], 3])
    def test_j_range_must_be_two_ints(self, j_range):
        with pytest.raises(ConfigurationError, match="j_range"):
            DgpSpec(j_range=j_range)


class TestBootstrap:
    def test_constant_vector(self):
        lo, hi = bootstrap_median_ci(np.full(25, 3.5), seed=1)
        assert lo == hi == 3.5

    def test_bounded_by_sample_range(self):
        for seed in range(5):
            lo, hi = bootstrap_median_ci([1.0, 2.0, 3.0], seed=seed)
            assert 1.0 <= lo <= hi <= 3.0

    def test_coverage_of_true_median(self):
        rng = np.random.default_rng(7)
        covered = 0
        n_outer = 200
        for k in range(n_outer):
            values = rng.standard_normal(400)
            lo, hi = bootstrap_median_ci(values, n_boot=200, seed=k)
            covered += lo <= 0.0 <= hi
        assert 0.90 <= covered / n_outer <= 0.99

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            bootstrap_median_ci([])

    @pytest.mark.parametrize("n_boot", [1, 0, -3])
    def test_fewer_than_two_draws_rejected(self, n_boot):
        # 0 raised numpy's IndexError, 1 returned a one-draw interval
        with pytest.raises(ConfigurationError,
                           match=rf"^n_boot must be at least 2, got {n_boot}$"):
            bootstrap_median_ci([1.0, 2.0, 3.0], n_boot=n_boot)

    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_level_outside_the_unit_interval_rejected(self, level):
        # 1.5 raised numpy's ValueError
        with pytest.raises(ConfigurationError,
                           match=rf"^level must lie in \(0, 1\), got {level}$"):
            bootstrap_median_ci([1.0, 2.0, 3.0], level=level)


class TestRunMonteCarlo:
    def test_degenerate_two_replications(self):
        spec = DgpSpec(n_units=60, seed=8)
        out = run_monte_carlo(spec, estimators=("upper",), h_grid=(0.5,),
                              n_replications=2, n_bootstrap=50, seed=8)
        cell = out.cell("upper", 0.5)
        assert cell.n_ok == 2
        assert out.estimates[("upper", 0.5)].shape == (2,)
        assert cell.ci_lo <= cell.median_bias <= cell.ci_hi
        assert not out.high_failure

    def test_reproducible_and_schedule_independent(self):
        spec = DgpSpec(n_units=60, seed=9)
        kw = dict(estimators=("upper", "lower"), h_grid=(0.35, 0.75),
                  n_replications=6, n_bootstrap=40, seed=9)
        a = run_monte_carlo(spec, **kw)
        b = run_monte_carlo(spec, **kw)
        c = run_monte_carlo(spec, threads=3, **kw)
        assert a.to_csv() == b.to_csv() == c.to_csv()

    def test_common_random_numbers_across_estimators(self):
        spec = DgpSpec(n_units=40, seed=10)
        out = run_monte_carlo(spec, estimators=("upper", "benchmark"), h_grid=(0.5,),
                              n_replications=3, n_bootstrap=20, seed=10, keep_digests=True)
        regenerated = [
            dataset_digest(generate_design(DgpSpec(n_units=40, seed=10), rep)[0])
            for rep in range(3)
        ]
        assert out.dataset_digests == regenerated

    def test_replication_count_minimum(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(DgpSpec(n_units=10), n_replications=1)

    @pytest.mark.parametrize("kw, message", [
        (dict(estimators=("upper", "bogus")), r"unknown estimators \['bogus'\]"),
        (dict(h_grid=(0.5, 0.0, -1.0)), r"bandwidths must be positive, got \[0.0, -1.0\]"),
        (dict(h_grid=(float("nan"),)), "bandwidths must be positive"),
        (dict(n_bootstrap=0), "n_bootstrap must be at least 2, got 0"),
        (dict(n_bootstrap=1), "n_bootstrap must be at least 2, got 1"),
        (dict(level=1.5), r"level must lie in \(0, 1\), got 1.5"),
        (dict(level=0.0), "level must lie in"),
        (dict(level=float("nan")), "level must lie in"),
        # refused before the pool is made, so no thread starts
        (dict(threads=0), "threads must be at least 1, got 0"),
        (dict(n_replications=1, threads=0),
         "n_replications must be at least 2; threads must be at least 1"),
    ])
    def test_bad_estimator_or_bandwidth_refused_before_the_sweep(self, monkeypatch, kw,
                                                                 message):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "generate_design", no_replication)
        with pytest.raises(ConfigurationError, match=message):
            run_monte_carlo(DgpSpec(n_units=10), **{"n_replications": 2, **kw})

    def test_cli_refuses_bad_estimator_or_bandwidth(self, tmp_path, capsys):
        simulate = ["simulate", "--n-units", "20", "--reps", "2", "--boot", "10"]
        for k, flags in enumerate((["--estimators", "upper,bogus"], ["--h-grid", "0.5,-0.1"],
                                   ["--boot", "0"], ["--boot", "1"], ["--threads", "0"])):
            out = tmp_path / f"case{k}"
            assert main(simulate + flags + ["--out", str(out)]) == 1
            error = json.loads(capsys.readouterr().err)
            assert error["type"] == "ConfigurationError"
            assert not any(out.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(simulate + ["--h-grid", "0.5,abc", "--out", str(tmp_path / "abc")])
        assert exc.value.code == 2
        assert "--h-grid: could not convert string to float: 'abc'" in capsys.readouterr().err

    def test_truth_comes_from_one_oracle_call_per_population(self, monkeypatch):
        """The confound kinds score against 0 and never call the oracle; two
        data seeds of one heterogeneous population share one oracle call,
        on the spec with its seed set to POPULATION_SEED."""
        calls = []
        oracle = simlab.estimand_oracle

        def counted(spec, *args, **kwargs):
            calls.append(spec)
            return oracle(spec, *args, **kwargs)

        monkeypatch.setattr(simlab, "estimand_oracle", counted)
        kw = dict(estimators=("upper",), h_grid=(0.5,), n_replications=2, n_bootstrap=20)
        for kind in ("linear", "symmetric_quadratic", "kinked_quadratic", "single_subunit"):
            out = run_monte_carlo(DgpSpec(n_units=40, outcome_kind=kind), **kw)
            assert (out.truth, out.truth_se) == (0.0, 0.0)
        assert calls == []
        simlab._population_truth.cache_clear()
        spec = DgpSpec(n_units=40, outcome_kind="heterogeneous_effects", effect_sd=0.2)
        first, second = [run_monte_carlo(spec, seed=seed, **kw) for seed in (1, 2)]
        population = replace(spec, seed=simlab.POPULATION_SEED)
        assert calls == [population]
        assert first.to_csv() != second.to_csv()  # two data seeds, one truth
        got = oracle(population)
        assert (first.truth, first.truth_se) == (second.truth, second.truth_se) \
            == (got.beta0, got.se)

    def test_coverage_and_mean_bias_are_hand_counts(self, monkeypatch):
        """Each cell's mean bias, its SE, the Wald coverage of the truth and
        the SE-to-SD ratio, recounted from fits that build their own
        samples; an interval with a NaN end is a miss."""
        spec = DgpSpec(n_units=80, outcome_kind="heterogeneous_effects", effect_sd=0.3,
                       noise_sd=0.3, seed=17)
        out = run_monte_carlo(spec, h_grid=(0.3, 1.2), n_replications=8, n_bootstrap=20,
                              seed=17)
        designs = [generate_design(spec, rep)[0] for rep in range(8)]
        coverages = []
        for cell in out.cells:
            fits = [simlab._run_estimator(cell.estimator, d, cell.h, None) for d in designs]
            beta = np.array([fit.beta for fit in fits])
            assert beta.tobytes() == out.estimates[(cell.estimator, cell.h)].tobytes()
            covered = [fit.inference.wald_ci[0] <= out.truth <= fit.inference.wald_ci[1]
                       for fit in fits]
            assert cell.coverage == sum(covered) / len(fits)
            assert cell.mean_bias == beta.mean() - out.truth
            assert cell.mean_bias_se == beta.std(ddof=1) / np.sqrt(len(fits))
            assert cell.se_sd_ratio == np.median([fit.robust_se for fit in fits]) / cell.sd
            coverages.append(cell.coverage)
        assert min(coverages) < 1.0 and max(coverages) > 0.0

        nan = float("nan")
        fits = iter([SimpleNamespace(beta=beta, robust_se=1.0,
                                     inference=SimpleNamespace(wald_ci=wald_ci))
                     for beta, wald_ci in ((0.1, (nan, 1.0)), (-0.1, (-1.0, nan)),
                                           (0.2, (-1.0, 1.0)))])
        monkeypatch.setattr(simlab, "upper_iv", lambda *args, **kwargs: next(fits))
        cell = run_monte_carlo(DgpSpec(n_units=40, seed=18), estimators=("upper",),
                               h_grid=(0.5,), n_replications=3, n_bootstrap=20,
                               seed=18).cell("upper", 0.5)
        assert (cell.n_ok, cell.coverage) == (3, 1 / 3)

    def test_estimation_errors_counted_and_bugs_propagate(self, monkeypatch, tmp_path):
        spec = DgpSpec(n_units=40, seed=12)
        kw = dict(estimators=("upper",), h_grid=(0.5,), n_replications=2, n_bootstrap=20,
                  seed=12)
        simulate = ["simulate", "--n-units", "40", "--seed", "12", "--estimators", "upper",
                    "--h-grid", "0.5", "--reps", "3", "--boot", "20"]
        assert run_monte_carlo(spec, **kw).cell("upper", 0.5).fail_reasons == {}
        assert main(simulate + ["--out", str(tmp_path / "ok")]) == 0
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert "failures" not in manifest["config"]

        def estimation_error(*args, **kwargs):
            raise EstimationError("empty sample")

        monkeypatch.setattr(simlab, "upper_iv", estimation_error)
        cell = run_monte_carlo(spec, **kw).cell("upper", 0.5)
        assert (cell.n_ok, cell.n_fail) == (0, 2)
        assert cell.fail_reasons == {"EstimationError": 2}

        # one replication in three of each cause, in turn
        causes = itertools.cycle([
            EstimationError("empty sample"),
            # iv_fit's NaN with a note
            SimpleNamespace(beta=float("nan"), robust_se=float("nan"),
                            inference=SimpleNamespace(wald_ci=(float("nan"), float("nan")))),
            np.linalg.LinAlgError("singular matrix"),
        ])

        def failing(*args, **kwargs):
            cause = next(causes)
            if isinstance(cause, Exception):
                raise cause
            return cause

        monkeypatch.setattr(simlab, "upper_iv", failing)
        reasons = {"EstimationError": 1, "LinAlgError": 1, "non-finite estimate": 1}
        cell = run_monte_carlo(spec, **dict(kw, n_replications=3)).cell("upper", 0.5)
        assert (cell.n_ok, cell.n_fail, cell.fail_reasons) == (0, 3, reasons)
        assert main(simulate + ["--out", str(tmp_path / "failed")]) == 0
        manifest = json.loads((tmp_path / "failed" / "manifest.json").read_text())
        assert manifest["config"]["failures"] == [
            {"estimator": "upper", "h": 0.5, "reasons": reasons}]

        def bug(*args, **kwargs):
            raise TypeError("a bug, not a failed estimate")

        monkeypatch.setattr(simlab, "upper_iv", bug)
        with pytest.raises(TypeError, match="a bug"):
            run_monte_carlo(spec, **kw)

        # every estimator at a bandwidth reads the one sample built there, so
        # each records the cause when that sample cannot be built
        monkeypatch.undo()
        design_stack = simlab.design_stack

        def no_sample_at_half(data, config, *args, **kwargs):
            if config.bandwidth == 0.5:
                raise EstimationError("empty sample")
            return design_stack(data, config, *args, **kwargs)

        monkeypatch.setattr(simlab, "design_stack", no_sample_at_half)
        out = run_monte_carlo(spec, **dict(kw, estimators=simlab.MC_ESTIMATORS,
                                           h_grid=(0.5, 0.9)))
        for name in simlab.MC_ESTIMATORS:
            assert out.cell(name, 0.5).fail_reasons == {"EstimationError": 2}
            assert (out.cell(name, 0.9).n_ok, out.cell(name, 0.9).fail_reasons) == (2, {})
        monkeypatch.setattr(simlab, "design_stack", bug)
        with pytest.raises(TypeError, match="a bug"):
            run_monte_carlo(spec, **kw)

    def test_generates_one_design_per_replication(self, monkeypatch):
        calls = {"generate_design": 0, "generate_dgp": 0}
        for name in calls:
            original = getattr(simlab, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(simlab, name, counted)
        run_monte_carlo(DgpSpec(n_units=40, seed=13), h_grid=(0.5, 0.9), n_replications=3,
                        n_bootstrap=20, seed=13)
        assert calls == {"generate_design": 3, "generate_dgp": 0}

    def test_builds_each_sample_and_id_skeleton_once(self, monkeypatch):
        """One edge index per (replication, bandwidth) serves all three
        estimators, and the ids are assembled once per run of fixed counts
        and once per replication when the counts are drawn."""
        calls = Counter()
        edge_index, assemble = design._edge_index, Design.assemble.__func__

        def counted_edge_index(*args, **kwargs):
            calls["_edge_index"] += 1
            return edge_index(*args, **kwargs)

        def counted_assemble(cls, *args, **kwargs):
            calls["assemble"] += 1
            return assemble(cls, *args, **kwargs)

        monkeypatch.setattr(design, "_edge_index", counted_edge_index)
        monkeypatch.setattr(Design, "assemble", classmethod(counted_assemble))
        # a unit count no other test uses, so no kept skeleton fits it yet
        kw = dict(h_grid=(0.4, 0.8), n_replications=3, n_bootstrap=20, seed=14)
        run_monte_carlo(DgpSpec(n_units=37), **kw)
        assert calls == {"_edge_index": 3 * 2, "assemble": 1}
        calls.clear()
        run_monte_carlo(DgpSpec(n_units=37, j_range=(1, 6)), **kw)
        assert calls == {"_edge_index": 3 * 2, "assemble": 3}

    def test_replications_share_a_read_only_id_skeleton(self):
        spec = DgpSpec(n_units=30, seed=15)
        a, b = generate_design(spec, 0)[0], generate_design(spec, 1)[0]
        assert a.units.ids is b.units.ids and a.event_rank is b.event_rank
        assert dataset_digest(a) != dataset_digest(b)
        with pytest.raises(ValueError, match="read-only"):
            a.units.weight[0] = 2.0

    def test_generate_dgp_leaves_no_id_skeleton_behind(self):
        spec = DgpSpec(n_units=31, seed=16)
        generate_design(spec)
        assert simlab._skeleton.cache_info().currsize == 1
        units, subunits, _ = generate_dgp(spec)
        assert simlab._skeleton.cache_info().currsize == 0
        assert len(units) == 31 and subunits

    def test_csv_columns(self):
        spec = DgpSpec(n_units=40, seed=11)
        out = run_monte_carlo(spec, estimators=("upper",), h_grid=(0.5,),
                              n_replications=2, n_bootstrap=20, seed=11)
        header = out.to_csv().splitlines()[0]
        assert header == ("estimator,h,median_bias,ci_lo,ci_hi,sd,n_ok,n_fail,"
                          "mean_bias,mean_bias_se,coverage,se_sd_ratio")


class TestOracle:
    def test_homogeneous_effect(self):
        spec = DgpSpec(outcome_kind="heterogeneous_effects", effect_mean=2.0,
                       effect_sd=0.0, seed=12)
        got = estimand_oracle(spec, n_units=100_000)
        assert got.beta0 == pytest.approx(2.0, abs=max(3 * got.se, 1e-10))

    def test_equal_weights_mean_effect(self):
        spec = DgpSpec(outcome_kind="heterogeneous_effects", effect_mean=1.3,
                       effect_sd=0.5, seed=13)
        got = estimand_oracle(spec, n_units=300_000)
        # equal importance: the estimand is the plain mean effect on the slice
        assert got.beta0 == pytest.approx(1.3, abs=4 * got.se)

    def test_squared_importance_weighting(self):
        # dirichlet weights: the estimand tilts toward high-importance subunits
        spec = DgpSpec(outcome_kind="heterogeneous_effects",
                       importance_scheme="dirichlet_random",
                       effect_mean=1.0, effect_sd=0.6, seed=14)
        got = estimand_oracle(spec, n_units=200_000)
        assert np.isfinite(got.beta0) and got.se < 0.05

    def test_pure_confound_kinds_have_zero_estimand(self):
        for kind in ("linear", "symmetric_quadratic", "kinked_quadratic"):
            got = estimand_oracle(DgpSpec(outcome_kind=kind, seed=15), n_units=50_000)
            assert got.beta0 == 0.0


@pytest.mark.slow
def test_reduced_form_unbiased_for_linear_outcome():
    # linear confound: the stacked reduced form is unbiased in expectation
    spec = DgpSpec(n_units=300, outcome_kind="linear", seed=16)
    cfg = mc_design_config(0.75, "all_three_rda")
    coefs = []
    for rep in range(2000):
        design, _ = generate_design(spec, rep)
        coefs.append(stacked_iv(design, cfg).reduced_form.coefficient)
    coefs = np.array(coefs)
    se = coefs.std(ddof=1) / np.sqrt(len(coefs))
    assert abs(coefs.mean()) < 4 * se


def test_default_grid_values():
    assert DEFAULT_H_GRID[0] == 0.25
    assert DEFAULT_H_GRID[-1] == 1.25
    assert len(DEFAULT_H_GRID) == 11
    assert set(np.round(np.diff(DEFAULT_H_GRID), 10)) == {0.1}


@pytest.mark.slow
def test_robustness_variants_preserve_bias_ordering():
    """Heterogeneous weights, single-subunit outcome, doubled sizes: the
    under-controlled benchmark still has (much) larger bias than both
    aggregated-control estimators at a moderate bandwidth."""
    variants = [
        DgpSpec(outcome_kind="linear", importance_scheme="dirichlet_random", seed=17),
        DgpSpec(outcome_kind="single_subunit", seed=18),
        DgpSpec(outcome_kind="linear", n_units=2000, seed=19),
        DgpSpec(outcome_kind="linear", n_subunits_per_unit=10, seed=20),
    ]
    for spec in variants:
        out = run_monte_carlo(spec, estimators=("upper", "lower", "benchmark"),
                              h_grid=(0.75,), n_replications=40, n_bootstrap=50,
                              seed=spec.seed)
        bench = abs(out.cell("benchmark", 0.75).median_bias)
        assert bench > abs(out.cell("upper", 0.75).median_bias)
        assert bench > abs(out.cell("lower", 0.75).median_bias)
        for cell in out.cells:
            assert cell.ci_lo <= cell.median_bias <= cell.ci_hi
