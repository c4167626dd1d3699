"""Acceptance suite: one test per release criterion, one printed line each.

Run with output visible:  pytest tests/test_acceptance.py -v -s
The heavy Monte Carlo criteria use a fixed seed and reduced replication
counts; every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from oracles import dense_tsls
from rdagg.design import (
    Design,
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    design_exposures,
)
from rdagg.diagnostics import (
    balance,
    counterfactual_path,
    rd_plot_data,
    variance_decomposition,
)
from rdagg.estimators import collapsed_iv, equivalence, stacked_iv
from rdagg.regress import (
    absorb_fixed_effects,
    iv_fit,
    residualize,
    wls_fit,
)
from rdagg.simlab import (
    DgpSpec,
    generate_dgp,
    run_monte_carlo,
)

SEED = 7
H_GRID = tuple(k / 100 for k in range(25, 126, 10))


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {number}: {name}{suffix}"
    print("\n" + line, flush=True)
    assert passed, line


def random_bundle(rng, n_units, max_j=8, extras=0, fe=False):
    units, subs = [], []
    for i in range(n_units):
        uid = f"u{i:03d}"
        units.append(
            UnitRecord(
                uid,
                float(rng.normal()),
                extra_controls={f"c{k}": float(rng.normal()) for k in range(extras)},
                fe_keys={"g": str(rng.integers(0, 3))} if fe else {},
                analysis_weight=float(rng.uniform(0.5, 2.0)),
                treatment_override=float(rng.normal()) if rng.random() < 0.5 else None,
            )
        )
        for j in range(int(rng.integers(1, max_j + 1))):
            subs.append(
                SubunitRecord(
                    f"{uid}-s{j}", uid, float(rng.normal()), float(rng.uniform(0.2, 2.0))
                )
            )
    return units, subs


def test_criterion_01_equivalence_on_random_bundles():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        units, subs = random_bundle(
            rng,
            n_units=int(rng.integers(30, 80)),
            extras=int(trial % 3),
            fe=bool(trial % 2),
        )
        cfg = DesignConfig(
            bandwidth=float(rng.uniform(0.3, 1.5)),
            cutoff_rule="geq" if trial % 3 else "strict_gt",
            fe_dimensions=("g",) if trial % 2 else (),
        )
        rep = equivalence(Design.from_records(units, subs), cfg, tolerance=1e-8)
        worst = max(worst, rep.relative_gap)
    elapsed = time.time() - t0
    report(
        1,
        "upper/lower equivalence on 100 random bundles",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_regression_core_oracles():
    rng = np.random.default_rng(SEED + 1)
    rel = lambda a, b: abs(a - b) / max(1.0, abs(a), abs(b))
    worst = {"wls": 0.0, "tsls": 0.0, "fwl": 0.0, "fe": 0.0}

    for _ in range(50):
        n, p = int(rng.integers(40, 120)), int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = rng.normal(size=n)
        w = rng.uniform(0.1, 3.0, size=n)
        labels = [f"x{j}" for j in range(p)]
        fit = wls_fit(y, X, labels, w)
        oracle = np.linalg.solve((X * w[:, None]).T @ X, (X * w[:, None]).T @ y)
        worst["wls"] = max(
            worst["wls"], max(rel(fit.coefficients[labels[j]], oracle[j]) for j in range(p))
        )

        # joint-regression oracle for partialling out
        target = int(rng.integers(0, p))
        others = [j for j in range(p) if j != target]
        x_p = residualize(X[:, target], X[:, others], w)
        y_p = residualize(y, X[:, others], w)
        partial = float(np.sum(w * x_p * y_p) / np.sum(w * x_p * x_p))
        worst["fwl"] = max(worst["fwl"], rel(fit.coefficients[labels[target]], partial))

    for _ in range(50):
        n = int(rng.integers(50, 150))
        W = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        z = rng.normal(size=n)
        x = 0.7 * z + rng.normal(size=n)
        y = 1.2 * x + W @ np.array([0.5, -0.3, 0.2]) + rng.normal(size=n)
        w = rng.uniform(0.2, 2.0, size=n)
        fit = iv_fit(y, x, z, list(zip(["c", "w1", "w2"], W.T)), w)
        z_p, x_p, y_p = (residualize(v, W, w) for v in (z, x, y))
        oracle = float(np.sum(w * z_p * y_p) / np.sum(w * z_p * x_p))
        dense = dense_tsls(y, x, z, W, w)
        worst["tsls"] = max(
            worst["tsls"],
            rel(fit.beta, oracle),
            rel(fit.beta, dense["beta"]),
            rel(fit.robust_se, dense["robust_se"]),
            rel(fit.first_stage.coefficient, dense["fs_coefficient"]),
            rel(fit.first_stage.robust_se, dense["fs_se"]),
            rel(fit.first_stage.partial_f, dense["fs_partial_f"]),
            rel(fit.reduced_form.coefficient, dense["rf_coefficient"]),
            rel(fit.reduced_form.robust_se, dense["rf_se"]),
            *(rel(fit.control_coefficients[lab], v)
              for lab, v in zip(["c", "w1", "w2"], dense["controls"])),
        )

    for _ in range(50):
        n = int(rng.integers(120, 250))
        g1 = rng.integers(0, 5, size=n)
        g2 = rng.integers(0, 4, size=n)
        x = rng.normal(size=(n, 2))
        y = x @ np.array([1.0, -0.5]) + 0.4 * g1 - 0.2 * g2 + rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, size=n)
        keys = [[str(v) for v in g1], [str(v) for v in g2]]
        absorbed, _ = absorb_fixed_effects(np.column_stack([y, x]), keys, w, tol=1e-13)
        fit_a = wls_fit(absorbed[:, 0], absorbed[:, 1:], ["a", "b"], w)
        dummies = np.column_stack(
            [(g1 == v).astype(float) for v in range(5)]
            + [(g2 == v).astype(float) for v in range(4)]
        )
        fit_b = wls_fit(y, np.column_stack([x, dummies]),
                        ["a", "b"] + [f"d{j}" for j in range(9)], w)
        worst["fe"] = max(
            worst["fe"],
            rel(fit_a.coefficients["a"], fit_b.coefficients["a"]),
            rel(fit_a.coefficients["b"], fit_b.coefficients["b"]),
        )

    passed = all(v <= 1e-10 for v in worst.values())
    report(
        2,
        "regression core matches brute-force oracles (50 instances each)",
        passed,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


@pytest.fixture(scope="module")
def mc_linear_bias():
    spec = DgpSpec(n_units=1000, n_subunits_per_unit=5, rho=0.5, outcome_kind="linear")
    return run_monte_carlo(
        spec, estimators=("upper", "lower", "benchmark"), h_grid=H_GRID,
        n_replications=500, n_bootstrap=300, seed=SEED,
    )


@pytest.mark.slow
def test_criterion_03_bias_panel_linear(mc_linear_bias):
    out = mc_linear_bias
    coverage_ok = True
    details = []
    for est in ("upper", "lower"):
        cover = sum(
            1 for c in out.cells if c.estimator == est and c.ci_lo <= 0.0 <= c.ci_hi
        )
        details.append(f"{est} CI covers 0 at {cover}/11")
        coverage_ok &= cover > len(H_GRID) // 2
    dominance = all(
        abs(out.cell("benchmark", h).median_bias) > abs(out.cell(est, h).median_bias)
        for h in H_GRID
        if h >= 0.5
        for est in ("upper", "lower")
    )
    details.append(f"benchmark dominates at all h>=0.5: {dominance}")
    report(3, "linear-outcome bias panel at reduced scale", coverage_ok and dominance,
           "; ".join(details))


@pytest.mark.slow
def test_criterion_04_quadratic_decay_signature():
    spec = DgpSpec(n_units=1000, n_subunits_per_unit=5, rho=0.5,
                   outcome_kind="kinked_quadratic")
    out = run_monte_carlo(
        spec, estimators=("upper", "lower", "benchmark"), h_grid=(0.25, 1.0),
        n_replications=500, n_bootstrap=300, seed=SEED,
    )
    ratios = {
        est: abs(out.cell(est, 0.25).median_bias) / abs(out.cell(est, 1.0).median_bias)
        for est in ("upper", "lower", "benchmark")
    }
    passed = ratios["upper"] < 0.25 and ratios["lower"] < 0.25 and ratios["benchmark"] > 0.25
    report(4, "kinked-outcome bias decays quadratically for aggregated controls",
           passed, ", ".join(f"{k} {v:.3f}" for k, v in ratios.items()))


@pytest.mark.slow
def test_criterion_05_efficiency_ordering():
    spec = DgpSpec(n_units=1000, n_subunits_per_unit=5, rho=0.5,
                   outcome_kind="linear", noise_sd=1.0)
    out = run_monte_carlo(
        spec, estimators=("upper", "lower"), h_grid=H_GRID,
        n_replications=500, n_bootstrap=300, seed=SEED,
    )
    violations = []
    for h in H_GRID:
        cu, cl = out.cell("upper", h), out.cell("lower", h)
        tol = 2.0 * max(cu.sd_boot_se, cl.sd_boot_se)
        if cu.sd > cl.sd + tol:
            violations.append(h)
    report(5, "upper-level estimator at least as efficient at every bandwidth",
           not violations, f"violations at {violations or 'none'}")


@pytest.mark.slow
def test_criterion_06_estimand_convergence():
    base = DgpSpec(n_units=2000, n_subunits_per_unit=5, rho=0.5,
                   outcome_kind="heterogeneous_effects",
                   effect_mean=2.0, effect_sd=0.1)
    wins = 0
    means_005 = {"upper": [], "lower": []}
    for k in range(50):
        # one population, fifty data seeds: every sweep scores against the
        # same oracle value of the population's cutoff-slice estimand
        out = run_monte_carlo(base, estimators=("upper", "lower"), h_grid=(0.05, 0.5),
                              n_replications=12, seed=1000 + k)
        assert all(cell.n_fail == 0 for cell in out.cells)
        if all(abs(out.cell(name, 0.05).mean_bias) < abs(out.cell(name, 0.5).mean_bias)
               for name in means_005):
            wins += 1
        for name, means in means_005.items():
            means.append(out.estimates[(name, 0.05)].mean())
    ok_level = True
    details = [f"gap ordering holds in {wins}/50 seeds"]
    for name, means in means_005.items():
        means = np.array(means)
        sim_se = means.std(ddof=1) / np.sqrt(len(means))
        gap = abs(means.mean() - out.truth)
        ok = gap <= 3.0 * (sim_se + out.truth_se)
        ok_level &= ok
        details.append(f"{name} |gap|={gap:.4f} vs 3*(SE sum)={3*(sim_se+out.truth_se):.4f}")
    report(6, "both estimators converge to the cutoff-slice estimand",
           ok_level and wins >= 45, "; ".join(details))


def test_criterion_07_bandwidth_coverage():
    _, subs, _ = generate_dgp(DgpSpec(n_units=1000, n_subunits_per_unit=5, seed=SEED), 0)
    r = np.array([s.running for s in subs])
    share_small = float(np.mean(np.abs(r) <= 0.25))
    share_large = float(np.mean(np.abs(r) <= 1.25))
    passed = abs(share_small - 0.1974) <= 0.01 and abs(share_large - 0.7887) <= 0.01
    report(7, "running-variable coverage matches the normal benchmark", passed,
           f"|r|<=0.25: {share_small:.4f} (0.1974), |r|<=1.25: {share_large:.4f} (0.7887)")


def test_criterion_08_counterfactual_inequality_row():
    beta = -0.176
    cumulative_2010 = (0.346 - 0.385) / beta
    path = counterfactual_path(
        [0.272, 0.385], [0.0, cumulative_2010], beta, (-0.325, -0.035)
    )
    passed = (
        path.counterfactual[-1] == pytest.approx(0.346, abs=1e-12)
        and abs(path.contribution - 0.345) <= 0.001
    )
    report(8, "counterfactual arithmetic reproduces the published inequality row",
           passed, f"counterfactual 2010 {path.counterfactual[-1]:.3f}, "
                   f"contribution {100 * path.contribution:.1f}%")


def test_criterion_09_diagnostics_identities():
    rng = np.random.default_rng(SEED + 2)
    records = [
        (f"cell{int(rng.integers(0, 40))}", float(rng.normal()), float(rng.uniform(0.1, 5)))
        for _ in range(2000)
    ]
    dec = variance_decomposition(records)
    var_ok = abs(dec.within + dec.between - dec.total) <= 1e-12 * abs(dec.total)

    pts = [
        (float(rng.uniform(-1, 1)) or 0.01, float(rng.normal()), float(rng.uniform(0.1, 4)))
        for _ in range(600)
    ]
    plot = rd_plot_data(pts, n_bins_per_side=15)
    bins_ok = True
    for side in ("left", "right"):
        side_bins = [b for b in plot.bins if b.side == side]
        total = sum(b.weight for b in side_bins)
        target = total / len(side_bins)
        max_w = max(w for r, v, w in pts if (r >= 0) == (side == "right"))
        bins_ok &= all(abs(b.weight - target) <= max_w + 1e-9 for b in side_bins)

    units, subs = random_bundle(rng, n_units=250, extras=4)
    cfg = DesignConfig(bandwidth=0.5)
    bal = balance(Design.from_records(units, subs), cfg, target="instrument")

    order = sorted(units, key=lambda u: u.unit_id)
    exposures = design_exposures(Design.from_records(order, subs), cfg)
    z = exposures.instrument
    Q = exposures.controls
    C = np.column_stack(
        [[u.extra_controls[f"c{k}"] for u in order] for k in range(4)]
    )
    e = np.array([u.analysis_weight for u in order])
    sw = np.sqrt(e)

    def rss(design):
        b, *_ = np.linalg.lstsq(design * sw[:, None], z * sw, rcond=None)
        resid = z - design @ b
        return float(e @ (resid * resid))

    ones = np.ones(len(order))
    rss_r = rss(np.column_stack([Q, ones]))
    rss_f = rss(np.column_stack([C, Q, ones]))
    recomputed = (rss_r - rss_f) / rss_r
    bal_ok = 0.0 <= bal.partial_r2 <= 1.0 and abs(bal.partial_r2 - recomputed) < 1e-10

    report(9, "diagnostics identities (variance split, bin balance, partial R^2)",
           var_ok and bins_ok and bal_ok,
           f"var gap {abs(dec.within + dec.between - dec.total):.1e}, "
           f"partial_r2 gap {abs(bal.partial_r2 - recomputed):.1e}")


def test_criterion_10_spillover_equalities():
    rng = np.random.default_rng(SEED + 3)
    # overlapping bipartite graph, no extra controls
    units = [UnitRecord(f"u{i:03d}", float(rng.normal())) for i in range(60)]
    subs = [
        SubunitRecord(f"j{k:03d}", "pool", float(rng.normal()), float(rng.uniform(0.3, 1.5)))
        for k in range(45)
    ]
    edges = sorted(
        {
            (f"u{i:03d}", f"j{int(k):03d}")
            for i in range(60)
            for k in rng.choice(45, size=int(rng.integers(1, 4)), replace=False)
        }
    )
    data = Design.from_records(units, subs, SpilloverGraph(tuple(edges)))
    cfg = DesignConfig(bandwidth=0.8)
    bil = stacked_iv(data, cfg, spillover=True)
    col = collapsed_iv(data, cfg)
    gap_collapse = abs(bil.beta - col.beta) / max(1.0, abs(bil.beta))

    own_units, own_subs = random_bundle(rng, n_units=50)
    partition = SpilloverGraph(tuple((s.unit_id, s.subunit_id) for s in own_subs))
    bil_partition = stacked_iv(Design.from_records(own_units, own_subs, partition), cfg,
                               spillover=True)
    lower = stacked_iv(Design.from_records(own_units, own_subs), cfg)
    gap_partition = abs(bil_partition.beta - lower.beta)

    passed = gap_collapse <= 1e-10 and gap_partition <= 1e-12 * max(1.0, abs(lower.beta))
    report(10, "spillover collapse and partition-graph equalities", passed,
           f"collapse gap {gap_collapse:.1e}, partition gap {gap_partition:.1e}")
