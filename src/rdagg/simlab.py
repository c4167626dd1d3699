"""Monte Carlo laboratory: generators, replication sweeps, and the estimand oracle.

Running variables are drawn as r_j = rho * zeta_i(j) + sqrt(1 - rho^2) * xi_j
with zeta and xi i.i.d. standard normal, so within-unit correlation is rho^2
and the marginal of r is standard normal. Aggregated treatment is the
importance-weighted share of subunits strictly above the cutoff. Outcome
generators cover a linear confound, a symmetric quadratic, a kinked
quadratic, a single-subunit confound, and heterogeneous linear effects with
known potential outcomes for the oracle.

Reproducibility: every stream comes from SeedSequence(seed, spawn_key=...),
so datasets depend only on (seed, replication_index) and summaries do not
depend on scheduling or thread count.

``generate_design`` emits a dataset as a ``design.Design`` straight from the
generator's arrays; ``generate_dgp`` is its record form. The ids and their
resolution depend only on the number of events of each unit, so they are
assembled once into a skeleton and kept for the next call with the same
counts; each call places its draws into it. ``generate_dgp``, a one-off,
drops the skeleton it used. ``dataset_digest`` hashes the
design itself, so a sweep builds no records.

A Monte Carlo replication builds one design and goes bandwidth by
bandwidth: it builds the stack at h once and hands it to the three
estimators, whose configs differ only in the control set, which the sample
does not read. A sweep scores every estimate against the truth of its
population: 0 for the pure-confound kinds, and ``estimand_oracle``'s value
of the spec with its seed set to ``POPULATION_SEED`` under heterogeneous
effects. That oracle value is kept for the next sweep of the same
population, so a run over many data seeds draws it once.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import (Design, DesignConfig, Events, Stack, SubunitRecord, UnitRecord, Units,
                     design_stack)
from .errors import ConfigurationError, EstimationError, RdaError
from .estimators import EstimateResult, stacked_iv, upper_iv

IMPORTANCE_SCHEMES = ("equal", "dirichlet_random", "unit_sum_one")
OUTCOME_KINDS = (
    "linear",
    "symmetric_quadratic",
    "kinked_quadratic",
    "single_subunit",
    "heterogeneous_effects",
)
MC_ESTIMATORS = ("upper", "lower", "benchmark")

# 0.25, 0.35, ..., 1.25
DEFAULT_H_GRID = tuple(k / 100 for k in range(25, 126, 10))

# The seed of the large draw that stands for a spec's population in its oracle.
POPULATION_SEED = 0

# Shape of the localized confound in the heterogeneous-effects generator.
HET_KINK_SCALE = 4.0
HET_KINK_SUPPORT = 0.6


@dataclass(frozen=True)
class DgpSpec:
    """Generator parameters for one simulated design."""

    n_units: int = 1000
    n_subunits_per_unit: int = 5
    j_range: Optional[Tuple[int, int]] = None  # overrides the fixed count when set
    importance_scheme: str = "equal"
    rho: float = 0.5
    outcome_kind: str = "linear"
    noise_sd: float = 0.0
    effect_mean: float = 1.0
    effect_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 1 or self.n_subunits_per_unit < 1:
            raise ConfigurationError("counts must be at least 1")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigurationError("rho must lie in [0, 1]")
        if self.importance_scheme not in IMPORTANCE_SCHEMES:
            raise ConfigurationError(f"importance_scheme must be one of {IMPORTANCE_SCHEMES}")
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ConfigurationError(f"outcome_kind must be one of {OUTCOME_KINDS}")
        if self.noise_sd < 0:
            raise ConfigurationError("noise_sd must be nonnegative")
        if self.j_range is not None:
            if not (isinstance(self.j_range, tuple) and len(self.j_range) == 2
                    and all(isinstance(v, int) for v in self.j_range)):
                raise ConfigurationError("j_range must be a (lo, hi) pair of ints")
            lo, hi = self.j_range
            if lo < 1 or hi < lo:
                raise ConfigurationError("j_range must satisfy 1 <= lo <= hi")


@dataclass
class DgpTruth:
    """Ground truth attached to a generated dataset."""

    true_beta: Optional[float]
    unit_effects: Optional[Dict[str, float]] = None


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _draw_design(spec: DgpSpec, rng: np.random.Generator):
    """Draw sizes, running variables, and importance weights.

    Returns (counts per unit, unit index per subunit, running values,
    importance weights, unit factors zeta). Draw order is fixed; changing it
    would silently break reproducibility.
    """
    n = spec.n_units
    if spec.j_range is not None:
        counts = rng.integers(spec.j_range[0], spec.j_range[1] + 1, size=n)
    else:
        counts = np.full(n, spec.n_subunits_per_unit, dtype=np.int64)
    total = int(counts.sum())
    unit_idx = np.repeat(np.arange(n), counts)
    zeta = rng.standard_normal(n)
    xi = rng.standard_normal(total)
    r = spec.rho * zeta[unit_idx] + np.sqrt(1.0 - spec.rho**2) * xi
    if spec.importance_scheme == "equal":
        s = 1.0 / counts[unit_idx].astype(np.float64)
    elif spec.importance_scheme == "unit_sum_one":
        s = np.ones(total)
    else:  # dirichlet_random: heterogeneous within unit, summing to one
        s = np.empty(total)
        start = 0
        for c in counts:
            c = int(c)
            s[start : start + c] = rng.dirichlet(np.ones(c))
            start += c
    return counts, unit_idx, r, s, zeta


def _unit_sums(values: np.ndarray, unit_idx: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(unit_idx, weights=values, minlength=n)


def generate_design(spec: DgpSpec, replication_index: int = 0) -> Tuple[Design, DgpTruth]:
    """One simulated dataset, fully determined by (spec.seed, replication_index)."""
    rng = _rng(spec.seed, 0, replication_index)
    counts, unit_idx, r, s, _zeta = _draw_design(spec, rng)
    n = spec.n_units
    z = (r > 0.0).astype(np.float64)
    x = _unit_sums(s * z, unit_idx, n)

    unit_effects, truth = None, 0.0
    if spec.outcome_kind == "linear":
        y = _unit_sums(s * r, unit_idx, n)
    elif spec.outcome_kind == "symmetric_quadratic":
        y = _unit_sums(s * r * r, unit_idx, n)
    elif spec.outcome_kind == "kinked_quadratic":
        y = _unit_sums(s * r * r * z, unit_idx, n)
    elif spec.outcome_kind == "single_subunit":
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        picks = offsets + rng.integers(0, counts)
        y = r[picks]
    else:
        # heterogeneous_effects: unit-specific slopes on top of a kinked
        # baseline confound localized near the cutoff (support (0, 0.6],
        # curvature scale 4), so bandwidth bias is visible without flooding
        # small-bandwidth estimates with far-subunit noise.
        beta_i = spec.effect_mean + spec.effect_sd * rng.standard_normal(n)
        g = HET_KINK_SCALE * r * r * z * (r <= HET_KINK_SUPPORT)
        y = _unit_sums(s * g, unit_idx, n) + beta_i * x
        truth, unit_effects = None, beta_i
    if spec.noise_sd > 0:
        y = y + spec.noise_sd * rng.standard_normal(n)

    skeleton, order = _skeleton(tuple(counts.tolist()))
    design = replace(skeleton, units=replace(skeleton.units, outcome=y[order]),
                     events=replace(skeleton.events, running=r, importance=s))
    effects = (dict(zip(skeleton.units.ids, unit_effects[order].tolist()))
               if unit_effects is not None else None)
    return design, DgpTruth(true_beta=truth, unit_effects=effects)


@lru_cache(maxsize=1)
def _skeleton(counts: Tuple[int, ...]) -> Tuple[Design, np.ndarray]:
    """What a generated design takes from its sizes alone: the ids of unit i
    and of its events, given ``counts[i]`` events each, resolved through
    ``Design.assemble``, and the constant weight, override and win-flag
    columns. Also the input position of each unit row, so that drawn unit
    columns are placed in the design's row order.

    One entry is kept, so a sweep with fixed counts assembles once and one
    with drawn counts once per replication; ``generate_dgp`` clears it.
    Designs that share a skeleton share its ids and arrays; the arrays are
    read-only."""
    n = len(counts)
    width = max(5, len(str(n - 1)))
    unit_ids = [f"u{i:0{width}d}" for i in range(n)]
    suffixes = [f"-s{k}" for k in range(max(counts))]
    # Per-event constants are zero-stride views, which take no memory: the
    # kept skeleton adds only the ids and their resolution to what a caller
    # holds. The placeholder outcome of unit i is i, so the design's row
    # order reads off it.
    nan, zero = (np.broadcast_to(value, sum(counts)) for value in (np.nan, 0.0))
    skeleton = Design.assemble(
        Units(unit_ids, np.arange(n, dtype=np.float64), np.ones(n), np.full(n, np.nan), {}, {}),
        Events([uid + sfx for uid, c in zip(unit_ids, counts) for sfx in suffixes[:c]],
               [uid for uid, c in zip(unit_ids, counts) for _ in range(c)], zero, zero, nan, {}),
    )
    order = skeleton.units.outcome.astype(np.intp)
    for array in (order, skeleton.units.weight, skeleton.units.override,
                  skeleton.event_unit, skeleton.event_rank):
        array.flags.writeable = False
    return skeleton, order


def generate_dgp(spec: DgpSpec, replication_index: int = 0
                 ) -> Tuple[List[UnitRecord], List[SubunitRecord], DgpTruth]:
    """``generate_design`` as records. A one-off call has no next
    replication to share its skeleton with, so it leaves none behind."""
    design, truth = generate_design(spec, replication_index)
    _skeleton.cache_clear()
    units, subunits, _ = design.to_records()
    return units, subunits, truth


def dataset_digest(design: Design) -> str:
    """Content hash of a design's ids and numeric columns, for
    common-random-number checks. Digests are comparable only between
    datasets hashed by the same version of the package."""
    u, e = design.units, design.events
    content = (u.ids, e.ids, e.unit_ids, u.outcome.tolist(), u.weight.tolist(),
               e.running.tolist(), e.importance.tolist())
    return hashlib.sha256(repr(content).encode()).hexdigest()


def mc_design_config(h: float, control_set: str) -> DesignConfig:
    """Estimation settings used in simulation sweeps (strict cutoff rule)."""
    return DesignConfig(bandwidth=h, kernel="uniform", cutoff_rule="strict_gt",
                        tie_policy="keep", control_set=control_set)


def _run_estimator(name: str, design: Design, h: float, stack: Stack) -> EstimateResult:
    """One estimator's fit at ``h``, on the stack the sweep built there;
    ``name`` is one of MC_ESTIMATORS."""
    if name == "upper":
        return upper_iv(design, mc_design_config(h, "all_three_rda"), stack=stack)
    if name == "benchmark":
        return upper_iv(design, mc_design_config(h, "total_weight_only"), stack=stack)
    return stacked_iv(design, mc_design_config(h, "all_three_rda"), stack=stack)


def bootstrap_median_ci(
    values, n_boot: int = 300, level: float = 0.95, seed: int = 0
) -> Tuple[float, float]:
    """Percentile bootstrap interval for the sample median. An empty sample,
    fewer than two draws or a ``level`` outside (0, 1) is a
    ConfigurationError."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ConfigurationError("bootstrap_median_ci requires a nonempty sample")
    if n_boot < 2:
        raise ConfigurationError(f"n_boot must be at least 2, got {n_boot}")
    if not 0 < level < 1:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(n_boot, v.size))
    medians = np.median(v[idx], axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(medians, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _bootstrap_sd_se(values: np.ndarray, n_boot: int, seed: int) -> float:
    if values.size < 2:
        return float("nan")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    sds = np.std(values[idx], axis=1, ddof=1)
    return float(sds.std(ddof=1))


@dataclass
class McCell:
    """One (estimator, bandwidth) cell of a sweep, scored against the
    summary's ``truth`` over the replications with a finite estimate.
    ``mean_bias_se`` is ``sd`` over the square root of ``n_ok``;
    ``coverage`` is the share of those replications whose Wald interval, as
    the fit returned it, holds the truth (a non-finite end is a miss);
    ``se_sd_ratio`` is the median of their robust SEs over ``sd``.
    ``fail_reasons`` counts the failed replications by cause: the exception
    class name, or ``non-finite estimate`` for a NaN that the fit returned
    with a note."""

    estimator: str
    h: float
    median_bias: float
    ci_lo: float
    ci_hi: float
    sd: float
    sd_boot_se: float
    n_ok: int
    n_fail: int
    mean_bias: float
    mean_bias_se: float
    coverage: float
    se_sd_ratio: float
    fail_reasons: Dict[str, int] = field(default_factory=dict)


@dataclass
class McSummary:
    """A sweep's cells, its finite estimates by (estimator, bandwidth), and
    the truth they are scored against with that truth's own SE (0 for a
    known effect)."""

    cells: List[McCell]
    n_replications: int
    estimates: Dict[Tuple[str, float], np.ndarray]
    truth: float
    truth_se: float
    dataset_digests: List[str] = field(default_factory=list)
    high_failure: bool = False

    def cell(self, estimator: str, h: float) -> McCell:
        for c in self.cells:
            if c.estimator == estimator and c.h == h:
                return c
        raise KeyError((estimator, h))

    def to_csv(self) -> str:
        lines = ["estimator,h,median_bias,ci_lo,ci_hi,sd,n_ok,n_fail,"
                 "mean_bias,mean_bias_se,coverage,se_sd_ratio"]
        for c in self.cells:
            lines.append(
                f"{c.estimator},{c.h!r},{c.median_bias!r},{c.ci_lo!r},{c.ci_hi!r},"
                f"{c.sd!r},{c.n_ok},{c.n_fail},{c.mean_bias!r},{c.mean_bias_se!r},"
                f"{c.coverage!r},{c.se_sd_ratio!r}"
            )
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def _population_truth(population: DgpSpec) -> Tuple[float, float]:
    """``estimand_oracle``'s value and SE for a heterogeneous-effects
    population. One entry is kept, so a run of sweeps over the data seeds
    of one population draws the oracle once."""
    oracle = estimand_oracle(population)
    return oracle.beta0, oracle.se


def run_monte_carlo(
    spec: DgpSpec,
    estimators: Sequence[str] = MC_ESTIMATORS,
    h_grid: Sequence[float] = DEFAULT_H_GRID,
    n_replications: int = 100,
    n_bootstrap: int = 300,
    seed: int = 0,
    level: float = 0.95,
    threads: int = 1,
    keep_digests: bool = False,
) -> McSummary:
    """Replication sweep over bandwidths with common random numbers.

    Each replication draws one dataset and every (estimator, bandwidth) pair
    is evaluated on that same dataset. The work goes in this order: per
    replication, one ``generate_design``; per bandwidth, one
    ``design_stack``; per estimator, one fit on that stack, of which the
    replication keeps the beta, the robust SE and the Wald interval. An
    estimation failure (a package error, a singular linear system or a
    non-finite estimate) is recorded, not fatal, and each cell counts its
    failures by cause; a stack that cannot be built fails every estimator
    at its bandwidth with its cause. Any other exception propagates. The
    summary flags runs where more than 1% of cells failed. Fewer than two
    replications or bootstrap draws, a ``level`` outside (0, 1), fewer than
    one thread, an estimator name not in MC_ESTIMATORS or a bandwidth that
    is not positive is a ConfigurationError before the first replication.

    The truth is 0 for the pure-confound outcome kinds. Under heterogeneous
    effects it is the cutoff-slice estimand of the population, the spec
    with its seed set to POPULATION_SEED, from ``estimand_oracle``; the
    summary carries its SE as ``truth_se``.
    """
    estimators = list(estimators)
    h_grid = [float(h) for h in h_grid]
    unknown = [name for name in estimators if name not in MC_ESTIMATORS]
    bad = [h for h in h_grid if not h > 0]
    problems = [message for failed, message in (
        (n_replications < 2, "n_replications must be at least 2"),
        (n_bootstrap < 2, f"n_bootstrap must be at least 2, got {n_bootstrap}"),
        (not 0 < level < 1, f"level must lie in (0, 1), got {level}"),
        (threads < 1, f"threads must be at least 1, got {threads}"),
        (unknown, f"unknown estimators {unknown} (choose from {MC_ESTIMATORS})"),
        (bad, f"bandwidths must be positive, got {bad}"),
    ) if failed]
    if problems:
        raise ConfigurationError("; ".join(problems))
    truth, truth_se = 0.0, 0.0  # every other generator is a pure confound
    if spec.outcome_kind == "heterogeneous_effects":
        truth, truth_se = _population_truth(replace(spec, seed=POPULATION_SEED))
    spec = replace(spec, seed=seed)
    nan = float("nan")

    def one_replication(rep: int):
        design, _ = generate_design(spec, rep)
        out = {}
        for h in h_grid:
            # one sample per bandwidth: the control set does not enter it
            try:
                stack = design_stack(design, mc_design_config(h, "all_three_rda"))
            except (RdaError, np.linalg.LinAlgError) as exc:
                out.update({(name, h): ((nan,) * 4, type(exc).__name__) for name in estimators})
                continue
            for name in estimators:
                try:
                    fit = _run_estimator(name, design, h, stack)
                    draw = (fit.beta, fit.robust_se, *fit.inference.wald_ci)
                    reason = None if np.isfinite(fit.beta) else "non-finite estimate"
                except (RdaError, np.linalg.LinAlgError) as exc:
                    draw, reason = (nan,) * 4, type(exc).__name__
                out[(name, h)] = draw, reason
        return out, dataset_digest(design) if keep_digests else ""

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(one_replication, range(n_replications)))
    else:
        outputs = [one_replication(rep) for rep in range(n_replications)]
    results, digests = zip(*outputs)

    cells: List[McCell] = []
    estimates: Dict[Tuple[str, float], np.ndarray] = {}
    for cell_index, (name, h) in enumerate(product(estimators, h_grid)):
        pairs = [results[rep][(name, h)] for rep in range(n_replications)]
        beta, se, lo, hi = np.array([draw for draw, _ in pairs]).T
        ok = np.isfinite(beta)
        finite = estimates[(name, h)] = beta[ok]
        biases, n_ok = finite - truth, int(finite.size)
        ci = (bootstrap_median_ci(biases, n_bootstrap, level,
                                  seed=_derived_seed(seed, 1, cell_index)) if n_ok else (nan, nan))
        sd = float(finite.std(ddof=1)) if n_ok > 1 else nan
        cells.append(McCell(
            estimator=name,
            h=h,
            median_bias=float(np.median(biases)) if n_ok else nan,
            ci_lo=ci[0],
            ci_hi=ci[1],
            sd=sd,
            sd_boot_se=_bootstrap_sd_se(finite, n_bootstrap, _derived_seed(seed, 2, cell_index)),
            n_ok=n_ok,
            n_fail=n_replications - n_ok,
            mean_bias=float(finite.mean() - truth) if n_ok else nan,
            mean_bias_se=float(sd / np.sqrt(n_ok)) if n_ok else nan,
            coverage=float(np.mean((lo[ok] <= truth) & (truth <= hi[ok]))) if n_ok else nan,
            se_sd_ratio=float(np.median(se[ok]) / sd) if n_ok else nan,
            fail_reasons=dict(sorted(Counter(reason for _, reason in pairs if reason).items())),
        ))
    return McSummary(
        cells=cells,
        n_replications=n_replications,
        estimates=estimates,
        truth=truth,
        truth_se=truth_se,
        dataset_digests=list(digests) if keep_digests else [],
        high_failure=sum(c.n_fail for c in cells) > 0.01 * len(cells) * n_replications,
    )


@dataclass
class OracleEstimand:
    """Numerical value of the limiting estimand with its own Monte Carlo SE."""

    beta0: float
    se: float
    n_slice: int


def estimand_oracle(
    spec: DgpSpec,
    epsilon: float = 0.01,
    n_units: int = 400_000,
    seed: Optional[int] = None,
) -> OracleEstimand:
    """Brute-force evaluation of the cutoff-slice estimand.

    Draws a large design, restricts to subunits with |r| < epsilon, and
    toggles each subunit's cutoff indicator analytically: the estimand is the
    ratio of the mean reweighted outcome response to the mean reweighted
    treatment response on the slice. The built-in outcome kinds all have
    analytic responses (zero for the pure-confound kinds; beta_i times the
    importance weight under heterogeneous effects).
    """
    rng = _rng(spec.seed if seed is None else seed, 3)
    big = replace(spec, n_units=n_units)
    counts, unit_idx, r, s, _zeta = _draw_design(big, rng)
    if spec.outcome_kind == "heterogeneous_effects":
        beta_i = spec.effect_mean + spec.effect_sd * rng.standard_normal(n_units)
        outcome_response = s * beta_i[unit_idx] * s  # s_j * (beta_i * s_j)
    else:
        outcome_response = np.zeros_like(s)
    treatment_response = s * s  # s_j * (X(1) - X(0)) with X linear in z

    mask = np.abs(r) < epsilon
    num = outcome_response[mask]
    den = treatment_response[mask]
    m = int(mask.sum())
    if m == 0:
        raise EstimationError("empty oracle slice; increase n_units or epsilon")
    a, b = float(num.mean()), float(den.mean())
    beta0 = a / b
    var_a = float(num.var(ddof=1)) if m > 1 else 0.0
    var_b = float(den.var(ddof=1)) if m > 1 else 0.0
    cov_ab = float(np.cov(num, den, ddof=1)[0, 1]) if m > 1 else 0.0
    var_ratio = (var_a / b**2 + a**2 * var_b / b**4 - 2 * a * cov_ab / b**3) / m
    return OracleEstimand(beta0=beta0, se=float(np.sqrt(max(var_ratio, 0.0))), n_slice=m)
